"""Static checks on the library source."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import maxent_bayes

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "maxent_bayes"

# Public names kept although no command, script or acceptance criterion uses them.
UNREACHED_BY_DESIGN = {
    "contract_rate": "the contraction step of the Sanov extension; its tests check level coherence",
    "shannon_entropy": "the oracle of the max-entropy property tests",
}


def test_library_code_has_no_assert_statements():
    # python -O strips assert statements, so a library check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def called_name(node: ast.AST) -> str | None:
    """The name of the function or method a call node calls; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def calls(name: str) -> list[tuple[str, ast.Call]]:
    """Every call in the library of a function or method called ``name``, with its place."""
    return [
        (f"{path.name}:{node.lineno}", node)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if called_name(node) == name
    ]


def test_no_log_of_a_ratio():
    # log(p / q) overflows where q is subnormal; relative entropy takes
    # log p - log q (measures.relative_entropy)
    found = [place for place, node in calls("log")
             if node.args and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Div)]
    assert found == []


def test_one_relative_entropy_projection_solve():
    # every tilt, I-projection, rate grid and meta fit solves its multipliers
    # through tilting._project, the one caller of the multiplier root
    places = [place for place, _ in calls("_tilt_multiplier")]
    assert len(places) == 1 and places[0].startswith("tilting.py:"), places


def ldp_callers(name: str) -> list[str]:
    """The top-level functions of ldp.py that call ``name``, when it is called only there."""
    places = [place for place, _ in calls(name)]
    assert len(places) == 1 and places[0].startswith("ldp.py:"), places
    tree = ast.parse((SOURCE / "ldp.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                    for call in ast.walk(node))]


def test_one_caller_of_the_type_enumeration():
    # the Sanov probability, the Gibbs conditional mean and the meta law all
    # read the type classes of ldp._type_terms
    assert ldp_callers("enumerate_types") == ["_type_terms"]


def test_one_caller_of_the_lattice_recursion():
    # the log-domain recursion is the meta law's lattice method, chosen by its term count
    assert ldp_callers("_lattice_law") == ["error_distribution_exact"]


def test_one_caller_of_the_tilted_pass():
    # the window readers' lattice method: one pass per grid, tilted by the
    # window's dominating point
    assert ldp_callers("_tilted_pass") == ["_window_laws"]


def test_window_readers_never_reach_the_log_domain_recursion():
    # a window needs only the mass near its dominating point, which the
    # tilted pass keeps; the log-domain recursion stays the meta law's
    tree = ast.parse((SOURCE / "ldp.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for reader in ("sanov_exact", "gibbs_conditioning"):
        reached, todo = set(), [reader]
        while todo:
            for call in ast.walk(functions[todo.pop()]):
                name = called_name(call)
                if name in functions and name not in reached:
                    reached.add(name)
                    todo.append(name)
        assert "_tilted_pass" in reached and "_lattice_law" not in reached, (reader, sorted(reached))


def test_window_readers_do_not_sort_the_exact_law():
    # a window's mass is a masked log-sum-exp over the ungrouped terms; only
    # error_distribution_exact (the meta law) sorts and groups them
    tree = ast.parse((SOURCE / "ldp.py").read_text(encoding="utf-8"))
    readers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("sanov_exact", "gibbs_conditioning")}
    assert sorted(readers) == ["gibbs_conditioning", "sanov_exact"]
    found = [f"{name}:{call.lineno}" for name, node in readers.items() for call in ast.walk(node)
             if called_name(call) in ("error_distribution_exact", "argsort")]
    assert found == []


def test_the_cli_sizes_exact_laws_through_their_one_check():
    # ldp.check_exact_law applies the cap to the method that will run; the cli
    # sizes only sanov's law, since gibbs and meta validate by running
    assert [place for place, _ in calls("check_table_size") if place.startswith("cli.py:")] == []
    places = [place for place, _ in calls("check_exact_law") if place.startswith("cli.py:")]
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    callers = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and any(called_name(call) == "check_exact_law" for call in ast.walk(node))]
    assert len(places) == 1 and callers == ["_prepare_sanov"], (places, callers)


def identifiers(path: Path) -> set[str]:
    """Every name, attribute and imported name that a file mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_is_reached():
    # a public name must serve a command (a library module other than the
    # package's export list), a script or an acceptance criterion; a
    # definition alone is not a use
    callers = [p for p in SOURCE.glob("*.py") if p.stem != "__init__"]
    callers += sorted(ROOT.glob("scripts/*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*(identifiers(path) for path in callers))
    unreached = [
        name
        for name in maxent_bayes.__all__
        if not inspect.ismodule(getattr(maxent_bayes, name))
        and name not in UNREACHED_BY_DESIGN
        and name not in used
    ]
    assert unreached == []


def test_every_traced_benchmark_target_exists():
    # bench/spans.py wraps these by name; a rename would drop them from the trace
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    names.append(("ldp", "SeededSampler.multinomial_block"))
    assert len(names) > 10
    missing = []
    for module, path in names:
        obj = importlib.import_module(f"maxent_bayes.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_trace_hooks_read_the_exact_law():
    # bench/spans.py counts the rows of enumerate_types and the support of
    # error_distribution_exact; run one tiny sanov, gibbs and meta op traced,
    # in a subprocess so that the wrappers stay out of this one
    configs = [
        {"command": "sanov", "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "target_interval": [0.7, 1.0],
                                        "n_grid": [10, 20], "method": "exact"}},
        {"command": "gibbs", "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "Xi": [0.7, 0.8], "n_grid": [10]}},
        {"command": "meta", "inputs": {"P": [0.5, 0.5], "loss_row": [0, 1], "n": 16, "Xi": [0.6, 0.9],
                                       "U": {"kind": "identity"}, "eta": 0.7, "model_grid_step": 0.01}},
    ]
    code = (
        "import io, json, sys, tempfile\n"
        f"sys.path[:0] = [{str(SOURCE.parent)!r}, {str(ROOT / 'bench')!r}]\n"
        "from maxent_bayes import cli\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "missing = spans.install(tracer)\n"
        f"for config in json.loads({json.dumps(configs)!r}):\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        cli.run(config, out_dir=out, stdout=io.StringIO())\n"
        "print(json.dumps({'missing': missing, 'counts': dict(tracer.counts)}))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    out = json.loads(run.stdout.splitlines()[-1])
    counts = out["counts"]
    assert out["missing"] == []
    for name in ("ldp.enumerate_types.types", "ldp.enumerate_types.bytes", "meta.error_distribution_exact.support"):
        assert counts.get(name, 0) > 0, name
    assert [name for name in counts if name.endswith(".failed")] == []


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":  # the package imports names to export them
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_importing_the_cli_loads_only_the_standard_library_and_numpy():
    # the set-up of every run imports the cli: scipy and other test-only
    # packages must stay off that path.  Modules the interpreter loads before
    # any import (site hooks) are not counted.
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SOURCE.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import maxent_bayes.cli\n"
        "print(json.dumps(sorted({name.split('.')[0] for name in set(sys.modules) - before})))\n"
    )
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout)
    assert "maxent_bayes" in loaded and "numpy" in loaded
    assert [name for name in loaded if name not in sys.stdlib_module_names | {"numpy", "maxent_bayes"}] == []
