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


def test_the_tilt_multiplier_runs_no_loop_of_its_own():
    # _bracketed_root, started from 0 on the whole line, is the tilt's only
    # iterative solve: no probe loop widens a bracket before it
    tree = ast.parse((SOURCE / "tilting.py").read_text(encoding="utf-8"))
    function = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_tilt_multiplier")
    found = [node.lineno for node in ast.walk(function) if isinstance(node, (ast.For, ast.While))]
    assert found == []


def ldp_callers(name: str) -> list[str]:
    """The top-level functions of ldp.py that call ``name``, when it is called only there."""
    places = [place for place, _ in calls(name)]
    assert places and all(place.startswith("ldp.py:") for place in places), places
    tree = ast.parse((SOURCE / "ldp.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                    for call in ast.walk(node))]


def test_one_caller_of_the_type_enumeration():
    # the meta law off a lattice, ldp.error_distribution_exact, reads the
    # type classes itself; the window readers read the slab of
    # ldp._slab_terms, without its box where the slab's bound does not hold a read
    assert len(calls("enumerate_types")) == 1
    assert ldp_callers("enumerate_types") == ["error_distribution_exact"]


def callers(name: str) -> list[str]:
    """file:function for each top-level function of the library that calls ``name``, in file order."""
    return [f"{path.name}:{node.name}" for path in sorted(SOURCE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(node, ast.FunctionDef)
            and any(called_name(call) == name for call in ast.walk(node))]


def test_one_builder_of_every_table_of_types():
    # ldp._compositions alone expands count vectors level by level (a loop
    # that repeats rows): the type enumeration, the type slab and the MAP
    # model grid all call it.  A type's mean and its log-probability each
    # have one home, which the enumeration and the slab both read
    expanding = [f"{path.name}:{node.name}" for path in sorted(SOURCE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)
                 and any(isinstance(loop, (ast.For, ast.While)) and any(called_name(c) == "repeat" for c in ast.walk(loop))
                         for loop in ast.walk(node))]
    assert expanding == ["ldp.py:_compositions"]
    assert callers("_compositions") == ["ldp.py:enumerate_types", "ldp.py:_slab_terms", "meta.py:simplex_grid"]
    assert callers("_type_log_probs") == ["ldp.py:enumerate_types", "ldp.py:_slab_terms"]
    assert callers("_type_means") == ["ldp.py:_slab_terms", "ldp.py:error_distribution_exact"]
    assert callers("lgamma") == ["ldp.py:_type_log_probs"]


def test_the_log_domain_recursion_left_the_library():
    # every lattice law is read off linear-domain tilted passes; the
    # log-domain recursion is the tests' oracle only
    found = [path.name for path in sorted(SOURCE.glob("*.py")) if "_lattice_law" in path.read_text(encoding="utf-8")]
    assert found == []


def test_one_monte_carlo_sampler():
    # SeededSampler draws conditional binomials, each by inversion of its
    # cdf table unless a later count's tables outweigh its draws; window_hits
    # reads the last one's window verdict off its uniform where it is a table
    # read with at most three symbols drawn, else draws it and tests the same
    # mean, and multinomial_block draws it.  numpy's per-trial multinomial is
    # not kept beside them
    assert calls("multinomial") == []


def test_two_callers_of_the_tilted_pass():
    # the window readers' lattice method (one pass per grid, tilted by the
    # window's dominating point) and the meta law's (passes over its window)
    assert len(calls("_tilted_pass")) == 2
    assert ldp_callers("_tilted_pass") == ["_lattice_window", "_window_laws"]


def test_window_readers_run_one_pass_per_grid():
    # a window needs only the mass near its dominating point, which one
    # tilted pass keeps; the passes over a whole window stay the meta law's
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
        assert "_tilted_pass" in reached and "_lattice_window" not in reached, (reader, sorted(reached))
        assert {"_slab_terms", "_compositions"} <= reached, (reader, sorted(reached))


def test_window_readers_do_not_consult_the_type_enumeration():
    # sanov_exact and gibbs_conditioning read one tilted pass or the type
    # slab, and a read the slab's bound does not hold reads the slab again
    # without its box: nothing they reach sizes, prices or builds the type
    # enumeration, which with ENUMERATION_WEIGHT is the meta law's alone,
    # weighed and read in error_distribution_exact
    functions = {node.name: node for path in sorted(SOURCE.glob("*.py"))
                 for node in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(node, ast.FunctionDef)}
    consulted = {"ENUMERATION_WEIGHT", "table_size", "enumerate_types"}
    for reader in ("sanov_exact", "gibbs_conditioning"):
        reached, todo = {reader}, [reader]
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                name = node.id if isinstance(node, ast.Name) else called_name(node)
                if name in functions and name not in reached:
                    reached.add(name)
                    todo.append(name)
        assert {"_window_laws", "_slab_terms", "_distinct_values"} <= reached, (reader, sorted(reached))
        found = sorted(f"{name}:{node.id}" for name in reached for node in ast.walk(functions[name])
                       if isinstance(node, ast.Name) and node.id in consulted)
        assert found == [], reader
    assert not {"_exact_method", "check_exact_law", "_type_terms"} & set(functions)
    weighing = [name for name, node in functions.items()
                if any(isinstance(ref, ast.Name) and ref.id == "ENUMERATION_WEIGHT" for ref in ast.walk(node))]
    assert weighing == ldp_callers("enumerate_types") == ["error_distribution_exact"]


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


def test_the_cli_decides_no_feasibility():
    # the cli parses; whether a config is feasible, or its law within the
    # cap, is decided by the computation that validate and run both execute
    found = [place for name in ("resolve_target", "enumerate_types", "check_table_size")
             for place, _ in calls(name) if place.startswith("cli.py:")]
    assert found == []
    assert "RUN_TO_VALIDATE" not in identifiers(SOURCE / "cli.py")


def test_one_command_table():
    # each command's preparer and the input keys it reads share one entry of
    # cli.COMMANDS, which prepare and the parser both read
    from maxent_bayes import cli

    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    tables = [target.id for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and {getattr(key, "value", None) for key in node.value.keys} == set(cli.COMMANDS)
              for target in node.targets]
    assert tables == ["COMMANDS"]


def test_one_float_resolution_rule():
    # windows, groupings, lattices, ties and monotonicity are all held to
    # measures._floor of the values compared: no fixed band stays beside it
    texts = [path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))]
    fixed_bands = ("XI_BAND", "LATTICE_ULPS", "TIE_TOLERANCE")
    assert [name for name in fixed_bands if any(name in text for text in texts)] == []
    definitions = [f"{path.name}:{node.lineno}" for path in sorted(SOURCE.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.FunctionDef) and node.name == "_floor"]
    assert len(definitions) == 1 and definitions[0].startswith("measures.py:"), definitions


def test_one_window_rule():
    # a point target is the window [c, c], so no reader branches on the form
    # of a target, and tilting.resolve_target alone turns a window into its
    # dominating point, the mean clipped into the window, and then a point
    # within the band of the window readers of a range end to that end.  The
    # two other clips take the meta window's ends, and the window the readers
    # hold computed means to, into the attainable range.
    found = [f"{path.name} {name}" for path in sorted(SOURCE.glob("*.py"))
             for name in sorted({"is_interval", "_window"} & identifiers(path))]
    assert found == []
    clips = [(path.name, function.name) for path in sorted(SOURCE.glob("*.py"))
             for function in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function) if called_name(node) == "clip"]
    assert clips == [("ldp.py", "_held_window"), ("meta.py", "_tilt_candidates"), *[("tilting.py", "resolve_target")] * 2]


def test_one_feasibility_rule():
    # tilting.resolve_target alone decides whether a window can be reached:
    # no reader turns an InfeasibleError into an answer of its own, the band
    # of a range end is the window readers' (measures.in_window), every tilt
    # of log weights is one softmax, and the MAP search takes one argmax
    handlers = [f"{name}:{node.lineno}" for name in ("ldp.py", "meta.py")
                for node in ast.walk(ast.parse((SOURCE / name).read_text(encoding="utf-8")))
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "InfeasibleError" in ast.unparse(node.type)]
    assert handlers == []
    gone = [f"{path.name} {name}" for path in sorted(SOURCE.glob("*.py"))
            for name in sorted({"_dominating_point", "_tilt_state"} & identifiers(path))]
    assert gone == []
    definitions = [path.name for path in sorted(SOURCE.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.FunctionDef) and node.name == "in_window"]
    assert definitions == ["measures.py"]
    assert [place.split(":")[0] for place, _ in calls("_best_model")] == ["meta.py"]


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
    # error_distribution_exact; run tiny sanov, gibbs and meta ops traced,
    # in a subprocess so that the wrappers stay out of this one
    configs = [
        {"command": "sanov", "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "target_interval": [0.7, 1.0],
                                        "n_grid": [10, 20], "method": "exact"}},
        {"command": "gibbs", "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "Xi": [0.7, 0.8], "n_grid": [10]}},
        {"command": "meta", "inputs": {"P": [0.5, 0.5], "loss_row": [0, 1], "n": 16, "Xi": [0.6, 0.9],
                                       "U": {"kind": "identity"}, "eta": 0.7, "model_grid_step": 0.01}},
        # an irrational potential keeps the type enumeration
        {"command": "meta", "inputs": {"P": [0.3, 0.3, 0.4], "loss_row": [0, 1, 2 ** 0.5], "n": 12, "Xi": [0.5, 1.0],
                                       "U": {"kind": "identity"}, "eta": 0.75, "model_grid_step": 0.05}},
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
