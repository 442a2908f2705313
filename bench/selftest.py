#!/usr/bin/env python3
"""Self-test of the benchmark: python3 bench/selftest.py (about a minute).

1. Runs a tiny size of every workload, untraced and traced, and checks the
   result line: its keys, every metric named in BENCHMARK.json with its unit,
   and that no op failed.
2. Corrupts one verified output and makes one op raise unexpectedly, and
   checks that both are counted as failed and lower solved_frac.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's files, and checks that it exits non-zero without a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import ops
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_lists() -> None:
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert declared == table, f"BENCHMARK.json {key} differs from bench/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)


def check_tiny_runs() -> None:
    for workload in ops.WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--scale", "tiny"], run.ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(expected))}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, {result['attempted']} ops attempted")


def check_failures_counted() -> None:
    op_list = ops.generate("solver-sweep", 7, "tiny")
    work = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, setups, _ = run.measure(0.5, False, op_list, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    clean, _ = run.evaluate("solver-sweep", op_list, result, setups, False)
    assert clean["correct"] and clean["failed"] == 0
    passes = len(result["passes"])

    tilt = next(i for i, op in enumerate(op_list) if op["config"]["command"] == "tilt")
    wrong = copy.deepcopy(result)
    payload = json.loads(wrong["outputs"][tilt]["json"])
    payload["lambda"] += 1e-3
    wrong["outputs"][tilt]["json"] = json.dumps(payload)
    bad, report = run.evaluate("solver-sweep", op_list, wrong, setups, False)
    assert not bad["correct"] and bad["failed"] == passes, bad
    assert bad["metrics"]["solved_frac"]["value"] < clean["metrics"]["solved_frac"]["value"]
    assert any("WRONG" in line for line in report)

    corr = next(i for i, op in enumerate(op_list) if op["config"]["command"] == "corr")
    raised = copy.deepcopy(result)
    raised["passes"][0]["status"][corr] = "ValueError"
    raised["passes"][0]["sums"][corr] = "ValueError: injected"
    bad, _ = run.evaluate("solver-sweep", op_list, raised, setups, False)
    assert not bad["correct"] and bad["failed"] >= passes, bad
    print(f"ok  a wrong output and an unexpected error each count as failed ({passes} passes)")


def check_fails_without_sources() -> None:
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "exact-laws", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok  without the library sources it exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_metric_lists()
    check_tiny_runs()
    check_failures_counted()
    check_fails_without_sources()
    print("selftest passed")
