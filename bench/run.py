#!/usr/bin/env python3
"""maxent-bayes benchmark: seeded op mixes through maxent_bayes.cli.run.

    python3 bench/run.py --workload exact-laws --seed 1 --seconds 20 --trace 0

Run from a checkout that holds src/maxent_bayes. Each workload's ops are
generated from --seed (bench/ops.py) and executed in a fresh child process
(bench/child.py) by one closed-loop client: each op starts when the previous
one returns. Every op's output is then checked against an independent oracle
(bench/checks.py) outside the timed region.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (bench/spans.py). The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 8  # set-up spawns per run; the first only warms caches, the measured child adds one
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
    "mc_usable_frac": "ratio",
}

_SPAN_TIMES = (
    "cli.run", "cli.prepare", "jsonio.dumps", "jsonio.csv_text", "jsonio.sha256_text",
    "ldp.enumerate_types", "meta.error_distribution_exact", "ldp.sanov_exact", "ldp.gibbs_conditioning",
    "tilting.solve_tilt", "tilting.i_projection", "tilting.divergence_projection", "ldp.error_rate_function",
    "meta.maxent_error_fit", "meta.map_model", "ldp.sanov_monte_carlo",
    "measures.kl_divergence", "measures.total_variation", "correlation.loss_correlation_curve",
)
LAYERS = ("cli", "jsonio", "ldp", "meta", "tilting", "measures", "correlation")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SPAN_TIMES},
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "ldp.enumerate_types.calls": "count",
    "ldp.enumerate_types.types": "count",
    "ldp.enumerate_types.bytes": "bytes",
    "meta.error_distribution_exact.support": "count",
    "tilting.solve_tilt.calls": "count",
    "tilting.i_projection.calls": "count",
    "tilting.divergence_projection.calls": "count",
    "tilting.divergence_projection.failed": "count",
    "ldp.error_rate_function.points": "count",
    "meta.maxent_error_fit.calls": "count",
    "meta.maxent_error_fit.failed": "count",
    "meta.map_model.grid_points": "count",
    "ldp.sanov_monte_carlo.trials": "count",
    "ldp.sanov_monte_carlo.hit_ratio": "ratio",
    "ldp.sanov_monte_carlo.slope_err": "1/n",
    "ldp.sampler.draw_s": "s",
    "jsonio.bytes_out": "bytes",
    "layer.intended_share": "ratio",
    "trace.overhead_s": "s",
}
# The layers each workload is meant to stress.
INTENDED = {"exact-laws": ("ldp", "meta"), "solver-sweep": ("tilting",), "rare-events": ("ldp",)}


class BenchError(Exception):
    pass


def _spawn(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its "ready" line; returns it with the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"child exited before it was ready (code {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child ran past the deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")


def measure(seconds: float, trace: bool, op_list: list[dict], work: Path) -> tuple[dict, list[float], int]:
    """Run the set-up samples and the measured child; returns (result, setup times, nproc)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    (work / "configs.json").write_text(json.dumps([op["config"] for op in op_list]), encoding="utf-8")
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MAXENT_BAYES_THREADS")}
    env.update({name: str(nproc) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), str(work)]
    setups = []
    for i in range(SETUP_SAMPLES):
        proc, ready = _spawn(cmd + ["setup", "0", "0", str(nproc)], env)
        _finish(proc, deadline - time.perf_counter())
        if i:  # the first spawn warms the file cache and writes bytecode
            setups.append(ready)
    proc, ready = _spawn(cmd + ["run", str(seconds), str(int(trace)), str(nproc)], env)
    setups.append(ready)
    _finish(proc, deadline - time.perf_counter())
    return json.loads((work / "result.json").read_text(encoding="utf-8")), setups, nproc


def verdicts(op_list: list[dict], result: dict) -> tuple[list[str], list[list[str]]]:
    """Pass-0 verdict per op: solved, known (a listed defect still shows), raised or wrong.

    A listed defect shows as its error being raised, or, for ``expect`` "wrong",
    as an output the oracle rejects."""
    first = result["passes"][0]
    out, notes = [], []
    for op, status, outputs, detail in zip(op_list, first["status"], result["outputs"], first["sums"]):
        if status == "ok":
            try:
                problems = checks.check(op, outputs)
            except Exception as exc:  # malformed output: report it as wrong, keep checking
                problems = [f"check failed on the output: {type(exc).__name__}: {exc}"]
            out.append(("known" if op["expect"] == "wrong" else "wrong") if problems else "solved")
            notes.append([] if op["expect"] == "wrong" else problems)
        else:
            out.append("known" if status == op["expect"] else "raised")
            notes.append([] if status == op["expect"] else [f"unexpected error: {detail}"])
    return out, notes


def evaluate(workload: str, op_list: list[dict], result: dict, setups: list[float], trace: bool) -> tuple[dict, list[str]]:
    """The result object and the report lines for one run."""
    first_verdicts, notes = verdicts(op_list, result)
    passes = result["passes"] + result.get("traced", [])
    first = passes[0]
    tally = {"solved": 0, "known": 0, "raised": 0, "wrong": 0}
    for p in passes:
        for i, verdict in enumerate(first_verdicts):
            same = p["status"][i] == first["status"][i] and p["sums"][i] == first["sums"][i]
            tally[verdict if same else "wrong"] += 1
    attempted = len(op_list) * len(passes)
    failed = tally["raised"] + tally["wrong"]

    mc = [checks.mc_accuracy(op, out) for op, v, out in zip(op_list, first_verdicts, result["outputs"])
          if v == "solved" and op["kind"].startswith("mc-")]
    usable = sum(u for _, u, _ in mc) / max(sum(g for _, _, g in mc), 1)
    slope_err = statistics.fmean(e for e, _, _ in mc) if mc else 0.0

    report = [f"workload {workload}: {len(op_list)} ops x {len(passes)} passes; "
              f"solved {tally['solved']}, known-defect {tally['known']}, raised {tally['raised']}, wrong {tally['wrong']}"]
    for op, verdict, problems in zip(op_list, first_verdicts, notes):
        if verdict == "known":
            shows = "gives a wrong output" if op["expect"] == "wrong" else f"raises {op['expect']}"
            report.append(f"  known defect still {shows}: {op['why']}")
        for problem in problems:
            report.append(f"  {verdict.upper()} {op['kind']}: {problem}")

    if not trace:
        metrics = {
            "wall_s": pass_wall(result["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "solved_frac": tally["solved"] / attempted,
            "mc_usable_frac": usable,
        }
        units = END_TO_END
    else:
        metrics, lines = per_layer(workload, result, slope_err)
        report += lines
        units = PER_LAYER
    report += [f"  {name} = {metrics[name]:.6g} {units[name]}" for name in units]
    body = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": body}, report


def pass_wall(passes: list[dict]) -> float:
    """Wall time of one pass of the op list: the sum over ops of each op's median
    duration across passes, which drops an op's slow outliers where a median of
    whole passes would still carry them."""
    return sum(statistics.median(op) for op in zip(*(p["op_s"] for p in passes)))


def per_layer(workload: str, result: dict, slope_err: float) -> tuple[dict, list[str]]:
    traced = [p["layers"] for p in result["traced"]]
    names = {name for layers in traced for name in layers}
    med = {name: statistics.median(layers.get(name, 0.0) for layers in traced) for name in names}
    metrics = {name: float(med.get(name, 0.0)) for name in PER_LAYER}
    metrics["ldp.sampler.draw_s"] = med.get("ldp.sampler.draw.self_s", 0.0)
    trials = med.get("ldp.sanov_monte_carlo.trials", 0.0)
    metrics["ldp.sanov_monte_carlo.hit_ratio"] = med.get("ldp.sanov_monte_carlo.hits", 0.0) / trials if trials else 0.0
    metrics["ldp.sanov_monte_carlo.slope_err"] = slope_err
    op_time = med.get("bench.op.wall_s", 0.0)
    outside = sum(med.get(f"layer.{layer}.self_s", 0.0) for layer in LAYERS + ("bench",)
                  if layer not in INTENDED[workload])
    metrics["layer.intended_share"] = 1.0 - outside / op_time if op_time else 0.0
    metrics["trace.overhead_s"] = pass_wall(result["traced"]) - pass_wall(result["passes"])
    lines = [f"  op wall {op_time:.4f} s per traced pass; self time by layer:"]
    lines += [f"    {layer:12s} {med.get(f'layer.{layer}.self_s', 0.0):9.4f} s" for layer in LAYERS + ("bench",)]
    lines.append(f"  intended layers {'+'.join(INTENDED[workload])} carry "
                 f"{100 * metrics['layer.intended_share']:.1f}% of op time")
    if result.get("untraced_targets"):
        lines.append(f"  not traced (absent in this library version): {', '.join(result['untraced_targets'])}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(ops.SIZES), default="full",
                    help="op sizes; tiny is for the benchmark's own self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "maxent_bayes" / "cli.py").is_file():
        print(f"bench: no maxent_bayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op_list = ops.generate(args.workload, args.seed, args.scale)
    try:
        result, setups, nproc = measure(args.seconds, bool(args.trace), op_list, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "ops", ignore_errors=True)
    summary, report = evaluate(args.workload, op_list, result, setups, bool(args.trace))
    print(f"maxent_bayes from {result['library']}; Python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}; nproc {nproc}, BLAS threads pinned to {nproc}")
    print("\n".join(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
