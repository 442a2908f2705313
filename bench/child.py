"""Benchmark child process: runs one workload's ops through maxent_bayes.cli.run.

Usage: child.py SRC WORK MODE SECONDS TRACE THREADS

Imports the library from SRC, prepares the first config, prints "ready" and,
in MODE "setup", exits there. In MODE "run" it executes the whole op list
back to back (one closed-loop client) in passes until SECONDS have elapsed,
then writes WORK/result.json. With TRACE 1 the first half of the time runs
untraced and the second half traced, and the spans of the last traced pass
go to WORK/spans.json.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path

MIN_PASSES = 2


def run_pass(cli, configs, dirs, threads, tracer=None, keep=False) -> dict:
    status, sums, bufs, times = [], [], [], []
    start = time.perf_counter()
    for i, config in enumerate(configs):
        times.append(time.perf_counter())
        buf = io.StringIO()
        kwargs = {"out_dir": dirs[i], "stdout": buf, "threads": threads}
        try:
            if tracer is None:
                manifest = cli.run(config, **kwargs)
            else:
                tracer.op = i
                manifest = tracer.call("bench.op", cli.run, (config,), kwargs)
        except Exception as exc:  # an op failing must not stop the run; it is reported
            status.append(type(exc).__name__)
            sums.append(f"{type(exc).__name__}: {exc}")
        else:
            status.append("ok")
            sums.append(manifest.outputs)
        bufs.append(buf)
    end = time.perf_counter()
    times = [b - a for a, b in zip(times, times[1:] + [end])]
    record = {"wall": end - start, "status": status, "sums": sums, "op_s": times}
    if keep:
        record["outputs"] = [_outputs(d, b, s) if st == "ok" else None for d, b, s, st in zip(dirs, bufs, sums, status)]
    return record


def _outputs(out_dir: Path, buf: io.StringIO, sums: dict) -> dict:
    csvs = {}
    for name in sums:
        if name.endswith(".csv"):
            with open(out_dir / name, encoding="utf-8", newline="") as fh:
                csvs[name] = fh.read()
    return {"json": buf.getvalue(), "csv": csvs}


def main(argv: list[str]) -> int:
    src, work, mode, seconds, trace, threads = argv
    work, seconds, trace, threads = Path(work), float(seconds), trace == "1", int(threads)
    configs = json.loads((work / "configs.json").read_text(encoding="utf-8"))
    sys.path.insert(0, src)
    from maxent_bayes import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"maxent_bayes imported from {cli.__file__}, not from {src}")
    cli.prepare(configs[0])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0
    sys.stdout = sys.stderr  # nothing reads the pipe after "ready"; keep stray prints from filling it

    dirs = [work / "ops" / f"op{i:03d}" for i in range(len(configs))]
    passes = [run_pass(cli, configs, dirs, threads, keep=True)]
    outputs = passes[0].pop("outputs")
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    while time.perf_counter() - start < budget or len(passes) < MIN_PASSES:
        passes.append(run_pass(cli, configs, dirs, threads))
    result = {
        "library": cli.__file__,
        "passes": passes,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        import spans

        tracer = spans.Tracer()
        result["untraced_targets"] = spans.install(tracer)
        result["traced"] = []
        start = time.perf_counter()
        while time.perf_counter() - start < budget or len(result["traced"]) < MIN_PASSES:
            record = run_pass(cli, configs, dirs, threads, tracer)
            record["layers"] = tracer.summary()
            result["traced"].append(record)
            last = tracer.spans
            tracer.reset()
        (work / "spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": last}), encoding="utf-8"
        )
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
