"""Smoke runs of the experiment scripts, each at a small size."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script: (small arguments, the files it writes under --out)
RUNS = {
    "sanov_rate_experiment.py": (
        ["--threshold", "0.6", "--n-min", "20", "--n-max", "60", "--n-step", "20",
         "--mc-trials", "5000", "--mc-n-grid", "20", "40"],
        ["rates.csv", "summary.json"],
    ),
    "gibbs_convergence_experiment.py": (["--n-grid", "20", "40"], ["tv_by_n.csv", "summary.json"]),
    "necessity_gap_experiment.py": ([], ["gaps.csv", "summary.json"]),
    "correlation_curve_experiment.py": (["--r-points", "5"], ["curves.csv", "fits.json"]),
}


def test_every_script_has_a_smoke_run():
    assert sorted(path.name for path in (ROOT / "scripts").glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs_and_writes_its_files(script, tmp_path):
    args, written = RUNS[script]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(tmp_path)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    assert all((tmp_path / name).stat().st_size > 0 for name in written)
    if script == "sanov_rate_experiment.py":
        # each row names its estimator as the CLI's sanov command does
        with open(tmp_path / "rates.csv", newline="") as f:
            assert {row["method"] for row in csv.DictReader(f)} == {"exact", "monte-carlo"}
