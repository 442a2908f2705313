#!/usr/bin/env python3
"""Decay rate of a constrained empirical-mean event, exact vs Monte Carlo.

Enumerates the exact law of the empirical measure across a grid of sample
sizes, regresses log P_n on n, and compares the fitted slope with the
analytic rate (the minimal KL divergence over the constraint set) and with a
seeded Monte Carlo estimate on a smaller grid.
"""

import argparse
import sys
from pathlib import Path

from maxent_bayes import ConstraintSpec, FiniteDistribution, SeededSampler, sanov_exact, sanov_monte_carlo
from maxent_bayes.jsonio import csv_text, dumps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p1", type=float, default=0.5, help="base probability of symbol 1")
    ap.add_argument("--threshold", type=float, default=0.75, help="event: frequency of symbol 1 >= threshold")
    ap.add_argument("--n-min", type=int, default=100)
    ap.add_argument("--n-max", type=int, default=400)
    ap.add_argument("--n-step", type=int, default=20)
    ap.add_argument("--mc-trials", type=int, default=200_000)
    ap.add_argument(
        "--mc-n-grid", type=int, nargs="+", default=(20, 40, 60),
        help="smaller sample sizes where the event is observable by sampling; "
        "multiples of 20 keep the 0.75 threshold exactly attainable",
    )
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--out", type=Path, default=Path("results/sanov"))
    args = ap.parse_args()

    base = FiniteDistribution.from_weights([1.0 - args.p1, args.p1])
    constraint = ConstraintSpec.interval([0.0, 1.0], args.threshold, 1.0)
    n_grid = list(range(args.n_min, args.n_max + 1, args.n_step))

    exact = sanov_exact(base, constraint, n_grid)
    mc_grid = list(args.mc_n_grid)
    sampler = SeededSampler(seed=args.seed, base=base)
    mc = sanov_monte_carlo(sampler, constraint, mc_grid, trials=args.mc_trials)
    # same-grid exact slope, so the MC comparison is free of prefactor bias
    exact_small = sanov_exact(base, constraint, mc_grid)

    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (n, lp, exact.method, lp, lp)
        for n, lp in zip(exact.n_grid, exact.log_probs)
    ] + [
        (n, lp, "monte-carlo", lo, hi)
        for n, lp, lo, hi in zip(mc.n_grid, mc.log_probs, mc.ci_lo, mc.ci_hi)
    ]
    (args.out / "rates.csv").write_text(
        csv_text(("n", "log_prob", "method", "ci_lo", "ci_hi"), rows), newline=""
    )
    summary = {
        "constraint": exact.constraint_description,
        "analytic_rate": exact.analytic_rate,
        "exact_slope": exact.fitted_slope,
        "exact_r2": exact.regression_r2,
        "exact_slope_on_mc_grid": exact_small.fitted_slope,
        "mc_slope": mc.fitted_slope,
        "mc_slope_stderr": mc.slope_stderr,
    }
    (args.out / "summary.json").write_text(dumps(summary))

    print(f"event: {exact.constraint_description}")
    print(f"analytic rate        : {exact.analytic_rate:.6f} nats")
    print(f"exact slope (n {args.n_min}..{args.n_max}): {exact.fitted_slope:.6f}  r2 {exact.regression_r2:.6f}")
    print(f"exact slope (n {mc_grid}): {exact_small.fitted_slope:.6f}")
    print(f"monte-carlo slope    : {mc.fitted_slope:.6f} +/- {mc.slope_stderr:.6f} (n {mc_grid})")
    print(f"written: {args.out}/rates.csv, {args.out}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
