#!/usr/bin/env python3
"""Conditioned empirical means against their minimum-divergence prediction.

For a window of expected-loss values that excludes the typical value, the
exact conditional mean of the empirical measure should approach the
exponential tilt onto the dominating endpoint as the sample size grows; this
script tabulates the total-variation gap along an n grid.
"""

import argparse
import sys
from pathlib import Path

from maxent_bayes import ConstraintSpec, FiniteDistribution, gibbs_conditioning
from maxent_bayes.jsonio import csv_text, dumps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p1", type=float, default=0.5)
    ap.add_argument("--window", type=float, nargs=2, default=(0.7, 0.8), metavar=("LO", "HI"))
    ap.add_argument("--n-grid", type=int, nargs="+", default=(20, 40, 60, 80, 100, 120))
    ap.add_argument("--out", type=Path, default=Path("results/gibbs"))
    args = ap.parse_args()

    base = FiniteDistribution.from_weights([1.0 - args.p1, args.p1])
    constraint = ConstraintSpec.interval([0.0, 1.0], *args.window)

    results = gibbs_conditioning(base, constraint, args.n_grid)
    predicted = results[-1].predicted
    rows = []
    for n, res in zip(args.n_grid, results):
        rows.append((n, res.tv_distance))
        cond = ", ".join(f"{w:.4f}" for w in res.conditioned_mean_measure.weights)
        print(f"n = {n:4d}: conditional mean [{cond}]  tv to prediction {res.tv_distance:.5f}")

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "tv_by_n.csv").write_text(csv_text(("n", "tv_distance"), rows), newline="")
    (args.out / "summary.json").write_text(
        dumps(
            {
                "window": list(args.window),
                "predicted": [float(w) for w in predicted.realized.weights],
                "multiplier": predicted.lam,
                "tv_by_n": {str(n): tv for n, tv in rows},
            }
        )
    )
    print(f"prediction: tilt with multiplier {predicted.lam:.6f} -> "
          f"[{', '.join(f'{w:.4f}' for w in predicted.realized.weights)}]")
    print(f"written: {args.out}/tv_by_n.csv, {args.out}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
