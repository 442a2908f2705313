"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] ...` line (visible with `pytest -s`; the
`-v` listing carries the same per-criterion verdicts) and asserts the stated
tolerances, including the expected runtime bound.
"""

import io
import math
import os
import time

import numpy as np

from maxent_bayes import (
    Alphabet,
    ConstraintSpec,
    DivergenceSpec,
    FiniteDistribution,
    LossMatrix,
    MetaConstraint,
    bayes_classifier,
    cli,
    divergence_projection,
    error_distribution_exact,
    error_rate_function,
    expected_loss,
    gibbs_conditioning,
    i_projection,
    kl_divergence,
    map_model,
    run_meta_pipeline,
    sanov_exact,
    solve_tilt,
    total_variation,
)
from maxent_bayes.correlation import conditional_loss_expansion, GaussianPairModel, loss_correlation_curve, loss_function
from tests.conftest import random_distribution


def dist(*weights):
    return FiniteDistribution.from_weights(list(weights))


BERN_HALF = dist(0.5, 0.5)
V01 = [0.0, 1.0]
BINARY_RATE_075 = 0.130812035897328  # KL([.25,.75] || [.5,.5]) nats


def report(number, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[acceptance] criterion {number} ({name}): {verdict} "
        f"({detail}; runtime {elapsed:.2f}s < {budget:.0f}s)"
    )
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_sanov_rate():
    t0 = time.perf_counter()
    est = sanov_exact(
        BERN_HALF, ConstraintSpec.interval(V01, 0.75, 1.0), list(range(100, 401, 20))
    )
    elapsed = time.perf_counter() - t0
    slope_gap = abs(est.fitted_slope + 0.130812)
    ok = slope_gap <= 0.01 and est.regression_r2 >= 0.999
    report(
        1,
        "empirical decay rate of a constrained event",
        ok,
        f"slope {est.fitted_slope:.6f} vs -0.130812 (gap {slope_gap:.2e} <= 0.01), "
        f"r2 {est.regression_r2:.6f} >= 0.999",
        elapsed,
        5.0,
    )


def test_criterion_2_tilt_solver():
    t0 = time.perf_counter()
    tilt = solve_tilt(BERN_HALF, V01, 0.25)
    lam_gap = abs(tilt.lam - math.log(3.0))
    rng = np.random.default_rng(24601)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        q = random_distribution(rng, k, min_mass=1e-6)
        v = rng.normal(0.0, 1.0, size=k) * 10.0 ** rng.uniform(-1.0, 1.0)
        c = float(v.min() + rng.uniform(0.05, 0.95) * (v.max() - v.min()))
        residual = abs(expected_loss(solve_tilt(q, v, c).realized, v) - c)
        worst = max(worst, residual)
    elapsed = time.perf_counter() - t0
    ok = lam_gap <= 1e-8 and worst <= 1e-10
    report(
        2,
        "tilt solver multiplier and constraint residuals",
        ok,
        f"|lambda - ln 3| = {lam_gap:.2e} <= 1e-8, "
        f"worst residual over 1000 instances {worst:.2e} <= 1e-10",
        elapsed,
        2.0,
    )


def test_criterion_3_gibbs_conditioning():
    t0 = time.perf_counter()
    constraint = ConstraintSpec.interval(V01, 0.7, 0.8)
    tvs = [res.tv_distance for res in gibbs_conditioning(BERN_HALF, constraint, (20, 40, 60, 80))]
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(tvs, tvs[1:]))
    ok = decreasing and tvs[-1] <= 0.05
    report(
        3,
        "conditioned empirical mean approaches the tilt",
        ok,
        f"tv over n=20,40,60,80: {', '.join(f'{t:.4f}' for t in tvs)} "
        f"(strictly decreasing, final <= 0.05)",
        elapsed,
        10.0,
    )


def test_criterion_4_necessity_of_relative_entropy():
    t0 = time.perf_counter()
    q = dist(1 / 3, 1 / 3, 1 / 3)
    con = ConstraintSpec.point([0.0, 1.0, 2.0], 0.5)
    sq = divergence_projection(DivergenceSpec("squared_euclidean"), q, con)
    klp = divergence_projection(DivergenceSpec("kl"), q, con)
    tilt, _ = i_projection(q, con)
    elapsed = time.perf_counter() - t0
    gap = total_variation(sq, tilt.realized)
    kl_tv = total_variation(klp, tilt.realized)
    oracle_sq = np.array([0.5833, 0.3333, 0.0833])
    oracle_tilt = np.array([0.6162, 0.2676, 0.1162])
    oracles_ok = (
        np.abs(sq.weights - oracle_sq).max() <= 1e-4
        and np.abs(tilt.realized.weights - oracle_tilt).max() <= 1e-4
    )
    ok = gap >= 0.05 and kl_tv <= 1e-6 and oracles_ok
    report(
        4,
        "non-KL projection departs from the tilt",
        ok,
        f"squared-euclidean gap {gap:.4f} >= 0.05, KL self-agreement tv {kl_tv:.2e} <= 1e-6",
        elapsed,
        1.0,
    )


def test_criterion_5_error_rate_function():
    t0 = time.perf_counter()
    at_typical = error_rate_function(BERN_HALF, V01, [0.5])[0].rate
    at_three_quarters = error_rate_function(BERN_HALF, V01, [0.75])[0].rate
    grid = np.linspace(0.0, 1.0, 50)
    rates = np.array([p.rate for p in error_rate_function(BERN_HALF, V01, grid)])
    elapsed = time.perf_counter() - t0
    second = np.diff(rates, 2)
    ok = (
        at_typical == 0.0
        and abs(at_three_quarters - 0.130812) <= 1e-6
        and np.all(second >= -1e-9)
    )
    report(
        5,
        "rate function of expected-loss values",
        ok,
        f"I(0.5) = {at_typical!r} (exact zero), I(0.75) = {at_three_quarters:.6f}, "
        f"min second difference {second.min():.2e} >= -1e-9 on a 50-point grid",
        elapsed,
        1.0,
    )


def test_criterion_6_zero_divergence_shares_decisions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60606)
    copies_ok = True
    witnesses_found = 0
    pairs = 1000
    for _ in range(pairs):
        k = int(rng.integers(2, 7))
        p = random_distribution(rng, k, min_mass=1e-4)
        loss = LossMatrix(Alphabet.of_size(k), p.alphabet, rng.uniform(0.0, 1.0, size=(k, k)))
        copy = FiniteDistribution(p.alphabet, p.weights)
        if kl_divergence(copy, p) != 0.0 or (
            bayes_classifier(copy, loss).decision_index
            != bayes_classifier(p, loss).decision_index
        ):
            copies_ok = False
        # perturbed copy at KL >= 0.1, then hunt for a separating loss
        while True:
            f = random_distribution(rng, k, min_mass=1e-4)
            if kl_divergence(f, p) >= 0.1:
                break
        for _ in range(100):
            candidate = LossMatrix(
                Alphabet.of_size(k), p.alphabet, rng.uniform(0.0, 1.0, size=(k, k))
            )
            if (
                bayes_classifier(f, candidate).decision_index
                != bayes_classifier(p, candidate).decision_index
            ):
                witnesses_found += 1
                break
    elapsed = time.perf_counter() - t0
    ok = copies_ok and witnesses_found == pairs
    report(
        6,
        "zero relative entropy <=> shared Bayes decisions",
        ok,
        f"all {pairs} zero-divergence copies share decisions; "
        f"separating loss found for {witnesses_found}/{pairs} perturbed pairs",
        elapsed,
        30.0,
    )


def test_criterion_7_correlation_bound():
    t0 = time.perf_counter()
    r_grid = (0.0, 0.2, 0.4, 0.6, 0.8)
    curve = loss_correlation_curve(loss_function("quadratic"), r_grid)
    residuals = [
        conditional_loss_expansion(
            GaussianPairModel(sigma_y=1.0, r=r), loss_function("quadratic")
        ).residual
        for r in r_grid
    ]
    elapsed = time.perf_counter() - t0
    slope_gap = abs(curve.fit["slope"] - 1.0)
    intercept_gap = abs(curve.fit["intercept"])
    monotone = all(
        b <= a + 1e-12 for a, b in zip(curve.expected_losses, curve.expected_losses[1:])
    )
    ok = (
        slope_gap <= 1e-6
        and intercept_gap <= 1e-6
        and monotone
        and max(residuals) <= 1e-8
    )
    report(
        7,
        "expected loss falls with correlation",
        ok,
        f"slope gap {slope_gap:.2e} <= 1e-6, intercept {intercept_gap:.2e} <= 1e-6, "
        f"monotone non-increase, max quadratic Taylor residual {max(residuals):.2e} <= 1e-8",
        elapsed,
        5.0,
    )


def test_criterion_8_meta_inference():
    t0 = time.perf_counter()
    # two-level pipeline on the binary instance, mesh step 0.001
    window = (0.6, 0.9)
    reference = error_distribution_exact(BERN_HALF, V01, 20).restrict(*window)
    eta = 0.5 * reference.variance()
    meta = MetaConstraint(kind="centered_square", eta=eta)
    out = run_meta_pipeline(BERN_HALF, V01, 20, window, meta, grid_step=0.001)
    lam = float(out.fitted.lambda_eta)
    center = float(out.fitted.center)

    # independent exhaustive oracle over the same mesh
    xs = np.linspace(0.0, 1.0, 1001)
    best_x, best_obj = None, -math.inf
    for x in xs:
        if not window[0] <= x <= window[1]:
            continue
        mu = dist(1.0 - x, x)
        obj = -kl_divergence(mu, BERN_HALF) - lam * (x - center) ** 2 - math.log(1001)
        if obj > best_obj:
            best_x, best_obj = float(x), obj
    oracle = dist(1.0 - best_x, best_x)
    oracle_gap = total_variation(out.map_result.model, oracle)

    # flat statistic, full window, uniform prior: the base measure exactly
    flat = map_model(
        BERN_HALF, V01, (0.0, 1.0), MetaConstraint(kind="identity", eta=0.5), lambda_eta=0.0
    )
    exact_base = bool(np.array_equal(flat.model.weights, BERN_HALF.weights))

    # level coherence at n = 60
    ed60 = error_distribution_exact(BERN_HALF, V01, 60)
    rates = {p.xi: p.rate for p in error_rate_function(BERN_HALF, V01, [0.7, 0.8])}
    coherence_gaps = {
        xi: abs(-math.log(ed60.weight_at(xi)) / 60.0 - rates[xi]) for xi in (0.7, 0.8)
    }
    elapsed = time.perf_counter() - t0
    ok = (
        oracle_gap <= 0.001 + 1e-12
        and exact_base
        and all(g <= 0.05 for g in coherence_gaps.values())
    )
    report(
        8,
        "two-level MAP inference",
        ok,
        f"grid-oracle tv {oracle_gap:.2e} <= one step (0.001), flat-statistic argmax equals the "
        f"base exactly, level-coherence gaps {coherence_gaps[0.7]:.3f}/{coherence_gaps[0.8]:.3f} <= 0.05",
        elapsed,
        30.0,
    )


DETERMINISM_CONFIGS = [
    {
        "command": "bayes",
        "inputs": {
            "posterior": {"alphabet": [0, 1], "weights": [0.9, 0.1]},
            "loss": {
                "prediction_alphabet": [0, 1],
                "label_alphabet": [0, 1],
                "entries": [[0, 1], [1, 0]],
            },
        },
        "seed": 5,
    },
    {"command": "tilt", "inputs": {"q": [0.5, 0.5], "potential": [0, 1], "target": 0.25}, "seed": 5},
    {
        "command": "project",
        "inputs": {"P": [0.4, 0.6], "potential": [0, 1], "target_interval": [0.7, 0.9]},
        "seed": 5,
    },
    {
        "command": "necessity",
        "inputs": {
            "generator": "squared_euclidean",
            "q": [1 / 3, 1 / 3, 1 / 3],
            "potential": [0, 1, 2],
            "target": 0.5,
        },
        "seed": 5,
    },
    {
        "command": "sanov",
        "inputs": {
            "P": [0.5, 0.5],
            "potential": [0, 1],
            "target_interval": [0.7, 1.0],
            "n_grid": [10, 20, 30],
            "method": "monte-carlo",
            "trials": 20000,
        },
        "seed": 5,
    },
    {
        "command": "gibbs",
        "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "Xi": [0.7, 0.8], "n_grid": [20, 40]},
        "seed": 5,
    },
    {
        "command": "rate",
        "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "points": 21},
        "seed": 5,
    },
    {
        "command": "meta",
        "inputs": {
            "P": [0.5, 0.5],
            "loss_row": [0, 1],
            "n": 16,
            "Xi": [0.6, 0.9],
            "U": {"kind": "centered_square"},
            "eta": 0.004,
            "model_grid_step": 0.005,
        },
        "seed": 5,
    },
    {
        "command": "corr",
        "inputs": {
            "sigma_y": 1.0,
            "epsilon": 0.0,
            "loss": {"kind": "quadratic"},
            "r_grid": [0.0, 0.2, 0.4, 0.6, 0.8],
        },
        "seed": 5,
    },
]


def test_criterion_9_seeded_determinism(tmp_path):
    t0 = time.perf_counter()
    max_threads = os.cpu_count() or 2
    all_equal = True
    detail = []
    for config in DETERMINISM_CONFIGS:
        results = []
        for label, threads in (("a", 1), ("b", 1), ("c", max_threads)):
            out = tmp_path / f"{config['command']}_{label}"
            manifest = cli.run(config, out_dir=out, threads=threads, stdout=io.StringIO())
            blobs = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"
            }
            results.append((manifest.outputs, blobs))
        same = results[0] == results[1] == results[2]
        all_equal = all_equal and same
        detail.append(f"{config['command']}:{'ok' if same else 'DIFFERS'}")
    elapsed = time.perf_counter() - t0
    report(
        9,
        "byte-identical reruns across thread counts",
        all_equal,
        ", ".join(detail),
        elapsed,
        60.0,
    )
