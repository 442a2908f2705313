"""Pinned counterexamples of the projection, tilt and centring solvers.

Every instance here once failed (NonConvergence, a false InfeasibleConstraint
from a multiplier cap, or a centring fixed point that did not settle).  Each
is checked against an oracle that does not use the library's solvers: SLSQP,
the Legendre dual, brentq, or brute force over the exact law.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import optimize, special, stats

from maxent_bayes import (
    ConstraintSpec,
    DivergenceSpec,
    FiniteDistribution,
    MetaConstraint,
    divergence_projection,
    error_rate_function,
    run_meta_pipeline,
)

NON_KL = ("reverse_kl", "squared_euclidean", "chi_squared")


def objective(gen, p, q):
    if gen == "reverse_kl":
        return float(np.sum(q * np.log(q / p)))
    if gen == "squared_euclidean":
        return 0.5 * float(np.sum((p - q) ** 2))
    return float(np.sum((p - q) ** 2 / q))


def gradient(gen, p, q):
    if gen == "reverse_kl":
        return -q / p
    if gen == "squared_euclidean":
        return p - q
    return 2.0 * (p - q) / q


def slsqp_projection(gen, q, v, c):
    floor = 1e-12 if gen == "reverse_kl" else 0.0
    res = optimize.minimize(
        lambda p: objective(gen, np.maximum(p, 1e-300), q),
        q,
        jac=lambda p: gradient(gen, np.maximum(p, 1e-300), q),
        method="SLSQP",
        bounds=[(floor, 1.0)] * q.size,
        constraints=[
            {"type": "eq", "fun": lambda p: p.sum() - 1.0, "jac": lambda p: np.ones_like(p)},
            {"type": "eq", "fun": lambda p: p @ v - c, "jac": lambda p: v},
        ],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return res.x


def project(gen, q, v, c):
    qd = FiniteDistribution.from_weights(q)
    return divergence_projection(DivergenceSpec(gen), qd, ConstraintSpec.point(v, c)).weights


def assert_kkt(gen, p, q, v, c):
    """Constraints to 1e-10 and the KKT sign condition on clamped entries."""
    assert abs(p.sum() - 1.0) <= 1e-10
    assert abs(p @ v - c) <= 1e-10
    assert p.min() >= 0.0
    active = p > 0.0
    g = gradient(gen, np.where(active, p, 1.0), q)
    if np.ptp(v[active]) == 0.0:
        return
    # multipliers of sum p = 1 and V . p = c, fitted on the active entries
    basis = np.column_stack([np.ones_like(v), v])
    coef, *_ = np.linalg.lstsq(basis[active], g[active], rcond=None)
    assert np.abs(g[active] - basis[active] @ coef).max() <= 1e-8
    clamped = ~active
    if np.any(clamped):
        g0 = gradient(gen, np.zeros(clamped.sum()), q[clamped])
        assert np.all(g0 - basis[clamped] @ coef >= -1e-9)


class TestPinnedProjections:
    @pytest.mark.parametrize("gen", ("squared_euclidean", "chi_squared"))
    @pytest.mark.parametrize("k", (10, 50))
    def test_uniform_reference_with_zero_entries(self, gen, k):
        q = np.full(k, 1.0 / k)
        v = np.linspace(0.0, 1.0, k)
        p = project(gen, q, v, 0.2)
        assert np.any(p == 0.0)
        assert_kkt(gen, p, q, v, 0.2)
        assert np.abs(p - slsqp_projection(gen, q, v, 0.2)).max() <= 1e-6

    @pytest.mark.parametrize("gen", ("squared_euclidean", "chi_squared"))
    def test_three_point_instance_that_stalled(self, gen):
        q = np.full(3, 1.0 / 3.0)
        v = np.array([0.0, 0.5, 1.0])
        p = project(gen, q, v, 0.1)
        # closed form: the top entry clamps, the other two solve the constraints
        assert p == pytest.approx([0.8, 0.2, 0.0], abs=1e-12)
        assert_kkt(gen, p, q, v, 0.1)


    @pytest.mark.parametrize("gen", NON_KL)
    def test_light_atom_takes_most_of_the_mass(self, gen):
        # a binary point constraint pins p; the solution sits next to the
        # pole of the reverse-KL bracket and needs a huge chi-squared slope
        q = np.array([1.29e-10, 1.0 - 1.29e-10])
        v = np.array([0.584, 0.731])
        c = 0.65
        p = project(gen, q, v, c)
        assert p == pytest.approx([(v[1] - c) / (v[1] - v[0]), (c - v[0]) / (v[1] - v[0])], abs=1e-12)


@st.composite
def interior_instances(draw):
    k = draw(st.integers(2, 8))
    raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    v = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    assume(float(np.ptp(v)) > 1e-2)
    u = draw(st.floats(0.02, 0.98))
    return raw / raw.sum(), v, float(v.min() + u * np.ptp(v))


class TestInteriorProperty:
    @given(interior_instances(), st.sampled_from(NON_KL))
    def test_constraints_kkt_and_optimality_against_slsqp(self, instance, gen):
        q, v, c = instance
        p = project(gen, q, v, c)
        assert_kkt(gen, p, q, v, c)
        ref = slsqp_projection(gen, q, v, c)
        feasible = abs(ref.sum() - 1.0) <= 1e-9 and abs(ref @ v - c) <= 1e-9
        if feasible:
            assert objective(gen, p, q) <= objective(gen, np.maximum(ref, 1e-300), q) + 1e-9


class TestPinnedRatePoint:
    def test_close_top_values_are_feasible(self):
        p = np.array([0.3, 0.3, 0.4])
        v = np.array([0.0, 2.96, 2.962])
        xi = 2.9614
        point = error_rate_function(FiniteDistribution.from_weights(p), v, [xi])[0]
        # Legendre dual: I(xi) = max_lam -log sum_i p_i exp(-lam (v_i - xi))
        log_mgf = lambda lam: float(special.logsumexp(np.log(p) - lam * (v - xi)))
        best = optimize.minimize_scalar(log_mgf, bounds=(-1e5, 1e5), method="bounded", options={"xatol": 1e-10})
        assert point.feasible
        assert point.rate == pytest.approx(-best.fun, abs=1e-8)
        assert point.rate == pytest.approx(0.392, abs=1e-3)


def exact_law(p, ints, n):
    """Law of V . L_n for integer-lattice V, by brute force over count vectors."""
    k = len(p)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    sums: dict[int, float] = {}
    for head in itertools.product(range(n + 1), repeat=k - 1):
        if sum(head) > n:
            continue
        counts = (*head, n - sum(head))
        log_prob = log_fact[n] + sum(c * math.log(pj) - log_fact[c] for c, pj in zip(counts, p))
        s = sum(c * d for c, d in zip(counts, ints))
        sums[s] = sums.get(s, 0.0) + math.exp(log_prob)
    keys = sorted(sums)
    return np.array(keys, dtype=float) / n, np.array([sums[s] for s in keys])


def grid_maximum(p, v, window, kind, lam, center, step):
    cells = round(1.0 / step)
    rows = [c for c in itertools.product(range(cells + 1), repeat=len(p) - 1) if sum(c) <= cells]
    grid = np.array([(*c, cells - sum(c)) for c in rows], dtype=float) / cells
    xi = grid @ v
    inside = (xi >= window[0] - 1e-12) & (xi <= window[1] + 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(grid > 0, grid * np.log(grid / p), 0.0).sum(axis=1)
    u = xi if kind == "identity" else (xi - center) ** 2
    return float(np.max((-kl - lam * u)[inside])) - math.log(grid.shape[0])


class TestPinnedMeta:
    @pytest.mark.parametrize(
        "p, ints, n, window, kind, eta, step",
        [
            ((0.5, 0.5), (0, 1), 800, (0.6, 1.0), "identity", 0.7, 0.001),
            ((0.5, 0.5), (0, 1), 1600, (0.6, 1.0), "identity", 0.7, 0.001),
            ((0.5, 0.3, 0.2), (0, 1, 3), 400, (0.5, 2.0), "identity", 1.08, 0.02),
            ((0.5, 0.3, 0.2), (0, 1, 3), 400, (0.5, 2.0), "centered_square", 0.0005, 0.02),
            ((0.5, 0.3, 0.2), (0, 1, 3), 60, (0.5, 2.0), "centered_square", 0.1, 0.02),
        ],
    )
    def test_fit_and_map_against_exact_law(self, p, ints, n, window, kind, eta, step):
        p, v = np.asarray(p), np.asarray(ints, dtype=float)
        out = run_meta_pipeline(
            FiniteDistribution.from_weights(p), v, n, window, MetaConstraint(kind=kind, eta=eta), grid_step=step
        )
        if len(p) == 2:
            xi = np.arange(n + 1) / n
            log_weights = stats.binom.logpmf(np.arange(n + 1), n, p[1])
        else:
            xi, weights = exact_law(p, ints, n)
            log_weights = np.log(weights)
        inside = (xi >= window[0] - 1e-12) & (xi <= window[1] + 1e-12)
        xi, log_w = xi[inside], log_weights[inside]
        lam, center = out.fitted.lambda_eta, out.fitted.center
        u = xi if kind == "identity" else (xi - center) ** 2
        a = log_w - lam * u
        fitted = np.exp(a - a.max())
        fitted /= fitted.sum()
        assert float(fitted @ u) == pytest.approx(eta, abs=1e-8 * (1.0 + eta))
        if kind == "centered_square":
            assert float(fitted @ xi) == pytest.approx(center, abs=1e-8)
        best = grid_maximum(p, v, window, kind, lam, center, step)
        assert out.map_result.objective >= best - 1e-9
