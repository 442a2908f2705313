"""Pinned counterexamples of the projection, tilt and centring solvers.

Most instances here once failed (NonConvergence, a false InfeasibleConstraint
from a multiplier cap, or a centring fixed point that did not settle); the
rest pin edge branches of the quadratic active-set walk.  Each is checked
against an oracle that does not use the library's solvers: SLSQP, a closed
form, the Legendre dual, brentq, or brute force over the exact law or over
active sets in rational arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import optimize, special, stats

from maxent_bayes import (
    Alphabet,
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


    @pytest.mark.parametrize(
        "q, v, c, closed",
        [
            # the heavy atom clamps; the rest splits over V = 0 and V = 0.37
            ([1.0, 1e-24, 1e-92, 1e-34], [-0.37, 0.0, 0.37, 0.37], 0.19, [0.0, 18 / 37, 0.0, 19 / 37]),
            # only the atoms at V = 0.11 and V = -0.28 stay active
            (
                [1e-181, 1.0, 1e-25, 1e-36, 1e-33],
                [-0.27, 0.14, 0.11, 0.63, -0.28],
                0.05,
                [0.0, 0.0, 11 / 13, 0.0, 2 / 13],
            ),
        ],
    )
    def test_chi_squared_across_hundreds_of_orders_of_magnitude(self, q, v, c, closed):
        q = np.asarray(q) / np.sum(q)
        p = project("chi_squared", q, np.asarray(v), c)
        assert p == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize("gen", ("squared_euclidean", "chi_squared"))
    @pytest.mark.parametrize(
        "q, v",
        [
            # the last atom below the top clamps on round-off: a zero-slope piece
            ([0.566, 0.434], [-1.45, 0.94]),
            # max V = 0, so c is subnormal and its offset over the spread underflows
            ([0.48, 0.05, 0.47], [0.0, -1.0, -2.0]),
            ([1e-300, 1.0, 1e-100], [2.5, -1.0, 0.75]),
        ],
    )
    def test_target_one_ulp_below_the_top(self, gen, q, v):
        q, v = np.asarray(q) / np.sum(q), np.asarray(v)
        c = float(np.nextafter(v.max(), -np.inf))
        p = project(gen, q, v, c)
        assert abs(p.sum() - 1.0) <= 1e-15
        assert abs(p @ v - c) <= 1e-15 * (1.0 + np.abs(v).max())
        # sum_i (max V - v_i) p_i = max V - c bounds every entry off the top
        below = v < v.max()
        assert np.all(p[below] <= (v.max() - c) / (v.max() - v[below]) * (1.0 + 1e-9))

    def test_subnormal_reference_weight(self):
        # the subnormal atom falls faster than the float range can express
        q = np.array([1.0, 5e-324, 1e-310])
        qd = FiniteDistribution(Alphabet.of_size(3), q)
        p = divergence_projection(DivergenceSpec("squared_euclidean"), qd, ConstraintSpec.point([0.0, 1.0, 2.0], 1.5))
        assert p.weights == pytest.approx([0.25, 0.0, 0.75], abs=1e-15)


def exact_quadratic_projection(gen, q, v, c):
    """Exact minimizer by brute force over active sets, in rational arithmetic.

    On an active set S the stationarity conditions p_S = q_S + h_S (a + b v_S)
    with sum p = 1 and V . p = c are a 2 x 2 linear system; every S whose
    solution is nonnegative gives a feasible point, and the least objective
    among them is the minimum.
    """
    qf = [Fraction(x) for x in q]
    vf = [Fraction(x) for x in v]
    h = [Fraction(1) if gen == "squared_euclidean" else x / 2 for x in qf]
    best, best_value = None, None
    for size in range(2, len(qf) + 1):
        for s in itertools.combinations(range(len(qf)), size):
            h0 = sum(h[i] for i in s)
            h1 = sum(h[i] * vf[i] for i in s)
            h2 = sum(h[i] * vf[i] ** 2 for i in s)
            det = h0 * h2 - h1 * h1
            if det == 0:
                continue
            r0 = 1 - sum(qf[i] for i in s)
            r1 = Fraction(c) - sum(qf[i] * vf[i] for i in s)
            a, b = (r0 * h2 - h1 * r1) / det, (h0 * r1 - h1 * r0) / det
            p = [qf[i] + h[i] * (a + b * vf[i]) if i in s else Fraction(0) for i in range(len(qf))]
            if min(p) < 0:
                continue
            value = sum((x - y) ** 2 / (2 if gen == "squared_euclidean" else y) for x, y in zip(p, qf))
            if best_value is None or value < best_value:
                best, best_value = p, value
    return np.array([float(x) for x in best])


@st.composite
def log_scale_instances(draw):
    k = draw(st.integers(2, 5))
    log_q = np.asarray(draw(st.lists(st.floats(-300.0, 0.0), min_size=k, max_size=k)))
    v = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    gaps = np.diff(np.unique(v))
    assume(gaps.size > 0 and gaps.min() > 0.05)
    u = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    c = float(v.min() + u * np.ptp(v))
    assume(v.min() < c < v.max())
    w = 10.0 ** (log_q - log_q.max())
    return FiniteDistribution.from_weights(w / w.sum()).weights, v, c


class TestQuadraticExactness:
    @given(log_scale_instances(), st.sampled_from(("squared_euclidean", "chi_squared")))
    def test_matches_brute_force_over_active_sets(self, instance, gen):
        q, v, c = instance
        assume(float(q @ v) != c)
        p = project(gen, q, v, c)
        assert abs(p.sum() - 1.0) <= 1e-14
        assert abs(p @ v - c) <= 1e-14 * (1.0 + np.abs(v).max())
        # distinct values of V lie at least 0.05 apart, so round-off of 1e-15
        # in the constraints moves the minimizer by about 1e-15 / 0.05 at most
        assert np.abs(p - exact_quadratic_projection(gen, q, v, c)).max() <= 1e-12


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
