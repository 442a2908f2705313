"""Pinned counterexamples of the projection, tilt and centring solvers.

Most instances here once failed (NonConvergence, a false InfeasibleConstraint
from a multiplier cap, or a centring fixed point that did not settle); the
rest pin edge branches of the quadratic active-set walk.  Each is checked
against an oracle that does not use the library's solvers: SLSQP, a closed
form, the Legendre dual, brentq, or brute force over the exact law or over
active sets in rational arithmetic.
"""

import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import optimize, special, stats

from maxent_bayes import (
    Alphabet,
    ConstraintSpec,
    DivergenceSpec,
    FiniteDistribution,
    MetaConstraint,
    cli,
    divergence_projection,
    error_rate_function,
    i_projection,
    run_meta_pipeline,
    solve_tilt,
    stationarity_residual,
    tilting,
)
from maxent_bayes.errors import InfeasibleConstraint, NumericalError

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


    @pytest.mark.parametrize(
        "q, v, c, expected",
        [
            # the step in the slope multiplier overflows; the KKT point is
            # [1/4, 5e-324 * 3.75e309, 3/4]
            ([1.0, 5e-324, 1e-310], [0.0, 1.0, 2.0], 1.5, [0.25, 1.85e-14, 0.75]),
            # a binary point target pins p
            ([1.0, 5e-324], [0.0, 1.0], 0.5, [0.5, 0.5]),
        ],
    )
    def test_chi_squared_with_subnormal_reference_weights(self, q, v, c, expected):
        qd = FiniteDistribution(Alphabet.of_size(len(q)), q)
        p = divergence_projection(DivergenceSpec("chi_squared"), qd, ConstraintSpec.point(v, c))
        assert p.weights == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("weight", (5e-324, 1e-320))
    def test_chi_squared_with_two_weights_at_the_smallest_subnormal(self, weight):
        # at 5e-324 the light atoms' pull on V . p, weight * (d - dbar) with
        # d - dbar = -+0.5, once rounded to 0 and left p at q; feasibility
        # forces p_1 = 0.3 - p_0 / 2 and p_2 = 0.7 - p_0 / 2, and both light
        # atoms are cheapest at the largest p_0, 0.6
        qd = FiniteDistribution(Alphabet.of_size(3), [1.0, weight, weight])
        p = divergence_projection(DivergenceSpec("chi_squared"), qd, ConstraintSpec.point([0.5, 0.0, 1.0], 0.7))
        assert p.weights == pytest.approx([0.6, 0.0, 0.4], abs=1e-15)

    @pytest.mark.parametrize(
        "gen, scale",
        [
            ("squared_euclidean", 1e8 * (1.0 + 1e-7)),
            ("squared_euclidean", 1e8),
            ("squared_euclidean", 1e9),
            ("squared_euclidean", 1e12),
            ("chi_squared", 1e9),
        ],
    )
    def test_quadratic_projection_at_large_potential_scales(self, gen, scale):
        q, v, c = np.array([0.2, 0.3, 0.5]), np.array([0.0, 1.0, 2.0]), 0.7137
        expected = exact_quadratic_projection(gen, q, v, c)
        assert project(gen, q, scale * v, scale * c) == pytest.approx(expected, abs=1e-12)

    def test_reverse_kl_root_next_to_the_pole(self):
        # sigma times the root function is not monotone here: it nears 0 at
        # the pole too, so the root must come from the closed bracket
        q = np.array([3.384482764294887e-139, 4.595234284450572e-90, 1.0])
        v = np.array([-72.15470500572667, 2.3059809331427403, 0.05376842145930244])
        c = 2.3059342830418075
        p = project("reverse_kl", q / q.sum(), v, c)
        assert_kkt("reverse_kl", p, q / q.sum(), v, c)
        assert p[1] == pytest.approx(0.99997928699, abs=1e-10)

    def test_tilt_at_a_subnormal_potential_scale(self):
        # the multiplier, about 1.37e308, is near the top of the float range
        P = FiniteDistribution.from_weights([1.0 / 3.0] * 3)
        tilt, rate = i_projection(P, ConstraintSpec.point([0.0, 0.0, 1.1e-308], 1.1e-309))
        assert tilt.realized.weights == pytest.approx([0.45, 0.45, 0.1], abs=1e-15)
        assert rate == pytest.approx(0.9 * math.log(1.35) + 0.1 * math.log(0.3), rel=1e-12)

    def test_kl_newton_probe_far_past_the_root(self):
        # the variance of V under q is about 1e-66, so the Newton step from 0
        # lands 60 orders of magnitude past the root
        q = np.array([1.7e-100, 1.2e-176, 1.0, 1.4e-59, 4.2e-124, 2.0e-71])
        q = q / q.sum()
        v = np.array([2.6864513760518065, 0.08535251969335618, -3.679596365364284, 0.10652887803464774,
                      0.22372473542908053, -219.6069660397782])
        c = -219.60682750937812
        p = project("kl", q, v, c)
        mean = lambda lam: float(special.softmax(np.log(q) - lam * v) @ v) - c
        lam = optimize.brentq(mean, 0.0, 10.0, xtol=1e-15)
        assert p == pytest.approx(special.softmax(np.log(q) - lam * v), abs=1e-9)

    @pytest.mark.parametrize("gen", ("kl",) + NON_KL)
    @pytest.mark.parametrize(
        "v, c",
        [
            # reverse KL's root function bends so sharply at sigma = 1 that a
            # Newton step below float resolution once stopped the root there,
            # returning p = q
            ([0.0, 1.0], 1.0 - 2.0 ** -53),
            ([0.0, 1.0], 2.0 ** -53),
            # c - min V is below the resolution of V; the reverse-KL
            # denominator (v - v_j) - sigma (v - c) cancelled to 0
            ([-1e300, 1e300], -1e300 + 1e284),
            # c - min V is subnormal, so (v - v_j) / (c - v_j) overflows
            ([0.0, 1.0], 1e-320),
        ],
    )
    def test_two_atoms_with_the_target_at_an_end(self, gen, v, c):
        # on two atoms the constraints alone fix p
        v = np.asarray(v)
        expected = np.array([v[1] - c, c - v[0]]) / (v[1] - v[0])
        p = project(gen, np.array([0.5, 0.5]), v, c)
        assert p == pytest.approx(expected, abs=1e-15)
        if gen == "reverse_kl":
            assert p.min() == pytest.approx(expected.min(), rel=1e-12)


def shift_root(monkeypatch, move):
    """Make every bracketed root return move(root) in place of the root."""
    real = tilting._bracketed_root

    def root(f, lo, hi, x, floor):
        x, _, counts = real(f, lo, hi, x, floor)
        x = np.array([move(float(t)) for t in x])
        return x, f(x, np.arange(x.size))[0], counts

    monkeypatch.setattr(tilting, "_bracketed_root", root)


def tilt_by(route, q, v, c):
    """The tilt of q onto V . p = c through one public entry point."""
    qd = FiniteDistribution.from_weights(q)
    if route == "solve_tilt":
        return solve_tilt(qd, v, c).realized.weights
    if route == "point":
        return i_projection(qd, ConstraintSpec.point(v, c))[0].realized.weights
    # a window reaching away from the mean of q from c resolves to c
    window = (c, float(v.max())) if c > float(q @ v) else (float(v.min()), c)
    return i_projection(qd, ConstraintSpec.interval(v, *window))[0].realized.weights


class TestResidualCheck:
    """Every projection's mass and V . p are checked, the tilt's included."""

    # the reverse-KL root of this instance crowds the pole (sigma about 1e-5)
    POLE = (np.array([3.384482764294887e-139, 4.595234284450572e-90, 1.0]),
            np.array([-72.15470500572667, 2.3059809331427403, 0.05376842145930244]),
            2.3059342830418075)
    PLAIN = (np.array([0.2, 0.3, 0.5]), np.array([0.0, 1.0, 2.0]), 0.7137)

    @pytest.mark.parametrize("gen, instance", [("kl", PLAIN), ("kl", POLE), ("reverse_kl", PLAIN),
                                               ("reverse_kl", POLE)])
    def test_one_float_step_off_the_root_passes(self, monkeypatch, gen, instance):
        q, v, c = instance
        shift_root(monkeypatch, lambda x: float(np.nextafter(x, 0.0)))
        assert abs(project(gen, q / q.sum(), v, c) @ v - c) <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("gen, instance", [("kl", PLAIN), ("kl", POLE), ("reverse_kl", PLAIN),
                                               ("reverse_kl", POLE)])
    def test_a_root_a_millionth_off_raises(self, monkeypatch, gen, instance):
        q, v, c = instance
        shift_root(monkeypatch, lambda x: x * (1.0 - 1e-6))
        with pytest.raises(NumericalError, match="in V . p"):
            project(gen, q / q.sum(), v, c)

    @pytest.mark.parametrize("route", ("solve_tilt", "point", "window"))
    @pytest.mark.parametrize("instance", [PLAIN, POLE], ids=["plain", "pole"])
    def test_a_tilt_one_float_step_off_passes(self, monkeypatch, route, instance):
        q, v, c = instance
        shift_root(monkeypatch, lambda x: float(np.nextafter(x, 0.0)))
        assert abs(tilt_by(route, q / q.sum(), v, c) @ v - c) <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("route", ("solve_tilt", "point", "window"))
    @pytest.mark.parametrize("instance", [PLAIN, POLE], ids=["plain", "pole"])
    def test_a_tilt_a_millionth_off_raises(self, monkeypatch, route, instance):
        q, v, c = instance
        shift_root(monkeypatch, lambda x: x * (1.0 - 1e-6))
        with pytest.raises(NumericalError, match="in V . p"):
            tilt_by(route, q / q.sum(), v, c)

    def test_the_old_reverse_kl_answer_next_to_the_pole_raises(self, monkeypatch):
        # the best-|f| rule once returned sigma = 3e-155 here, V . p off by 1e16 ulps
        q, v, c = self.POLE
        shift_root(monkeypatch, lambda x: 3e-155)
        with pytest.raises(NumericalError, match="in V . p"):
            project("reverse_kl", q / q.sum(), v, c)

    def test_wide_random_instances_pass_with_reverse_kl_kkt(self):
        # q over 300 orders of magnitude, |V| over 6, c inside or within 1e-6 of an end
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            q = 10.0 ** rng.uniform(-300.0, 0.0, k)
            q /= q.sum()
            v = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
            u = (rng.uniform(0.01, 0.99), rng.uniform(0.0, 1e-6), 1.0 - rng.uniform(0.0, 1e-6))[rng.integers(3)]
            c = float(v.min() + u * np.ptp(v))
            if not v.min() < c < v.max():
                continue
            for gen in ("kl", "squared_euclidean", "chi_squared"):
                project(gen, q, v, c)
            p = project("reverse_kl", q, v, c)
            # stationarity: q / p is affine in V
            g = q / p
            basis = np.column_stack([np.ones_like(v), v])
            coef, *_ = np.linalg.lstsq(basis, g, rcond=None)
            assert np.abs(g - basis @ coef).max() <= 1e-10 * np.abs(g).max()


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


# SLSQP misses the mass here by 5.2e-12, which undercuts the chi-squared
# optimum (about 126.3) by 1.06e-9; the library's answer is the exact one
SLSQP_UNDERCUTS = (np.array([64, 64, 4, 64, 64, 1, 64]) / 325, np.array([0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 1.0]), 2.25)


class TestInteriorProperty:
    @given(interior_instances(), st.sampled_from(NON_KL))
    @example(SLSQP_UNDERCUTS, "chi_squared")
    def test_constraints_kkt_and_optimality_against_slsqp(self, instance, gen):
        # the quadratic generators are held to the exact active-set oracle,
        # reverse KL to SLSQP where SLSQP ends feasible
        q, v, c = instance
        p = project(gen, q, v, c)
        assert_kkt(gen, p, q, v, c)
        if gen == "reverse_kl":
            ref = slsqp_projection(gen, q, v, c)
            if not (abs(ref.sum() - 1.0) <= 1e-9 and abs(ref @ v - c) <= 1e-9):
                return
        else:
            ref = exact_quadratic_projection(gen, q, v, c)
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


def legendre_rate(p, v, xi):
    """I(xi) = max_lam -log sum_i p_i exp(-lam (v_i - xi)), lam by brentq on the mean."""
    sup = p > 0.0
    log_p, v = np.log(p[sup]), v[sup]
    mean = lambda lam: float(special.softmax(log_p - lam * v) @ v) - xi
    reach = 1.0
    while mean(-reach) <= 0.0 or mean(reach) >= 0.0:
        reach *= 2.0
    lam = optimize.brentq(mean, -reach, reach, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return -float(special.logsumexp(log_p - lam * (v - xi)))


def random_rate_instance(k):
    rng = np.random.default_rng(k)
    return FiniteDistribution.from_weights(rng.dirichlet(np.ones(k))), rng.uniform(0.0, 3.0, k)


class TestBatchedRateGrid:
    """A rate grid is one batch of tilt roots, and each point is solved on its own."""

    @pytest.mark.parametrize("k", (3, 10))
    def test_each_rate_is_the_rate_of_its_point_alone(self, k):
        P, v = random_rate_instance(k)
        grid = np.random.default_rng(0).permutation(np.linspace(v.min() - 0.1, v.max() + 0.1, 2000))
        batch = error_rate_function(P, v, grid)
        alone = [error_rate_function(P, v, [xi])[0] for xi in grid]
        assert [(p.rate, p.feasible) for p in batch] == [(p.rate, p.feasible) for p in alone]
        # i_projection of a point is that point's row of the grid's projection
        lams = tilting._project(P, v, grid, boundary=True)[0]
        for point, lam in zip(batch, lams):
            if not point.feasible:
                with pytest.raises(InfeasibleConstraint):
                    i_projection(P, ConstraintSpec.point(v, point.xi))
                continue
            tilt, rate = i_projection(P, ConstraintSpec.point(v, point.xi))
            assert (tilt.lam, rate) == (lam, point.rate)

    @pytest.mark.parametrize("k", (3, 10))
    def test_rates_match_the_legendre_dual(self, k):
        P, v = random_rate_instance(k)
        grid = v.min() + np.linspace(0.005, 0.995, 199) * np.ptp(v)
        for point in error_rate_function(P, v, grid):
            expected = legendre_rate(P.weights, v, point.xi)
            assert point.feasible
            assert abs(point.rate - expected) <= 1e-12 * (1.0 + expected), point.xi

    def test_a_grid_is_one_root_solve(self, monkeypatch):
        calls = []
        real = tilting._bracketed_root

        def counting(f, lo, hi, x, floor):
            calls.append(np.size(x))
            return real(f, lo, hi, x, floor)

        monkeypatch.setattr(tilting, "_bracketed_root", counting)
        P, v = random_rate_instance(3)
        points = error_rate_function(P, v, np.linspace(v.min(), v.max(), 2000))
        # the two ends of the range are the conditioning of P, in closed form
        assert calls == [1998]
        assert all(p.feasible and math.isfinite(p.rate) for p in points)


class TestPinnedRateGrid:
    """Flags and rates at the edge cases of a grid, pinned from one solve per point."""

    def test_infeasible_points_range_ends_mean_and_subnormal_weights(self):
        # the lightest atoms, 1e-310 and 5e-324, hold the ends of the range of V
        P = FiniteDistribution(Alphabet.of_size(4), [0.55, 1e-310, 0.45, 5e-324])
        v = np.array([0.25, -1.5, 2.0, 3.0])
        mean = float(np.dot(P.weights, v))
        grid = [-2.0, -1.5, -1.4999999, -0.75, 0.3, mean, 1.9, 2.999, 3.0, 3.5]
        points = error_rate_function(P, v, grid)
        assert [p.feasible for p in points] == [False] + [True] * 8 + [False]
        rates = [p.rate for p in points]
        assert rates[0] == rates[-1] == math.inf
        assert rates[5] == 0.0
        assert rates[4] == pytest.approx(0.473829754477968, rel=1e-12)
        assert rates[6] == pytest.approx(0.5680082775451991, rel=1e-12)
        # the range ends condition P on one atom: the rate is -log of its weight
        assert rates[1] == pytest.approx(-math.log(1e-310), rel=1e-12)
        assert rates[8] == pytest.approx(-math.log(5e-324), rel=1e-12)
        # next to them the tilt moves almost all mass onto the light atom, so
        # mu / P overflows: the rate must stay finite
        for i in (2, 3, 7):
            assert rates[i] == pytest.approx(legendre_rate(P.weights, v, grid[i]), rel=1e-12)

    def test_potential_constant_on_the_support(self):
        # V is 1 wherever P has mass; a point within the float resolution of 1 is met by P
        P = FiniteDistribution.from_weights([0.5, 0.5, 0.0])
        grid = [0.5, 1.0, 1.0 + 2.0 ** -50, 1.0 + 2.0 ** -49, 5.0]
        points = error_rate_function(P, [1.0, 1.0, 5.0], grid)
        assert [(p.rate, p.feasible) for p in points] == [
            (math.inf, False), (0.0, True), (0.0, True), (math.inf, False), (math.inf, False)
        ]


def log_partition(log_q, v, lam):
    return float(special.logsumexp(log_q - lam * v))


class TestSubnormalRelativeEntropy:
    """Relative entropy next to subnormal reference weights: log p - log q
    stays finite where the ratio p / q overflows."""

    # the lightest atoms, 1e-310 and 5e-324, hold the ends of the range of V
    Q, V = [0.55, 1e-310, 0.45, 5e-324], np.array([0.25, -1.5, 2.0, 3.0])

    @pytest.mark.parametrize("command, reference", [("tilt", "q"), ("project", "P")])
    def test_tilt_and_project_rates_are_the_legendre_dual(self, tmp_path, command, reference):
        # the tilt moves almost all mass onto the atom of weight 1e-310
        config = {"command": command, "inputs": {reference: self.Q, "potential": list(self.V), "target": -0.75}}
        buf = io.StringIO()
        cli.run(config, out_dir=tmp_path, stdout=buf)
        out = json.loads(buf.getvalue())
        lam = out["lambda"]
        dual = 0.75 * lam - log_partition(np.log(self.Q), self.V, lam)
        assert out["rate"] == pytest.approx(dual, rel=1e-9)
        assert out["rate"] == pytest.approx(407.4598, rel=1e-7)

    def test_kl_stationarity_residual_vanishes(self):
        q = FiniteDistribution(Alphabet.of_size(4), self.Q)
        tilt = solve_tilt(q, self.V, -0.75)
        # the KL gradient from log differences on the support of the tilt
        # (the atom of weight 5e-324 underflows there): affine in V
        sup = tilt.realized.weights > 0.0
        gradient = np.log(tilt.realized.weights[sup]) - np.log(q.weights[sup]) + 1.0
        assert stationarity_residual(DivergenceSpec("kl"), tilt) <= 1e-12 * np.abs(gradient).max()

    def test_window_projection_rate_is_the_legendre_dual(self):
        P = FiniteDistribution(Alphabet.of_size(3), [0.5, 1e-310, 0.5])
        v = np.array([0.0, 2.0, 1.0])
        tilt, rate = i_projection(P, ConstraintSpec.interval(v, 1.5, 2.0))
        dual = -1.5 * tilt.lam - log_partition(np.log(P.weights), v, tilt.lam)
        # brute force: sum p (log p - log q) in exactly rounded summation
        brute = math.fsum(p * (math.log(p) - math.log(w)) for p, w in zip(tilt.realized.weights, P.weights) if p > 0.0)
        assert rate == pytest.approx(dual, rel=1e-9)
        assert rate == pytest.approx(brute, rel=1e-12)
        assert rate == pytest.approx(356.5541, rel=1e-7)

    def test_reverse_kl_projection_is_the_pole_limit(self):
        # the sigma root crowds the pole of the atom of weight 1e-310 at min V;
        # in the limit beta = 1 / (c - min V) every other atom holds
        # q / (1 + beta (v - c)) and the pole atom holds the rest
        c, q = -0.75, np.array(self.Q)
        p = project("reverse_kl", q, self.V, c)
        rest = np.arange(q.size) != int(np.argmin(self.V))
        expected = np.zeros(q.size)
        expected[rest] = q[rest] / (1.0 + (self.V[rest] - c) / (c - self.V.min()))
        expected[~rest] = 1.0 - expected.sum()
        assert np.abs(p - expected).max() <= 1e-12

    def test_meta_with_a_subnormal_atom_runs(self, tmp_path):
        # every model in the window puts mass on the atom of weight 1e-310;
        # its grid KL once overflowed to a false EmptyFeasibleSet
        config = {"command": "meta", "inputs": {"P": [0.5, 1e-310, 0.5], "loss_row": [0.0, 2.0, 1.0], "n": 4,
                                                "Xi": [1.5, 2.0], "U": {"kind": "identity"}, "eta": 1.6}}
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["meta", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


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
        # where no weight of the restricted law underflows, the fit on its log
        # masses is the I-projection of its weights
        law = FiniteDistribution(Alphabet.of_size(out.restricted.support.size), out.restricted.probabilities)
        if law.weights.min() >= np.finfo(float).tiny:
            u = MetaConstraint(kind, eta, center=center).values(out.restricted.support)
            tilt, _ = i_projection(law, ConstraintSpec.point(u, eta))
            assert np.abs(out.fitted.probabilities - tilt.realized.weights).max() <= 1e-12
            assert lam == pytest.approx(tilt.lam, rel=1e-12)


@st.composite
def scaled_instances(draw):
    """q with weights >= 1e-6; V with |v| in [1e-3, 1e3], values 1e-3 apart;
    a point and a window target inside the range; a power of two 2^j."""
    k = draw(st.integers(2, 6))
    raw = np.asarray(draw(st.lists(st.floats(1.0, 1e6), min_size=k, max_size=k)))
    sizes = draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=k, max_size=k))
    v = np.asarray(sizes) * np.asarray(signs)
    assume(np.diff(np.sort(v)).min() >= 1e-3)
    u, a, b = (draw(st.floats(0.01, 0.99)) for _ in range(3))
    lo, hi = sorted(v.min() + x * np.ptp(v) for x in (a, b))
    j = draw(st.integers(-60, 60))
    return FiniteDistribution.from_weights(raw / raw.sum()), v, float(v.min() + u * np.ptp(v)), (lo, hi), j


class TestScaleEquivariance:
    """A loss has no units: every solve on (2^j V, 2^j c) is the solve on (V, c)."""

    @given(scaled_instances())
    def test_projections_and_rates_are_bit_identical_under_dyadic_scaling(self, instance):
        q, v, c, (lo, hi), j = instance
        f = 2.0 ** j
        tilt, scaled = solve_tilt(q, v, c), solve_tilt(q, f * v, f * c)
        assert np.array_equal(tilt.realized.weights, scaled.realized.weights)
        assert scaled.lam * f == tilt.lam
        for target, target_f in (
            (ConstraintSpec.point(v, c), ConstraintSpec.point(f * v, f * c)),
            (ConstraintSpec.interval(v, lo, hi), ConstraintSpec.interval(f * v, f * lo, f * hi)),
        ):
            (mu, rate), (mu_f, rate_f) = i_projection(q, target), i_projection(q, target_f)
            assert np.array_equal(mu.realized.weights, mu_f.realized.weights) and rate == rate_f
            assert mu_f.lam * f == mu.lam
        for gen in ("kl", "reverse_kl", "squared_euclidean", "chi_squared"):
            spec = DivergenceSpec(gen)
            p = divergence_projection(spec, q, ConstraintSpec.point(v, c))
            p_f = divergence_projection(spec, q, ConstraintSpec.point(f * v, f * c))
            assert np.array_equal(p.weights, p_f.weights), gen
        xs = [float(x) for x in np.linspace(v.min() - 1.0, v.max(), 6)] + [c]
        rates = [point.rate for point in error_rate_function(q, v, xs)]
        assert rates == [point.rate for point in error_rate_function(q, f * v, [f * x for x in xs])]
