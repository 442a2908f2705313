import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from maxent_bayes import (
    Alphabet,
    ConstraintSpec,
    DivergenceSpec,
    FiniteDistribution,
    divergence_projection,
    expected_loss,
    i_projection,
    kl_divergence,
    necessity_gap,
    shannon_entropy,
    solve_tilt,
    stationarity_residual,
    total_variation,
)
from maxent_bayes.errors import (
    DegeneratePotential,
    InfeasibleConstraint,
    UnsupportedGenerator,
)
from maxent_bayes.tilting import _GRADIENTS, _project, solve_tilt_with_report
from tests.conftest import random_distribution
from tests.test_solver_regressions import objective


def dist(*weights):
    return FiniteDistribution.from_weights(list(weights))


def bisect_multiplier(q, v, c, iterations=200):
    """Independent bisection oracle for the tilt multiplier."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)

    def mean(lam):
        w = q * np.exp(-lam * (v - v.min()))
        w = w / w.sum()
        return float(np.dot(w, v))

    lo, hi = -200.0 / (abs(v).max() + 1e-12), 200.0 / (abs(v).max() + 1e-12)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mean(mid) > c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_instance(rng, k=None, margin=0.05):
    k = k or int(rng.integers(2, 7))
    q = random_distribution(rng, k, min_mass=1e-6)
    v = rng.normal(0.0, 1.0, size=k) * 10.0 ** rng.uniform(-1.0, 1.0)
    u = float(rng.uniform(margin, 1.0 - margin))
    c = float(v.min() + u * (v.max() - v.min()))
    return q, v, c


@st.composite
def tilt_instances(draw):
    k = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    q = FiniteDistribution.from_weights(np.asarray(raw) / np.sum(raw))
    v = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    assume(float(v.max() - v.min()) > 1e-3)
    u = draw(st.floats(0.1, 0.9))
    c = float(v.min() + u * (v.max() - v.min()))
    return q, v, c


class TestSolveTilt:
    def test_constraint_already_met_gives_zero_multiplier(self):
        tilt = solve_tilt(dist(0.5, 0.5), [0.0, 1.0], 0.5)
        assert tilt.lam == 0.0
        assert np.array_equal(tilt.realized.weights, [0.5, 0.5])

    def test_binary_closed_form(self):
        tilt = solve_tilt(dist(0.5, 0.5), [0.0, 1.0], 0.25)
        assert tilt.lam == pytest.approx(math.log(3.0), abs=1e-8)
        assert tilt.realized.weights == pytest.approx([0.75, 0.25], abs=1e-9)

    def test_three_point_closed_form_and_bisection_oracle(self):
        q = dist(1 / 3, 1 / 3, 1 / 3)
        v = [0.0, 1.0, 2.0]
        tilt = solve_tilt(q, v, 0.5)
        x = (math.sqrt(13.0) - 1.0) / 6.0
        assert tilt.lam == pytest.approx(-math.log(x), abs=1e-9)
        z = 1.0 + x + x * x
        assert tilt.realized.weights == pytest.approx([1 / z, x / z, x * x / z], abs=1e-9)
        assert tilt.lam == pytest.approx(bisect_multiplier(q.weights, v, 0.5), abs=1e-9)

    def test_constraint_residual_tolerance(self, rng):
        for _ in range(50):
            q, v, c = random_instance(rng)
            tilt = solve_tilt(q, v, c)
            assert abs(expected_loss(tilt.realized, v) - c) <= 1e-10

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleConstraint):
            solve_tilt(dist(0.5, 0.5), [0.0, 1.0], 1.5)
        with pytest.raises(InfeasibleConstraint):
            solve_tilt(dist(0.5, 0.5), [0.0, 1.0], 1.0)  # endpoint needs infinite tilt

    def test_degenerate_potential(self):
        with pytest.raises(DegeneratePotential):
            solve_tilt(dist(0.5, 0.5), [2.0, 2.0], 1.0)
        tilt = solve_tilt(dist(0.5, 0.5), [2.0, 2.0], 2.0)
        assert tilt.lam == 0.0

    def test_support_is_preserved(self):
        tilt = solve_tilt(dist(0.5, 0.0, 0.5), [0.0, 1.0, 2.0], 0.5)
        assert list(tilt.realized.support) == [0, 2]
        assert abs(expected_loss(tilt.realized, [0.0, 1.0, 2.0]) - 0.5) <= 1e-10

    def test_report_diagnostics(self):
        _, report = solve_tilt_with_report(dist(0.5, 0.5), [0.0, 1.0], 0.25)
        assert report["residual"] <= 1e-10
        assert list(report) == ["newton", "bisections", "residual"]


class TestTiltInvariants:
    @given(tilt_instances())
    def test_constraint_and_duality_hold_on_arbitrary_instances(self, instance):
        q, v, c = instance
        tilt = solve_tilt(q, v, c)
        assert abs(expected_loss(tilt.realized, v) - c) <= 1e-10
        lhs = kl_divergence(tilt.realized, q)
        rhs = -tilt.log_partition - tilt.lam * expected_loss(tilt.realized, v)
        assert abs(lhs - rhs) <= 1e-10

    @given(tilt_instances())
    def test_tilt_never_beats_itself_in_divergence(self, instance):
        # the realized tilt is the feasible point of least divergence, so any
        # re-tilt of a different start must pay at least as much; the margin
        # scales with the multiplier because d(rate)/d(target) = lam, so the
        # 1e-10 constraint tolerance wobbles the rate by up to |lam| * 1e-10
        q, v, c = instance
        tilt = solve_tilt(q, v, c)
        other_tilt = solve_tilt(FiniteDistribution.uniform(q.alphabet), v, c)
        rate = kl_divergence(tilt.realized, q)
        margin = (abs(tilt.lam) + abs(other_tilt.lam) + 1.0) * 2e-10 + 1e-12
        assert kl_divergence(other_tilt.realized, q) >= rate - margin

    def test_mean_is_strictly_decreasing_in_lambda(self, rng):
        for _ in range(10):
            q, v, _ = random_instance(rng)
            lams = np.linspace(-8.0, 8.0, 120)
            means = []
            log_q = np.log(q.weights)
            for lam in lams:
                a = log_q - lam * v
                w = np.exp(a - a.max())
                w /= w.sum()
                means.append(float(np.dot(w, v)))
            assert np.all(np.diff(means) < 0.0)

    def test_legendre_duality(self, rng):
        for _ in range(100):
            q, v, c = random_instance(rng)
            tilt = solve_tilt(q, v, c)
            lhs = kl_divergence(tilt.realized, q)
            rhs = -tilt.log_partition - tilt.lam * expected_loss(tilt.realized, v)
            assert abs(lhs - rhs) <= 1e-10

    def test_parsimony_among_feasible_measures(self, rng):
        q, v, c = random_instance(rng, k=4)
        tilt = solve_tilt(q, v, c)
        rate = kl_divergence(tilt.realized, q)
        for _ in range(1000):
            start = random_distribution(rng, 4, min_mass=1e-6)
            if not (v.min() < c < v.max()):
                continue
            feasible = solve_tilt(start, v, c).realized
            assert abs(expected_loss(feasible, v) - c) <= 1e-3
            assert kl_divergence(feasible, q) >= rate - 1e-6

    def test_max_entropy_among_feasible_when_reference_uniform(self, rng):
        k = 4
        q = FiniteDistribution.uniform(Alphabet.of_size(k))
        v = np.array([0.0, 1.0, 2.0, 3.0])
        c = 1.2
        tilt = solve_tilt(q, v, c)
        h_star = shannon_entropy(tilt.realized)
        for _ in range(1000):
            feasible = solve_tilt(random_distribution(rng, k, min_mass=1e-6), v, c).realized
            assert shannon_entropy(feasible) <= h_star + 1e-6

    def test_tilt_gradient_lies_exactly_in_constraint_span(self):
        # at p = q exp(-lam V)/Z the divergence gradient ln(p/q) + 1 equals
        # (1 - ln Z) - lam V, pointwise, which is why the tilt is stationary
        q = dist(0.2, 0.5, 0.3)
        v = np.array([0.0, 1.0, 3.0])
        tilt = solve_tilt(q, v, 1.0)
        grad = np.log(tilt.realized.weights / q.weights) + 1.0
        reconstructed = (1.0 - tilt.log_partition) - tilt.lam * v
        assert grad == pytest.approx(reconstructed, abs=1e-12)

    def test_solver_is_pure_and_repeatable(self):
        q = dist(0.4, 0.35, 0.25)
        first = solve_tilt(q, [0.0, 1.0, 2.0], 0.7)
        second = solve_tilt(q, [0.0, 1.0, 2.0], 0.7)
        assert first.lam == second.lam
        assert np.array_equal(first.realized.weights, second.realized.weights)

    def test_mode_at_classifier_output(self):
        # V_i = loss of predicting z* against label i, unique minimum at z* = 2
        v = np.array([3.0, 1.5, 0.0, 2.0, 4.0])
        q = FiniteDistribution.uniform(Alphabet.of_size(5))
        tilt = solve_tilt(q, v, 0.8)  # below the uniform mean, so lam > 0
        assert tilt.lam > 0.0
        w = tilt.realized.weights
        assert int(np.argmax(w)) == 2
        order = np.argsort(v)
        assert np.all(np.diff(w[order]) <= 1e-15)


class TestIProjection:
    def test_mean_already_feasible(self):
        P = dist(1 / 3, 1 / 3, 1 / 3)
        tilt, rate = i_projection(P, ConstraintSpec.point([0.0, 1.0, 2.0], 1.0))
        assert rate == 0.0
        assert np.array_equal(tilt.realized.weights, P.weights)

    def test_binary_point_projection(self):
        tilt, rate = i_projection(dist(0.5, 0.5), ConstraintSpec.point([0.0, 1.0], 0.75))
        assert tilt.realized.weights == pytest.approx([0.25, 0.75], abs=1e-9)
        assert rate == pytest.approx(0.130812, abs=1e-6)

    def test_interval_containing_mean(self):
        tilt, rate = i_projection(dist(0.5, 0.5), ConstraintSpec.interval([0.0, 1.0], 0.4, 0.6))
        assert rate == 0.0
        assert tilt.lam == 0.0

    def test_interval_projects_to_nearer_endpoint(self):
        tilt, rate = i_projection(dist(0.5, 0.5), ConstraintSpec.interval([0.0, 1.0], 0.7, 0.8))
        assert expected_loss(tilt.realized, [0.0, 1.0]) == pytest.approx(0.7, abs=1e-9)
        assert rate == pytest.approx(kl_divergence(dist(0.3, 0.7), dist(0.5, 0.5)), abs=1e-9)

    def test_boundary_point_conditions_on_extreme_set(self):
        P = dist(0.2, 0.3, 0.5)
        v = [0.0, 2.0, 2.0]
        tilt, rate = i_projection(P, ConstraintSpec.point(v, 2.0))
        assert tilt.realized.weights == pytest.approx([0.0, 0.375, 0.625], abs=1e-12)
        assert rate == pytest.approx(-math.log(0.8), abs=1e-12)
        assert math.isinf(tilt.lam)

    def test_window_outside_range(self):
        with pytest.raises(InfeasibleConstraint):
            i_projection(dist(0.5, 0.5), ConstraintSpec.interval([0.0, 1.0], 1.5, 2.0))


class TestWindowRule:
    """A point target c is the window [c, c]; a window stands for its dominating point."""

    def test_a_point_is_the_window_of_one_value(self):
        assert ConstraintSpec.point([0, 1], 0.25) == ConstraintSpec.interval([0, 1], 0.25, 0.25)
        assert ConstraintSpec.point([0, 1], 1).target == (1.0, 1.0)

    @pytest.mark.parametrize("generator", ("kl", "reverse_kl", "squared_euclidean", "chi_squared"))
    @pytest.mark.parametrize("c", (0.3, 1.1, 1.7))
    def test_a_point_and_its_window_project_alike(self, generator, c):
        q, v, spec = dist(0.2, 0.5, 0.3), [0.0, 1.0, 2.0], DivergenceSpec(generator)
        point, window = ConstraintSpec.point(v, c), ConstraintSpec.interval(v, c, c)
        assert np.array_equal(divergence_projection(spec, q, point).weights,
                              divergence_projection(spec, q, window).weights)
        assert necessity_gap(spec, q, point) == necessity_gap(spec, q, window)
        (tilt, rate), (tilt_w, rate_w) = i_projection(q, point), i_projection(q, window)
        assert (tilt.lam, rate) == (tilt_w.lam, rate_w)
        assert np.array_equal(tilt.realized.weights, tilt_w.realized.weights)

    @pytest.mark.parametrize("v, window, error, message", [
        ([0.0, 1.0], (1.5, 2.0), InfeasibleConstraint, "target 1.5 outside the attainable range [0.0, 1.0]"),
        ([0.0, 1.0], (-2.0, -0.5), InfeasibleConstraint, "target -0.5 outside the attainable range [0.0, 1.0]"),
        ([0.5, 0.5], (1.5, 2.0), DegeneratePotential, "potential is constant (0.5) on the support but target is 1.5"),
        ([0.5, 0.5], (-1.0, 0.0), DegeneratePotential, "potential is constant (0.5) on the support but target is 0.0"),
    ], ids=("above", "below", "constant-above", "constant-below"))
    def test_a_window_out_of_reach_raises_naming_its_point(self, v, window, error, message):
        with pytest.raises(error) as info:
            i_projection(dist(0.5, 0.5), ConstraintSpec.interval(v, *window))
        assert str(info.value) == message

    def test_a_window_holding_a_constant_potential_is_met_by_the_reference(self):
        tilt, rate = i_projection(dist(0.5, 0.5), ConstraintSpec.interval([0.5, 0.5], 0.0, 1.0))
        assert (tilt.lam, rate) == (0.0, 0.0)

    def test_project_takes_one_window_per_entry(self):
        # mean 1.1: the first window holds it, the others stand for an end
        q, v = dist(0.2, 0.5, 0.3), np.array([0.0, 1.0, 2.0])
        lo, hi = np.array([0.5, 1.25, 0.0, 2.0, 3.0]), np.array([1.5, 1.75, 0.5, 2.0, 4.0])
        lam, rows, _, end, _ = _project(q, v, (lo, hi), boundary=True)
        assert rows.shape == (5, 3) and end.tolist() == ["mean", "", "", "max", "out"]
        assert lam[0] == 0.0 and np.array_equal(rows[0], q.weights)
        points = _project(q, v, np.array([1.25, 0.5, 2.0]), boundary=True)
        assert np.array_equal(lam[1:4], points[0]) and np.array_equal(rows[1:4], points[1])
        assert np.isnan(lam[4]) and np.isnan(rows[4]).all()


class TestDivergenceProjection:
    def test_kl_projection_matches_tilt(self, rng):
        for _ in range(20):
            q, v, c = random_instance(rng)
            con = ConstraintSpec.point(v, c)
            proj = divergence_projection(DivergenceSpec("kl"), q, con)
            tilt, _ = i_projection(q, con)
            assert total_variation(proj, tilt.realized) <= 1e-6

    def test_squared_euclidean_oracle(self):
        q = dist(1 / 3, 1 / 3, 1 / 3)
        v = np.array([0.0, 1.0, 2.0])
        proj = divergence_projection(
            DivergenceSpec("squared_euclidean"), q, ConstraintSpec.point(v, 0.5)
        )
        # independent oracle: interior stationarity p = q - a - b v with the
        # two affine constraints, a 2x2 linear system
        k = 3
        mat = np.array([[k, v.sum()], [v.sum(), (v * v).sum()]])
        rhs = np.array([0.0, float(v @ q.weights) - 0.5])
        a, b = np.linalg.solve(mat, rhs)
        oracle = q.weights - a - b * v
        assert proj.weights == pytest.approx(oracle, abs=1e-8)
        assert proj.weights == pytest.approx([0.5833, 0.3333, 0.0833], abs=1e-4)

    def test_binary_point_constraint_pins_everything(self):
        q = dist(0.5, 0.5)
        con = ConstraintSpec.point([0.0, 1.0], 0.25)
        for gen in ("kl", "reverse_kl", "squared_euclidean", "chi_squared"):
            proj = divergence_projection(DivergenceSpec(gen), q, con)
            assert proj.weights == pytest.approx([0.75, 0.25], abs=1e-8)

    def test_interval_with_feasible_reference_returns_reference(self):
        q = dist(0.5, 0.5)
        proj = divergence_projection(
            DivergenceSpec("squared_euclidean"), q, ConstraintSpec.interval([0.0, 1.0], 0.4, 0.6)
        )
        assert np.array_equal(proj.weights, q.weights)

    def test_unknown_generator_rejected(self):
        with pytest.raises(UnsupportedGenerator):
            DivergenceSpec("hellinger")


class TestNecessityGap:
    def test_kl_self_agreement(self, rng):
        for _ in range(10):
            q, v, c = random_instance(rng)
            assert necessity_gap(DivergenceSpec("kl"), q, ConstraintSpec.point(v, c)) <= 1e-6

    def test_squared_euclidean_gap_on_three_point_instance(self):
        q = dist(1 / 3, 1 / 3, 1 / 3)
        gap = necessity_gap(
            DivergenceSpec("squared_euclidean"), q, ConstraintSpec.point([0.0, 1.0, 2.0], 0.5)
        )
        assert gap == pytest.approx(0.066, abs=5e-3)
        assert gap >= 0.05

    def test_binary_instance_gap_vanishes_for_every_generator(self):
        q = dist(0.5, 0.5)
        con = ConstraintSpec.point([0.0, 1.0], 0.25)
        for gen in ("kl", "reverse_kl", "squared_euclidean", "chi_squared"):
            assert necessity_gap(DivergenceSpec(gen), q, con) <= 1e-7


class TestStationarityResidual:
    def test_kl_residual_vanishes_at_any_tilt(self, rng):
        for _ in range(20):
            q, v, c = random_instance(rng)
            tilt = solve_tilt(q, v, c)
            assert stationarity_residual(DivergenceSpec("kl"), tilt) <= 1e-8

    def test_chi_squared_residual_positive_at_kl_tilt(self):
        q = dist(1 / 3, 1 / 3, 1 / 3)
        tilt = solve_tilt(q, [0.0, 1.0, 2.0], 0.5)
        assert stationarity_residual(DivergenceSpec("chi_squared"), tilt) > 1e-3

    def test_zero_multiplier_unconstrained_maximum(self):
        q = dist(0.3, 0.7)
        tilt = solve_tilt(q, [0.0, 1.0], 0.7)  # constraint inactive: mean already 0.7
        assert tilt.lam == 0.0
        assert stationarity_residual(DivergenceSpec("kl"), tilt) <= 1e-8

    def test_gradients_match_central_finite_differences(self, rng):
        # independent derivative oracle, step 1e-6, on objectives written in the tests
        q = random_distribution(rng, 4, min_mass=0.05).weights
        p = random_distribution(rng, 4, min_mass=0.05).weights
        h = 1e-6
        for gen in ("kl", "reverse_kl", "squared_euclidean", "chi_squared"):
            if gen == "kl":
                value = lambda x: float(np.sum(x * np.log(x / q)))
            else:
                value = lambda x: objective(gen, x, q)
            grad = _GRADIENTS[gen](p, q)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (value(p + e) - value(p - e)) / (2.0 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-5)
