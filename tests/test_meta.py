import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import optimize

from maxent_bayes import (
    FiniteDistribution,
    MetaConstraint,
    RatePoint,
    contract_rate,
    error_distribution_exact,
    error_rate_function,
    kl_divergence,
    map_model,
    maxent_error_fit,
    run_meta_pipeline,
    simplex_grid,
    total_variation,
)
from maxent_bayes.errors import EmptyFeasibleSet, InfeasibleConstraint


def dist(*weights):
    return FiniteDistribution.from_weights(list(weights))


BERN_HALF = dist(0.5, 0.5)
V01 = [0.0, 1.0]


def centre_oracle(ed, eta):
    """Independent self-consistent centre: brentq on m over brentq-solved tilts."""
    xi, log_r = ed.support, np.log(ed.probabilities)

    def tilted_mean(m):
        u = (xi - m) ** 2

        def law(lam):
            a = log_r - lam * u
            w = np.exp(a - a.max())
            return w / w.sum()

        lam = optimize.brentq(lambda lam: float(law(lam) @ u) - eta, -1e4, 1e4, xtol=1e-14)
        return float(law(lam) @ xi)

    # the restricted support is a fine lattice, so every centre in a
    # neighbourhood of the root is within sqrt(eta) of a support point
    grid = np.linspace(xi.min() + 0.05, xi.max() - 0.05, 60)
    gaps = [tilted_mean(m) - m for m in grid]
    i = next(i for i in range(len(grid) - 1) if gaps[i] > 0 >= gaps[i + 1])
    return optimize.brentq(lambda m: tilted_mean(m) - m, grid[i], grid[i + 1], xtol=1e-13)


class TestErrorDistributionExact:
    def test_two_draws_binomial(self):
        ed = error_distribution_exact(dist(0.5, 0.5), V01, 2)
        assert list(ed.support) == [0.0, 0.5, 1.0]
        assert ed.probabilities == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_single_draw_is_pushforward_of_base(self):
        P = dist(0.3, 0.7)
        ed = error_distribution_exact(P, [2.0, 5.0], 1)
        assert list(ed.support) == [2.0, 5.0]
        assert ed.probabilities == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_central_binomial_weight(self):
        ed = error_distribution_exact(BERN_HALF, V01, 10)
        assert len(ed.support) == 11
        assert ed.weight_at(0.5) == pytest.approx(math.comb(10, 5) / 2 ** 10, abs=1e-12)
        assert ed.weight_at(0.5) == pytest.approx(0.246094, abs=1e-6)

    def test_values_sharing_expected_loss_are_merged(self):
        # constant potential: every type class has the same expected loss
        ed = error_distribution_exact(BERN_HALF, [1.0, 1.0], 6)
        assert list(ed.support) == [1.0]
        assert ed.probabilities == pytest.approx([1.0], abs=1e-12)

    def test_restrict_renormalizes(self):
        ed = error_distribution_exact(BERN_HALF, V01, 10)
        sub = ed.restrict(0.6, 0.9)
        assert list(sub.support) == [0.6, 0.7, 0.8, 0.9]
        assert float(sub.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)


class TestMaxentErrorFit:
    def test_already_satisfied_keeps_reference(self):
        ed = error_distribution_exact(BERN_HALF, V01, 10)
        fit = maxent_error_fit(ed, MetaConstraint(kind="identity", eta=ed.mean()))
        assert fit.lambda_eta == 0.0
        assert np.array_equal(fit.probabilities, ed.probabilities)

    def test_identity_on_binary_support(self):
        ed = error_distribution_exact(BERN_HALF, V01, 1)  # uniform on {0, 1}
        fit = maxent_error_fit(ed, MetaConstraint(kind="identity", eta=0.25))
        assert fit.probabilities == pytest.approx([0.75, 0.25], abs=1e-9)
        assert fit.lambda_eta == pytest.approx(math.log(3.0), abs=1e-8)

    def test_centered_square_concentrates_to_target_variance(self):
        ed = error_distribution_exact(BERN_HALF, V01, 40)
        eta = 0.4 * ed.variance()
        fit = maxent_error_fit(ed, MetaConstraint(kind="centered_square", eta=eta))
        assert fit.lambda_eta > 0.0
        assert fit.variance() == pytest.approx(eta, abs=1e-9)

    def test_centered_square_past_the_largest_variance_is_infeasible(self):
        # a law on [0, 1] has variance at most 1/4, so no centre is self-consistent
        ed = error_distribution_exact(BERN_HALF, V01, 40)
        with pytest.raises(InfeasibleConstraint, match="self-consistent"):
            maxent_error_fit(ed, MetaConstraint(kind="centered_square", eta=0.26))

    def test_centered_square_against_multiplier_grid_search(self):
        ed = error_distribution_exact(BERN_HALF, V01, 40)
        eta = 0.4 * ed.variance()
        fit = maxent_error_fit(ed, MetaConstraint(kind="centered_square", eta=eta))
        # independent oracle: fine grid over the multiplier at the resolved center
        u = (ed.support - fit.center) ** 2
        lams = np.linspace(fit.lambda_eta - 5.0, fit.lambda_eta + 5.0, 20001)
        best_lam, best_gap = None, math.inf
        log_ref = np.log(ed.probabilities)
        for lam in lams:
            a = log_ref - lam * u
            w = np.exp(a - a.max())
            w /= w.sum()
            gap = abs(float(np.dot(w, u)) - eta)
            if gap < best_gap:
                best_lam, best_gap = float(lam), gap
        assert fit.lambda_eta == pytest.approx(best_lam, abs=2e-3)

    def test_self_consistent_centre_on_pinned_instances(self):
        # every eta here lies above the variance of the restricted law
        P = dist(0.5, 0.3, 0.2)
        ed = error_distribution_exact(P, [0.0, 1.0, 3.0], 60).restrict(0.5, 2.0)
        for eta, expected in ((0.1, 0.939), (0.05, 0.917), (0.3, 0.999)):
            fit = maxent_error_fit(ed, MetaConstraint(kind="centered_square", eta=eta))
            assert fit.center == pytest.approx(expected, abs=1e-3)
            assert fit.center == pytest.approx(centre_oracle(ed, eta), abs=1e-8)
            assert fit.mean() == pytest.approx(fit.center, abs=1e-10)
            assert fit.variance() == pytest.approx(eta, abs=1e-9)

    def test_user_table_statistic(self):
        ed = error_distribution_exact(BERN_HALF, V01, 1)
        meta = MetaConstraint(
            kind="user_table", eta=0.25, table_xi=(0.0, 1.0), table_u=(0.0, 1.0)
        )
        fit = maxent_error_fit(ed, meta)
        assert fit.probabilities == pytest.approx([0.75, 0.25], abs=1e-9)


class TestSimplexGrid:
    def test_binary_grid_contains_exact_half(self):
        grid = simplex_grid(2, 0.001)
        assert grid.shape == (1001, 2)
        assert any(np.array_equal(g, [0.5, 0.5]) for g in grid)

    def test_rows_sum_to_one(self):
        grid = simplex_grid(3, 0.02)
        assert grid.shape[0] == math.comb(52, 2)
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            simplex_grid(2, 0.3)


def flat_meta(eta=0.5):
    return MetaConstraint(kind="identity", eta=eta)


class TestMapModel:
    def test_flat_statistic_full_window_returns_base_exactly(self):
        result = map_model(BERN_HALF, V01, (0.0, 1.0), flat_meta(), lambda_eta=0.0)
        assert np.array_equal(result.model.weights, BERN_HALF.weights)
        assert result.method == "grid"
        assert result.components["kl_term"] == 0.0

    def test_point_window_at_typical_value(self):
        result = map_model(BERN_HALF, V01, (0.5, 0.5), flat_meta(), lambda_eta=0.0)
        assert np.array_equal(result.model.weights, BERN_HALF.weights)

    def test_objective_decomposition(self):
        meta = MetaConstraint(kind="centered_square", eta=0.01, center=0.7)
        result = map_model(BERN_HALF, V01, (0.6, 0.9), meta, lambda_eta=3.0)
        recomposed = (
            -result.components["kl_term"]
            - result.components["meta_term"]
            + result.components["log_q_term"]
        )
        assert abs(result.objective - recomposed) <= 1e-9

    def test_matches_exhaustive_grid_oracle(self):
        meta = MetaConstraint(kind="centered_square", eta=0.01, center=0.7)
        lam = 3.0
        result = map_model(BERN_HALF, V01, (0.6, 0.9), meta, lambda_eta=lam)
        # independent brute force over the same mesh
        xs = np.linspace(0.0, 1.0, 1001)
        best_x, best_obj = None, -math.inf
        for x in xs:
            xi = x  # V = (0, 1) so the expected loss is the weight on symbol 1
            if not 0.6 <= xi <= 0.9:
                continue
            mu = dist(1.0 - x, x)
            obj = -kl_divergence(mu, BERN_HALF) - lam * (xi - 0.7) ** 2 - math.log(1001)
            if obj > best_obj:
                best_x, best_obj = x, obj
        oracle = dist(1.0 - best_x, best_x)
        assert total_variation(result.model, oracle) <= 0.001 + 1e-12
        assert result.objective >= best_obj - 1e-12

    def test_window_filter_raises_when_empty(self):
        with pytest.raises(EmptyFeasibleSet):
            map_model(BERN_HALF, V01, (1.5, 2.0), flat_meta(), lambda_eta=0.0)

    def test_speed_parameter_scales_kl_term(self):
        meta = MetaConstraint(kind="identity", eta=0.5)
        slow = map_model(BERN_HALF, V01, (0.6, 0.9), meta, lambda_eta=0.1, speed=1.0)
        fast = map_model(BERN_HALF, V01, (0.6, 0.9), meta, lambda_eta=0.1, speed=60.0)
        # a faster speed penalizes KL harder, pulling the argmax toward the window edge nearest P
        assert fast.components["kl_term"] / 60.0 <= slow.components["kl_term"] + 1e-12


def tilt_of(p, v, lam):
    """P tilted by exp(-lam V), from the closed form."""
    a = np.log(p) - lam * v
    w = np.exp(a - a.max())
    return w / w.sum()


def tilt_onto(p, v, c):
    """The tilt of P with mean c, its multiplier found by brentq."""
    lam = optimize.brentq(lambda lam: float(tilt_of(p, v, lam) @ v) - c, -1e3, 1e3, xtol=1e-15)
    return tilt_of(p, v, lam)


def continuous_objective(mu, p, v, meta, lam, speed):
    """-speed KL(mu || P) - lambda_eta U(V . mu), without the flat log-prior."""
    mu = np.maximum(mu, 1e-300)
    return -speed * float(mu @ np.log(mu / p)) - lam * float(meta.values(mu @ v))


def grid_maximum(p, v, window, meta, lam, speed, step):
    grid = simplex_grid(p.size, step)
    xi = grid @ v
    inside = (xi >= window[0] - 1e-12) & (xi <= window[1] + 1e-12)
    best = max(continuous_objective(mu, p, v, meta, lam, speed) for mu in grid[inside])
    return best - math.log(grid.shape[0])


def slsqp_maximum(p, v, window, meta, lam, speed, start):
    """Best of SLSQP over the simplex and the window, when it ends feasible."""
    res = optimize.minimize(
        lambda mu: -continuous_objective(mu, p, v, meta, lam, speed),
        start,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * p.size,
        constraints=[
            {"type": "eq", "fun": lambda mu: mu.sum() - 1.0},
            {"type": "ineq", "fun": lambda mu: mu @ v - window[0]},
            {"type": "ineq", "fun": lambda mu: window[1] - mu @ v},
        ],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    mu = res.x
    if abs(mu.sum() - 1.0) > 1e-12 or not window[0] <= mu @ v <= window[1]:
        return -math.inf
    return -res.fun


@st.composite
def concave_map_instances(draw):
    """k = 3 instances whose objective is concave on the tilt curve."""
    raw = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)))
    v = np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    span = float(np.ptp(v))
    assume(span > 0.1)
    lo, hi = sorted(float(v.min()) + span * draw(st.floats(0.0, 1.0)) for _ in range(2))
    kind = draw(st.sampled_from(("identity", "centered_square")))
    if kind == "identity":
        meta, lam = MetaConstraint(kind="identity", eta=0.0), draw(st.floats(-20.0, 20.0))
    else:
        center = float(v.min()) + span * draw(st.floats(0.0, 1.0))
        meta = MetaConstraint(kind="centered_square", eta=0.0, center=center)
        lam = draw(st.floats(0.0, 50.0))
    return raw / raw.sum(), v, (lo, hi + 0.1 * span), meta, lam, draw(st.floats(0.2, 20.0))


class TestTiltPolish:
    def test_overflow_instance_is_polished_without_warnings(self):
        # lambda_eta is the fitted multiplier of this meta config; the
        # multiplicative update overflowed in exp here, and the suite turns
        # RuntimeWarning into an error
        P = dist(0.186613, 0.382311, 0.431076)
        meta = MetaConstraint(kind="identity", eta=1.959639259924845)
        result = map_model(
            P, [2.0, 1.0, 0.0], (1.822, 2.0), meta,
            lambda_eta=-117.70323035796122, speed=100.0, grid_step=0.02,
        )
        assert result.method == "tilt"
        expected = tilt_onto(P.weights, np.array([2.0, 1.0, 0.0]), 1.822)
        assert np.abs(result.model.weights - expected).sum() / 2 <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("place", ("inside", "below", "above"))
    def test_identity_is_the_tilt_by_lambda_over_speed(self, seed, place):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        v = np.array([0.0, 1.0, 2.5])
        lam, speed = float(rng.normal(0.0, 5.0)), float(rng.uniform(0.5, 20.0))
        free = tilt_of(p, v, lam / speed)
        xi = float(free @ v)
        width = 0.3
        window = {
            "inside": (xi - width, xi + width),
            "below": (xi + 0.05, xi + 0.05 + width),  # the tilt's mean lies below the window
            "above": (xi - 0.05 - width, xi - 0.05),
        }[place]
        window = (max(window[0], 0.0), min(window[1], 2.5))
        assert window[0] < window[1]
        if place == "inside":
            expected = free
        else:
            expected = tilt_onto(p, v, window[0] if place == "below" else window[1])
        result = map_model(
            FiniteDistribution.from_weights(list(p)), v, window,
            MetaConstraint(kind="identity", eta=0.0), lambda_eta=lam, speed=speed,
        )
        assert np.abs(result.model.weights - expected).sum() / 2 <= 1e-9

    @given(concave_map_instances())
    def test_concave_cases_reach_the_continuous_optimum(self, instance):
        p, v, window, meta, lam, speed = instance
        step = 0.02
        result = map_model(
            FiniteDistribution.from_weights(list(p)), v, window, meta,
            lambda_eta=lam, speed=speed, grid_step=step,
        )
        log_q = -math.log(simplex_grid(3, step).shape[0])
        assert result.objective >= grid_maximum(p, v, window, meta, lam, speed, step) - 1e-12
        reference = slsqp_maximum(p, v, window, meta, lam, speed, np.full(3, 1.0 / 3.0))
        assert result.objective - log_q >= reference - 1e-9

    def test_reference_with_a_zero_weight_is_polished(self):
        # the polish used to bail out when P had a zero weight; the optimum is
        # the tilt of (0.5, 0.5) onto the window end 0.61, between grid points
        P = dist(0.5, 0.5, 0.0)
        v = [0.0, 1.0, 2.0]
        meta = MetaConstraint(kind="identity", eta=0.0)
        result = map_model(P, v, (0.61, 0.9), meta, lambda_eta=1.0, grid_step=0.02)
        assert result.method == "tilt"
        assert result.model.weights == pytest.approx([0.39, 0.61, 0.0], abs=1e-12)
        grid = simplex_grid(3, 0.02)
        xi = grid @ np.asarray(v)
        best = max(
            -kl_divergence(FiniteDistribution(P.alphabet, mu), P) - 1.0 * float(mu @ v)
            for mu in grid[(xi >= 0.61) & (xi <= 0.9) & (grid[:, 2] == 0.0)]
        ) - math.log(grid.shape[0])
        assert result.objective >= best

    def test_speed_must_be_finite_and_positive(self):
        for speed in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                map_model(BERN_HALF, V01, (0.6, 0.9), flat_meta(), lambda_eta=0.1, speed=speed)


class TestLevelCoherence:
    def test_error_weights_approach_rate_function(self):
        n = 60
        ed = error_distribution_exact(BERN_HALF, V01, n)
        rates = {p.xi: p.rate for p in error_rate_function(BERN_HALF, V01, [0.7, 0.8])}
        for xi in (0.7, 0.8):
            finite_n_rate = -math.log(ed.weight_at(xi)) / n
            assert abs(finite_n_rate - rates[xi]) <= 0.05

    def test_contraction_of_exact_error_law_matches_rate_function(self):
        # finite-n rates of the exact error law, pushed through the grid
        # contraction, line up with the analytic rate function
        n = 60
        ed = error_distribution_exact(BERN_HALF, V01, n)
        finite_n_points = [
            RatePoint(xi=float(x), rate=-math.log(w) / n, feasible=True)
            for x, w in zip(ed.support, ed.probabilities)
            if w > 0
        ]
        contracted = contract_rate(finite_n_points, lambda xi: xi)
        for p in error_rate_function(BERN_HALF, V01, [0.7, 0.8]):
            assert abs(contracted(p.xi) - p.rate) <= 0.05


class TestMapConsistency:
    def test_widest_window_and_vanishing_multiplier_recover_base(self):
        result = map_model(BERN_HALF, V01, (0.0, 1.0), flat_meta(), lambda_eta=0.0)
        assert total_variation(result.model, BERN_HALF) <= 1e-6


class TestMetaPipeline:
    def test_end_to_end_centered_square(self):
        meta = MetaConstraint(kind="centered_square", eta=0.002)
        out = run_meta_pipeline(BERN_HALF, V01, 20, (0.6, 0.9), meta)
        assert out.fitted.lambda_eta is not None
        assert out.fitted.variance() == pytest.approx(0.002, abs=1e-8)
        xi = float(np.dot(out.map_result.model.weights, [0.0, 1.0]))
        assert 0.6 - 1e-9 <= xi <= 0.9 + 1e-9

    def test_pipeline_restricts_reference_to_window(self):
        meta = MetaConstraint(kind="identity", eta=0.7)
        out = run_meta_pipeline(BERN_HALF, V01, 20, (0.6, 0.9), meta)
        assert out.restricted.support.min() >= 0.6 - 1e-12
        assert out.restricted.support.max() <= 0.9 + 1e-12
        assert out.fitted.mean() == pytest.approx(0.7, abs=1e-9)
