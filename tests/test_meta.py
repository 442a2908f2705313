import math

import numpy as np
import pytest
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
    misfit_weight,
    run_meta_pipeline,
    simplex_grid,
    total_variation,
)
from maxent_bayes.errors import EmptyFeasibleSet


def dist(*weights):
    return FiniteDistribution.from_weights(list(weights))


BERN_HALF = dist(0.5, 0.5)
V01 = [0.0, 1.0]


def centre_oracle(ed, eta):
    """Independent self-consistent centre: brentq on m over brentq-solved tilts."""
    xi, log_r = ed.support, np.log(ed.weights.weights)

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
        assert ed.weights.weights == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_single_draw_is_pushforward_of_base(self):
        P = dist(0.3, 0.7)
        ed = error_distribution_exact(P, [2.0, 5.0], 1)
        assert list(ed.support) == [2.0, 5.0]
        assert ed.weights.weights == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_central_binomial_weight(self):
        ed = error_distribution_exact(BERN_HALF, V01, 10)
        assert len(ed.support) == 11
        assert ed.weight_at(0.5) == pytest.approx(math.comb(10, 5) / 2 ** 10, abs=1e-12)
        assert ed.weight_at(0.5) == pytest.approx(0.246094, abs=1e-6)

    def test_values_sharing_expected_loss_are_merged(self):
        # constant potential: every type class has the same expected loss
        ed = error_distribution_exact(BERN_HALF, [1.0, 1.0], 6)
        assert list(ed.support) == [1.0]
        assert ed.weights.weights == pytest.approx([1.0], abs=1e-12)

    def test_restrict_renormalizes(self):
        ed = error_distribution_exact(BERN_HALF, V01, 10)
        sub = ed.restrict(0.6, 0.9)
        assert list(sub.support) == [0.6, 0.7, 0.8, 0.9]
        assert float(sub.weights.weights.sum()) == pytest.approx(1.0, abs=1e-12)


class TestMaxentErrorFit:
    def test_already_satisfied_keeps_reference(self):
        ed = error_distribution_exact(BERN_HALF, V01, 10)
        fit = maxent_error_fit(ed, MetaConstraint(kind="identity", eta=ed.mean()))
        assert fit.lambda_eta == 0.0
        assert np.array_equal(fit.weights.weights, ed.weights.weights)

    def test_identity_on_binary_support(self):
        ed = error_distribution_exact(BERN_HALF, V01, 1)  # uniform on {0, 1}
        fit = maxent_error_fit(ed, MetaConstraint(kind="identity", eta=0.25))
        assert fit.weights.weights == pytest.approx([0.75, 0.25], abs=1e-9)
        assert fit.lambda_eta == pytest.approx(math.log(3.0), abs=1e-8)

    def test_centered_square_concentrates_to_target_variance(self):
        ed = error_distribution_exact(BERN_HALF, V01, 40)
        eta = 0.4 * ed.variance()
        fit = maxent_error_fit(ed, MetaConstraint(kind="centered_square", eta=eta))
        assert fit.lambda_eta > 0.0
        assert fit.variance() == pytest.approx(eta, abs=1e-9)
        assert fit.provenance == "fitted"

    def test_centered_square_against_multiplier_grid_search(self):
        ed = error_distribution_exact(BERN_HALF, V01, 40)
        eta = 0.4 * ed.variance()
        fit = maxent_error_fit(ed, MetaConstraint(kind="centered_square", eta=eta))
        # independent oracle: fine grid over the multiplier at the resolved center
        u = (ed.support - fit.center) ** 2
        lams = np.linspace(fit.lambda_eta - 5.0, fit.lambda_eta + 5.0, 20001)
        best_lam, best_gap = None, math.inf
        log_ref = np.log(ed.weights.weights)
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
        assert fit.weights.weights == pytest.approx([0.75, 0.25], abs=1e-9)


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
        result = map_model(BERN_HALF, None, V01, (0.0, 1.0), flat_meta(), lambda_eta=0.0)
        assert np.array_equal(result.model.weights, BERN_HALF.weights)
        assert result.method == "grid"
        assert result.components["kl_term"] == 0.0

    def test_point_window_at_typical_value(self):
        result = map_model(BERN_HALF, None, V01, (0.5, 0.5), flat_meta(), lambda_eta=0.0)
        assert np.array_equal(result.model.weights, BERN_HALF.weights)

    def test_objective_decomposition(self):
        meta = MetaConstraint(kind="centered_square", eta=0.01, center=0.7)
        result = map_model(BERN_HALF, None, V01, (0.6, 0.9), meta, lambda_eta=3.0)
        recomposed = (
            -result.components["kl_term"]
            - result.components["meta_term"]
            + result.components["log_q_term"]
        )
        assert abs(result.objective - recomposed) <= 1e-9

    def test_matches_exhaustive_grid_oracle(self):
        meta = MetaConstraint(kind="centered_square", eta=0.01, center=0.7)
        lam = 3.0
        result = map_model(BERN_HALF, None, V01, (0.6, 0.9), meta, lambda_eta=lam)
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
            map_model(BERN_HALF, None, V01, (1.5, 2.0), flat_meta(), lambda_eta=0.0)

    def test_grid_prior_disables_polish_and_reweights(self):
        grid = simplex_grid(2, 0.5)  # [0,1], [0.5,0.5], [1,0]
        prior = np.array([0.01, 0.01, 0.98])
        result = map_model(
            BERN_HALF, prior, V01, (0.0, 1.0), flat_meta(), lambda_eta=0.0, grid_step=0.5
        )
        # strong prior mass on the point mass at symbol 0 beats the KL pull
        assert result.method == "grid"
        assert result.model.weights == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_speed_parameter_scales_kl_term(self):
        meta = MetaConstraint(kind="identity", eta=0.5)
        slow = map_model(BERN_HALF, None, V01, (0.6, 0.9), meta, lambda_eta=0.1, speed=1.0)
        fast = map_model(BERN_HALF, None, V01, (0.6, 0.9), meta, lambda_eta=0.1, speed=60.0)
        # a faster speed penalizes KL harder, pulling the argmax toward the window edge nearest P
        assert fast.components["kl_term"] / 60.0 <= slow.components["kl_term"] + 1e-12


class TestMisfitWeight:
    def test_zero_misfit(self):
        nu = error_distribution_exact(BERN_HALF, V01, 4)
        mu = dist(0.5, 0.5)  # expected loss 0.5 equals the nu mean
        assert misfit_weight(mu, V01, nu, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_multiplier(self):
        nu = error_distribution_exact(BERN_HALF, V01, 4)
        assert misfit_weight(dist(0.1, 0.9), V01, nu, 0.0) == 1.0

    def test_direct_evaluation(self):
        nu = error_distribution_exact(BERN_HALF, V01, 4)  # mean 0.5
        mu = dist(0.0, 1.0)  # expected loss 1.0, misfit 0.5
        assert misfit_weight(mu, V01, nu, 1.0) == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert misfit_weight(mu, V01, nu, 1.0) == pytest.approx(0.778801, abs=1e-6)


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
            for x, w in zip(ed.support, ed.weights.weights)
            if w > 0
        ]
        contracted = contract_rate(finite_n_points, lambda xi: xi)
        for p in error_rate_function(BERN_HALF, V01, [0.7, 0.8]):
            assert abs(contracted(p.xi) - p.rate) <= 0.05


class TestMapConsistency:
    def test_widest_window_and_vanishing_multiplier_recover_base(self):
        result = map_model(BERN_HALF, None, V01, (0.0, 1.0), flat_meta(), lambda_eta=0.0)
        assert total_variation(result.model, BERN_HALF) <= 1e-6

    def test_posterior_weights_normalize(self):
        nu = error_distribution_exact(BERN_HALF, V01, 20)
        grid = simplex_grid(2, 0.01)
        total = 0.0
        for row in grid:
            mu = FiniteDistribution(BERN_HALF.alphabet, row)
            total += (
                math.exp(-kl_divergence(mu, BERN_HALF))
                * misfit_weight(mu, V01, nu, 2.0)
                * (1.0 / grid.shape[0])
            )
        assert math.isfinite(total) and total > 0.0


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
