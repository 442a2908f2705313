import math

import pytest

from maxent_bayes.correlation import (
    GaussianPairModel,
    conditional_loss_expansion,
    loss_correlation_curve,
    loss_function,
)
from maxent_bayes.errors import UnsupportedLoss


class TestGaussianPairModel:
    def test_envelope_and_conditional_variance(self):
        m = GaussianPairModel(sigma_y=2.0, r=0.5, epsilon=0.25)
        assert m.envelope_variance == pytest.approx(4.0 * 0.75, abs=1e-12)
        assert m.conditional_variance == pytest.approx(3.0 - 0.25, abs=1e-12)

    def test_epsilon_cannot_exceed_envelope(self):
        with pytest.raises(ValueError):
            GaussianPairModel(sigma_y=1.0, r=0.9, epsilon=0.5)

    def test_conditional_mean_tracks_x(self):
        m = GaussianPairModel(sigma_y=2.0, r=0.5)
        assert m.conditional_mean(1.5) == pytest.approx(1.5, abs=1e-12)

    def test_quadrature_variance_matches_closed_form(self):
        for r in (0.0, 0.3, 0.8):
            m = GaussianPairModel(sigma_y=1.3, r=r, epsilon=0.05)
            got = m.conditional_centered_moment(0.7, 2)
            want = m.conditional_variance
            assert abs(got - want) / want <= 1e-4


class TestConditionalLossExpansion:
    def test_quadratic_is_exact(self):
        out = conditional_loss_expansion(
            GaussianPairModel(sigma_y=1.0, r=0.6), loss_function("quadratic")
        )
        assert out.exact == pytest.approx(0.64, abs=1e-8)
        assert out.taylor == pytest.approx(0.64, abs=1e-12)
        assert out.residual <= 1e-8

    def test_quadratic_exactness_across_parameter_grid(self):
        for r in (0.0, 0.25, 0.5, 0.75, 0.9):
            for sigma in (0.5, 1.0, 2.0):
                for eps_frac in (0.0, 0.5):
                    eps = eps_frac * sigma ** 2 * (1.0 - r ** 2)
                    model = GaussianPairModel(sigma_y=sigma, r=r, epsilon=eps)
                    out = conditional_loss_expansion(model, loss_function("quadratic"), 0.3)
                    assert out.residual <= 1e-8

    def test_perfect_correlation_gives_zero_loss(self):
        out = conditional_loss_expansion(
            GaussianPairModel(sigma_y=1.0, r=1.0), loss_function("quadratic")
        )
        assert out.exact == 0.0
        assert out.taylor == 0.0

    def test_quartic_residual_is_fourth_moment(self):
        out = conditional_loss_expansion(
            GaussianPairModel(sigma_y=1.0, r=0.0), loss_function("quartic")
        )
        assert out.taylor == 0.0
        assert out.residual == pytest.approx(3.0, abs=1e-5)
        assert 0.0 < out.residual <= 3.0 * math.sqrt(3.0)

    def test_huber_expansion_uses_unit_curvature(self):
        model = GaussianPairModel(sigma_y=1.0, r=0.6)
        out = conditional_loss_expansion(model, loss_function("huber", delta=1.0))
        assert out.taylor == pytest.approx(0.5 * model.conditional_variance, abs=1e-12)
        # huber grows slower than quadratic in the tails, so exact < quadratic/2 value
        assert out.exact <= out.taylor + 1e-12

    def test_unknown_loss_rejected(self):
        with pytest.raises(UnsupportedLoss):
            loss_function("hinge")


class TestLossCorrelationCurve:
    R_GRID = (0.0, 0.2, 0.4, 0.6, 0.8)

    def test_quadratic_unit_slope_zero_intercept(self):
        curve = loss_correlation_curve(loss_function("quadratic"), self.R_GRID)
        assert abs(curve.fit["slope"] - 1.0) <= 1e-6
        assert abs(curve.fit["intercept"]) <= 1e-6
        assert curve.fit["r2"] >= 1.0 - 1e-9

    def test_epsilon_shifts_intercept(self):
        curve = loss_correlation_curve(loss_function("quadratic"), self.R_GRID, epsilon=0.1)
        assert curve.fit["intercept"] == pytest.approx(-0.1, abs=1e-6)
        assert abs(curve.fit["slope"] - 1.0) <= 1e-6

    def test_constant_loss_gives_flat_curve(self):
        curve = loss_correlation_curve(loss_function("quartic", scale=0.0), self.R_GRID)
        assert curve.fit["slope"] == 0.0
        assert all(v == 0.0 for v in curve.expected_losses)

    def test_losses_non_increasing_in_r_for_all_supported_losses(self):
        for tag, kwargs in (("quadratic", {}), ("huber", {"delta": 0.8}), ("quartic", {})):
            curve = loss_correlation_curve(loss_function(tag, **kwargs), self.R_GRID)
            assert all(b <= a + 1e-12 for a, b in zip(curve.expected_losses, curve.expected_losses[1:]))

    def test_convexity_premise_holds_for_supported_losses(self):
        for tag in ("quadratic", "huber", "quartic"):
            assert loss_function(tag).second_derivative_at_center() >= 0.0

    def test_needs_five_points_in_unit_interval(self):
        with pytest.raises(ValueError):
            loss_correlation_curve(loss_function("quadratic"), [0.0, 0.5])
        with pytest.raises(ValueError):
            loss_correlation_curve(loss_function("quadratic"), [0.0, 0.2, 0.4, 0.6, 1.0])
