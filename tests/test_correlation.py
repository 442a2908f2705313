import math

import numpy as np
import pytest
from scipy import integrate, stats

from maxent_bayes.correlation import (
    GaussianPairModel,
    conditional_loss_expansion,
    loss_correlation_curve,
    loss_function,
)
from maxent_bayes.errors import InfeasibleConstraint, UnsupportedLoss


class TestGaussianPairModel:
    def test_envelope_and_conditional_variance(self):
        m = GaussianPairModel(sigma_y=2.0, r=0.5, epsilon=0.25)
        assert m.envelope_variance == pytest.approx(4.0 * 0.75, abs=1e-12)
        assert m.conditional_variance == pytest.approx(3.0 - 0.25, abs=1e-12)

    def test_epsilon_cannot_exceed_envelope(self):
        with pytest.raises(InfeasibleConstraint):
            GaussianPairModel(sigma_y=1.0, r=0.9, epsilon=0.5)


def gaussian_quad(loss, s, cuts=()):
    """E[loss(t)] for t ~ N(0, s^2) by adaptive quadrature over t >= 0 (the
    losses are even), split at the cuts where the integrand changes form."""
    f = lambda t: loss(t) * stats.norm.pdf(t, scale=s)
    ends = [0.0, *cuts, math.inf]
    return 2.0 * sum(
        integrate.quad(f, a, b, points=[x for x in (s, 10 * s) if x < b] if b < math.inf else None,
                       epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(ends, ends[1:])
    )


class TestClosedForms:
    """Each loss's conditional expectation against quadrature of its definition."""

    @pytest.mark.parametrize("sigma, r", [(0.5, 0.0), (1.0, 0.6), (3.0, 0.3)])
    @pytest.mark.parametrize("ratio", np.logspace(-3.0, 3.0, 13))
    def test_huber_across_delta_over_s(self, sigma, r, ratio):
        s = sigma * math.sqrt(1.0 - r * r)
        d = ratio * s
        huber = lambda t: 0.5 * t * t if t <= d else d * (t - 0.5 * d)
        got = GaussianPairModel(sigma, r).conditional_expected_loss(loss_function("huber", delta=d))
        assert got == pytest.approx(gaussian_quad(huber, s, (d,)), rel=1e-12)

    @pytest.mark.parametrize("scale", (0.0, 1.0, 2.0))
    @pytest.mark.parametrize("sigma, r", [(0.5, 0.0), (1.0, 0.6), (3.0, 0.3)])
    def test_quartic_and_quadratic(self, scale, sigma, r):
        s = sigma * math.sqrt(1.0 - r * r)
        model = GaussianPairModel(sigma, r)
        quartic = model.conditional_expected_loss(loss_function("quartic", scale=scale))
        assert quartic == pytest.approx(gaussian_quad(lambda t: scale * t ** 4, s), rel=1e-12, abs=0.0)
        quadratic = model.conditional_expected_loss(loss_function("quadratic"))
        assert quadratic == pytest.approx(gaussian_quad(lambda t: t * t, s), rel=1e-12)

    def test_point_mass_scales_the_gaussian_part(self):
        model = GaussianPairModel(sigma_y=2.0, r=0.5, epsilon=0.75)  # a quarter of the envelope 3
        s = math.sqrt(3.0)
        huber = lambda t: 0.5 * t * t if t <= 0.7 else 0.7 * (t - 0.35)
        got = model.conditional_expected_loss(loss_function("huber", delta=0.7))
        assert got == pytest.approx(0.75 * gaussian_quad(huber, s, (0.7,)), rel=1e-12)

    @pytest.mark.parametrize("kind, params", [("quadratic", {}), ("huber", {"delta": 0.5}), ("quartic", {"scale": 2.0})])
    def test_perfect_correlation_leaves_no_loss(self, kind, params):
        assert GaussianPairModel(sigma_y=1.5, r=1.0).conditional_expected_loss(loss_function(kind, **params)) == 0.0


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
                    out = conditional_loss_expansion(model, loss_function("quadratic"))
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
