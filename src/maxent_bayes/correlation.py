"""Conditional-loss asymptotics for a jointly Gaussian pair.

Models a label Y correlated with an observation X (standard normal marginal,
correlation r, label scale sigma_y).  The conditional law of Y given X = x is
Gaussian with mean m = r * sigma_y * x and variance sigma_y^2 (1 - r^2); an
optional variance slack epsilon is realized by mixing that conditional with a
point mass at m, the simplest distribution whose variance falls short of the
Gaussian envelope by exactly epsilon.

Everything is evaluated on a finite quadrature grid so the claims stay
exactly checkable: grids span +/-8 conditional standard deviations,
wide enough that truncation error in second moments sits below
1e-12 and the quadratic-loss expansion check can be held to 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridTooCoarse, NumericalError, UnsupportedLoss
from .ldp import _fit_line

DEFAULT_GRID_POINTS = 2001
GRID_RADIUS = 8.0  # in conditional standard deviations
QUADRATURE_ANCHOR_RTOL = 1e-4

# Each supported loss and the one parameter it takes, if any (default 1.0).
LOSS_PARAMETERS = {"quadratic": None, "huber": "delta", "quartic": "scale"}
SUPPORTED_LOSSES = tuple(LOSS_PARAMETERS)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on an evenly spaced grid."""
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class LossFunction:
    """Twice-differentiable loss L(z, y), convex in y."""

    kind: str
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in SUPPORTED_LOSSES:
            raise UnsupportedLoss(f"loss {self.kind!r} not in {SUPPORTED_LOSSES}")
        if not (math.isfinite(self.param) and self.param >= 0):
            raise ValueError("loss parameter must be finite and non-negative")

    def value(self, z: float, y: np.ndarray) -> np.ndarray:
        t = np.asarray(y, dtype=float) - z
        if self.kind == "quadratic":
            return t * t
        if self.kind == "huber":
            d = self.param
            return np.where(np.abs(t) <= d, 0.5 * t * t, d * (np.abs(t) - 0.5 * d))
        return self.param * t ** 4

    def second_derivative_at_center(self) -> float:
        """d^2/dy^2 L(z, y) at y = z."""
        if self.kind == "quadratic":
            return 2.0
        if self.kind == "huber":
            return 1.0
        return 0.0


def loss_function(kind: str, **params) -> LossFunction:
    """The loss ``kind`` with its parameter, if any; any other keyword is a ValueError."""
    name = LOSS_PARAMETERS.get(kind)
    unknown = sorted(set(params) - {name})
    if unknown:
        raise ValueError(f"loss {kind!r} takes no parameter {', '.join(unknown)}")
    return LossFunction(kind, float(params.get(name, 1.0)))


@dataclass(frozen=True, eq=False)
class GaussianPairModel:
    """Correlated Gaussian pair with an explicit conditional variance slack."""

    sigma_y: float
    r: float
    epsilon: float = 0.0
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.sigma_y <= 0:
            raise ValueError("sigma_y must be positive")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("correlation must be in [0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.conditional_variance < -1e-15:
            raise ValueError(
                f"epsilon {self.epsilon!r} exceeds the conditional envelope variance "
                f"{self.envelope_variance!r}"
            )
        if self.grid_points < 3:
            raise ValueError("grid needs at least 3 points")

    @property
    def envelope_variance(self) -> float:
        """sigma_y^2 (1 - r^2): the Gaussian envelope's conditional variance."""
        return self.sigma_y ** 2 * (1.0 - self.r ** 2)

    @property
    def conditional_variance(self) -> float:
        """Actual V[Y | X] after mixing in the point mass: envelope - epsilon."""
        return self.envelope_variance - self.epsilon

    def conditional_mean(self, x_value: float) -> float:
        return self.r * self.sigma_y * x_value

    def point_mass_weight(self) -> float:
        if self.envelope_variance == 0.0:
            return 1.0
        return self.epsilon / self.envelope_variance

    def conditional_grid(self, x_value: float) -> tuple[np.ndarray, np.ndarray]:
        """(grid, normalized quadrature weights) of the Gaussian component."""
        m = self.conditional_mean(x_value)
        s = math.sqrt(self.envelope_variance)
        if s == 0.0:
            return np.array([m]), np.array([1.0])
        y, w = self._gaussian_quadrature(m, s)
        return y, w / w.sum()

    def _gaussian_quadrature(self, m: float, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Grid over m +/- GRID_RADIUS * s and trapezoid weights times the N(m, s^2) density."""
        y = np.linspace(m - GRID_RADIUS * s, m + GRID_RADIUS * s, self.grid_points)
        density = np.exp(-0.5 * ((y - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return y, density * _trapezoid_weights(y)

    def conditional_centered_moment(self, x_value: float, p: int) -> float:
        """E[(Y - m)^p | X = x] of the mixture, by quadrature."""
        m = self.conditional_mean(x_value)
        y, w = self.conditional_grid(x_value)
        gaussian_part = float(np.dot(w, (y - m) ** p))
        return (1.0 - self.point_mass_weight()) * gaussian_part

    def conditional_expected_loss(self, x_value: float, loss: LossFunction) -> float:
        """E[L(m, Y) | X = x] with the classifier fixed to the conditional mean."""
        m = self.conditional_mean(x_value)
        y, w = self.conditional_grid(x_value)
        gaussian_part = float(np.dot(w, loss.value(m, y)))
        pm = self.point_mass_weight()
        return (1.0 - pm) * gaussian_part + pm * float(loss.value(m, np.array([m]))[0])

    def _check_quadrature_anchor(self, x_value: float) -> None:
        """Raise GridTooCoarse unless the quadrature recovers the variance of
        the Gaussian component (the point mass adds nothing to it, and mixing
        it in would cancel the variance to round-off as epsilon nears the
        envelope)."""
        target = self.envelope_variance
        if target == 0.0:  # r = 1: the conditional is a point, with no grid
            return
        m = self.conditional_mean(x_value)
        y, w = self.conditional_grid(x_value)
        rel = abs(float(np.dot(w, (y - m) ** 2)) - target) / target
        if rel > QUADRATURE_ANCHOR_RTOL:
            raise GridTooCoarse(
                f"p=2 quadrature error {rel:.3g} exceeds {QUADRATURE_ANCHOR_RTOL}"
            )


@dataclass(frozen=True)
class ExpansionResult:
    exact: float
    taylor: float
    residual: float


def conditional_loss_expansion(
    model: GaussianPairModel, loss: LossFunction, x_value: float = 0.0
) -> ExpansionResult:
    """Exact conditional expected loss against its second-order expansion.

    The expansion around the conditional mean m is
    L(m, m) + 0.5 * L''(m, m) * (envelope variance - epsilon); for quadratic
    loss it is exact so the residual is pure quadrature noise.
    """
    model._check_quadrature_anchor(x_value)
    m = model.conditional_mean(x_value)
    exact = model.conditional_expected_loss(x_value, loss)
    taylor = float(loss.value(m, np.array([m]))[0]) + 0.5 * loss.second_derivative_at_center() * (
        model.envelope_variance - model.epsilon
    )
    return ExpansionResult(exact=exact, taylor=taylor, residual=abs(exact - taylor))


@dataclass(frozen=True)
class LossCurve:
    """Expected loss per correlation value, with its fit against (1 - r^2)."""

    r_grid: tuple[float, ...]
    expected_losses: tuple[float, ...]
    fit: dict


def loss_correlation_curve(
    loss: LossFunction,
    r_grid: Sequence[float],
    sigma_y: float = 1.0,
    epsilon: float = 0.0,
    x_value: float = 0.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> LossCurve:
    """Expected loss across a correlation grid, regressed on (1 - r^2).

    The slope estimates the curvature constant k*c and the intercept -k*eps.
    At every r the quadrature must recover the conditional variance to
    QUADRATURE_ANCHOR_RTOL, or GridTooCoarse is raised; losses must be
    non-increasing in r, or NumericalError is raised.
    """
    rs = [float(r) for r in r_grid]
    if len(rs) < 5:
        raise ValueError("need at least 5 correlation values")
    if any(not 0.0 <= r < 1.0 for r in rs):
        raise ValueError("correlations must lie in [0, 1)")
    losses = []
    for r in rs:
        model = GaussianPairModel(sigma_y=sigma_y, r=r, epsilon=epsilon, grid_points=grid_points)
        model._check_quadrature_anchor(x_value)
        losses.append(model.conditional_expected_loss(x_value, loss))

    order = np.argsort(rs)
    if not np.all(np.diff(np.asarray(losses)[order]) <= 1e-12):
        raise NumericalError("expected loss increases with correlation")

    slope, intercept, r2, _ = _fit_line(1.0 - np.asarray(rs) ** 2, np.asarray(losses))
    return LossCurve(
        r_grid=tuple(rs),
        expected_losses=tuple(float(v) for v in losses),
        fit={"slope": slope, "intercept": intercept, "r2": r2},
    )
