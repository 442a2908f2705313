"""Conditional-loss asymptotics for a jointly Gaussian pair.

Models a label Y correlated with an observation X (standard normal marginal,
correlation r, label scale sigma_y).  The conditional law of Y given X = x is
Gaussian with mean m = r * sigma_y * x and variance s^2 = sigma_y^2 (1 - r^2);
an optional variance slack epsilon is realized by mixing that conditional
with a point mass at m, the simplest distribution whose variance falls short
of the Gaussian envelope by exactly epsilon.

Every supported loss depends on y - m only and is 0 at y = m, so the point
mass adds nothing and x drops out: the conditional expected loss is
(1 - epsilon / s^2) times the loss's expectation under N(0, s^2), which is
in closed form for each loss (normal moments and erf), exact to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleConstraint, NumericalError, UnsupportedLoss
from .ldp import _fit_line
from .measures import _floor

# Each supported loss and the one parameter it takes, if any (default 1.0).
LOSS_PARAMETERS = {"quadratic": None, "huber": "delta", "quartic": "scale"}
SUPPORTED_LOSSES = tuple(LOSS_PARAMETERS)


@dataclass(frozen=True)
class LossFunction:
    """Twice-differentiable loss L(z, y) of t = y - z, convex in y, 0 at y = z."""

    kind: str
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in SUPPORTED_LOSSES:
            raise UnsupportedLoss(f"loss {self.kind!r} not in {SUPPORTED_LOSSES}")
        if not (math.isfinite(self.param) and self.param >= 0):
            raise ValueError("loss parameter must be finite and non-negative")

    def second_derivative_at_center(self) -> float:
        """d^2/dy^2 L(z, y) at y = z."""
        if self.kind == "quadratic":
            return 2.0
        if self.kind == "huber":
            return 1.0
        return 0.0

    def gaussian_expectation(self, var: float) -> float:
        """E[L(0, t)] for t ~ N(0, var): var for quadratic t^2, 3 scale var^2
        for quartic scale t^4.  For Huber, with s = sqrt(var), a = delta / s
        and phi the standard normal density, the quadratic part |t| <= delta
        contributes var (erf(a / sqrt 2) - 2 a phi(a)) / 2 and the linear
        tail delta (2 s phi(a) - delta erfc(a / sqrt 2) / 2)."""
        if var == 0.0:
            return 0.0
        if self.kind == "quadratic":
            return var
        if self.kind == "quartic":
            return 3.0 * self.param * var * var
        d, s = self.param, math.sqrt(var)
        a = d / s
        phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        z = a / math.sqrt(2.0)
        return 0.5 * var * (math.erf(z) - 2.0 * a * phi) + d * (2.0 * s * phi - 0.5 * d * math.erfc(z))


def loss_function(kind: str, **params) -> LossFunction:
    """The loss ``kind`` with its parameter, if any; any other keyword is a ValueError."""
    name = LOSS_PARAMETERS.get(kind)
    unknown = sorted(set(params) - {name})
    if unknown:
        raise ValueError(f"loss {kind!r} takes no parameter {', '.join(unknown)}")
    return LossFunction(kind, float(params.get(name, 1.0)))


@dataclass(frozen=True, eq=False)
class GaussianPairModel:
    """Correlated Gaussian pair with an explicit conditional variance slack.

    Raises InfeasibleConstraint when epsilon exceeds the envelope variance
    by more than its float resolution (``measures._floor``), at any scale of
    sigma_y.
    """

    sigma_y: float
    r: float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.sigma_y <= 0:
            raise ValueError("sigma_y must be positive")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("correlation must be in [0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.epsilon - self.envelope_variance > _floor(self.envelope_variance):
            raise InfeasibleConstraint(
                f"epsilon {self.epsilon!r} exceeds the envelope variance "
                f"{self.envelope_variance!r} at r={self.r!r}"
            )

    @property
    def envelope_variance(self) -> float:
        """sigma_y^2 (1 - r^2): the Gaussian envelope's conditional variance."""
        return self.sigma_y ** 2 * (1.0 - self.r ** 2)

    @property
    def conditional_variance(self) -> float:
        """Actual V[Y | X] after mixing in the point mass: envelope - epsilon."""
        return self.envelope_variance - self.epsilon

    def point_mass_weight(self) -> float:
        if self.envelope_variance == 0.0:
            return 1.0
        return min(self.epsilon / self.envelope_variance, 1.0)

    def conditional_expected_loss(self, loss: LossFunction) -> float:
        """E[L(m, Y) | X = x] with the classifier fixed to the conditional mean m."""
        return (1.0 - self.point_mass_weight()) * loss.gaussian_expectation(self.envelope_variance)


@dataclass(frozen=True)
class ExpansionResult:
    exact: float
    taylor: float
    residual: float


def conditional_loss_expansion(model: GaussianPairModel, loss: LossFunction) -> ExpansionResult:
    """Exact conditional expected loss against its second-order expansion.

    The expansion around the conditional mean m is
    L(m, m) + 0.5 * L''(m, m) * (envelope variance - epsilon), with
    L(m, m) = 0; for quadratic loss it is exact, so the residual is round-off.
    """
    exact = model.conditional_expected_loss(loss)
    taylor = 0.5 * loss.second_derivative_at_center() * model.conditional_variance
    return ExpansionResult(exact=exact, taylor=taylor, residual=abs(exact - taylor))


@dataclass(frozen=True)
class LossCurve:
    """Expected loss per correlation value, with its fit against (1 - r^2)."""

    r_grid: tuple[float, ...]
    expected_losses: tuple[float, ...]
    fit: dict


def correlation_grid(r_grid: Sequence[float]) -> list[float]:
    """The correlations of a loss curve: at least 5, each in [0, 1)."""
    rs = [float(r) for r in r_grid]
    if len(rs) < 5:
        raise ValueError("r_grid must list at least 5 correlations")
    if any(not 0.0 <= r < 1.0 for r in rs):
        raise ValueError("correlations must lie in [0, 1)")
    return rs


def loss_correlation_curve(
    loss: LossFunction,
    r_grid: Sequence[float],
    sigma_y: float = 1.0,
    epsilon: float = 0.0,
) -> LossCurve:
    """Expected loss across a correlation grid, regressed on (1 - r^2).

    The slope estimates the curvature constant k*c and the intercept -k*eps.
    Losses must be non-increasing in r, or NumericalError is raised.
    """
    rs = correlation_grid(r_grid)
    losses = [GaussianPairModel(sigma_y, r, epsilon).conditional_expected_loss(loss) for r in rs]

    order = np.argsort(rs)
    if not np.all(np.diff(np.asarray(losses)[order]) <= _floor(losses)):
        raise NumericalError("expected loss increases with correlation")

    slope, intercept, r2, _ = _fit_line(1.0 - np.asarray(rs) ** 2, np.asarray(losses))
    return LossCurve(
        r_grid=tuple(rs),
        expected_losses=tuple(float(v) for v in losses),
        fit={"slope": slope, "intercept": intercept, "r2": r2},
    )
