"""Constrained entropy maximization over finite alphabets.

The core primitive is the exponential tilt p_lam = q * exp(-lam * V) / Z(lam),
the unique distribution matching a mean constraint V . p = c while staying as
close as possible (in relative entropy) to the reference q.

Every projection onto {p : V . p = c} is a root in its constraint
multipliers, with the primal in closed form:

* relative entropy: p = q exp(-lam V) / Z, a 1-D root in lam; the mean
  decreases in lam, and the bracket doubles until the sign changes;
* reverse relative entropy: p_i = q_i / (1 + beta (v_i - c)), a 1-D root in
  beta on the closed-form bracket (-1 / (max V - c), 1 / (c - min V));
* squared Euclidean and chi-squared: p_i = max(q_i + (a + b v_i) / G'', 0),
  from the concave 2-D dual by damped Newton with an active-set Jacobian.

The 1-D roots share one safeguarded bracketed root finder.  Partition-function
arithmetic is in the log domain with max-subtraction, so large multipliers
neither overflow nor underflow.  ``resolve_target`` is the one place that
decides whether a point or window target is reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePotential,
    InfeasibleConstraint,
    NonConvergence,
    UnsupportedGenerator,
)
from .measures import (
    FiniteDistribution,
    as_potential,
    kl_divergence,
    total_variation,
)

DEFAULT_TILT_TOL = 1e-10
DEFAULT_PROJECTION_TOL = 1e-8
# Safety net only: each root step either halves |f| or halves the bracket.
ROOT_STEP_CAP = 200
DUAL_NEWTON_CAP = 100


@dataclass(frozen=True, eq=False)
class TiltedDistribution:
    """Reference q tilted by exp(-lam * V), realizing the mean constraint.

    ``lam`` may be +/-inf for the degenerate boundary limit where the tilt
    concentrates on the extreme set of V; ``log_partition`` is None there.
    """

    reference: FiniteDistribution
    potential: np.ndarray
    lam: float
    realized: FiniteDistribution
    log_partition: float | None = None

    def constraint_value(self) -> float:
        return float(np.dot(self.potential, self.realized.weights))


@dataclass(frozen=True)
class ConstraintSpec:
    """A potential V together with a point target c or a window [lo, hi]."""

    potential: object
    target: float | tuple[float, float]

    def __post_init__(self):
        if self.is_interval:
            lo, hi = self.target
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"invalid target interval {self.target!r}")
        elif not math.isfinite(float(self.target)):
            raise ValueError(f"invalid point target {self.target!r}")

    @property
    def is_interval(self) -> bool:
        return isinstance(self.target, (tuple, list))

    @classmethod
    def point(cls, potential, c: float) -> "ConstraintSpec":
        return cls(potential, float(c))

    @classmethod
    def interval(cls, potential, lo: float, hi: float) -> "ConstraintSpec":
        return cls(potential, (float(lo), float(hi)))


SUPPORTED_GENERATORS = ("kl", "reverse_kl", "squared_euclidean", "chi_squared")


@dataclass(frozen=True)
class DivergenceSpec:
    """Named convex divergence generator; each is convex in p on the simplex."""

    generator: str
    parameters: tuple = ()

    def __post_init__(self):
        if self.generator not in SUPPORTED_GENERATORS:
            raise UnsupportedGenerator(
                f"generator {self.generator!r} not in {SUPPORTED_GENERATORS}"
            )


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------
def attainable_range(q: FiniteDistribution, v: np.ndarray) -> tuple[float, float]:
    """[min V, max V] over the support of q: the means a reweighting of q reaches."""
    v_sup = v[q.support]
    return float(v_sup.min()), float(v_sup.max())


def resolve_target(
    q: FiniteDistribution,
    v: np.ndarray,
    target: float | tuple[float, float],
    tol: float = DEFAULT_TILT_TOL,
    boundary: bool = False,
) -> tuple[float | None, str | None]:
    """Decide whether reweighting q can meet a point or window mean target.

    Returns ``(c, end)``.  ``c`` is None when q itself meets the target (a
    window holding the mean of q, a point equal to it, or a potential
    constant on the support within ``tol`` of the point); otherwise it is
    the point itself, or the window endpoint nearer the mean of q.  ``end``
    is "min" or "max" when c is that end of the attainable range.

    Raises DegeneratePotential when V is constant on the support but another
    value is asked, and InfeasibleConstraint when the target misses the
    attainable range, or meets only an end of it while ``boundary`` is
    False (only the relative-entropy projection has a limit there).
    """
    v_lo, v_hi = attainable_range(q, v)
    mean = float(np.dot(q.weights, v))
    if isinstance(target, (tuple, list)):
        lo, hi = target
        if lo > v_hi or hi < v_lo:
            raise InfeasibleConstraint(
                f"window [{lo!r}, {hi!r}] misses the attainable range [{v_lo!r}, {v_hi!r}]"
            )
        if lo <= mean <= hi:
            return None, None
        c = min(max(lo if mean < lo else hi, v_lo), v_hi)
    else:
        c = float(target)
    if v_lo == v_hi:
        if abs(c - v_lo) <= tol:
            return None, None
        raise DegeneratePotential(
            f"potential is constant ({v_lo!r}) on the support but target is {c!r}"
        )
    if c == mean:
        return None, None
    if v_lo < c < v_hi:
        return c, None
    if boundary and v_lo <= c <= v_hi:
        return c, "min" if c == v_lo else "max"
    raise InfeasibleConstraint(
        f"target {c!r} outside the attainable "
        + (f"range [{v_lo!r}, {v_hi!r}]" if boundary else f"open interval ({v_lo!r}, {v_hi!r})")
    )


# ---------------------------------------------------------------------------
# Safeguarded bracketed root
# ---------------------------------------------------------------------------
def _bracketed_root(
    f: Callable[[float], tuple[float, float | None]],
    lo: float,
    hi: float,
    x: float,
    tol: float,
) -> tuple[float, float, dict]:
    """Root of a decreasing function on the open bracket (lo, hi), from x.

    ``f(x)`` returns ``(value, slope)``; with ``slope`` None a secant through
    the last two points stands in for the derivative.  The Newton (or
    secant) step is taken when it lands strictly inside the bracket and the
    last step at least halved |f|; otherwise the bracket is bisected.  Stops
    when |f| <= tol, when a step falls below float resolution, or when the
    bracket collapses, and returns the best point seen as (x, f(x), counts)
    for the caller to judge.
    """
    best_x, best_f = x, math.inf
    prev = None
    newton = bisections = 0
    for _ in range(ROOT_STEP_CAP):
        fx, slope = f(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) <= tol:
            break
        if fx > 0.0:
            lo = x
        else:
            hi = x
        if slope is None and prev is not None and math.isfinite(fx):
            slope = (fx - prev[1]) / (x - prev[0])
        fast = prev is None or abs(fx) <= 0.5 * abs(prev[1])
        prev = (x, fx)
        step = x - fx / slope if fast and slope is not None and slope < 0.0 else math.nan
        if lo < step < hi:
            if abs(step - x) <= 4.0 * math.ulp(x):
                break
            x = step
            newton += 1
        else:
            x = 0.5 * (lo + hi)
            bisections += 1
            if not lo < x < hi:
                break
    return best_x, best_f, {"newton": newton, "bisections": bisections}


# ---------------------------------------------------------------------------
# Relative entropy: the exponential tilt
# ---------------------------------------------------------------------------
def _tilt_state(log_w: np.ndarray, v: np.ndarray, lam: float):
    """Normalized weights and log-partition of log_w - lam * v."""
    a = log_w - lam * v
    m = a.max()
    w = np.exp(a - m)
    z = w.sum()
    return w / z, m + math.log(z)


def _tilt_multiplier(
    log_w: np.ndarray, v: np.ndarray, c: float, tol: float
) -> tuple[float, np.ndarray, float, dict]:
    """Find lam with sum_i softmax(log_w - lam v)_i v_i = c.

    Assumes min(v) < c < max(v).  Returns (lam, weights, log_partition, report).
    """

    def gap(lam: float) -> tuple[float, float]:
        w, _ = _tilt_state(log_w, v, lam)
        m = float(np.dot(w, v))
        return m - c, -float(np.dot(w, (v - m) ** 2))

    # the mean decreases in lam: double away from 0 until it crosses c
    g0 = gap(0.0)[0]
    near, far, expansions = 0.0, math.copysign(1.0, g0), 0
    while g0 != 0.0 and (gap(far)[0] > 0.0) == (g0 > 0.0):
        near, far = far, 2.0 * far
        expansions += 1
        if not math.isfinite(far):
            raise NonConvergence(f"multiplier for target {c!r} overflows the float range")
    lo, hi = sorted((near, far))

    lam, g, counts = _bracketed_root(gap, lo, hi, 0.5 * (lo + hi), tol)
    if abs(g) > tol:
        raise NonConvergence(f"multiplier search stalled at residual {abs(g):.3g}", residual=abs(g))
    w, log_z = _tilt_state(log_w, v, lam)
    report = {"bracket": (lo, hi), "expansions": expansions, **counts, "residual": abs(g)}
    return lam, w, log_z, report


def _identity_tilt(q: FiniteDistribution, v: np.ndarray) -> TiltedDistribution:
    return TiltedDistribution(
        reference=q,
        potential=v,
        lam=0.0,
        realized=FiniteDistribution(q.alphabet, q.weights),
        log_partition=0.0,
    )


def _tilt(
    q: FiniteDistribution, v: np.ndarray, c: float, tol: float
) -> tuple[TiltedDistribution, dict]:
    """Tilt of q onto an interior target c (already resolved)."""
    sup = q.support
    lam, w_sup, log_z, report = _tilt_multiplier(np.log(q.weights[sup]), v[sup], c, tol)
    weights = np.zeros(q.size)
    weights[sup] = w_sup
    realized = FiniteDistribution(q.alphabet, weights)
    tilt = TiltedDistribution(
        reference=q, potential=v, lam=lam, realized=realized, log_partition=log_z
    )
    return tilt, report


def solve_tilt_with_report(
    q: FiniteDistribution, potential, c: float, tol: float = DEFAULT_TILT_TOL
) -> tuple[TiltedDistribution, dict]:
    """solve_tilt, also returning solver diagnostics for verbose output."""
    v = as_potential(potential, q.alphabet)
    target, _ = resolve_target(q, v, float(c), tol)
    if target is None:
        trivial = {"bracket": (0.0, 0.0), "expansions": 0, "bisections": 0, "newton": 0, "residual": 0.0}
        return _identity_tilt(q, v), trivial
    return _tilt(q, v, target, tol)


def solve_tilt(
    q: FiniteDistribution, potential, c: float, tol: float = DEFAULT_TILT_TOL
) -> TiltedDistribution:
    """Tilt q onto the constraint set {p : V . p = c}.

    The returned multiplier is the unique one matching the constraint to
    within ``tol``; the realized measure is the relative-entropy projection
    of q onto the constraint set.
    """
    return solve_tilt_with_report(q, potential, c, tol)[0]


def _boundary_projection(
    q: FiniteDistribution, v: np.ndarray, c: float, end: str
) -> TiltedDistribution:
    """Conditioning of q on {V = c}, c an end of the range: the lam -> +/-inf limit."""
    weights = np.where(v == c, q.weights, 0.0)
    realized = FiniteDistribution(q.alphabet, weights / weights.sum())
    lam = -math.inf if end == "max" else math.inf
    return TiltedDistribution(
        reference=q, potential=v, lam=lam, realized=realized, log_partition=None
    )


def i_projection(
    P: FiniteDistribution, constraint: ConstraintSpec, tol: float = DEFAULT_TILT_TOL
) -> tuple[TiltedDistribution, float]:
    """Minimize KL(mu || P) over the constraint set; returns (tilt, rate).

    Point targets on the boundary of the attainable range resolve to P
    conditioned on the extreme set of V (the infinite-multiplier limit);
    interval targets resolve by convexity to P itself when its mean is
    inside the window, otherwise to the window endpoint nearer that mean.
    """
    v = as_potential(constraint.potential, P.alphabet)
    c, end = resolve_target(P, v, constraint.target, tol, boundary=True)
    if c is None:
        return _identity_tilt(P, v), 0.0
    tilt = _boundary_projection(P, v, c, end) if end else _tilt(P, v, c, tol)[0]
    return tilt, kl_divergence(tilt.realized, P)


# ---------------------------------------------------------------------------
# General-divergence projections
# ---------------------------------------------------------------------------
def _generator_functions(
    spec: DivergenceSpec, q: np.ndarray
) -> tuple[
    Callable[[np.ndarray], float],
    Callable[[np.ndarray], np.ndarray],
    Callable[[np.ndarray], np.ndarray],
]:
    """Objective G(p, q), gradient, and diagonal Hessian in p, closed over q.

    The relative-entropy derivatives assume strictly positive p on the
    support of q; the quadratic generators have a constant Hessian.
    """
    if spec.generator == "kl":
        return (
            lambda p: float(np.sum(p * np.log(p / q))),
            lambda p: np.log(p / q) + 1.0,
            lambda p: 1.0 / p,
        )
    if spec.generator == "reverse_kl":
        return (
            lambda p: float(np.sum(q * np.log(q / p))),
            lambda p: -q / p,
            lambda p: q / (p * p),
        )
    if spec.generator == "squared_euclidean":
        return (
            lambda p: 0.5 * float(np.sum((p - q) ** 2)),
            lambda p: p - q,
            lambda p: np.ones_like(p),
        )
    if spec.generator == "chi_squared":
        return (
            lambda p: float(np.sum((p - q) ** 2 / q)),
            lambda p: 2.0 * (p - q) / q,
            lambda p: 2.0 / q,
        )
    raise UnsupportedGenerator(f"generator {spec.generator!r} has no closed-form derivative")


def _kkt_residual(grad: np.ndarray, v: np.ndarray) -> float:
    """Max-norm of the gradient after projecting out the 1 and V directions."""
    basis = np.column_stack([np.ones_like(v), v])
    coef, *_ = np.linalg.lstsq(basis, grad, rcond=None)
    return float(np.abs(grad - basis @ coef).max())


def _reverse_kl_projection(q: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """p_i = q_i / s_i, s_i = 1 + beta (v_i - c), at the root of sum q (v - c) / s.

    Stationarity gives p_i = q_i / (alpha + beta v_i); summing p_i times the
    denominator gives alpha = 1 - beta c.  The root function is strictly
    decreasing in beta on (-1 / (max V - c), 1 / (c - min V)), where every
    s_i > 0, and beta has the sign of mean(q) - c.  On that half of the
    bracket the solve runs in sigma = s_j, the denominator of the end v_j
    that bounds it: s_i = ((v_i - v_j) + sigma (c - v_i)) / (c - v_j), which
    stays accurate when the root crowds the pole (sigma -> 0, mass moved onto
    a light atom).  sigma = 1 is beta = 0.  The solve uses sigma times the
    root function: same sign, and close to linear near the pole.
    """
    d = v - c
    j = int(np.argmin(v)) if float(np.dot(q, v)) > c else int(np.argmax(v))
    w = c - v[j]
    sign = math.copysign(1.0, w)

    def denominators(sigma: float) -> np.ndarray:
        return ((v - v[j]) - sigma * d) / w

    def gap(sigma: float) -> tuple[float, float]:
        s = denominators(sigma)
        t = d / s
        h = float(np.dot(q, t))
        dh = float(np.dot(q, t * t)) / w
        return -sign * sigma * h, -sign * (h + sigma * dh)

    sigma, _, _ = _bracketed_root(gap, 0.0, 1.0, 1.0, 0.0)
    p = q / denominators(sigma)
    return p / p.sum()


def _quadratic_projection(
    spec: DivergenceSpec, q: np.ndarray, v: np.ndarray, c: float
) -> np.ndarray:
    """Squared-Euclidean or chi-squared projection through its 2-D dual.

    For p >= 0 the Lagrangian G(p) - a (sum p - 1) - b (V . p - c) is
    minimized by p_i = max(q_i + h_i (a + b v_i), 0) with h = 1 / G''.  The
    dual is concave with gradient (1 - sum p, c - V . p), and minus its
    Hessian is sum h_i (1, v_i)(1, v_i)^T over the active (positive)
    entries.  Damped Newton steps backtrack on the dual objective until the
    constraint residual reaches round-off; the dual is quadratic on each
    active set, so a full step that keeps the active set lands on the root.
    V is measured from the active atom of largest h, re-chosen every step:
    that atom's term a + b (v_i - anchor) = a then stays O(1) even when the
    slope b is huge (mass moved onto atoms with tiny q under chi-squared).
    """
    objective, _, hess_diag = _generator_functions(spec, q)
    h = 1.0 / hess_diag(q)
    aim = 1e-14 * (1.0 + float(np.abs(v).max()))

    def primal(theta: np.ndarray, anchor: float) -> np.ndarray:
        return np.maximum(q + h * (theta[0] + theta[1] * (v - anchor)), 0.0)

    def gap(p: np.ndarray, anchor: float) -> np.ndarray:
        return np.array([1.0 - p.sum(), (c - anchor) - float(np.dot(p, v - anchor))])

    theta, anchor, p = np.zeros(2), 0.0, q
    for _ in range(DUAL_NEWTON_CAP):
        if np.any(p > 0.0):
            new_anchor = float(v[p > 0.0][np.argmax(h[p > 0.0])])
            theta = np.array([theta[0] + theta[1] * (new_anchor - anchor), theta[1]])
            anchor = new_anchor
            p = primal(theta, anchor)
        grad = gap(p, anchor)
        residual = float(np.abs(grad).max())
        if residual <= aim:
            break
        value = objective(p) + float(theta @ grad)
        active = p > 0.0
        offsets = v[active] - anchor
        basis = np.stack([np.ones_like(offsets), offsets])
        jac = (basis * h[active]) @ basis.T
        newton = np.linalg.det(jac) > 1e-12 * jac[0, 0] * jac[1, 1]
        # fewer than two distinct active values leave jac singular: steepest ascent
        direction = np.linalg.solve(jac, grad) if newton else grad
        slope = float(grad @ direction)
        t = 1.0
        while t > 1e-12:
            cand = theta + t * direction
            p_cand = primal(cand, anchor)
            grad_cand = gap(p_cand, anchor)
            # the residual test takes over where dual values differ only by round-off
            if objective(p_cand) + float(cand @ grad_cand) >= value + 1e-4 * t * slope or (
                float(np.abs(grad_cand).max()) <= (1.0 - 1e-4 * t) * residual
            ):
                break
            t *= 0.5
        else:
            break  # no ascent left at float resolution
        theta, p = cand, p_cand
    return p


def divergence_projection(
    spec: DivergenceSpec,
    q: FiniteDistribution,
    constraint: ConstraintSpec,
    tol: float = DEFAULT_PROJECTION_TOL,
) -> FiniteDistribution:
    """Minimize the named divergence G(p, q) over {p : V . p = c}.

    Each generator's minimizer is closed-form in the constraint multipliers
    (see the module docstring), which are solved to float resolution.  Point
    targets must lie strictly inside the attainable range.  Raises
    NonConvergence if a constraint residual is still above ``tol``.
    """
    v_full = as_potential(constraint.potential, q.alphabet)
    c, _ = resolve_target(q, v_full, constraint.target, tol)
    if c is None:
        return FiniteDistribution(q.alphabet, q.weights)

    sup = q.support
    v = v_full[sup]
    qw = q.weights[sup]
    if spec.generator == "kl":
        p = _tilt_multiplier(np.log(qw), v, c, min(tol, DEFAULT_TILT_TOL))[1]
    elif spec.generator == "reverse_kl":
        p = _reverse_kl_projection(qw, v, c)
    else:
        p = _quadratic_projection(spec, qw, v, c)
    total = float(p.sum())
    residual = max(abs(total - 1.0), abs(float(np.dot(p, v)) - c))
    if residual > tol:
        raise NonConvergence(
            f"{spec.generator} projection stalled with constraint residual {residual:.3g} > {tol:.3g}",
            residual=residual,
        )

    weights = np.zeros(q.size)
    weights[sup] = p / total
    return FiniteDistribution(q.alphabet, weights)


def necessity_gap(
    spec: DivergenceSpec,
    q: FiniteDistribution,
    constraint: ConstraintSpec,
    tol: float = DEFAULT_PROJECTION_TOL,
) -> float:
    """Total-variation distance between the G-projection and the KL tilt.

    Zero exactly when the generator is relative entropy (self-agreement) or
    when the constraint pins p uniquely (binary alphabet, point target).
    """
    projected = divergence_projection(spec, q, constraint, tol)
    tilt, _ = i_projection(q, constraint)
    return total_variation(projected, tilt.realized)


def stationarity_residual(spec: DivergenceSpec, candidate: TiltedDistribution) -> float:
    """Euler-Lagrange residual of the generator at the candidate tilt.

    Evaluates the gradient of G(., reference) at the realized measure and
    removes the multiplier ambiguity by projecting out the constant and V
    directions; the max-norm of what is left is the residual.  It vanishes
    (to round-off) exactly for the relative-entropy generator.
    """
    p_full = candidate.realized.weights
    sup = np.flatnonzero(p_full > 0.0)
    p = p_full[sup]
    q = candidate.reference.weights[sup]
    v = candidate.potential[sup]
    _, gradient, _ = _generator_functions(spec, q)
    return _kkt_residual(gradient(p), v)
