"""Constrained entropy maximization over finite alphabets.

The core primitive is the exponential tilt p_lam = q * exp(-lam * V) / Z(lam),
the unique distribution matching a mean constraint V . p = c while staying as
close as possible (in relative entropy) to the reference q.

Every projection onto {p : V . p = c} has its primal in closed form in the
constraint multipliers:

* relative entropy: p = q exp(-lam V) / Z, a 1-D root in lam; the mean
  decreases in lam, and a Newton probe from 0 doubles until the sign changes;
* reverse relative entropy: p_i = q_i / (1 + beta (v_i - c)), a 1-D root in
  beta on the closed-form bracket (-1 / (max V - c), 1 / (c - min V));
* squared Euclidean and chi-squared: p_i = max(q_i + (a + b v_i) / G'', 0),
  exact in at most k closed-form steps of an active-set walk in b.

The 1-D roots share one safeguarded bracketed root finder, the only
iterative solve in the package.  No solver has a tolerance knob: each root
stops at a floor of a few ulps of the largest value its function is made of
(max |V| on the support for the tilt), or when its bracket closes on
adjacent floats, so every projection is the same for V and 2^j V while both
are normal floats (the multiplier scales by 2^-j).  Partition-function
arithmetic is in the log domain with max-subtraction, so large multipliers
neither overflow nor underflow.  ``resolve_target`` is the one place that
decides whether a point or window target is reachable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePotential,
    InfeasibleConstraint,
    NonConvergence,
    NumericalError,
    UnsupportedGenerator,
)
from .measures import (
    FiniteDistribution,
    as_potential,
    kl_divergence,
    total_variation,
)

# A root stops once |f| is this many ulps of the largest value f is made of.
FLOOR_ULPS = 4
# Safety net only: each root step either halves |f| or splits the bracket.
ROOT_STEP_CAP = 200
# The quadratic walk's unit of offsets of V, per unit of their spread: a
# weight at the smallest subnormal times an offset, and the weighted mean
# offset, stay normal floats, while k (2 * 2^256)^2 cannot overflow.  A power
# of two, it changes no result that did not underflow.
_OFFSETS_PER_SPREAD = 2.0 ** 256
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")


def _floor(values) -> float:
    """The float resolution of quantities made of ``values``: FLOOR_ULPS ulps of max |values|."""
    return FLOOR_ULPS * math.ulp(float(np.abs(values).max()))


def _check_residuals(what: str, k: int, mass: float, mean: float, scale: float, mean_step: float) -> None:
    """Raise NumericalError unless a projection onto {V . p = c} meets its
    constraints to float resolution.

    ``mass`` is |sum p - 1| and ``mean`` is |V . p - c| over k atoms, each
    held in its own units.  The mass is held to k times FLOOR_ULPS ulps of
    1, the round-off of a k-term sum.  V . p is held to k + 2 times
    FLOOR_ULPS ulps of ``scale``, max |V| (the sum, and the tilt's floor of
    FLOOR_ULPS ulps of 1 in units of max |V|), plus 2 FLOOR_ULPS times
    ``mean_step``, how far V . p moves over one float step of the root's
    variable (zero for the exact walk): a root that closed its bracket sits
    within one such step, and round-off blurs V . p over a few more.
    """
    if not (mass <= k * FLOOR_ULPS * math.ulp(1.0)
            and mean <= (k + 2) * FLOOR_ULPS * math.ulp(scale) + 2 * FLOOR_ULPS * mean_step):
        raise NumericalError(f"{what} is off by {mass:.3g} in mass and {mean:.3g} in V . p")


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
    q: FiniteDistribution | np.ndarray,
    v: np.ndarray,
    target: float | tuple[float, float],
    boundary: bool = False,
) -> tuple[float | None, str | None]:
    """Decide whether reweighting q can meet a point or window mean target.

    ``q`` is a FiniteDistribution, or log weights (any common shift, -inf
    off the support: a law whose mass may underflow).  Returns ``(c, end)``.
    ``c`` is None when q itself meets the target (a window holding the mean
    of q, a point equal to it, or a potential constant on the support within
    its float resolution of the point, ``_floor``); otherwise it is the
    point itself, or the window endpoint nearer the mean of q.  ``end`` is
    "min" or "max" when c is that end of the attainable range.

    Raises DegeneratePotential when V is constant on the support but another
    value is asked, and InfeasibleConstraint when the target misses the
    attainable range, or meets only an end of it while ``boundary`` is
    False (only the relative-entropy projection has a limit there).
    """
    if isinstance(q, FiniteDistribution):
        v_sup, weights = v[q.support], q.weights
    else:
        weights = np.exp(q - q.max())
        v_sup, weights = v[np.isfinite(q)], weights / weights.sum()
    v_lo, v_hi = float(v_sup.min()), float(v_sup.max())
    mean = float(np.dot(weights, v))
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
        if abs(c - v_lo) <= _floor(v_lo):
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
def _split(lo: float, hi: float) -> float:
    """Bisection point of (lo, hi) in the order of floats: 0 when they straddle
    it, else the midpoint of their bit patterns.  That is the arithmetic
    midpoint within a binade and the geometric one across binades, so any
    bracket closes on adjacent floats within about 64 splits."""
    if lo < 0.0 < hi:
        return 0.0
    a, b = (_BITS.unpack(_FLOAT.pack(abs(x)))[0] for x in (lo, hi))
    return math.copysign(_FLOAT.unpack(_BITS.pack((a + b) // 2))[0], lo + hi)


def _bracketed_root(
    f: Callable[[float], tuple[float, float | None]],
    lo: float,
    hi: float,
    x: float,
    floor: float,
) -> tuple[float, float, dict]:
    """Root of a function that is positive left of it and negative right of
    it on the open bracket (lo, hi), from x.

    ``f(x)`` returns ``(value, slope)``; with ``slope`` None a secant through
    the last two points stands in for the derivative.  The Newton (or
    secant) step is taken when it lands strictly inside the bracket and the
    last step at least halved |f|; otherwise the bracket is split
    (``_split``).  Stops when |f| <= floor (the float resolution of f, which
    the caller derives from its inputs) or when the bracket closes on
    adjacent floats, and returns (x, f(x), counts) for x the last point on
    either side of the root with the smaller |f|.  A Newton step below float
    resolution is still evaluated: where f bends sharply it can be far from
    the root.  Raises NonConvergence only if ROOT_STEP_CAP steps run out
    first.
    """
    ends = {}
    prev = None
    newton = bisections = 0
    for _ in range(ROOT_STEP_CAP):
        fx, slope = f(x)
        if abs(fx) <= floor:
            return x, fx, {"newton": newton, "bisections": bisections}
        if fx > 0.0:
            lo = x
        else:
            hi = x
        ends[fx > 0.0] = (x, fx)
        if slope is None and prev is not None and math.isfinite(fx):
            slope = (fx - prev[1]) / (x - prev[0])
        fast = prev is None or abs(fx) <= 0.5 * abs(prev[1])
        prev = (x, fx)
        step = x - fx / slope if fast and slope is not None and -math.inf < slope < 0.0 else math.nan
        if lo < step < hi:
            x = step
            newton += 1
        else:
            x = _split(lo, hi)
            bisections += 1
            if not lo < x < hi:
                break
    else:
        best = min(abs(fx) for _, fx in ends.values())
        raise NonConvergence(
            f"root stalled at residual {best:.3g} > {floor:.3g} after {ROOT_STEP_CAP} steps", residual=best
        )
    x, fx = min(ends.values(), key=lambda end: abs(end[1]))
    return x, fx, {"newton": newton, "bisections": bisections}


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
    log_w: np.ndarray, v: np.ndarray, c: float
) -> tuple[float, np.ndarray, float, dict]:
    """Find lam with sum_i softmax(log_w - lam v)_i v_i = c.

    Assumes min(v) < c < max(v).  The solve runs in t = lam s on d = v / s,
    s = max |v| (the spread of v may overflow; s may not), so each step is
    the same for v and 2^j v, and the first probe, the Newton step from
    t = 0, is finite for any finite v.  The mean decreases in t; the probe
    doubles until the sign changes.  Returns (lam, weights, log_partition,
    report), reusing the state of the evaluation the root settles on.  The
    answer is checked (``_check_residuals``) from that evaluation's residual,
    so the check costs no extra pass over the weights; the weights are
    divided by their own sum, so only V . p can be off.
    """
    s = float(np.abs(v).max())
    d, c_d = v / s, c / s
    seen = {}

    def gap(t: float) -> tuple[float, float]:
        if t not in seen:
            w, log_z = _tilt_state(log_w, d, t)
            m = float(np.dot(w, d))
            seen[t] = (m - c_d, -float(np.dot(w, (d - m) ** 2)), w, log_z)
        return seen[t][:2]

    g0, slope0 = gap(0.0)
    sign = math.copysign(1.0, g0)
    near, far, expansions = 0.0, -g0 / slope0, 0
    if not math.isfinite(far):  # the variance under q underflows (subnormal weights)
        far = sign
    while gap(far)[0] * sign > 0.0:
        near, far = far, 2.0 * far
        expansions += 1
        if not math.isfinite(far):
            raise NonConvergence(f"multiplier for target {c!r} overflows the float range")
    lo, hi = sorted((near, far))
    start = min(near, far, key=lambda t: abs(gap(t)[0]))

    t, g, counts = _bracketed_root(gap, lo, hi, start, _floor(1.0))
    lam = t / s
    if not math.isfinite(lam):
        raise NonConvergence(f"multiplier for target {c!r} overflows the float range")
    _, slope, w, log_z = seen[t]
    # one float step of t moves V . p by the variance under p times that step
    _check_residuals("kl projection", d.size, 0.0, abs(g) * s, s, -slope * math.ulp(t) * s)
    report = {"bracket": (lo / s, hi / s), "expansions": expansions, **counts, "residual": abs(g) * s}
    return lam, w, log_z, report


def log_tilt(log_w: np.ndarray, v: np.ndarray, c: float, boundary: bool = False) -> tuple[float, np.ndarray]:
    """Tilt of the law with log weights ``log_w`` (as for ``resolve_target``)
    onto V . p = c: returns (lam, log_w - lam V).

    For laws whose mass spans more than the float range: the solve and its
    answer stay in the log domain.  With ``boundary``, an end of the
    attainable range gives lam = +/-inf and the law conditioned on V = c.
    """
    c, end = resolve_target(log_w, v, c, boundary)
    if c is None:
        return 0.0, log_w
    if end:
        return (-math.inf if end == "max" else math.inf), np.where(v == c, log_w, -np.inf)
    sup = np.isfinite(log_w)
    lam = _tilt_multiplier(log_w[sup], v[sup], c)[0]
    return lam, log_w - lam * v


def _identity_tilt(q: FiniteDistribution, v: np.ndarray) -> TiltedDistribution:
    return TiltedDistribution(
        reference=q,
        potential=v,
        lam=0.0,
        realized=FiniteDistribution(q.alphabet, q.weights),
        log_partition=0.0,
    )


def _tilt(q: FiniteDistribution, v: np.ndarray, c: float) -> tuple[TiltedDistribution, dict]:
    """Tilt of q onto an interior target c (already resolved)."""
    sup = q.support
    lam, w_sup, log_z, report = _tilt_multiplier(np.log(q.weights[sup]), v[sup], c)
    weights = np.zeros(q.size)
    weights[sup] = w_sup
    realized = FiniteDistribution(q.alphabet, weights)
    tilt = TiltedDistribution(
        reference=q, potential=v, lam=lam, realized=realized, log_partition=log_z
    )
    return tilt, report


def solve_tilt_with_report(
    q: FiniteDistribution, potential, c: float
) -> tuple[TiltedDistribution, dict]:
    """solve_tilt, also returning solver diagnostics for verbose output."""
    v = as_potential(potential, q.alphabet)
    target, _ = resolve_target(q, v, float(c))
    if target is None:
        trivial = {"bracket": (0.0, 0.0), "expansions": 0, "bisections": 0, "newton": 0, "residual": 0.0}
        return _identity_tilt(q, v), trivial
    return _tilt(q, v, target)


def solve_tilt(q: FiniteDistribution, potential, c: float) -> TiltedDistribution:
    """Tilt q onto the constraint set {p : V . p = c}.

    The returned multiplier is the unique one matching the constraint to
    float resolution (a few ulps of max |V| on the support); the realized
    measure is the relative-entropy projection of q onto the constraint set.
    """
    return solve_tilt_with_report(q, potential, c)[0]


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
    P: FiniteDistribution, constraint: ConstraintSpec
) -> tuple[TiltedDistribution, float]:
    """Minimize KL(mu || P) over the constraint set; returns (tilt, rate).

    Point targets on the boundary of the attainable range resolve to P
    conditioned on the extreme set of V (the infinite-multiplier limit);
    interval targets resolve by convexity to P itself when its mean is
    inside the window, otherwise to the window endpoint nearer that mean.
    """
    v = as_potential(constraint.potential, P.alphabet)
    c, end = resolve_target(P, v, constraint.target, boundary=True)
    if c is None:
        return _identity_tilt(P, v), 0.0
    tilt = _boundary_projection(P, v, c, end) if end else _tilt(P, v, c)[0]
    return tilt, kl_divergence(tilt.realized, P)


# ---------------------------------------------------------------------------
# General-divergence projections
# ---------------------------------------------------------------------------
# Gradient in p of each generator G(p, q); relative entropy needs p > 0 where q > 0.
_GRADIENTS = {
    "kl": lambda p, q: np.log(p / q) + 1.0,
    "reverse_kl": lambda p, q: -q / p,
    "squared_euclidean": lambda p, q: p - q,
    "chi_squared": lambda p, q: 2.0 * (p - q) / q,
}


def _kkt_residual(grad: np.ndarray, v: np.ndarray) -> float:
    """Max-norm of the gradient after projecting out the 1 and V directions."""
    basis = np.column_stack([np.ones_like(v), v])
    coef, *_ = np.linalg.lstsq(basis, grad, rcond=None)
    return float(np.abs(grad - basis @ coef).max())


def _reverse_kl_projection(q: np.ndarray, v: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """p_i = q_i / s_i, s_i = 1 + beta (v_i - c), at the root of sum q (v - c) / s.

    Stationarity gives p_i = q_i / (alpha + beta v_i); summing p_i times the
    denominator gives alpha = 1 - beta c.  The root function is strictly
    decreasing in beta on (-1 / (max V - c), 1 / (c - min V)), where every
    s_i > 0, and beta has the sign of mean(q) - c.  On that half of the
    bracket the solve runs in sigma = s_j, the denominator of the end v_j
    that bounds it: s_i = (1 - sigma) e_i + sigma, e_i = (v_i - v_j) /
    (c - v_j) >= 0.  A sum of non-negative terms, it stays accurate when the
    root crowds the pole (sigma -> 0, mass moved onto a light atom) and when
    c - v_j is below the resolution of V.  sigma = 1 is beta = 0.  The solve
    uses sigma times the root function: same sign, and close to linear near
    the pole, but with no fixed scale there, so it runs until the bracket
    closes (floor 0).

    Returns p and how far V . p moves over one float step of sigma there:
    at the root d(V . p)/d sigma = sum p (v - c)^2 / s / (c - v_j), and
    s >= sigma keeps ulp(sigma) / s below 1.
    """
    d = v - c
    j = int(np.argmin(v)) if float(np.dot(q, v)) > c else int(np.argmax(v))
    w = c - v[j]
    sign = math.copysign(1.0, w)
    with np.errstate(over="ignore"):  # c - v_j subnormal: e past the float range acts as its top
        e = np.minimum((v - v[j]) / w, np.finfo(float).max)

    def denominators(sigma: float) -> np.ndarray:
        return (1.0 - sigma) * e + sigma

    def gap(sigma: float) -> tuple[float, float]:
        # the slope, sum q t (1 + sigma t / w), has 1 + sigma t / w = e / s,
        # which is 0 at the pole atom; only a subnormal sigma overflows t there
        s = denominators(sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            t = d / s
            return -sign * sigma * float(np.dot(q, t)), -sign * float(np.dot(q, t * e / s))

    sigma, _, _ = _bracketed_root(gap, 0.0, 1.0, 1.0, 0.0)
    s = denominators(sigma)
    p = q / s
    p /= p.sum()
    # (v - c) / (c - v_j) = e - 1
    return p, float(np.dot(p * np.abs(d), np.abs(e - 1.0) * (math.ulp(sigma) / s)))


def _quadratic_projection(
    spec: DivergenceSpec, q: np.ndarray, v: np.ndarray, c: float
) -> np.ndarray:
    """Squared-Euclidean or chi-squared projection by an exact active-set walk.

    For p >= 0 the Lagrangian G(p) - a (sum p - 1) - b (V . p - c) is
    minimized by p_i = max(q_i + h_i (a + b v_i), 0) with h = 1 / G'', up to
    a factor that a and b absorb: 1, or q for chi-squared.  With V and c
    negated if need be so that c > V . q, raise b from 0, where p = q.  On a
    fixed active set S, normalisation fixes a, so

        p_S = base + b h_S (d - dbar),  base = q_S + h_S (1 - q(S)) / h(S),

    with d the values of V measured from the active atom of largest h and
    dbar their h-weighted mean on S; V . p rises with slope
    sum_S h (d - dbar)^2.  Each piece takes the b that meets c unless a
    falling atom (d < dbar) reaches 0 first; then that atom is dropped and
    the walk goes on.  Only falling atoms leave, so dbar grows and a clamped
    atom never returns: at most k pieces, each in closed form.  Per piece, h
    is taken relative to the anchor atom and d in units of the spread of V
    on S over _OFFSETS_PER_SPREAD, and p moves along the change per unit of
    mean, h (d - dbar) / slope, rather than along b: that keeps every piece
    finite when q spans hundreds of orders of magnitude, subnormal weights
    included.
    """
    if float(np.dot(q, v)) > c:
        v, c = -v, -c
    h = q if spec.generator == "chi_squared" else np.ones_like(q)
    active = np.ones(q.size, dtype=bool)
    while True:
        qs, vs = q[active], v[active]
        top = int(np.argmax(h[active]))
        w = h[active] / h[active][top]
        spread = float(vs.max() - vs.min()) or 1.0  # any scale for a single value
        d = (vs - vs[top]) / spread * _OFFSETS_PER_SPREAD
        # 1 - q(S) is the clamped mass; round-off must not make base negative
        base = qs + w * (max(1.0 - float(qs.sum()), 0.0) / float(w.sum()))
        dbar = float(np.dot(w, d)) / float(w.sum())
        move = w * (d - dbar)
        slope = float(np.dot(move, d - dbar))
        # p moves by need * rate to meet c; move / slope stays finite where
        # the step need / slope overflows (h down in the subnormal range)
        rate = move / slope if slope > 0.0 else move
        # a Python float, so need * fall past the float range is inf, not a warning
        need = float(c - vs[top]) / spread * _OFFSETS_PER_SPREAD - float(np.dot(base, d))
        # relative speed at which each atom falls; the fastest reaches 0 first
        # (a speed past the float range comes from a subnormal base: one at 0)
        with np.errstate(over="ignore"):
            fall = -rate / base
        first = int(np.argmax(fall))
        if need * float(fall[first]) <= 1.0:
            p = np.zeros_like(q)
            p[active] = np.maximum(base + need * rate, 0.0)
            return p
        active[np.flatnonzero(active)[first]] = False


def divergence_projection(
    spec: DivergenceSpec, q: FiniteDistribution, constraint: ConstraintSpec
) -> FiniteDistribution:
    """Minimize the named divergence G(p, q) over {p : V . p = c}.

    Each generator's minimizer is closed-form in the constraint multipliers
    (see the module docstring): relative entropy and reverse relative
    entropy solve them as a 1-D root to float resolution, and the quadratic
    generators find them exactly by an active-set walk.  Point targets must
    lie strictly inside the attainable range.  The roots raise
    NonConvergence only if they run out of steps.  Every answer's mass and
    V . p are checked (``_check_residuals``), a NumericalError if either is
    off.
    """
    v_full = as_potential(constraint.potential, q.alphabet)
    c, _ = resolve_target(q, v_full, constraint.target)
    if c is None:
        return FiniteDistribution(q.alphabet, q.weights)

    sup = q.support
    if spec.generator == "kl":  # the tilt checks its own answer
        p = _tilt(q, v_full, c)[0].realized.weights[sup]
    else:
        v, qw = v_full[sup], q.weights[sup]
        if spec.generator == "reverse_kl":
            p, mean_step = _reverse_kl_projection(qw, v, c)
        else:
            p, mean_step = _quadratic_projection(spec, qw, v, c), 0.0
        mass, mean = abs(float(p.sum()) - 1.0), abs(float(np.dot(p, v)) - c)
        _check_residuals(f"{spec.generator} projection", p.size, mass, mean, float(np.abs(v).max()), mean_step)

    weights = np.zeros(q.size)
    weights[sup] = p / p.sum()
    return FiniteDistribution(q.alphabet, weights)


def necessity_gap(spec: DivergenceSpec, q: FiniteDistribution, constraint: ConstraintSpec) -> float:
    """Total-variation distance between the G-projection and the KL tilt.

    Zero exactly when the generator is relative entropy (self-agreement) or
    when the constraint pins p uniquely (binary alphabet, point target).
    """
    projected = divergence_projection(spec, q, constraint)
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
    return _kkt_residual(_GRADIENTS[spec.generator](p, q), v)
