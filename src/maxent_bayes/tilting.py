"""Constrained entropy maximization over finite alphabets.

The core primitive is the exponential tilt p_lam = q * exp(-lam * V) / Z(lam),
the unique distribution matching a mean constraint V . p = c while staying as
close as possible (in relative entropy) to the reference q.

Every projection onto {p : V . p = c} has its primal in closed form in the
constraint multipliers:

* relative entropy: p = q exp(-lam V) / Z, a 1-D root in lam on the whole
  line, from 0; the mean decreases in lam;
* reverse relative entropy: p_i = q_i / (1 + beta (v_i - c)), a 1-D root in
  beta on the closed-form bracket (-1 / (max V - c), 1 / (c - min V));
* squared Euclidean and chi-squared: p_i = max(q_i + (a + b v_i) / G'', 0),
  exact in at most k closed-form steps of an active-set walk in b.

The 1-D roots share one safeguarded bracketed root finder, the only
iterative solve in the package.  One loop of it solves an array of
independent roots, each with its own bracket, its own floor and its own step
cap, so a whole grid of tilt targets is one solve and a single root is a
batch of one.  No solver has a tolerance knob: each root stops at a floor of
a few ulps of the largest value its function is made of (max |V| on the
support for the tilt), or when its bracket closes on adjacent floats, so
every projection is the same for V and 2^j V while both are normal floats
(the multiplier scales by 2^-j).  Partition-function arithmetic is in the
log domain with max-subtraction, so large multipliers neither overflow nor
underflow (``_softmax``).  A mean target is a window [lo, hi] of V . p, a
point c being the window [c, c]; ``resolve_target`` is the one place that
turns a window into its dominating point and decides whether that point is
reachable, within the band of the window readers (``measures.in_window``).

Every relative-entropy projection is a row of one core, ``_project``: one
``resolve_target`` call classifies its targets, a range end conditions q on
V = c, and one ``_tilt_multiplier`` solve takes every interior target, on a
law's weights or on its log weights (mass that underflows).  ``solve_tilt``,
``solve_tilt_with_report``, ``i_projection`` and the relative-entropy branch
of ``divergence_projection`` are one-row calls; the rate grid and the
``meta`` fits call it directly.
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
    NumericalError,
    UnsupportedGenerator,
)
from .measures import (
    FLOOR_ULPS,
    FiniteDistribution,
    _floor,
    as_potential,
    in_window,
    relative_entropy,
    total_variation,
)

# Safety net only: each root step either halves |f| or splits the bracket.
ROOT_STEP_CAP = 200
# The quadratic walk's unit of offsets of V, per unit of their spread: a
# weight at the smallest subnormal times an offset, and the weighted mean
# offset, stay normal floats, while k (2 * 2^256)^2 cannot overflow.  A power
# of two, it changes no result that did not underflow.
_OFFSETS_PER_SPREAD = 2.0 ** 256


def _check_residuals(what: str, k: int, mass: float, mean: float, scale: float, mean_step: float) -> None:
    """Raise NumericalError unless a projection onto {V . p = c} meets its
    constraints to float resolution.

    ``mass`` is |sum p - 1| and ``mean`` is |V . p - c| over k atoms, each
    held in its own units; ``mean`` and ``mean_step`` may hold one entry per
    target, and every target is checked.  The mass is held to k times
    FLOOR_ULPS ulps of 1, the round-off of a k-term sum.  V . p is held to
    k + 2 times ``_floor(scale)``, scale = max |V| (the sum, and the tilt's
    floor of FLOOR_ULPS ulps of 1 in units of max |V|), plus 2
    FLOOR_ULPS times ``mean_step``, how far V . p moves over one float step
    of the root's variable (zero for the exact walk): a root that closed its
    bracket sits within one such step, and round-off blurs V . p over a few
    more.
    """
    ok = (mass <= k * FLOOR_ULPS * math.ulp(1.0)) & (
        mean <= (k + 2) * _floor(scale) + 2 * FLOOR_ULPS * mean_step
    )
    if not np.all(ok):
        raise NumericalError(f"{what} is off by {np.max(mass):.3g} in mass and {np.max(mean):.3g} in V . p")


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
    """A potential V together with a window [lo, hi] for V . mu; a point
    target c is the window [c, c]."""

    potential: object
    target: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.target
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"invalid target window {self.target!r}")

    @classmethod
    def point(cls, potential, c: float) -> "ConstraintSpec":
        return cls.interval(potential, c, c)

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
    target: float | np.ndarray | tuple,
    boundary: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Decide whether reweighting q can meet mean targets.

    ``q`` is a FiniteDistribution, or log weights (any common shift, -inf
    off the support: a law whose mass may underflow).  ``target`` is a
    point, an array of points, or a window (lo, hi) of two scalars or two
    arrays, which stands for its dominating point (Csiszar 1975): the mean
    of q clipped into the window.  A point past an end of the attainable
    range but within ``in_window``'s band of it (the float resolution of a
    computed mean V . mu) is that end.  Returns ``(c, end)``, arrays with
    one entry per point: ``end`` is "mean" where q itself meets the point
    (it is the mean of q, or V is constant on the support and the point is
    that value), "min" or "max" where it is that end of the attainable range
    and ``boundary`` holds (only the relative-entropy projection has a limit
    there), "" where it is strictly inside the range, and "out" otherwise.

    A single point or window that is "out" raises instead, naming the point
    as asked: DegeneratePotential when V is constant on the support but
    another value is asked, InfeasibleConstraint when the point is outside
    the attainable range or only at an end of it while ``boundary`` is False.
    """
    if isinstance(q, FiniteDistribution):
        v_sup, weights = v[q.support], q.weights
    else:
        v_sup, weights = v[np.isfinite(q)], _softmax(q)[0]
    v_lo, v_hi = float(v_sup.min()), float(v_sup.max())
    mean = float(weights @ v)
    if isinstance(target, tuple):
        target = np.clip(mean, *target)
    asked = np.asarray(target, dtype=float)
    c = np.where(in_window(asked, v_lo, v_hi, v), np.clip(asked, v_lo, v_hi), asked)
    if v_lo == v_hi:
        end = np.where(c == v_lo, "mean", "out")
    else:
        end = np.where((v_lo < c) & (c < v_hi), "", "out")
        if boundary:
            end = np.where(c == v_lo, "min", np.where(c == v_hi, "max", end))
    end = np.where(c == mean, "mean", end)
    if c.ndim or end != "out":
        return np.atleast_1d(c), np.atleast_1d(end)
    if v_lo == v_hi:
        raise DegeneratePotential(
            f"potential is constant ({v_lo!r}) on the support but target is {float(asked)!r}"
        )
    raise InfeasibleConstraint(
        f"target {float(asked)!r} outside the attainable "
        + (f"range [{v_lo!r}, {v_hi!r}]" if boundary else f"open interval ({v_lo!r}, {v_hi!r})")
    )


# ---------------------------------------------------------------------------
# Safeguarded bracketed root
# ---------------------------------------------------------------------------
def _split(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection points of the brackets (lo, hi) in the order of floats: 0
    where they straddle it, else the midpoint of their int64 bit patterns.
    That is the arithmetic midpoint within a binade and the geometric one
    across binades, so any bracket closes on adjacent floats within about 64
    splits."""
    # bit patterns of non-negative floats lie below 2^63, so their sum fits in 64 unsigned bits
    mid = ((np.abs(lo).view(np.uint64) + np.abs(hi).view(np.uint64)) >> np.uint64(1)).view(float)
    with np.errstate(over="ignore"):  # only the sign of lo + hi is read
        mid = np.copysign(mid, lo + hi)
    return np.where((lo < 0.0) & (hi > 0.0), 0.0, mid)


def _bracketed_root(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray | None]],
    lo,
    hi,
    x,
    floor,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Roots of an array of independent functions, each positive left of its
    root and negative right of it on its open bracket (lo, hi), from x.  An
    end may be infinite: it is never evaluated, and since the splits halve
    bit patterns, a half-line (0, inf) still closes within about 64 splits.

    One loop solves them all.  Each root keeps its own bracket, its own
    floor and its own ROOT_STEP_CAP, and stops when it is done, so its answer
    does not depend on the rest of the batch; scalar arguments are a batch of
    one.  ``f(x, rows)`` returns ``(values, slopes)`` of the functions
    numbered ``rows`` at x; with ``slopes`` None a secant through the last
    two points stands in for the derivative.  The Newton (or secant) step is
    taken when it lands strictly inside the bracket and the last step at
    least halved |f|; otherwise the bracket is split (``_split``).  A root is
    done when |f| <= floor (the float resolution of f, which the caller
    derives from its inputs), or when its bracket closes on adjacent floats:
    then it is the last point on either side of the root with the smaller
    |f|.  A Newton step below float resolution is still evaluated: where f
    bends sharply it can be far from the root.  Returns arrays (x, f(x),
    counts), counts holding each root's "newton" and "bisections" steps.
    Raises NonConvergence only if a root runs out of ROOT_STEP_CAP steps
    first.
    """
    x = np.array(x, dtype=float, ndmin=1)
    lo, hi, floor = (np.full(x.shape, a, dtype=float) for a in (lo, hi, floor))
    root_x, root_f = np.empty(x.size), np.empty(x.size)
    newton, bisections = np.zeros(x.size, dtype=int), np.zeros(x.size, dtype=int)
    # The running roots, by number.  f_lo and f_hi are f at the bracket ends
    # (inf until evaluated there): the ends are the last points on each side
    # of the root.  "first" is whether f > 0 at the first point (that side
    # wins ties of |f|), "prev" the last point evaluated.  Each step of a
    # root is a Newton step or a bisection, so only the first are counted.
    live = {"row": np.arange(x.size), "x": x, "lo": lo, "hi": hi, "f_lo": np.full(x.size, np.inf),
            "f_hi": np.full(x.size, np.inf), "floor": floor, "first": np.zeros(x.size, dtype=bool),
            "prev_x": np.empty(x.size), "prev_f": np.empty(x.size), "newton": np.zeros(x.size, dtype=int)}

    def finish(out: np.ndarray, at_x: np.ndarray, at_f: np.ndarray, steps: int) -> np.ndarray:
        """Record the roots flagged in ``out``, after ``steps`` steps, and drop them from ``live``."""
        rows, keep = live["row"][out], ~out
        root_x[rows], root_f[rows] = at_x[out], at_f[out]
        newton[rows] = live["newton"][out]
        bisections[rows] = steps - newton[rows]
        if keep.any():
            live.update({key: value[keep] for key, value in live.items()})
        else:  # nothing left to carry
            live["row"] = rows[:0]
        return keep

    for step in range(ROOT_STEP_CAP):
        if not live["row"].size:
            break
        fx, slope = f(live["x"], live["row"])
        size = np.abs(fx)
        done = size <= live["floor"]
        if done.any():
            keep = finish(done, live["x"], fx, step)
            fx, size, slope = fx[keep], size[keep], None if slope is None else slope[keep]
            if not live["row"].size:
                break
        x, prev_f = live["x"], live["prev_f"]
        above = fx > 0.0
        lo, hi = np.where(above, x, live["lo"]), np.where(above, live["hi"], x)
        if step == 0:
            live["first"] = above
        with np.errstate(all="ignore"):
            if slope is None:
                slope = (fx - prev_f) / (x - live["prev_x"]) if step else np.full(x.size, np.nan)
                slope[~np.isfinite(fx)] = np.nan
            fast = size <= 0.5 * np.abs(prev_f) if step else True
            newt = x - fx / slope
        # a step of slope -inf lands on x, an end of the bracket, and is not taken
        take = fast & (slope < 0.0) & (lo < newt) & (newt < hi)
        live.update(x=newt, lo=lo, hi=hi, f_lo=np.where(above, fx, live["f_lo"]),
                    f_hi=np.where(above, live["f_hi"], fx), prev_x=x, prev_f=fx, newton=live["newton"] + take)
        if take.all():  # every step lands inside its bracket
            continue
        live["x"] = x_next = np.where(take, newt, _split(lo, hi))
        closed = ~((lo < x_next) & (x_next < hi))
        if closed.any():
            f_lo, f_hi = live["f_lo"], live["f_hi"]
            near_lo = np.where(np.abs(f_lo) == np.abs(f_hi), live["first"], np.abs(f_lo) < np.abs(f_hi))
            finish(closed, np.where(near_lo, lo, hi), np.where(near_lo, f_lo, f_hi), step + 1)
    if live["row"].size:
        best = float(min(abs(live["f_lo"][0]), abs(live["f_hi"][0])))
        raise NonConvergence(
            f"root stalled at residual {best:.3g} > {live['floor'][0]:.3g} after {ROOT_STEP_CAP} steps",
            residual=best,
        )
    return root_x, root_f, {"newton": newton, "bisections": bisections}


# ---------------------------------------------------------------------------
# Relative entropy: the exponential tilt
# ---------------------------------------------------------------------------
def _softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(a) normalized along the last axis, and the log of its sum (the
    log-partition), with max-subtraction: every tilt of log weights, one row
    per multiplier for a = log_w - np.multiply.outer(lam, v)."""
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    w = np.exp(a - m)
    z = np.add.reduce(w, axis=-1, keepdims=True)
    return w / z, (m + np.log(z))[..., 0]


def _tilt_multiplier(
    log_w: np.ndarray, v: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Find lam_i with sum_j softmax(log_w - lam_i v)_j v_j = c_i for each
    target c_i.

    Assumes min(v) < c_i < max(v).  The solve runs in t = lam s on d = v / s,
    s = max |v| (the spread of v may overflow; s may not), so each step is
    the same for v and 2^j v.  The mean decreases in t, so one
    ``_bracketed_root`` call solves every target on the (targets, k) matrix
    of log weights, each on the whole line from t = 0: its first evaluation
    keeps the half-line on the root's side, its first Newton step is finite
    for any finite v, and its splits search that half-line's binades.
    Returns (lam, weights, log_partition, report), one entry (weights: one
    row) per target, from the evaluation each root settles on.  Every answer
    is checked (``_check_residuals``) from that evaluation's residual; the
    weights are divided by their own sum, so only V . p can be off.
    """
    s = float(np.abs(v).max())
    d, c_d = v / s, c / s

    def evaluate(t: np.ndarray):
        # a Newton step off a subnormal variance may spread the log weights past the float range
        with np.errstate(over="ignore"):
            w, log_z = _softmax(log_w - np.multiply.outer(t, d))
        m = np.add.reduce(w * d, axis=1)
        return m, -np.add.reduce(w * (d - m[:, None]) ** 2, axis=1), w, log_z

    def gap(t: np.ndarray, rows: np.ndarray):
        m, slope = evaluate(t)[:2]
        return m - c_d[rows], slope

    t, g, counts = _bracketed_root(gap, -math.inf, math.inf, np.zeros(c_d.size), _floor(1.0))
    with np.errstate(over="ignore"):  # past the float range a multiplier is inf
        lam = t / s
    if not np.isfinite(lam).all():
        raise NonConvergence(f"multiplier for target {float(c[~np.isfinite(lam)][0])!r} overflows the float range")
    _, slope, w, log_z = evaluate(t)
    # one float step of t moves V . p by the variance under p times that step
    _check_residuals("kl projection", d.size, 0.0, np.abs(g) * s, s, -slope * np.spacing(np.abs(t)) * s)
    return lam, w, log_z, {**counts, "residual": np.abs(g) * s}


def _project(
    q: FiniteDistribution | np.ndarray, v: np.ndarray, target, boundary: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Relative-entropy projections of q onto V . p = c, one per target.

    ``q``, ``target`` and ``boundary`` are as for ``resolve_target``, which
    turns each window into its dominating point and classifies every point
    once (a single point or window out of reach raises there).  Returns (lam,
    rows, log_partition, end, report), one entry (rows: one row) per point,
    ``end`` from ``resolve_target``.  Where q meets the point (a window that
    holds the mean of q) the row is q itself (lam 0); at an end of the range it
    is q conditioned on V = c (lam +/-inf, log-partition NaN); out of reach
    it is NaN; every interior point is one row of a single
    ``_tilt_multiplier`` solve, and its entries of ``report`` are that
    solve's (zero elsewhere).  A FiniteDistribution gives rows of weights;
    log weights give rows of log weights, log q - lam V up to a common
    shift, so mass that underflows still counts.
    """
    c, end = resolve_target(q, v, target, boundary)
    linear = isinstance(q, FiniteDistribution)
    base, empty = (q.weights, 0.0) if linear else (q, -np.inf)
    out = end == "out"
    lam, log_z = np.where(out, np.nan, 0.0), np.where(out, np.nan, 0.0)
    rows = np.where(out[:, None], np.nan, base)
    zero = np.zeros(c.size)
    report = {"newton": zero.astype(int), "bisections": zero.astype(int), "residual": zero}
    for side, limit in (("min", math.inf), ("max", -math.inf)):
        at = end == side
        if at.any():
            row = np.where(v == c[at][0], base, empty)
            lam[at], log_z[at], rows[at] = limit, np.nan, row / row.sum() if linear else row
    inner = np.flatnonzero(end == "")
    if inner.size:
        sup = q.support if linear else np.flatnonzero(np.isfinite(q))
        log_w = np.log(q.weights[sup]) if linear else q[sup]
        lam[inner], w, log_z[inner], solved = _tilt_multiplier(log_w, v[sup], c[inner])
        if linear:
            rows[inner] = 0.0  # off the support
            rows[np.ix_(inner, sup)] = w
        else:
            rows[inner] = q - lam[inner, None] * v
        for key, value in solved.items():
            report[key][inner] = value
    return lam, rows, log_z, end, report


def _as_tilt(q: FiniteDistribution, v: np.ndarray, lam: np.ndarray, rows: np.ndarray,
             log_z: np.ndarray) -> TiltedDistribution:
    """The TiltedDistribution of the first row of a ``_project`` of q."""
    log_partition = float(log_z[0]) if math.isfinite(lam[0]) else None
    return TiltedDistribution(reference=q, potential=v, lam=float(lam[0]),
                              realized=FiniteDistribution(q.alphabet, rows[0]), log_partition=log_partition)


def solve_tilt_with_report(
    q: FiniteDistribution, potential, c: float
) -> tuple[TiltedDistribution, dict]:
    """solve_tilt, also returning solver diagnostics for verbose output."""
    v = as_potential(potential, q.alphabet)
    lam, rows, log_z, _, report = _project(q, v, float(c))
    return _as_tilt(q, v, lam, rows, log_z), {key: value[0].tolist() for key, value in report.items()}


def solve_tilt(q: FiniteDistribution, potential, c: float) -> TiltedDistribution:
    """Tilt q onto the constraint set {p : V . p = c}.

    The returned multiplier is the unique one matching the constraint to
    float resolution (a few ulps of max |V| on the support); the realized
    measure is the relative-entropy projection of q onto the constraint set.
    """
    return solve_tilt_with_report(q, potential, c)[0]


def i_projection(
    P: FiniteDistribution, constraint: ConstraintSpec
) -> tuple[TiltedDistribution, float]:
    """Minimize KL(mu || P) over the constraint set; returns (tilt, rate).

    The window resolves by convexity to its dominating point
    (``resolve_target``): P itself when its mean is inside the window,
    otherwise the window end nearer that mean.  A point on the boundary of
    the attainable range resolves to P conditioned on the extreme set of V
    (the infinite-multiplier limit).
    """
    v = as_potential(constraint.potential, P.alphabet)
    lam, rows, log_z, _, _ = _project(P, v, constraint.target, boundary=True)
    return _as_tilt(P, v, lam, rows, log_z), float(relative_entropy(rows, P.weights)[0])


# ---------------------------------------------------------------------------
# General-divergence projections
# ---------------------------------------------------------------------------
# Gradient in p of each generator G(p, q); relative entropy needs p > 0 where q > 0.
_GRADIENTS = {
    "kl": lambda p, q: np.log(p) - np.log(q) + 1.0,
    "reverse_kl": lambda p, q: -q / p,
    "squared_euclidean": lambda p, q: p - q,
    "chi_squared": lambda p, q: 2.0 * (p - q) / q,
}


def _kkt_residual(grad: np.ndarray, v: np.ndarray) -> float:
    """Max-norm of the gradient after projecting out the 1 and V directions;
    0 on at most two atoms, where those directions span every gradient."""
    if grad.size <= 2:
        return 0.0
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

    def gap(sigma: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the value scales d by sigma / s, in [0, 1] as s >= sigma, so it stays
        # finite; the slope, sum q t (1 + sigma t / w), has 1 + sigma t / w =
        # e / s, which is 0 at the pole atom; a subnormal sigma overflows t there
        s = denominators(sigma[:, None])
        with np.errstate(over="ignore", invalid="ignore"):
            t = d / s
            return -sign * ((d * (sigma[:, None] / s)) @ q), -sign * ((t * e / s) @ q)

    sigma = float(_bracketed_root(gap, 0.0, 1.0, 1.0, 0.0)[0][0])
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
    c, end = resolve_target(q, v_full, constraint.target)
    if end[0] == "mean":
        return FiniteDistribution(q.alphabet, q.weights)
    c = float(c[0])

    sup = q.support
    if spec.generator == "kl":  # the tilt checks its own answer
        p = _project(q, v_full, c)[1][0, sup]
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

    A ratio generator's gradient overflows where the tilt leaves a mass far
    from its reference mass (chi-squared 2 (p / q - 1) at a subnormal q,
    reverse relative entropy -q / p at a subnormal p).  Then the gradient is
    taken in units of e^s, s = max |log p - log q|, and the residual is the
    one of that gradient times e^s: inf when it is past the float range.
    """
    p_full = candidate.realized.weights
    sup = np.flatnonzero(p_full > 0.0)
    p = p_full[sup]
    q = candidate.reference.weights[sup]
    v = candidate.potential[sup]
    with np.errstate(over="ignore"):
        grad = _GRADIENTS[spec.generator](p, q)
    if np.all(np.isfinite(grad)):
        return _kkt_residual(grad, v)
    log_ratio = np.log(p) - np.log(q)
    s = float(np.abs(log_ratio).max())
    if spec.generator == "chi_squared":
        grad = 2.0 * (np.exp(log_ratio - s) - math.exp(-s))
    else:
        grad = -np.exp(-log_ratio - s)
    residual = _kkt_residual(grad, v)
    with np.errstate(over="ignore"):
        return float(residual * np.exp(s)) if residual else 0.0
