"""Two-level inference: distributions over expected-loss values.

The first level treats the expected loss of an empirical measure as a random
variable and computes its exact finite-n law from the type-class table.  The
second level tilts that law to match a summary statistic (a mean, a variance,
or a user-supplied statistic), and the two levels combine in a MAP search
over a simplex grid of candidate models: maximize

    - speed * KL(mu || P) - lambda_eta * U(V . mu) + ln Q(mu)

over feasible grid points, optionally polished by multiplicative updates.

The centered-square statistic (xi - m)^2 centres on the mean of the fitted
law: m is a bracketed root of h(m) - m on the range of the support, h(m) the
mean of the tilt onto E[(xi - m)^2] = eta, with h(min) >= min, h(max) <= max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyEvent, EmptyFeasibleSet, NonConvergence, TableTooLarge
from .ldp import _compositions, enumerate_types, table_size
from .measures import (
    Alphabet,
    FiniteDistribution,
    TIE_TOLERANCE,
    as_potential,
    expected_loss,
)
from .tilting import (
    ConstraintSpec,
    _bracketed_root,
    _tilt_multiplier,
    attainable_range,
    i_projection,
    solve_tilt,
)

XI_MERGE_TOLERANCE = 1e-12
WINDOW_TOLERANCE = 1e-12
DEFAULT_GRID_STEPS = {2: 0.001, 3: 0.02}
POLISH_ITERATION_CAP = 500

U_KINDS = ("identity", "centered_square", "user_table")


@dataclass(frozen=True, eq=False)
class ErrorDistribution:
    """Distribution of expected-loss values xi over a finite support.

    ``lambda_eta`` and ``center`` are populated on fitted instances so the
    downstream MAP search can reuse the solved multiplier and, for the
    centered-square statistic, the self-consistent centering point.
    """

    support: np.ndarray
    weights: FiniteDistribution
    provenance: str
    lambda_eta: float | None = None
    center: float | None = None

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        if s.ndim != 1 or s.size != self.weights.size:
            raise ValueError("support and weights must align")
        if np.any(np.diff(s) <= 0):
            raise ValueError("support values must be strictly increasing")
        object.__setattr__(self, "support", s)

    def mean(self) -> float:
        return float(np.dot(self.support, self.weights.weights))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.weights.weights))

    def weight_at(self, xi: float, tol: float = XI_MERGE_TOLERANCE) -> float:
        idx = np.flatnonzero(np.abs(self.support - xi) <= tol)
        if idx.size == 0:
            raise KeyError(f"{xi!r} is not a support point")
        return float(self.weights.weights[idx[0]])

    def restrict(self, lo: float, hi: float) -> "ErrorDistribution":
        """Condition on xi falling inside [lo, hi]."""
        mask = (self.support >= lo - WINDOW_TOLERANCE) & (self.support <= hi + WINDOW_TOLERANCE)
        if not np.any(mask & (self.weights.weights > 0)):
            raise EmptyEvent(f"no error-value mass inside [{lo!r}, {hi!r}]")
        sub = self.support[mask]
        w = self.weights.weights[mask]
        dist = FiniteDistribution(Alphabet(tuple(float(x) for x in sub)), w / w.sum())
        return ErrorDistribution(support=sub, weights=dist, provenance=self.provenance)


@dataclass(frozen=True)
class MetaConstraint:
    """Statistic U over error values with a target value eta.

    * ``identity``: U(xi) = xi.
    * ``centered_square``: U(xi) = (xi - center)^2; when ``center`` is None it
      is resolved self-consistently by ``maxent_error_fit``.
    * ``user_table``: U interpolates the pairs (table_xi, table_u) linearly.
    """

    kind: str
    eta: float
    center: float | None = None
    table_xi: tuple[float, ...] | None = None
    table_u: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in U_KINDS:
            raise ValueError(f"statistic kind {self.kind!r} not in {U_KINDS}")
        if self.kind == "user_table" and (self.table_xi is None or self.table_u is None):
            raise ValueError("user_table statistic needs table_xi and table_u")

    def values(self, xi: np.ndarray, center: float | None = None) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.kind == "identity":
            return xi
        if self.kind == "centered_square":
            m = center if center is not None else self.center
            if m is None:
                raise ValueError("centered_square needs a resolved center")
            return (xi - m) ** 2
        return np.interp(xi, np.asarray(self.table_xi), np.asarray(self.table_u))

    def derivative(self, xi: float, center: float | None = None) -> float:
        if self.kind == "identity":
            return 1.0
        if self.kind == "centered_square":
            m = center if center is not None else self.center
            if m is None:
                raise ValueError("centered_square needs a resolved center")
            return 2.0 * (xi - m)
        raise ValueError("user_table statistic has no smooth derivative")

    def with_center(self, center: float) -> "MetaConstraint":
        return replace(self, center=center)


def error_distribution_exact(
    P: FiniteDistribution, potential, n: int
) -> ErrorDistribution:
    """Exact law of V . L_n: type classes grouped by expected-loss value."""
    v = as_potential(potential, P.alphabet)
    table = enumerate_types(P, n)
    xi = table.frequencies() @ v
    order = np.argsort(xi, kind="stable")
    xi_sorted = xi[order]
    probs_sorted = np.exp(table.log_probs[order])
    starts = np.concatenate(([True], np.diff(xi_sorted) > XI_MERGE_TOLERANCE))
    group_ids = np.cumsum(starts) - 1
    support = xi_sorted[np.flatnonzero(starts)]
    weights = np.bincount(group_ids, weights=probs_sorted, minlength=support.size)
    dist = FiniteDistribution(Alphabet(tuple(float(x) for x in support)), weights)
    return ErrorDistribution(support=support, weights=dist, provenance="exact-enumeration")


def maxent_error_fit(
    reference: ErrorDistribution, meta: MetaConstraint, tol: float = 1e-10
) -> ErrorDistribution:
    """Tilt the error distribution so that E[U] = eta.

    The centered-square statistic without a given centre uses the
    self-consistent one, the mean of the fitted law (see the module docstring).
    """
    center = meta.center
    if meta.kind == "centered_square" and center is None:
        center = _self_consistent_center(reference, meta.eta, tol)
    tilt = solve_tilt(reference.weights, meta.values(reference.support, center), meta.eta, tol)
    return ErrorDistribution(
        support=reference.support,
        weights=tilt.realized,
        provenance="fitted",
        lambda_eta=tilt.lam,
        center=center if meta.kind == "centered_square" else None,
    )


def _self_consistent_center(reference: ErrorDistribution, eta: float, tol: float) -> float:
    """Root of h(m) - m, h(m) the mean of the tilt onto E[(xi - m)^2] = eta.

    Where eta lies outside the range of (xi - m)^2 over the support, h takes
    the limit of the tilt (the reference conditioned on the nearest or the
    farthest support points), so h is defined on the whole bracket.  The
    search starts from the reference mean.
    """
    ref = reference.weights
    xi = reference.support

    def gap(m: float) -> tuple[float, None]:
        u = (xi - m) ** 2
        u_lo, u_hi = attainable_range(ref, u)
        tilt, _ = i_projection(ref, ConstraintSpec.point(u, min(max(eta, u_lo), u_hi)), tol)
        return float(np.dot(xi, tilt.realized.weights)) - m, None

    lo, hi = attainable_range(ref, xi)
    m, g, _ = _bracketed_root(gap, lo, hi, reference.mean(), tol)
    if abs(g) > tol:
        raise NonConvergence(f"self-consistent centre stalled at residual {abs(g):.3g}", residual=abs(g))
    return m


def simplex_grid(k: int, step: float) -> np.ndarray:
    """Uniform mesh over the k-simplex with the given step (must divide 1)."""
    cells = round(1.0 / step)
    if abs(cells * step - 1.0) > 1e-9:
        raise ValueError(f"grid step {step!r} must divide 1")
    size = table_size(k, cells)
    if size > 10_000_000:
        raise TableTooLarge(f"model grid of {size} points exceeds cap")
    return _compositions(cells, k) / cells


@dataclass(frozen=True, eq=False)
class MapModelResult:
    """Argmax model with its decomposed log-objective."""

    model: FiniteDistribution
    objective: float
    components: dict
    method: str


def _grid_kl(grid: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(grid > 0, grid * np.log(grid / p[None, :]), 0.0)
    return terms.sum(axis=1)


def _log_prior_values(
    prior, grid: np.ndarray, feasible: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Log-prior per feasible grid point; bool says whether it is flat."""
    n_feasible = int(np.count_nonzero(feasible))
    if prior is None:
        return np.full(n_feasible, -math.log(grid.shape[0])), True
    if callable(prior):
        vals = np.array([float(prior(mu)) for mu in grid[feasible]])
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("prior density must be finite and positive on the grid")
        return np.log(vals), False
    w = np.asarray(prior, dtype=float)
    if w.shape != (grid.shape[0],):
        raise ValueError(f"grid prior must have length {grid.shape[0]}")
    with np.errstate(divide="ignore"):
        return np.log(w[feasible]), False


def map_model(
    P: FiniteDistribution,
    model_prior,
    potential,
    xi_window: tuple[float, float],
    meta: MetaConstraint,
    lambda_eta: float,
    speed: float = 1.0,
    grid_step: float | None = None,
    tol: float = 1e-9,
    polish: bool = True,
) -> MapModelResult:
    """MAP search for the most probable model given an expected-loss window.

    The grid argmax is exhaustive; a multiplicative-update polish then looks
    for a better off-grid point (only with a flat prior and a differentiable
    statistic, and it is kept only if it strictly improves the objective).
    """
    v = as_potential(potential, P.alphabet)
    lo, hi = float(xi_window[0]), float(xi_window[1])
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    k = P.size
    step = grid_step if grid_step is not None else DEFAULT_GRID_STEPS.get(k, 0.05)
    grid = simplex_grid(k, step)

    xi_vals = grid @ v
    feasible = (xi_vals >= lo - WINDOW_TOLERANCE) & (xi_vals <= hi + WINDOW_TOLERANCE)
    if not np.any(feasible):
        raise EmptyFeasibleSet(f"no grid model has expected loss in [{lo!r}, {hi!r}]")

    kl_terms = speed * _grid_kl(grid[feasible], P.weights)
    u_terms = lambda_eta * meta.values(xi_vals[feasible])
    log_q, flat_prior = _log_prior_values(model_prior, grid, feasible)
    objective = -kl_terms - u_terms + log_q
    best_val = float(np.max(objective))
    if not math.isfinite(best_val):
        raise EmptyFeasibleSet("every feasible grid model has -inf objective")
    best_idx = int(np.flatnonzero(objective >= best_val - TIE_TOLERANCE)[0])

    model = FiniteDistribution(P.alphabet, grid[feasible][best_idx])
    components = {
        "kl_term": float(kl_terms[best_idx]),
        "meta_term": float(u_terms[best_idx]),
        "log_q_term": float(log_q[best_idx]),
    }
    result = MapModelResult(
        model=model,
        objective=float(objective[best_idx]),
        components=components,
        method="grid",
    )

    can_polish = polish and flat_prior and meta.kind != "user_table"
    if can_polish:
        polished = _polish_map(
            P, v, (lo, hi), meta, lambda_eta, speed, model, float(log_q[best_idx])
        )
        if polished is not None and polished.objective > result.objective + 1e-15:
            result = polished
    return result


def _polish_map(
    P: FiniteDistribution,
    v: np.ndarray,
    window: tuple[float, float],
    meta: MetaConstraint,
    lambda_eta: float,
    speed: float,
    start: FiniteDistribution,
    log_q_const: float,
) -> MapModelResult | None:
    """Multiplicative-update refinement of the grid argmax inside the window."""
    lo, hi = window
    p = P.weights
    sup = P.support
    if sup.size < P.size:
        return None  # degenerate reference: keep the grid answer

    def neg_objective(mu: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            kl = float(np.where(mu > 0, mu * np.log(mu / p), 0.0).sum())
        xi = float(np.dot(v, mu))
        return speed * kl + lambda_eta * float(meta.values(np.array([xi]))[0])

    v_lo, v_hi = attainable_range(P, v)

    def clip_to_window(mu: np.ndarray) -> np.ndarray:
        xi = float(np.dot(v, mu))
        target = min(max(xi, lo), hi)
        if target == xi or not (v_lo < target < v_hi):
            return mu
        return _tilt_multiplier(np.log(mu), v, target, 1e-12)[1]

    mu = np.maximum(start.weights, 1e-12)
    mu = clip_to_window(mu / mu.sum())
    obj = neg_objective(mu)
    step = 0.25
    for _ in range(POLISH_ITERATION_CAP):
        xi = float(np.dot(v, mu))
        grad = speed * (np.log(mu / p) + 1.0) + lambda_eta * meta.derivative(xi) * v
        improved = False
        while step >= 1e-16:
            cand = mu * np.exp(-step * (grad - grad.max()))
            cand = clip_to_window(cand / cand.sum())
            cand_obj = neg_objective(cand)
            if cand_obj < obj - 1e-15:
                mu, obj = cand, cand_obj
                improved = True
                step = min(step * 1.5, 4.0)
                break
            step *= 0.5
        if not improved:
            break

    xi = float(np.dot(v, mu))
    if not (lo - WINDOW_TOLERANCE <= xi <= hi + WINDOW_TOLERANCE):
        return None
    model = FiniteDistribution(P.alphabet, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = float(np.where(mu > 0, mu * np.log(mu / p), 0.0).sum())
    components = {
        "kl_term": speed * kl,
        "meta_term": lambda_eta * float(meta.values(np.array([xi]))[0]),
        "log_q_term": log_q_const,
    }
    return MapModelResult(
        model=model,
        objective=-components["kl_term"] - components["meta_term"] + components["log_q_term"],
        components=components,
        method="multiplicative-update",
    )


def misfit_weight(
    mu: FiniteDistribution, potential, nu: ErrorDistribution, lambda_eta: float
) -> float:
    """exp(-lambda_eta (V . mu - E_nu[xi])^2): the squared-deviation reweighting."""
    deviation = expected_loss(mu, potential) - nu.mean()
    return math.exp(-lambda_eta * deviation * deviation)


@dataclass(frozen=True, eq=False)
class MetaPipelineResult:
    """End-to-end artifacts of the two-level inference pipeline."""

    reference: ErrorDistribution
    restricted: ErrorDistribution
    fitted: ErrorDistribution
    map_result: MapModelResult


def run_meta_pipeline(
    P: FiniteDistribution,
    potential,
    n: int,
    xi_window: tuple[float, float],
    meta: MetaConstraint,
    model_prior=None,
    speed: float = 1.0,
    grid_step: float | None = None,
) -> MetaPipelineResult:
    """Exact error law -> window restriction -> statistic fit -> MAP model."""
    reference = error_distribution_exact(P, potential, n)
    restricted = reference.restrict(*xi_window)
    fitted = maxent_error_fit(restricted, meta)
    resolved = meta.with_center(fitted.center) if meta.kind == "centered_square" else meta
    result = map_model(
        P,
        model_prior,
        potential,
        xi_window,
        resolved,
        lambda_eta=float(fitted.lambda_eta),
        speed=speed,
        grid_step=grid_step,
    )
    return MetaPipelineResult(
        reference=reference, restricted=restricted, fitted=fitted, map_result=result
    )
