"""Two-level inference: distributions over expected-loss values.

The first level treats the expected loss of an empirical measure as a random
variable: its exact finite-n law on the window is
``ldp.error_distribution_exact``, read off tilted lattice passes over the
window or off the type enumeration, by the weighted rule of the ``ldp``
module docstring.  The Sanov and Gibbs measurements read one window's mass
instead, off the type slab near its dominating point or, at four or more
lattice values, off one pass.  The second level tilts that law to match a
summary statistic (a mean, a variance, or a user-supplied statistic), and
the two levels combine in a MAP search over a simplex grid of candidate
models: maximize

    - speed * KL(mu || P) - lambda_eta * U(V . mu) + ln Q(mu)

over feasible grid points, Q the uniform prior on the grid.  The optimum
lies on the tilt curve of P (the least-KL model for each xi = V . mu), so
the best tilts inside the window (a 1-D root in the multiplier) join the
grid models as candidates, and one argmax over both takes the answer.

The centered-square statistic (xi - m)^2 centres on the mean of the fitted
law: m is a bracketed root of h(m) - m on the range of the support, h(m) the
mean of the tilt onto E[(xi - m)^2] = eta, with h(min) >= min, h(max) <= max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyFeasibleSet, InfeasibleConstraint
from .ldp import ErrorDistribution, _compositions, check_table_size, error_distribution_exact
from .measures import FiniteDistribution, _floor, as_potential, in_window, relative_entropy
from .tilting import _bracketed_root, _project, _softmax, attainable_range

DEFAULT_GRID_STEPS = {2: 0.001, 3: 0.02}

# Each statistic kind and the parameters it reads; setting any other is an error.
U_PARAMETERS = {"identity": (), "centered_square": ("center",), "user_table": ("table_xi", "table_u")}


@dataclass(frozen=True)
class MetaConstraint:
    """Statistic U over error values with a target value eta.

    * ``identity``: U(xi) = xi.
    * ``centered_square``: U(xi) = (xi - center)^2; when ``center`` is None it
      is resolved self-consistently by ``maxent_error_fit``.
    * ``user_table``: U interpolates the pairs (table_xi, table_u) linearly;
      there is at least one pair, and table_xi does not decrease.
    """

    kind: str
    eta: float
    center: float | None = None
    table_xi: tuple[float, ...] | None = None
    table_u: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in U_PARAMETERS:
            raise ValueError(f"statistic kind {self.kind!r} not in {tuple(U_PARAMETERS)}")
        unread = [name for name in ("center", "table_xi", "table_u")
                  if getattr(self, name) is not None and name not in U_PARAMETERS[self.kind]]
        if unread:
            raise ValueError(f"statistic {self.kind!r} takes no parameter {', '.join(unread)}")
        if self.kind != "user_table":
            return
        if self.table_xi is None or self.table_u is None:
            raise ValueError("user_table statistic needs table_xi and table_u")
        sizes = len(self.table_xi), len(self.table_u)
        if not sizes[0] or sizes[0] != sizes[1]:
            raise ValueError(f"user_table needs table_xi and table_u of one positive length, got {sizes}")
        if np.any(np.diff(self.table_xi) < 0.0):
            raise ValueError("user_table table_xi must not decrease")

    def values(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.kind == "identity":
            return xi
        if self.kind == "centered_square":
            if self.center is None:
                raise ValueError("centered_square needs a resolved center")
            return (xi - self.center) ** 2
        return np.interp(xi, np.asarray(self.table_xi), np.asarray(self.table_u))

    def derivative(self, xi: float) -> float:
        if self.kind == "identity":
            return 1.0
        if self.kind == "centered_square":
            if self.center is None:
                raise ValueError("centered_square needs a resolved center")
            return 2.0 * (xi - self.center)
        raise ValueError("user_table statistic has no smooth derivative")

    def with_center(self, center: float) -> "MetaConstraint":
        return replace(self, center=center)


def maxent_error_fit(reference: ErrorDistribution, meta: MetaConstraint) -> ErrorDistribution:
    """Tilt the error distribution so that E[U] = eta.

    The tilt solves on the log masses (``tilting._project`` of log
    weights), so a support value whose weight underflows still counts.  The
    centered-square statistic without a given centre uses the self-consistent
    one, the mean of the fitted law (see the module docstring).
    """
    if meta.kind == "centered_square" and meta.center is None:
        meta = meta.with_center(_self_consistent_center(reference, meta.eta))
    lam, log_mass = _project(reference.log_mass, meta.values(reference.support), meta.eta)[:2]
    return ErrorDistribution(support=reference.support, log_mass=log_mass[0], lambda_eta=float(lam[0]),
                             center=meta.center)


def _self_consistent_center(reference: ErrorDistribution, eta: float) -> float:
    """Root of h(m) - m, h(m) the mean of the tilt onto E[(xi - m)^2] = eta.

    Where eta lies outside the range of (xi - m)^2 over the support, h takes
    the limit of the tilt (the reference conditioned on the nearest or the
    farthest support points), so h is defined on the whole bracket.  The
    search runs secant and bisection steps from the reference mean to the
    float resolution of the support.  The root need not be unique: for small
    eta the tilt sits on the support points nearest m, so h - m falls through
    0 near each, and the one returned is the crossing those steps close on.
    No centre exists when eta exceeds ((max - min) / 2)^2 over the support,
    the largest variance of a law on it: there h - m only jumps from + to -
    at the midpoint, so that is an InfeasibleConstraint.
    """
    xi, log_mass = reference.support, reference.log_mass
    lo, hi = float(xi.min()), float(xi.max())
    if eta > ((hi - lo) / 2) ** 2:
        raise InfeasibleConstraint(
            f"eta {eta!r} exceeds the largest variance of a law on [{lo!r}, {hi!r}]: no self-consistent centre"
        )

    def gap(m: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, None]:
        u = (xi - m) ** 2
        log_w = _project(log_mass, u, min(max(eta, float(u.min())), float(u.max())), boundary=True)[1][0]
        return float(xi @ _softmax(log_w)[0]) - m, None

    return float(_bracketed_root(gap, lo, hi, reference.mean(), _floor(xi))[0][0])


def model_grid_step(k: int, grid_step: float | None = None) -> float:
    """The MAP model grid step: ``grid_step`` if given, else the default for
    k.  It must be 1/m for an integer m >= 1, and the grid of C(m + k - 1,
    k - 1) points must stay under the table cap (TableTooLarge)."""
    step = grid_step if grid_step is not None else DEFAULT_GRID_STEPS.get(k, 0.05)
    cells = round(1.0 / step) if step > 0.0 else 0
    if cells < 1 or abs(cells * step - 1.0) > 1e-9:
        raise ValueError(f"model_grid_step {step!r} must be positive and divide 1")
    check_table_size(k, cells, f"model grid with step {step!r}")
    return step


def check_speed(speed: float) -> float:
    """The MAP speed, which must be finite and positive (ValueError)."""
    if not (math.isfinite(speed) and speed > 0.0):
        raise ValueError(f"speed must be finite and positive, got {speed!r}")
    return speed


def simplex_grid(k: int, step: float | None) -> np.ndarray:
    """Uniform mesh over the k-simplex with the step ``model_grid_step`` resolves."""
    cells = round(1.0 / model_grid_step(k, step))
    return np.column_stack(_compositions(cells, k)) / cells


@dataclass(frozen=True, eq=False)
class MapModelResult:
    """Argmax model with its decomposed log-objective."""

    model: FiniteDistribution
    objective: float
    components: dict
    method: str


def _best_model(
    P: FiniteDistribution,
    models: np.ndarray,
    xi: np.ndarray,
    log_q: np.ndarray,
    meta: MetaConstraint,
    lambda_eta: float,
    speed: float,
    methods: list[str],
) -> MapModelResult:
    """Argmax of the MAP objective over the rows of ``models``, first of ties
    (held to the float resolution of the objective's terms, which can cancel);
    ``methods`` names the method of each row."""
    kl_terms = speed * relative_entropy(models, P.weights)
    u_terms = lambda_eta * meta.values(xi)
    objective = -kl_terms - u_terms + log_q
    finite = np.isfinite(objective)
    if not finite.any():
        raise EmptyFeasibleSet("every feasible grid model has -inf objective")
    band = (P.size + 2) * _floor(np.stack([kl_terms, u_terms, log_q])[:, finite])
    best = int(np.flatnonzero(objective >= objective[finite].max() - band)[0])
    components = {
        "kl_term": float(kl_terms[best]),
        "meta_term": float(u_terms[best]),
        "log_q_term": float(log_q[best]),
    }
    return MapModelResult(
        model=FiniteDistribution(P.alphabet, models[best]),
        objective=float(objective[best]),
        components=components,
        method=methods[best],
    )


def map_model(
    P: FiniteDistribution,
    potential,
    xi_window: tuple[float, float],
    meta: MetaConstraint,
    lambda_eta: float,
    speed: float = 1.0,
    grid_step: float | None = None,
) -> MapModelResult:
    """MAP search for the most probable model given an expected-loss window.

    The candidates are the grid models in the window, under the uniform grid
    prior, and after them, with a differentiable statistic, the tilts of P
    in the window that ``_tilt_candidates`` finds, under the same prior.  One
    argmax (``_best_model``) takes the first of ties, so a grid model wins a
    tie; ``method`` reads "grid" or "tilt" by the row that wins.
    """
    check_speed(speed)
    v = as_potential(potential, P.alphabet)
    lo, hi = float(xi_window[0]), float(xi_window[1])
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    grid = simplex_grid(P.size, grid_step)

    xi_vals = grid @ v
    feasible = in_window(xi_vals, lo, hi, v)
    if not np.any(feasible):
        raise EmptyFeasibleSet(f"no grid model has expected loss in [{lo!r}, {hi!r}]")

    tilts = grid[:0] if meta.kind == "user_table" else _tilt_candidates(P, v, (lo, hi), meta, lambda_eta, speed)
    models = np.concatenate([grid[feasible], tilts])
    methods = ["grid"] * (len(models) - len(tilts)) + ["tilt"] * len(tilts)
    log_q = np.full(len(models), -math.log(grid.shape[0]))
    xi = np.concatenate([xi_vals[feasible], tilts @ v])
    return _best_model(P, models, xi, log_q, meta, lambda_eta, speed, methods)


def _tilt_candidates(
    P: FiniteDistribution,
    v: np.ndarray,
    window: tuple[float, float],
    meta: MetaConstraint,
    lambda_eta: float,
    speed: float,
) -> np.ndarray:
    """The models on the tilt curve of P with V . mu in the window that can
    hold the MAP optimum, one per row (none when only a grid model's
    round-off meets the window).

    For fixed xi = V . mu the tilt of P onto xi has the least KL(mu || P), so
    the objective is F(xi) = -speed I(xi) - lambda_eta U(xi) with I'(xi) the
    tilt multiplier lam (p ~ P exp(-lam V)).  F' = 0 is a root in lam of
    lambda_eta U'(xi(lam)) - speed lam, which changes sign on the window's
    lam-range clipped to lambda_eta U'([min V, max V]) / speed (U' is
    monotone).  The candidates are that root and the tilts onto the window
    ends clipped to P's range.  F is concave for identity U and for
    centered_square with lambda_eta >= 0, where the best of them is the exact
    optimum; otherwise a local one.
    """
    lo, hi = window
    v_lo, v_hi = attainable_range(P, v)
    end_lams, end_mus = _project(P, v, np.clip(window, v_lo, v_hi), boundary=True)[:2]
    candidates = list(end_mus)
    with np.errstate(divide="ignore"):
        log_p = np.log(P.weights)

    def gap(lam: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, None]:
        xi = _softmax(log_p - np.multiply.outer(lam, v))[0] @ v
        return lambda_eta * meta.derivative(xi) - speed * lam, None

    reach = sorted(lambda_eta * meta.derivative(x) / speed for x in (v_lo, v_hi))
    lam_lo, lam_hi = max(reach[0], end_lams[1]), min(reach[1], end_lams[0])
    if lam_lo <= lam_hi:
        floor = _floor(speed * np.array([lam_lo, lam_hi]))  # both terms of gap lie in that range
        lam = _bracketed_root(gap, lam_lo, lam_hi, 0.5 * (lam_lo + lam_hi), floor)[0]
        candidates.append(_softmax(log_p - np.multiply.outer(lam, v))[0][0])

    mus = np.array(candidates)
    return mus[in_window(mus @ v, lo, hi, v)]


@dataclass(frozen=True, eq=False)
class MetaPipelineResult:
    """End-to-end artifacts of the two-level inference pipeline; ``restricted``
    is the exact law of V . L_n conditioned on the window."""

    restricted: ErrorDistribution
    fitted: ErrorDistribution
    map_result: MapModelResult


def run_meta_pipeline(
    P: FiniteDistribution,
    potential,
    n: int,
    xi_window: tuple[float, float],
    meta: MetaConstraint,
    speed: float = 1.0,
    grid_step: float | None = None,
) -> MetaPipelineResult:
    """Exact error law conditioned on the window -> statistic fit -> MAP model."""
    restricted = error_distribution_exact(P, potential, n, xi_window)
    fitted = maxent_error_fit(restricted, meta)
    resolved = meta.with_center(fitted.center) if meta.kind == "centered_square" else meta
    result = map_model(
        P,
        potential,
        xi_window,
        resolved,
        lambda_eta=float(fitted.lambda_eta),
        speed=speed,
        grid_step=grid_step,
    )
    return MetaPipelineResult(restricted=restricted, fitted=fitted, map_result=result)
