"""Exact and Monte Carlo decay-rate measurements for empirical measures.

Everything here runs at desk scale: the full law of the empirical measure of
n i.i.d. draws is enumerated type class by type class (a composition of n
into k parts has exactly multinomial probability), so decay rates, convexity
and conditioning claims can be checked against exact numbers rather than
simulations alone.  Sample sizes are kept honest by a hard cap on the
enumeration size.

Decay rates are always estimated by regressing log P_n on n across a grid of
sample sizes: the polynomial prefactor of the exact probability contributes
O(log n), which the slope fit suppresses, while evaluating (1/n) log P_n at
a single n would not.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyEvent, EmptyPreimage, InfeasibleError, NumericalError, TableTooLarge
from .measures import FiniteDistribution, as_potential, total_variation
from .tilting import ConstraintSpec, TiltedDistribution, i_projection

TABLE_CAP = 10_000_000
# Slack for testing whether a rational type mean j/n lies in a float window.
MEMBERSHIP_TOLERANCE = 1e-12
WILSON_Z = 1.959963984540054  # 95% normal quantile
MIN_EXPECTED_HITS = 10

# Stream purpose codes, kept distinct so different draws never share a stream.
_STREAM_SANOV = 0
_STREAM_DRAW = 1


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) with max-subtraction; -inf for an all -inf array."""
    m = float(np.max(a))
    return m if math.isinf(m) else m + math.log(float(np.sum(np.exp(a - m))))


def table_size(k: int, n: int) -> int:
    """Number of type classes: compositions of n into k parts."""
    return math.comb(n + k - 1, k - 1)


def _compositions(n: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to n, in lexicographic bar order."""
    if k == 1:
        return np.array([[n]], dtype=np.int64)
    bars = np.fromiter(
        (b for combo in itertools.combinations(range(n + k - 1), k - 1) for b in combo),
        dtype=np.int64,
    ).reshape(-1, k - 1)
    counts = np.empty((bars.shape[0], k), dtype=np.int64)
    counts[:, 0] = bars[:, 0]
    if k > 2:
        counts[:, 1:-1] = np.diff(bars, axis=1) - 1
    counts[:, -1] = (n + k - 2) - bars[:, -1]
    return counts


@dataclass(frozen=True, eq=False)
class TypeClassTable:
    """Exhaustive table of type classes with exact multinomial log-probabilities."""

    base: FiniteDistribution
    n: int
    counts: np.ndarray
    log_probs: np.ndarray

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def frequencies(self) -> np.ndarray:
        return self.counts / self.n

    def total_log_mass(self) -> float:
        return _logsumexp(self.log_probs)


def enumerate_types(P: FiniteDistribution, n: int) -> TypeClassTable:
    """Build the exact finite-n law of the empirical measure of P^n."""
    if n < 1:
        raise ValueError("sample size must be positive")
    k = P.size
    size = table_size(k, n)
    if size > TABLE_CAP:
        raise TableTooLarge(f"{size} type classes for k={k}, n={n} exceeds cap {TABLE_CAP}")
    counts = _compositions(n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(P.weights)
        terms = np.where(counts > 0, counts * log_p[None, :], 0.0)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_probs = log_factorial[n] - log_factorial[counts].sum(axis=1) + terms.sum(axis=1)
    table = TypeClassTable(base=P, n=n, counts=counts, log_probs=log_probs)
    log_mass = table.total_log_mass()
    if not abs(log_mass) <= 1e-9:
        raise NumericalError(f"type-class probabilities sum to exp({log_mass:.3g}), not 1")
    return table


def _window(constraint: ConstraintSpec) -> tuple[float, float]:
    if constraint.is_interval:
        lo, hi = constraint.target
    else:
        lo = hi = float(constraint.target)
    return lo, hi


def _event_mask(table: TypeClassTable, v: np.ndarray, constraint: ConstraintSpec) -> np.ndarray:
    lo, hi = _window(constraint)
    means = table.frequencies() @ v
    return (means >= lo - MEMBERSHIP_TOLERANCE) & (means <= hi + MEMBERSHIP_TOLERANCE)


@dataclass(frozen=True)
class RateEstimate:
    """Empirical decay rate of a constrained event against its analytic target."""

    constraint_description: str
    n_grid: tuple[int, ...]
    log_probs: tuple[float, ...]
    fitted_slope: float
    analytic_rate: float
    regression_r2: float
    method: str
    ci_lo: tuple[float, ...]
    ci_hi: tuple[float, ...]
    slope_stderr: float
    empty_event_ns: tuple[int, ...] = ()
    insufficient_ns: tuple[int, ...] = ()


def _fit_log_probs(
    ns: np.ndarray, logs: np.ndarray, variances: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Least-squares slope of log P_n on n; returns (slope, r2, slope_se)."""
    m = ns.size
    if m < 2:
        return math.nan, math.nan, math.nan
    if variances is None:
        w = np.ones(m)
    else:
        w = 1.0 / np.maximum(variances, 1e-30)
    xb = float(np.sum(w * ns) / np.sum(w))
    yb = float(np.sum(w * logs) / np.sum(w))
    sxx = float(np.sum(w * (ns - xb) ** 2))
    slope = float(np.sum(w * (ns - xb) * (logs - yb)) / sxx)
    fitted = yb + slope * (ns - xb)
    ss_res = float(np.sum(w * (logs - fitted) ** 2))
    ss_tot = float(np.sum(w * (logs - yb) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if variances is None:
        se = math.sqrt(ss_res / ((m - 2) * sxx)) if m > 2 and sxx > 0 else math.nan
    else:
        se = math.sqrt(1.0 / sxx)
    return slope, r2, se


def _describe(constraint: ConstraintSpec) -> str:
    lo, hi = _window(constraint)
    if lo == hi:
        return f"V.mu = {lo!r}"
    return f"V.mu in [{lo!r}, {hi!r}]"


def _analytic_rate(P: FiniteDistribution, constraint: ConstraintSpec) -> float:
    """Rate of the constrained event; +inf (empty-set infimum) if unattainable."""
    try:
        return i_projection(P, constraint)[1]
    except InfeasibleError:
        return math.inf


def sanov_exact(
    P: FiniteDistribution, constraint: ConstraintSpec, n_grid: Sequence[int]
) -> RateEstimate:
    """Exact decay rate of P^n(V . L_n in window) by full type enumeration.

    Sample sizes whose event is empty (parity infeasibility) are reported
    and excluded from the regression.
    """
    v = as_potential(constraint.potential, P.alphabet)
    logs, empties = [], []
    for n in n_grid:
        table = enumerate_types(P, int(n))
        mask = _event_mask(table, v, constraint)
        selected = table.log_probs[mask]
        selected = selected[np.isfinite(selected)]
        if selected.size == 0:
            empties.append(int(n))
            logs.append(-math.inf)
        else:
            logs.append(_logsumexp(selected))
    analytic_rate = _analytic_rate(P, constraint)
    ns = np.asarray([n for n, lp in zip(n_grid, logs) if math.isfinite(lp)], dtype=float)
    ys = np.asarray([lp for lp in logs if math.isfinite(lp)])
    slope, r2, se = _fit_log_probs(ns, ys)
    return RateEstimate(
        constraint_description=_describe(constraint),
        n_grid=tuple(int(n) for n in n_grid),
        log_probs=tuple(logs),
        fitted_slope=slope,
        analytic_rate=analytic_rate,
        regression_r2=r2,
        method="exact-enumeration",
        ci_lo=tuple(logs),
        ci_hi=tuple(logs),
        slope_stderr=se,
        empty_event_ns=tuple(empties),
    )


@dataclass(frozen=True)
class SeededSampler:
    """Deterministic counter-based sampling streams.

    Streams are keyed by (seed, stream_id, purpose, context ints) through a
    SeedSequence spawn key feeding a Philox generator, so identical draws are
    bit-identical across runs and across any parallel schedule.
    """

    seed: int
    base: FiniteDistribution
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")

    def generator(self, tag: tuple[int, ...]) -> np.random.Generator:
        key = (self.stream_id,) + tuple(int(t) for t in tag)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))

    def multinomial_block(self, n: int, block_index: int, block_trials: int) -> np.ndarray:
        rng = self.generator((_STREAM_SANOV, n, block_index))
        return rng.multinomial(n, self.base.weights, size=block_trials)

    def draw_indices(self, count: int, context: int = 0) -> np.ndarray:
        rng = self.generator((_STREAM_DRAW, context))
        return rng.choice(self.base.size, size=count, p=self.base.weights)


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    z = WILSON_Z
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def sanov_monte_carlo(
    sampler: SeededSampler,
    constraint: ConstraintSpec,
    n_grid: Sequence[int],
    trials: int,
    threads: int = 1,
    block_size: int = 65536,
) -> RateEstimate:
    """Monte Carlo estimate of the same decay rate, for cross-checking.

    Hit frequencies come with Wilson 95% intervals; the slope fit weights
    each point by the inverse delta-method variance of log p-hat.  Sample
    sizes with fewer than 10 hits are flagged and excluded from the fit.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials per sample size")
    P = sampler.base
    v = as_potential(constraint.potential, P.alphabet)
    lo, hi = _window(constraint)

    def hits_for(n: int) -> int:
        n_blocks = (trials + block_size - 1) // block_size
        sizes = [min(block_size, trials - b * block_size) for b in range(n_blocks)]

        def block_hits(b: int) -> int:
            counts = sampler.multinomial_block(n, b, sizes[b])
            means = counts @ v / n
            sel = (means >= lo - MEMBERSHIP_TOLERANCE) & (means <= hi + MEMBERSHIP_TOLERANCE)
            return int(np.count_nonzero(sel))

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                per_block = list(pool.map(block_hits, range(n_blocks)))
        else:
            per_block = [block_hits(b) for b in range(n_blocks)]
        return sum(per_block)

    logs, ci_lo, ci_hi, variances, insufficient = [], [], [], [], []
    for n in n_grid:
        h = hits_for(int(n))
        phat = h / trials
        w_lo, w_hi = _wilson_interval(h, trials)
        logs.append(math.log(phat) if h > 0 else -math.inf)
        ci_lo.append(math.log(w_lo) if w_lo > 0 else -math.inf)
        ci_hi.append(math.log(w_hi) if w_hi > 0 else -math.inf)
        if h < MIN_EXPECTED_HITS:
            insufficient.append(int(n))
            variances.append(math.inf)
        else:
            variances.append(max((1.0 - phat) / (trials * phat), 1e-30))

    analytic_rate = _analytic_rate(P, constraint)
    usable = [i for i, n in enumerate(n_grid) if int(n) not in insufficient]
    ns = np.asarray([float(n_grid[i]) for i in usable])
    ys = np.asarray([logs[i] for i in usable])
    var = np.asarray([variances[i] for i in usable])
    slope, r2, se = _fit_log_probs(ns, ys, var)
    return RateEstimate(
        constraint_description=_describe(constraint),
        n_grid=tuple(int(n) for n in n_grid),
        log_probs=tuple(logs),
        fitted_slope=slope,
        analytic_rate=analytic_rate,
        regression_r2=r2,
        method="monte-carlo",
        ci_lo=tuple(ci_lo),
        ci_hi=tuple(ci_hi),
        slope_stderr=se,
        insufficient_ns=tuple(insufficient),
    )


@dataclass(frozen=True, eq=False)
class ConditioningResult:
    """Exact conditional mean measure against its tilted prediction."""

    window: tuple[float, float]
    n: int
    conditioned_mean_measure: FiniteDistribution
    predicted: TiltedDistribution
    tv_distance: float


def gibbs_conditioning(
    P: FiniteDistribution, constraint: ConstraintSpec, n: int
) -> ConditioningResult:
    """Exact E[L_n | V . L_n in window] versus the minimum-KL tilt.

    The conditional mean is computed from the full type table, the
    prediction is the projection of P onto the dominating point of the
    window (interior mean, else nearer endpoint).
    """
    v = as_potential(constraint.potential, P.alphabet)
    table = enumerate_types(P, n)
    mask = _event_mask(table, v, constraint)
    log_sel = table.log_probs[mask]
    finite = np.isfinite(log_sel)
    if not np.any(finite):
        raise EmptyEvent(f"no type class of n={n} satisfies {_describe(constraint)}")
    log_sel = log_sel[finite]
    freqs = table.frequencies()[mask][finite]
    weights = np.exp(log_sel - _logsumexp(log_sel))
    mean = FiniteDistribution(P.alphabet, weights @ freqs)
    lo, hi = _window(constraint)
    predicted, _ = i_projection(P, ConstraintSpec.interval(v, lo, hi))
    return ConditioningResult(
        window=(lo, hi),
        n=n,
        conditioned_mean_measure=mean,
        predicted=predicted,
        tv_distance=total_variation(mean, predicted.realized),
    )


@dataclass(frozen=True)
class RatePoint:
    """One grid evaluation of the error rate function."""

    xi: float
    rate: float
    feasible: bool


def error_rate_function(
    P: FiniteDistribution, potential, xi_grid: Sequence[float]
) -> list[RatePoint]:
    """Rate function of expected-loss values: I(xi) = min KL over {V . mu = xi}.

    Grid points outside the attainable range are reported infeasible with
    rate +inf (the empty-set infimum); boundary points resolve to the
    conditioning of P on the extreme set of the potential.
    """
    v = as_potential(potential, P.alphabet)
    points: list[RatePoint] = []
    for xi in xi_grid:
        try:
            _, rate = i_projection(P, ConstraintSpec.point(v, float(xi)))
            points.append(RatePoint(xi=float(xi), rate=rate, feasible=True))
        except InfeasibleError:
            points.append(RatePoint(xi=float(xi), rate=math.inf, feasible=False))
    return points


class ContractedRate:
    """Grid-level pushforward of a rate function: J(eta) = min I over the preimage."""

    def __init__(self, etas: np.ndarray, rates: np.ndarray, merge_tol: float):
        self.etas = etas
        self.rates = rates
        self.merge_tol = merge_tol

    def __call__(self, eta: float) -> float:
        idx = np.flatnonzero(np.abs(self.etas - eta) <= self.merge_tol)
        if idx.size == 0:
            raise EmptyPreimage(f"no grid point maps to {eta!r}")
        return float(self.rates[idx[0]])

    def items(self) -> list[tuple[float, float]]:
        return [(float(e), float(r)) for e, r in zip(self.etas, self.rates)]


def contract_rate(
    rate_points: Sequence[RatePoint],
    pushforward: Callable[[float], float],
    merge_tol: float = 1e-12,
) -> ContractedRate:
    """Push the rate grid through a map, taking the min rate per image value."""
    etas = np.asarray([pushforward(p.xi) for p in rate_points], dtype=float)
    rates = np.asarray([p.rate for p in rate_points], dtype=float)
    order = np.argsort(etas, kind="stable")
    merged_e: list[float] = []
    merged_r: list[float] = []
    for e, r in zip(etas[order], rates[order]):
        if merged_e and abs(e - merged_e[-1]) <= merge_tol:
            merged_r[-1] = min(merged_r[-1], float(r))
        else:
            merged_e.append(float(e))
            merged_r.append(float(r))
    return ContractedRate(np.asarray(merged_e), np.asarray(merged_r), merge_tol)
