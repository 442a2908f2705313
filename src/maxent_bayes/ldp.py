"""Exact and Monte Carlo decay-rate measurements for empirical measures.

Everything here runs at desk scale.  The exact claims all read one law, that
of the expected loss xi = V . L_n of n i.i.d. draws (``error_distribution_exact``),
after P is pushed forward onto the k distinct values of V on its support.
Two exact methods compute it:

- the type enumeration: every composition of n over the k values, grouped by
  xi, C(n + k - 1, k - 1) terms;
- on a lattice, values a + h m_j with integer m_j of span R = max m, the law
  of the lattice sum S_n = sum m_{X_i}, one log-domain convolution per draw,
  k sum_{i<=n} (R i + 1) terms.

The method with fewer terms runs, a rule on the input's size: the recursion
wins once k >= 4 and n is large against R (at k = 4, n above about 11 R),
the enumeration for k <= 3 and for an irrational V (its lattice step is
round-off, so R is huge).  A window's Sanov probability is its mass under
the law, and the conditional mean given the window reads the law at n - 1 by
exchangeability, the p_j-weighted sum of the numerators being the
denominator:

    E[L_n | W]_j = p_j P(((n - 1) xi_{n-1} + v_j) / n in W) / P(xi_n in W).

Both readers take a window's mass as a masked log-sum-exp over the unsorted,
ungrouped terms of the law (``_law_terms``); only ``error_distribution_exact``,
the law the meta pipeline fits, sorts the terms and groups them by value.

Sample sizes are kept honest by a hard cap on the terms of the method that
runs (``check_exact_law``).

Decay rates are always estimated by regressing log P_n on n across a grid of
sample sizes: the polynomial prefactor of the exact probability contributes
O(log n), which the slope fit suppresses, while evaluating (1/n) log P_n at
a single n would not.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyEvent, EmptyPreimage, InfeasibleError, NumericalError, TableTooLarge
from .measures import Alphabet, FiniteDistribution, as_potential, relative_entropy, total_variation
from .tilting import ConstraintSpec, TiltedDistribution, _project, i_projection

TABLE_CAP = 10_000_000
# The one band around expected-loss windows and values: a rational type mean
# j/n counts as inside a float window, and two values xi as equal, within it.
XI_BAND = 1e-12
# A value of V lies on a lattice when it is within this many ulps of max |V|
# of a lattice point.
LATTICE_ULPS = 4
# Monte Carlo trials per sampling block.  Each block draws from its own
# stream, keyed by its index, so this size fixes every Monte Carlo output.
MC_BLOCK_SIZE = 65536
WILSON_Z = 1.959963984540054  # 95% normal quantile
MIN_EXPECTED_HITS = 10

# Monte Carlo spawn keys are (0, _STREAM_SANOV, n, block); changing either
# leading code changes every Monte Carlo output.
_STREAM_SANOV = 0


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) with max-subtraction; -inf for an empty or all -inf array."""
    m = float(np.max(a, initial=-math.inf))
    return m if math.isinf(m) else m + math.log(float(np.sum(np.exp(a - m))))


def table_size(k: int, n: int) -> int:
    """Number of type classes: compositions of n into k parts."""
    return math.comb(n + k - 1, k - 1)


def check_table_size(k: int, n: int, what: str = "enumeration") -> None:
    """Raise TableTooLarge when ``what`` needs more than TABLE_CAP
    compositions of n into k parts (type classes, or model-grid points)."""
    size = table_size(k, n)
    if size > TABLE_CAP:
        raise TableTooLarge(f"{what} for k={k}, n={n} needs {size} type classes (cap {TABLE_CAP})")


def check_trials(trials: int) -> int:
    """Monte Carlo trials per sample size, which must be at least 1000 (ValueError)."""
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials per sample size, got {trials!r}")
    return trials


def _compositions(n: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to n, in lexicographic order.

    Part by part: each row with r units left becomes r + 1 rows whose next
    part runs 0..r; the last part takes what is left.
    """
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        reps = left + 1
        part = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack([np.repeat(counts, reps, axis=0), part])
        left = np.repeat(left, reps) - part
    return np.column_stack([counts, left])


def in_window(x, lo: float, hi: float):
    """Whether x (a value or an array) lies in [lo, hi] widened by XI_BAND."""
    return (x >= lo - XI_BAND) & (x <= hi + XI_BAND)


@dataclass(frozen=True, eq=False)
class TypeClassTable:
    """Exhaustive table of type classes with exact multinomial log-probabilities;
    ``counts`` has one column per symbol of positive weight in ``base``."""

    base: FiniteDistribution
    n: int
    counts: np.ndarray
    log_probs: np.ndarray

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def total_log_mass(self) -> float:
        return _logsumexp(self.log_probs)


def enumerate_types(P: FiniteDistribution, n: int) -> TypeClassTable:
    """Build the exact finite-n law of the empirical measure of P^n.

    Each type's log-probability is log n! + sum_j T_j[c_j], one gather per
    symbol from the table T_j[c] = c log p_j - log c!.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    drawn = P.weights > 0
    k = int(np.count_nonzero(drawn))
    check_table_size(k, n)
    counts = _compositions(n, k)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    per_symbol = np.log(P.weights[drawn])[:, None] * np.arange(n + 1) - log_factorial
    log_probs = log_factorial[n] + sum(t[column] for t, column in zip(per_symbol, counts.T))
    table = TypeClassTable(base=P, n=n, counts=counts, log_probs=log_probs)
    log_mass = table.total_log_mass()
    if not abs(log_mass) <= 1e-9:
        raise NumericalError(f"type-class probabilities sum to exp({log_mass:.3g}), not 1")
    return table


@dataclass(frozen=True, eq=False)
class ErrorDistribution:
    """Distribution of expected-loss values xi over a finite support.

    ``log_mass`` holds the log of each support value's mass up to a common
    shift (none for the exact law), finite at every support value, so a
    window far in the tail keeps its mass where the weights themselves would
    underflow; the fits solve on it, and ``weights`` normalizes it when first
    read.  ``lambda_eta`` and ``center`` are populated on fitted instances so
    the downstream MAP search can reuse the solved multiplier and, for the
    centered-square statistic, the self-consistent centering point.
    """

    support: np.ndarray
    log_mass: np.ndarray
    lambda_eta: float | None = None
    center: float | None = None

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        if s.ndim != 1 or s.shape != np.shape(self.log_mass):
            raise ValueError("support and log masses must align")
        if np.any(np.diff(s) <= 0):
            raise ValueError("support values must be strictly increasing")
        object.__setattr__(self, "support", s)

    @cached_property
    def weights(self) -> FiniteDistribution:
        w = np.exp(self.log_mass - self.log_mass.max())
        return FiniteDistribution(Alphabet(tuple(float(x) for x in self.support)), w / w.sum())

    def mean(self) -> float:
        return float(np.dot(self.support, self.weights.weights))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.weights.weights))

    def weight_at(self, xi: float) -> float:
        idx = np.flatnonzero(np.abs(self.support - xi) <= XI_BAND)
        if idx.size == 0:
            raise KeyError(f"{xi!r} is not a support point")
        return float(self.weights.weights[idx[0]])

    def restrict(self, lo: float, hi: float) -> "ErrorDistribution":
        """Condition on xi falling inside [lo, hi]."""
        mask = in_window(self.support, lo, hi)
        if not np.any(mask):
            raise EmptyEvent(f"no error-value mass inside [{lo!r}, {hi!r}]")
        log_mass = self.log_mass[mask]
        return ErrorDistribution(support=self.support[mask], log_mass=log_mass - _logsumexp(log_mass))


def _lattice(values: np.ndarray) -> tuple[float, float, np.ndarray] | None:
    """(a, h, m) with each value a + h m_j to within LATTICE_ULPS ulps of
    max |V|, h > 0 and the m_j >= 0 integers of gcd 1; None when the values
    all agree (one type class) or some value is off that lattice.

    h is a float Euclid over the differences from the least value (fmod is
    exact, so only the noise in V enters), then the largest difference over
    its integer.  An irrational V leaves h near round-off and max m huge.
    """
    a = float(values.min())
    d = values - a
    tol = LATTICE_ULPS * float(np.spacing(np.abs(values).max()))
    h = 0.0
    for r in d.tolist():
        while r > tol:
            h, r = r, math.fmod(h, r)
    if h == 0.0:
        return None
    m = np.rint(d / h).astype(np.int64)
    h = float(d.max()) / int(m.max())
    return (a, h, m) if np.abs(d - m * h).max() <= tol else None


def _lattice_law(log_weights: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """log P(S_n = s) for s = 0..n max(m), S_n the sum of n i.i.d. draws of
    m_j with log-probability log_weights[j]; -inf where s is unreachable.

    One log-domain convolution per draw:
    log P_i(s) = logsumexp_j [log p_j + log P_{i-1}(s - m_j)].
    """
    span = int(m.max())
    log_p = np.zeros(1)
    for _ in range(n):
        nxt = np.full(log_p.size + span, -math.inf)
        for lw, shift in zip(log_weights.tolist(), m.tolist()):
            part = nxt[shift:shift + log_p.size]
            np.logaddexp(part, log_p + lw, out=part)
        log_p = nxt
    log_mass = _logsumexp(log_p)
    if not abs(log_mass) <= 1e-9:
        raise NumericalError(f"lattice-sum probabilities sum to exp({log_mass:.3g}), not 1")
    return log_p


def check_exact_law(
    P: FiniteDistribution, potential, n: int
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, np.ndarray] | None]:
    """Push P forward onto the distinct values of V on its support, in order
    of first occurrence, and pick the method of ``error_distribution_exact``
    with fewer terms (module docstring); TableTooLarge when its count passes
    TABLE_CAP.  Returns (values, weights, lattice), lattice (a, h, m) when
    the lattice recursion runs, else None.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    v = as_potential(potential, P.alphabet)
    drawn = P.weights > 0
    values, first, inverse = np.unique(v[drawn], return_index=True, return_inverse=True)
    order = np.argsort(first)
    weights = np.bincount(np.argsort(order)[inverse], weights=P.weights[drawn])
    values = values[order]
    k = values.size
    lattice = _lattice(values)
    recursion = math.inf if lattice is None else k * (int(lattice[2].max()) * n * (n + 1) // 2 + n)
    enumeration = table_size(k, n)
    if recursion < enumeration:
        method, terms = "lattice recursion", recursion
    else:
        method, terms, lattice = "type enumeration", enumeration, None
    if terms > TABLE_CAP:
        raise TableTooLarge(f"{method} for k={k} distinct values, n={n} sums {terms} terms (cap {TABLE_CAP})")
    return values, weights, lattice


def _law_terms(P: FiniteDistribution, potential, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms (xi, log_probs) of the exact law of V . L_n, unsorted and
    ungrouped, by whichever of two methods sums fewer terms
    (``check_exact_law``): on a lattice a + h m, one term per reachable
    lattice sum S_n = sum m_{X_i}, at xi = a + h s / n (``_lattice_law``);
    else one term per type class of the distinct values of V, at
    xi = (counts / n) . V.  Terms of the enumeration may share a value xi.
    """
    values, weights, lattice = check_exact_law(P, potential, n)
    if lattice is not None:
        a, h, m = lattice
        log_probs = _lattice_law(np.log(weights), m, n)
        s = np.flatnonzero(log_probs > -math.inf)
        return a + h * s / n, log_probs[s]
    table = enumerate_types(FiniteDistribution(Alphabet.of_size(values.size), weights), n)
    return (table.counts / n) @ values, table.log_probs


def error_distribution_exact(P: FiniteDistribution, potential, n: int) -> ErrorDistribution:
    """Exact law of V . L_n: the terms of ``_law_terms``, sorted by xi and
    grouped.

    The support holds the values of positive probability (values within
    XI_BAND of their neighbour count as one).  Each value's log mass is a
    log-sum-exp over its group, shifted by the group's largest
    log-probability, so no group's mass underflows.  Only this law sorts
    and groups: a reader of one window's mass (``sanov_exact``,
    ``gibbs_conditioning``) masks the ungrouped terms instead.
    """
    xi, log_probs = _law_terms(P, potential, n)
    order = np.argsort(xi, kind="stable")
    xi, log_probs = xi[order], log_probs[order]
    del order
    starts = np.concatenate(([True], np.diff(xi) > XI_BAND))
    group_ids = np.cumsum(starts) - 1
    heads = np.flatnonzero(starts)
    shift = np.maximum.reduceat(log_probs, heads)
    sums = np.bincount(group_ids, weights=np.exp(log_probs - shift[group_ids]))
    return ErrorDistribution(support=xi[heads], log_mass=shift + np.log(sums))


def _window(constraint: ConstraintSpec) -> tuple[float, float]:
    if constraint.is_interval:
        lo, hi = constraint.target
    else:
        lo = hi = float(constraint.target)
    return lo, hi


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


def _fit_line(
    x: np.ndarray, y: np.ndarray, variances: np.ndarray | None = None
) -> tuple[float, float, float, float]:
    """Least-squares line y ~ a + b x, weighted by 1 / variances when given.

    Returns (slope, intercept, r2, slope_se); NaNs for fewer than 2 points.
    """
    m = x.size
    if m < 2:
        return math.nan, math.nan, math.nan, math.nan
    w = np.ones(m) if variances is None else 1.0 / np.maximum(variances, 1e-30)
    xb = float(np.sum(w * x) / np.sum(w))
    yb = float(np.sum(w * y) / np.sum(w))
    sxx = float(np.sum(w * (x - xb) ** 2))
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    fitted = yb + slope * (x - xb)
    ss_res = float(np.sum(w * (y - fitted) ** 2))
    ss_tot = float(np.sum(w * (y - yb) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if variances is None:
        se = math.sqrt(ss_res / ((m - 2) * sxx)) if m > 2 and sxx > 0 else math.nan
    else:
        se = math.sqrt(1.0 / sxx)
    return slope, yb - slope * xb, r2, se


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
    """Exact decay rate of P^n(V . L_n in window): the mass of the window
    under the exact law of V . L_n at each n.

    Sample sizes whose event is empty (parity infeasibility) are reported
    and excluded from the regression.
    """
    v = as_potential(constraint.potential, P.alphabet)
    lo, hi = _window(constraint)
    logs = []
    for n in n_grid:
        xi, log_probs = _law_terms(P, v, int(n))
        logs.append(_logsumexp(log_probs[in_window(xi, lo, hi)]))
    finite = np.isfinite(logs)
    analytic_rate = _analytic_rate(P, constraint)
    slope, _, r2, se = _fit_line(np.asarray(n_grid, dtype=float)[finite], np.asarray(logs)[finite])
    return RateEstimate(
        constraint_description=_describe(constraint),
        n_grid=tuple(int(n) for n in n_grid),
        log_probs=tuple(logs),
        fitted_slope=slope,
        analytic_rate=analytic_rate,
        regression_r2=r2,
        method="exact",
        ci_lo=tuple(logs),
        ci_hi=tuple(logs),
        slope_stderr=se,
        empty_event_ns=tuple(int(n) for n, f in zip(n_grid, finite) if not f),
    )


@dataclass(frozen=True)
class SeededSampler:
    """Deterministic counter-based sampling streams.

    Each Monte Carlo block draws from its own stream, keyed by (seed, n,
    block index) through a SeedSequence spawn key feeding a Philox
    generator, so identical draws are bit-identical across runs and across
    any parallel schedule.
    """

    seed: int
    base: FiniteDistribution

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit non-negative integer")

    def multinomial_block(self, n: int, block_index: int, block_trials: int) -> np.ndarray:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(0, _STREAM_SANOV, n, block_index))
        return np.random.Generator(np.random.Philox(seq)).multinomial(n, self.base.weights, size=block_trials)


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
) -> RateEstimate:
    """Monte Carlo estimate of the same decay rate, for cross-checking.

    Hit frequencies come with Wilson 95% intervals; the slope fit weights
    each point by the inverse delta-method variance of log p-hat.  Sample
    sizes with fewer than 10 hits are flagged and excluded from the fit.
    """
    check_trials(trials)
    P = sampler.base
    v = as_potential(constraint.potential, P.alphabet)
    lo, hi = _window(constraint)

    n_blocks = (trials + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE
    sizes = [min(MC_BLOCK_SIZE, trials - b * MC_BLOCK_SIZE) for b in range(n_blocks)]

    def block_hits(block: tuple[int, int]) -> int:
        n, b = block
        counts = sampler.multinomial_block(n, b, sizes[b])
        return int(np.count_nonzero(in_window(counts @ v / n, lo, hi)))

    # one pool for every block of every n: each block's stream is keyed by
    # (n, b), so the hit counts do not depend on the schedule
    blocks = [(int(n), b) for n in n_grid for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_block = list(pool.map(block_hits, blocks))

    logs, ci_lo, ci_hi, variances, insufficient = [], [], [], [], []
    for i, n in enumerate(n_grid):
        h = sum(per_block[i * n_blocks:(i + 1) * n_blocks])
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
    slope, _, r2, se = _fit_line(ns, ys, var)
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

    The conditional mean reads the exact law of V . L_{n-1} (the point mass
    at 0 for n = 1) by exchangeability, see the module docstring; the
    prediction is the projection of P onto the dominating point of the
    window (interior mean, else nearer endpoint).
    """
    v = as_potential(constraint.potential, P.alphabet)
    lo, hi = _window(constraint)
    xi, log_probs = (np.zeros(1), np.zeros(1)) if n == 1 else _law_terms(P, v, n - 1)
    drawn = np.flatnonzero(P.weights > 0)
    # row j: is ((n - 1) xi_{n-1} + v_j) / n, the value after one more draw of j, inside?
    inside = in_window(((n - 1) * xi + v[drawn, None]) / n, lo, hi)
    log_joint = np.log(P.weights[drawn]) + np.array([_logsumexp(log_probs[row]) for row in inside])
    log_event = _logsumexp(log_joint)
    if math.isinf(log_event):
        raise EmptyEvent(f"no type class of n={n} satisfies {_describe(constraint)}")
    weights = np.zeros(P.size)
    weights[drawn] = np.exp(log_joint - log_event)
    mean = FiniteDistribution(P.alphabet, weights)
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
    conditioning of P on the extreme set of the potential.  The whole grid is
    one batch of projections (``tilting._project``), and each rate is the
    relative entropy of its row (``measures.relative_entropy``).
    """
    v = as_potential(potential, P.alphabet)
    xi = np.asarray(xi_grid, dtype=float)
    _, mus, _, end, _ = _project(P, v, xi, boundary=True)
    feasible = end != "out"
    rates = np.where(feasible, relative_entropy(mus, P.weights), math.inf)
    return [RatePoint(xi=float(x), rate=float(r), feasible=bool(f)) for x, r, f in zip(xi, rates, feasible)]


class ContractedRate:
    """Grid-level pushforward of a rate function: J(eta) = min I over the preimage."""

    def __init__(self, etas: np.ndarray, rates: np.ndarray):
        self.etas = etas
        self.rates = rates

    def __call__(self, eta: float) -> float:
        idx = np.flatnonzero(np.abs(self.etas - eta) <= XI_BAND)
        if idx.size == 0:
            raise EmptyPreimage(f"no grid point maps to {eta!r}")
        return float(self.rates[idx[0]])

    def items(self) -> list[tuple[float, float]]:
        return [(float(e), float(r)) for e, r in zip(self.etas, self.rates)]


def contract_rate(
    rate_points: Sequence[RatePoint],
    pushforward: Callable[[float], float],
) -> ContractedRate:
    """Push the rate grid through a map, taking the min rate per image value
    (image values within XI_BAND of each other count as one)."""
    etas = np.asarray([pushforward(p.xi) for p in rate_points], dtype=float)
    rates = np.asarray([p.rate for p in rate_points], dtype=float)
    order = np.argsort(etas, kind="stable")
    merged_e: list[float] = []
    merged_r: list[float] = []
    for e, r in zip(etas[order], rates[order]):
        if merged_e and abs(e - merged_e[-1]) <= XI_BAND:
            merged_r[-1] = min(merged_r[-1], float(r))
        else:
            merged_e.append(float(e))
            merged_r.append(float(r))
    return ContractedRate(np.asarray(merged_e), np.asarray(merged_r))
