"""Exact and Monte Carlo decay-rate measurements for empirical measures.

Everything here runs at desk scale.  The exact claims all read the law of
the expected loss xi = V . L_n of n i.i.d. draws, after P is pushed forward
onto the k distinct values of V on its support, by one of three methods:

- the meta law's type enumeration, C(n + k - 1, k - 1) compositions of n per n;
- on a lattice, values a + h m_j with integer m_j of span R = max m, the law
  of the lattice sum S_n = sum m_{X_i} from a linear-domain pass, one
  convolution per draw, (R + 1) (R N (N - 1) / 2 + N) terms to N draws
  (``_tilted_pass``: each of the kernel's R + 1 entries, zeros included,
  times each of the R i + 1 sums after i < N draws), tilted so that the
  mass near a chosen point never underflows.  Each pass is tilted by the
  multiplier of a window's dominating point (a point c is the window
  [c, c]; ``tilting.resolve_target`` alone finds it and decides if P reaches
  it).  A window reader (``sanov_exact``, ``gibbs_conditioning``) runs one
  pass for the whole n grid.  The law the meta pipeline fits on its window
  (``error_distribution_exact``), whose far end can lie thousands of nats
  below its near end, runs as many passes as it takes for each reachable sum
  of the window to keep a normal mass in one (``_lattice_window``);
- for a window reader, the type slab (``_slab_terms``): only the types near
  the window's dominating point, under the tilt of P there, about sqrt(n)
  of them per n at k = 3, with a bound on the window mass they leave out,
  checked against each mass read off them; a read the bound does not keep
  within _SLAB_TOLERANCE (an empty window, for one) reads the slab again
  without its box: the window's side of the type table, exact.

The window readers (``_window_laws``) run the pass where V takes four or more
distinct values on a lattice and it fits TABLE_CAP, else slabs.  The meta law
(``error_distribution_exact``) runs its passes where one fits and has fewer
terms than ENUMERATION_WEIGHT times the enumeration, or the enumeration is
over TABLE_CAP, else enumerates, and the enumeration refuses a table over
TABLE_CAP.  An irrational V (its lattice step is round-off, so R is huge)
never takes the pass.  TABLE_CAP bounds the terms of the enumeration, of
each pass, or of each slab.  One builder, ``_compositions``, expands the
types of the enumeration, of a slab and of the meta model grid; a type's
mean and log-probability are ``_type_means`` and ``_type_log_probs``.  A
window's Sanov probability is its mass under the law, and the conditional
mean given the window reads the law at n - 1 by exchangeability, the
p_j-weighted sum of the numerators being the denominator:

    E[L_n | W]_j = p_j P(((n - 1) xi_{n-1} + v_j) / n in W) / P(xi_n in W).

Both readers take a window's mass as a masked log-sum-exp over the unsorted,
ungrouped terms of the law (``_window_laws``); only ``error_distribution_exact``
sorts its terms and groups them by value, within ``in_window``'s band of V.

Decay rates are always estimated by regressing log P_n on n across a grid of
sample sizes: the polynomial prefactor of the exact probability contributes
O(log n), which the slope fit suppresses, while evaluating (1/n) log P_n at
a single n would not.  Monte Carlo blocks (``SeededSampler``) draw every count
of a trial by inversion (Devroye 1986, III.2-3) of the binomial cdf table of
the draws left, a later count off one flat layout of the tables of the block's
distinct draws-left values, or by ``Generator.binomial`` where those tables
would hold more entries than the block has trials, all in ``_draw_counts``,
which continues after any counts its caller holds.  ``sanov_monte_carlo``
counts hits, not counts: a trial's mean is monotone in its last conditional
count (``_sample_mean``), so with two or three symbols drawn a trial's verdict
is its last uniform against two cdf entries of its row, which one
``_HitReader`` per n and window keeps for all of that n's blocks.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyEvent, NumericalError, TableTooLarge
from .measures import Alphabet, FiniteDistribution, _band, _floor, as_potential, in_window, relative_entropy, total_variation
from .tilting import ConstraintSpec, TiltedDistribution, _project, _softmax, attainable_range, i_projection

TABLE_CAP = 10_000_000
# The meta law (``error_distribution_exact``), its only reader, counts a type-enumeration
# term as this many terms of the tilted lattice pass: on a 2-CPU x86-64 machine
# (numpy 2.4) a term of its enumeration read costs 70-115 ns at k = 3, n = 400-800
# and k = 4, n = 200, a pass term (one multiply-add of np.convolve) 0.6-1.5 ns.
# Any weight in [12, 30] picks the same method on every meta op of the benchmark.
ENUMERATION_WEIGHT = 20
_TILT_CAP = 746.0  # per lattice step; exp(-746) is 0, so a steeper tilt is the same pass
# A slab (``_slab_terms``) leaves out at most (2k - 1) e^-_SLAB_NATS of exp(-n I), I the
# window's rate, and a window read whose mass the slab's bound does not keep within
# _SLAB_TOLERANCE reads the slab again without its box.
_SLAB_NATS = 50.0
_SLAB_TOLERANCE = 1e-15
_MEAN_BLOCK = 1 << 20  # rows of a table of types whose means are formed at once
# Monte Carlo trials per sampling block.  Each block draws from its own
# stream, keyed by its index, so this size fixes every Monte Carlo output.
MC_BLOCK_SIZE = 65536
# Entries of binomial cdf tables the sampling cache keeps: the rows of at least 16 table-read
# counts of full blocks, whose rows sum to at most MC_BLOCK_SIZE entries each.
TABLE_CACHE_ENTRIES = 16 * MC_BLOCK_SIZE
WILSON_Z = 1.959963984540054  # 95% normal quantile
MIN_HITS = 10

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


def _compositions(n: int, k: int, ranges=None) -> list[np.ndarray]:
    """Count vectors of length k summing to n in lexicographic order, one array
    per part: every type class, or with ``ranges`` a slab.  Part by part, each
    row with r units left becomes a row per value 0..r of its next part, or
    lo..hi of ranges(j, counts so far, left); the last takes what is left.
    TableTooLarge when a level holds over TABLE_CAP rows, before it is built:
    only a slab can (``check_table_size`` sizes a full table first)."""
    counts, left = [], np.array([n], dtype=np.int64)
    for j in range(k - 1):
        lo, hi = (0, left) if ranges is None else ranges(j, counts, left)
        sizes = np.maximum(hi - lo + 1, 0).astype(np.int64)
        total = int(sizes.sum())
        if total > TABLE_CAP:
            raise TableTooLarge(f"type slab for k={k} distinct values, n={n} holds {total} types "
                                f"at level {j + 1} of {k - 1} (cap {TABLE_CAP})")
        starts = np.cumsum(sizes) - sizes - np.where(sizes > 0, lo, 0).astype(np.int64)
        part = np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
        counts, left = [np.repeat(c, sizes) for c in counts] + [part], np.repeat(left, sizes) - part
    return counts + [left]


def _type_means(counts: Sequence[np.ndarray], values: np.ndarray, n: int) -> np.ndarray:
    """V . L_n of each type (one count array per symbol): (counts / n) @ values, _MEAN_BLOCK rows at a time."""
    xi, block = np.empty(counts[0].size), np.empty((min(_MEAN_BLOCK, counts[0].size), len(counts)))
    for start in range(0, xi.size, _MEAN_BLOCK):
        rows = block[:xi.size - start]
        for j, c in enumerate(counts):
            np.divide(c[start:start + len(rows)], n, out=rows[:, j])
        np.matmul(rows, values, out=xi[start:start + len(rows)])
    return xi


def _type_log_probs(counts: Sequence[np.ndarray], weights: np.ndarray, n: int) -> np.ndarray:
    """Multinomial log-probability of each type, log n! + sum_j T_j[c_j] in symbol order, one
    gather per symbol from T_j[c] = c log p_j - log c!, tabled over the counts that occur."""
    terms = 0
    for log_p, column in zip(np.log(weights), counts):
        c = np.arange(int(column.min()), int(column.max()) + 1)
        table = np.empty(c[-1] + 1)  # read from c[0] on
        table[c[0]:] = log_p * c - np.array([math.lgamma(x + 1.0) for x in c.tolist()])
        terms = terms + table[column]
    return math.lgamma(n + 1.0) + terms


@dataclass(frozen=True, eq=False)
class TypeClassTable:
    """Exhaustive table of type classes with exact multinomial log-probabilities;
    ``counts`` has one column per symbol of positive weight."""

    counts: np.ndarray
    log_probs: np.ndarray

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def enumerate_types(P: FiniteDistribution, n: int) -> TypeClassTable:
    """The exact finite-n law of the empirical measure of P^n: every type, with its log-probability."""
    if n < 1:
        raise ValueError("sample size must be positive")
    drawn = P.weights > 0
    k = int(np.count_nonzero(drawn))
    check_table_size(k, n)
    counts = np.array(_compositions(n, k))  # one row per symbol; the table's counts are its transpose
    table = TypeClassTable(counts.T, _type_log_probs(counts, P.weights[drawn], n))
    log_mass = _logsumexp(table.log_probs)
    if not abs(log_mass) <= 1e-9:
        raise NumericalError(f"type-class probabilities sum to exp({log_mass:.3g}), not 1")
    return table


@dataclass(frozen=True, eq=False)
class ErrorDistribution:
    """Distribution of expected-loss values xi over a finite support.

    ``log_mass`` holds the log of each support value's mass up to a common
    shift (none for the exact law), finite at every support value, so a
    window far in the tail keeps its mass where the weights themselves would
    underflow; the fits solve on it, and ``probabilities`` normalizes it
    when first read.  ``lambda_eta`` and ``center`` are populated on fitted
    instances so the downstream MAP search can reuse the solved multiplier
    and, for the centered-square statistic, the self-consistent centering point.
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
    def probabilities(self) -> np.ndarray:
        return _softmax(self.log_mass)[0]

    def mean(self) -> float:
        return float(self.support @ self.probabilities)

    def variance(self) -> float:
        m = self.mean()
        return float((self.support - m) ** 2 @ self.probabilities)

    def weight_at(self, xi: float) -> float:
        idx = np.flatnonzero(np.abs(self.support - xi) <= _floor(self.support))
        if idx.size == 0:
            raise KeyError(f"{xi!r} is not a support point")
        return float(self.probabilities[idx[0]])


def _lattice(values: np.ndarray) -> tuple[float, float, np.ndarray] | None:
    """(a, h, m) with each value a + h m_j to within ``_floor(values)``, h > 0
    and the m_j >= 0 integers of gcd 1; None when the values all agree (one
    type class), their range overflows the float range, or some value is off
    that lattice.

    h is a float Euclid over the differences from the least value (fmod is
    exact, so only the noise in V enters), then the largest difference over
    its integer.  An irrational V leaves h near round-off and max m huge.
    """
    a = float(values.min())
    if not math.isfinite(float(values.max()) - a):
        return None
    d = values - a
    tol = _floor(values)
    h = 0.0
    for r in d.tolist():
        while r > tol:
            h, r = r, math.fmod(h, r)
    if h == 0.0:
        return None
    m = np.rint(d / h).astype(np.int64)
    h = float(d.max()) / int(m.max())
    return (a, h, m) if np.abs(d - m * h).max() <= tol else None


def _tilted_pass(weights: np.ndarray, m: np.ndarray, t: float, ns: Sequence[int]) -> list[np.ndarray]:
    """log P(S_n = s) for s = 0..n max(m) at each n of ns, S_n the sum of n
    i.i.d. draws of m_j with probability weights[j]; -inf where s is
    unreachable or its tilted mass is below the least normal float.

    One linear-domain pass, one ``np.convolve`` per draw with the weights
    tilted by t (|t| <= _TILT_CAP), q_j = p_j e^{t (m_j - c)} / Z_c, c = q . m.
    They sum to 1, so the array keeps mass 1 (NumericalError when it does
    not) and its peak near n c never underflows.  Each n is read on the way
    and un-tilted: log P(S_n = s) = log P_t(S_n = s) - t (s - n c) + n log Z_c.
    """
    t = min(max(t, -_TILT_CAP), _TILT_CAP)
    c = float(_softmax(np.log(weights) + t * m)[0] @ m)
    q, log_zc = _softmax(np.log(weights) + t * (m - c))
    kernel = np.bincount(m, weights=q)  # values of V within the band of each other share an index
    law, read = np.ones(1), {}
    with np.errstate(divide="ignore"):  # log 0 = -inf: unreachable, or a subnormal mass
        for n in range(1, max(ns) + 1):
            law = np.convolve(law, kernel)
            if n in ns:
                read[n] = np.log(law * (law >= np.finfo(float).tiny)) - t * (np.arange(law.size) - n * c) + n * log_zc
    total = float(law.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise NumericalError(f"tilted lattice-sum probabilities sum to {total:.3g}, not 1")
    return [read[n] for n in ns]


def _reachable(m: np.ndarray, n: int) -> np.ndarray:
    """Whether each s = 0..n max(m) is a sum of n draws of the m_j (min m = 0):
    a boolean pass on the bits of one integer, so no mass underflows."""
    steps, bits = [j for j in set(m.tolist()) if j], 1  # m_j = 0 keeps every bit
    for _ in range(n):
        shifted = bits
        for j in steps:
            shifted |= bits << j
        bits = shifted
    size = n * int(m.max()) + 1
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").astype(bool)


def _lattice_window(weights: np.ndarray, m: np.ndarray, n: int, inside: np.ndarray) -> np.ndarray:
    """log P(S_n = s) at each reachable sum s (``_reachable``: an underflowed
    mass never reads as unreachable) marked ``inside``, -inf at every other
    s; S_n the sum of n i.i.d. draws of m_j with probability weights[j].

    In rounds, each run of such sums that no pass has covered yet gets one
    ``_tilted_pass`` (of the size ``_pass_terms`` counts), tilted at the
    run's dominating point: every run of the round goes to one ``_project``
    as a window [first sum / n, last sum / n] of the mean of m, and a run
    that holds the mean m . p comes back with multiplier 0.  A sum reads the
    first pass that keeps a normal mass there; a round that covers none
    raises NumericalError.
    """
    wanted = np.flatnonzero(_reachable(m, n) & inside)
    log_p, todo = np.full(inside.size, -math.inf), wanted
    while todo.size:
        cuts = np.flatnonzero(np.diff(np.searchsorted(wanted, todo)) > 1)
        runs = (todo[np.append(0, cuts + 1)] / n, todo[np.append(cuts, -1)] / n)
        left = todo.size
        for lam in _project(np.log(weights), m.astype(float), runs, boundary=True)[0].tolist():
            [tilted] = _tilted_pass(weights, m, -lam, [n])
            covered = tilted[todo] > -math.inf
            log_p[todo[covered]] = tilted[todo[covered]]
            todo = todo[~covered]
        if todo.size == left:
            raise NumericalError(f"no tilted pass of n={n} draws keeps the mass at lattice sum {todo[0]}")
    return log_p


def _distinct_values(P: FiniteDistribution, potential, ns: Sequence[int]):
    """P pushed forward onto the distinct values of V on its support, in order
    of first occurrence, and the lattice of those values: (values, weights,
    ``_lattice(values)``).  ValueError for a sample size of ns below 1."""
    if min(ns) < 1:
        raise ValueError("sample size must be positive")
    v = as_potential(potential, P.alphabet)
    drawn = P.weights > 0
    values, first, inverse = np.unique(v[drawn], return_index=True, return_inverse=True)
    order = np.argsort(first)
    weights = np.bincount(np.argsort(order)[inverse], weights=P.weights[drawn])
    values = values[order]
    return values, weights, _lattice(values)


def _pass_terms(m: np.ndarray, n: int) -> int:
    """Multiply-adds of one ``_tilted_pass`` of n draws on the lattice indices m."""
    return (int(m.max()) + 1) * (int(m.max()) * n * (n - 1) // 2 + n)


def _slab_terms(values: np.ndarray, weights: np.ndarray, n: int, lam: float, band: float, box: bool = True):
    """(xi, log_probs, log_bound): the terms of the n-draw type classes that
    carry the mass of every window read whose dominating point c0 has
    multiplier lam, and the log of a bound on the mass of such a read that
    they leave out (-inf: none); TableTooLarge as ``_compositions`` builds them.

    P(type) = P*(type) B e^{lam (S - n c0)}, S = n xi, P* proportional to
    p e^{-lam V} and B = exp(n (log Z + lam c0)) = exp(-n I(c0)).  A window on
    the far side of c0 from the mean of P holds only types with
    lam (S - n c0) <= M: M is the spread of lam V in nats plus 1 (a ``gibbs``
    row's shift) plus n |lam| ``band`` (the band of ``in_window``).  The
    levels run over the least and the greatest value last.  Each conditional
    count lies in the Hoeffding range of its binomial under P* that leaves out
    e^-(T + M) on a side (T = _SLAB_NATS); the last one also in the strip
    -T - M <= lam (S - n c0) <= M, written in the products lam v_j, so the
    types kept do not move with the scale of V.  The box leaves out at most
    B e^-T per level and side it cuts, the strip B e^-(T + M).  lam = 0 is the
    box about P.  An infinite lam is P conditioned on the extreme value, one
    type, which leaves out the types holding another value within 2 n
    ``band`` of it.  With box=False each count runs over 0..left and only the
    strip's upper side, which no read crosses, cuts, so no mass of a read is
    left out: the window's side of the type table, all of it where lam is 0
    or infinite (read as 0).
    """
    k = values.size
    order = np.argsort(values, kind="stable")
    order = np.concatenate([order[1:-1], order[:1], order[-1:]]) if k > 1 else order
    lam = lam if box or math.isfinite(lam) else 0.0
    if math.isinf(lam):
        x = int(np.argmin(values) if lam > 0 else np.argmax(values))
        q_star, tilt, nats = (np.arange(k) == x).astype(float), None, 0.0
        gap = float(np.abs(np.delete(values, x) - values[x]).min(initial=math.inf))
        log_bound = math.log1p(-weights[x] ** n) if gap <= 2 * n * band else -math.inf
    else:
        tilt = lam * values
        q_star, log_z = _softmax(np.log(weights) - tilt)
        center = float(q_star @ tilt)
        m = float(tilt.max() - tilt.min()) + 1.0 + n * abs(lam) * band
        nats, floor, cut = _SLAB_NATS + m, -_SLAB_NATS - m if box else -math.inf, 0.0
        tilt = tilt[order]
    tails = np.cumsum(q_star[order][::-1])[::-1]
    q = np.divide(q_star[order], tails, out=np.zeros(k), where=tails > 0)

    def ranges(j, counts, left):  # counts[i] of order[i]
        nonlocal cut
        mean, h = left * q[j], np.sqrt(left * (nats / 2)) if box else math.inf
        lo, hi = np.maximum(np.ceil(mean - h), 0.0), np.minimum(np.floor(mean + h), left)
        if tilt is not None:
            cut += bool(np.any(lo > 0)) + bool(np.any(hi < left))
            if j == k - 2 and tilt[j] != tilt[j + 1]:  # c draws of this symbol put a type at base + c d nats
                base = sum(c * t for c, t in zip(counts, tilt)) + left * tilt[j + 1] - n * center
                d = float(tilt[j] - tilt[j + 1])
                cut += math.exp(-m) * bool(np.any((lo <= hi) & (base + np.minimum(lo * d, hi * d) < floor)))
                ends = np.sort([(floor - base) / d, (m - base) / d], axis=0)
                lo, hi = np.maximum(lo, np.ceil(ends[0])), np.minimum(hi, np.floor(ends[1]))
        return lo, hi

    counts = _compositions(n, k, ranges)
    if tilt is not None:
        log_bound = n * (float(log_z) + center) - _SLAB_NATS + math.log(cut) if cut else -math.inf
    counts = [counts[i] for i in np.argsort(order)]
    return _type_means(counts, values, n), _type_log_probs(counts, weights, n), log_bound


def _window_laws(P: FiniteDistribution, v: np.ndarray, lam: float, ns: Sequence[int], read):
    """For each n of ns, the value of read(n, xi, log_probs) -> (value, log_mass)
    on the unsorted, ungrouped terms of the law of V . L_n, for windows whose
    dominating point has multiplier lam.  Where V takes at least four distinct
    values on the support of P, on a lattice a + h m, and one pass to max(ns)
    sums at most TABLE_CAP terms: one term per lattice sum s of positive mass
    at xi = a + h s / n, all from one pass tilted by t = -lam h.  Else the
    terms of ``_slab_terms``, largest n first, as a slab grows with n: a grid
    over the cap is refused before any law is read.  A read whose log_mass the
    slab's bound does not keep within _SLAB_TOLERANCE (any bound, for a mass
    of 0: the slab cannot tell an empty window) reads the slab again without
    its box, which is exact, or raises its TableTooLarge.  On a 2-CPU x86-64
    machine (numpy 2.4) the slabs beat the pass at k <= 3 from n = 200 on and
    lose by under a millisecond below; at k = 4 the pass wins 5-150 times."""
    values, weights, lattice = _distinct_values(P, v, ns)
    if values.size >= 4 and lattice is not None and _pass_terms(lattice[2], max(ns)) <= TABLE_CAP:
        a, h, m = lattice
        for n, log_p in zip(ns, _tilted_pass(weights, m, -lam * h, ns)):
            s = np.flatnonzero(log_p > -math.inf)
            yield read(n, a + h * (s / n), log_p[s])[0]
        return
    band, laws = _band(v), {}
    for n in sorted(set(ns), reverse=True):
        xi, log_probs, log_bound = _slab_terms(values, weights, n, lam, band)
        laws[n], log_mass = read(n, xi, log_probs)
        if log_bound > log_mass + math.log(_SLAB_TOLERANCE):
            laws[n] = read(n, *_slab_terms(values, weights, n, lam, band, box=False)[:2])[0]
    yield from (laws[n] for n in ns)


def error_distribution_exact(
    P: FiniteDistribution, potential, n: int, window: tuple[float, float] = (-math.inf, math.inf)
) -> ErrorDistribution:
    """Exact law of V . L_n conditioned on the window [lo, hi] (default: none),
    the law the meta pipeline fits, sorted by xi and grouped.  EmptyEvent when
    the window holds no mass.

    On a lattice a + h m, where one pass of n draws (``_pass_terms``) fits
    TABLE_CAP and either sums fewer terms than ENUMERATION_WEIGHT times the
    type table or the table is over TABLE_CAP, the terms are the masses of
    ``_lattice_window``, one per reachable lattice sum s in the window, at
    xi = a + h s / n.  Else they are the types of ``enumerate_types`` inside
    the window, and a table over TABLE_CAP is its TableTooLarge.

    The support holds the values of positive probability (values within the
    band of ``in_window`` of their neighbour count as one).  Each value's log
    mass is a log-sum-exp over its group, shifted by the group's largest
    log-probability, so no group's mass underflows.  Only this law sorts and
    groups: a reader of one window's mass (``sanov_exact``,
    ``gibbs_conditioning``) masks the ungrouped terms instead.
    """
    lo, hi = window
    values, weights, lattice = _distinct_values(P, potential, [n])
    terms = math.inf if lattice is None else _pass_terms(lattice[2], n)
    table = table_size(values.size, n)
    if terms <= TABLE_CAP and (terms < ENUMERATION_WEIGHT * table or table > TABLE_CAP):
        a, h, m = lattice
        xi = a + h * (np.arange(n * int(m.max()) + 1) / n)
        log_probs = _lattice_window(weights, m, n, in_window(xi, lo, hi, values))
        s = np.flatnonzero(log_probs > -math.inf)
        xi, log_probs = xi[s], log_probs[s]
    else:
        types = enumerate_types(FiniteDistribution(Alphabet.of_size(values.size), weights), n)
        xi, log_probs = _type_means(types.counts.T, values, n), types.log_probs
        del types
        inside = in_window(xi, lo, hi, values)
        xi, log_probs = xi[inside], log_probs[inside]
    if xi.size == 0:
        raise EmptyEvent(f"no error-value mass inside [{lo!r}, {hi!r}]")
    order = np.argsort(xi, kind="stable")
    xi, log_probs = xi[order], log_probs[order]
    del order
    starts = np.concatenate(([True], np.diff(xi) > _band(values)))
    group_ids = np.cumsum(starts) - 1
    heads = np.flatnonzero(starts)
    shift = np.maximum.reduceat(log_probs, heads)
    log_mass = shift + np.log(np.bincount(group_ids, weights=np.exp(log_probs - shift[group_ids])))
    return ErrorDistribution(support=xi[heads], log_mass=log_mass - _logsumexp(log_mass))


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

    Returns (slope, intercept, r2, slope_se); NaNs for fewer than 2 distinct
    x values, tested as such: the weighted mean of equal x can be off by an ulp.
    """
    m = x.size
    if np.unique(x).size < 2:
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


def _held_window(P: FiniteDistribution, v: np.ndarray, constraint: ConstraintSpec) -> tuple[float, float]:
    """The window the readers hold computed means to (``in_window``): the constraint's,
    clipped to the attainable range of V, so an end past a range end is that end, as
    ``resolve_target`` takes a point within the band past it for that end."""
    lo, hi = np.clip(constraint.target, *attainable_range(P, v)).tolist()
    return lo, hi


def _describe(constraint: ConstraintSpec) -> str:
    lo, hi = constraint.target
    if lo == hi:
        return f"V.mu = {lo!r}"
    return f"V.mu in [{lo!r}, {hi!r}]"


def sanov_exact(
    P: FiniteDistribution, constraint: ConstraintSpec, n_grid: Sequence[int]
) -> RateEstimate:
    """Exact decay rate of P^n(V . L_n in window): the mass of the window
    under the exact law of V . L_n at each n.

    One I-projection serves the analytic rate and tilts the one lattice pass
    or centres the slabs (``_window_laws``); a window out of reach raises
    there.  Sample sizes whose event is empty (parity infeasibility) are
    reported and excluded from the regression.
    """
    v = as_potential(constraint.potential, P.alphabet)
    tilt, analytic_rate = i_projection(P, constraint)
    lo, hi = _held_window(P, v, constraint)

    def read(n, xi, log_probs):
        log_p = _logsumexp(log_probs[in_window(xi, lo, hi, v)])
        return log_p, log_p

    logs = list(_window_laws(P, v, tilt.lam, [int(n) for n in n_grid], read))
    finite = np.isfinite(logs)
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


def _table_range(n, q: float):
    """(lo, hi) = nq -+ ceil(sqrt(372.5 n)) within 0..n, elementwise for an array of n:
    outside it, by Hoeffding, Bin(n, q) leaves mass below exp(-745), i.e. 0."""
    h, mid = np.ceil(np.sqrt(372.5 * n)).astype(np.int64), np.floor(n * q).astype(np.int64)
    return np.maximum(mid - h, 0), np.minimum(mid + h, n)


def _inverse_table(n: int, q: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(offset, cdf, guide) of Bin(n, q), 0 < q < 1, over ``_table_range``, from log pmf
    steps summed outward from the mode.  guide[i], i = 0..K with K + 1 = len(guide) a power of
    two plus one, is the first index whose cdf exceeds i / K, and at most the first whose cdf is
    1.0, so a u in [i / K, (i + 1) / K) inverts to an index in guide[i]..guide[i + 1]."""
    lo, hi = _table_range(n, q)
    if hi - lo + 1 > TABLE_CAP:
        raise TableTooLarge(f"binomial table for n={n} needs {hi - lo + 1} entries (cap {TABLE_CAP})")
    x = np.arange(lo, hi, dtype=float)
    steps = np.log(n - x) - np.log1p(x) + (math.log(q) - math.log1p(-q))
    mode = min(math.floor((n + 1) * q), hi) - lo
    pmf = np.exp(np.concatenate([-np.cumsum(steps[:mode][::-1])[::-1], [0.0], np.cumsum(steps[mode:])]))
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    K = 1 << (len(cdf) - 1).bit_length()
    guide = np.minimum(np.searchsorted(cdf, np.arange(K + 1) / K, side="right"), np.searchsorted(cdf, 1.0))
    return lo, cdf, guide


def _inverse_binomial(tables: Sequence[tuple], which, u: np.ndarray) -> np.ndarray:
    """Bin(n_i, q) by inversion of each u_i: offset + searchsorted(cdf, u_i, side="right") on
    ``tables[which_i]``, the ``_inverse_table`` row of n_i (``which`` an index array, or 0
    for one row).

    The rows are one flat layout, their cdfs and their guides concatenated, each guide's
    steps shifted to index the joint cdf, read by whole-array gathers.  A u left below its
    answer by a guide cell of several steps is found by a bisection within that cell, for
    all such u at once.
    """
    offsets, cdfs, guides = zip(*tables)
    sizes, cells = np.array([len(c) for c in cdfs]), np.array([len(g) - 1 for g in guides])
    starts, cell_starts = np.cumsum(sizes) - sizes, np.cumsum(cells + 1) - cells - 1
    cdf, guide = np.concatenate(cdfs), np.concatenate(guides) + np.repeat(starts, cells + 1)
    x = (u * np.take(cells.astype(float), which)).astype(np.intp)  # u K is exact
    x += np.take(cell_starts, which)
    x = np.take(guide, x)
    x += u >= np.take(cdf, x)  # the answer, unless its cell has several steps and it lies past x
    several = np.flatnonzero(u >= np.take(cdf, x))
    row, v = np.broadcast_to(which, u.shape)[several], u[several]
    lo, hi = x[several] + 1, guide[(v * cells[row]).astype(np.intp) + cell_starts[row] + 1]
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):  # the first cdf > v in lo..hi
        mid = (lo + hi) // 2
        above = v >= cdf[mid]
        lo, hi = np.where(above, mid + 1, lo), np.where(above, hi, mid)
    x[several] = lo
    x += np.take(np.array(offsets) - starts, which)
    return x


class _TableCache:
    """The ``_inverse_table`` rows read last, least recently used out once they hold more
    than TABLE_CACHE_ENTRIES entries together (at most 24 B each: cdf and under two guide
    entries), so the cache keeps at most 24 MB of tables, or only the row read last
    where that row alone is wider, besides each row's array headers."""

    def __init__(self):
        self.rows: OrderedDict = OrderedDict()
        self.entries = 0
        self.lock = threading.Lock()

    def __call__(self, n: int, q: float) -> tuple[int, np.ndarray, np.ndarray]:
        with self.lock:
            if (n, q) in self.rows:
                self.rows.move_to_end((n, q))
                return self.rows[n, q]
        row = _inverse_table(n, q)
        with self.lock:
            if (n, q) not in self.rows:
                self.rows[n, q] = row
                self.entries += len(row[1])
                while self.entries > TABLE_CACHE_ENTRIES and len(self.rows) > 1:
                    self.entries -= len(self.rows.popitem(last=False)[1][1])
        return row


_TABLES = _TableCache()


def _later_tables(left: np.ndarray, q: float):
    """(tables, which) for a later count Bin(left_i, q) of ``_draw_counts``, the one function
    that draws a block's counts: the ``_inverse_table`` rows of the block's distinct
    draws-left values and each trial's row index; None where ``_over_budget`` rules those
    values out.  Its block-size temporaries go when it returns, before the count is drawn."""
    base = int(left.min())
    shifted = left - base
    seen = np.bincount(shifted) > 0
    rows = np.flatnonzero(seen) + base
    if _over_budget(rows, q, left.size):
        return None
    return [_TABLES(m, q) for m in rows.tolist()], np.take(np.cumsum(seen) - 1, shifted)


def _over_budget(rows: np.ndarray, q: float, trials: int) -> bool:
    """Whether the ``_inverse_table`` rows of Bin(m, q), m in rows, hold more entries than a
    block's trials.  Timed on full k = 3 blocks at n = 160-3000, three P (2-CPU x86-64, numpy
    2.4), tables of W entries break even with Generator.binomial on T trials at W = 0.5-1.1 T
    in a block that builds them, at W = 2-3 T in one that finds them cached; W = T sits between."""
    lo, hi = _table_range(rows, q)
    return int((hi - lo + 1).sum()) > trials


def _draw_counts(gen: np.random.Generator, n: int, q: np.ndarray, trials: int, counts=(), plan=None) -> list:
    """The count vectors of a block's drawn symbols (q_j of ``SeededSampler._start``), drawn
    on after ``counts``, the caller's counts of the first of them; the last takes the draws
    left.  Each other is Bin(draws left, q_j), one ``gen.random`` value per trial inverted
    (``_inverse_binomial``) on the table of (n, q_0) for a block's first count, on
    ``_later_tables`` for a later one, or ``Generator.binomial`` where that is None; a caller
    holding counts passes the next one's ``plan``, None where it found its tables over budget."""
    counts, start = list(counts), len(counts)
    left = reduce(np.subtract, counts, n)  # n itself before a block's first count
    for j in range(start, len(q) - 1):
        if j == 0 or j > start:
            plan = ([_TABLES(n, q[0])], 0) if j == 0 else _later_tables(left, q[j])
        counts.append(gen.binomial(left, q[j]) if plan is None else _inverse_binomial(*plan, gen.random(trials)))
        plan = None  # its row indices, a block-size array, go before the next one is made
        left = left - counts[-1]
    return counts + [np.broadcast_to(left, trials)]  # with one symbol drawn, a view of n


def _sample_mean(n: int, v: np.ndarray, drawn: np.ndarray, counts) -> np.ndarray:
    """V . L_n of the count vectors of the drawn symbols j_0 < ... < j_{r-1} (``_draw_counts``):
    with c = counts[-2] of a = j_{r-2} and m = c + counts[-1] of a and b = j_{r-1} (a = b and
    c = 0 where r = 1), it is B + (c / n) (v_a - v_b), B = sum_{i < r - 2} (counts[i] / n) v_{j_i}
    + (m / n) v_b summed left to right: each count is divided by n before its product, and at
    fixed B the value is monotone in c, as rounding is (Higham 2002, 2.1), so the counts c
    of one B whose vectors pass ``in_window`` are one run.  Each term is formed in one
    scratch row: a block's mean makes two block-size arrays, not one per operation.
    """
    a, b = v[drawn[-2:]][[0, -1]]
    c = counts[-2] if len(counts) > 1 else 0
    mean, term = 0, np.empty(len(counts[-1]))
    for j, count in zip(drawn, counts[:-2]):
        mean += np.multiply(np.divide(count, n, out=term), v[j], out=term)
    np.add(counts[-1], c, out=term)  # m, rounded to a float once, as m / n rounds it
    mean += np.multiply(np.divide(term, n, out=term), b, out=term)
    mean += np.multiply(np.divide(c, n, out=term), a - b, out=term)
    return mean


def _hit_bounds(n: int, v: np.ndarray, drawn: np.ndarray, rows: list[int], q: float, lo: float, hi: float):
    """Per ``_inverse_table`` row of Bin(m, q), m in rows (draws left m for the last two of
    at most three drawn symbols, the first taking n - m), the uniforms [lower, upper) whose
    inversion on that row is a count whose vector's mean (``_sample_mean``) is in the window.

    Every candidate count of every row (one flat layout, as ``_inverse_binomial`` reads)
    gets its mean.  The count at index i of its row is drawn for u in [cdf[i - 1], cdf[i])
    (cdf[i - 1] read as 0 at i = 0), and a row's hits are one run, so they are the u from
    below its first hit to the cdf of its last; a row with no hit reads [0, 0).
    """
    offsets, cdfs, _ = zip(*(_TABLES(m, q) for m in rows))
    sizes = np.array([len(c) for c in cdfs])
    starts = np.cumsum(sizes) - sizes
    cdf = np.concatenate(cdfs)
    row = np.repeat(np.arange(len(rows)), sizes)
    m = np.array(rows)[row]
    count = np.arange(cdf.size) - (starts - np.array(offsets))[row]
    first = [n - m] if len(drawn) == 3 else []
    hit = in_window(_sample_mean(n, v, drawn, first + [count, m - count]), lo, hi, v)
    below = np.concatenate(([0.0], cdf[:-1]))
    below[starts] = 0.0
    upper = np.maximum.reduceat(np.where(hit, cdf, 0.0), starts)
    return np.minimum(np.minimum.reduceat(np.where(hit, below, 1.0), starts), upper), upper


_BUFFERS: list = []  # block arrays (u, bound, cell, idx) not in use, kept across samplers as _TABLES is


class _HitReader:
    """What ``SeededSampler.window_hits`` reads the blocks of one n and window off, two or
    three symbols drawn: the draws left m for the last two (``rows``: n, or n - c by table
    index of the first count c) and each row's [lower, upper) of ``_hit_bounds``, filled in
    as blocks first draw that row.  A first count is the index of the first cdf entry of its
    table above its uniform u (Chen & Asau 1974): cell floor(u K) of ``guide`` (K >= 16 per
    entry, to 2^18) holds it, or -1 where a cdf entry lies inside the cell and u is searched.
    Blocks hand their arrays on (``_BUFFERS``), so one in steady state maps no new memory; a
    block whose last count falls to Generator.binomial continues in ``_draw_counts``."""

    def __init__(self, n: int, v: np.ndarray, drawn: np.ndarray, q: np.ndarray, lo: float, hi: float):
        self.n, self.v, self.drawn, self.q, self.window, self.rows = n, v, drawn, q, (lo, hi), np.array([n])
        if len(drawn) == 3:
            offset, self.cdf, _ = _TABLES(n, q[0])
            self.rows = n - offset - np.arange(len(self.cdf))
            edges = np.arange((cells := 1 << min((16 * len(self.cdf)).bit_length(), 18)) + 1) / cells
            first = np.searchsorted(self.cdf, edges[:-1], side="right")
            self.guide = np.where(np.searchsorted(self.cdf, edges[1:]) > first, -1, first)
        self.lower, self.upper = np.zeros((2, self.rows.size))
        self.filled, self.lock = np.zeros(self.rows.size, dtype=bool), threading.Lock()

    def hits(self, gen: np.random.Generator, trials: int) -> int:
        try:
            buffers = _BUFFERS.pop()
        except IndexError:  # none made yet, or every one in use
            buffers = [np.empty(0)]
        if len(buffers[0]) < trials:
            buffers = [np.empty(max(trials, MC_BLOCK_SIZE), dtype=t) for t in (float, float, np.intp, np.intp)]
        u, bound, cell, idx = (b[:trials] for b in buffers)
        try:
            gen.random(out=u)
            seen = np.ones(1, dtype=bool)
            if len(self.drawn) == 3:
                np.copyto(cell, np.multiply(u, len(self.guide), out=bound), casting="unsafe")  # floor(u K), u K exact
                np.take(self.guide, cell, out=idx, mode="clip")  # every cell is in range; "raise" would copy
                split = np.flatnonzero(idx < 0)
                idx[split] = np.searchsorted(self.cdf, u[split], side="right")
                seen = np.zeros(self.rows.size, dtype=bool)
                seen[idx] = True
                if _over_budget(self.rows[seen], self.q[1], trials):
                    counts = _draw_counts(gen, self.n, self.q, trials, [idx + (self.n - self.rows[0])], plan=None)
                    mean = _sample_mean(self.n, self.v, self.drawn, counts)
                    return int(np.count_nonzero(in_window(mean, *self.window, self.v)))
                gen.random(out=u)
            with self.lock:
                new = np.flatnonzero(seen & ~self.filled)
                if new.size:
                    bounds = _hit_bounds(self.n, self.v, self.drawn, self.rows[new].tolist(), self.q[-2], *self.window)
                    self.lower[new], self.upper[new] = bounds
                    self.filled[new] = True
            if len(self.drawn) == 2:
                return int(np.count_nonzero(u < self.upper[0])) - int(np.count_nonzero(u < self.lower[0]))
            hits = int(np.count_nonzero(u < np.take(self.upper, idx, out=bound, mode="clip")))
            return hits - int(np.count_nonzero(u < np.take(self.lower, idx, out=bound, mode="clip")))
        finally:
            _BUFFERS.append(buffers)


@dataclass(frozen=True)
class SeededSampler:
    """Deterministic counter-based sampling streams.

    Each Monte Carlo block draws from its own stream, keyed by (seed, n,
    block index) through a SeedSequence spawn key feeding a Philox
    generator, so identical draws are bit-identical across runs and across
    any parallel schedule.  Only the symbols of positive weight are drawn,
    up to the first whose q_j = p_j / sum_{i >= j} p_i is 1.0: it takes every
    draw left, the weights after it being below its float resolution.
    Each count but the last is Bin(draws left, q_j), drawn by ``_draw_counts``:
    by inversion of one ``gen.random`` value per trial on the table of (n, p_0)
    for the first, on the tables of the block's distinct draws-left values for
    each later one, unless ``_over_budget`` rules them out and
    ``Generator.binomial`` draws it.  One cache (``_TABLES``) keeps the tables
    across blocks and samplers.  ``multinomial_block`` returns a block's count
    vectors; ``window_hits`` how many have their mean in a window, with two or
    three symbols drawn read off the ``_HitReader`` the sampler keeps per n.
    """

    seed: int
    base: FiniteDistribution
    _readers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit non-negative integer")

    def _start(self, n: int, block_index: int):
        """(gen, drawn, q): the Philox generator of a block, the drawn symbols, their q_j."""
        if n >= 2 ** 63:  # checked before numpy converts n to a C integer
            raise TableTooLarge(f"counts of n={n} draws overflow the 64-bit count table")
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(0, _STREAM_SANOV, n, block_index))
        drawn = np.flatnonzero(self.base.weights > 0)
        weights = self.base.weights[drawn]
        q = weights / np.cumsum(weights[::-1])[::-1]
        size = int(np.argmax(q == 1.0)) + 1  # q[-1] is w / w = 1.0
        return np.random.Generator(np.random.Philox(seq)), drawn[:size], q[:size]

    def multinomial_block(self, n: int, block_index: int, block_trials: int) -> np.ndarray:
        """The (trials, k) count matrix of a block, its drawn columns ``_draw_counts``'s."""
        gen, drawn, q = self._start(n, block_index)
        matrix = np.zeros((block_trials, self.base.size), dtype=np.int64)
        for j, count in zip(drawn, _draw_counts(gen, n, q, block_trials)):
            matrix[:, j] = count
        return matrix

    def window_hits(self, n: int, block_index: int, block_trials: int, lo: float, hi: float, v: np.ndarray) -> int:
        """How many count vectors of ``multinomial_block(n, block_index, block_trials)`` have
        a mean V . L_n (``_sample_mean``) that passes ``in_window(., lo, hi, v)``.  With two
        or three symbols drawn, a trial of the ``_HitReader`` of (n, window) hits when its last
        uniform lies in its row's [lower, upper), unless ``_over_budget`` sends the block's last
        count to ``Generator.binomial``; else ``_draw_counts`` draws each vector, and it is tested."""
        gen, drawn, q = self._start(n, block_index)
        if len(drawn) in (2, 3):
            key = (n, lo, hi, v.tobytes())
            reader = self._readers.get(key) or self._readers.setdefault(key, _HitReader(n, v, drawn, q, lo, hi))
            return reader.hits(gen, block_trials)
        counts = _draw_counts(gen, n, q, block_trials)
        return int(np.count_nonzero(in_window(_sample_mean(n, v, drawn, counts), lo, hi, v)))


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

    The analytic rate is the I-projection's, found before anything is drawn
    (a window out of reach raises there).  Hit frequencies come with Wilson
    95% intervals; the slope fit weights each point by the inverse
    delta-method variance of log p-hat.  Sample sizes with fewer than
    MIN_HITS observed hits are flagged and excluded from the fit.
    """
    check_trials(trials)
    if threads < 1:
        raise ValueError(f"need at least 1 thread, got {threads!r}")
    P = sampler.base
    v = as_potential(constraint.potential, P.alphabet)
    analytic_rate = i_projection(P, constraint)[1]
    lo, hi = _held_window(P, v, constraint)
    if not math.isfinite(float(v.max()) - float(v.min())):
        # halved, every v_a - v_b of ``_sample_mean`` is finite; a power of two moves no verdict
        v, lo, hi = v / 2, lo / 2, hi / 2

    n_blocks = (trials + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE

    def block_hits(block: tuple[int, int]) -> int:
        n, b = block
        return sampler.window_hits(n, b, min(MC_BLOCK_SIZE, trials - b * MC_BLOCK_SIZE), lo, hi, v)

    # one pool for every block of every n: each block's stream is keyed by
    # (n, b), so the hit counts do not depend on the schedule
    blocks = [(int(n), b) for n in n_grid for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
        per_block = list(pool.map(block_hits, blocks))

    hits = [sum(per_block[i * n_blocks:(i + 1) * n_blocks]) for i in range(len(n_grid))]
    logs, ci_lo, ci_hi = [], [], []
    for h in hits:
        phat = h / trials
        w_lo, w_hi = _wilson_interval(h, trials)
        logs.append(math.log(phat) if h > 0 else -math.inf)
        ci_lo.append(math.log(w_lo) if w_lo > 0 else -math.inf)
        ci_hi.append(math.log(w_hi) if w_hi > 0 else -math.inf)

    usable = [i for i, h in enumerate(hits) if h >= MIN_HITS]
    phat = np.array(hits)[usable] / trials
    ns, ys = np.asarray(n_grid, dtype=float)[usable], np.asarray(logs)[usable]
    slope, _, r2, se = _fit_line(ns, ys, (1.0 - phat) / (trials * phat))
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
        insufficient_ns=tuple(int(n) for n, h in zip(n_grid, hits) if h < MIN_HITS),
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
    P: FiniteDistribution, constraint: ConstraintSpec, n_grid: Sequence[int]
) -> list[ConditioningResult]:
    """Exact E[L_n | V . L_n in window] versus the minimum-KL tilt, one result
    per n of n_grid.

    The conditional mean reads the exact law of V . L_{n-1} (the point mass
    at 0 for n = 1) by exchangeability, see the module docstring; the
    prediction is the I-projection of P onto the window (``i_projection``:
    onto its dominating point), whose multiplier tilts the one lattice pass
    or centres the slabs (``_window_laws``), whose bound is checked against
    the event's mass.
    """
    v = as_potential(constraint.potential, P.alphabet)
    predicted, _ = i_projection(P, constraint)
    lo, hi = _held_window(P, v, constraint)
    drawn = np.flatnonzero(P.weights > 0)

    def read(m, xi, log_probs):  # the law of m = n - 1 draws
        # row j: is (m xi_m + v_j) / n, the value after one more draw of j, inside?
        inside = in_window(m / (m + 1) * xi + v[drawn, None] / (m + 1), lo, hi, v)
        log_joint = np.log(P.weights[drawn]) + np.array([_logsumexp(log_probs[row]) for row in inside])
        return log_joint, _logsumexp(log_joint)

    laws = _window_laws(P, v, predicted.lam, [int(n) - 1 for n in n_grid if n != 1], read)
    results = []
    for n in n_grid:
        log_joint = read(0, np.zeros(1), np.zeros(1))[0] if n == 1 else next(laws)
        log_event = _logsumexp(log_joint)
        if math.isinf(log_event):
            raise EmptyEvent(f"no type class of n={n} satisfies {_describe(constraint)}")
        weights = np.zeros(P.size)
        weights[drawn] = np.exp(log_joint - log_event)
        mean = FiniteDistribution(P.alphabet, weights)
        results.append(ConditioningResult(constraint.target, int(n), mean, predicted, total_variation(mean, predicted.realized)))
    return results


class RatePoint(NamedTuple):
    """One grid evaluation of the error rate function, a tuple: its CSV row."""

    xi: float
    rate: float
    feasible: bool


def error_rate_function(
    P: FiniteDistribution, potential, xi_grid: Sequence[float] | int
) -> list[RatePoint]:
    """Rate function of expected-loss values: I(xi) = min KL over {V . mu = xi},
    on the points of ``xi_grid``, or on that many points evenly spaced over
    the attainable range of V when it is an int.

    Grid points outside the attainable range are reported infeasible with
    rate +inf (the empty-set infimum); boundary points resolve to the
    conditioning of P on the extreme set of the potential.  The whole grid is
    one batch of projections (``tilting._project``), one row of P's size per
    point, TableTooLarge past TABLE_CAP entries before any is allocated; each
    rate is the relative entropy of its row (``measures.relative_entropy``),
    and the points are built off the batch's ``tolist`` columns.
    """
    v = as_potential(potential, P.alphabet)
    spaced = isinstance(xi_grid, int)
    size = (xi_grid if spaced else len(xi_grid)) * P.size
    if size > TABLE_CAP:
        raise TableTooLarge(f"rate grid of {size // P.size} points needs {size} entries (cap {TABLE_CAP})")
    xi = np.linspace(*attainable_range(P, v), xi_grid) if spaced else np.asarray(xi_grid, dtype=float)
    _, mus, _, end, _ = _project(P, v, xi, boundary=True)
    feasible = end != "out"
    rates = np.where(feasible, relative_entropy(mus, P.weights), math.inf)
    return list(map(RatePoint, xi.tolist(), rates.tolist(), feasible.tolist()))
