"""Finite probability measures, losses, and Bayes decisions.

Conventions used throughout the package:

* every information quantity is in nats (natural logarithm);
* ``0 * ln 0 = 0``: sums restrict to the support of the left argument;
* alphabets are ordered and finite, so every claim is exactly enumerable;
* computed values are equal within ``_floor`` of their inputs, a k-term sum
  of products within k + 2 floors (Higham 2002, 3.1), so windows, groupings,
  lattices, ties (to the lowest index) and monotonicity are the same for V
  and 2^j V; literal tolerances compare only scale-free masses and variances;
* ``in_window`` is that band for means V . mu, in the window readers and in
  ``tilting.resolve_target``, where a point within it of a range end is that end.

All types are immutable after construction (weight vectors are read-only
numpy arrays), so they are safe to share across concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AbsoluteContinuityViolation, AlphabetMismatch

# Constructors renormalize inputs this close to unit mass and reject worse.
RENORMALIZE_TOLERANCE = 1e-9
# Post-construction normalization invariant.
NORM_TOLERANCE = 1e-12
# Computed values are equal, and a root is 0, within this many ulps of their largest input.
FLOOR_ULPS = 4


def _floor(values) -> float:
    """The float resolution of quantities made of ``values``: FLOOR_ULPS ulps of max |values|."""
    return FLOOR_ULPS * math.ulp(float(np.abs(values).max()))


def _band(v) -> float:
    """The float resolution of a computed mean V . mu over k atoms: (k + 2) ``_floor(v)``."""
    return (np.size(v) + 2) * _floor(v)


def in_window(x, lo: float, hi: float, v):
    """Whether x, computed means V . mu, lies in [lo, hi] widened by ``_band(v)``."""
    band = _band(v)
    return (x >= lo - band) & (x <= hi + band)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct opaque symbols, indexed 0..k-1."""

    symbols: tuple

    def __init__(self, symbols: Sequence):
        symbols = tuple(symbols)
        if len(symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @classmethod
    def of_size(cls, k: int) -> "Alphabet":
        return cls(tuple(range(k)))


def _check_keys(d: dict, keys: tuple[str, ...], what: str) -> None:
    """A serialized object reads exactly ``keys``: any other is a ValueError."""
    unread = sorted(map(str, set(d) - set(keys)))
    if unread:
        raise ValueError(f"{what} reads {', '.join(keys)}, not {', '.join(unread)}")


def _check_same_alphabet(a: Alphabet, b: Alphabet, what: str) -> None:
    if a.symbols != b.symbols:
        raise AlphabetMismatch(f"{what}: alphabets differ ({a.symbols} vs {b.symbols})")


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability vector over a finite alphabet.

    Weights are validated non-negative and renormalized when their sum is
    within 1e-9 of one; anything further off is rejected as a bug rather
    than silently scaled.
    """

    alphabet: Alphabet
    weights: np.ndarray

    def __init__(self, alphabet: Alphabet, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != (alphabet.size,):
            raise ValueError(f"weights must have length {alphabet.size}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > RENORMALIZE_TOLERANCE:
            raise ValueError(f"weights sum to {total!r}, further than {RENORMALIZE_TOLERANCE} from 1")
        if total == 0.0:
            raise ValueError("distribution must have non-empty support")
        # renormalize only outside NORM_TOLERANCE, so construction is
        # idempotent and copies stay bit-identical
        if abs(total - 1.0) > NORM_TOLERANCE:
            w = w / total
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def size(self) -> int:
        return self.alphabet.size

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive weight."""
        return np.flatnonzero(self.weights > 0.0)

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "FiniteDistribution":
        return cls(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))

    @classmethod
    def from_weights(cls, weights) -> "FiniteDistribution":
        """Distribution over the integer alphabet 0..k-1."""
        w = np.asarray(weights, dtype=float)
        return cls(Alphabet.of_size(w.shape[0]), w)

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteDistribution":
        _check_keys(d, ("alphabet", "weights"), "a measure")
        return cls(Alphabet(d["alphabet"]), d["weights"])


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """Loss values L(z, y) over prediction rows and label columns."""

    prediction_alphabet: Alphabet
    label_alphabet: Alphabet
    entries: np.ndarray

    def __init__(self, prediction_alphabet: Alphabet, label_alphabet: Alphabet, entries):
        e = np.asarray(entries, dtype=float)
        if e.shape != (prediction_alphabet.size, label_alphabet.size):
            raise ValueError(
                f"entries must be {prediction_alphabet.size}x{label_alphabet.size}, got {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("loss entries must be finite")
        if np.any(e < 0):
            raise ValueError("loss entries must be non-negative")
        object.__setattr__(self, "prediction_alphabet", prediction_alphabet)
        object.__setattr__(self, "label_alphabet", label_alphabet)
        object.__setattr__(self, "entries", _readonly(e))

    @classmethod
    def from_dict(cls, d: dict) -> "LossMatrix":
        _check_keys(d, ("prediction_alphabet", "label_alphabet", "entries"), "a loss matrix")
        return cls(Alphabet(d["prediction_alphabet"]), Alphabet(d["label_alphabet"]), d["entries"])


@dataclass(frozen=True)
class BayesDecision:
    """Risk-minimizing row index and its attained expected loss."""

    decision_index: int
    expected_loss: float


def as_potential(potential, alphabet: Alphabet) -> np.ndarray:
    """Coerce a loss row (a sequence of k finite reals) to a vector."""
    v = np.asarray(potential, dtype=float)
    if v.shape != (alphabet.size,):
        raise AlphabetMismatch(f"potential length {v.shape} does not match alphabet size {alphabet.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential values must be finite")
    return v


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------
def relative_entropy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_i p_i (ln p_i - ln q_i) over p_i > 0, in nats: one value for a
    weight vector p, one per row for a matrix of them (rows of NaN give 0).

    The log difference, not ln(p_i / q_i): the ratio overflows where q_i is
    subnormal.  Where q_i = 0 < p_i the value is +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    # Gibbs' inequality: clamp the tiny negative round-off of D(p || p)
    return np.maximum(terms.sum(axis=-1), 0.0)


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Relative entropy D(p || q) in nats (``relative_entropy``).

    Requires absolute continuity: support(p) must be contained in support(q).
    """
    _check_same_alphabet(p.alphabet, q.alphabet, "kl_divergence")
    pw, qw = p.weights, q.weights
    sup = pw > 0.0
    if np.any(qw[sup] == 0.0):
        bad = int(np.flatnonzero(sup & (qw == 0.0))[0])
        raise AbsoluteContinuityViolation(
            f"p has mass {pw[bad]!r} at index {bad} where q has none"
        )
    return float(relative_entropy(pw, qw))


def shannon_entropy(p: FiniteDistribution) -> float:
    """-sum p ln p in nats, in [0, ln k]."""
    w = p.weights[p.weights > 0.0]
    return max(float(-np.sum(w * np.log(w))), 0.0)


def total_variation(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Half the L1 distance; the universal closeness metric for measures here."""
    _check_same_alphabet(p.alphabet, q.alphabet, "total_variation")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


# ---------------------------------------------------------------------------
# Decision theory
# ---------------------------------------------------------------------------
def expected_loss(measure: FiniteDistribution, potential) -> float:
    """Linear functional sum_i V_i mu_i of a measure against a loss row."""
    v = as_potential(potential, measure.alphabet)
    return float(np.dot(v, measure.weights))


def bayes_classifier(posterior: FiniteDistribution, loss: LossMatrix) -> BayesDecision:
    """Row minimizing the posterior-expected loss, ties to the lowest index."""
    _check_same_alphabet(loss.label_alphabet, posterior.alphabet, "bayes_classifier")
    risks = loss.entries @ posterior.weights
    best = float(risks.min())
    idx = int(np.flatnonzero(risks <= best + (posterior.size + 2) * _floor(risks))[0])
    return BayesDecision(decision_index=idx, expected_loss=float(risks[idx]))
