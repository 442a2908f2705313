"""Independent reference computations for checking maxent-bayes outputs.

Nothing here imports maxent_bayes. Exact laws of S_n = n V.L_n come from a
log-domain lattice recursion (integer potentials) or from direct type
enumeration over an index grid (k = 3), the binomial tail comes from
scipy.stats, KL projections and rate functions from the Legendre dual solved
by vectorised bisection, and general-divergence projections from SLSQP.
scipy is used here only as an oracle; the benchmark never times this module.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats
from scipy.special import logsumexp

# Same slack the library documents for "type mean j/n lies in a float window".
MEMBERSHIP_TOL = 1e-12


def log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def in_window(xi: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (xi >= lo - MEMBERSHIP_TOL) & (xi <= hi + MEMBERSHIP_TOL)


# ---------------------------------------------------------------------------
# Exact laws of the empirical mean V.L_n
# ---------------------------------------------------------------------------
def lattice_log_laws(p, ints, n_values) -> dict[int, np.ndarray]:
    """log P(S_n = s), s = 0..n*max(ints), for S_n a sum of n i.i.d. ints[X].

    One pass of log P_n(s) = logsumexp_j [log p_j + log P_{n-1}(s - ints_j)]
    yields every requested n.
    """
    ints = [int(d) for d in ints]
    if min(ints) < 0:
        raise ValueError("lattice offsets must be non-negative")
    log_p = np.log(np.asarray(p, dtype=float))
    wanted = {int(n) for n in n_values}
    cur = np.zeros(1)
    out = {}
    for step in range(1, max(wanted) + 1):
        new = np.full(cur.size + max(ints), -np.inf)
        for lp, d in zip(log_p, ints):
            seg = new[d : d + cur.size]
            np.logaddexp(seg, cur + lp, out=seg)
        cur = new
        if step in wanted:
            out[step] = cur.copy()
    return out


def type_table(p, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All count vectors of n draws over k <= 3 symbols with exact log-probs."""
    p = np.asarray(p, dtype=float)
    k = p.size
    lf = log_factorials(n)
    if k == 2:
        c1 = np.arange(n + 1)
        counts = np.column_stack([n - c1, c1])
    elif k == 3:
        c1, c2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = (c1 + c2) <= n
        c1, c2 = c1[keep], c2[keep]
        counts = np.column_stack([c1, c2, n - c1 - c2])
    else:
        raise ValueError("type enumeration oracle covers k <= 3 only")
    logp = lf[n] - lf[counts].sum(axis=1) + counts @ np.log(p)
    return counts, logp


class Law:
    """Exact law of xi = V.L_n: sorted distinct values and their log-probs."""

    def __init__(self, xi: np.ndarray, logp: np.ndarray):
        keep = np.isfinite(logp)
        order = np.argsort(xi[keep], kind="stable")
        self.xi = xi[keep][order]
        self.logp = logp[keep][order]

    def log_prob(self, lo: float, hi: float) -> float:
        sel = self.logp[in_window(self.xi, lo, hi)]
        return float(logsumexp(sel)) if sel.size else -math.inf

    def restrict(self, lo: float, hi: float) -> "Law":
        m = in_window(self.xi, lo, hi)
        return Law(self.xi[m], self.logp[m] - logsumexp(self.logp[m]))

    def moments(self) -> tuple[float, float, float]:
        w = np.exp(self.logp)
        mass = float(w.sum())
        mean = float(w @ self.xi) / mass
        var = float(w @ (self.xi - mean) ** 2) / mass
        return mass, mean, var


def exact_law(p, v, n: int, lattice) -> Law:
    """Law of V.L_n. ``lattice`` is (a, h, ints) with v = a + h*ints, or None."""
    if lattice is not None:
        a, h, ints = lattice
        logp = lattice_log_laws(p, ints, [n])[n]
        return Law(a + h * np.arange(logp.size) / n, logp)
    counts, logp = type_table(p, n)
    xi = counts @ np.asarray(v, dtype=float) / n
    order = np.argsort(xi, kind="stable")
    xi, logp = xi[order], logp[order]
    # merge values closer than the membership slack, as a chain
    starts = np.concatenate([[0], np.flatnonzero(np.diff(xi) > MEMBERSHIP_TOL) + 1])
    merged = np.logaddexp.reduceat(logp, starts)
    return Law(xi[starts], merged)


def check_law(law: Law, p, v) -> list[str]:
    """Self-check of an oracle law: mass one and mean V.P."""
    mass, mean, _ = law.moments()
    expect = float(np.dot(p, v))
    problems = []
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"oracle law mass {mass!r}")
    if abs(mean - expect) > 1e-9 * (1.0 + abs(expect)):
        problems.append(f"oracle law mean {mean!r} != V.P {expect!r}")
    return problems


def binomial_log_prob(p1: float, n: int, lo: float, hi: float) -> float:
    """log P(Binomial(n, p1)/n in [lo, hi]) from scipy.stats."""
    j = np.arange(n + 1)
    sel = j[in_window(j / n, lo, hi)]
    if sel.size == 0:
        return -math.inf
    return float(logsumexp(stats.binom.logpmf(sel, n, p1)))


def fit_slope(ns, logs) -> float:
    ns = np.asarray(ns, dtype=float)
    logs = np.asarray(logs, dtype=float)
    xb, yb = ns.mean(), logs.mean()
    return float(np.sum((ns - xb) * (logs - yb)) / np.sum((ns - xb) ** 2))


# ---------------------------------------------------------------------------
# Tilts, KL projections and the Legendre dual
# ---------------------------------------------------------------------------
def tilt_log_weights(log_q: np.ndarray, v: np.ndarray, lam) -> np.ndarray:
    """Normalised log-weights of q * exp(-lam * v); lam may be an array."""
    a = log_q[None, :] - np.atleast_1d(lam)[:, None] * v[None, :]
    return a - logsumexp(a, axis=1, keepdims=True)


def solve_theta(log_q: np.ndarray, v: np.ndarray, targets) -> np.ndarray:
    """theta with E_theta[V] = target under q * exp(theta * V), by bisection."""
    c = np.atleast_1d(np.asarray(targets, dtype=float))

    def mean(theta):
        return np.exp(tilt_log_weights(log_q, v, -theta)) @ v

    lo = np.full(c.size, -1.0)
    hi = np.full(c.size, 1.0)
    for _ in range(80):
        low = mean(lo) > c
        high = mean(hi) < c
        if not (low.any() or high.any()):
            break
        lo[low] *= 2.0
        hi[high] *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = mean(mid) < c
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def rate_function(p, v, xi) -> np.ndarray:
    """I(xi) = sup_theta [theta xi - log E_P exp(theta V)], boundary points included."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    sup = p > 0
    log_q, vs = np.log(p[sup]), v[sup]
    out = np.full(xi.size, math.inf)
    at_min, at_max = xi == vs.min(), xi == vs.max()
    out[at_min] = -math.log(p[sup][vs == vs.min()].sum())
    out[at_max] = -math.log(p[sup][vs == vs.max()].sum())
    inner = (xi > vs.min()) & (xi < vs.max())
    if inner.any():
        theta = solve_theta(log_q, vs, xi[inner])
        out[inner] = theta * xi[inner] - logsumexp(log_q[None, :] + theta[:, None] * vs[None, :], axis=1)
    return out


def kl_project(p, v, target) -> tuple[float, np.ndarray, float]:
    """KL projection of p onto {V.mu = c} or {V.mu in [lo, hi]}: (lam, mu, rate).

    Targets must be strictly inside the range of V (the generator keeps them so).
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(target, (list, tuple)):
        lo, hi = target
        mean = float(p @ v)
        if lo <= mean <= hi:
            return 0.0, p.copy(), 0.0
        c = lo if mean < lo else hi
    else:
        c = float(target)
    theta = float(solve_theta(np.log(p), v, [c])[0])
    mu = np.exp(tilt_log_weights(np.log(p), v, -theta)[0])
    rate = float(theta * c - logsumexp(np.log(p) + theta * v))
    return -theta, mu, rate


# ---------------------------------------------------------------------------
# General-divergence projections (SLSQP) and stationarity residuals
# ---------------------------------------------------------------------------
def _divergence(generator: str, q: np.ndarray):
    if generator == "kl":
        return (lambda p: float(np.sum(p * np.log(p / q))), lambda p: np.log(p / q) + 1.0)
    if generator == "reverse_kl":
        return (lambda p: float(np.sum(q * np.log(q / p))), lambda p: -q / p)
    if generator == "squared_euclidean":
        return (lambda p: 0.5 * float(np.sum((p - q) ** 2)), lambda p: p - q)
    if generator == "chi_squared":
        return (lambda p: float(np.sum((p - q) ** 2 / q)), lambda p: 2.0 * (p - q) / q)
    raise ValueError(f"unknown generator {generator!r}")


def slsqp_projection(generator: str, q, v, c: float) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    f, grad = _divergence(generator, q)
    floor = 1e-12 if generator in ("kl", "reverse_kl") else 0.0
    res = optimize.minimize(
        f,
        q.copy(),
        jac=grad,
        method="SLSQP",
        bounds=[(floor, 1.0)] * q.size,
        constraints=[
            {"type": "eq", "fun": lambda p: p.sum() - 1.0, "jac": lambda p: np.ones_like(p)},
            {"type": "eq", "fun": lambda p: v @ p - c, "jac": lambda p: v},
        ],
        options={"ftol": 1e-16, "maxiter": 2000},
    )
    return res.x


def stationarity(generator: str, q, v, mu) -> float:
    """Max-norm of the generator gradient at mu after removing span{1, V}."""
    mu = np.asarray(mu, dtype=float)
    sup = mu > 0
    _, grad = _divergence(generator, np.asarray(q, dtype=float)[sup])
    g = grad(mu[sup])
    basis = np.column_stack([np.ones(int(sup.sum())), np.asarray(v, dtype=float)[sup]])
    coef, *_ = np.linalg.lstsq(basis, g, rcond=None)
    return float(np.abs(g - basis @ coef).max())


# ---------------------------------------------------------------------------
# Two-level pipeline and the MAP grid
# ---------------------------------------------------------------------------
def compositions(cells: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to cells."""
    if k == 1:
        return np.array([[cells]])
    rows = []
    for first in range(cells + 1):
        rest = compositions(cells - first, k - 1)
        rows.append(np.column_stack([np.full(rest.shape[0], first), rest]))
    return np.vstack(rows)


def statistic(kind: str, xi, center):
    xi = np.asarray(xi, dtype=float)
    return xi if kind == "identity" else (xi - center) ** 2


def grid_kl(grid: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(grid > 0, grid * np.log(grid / p[None, :]), 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# Gaussian pair, quadratic loss
# ---------------------------------------------------------------------------
def quadratic_loss_curve(sigma_y: float, epsilon: float, rs) -> np.ndarray:
    """E[(Y - m)^2 | X = x] = sigma_y^2 (1 - r^2) - epsilon for the mixture."""
    return sigma_y**2 * (1.0 - np.asarray(rs, dtype=float) ** 2) - epsilon
