"""Output checks: compare one op's CLI outputs with the oracle.

``check(op, outputs)`` returns a list of problems; an empty list means the
output is correct. ``outputs`` holds the JSON text the command printed and
the text of each CSV file it wrote. Monte Carlo outputs are checked for
shape only (finite, ordered intervals, consistent hit flags); their accuracy
is measured by ``mc_accuracy`` instead of passing or failing.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracle

MIN_HITS = 10  # the library's usable-point threshold, from its docs


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _num(x) -> float:
    return math.nan if x is None else float(x)


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def check(op: dict, outputs: dict) -> list[str]:
    cfg = op["config"]
    payload = json.loads(outputs["json"])
    return _CHECKS[cfg["command"]](cfg["inputs"], op.get("meta", {}), payload, outputs.get("csv", {}))


def _check_tilt(inp, meta, out, csvs):
    q, v, c = np.asarray(inp["q"]), np.asarray(inp["potential"], dtype=float), inp["target"]
    lam = out["lambda"]
    mu = np.exp(oracle.tilt_log_weights(np.log(q), v, lam)[0])
    problems = []
    if abs(mu @ v - c) > 1e-10:
        problems.append(f"tilt: |E[V] - c| = {abs(mu @ v - c):.3g} from the returned lambda")
    if not _close(out["realized"], mu, 1e-9):
        problems.append("tilt: realized weights differ from q exp(-lam V)/Z")
    if abs(out["rate"] - float(np.sum(mu * np.log(mu / q)))) > 1e-9:
        problems.append("tilt: rate is not KL(p || q)")
    return problems


def _check_project(inp, meta, out, csvs):
    p, v = np.asarray(inp["P"]), np.asarray(inp["potential"], dtype=float)
    target = inp["target_interval"] if "target_interval" in inp else inp["target"]
    lam, mu, rate = oracle.kl_project(p, v, target)
    problems = []
    if not _close(out["realized"], mu, 1e-9):
        problems.append("project: realized measure differs from the dual solution")
    if abs(out["rate"] - rate) > 1e-9 * (1.0 + rate):
        problems.append(f"project: rate {out['rate']!r} != {rate!r}")
    if abs(_num(out["lambda"]) - lam) > 1e-7 * (1.0 + abs(lam)):
        problems.append(f"project: lambda {out['lambda']!r} != {lam!r}")
    return problems


def _check_necessity(inp, meta, out, csvs):
    q, v, c = np.asarray(inp["q"]), np.asarray(inp["potential"], dtype=float), inp["target"]
    gen = inp["generator"]
    proj = np.asarray(out["projection"])
    kl = np.asarray(out["kl_projection"])
    ref = oracle.slsqp_projection(gen, q, v, c)
    _, mu, rate = oracle.kl_project(q, v, c)
    problems = []
    if np.abs(proj - ref).max() > 1e-6:
        problems.append(f"necessity: {gen} projection off SLSQP by {np.abs(proj - ref).max():.3g}")
    if not _close(kl, mu, 1e-9) or abs(out["kl_rate"] - rate) > 1e-9:
        problems.append("necessity: KL projection differs from the dual solution")
    if abs(out["gap_tv"] - 0.5 * np.abs(proj - kl).sum()) > 1e-12:
        problems.append("necessity: gap_tv is not TV(projection, kl_projection)")
    if abs(out["stationarity_residual"] - oracle.stationarity(gen, q, v, kl)) > 1e-9:
        problems.append("necessity: stationarity residual mismatch")
    return problems


def _check_rate(inp, meta, out, csvs):
    p, v = np.asarray(inp["P"]), np.asarray(inp["potential"], dtype=float)
    xi = np.asarray(out["xi"])
    rate = np.asarray([_num(r) if r is not None else math.inf for r in out["rate"]])
    ref = oracle.rate_function(p, v, xi)
    problems = []
    if xi.size != len(inp.get("xi_grid", ())) + inp.get("points", 0) or not all(out["feasible"]):
        problems.append("rate: grid size or feasibility flags wrong")
    bad = np.abs(rate - ref) > 1e-8 * (1.0 + np.abs(ref))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append(f"rate: {bad.sum()} points off the Legendre dual, e.g. xi={xi[i]!r}: {rate[i]!r} vs {ref[i]!r}")
    rows = _rows(csvs["rate_function.csv"])
    if [float(r[1]) for r in rows] != list(rate):
        problems.append("rate: CSV disagrees with JSON")
    return problems


def _exact_log_probs(inp, meta, ns):
    p, v = np.asarray(inp["P"]), np.asarray(inp["potential"], dtype=float)
    lo, hi = inp["target_interval"]
    lattice = meta.get("lattice")
    if lattice is not None:
        a, h, ints = lattice
        laws = oracle.lattice_log_laws(p, ints, ns)
        out = []
        for n in ns:
            law = oracle.Law(a + h * np.arange(laws[n].size) / n, laws[n])
            out.append(law.log_prob(lo, hi))
        return out
    return [oracle.exact_law(p, v, n, None).log_prob(lo, hi) for n in ns]


def _check_sanov(inp, meta, out, csvs):
    rows = _rows(csvs["sanov_rates.csv"])
    ns = [int(r[0]) for r in rows]
    logs = np.asarray([float(r[1]) for r in rows])
    p, v = np.asarray(inp["P"]), np.asarray(inp["potential"], dtype=float)
    problems = []
    _, _, rate = oracle.kl_project(p, v, inp["target_interval"])
    if abs(_num(out["analytic_rate"]) - rate) > 1e-9 * (1.0 + rate):
        problems.append(f"sanov: analytic rate {out['analytic_rate']!r} != {rate!r}")
    if ns != inp["n_grid"]:
        problems.append("sanov: CSV n column differs from n_grid")
        return problems
    if inp.get("method", "exact") == "exact":
        ref = np.asarray(_exact_log_probs(inp, meta, ns))
        if p.size == 2:
            lo, hi = inp["target_interval"]
            binom = [oracle.binomial_log_prob(p[1], n, lo, hi) for n in ns]
            if not _close(ref, binom, 1e-10):
                problems.append("oracle: lattice recursion disagrees with the binomial tail")
        if not _close(logs, ref, 1e-9):
            problems.append(f"sanov: exact log-probs off the oracle law by {np.abs(logs - ref).max():.3g}")
        if abs(out["fitted_slope"] - oracle.fit_slope(ns, ref)) > 1e-9:
            problems.append("sanov: fitted slope is not the regression of the exact log-probs")
        return problems
    trials = inp["trials"]
    lo_ci = np.asarray([float(r[3]) for r in rows])
    hi_ci = np.asarray([float(r[4]) for r in rows])
    hits = np.rint(np.exp(logs) * trials)
    seen = np.isfinite(logs)
    if not (np.all(np.isfinite(lo_ci[seen])) and np.all(np.isfinite(hi_ci[seen]))):
        problems.append("sanov mc: non-finite interval for an observed event")
    # 1e-12 absorbs the one-ulp rounding of a Wilson bound at hit ratio 1
    if np.any(lo_ci[seen] > logs[seen] + 1e-12) or np.any(logs[seen] > hi_ci[seen] + 1e-12):
        problems.append("sanov mc: interval does not contain the estimate")
    flagged = sorted(out["insufficient_ns"])
    if flagged != sorted(n for n, h in zip(ns, hits) if h < MIN_HITS):
        problems.append(f"sanov mc: insufficient_ns {flagged} inconsistent with hit counts")
    usable = len(ns) - len(flagged)
    if usable >= 2 and not math.isfinite(_num(out["fitted_slope"])):
        problems.append("sanov mc: fitted slope not finite")
    return problems


def mc_accuracy(op: dict, outputs: dict) -> tuple[float, int, int]:
    """(|MC slope - exact slope on the same n grid|, usable points, grid points)."""
    inp = op["config"]["inputs"]
    payload = json.loads(outputs["json"])
    ns = inp["n_grid"]
    exact = oracle.fit_slope(ns, _exact_log_probs(inp, op.get("meta", {}), ns))
    return abs(_num(payload["fitted_slope"]) - exact), len(ns) - len(payload["insufficient_ns"]), len(ns)


def _conditional_mean(inp, meta, n):
    p, v = np.asarray(inp["P"]), np.asarray(inp["potential"], dtype=float)
    lo, hi = inp["Xi"]
    lattice = meta.get("lattice")
    if lattice is None:
        counts, logp = oracle.type_table(p, n)
        m = oracle.in_window(counts @ v / n, lo, hi)
        w = np.exp(logp[m] - np.logaddexp.reduce(logp[m]))
        return w @ counts[m] / n
    # exchangeability: E[N_j 1{S_n in W}] = n p_j P(S_{n-1} + ints_j in W)
    a, h, ints = lattice
    laws = oracle.lattice_log_laws(p, ints, [n - 1, n])
    s_n = np.arange(laws[n].size)
    log_event = np.logaddexp.reduce(laws[n][oracle.in_window(a + h * s_n / n, lo, hi)])
    s_prev = np.arange(laws[n - 1].size)
    mean = np.empty(p.size)
    for j, d in enumerate(ints):
        m = oracle.in_window(a + h * (s_prev + d) / n, lo, hi)
        mean[j] = p[j] * np.exp(np.logaddexp.reduce(laws[n - 1][m]) - log_event)
    return mean


def _check_gibbs(inp, meta, out, csvs):
    p, v = np.asarray(inp["P"]), np.asarray(inp["potential"], dtype=float)
    lam, mu, _ = oracle.kl_project(p, v, inp["Xi"])
    problems = []
    if not _close(out["predicted"], mu, 1e-9):
        problems.append("gibbs: predicted tilt differs from the dual solution")
    for n in inp["n_grid"]:
        tv = 0.5 * float(np.abs(_conditional_mean(inp, meta, n) - mu).sum())
        got = out["tv_by_n"][str(n)]
        if abs(got - tv) > 1e-9:
            problems.append(f"gibbs: n={n} TV {got!r} != {tv!r}")
    rows = _rows(csvs["gibbs_tv.csv"])
    if [float(r[1]) for r in rows] != [out["tv_by_n"][str(n)] for n in inp["n_grid"]]:
        problems.append("gibbs: CSV disagrees with JSON")
    return problems


def _check_meta(inp, meta, out, csvs):
    p, v = np.asarray(inp["P"]), np.asarray(inp["loss_row"], dtype=float)
    n, (lo, hi) = inp["n"], inp["Xi"]
    kind, eta = inp["U"]["kind"], inp["eta"]
    full = oracle.exact_law(p, v, n, meta.get("lattice"))
    problems = oracle.check_law(full, p, v)
    law = full.restrict(lo, hi)
    lam, center = out["lambda_eta"], out["center"]
    u = oracle.statistic(kind, law.xi, center)
    logw = law.logp - lam * u
    w = np.exp(logw - np.logaddexp.reduce(logw))
    if abs(w @ u - eta) > 1e-8 * (1.0 + eta):
        problems.append(f"meta: E[U] = {w @ u!r} under the returned lambda_eta, want {eta!r}")
    if kind == "centered_square" and abs(w @ law.xi - center) > 1e-8:
        problems.append("meta: centre is not the mean of the fitted law")
    step = inp["model_grid_step"]
    grid = oracle.compositions(round(1.0 / step), p.size) * step
    xi = grid @ v
    feasible = oracle.in_window(xi, lo, hi)
    log_q = -math.log(grid.shape[0])
    speed = inp.get("speed", 1.0)
    best = np.max(-speed * oracle.grid_kl(grid[feasible], p) - lam * oracle.statistic(kind, xi[feasible], center)) + log_q
    model = np.asarray(out["map_model"])
    mx = float(model @ v)
    comp = out["components"]
    if abs(model.sum() - 1.0) > 1e-9 or model.min() < 0 or not (lo - 1e-12 <= mx <= hi + 1e-12):
        problems.append("meta: MAP model is not a distribution inside the window")
    kl = speed * float(oracle.grid_kl(model[None, :], p)[0])
    if abs(comp["kl_term"] - kl) > 1e-9 or abs(comp["log_q_term"] - log_q) > 1e-9:
        problems.append("meta: objective components do not match the MAP model")
    if abs(comp["meta_term"] - lam * float(oracle.statistic(kind, mx, center))) > 1e-9 * (1.0 + abs(lam)):
        problems.append("meta: meta term does not match the MAP model")
    if out["objective"] < best - 1e-9:
        problems.append(f"meta: objective {out['objective']!r} below the grid maximum {best!r}")
    return problems


def _check_corr(inp, meta, out, csvs):
    sigma, eps = inp["sigma_y"], inp["epsilon"]
    rows = _rows(csvs["correlation_curve.csv"])
    rs = [float(r[0]) for r in rows]
    got = [float(r[1]) for r in rows]
    problems = []
    if not _close(got, oracle.quadratic_loss_curve(sigma, eps, rs), 1e-8):
        problems.append("corr: expected losses differ from sigma^2 (1 - r^2) - epsilon")
    if abs(out["slope"] - sigma**2) > 1e-8 or abs(out["intercept"] + eps) > 1e-8 or abs(out["r2"] - 1.0) > 1e-8:
        problems.append("corr: fit is not slope sigma^2, intercept -epsilon, r2 1")
    return problems


_CHECKS = {
    "tilt": _check_tilt,
    "project": _check_project,
    "necessity": _check_necessity,
    "rate": _check_rate,
    "sanov": _check_sanov,
    "gibbs": _check_gibbs,
    "meta": _check_meta,
    "corr": _check_corr,
}
