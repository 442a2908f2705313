"""Command-line harness: one subcommand per verified claim family.

Usage:
    maxent-bayes <command> --config <path> [--seed N] [--out DIR]
                 [--format csv|json|both] [--threads N] [--verbose]
                 [--validate-only]

Commands: bayes, tilt, project, necessity, sanov, gibbs, rate, meta, corr.

Every command validates its config before any computation starts, writes its
outputs plus a run manifest with per-output checksums, and echoes the result
JSON to stdout.  Exit codes by error family: validation 2, infeasible 3,
numerical 4, resource 5.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .correlation import loss_correlation_curve, loss_function
from .errors import (
    ConfigInvalid,
    EmptyEvent,
    InfeasibleConstraint,
    InfeasibleError,
    MaxentError,
    TableTooLarge,
)
from .jsonio import canonical_config_hash, csv_text, dumps, sha256_text
from .ldp import (
    SeededSampler,
    TABLE_CAP,
    error_rate_function,
    gibbs_conditioning,
    sanov_exact,
    sanov_monte_carlo,
    table_size,
)
from .measures import (
    Alphabet,
    FiniteDistribution,
    LossMatrix,
    bayes_classifier,
    kl_divergence,
)
from .meta import MetaConstraint, run_meta_pipeline
from .tilting import (
    ConstraintSpec,
    DivergenceSpec,
    attainable_range,
    divergence_projection,
    i_projection,
    resolve_target,
    solve_tilt_with_report,
    stationarity_residual,
    total_variation,
)

THREADS_ENV_VAR = "MAXENT_BAYES_THREADS"
COMMANDS = ("bayes", "tilt", "project", "necessity", "sanov", "gibbs", "rate", "meta", "corr")
FORMATS = ("csv", "json", "both")


@dataclass
class RunContext:
    seed: int
    threads: int
    verbose: bool


@dataclass
class RunPlan:
    """A validated command, ready to execute."""

    command: str
    execute: Callable[[RunContext], dict]


@dataclass
class RunManifest:
    config_sha256: str
    command: str
    artifact_version: str
    started_utc: str
    seed: int
    threads: int
    outputs: dict = field(default_factory=dict)
    finished_utc: str = ""

    def to_dict(self) -> dict:
        return {
            "config_sha256": self.config_sha256,
            "command": self.command,
            "artifact_version": self.artifact_version,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
            "seed": self.seed,
            "threads": self.threads,
            "outputs": self.outputs,
        }


# ---------------------------------------------------------------------------
# Config parsing helpers
# ---------------------------------------------------------------------------
def _require(inputs: dict, key: str):
    if key not in inputs:
        raise ConfigInvalid(f"missing required input {key!r}")
    return inputs[key]


def _as_distribution(obj, what: str) -> FiniteDistribution:
    try:
        if isinstance(obj, dict):
            return FiniteDistribution.from_dict(obj)
        return FiniteDistribution.from_weights(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigInvalid(f"bad distribution for {what!r}: {exc}") from exc


def _as_loss_matrix(obj) -> LossMatrix:
    try:
        return LossMatrix.from_dict(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigInvalid(f"bad loss matrix: {exc}") from exc


def _as_potential_list(obj, k: int) -> np.ndarray:
    v = np.asarray(obj, dtype=float)
    if v.shape != (k,) or not np.all(np.isfinite(v)):
        raise ConfigInvalid(f"potential must be {k} finite reals")
    return v


def _constraint_from(inputs: dict, v) -> ConstraintSpec:
    if "target" in inputs and "target_interval" in inputs:
        raise ConfigInvalid("give either target or target_interval, not both")
    if "target" in inputs:
        try:
            return ConstraintSpec.point(v, float(inputs["target"]))
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad target: {exc}") from exc
    if "target_interval" in inputs:
        iv = inputs["target_interval"]
        if not isinstance(iv, (list, tuple)) or len(iv) != 2:
            raise ConfigInvalid("target_interval must be [lo, hi]")
        try:
            return ConstraintSpec.interval(v, float(iv[0]), float(iv[1]))
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad target_interval: {exc}") from exc
    raise ConfigInvalid("missing target or target_interval")


def _window_from(inputs: dict, P: FiniteDistribution, v: np.ndarray) -> tuple[float, float]:
    """The Xi window; one that misses the attainable range holds no type class at any n."""
    window = _require(inputs, "Xi")
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigInvalid("Xi must be [lo, hi]")
    lo, hi = float(window[0]), float(window[1])
    if lo > hi:
        raise ConfigInvalid("Xi must satisfy lo <= hi")
    try:
        resolve_target(P, v, (lo, hi), boundary=True)
    except InfeasibleError as exc:
        raise EmptyEvent(str(exc)) from exc
    return lo, hi


def _n_grid_from(inputs: dict, key: str = "n_grid") -> list[int]:
    grid = _require(inputs, key)
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigInvalid(f"{key} must be a non-empty list of positive integers")
    out = []
    for n in grid:
        if not isinstance(n, int) or n < 1:
            raise ConfigInvalid(f"{key} entries must be positive integers, got {n!r}")
        out.append(n)
    return out


def _guard_table(k: int, n: int) -> None:
    size = table_size(k, n)
    if size > TABLE_CAP:
        raise TableTooLarge(
            f"enumeration for k={k}, n={n} needs {size} type classes (cap {TABLE_CAP})"
        )


# ---------------------------------------------------------------------------
# Command preparation (static validation happens here)
# ---------------------------------------------------------------------------
def _prepare_bayes(inputs: dict) -> RunPlan:
    posterior = _as_distribution(_require(inputs, "posterior"), "posterior")
    loss = _as_loss_matrix(_require(inputs, "loss"))
    if loss.label_alphabet.symbols != posterior.alphabet.symbols:
        from .errors import AlphabetMismatch

        raise AlphabetMismatch("loss label alphabet must match the posterior alphabet")

    def execute(ctx: RunContext) -> dict:
        decision = bayes_classifier(posterior, loss)
        payload = {
            "decision_index": decision.decision_index,
            "decision": loss.prediction_alphabet.symbols[decision.decision_index],
            "expected_loss": decision.expected_loss,
        }
        return {"json": payload}

    return RunPlan("bayes", execute)


def _prepare_tilt(inputs: dict) -> RunPlan:
    q = _as_distribution(_require(inputs, "q"), "q")
    v = _as_potential_list(_require(inputs, "potential"), q.size)
    c = float(_require(inputs, "target"))
    tol = float(inputs.get("tol", 1e-10))
    resolve_target(q, v, c, tol)

    def execute(ctx: RunContext) -> dict:
        tilt, report = solve_tilt_with_report(q, v, c, tol)
        payload = {
            "lambda": tilt.lam,
            "realized": [float(w) for w in tilt.realized.weights],
            "log_partition": tilt.log_partition,
            "rate": kl_divergence(tilt.realized, q),
            "constraint_value": tilt.constraint_value(),
            "target": c,
        }
        if ctx.verbose:
            payload["diagnostics"] = {
                "bracket": list(report["bracket"]),
                "expansions": report["expansions"],
                "bisections": report["bisections"],
                "newton": report["newton"],
                "residual": report["residual"],
            }
        return {"json": payload}

    return RunPlan("tilt", execute)


def _prepare_project(inputs: dict) -> RunPlan:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential_list(_require(inputs, "potential"), P.size)
    constraint = _constraint_from(inputs, v)
    resolve_target(P, v, constraint.target, boundary=True)

    def execute(ctx: RunContext) -> dict:
        tilt, rate = i_projection(P, constraint)
        payload = {
            "lambda": tilt.lam,
            "realized": [float(w) for w in tilt.realized.weights],
            "rate": rate,
        }
        return {"json": payload}

    return RunPlan("project", execute)


def _prepare_necessity(inputs: dict) -> RunPlan:
    generator = _require(inputs, "generator")
    spec = DivergenceSpec(str(generator))
    q = _as_distribution(_require(inputs, "q"), "q")
    v = _as_potential_list(_require(inputs, "potential"), q.size)
    c = float(_require(inputs, "target"))
    resolve_target(q, v, c)
    constraint = ConstraintSpec.point(v, c)

    def execute(ctx: RunContext) -> dict:
        projected = divergence_projection(spec, q, constraint)
        tilt, rate = i_projection(q, constraint)
        payload = {
            "generator": spec.generator,
            "gap_tv": total_variation(projected, tilt.realized),
            "projection": [float(w) for w in projected.weights],
            "kl_projection": [float(w) for w in tilt.realized.weights],
            "kl_rate": rate,
            "stationarity_residual": stationarity_residual(spec, tilt),
        }
        return {"json": payload}

    return RunPlan("necessity", execute)


def _prepare_sanov(inputs: dict) -> RunPlan:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential_list(_require(inputs, "potential"), P.size)
    constraint = _constraint_from(inputs, v)
    n_grid = _n_grid_from(inputs)
    method = inputs.get("method", "exact")
    if method not in ("exact", "monte-carlo"):
        raise ConfigInvalid(f"method must be exact or monte-carlo, got {method!r}")
    trials = int(inputs.get("trials", 100_000))
    if method == "exact":
        for n in n_grid:
            _guard_table(P.size, n)
    elif trials < 1000:
        raise ConfigInvalid("monte-carlo needs at least 1000 trials")

    def execute(ctx: RunContext) -> dict:
        if method == "exact":
            est = sanov_exact(P, constraint, n_grid)
        else:
            sampler = SeededSampler(seed=ctx.seed, base=P)
            est = sanov_monte_carlo(
                sampler, constraint, n_grid, trials, threads=ctx.threads
            )
        rows = [
            (n, lp, est.method, lo, hi)
            for n, lp, lo, hi in zip(est.n_grid, est.log_probs, est.ci_lo, est.ci_hi)
        ]
        payload = {
            "fitted_slope": est.fitted_slope,
            "analytic_rate": est.analytic_rate,
            "r2": est.regression_r2,
            "slope_stderr": est.slope_stderr,
            "method": est.method,
            "empty_event_ns": list(est.empty_event_ns),
            "insufficient_ns": list(est.insufficient_ns),
        }
        return {
            "json": payload,
            "csv": {"sanov_rates.csv": (("n", "log_prob", "method", "ci_lo", "ci_hi"), rows)},
        }

    return RunPlan("sanov", execute)


def _prepare_gibbs(inputs: dict) -> RunPlan:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential_list(_require(inputs, "potential"), P.size)
    lo, hi = _window_from(inputs, P, v)
    n_grid = _n_grid_from(inputs)
    for n in n_grid:
        _guard_table(P.size, n)
    constraint = ConstraintSpec.interval(v, lo, hi)

    def execute(ctx: RunContext) -> dict:
        rows = []
        results = []
        for n in n_grid:
            res = gibbs_conditioning(P, constraint, n)
            rows.append((n, res.tv_distance))
            results.append(res)
        last = results[-1]
        payload = {
            "window": [lo, hi],
            "predicted": [float(w) for w in last.predicted.realized.weights],
            "lambda": last.predicted.lam,
            "tv_by_n": {str(n): tv for (n, tv) in rows},
        }
        return {"json": payload, "csv": {"gibbs_tv.csv": (("n", "tv_distance"), rows)}}

    return RunPlan("gibbs", execute)


def _prepare_rate(inputs: dict) -> RunPlan:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential_list(_require(inputs, "potential"), P.size)
    if "xi_grid" in inputs:
        xi_grid = [float(x) for x in inputs["xi_grid"]]
        if not xi_grid:
            raise ConfigInvalid("xi_grid must be non-empty")
    else:
        points = int(inputs.get("points", 50))
        if points < 2:
            raise ConfigInvalid("points must be at least 2")
        xi_grid = list(np.linspace(*attainable_range(P, v), points))

    def execute(ctx: RunContext) -> dict:
        pts = error_rate_function(P, v, xi_grid)
        rows = [(p.xi, p.rate, p.feasible) for p in pts]
        payload = {
            "xi": [p.xi for p in pts],
            "rate": [p.rate for p in pts],
            "feasible": [p.feasible for p in pts],
        }
        return {"json": payload, "csv": {"rate_function.csv": (("xi", "rate", "feasible"), rows)}}

    return RunPlan("rate", execute)


def _prepare_meta(inputs: dict) -> RunPlan:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential_list(_require(inputs, "loss_row"), P.size)
    n = _require(inputs, "n")
    if not isinstance(n, int) or n < 1:
        raise ConfigInvalid("n must be a positive integer")
    _guard_table(P.size, n)
    lo, hi = _window_from(inputs, P, v)
    u_spec = _require(inputs, "U")
    if not isinstance(u_spec, dict) or "kind" not in u_spec:
        raise ConfigInvalid('U must be an object like {"kind": "centered_square"}')
    try:
        meta = MetaConstraint(
            kind=u_spec["kind"],
            eta=float(_require(inputs, "eta")),
            center=u_spec.get("center"),
            table_xi=tuple(u_spec["table_xi"]) if "table_xi" in u_spec else None,
            table_u=tuple(u_spec["table_u"]) if "table_u" in u_spec else None,
        )
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    step = inputs.get("model_grid_step")
    if step is not None:
        step = float(step)
        if step <= 0 or abs(round(1.0 / step) * step - 1.0) > 1e-9:
            raise ConfigInvalid(f"model_grid_step {step!r} must divide 1")
    speed = float(inputs.get("speed", 1.0))

    def execute(ctx: RunContext) -> dict:
        result = run_meta_pipeline(P, v, n, (lo, hi), meta, speed=speed, grid_step=step)
        mr = result.map_result
        payload = {
            "map_model": [float(w) for w in mr.model.weights],
            "objective": mr.objective,
            "components": mr.components,
            "lambda_eta": result.fitted.lambda_eta,
            "center": result.fitted.center,
            "method": mr.method,
        }
        return {"json": payload}

    return RunPlan("meta", execute)


def _prepare_corr(inputs: dict) -> RunPlan:
    sigma_y = float(inputs.get("sigma_y", 1.0))
    epsilon = float(inputs.get("epsilon", 0.0))
    loss_spec = _require(inputs, "loss")
    if not isinstance(loss_spec, dict) or "kind" not in loss_spec:
        raise ConfigInvalid('loss must be an object like {"kind": "quadratic"}')
    loss = loss_function(loss_spec["kind"], **{k: v for k, v in loss_spec.items() if k != "kind"})
    r_grid = _require(inputs, "r_grid")
    if not isinstance(r_grid, (list, tuple)) or len(r_grid) < 5:
        raise ConfigInvalid("r_grid must list at least 5 correlations")
    rs = [float(r) for r in r_grid]
    if any(not 0.0 <= r < 1.0 for r in rs):
        raise ConfigInvalid("correlations must lie in [0, 1)")
    if sigma_y <= 0:
        raise ConfigInvalid("sigma_y must be positive")
    if epsilon < 0:
        raise ConfigInvalid("epsilon must be non-negative")
    max_r = max(rs)
    if epsilon > sigma_y ** 2 * (1.0 - max_r ** 2) + 1e-15:
        raise InfeasibleConstraint(
            f"epsilon {epsilon!r} exceeds the envelope variance at r={max_r!r}"
        )
    x_value = float(inputs.get("x_value", 0.0))
    grid_points = int(inputs.get("grid_points", 2001))

    def execute(ctx: RunContext) -> dict:
        curve = loss_correlation_curve(
            loss, rs, sigma_y=sigma_y, epsilon=epsilon,
            x_value=x_value, grid_points=grid_points,
        )
        rows = list(zip(curve.r_grid, curve.expected_losses))
        payload = {
            "slope": curve.fit["slope"],
            "intercept": curve.fit["intercept"],
            "r2": curve.fit["r2"],
        }
        return {
            "json": payload,
            "csv": {"correlation_curve.csv": (("r", "expected_loss"), rows)},
        }

    return RunPlan("corr", execute)


_PREPARERS = {
    "bayes": _prepare_bayes,
    "tilt": _prepare_tilt,
    "project": _prepare_project,
    "necessity": _prepare_necessity,
    "sanov": _prepare_sanov,
    "gibbs": _prepare_gibbs,
    "rate": _prepare_rate,
    "meta": _prepare_meta,
    "corr": _prepare_corr,
}

_FAMILIES = {2: "validation", 3: "infeasible", 4: "numerical", 5: "resource"}


def prepare(config: dict, command: str | None = None) -> RunPlan:
    """Parse and statically validate a config; raises MaxentError subclasses."""
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    cmd = config.get("command", command)
    if cmd is None:
        raise ConfigInvalid("no command given")
    if command is not None and config.get("command") not in (None, command):
        raise ConfigInvalid(
            f"config command {config.get('command')!r} conflicts with CLI command {command!r}"
        )
    if cmd not in COMMANDS:
        raise ConfigInvalid(f"unknown command {cmd!r}")
    inputs = config.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigInvalid("config must carry an inputs object")
    fmt = config.get("format", "both")
    if fmt not in FORMATS:
        raise ConfigInvalid(f"format must be one of {FORMATS}")
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or seed < 0 or seed >= 2 ** 64:
        raise ConfigInvalid("seed must be a 64-bit non-negative integer")
    out_dir = config.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigInvalid("output_dir must be a path string")
    try:
        return _PREPARERS[cmd](inputs)
    except MaxentError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigInvalid(f"bad inputs for {cmd!r}: {exc}") from exc


def validate(config: dict, command: str | None = None) -> list[dict]:
    """Static diagnostics without running; empty list means valid."""
    try:
        prepare(config, command)
    except MaxentError as exc:
        return [
            {
                "family": _FAMILIES.get(exc.exit_code, "error"),
                "error": type(exc).__name__,
                "message": str(exc),
            }
        ]
    return []


def run(
    config: dict,
    command: str | None = None,
    out_dir: str | Path | None = None,
    fmt: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
    verbose: bool = False,
    stdout=None,
) -> RunManifest:
    """Execute a validated config, write outputs plus manifest, return the manifest."""
    stdout = stdout if stdout is not None else sys.stdout
    plan = prepare(config, command)
    fmt = fmt or config.get("format", "both")
    if fmt not in FORMATS:
        raise ConfigInvalid(f"format must be one of {FORMATS}")
    seed = seed if seed is not None else int(config.get("seed", 0))
    if seed < 0 or seed >= 2 ** 64:
        raise ConfigInvalid("seed must be a 64-bit non-negative integer")
    threads = threads if threads is not None else _default_threads()
    ctx = RunContext(seed=seed, threads=max(1, threads), verbose=verbose)
    manifest = RunManifest(
        config_sha256=canonical_config_hash(config),
        command=plan.command,
        artifact_version=__version__,
        started_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        seed=seed,
        threads=ctx.threads,
    )

    artifacts = plan.execute(ctx)

    out = Path(out_dir if out_dir is not None else config.get("output_dir", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        payload = artifacts.get("json")
        json_text = dumps(payload)
        stdout.write(json_text)
        has_csv = bool(artifacts.get("csv"))
        if fmt in ("json", "both") or not has_csv:
            path = out / f"{plan.command}_result.json"
            path.write_text(json_text, encoding="utf-8")
            manifest.outputs[path.name] = sha256_text(json_text)
        if fmt in ("csv", "both"):
            for name, (header, rows) in artifacts.get("csv", {}).items():
                text = csv_text(header, rows)
                path = out / name
                path.write_text(text, encoding="utf-8", newline="")
                manifest.outputs[path.name] = sha256_text(text)

        manifest.finished_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest_path = out / "manifest.json"
        manifest_path.write_text(dumps(manifest.to_dict()), encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"output directory {out} is not writable: {exc}") from exc
    return manifest


def _default_threads() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxent-bayes",
        description="Constrained maximum-entropy inference and decay-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory (falls back to the config output_dir, then .)")
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
        p.add_argument(
            "--validate-only",
            action="store_true",
            help="report diagnostics without running",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        import json as _json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = _json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from exc
        except ValueError as exc:
            raise ConfigInvalid(f"malformed JSON config: {exc}") from exc

        if args.validate_only:
            diagnostics = validate(config, args.command)
            sys.stdout.write(dumps({"diagnostics": diagnostics}))
            if diagnostics:
                first = diagnostics[0]["family"]
                code = {v: k for k, v in _FAMILIES.items()}.get(first, 2)
                return code
            return 0

        threads = args.threads if args.threads is not None else _default_threads()
        run(
            config,
            command=args.command,
            out_dir=args.out,
            fmt=args.format,
            seed=args.seed,
            threads=threads,
            verbose=args.verbose,
        )
        return 0
    except MaxentError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
