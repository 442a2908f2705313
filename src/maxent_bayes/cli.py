"""Command-line harness: one subcommand per verified claim family.

Usage:
    maxent-bayes <command> --config <path> [--seed N] [--out DIR]
                 [--format csv|json|both] [--threads N] [--verbose]
                 [--validate-only]

Commands: bayes, tilt, project, necessity, sanov, gibbs, rate, meta, corr.

Every command validates its config before it writes anything (the rules:
README.md, "Config inputs"; ``gibbs`` and ``meta`` validate by running, see
RUN_TO_VALIDATE), writes its outputs plus a run manifest with per-output
checksums, and echoes the result JSON to stdout.  Exit codes by error
family: validation 2, infeasible 3, numerical 4, resource 5.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .correlation import GaussianPairModel, correlation_grid, loss_correlation_curve, loss_function
from .errors import (
    ConfigInvalid,
    EmptyEvent,
    InfeasibleError,
    MaxentError,
)
from .jsonio import canonical_config_hash, csv_text, dumps, sha256_text
from .ldp import (
    SeededSampler,
    check_exact_law,
    check_trials,
    error_rate_function,
    gibbs_conditioning,
    sanov_exact,
    sanov_monte_carlo,
)
from .measures import (
    FiniteDistribution,
    LossMatrix,
    as_potential,
    bayes_classifier,
    kl_divergence,
)
from .meta import MetaConstraint, check_speed, model_grid_step, run_meta_pipeline
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
FORMATS = ("csv", "json", "both")
# The input keys each command reads.  The reader of an object input rejects
# the keys it does not read: FiniteDistribution.from_dict, LossMatrix.from_dict,
# MetaConstraint.from_dict and correlation.loss_function.
INPUT_KEYS = {
    "bayes": ("posterior", "loss"),
    "tilt": ("q", "potential", "target"),
    "project": ("P", "potential", "target", "target_interval"),
    "necessity": ("generator", "q", "potential", "target"),
    "sanov": ("P", "potential", "target", "target_interval", "n_grid", "method", "trials"),
    "gibbs": ("P", "potential", "Xi", "n_grid"),
    "rate": ("P", "potential", "points", "xi_grid"),
    "meta": ("P", "loss_row", "n", "Xi", "eta", "U", "model_grid_step", "speed"),
    "corr": ("loss", "r_grid", "sigma_y", "epsilon"),
}
COMMANDS = tuple(INPUT_KEYS)
# Whether the window of gibbs, or the window and eta of meta, is feasible
# depends on the support of the exact law of V . L_n at n, which only their
# computation reads; so prepare runs it once and the plan hands back the result.
RUN_TO_VALIDATE = ("gibbs", "meta")


@dataclass
class RunContext:
    seed: int
    threads: int
    verbose: bool


Execute = Callable[[RunContext], dict]


@dataclass
class RunPlan:
    """A validated command with its resolved run settings, ready to execute."""

    command: str
    execute: Execute
    fmt: str
    seed: int
    out_dir: Path


@dataclass
class RunManifest:
    config_sha256: str
    command: str
    artifact_version: str
    started_utc: str
    finished_utc: str
    seed: int
    threads: int
    outputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Config parsing helpers
# ---------------------------------------------------------------------------
def _require(inputs: dict, key: str):
    if key not in inputs:
        raise ConfigInvalid(f"missing required input {key!r}")
    return inputs[key]


def _real(value, what: str) -> float:
    """A real input: a JSON number (not a bool or a string), finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{what} must be a real number, got {value!r}")
    x = float(value)  # an integer past the float range raises OverflowError: see prepare
    if not math.isfinite(x):
        raise ConfigInvalid(f"{what} must be a finite real, got {value!r}")
    return x


def _count(value, what: str, least: int = 0) -> int:
    """A count input: a JSON integer (not a bool or a float) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigInvalid(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _reals(values, what: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigInvalid(f"{what} must be a list of reals")
    return tuple(_real(x, f"{what} entry") for x in values)


def _as_distribution(obj, what: str) -> FiniteDistribution:
    try:
        if isinstance(obj, dict):
            _reals(obj["weights"], f"{what} weights")
            return FiniteDistribution.from_dict(obj)
        return FiniteDistribution.from_weights(_reals(obj, f"{what} weights"))
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigInvalid(f"bad distribution for {what!r}: {exc}") from exc


def _as_loss_matrix(obj) -> LossMatrix:
    try:
        for row in obj["entries"]:
            _reals(row, "loss entries row")
        return LossMatrix.from_dict(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigInvalid(f"bad loss matrix: {exc}") from exc


def _as_potential(obj, P: FiniteDistribution) -> np.ndarray:
    return as_potential(_reals(obj, "potential"), P.alphabet)


def _constraint_from(inputs: dict, v) -> ConstraintSpec:
    if "target" in inputs and "target_interval" in inputs:
        raise ConfigInvalid("give either target or target_interval, not both")
    if "target" in inputs:
        return ConstraintSpec.point(v, _real(inputs["target"], "target"))
    if "target_interval" in inputs:
        iv = inputs["target_interval"]
        if not isinstance(iv, (list, tuple)) or len(iv) != 2:
            raise ConfigInvalid("target_interval must be [lo, hi]")
        return ConstraintSpec.interval(v, *_reals(iv, "target_interval"))
    raise ConfigInvalid("missing target or target_interval")


def _window_from(inputs: dict, P: FiniteDistribution, v: np.ndarray) -> tuple[float, float]:
    """The Xi window; one that misses the attainable range holds no type class at any n."""
    window = _require(inputs, "Xi")
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigInvalid("Xi must be [lo, hi]")
    lo, hi = _reals(window, "Xi")
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
    return [_count(n, f"{key} entry", 1) for n in grid]


# ---------------------------------------------------------------------------
# Command preparation (static validation happens here)
# ---------------------------------------------------------------------------
def _prepare_bayes(inputs: dict) -> Execute:
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

    return execute


def _prepare_tilt(inputs: dict) -> Execute:
    q = _as_distribution(_require(inputs, "q"), "q")
    v = _as_potential(_require(inputs, "potential"), q)
    c = _real(_require(inputs, "target"), "target")
    resolve_target(q, v, c)

    def execute(ctx: RunContext) -> dict:
        tilt, report = solve_tilt_with_report(q, v, c)
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

    return execute


def _prepare_project(inputs: dict) -> Execute:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential(_require(inputs, "potential"), P)
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

    return execute


def _prepare_necessity(inputs: dict) -> Execute:
    generator = _require(inputs, "generator")
    spec = DivergenceSpec(str(generator))
    q = _as_distribution(_require(inputs, "q"), "q")
    v = _as_potential(_require(inputs, "potential"), q)
    c = _real(_require(inputs, "target"), "target")
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

    return execute


def _prepare_sanov(inputs: dict) -> Execute:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential(_require(inputs, "potential"), P)
    constraint = _constraint_from(inputs, v)
    n_grid = _n_grid_from(inputs)
    method = inputs.get("method", "exact")
    if method not in ("exact", "monte-carlo"):
        raise ConfigInvalid(f"method must be exact or monte-carlo, got {method!r}")
    trials = check_trials(_count(inputs.get("trials", 100_000), "trials"))
    if method == "exact":  # sizes the method that will run for the whole grid
        check_exact_law(P, v, n_grid)

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

    return execute


def _prepare_gibbs(inputs: dict) -> Execute:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential(_require(inputs, "potential"), P)
    lo, hi = _window_from(inputs, P, v)
    n_grid = _n_grid_from(inputs)
    constraint = ConstraintSpec.interval(v, lo, hi)

    def execute(ctx: RunContext) -> dict:
        results = gibbs_conditioning(P, constraint, n_grid)
        rows = [(n, res.tv_distance) for n, res in zip(n_grid, results)]
        last = results[-1]
        payload = {
            "window": [lo, hi],
            "predicted": [float(w) for w in last.predicted.realized.weights],
            "lambda": last.predicted.lam,
            "tv_by_n": {str(n): tv for (n, tv) in rows},
        }
        return {"json": payload, "csv": {"gibbs_tv.csv": (("n", "tv_distance"), rows)}}

    return execute


def _prepare_rate(inputs: dict) -> Execute:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential(_require(inputs, "potential"), P)
    points = _count(inputs.get("points", 50), "points", 2)
    if "xi_grid" in inputs:
        xi_grid = list(_reals(inputs["xi_grid"], "xi_grid"))
        if not xi_grid:
            raise ConfigInvalid("xi_grid must be non-empty")
    else:
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

    return execute


def _prepare_meta(inputs: dict) -> Execute:
    P = _as_distribution(_require(inputs, "P"), "P")
    v = _as_potential(_require(inputs, "loss_row"), P)
    n = _count(_require(inputs, "n"), "n", 1)
    lo, hi = _window_from(inputs, P, v)
    u_spec = _require(inputs, "U")
    if not isinstance(u_spec, dict) or "kind" not in u_spec:
        raise ConfigInvalid('U must be an object like {"kind": "centered_square"}')
    spec = {**u_spec, **{key: _reals(u_spec[key], key) for key in ("table_xi", "table_u") if key in u_spec}}
    if spec.get("center") is not None:
        spec["center"] = _real(spec["center"], "center")
    try:
        meta = MetaConstraint.from_dict(spec, _real(_require(inputs, "eta"), "eta"))
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    step = inputs.get("model_grid_step")
    if step is not None:
        step = _real(step, "model_grid_step")
    model_grid_step(P.size, step)
    speed = check_speed(_real(inputs.get("speed", 1.0), "speed"))

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

    return execute


def _prepare_corr(inputs: dict) -> Execute:
    sigma_y = _real(inputs.get("sigma_y", 1.0), "sigma_y")
    epsilon = _real(inputs.get("epsilon", 0.0), "epsilon")
    loss_spec = _require(inputs, "loss")
    if not isinstance(loss_spec, dict) or "kind" not in loss_spec:
        raise ConfigInvalid('loss must be an object like {"kind": "quadratic"}')
    loss = loss_function(loss_spec["kind"], **{k: _real(v, k) for k, v in loss_spec.items() if k != "kind"})
    rs = correlation_grid(_reals(_require(inputs, "r_grid"), "r_grid"))
    GaussianPairModel(sigma_y, max(rs), epsilon)  # checks sigma_y, and epsilon where the envelope is tightest

    def execute(ctx: RunContext) -> dict:
        curve = loss_correlation_curve(loss, rs, sigma_y=sigma_y, epsilon=epsilon)
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

    return execute


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


def prepare(
    config: dict,
    command: str | None = None,
    fmt: str | None = None,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> RunPlan:
    """Parse and validate a config and its run settings; raises MaxentError
    subclasses.  A command in RUN_TO_VALIDATE runs here, once, and a fault of
    its computation propagates as itself.  ``fmt``, ``seed`` and ``out_dir``,
    when given, override the config's ``format``, ``seed`` and ``output_dir``."""
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
    unread = sorted(set(inputs) - set(INPUT_KEYS[cmd]))
    if unread:
        raise ConfigInvalid(f"inputs has keys the command does not read: {', '.join(map(str, unread))}")
    fmt = config.get("format", "both") if fmt is None else fmt
    if fmt not in FORMATS:
        raise ConfigInvalid(f"format must be one of {FORMATS}")
    seed = config.get("seed", 0) if seed is None else seed
    if _count(seed, "seed", 0) >= 2 ** 64:
        raise ConfigInvalid("seed must be a 64-bit non-negative integer")
    out_dir = config.get("output_dir", ".") if out_dir is None else out_dir
    if not isinstance(out_dir, (str, os.PathLike)):
        raise ConfigInvalid("output_dir must be a path string")
    try:
        execute = _PREPARERS[cmd](inputs)
    except MaxentError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigInvalid(f"bad inputs for {cmd!r}: {exc}") from exc
    if cmd in RUN_TO_VALIDATE:  # neither execute reads its RunContext
        artifacts = execute(RunContext(seed=seed, threads=1, verbose=False))
        execute = lambda ctx: artifacts
    return RunPlan(cmd, execute, fmt, seed, Path(out_dir))


def _diagnostic(exc: MaxentError) -> dict:
    return {"family": _FAMILIES.get(exc.exit_code, "error"), "error": type(exc).__name__, "message": str(exc)}


def validate(config: dict, command: str | None = None) -> list[dict]:
    """Diagnostics without writing anything; empty list means valid."""
    try:
        prepare(config, command)
    except MaxentError as exc:
        return [_diagnostic(exc)]
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
    """Validate and execute a config, write outputs plus a manifest whose time
    span includes validation (see RUN_TO_VALIDATE), return the manifest."""
    stdout = stdout if stdout is not None else sys.stdout
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    plan = prepare(config, command, fmt=fmt, seed=seed, out_dir=out_dir)
    threads = threads if threads is not None else _default_threads()
    ctx = RunContext(seed=plan.seed, threads=max(1, threads), verbose=verbose)
    manifest = RunManifest(
        config_sha256=canonical_config_hash(config),
        command=plan.command,
        artifact_version=__version__,
        started_utc=started,
        finished_utc="",
        seed=plan.seed,
        threads=ctx.threads,
    )

    artifacts = plan.execute(ctx)

    out = plan.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        payload = artifacts.get("json")
        json_text = dumps(payload)
        stdout.write(json_text)
        has_csv = bool(artifacts.get("csv"))
        if plan.fmt in ("json", "both") or not has_csv:
            path = out / f"{plan.command}_result.json"
            path.write_text(json_text, encoding="utf-8")
            manifest.outputs[path.name] = sha256_text(json_text)
        if plan.fmt in ("csv", "both"):
            for name, (header, rows) in artifacts.get("csv", {}).items():
                text = csv_text(header, rows)
                path = out / name
                path.write_text(text, encoding="utf-8", newline="")
                manifest.outputs[path.name] = sha256_text(text)

        manifest.finished_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest_path = out / "manifest.json"
        manifest_path.write_text(dumps(asdict(manifest)), encoding="utf-8")
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
        p.add_argument("--format", default=None, help="csv, json or both (falls back to the config format)")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
        p.add_argument(
            "--validate-only",
            action="store_true",
            help="report diagnostics and write nothing",
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
            try:
                prepare(config, args.command, fmt=args.format, seed=args.seed, out_dir=args.out)
            except MaxentError as exc:
                sys.stdout.write(dumps({"diagnostics": [_diagnostic(exc)]}))
                return exc.exit_code
            sys.stdout.write(dumps({"diagnostics": []}))
            return 0

        run(
            config,
            command=args.command,
            out_dir=args.out,
            fmt=args.format,
            seed=args.seed,
            threads=args.threads,
            verbose=args.verbose,
        )
        return 0
    except MaxentError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
