"""In-memory span recorder that wraps maxent_bayes functions from outside.

``install`` replaces each target function with a recording wrapper in every
maxent_bayes module that holds it, so ``ldp.enumerate_types`` and the name
``meta.enumerate_types`` both record. A span is [name, start, end, parent,
op]; spans opened on a pool thread with no open span of their own take the
main thread's innermost span as parent (the only pool is the Monte Carlo
sampler's, which the main thread waits on). Layers are the modules: a span
named "ldp.sampler.draw" belongs to layer "ldp".
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import sys
import threading
import time


def _types(counts, bound, result):
    counts["ldp.enumerate_types.types"] += result.size
    counts["ldp.enumerate_types.bytes"] += result.counts.nbytes + result.log_probs.nbytes


def _support(counts, bound, result):
    counts["meta.error_distribution_exact.support"] += result.support.size


def _points(counts, bound, result):
    counts["ldp.error_rate_function.points"] += len(result)


def _grid_points(counts, bound, result):
    counts["meta.map_model.grid_points"] += result.shape[0]


def _monte_carlo(counts, bound, result):
    trials = bound.arguments["trials"]
    counts["ldp.sanov_monte_carlo.trials"] += trials * len(result.n_grid)
    counts["ldp.sanov_monte_carlo.hits"] += sum(
        round(math.exp(lp) * trials) for lp in result.log_probs if math.isfinite(lp)
    )


def _bytes_out(counts, bound, result):
    counts["jsonio.bytes_out"] += len(result.encode("utf-8"))


# (module, function, hook): the span is named "<module>.<function>".
TARGETS = (
    ("cli", "run", None),
    ("cli", "prepare", None),
    ("jsonio", "dumps", _bytes_out),
    ("jsonio", "csv_text", _bytes_out),
    ("jsonio", "sha256_text", None),
    ("ldp", "enumerate_types", _types),
    ("ldp", "sanov_exact", None),
    ("ldp", "sanov_monte_carlo", _monte_carlo),
    ("ldp", "gibbs_conditioning", None),
    ("ldp", "error_rate_function", _points),
    ("meta", "error_distribution_exact", _support),
    ("meta", "run_meta_pipeline", None),
    ("meta", "maxent_error_fit", None),
    ("meta", "map_model", None),
    ("meta", "simplex_grid", _grid_points),
    ("tilting", "solve_tilt", None),
    ("tilting", "solve_tilt_with_report", None),
    ("tilting", "i_projection", None),
    ("tilting", "divergence_projection", None),
    ("measures", "kl_divergence", None),
    ("measures", "total_variation", None),
    ("correlation", "loss_correlation_curve", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args=(), kwargs=None, hook=None, signature=None):
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        record = [name, 0.0, 0.0, parent, self.op]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
            self.counts[name + ".calls"] += 1
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.counts[name + ".failed"] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if hook is not None:
            with self._lock:
                hook(self.counts, signature.bind(*args, **kwargs), result)
        return result

    def wrap(self, name, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook, signature)

        return wrapper

    def reset(self) -> None:
        self.spans = []
        self.counts = collections.Counter()

    def summary(self) -> dict:
        """Self time per span name and per layer, plus the counters."""
        children = collections.defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out = collections.Counter(self.counts)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted((self.spans[j][1], self.spans[j][2]) for j in children.get(i, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            own = (end - start) - covered
            out[name + ".self_s"] += own
            out["layer." + name.split(".")[0] + ".self_s"] += own
            if name == "bench.op":
                out["bench.op.wall_s"] += end - start
        return dict(out)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets this library version lacks."""
    modules = [m for key, m in list(sys.modules.items()) if key == "maxent_bayes" or key.startswith("maxent_bayes.")]
    missing = []
    for module, attr, hook in TARGETS:
        home = sys.modules.get("maxent_bayes." + module)
        original = getattr(home, attr, None)
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(f"{module}.{attr}", original, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    sampler = getattr(sys.modules.get("maxent_bayes.ldp"), "SeededSampler", None)
    if sampler is None or not hasattr(sampler, "multinomial_block"):
        missing.append("ldp.SeededSampler.multinomial_block")
    else:
        sampler.multinomial_block = tracer.wrap("ldp.sampler.draw", sampler.multinomial_block)
    return missing
