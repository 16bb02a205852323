"""Spans around the calls into each ``wacrisk`` module, installed from outside.

``Tracer.install`` wraps every public function defined in the layer modules
and rebinds every name in every loaded ``wacrisk`` module that refers to the
same function object (``from .spectral import evaluate`` copies the binding,
so patching only the defining module would miss those callers).
``uninstall`` puts the original objects back.

Each wrapped call appends one span ``[name, start, end, parent, job, error,
info]`` to an in-memory list; ``parent`` is the index of the enclosing span
(-1 at top level) and ``job`` the job number set by the runner.  A few
functions carry an annotator that records what the per-layer metrics need
(a verdict, a step count, the probes ``grid_minimize`` made).  Functions
called millions of times per job (``magnitude_sq``) are counted, not spanned.

The tracer tolerates a changing program: a layer module or function that is
missing is reported ``absent`` by the metrics that need it, a function that
is new is spanned like any other, and an annotator that no longer fits the
function's signature or result leaves its metrics absent instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "wacrisk"
LAYERS = ("network", "stability", "spectral", "_gridopt", "stats", "risk", "synthesis", "simulate", "cli")
COUNT_ONLY = frozenset({"spectral.magnitude_sq"})


def layer_name(module_name: str) -> str:
    """Metric prefix of a layer module: ``wacrisk._gridopt`` -> ``gridopt``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def discover() -> dict:
    """Public functions of each layer module, keyed ``layer.function``; a
    layer module that no longer imports contributes none."""
    targets = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            targets[f"{layer_name(layer)}.{attr}"] = obj
    return targets


# ----------------------------------------------------------------- annotators
# Each takes (bound arguments, result) and returns the span's info dict.

def _classify_info(args, result):
    return {"stable": bool(result.stable)}


def _impulse_info(args, result):
    return {"steps": len(result.times) - 1}


def _simulate_info(args, result):
    config, noise = args["config"], args["noise"]
    return {"path_steps": config.trajectories * result.steps_total, "meas": noise.eta_meas != 0.0}


ANNOTATORS = {
    "stability.classify": _classify_info,
    "simulate.impulse_response": _impulse_info,
    "simulate.simulate": _simulate_info,
}


class _ProbeCounter:
    """Wraps the objective handed to ``grid_minimize``: counts probes and
    non-finite values, one per entry if the objective is evaluated on arrays."""

    def __init__(self, objective):
        self.objective = objective
        self.probes = 0
        self.infeasible = 0

    def __call__(self, *args, **kwargs):
        import numpy as np

        value = self.objective(*args, **kwargs)
        flat = np.ravel(value)
        self.probes += flat.size
        self.infeasible += int(np.count_nonzero(~np.isfinite(flat)))
        return value


def _seed_grid_size(args) -> int | None:
    """Number of seed-grid probes, from the module's own axis rule; None when
    that rule is gone or no longer takes these arguments."""
    axis = getattr(sys.modules.get(f"{PACKAGE}._gridopt"), "_axis", None)
    try:
        x_lo, x_hi, y_lo, y_hi = args["box"]
        step = args["step"]
        sx, sy = (step, step) if not isinstance(step, (tuple, list)) else step
        return len(axis(x_lo, x_hi, sx)) * len(axis(y_lo, y_hi, sy))
    except Exception:  # polish probes become absent rather than ending the run
        return None


class Tracer:
    def __init__(self):
        self.targets = discover()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self.targets.items()}

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        if self._patches:
            return
        by_id = {id(fn): (fn, self._wrappers[name]) for name, fn in self.targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = by_id.get(id(value), (None, None))
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # ---------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        annotate = ANNOTATORS.get(name)
        probes = name == "gridopt.grid_minimize"
        try:
            signature = inspect.signature(fn) if (annotate or probes) else None
        except (TypeError, ValueError):
            signature = None
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            bound = counter = None
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    bound = None
                if probes and bound is not None and "objective" in bound.arguments:
                    counter = _ProbeCounter(bound.arguments["objective"])
                    bound.arguments["objective"] = counter
                    args, kwargs = bound.args, bound.kwargs
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                record[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            record[2] = clock()
            if annotate is not None and bound is not None:
                try:
                    record[6] = annotate(bound.arguments, result)
                except Exception:  # a changed signature or result must not end the run
                    record[6] = None
            elif counter is not None:
                record[6] = {"probes": counter.probes, "infeasible": counter.infeasible,
                             "seed": _seed_grid_size(bound.arguments)}
            return result

        return spanned


# ---------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def coverage(spans: list[list], job_walls: dict[int, float]) -> float:
    """Median over traced jobs of (time inside top-level spans) / (job wall time)."""
    covered = defaultdict(float)
    for s in spans:
        if s[3] < 0 and s[4] is not None:
            covered[s[4]] += s[2] - s[1]
    shares = [covered[job] / wall for job, wall in job_walls.items() if wall > 0]
    return statistics.median(shares) if shares else 0.0


# (metric, unit, better) in the order BENCHMARK.json lists them; the third
# entry of each kind tells per_layer() how to compute it
PER_LAYER = [
    ("spectral.evaluate.calls", "count", "lower"),
    ("spectral.evaluate.self_s", "s", "lower"),
    ("spectral.evaluate.p50_ms", "ms", "lower"),
    ("spectral.evaluate.p99_ms", "ms", "lower"),
    ("spectral.evaluate.infeasible_frac", "ratio", "lower"),
    ("spectral.magnitude_sq.calls_per_evaluate", "count", "lower"),
    ("stability.classify.calls", "count", "lower"),
    ("stability.classify.self_s", "s", "lower"),
    ("stability.classify.p50_us", "us", "lower"),
    ("stability.classify.p99_us", "us", "lower"),
    ("stability.classify.unstable_frac", "ratio", "lower"),
    ("gridopt.grid_minimize.calls", "count", "lower"),
    ("gridopt.grid_minimize.self_s", "s", "lower"),
    ("gridopt.grid_minimize.probes", "count", "lower"),
    ("gridopt.grid_minimize.polish_probes", "count", "lower"),
    ("gridopt.grid_minimize.infeasible_probe_frac", "ratio", "lower"),
    ("stats.pair_deviations.calls", "count", "lower"),
    ("stats.pair_deviations.self_s", "s", "lower"),
    ("stats.pair_deviations.p50_ms", "ms", "lower"),
    ("risk.risk_profile.calls", "count", "lower"),
    ("risk.risk_profile.self_s", "s", "lower"),
    ("synthesis.synthesize.self_s", "s", "lower"),
    ("synthesis.tradeoff_scan.self_s", "s", "lower"),
    ("synthesis.deviation_floor.self_s", "s", "lower"),
    ("simulate.em_meas.ns_per_path_step", "ns", "lower"),
    ("simulate.em_load.ns_per_path_step", "ns", "lower"),
    ("simulate.em.path_steps", "count", "lower"),
    ("stability.rightmost_root.calls", "count", "lower"),
    ("stability.rightmost_root.self_s", "s", "lower"),
    ("stability.rightmost_root.p50_ms", "ms", "lower"),
    ("stability.rightmost_root.p95_ms", "ms", "lower"),
    ("stability.rightmost_root.infeasible_frac", "ratio", "lower"),
    ("simulate.impulse_response.calls", "count", "lower"),
    ("simulate.impulse_response.self_s", "s", "lower"),
    ("simulate.impulse_response.steps", "count", "lower"),
    ("network.build_laplacian.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class _Absent(Exception):
    """A metric whose function, module or annotation is missing."""


def per_layer(tracer: Tracer, job_walls: dict[int, float], overhead: float) -> dict[str, dict]:
    """Per-layer metrics, per traced job, from the spans of ``tracer``.

    Every name in PER_LAYER is present; one that cannot be computed has value
    0 and ``"absent": true``.
    """
    spans = tracer.spans  # parent fields index this list, so it is used unfiltered
    jobs = max(len(job_walls), 1)
    own = self_times(spans)
    by_name = defaultdict(list)
    for idx, s in enumerate(spans):
        by_name[s[0]].append(idx)

    def need(fn: str) -> list[int]:
        if fn not in tracer.targets:
            raise _Absent(fn)
        return by_name.get(fn, [])

    def calls(fn):
        return len(need(fn)) / jobs

    def self_s(fn):
        return sum(own[i] for i in need(fn)) / jobs

    def total_s(fn):
        return sum(spans[i][2] - spans[i][1] for i in need(fn)) / jobs

    def quantile_of(fn, q, scale):
        durations = [spans[i][2] - spans[i][1] for i in need(fn)]
        return _quantile(durations, q) * scale if durations else 0.0

    def error_frac(fn, error):
        idx = need(fn)
        return sum(spans[i][5] == error for i in idx) / len(idx) if idx else 0.0

    def infos(fn):
        idx = need(fn)
        found = [spans[i][6] for i in idx if spans[i][5] is None]
        if any(info is None for info in found):
            raise _Absent(fn)
        return found

    def unstable_frac():
        verdicts = infos("stability.classify")
        return sum(not v["stable"] for v in verdicts) / len(verdicts) if verdicts else 0.0

    def probes(key):
        found = infos("gridopt.grid_minimize")
        if key == "polish":
            if any(info["seed"] is None for info in found):
                raise _Absent("gridopt._axis")
            return sum(info["probes"] - info["seed"] for info in found) / jobs
        if key == "infeasible":
            total = sum(info["probes"] for info in found)
            return sum(info["infeasible"] for info in found) / total if total else 0.0
        return sum(info["probes"] for info in found) / jobs

    def em(meas):
        idx = need("simulate.simulate")
        steps = busy = 0.0
        for i in idx:
            info = spans[i][6]
            if spans[i][5] is not None:
                continue
            if info is None:
                raise _Absent("simulate.simulate")
            if meas is None or info["meas"] == meas:
                steps += info["path_steps"]
                busy += own[i]
        if meas is None:
            return steps / jobs
        return busy / steps * 1e9 if steps else 0.0

    def magnitude_per_evaluate():
        if "spectral.magnitude_sq" not in tracer.targets:
            raise _Absent("spectral.magnitude_sq")
        evaluations = len(need("spectral.evaluate"))
        return tracer.counts["spectral.magnitude_sq"] / evaluations if evaluations else 0.0

    def layer_self(layer):
        names = [n for n in tracer.targets if n.split(".", 1)[0] == layer]
        if not names:
            raise _Absent(layer)
        return sum(self_s(n) for n in names)

    rules = {
        "spectral.evaluate.calls": lambda: calls("spectral.evaluate"),
        "spectral.evaluate.self_s": lambda: self_s("spectral.evaluate"),
        "spectral.evaluate.p50_ms": lambda: quantile_of("spectral.evaluate", 0.5, 1e3),
        "spectral.evaluate.p99_ms": lambda: quantile_of("spectral.evaluate", 0.99, 1e3),
        "spectral.evaluate.infeasible_frac": lambda: error_frac("spectral.evaluate", "InfeasibleError"),
        "spectral.magnitude_sq.calls_per_evaluate": magnitude_per_evaluate,
        "stability.classify.calls": lambda: calls("stability.classify"),
        "stability.classify.self_s": lambda: self_s("stability.classify"),
        "stability.classify.p50_us": lambda: quantile_of("stability.classify", 0.5, 1e6),
        "stability.classify.p99_us": lambda: quantile_of("stability.classify", 0.99, 1e6),
        "stability.classify.unstable_frac": unstable_frac,
        "gridopt.grid_minimize.calls": lambda: calls("gridopt.grid_minimize"),
        "gridopt.grid_minimize.self_s": lambda: self_s("gridopt.grid_minimize"),
        "gridopt.grid_minimize.probes": lambda: probes("all"),
        "gridopt.grid_minimize.polish_probes": lambda: probes("polish"),
        "gridopt.grid_minimize.infeasible_probe_frac": lambda: probes("infeasible"),
        "stats.pair_deviations.calls": lambda: calls("stats.pair_deviations"),
        "stats.pair_deviations.self_s": lambda: self_s("stats.pair_deviations"),
        "stats.pair_deviations.p50_ms": lambda: quantile_of("stats.pair_deviations", 0.5, 1e3),
        "risk.risk_profile.calls": lambda: calls("risk.risk_profile"),
        "risk.risk_profile.self_s": lambda: self_s("risk.risk_profile"),
        "synthesis.synthesize.self_s": lambda: self_s("synthesis.synthesize"),
        "synthesis.tradeoff_scan.self_s": lambda: self_s("synthesis.tradeoff_scan"),
        "synthesis.deviation_floor.self_s": lambda: self_s("synthesis.deviation_floor"),
        "simulate.em_meas.ns_per_path_step": lambda: em(True),
        "simulate.em_load.ns_per_path_step": lambda: em(False),
        "simulate.em.path_steps": lambda: em(None),
        "stability.rightmost_root.calls": lambda: calls("stability.rightmost_root"),
        "stability.rightmost_root.self_s": lambda: self_s("stability.rightmost_root"),
        "stability.rightmost_root.p50_ms": lambda: quantile_of("stability.rightmost_root", 0.5, 1e3),
        "stability.rightmost_root.p95_ms": lambda: quantile_of("stability.rightmost_root", 0.95, 1e3),
        "stability.rightmost_root.infeasible_frac": lambda: error_frac("stability.rightmost_root", "InfeasibleError"),
        "simulate.impulse_response.calls": lambda: calls("simulate.impulse_response"),
        "simulate.impulse_response.self_s": lambda: self_s("simulate.impulse_response"),
        "simulate.impulse_response.steps": lambda: sum(i["steps"] for i in infos("simulate.impulse_response")) / jobs,
        "network.build_laplacian.s": lambda: total_s("network.build_laplacian"),
        "cli.run.self_s": lambda: layer_self("cli"),
        "trace.overhead_frac": lambda: overhead,
        "trace.span_coverage": lambda: coverage(spans, job_walls),
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        try:
            metrics[name] = {"value": float(rules[name]()), "unit": unit}
        except _Absent:
            metrics[name] = {"value": 0.0, "unit": unit, "absent": True}
    return metrics
