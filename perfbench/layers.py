"""Per-layer tracing for the traced benchmark run.

:func:`install` wraps the public entry points of each layer of the
program — nothing under ``src/`` changes — and records one span per
call into a :class:`SpanLog`.  Synchronous calls nest on a per-thread
stack, so a span knows its wrapped parent and its self time is its
duration minus what its children cover.  Coroutines interleave on the
event loop thread, so their spans are recorded flat (no parent, no
children): their self time is their whole duration.

Layer names are the program's module names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
from time import perf_counter

from stats import coverage, self_time

#: layer -> wrapped callables, as ``module:attribute`` or
#: ``module:Class.method``.  A method listed on a base class is wrapped
#: on every subclass that overrides it.
LAYERS: dict[str, tuple[str, ...]] = {
    "serve.http.read": ("repro.serve.http:read_request",),
    "serve.http.send": ("repro.serve.http:Connection.send",),
    "serve.json": ("repro.serve.http:json_response",),
    "resilience.admission.wait": (
        "repro.resilience.admission:AdmissionController.acquire",
    ),
    "serve.coalesce.fetch": ("repro.serve.coalesce:Coalescer.fetch",),
    "passes.key": ("repro.passes.pipeline:Pipeline.key",),
    "passes.run": ("repro.passes.pipeline:Pipeline.run",),
    "sdfg.fingerprint": (
        "repro.sdfg.serialize:state_fingerprint",
        "repro.sdfg.serialize:arrays_fingerprint",
        "repro.sdfg.serialize:sdfg_fingerprint",
        "repro.sdfg.serialize:canonical_json",
    ),
    "locality.analytic": ("repro.locality.engine:analyze_locality",),
    "simulation.enumerate": (
        "repro.simulation.simulator:simulate_state",
        "repro.simulation.arrays:build_array_trace",
        "repro.simulation.stackdist:stack_distances_array",
    ),
    "symbolic.compile": ("repro.symbolic.compiled:compile_expr",),
    "analysis.executor.run": ("repro.analysis.executor:SweepExecutor.run",),
    "analysis.executor.pool_spawn": (
        "repro.analysis.executor:SweepExecutor._spawn_pool",
    ),
    "storage.disk.read": ("repro.storage.diskcache:DiskCache.get",),
    "storage.disk.write": ("repro.storage.diskcache:DiskCache.put",),
    "transforms.apply": ("repro.transforms.protocol:Transform.apply",),
    "transforms.enumerate": (
        "repro.transforms.protocol:Transform.enumerate_matches",
    ),
    "tuning.score": (
        "repro.tuning.objective:MovementObjective.score",
        "repro.tuning.objective:MovementObjective.from_point",
    ),
    "viz.render": ("repro.tool.session:GlobalView.render",),
}

#: Modules imported before wrapping, so that every ``from x import f``
#: copy of a wrapped function already exists and is replaced too.
_PRELOAD = (
    "repro.serve.app",
    "repro.tool.session",
    "repro.tuning",
    "repro.locality",
    "repro.passes",
    "repro.storage",
    "repro.analysis.parametric",
)


class SpanLog:
    """Spans of wrapped calls: ``[layer, start, end, parent index]``."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.records)
            self.records.append([layer, perf_counter(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.records[index][2] = perf_counter()
        self._stack().pop()

    def add_flat(self, layer: str, start: float, end: float) -> None:
        with self._lock:
            self.records.append([layer, start, end, None])


def _wrap(fn, layer: str, log: SpanLog):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                log.add_flat(layer, start, perf_counter())

        async_wrapper.__perfbench_original__ = fn
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = log.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(log: SpanLog) -> int:
    """Wrap every callable in :data:`LAYERS`; returns how many were wrapped."""
    for name in _PRELOAD:
        importlib.import_module(name)
    wrapped = 0
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    fn = cls.__dict__.get(method)
                    if fn is None or hasattr(fn, "__perfbench_original__"):
                        continue
                    setattr(cls, method, _wrap(fn, layer, log))
                    wrapped += 1
                continue
            fn = getattr(module, attr)
            replacement = _wrap(fn, layer, log)
            # ``from module import fn`` copies the reference; replace
            # every copy, not just the defining module's.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if namespace is None:
                    continue
                for key, value in list(namespace.items()):
                    if value is fn:
                        setattr(other, key, replacement)
            wrapped += 1
    return wrapped


def summarize(
    log: SpanLog, operations: list[tuple[float, float]]
) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    For each layer: ``<layer>_ms`` (median self time per call) and
    ``<layer>.calls``; plus ``trace.coverage``, the share of the
    operations' wall time that some wrapped call covers.
    """
    records = [r for r in log.records if r[2] is not None]
    children: dict[int, list[tuple[float, float]]] = {}
    for index, record in enumerate(log.records):
        parent = record[3]
        if parent is not None and record[2] is not None:
            children.setdefault(parent, []).append((record[1], record[2]))
    per_layer: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for index, record in enumerate(log.records):
        if record[2] is None:
            continue
        per_layer[record[0]].append(
            self_time((record[1], record[2]), children.get(index, ()))
        )
    out: dict[str, float] = {}
    for layer, selfs in per_layer.items():
        out[f"{layer}_ms"] = statistics.median(selfs) * 1e3 if selfs else 0.0
        out[f"{layer}.calls"] = len(selfs)
    out["trace.coverage"] = coverage(
        operations, [(r[1], r[2]) for r in records]
    )
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_figures(
    counters: dict[str, int], compile_info: dict, spans: int, histogram_samples: int
) -> dict[str, float]:
    """Per-layer ratios and counts from the program's own counters."""

    def total(prefix: str, suffix: str) -> int:
        return sum(
            v for k, v in counters.items()
            if k.startswith(prefix) and k.endswith(suffix)
        )

    pass_hits = total("pass.", ".hits")
    pass_misses = total("pass.", ".misses")
    analytic = counters.get("locality.analytic.hits", 0)
    fallbacks = counters.get("locality.analytic.fallbacks", 0)
    led = counters.get("serve.coalesce.led", 0)
    joined = counters.get("serve.coalesce.joined", 0)
    disk_hits = counters.get("disk.hits", 0)
    views = total("serve.v1.", ".requests") - counters.get(
        "serve.v1.metrics.requests", 0
    ) - counters.get("serve.v1.healthz.requests", 0)
    return {
        "passes.hit_ratio": _ratio(pass_hits, pass_hits + pass_misses),
        "locality.fallback_ratio": _ratio(fallbacks, analytic + fallbacks),
        "symbolic.compile_hit_ratio": _ratio(
            compile_info.get("hits", 0),
            compile_info.get("hits", 0) + compile_info.get("misses", 0),
        ),
        "serve.coalesce.joined_ratio": _ratio(joined, led + joined),
        "serve.etag_304_ratio": _ratio(counters.get("serve.etag_304", 0), views),
        "resilience.admission.shed": total("admission.", ".shed"),
        "analysis.executor.pool_used": counters.get("sweep.pool_spawns", 0),
        "analysis.executor.retries": counters.get("sweep.retries", 0),
        "storage.disk.hit_ratio": _ratio(
            disk_hits, disk_hits + counters.get("disk.misses", 0)
        ),
        "obs.spans_retained": spans,
        "obs.histogram_samples": histogram_samples,
    }


def session_figures(sources) -> dict[str, float]:
    """:func:`counter_figures` summed over ``(metrics, tracer)`` pairs
    (sessions, searches) of this process."""
    from repro.symbolic.compiled import compile_cache_info

    counters: dict[str, int] = {}
    spans = samples = 0
    for metrics, tracer in sources:
        for name, value in metrics.to_dict()["counters"].items():
            counters[name] = counters.get(name, 0) + value
        samples += sum(h.count for h in metrics._histograms.values())
        spans += len(tracer.spans())
    return counter_figures(counters, compile_cache_info(), spans, samples)
