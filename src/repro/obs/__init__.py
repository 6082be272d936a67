"""Observability layer: hierarchical tracing and a metrics registry.

The interactive workflow of the paper only works when the analysis
backend is *trusted* — a re-evaluation that silently degraded (serial
fallback, dropped sweep points, stale cache entries) shows the engineer
a wrong heatmap with full confidence.  This package gives every
pipeline run an inspectable execution record:

- :mod:`repro.obs.trace` — hierarchical wall-time spans, the one
  timing record of a session.  A :class:`~repro.obs.trace.Tracer`
  threads through the simulation and analysis layers as their
  ``timings`` collector, recording parent/child structure, per-span
  attributes, and error status — exportable as JSON.
- :mod:`repro.obs.metrics` — a registry of named counters, gauges and
  histograms (sweep retries, timeouts, pool respawns, cache hits,
  per-point latencies), also exportable as JSON.

Both are owned by :class:`~repro.tool.session.Session` and written by
the CLI under ``--trace`` / ``--metrics-out``.

The auto-tuning search (:mod:`repro.tuning`) reports through the same
registry and tracer: ``tune.run`` / ``tune.round`` spans wrap the
search, counters ``tuning.rounds``, ``tuning.candidates.evaluated`` /
``.deduplicated`` / ``.failed``, ``tuning.apply_failures`` and the
``tuning.best_moved_bytes`` gauge record its progress, and the
per-pass ``pass.<product>.hits`` counters show how much candidate
re-scoring was served from the incremental pass cache.  Map-fusion
convergence failures surface as ``transforms.fusion.rounds_capped``.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, StateGauge
from repro.obs.trace import NullSpan, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSpan",
    "Span",
    "StateGauge",
    "Tracer",
]
