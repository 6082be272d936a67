"""Optional wall-time spans around the analysis pipeline stages.

The paper's interactive loop lives or dies by the local view re-running
"in a fraction of a second"; to keep that property measurable, the
simulation and analysis layers accept an optional ``timings`` collector
— the session's :class:`~repro.obs.trace.Tracer` — and wrap each stage
in a span:

- ``enumerate`` — concretizing iteration spaces / building index grids,
- ``evaluate``  — materializing the access trace (vectorized or
  interpreted),
- ``layout``    — physical layout construction and element→line mapping,
- ``stackdist`` — reuse-distance computation,
- ``classify``  — miss classification and movement estimation,
- ``fanout``    — dispatching parametric-sweep points to workers,
- ``merge``     — folding worker results back into the session store.

:func:`maybe_span` makes the collector optional: it yields an attribute
sink either way — a real :class:`~repro.obs.trace.Span` from a tracer,
a no-op :class:`~repro.obs.trace.NullSpan` without one — so
instrumented code can attach metadata (event counts, point parameters)
unconditionally.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.trace import NULL_SPAN

__all__ = ["maybe_span"]


@contextmanager
def maybe_span(timings, stage: str) -> Iterator:
    """Record a span when *timings* is provided; otherwise a no-op.

    *timings* is any collector with a ``span(name)`` context manager,
    such as a :class:`~repro.obs.trace.Tracer`.  Always yields an
    attribute sink supporting ``set(**attrs)``.
    """
    if timings is None:
        yield NULL_SPAN
        return
    with timings.span(stage) as span:
        yield span if span is not None else NULL_SPAN
