"""Hierarchical wall-time tracing spans.

A :class:`Tracer` is the one timing record of a session: spans carry a
name, wall-time bounds, arbitrary attributes, an error status, and a
parent link, forming a tree per thread of execution.  Flat per-name
queries (:meth:`Tracer.count`, :meth:`Tracer.total`) aggregate over the
tree, and the whole trace exports to JSON for offline inspection.

The simulation and analysis layers take the tracer as their
``timings`` collector and only ever call ``span(name)`` on it (through
:func:`~repro.analysis.timing.maybe_span`), without knowing about
hierarchy.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Mapping

__all__ = ["NullSpan", "Span", "Tracer"]


class NullSpan:
    """No-op attribute sink yielded when no collector is attached."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Span:
    """One named wall-time span, possibly nested under a parent span."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "status",
        "error",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attributes: Mapping[str, Any] | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.status = "ok"
        self.error: str | None = None

    @property
    def seconds(self) -> float:
        """Wall time covered (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def fail(self, message: str) -> "Span":
        """Mark the span as failed with a human-readable reason."""
        self.status = "error"
        self.error = message
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "attributes": dict(self.attributes),
            "status": self.status,
            "error": self.error,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.seconds * 1e3:.2f}ms, {self.status})"
        )


class Tracer:
    """Collector of hierarchical spans, one active stack per thread.

    Example::

        tracer = Tracer()
        with tracer.span("sweep", points=8):
            with tracer.span("fanout") as sp:
                sp.set(workers=4)
        tracer.export("trace.json")
    """

    def __init__(self):
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span under the current thread's active span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(next(self._ids), parent, name, perf_counter(), attributes)
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            span.end = perf_counter()
            if stack and stack[-1] is span:
                stack.pop()
            self._finish(span)

    def record(self, name: str, seconds: float, **attributes: Any) -> Span:
        """Append an already-measured span (e.g. timed in a worker process).

        The span is parented under the current thread's active span and
        backdated so that it *ends* now and covers *seconds*.
        """
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        now = perf_counter()
        span = Span(next(self._ids), parent, name, now - float(seconds), attributes)
        span.end = now
        self._finish(span)
        return span

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- queries -----------------------------------------------------------
    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans in creation order (optionally filtered by name)."""
        with self._lock:
            spans = sorted(self._spans, key=lambda s: s.span_id)
        if name is None:
            return spans
        return [s for s in spans if s.name == name]

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def total(self, name: str | None = None) -> float:
        """Total seconds across spans of one name (or all spans)."""
        return sum(s.seconds for s in self.spans(name))

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans() if s.parent_id is None]

    # -- export ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"spans": [s.to_dict() for s in self.spans()]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def export(self, path: str) -> None:
        """Write the trace as JSON to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def report(self) -> str:
        """A small indented tree of the recorded spans."""
        spans = self.spans()
        if not spans:
            return "no spans recorded"
        by_parent: dict[int | None, list[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            marker = "" if span.status == "ok" else f"  [{span.status}: {span.error}]"
            lines.append(
                f"{'  ' * depth}{span.name}  {span.seconds * 1e3:.2f}ms{marker}"
            )
            for child in by_parent.get(span.span_id, ()):
                walk(child, depth + 1)

        for root in by_parent.get(None, ()):
            walk(root, 0)
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans())})"
