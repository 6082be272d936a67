"""Tests for the optional stage-span helper."""

from repro.analysis.timing import maybe_span
from repro.obs import Tracer


class TestMaybeSpan:
    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "evaluate"):
            pass  # must not raise

    def test_maybe_span_records(self):
        tracer = Tracer()
        with maybe_span(tracer, "enumerate"):
            pass
        assert tracer.count("enumerate") == 1
