"""Tests for the hierarchical tracing spans."""

import json
import threading

import pytest

from repro.analysis.timing import maybe_span
from repro.obs import NullSpan, Tracer


class TestSpanRecording:
    def test_span_measures_time_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            span.set(extra="yes")
        [recorded] = tracer.spans("work")
        assert recorded is span
        assert recorded.seconds >= 0
        assert recorded.attributes == {"items": 3, "extra": "yes"}
        assert recorded.status == "ok"

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child"):
                pass
        root = tracer.roots()[0]
        assert root.name == "root"
        children = tracer.children(root)
        assert [c.name for c in children] == ["child", "child"]
        assert tracer.children(children[0])[0].name == "grandchild"
        assert tracer.children(children[1]) == []

    def test_exception_marks_span_failed_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no good")
        [span] = tracer.spans("boom")
        assert span.status == "error"
        assert "no good" in span.error
        assert span.end is not None  # still closed

    def test_record_backdates_a_measured_span(self):
        tracer = Tracer()
        span = tracer.record("worker.point", 1.5, index=4)
        assert span.seconds == pytest.approx(1.5)
        assert span.attributes == {"index": 4}
        assert tracer.count("worker.point") == 1

    def test_record_parents_under_active_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.record("inner", 0.01)
        [inner] = tracer.spans("inner")
        assert inner.parent_id == outer.span_id

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()

        def worker():
            with tracer.span("thread-root"):
                pass

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        [other] = tracer.spans("thread-root")
        assert other.parent_id is None  # not parented under main-root

    def test_queries_and_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        assert tracer.count("a") == 2
        assert tracer.total("a") == sum(s.seconds for s in tracer.spans("a"))
        tracer.reset()
        assert tracer.spans() == []


class TestAggregation:
    """The tracer is a session's only timing record, so its flat per-name
    queries must aggregate like a per-stage collector would."""

    def test_count_and_total_per_name_and_overall(self):
        tracer = Tracer()
        tracer.record("evaluate", 0.25)
        tracer.record("evaluate", 0.75)
        tracer.record("layout", 0.5)
        assert tracer.count("evaluate") == 2
        assert tracer.total("evaluate") == pytest.approx(1.0)
        assert tracer.total() == pytest.approx(1.5)

    def test_unrecorded_name_is_empty(self):
        tracer = Tracer()
        tracer.record("layout", 0.5)
        assert tracer.count("classify") == 0
        assert tracer.total("classify") == 0.0
        assert tracer.spans("classify") == []

    def test_failed_span_counts_toward_totals(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("classify"):
                raise RuntimeError("boom")
        assert tracer.count("classify") == 1
        assert tracer.total("classify") >= 0.0

    def test_spans_listed_in_creation_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass  # finishes before "outer"
        tracer.record("after", 0.1)
        assert [s.name for s in tracer.spans()] == ["outer", "inner", "after"]

    def test_reset_keeps_span_ids_unique(self):
        tracer = Tracer()
        with tracer.span("a") as first:
            pass
        tracer.reset()
        with tracer.span("a") as second:
            pass
        assert second.span_id != first.span_id
        assert tracer.spans("a") == [second]


class TestReport:
    def test_empty_tracer_reports_nothing_recorded(self):
        assert Tracer().report() == "no spans recorded"

    def test_report_indents_children_and_marks_failures(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("sweep"):
                with tracer.span("fanout"):
                    pass
                raise ValueError("bad point")
        lines = tracer.report().splitlines()
        assert lines[0].startswith("sweep  ") and "[error: ValueError: bad point]" in lines[0]
        assert lines[1].startswith("  fanout  ") and lines[1].endswith("ms")


class TestMaybeSpan:
    def test_maybe_span_accepts_tracer_and_none(self):
        tracer = Tracer()
        with maybe_span(tracer, "stage") as span:
            span.set(marker=1)
        assert tracer.spans("stage")[0].attributes == {"marker": 1}

        with maybe_span(None, "stage") as span:
            assert isinstance(span, NullSpan)
            assert span.set(marker=1) is span  # no-op sink, chainable


class TestExport:
    def test_to_dict_and_json_roundtrip(self):
        tracer = Tracer()
        with tracer.span("root", points=2):
            tracer.record("point", 0.1)
        doc = json.loads(tracer.to_json())
        assert doc == tracer.to_dict()
        names = [s["name"] for s in doc["spans"]]
        assert set(names) == {"root", "point"}
        root = next(s for s in doc["spans"] if s["name"] == "root")
        assert root["attributes"] == {"points": 2}
        assert root["parent"] is None

    def test_export_writes_json_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        doc = json.loads(path.read_text())
        assert doc["spans"][0]["name"] == "only"

    def test_report_renders_tree_with_errors(self):
        tracer = Tracer()
        with tracer.span("root"):
            with pytest.raises(RuntimeError):
                with tracer.span("leaf"):
                    raise RuntimeError("broken leaf")
        report = tracer.report()
        assert "root" in report
        assert "  leaf" in report  # indented under the root
        assert "broken leaf" in report

    def test_empty_report(self):
        assert Tracer().report() == "no spans recorded"
