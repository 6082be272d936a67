"""Tests for the local-view parametric sweep engine."""

import os
import pickle

import pytest

from repro.analysis.executor import CancelToken, SweepRun
from repro.analysis.parametric import (
    LocalSweepPoint,
    parameter_grid,
    sweep_local_views,
)
from repro.apps import hdiff
from repro.errors import AnalysisError, ReproError
from repro.tool.session import Session

GRID_SPEC = {"I": [3, 4], "J": [3, 4], "K": [2, 3]}  # 8 points


@pytest.fixture(scope="module")
def sdfg():
    return hdiff.build_sdfg()


class TestParameterGrid:
    def test_cross_product_order(self):
        grid = parameter_grid({"I": [8, 16], "J": [4]})
        assert grid == [{"I": 8, "J": 4}, {"I": 16, "J": 4}]

    def test_last_axis_varies_fastest(self):
        grid = parameter_grid({"A": [0, 1], "B": [5, 6]})
        assert [g["B"] for g in grid] == [5, 6, 5, 6]

    def test_empty_spec(self):
        assert parameter_grid({}) == [{}]


class TestSweepLocalViews:
    def test_serial_sweep_matches_local_view(self, sdfg):
        grid = parameter_grid(GRID_SPEC)
        points = sweep_local_views(sdfg, grid, capacity_lines=16)
        assert [p.params for p in points] == grid
        # Differential: each point equals the session's own pipeline.
        session = Session(sdfg)
        for point in points:
            lv = session.local_view(point.params, capacity_lines=16)
            assert point.misses == lv.miss_counts()
            assert point.moved_bytes == lv.physical_movement()
            assert point.total_accesses == lv.result.num_events
            assert point.seconds >= 0

    def test_parallel_equals_serial(self, sdfg):
        grid = parameter_grid(GRID_SPEC)
        serial = sweep_local_views(sdfg, grid, capacity_lines=16)
        parallel = sweep_local_views(sdfg, grid, workers=4, capacity_lines=16)
        assert parallel == serial
        assert [p.params for p in parallel] == grid

    def test_interpreter_path_agrees(self, sdfg):
        grid = [{"I": 3, "J": 3, "K": 2}]
        fast = sweep_local_views(sdfg, grid, fast=True)
        slow = sweep_local_views(sdfg, grid, fast=False)
        assert fast[0] == slow[0]

    def test_point_is_picklable(self, sdfg):
        point = sweep_local_views(sdfg, [{"I": 3, "J": 3, "K": 2}])[0]
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.total_misses == point.total_misses
        assert clone.total_moved_bytes == point.total_moved_bytes


class TestSessionSweep:
    def test_mapping_expands_to_grid(self, sdfg):
        session = Session(sdfg)
        points = session.sweep(GRID_SPEC, capacity_lines=16)
        assert len(points) == 8
        assert [p.params for p in points] == parameter_grid(GRID_SPEC)

    def test_explicit_point_list(self, sdfg):
        session = Session(sdfg)
        grid = [{"I": 3, "J": 3, "K": 2}, {"I": 4, "J": 4, "K": 3}]
        points = session.sweep(grid)
        assert [p.params for p in points] == grid

    def test_resweep_hits_cache(self, sdfg):
        session = Session(sdfg)
        first = session.sweep(GRID_SPEC, capacity_lines=16)
        hits_before = session.cache_info()["hits"]
        second = session.sweep(GRID_SPEC, capacity_lines=16)
        assert session.cache_info()["hits"] - hits_before == len(first)
        assert all(a is b for a, b in zip(first, second))

    def test_refined_grid_only_pays_for_new_points(self, sdfg):
        session = Session(sdfg)
        session.sweep({"I": [3], "J": [3], "K": [2]})
        served = session.metrics.counter("sweep.cache_hits")
        served_before = served.value
        runs_before = session.pipeline.runs("local.point")
        session.sweep({"I": [3, 4], "J": [3], "K": [2]})
        assert served.value - served_before == 1  # I=3 is stored
        assert session.pipeline.runs("local.point") - runs_before == 1  # only I=4 is new

    def test_config_is_part_of_the_key(self, sdfg):
        session = Session(sdfg)
        small = session.sweep({"I": [3], "J": [3], "K": [2]}, capacity_lines=2)
        large = session.sweep({"I": [3], "J": [3], "K": [2]}, capacity_lines=4096)
        assert small[0].total_misses > large[0].total_misses

    def test_fanout_and_merge_timed(self, sdfg):
        session = Session(sdfg)
        session.sweep({"I": [3], "J": [3], "K": [2]})
        assert session.tracer.count("fanout") == 1
        assert session.tracer.count("merge") == 1

    @pytest.mark.skipif(
        not os.cpu_count() or os.cpu_count() < 2,
        reason="parallel speedup needs multiple cores",
    )
    def test_parallel_sweep_usable_from_session(self, sdfg):
        session = Session(sdfg)
        points = session.sweep(GRID_SPEC, workers=2, capacity_lines=16)
        assert len(points) == 8

    def test_pool_evaluated_points_enter_the_store(self, sdfg):
        session = Session(sdfg)
        grid = {"I": [3, 4], "J": [3], "K": [2]}
        first = session.sweep(grid, workers=2, adaptive=False)
        assert session.metrics.to_dict()["counters"].get(
            "pass.local.point.runs", 0
        ) == 0  # every point ran in a worker
        second = session.sweep(grid, workers=2, adaptive=False)
        assert session.metrics.counter("sweep.cache_hits").value == 2
        assert all(a is b for a, b in zip(first, second))


class TestSessionSweepFaultTolerance:
    BAD_GRID = [
        {"I": 3, "J": 3, "K": 2},
        {"I": 3, "J": 3},  # K missing: deterministic SimulationError
        {"I": 4, "J": 3, "K": 2},
    ]

    def test_raise_mode_names_the_failing_point(self, sdfg):
        session = Session(sdfg)
        with pytest.raises(AnalysisError, match="'I': 3"):
            session.sweep(self.BAD_GRID)

    def test_record_mode_returns_partial_results(self, sdfg):
        session = Session(sdfg)
        run = session.sweep(self.BAD_GRID, on_error="record")
        assert isinstance(run, SweepRun)
        assert run.completed == 2
        [error] = run.errors
        assert error.params == {"I": 3, "J": 3}
        assert error.kind == "error"
        assert error.error_type == "SimulationError"
        # Grid order is preserved around the failure.
        assert run.points[0].params == self.BAD_GRID[0]
        assert run.points[1] is None
        assert run.points[2].params == self.BAD_GRID[2]

    def test_completed_points_cached_across_a_failure(self, sdfg):
        """Re-sweeping after a partial failure never re-runs completed
        points: only the failed point is evaluated again."""
        session = Session(sdfg)
        session.sweep(self.BAD_GRID, on_error="record")
        served = session.metrics.counter("sweep.cache_hits")
        served_before = served.value
        runs_before = session.pipeline.runs("local.point")
        run = session.sweep(self.BAD_GRID, on_error="record")
        assert served.value - served_before == 2  # both good points
        assert session.pipeline.runs("local.point") == runs_before
        assert run.completed == 2 and len(run.errors) == 1  # the bad point re-ran

    def test_raise_mode_still_caches_the_good_points(self, sdfg):
        session = Session(sdfg)
        with pytest.raises(AnalysisError):
            session.sweep(self.BAD_GRID)
        misses_before = session.cache_info()["misses"]
        good = [p for p in self.BAD_GRID if "K" in p]
        points = session.sweep(good)
        assert session.cache_info()["misses"] == misses_before  # all served from cache
        assert [p.params for p in points] == good

    def test_unknown_on_error_mode_rejected(self, sdfg):
        with pytest.raises(ReproError):
            Session(sdfg).sweep(GRID_SPEC, on_error="ignore")

    def test_cancellation_marks_remaining_points(self, sdfg):
        session = Session(sdfg)
        token = CancelToken()
        token.cancel()  # cancelled before the sweep even starts
        run = session.sweep(GRID_SPEC, on_error="record", cancel=token)
        assert run.completed == 0
        assert all(e.kind == "cancelled" for e in run.errors)


class TestSessionSweepObservability:
    def test_trace_spans_cover_the_sweep(self, sdfg):
        session = Session(sdfg)
        session.sweep({"I": [3, 4], "J": [3], "K": [2]})
        [sweep_span] = session.tracer.spans("sweep")
        assert sweep_span.attributes == {"points": 2}
        [fanout] = session.tracer.spans("fanout")
        assert fanout.parent_id == sweep_span.span_id
        assert session.tracer.count("sweep.point") == 2

    def test_metrics_count_points_and_cache_hits(self, sdfg):
        session = Session(sdfg)
        grid = {"I": [3, 4], "J": [3], "K": [2]}
        session.sweep(grid)
        session.sweep(grid)  # second run: all points from cache
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.points"] == 2  # only uncached points dispatched
        assert counters["sweep.completed"] == 2
        assert counters["sweep.cache_hits"] == 2
        assert session.metrics.to_dict()["gauges"]["cache.entries"] >= 2

    def test_exports_write_valid_json(self, sdfg, tmp_path):
        import json

        session = Session(sdfg)
        session.sweep({"I": [3], "J": [3], "K": [2]})
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        session.export_trace(str(trace_path))
        session.export_metrics(str(metrics_path))
        trace = json.loads(trace_path.read_text())
        assert any(s["name"] == "sweep" for s in trace["spans"])
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["sweep.points"] == 1
        assert metrics["histograms"]["sweep.point_seconds"]["count"] == 1
