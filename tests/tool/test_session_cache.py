"""Tests for the session's result store and span timings."""

from repro.apps import hdiff
from repro.frontend import pmap, program
from repro.passes.store import MEMORY_ENTRIES
from repro.sdfg.dtypes import float64
from repro.sdfg.serialize import state_fingerprint
from repro.symbolic import symbols
from repro.tool.session import Session

I, J = symbols("I J")


def make_session():
    return Session(hdiff.build_sdfg())


SIZES = {"I": 3, "J": 3, "K": 2}
OTHER = {"I": 4, "J": 3, "K": 2}


def trace_key_components(session, sizes):
    """The content components of a local view's ``local.trace`` key."""
    lv = session.local_view(sizes)
    _, components, _ = session.pipeline.key("local.trace", lv._context())
    return dict(components)


class TestSessionCaching:
    def test_repeat_query_hits_cache(self):
        session = make_session()
        first = session.local_view(SIZES).result
        second = session.local_view(SIZES).result
        assert second is first  # the simulation was reused, not rerun
        assert session.cache_info()["hits"] >= 1

    def test_different_params_simulate_fresh(self):
        session = make_session()
        a = session.local_view(SIZES).result
        b = session.local_view(OTHER).result
        assert a is not b
        assert len(a.events) != len(b.events)

    def test_fast_and_slow_cached_separately(self):
        session = make_session()
        fast = session.local_view(SIZES, fast=True).result
        slow = session.local_view(SIZES, fast=False).result
        assert fast is not slow

    def test_downstream_results_cached(self):
        session = make_session()
        lv1 = session.local_view(SIZES)
        lv2 = session.local_view(SIZES)
        d1 = lv1._distances()
        d2 = lv2._distances()
        assert d2 is d1

    def test_invalidate_clears_the_store(self):
        session = make_session()
        lv = session.local_view(SIZES)
        first = lv.result
        lv.invalidate()
        assert lv.result is not first
        # A fresh view must not resurrect the stale entry either.
        assert session.local_view(SIZES).result is lv.result

    def test_views_share_the_one_session_store(self):
        session = make_session()
        info = session.cache_info()
        assert info["maxsize"] == MEMORY_ENTRIES and info["entries"] == 0
        lv = session.local_view(SIZES)
        assert lv._pipeline is session.pipeline
        lv.result
        entries = session.cache_info()["entries"]
        assert entries == len(session.store) > 0
        session.global_view().pipeline.store.get(("absent",))
        assert session.cache_info()["misses"] > info["misses"]

    def test_pass_report_reads_the_store(self):
        session = make_session()
        session.local_view(SIZES).result
        session.local_view(SIZES).result
        info = session.cache_info()
        assert (
            f"simulation cache: {info['entries']}/{MEMORY_ENTRIES} entries, "
            f"{info['hits']} hits, {info['misses']} misses"
        ) in session.pass_report()

    def test_standalone_local_view_unaffected(self):
        from repro.tool.session import LocalView

        sdfg = hdiff.build_sdfg()
        lv = LocalView(sdfg, SIZES, sdfg.start_state)
        assert lv.result.events  # simulates through a private pipeline

    def test_miss_counts_identical_across_paths(self):
        session = make_session()
        fast = session.local_view(SIZES, fast=True).miss_counts()
        slow = session.local_view(SIZES, fast=False).miss_counts()
        assert {k: (v.hits, v.cold, v.capacity) for k, v in fast.items()} == {
            k: (v.hits, v.cold, v.capacity) for k, v in slow.items()
        }


class TestSessionTimings:
    def test_stages_recorded(self):
        session = make_session()
        lv = session.local_view(SIZES)
        lv.miss_counts()
        recorded = {span.name for span in session.tracer.spans()}
        # The analytic engine serves classification, so the enumeration
        # stage spans (layout/stackdist) are replaced by its own span.
        assert {"enumerate", "evaluate", "locality:analytic", "classify"} <= recorded
        assert session.tracer.count("locality:analytic") == 1
        assert session.tracer.total() > 0

    def test_report_renders(self):
        session = make_session()
        session.local_view(SIZES).miss_counts()
        report = session.tracer.report()
        assert "locality:analytic" in report and "ms" in report


def _make_kernel(variant: int):
    """Two same-named, same-signature programs with different access
    patterns — the shape of workload where an ``id()``-keyed cache can
    serve stale results once CPython recycles object ids."""
    if variant == 0:

        @program
        def kernel(A: float64[I], B: float64[J], C: float64[I, J]):
            for i, j in pmap(I, J):
                C[i, j] = A[i] * B[j]

    else:

        @program
        def kernel(A: float64[I], B: float64[J], C: float64[I, J]):
            for i, j in pmap(I, J):
                C[i, j] = C[i, j] + A[i] * B[j]  # also *reads* C

    return kernel


class TestContentBasedCacheKeys:
    """Regression tests for the stale-cache bug: session cache keys used
    ``id(state)`` / ``id(sdfg)``, which CPython reuses after garbage
    collection, so a long-lived session that loads a second program could
    silently serve the first program's results."""

    KERNEL_SIZES = {"I": 3, "J": 4}

    def test_trace_key_is_content_based(self):
        session = make_session()
        components = trace_key_components(session, SIZES)
        assert components["scope"] == (session.sdfg.name, 0)
        assert components["state"] == state_fingerprint(session.sdfg.start_state)
        assert id(session.sdfg) not in components.values()
        assert id(session.sdfg.start_state) not in components.values()

    def test_load_bumps_the_cache_generation(self):
        session = make_session()
        before = trace_key_components(session, SIZES)
        session.load(hdiff.build_sdfg())
        after = trace_key_components(session, SIZES)
        assert before["state"] == after["state"]  # same content...
        assert before["scope"] != after["scope"]  # ...new generation

    def test_reload_never_serves_stale_results(self):
        session = Session(_make_kernel(0))
        first = session.local_view(self.KERNEL_SIZES)
        accesses_v0 = first.result.num_events

        # Same SDFG name, same state labels, same parameters — only the
        # access pattern differs.  Content-based keys must still miss.
        session.load(_make_kernel(1))
        second = session.local_view(self.KERNEL_SIZES)
        accesses_v1 = second.result.num_events
        assert accesses_v1 != accesses_v0  # v1 also reads C: more accesses
        assert second.result is not first.result

    def test_reload_invalidates_sweep_cache_too(self):
        session = Session(_make_kernel(0))
        v0 = session.sweep([self.KERNEL_SIZES])
        session.load(_make_kernel(1))
        misses_before = session.cache_info()["misses"]
        v1 = session.sweep([self.KERNEL_SIZES])
        assert session.cache_info()["misses"] > misses_before  # not served from cache
        assert v1[0].total_accesses != v0[0].total_accesses

    def test_sdfg_setter_is_equivalent_to_load(self):
        session = Session(_make_kernel(0))
        session.local_view(self.KERNEL_SIZES).result
        session.sdfg = _make_kernel(1)
        scope = trace_key_components(session, self.KERNEL_SIZES)["scope"]
        assert scope == (session.sdfg.name, 1)

    def test_load_releases_the_previous_programs_products(self):
        session = Session(_make_kernel(0))
        session.local_view(self.KERNEL_SIZES).result
        session.sweep([self.KERNEL_SIZES])
        assert session.cache_info()["entries"] > 0
        session.load(_make_kernel(1))
        assert session.cache_info()["entries"] == 0


class TestTuningKeepsTheWorkingSet:
    GRID = {"I": [3, 4], "J": [3, 4], "K": [2]}

    @staticmethod
    def pass_runs(session):
        counters = session.metrics.to_dict()["counters"]
        return sum(
            value
            for name, value in counters.items()
            if name.startswith("pass.") and name.endswith(".runs")
        )

    def test_tune_does_not_evict_swept_points(self):
        session = make_session()
        session.sweep(self.GRID)
        runs_before = self.pass_runs(session)
        session.tune(SIZES, budget=64)
        # The search stored more products than the memory tier holds, so
        # sharing the session's store would have evicted every point.
        assert self.pass_runs(session) - runs_before > MEMORY_ENTRIES
        point_runs = session.pipeline.runs("local.point")
        trace_runs = session.pipeline.runs("local.trace")
        session.sweep(self.GRID)
        assert session.pipeline.runs("local.point") == point_runs
        assert session.pipeline.runs("local.trace") == trace_runs

    def test_tune_leaves_the_session_store_untouched(self):
        session = make_session()
        session.local_view(SIZES).result
        before = session.cache_info()
        result = session.tune(SIZES, budget=8)
        assert result.evaluated > 0
        assert session.cache_info() == before
