"""Tests for map fusion."""

import pytest

from repro.analysis import total_movement_bytes
from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.simulation import simulate_state
from repro.transforms import MapFusion, fuse_all_maps
from repro.symbolic import symbols

I, J, K = symbols("I J K")


def chain2():
    @program
    def prog(A: float64[I], C: float64[I]):
        for i in pmap(I):
            B[i] = A[i] * 2.0  # noqa: F821 - rewritten below
        for i in pmap(I):
            C[i] = B[i] + 1.0  # noqa: F821

    return prog


@program
def chain_with_transient(A: float64[I], C: float64[I]):
    for i in pmap(I):
        t = A[i] * 2.0
        C[i] = t + 1.0


def build_chain():
    """A -> map1 -> B(transient) -> map2 -> C, built via the builder API."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("chain")
    sdfg.add_array("A", [I], dtypes.float64)
    sdfg.add_transient("B", [I], dtypes.float64)
    sdfg.add_array("C", [I], dtypes.float64)
    state = sdfg.add_state("main")
    _, _, _ = state.add_mapped_tasklet(
        "scale",
        {"i": "0:I"},
        inputs={"x": Memlet("A", "i")},
        code="_out = x * 2.0",
        outputs={"_out": Memlet("B", "i")},
    )
    b_node = next(n for n in state.data_nodes() if n.data == "B")
    state.add_mapped_tasklet(
        "offset",
        {"j": "0:I"},
        inputs={"x": Memlet("B", "j")},
        code="_out = x + 1.0",
        outputs={"_out": Memlet("C", "j")},
        input_nodes={"B": b_node},
    )
    sdfg.validate()
    return sdfg


def build_stencil_chain():
    """Same but the consumer reads B[j] and B[j+1]: fusion must not match."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("stencil_chain")
    sdfg.add_array("A", [I + 1], dtypes.float64)
    sdfg.add_transient("B", [I + 1], dtypes.float64)
    sdfg.add_array("C", [I + 1], dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "scale",
        {"i": "0:I+1"},
        inputs={"x": Memlet("A", "i")},
        code="_out = x * 2.0",
        outputs={"_out": Memlet("B", "i")},
    )
    b_node = next(n for n in state.data_nodes() if n.data == "B")
    entry, exit_ = state.add_map("offset", {"j": "0:I+1"})
    t = state.add_tasklet("avg", ["x", "y"], ["_out"], "_out = x + y")
    state.add_memlet_path(b_node, entry, t, memlet=Memlet("B", "j"), dst_conn="x")
    # Second read with an offset — breaks element-wise dependence.
    state.add_edge(entry, "OUT_B", t, "y", Memlet("B", "Min(j + 1, I)"))
    c_node = state.add_access("C")
    state.add_memlet_path(t, exit_, c_node, memlet=Memlet("C", "j"), src_conn="_out")
    return sdfg


class TestMatching:
    def test_finds_chain(self):
        sdfg = build_chain()
        matches = MapFusion.find_matches(sdfg, sdfg.start_state)
        assert len(matches) == 1

    def test_no_match_for_non_transient(self):
        sdfg = build_chain()
        sdfg.arrays["B"].transient = False
        assert MapFusion.find_matches(sdfg, sdfg.start_state) == []

    def test_no_match_for_stencil_dependence(self):
        sdfg = build_stencil_chain()
        assert MapFusion.find_matches(sdfg, sdfg.start_state) == []

    def test_no_match_for_range_mismatch(self):
        from repro.sdfg import SDFG, Memlet, dtypes

        sdfg = SDFG("mismatch")
        sdfg.add_array("A", [I], dtypes.float64)
        sdfg.add_transient("B", [I], dtypes.float64)
        sdfg.add_array("C", [I], dtypes.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet(
            "scale", {"i": "0:I"},
            inputs={"x": Memlet("A", "i")}, code="_out = x",
            outputs={"_out": Memlet("B", "i")},
        )
        b = next(n for n in state.data_nodes() if n.data == "B")
        state.add_mapped_tasklet(
            "half", {"j": "0:I:2"},
            inputs={"x": Memlet("B", "j")}, code="_out = x",
            outputs={"_out": Memlet("C", "j")},
            input_nodes={"B": b},
        )
        assert MapFusion.find_matches(sdfg, sdfg.start_state) == []


class TestApplication:
    def test_fusion_removes_intermediate(self):
        sdfg = build_chain()
        applied = fuse_all_maps(sdfg)
        assert applied == 1
        assert "B" not in sdfg.arrays
        sdfg.validate()
        state = sdfg.start_state
        assert len(state.map_entries()) == 1
        assert len(state.tasklets()) == 2

    def test_fusion_reduces_movement(self):
        sdfg = build_chain()
        before = total_movement_bytes(sdfg).evaluate({"I": 64})
        fuse_all_maps(sdfg)
        after = total_movement_bytes(sdfg).evaluate({"I": 64})
        # Movement through B (write + read, 2 * 64 * 8 bytes) disappears.
        assert before - after == 2 * 64 * 8

    def test_fusion_preserves_semantics(self):
        """Fused graph produces the same access pattern on A and C."""
        sdfg = build_chain()
        ref = simulate_state(sdfg, {"I": 8})
        ref_counts = (ref.access_counts("A"), ref.access_counts("C"))
        fuse_all_maps(sdfg)
        fused = simulate_state(sdfg, {"I": 8})
        assert fused.access_counts("A") == ref_counts[0]
        assert fused.access_counts("C") == ref_counts[1]
        assert "B" not in fused.containers()

    def test_fused_equals_frontend_local_version(self):
        """Fusing the chain yields the same movement as writing it fused."""
        sdfg = build_chain()
        fuse_all_maps(sdfg)
        fused_movement = total_movement_bytes(sdfg)
        local_movement = total_movement_bytes(chain_with_transient.to_sdfg())
        assert fused_movement.evaluate({"I": 32}) == local_movement.evaluate({"I": 32})

    def test_chain_of_three(self):
        from repro.sdfg import SDFG, Memlet, dtypes

        sdfg = SDFG("chain3")
        sdfg.add_array("A", [I], dtypes.float64)
        sdfg.add_transient("T1", [I], dtypes.float64)
        sdfg.add_transient("T2", [I], dtypes.float64)
        sdfg.add_array("D", [I], dtypes.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet(
            "m1", {"i": "0:I"}, inputs={"x": Memlet("A", "i")},
            code="_out = x + 1.0", outputs={"_out": Memlet("T1", "i")},
        )
        t1 = next(n for n in state.data_nodes() if n.data == "T1")
        state.add_mapped_tasklet(
            "m2", {"i": "0:I"}, inputs={"x": Memlet("T1", "i")},
            code="_out = x * 2.0", outputs={"_out": Memlet("T2", "i")},
            input_nodes={"T1": t1},
        )
        t2 = next(n for n in state.data_nodes() if n.data == "T2")
        state.add_mapped_tasklet(
            "m3", {"i": "0:I"}, inputs={"x": Memlet("T2", "i")},
            code="_out = x - 3.0", outputs={"_out": Memlet("D", "i")},
            input_nodes={"T2": t2},
        )
        applied = fuse_all_maps(sdfg)
        assert applied == 2
        sdfg.validate()
        assert len(sdfg.start_state.map_entries()) == 1
        assert "T1" not in sdfg.arrays and "T2" not in sdfg.arrays

    def test_param_names_differ(self):
        sdfg = build_chain()  # producer uses i, consumer uses j
        fuse_all_maps(sdfg)
        state = sdfg.start_state
        entry = state.map_entries()[0]
        assert entry.map.params == ("i",)
        # Consumer's memlets now reference i.
        for _, memlet in state.all_memlets():
            assert "j" not in memlet.free_symbols()


def build_chain_of(n: int):
    """A -> n maps through n-1 transients -> OUT (n-1 fusion opportunities)."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG(f"chain{n}")
    sdfg.add_array("A", [I], dtypes.float64)
    for k in range(1, n):
        sdfg.add_transient(f"T{k}", [I], dtypes.float64)
    sdfg.add_array("OUT", [I], dtypes.float64)
    state = sdfg.add_state()
    prev = "A"
    prev_node = None
    names = [f"T{k}" for k in range(1, n)] + ["OUT"]
    for index, dst in enumerate(names):
        kwargs = {} if prev_node is None else {"input_nodes": {prev: prev_node}}
        state.add_mapped_tasklet(
            f"m{index}", {"i": "0:I"},
            inputs={"x": Memlet(prev, "i")}, code="_out = x + 1.0",
            outputs={"_out": Memlet(dst, "i")}, **kwargs,
        )
        prev = dst
        prev_node = next(n_ for n_ in state.data_nodes() if n_.data == dst)
    return sdfg


class TestRoundCap:
    """fuse_all_maps must not silently stop at its round cap."""

    def test_cap_warns_and_reports(self):
        from repro.obs import MetricsRegistry
        from repro.transforms import FusionResult

        sdfg = build_chain_of(5)  # four opportunities, cap at two rounds
        metrics = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="round cap"):
            result = fuse_all_maps(sdfg, max_rounds=2, metrics=metrics)
        assert isinstance(result, FusionResult)
        assert result == 2  # int-compatible: fusions applied
        assert result.rounds == 2
        assert result.capped
        assert (
            metrics.counter("transforms.fusion.rounds_capped").value == 1
        )

    def test_converged_run_not_capped(self):
        import warnings as warnings_mod

        from repro.obs import MetricsRegistry

        sdfg = build_chain_of(3)
        metrics = MetricsRegistry()
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            result = fuse_all_maps(sdfg, metrics=metrics)
        assert result == 2
        assert not result.capped
        # Converged: the last round found nothing, so rounds = applied + 1.
        assert result.rounds == 3
        assert (
            metrics.counter("transforms.fusion.rounds_capped").value == 0
        )

    def test_capped_graph_still_valid(self):
        sdfg = build_chain_of(5)
        with pytest.warns(RuntimeWarning):
            fuse_all_maps(sdfg, max_rounds=1)
        sdfg.validate()
        # Resuming finishes the job without a warning.
        more = fuse_all_maps(sdfg)
        assert int(more) > 0
        assert len(sdfg.start_state.map_entries()) == 1
