"""Tests for layout permutation, stride padding and loop reorder."""

import pytest

from repro.errors import TransformError
from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.stackdist import line_trace
from repro.transforms import pad_strides_to_multiple, permute_array_layout, reorder_map
from repro.symbolic import Integer, symbols

I, J, K = symbols("I J K")


@program
def sweep3d(A: float64[I, J, K], B: float64[I, J, K]):
    for i, j, k in pmap(I, J, K):
        B[i, j, k] = A[i, j, k] * 2.0


class TestPermuteLayout:
    def test_descriptor_updated(self):
        sdfg = sweep3d.to_sdfg()
        permute_array_layout(sdfg, "A", [2, 0, 1])
        desc = sdfg.arrays["A"]
        assert desc.shape == (K, I, J)
        assert desc.is_c_contiguous()

    def test_memlets_rewritten(self):
        sdfg = sweep3d.to_sdfg()
        permute_array_layout(sdfg, "A", [2, 0, 1])
        state = sdfg.start_state
        inner = [
            m for _, m in state.all_memlets()
            if m.data == "A" and m.subset.is_point
        ]
        assert inner
        for memlet in inner:
            assert str(memlet.subset) == "k, i, j"
        sdfg.validate()

    def test_access_pattern_consistent(self):
        """Same logical accesses, different physical addresses."""
        sdfg = sweep3d.to_sdfg()
        env = {"I": 3, "J": 4, "K": 2}
        before = simulate_state(sdfg, env).total_accesses("A")
        permute_array_layout(sdfg, "A", [2, 0, 1])
        after_result = simulate_state(sdfg, env)
        assert after_result.total_accesses("A") == before
        # The permuted container's shape follows the new dimension order.
        assert after_result.shape("A") == (2, 3, 4)

    def test_improves_contiguity_for_k_innermost(self):
        """With k the innermost loop, [K,I,J] layout strides worse than
        [I,J,K]; permuting A to k-last-major keeps consecutive iterations
        on the same cache line."""
        sdfg = sweep3d.to_sdfg()
        env = {"I": 4, "J": 4, "K": 8}
        result = simulate_state(sdfg, env)
        memory = MemoryModel(sdfg, env, line_size=64)
        events_a = [e for e in result.events if e.data == "A"]
        lines_before = line_trace(events_a, memory)
        switches_before = sum(1 for a, b in zip(lines_before, lines_before[1:]) if a != b)

        permute_array_layout(sdfg, "A", [2, 0, 1])  # K becomes outermost dim
        result2 = simulate_state(sdfg, env)
        memory2 = MemoryModel(sdfg, env, line_size=64)
        events2 = [e for e in result2.events if e.data == "A"]
        lines_after = line_trace(events2, memory2)
        switches_after = sum(1 for a, b in zip(lines_after, lines_after[1:]) if a != b)
        # k is the innermost loop but the slowest dimension after the
        # permutation: line switches increase — direction matters.
        assert switches_after != switches_before

    def test_invalid_permutation(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError):
            permute_array_layout(sdfg, "A", [0, 0, 1])

    def test_non_array(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError):
            permute_array_layout(sdfg, "missing", [0])


class TestPadStrides:
    def test_row_padding(self):
        from repro.sdfg import SDFG, dtypes

        sdfg = SDFG("pad")
        sdfg.add_array("A", [4, 12], dtypes.float64)
        pad_strides_to_multiple(sdfg, "A", 8)  # 64B lines of doubles
        desc = sdfg.arrays["A"]
        assert desc.strides[0] == Integer(16)  # 12 -> 16
        assert desc.strides[1] == Integer(1)

    def test_outer_strides_recomputed(self):
        from repro.sdfg import SDFG, dtypes

        sdfg = SDFG("pad3")
        sdfg.add_array("A", [2, 4, 12], dtypes.float64)
        pad_strides_to_multiple(sdfg, "A", 8, dim=1)
        desc = sdfg.arrays["A"]
        assert desc.strides == (Integer(64), Integer(16), Integer(1))

    def test_rows_become_line_aligned(self):
        sdfg = sweep3d.to_sdfg()
        env = {"I": 2, "J": 3, "K": 12}
        pad_strides_to_multiple(sdfg, "A", 8)
        memory = MemoryModel(sdfg, env, line_size=64)
        layout = memory.layout("A")
        for i in range(2):
            for j in range(3):
                assert layout.element_address((i, j, 0)) % 64 == 0

    def test_already_aligned_unchanged(self):
        from repro.sdfg import SDFG, dtypes

        sdfg = SDFG("noop")
        sdfg.add_array("A", [4, 16], dtypes.float64)
        pad_strides_to_multiple(sdfg, "A", 8)
        assert sdfg.arrays["A"].strides[0] == Integer(16)

    def test_1d_rejected(self):
        from repro.sdfg import SDFG, dtypes

        sdfg = SDFG("one")
        sdfg.add_array("A", [4], dtypes.float64)
        with pytest.raises(TransformError):
            pad_strides_to_multiple(sdfg, "A", 8)

    def test_bad_multiple(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError):
            pad_strides_to_multiple(sdfg, "A", 0)

    def test_innermost_dim_rejected(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError):
            pad_strides_to_multiple(sdfg, "A", 8, dim=2)


class TestReorderMap:
    def get_entry(self, sdfg):
        return sdfg.start_state.map_entries()[0]

    def test_by_indices(self):
        sdfg = sweep3d.to_sdfg()
        entry = self.get_entry(sdfg)
        reorder_map(entry, [2, 0, 1])
        assert entry.map.params == ("k", "i", "j")
        assert entry.exit_node.map.params == ("k", "i", "j")

    def test_by_names(self):
        sdfg = sweep3d.to_sdfg()
        entry = self.get_entry(sdfg)
        reorder_map(entry, ["k", "i", "j"])
        assert entry.map.params == ("k", "i", "j")
        assert str(entry.map.ranges[0]) == "0:K"

    def test_changes_playback_order_not_accesses(self):
        sdfg = sweep3d.to_sdfg()
        env = {"I": 2, "J": 2, "K": 3}
        before = simulate_state(sdfg, env)
        first_before = [e.indices for e in before.events if e.data == "A"][:3]
        reorder_map(self.get_entry(sdfg), ["k", "i", "j"])
        after = simulate_state(sdfg, env)
        first_after = [e.indices for e in after.events if e.data == "A"][:3]
        assert first_before == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
        # After reorder, j is innermost: A[0,0,0], A[0,1,0], A[1,0,0]...
        assert first_after == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
        assert before.access_counts("A") == after.access_counts("A")

    def test_invalid_order(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError):
            reorder_map(self.get_entry(sdfg), [0, 0, 1])

    def test_unknown_name(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError):
            reorder_map(self.get_entry(sdfg), ["x", "y", "z"])


class TestUpfrontValidation:
    """Rejected calls must leave the SDFG byte-identical (no corruption)."""

    def fingerprint(self, sdfg):
        from repro.sdfg.serialize import sdfg_fingerprint

        return sdfg_fingerprint(sdfg)

    def test_pad_float_multiple_rejected(self):
        sdfg = sweep3d.to_sdfg()
        before = self.fingerprint(sdfg)
        with pytest.raises(TransformError, match="integer"):
            pad_strides_to_multiple(sdfg, "A", 2.5)
        assert self.fingerprint(sdfg) == before

    def test_pad_bool_multiple_rejected(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError, match="integer"):
            pad_strides_to_multiple(sdfg, "A", True)

    def test_pad_float_dim_rejected(self):
        sdfg = sweep3d.to_sdfg()
        before = self.fingerprint(sdfg)
        with pytest.raises(TransformError, match="integer"):
            pad_strides_to_multiple(sdfg, "A", 8, dim=1.0)
        assert self.fingerprint(sdfg) == before

    def test_permute_wrong_length_rejected(self):
        sdfg = sweep3d.to_sdfg()
        before = self.fingerprint(sdfg)
        with pytest.raises(TransformError, match="length"):
            permute_array_layout(sdfg, "A", [1, 0])
        assert self.fingerprint(sdfg) == before

    def test_permute_float_entries_rejected(self):
        sdfg = sweep3d.to_sdfg()
        before = self.fingerprint(sdfg)
        with pytest.raises(TransformError, match="integers"):
            permute_array_layout(sdfg, "A", [0.0, 1.0, 2.0])
        assert self.fingerprint(sdfg) == before

    def test_permute_bool_entries_rejected(self):
        sdfg = sweep3d.to_sdfg()
        with pytest.raises(TransformError, match="integers"):
            permute_array_layout(sdfg, "A", [False, True, 2])

    def test_failed_call_leaves_memlets_intact(self):
        """No half-rewritten graph: a rejected permute keeps every memlet."""
        sdfg = sweep3d.to_sdfg()
        before = [
            (m.data, str(m.subset))
            for _, m in sdfg.start_state.all_memlets()
        ]
        with pytest.raises(TransformError):
            permute_array_layout(sdfg, "A", [2, 1])
        after = [
            (m.data, str(m.subset))
            for _, m in sdfg.start_state.all_memlets()
        ]
        assert before == after
        sdfg.validate()
