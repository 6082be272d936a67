"""Tests for the horizontal-diffusion case study."""

import numpy as np
import pytest

from repro.apps import hdiff as H
from repro.codegen import call_sdfg, interpret_sdfg
from repro.simulation import CacheModel, MemoryModel, simulate_state
from repro.simulation.movement import container_physical_movement


@pytest.fixture(scope="module")
def small_inputs():
    return H.initialize(12, 10, 4)


class TestNumpyVariants:
    def test_npbench_best_matches_baseline(self, small_inputs):
        in_field, out_field, coeff = small_inputs
        ref, out = out_field.copy(), out_field.copy()
        H.hdiff_numpy_baseline(in_field, ref, coeff)
        H.hdiff_npbench_best(in_field, out, coeff)
        np.testing.assert_allclose(out, ref)

    def test_hand_tuned_matches_baseline(self, small_inputs):
        in_field, out_field, coeff = small_inputs
        ref = out_field.copy()
        H.hdiff_numpy_baseline(in_field, ref, coeff)
        # The tuned program stores its fields K-major.
        out_km = H.to_kmajor(np.zeros_like(ref))
        H.hdiff_hand_tuned(H.to_kmajor(in_field), out_km, H.to_kmajor(coeff))
        np.testing.assert_allclose(H.from_kmajor(out_km), ref)

    def test_kmajor_round_trip(self, small_inputs):
        in_field, _, _ = small_inputs
        km = H.to_kmajor(in_field)
        assert km.flags.c_contiguous
        assert km.shape == (in_field.shape[2], in_field.shape[0], in_field.shape[1])
        np.testing.assert_array_equal(H.from_kmajor(km), in_field)

    def test_hand_tuned_workspace_reused(self, small_inputs):
        in_field, out_field, coeff = small_inputs
        out_km = H.to_kmajor(out_field.copy())
        H.hdiff_hand_tuned(H.to_kmajor(in_field), out_km, H.to_kmajor(coeff))
        ws_count = len(H._WORKSPACES)
        H.hdiff_hand_tuned(H.to_kmajor(in_field), out_km, H.to_kmajor(coeff))
        assert len(H._WORKSPACES) == ws_count

    def test_workspace_rows_are_padded(self):
        ws = H._HandTunedWorkspace(6, 10)
        # 10-wide rows pad to 16 elements: line-aligned row starts.
        assert ws.lap.base.shape[1] % 8 == 0
        assert ws.flx.base.shape[1] % 8 == 0


class TestSDFG:
    def test_structure(self):
        sdfg = H.build_sdfg()
        sdfg.validate()
        state = sdfg.start_state
        # One fused 3-D loop, as the paper presents it.
        assert len(state.map_entries()) == 1
        assert state.map_entries()[0].map.params == ("i", "j", "k")

    def test_codegen_matches_numpy(self, small_inputs):
        in_field, out_field, coeff = small_inputs
        ref = out_field.copy()
        H.hdiff_numpy_baseline(in_field, ref, coeff)
        out = np.zeros_like(ref)
        call_sdfg(H.build_sdfg(), in_field, coeff, out)
        np.testing.assert_allclose(out, ref)

    def test_interpreter_matches_numpy(self):
        in_field, out_field, coeff = H.initialize(4, 4, 2)
        ref = out_field.copy()
        H.hdiff_numpy_baseline(in_field, ref, coeff)
        out = np.zeros_like(ref)
        interpret_sdfg(
            H.build_sdfg(), {"in_field": in_field, "coeff": coeff, "out_field": out},
            {"I": 4, "J": 4, "K": 2},
        )
        np.testing.assert_allclose(out, ref)


class TestTuningSteps:
    def test_reshape_changes_layout(self):
        sdfg = H.build_sdfg()
        H.apply_reshape(sdfg)
        assert [str(s) for s in sdfg.arrays["in_field"].shape] == ["K", "4 + I", "4 + J"]
        sdfg.validate()

    def test_reshaped_sdfg_still_correct(self):
        in_field, out_field, coeff = H.initialize(6, 6, 3)
        ref = out_field.copy()
        H.hdiff_numpy_baseline(in_field, ref, coeff)
        sdfg = H.build_sdfg()
        H.apply_reshape(sdfg)
        out_t = np.zeros((3, 6, 6))
        call_sdfg(
            sdfg,
            np.ascontiguousarray(in_field.transpose(2, 0, 1)),
            np.ascontiguousarray(coeff.transpose(2, 0, 1)),
            out_t,
        )
        np.testing.assert_allclose(out_t.transpose(1, 2, 0), ref)

    def test_reorder_makes_k_outermost(self):
        sdfg = H.build_sdfg()
        H.apply_reorder(sdfg)
        assert sdfg.start_state.map_entries()[0].map.params == ("k", "i", "j")

    def test_padding_aligns_rows(self):
        sdfg = H.build_sdfg()
        H.apply_reshape(sdfg)
        H.apply_padding(sdfg, line_bytes=64)
        desc = sdfg.arrays["in_field"]
        row_stride = desc.strides[1].evaluate(H.LOCAL_VIEW_SIZES)
        assert row_stride % 8 == 0  # 8 doubles per 64-byte line

    def test_paper_sequence_reduces_in_field_movement(self):
        """The Fig. 7 narrative: reshape almost halves in_field's physical
        movement, and misses never increase across the tuning steps."""
        env = H.LOCAL_VIEW_SIZES
        # The capacity threshold is scaled down along with the 1/32-scale
        # simulation sizes (paper Section V-F: the user adjusts it so the
        # modeled cache matches the scaled working set).
        model = CacheModel(line_size=64, capacity_lines=4)

        def measure(*steps):
            sdfg = H.build_sdfg()
            for step in steps:
                step(sdfg)
            result = simulate_state(sdfg, env)
            memory = MemoryModel(sdfg, env, line_size=64)
            return container_physical_movement(result.events, memory, model)[
                "in_field"
            ]

        baseline = measure()
        reshaped = measure(H.apply_reshape)
        reordered = measure(H.apply_reshape, H.apply_reorder)
        padded = measure(H.apply_reshape, H.apply_reorder, H.apply_padding)
        assert reshaped < baseline
        # Paper: "almost halves the amount of data being requested".
        assert reshaped <= 0.55 * baseline
        assert reordered <= reshaped
        assert padded <= reordered
