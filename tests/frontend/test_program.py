"""Tests for the @program frontend."""

import pytest

import repro
from repro.errors import FrontendError
from repro.frontend import pmap, program
from repro.sdfg import AccessNode, MapEntry, Tasklet
from repro.sdfg.data import Scalar
from repro.sdfg.dtypes import float32, float64
from repro.symbolic import Integer, symbols

I, J, K = symbols("I J K")


@program
def outer_product(A: float64[I], B: float64[J], C: float64[I, J]):
    for i, j in pmap(I, J):
        C[i, j] = A[i] * B[j]


@program
def matmul(A: float64[I, K], B: float64[K, J], C: float64[I, J]):
    for i, j, k in pmap(I, J, K):
        C[i, j] += A[i, k] * B[k, j]


@program
def stencil1d(A: float64[I + 2], B: float64[I]):
    for i in pmap(I):
        B[i] = (A[i] + A[i + 1] + A[i + 2]) / 3.0


@program
def with_local(A: float64[I], B: float64[I]):
    for i in pmap(I):
        t = A[i] * 2.0
        B[i] = t + 1.0


@program
def two_kernels(A: float64[I], B: float64[I], C: float64[I]):
    for i in pmap(I):
        B[i] = A[i] * 2.0
    for i in pmap(I):
        C[i] = B[i] + 1.0


@program
def scaled(A: float64[I], alpha: float64, B: float64[I]):
    for i in pmap(I):
        B[i] = alpha * A[i]


class TestBasicParsing:
    def test_outer_product_structure(self):
        sdfg = outer_product.to_sdfg()
        state = sdfg.start_state
        assert len(state.map_entries()) == 1
        assert len(state.tasklets()) == 1
        assert set(sdfg.input_containers()) == {"A", "B"}
        assert sdfg.output_containers() == ["C"]

    def test_sdfg_parse_cached_but_copies_returned(self):
        shared = outer_product.to_sdfg(copy=False)
        assert outer_product.to_sdfg(copy=False) is shared
        fresh = outer_product.to_sdfg()
        assert fresh is not shared  # mutations cannot leak back

    def test_map_ranges(self):
        sdfg = outer_product.to_sdfg()
        entry = sdfg.start_state.map_entries()[0]
        assert entry.map.params == ("i", "j")
        assert str(entry.map.ranges[0]) == "0:I"
        assert str(entry.map.ranges[1]) == "0:J"

    def test_inner_memlets_are_points(self):
        sdfg = outer_product.to_sdfg()
        state = sdfg.start_state
        tasklet = state.tasklets()[0]
        for e in state.in_edges(tasklet):
            assert e.data.memlet.subset.is_point

    def test_outer_memlet_volumes(self):
        sdfg = outer_product.to_sdfg()
        state = sdfg.start_state
        entry = state.map_entries()[0]
        vols = {
            e.data.memlet.data: e.data.memlet.volume()
            for e in state.in_edges(entry)
        }
        assert vols["A"] == I * J
        assert vols["B"] == I * J

    def test_tasklet_code_rewritten(self):
        sdfg = outer_product.to_sdfg()
        code = sdfg.start_state.tasklets()[0].code
        assert "_out =" in code
        assert "_in_A_0" in code and "_in_B_1" in code


class TestReductions:
    def test_matmul_wcr(self):
        sdfg = matmul.to_sdfg()
        state = sdfg.start_state
        write_edges = [
            e for _, m in state.all_memlets()
            for e in [None] if False
        ]
        wcr = [m.wcr for _, m in state.all_memlets() if m.data == "C"]
        assert all(w == "sum" for w in wcr)

    def test_matmul_read_volume(self):
        sdfg = matmul.to_sdfg()
        state = sdfg.start_state
        entry = state.map_entries()[0]
        vols = {
            e.data.memlet.data: e.data.memlet.volume()
            for e in state.in_edges(entry)
        }
        assert vols["A"] == I * J * K
        assert vols["B"] == I * J * K

    def test_product_wcr(self):
        @program
        def prod(A: float64[I], out: float64[1]):
            for i in pmap(I):
                out[0] *= A[i]

        sdfg = prod.to_sdfg()
        wcr = [m.wcr for _, m in sdfg.start_state.all_memlets() if m.data == "out"]
        assert all(w == "product" for w in wcr)


class TestStencils:
    def test_multiple_reads_one_connector_each(self):
        sdfg = stencil1d.to_sdfg()
        state = sdfg.start_state
        tasklet = state.tasklets()[0]
        in_conns = [e.data.dst_conn for e in state.in_edges(tasklet)]
        assert len(in_conns) == 3  # A[i], A[i+1], A[i+2]

    def test_stencil_union_subset(self):
        sdfg = stencil1d.to_sdfg()
        state = sdfg.start_state
        entry = state.map_entries()[0]
        (edge,) = state.in_edges(entry)
        assert str(edge.data.memlet.subset) == f"0:{I + 2}"
        assert edge.data.memlet.volume() == 3 * I

    def test_duplicate_access_shares_connector(self):
        @program
        def square(A: float64[I], B: float64[I]):
            for i in pmap(I):
                B[i] = A[i] * A[i]

        sdfg = square.to_sdfg()
        tasklet = sdfg.start_state.tasklets()[0]
        assert len(tasklet.in_connectors) == 1


class TestLocals:
    def test_local_becomes_scalar_transient(self):
        sdfg = with_local.to_sdfg()
        transients = [
            n for n, d in sdfg.arrays.items() if d.transient and isinstance(d, Scalar)
        ]
        assert len(transients) == 1

    def test_local_inside_scope(self):
        sdfg = with_local.to_sdfg()
        state = sdfg.start_state
        sdict = state.scope_dict()
        entry = state.map_entries()[0]
        local_nodes = [
            n for n in state.data_nodes() if sdfg.arrays[n.data].transient
        ]
        assert len(local_nodes) == 1
        assert sdict[local_nodes[0]] is entry

    def test_two_tasklets_chained(self):
        sdfg = with_local.to_sdfg()
        assert len(sdfg.start_state.tasklets()) == 2
        sdfg.validate()


class TestSequencing:
    def test_two_kernels_share_access_node(self):
        sdfg = two_kernels.to_sdfg()
        state = sdfg.start_state
        b_nodes = [n for n in state.data_nodes() if n.data == "B"]
        # One version: written by kernel 1, read by kernel 2.
        assert len(b_nodes) == 1
        assert len(state.in_edges(b_nodes[0])) == 1
        assert len(state.out_edges(b_nodes[0])) == 1

    def test_write_after_write_versions(self):
        @program
        def waw(A: float64[I], B: float64[I]):
            for i in pmap(I):
                B[i] = A[i]
            for i in pmap(I):
                B[i] = A[i] * 2.0

        sdfg = waw.to_sdfg()
        b_nodes = [n for n in sdfg.start_state.data_nodes() if n.data == "B"]
        assert len(b_nodes) == 2


class TestScalars:
    def test_scalar_parameter(self):
        sdfg = scaled.to_sdfg()
        assert isinstance(sdfg.arrays["alpha"], Scalar)
        assert "alpha" in sdfg.input_containers()

    def test_scalar_read_through_scope(self):
        sdfg = scaled.to_sdfg()
        state = sdfg.start_state
        entry = state.map_entries()[0]
        datas = {e.data.memlet.data for e in state.in_edges(entry)}
        assert datas == {"A", "alpha"}


class TestBounds:
    def test_tuple_bounds(self):
        @program
        def interior(A: float64[I], B: float64[I]):
            for i in pmap((1, I - 1)):
                B[i] = A[i]

        entry = interior.to_sdfg().start_state.map_entries()[0]
        r = entry.map.ranges[0]
        assert str(r.begin) == "1"
        assert str(r.end) == "-2 + I"

    def test_string_bounds(self):
        @program
        def strided(A: float64[I], B: float64[I]):
            for i in pmap("0:I:2"):
                B[i] = A[i]

        entry = strided.to_sdfg().start_state.map_entries()[0]
        assert str(entry.map.ranges[0].step) == "2"

    def test_keyword_bounds(self):
        @program
        def kw(A: float64[I], B: float64[I]):
            for i in pmap(i=I):
                B[i] = A[i]

        sdfg = kw.to_sdfg()
        assert sdfg.start_state.map_entries()[0].map.params == ("i",)

    def test_integer_bounds(self):
        @program
        def fixed(A: float64[8], B: float64[8]):
            for i in pmap(8):
                B[i] = A[i]

        sdfg = fixed.to_sdfg()
        assert sdfg.start_state.map_entries()[0].map.ranges[0].size() == 8


class TestZeroInput:
    def test_constant_write(self):
        @program
        def zero(C: float64[I, J]):
            for i, j in pmap(I, J):
                C[i, j] = 0.0

        sdfg = zero.to_sdfg()
        state = sdfg.start_state
        tasklet = state.tasklets()[0]
        # Ordering edge keeps the tasklet inside the scope.
        assert state.scope_dict()[tasklet] is state.map_entries()[0]


class TestErrors:
    def assert_frontend_error(self, fn, match=None):
        with pytest.raises(FrontendError, match=match):
            fn.to_sdfg()

    def test_pmap_outside_error(self):
        with pytest.raises(FrontendError):
            pmap(3)

    def test_unknown_name(self):
        @program
        def bad(A: float64[I]):
            for i in pmap(I):
                A[i] = mystery + 1  # noqa: F821

        self.assert_frontend_error(bad, "unknown name")

    def test_range_loop_rejected(self):
        @program
        def bad(A: float64[I]):
            for i in range(4):
                A[i] = 1.0

        self.assert_frontend_error(bad, "pmap")

    def test_missing_annotation(self):
        @program
        def bad(A):
            for i in pmap(I):
                A[i] = 1.0

        self.assert_frontend_error(bad, "annotation")

    def test_arity_mismatch(self):
        @program
        def bad(A: float64[I]):
            for i, j in pmap(I):
                A[i] = 1.0

        self.assert_frontend_error(bad)

    def test_rank_mismatch(self):
        @program
        def bad(A: float64[I, J]):
            for i in pmap(I):
                A[i] = 1.0

        self.assert_frontend_error(bad, "rank")

    def test_bad_call(self):
        @program
        def bad(A: float64[I]):
            for i in pmap(I):
                A[i] = print(1)

        self.assert_frontend_error(bad, "not allowed")

    def test_slice_in_tasklet(self):
        @program
        def bad(A: float64[I], B: float64[I]):
            for i in pmap(I):
                B[i] = A[0:2]

        self.assert_frontend_error(bad)

    def test_assign_to_param(self):
        @program
        def bad(A: float64[I]):
            for i in pmap(I):
                i = 3

        self.assert_frontend_error(bad, "loop parameter")

    def test_return_value_rejected(self):
        @program
        def bad(A: float64[I]):
            return A

        self.assert_frontend_error(bad)

    def test_unsupported_toplevel(self):
        @program
        def bad(A: float64[I]):
            x = 3

        self.assert_frontend_error(bad, "top-level")


class TestLazyAPI:
    def test_repro_namespace(self):
        assert repro.program is program
        assert repro.pmap is pmap

    def test_validates(self):
        for prog in [outer_product, matmul, stencil1d, with_local, two_kernels]:
            prog.to_sdfg().validate()

    def test_float32(self):
        @program
        def f32(A: float32[I], B: float32[I]):
            for i in pmap(I):
                B[i] = A[i]

        assert f32.to_sdfg().arrays["A"].dtype == float32
