"""Data descriptors: the shape, type and *physical layout* of containers.

The local view's spatial-locality analysis (paper Section V-D) derives the
physical data layout — "alignment, offsets, and padding used by the
compiler" — directly from the IR.  Descriptors therefore carry not just a
shape but explicit per-dimension strides (in elements), a start offset and
an alignment, from which element byte addresses are computed.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro import mutation
from repro.errors import ReproError, SymbolicError
from repro.sdfg import dtypes
from repro.symbolic.expr import Expr, ExprLike, Integer, add, evaluate_int, mul, sub, sympify
from repro.symbolic.ranges import Subset

__all__ = ["Data", "Array", "Scalar"]


class Data:
    """Base class for data descriptors.

    Assigning any descriptor field of an observed descriptor bumps the
    IR mutation counter (:mod:`repro.mutation`).
    """

    __slots__ = ("_dtype", "_transient", "_observed")

    dtype = mutation.tracked("_dtype")
    #: Transient containers are intermediates owned by the program
    #: (candidates for elimination via fusion); non-transients are the
    #: program's inputs/outputs.
    transient = mutation.tracked("_transient")

    def __init__(self, dtype: dtypes.Dtype, transient: bool = False):
        if not isinstance(dtype, dtypes.Dtype):
            raise ReproError(f"expected a Dtype, got {dtype!r}")
        self._dtype = dtype
        self._transient = transient
        self._observed = False

    @property
    def shape(self) -> tuple[Expr, ...]:
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def total_bytes(self) -> Expr:
        """Allocated size in bytes (symbolic)."""
        raise NotImplementedError


class Scalar(Data):
    """A zero-dimensional container holding a single value."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[Expr, ...]:
        return ()

    def free_symbols(self) -> frozenset[str]:
        return frozenset()

    def total_bytes(self) -> Expr:
        return Integer(self.dtype.itemsize)

    def __repr__(self) -> str:
        return f"Scalar({self.dtype})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.dtype == other.dtype and self.transient == other.transient

    def __hash__(self) -> int:
        return hash((Scalar, self.dtype, self.transient))


class Array(Data):
    """An N-dimensional array with an explicit physical layout.

    Parameters
    ----------
    dtype:
        Element type.
    shape:
        Per-dimension symbolic extents.
    strides:
        Per-dimension strides **in elements**.  Defaults to C-contiguous
        (row-major) strides derived from *shape*.
    start_offset:
        Offset (in elements) of element ``[0, ..., 0]`` from the allocation
        base — models leading padding.
    alignment:
        Requested base-address alignment in bytes (0 = allocator default).
        The layout analysis uses this to place the container on cache-line
        boundaries.
    transient:
        Whether the container is a program-managed intermediate.
    """

    __slots__ = ("_shape", "_strides", "_start_offset", "_alignment")

    strides = mutation.tracked("_strides", lambda v: tuple(sympify(s) for s in v))
    start_offset = mutation.tracked("_start_offset", sympify)
    alignment = mutation.tracked("_alignment", int)

    def __init__(
        self,
        dtype: dtypes.Dtype,
        shape: Sequence[ExprLike],
        strides: Sequence[ExprLike] | None = None,
        start_offset: ExprLike = 0,
        alignment: int = 0,
        transient: bool = False,
    ):
        super().__init__(dtype, transient)
        self._shape = tuple(sympify(s) for s in shape)
        if not self._shape:
            raise ReproError("Array requires at least one dimension; use Scalar")
        if strides is None:
            strides = self.c_strides(self._shape)
        self._strides = tuple(sympify(s) for s in strides)
        if len(self._strides) != len(self._shape):
            raise ReproError(
                f"strides rank {len(self._strides)} does not match shape rank {len(self._shape)}"
            )
        self._start_offset = sympify(start_offset)
        if alignment < 0:
            raise ReproError("alignment cannot be negative")
        self._alignment = int(alignment)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def c_strides(shape: Sequence[ExprLike]) -> tuple[Expr, ...]:
        """Row-major (C) strides for *shape*, in elements."""
        shape = [sympify(s) for s in shape]
        strides: list[Expr] = [Integer(1)]
        for extent in reversed(shape[1:]):
            strides.append(mul(strides[-1], extent))
        return tuple(reversed(strides))

    @staticmethod
    def f_strides(shape: Sequence[ExprLike]) -> tuple[Expr, ...]:
        """Column-major (Fortran) strides for *shape*, in elements."""
        shape = [sympify(s) for s in shape]
        strides: list[Expr] = [Integer(1)]
        for extent in shape[:-1]:
            strides.append(mul(strides[-1], extent))
        return tuple(strides)

    # -- properties -------------------------------------------------------
    @property
    def shape(self) -> tuple[Expr, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = self.start_offset.free_symbols()
        for e in self._shape + self.strides:
            out |= e.free_symbols()
        return out

    def num_elements(self) -> Expr:
        """Logical number of elements (product of the shape)."""
        return mul(*self._shape) if self._shape else Integer(1)

    def total_elements(self) -> Expr:
        """Allocated extent in elements, including stride padding.

        For positive strides this is
        ``start_offset + sum((shape_i - 1) * stride_i) + 1``.
        """
        extent: Expr = Integer(1)
        for size, stride in zip(self._shape, self.strides):
            extent = add(extent, mul(sub(size, 1), stride))
        return add(self.start_offset, extent)

    def total_bytes(self) -> Expr:
        return mul(self.total_elements(), Integer(self.dtype.itemsize))

    def is_c_contiguous(self) -> bool:
        """True when strides equal the canonical row-major strides."""
        return self.strides == self.c_strides(self._shape)

    def is_f_contiguous(self) -> bool:
        """True when strides equal the canonical column-major strides."""
        return self.strides == self.f_strides(self._shape)

    # -- addressing -------------------------------------------------------
    def element_offset(self, indices: Sequence[ExprLike]) -> Expr:
        """Offset of ``[indices]`` from the allocation base, in elements."""
        if len(indices) != self.ndim:
            raise SymbolicError(
                f"expected {self.ndim} indices, got {len(indices)}"
            )
        offset: Expr = self.start_offset
        for index, stride in zip(indices, self.strides):
            offset = add(offset, mul(sympify(index), stride))
        return offset

    def byte_offset(self, indices: Sequence[ExprLike]) -> Expr:
        """Offset of ``[indices]`` from the allocation base, in bytes."""
        return mul(self.element_offset(indices), Integer(self.dtype.itemsize))

    def concrete_element_offset(
        self, indices: Sequence[int], env: Mapping[str, int | float] | None = None
    ) -> int:
        """Concrete element offset under symbol assignment *env*."""
        return evaluate_int(self.element_offset(list(indices)), env)

    def full_subset(self) -> Subset:
        """The subset covering the whole array."""
        return Subset.full(self._shape)

    # -- layout variations --------------------------------------------------
    def with_strides(
        self, strides: Sequence[ExprLike], start_offset: ExprLike | None = None
    ) -> "Array":
        """A copy of this descriptor with different strides."""
        return Array(
            self.dtype,
            self._shape,
            strides=strides,
            start_offset=self.start_offset if start_offset is None else start_offset,
            alignment=self.alignment,
            transient=self.transient,
        )

    def permuted(self, order: Sequence[int]) -> "Array":
        """Logically reorder dimensions *and relayout* contiguously.

        This models the paper's "reshaping ``in_field`` from [I+4, J+4, K]
        to [K, I+4, J+4]" optimization: the new dimension order gets fresh
        C-contiguous strides (the data is physically rearranged).
        """
        if sorted(order) != list(range(self.ndim)):
            raise ReproError(f"invalid permutation {order!r} for rank {self.ndim}")
        new_shape = tuple(self._shape[i] for i in order)
        return Array(
            self.dtype,
            new_shape,
            strides=None,  # fresh C-contiguous layout
            start_offset=self.start_offset,
            alignment=self.alignment,
            transient=self.transient,
        )

    def transposed_view(self, order: Sequence[int]) -> "Array":
        """Reorder dimensions *without* moving data (strides permuted too)."""
        if sorted(order) != list(range(self.ndim)):
            raise ReproError(f"invalid permutation {order!r} for rank {self.ndim}")
        return Array(
            self.dtype,
            tuple(self._shape[i] for i in order),
            strides=tuple(self.strides[i] for i in order),
            start_offset=self.start_offset,
            alignment=self.alignment,
            transient=self.transient,
        )

    # -- identity -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return (
            self.dtype == other.dtype
            and self._shape == other._shape
            and self.strides == other.strides
            and self.start_offset == other.start_offset
            and self.alignment == other.alignment
            and self.transient == other.transient
        )

    def __hash__(self) -> int:
        return hash((Array, self.dtype, self._shape, self.strides, self.start_offset))

    def __repr__(self) -> str:
        shape = ", ".join(str(s) for s in self._shape)
        extra = ""
        if not self.is_c_contiguous():
            extra = f", strides=[{', '.join(str(s) for s in self.strides)}]"
        if self.transient:
            extra += ", transient"
        return f"Array({self.dtype}[{shape}]{extra})"
