"""Data handles and partitioning (StarPU-style data management).

A :class:`DataHandle` names a block of data the runtime manages across
memory nodes.  Handles either wrap a real numpy array (real execution and
functionally-validated simulation) or carry only shape/dtype metadata
(pure timing simulation of problem sizes too big to materialize — the
8192×8192 Figure-5 matrices are 512 MB each ×3).

Handles partition into child handles (block rows, block columns, or 2D
tiles); tasks operate on *leaf* handles, mirroring StarPU's
``starpu_data_partition`` usage in the DGEMM example.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import DataError

__all__ = ["DataHandle", "block_ranges"]

_handle_ids = itertools.count(1)


def block_ranges(extent: int, nparts: int) -> list[tuple[int, int]]:
    """Split ``extent`` into ``nparts`` contiguous ranges (BLOCK distribution).

    The first ``extent % nparts`` parts get one extra element — the standard
    balanced block distribution.
    """
    if nparts < 1:
        raise DataError(f"nparts must be >= 1, got {nparts}")
    if extent < nparts:
        raise DataError(f"cannot split extent {extent} into {nparts} parts")
    base, extra = divmod(extent, nparts)
    ranges = []
    start = 0
    for i in range(nparts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class DataHandle:
    """One runtime-managed datum.

    Parameters
    ----------
    shape:
        Logical array shape.
    dtype:
        numpy dtype (default float64, the paper's DGEMM precision).
    array:
        Optional backing numpy array; ``shape``/``dtype`` are derived from
        it when given.
    name:
        Debug label (e.g. ``"A"``, ``"C[2,3]"``).
    home_node:
        Memory node holding the initial valid copy (default 0, host RAM).
    """

    def __init__(
        self,
        shape: Optional[Sequence[int]] = None,
        dtype=np.float64,
        *,
        array: Optional[np.ndarray] = None,
        name: str = "",
        home_node: int = 0,
    ):
        if array is not None:
            self.array: Optional[np.ndarray] = array
            self.shape = tuple(array.shape)
            self.dtype = array.dtype
        else:
            if shape is None:
                raise DataError("DataHandle needs a shape or a backing array")
            self.array = None
            self.shape = tuple(int(s) for s in shape)
            self.dtype = np.dtype(dtype)
        self.id = next(_handle_ids)
        self.name = name or f"h{self.id}"
        self.home_node = home_node
        #: access mode → the interned :class:`~repro.runtime.tasks.Access`
        #: of this handle, filled by the tasks that access it
        self._accesses: dict = {}
        self.parent: Optional["DataHandle"] = None
        self.children: list["DataHandle"] = []
        #: slice of the parent this child covers (for reporting)
        self.parent_slice: Optional[tuple] = None

    # -- geometry -----------------------------------------------------------
    @property
    def nbytes(self) -> int:
        n = self.dtype.itemsize
        for s in self.shape:
            n *= s
        return n

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_partitioned(self) -> bool:
        return bool(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- partitioning --------------------------------------------------------
    def _child(self, view, shape, name, parent_slice) -> "DataHandle":
        child = DataHandle(
            shape=shape,
            dtype=self.dtype,
            array=view,
            name=name,
            home_node=self.home_node,
        )
        if view is None:
            # metadata-only child keeps declared shape/dtype
            child.shape = tuple(shape)
            child.dtype = self.dtype
        child.parent = self
        child.parent_slice = parent_slice
        self.children.append(child)
        return child

    def partition_rows(self, nparts: int) -> list["DataHandle"]:
        """BLOCK partition along the first axis."""
        self._check_partitionable()
        out = []
        for i, (lo, hi) in enumerate(block_ranges(self.shape[0], nparts)):
            shape = (hi - lo,) + self.shape[1:]
            view = self.array[lo:hi] if self.array is not None else None
            out.append(self._child(view, shape, f"{self.name}[{i}]", (slice(lo, hi),)))
        return out

    def partition_cols(self, nparts: int) -> list["DataHandle"]:
        """BLOCK partition along the second axis (matrices only)."""
        self._check_partitionable()
        if self.ndim < 2:
            raise DataError(f"{self.name}: column partition needs a 2-D handle")
        out = []
        for j, (lo, hi) in enumerate(block_ranges(self.shape[1], nparts)):
            shape = (self.shape[0], hi - lo) + self.shape[2:]
            view = self.array[:, lo:hi] if self.array is not None else None
            out.append(
                self._child(
                    view, shape, f"{self.name}[:,{j}]", (slice(None), slice(lo, hi))
                )
            )
        return out

    def partition_tiles(self, prow: int, pcol: int) -> list[list["DataHandle"]]:
        """2-D BLOCK/BLOCK tiling; returns a ``prow × pcol`` nested list."""
        self._check_partitionable()
        if self.ndim != 2:
            raise DataError(f"{self.name}: tile partition needs a 2-D handle")
        rows = block_ranges(self.shape[0], prow)
        cols = block_ranges(self.shape[1], pcol)
        grid: list[list[DataHandle]] = []
        for i, (rlo, rhi) in enumerate(rows):
            row_handles = []
            for j, (clo, chi) in enumerate(cols):
                shape = (rhi - rlo, chi - clo)
                view = (
                    self.array[rlo:rhi, clo:chi] if self.array is not None else None
                )
                row_handles.append(
                    self._child(
                        view,
                        shape,
                        f"{self.name}[{i},{j}]",
                        (slice(rlo, rhi), slice(clo, chi)),
                    )
                )
            grid.append(row_handles)
        return grid

    def unpartition(self) -> None:
        """Drop children (data already lives in the parent array via views)."""
        for child in self.children:
            child.parent = None
        self.children.clear()

    def _check_partitionable(self) -> None:
        if self.children:
            raise DataError(f"{self.name}: already partitioned")

    # -- traversal ------------------------------------------------------------
    def leaves(self) -> Iterator["DataHandle"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def require_array(self) -> np.ndarray:
        if self.array is None:
            raise DataError(
                f"{self.name}: no backing array (metadata-only handle);"
                " functional execution requires real arrays"
            )
        return self.array

    def __repr__(self) -> str:
        backing = "array" if self.array is not None else "meta"
        return f"DataHandle({self.name!r}, shape={self.shape}, {backing})"
