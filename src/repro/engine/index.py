"""Stable processor-id <-> matrix-row mapping.

Every matrix the engine layer handles is indexed by *rows*, not processor
ids.  :class:`ProcessorIndex` is the single translation point: it fixes
one row per processor (in first-appearance order, so roots and component
ordering stay stable across runs) and converts between the pipeline's
dict-of-pairs representation and dense ``numpy`` matrices;
:class:`PairView` reads a matrix as a pair mapping without copying it
into a dict.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._types import Edge, INF, ProcessorId, Time


class ProcessorIndex:
    """Immutable bijection between processor ids and matrix rows."""

    __slots__ = ("_processors", "_rows")

    def __init__(self, processors: Iterable[ProcessorId]):
        self._processors: Tuple[ProcessorId, ...] = tuple(processors)
        self._rows: Dict[ProcessorId, int] = {
            p: i for i, p in enumerate(self._processors)
        }
        if len(self._rows) != len(self._processors):
            raise ValueError("duplicate processor ids in index")

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    @property
    def processors(self) -> Tuple[ProcessorId, ...]:
        """All processors, in row order."""
        return self._processors

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self) -> Iterator[ProcessorId]:
        return iter(self._processors)

    def __contains__(self, processor: ProcessorId) -> bool:
        return processor in self._rows

    def row(self, processor: ProcessorId) -> int:
        """The matrix row of ``processor`` (KeyError if unknown)."""
        return self._rows[processor]

    def processor(self, row: int) -> ProcessorId:
        """The processor occupying ``row``."""
        return self._processors[row]

    def rows(self, processors: Iterable[ProcessorId]) -> List[int]:
        """Rows of several processors, preserving order."""
        return [self._rows[p] for p in processors]

    # ------------------------------------------------------------------
    # Matrix <-> dict conversion
    # ------------------------------------------------------------------

    def matrix(
        self, pairs: Mapping[Edge, Time], default: float = INF
    ) -> np.ndarray:
        """Dense ``(n, n)`` weight matrix from a mapping of ordered pairs.

        Missing pairs become ``default`` (``inf`` = "no constraint").  The
        diagonal starts at 0 (the empty path); an explicit self-pair only
        lowers it, mirroring how the dict pipeline treats self-loops (a
        negative one is a negative cycle, a non-negative one is inert).
        """
        n = len(self._processors)
        out = np.full((n, n), default, dtype=float)
        np.fill_diagonal(out, 0.0)
        rows = self._rows
        for (p, q), weight in pairs.items():
            i, j = rows[p], rows[q]
            if i == j:
                out[i, i] = min(out[i, i], weight)
            else:
                out[i, j] = weight
        return out

    def pairs(self, matrix: np.ndarray) -> Dict[Edge, Time]:
        """Materialise *all* ordered pairs (diagonal included) of a matrix.

        The pipeline never calls this: results carry a :class:`PairView`
        instead, and ``dict(view)`` is this same mapping.
        """
        return dict(PairView(matrix, self).items())

    def pair_rows(self, pairs: Sequence[Edge]) -> List[Tuple[int, int]]:
        """Row-space version of a sequence of ordered processor pairs."""
        rows = self._rows
        return [(rows[p], rows[q]) for p, q in pairs]

    def __repr__(self) -> str:
        return f"ProcessorIndex(n={len(self._processors)})"


class _PairItems(ItemsView):
    """Row-major items of a :class:`PairView`, one ``tolist`` per pass."""

    def __iter__(self):
        procs = self._mapping.index.processors
        for p, row in zip(procs, self._mapping.matrix.tolist()):
            yield from (((p, q), value) for q, value in zip(procs, row))


class PairView(Mapping):
    """Read-only ``{(p, q): matrix[row(p), row(q)]}`` over all ordered pairs.

    Holds a non-writeable copy of ``matrix``, so it never changes.  It
    iterates row-major over ``index.processors``: ``dict(view)`` equals
    :meth:`ProcessorIndex.pairs`, same key order and bit-equal floats.
    A pair naming an unknown processor raises ``KeyError``.  A view
    built with :meth:`sparse` holds only the entries that are not
    ``+inf`` and expands them into :attr:`matrix` when it is first read.
    """

    __slots__ = ("_matrix", "_cells", "_values", "index")

    def __init__(self, matrix: np.ndarray, index: ProcessorIndex):
        _check_shape(matrix, index)
        self._matrix = np.array(matrix, dtype=float)
        self._matrix.setflags(write=False)
        self._cells = self._values = None
        self.index = index

    @classmethod
    def adopt(cls, matrix: np.ndarray, index: ProcessorIndex) -> "PairView":
        """A view that takes ownership of the float ``matrix`` instead of
        copying it: ``matrix`` becomes non-writeable, so the caller must
        hold no other writer."""
        _check_shape(matrix, index)
        view = cls.__new__(cls)
        matrix.setflags(write=False)
        view._matrix = matrix
        view._cells = view._values = None
        view.index = index
        return view

    @classmethod
    def sparse(cls, matrix: np.ndarray, index: ProcessorIndex) -> "PairView":
        """A view of a mostly-``inf`` matrix, such as ``mls~`` (finite on
        the links and the diagonal only), that holds only its other
        entries until :attr:`matrix` is read; a matrix with more than a
        quarter of its entries off ``+inf`` is copied whole."""
        _check_shape(matrix, index)
        cells = np.flatnonzero(matrix != INF)
        if 4 * len(cells) > matrix.size:
            return cls(matrix, index)
        view = cls.__new__(cls)
        view._matrix = None
        view._cells = cells
        view._values = matrix.ravel()[cells].astype(float, copy=False)
        view.index = index
        return view

    def regathered(self, matrix: np.ndarray) -> Optional["PairView"]:
        """A :meth:`sparse` view of ``matrix``, which the caller knows is
        ``+inf`` exactly where this view's matrix is: only the values are
        gathered.  ``None`` when this view is not sparse."""
        if self._cells is None:
            return None
        view = type(self).__new__(type(self))
        view._matrix = None
        view._cells = self._cells
        view._values = matrix.ravel()[self._cells].astype(float, copy=False)
        view.index = self.index
        return view

    @property
    def matrix(self) -> np.ndarray:
        """The viewed ``(n, n)`` matrix, non-writeable."""
        if self._matrix is None:
            n = len(self.index)
            dense = np.full((n, n), INF)
            np.put(dense, self._cells, self._values)
            dense.setflags(write=False)
            self._matrix = dense
        return self._matrix

    def __getitem__(self, pair: Edge) -> Time:
        try:
            p, q = pair
            return float(self.matrix[self.index.row(p), self.index.row(q)])
        except (KeyError, TypeError, ValueError):
            raise KeyError(pair) from None

    def __iter__(self) -> Iterator[Edge]:
        procs = self.index.processors
        return ((p, q) for p in procs for q in procs)

    def __len__(self) -> int:
        return len(self.index) ** 2

    def items(self) -> _PairItems:
        return _PairItems(self)

    def __reduce__(self):
        return (PairView, (self.matrix, self.index))

    def __repr__(self) -> str:
        return f"PairView(n={len(self.index)})"


def _check_shape(matrix: np.ndarray, index: ProcessorIndex) -> None:
    if matrix.shape != (len(index), len(index)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match index size "
            f"{len(index)}"
        )


def pair_submatrix(
    pairs: Mapping[Edge, Time], processors: Sequence[ProcessorId]
) -> np.ndarray:
    """Read-only ``k x k`` matrix of ``pairs`` over ``processors``.

    Gathered from a :class:`PairView`'s matrix; filled once from any
    other mapping, with ``inf`` for missing pairs.
    """
    if isinstance(pairs, PairView) and all(p in pairs.index for p in processors):
        rows = pairs.index.rows(processors)
        if rows == list(range(len(pairs.index))):
            return pairs.matrix
        return pairs.matrix[np.ix_(rows, rows)]
    return np.array(
        [[pairs.get((p, q), INF) for q in processors] for p in processors],
        dtype=float,
    ).reshape(len(processors), len(processors))


__all__ = ["PairView", "ProcessorIndex", "pair_submatrix"]
