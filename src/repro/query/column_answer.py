"""``ColumnAnswer``: the columnar answer value type.

Vassiliadis-style cube algebra wants query results to be first-class
values with well-defined equality, not bags of Python tuples.  A
:class:`ColumnAnswer` holds one node query's result as two aligned int64
matrices — ``dims`` (one row per answer tuple, one column per grouping
dimension) and ``aggregates`` (one column per aggregate spec) — so
:mod:`repro.query` never materializes per-tuple Python objects; it is
what every query and serving entry point returns.  An answer read
from a cube holds both as column views of one ``(n, arity + Y)``
matrix (:meth:`of_rows`), which :meth:`matrix` hands to the encoder
without a copy.  The legacy ``list[(dims, aggregates)]`` pair shape
survives only at the edges: :meth:`to_pairs` / :meth:`from_pairs` are
the only bridges (to tests and to the row-engine oracle in
``tests/support``).

Equality is *normalized*: two answers are equal iff they hold the same
multiset of (dims, aggregates) rows, regardless of production order —
exactly the comparison the differential test harness needs.  Comparing
against a legacy pair list applies the same normalization, so
``ColumnAnswer == pairs`` means "same answer", not "same order".
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

#: The legacy answer shape (kept as the test/reference bridge).
Pairs = list[tuple[tuple[int, ...], tuple[int, ...]]]

#: Up to this many rows one ``np.lexsort`` over every column orders an
#: answer faster than the packed key's dozen numpy calls (3 µs against
#: 14 µs at 24 × 4, 8 against 17 µs at 128 × 5); at 512 rows it is
#: already twice as slow.
LEXSORT_ROWS = 128


def _as_matrix(values: object, n_columns: int) -> np.ndarray:
    """Coerce to a 2-D int64 matrix with ``n_columns`` columns."""
    matrix = np.asarray(values, dtype=np.int64)
    if matrix.ndim != 2:
        matrix = matrix.reshape(len(matrix), n_columns)
    return matrix


@dataclass(frozen=True, eq=False)
class ColumnAnswer:
    """One node query's answer as aligned int64 matrices.

    ``dims`` is ``(n, arity)``, ``aggregates`` is ``(n, n_aggregates)``;
    row ``i`` of both forms one answer tuple.  Instances are immutable
    values — transformations return new answers, and the arrays must not
    be mutated in place (they may be views shared with caches).
    """

    arity: int
    n_aggregates: int
    dims: np.ndarray
    aggregates: np.ndarray
    _rows: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        dims = _as_matrix(self.dims, self.arity)
        aggregates = _as_matrix(self.aggregates, self.n_aggregates)
        if dims.shape[1] != self.arity:
            raise ValueError(
                f"dims matrix has {dims.shape[1]} columns, arity is {self.arity}"
            )
        if aggregates.shape[1] != self.n_aggregates:
            raise ValueError(
                f"aggregates matrix has {aggregates.shape[1]} columns, "
                f"schema has {self.n_aggregates}"
            )
        if len(dims) != len(aggregates):
            raise ValueError(
                f"misaligned answer: {len(dims)} dim rows vs "
                f"{len(aggregates)} aggregate rows"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "aggregates", aggregates)

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, arity: int, n_aggregates: int) -> "ColumnAnswer":
        return cls(
            arity,
            n_aggregates,
            np.empty((0, arity), dtype=np.int64),
            np.empty((0, n_aggregates), dtype=np.int64),
        )

    @classmethod
    def of_rows(cls, arity: int, rows: np.ndarray) -> "ColumnAnswer":
        """Adopt one ``(n, arity + n_aggregates)`` int64 matrix: ``dims``
        and ``aggregates`` are views of its columns, and :meth:`matrix`
        hands it back without a copy."""
        answer = object.__new__(cls)  # views of one matrix: always aligned
        vars(answer).update(
            arity=arity, n_aggregates=rows.shape[1] - arity,
            dims=rows[:, :arity], aggregates=rows[:, arity:], _rows=rows,
        )
        return answer

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
        arity: int | None = None,
        n_aggregates: int | None = None,
    ) -> "ColumnAnswer":
        """Bridge a legacy pair list into columnar form.

        ``arity``/``n_aggregates`` default to the first pair's widths;
        pass them explicitly to give an *empty* answer a real shape.
        """
        if not pairs:
            return cls.empty(arity or 0, n_aggregates or 0)
        first_dims, first_aggregates = pairs[0]
        arity = len(first_dims) if arity is None else arity
        n_aggregates = (
            len(first_aggregates) if n_aggregates is None else n_aggregates
        )
        dims = np.asarray(
            [pair[0] for pair in pairs], dtype=np.int64
        ).reshape(len(pairs), arity)
        aggregates = np.asarray(
            [pair[1] for pair in pairs], dtype=np.int64
        ).reshape(len(pairs), n_aggregates)
        return cls(arity, n_aggregates, dims, aggregates)

    # -- the legacy bridge --------------------------------------------------

    def to_pairs(self) -> Pairs:
        """The legacy tuple-pair shape, preserving row order."""
        return list(
            zip(
                map(tuple, self.dims.tolist()),
                map(tuple, self.aggregates.tolist()),
            )
        )

    def matrix(self) -> np.ndarray:
        """The rows as one ``(n, arity + n_aggregates)`` matrix: dims,
        then aggregates."""
        if self._rows is not None:
            return self._rows
        return np.hstack((self.dims, self.aggregates))

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        return iter(self.to_pairs())

    # -- normalization and equality -----------------------------------------

    def sort_order(self) -> np.ndarray:
        """Row order matching ``sorted(self.to_pairs())``."""
        order = self._order()
        return np.arange(len(self), dtype=np.int64) if order is None else order

    def _order(self) -> np.ndarray | None:
        """:meth:`sort_order`, or ``None`` when the rows are already in it.

        Up to :data:`LEXSORT_ROWS` rows, one ``np.lexsort`` over every
        column is the order.  Above it a cube answer, which has one row
        per group (Gray et al.'s CUBE), is ordered by its dims alone:
        each column, offset by the matrix's minimum, takes ``bits`` of
        one int64 key.  Keys that already ascend (a roll-up's rows do)
        need no order; otherwise the row position goes in below the key,
        and one in-place sort leaves the order in its low bits.  Dims
        rows that tie, or dims too wide to pack, take the lexsort.
        """
        n, dims = len(self), self.dims
        if n < 2:
            return None
        if self.arity and n > LEXSORT_ROWS:
            low = int(dims.min())
            bits = (int(dims.max()) - low).bit_length()
            shift = (n - 1).bit_length()
            if bits and bits * self.arity + shift <= 63:
                weights = [1 << (bits * i) for i in range(self.arity)]
                key = (dims - low) @ np.array(weights[::-1])
                if (key[1:] > key[:-1]).all():
                    return None
                key <<= shift
                key |= np.arange(n, dtype=np.int64)
                key.sort()
                order = key & ((1 << shift) - 1)
                key >>= shift
                if not (key[1:] == key[:-1]).any():
                    return order
        rows = self.matrix()
        return np.lexsort(rows.T[::-1]) if rows.shape[1] else None

    def normalized(self) -> "ColumnAnswer":
        """Rows sorted lexicographically (dims first, then aggregates)."""
        order = self._order()
        return self if order is None else self.take(order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple)):
            other = ColumnAnswer.from_pairs(
                list(other), self.arity, self.n_aggregates
            )
        if not isinstance(other, ColumnAnswer):
            return NotImplemented
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True  # empty answers are equal whatever their shape
        if (
            self.arity != other.arity
            or self.n_aggregates != other.n_aggregates
        ):
            return False
        mine, theirs = self.normalized(), other.normalized()
        return bool(
            np.array_equal(mine.dims, theirs.dims)
            and np.array_equal(mine.aggregates, theirs.aggregates)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable-array backed

    # -- transformations ----------------------------------------------------

    def filter(self, mask: np.ndarray) -> "ColumnAnswer":
        """Rows where the boolean ``mask`` is true."""
        if mask.dtype != np.bool_ or len(mask) != len(self):
            raise ValueError(
                f"mask must be bool[{len(self)}], got {mask.dtype}[{len(mask)}]"
            )
        return ColumnAnswer.of_rows(
            self.arity, np.compress(mask, self.matrix(), axis=0)
        )

    def take(self, indices: np.ndarray) -> "ColumnAnswer":
        """Rows at ``indices``."""
        return ColumnAnswer.of_rows(
            self.arity, np.take(self.matrix(), indices, axis=0)
        )
