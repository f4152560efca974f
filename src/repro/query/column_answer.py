"""``ColumnAnswer``: the columnar answer value type.

Vassiliadis-style cube algebra wants query results to be first-class
values with well-defined equality, not bags of Python tuples.  A
:class:`ColumnAnswer` holds one node query's result as two aligned int64
matrices — ``dims`` (one row per answer tuple, one column per grouping
dimension) and ``aggregates`` (one column per aggregate spec) — so
:mod:`repro.query` never materializes per-tuple Python objects; it is
what every query and serving entry point returns.  The legacy
``list[(dims, aggregates)]`` pair shape survives only at the edges:
:meth:`to_pairs` / :meth:`from_pairs` are the only bridges (to tests and
to the row-engine oracle in ``tests/support``), and :meth:`as_batch` /
:meth:`from_batch` bridge to the :class:`~repro.relational.batch.ColumnBatch`
world the :class:`~repro.query.cache.ResultCache` lives in.

Equality is *normalized*: two answers are equal iff they hold the same
multiset of (dims, aggregates) rows, regardless of production order —
exactly the comparison the differential test harness needs.  Comparing
against a legacy pair list applies the same normalization, so
``ColumnAnswer == pairs`` means "same answer", not "same order".
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.relational.batch import ColumnBatch
from repro.relational.schema import Column, ColumnType, TableSchema

#: The legacy answer shape (kept as the test/reference bridge).
Pairs = list[tuple[tuple[int, ...], tuple[int, ...]]]


def answer_schema(arity: int, n_aggregates: int) -> TableSchema:
    """Relational schema of an answer: grouping codes then aggregates."""
    columns = [Column(f"g_{i}", ColumnType.INT64) for i in range(arity)]
    columns += [Column(f"a_{i}", ColumnType.INT64) for i in range(n_aggregates)]
    return TableSchema(tuple(columns))


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
    def from_parts(
        cls,
        arity: int,
        n_aggregates: int,
        parts: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> "ColumnAnswer":
        """Concatenate per-relation ``(dims, aggregates)`` matrix pairs.

        The batch answering kernels yield one aligned pair per stored
        relation (NT, CAT, TTs); this stitches them into one answer with
        a single concatenation — or zero copies when only one relation
        contributed.
        """
        collected = [
            (_as_matrix(dims, arity), _as_matrix(aggregates, n_aggregates))
            for dims, aggregates in parts
        ]
        collected = [(d, a) for d, a in collected if len(d)]
        if not collected:
            return cls.empty(arity, n_aggregates)
        if len(collected) == 1:
            dims, aggregates = collected[0]
        else:
            dims = np.concatenate([d for d, _ in collected])
            aggregates = np.concatenate([a for _, a in collected])
        return cls(arity, n_aggregates, dims, aggregates)

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

    @classmethod
    def from_batch(cls, batch: ColumnBatch, arity: int) -> "ColumnAnswer":
        """Adopt a ``ColumnBatch`` whose first ``arity`` columns are dims."""
        n_aggregates = batch.schema.arity - arity
        if batch.length == 0:
            return cls.empty(arity, n_aggregates)
        dims = np.stack(batch.arrays[:arity], axis=1) if arity else np.empty(
            (batch.length, 0), dtype=np.int64
        )
        aggregates = (
            np.stack(batch.arrays[arity:], axis=1)
            if n_aggregates
            else np.empty((batch.length, 0), dtype=np.int64)
        )
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

    def as_batch(self) -> ColumnBatch:
        """The answer as one ColumnBatch (grouping cols, then aggregates)."""
        arrays = tuple(self.dims[:, i] for i in range(self.arity)) + tuple(
            self.aggregates[:, j] for j in range(self.n_aggregates)
        )
        return ColumnBatch(
            answer_schema(self.arity, self.n_aggregates), arrays, len(self)
        )

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        return iter(self.to_pairs())

    # -- normalization and equality -----------------------------------------

    def sort_order(self) -> np.ndarray:
        """Row order matching ``sorted(self.to_pairs())``.

        A cube answer has one row per group (Gray et al.'s CUBE), so its
        order is the dims' alone: each column, offset by the matrix's
        minimum, takes ``bits`` of one int64 key above the row position,
        and one in-place sort leaves the order in the key's low bits.
        Dims rows that tie, or dims too wide to pack, fall back to
        ``np.lexsort`` over every column.
        """
        n, dims = len(self), self.dims
        positions = np.arange(n, dtype=np.int64)
        if n > 1 and self.arity:
            low = int(dims.min())
            bits = (int(dims.max()) - low).bit_length()
            shift = (n - 1).bit_length()
            if bits and bits * self.arity + shift <= 63:
                weights = [1 << (shift + bits * i) for i in range(self.arity)]
                key = (dims - low) @ np.array(weights[::-1])
                key |= positions
                key.sort()
                order = key & ((1 << shift) - 1)
                key >>= shift
                if not (key[1:] == key[:-1]).any():
                    return order
        columns = [*self.dims.T, *self.aggregates.T]
        return np.lexsort(columns[::-1]) if n > 1 and columns else positions

    def normalized(self) -> "ColumnAnswer":
        """Rows sorted lexicographically (dims first, then aggregates)."""
        order = self.sort_order()
        return ColumnAnswer(
            self.arity,
            self.n_aggregates,
            self.dims[order],
            self.aggregates[order],
        )

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
        return ColumnAnswer(
            self.arity, self.n_aggregates, self.dims[mask], self.aggregates[mask]
        )

    def take(self, indices: np.ndarray) -> "ColumnAnswer":
        """Rows at ``indices`` (fancy indexing)."""
        return ColumnAnswer(
            self.arity,
            self.n_aggregates,
            self.dims[indices],
            self.aggregates[indices],
        )
