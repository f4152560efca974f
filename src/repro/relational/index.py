"""Inverted indices over fact-table dimension columns.

The paper's Section 5.3 notes that instead of indexing the entire cube —
expensive in both time and space — CURE can "index just the original fact
table consuming much cheaper resources", accelerating *selective* queries
(node queries with range/member predicates).  An :class:`InvertedIndex`
maps each member code of one dimension column to the ascending row-ids
carrying it; the query layer marks selected postings in a mask over the
fact rows, which skips non-matching fact fetches entirely.

The layout is CSR-style and array-native (Kaser & Lemire's normalization
argument: OLAP performance lives and dies on array-backed dimension
encodings): one ``offsets`` array of ``cardinality + 1`` int64 cursors
and one ``rowids`` array holding every posted row-id, grouped by member
code and ascending within each group.  Every query — member lookup,
member-set union, range scan, membership test — is a slice, a
``bincount``/sort, or a ``searchsorted`` kernel; no Python-level loop
touches individual row-ids.

Clamping semantics (uniform across every lookup): member codes outside
``[0, cardinality)`` simply hold no rows — :meth:`rowids_for`,
:meth:`rowids_for_members`, :meth:`count` and :meth:`contains` treat them
as empty postings, and :meth:`rowids_in_range` clamps its bounds into the
valid code range (an inverted ``lo > hi`` range is empty).  Only
:meth:`build` rejects out-of-range codes, because a fact row that cannot
be posted anywhere would silently vanish from every index-assisted
answer.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.segments import stable_order

_EMPTY = np.empty(0, dtype=np.int64)


def _as_id_array(values: object) -> np.ndarray:
    """Coerce a row-id collection to a 1-D int64 array."""
    if isinstance(values, np.ndarray):
        return values.astype(np.int64, copy=False)
    return np.fromiter(iter(values), dtype=np.int64)  # type: ignore[call-overload]


@dataclass
class InvertedIndex:
    """Member code → ascending row-ids, for one dimension column.

    ``offsets[c] : offsets[c + 1]`` delimits member ``c``'s posting
    inside ``rowids``.  Postings are ascending; ``rowids`` as a whole is
    grouped by member code, not globally sorted.
    """

    cardinality: int
    offsets: np.ndarray = field(default_factory=lambda: _EMPTY)
    rowids: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        if not len(self.offsets):
            self.offsets = np.zeros(self.cardinality + 1, dtype=np.int64)
        if len(self.offsets) != self.cardinality + 1:
            raise ValueError(
                f"offsets must have cardinality + 1 = {self.cardinality + 1} "
                f"entries, got {len(self.offsets)}"
            )
        if self.offsets[-1] != len(self.rowids):
            raise ValueError(
                f"offsets end at {self.offsets[-1]} but {len(self.rowids)} "
                "row-ids are posted"
            )

    @classmethod
    def build(cls, codes: Iterable[int], cardinality: int) -> "InvertedIndex":
        """Index a column in fact order (row-id = position).

        One ``bincount`` sizes the postings and one
        :func:`~repro.core.segments.stable_order` lays them out
        grouped-by-code, ascending within each group.
        """
        code_array = _as_id_array(codes)
        if len(code_array) and (
            code_array.min() < 0 or code_array.max() >= cardinality
        ):
            raise ValueError(
                f"column codes fall outside [0, {cardinality}); such rows "
                "would vanish from every index-assisted answer"
            )
        counts = np.bincount(code_array, minlength=cardinality)
        offsets = np.zeros(cardinality + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(cardinality, offsets, stable_order(code_array))

    @property
    def row_count(self) -> int:
        return len(self.rowids)

    def rowids_for(self, code: int) -> np.ndarray:
        """Ascending row-ids of member ``code`` (empty when out of range)."""
        if not 0 <= code < self.cardinality:
            return _EMPTY
        return self.rowids[self.offsets[code] : self.offsets[code + 1]]

    def rowids_for_members(self, codes: Iterable[int]) -> np.ndarray:
        """Ascending row-ids of every row in any of the member codes."""
        member = _as_id_array(codes)
        member = member[(member >= 0) & (member < self.cardinality)]
        if not len(member):
            return _EMPTY
        mask = np.zeros(self.cardinality, dtype=np.bool_)
        mask[member] = True
        selected = self.rowids[np.repeat(mask, np.diff(self.offsets))]
        return np.sort(selected)

    def contains(self, code: int, rowid: int) -> bool:
        """Does row ``rowid`` carry member ``code``? (binary search)"""
        posting = self.rowids_for(code)
        position = int(np.searchsorted(posting, rowid))
        return position < len(posting) and int(posting[position]) == rowid

    def count(self, code: int) -> int:
        """Posting length of ``code`` (0 when out of range)."""
        if not 0 <= code < self.cardinality:
            return 0
        return int(self.offsets[code + 1] - self.offsets[code])

    def rowids_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Row-ids whose member code lies in ``[lo, hi]`` (inclusive).

        Bounds clamp into ``[0, cardinality)``; ``lo > hi`` is empty.
        Contiguous postings make this one slice plus one sort.
        """
        lo, hi = max(lo, 0), min(hi, self.cardinality - 1)
        if lo > hi:
            return _EMPTY
        return np.sort(self.rowids[self.offsets[lo] : self.offsets[hi + 1]])

    @property
    def size_bytes(self) -> int:
        """Logical size: 4 bytes per posted row-id (the paper's rowids)."""
        return 4 * len(self.rowids)
