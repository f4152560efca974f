"""Group-by kernels: one stable sort, then ``ufunc.reduceat`` per column.

:func:`sort_groups` / :func:`reduce_columns` / :func:`pack_keys` are the
shared pieces: the plan-edge sort of :class:`repro.core.cure.CureBuilder`,
the delta merger (:mod:`repro.core.incremental`) and the coarse-node fold
of the partition pass (:class:`GroupFold`, :mod:`repro.core.partition`)
all group with them — and through ``CureBuilder`` so do the BUC and
BU-BST baselines (:mod:`repro.baselines`).

:func:`stable_order` is the one stable sort under all of them, and under
every other sort on the build and publish path: the signature pool's
flush, the storage's per-node routing, the partition spill and the
inverted index.  It packs each key with the row position into one int64
and sorts that in place: on 24,000 keys numpy's SIMD ``ndarray.sort``
costs a tenth of the stable index sort (timsort) it replaces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the inverted index imports this module from below core
    from repro.core.model import CubeSchema
    from repro.hierarchy.dimension import Dimension

#: A packed grouping key stays below this; wider code spaces re-rank.
_KEY_SPAN_LIMIT = 1 << 62
#: Bits of a packed sort key, which stays a non-negative int64.
_SORT_KEY_BITS = 63


def stable_order(*columns: np.ndarray) -> np.ndarray:
    """The stable order of rows by ``columns[0]``, then ``columns[1]``, …

    Ties keep input order.  Each step packs the rank of the rows' group
    so far, the offsets (from their minimum) of as many next columns as
    fit, and the row position into one int64 key and sorts it in place:
    the position bits make every key distinct, so the unstable SIMD sort
    gives the stable order, and the order is the key's low bits.  Steps
    stop once every group is a single row.  A column too wide to sit
    beside the position bits leaves the columns still unsorted to one
    stable multi-key sort under the rank.

    The key is built and unpacked in place: at 24,000 rows each fresh
    temporary costs about as much in page faults as the arithmetic.
    """
    n = len(columns[0])
    positions = np.arange(n, dtype=np.int64)
    if n < 2:
        return positions
    position_bits = (n - 1).bit_length()
    position_mask = (1 << position_bits) - 1
    pending = [np.asarray(column, dtype=np.int64) for column in columns]
    order = positions
    rank: np.ndarray | None = None
    rank_bits = 0
    while pending:
        key, used = rank, rank_bits  # a rank is rebuilt after each step
        packed = 0
        for column in pending:
            low = int(column.min())
            bits = (int(column.max()) - low).bit_length()
            if used + bits + position_bits > _SORT_KEY_BITS:
                break
            packed += 1
            if not bits:
                continue
            if key is None:
                key = column - low
            else:  # in place: int64 may wrap midway, but the sum fits
                key <<= bits
                key += column
                key -= low
            used += bits
        if not packed:
            keys = pending[::-1] if rank is None else [*pending[::-1], rank]
            return np.lexsort(keys)
        del pending[:packed]
        if key is None:  # every column packed so far is constant
            continue
        key <<= position_bits
        key |= positions
        key.sort()
        if not pending:
            key &= position_mask
            return key
        order = key & position_mask
        key >>= position_bits
        new_group = key[1:] != key[:-1]
        n_groups = int(new_group.sum()) + 1
        if n_groups == n:
            break
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(new_group)))
        rank_bits = (n_groups - 1).bit_length()
    return order


def pack_keys(
    columns: Iterable[np.ndarray], cardinalities: Sequence[int]
) -> np.ndarray:
    """One int64 grouping key per row from one or more code columns.

    Mixed radix over ``cardinalities``; equal keys ⇔ equal codes.  A code
    space too wide for 62 bits re-ranks the partial key densely (ranks
    are over the rows given, so keys compare within one call only).
    The key is packed in place and each column is read once, in turn, so
    ``columns`` may be a generator that refills one buffer per column.
    """
    remaining = iter(columns)
    key = np.array(next(remaining), dtype=np.int64)
    span = cardinalities[0]
    for codes, cardinality in zip(remaining, cardinalities[1:]):
        if span * cardinality > _KEY_SPAN_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            span = len(key)
        key *= cardinality
        key += codes
        span *= cardinality
    return key


def sort_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by one stable sort: ``(order, sorted keys, starts)``.

    ``starts`` indexes the first row of each run of equal keys in the
    sorted layout — the offsets ``ufunc.reduceat`` takes.  The sort is
    stable, so ``order[starts]`` is each group's lowest input position.
    """
    order = stable_order(keys)
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return order, sorted_keys, starts


def reduce_columns(
    ufuncs: Sequence[np.ufunc], sorted_columns: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-group reduction of a sorted int64 matrix, one ufunc a column."""
    reduced = np.empty((len(starts), len(ufuncs)), dtype=np.int64)
    for y, ufunc in enumerate(ufuncs):
        reduced[:, y] = ufunc.reduceat(sorted_columns[:, y], starts)
    return reduced


#: One grouping key per row of an int64 matrix whose leading columns are
#: base codes.
KeyFunction = Callable[[np.ndarray], np.ndarray]


def rollup_key(
    dimensions: Sequence[Dimension], levels: Sequence[int]
) -> KeyFunction:
    """Group column ``d`` at ``levels[d]`` of ``dimensions[d]`` (its ALL
    level: projected out)."""
    kept = [
        (d, dimension.level_maps[level], dimension.cardinality(level))
        for d, (dimension, level) in enumerate(zip(dimensions, levels))
        if level != dimension.all_level
    ]

    def key_of(rows: np.ndarray) -> np.ndarray:
        if not kept:
            return np.zeros(len(rows), dtype=np.int64)
        return pack_keys(
            [level_map[rows[:, d]] for d, level_map, _ in kept],
            [cardinality for _, _, cardinality in kept],
        )

    return key_of


class GroupFold:
    """A running group-by over int64 rows whose trailing columns reduce.

    The last ``len(ufuncs)`` columns of a group fold through ``ufuncs``;
    the others are its first contributor's, and groups come out in
    first-appearance order — what a dict filled in scan order holds,
    which is the order coarse relations are persisted in.
    """

    def __init__(
        self, key_of: KeyFunction, width: int, ufuncs: Sequence[np.ufunc]
    ) -> None:
        self.key_of = key_of
        self.ufuncs = tuple(ufuncs)
        self._width = width
        self._parts: list[np.ndarray] = []  # merged groups, then partials

    def fold(self, rows: np.ndarray) -> np.ndarray:
        """Group ``rows``, given in scan order."""
        if not len(rows):
            return rows
        order, _, starts = sort_groups(self.key_of(rows))
        first = order[starts]  # stable sort: each group's earliest row
        groups = rows[first]
        reduced = rows.shape[1] - len(self.ufuncs)
        groups[:, reduced:] = reduce_columns(
            self.ufuncs, rows[order, reduced:], starts
        )
        return groups[stable_order(first)]

    def add(self, rows: np.ndarray) -> None:
        """Fold one chunk in.  Chunk partials merge into the running
        groups only once they outnumber them, so a long scan re-sorts the
        node once per doubling, not once per chunk."""
        self._parts.append(self.fold(rows))
        if sum(map(len, self._parts[1:])) >= len(self._parts[0]):
            self.result()

    def result(self) -> np.ndarray:
        if len(self._parts) > 1:
            self._parts = [self.fold(np.concatenate(self._parts))]
        empty = np.empty((0, self._width), dtype=np.int64)
        return self._parts[0] if self._parts else empty


def aggregate_ufuncs(schema: CubeSchema) -> list[np.ufunc]:
    """The reduceat kernels of a schema's aggregates (raises on holistic)."""
    ufuncs = [spec.function.ufunc for spec in schema.aggregates]
    if any(ufunc is None for ufunc in ufuncs):
        raise ValueError(
            "cube construction needs distributive aggregates with a "
            "segmented-reduction kernel"
        )
    return ufuncs
