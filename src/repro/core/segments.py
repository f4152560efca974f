"""Group-by kernels: one stable sort, then ``ufunc.reduceat`` per column.

:func:`sort_groups` / :func:`reduce_columns` / :func:`pack_keys` are the
shared pieces: the plan-edge sort of :class:`repro.core.cure.CureBuilder`,
the delta merger (:mod:`repro.core.incremental`) and the coarse-node fold
of the partition pass (:class:`GroupFold`, :mod:`repro.core.partition`)
all group with them — and through ``CureBuilder`` so do the BUC and
BU-BST baselines (:mod:`repro.baselines`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.model import CubeSchema
from repro.hierarchy.dimension import Dimension

#: A packed grouping key stays below this; wider code spaces re-rank.
_KEY_SPAN_LIMIT = 1 << 62


def pack_keys(
    columns: Sequence[np.ndarray], cardinalities: Sequence[int]
) -> np.ndarray:
    """One int64 grouping key per row from one or more code columns.

    Mixed radix over ``cardinalities``; equal keys ⇔ equal codes.  A code
    space too wide for 62 bits re-ranks the partial key densely (ranks
    are over the rows given, so keys compare within one call only).
    """
    key = np.asarray(columns[0], dtype=np.int64)
    span = cardinalities[0]
    for codes, cardinality in zip(columns[1:], cardinalities[1:]):
        if span * cardinality > _KEY_SPAN_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            span = len(key)
        key = key * cardinality + codes
        span *= cardinality
    return key


def sort_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by one stable sort: ``(order, sorted keys, starts)``.

    ``starts`` indexes the first row of each run of equal keys in the
    sorted layout — the offsets ``ufunc.reduceat`` takes.  The sort is
    stable, so ``order[starts]`` is each group's lowest input position.
    """
    order = np.argsort(keys, kind="stable")
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
        return groups[np.argsort(first)]

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
