"""Segmented-reduction kernel of the per-segment (BUC-style) builders.

BUC and BU-BST sort the current position set on one key column and then
need, per segment: its positions, total weight, minimum source row-id,
aggregate vector, and key value.  Doing those reductions with one
``ufunc.reduceat`` per column over the sorted layout (instead of per
segment fancy indexing) is what keeps the pure-Python baselines'
construction times meaningful.

CURE no longer runs on this kernel: :class:`repro.core.cure.CureBuilder`
sorts once per *plan edge* over all parent segments, where this kernel is
called once per segment.  Until the baselines are ported the same way,
CURE-vs-baseline construction *times* do not share a kernel and are not
apples-to-apples; sizes and the logical counters (``BuildStats``,
``SortStats``) still are.  The per-segment CURE recursion that used this
kernel lives on as the test oracle ``tests/support/recursive_cure.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.model import CubeSchema
from repro.core.workingset import WorkingSet


class SegmentBatch(NamedTuple):
    """All segments of one FollowEdge sort, reduced and ready to recurse."""

    sorted_positions: np.ndarray
    bounds: list[int]  # len(segments) + 1 offsets into sorted_positions
    keys: list[int]  # segment key values, ascending
    weights: list[int]
    rowids: list[int]
    aggregates: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.keys)

    def positions_of(self, index: int) -> np.ndarray:
        return self.sorted_positions[self.bounds[index] : self.bounds[index + 1]]


def reduce_segments(
    working: WorkingSet,
    positions: np.ndarray,
    keys: np.ndarray,
    ufuncs: Sequence[np.ufunc],
) -> SegmentBatch:
    """Sort ``positions`` by ``keys`` and reduce every segment at once."""
    n = len(keys)
    if n > 1:
        order = np.argsort(keys, kind="stable")
        sorted_positions = positions[order]
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        key_list = sorted_keys[starts].tolist()
    else:
        sorted_positions = positions
        starts = np.zeros(1, dtype=np.intp)
        key_list = [int(keys[0])] if n else []
    if n == 0:
        return SegmentBatch(sorted_positions, [0], [], [], [], [])
    weights = np.add.reduceat(working.weights[sorted_positions], starts).tolist()
    rowids = np.minimum.reduceat(
        working.rowids[sorted_positions], starts
    ).tolist()
    agg_matrix = working.aggs[sorted_positions]
    columns = [
        ufunc.reduceat(agg_matrix[:, y], starts).tolist()
        for y, ufunc in enumerate(ufuncs)
    ]
    if len(columns) == 1:
        aggregates = [(value,) for value in columns[0]]
    else:
        aggregates = list(zip(*columns))
    bounds = starts.tolist()
    bounds.append(n)
    return SegmentBatch(
        sorted_positions, bounds, key_list, weights, rowids, aggregates
    )


def aggregate_ufuncs(schema: CubeSchema) -> list[np.ufunc]:
    """The reduceat kernels of a schema's aggregates (raises on holistic)."""
    ufuncs = [spec.function.ufunc for spec in schema.aggregates]
    if any(ufunc is None for ufunc in ufuncs):
        raise ValueError(
            "cube construction needs distributive aggregates with a "
            "segmented-reduction kernel"
        )
    return ufuncs
