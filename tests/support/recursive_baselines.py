"""Reference oracle: BUC and BU-BST as one-segment-per-frame recursions.

These are the builders ``paper.baselines`` shipped before both baselines
became flat-plan runs of :class:`repro.core.cure.CureBuilder`, moved here
verbatim together with the per-segment kernel they (and
``tests/support/recursive_cure.py``) sort with: :func:`reduce_segments`
and the :class:`~repro.core.workingset.WorkingSet` helpers
:func:`level_keys`, :func:`aggregate`, :func:`min_rowid` and
:func:`weight_of`.  ``tests/property/test_hypothesis_baselines.py``
requires the production cubes to hold the same node relations and
monolithic rows (as multisets) and the same ``BucStats`` /
``BuBstStats`` counters.  Slow by design; must not grow optimizations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from paper.baselines.bubst import ALL_MARKER, BuBstStats
from paper.baselines.buc import VALUE_BYTES, BucStats
from repro.core.model import CubeSchema
from repro.core.segments import aggregate_ufuncs, reduce_columns, sort_groups
from repro.core.workingset import WorkingSet
from repro.relational.table import Table

# -- the per-segment kernel ------------------------------------------------------


def level_keys(
    working: WorkingSet, dim: int, level: int, positions: np.ndarray
) -> np.ndarray:
    """Member codes of ``positions`` in dimension ``dim`` at ``level``."""
    base_codes = working.dims[dim][positions]
    if level == 0:
        return base_codes
    return working.schema.dimensions[dim].level_maps[level][base_codes]


def aggregate(working: WorkingSet, positions: np.ndarray) -> tuple[int, ...]:
    """The merged aggregate vector over ``positions``."""
    return tuple(
        spec.function.reduce(working.aggs[positions, y])
        for y, spec in enumerate(working.schema.aggregates)
    )


def min_rowid(working: WorkingSet, positions: np.ndarray) -> int:
    return int(working.rowids[positions].min())


def weight_of(working: WorkingSet, positions: np.ndarray) -> int:
    return int(working.weights[positions].sum())


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
    if n == 0:
        return SegmentBatch(positions, [0], [], [], [], [])
    order, sorted_keys, starts = sort_groups(keys)
    sorted_positions = positions[order]
    key_list = sorted_keys[starts].tolist()
    weights = np.add.reduceat(working.weights[sorted_positions], starts).tolist()
    rowids = np.minimum.reduceat(
        working.rowids[sorted_positions], starts
    ).tolist()
    reduced = reduce_columns(ufuncs, working.aggs[sorted_positions], starts)
    aggregates = list(map(tuple, reduced.tolist()))
    bounds = starts.tolist()
    bounds.append(n)
    return SegmentBatch(
        sorted_positions, bounds, key_list, weights, rowids, aggregates
    )


# -- what the recursions write into ------------------------------------------------


@dataclass
class RecursiveBucCube:
    """BUC's cube as the recursion built it: tuple lists per node."""

    nodes: dict[int, list[tuple]] = field(default_factory=dict)
    analytic_tuples: int = 0
    analytic_bytes: int = 0


@dataclass
class BuBstRow:
    """One monolithic-relation row.

    ``dims`` has one entry per dimension (``ALL_MARKER`` outside the
    grouping set; for BSTs, the base tuple's full dimension vector).
    ``node_id`` records where the row was produced, which the query layer
    needs to resolve BST sub-tree sharing.
    """

    node_id: int
    dims: tuple[int, ...]
    aggregates: tuple[int, ...]
    is_bst: bool


@dataclass
class RecursiveBuBstCube:
    rows: list[BuBstRow] = field(default_factory=list)


# -- BUC ---------------------------------------------------------------------------


class RecursiveBucBuilder:
    """Flat bottom-up recursion writing full tuples per node."""

    def __init__(
        self,
        schema: CubeSchema,
        cube: RecursiveBucCube,
        stats: BucStats,
        min_count: int,
        materialize: bool,
    ) -> None:
        self.schema = schema
        self.cube = cube
        self.stats = stats
        self.min_count = min_count
        self.materialize = materialize
        self._factors = schema.enumerator.factors
        self._all_levels = [d.all_level for d in schema.dimensions]
        self._node_levels = list(self._all_levels)
        self._node_id = schema.enumerator.node_id(schema.lattice.all_node)
        self._values: list[int] = [0] * schema.n_dimensions
        self._grouping: list[int] = []
        self._working: WorkingSet | None = None

    def run(self, working: WorkingSet) -> None:
        if not len(working):
            return
        self._working = working
        self._ufuncs = aggregate_ufuncs(self.schema)
        positions = np.arange(len(working), dtype=np.intp)
        self._execute(
            positions,
            working.total_weight,
            aggregate(working, positions),
            0,
        )

    # -- recursion -------------------------------------------------------------

    def _write(self, aggregates: tuple[int, ...]) -> None:
        self.stats.tuples_written += 1
        if not self.materialize:
            arity = len(self._grouping)
            self.cube.analytic_tuples += 1
            self.cube.analytic_bytes += (
                arity + self.schema.n_aggregates
            ) * VALUE_BYTES
            return
        row = tuple(self._values[d] for d in self._grouping) + aggregates
        self.cube.nodes.setdefault(self._node_id, []).append(row)

    def _execute(
        self,
        positions: np.ndarray,
        weight: int,
        aggregates: tuple[int, ...],
        next_dim: int,
    ) -> None:
        if weight < self.min_count:
            return
        self.stats.nodes_aggregated += 1
        self._write(aggregates)
        if len(positions) == 1:
            if self.min_count <= 1:
                self._emit_singleton_subtree(
                    int(positions[0]), aggregates, next_dim
                )
            # Iceberg mode (min_count > 1): a singleton cannot meet the
            # threshold in any more detailed node either, so prune.
            return
        for d in range(next_dim, self.schema.n_dimensions):
            self._follow_edge(positions, d)

    def _follow_edge(self, positions: np.ndarray, dim: int) -> None:
        working = self._working
        keys = level_keys(working, dim, 0, positions)
        self.stats.sort.keys_sorted += len(keys)
        self.stats.sort.comparison_sorts += 1
        batch = reduce_segments(working, positions, keys, self._ufuncs)
        self._enter(dim)
        bounds = batch.bounds
        sorted_positions = batch.sorted_positions
        for i, key in enumerate(batch.keys):
            self._values[dim] = key
            self._execute(
                sorted_positions[bounds[i] : bounds[i + 1]],
                batch.weights[i],
                batch.aggregates[i],
                dim + 1,
            )
        self._leave(dim)

    def _emit_singleton_subtree(
        self, position: int, aggregates: tuple[int, ...], next_dim: int
    ) -> None:
        """BUC's singleton optimization: project to the whole sub-tree.

        When not materializing, the sub-tree total is counted in closed
        form: over the ``2^k`` remaining subsets the tuple appears in every
        node once, adding ``k · 2^(k-1)`` extra grouping values overall.
        """
        working = self._working
        if not self.materialize:
            k = self.schema.n_dimensions - next_dim
            count = (1 << k) - 1  # current node already written
            arity = len(self._grouping)
            y = self.schema.n_aggregates
            self.cube.analytic_tuples += count
            self.stats.tuples_written += count
            self.stats.nodes_aggregated += count
            extra_values = arity * count + (k * (1 << (k - 1)) if k else 0)
            self.cube.analytic_bytes += (extra_values + y * count) * VALUE_BYTES
            return
        for d in range(next_dim, self.schema.n_dimensions):
            self._enter(d)
            self._values[d] = int(working.dims[d][position])
            self._write(aggregates)
            self.stats.nodes_aggregated += 1
            self._emit_singleton_subtree(position, aggregates, d + 1)
            self._leave(d)

    def _enter(self, dim: int) -> None:
        self._node_id += self._factors[dim] * (0 - self._node_levels[dim])
        self._node_levels[dim] = 0
        self._grouping.append(dim)

    def _leave(self, dim: int) -> None:
        all_level = self._all_levels[dim]
        self._node_id += self._factors[dim] * (all_level - 0)
        self._node_levels[dim] = all_level
        self._grouping.pop()


# -- BU-BST ----------------------------------------------------------------------------


class RecursiveBuBstBuilder:
    def __init__(
        self, schema: CubeSchema, cube: RecursiveBuBstCube, stats: BuBstStats
    ) -> None:
        self.schema = schema
        self.cube = cube
        self.stats = stats
        self._factors = schema.enumerator.factors
        self._all_levels = [d.all_level for d in schema.dimensions]
        self._node_levels = list(self._all_levels)
        self._node_id = schema.enumerator.node_id(schema.lattice.all_node)
        self._values = [ALL_MARKER] * schema.n_dimensions
        self._working: WorkingSet | None = None

    def run(self, working: WorkingSet) -> None:
        if not len(working):
            return
        self._working = working
        self._ufuncs = aggregate_ufuncs(self.schema)
        positions = np.arange(len(working), dtype=np.intp)
        self._execute(positions, aggregate(working, positions), 0)

    def _execute(
        self,
        positions: np.ndarray,
        aggregates: tuple[int, ...],
        next_dim: int,
    ) -> None:
        working = self._working
        if len(positions) == 1:
            # A BST: store the base tuple once here and prune the sub-tree.
            position = int(positions[0])
            base_dims = tuple(
                int(working.dims[d][position])
                for d in range(self.schema.n_dimensions)
            )
            self.cube.rows.append(
                BuBstRow(self._node_id, base_dims, aggregates, is_bst=True)
            )
            self.stats.bst_written += 1
            self.stats.rows_written += 1
            return
        self.stats.nodes_aggregated += 1
        self.cube.rows.append(
            BuBstRow(self._node_id, tuple(self._values), aggregates, is_bst=False)
        )
        self.stats.rows_written += 1
        for d in range(next_dim, self.schema.n_dimensions):
            self._follow_edge(positions, d)

    def _follow_edge(self, positions: np.ndarray, dim: int) -> None:
        working = self._working
        keys = level_keys(working, dim, 0, positions)
        self.stats.sort.keys_sorted += len(keys)
        self.stats.sort.comparison_sorts += 1
        batch = reduce_segments(working, positions, keys, self._ufuncs)
        self._node_id += self._factors[dim] * (0 - self._node_levels[dim])
        self._node_levels[dim] = 0
        bounds = batch.bounds
        sorted_positions = batch.sorted_positions
        for i, key in enumerate(batch.keys):
            self._values[dim] = key
            self._execute(
                sorted_positions[bounds[i] : bounds[i + 1]],
                batch.aggregates[i],
                dim + 1,
            )
        self._values[dim] = ALL_MARKER
        all_level = self._all_levels[dim]
        self._node_id += self._factors[dim] * all_level
        self._node_levels[dim] = all_level


# -- entry points --------------------------------------------------------------------


def recursive_buc_cube(
    schema: CubeSchema,
    table: Table,
    min_count: int = 1,
    materialize: bool = True,
) -> tuple[RecursiveBucCube, BucStats]:
    cube = RecursiveBucCube()
    stats = BucStats()
    builder = RecursiveBucBuilder(schema, cube, stats, min_count, materialize)
    builder.run(WorkingSet.from_fact_table(schema, table))
    return cube, stats


def recursive_bubst_cube(
    schema: CubeSchema, table: Table
) -> tuple[RecursiveBuBstCube, BuBstStats]:
    cube = RecursiveBuBstCube()
    stats = BuBstStats()
    RecursiveBuBstBuilder(schema, cube, stats).run(
        WorkingSet.from_fact_table(schema, table)
    )
    return cube, stats
