"""Reference oracle: the per-segment recursion of Figure 13, verbatim.

This is the builder ``repro.core.cure`` shipped before the
plan-edge-at-a-time rewrite — ``ExecutePlan``/``FollowEdge`` visiting one
segment per Python frame, emitting one event at a time into capture
sinks.  It is test-only: :mod:`tests.core.test_frontier_builder` requires
the production builder's ``(tts, sigs)`` event streams to be
``np.array_equal`` to :meth:`RecursiveCureBuilder.event_arrays` for every
entry point,
shape and threshold, and its ``BuildStats`` to match counter for counter.
It is slow by design (it is the loop version the vectorized one is
checked against) and must not grow optimizations.
"""

from __future__ import annotations

import numpy as np

from repro.core.cure import BuildStats
from repro.core.model import CubeSchema
from repro.core.segments import aggregate_ufuncs
from repro.core.workingset import WorkingSet
from repro.lattice.plan import ExecutionShape
from tests.support.recursive_baselines import (
    aggregate,
    level_keys,
    min_rowid,
    reduce_segments,
)


class RecursiveCureBuilder:
    """Runs the BUC-style recursion over a working set, one segment per
    call, recording trivial-tuple and signature events in emission order."""

    def __init__(
        self,
        schema: CubeSchema,
        shape: ExecutionShape,
        min_count: int = 1,
        stats: BuildStats | None = None,
    ) -> None:
        self.schema = schema
        self.shape = shape
        self.min_count = min_count
        self.stats = stats or BuildStats()
        self.tt_events: list[tuple[int, int]] = []
        self.sig_events: list[tuple[int, ...]] = []
        self._factors = schema.enumerator.factors
        self._node_levels = [
            dimension.all_level for dimension in schema.dimensions
        ]
        self._node_id = schema.enumerator.node_id(schema.lattice.all_node)
        self._working: WorkingSet | None = None

    # -- public entry points --------------------------------------------------

    def run(self, working: WorkingSet) -> None:
        """``ExecutePlan`` from the root: the all-in-memory case."""
        if not len(working):
            return
        self._attach(working)
        positions = np.arange(len(working), dtype=np.intp)
        self._execute(
            positions,
            working.total_weight,
            aggregate(working, positions),
            min_rowid(working, positions),
            0,
            None,
        )

    def run_partition(self, working: WorkingSet, level: int) -> None:
        """``FollowEdge(partition, 0, L)``: one partition's sub-cubes."""
        if not len(working):
            return
        self._attach(working)
        positions = np.arange(len(working), dtype=np.intp)
        self._follow_edge(positions, 0, level, 1)

    def run_partition_pair(
        self, working: WorkingSet, level0: int, level1: int
    ) -> None:
        """Pair-partitioning phase: nothing is emitted at the
        dimension-0-only granularity."""
        if not len(working):
            return
        self._attach(working)
        positions = np.arange(len(working), dtype=np.intp)
        self._pair_descend(positions, level0, level1)

    def _pair_descend(
        self, positions: np.ndarray, level0: int, level1: int
    ) -> None:
        working = self._working
        keys = level_keys(working, 0, level0, positions)
        self.stats.sort.keys_sorted += len(keys)
        self.stats.sort.comparison_sorts += 1
        batch = reduce_segments(working, positions, keys, self._ufuncs)
        old_level = self._node_levels[0]
        self._node_levels[0] = level0
        self._node_id += self._factors[0] * (level0 - old_level)
        for i in range(len(batch)):
            seg_positions = batch.positions_of(i)
            self._follow_edge(seg_positions, 1, level1, 2)
            for child in self.shape.dashed_children(0, level0):
                self._pair_descend(seg_positions, child, level1)
        self._node_levels[0] = old_level
        self._node_id += self._factors[0] * (old_level - level0)

    def _attach(self, working: WorkingSet) -> None:
        self._working = working
        self._ufuncs = aggregate_ufuncs(self.schema)

    # -- recursion ---------------------------------------------------------------

    def _execute(
        self,
        positions: np.ndarray,
        weight: int,
        aggregates: tuple[int, ...],
        min_rowid: int,
        next_dim: int,
        entered: int | None,
    ) -> None:
        if weight == 1:
            # A trivial tuple: store the row-id at this least detailed
            # node and prune — the whole plan sub-tree shares it.
            if self.min_count <= 1:
                self.tt_events.append((self._node_id, min_rowid))
                self.stats.tt_written += 1
            return
        if weight < self.min_count:
            # Iceberg pruning: descendants only see subsets.
            return
        self.sig_events.append((self._node_id, min_rowid) + tuple(aggregates))
        self.stats.nodes_aggregated += 1
        self.stats.signatures_emitted += 1
        for d in range(next_dim, self.schema.n_dimensions):
            for entry in self.shape.entry_levels(d):
                self._follow_edge(positions, d, entry, d + 1)
        if entered is not None:
            current_level = self._node_levels[entered]
            for child in self.shape.dashed_children(entered, current_level):
                self._follow_edge(positions, entered, child, next_dim)

    def _follow_edge(
        self,
        positions: np.ndarray,
        dim: int,
        level: int,
        next_dim_after: int,
    ) -> None:
        working = self._working
        keys = level_keys(working, dim, level, positions)
        self.stats.sort.keys_sorted += len(keys)
        self.stats.sort.comparison_sorts += 1
        batch = reduce_segments(working, positions, keys, self._ufuncs)

        old_level = self._node_levels[dim]
        self._node_levels[dim] = level
        self._node_id += self._factors[dim] * (level - old_level)
        bounds = batch.bounds
        sorted_positions = batch.sorted_positions
        for i, aggregates in enumerate(batch.aggregates):
            self._execute(
                sorted_positions[bounds[i] : bounds[i + 1]],
                batch.weights[i],
                aggregates,
                batch.rowids[i],
                next_dim_after,
                dim,
            )
        self._node_levels[dim] = old_level
        self._node_id += self._factors[dim] * (old_level - level)

    # -- what a TaskOutcome ships ----------------------------------------------

    def event_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded streams as ``tts (n, 2)`` / ``sigs (m, 2 + Y)``."""
        tts = np.asarray(self.tt_events, dtype=np.int64).reshape(-1, 2)
        sigs = np.asarray(self.sig_events, dtype=np.int64).reshape(
            -1, 2 + self.schema.n_aggregates
        )
        return tts, sigs
