"""External partitioning: the pass (``Partition``, Section 4 of the paper).

When the fact table exceeds the memory budget, CURE:

1. selects the **maximum** level ``L`` of the first dimension whose
   sound partitions and whose coarse node ``N = A_{L+1} B_0 C_0 …`` both
   fit in memory — or, where no level does, a level pair of the first two
   dimensions (:mod:`repro.core.partition_select`, which defines a
   partitioning by its levels);
2. **partitions** the relation on the selected members in one pass,
   simultaneously building the coarse node(s) (one further pass over R
   happens later when the partitions are loaded — the "2 reads, 1 write"
   of Section 4);
3. hands the partitions to phase 1 (nodes with the leading dimensions at
   the selected levels or below) and the coarse nodes to phase 2 (all
   remaining nodes).

Members are greedily binned into the fewest memory-sized partitions;
soundness only requires that no member is split across partitions.

A partition that still overflows when it is loaded is partitioned again,
the same way, at or below the level it is sound on
(:func:`repartition_partition`).  All of it is :func:`partition_relation`
over one array routine, :func:`spill_by_key`.  The tuple-at-a-time pass it
replaced is the test oracle ``tests/support/row_partition.py``, and the
bytes of every partition file and coarse node are held to it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.model import CubeSchema
from repro.core.partition_select import (
    PartitionDecision,
    coarse_nodes,
    select_partition_level,
)
from repro.core.segments import (
    GroupFold,
    KeyFunction,
    aggregate_ufuncs,
    rollup_key,
    stable_order,
)
from repro.relational.batch import ColumnBatch
from repro.relational.durable import maybe_fire
from repro.relational.engine import Engine
from repro.relational.schema import Column, ColumnType, TableSchema


class PartitionStats(Protocol):
    """The pass-count fields the partitioner mutates (``BuildStats`` fits)."""

    partitioned: bool
    fact_read_passes: int
    fact_write_passes: int
    partitions_created: int
    repartitioned_partitions: int
    pair_repartitioned_partitions: int
    subpartitions_created: int


# -- the pass: spill rows to bins, fold coarse nodes ---------------------------------


def _coarse_key(schema: CubeSchema, dim: int, level: int) -> KeyFunction:
    """The coarse node that rolls ``dim`` up to ``level`` and keeps every
    other dimension at its base level."""
    levels = [0] * schema.n_dimensions
    levels[dim] = level
    return rollup_key(schema.dimensions, levels)


def _coarse_schema(schema: CubeSchema) -> TableSchema:
    """A persisted coarse node — the paper's ``nodeRelation``: a base code
    per dimension, the partial aggregates, weight, minimum row-id.

    The rolled-up dimension holds a *representative* base code, the first
    contributor's: recursion from the node never descends below the level
    it was rolled up to, where all contributors roll up identically, so
    any representative is equivalent and the working-set layout stays
    uniform.
    """
    columns = [
        Column(f"c_{d}", ColumnType.INT32) for d in range(schema.n_dimensions)
    ]
    columns += [
        Column(f"aggr_{y}", ColumnType.INT64)
        for y in range(schema.n_aggregates)
    ]
    columns += [
        Column("weight", ColumnType.INT64),
        Column("min_rowid", ColumnType.INT64),
    ]
    return TableSchema(tuple(columns))


def _singleton_groups(
    schema: CubeSchema, columns: tuple[np.ndarray, ...]
) -> np.ndarray:
    """One chunk as single-tuple groups in the coarse layout."""
    n_dims = schema.n_dimensions
    rows = np.empty(
        (len(columns[0]), n_dims + schema.n_aggregates + 2), dtype=np.int64
    )
    for d in range(n_dims):
        rows[:, d] = columns[d]
    for y, spec in enumerate(schema.aggregates):
        rows[:, n_dims + y] = spec.function.from_column(
            columns[n_dims + spec.measure_index]
        )
    rows[:, -2] = 1
    rows[:, -1] = columns[-1]
    return rows


def _fresh_relation(engine: Engine, name: str, schema: TableSchema):
    if engine.catalog.exists(name):
        engine.catalog.drop(name)
    return engine.create_relation(name, schema)


def spill_by_key(
    engine: Engine,
    source: str,
    schema: CubeSchema,
    stem: str,
    levels: tuple[int, ...],
    assignment: dict,
    coarse: dict[str, KeyFunction],
    name_suffix: str = "",
) -> list[str]:
    """One pass over ``source``: spill every row to its bin, fold the
    coarse nodes, persist them.  Returns the bin names ``<stem><i>``.

    A row's key is the member code(s) of the leading dimension(s) at
    ``levels``; ``assignment`` maps keys to bins, and a key absent from it
    (a member the counting scan did not see) goes to bin 0.  ``coarse``
    maps relation names to grouping keys; the nodes are written once the
    partitions are, so they occupy no memory while those are processed.

    The source is read a ``HeapFile.scan_batches`` chunk at a time; a
    chunk is grouped by bin with one :func:`stable_order`, so rows keep
    their source order inside every partition file, and each bin's slice
    is one ``append_batch``.  Transient memory is the chunk and its
    permutation.
    """
    heap = engine.relation(source)
    partition_schema = schema.partition_schema
    n_bins = (max(assignment.values()) + 1) if assignment else 0
    names = [f"{stem}{i}{name_suffix}" for i in range(n_bins)]
    heaps = [_fresh_relation(engine, name, partition_schema) for name in names]

    leading = schema.dimensions[: len(levels)]
    maps = [d.level_maps[level] for d, level in zip(leading, levels)]
    radix = [d.cardinality(level) for d, level in zip(leading, levels)]

    def member_key(codes: Sequence[np.ndarray]) -> np.ndarray:
        # Not ``pack_keys``: these keys are compared across calls.
        key = codes[0]
        for column, cardinality in zip(codes[1:], radix[1:]):
            key = key * cardinality + column
        return key

    members = np.array(list(assignment), dtype=np.int64)
    keys = member_key(members.reshape(-1, len(levels)).T)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    key_bins = np.array(list(assignment.values()), dtype=np.int64)[by_key]
    bin_ids = np.arange(n_bins + 1, dtype=np.int64)

    coarse_schema = _coarse_schema(schema)
    ufuncs = [*aggregate_ufuncs(schema), np.add, np.minimum]
    folders = [
        GroupFold(key_of, coarse_schema.arity, ufuncs)
        for key_of in coarse.values()
    ]
    # A partition carries the fact row-id it was spilled with as its last
    # column; the fact relation's row-ids are its positions.
    numbered = heap.schema.arity == partition_schema.arity
    seen = 0
    for batch in heap.scan_batches():
        columns = batch.arrays
        if not numbered:
            columns += (np.arange(seen, seen + batch.length, dtype=np.int64),)
            seen += batch.length
        key = member_key([m[columns[d]] for d, m in enumerate(maps)])
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        bins = np.where(keys[at] == key, key_bins[at], 0)
        order = stable_order(bins)
        bounds = np.searchsorted(bins[order], bin_ids).tolist()
        routed = ColumnBatch(
            partition_schema,
            tuple(column[order] for column in columns),
            batch.length,
        )
        for index, spilled in enumerate(heaps):
            if bounds[index] < bounds[index + 1]:
                spilled.append_batch(
                    routed.slice(bounds[index], bounds[index + 1])
                )
        singles = _singleton_groups(schema, columns)
        for folder in folders:
            folder.add(singles)
    for spilled in heaps:
        spilled.flush()
    for name, folder in zip(coarse, folders):
        node = _fresh_relation(engine, name, coarse_schema)
        node.append_batch(
            ColumnBatch.from_arrays(coarse_schema, list(folder.result().T))
        )
        node.flush()
    return names


def _first_fit(
    rows_by_member: dict, heaviest_rows: int, available_bytes: int, row_bytes: int
) -> dict:
    """First-fit-decreasing binning of members (or member pairs) into
    partitions.

    Returns member → partition-index.  Soundness holds because a member
    is never split; memory-sizedness because bins are capped at the
    available budget (each single member fits by the selection
    criterion).  Equal weights keep the order of ``rows_by_member``.
    """
    capacity_rows = max(available_bytes // row_bytes, heaviest_rows)
    members = sorted(rows_by_member.items(), key=lambda item: -item[1])
    bins: list[int] = []  # remaining capacity per bin
    assignment = {}
    for member, rows in members:
        for index, remaining in enumerate(bins):
            if rows <= remaining:
                bins[index] -= rows
                assignment[member] = index
                break
        else:
            bins.append(capacity_rows - rows)
            assignment[member] = len(bins) - 1
    return assignment


# -- one partitioning, four uses -----------------------------------------------------


@dataclass
class Partitioning:
    """What one pass wrote: partitions sound on the members of ``levels``
    and the coarse nodes :func:`coarse_nodes` names, in that order.

    Without a ``parent_level`` it partitions the fact relation.  With
    one it splits a single partition sound on ``A_{parent_level}``, and
    the pieces cover exactly what that partition would have: coarse node 0
    re-enters dimension 0 at ``parent_level`` under a shape floored at
    ``L_0 + 1``, rebuilding only the ``(L_0, parent_level]`` slice.
    """

    levels: tuple[int, ...]
    parent_level: int | None
    partition_names: list[str]
    coarse_names: list[str]


def partition_relation(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    decision: PartitionDecision,
    stats: PartitionStats | None = None,
    name_suffix: str = "",
    parent_level: int | None = None,
) -> Partitioning:
    """One pass over ``relation``: route its rows to partitions sound on
    the decision's members and build the coarse nodes.

    The fact relation spills to ``<relation>.part<i>`` (one dimension) or
    ``.pairpart<i>`` (two), a partition under ``parent_level`` to
    ``<relation>.sub<i>``; the coarse nodes are ``<relation>.coarseN``, or
    ``.coarseN1`` / ``.coarseN2``.  A partition's rows already carry their
    fact row-id, so sub-partitions reuse them verbatim and answers stay
    byte-identical to the unsplit build.

    ``name_suffix`` lets crash-safe builds write to staging names
    (``….part0.wip``) that are atomically published once the pass — and
    its checksums — completed.
    """
    levels = decision.levels
    pair = len(levels) == 2
    local = parent_level is not None
    coarse = {
        f"{relation}.coarseN{i + 1 if pair else ''}{name_suffix}": _coarse_key(
            schema, i, levels[i] + 1
        )
        for i in coarse_nodes(levels, parent_level)
    }
    if local or pair or decision.rows_by_member:
        assignment = _first_fit(
            decision.rows_by_member,
            decision.max_member_rows,
            decision.available_bytes,
            schema.partition_schema.row_size_bytes,
        )
    else:
        # The fact relation without weights to bin by (the ``uniform``
        # strategy, or no rows): one partition per member of A_L.
        n_members = schema.dimensions[0].cardinality(levels[0])
        assignment = {code: code for code in range(n_members)}
    stem = ".sub" if local else ".pairpart" if pair else ".part"
    names = spill_by_key(
        engine, relation, schema, relation + stem, levels, assignment, coarse,
        name_suffix,
    )
    if stats is not None:
        if local:
            stats.repartitioned_partitions += 1
            stats.pair_repartitioned_partitions += pair
            stats.subpartitions_created += len(names)
        else:  # the fact relation was read once and written once
            stats.partitioned = True
            stats.fact_read_passes += 1
            stats.fact_write_passes += 1
            stats.partitions_created = len(names)
    return Partitioning(levels, parent_level, names, list(coarse))


def repartition_partition(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
    stats: PartitionStats | None = None,
) -> Partitioning:
    """Split one over-budget partition, sound on ``A_{parent_level}``.

    Partition-level selection works from *estimates*; when one
    under-provisions — a skewed member under the ``uniform`` strategy, or
    a budget shock at load time — loading that partition raises
    :class:`MemoryBudgetExceeded` even though the build as a whole is
    viable.  Instead of aborting, this re-runs the Section 4 machinery on
    the partition's rows (exact counts, one scan of the partition): a
    finer level of dimension 0 where one fits, else — the skew lives
    inside a single base-level member — a level pair at or below
    ``parent_level``.  Callers recurse on a sub-partition that *still*
    fails to load.
    """
    decision = select_partition_level(
        engine, partition, schema, parent_level=parent_level
    )
    if len(decision.levels) == 1:
        maybe_fire(engine.catalog.faults, f"repartition.single:{partition}")
    else:
        maybe_fire(engine.catalog.faults, f"repartition.pair:{partition}")
    return partition_relation(
        engine, partition, schema, decision, stats, parent_level=parent_level
    )
