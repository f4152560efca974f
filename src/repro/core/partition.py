"""External partitioning: the pass (``Partition``, Section 4 of the paper).

When the fact table exceeds the memory budget, CURE:

1. selects the **maximum** level ``L`` of the first dimension whose
   sound partitions and whose coarse node ``N = A_{L+1} B_0 C_0 …`` both
   fit in memory (:mod:`repro.core.partition_select`);
2. **partitions** the relation on ``A_L`` in one pass, simultaneously
   building ``N`` (one further pass over R happens later when the
   partitions are loaded — the "2 reads, 1 write" of Section 4);
3. hands the partitions to phase 1 (nodes containing ``A_{≤L}``) and ``N``
   to phase 2 (all remaining nodes).

Members of ``A_L`` are greedily binned into the fewest memory-sized
partitions; soundness only requires that no member is split across
partitions.

The pass is one array routine, :func:`spill_by_key`: level, pair,
repartition and local-pair partitioning differ only in the member key
and the coarse nodes they hand it.  The tuple-at-a-time pass it replaced
is the test oracle ``tests/support/row_partition.py``, and the bytes of
every partition file and coarse node are held to it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.model import CubeSchema
from repro.core.partition_select import (
    PairPartitionDecision,
    PartitionDecision,
    available_bytes_of,
    search_level_decision,
    select_partition_pair_local,
)
from repro.core.segments import (
    GroupFold,
    KeyFunction,
    aggregate_ufuncs,
    rollup_key,
)
from repro.core.workingset import WorkingSet
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
    other dimension at its base level (N, N1: ``dim`` 0; N2: ``dim`` 1)."""
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
    chunk is grouped by bin with one stable ``argsort``, so rows keep
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
        order = np.argsort(bins, kind="stable")
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


def _count_pass(stats: PartitionStats | None, n_bins: int) -> None:
    """The fact relation was read once and written once, into ``n_bins``."""
    if stats is not None:
        stats.partitioned = True
        stats.fact_read_passes += 1
        stats.fact_write_passes += 1
        stats.partitions_created = n_bins


def load_coarse_working_set(
    engine: Engine, name: str, schema: CubeSchema
) -> tuple[WorkingSet, Callable[[], None]]:
    """Load a persisted coarse node into a working set, under a memory
    reservation.  Returns ``(working_set, release_callable)``."""
    loaded = engine.load(name)
    working = WorkingSet.from_coarse_columns(
        schema, loaded.table.as_batch().arrays
    )
    return working, loaded.release


# -- single-level partitioning -------------------------------------------------------


def _spill_on_level(
    engine: Engine,
    source: str,
    schema: CubeSchema,
    decision: PartitionDecision,
    stem: str,
    uniform: bool = False,
    name_suffix: str = "",
) -> tuple[list[str], str]:
    """Spill ``source`` into ``A_L``-sound bins — first-fit, or one per
    member under ``uniform`` — and fold the coarse node ``A_{L+1} B_0 C_0
    …`` into ``<source>.coarseN``."""
    if uniform:
        n_members = schema.dimensions[0].cardinality(decision.level)
        assignment = {code: code for code in range(n_members)}
    else:
        assignment = _first_fit(
            decision.member_rows,
            decision.max_member_rows,
            decision.available_bytes,
            schema.partition_schema.row_size_bytes,
        )
    coarse_name = f"{source}.coarseN{name_suffix}"
    names = spill_by_key(
        engine, source, schema, stem, (decision.level,), assignment,
        {coarse_name: _coarse_key(schema, 0, decision.level + 1)},
        name_suffix,
    )
    return names, coarse_name


def partition_relation(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    decision: PartitionDecision,
    stats: PartitionStats | None = None,
    name_suffix: str = "",
) -> tuple[list[str], str]:
    """One pass: route tuples to partitions and build the coarse node.

    Returns the created partition relation names and the name of the
    persisted coarse node ``N`` (``<relation>.coarseN``).

    ``name_suffix`` lets crash-safe builds write to staging names
    (``….part0.tmp``) that are atomically published once the pass — and
    its checksums — completed.
    """
    names, coarse_name = _spill_on_level(
        engine, relation, schema, decision, f"{relation}.part",
        uniform=not decision.member_rows, name_suffix=name_suffix,
    )
    _count_pass(stats, len(names))
    return names, coarse_name


# -- adaptive re-partitioning: recover from an under-provisioning estimate ------------


@dataclass
class Repartition:
    """Outcome of adaptively splitting one over-budget partition.

    ``level`` is the finer level L'' the sub-partitions are sound on.  The
    local coarse node aggregates dimension 0 at A_{L''+1}; running it
    through ``run_partition(·, parent_level)`` under a shape floored at
    L''+1 rebuilds exactly the parent's [L''+1, L] slice of the lattice,
    so together the pieces cover precisely what the parent partition
    would have covered.
    """

    level: int
    parent_level: int
    partition_names: list[str]
    coarse_name: str
    n_rows: int


def repartition_partition(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
    stats: PartitionStats | None = None,
) -> Repartition | PairRepartition:
    """Split one over-budget partition at a finer level of dimension 0.

    Partition-level selection works from *estimates*; when one
    under-provisions — a skewed member under the ``uniform`` strategy, or
    a budget shock at load time — loading that partition raises
    :class:`MemoryBudgetExceeded` even though the build as a whole is
    viable.  Instead of aborting, this re-runs the Section 4 machinery
    locally: pick the maximum ``L'' < parent_level`` whose members (exact
    counts, one scan of the partition) and local coarse node both fit the
    remaining budget, route the partition's rows into sound
    sub-partitions (``<partition>.sub<i>``), and persist a local coarse
    node at ``A_{L''+1}`` (``<partition>.coarseN``; ``L''+1 ≤
    parent_level``, so it never projects dimension 0 out).  Callers
    recurse on a sub-partition that *still* fails to load.

    When no finer level of dimension 0 exists or helps — the skew lives
    inside a single base-level member — the paper's pair extension is
    applied *locally*: a level pair ``(A_L0, B_M)`` sound for just this
    partition's rows is selected (:func:`select_partition_pair_local`)
    and the partition is split on member pairs instead
    (:func:`repartition_relation_pair`), returning a
    :class:`PairRepartition`.
    """
    available = available_bytes_of(engine, "repartition_partition")
    decision = search_level_decision(
        engine, partition, schema, available, parent_level - 1, "exact"
    )
    if decision is None:
        pair_decision = select_partition_pair_local(
            engine, partition, schema, parent_level
        )
        maybe_fire(engine.catalog.faults, f"repartition.pair:{partition}")
        return repartition_relation_pair(
            engine, partition, schema, parent_level, pair_decision, stats
        )
    maybe_fire(engine.catalog.faults, f"repartition.single:{partition}")
    names, coarse_name = _spill_on_level(
        engine, partition, schema, decision, f"{partition}.sub"
    )
    if stats is not None:
        stats.repartitioned_partitions += 1
        stats.subpartitions_created += len(names)
    return Repartition(
        level=decision.level,
        parent_level=parent_level,
        partition_names=names,
        coarse_name=coarse_name,
        n_rows=len(engine.relation(partition)),
    )


# -- pair partitioning: the extension Section 4 mentions but omits --------------------


def _spill_on_pair(
    engine: Engine,
    source: str,
    schema: CubeSchema,
    decision: PairPartitionDecision,
    stem: str,
    build_n1: bool = True,
    name_suffix: str = "",
) -> tuple[list[str], list[str]]:
    """Spill ``source`` into (A_L, B_M)-sound bins and fold ``N1 = A_{L+1}
    B_0 C_0 …`` (unless waived) and ``N2 = A_0 B_{M+1} C_0 …`` into
    ``<source>.coarseN1`` / ``.coarseN2``.  Returns the bin names and the
    coarse names."""
    levels = (decision.level0, decision.level1)
    coarse = {
        f"{source}.coarseN{dim + 1}{name_suffix}": _coarse_key(
            schema, dim, level + 1
        )
        for dim, level in enumerate(levels)
        if dim or build_n1
    }
    assignment = _first_fit(
        decision.pair_rows,
        decision.max_pair_rows,
        decision.available_bytes,
        schema.partition_schema.row_size_bytes,
    )
    names = spill_by_key(
        engine, source, schema, stem, levels, assignment, coarse, name_suffix
    )
    return names, list(coarse)


def partition_relation_pair(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    decision: PairPartitionDecision,
    stats: PartitionStats | None = None,
    name_suffix: str = "",
) -> tuple[list[str], str, str]:
    """One pass: route tuples by (A_L, B_M) pair and build N1 and N2.

    Returns partition names plus the names of the two persisted coarse
    nodes (``<relation>.coarseN1`` / ``.coarseN2``).  ``name_suffix``
    lets crash-safe builds write to staging names that are atomically
    published once the pass completes (see :func:`partition_relation`).
    """
    names, (name1, name2) = _spill_on_pair(
        engine, relation, schema, decision, f"{relation}.pairpart",
        name_suffix=name_suffix,
    )
    _count_pass(stats, len(names))
    return names, name1, name2


# -- local pair re-partitioning: the pair extension scoped to one partition -----------


@dataclass
class PairRepartition:
    """Outcome of pair-splitting one over-budget partition.

    Produced when the partition's skew lives entirely inside a single
    base-level member of dimension 0, so no finer single level can split
    it.  The three regions of :class:`PairPartitionDecision` apply
    locally:

    - the ``.sub<i>`` partitions are sound on ``(A_L0, B_M)`` pairs and
      build every node with both leading dimensions at levels ≤ (L0, M);
    - ``coarse1_name`` (local N1, ``A_{L0+1} B_0 C_0 …``) patches nodes
      with dimension 0 in ``(L0, parent_level]`` — it is ``None`` when
      ``level0 == parent_level``, where that slice is empty;
    - ``coarse2_name`` (local N2, ``A_0 B_{M+1} C_0 …``) patches nodes
      keeping dimension 0 ≤ L0 but dimension 1 above M (or absent).

    Together the pieces cover exactly what the parent partition — sound
    on ``A_{parent_level}`` — would have covered.
    """

    level0: int
    level1: int
    parent_level: int
    partition_names: list[str]
    coarse1_name: str | None
    coarse2_name: str
    n_rows: int


def repartition_relation_pair(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
    decision: PairPartitionDecision,
    stats: PartitionStats | None = None,
) -> PairRepartition:
    """One pass over the partition: route rows by (A_L0, B_M) pair and
    build the local coarse nodes.

    The partition's rows already carry their fact row-id in the trailing
    column (``partition_schema``), so sub-partitions reuse the rows
    verbatim and the coarse folds read the stored row-id instead of
    re-enumerating — answers stay byte-identical to the unsplit build.

    Local N1 patches the (L0, parent_level] slice of dimension 0; when
    ``level0 == parent_level`` that slice is empty (the pair partitions
    already cover ``A_{parent_level}``) and building N1 would
    double-count.
    """
    build_n1 = decision.level0 < parent_level
    names, coarse_names = _spill_on_pair(
        engine, partition, schema, decision, f"{partition}.sub", build_n1
    )
    if stats is not None:
        stats.repartitioned_partitions += 1
        stats.pair_repartitioned_partitions += 1
        stats.subpartitions_created += len(names)
    return PairRepartition(
        level0=decision.level0,
        level1=decision.level1,
        parent_level=parent_level,
        partition_names=names,
        coarse1_name=coarse_names[0] if build_n1 else None,
        coarse2_name=coarse_names[-1],
        n_rows=len(engine.relation(partition)),
    )
