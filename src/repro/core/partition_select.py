"""Partition-level selection (``SelectPartitionLevel``, Section 4).

A partitioning is described by the levels ``(L_0, …, L_{k-1})`` of the
``k`` leading dimensions, ``k`` ∈ {1, 2}, plus — when it splits one
partition of an earlier partitioning instead of the whole relation — the
``parent_level`` of dimension 0 that partition is already sound on:

* the partitions are sound on the member tuple ``(A_{L_0}, B_{L_1})`` — a
  tuple's rows are never split — and build every node with all ``k``
  dimensions present at levels ≤ ``L_i``;
* coarse node ``i`` keeps the dimensions before ``i`` at base, rolls
  dimension ``i`` up to ``L_i + 1`` and covers "dimension ``i`` above
  ``L_i`` or absent".  ``k = 1`` is the paper's ``N = A_{L+1} B_0 C_0 …``;
  ``k = 2`` adds ``N2 = A_0 B_{M+1} C_0 …``, the extension Section 4
  mentions but omits.  Under a ``parent_level`` node 0 only reaches up to
  ``A_{parent_level}``, and when ``L_0 == parent_level`` that slice is
  empty: the node is not built (:func:`coarse_nodes`).

CURE wants the **maximum** levels such that (a) the heaviest member tuple
fits in memory — a member cannot be split — and (b) every coarse node
fits (estimated, observation 2).  One dimension is tried first, then two.

Selection needs the per-member weights of each candidate.  A real ROLAP
engine reads them from its statistics catalog; this substrate offers an
``exact`` strategy (one counting scan, the default) and, for ``k = 1``, a
``uniform`` strategy that trusts ``|R| / |A_L|`` the way the paper's
examples do.  Nothing here writes: the pass that acts on a decision is
:mod:`repro.core.partition`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import GroupFold, rollup_key
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded


@dataclass
class PartitionDecision:
    """The outcome of partition-level selection.

    ``rows_by_member`` maps each member — a code of ``A_{L_0}`` for one
    dimension, a code pair for two — to its row count, in the order the
    counting scan produced them (first-fit binning breaks ties by it);
    it is empty under the ``uniform`` strategy.  ``estimated_coarse_rows``
    has one entry per dimension, 0 for a coarse node that is not built.
    """

    levels: tuple[int, ...]
    max_member_rows: int
    estimated_coarse_rows: tuple[int, ...]
    available_bytes: int
    strategy: str = "exact"
    rows_by_member: dict = field(default_factory=dict, repr=False)


def coarse_nodes(levels: tuple[int, ...], parent_level: int | None = None) -> range:
    """The indices ``i`` of the coarse nodes a partitioning builds: all
    ``k``, less node 0 where a partition sound on ``A_{parent_level}`` is
    split at that same level (nothing of dimension 0 lies in between, and
    building the node would double-count)."""
    return range(int(levels[0] == parent_level), len(levels))


def _working_set_row_bytes(schema: CubeSchema) -> int:
    return 4 * schema.n_dimensions + 8 * (schema.n_aggregates + 2)


def select_partition_level(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    strategy: str = "exact",
    parent_level: int | None = None,
) -> PartitionDecision:
    """Choose the maximum workable level of the first dimension — or,
    where none works, level pair of the first two.

    With a ``parent_level``, ``relation`` is one over-budget partition
    sound on ``A_{parent_level}`` and the search stays at or below it.
    Every failure is terminal for the build and names the remaining knobs.
    """
    dimension = schema.dimensions[0]
    if not dimension.is_linear:
        raise ValueError(
            "partitioning descends the first dimension's chain; order a "
            "linear-hierarchy dimension first"
        )
    if strategy not in ("exact", "uniform"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    decision = search_partition_levels(
        engine, relation, schema, 1, strategy, parent_level
    )
    if decision is not None:
        return decision
    if parent_level is None:
        problem = (
            f"relation {relation!r} exceeds the memory budget and no level "
            f"of dimension {dimension.name!r} yields memory-sized sound "
            f"partitions with a coarse node that fits"
        )
    else:
        problem = (
            f"partition {relation!r} exceeds the memory budget and no finer "
            f"level of dimension {dimension.name!r} can split it"
        )
    if schema.n_dimensions < 2:
        raise MemoryBudgetExceeded(
            f"{problem}; the cube has a single dimension, so partitioning "
            f"on member pairs does not apply; raise the memory budget "
            f"(MemoryManager(budget_bytes))"
        )
    second = schema.dimensions[1]
    if not second.is_linear:
        raise MemoryBudgetExceeded(
            f"{problem}; partitioning on member pairs needs a linear "
            f"hierarchy on dimension {second.name!r}; reorder "
            f"linear-hierarchy dimensions first or raise the memory budget "
            f"(MemoryManager(budget_bytes))"
        )
    decision = search_partition_levels(
        engine, relation, schema, 2, parent_level=parent_level
    )
    if decision is None:
        raise MemoryBudgetExceeded(
            f"{problem}, and no level pair (A_L, B_M) of the two leading "
            f"dimensions yields memory-sized sound partitions with coarse "
            f"nodes that fit; raise the memory budget "
            f"(MemoryManager(budget_bytes)) or reorder dimensions by "
            f"decreasing cardinality"
        )
    return decision


def search_partition_levels(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    k: int,
    strategy: str = "exact",
    parent_level: int | None = None,
) -> PartitionDecision | None:
    """The highest levels of the ``k`` leading dimensions (dimension 0
    outermost) whose heaviest member and whose coarse nodes each fit the
    engine's free bytes, or ``None``."""
    available = engine.memory.free_bytes
    if available is None:
        raise ValueError("partition selection needs a bounded memory budget")
    heap = engine.relation(relation)
    total_rows = len(heap)
    partition_row_bytes = schema.partition_schema.row_size_bytes
    ws_row_bytes = _working_set_row_bytes(schema)
    tops = [dimension.n_levels - 1 for dimension in schema.dimensions[:k]]
    if parent_level is not None:
        # The partition is already sound on A_parent_level: one dimension
        # has to go finer to split it, two may stay there.
        tops[0] = parent_level - (k == 1)
    weigh = _member_weights(heap, schema, k, strategy)
    for levels in product(*(range(top, -1, -1) for top in tops)):
        coarse_rows = [0] * k
        for i in coarse_nodes(levels, parent_level):
            coarse_rows[i] = estimate_coarse_rows(
                schema, i, levels[i], total_rows
            )
        if max(coarse_rows) * ws_row_bytes > available:
            continue
        rows_by_member, heaviest = weigh(levels)
        if heaviest * partition_row_bytes <= available:
            return PartitionDecision(
                levels=levels,
                max_member_rows=heaviest,
                estimated_coarse_rows=tuple(coarse_rows),
                available_bytes=available,
                strategy=strategy,
                rows_by_member=rows_by_member,
            )
    return None


def estimate_coarse_rows(
    schema: CubeSchema, dim: int, level: int, total_rows: int
) -> int:
    """Expected row count of coarse node ``dim`` of a partitioning at
    ``level`` of that dimension: it groups by ``level + 1`` there and by
    the base level of every other dimension.

    The paper estimates ``|N| ≈ |R| · |A_{L+1}| / |A_0|``, which assumes
    the fact table is dense in the first dimension.  This estimator uses
    the uniform balls-in-bins expectation over the ``K`` possible grouping
    combinations — ``E[distinct] = K · (1 - (1 - 1/K)^T)`` — which reduces
    to the paper's intuition when ``T ≫ K`` (the node shrinks toward ``K``
    rows) and correctly predicts ``N ≈ R`` on sparse data, where
    partitioning cannot help and a lower level (or a bigger budget) is
    needed.
    """
    combinations = 1
    for d, dimension in enumerate(schema.dimensions):
        if d == dim:
            if level + 1 == dimension.all_level:
                continue  # projected out
            combinations *= dimension.cardinality(level + 1)
        else:
            combinations *= dimension.base_cardinality
    if combinations <= 1:
        return 1
    expected = -combinations * np.expm1(
        total_rows * np.log1p(-1.0 / combinations)
    )
    return int(min(total_rows, np.ceil(expected)))


# -- member weights: the counting scans ----------------------------------------------


def _member_weights(
    heap, schema: CubeSchema, k: int, strategy: str
) -> Callable[[tuple[int, ...]], tuple[dict, int]]:
    """Levels → (rows per member, heaviest member's rows), from one
    counting scan of ``heap`` taken here — or none: ``uniform``."""
    if strategy == "uniform":
        total_rows, dimension = len(heap), schema.dimensions[0]
        return lambda levels: (
            {},
            -(-total_rows // dimension.cardinality(levels[0])),
        )
    if k == 1:
        per_level = _exact_member_rows(heap, schema)

        def members(levels: tuple[int, ...]) -> tuple[dict, int]:
            counts = per_level[levels[0]]
            present = np.flatnonzero(counts)
            return (
                dict(zip(present.tolist(), counts[present].tolist())),
                int(counts.max()) if counts.size else 0,
            )

        return members
    base_pairs = _exact_pair_counts(heap, schema)
    dim0, dim1 = schema.dimensions[:2]

    def pairs(levels: tuple[int, ...]) -> tuple[dict, int]:
        counted = _pair_counter(schema, *levels).fold(base_pairs)
        codes0 = dim0.level_maps[levels[0]][counted[:, 0]].tolist()
        codes1 = dim1.level_maps[levels[1]][counted[:, 1]].tolist()
        return (
            dict(zip(zip(codes0, codes1), counted[:, 2].tolist())),
            int(counted[:, 2].max()) if len(counted) else 0,
        )

    return pairs


def _exact_member_rows(heap, schema: CubeSchema) -> list[np.ndarray]:
    """One counting scan: per-member row counts at every level of dim 0."""
    dimension = schema.dimensions[0]
    base_counts = np.zeros(dimension.base_cardinality, dtype=np.int64)
    for batch in heap.scan_batches():
        base_counts += np.bincount(
            batch.arrays[0], minlength=len(base_counts)
        )
    per_level = [base_counts]
    for level in range(1, dimension.n_levels):
        counts = np.zeros(dimension.cardinality(level), dtype=np.int64)
        np.add.at(counts, dimension.level_maps[level], base_counts)
        per_level.append(counts)
    return per_level


def _pair_counter(schema: CubeSchema, level0: int, level1: int) -> GroupFold:
    """Rows ``(A_0 code, B_0 code, row count)`` grouped per (A_level0,
    B_level1) member pair: each group under its first contributor's base
    codes, groups in first-appearance order (the order first-fit binning
    breaks ties in)."""
    key_of = rollup_key(schema.dimensions[:2], (level0, level1))
    return GroupFold(key_of, 3, (np.add,))


def _exact_pair_counts(heap, schema: CubeSchema) -> np.ndarray:
    """One counting scan: the distinct base pairs of the two leading
    dimensions with their row counts."""
    counter = _pair_counter(schema, 0, 0)
    for batch in heap.scan_batches():
        rows = np.ones((batch.length, 3), dtype=np.int64)
        rows[:, 0] = batch.arrays[0]
        rows[:, 1] = batch.arrays[1]
        counter.add(rows)
    return counter.result()
