"""Analytic partitioning model behind Table 1 of the paper.

Table 1 demonstrates, on the SALES example (Product organized as
barcode → brand → economic_strength with cardinalities 10,000 → 1,000 → 10
and a 1 GB memory), that CURE can partition fact tables of 10 GB, 100 GB
and 1 TB.  The computation is purely arithmetic — observation 2's size
estimate plus the feasibility constraints of Section 4 — so the
reproduction implements it as an explicit model that both the Table 1
benchmark and the partitioning unit tests exercise against
:func:`repro.core.partition_select.select_partition_level`'s behaviour.

All quantities assume the paper's uniform-distribution reading: partitions
at level ``L`` weigh ``|R| / |A_L|`` and the coarse node ``N`` weighs
``|R| · |A_{L+1}| / |A_0|``.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 10**9  # Table 1 uses decimal units (1 TB / 1 GB = 1,000 partitions)


@dataclass(frozen=True)
class PartitioningRow:
    """One row of Table 1."""

    relation_bytes: int
    level: int
    level_name: str
    n_partitions: int
    partition_bytes: int
    shrink_factor: int  # the paper's |A0| / |A_{L+1}| column
    coarse_bytes: int


def plan_partitioning(
    relation_bytes: int,
    memory_bytes: int,
    level_names: tuple[str, ...],
    cardinalities: tuple[int, ...],
) -> PartitioningRow:
    """Pick the maximum feasible level ``L`` under uniform distribution.

    ``cardinalities[i]`` is the member count of level ``i`` (0 = base).
    Raises ``ValueError`` when no level works (the case where the paper
    would fall back to partitioning on dimension pairs).
    """
    if len(level_names) != len(cardinalities):
        raise ValueError("one name per level is required")
    if relation_bytes <= memory_bytes:
        raise ValueError("the relation already fits in memory")
    base_cardinality = cardinalities[0]
    n_levels = len(cardinalities)
    # Memory-sized bins that can hold |R|; sound partitioning cannot create
    # more partitions than the level has members, and under the uniform
    # assumption that same condition makes each member fit in memory.
    partitions_needed = -(-relation_bytes // memory_bytes)
    for level in range(n_levels - 1, -1, -1):
        upper_cardinality = (
            1 if level + 1 == n_levels else cardinalities[level + 1]
        )
        shrink = base_cardinality // upper_cardinality
        coarse_bytes = -(-relation_bytes // shrink)
        partitions_fit = partitions_needed <= cardinalities[level]
        if partitions_fit and coarse_bytes <= memory_bytes:
            return PartitioningRow(
                relation_bytes=relation_bytes,
                level=level,
                level_name=level_names[level],
                n_partitions=partitions_needed,
                partition_bytes=memory_bytes,
                shrink_factor=shrink,
                coarse_bytes=coarse_bytes,
            )
    raise ValueError(
        "no single-dimension level yields memory-sized sound partitions"
    )


def table1_rows(
    memory_bytes: int = GB,
    relation_sizes: tuple[int, ...] = (10 * GB, 100 * GB, 1000 * GB),
    level_names: tuple[str, ...] = ("barcode", "brand", "economic_strength"),
    cardinalities: tuple[int, ...] = (10_000, 1_000, 10),
) -> list[PartitioningRow]:
    """The three rows of Table 1 with the paper's SALES parameters."""
    return [
        plan_partitioning(size, memory_bytes, level_names, cardinalities)
        for size in relation_sizes
    ]
