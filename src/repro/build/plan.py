"""Plan layer: a partitioning → an explicit, deterministic task DAG.

A :class:`~repro.core.partition.Partitioning` becomes one ``partition``
task per partition file — sound on its ``levels``, building the nodes
with the leading dimensions at those levels or below — then one coarse
task per coarse node ``i``, under a shape whose descent on dimension ``i``
stops at ``L_i + 1`` (Section 4, observation 3):

* :func:`partition_plan` — the fact relation's partitioning: every task
  is a unit of its own, partitions first;
* :func:`expansion_children` — a partitioning of one over-budget
  partition (adaptive re-partitioning as a pure producer): the same
  tasks, as scaffolding spliced into the parent task's unit.

Task ids are ``u<unit>:<relation>``; relations are unique per build, so
ids are stable, readable, and usable as fault-injection site details
(``build.worker:u0:fact.part0``).
"""

from __future__ import annotations

from repro.build.tasks import (
    KIND_COARSE_PARTITION,
    KIND_COARSE_RUN,
    KIND_PARTITION,
    BuildPlan,
    BuildUnit,
    TaskSpec,
)
from repro.core.model import CubeSchema
from repro.core.partition import Partitioning
from repro.core.partition_select import coarse_nodes


def _tasks(
    split: Partitioning, n_dimensions: int, unit: int | None
) -> list[TaskSpec]:
    """The tasks of one partitioning, partitions first.

    Coarse node ``i`` enters the dimensions before ``i`` at the split's
    levels — node 0 enters nothing (``run()``), or dimension 0 at the
    ``parent_level`` whose slice it patches.  ``unit`` is the unit all
    tasks join as scaffolding (``drop_after``); ``None`` gives each task
    the unit of its position.
    """
    levels = split.levels
    tasks: list[TaskSpec] = []

    def add(kind, name, entry, floor=None) -> None:
        index = len(tasks) if unit is None else unit
        tasks.append(
            TaskSpec(
                f"u{index}:{name}",
                kind,
                name,
                levels=entry,
                base_floor=floor,
                drop_after=unit is not None,
                unit=index,
            )
        )

    for name in split.partition_names:
        add(KIND_PARTITION, name, levels)
    nodes = coarse_nodes(levels, split.parent_level)
    for i, name in zip(nodes, split.coarse_names):
        entry = levels[:i]
        if i == 0 and split.parent_level is not None:
            entry = (split.parent_level,)
        floor = [0] * n_dimensions
        floor[i] = levels[i] + 1
        kind = KIND_COARSE_PARTITION if entry else KIND_COARSE_RUN
        add(kind, name, entry, tuple(floor))
    return tasks


def partition_plan(
    schema: CubeSchema, min_count: int, partitioning: Partitioning, dr_mode: bool = False
) -> BuildPlan:
    """The Section 4 pipeline as a plan: phase 1, one unit per partition,
    then phase 2, one unit per coarse node.  The coarse units share one
    flush window — the driver flushes after the last unit only."""
    units = tuple(
        BuildUnit(
            task.unit,
            "partition" if task.kind == KIND_PARTITION else "coarse",
            (task,),
        )
        for task in _tasks(partitioning, schema.n_dimensions, None)
    )
    return BuildPlan(schema, min_count, units, dr_mode)


def expansion_children(
    parent: TaskSpec, split: Partitioning, n_dimensions: int
) -> tuple[TaskSpec, ...]:
    """Child tasks of an adaptively re-partitioned partition task: the
    sub-partitions (recursively expandable when split on one dimension)
    and the local coarse nodes.  All are scaffolding, torn down once
    processed."""
    return tuple(_tasks(split, n_dimensions, parent.unit))


__all__ = ["expansion_children", "partition_plan"]
