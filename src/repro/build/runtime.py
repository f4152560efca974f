"""Task interpreter: run one :class:`TaskSpec` against an engine.

:func:`execute_task` is the single implementation every process runs —
the driver against the build engine, helper processes against their own
engine over the same catalog directory.  Either way a partition or
coarse node is loaded as a read-only ``np.memmap`` view of the shared
file (:meth:`Engine.load`).

Every code path here is a *pure producer*: it loads a relation, runs the
builder over it, and returns the raw event streams.  The
one stateful branch — an over-budget partition — does mutate the catalog
(adaptive re-partitioning writes ``.sub<i>``/``.coarseN*`` scaffolding),
but deterministically: the split decision depends only on the partition's
rows and the engine's free budget, both of which are identical in every
process, so any process expands a given task into the same children.
"""

from __future__ import annotations

from repro.build.plan import expansion_children
from repro.build.tasks import (
    KIND_COARSE_PARTITION,
    KIND_COARSE_RUN,
    KIND_PARTITION,
    TaskOutcome,
    TaskSpec,
)
from repro.core.cure import BuildStats, CureBuilder
from repro.core.model import CubeSchema
from repro.core.partition import repartition_partition
from repro.core.workingset import WorkingSet
from repro.lattice.plan import HierarchicalShape
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded


def execute_task(
    engine: Engine,
    schema: CubeSchema,
    task: TaskSpec,
    min_count: int,
    dr_mode: bool = False,
) -> TaskOutcome:
    """Run one task to completion (or expansion) and capture its events.

    A ``partition`` task sound on one dimension whose load overflows the
    budget does not fail: it re-partitions adaptively and returns an
    event-free outcome whose ``children`` the scheduler splices in its
    place.  Every other load was sized by a terminal selection — overflow
    means the build cannot proceed — and propagates
    :class:`MemoryBudgetExceeded`.
    """
    stats = BuildStats()
    shape = HierarchicalShape(schema.lattice, task.base_floor)
    builder = CureBuilder(schema, shape, min_count, stats, dr_mode)
    if task.kind == KIND_PARTITION:
        try:
            loaded = engine.load(task.relation)
        except MemoryBudgetExceeded:
            if len(task.levels) != 1:
                raise
            split = repartition_partition(
                engine, task.relation, schema, task.levels[0], stats=stats
            )
            # The expansion itself emits no events.
            tts, sigs = builder.run(WorkingSet.empty(schema))
            children = expansion_children(task, split, schema.n_dimensions)
            return TaskOutcome(task, tts, sigs, stats, children)
        working = WorkingSet.from_records(schema, loaded.records)
    elif task.kind in (KIND_COARSE_RUN, KIND_COARSE_PARTITION):
        loaded = engine.load(task.relation)
        working = WorkingSet.from_coarse(schema, loaded.records)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")

    try:
        if task.kind == KIND_COARSE_RUN:
            tts, sigs = builder.run(working)
        else:
            tts, sigs = builder.run_partition(working, task.levels)
    finally:
        loaded.release()
    return TaskOutcome(task, tts, sigs, stats)


__all__ = ["execute_task"]
