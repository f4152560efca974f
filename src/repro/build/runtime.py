"""Task interpreter: run one :class:`TaskSpec` against an engine.

:func:`execute_task` is the single implementation both executors share —
the sequential executor calls it in the driver process against the build
engine, worker processes call it against their own engine over the same
catalog directory (``use_mapped=True`` swaps full in-memory loads for
read-only ``np.memmap`` views of the shared partition files).

Every code path here is a *pure producer*: it loads a relation, runs the
builder over it, and returns the raw event streams.  The
one stateful branch — an over-budget partition — does mutate the catalog
(adaptive re-partitioning writes ``.sub<i>``/``.coarseN*`` scaffolding),
but deterministically: the split decision depends only on the partition's
rows and the engine's free budget, both of which are identical across
executors, so any executor expands a given task into the same children.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.build.plan import expansion_children
from repro.build.tasks import (
    KIND_COARSE_PARTITION,
    KIND_COARSE_RUN,
    KIND_PARTITION,
    TaskOutcome,
    TaskSpec,
)
from repro.core.cure import BuildStats, CureBuilder, HierarchicalShape
from repro.core.model import CubeSchema
from repro.core.partition import load_coarse_working_set, repartition_partition
from repro.core.workingset import WorkingSet
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded


def _load_partition(
    engine: Engine, name: str, schema: CubeSchema, use_mapped: bool
) -> tuple[WorkingSet, Callable[[], None]]:
    """Load a partition file under its memory reservation.

    Both paths fire the same ``memory.reserve:load(<name>)`` and
    ``heap.read:<file>`` sites and reserve the same byte count, so fault
    traces and budget decisions cannot tell them apart.
    """
    if use_mapped:
        mapped = engine.load_mapped(name)
        working = WorkingSet.from_partition_array(schema, mapped.records)
        return working, mapped.release
    loaded = engine.load(name)
    working = WorkingSet.from_partition_table(schema, loaded.table)
    return working, loaded.release


def _load_coarse(
    engine: Engine, name: str, schema: CubeSchema, use_mapped: bool
) -> tuple[WorkingSet, Callable[[], None]]:
    """Load a persisted coarse node (same site/budget parity as above)."""
    if use_mapped:
        mapped = engine.load_mapped(name)
        working = WorkingSet.from_coarse_array(schema, mapped.records)
        return working, mapped.release
    return load_coarse_working_set(engine, name, schema)


def execute_task(
    engine: Engine,
    schema: CubeSchema,
    task: TaskSpec,
    min_count: int,
    dr_mode: bool = False,
    use_mapped: bool = False,
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
    shape = HierarchicalShape(schema, task.base_floor)
    builder = CureBuilder(schema, shape, min_count, stats, dr_mode)
    if task.kind == KIND_PARTITION:
        try:
            working, release = _load_partition(
                engine, task.relation, schema, use_mapped
            )
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
    elif task.kind in (KIND_COARSE_RUN, KIND_COARSE_PARTITION):
        working, release = _load_coarse(
            engine, task.relation, schema, use_mapped
        )
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")

    try:
        if task.kind == KIND_COARSE_RUN:
            tts, sigs = builder.run(working)
        else:
            tts, sigs = builder.run_partition(working, task.levels)
    finally:
        release()
    return TaskOutcome(task, tts, sigs, stats)


__all__ = ["execute_task"]
