"""Task model of the partitioned build: specs, outcomes, and replay.

The plan layer (:mod:`repro.build.plan`) turns a partitioning decision
into an ordered DAG of :class:`TaskSpec`\\ s; the executor layer runs them
(in the driver and in helper processes) and hands back
:class:`TaskOutcome`\\ s; the driver *replays* each outcome — in plan
order — into the real :class:`~repro.core.storage.CubeStorage` and
:class:`~repro.core.signature.SignaturePool`.

The replay discipline is what makes a build byte-identical for every
``workers`` count: a task never classifies anything.  It returns the
**raw event stream** of Figure 13's recursion — trivial-tuple writes
``(node_id, rowid)`` and signature adds ``(node_id, rowid,
aggregates…[, codes…])`` (codes in ``CURE_DR``) — as the two int64
arrays the builder produces, in emission order.  The coordinator owns the one true
signature pool and feeds it the streams in deterministic task order, so
flush windows, NT/CAT classification, and the first-flush format decision
are exactly those of a one-process build, no matter how many processes
produced the streams or in which order they finished.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cure import BuildStats
from repro.core.model import CubeSchema
from repro.core.signature import SignaturePool
from repro.core.storage import CubeStorage

#: Task kinds understood by :func:`repro.build.runtime.execute_task`.
KIND_PARTITION = "partition"  # load a partition file, run_partition(levels)
KIND_COARSE_RUN = "coarse_run"  # load a coarse node, run() under a floor
KIND_COARSE_PARTITION = "coarse_partition"  # coarse node, run_partition(levels)


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of construction work (picklable, immutable).

    ``levels`` are the entry levels of the leading dimensions the
    ``CureBuilder.run_partition`` call takes (empty for ``run()``);
    ``base_floor`` — when set — is the
    ``base_levels`` tuple of the :class:`HierarchicalShape` the task runs
    under (the coarse-phase descent floor).  ``drop_after`` marks
    re-partitioning scaffolding (``.sub<i>``, ``.coarseN*``) the executor
    drops once the task has produced its events.
    """

    task_id: str
    kind: str
    relation: str
    levels: tuple[int, ...] = ()
    base_floor: tuple[int, ...] | None = None
    drop_after: bool = False
    unit: int = 0


@dataclass
class TaskOutcome:
    """What one executed task hands back for ordered replay.

    ``tts`` has shape ``(n, 2)`` — ``(node_id, rowid)`` per trivial tuple,
    in emission order.  ``sigs`` has shape ``(m, 2 + Y)`` — ``(node_id,
    rowid, aggregates…)`` per signature, in emission order; a ``dr_mode``
    plan's carry D code columns more (``CureBuilder``).  ``children``
    is non-empty when the task *expanded* instead of running (its load
    overflowed the budget and adaptive re-partitioning produced child
    tasks); the scheduler splices the children into the unit's order right
    after this outcome.  ``trace`` carries the fault-injector site events
    the process that ran the task fired meanwhile (moved off its
    injector), for deterministic merging into the driver's trace;
    ``peak_bytes`` is the high-water mark of the task's own reservations.
    """

    task: TaskSpec
    tts: np.ndarray
    sigs: np.ndarray
    stats: BuildStats
    children: tuple[TaskSpec, ...] = ()
    trace: tuple[str, ...] = ()
    peak_bytes: int = 0

    @property
    def task_id(self) -> str:
        return self.task.task_id


@dataclass(frozen=True)
class BuildUnit:
    """One checkpointable group of tasks (a manifest partition or a
    coarse phase).  ``tasks`` are the roots; expansions grow the group at
    run time without changing unit boundaries."""

    index: int
    kind: str  # "partition" | "coarse"
    tasks: tuple[TaskSpec, ...]


@dataclass(frozen=True)
class BuildPlan:
    """The deterministic task DAG of one partitioned build."""

    schema: CubeSchema
    min_count: int
    units: tuple[BuildUnit, ...]
    dr_mode: bool = False


@dataclass
class UnitCompletion:
    """All outcomes of one unit, in final (expansion-spliced) order."""

    unit: BuildUnit
    outcomes: tuple[TaskOutcome, ...]


# -- replay --------------------------------------------------------------------


def merge_build_stats(into: BuildStats, delta: BuildStats) -> None:
    """Fold one task's counter deltas into the build-wide stats.

    Addition commutes, and outcomes are applied in deterministic plan
    order, so totals are the same for every ``workers``, field for field.
    Executor-level fields (``tasks_run``/``tasks_stolen``/``workers``)
    and wall-clock time are owned by the driver, ``peak_worker_bytes`` by
    :func:`apply_outcome`, not by per-task deltas.
    """
    into.nodes_aggregated += delta.nodes_aggregated
    into.tt_written += delta.tt_written
    into.signatures_emitted += delta.signatures_emitted
    into.sort.merge(delta.sort)
    into.fact_read_passes += delta.fact_read_passes
    into.fact_write_passes += delta.fact_write_passes
    into.partitions_created += delta.partitions_created
    into.partitioned = into.partitioned or delta.partitioned
    into.repartitioned_partitions += delta.repartitioned_partitions
    into.pair_repartitioned_partitions += delta.pair_repartitioned_partitions
    into.subpartitions_created += delta.subpartitions_created


def apply_outcome(
    outcome: TaskOutcome,
    storage: CubeStorage,
    pool: SignaturePool,
    stats: BuildStats,
    faults: object | None = None,
) -> None:
    """Replay one task's event streams through the real storage and pool.

    The one way events reach a cube: the in-memory build is a single
    task, a partitioned build one per partition file and coarse node.
    TT events and signature adds feed disjoint sinks (per-node TT lists
    vs. the pool), so replaying the two streams back to back writes the
    bytes an interleaved emission would.  A task's injector trace,
    whichever process ran it, is appended to the driver's trace here — at
    the outcome's deterministic position — so a recording run enumerates
    one stable site sequence for any ``workers``.
    """
    trace = getattr(faults, "trace", None)
    if trace is not None and outcome.trace:
        trace.extend(outcome.trace)
    storage.write_tts(outcome.tts)
    pool.add_batch(outcome.sigs)
    merge_build_stats(stats, outcome.stats)
    stats.peak_worker_bytes = max(stats.peak_worker_bytes, outcome.peak_bytes)


__all__ = [
    "KIND_COARSE_PARTITION",
    "KIND_COARSE_RUN",
    "KIND_PARTITION",
    "BuildPlan",
    "BuildUnit",
    "TaskOutcome",
    "TaskSpec",
    "UnitCompletion",
    "apply_outcome",
    "merge_build_stats",
]
