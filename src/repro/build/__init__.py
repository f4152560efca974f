"""The build pipeline: plan → schedule/execute → replay (see
``docs/architecture.md``, "Build pipeline").

Three layers, importable independently:

* :mod:`repro.build.plan` — a partitioning becomes a deterministic task
  DAG (:func:`partition_plan`, :func:`expansion_children`);
* :mod:`repro.build.executor` / :mod:`repro.build.parallel` — the
  pluggable :class:`BuildExecutor` protocol with the inline
  :class:`SequentialExecutor` and the work-stealing
  :class:`ProcessPoolExecutor`;
* :mod:`repro.build.tasks` — the task/outcome model and the ordered
  replay (:func:`apply_outcome`) that keeps every executor byte-identical.

The driver (``repro.core.cure.build_partitioned``, which ``build_cube``
runs as is and ``repro.core.recovery.DurableCubeBuild`` with its journal
steps) owns the signature pool, the storage, the flush at every
partition barrier, and checkpoints; executors only produce ordered
:class:`UnitCompletion` events.
"""

from __future__ import annotations

from repro.build.executor import (
    BuildExecutor,
    ExecutorStats,
    SequentialExecutor,
    make_executor,
)
from repro.build.parallel import ProcessPoolExecutor, WorkerCrashed
from repro.build.plan import expansion_children, partition_plan
from repro.build.tasks import (
    BuildPlan,
    BuildUnit,
    TaskOutcome,
    TaskSpec,
    UnitCompletion,
    apply_outcome,
)

__all__ = [
    "BuildExecutor",
    "BuildPlan",
    "BuildUnit",
    "ExecutorStats",
    "ProcessPoolExecutor",
    "SequentialExecutor",
    "TaskOutcome",
    "TaskSpec",
    "UnitCompletion",
    "WorkerCrashed",
    "apply_outcome",
    "expansion_children",
    "make_executor",
    "partition_plan",
]
