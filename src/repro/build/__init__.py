"""The build pipeline: plan → schedule/execute → replay (see
``docs/architecture.md``, "Build pipeline").

Three layers, importable independently:

* :mod:`repro.build.plan` — a partitioning becomes a deterministic task
  DAG (:func:`partition_plan`, :func:`expansion_children`);
* :mod:`repro.build.parallel` — the one executor,
  :class:`ProcessPoolExecutor`: the driver runs tasks itself, beside
  ``workers − 1`` work-stealing helper processes;
* :mod:`repro.build.tasks` — the task/outcome model and the ordered
  replay (:func:`apply_outcome`) that keeps every ``workers`` count
  byte-identical.

The driver (``repro.core.cure.build_partitioned``, which ``build_cube``
runs as is and ``repro.core.recovery.DurableCubeBuild`` with its journal
steps) owns the signature pool, the storage, the flush at every
partition barrier, and checkpoints; the executor only produces ordered
:class:`UnitCompletion` events.
"""

from __future__ import annotations

from repro.build.parallel import (
    ExecutorStats,
    ProcessPoolExecutor,
    WorkerCrashed,
    check_workers,
)
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
    "BuildPlan",
    "BuildUnit",
    "ExecutorStats",
    "ProcessPoolExecutor",
    "TaskOutcome",
    "TaskSpec",
    "UnitCompletion",
    "WorkerCrashed",
    "apply_outcome",
    "check_workers",
    "expansion_children",
    "partition_plan",
]
