"""Executor layer: who runs the plan's tasks, and in what process.

The :class:`BuildExecutor` protocol is deliberately tiny — ``run(plan,
on_unit, start_unit)`` — so the driver (``build_partitioned``, for
``build_cube`` and ``DurableCubeBuild`` alike) stays executor-agnostic:
it receives :class:`~repro.build.tasks.UnitCompletion` events in unit
order, replays outcomes, flushes the signature pool at every partition
barrier, and lets a durable build checkpoint there (one cube-only v2
container per barrier).
Nothing an executor does between completions can change the bytes of the
cube, because the pool and the storage live with the driver.

:class:`SequentialExecutor` runs tasks inline on the driver's engine,
depth-first through expansions.
:class:`~repro.build.parallel.ProcessPoolExecutor` (in its own module)
fans tasks out to worker processes.

Both fire the ``build.worker:<task_id>`` site before a task and
``build.worker:<task_id>.publish`` after it, so the crash-sweep suites
can kill a build — or a worker process — at every task boundary.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol

from repro.build.runtime import execute_task
from repro.build.tasks import BuildPlan, TaskOutcome, UnitCompletion
from repro.relational.durable import maybe_fire
from repro.relational.engine import Engine


@dataclass
class ExecutorStats:
    """What an executor did, surfaced through ``BuildStats`` and the CLI."""

    tasks_run: int = 0
    tasks_stolen: int = 0
    workers: int = 1


class BuildExecutor(Protocol):
    """Runs a plan's units in order, delivering completions to the driver."""

    stats: ExecutorStats

    def run(
        self,
        plan: BuildPlan,
        on_unit: Callable[[UnitCompletion], None],
        start_unit: int = 0,
    ) -> None: ...


class SequentialExecutor:
    """The in-process executor.

    Tasks run depth-first — an expansion's children are processed before
    anything else in the unit — on the driver's own engine, so memory
    accounting, fault sites, and retries all hit the driver's objects.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.stats = ExecutorStats()

    def run(
        self,
        plan: BuildPlan,
        on_unit: Callable[[UnitCompletion], None],
        start_unit: int = 0,
    ) -> None:
        faults = self.engine.catalog.faults
        for unit in plan.units[start_unit:]:
            queue = deque(unit.tasks)
            outcomes: list[TaskOutcome] = []
            while queue:
                task = queue.popleft()
                maybe_fire(faults, f"build.worker:{task.task_id}")
                outcome = execute_task(
                    self.engine, plan.schema, task, plan.min_count, plan.dr_mode
                )
                maybe_fire(faults, f"build.worker:{task.task_id}.publish")
                self.stats.tasks_run += 1
                outcomes.append(outcome)
                for child in reversed(outcome.children):
                    queue.appendleft(child)
            on_unit(UnitCompletion(unit, tuple(outcomes)))


def make_executor(
    engine: Engine, workers: int = 1, executor: BuildExecutor | None = None
) -> BuildExecutor:
    """Resolve the executor for a build: explicit > parallel > sequential."""
    if executor is not None:
        return executor
    if workers > 1:
        from repro.build.parallel import ProcessPoolExecutor

        return ProcessPoolExecutor(engine, workers)
    return SequentialExecutor(engine)


__all__ = [
    "BuildExecutor",
    "ExecutorStats",
    "SequentialExecutor",
    "make_executor",
]
