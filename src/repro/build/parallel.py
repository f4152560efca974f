"""The multiprocessing executor: work-stealing workers over shared files.

Workers are forked from the driver — which already holds numpy,
``repro``, the schema and the plan, so they run tasks milliseconds after
``run()`` — where the platform can fork *and* the driver runs no other
thread at that moment (a fork can copy another thread's lock in its
locked state); otherwise they are spawned as fresh interpreters.  The
start method is not a parameter, and either kind runs the same
:func:`_worker_main` on the same :class:`WorkerInit`: a worker opens its
*own* :class:`Catalog` and :class:`Engine` over the build's catalog
directory, never an engine or file handle it inherited, and maps
partition files read-only through :meth:`Engine.load` — the same
zero-copy ``np.memmap`` view of the page cache the driver's own loads
take — so the fact data is shared through the filesystem, never pickled;
tasks and outcomes travel over one pipe pair per worker.  Each
worker gets a :class:`MemoryManager` carved to exactly the budget the
sequential loop would see for one load (the global cap minus the driver's
signature-pool reservation), which is what keeps load decisions — and
therefore adaptive re-partitioning splits — byte-identical to a
sequential build; a worker holds at most one partition working set at a
time, so the carve is also its true high-water mark.

Scheduling is coordinator-mediated work stealing: every root task of
every unit is dealt round-robin into per-worker deques up front (units
have no cross-dependencies — coarse nodes are persisted during the
partitioning pass, before any task runs), each worker executes one task
at a time, and an idle worker whose deque is empty steals from the back
of the longest other deque, so one hot or skewed partition never
serializes the build.  Expansion children go to the *front* of the
originating worker's deque (depth-first, keeping the scaffolding
relations hot).  Completions are reassembled into deterministic plan
order per unit and delivered to the driver strictly in unit order.

Fault injection crosses the process boundary explicitly: the driver's
armed :class:`FaultSpec` plan is serialized into each worker, which
re-installs it on its own injector.  A worker that hits an injected
crash dies for real (``os._exit``) — no exception marshalling, no
cleanup — and the coordinator, which waits on the workers' process
sentinels together with their result pipes, turns the death into
:class:`WorkerCrashed` at once, however busy the other workers are;
resumable builds treat it like any other mid-build crash.  Per-task
injector trace slices travel back on each outcome so the driver can
merge one deterministic site sequence.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait
from pathlib import Path

from repro.build.executor import ExecutorStats
from repro.build.runtime import execute_task
from repro.build.tasks import (
    BuildPlan,
    TaskOutcome,
    TaskSpec,
    UnitCompletion,
)
from repro.faults.injector import FaultInjector, FaultSpec
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash, maybe_fire
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager

#: Exit code a worker dies with when an injected crash fires inside it —
#: distinguishable from a Python traceback exit in the coordinator's error.
WORKER_CRASH_EXIT = 70

#: Exceptions a worker may raise that the coordinator re-raises by type
#: (everything else arrives as a RuntimeError carrying type name + text).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "MemoryBudgetExceeded": MemoryBudgetExceeded,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
}


class WorkerCrashed(RuntimeError):
    """A worker process died mid-task (injected crash, OOM kill, signal).

    Raised by the coordinator; for a durable build this is an ordinary
    crash point — the manifest still references the last checkpoint, so
    ``resume()`` recovers byte-identically.
    """


@dataclass(frozen=True)
class WorkerInit:
    """Everything a worker needs to rebuild the build context.

    ``fault_plan`` re-arms the driver's fault configuration inside the
    worker — without it the fault matrix would silently run fault-free in
    children.  ``budget_bytes`` is the per-worker memory carve described
    in the module docstring.
    """

    root: str
    schema: object
    min_count: int
    dr_mode: bool
    budget_bytes: int | None
    fault_plan: tuple[FaultSpec, ...]


def _worker_main(worker_id, init, tasks, results, inherited=()):
    """Worker loop: own engine + injector, tasks in, outcomes out.

    An :class:`InjectedCrash` kills the process immediately and silently
    (a real crash leaves no goodbye either); any other exception is
    marshalled as an error tuple so the coordinator can re-raise it with
    the build's usual semantics.  ``inherited`` are the driver's pipe
    ends a forked worker holds copies of: closed first, so that a pipe
    reports end-of-file as soon as the process at its other end is gone.
    """
    for connection in inherited:
        connection.close()
    catalog = Catalog(Path(init.root))
    engine = Engine(catalog, MemoryManager(init.budget_bytes))
    injector = FaultInjector(plan=tuple(init.fault_plan))
    engine.install_faults(injector)
    while True:
        try:
            task = tasks.recv()
        except EOFError:  # the driver is gone
            return
        if task is None:
            return
        base = len(injector.trace)
        try:
            maybe_fire(injector, f"build.worker:{task.task_id}")
            outcome = execute_task(
                engine, init.schema, task, init.min_count, init.dr_mode
            )
            maybe_fire(injector, f"build.worker:{task.task_id}.publish")
        except InjectedCrash:
            os._exit(WORKER_CRASH_EXIT)
        except BaseException as error:  # marshalled, not swallowed
            message = ("error", task.task_id, type(error).__name__, str(error))
        else:
            outcome.trace = tuple(injector.trace[base:])
            outcome.peak_bytes = engine.memory.peak_bytes
            message = ("done", outcome)
        try:
            results.send(message)
        except BrokenPipeError:  # the driver gave up on the build
            return


class ProcessPoolExecutor:
    """Fan tasks out to worker processes; reassemble deterministic order."""

    def __init__(
        self,
        engine: Engine,
        workers: int,
        worker_budget_bytes: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.engine = engine
        self.workers = workers
        self.worker_budget_bytes = worker_budget_bytes
        self.stats = ExecutorStats()

    def run(
        self,
        plan: BuildPlan,
        on_unit: Callable[[UnitCompletion], None],
        start_unit: int = 0,
    ) -> None:
        units = plan.units[start_unit:]
        if not units:
            return
        unflushed = self.engine.catalog.unflushed()
        if unflushed:
            # Workers read the catalog's files, and a forked one would
            # hold a second copy of the buffered bytes.
            raise RuntimeError(
                f"relations with buffered writes at worker start: {unflushed}"
            )
        budget = self.worker_budget_bytes
        if budget is None:
            # The sequential loop loads each partition with only the
            # driver's pool reservation held; giving every worker exactly
            # that remainder reproduces its decisions.
            budget = self.engine.memory.free_bytes
        faults = getattr(self.engine.catalog, "faults", None)
        init = WorkerInit(
            root=str(self.engine.catalog.root),
            schema=plan.schema,
            min_count=plan.min_count,
            dr_mode=plan.dr_mode,
            budget_bytes=budget,
            fault_plan=tuple(faults.plan) if faults is not None else (),
        )

        roots = [task for unit in units for task in unit.tasks]
        n = self.stats.workers = min(self.workers, len(roots))
        forks = hasattr(os, "fork") and threading.active_count() == 1
        context = get_context("fork" if forks else "spawn")
        processes: list = []
        task_pipes: list[Connection] = []
        result_pipes: list[Connection] = []

        # Deal every root task round-robin; deques feed idle workers.
        deques: list[deque[TaskSpec]] = [deque() for _ in range(n)]
        for i, task in enumerate(roots):
            deques[i % n].append(task)

        # Per-unit deterministic order: task ids in depth-first plan
        # order, grown in place when an expansion splices children.
        unit_order: dict[int, list[str]] = {
            unit.index: [task.task_id for task in unit.tasks]
            for unit in units
        }
        done: dict[int, dict[str, TaskOutcome]] = {
            unit.index: {} for unit in units
        }
        units_by_index = {unit.index: unit for unit in units}
        next_unit = units[0].index
        in_flight: dict[int, TaskSpec | None] = dict.fromkeys(range(n))
        outstanding = len(roots)

        def dispatch(worker_id: int) -> None:
            own = deques[worker_id]
            if not own:
                victim = max(
                    (d for d in deques if d), key=len, default=None
                )
                if victim is None:
                    return
                own.append(victim.pop())
                self.stats.tasks_stolen += 1
            task = own.popleft()
            in_flight[worker_id] = task
            task_pipes[worker_id].send(task)

        def crashed(worker_id: int) -> WorkerCrashed:
            process = processes[worker_id]
            process.join(timeout=2.0)
            task = in_flight[worker_id]
            return WorkerCrashed(
                f"worker {worker_id} died"
                + (f" while running task {task.task_id}" if task else "")
                + f" (exit code {process.exitcode})"
            )

        try:
            for worker_id in range(n):
                tasks, task_pipe = context.Pipe(duplex=False)
                result_pipe, results = context.Pipe(duplex=False)
                task_pipes.append(task_pipe)
                result_pipes.append(result_pipe)
                inherited = (*task_pipes, *result_pipes) if forks else ()
                process = context.Process(
                    target=_worker_main,
                    args=(worker_id, init, tasks, results, inherited),
                    daemon=True,
                )
                process.start()
                processes.append(process)
                tasks.close()
                results.close()
            for worker_id in range(n):
                dispatch(worker_id)
            sentinels = [process.sentinel for process in processes]
            while outstanding:
                # A worker exits only when told to, after the last outcome:
                # a ready sentinel is a death, seen at once however busy
                # the surviving workers keep the pipes.
                ready = wait([*sentinels, *result_pipes])
                for worker_id in range(n):
                    if sentinels[worker_id] in ready:
                        raise crashed(worker_id)
                worker_id = next(w for w in range(n) if result_pipes[w] in ready)
                try:
                    message = result_pipes[worker_id].recv()
                except EOFError:
                    raise crashed(worker_id) from None
                if message[0] == "error":
                    _, task_id, type_name, text = message
                    error_type = _ERROR_TYPES.get(type_name)
                    if error_type is None:
                        raise RuntimeError(
                            f"worker {worker_id} failed on task "
                            f"{task_id}: {type_name}: {text}"
                        )
                    raise error_type(text)
                outcome = message[1]
                task = outcome.task
                self.stats.tasks_run += 1
                in_flight[worker_id] = None
                outstanding -= 1
                if outcome.children:
                    order = unit_order[task.unit]
                    at = order.index(task.task_id) + 1
                    order[at:at] = [c.task_id for c in outcome.children]
                    deques[worker_id].extendleft(reversed(outcome.children))
                    outstanding += len(outcome.children)
                done[task.unit][task.task_id] = outcome
                dispatch(worker_id)
                # Deliver every fully-assembled unit, strictly in order.
                # (An expansion splices its children into the unit's order
                # before this check runs, so a unit with work still queued
                # or in flight always has fewer outcomes than order slots.)
                while next_unit in units_by_index:
                    order = unit_order[next_unit]
                    finished = done[next_unit]
                    if len(finished) < len(order):
                        break
                    on_unit(
                        UnitCompletion(
                            units_by_index[next_unit],
                            tuple(finished[task_id] for task_id in order),
                        )
                    )
                    next_unit += 1
        finally:
            self._shutdown(processes, task_pipes, result_pipes)

    def _shutdown(
        self,
        processes: list,
        task_pipes: list[Connection],
        result_pipes: list[Connection],
    ) -> None:
        for task_pipe in task_pipes:
            try:
                task_pipe.send(None)
            except OSError:  # the worker is gone
                pass
        # A worker still sending an outcome nobody will read gets a broken
        # pipe instead of waiting out the join below.
        for result_pipe in result_pipes:
            result_pipe.close()
        for process in processes:
            process.join(timeout=2.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for task_pipe in task_pipes:
            task_pipe.close()


__all__ = [
    "ProcessPoolExecutor",
    "WorkerCrashed",
    "WorkerInit",
    "WORKER_CRASH_EXIT",
]
