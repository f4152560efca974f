"""The build executor: the driver and ``workers − 1`` helper processes.

``workers=N`` means N processes run the plan's tasks: the driver itself
(which also replays every outcome) and ``N − 1`` helpers, never more
processes than the plan has root tasks.  ``workers=1`` is the same loop
with no helper and no pipe.

Helpers are forked from the driver — which already holds numpy,
``repro``, the schema and the plan, so they run tasks milliseconds after
``run()`` — where the platform can fork *and* the driver runs no other
thread at that moment (a fork can copy another thread's lock in its
locked state); otherwise they are spawned as fresh interpreters.  The
start method is not a parameter: either kind runs :func:`_worker_main`
on a :class:`WorkerInit`, opens its *own* :class:`Catalog` and
:class:`Engine` over the build's catalog directory and maps partition
files read-only through :meth:`Engine.load`, so the fact data is shared
through the filesystem, never pickled.  A helper's
:class:`MemoryManager` is carved to exactly the budget the driver has
for one load (the global cap minus the driver's signature-pool
reservation), which keeps load decisions — and therefore adaptive
re-partitioning splits — byte-identical whichever process runs a task.

Scheduling is coordinator-mediated work stealing: every root task of
every unit is dealt round-robin into per-process deques up front,
helpers first, so ``u0`` always starts in helper 0 (units have no
cross-dependencies — coarse nodes are persisted during the partitioning
pass, before any task runs).  A helper is kept :data:`HELPER_DEPTH`
tasks deep from its own deque, the next task already in its pipe, and
sends its outcomes from a second thread (:func:`_send_all`), so it does
not idle while the driver runs a task or replays; an idle process whose
deque is empty steals from the back of the longest other deque, so one
hot or skewed partition never serializes the build.  Expansion
children go to the *front* of the expanding process's deque
(depth-first, keeping the scaffolding relations hot).  Completions are
reassembled into deterministic plan order per unit and delivered to
``on_unit`` strictly in unit order.

Every process runs a task through :func:`run_task`: the
``build.worker:<task_id>`` / ``.publish`` sites fire on that process's
injector, and the trace slice the task added moves onto the outcome, so
:func:`~repro.build.tasks.apply_outcome` merges it at the outcome's
replay position and a recording run lists one site sequence for any
``workers``.  The driver's armed :class:`FaultSpec` plan is serialized
into each helper, which re-installs it on its own injector.  A helper
that hits an injected crash dies for real (``os._exit``) — no exception
marshalling, no cleanup — and the driver, which checks the helpers'
process sentinels together with their result pipes before every task it
runs itself and whenever it waits, turns the death into
:class:`WorkerCrashed` within one driver task; an injected crash in a
task the driver runs is the plain :class:`InjectedCrash`.  Resumable
builds treat either like any other mid-build crash.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

from repro.build.runtime import execute_task
from repro.build.tasks import BuildPlan, TaskOutcome, TaskSpec, UnitCompletion
from repro.faults.injector import FaultInjector, FaultSpec
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash, maybe_fire
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager

#: Exit code a helper dies with when an injected crash fires inside it —
#: distinguishable from a Python traceback exit in the coordinator's error.
WORKER_CRASH_EXIT = 70

#: Tasks sent to a helper and not yet answered: the one it runs and the
#: next.  One more would only take work an idle process could steal.
HELPER_DEPTH = 2

#: Exceptions a helper may raise that the coordinator re-raises by type
#: (everything else arrives as a RuntimeError carrying type name + text).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "MemoryBudgetExceeded": MemoryBudgetExceeded,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
}


class WorkerCrashed(RuntimeError):
    """A helper process died mid-task (injected crash, OOM kill, signal).

    Raised by the coordinator; for a durable build this is an ordinary
    crash point — the manifest still references the last checkpoint, so
    ``resume()`` recovers byte-identically.
    """


@dataclass
class ExecutorStats:
    """What an executor did, surfaced through ``BuildStats`` and the CLI."""

    tasks_run: int = 0
    tasks_stolen: int = 0
    workers: int = 1


def check_workers(workers: int) -> int:
    """``workers`` as the executor takes it: how many processes run tasks."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class WorkerInit:
    """Everything a helper needs to rebuild the build context.

    ``fault_plan`` re-arms the driver's fault configuration inside the
    helper — without it the fault matrix would silently run fault-free in
    children.  ``budget_bytes`` is the per-process memory carve described
    in the module docstring.
    """

    root: str
    plan: BuildPlan
    budget_bytes: int | None
    fault_plan: tuple[FaultSpec, ...]


def run_task(engine: Engine, plan: BuildPlan, task: TaskSpec) -> TaskOutcome:
    """Run one task of ``plan`` the way every process runs it.

    The task is bracketed by its ``build.worker`` sites; the injector
    trace it added moves onto ``outcome.trace``, and ``peak_bytes`` is
    the high-water mark of its own reservations (what the engine already
    held, such as the driver's pool, left out).
    """
    faults = engine.catalog.faults
    trace = getattr(faults, "trace", None)
    base = len(trace) if trace is not None else 0
    memory = engine.memory
    held, peak = memory.used_bytes, memory.peak_bytes
    memory.peak_bytes = held
    try:
        maybe_fire(faults, f"build.worker:{task.task_id}")
        outcome = execute_task(
            engine, plan.schema, task, plan.min_count, plan.dr_mode
        )
        maybe_fire(faults, f"build.worker:{task.task_id}.publish")
        outcome.peak_bytes = memory.peak_bytes - held
    finally:
        memory.peak_bytes = max(peak, memory.peak_bytes)
    if trace is not None:
        outcome.trace = tuple(trace[base:])
        del trace[base:]
    return outcome


def _send_all(outbox: queue.SimpleQueue, results: Connection) -> None:
    """Send a helper's pickled messages in order until ``None``.

    On its own thread, so that an outcome larger than the pipe's buffer,
    which waits until the driver is done with its own task, does not hold
    up the helper's next task.
    """
    while (payload := outbox.get()) is not None:
        try:
            results.send_bytes(payload)
        except BrokenPipeError:  # the driver gave up on the build
            return


def _worker_main(init, tasks, results, inherited=()):
    """Helper loop: own engine + injector, tasks in, outcomes out.

    An :class:`InjectedCrash` kills the process immediately and silently
    (a real crash leaves no goodbye either); any other exception is
    marshalled as an error tuple so the coordinator can re-raise it with
    the build's usual semantics.  ``inherited`` are the driver's pipe
    ends a forked helper holds copies of: closed first, so that a pipe
    reports end-of-file as soon as the process at its other end is gone.
    """
    for connection in inherited:
        connection.close()
    engine = Engine(Catalog(Path(init.root)), MemoryManager(init.budget_bytes))
    engine.install_faults(FaultInjector(plan=tuple(init.fault_plan)))
    outbox: queue.SimpleQueue = queue.SimpleQueue()
    sender = threading.Thread(target=_send_all, args=(outbox, results))
    sender.start()
    try:
        while True:
            try:
                task = tasks.recv()
            except EOFError:  # the driver is gone
                return
            if task is None:
                return
            try:
                outcome = run_task(engine, init.plan, task)
            except InjectedCrash:
                os._exit(WORKER_CRASH_EXIT)
            except BaseException as error:  # marshalled, not swallowed
                message = ("error", task.task_id, type(error).__name__, str(error))
            else:
                message = ("done", outcome)
            outbox.put(ForkingPickler.dumps(message))  # what recv() loads
    finally:
        outbox.put(None)
        sender.join()


class ProcessPoolExecutor:
    """Run a plan on the driver plus ``workers − 1`` helper processes."""

    def __init__(self, engine: Engine, workers: int = 1) -> None:
        self.engine = engine
        self.workers = check_workers(workers)
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
        roots = [task for unit in units for task in unit.tasks]
        # A process with nothing to run is not started: each of the n is
        # dealt a root task, and a helper's is in its pipe before anyone
        # can steal it.
        n = self.stats.workers = min(self.workers, len(roots))
        n_helpers = driver = n - 1

        # Deal every root task round-robin, helpers first; the driver's
        # deque is the last.
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
        outstanding = len(roots)
        processes: list = []
        task_pipes: list[Connection] = []
        result_pipes: list[Connection] = []
        in_flight: list[deque[TaskSpec]] = [deque() for _ in range(n_helpers)]

        def take(worker: int) -> TaskSpec | None:
            own = deques[worker]
            if own:
                return own.popleft()
            victim = max((d for d in deques if d), key=len, default=None)
            if victim is None:
                return None
            self.stats.tasks_stolen += 1
            return victim.pop()

        def top_up(helper: int) -> None:
            sent = in_flight[helper]
            while len(sent) < HELPER_DEPTH and (deques[helper] or not sent):
                task = take(helper)
                if task is None:
                    return
                try:
                    task_pipes[helper].send(task)
                except OSError:  # it died running a task it already had
                    raise crashed(helper) from None
                sent.append(task)

        def finish(worker: int, outcome: TaskOutcome) -> None:
            nonlocal next_unit, outstanding
            task = outcome.task
            self.stats.tasks_run += 1
            outstanding -= 1
            if outcome.children:
                order = unit_order[task.unit]
                at = order.index(task.task_id) + 1
                order[at:at] = [c.task_id for c in outcome.children]
                deques[worker].extendleft(reversed(outcome.children))
                outstanding += len(outcome.children)
            done[task.unit][task.task_id] = outcome
            # Deliver every fully-assembled unit, strictly in order.  (An
            # expansion splices its children into the unit's order before
            # this check runs, so a unit with work still queued or in
            # flight always has fewer outcomes than order slots.)
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

        def crashed(helper: int) -> WorkerCrashed:
            process = processes[helper]
            process.join(timeout=2.0)
            sent = in_flight[helper]
            return WorkerCrashed(
                f"worker {helper} died"
                + (f" while running task {sent[0].task_id}" if sent else "")
                + f" (exit code {process.exitcode})"
            )

        def receive(timeout: float | None) -> None:
            """Handle the helpers' messages and deaths; wait ``timeout``
            (``None``: until something is ready) only when nothing is."""
            sentinels = [process.sentinel for process in processes]
            ready = wait([*sentinels, *result_pipes], timeout)
            while ready:
                for helper in range(n_helpers):
                    # A helper exits only when told to, after the last
                    # outcome: a ready sentinel is a death, seen however
                    # busy the other processes keep the pipes.
                    if sentinels[helper] in ready:
                        raise crashed(helper)
                    if result_pipes[helper] not in ready:
                        continue
                    try:
                        message = result_pipes[helper].recv()
                    except (EOFError, OSError):  # it died mid-message
                        raise crashed(helper) from None
                    if message[0] == "error":
                        _, task_id, type_name, text = message
                        error_type = _ERROR_TYPES.get(type_name)
                        if error_type is None:
                            raise RuntimeError(
                                f"worker {helper} failed on task "
                                f"{task_id}: {type_name}: {text}"
                            )
                        raise error_type(text)
                    in_flight[helper].popleft()
                    finish(helper, message[1])
                    top_up(helper)
                ready = wait([*sentinels, *result_pipes], 0)

        try:
            if n_helpers:
                unflushed = self.engine.catalog.unflushed()
                if unflushed:
                    # Helpers read the catalog's files, and a forked one
                    # would hold a second copy of the buffered bytes.
                    raise RuntimeError(
                        "relations with buffered writes at worker start: "
                        f"{unflushed}"
                    )
                faults = self.engine.catalog.faults
                # The driver loads each partition with only its pool
                # reservation held; giving every helper exactly that
                # remainder reproduces its decisions.
                init = WorkerInit(
                    root=str(self.engine.catalog.root),
                    plan=plan,
                    budget_bytes=self.engine.memory.free_bytes,
                    fault_plan=tuple(faults.plan) if faults is not None else (),
                )
                forks = hasattr(os, "fork") and threading.active_count() == 1
                context = get_context("fork" if forks else "spawn")
                for _ in range(n_helpers):
                    tasks, task_pipe = context.Pipe(duplex=False)
                    result_pipe, results = context.Pipe(duplex=False)
                    task_pipes.append(task_pipe)
                    result_pipes.append(result_pipe)
                    inherited = (*task_pipes, *result_pipes) if forks else ()
                    process = context.Process(
                        target=_worker_main,
                        args=(init, tasks, results, inherited),
                        daemon=True,
                    )
                    process.start()
                    processes.append(process)
                    tasks.close()
                    results.close()
                for helper in range(n_helpers):
                    top_up(helper)
            while outstanding:
                receive(0)
                task = take(driver)
                if task is not None:
                    finish(driver, run_task(self.engine, plan, task))
                elif outstanding:  # all of it is in the helpers' pipes
                    receive(None)
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
            except OSError:  # the helper is gone
                pass
        # A helper still sending an outcome nobody will read gets a broken
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
    "ExecutorStats",
    "ProcessPoolExecutor",
    "WorkerCrashed",
    "WorkerInit",
    "WORKER_CRASH_EXIT",
    "check_workers",
    "run_task",
]
