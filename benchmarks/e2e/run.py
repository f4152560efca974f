"""One end-to-end benchmark: CSV → cube → HTTP, five named workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        [--seconds S] [--trace 0|1] [--scale F]

Runs one workload (see :mod:`workloads` for the five and why), prints the
machine record and every metric by name with its unit, checks answers
against the oracle (:mod:`oracle`), and — as the last line of stdout —
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json`` measured with tracing off; ``--trace 1`` reports the
per-layer metrics from a separate traced run and writes its spans to
``benchmarks/e2e/_out/``.  The metric lists live in ``BENCHMARK.json``
only; a layer a workload does not touch reads 0.

One workload per process, on purpose: ``peak_rss_mb`` is the process's
high-water mark, so a second workload in the same process would inherit
the first one's.  Every workload but the one that runs a process pool
pins itself to one CPU (see ``main``).

Nothing is left behind: the server is only ever the in-process
``with SlicerServer(app)``, every client thread is joined, pool workers
and the ``multiprocessing`` resource tracker are reaped before the result
is printed, the scratch directory (inside the checkout) is removed, and a
``signal.alarm`` deadline tears all of it down if a workload hangs.

Exit codes: 0 result printed and correct · 1 result printed, some
operation failed · 2 not a checkout of the repository · 3 deadline ·
4 a workload's self-check failed (it no longer exercises its mechanism).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "_out"
#: Whole-run limit; the driver's own is 180 s.
DEADLINE_SECONDS = 150


class DeadlineExceeded(Exception):
    """The run outlived DEADLINE_SECONDS."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded(f"no result after {DEADLINE_SECONDS} s")


def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` files (no subprocess)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "load_average_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
    }


def reap() -> list[str]:
    """Stop whatever the workload left running; say what it was.

    A clean run leaves nothing, so a non-empty answer fails the run.  The
    resource tracker is not a leak — ``multiprocessing`` keeps it until
    exit — but it is stopped and waited for here so that no descendant of
    this process outlives the result line.
    """
    leaked = []
    for child in multiprocessing.active_children():
        leaked.append(f"process {child.name} (pid {child.pid})")
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join(5)
    for thread in threading.enumerate():
        if thread is threading.main_thread():
            continue
        if not thread.daemon or thread.name == "slicer-server":
            leaked.append(f"thread {thread.name}")
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    return leaked


def main(argv: list[str] | None = None) -> int:
    benchmark_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not benchmark_json.is_file():
        print(
            f"{ROOT} is not a checkout of the repository: the benchmark "
            "builds its cubes with src/repro and reads its metric lists "
            "from BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    contract = json.loads(benchmark_json.read_text())
    names = [workload["name"] for workload in contract["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="rounds of the workload's fixed work go on for this long "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every input size (0.05 = smoke test)",
    )
    args = parser.parse_args(argv)

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Everything the program spills (pool workers included) stays in here.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))

    from spans import Tracer
    from workloads import (
        PARALLEL, WORKLOADS, Context, SelfCheckFailed, peak_rss_mb,
    )

    if args.workload not in PARALLEL:
        # Client, server and library never run at the same time, so one CPU
        # is enough — and a hand-over between two vCPUs of a shared host
        # waits for the host to schedule the other one (README, "Noise").
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    env = environment(args)
    print("env " + json.dumps(env))
    if env["load_average_1m"] > 1.0:
        print(
            f"warning: load average {env['load_average_1m']:.2f} > 1.0 — "
            "timings will be noisy", file=sys.stderr,
        )
    tracer = Tracer(args.workload)
    ctx = Context(
        args.workload, args.seed, args.seconds, args.scale,
        bool(args.trace), work, tracer,
    )
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_SECONDS)
    try:
        try:
            WORKLOADS[args.workload](ctx)
            ctx.end_to_end["peak_rss_mb"] = peak_rss_mb()
        finally:
            tracer.enabled = False
            signal.alarm(0)
            leaked = reap()
            shutil.rmtree(work, ignore_errors=True)
    except DeadlineExceeded as error:
        print(f"deadline: {error}", file=sys.stderr)
        return 3
    except SelfCheckFailed as error:
        print(f"self-check failed: {error}", file=sys.stderr)
        return 4
    for what in leaked:
        ctx.tally(False, f"left running: {what}")

    if args.trace:
        wanted = contract["per_layer"]
        # A layer this workload does not touch reads 0.
        measured = {metric["name"]: 0 for metric in wanted} | ctx.layers
        if len(measured) > len(wanted):
            raise KeyError("a reported layer is missing from BENCHMARK.json")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"env": env})
        print(f"spans {len(tracer.spans)} -> {trace_path.relative_to(ROOT)}")
    else:
        wanted, measured = contract["end_to_end"], ctx.end_to_end
    metrics = {
        metric["name"]: {
            "value": measured[metric["name"]], "unit": metric["unit"],
        }
        for metric in wanted
    }
    for note in ctx.notes:
        print("note " + note)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    print(f"checks attempted {ctx.attempted} failed {ctx.failed}")
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 1 if ctx.failed else 0


# The build pool spawns workers, which import this file: without the guard
# every worker would run the benchmark again.
if __name__ == "__main__":
    sys.exit(main())
