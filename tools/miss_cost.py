"""What a ``serve-drill`` miss costs, and what a ``serve-browse`` hit costs.

Builds the serving cube of ``benchmarks/e2e`` for one seed the way the
harness does (the seeded ``retail`` CSV, ``load_csv``, ``CURE+`` with a
20,000-signature pool, ``save_bundle``) and draws the ``serve-drill``
and ``serve-browse`` request blocks.  Then, in this process, with the
cyclic collector off:

* **misses**: the block goes ``--repeat`` times through
  ``SlicerApp.dispatch_request`` on a fresh app with a 1-byte result
  cache, so every request is a miss and nothing is kept between
  requests but what the cube itself memoizes.  Each request keeps its
  fastest CPU time (this thread's clock).  Per kind, a least-squares
  line through (answer rows, µs) gives the fixed cost and the cost per
  row;
* **the encode floor's two sides**: the library answer
  (``execute_op`` on a planner with a 1-byte result cache) and its
  encoding (``encode_op``), each op's fastest of ``--repeat``, as
  means over the block — what the nightly ``server.encode_ms <
  query.answer_ms`` floor compares;
* **hits**: the ``serve-browse`` block on an app whose result cache
  holds every answer and body (one pass warms it), ``--repeat`` times
  through ``SlicerApp.respond`` (the raw request target, as the HTTP
  front hands it over) and through ``SlicerApp.dispatch_request`` (with
  the ``unquote`` / ``parse_qs`` of that target included), each request
  its fastest CPU time — the hit path's fixed cost.

Prints three Markdown tables (microseconds).  It uses no API newer than
the serving layer's public entry points, so a copy of this file in
another checkout's ``tools/`` measures that checkout (a checkout whose
app has no ``respond`` prints a dash for it):

    python3 tools/miss_cost.py --seed 11 --repeat 5
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import random
import sys
import tempfile
import time
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

import retail  # noqa: E402 - the benchmark's generator, read-only
import workloads  # noqa: E402 - the benchmark's build and request block

from repro.bundle import open_bundle  # noqa: E402
from repro.server import SlicerApp  # noqa: E402
from repro.server.replay import encode_op, execute_op, op_path  # noqa: E402


class _Untimed:
    """The harness's ``Steps`` with nothing recorded."""

    def step(self, _name: str):
        return contextlib.nullcontext()


def cpu_us(call, *args) -> float:
    """The CPU time of one ``call(*args)`` on this thread, in µs."""
    started = time.thread_time_ns()
    call(*args)
    return (time.thread_time_ns() - started) / 1e3


def measure(bundle_dir: Path, seed: int, n_ops: int, repeat: int) -> None:
    with open_bundle(bundle_dir) as bundle:
        schema = bundle.schema
        ops = workloads.make_ops(
            schema, n_ops, random.Random(seed), **workloads.DRILL
        )
        paths = [urlsplit(op_path(schema, op)) for op in ops]
        rows = [len(execute_op(bundle.planner(), op)) for op in ops]
        miss = [float("inf")] * len(ops)
        answer = [float("inf")] * len(ops)
        encode = [float("inf")] * len(ops)
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeat):
                app = SlicerApp(bundle, result_cache_bytes=1)
                planner = bundle.planner(result_cache_bytes=1)
                for index, (op, path) in enumerate(zip(ops, paths)):
                    query = parse_qs(path.query)
                    miss[index] = min(miss[index], cpu_us(
                        app.dispatch_request, path.path, query
                    ))
                    answer[index] = min(
                        answer[index], cpu_us(execute_op, planner, op)
                    )
                    result = execute_op(planner, op)
                    encode[index] = min(
                        encode[index], cpu_us(encode_op, schema, op, result)
                    )
        finally:
            gc.enable()
    print(f"Misses through `dispatch_request` (seed {seed}, {len(ops)} "
          f"requests, fastest of {repeat}, CPU µs)\n")
    print("| kind | requests | mean rows | mean µs | fixed µs | ns/row |")
    print("|---|---|---|---|---|---|")
    for kind in sorted({op.kind for op in ops}):
        chosen = [i for i, op in enumerate(ops) if op.kind == kind]
        x = np.array([rows[i] for i in chosen], dtype=np.float64)
        y = np.array([miss[i] for i in chosen], dtype=np.float64)
        slope, fixed = np.polyfit(x, y, 1) if np.ptp(x) else (0.0, y.mean())
        print(f"| {kind} | {len(chosen)} | {x.mean():.0f} | {y.mean():.0f} "
              f"| {fixed:.0f} | {slope * 1e3:.0f} |")
    print("\nThe encode floor's two sides (mean over the block, CPU µs)\n")
    print("| library answer (`execute_op`) | encode (`encode_op`) |")
    print("|---|---|")
    print(f"| {np.mean(answer):.1f} | {np.mean(encode):.1f} |")


def measure_hits(bundle_dir: Path, seed: int, n_ops: int, repeat: int) -> None:
    with open_bundle(bundle_dir) as bundle:
        schema = bundle.schema
        ops = workloads.make_ops(
            schema, n_ops, random.Random(seed), **workloads.BROWSE
        )
        targets = [op_path(schema, op) for op in ops]
        app = SlicerApp(bundle)
        respond = getattr(app, "respond", None)

        def parsed(target: str):
            path, _, query = target.partition("?")
            return app.dispatch_request(unquote(path), parse_qs(query))

        for target in targets:  # warm: every answer and body resident
            if respond is not None:
                respond(target)
            parsed(target)
        entries = {"`respond`": respond, "`dispatch_request`": parsed}
        fastest = {name: [float("inf")] * len(ops) for name in entries}
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeat):
                for name, call in entries.items():
                    if call is None:
                        continue
                    times = fastest[name]
                    for index, target in enumerate(targets):
                        times[index] = min(times[index], cpu_us(call, target))
        finally:
            gc.enable()
    print(f"\nHits of the `serve-browse` block on a warm cache (seed {seed}, "
          f"{len(ops)} requests, fastest of {repeat}, CPU µs)\n")
    print("| entry | mean µs | median µs |")
    print("|---|---|---|")
    for name, call in entries.items():
        if call is None:
            print(f"| {name} | — | — |")
            continue
        times = fastest[name]
        print(f"| {name} | {np.mean(times):.1f} | {np.median(times):.1f} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rows", type=int, default=workloads.SERVE_ROWS)
    parser.add_argument(
        "--ops", type=int, default=workloads.SERVE_DRILL["block_ops"]
    )
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        retail.write_input(root, retail.generate_facts(args.seed, args.rows))
        built = workloads.build_bundle(_Untimed(), root, root / "cube")
        measure(built.bundle_dir, args.seed, args.ops, args.repeat)
        measure_hits(
            built.bundle_dir, args.seed,
            workloads.SERVE_BROWSE["block_ops"], args.repeat,
        )


if __name__ == "__main__":
    main()
