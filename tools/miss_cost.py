"""What a ``serve-drill`` miss costs: a fixed part and a part per row.

Builds the ``serve-drill`` cube of ``benchmarks/e2e`` for one seed the
way the harness does (the seeded ``retail`` CSV, ``load_csv``,
``CURE+`` with a 20,000-signature pool, ``save_bundle``) and draws the
workload's request block.  Then, in this process, with the cyclic
collector off:

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
  query.answer_ms`` floor compares.

Prints two Markdown tables (microseconds).  It uses no API newer than
the serving layer's public entry points, so a copy of this file in
another checkout's ``tools/`` measures that checkout:

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
from urllib.parse import parse_qs, urlsplit

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


if __name__ == "__main__":
    main()
