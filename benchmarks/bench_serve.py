"""Serving-layer latency and throughput over real HTTP.

One ~20k-row cube (2 hierarchical dimensions) is built, published as a
bundle and served by :class:`repro.server.http.SlicerServer` on an
ephemeral port.  A seeded :func:`repro.query.workload.mixed_workload`
mix (node/slice/rollup/iceberg, Zipf-popular nodes) is replayed:

* **sequential** — one connection replays the mix twice (cold pass warms
  the shared caches, the measured pass is steady-state);
* **concurrent** — ``THREADS`` barrier-started clients, each with its
  own ``http.client`` connection, replay the full mix against the one
  shared :class:`SlicerApp`.

Both arms record p50/p99 per-request latency and aggregate QPS, and the
concurrent arm's response bytes are digest-compared against the
sequential pass — the serving layer must give every client the same
canonical bytes no matter how requests interleave.

``python benchmarks/bench_serve.py`` regenerates ``BENCH_serve.json`` at
the repo root; ``--check`` (and the pytest entry point) asserts the QPS
floors, the p99 ceilings, and digest equality.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import CubeSchema, Table, linear_dimension, make_aggregates
from repro.bundle import open_bundle, save_bundle
from repro.core.variants import VARIANTS
from repro.query.workload import mixed_workload
from repro.server.app import SlicerApp
from repro.server.http import SlicerServer
from repro.server.replay import op_path

BASE_ROWS = 20_000
N_OPS = 150
THREADS = 16
SEED = 7
VARIANT = "CURE+"

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def _schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 100), ("A1", 10)])
    b = linear_dimension("B", [("B0", 50), ("B1", 5)])
    return CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


def _fact(schema: CubeSchema) -> Table:
    import random

    rng = random.Random(SEED)
    rows = np.array([
        (rng.randrange(100), rng.randrange(50), rng.randrange(1000))
        for _ in range(BASE_ROWS)
    ])
    return Table.from_columns(schema.fact_schema, rows.T)


def _publish(root: Path):
    schema = _schema()
    fact = _fact(schema)
    result, _ = VARIANTS[VARIANT].build(schema, table=fact)
    save_bundle(
        root / "bundle", schema, fact, result.storage,
        extra={"variant": VARIANT},
    )
    return open_bundle(root / "bundle")


def _fetch(connection: http.client.HTTPConnection, path: str) -> bytes:
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    if response.status != 200:
        raise RuntimeError(f"{path} -> {response.status}: {body[:200]!r}")
    return body


def _replay(host: str, port: int, paths: list[str]):
    """Replay ``paths`` on one fresh connection; bodies + latencies."""
    connection = http.client.HTTPConnection(host, port)
    try:
        bodies, latencies = [], []
        for path in paths:
            started = time.perf_counter()
            bodies.append(_fetch(connection, path))
            latencies.append(time.perf_counter() - started)
        return bodies, latencies
    finally:
        connection.close()


def _digest(bodies: list[bytes]) -> str:
    hasher = hashlib.sha256()
    for body in bodies:
        hasher.update(body)
    return hasher.hexdigest()


def _latency_summary(latencies: list[float], seconds: float, requests: int):
    return {
        "requests": requests,
        "seconds": round(seconds, 4),
        "qps": round(requests / seconds, 1),
        "p50_ms": round(statistics.median(latencies) * 1e3, 3),
        "p99_ms": round(
            statistics.quantiles(latencies, n=100)[98] * 1e3, 3
        ),
    }


def bench_serving(server: SlicerServer, paths: list[str]) -> dict:
    host, port = server.host, server.port

    _replay(host, port, paths)  # cold pass: warm shared caches
    started = time.perf_counter()
    sequential_bodies, sequential_latencies = _replay(host, port, paths)
    sequential_seconds = time.perf_counter() - started

    barrier = threading.Barrier(THREADS + 1)
    outcomes: list[tuple[list[bytes], list[float]] | None] = [None] * THREADS

    def client(index: int) -> None:
        barrier.wait()
        outcomes[index] = _replay(host, port, paths)

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    concurrent_seconds = time.perf_counter() - started

    concurrent_latencies = [
        latency for outcome in outcomes for latency in outcome[1]
    ]
    reference = _digest(sequential_bodies)
    digests_equal = all(
        _digest(outcome[0]) == reference for outcome in outcomes
    )

    return {
        "sequential": _latency_summary(
            sequential_latencies, sequential_seconds, len(paths)
        ),
        "concurrent": {
            "threads": THREADS,
            **_latency_summary(
                concurrent_latencies,
                concurrent_seconds,
                THREADS * len(paths),
            ),
        },
        "digests_equal": digests_equal,
    }


def run() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_serve.") as tmp:
        with _publish(Path(tmp)) as bundle:
            schema = bundle.schema
            ops = mixed_workload(schema, N_OPS, seed=SEED)
            paths = [op_path(schema, op) for op in ops]
            app = SlicerApp(bundle)
            with SlicerServer(app) as server:
                serving = bench_serving(server, paths)
            stats = json.loads(app.dispatch_request("/stats", {})[1])
    return {
        "base_rows": BASE_ROWS,
        "variant": VARIANT,
        "ops": N_OPS,
        "mix_seed": SEED,
        "serving": serving,
        "server_stats": stats,
    }


# Conservative floors for shared CI runners: local runs sustain roughly
# 5-10× these (see BENCH_serve.json for the last recorded numbers).
FLOORS = {
    "sequential_qps": 50,
    "concurrent_qps": 100,
}
CEILINGS_MS = {
    "sequential_p99_ms": 500.0,
    # 16 barrier-started clients pile onto one GIL: the p99 is the
    # start-of-burst pileup, not steady-state latency, so the ceiling
    # is generous.
    "concurrent_p99_ms": 5_000.0,
}


def check_floors(results: dict) -> list[str]:
    serving = results["serving"]
    failing = []
    if serving["sequential"]["qps"] < FLOORS["sequential_qps"]:
        failing.append("sequential_qps")
    if serving["concurrent"]["qps"] < FLOORS["concurrent_qps"]:
        failing.append("concurrent_qps")
    if serving["sequential"]["p99_ms"] > CEILINGS_MS["sequential_p99_ms"]:
        failing.append("sequential_p99_ms")
    if serving["concurrent"]["p99_ms"] > CEILINGS_MS["concurrent_p99_ms"]:
        failing.append("concurrent_p99_ms")
    if not serving["digests_equal"]:
        failing.append("digests_equal")
    return failing


def test_serve_floors():
    """CI acceptance: QPS floors and p99 ceilings hold over real HTTP,
    and 16 concurrent clients read byte-identical responses."""
    results = run()
    assert not check_floors(results), results
    assert results["server_stats"]["errors"] == 0, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving-layer HTTP latency/throughput benchmark."
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_PATH,
        help=f"result JSON path (default: {RESULT_PATH})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the floors hold",
    )
    args = parser.parse_args(argv)

    results = run()
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    if args.check:
        failing = check_floors(results)
        for name in failing:
            print(f"FAIL: {name} out of bounds", file=sys.stderr)
        if failing:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
