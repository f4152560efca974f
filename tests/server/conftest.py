"""Fixtures for the slicer serving layer: published bundles per variant.

The differential harness asserts HTTP bodies are byte-identical to the
library across the served CURE family, so the expensive part — building
and publishing one cube per variant — happens once per session.
"""

from __future__ import annotations

import random

import pytest

from repro import CubeSchema, Table, linear_dimension, make_aggregates
from repro.bundle import CubeBundle, open_bundle, save_bundle
from repro.core.signature import SignaturePool
from repro.core.variants import VARIANTS
from repro.query import CubePlanner, FactCache
from repro.relational import Catalog, Engine
from repro.relational.memory import MemoryManager
from tests.support.rows import table_of

#: The CURE+ cube built under a memory budget: a 1,000-signature pool
#: plus 3,000 B leaves the 400 serving rows to four partitions.
PARTITIONED = "CURE+ partitioned"

#: The paper's headline family: CURE, CURE+ and the flat-cube FCURE.
SERVED_VARIANTS = ("CURE", "CURE+", "FCURE")
#: Every variant the HTTP differential holds to the library and the row
#: engine: the headline family plus the two the reader reads
#: differently — CURE_DR, whose NTs carry their dimension values inline
#: (so its slices post-filter), and a CURE+ cube built in partitions,
#: whose TTs its construction phases found and the build stored once.
ALL_SERVED = (*SERVED_VARIANTS, "CURE_DR", PARTITIONED)


def serving_schema() -> CubeSchema:
    """The paper's running example, with COUNT so icebergs answer."""
    a = linear_dimension("A", [("A0", 12), ("A1", 6), ("A2", 3)])
    b = linear_dimension("B", [("B0", 8), ("B1", 4)])
    c = linear_dimension("C", [("C0", 5)])
    return CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


def serving_fact(schema: CubeSchema, n: int = 400, seed: int = 17) -> Table:
    rng = random.Random(seed)
    cardinalities = [
        dimension.level(0).cardinality for dimension in schema.dimensions
    ]
    rows = [
        tuple(rng.randrange(c) for c in cardinalities)
        + (rng.randrange(1, 100),)
        for _ in range(n)
    ]
    return table_of(schema.fact_schema, rows)


@pytest.fixture(scope="session")
def served_bundles(tmp_path_factory):
    """One opened bundle per served variant, built over the same facts."""
    root = tmp_path_factory.mktemp("served-bundles")
    schema = serving_schema()
    fact = serving_fact(schema)
    bundles = {}
    for name in ALL_SERVED:
        if name == PARTITIONED:
            result = _partitioned_build(root / "engine", schema, fact)
        else:
            result, _ = VARIANTS[name].build(schema, table=fact)
        path = save_bundle(
            root / name.replace("+", "_plus").replace(" ", "_"),
            schema,
            fact,
            result.storage,
            extra={"variant": name},
        )
        bundles[name] = open_bundle(path)
    yield bundles
    for bundle in bundles.values():
        bundle.close()


def _partitioned_build(directory, schema: CubeSchema, fact: Table):
    config = VARIANTS["CURE+"].with_pool(1_000)
    budget = SignaturePool.size_bytes(1_000, schema.n_aggregates) + 3_000
    engine = Engine(Catalog(directory), MemoryManager(budget))
    try:
        engine.store_table("fact", fact)
        result, _ = config.build(schema, engine=engine, relation="fact")
    finally:
        engine.destroy()
    assert result.storage.partition_level is not None
    return result


def heap_planner(bundle: CubeBundle) -> CubePlanner:
    """The mapped cube behind a fully warm cache over the bundle's fact
    heap: no fact table is held whole, so its slices post-filter."""
    heap = Catalog(bundle.root).open("fact")
    return CubePlanner(bundle.storage, FactCache(bundle.schema, heap=heap))


def wsgi_get(app, path_qs: str, method: str = "GET"):
    """Run one request through a WSGI app; returns ``(status, body)``."""
    path, _, query = path_qs.partition("?")
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = headers

    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
    }
    body = b"".join(app(environ, start_response))
    return captured["status"], body
