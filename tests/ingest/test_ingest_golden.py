"""Pinned bytes of streamed generations: the SHA-256 of the container
each of five records commits, for a CURE and a CURE+ cube.

A change to the delta merger or to the container writer that moves one
relation row or one byte shows here, record by record.  The digests were
taken on the commit before the merger began keeping group keys, so they
also hold that change to the bytes the merger wrote before it.  They
were re-pinned once since, when the container directory's ``meta``
dropped the ``cube_prefix`` and ``fact_relation`` keys (no reader had
one): that commit's parent, with only those two keys removed, writes the
same bytes.

Regenerate (only when a format change is intended) with::

    PYTHONPATH=src:. python tests/ingest/test_ingest_golden.py
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro import CubeSchema, linear_dimension, make_aggregates
from repro.ingest import StreamingIngestor
from repro.relational.catalog import Catalog
from repro.relational.durable import file_checksum
from repro.relational.engine import Engine
from repro.relational.memory import MemoryManager
from tests.support.rows import table_of

RECORDS = 5

GOLDEN: dict[str, list[str]] = {
    "CURE": [
        "453fa51293bdb0a4268ac2cda5cd206ce3176facf49fe60ccdca0a30f1617227",
        "2324501611970b01654aaf31bb6caa05c5dda9fc31a580725d02200f5d6fe845",
        "29fa0ec6c2148b107966097a485f603817b67bb0e225593ea389ebe38cbe1879",
        "774b19379b4c16a7f239e21c4e38c1e9ba3635df07d92270f62605c5dcb05c35",
        "78bdf685457cd6654815350cb8133c3d9988926823dc12777e0c415db254e1fa",
    ],
    "CURE+": [
        "04c18ac0942167faef118b93c2e1a021582552ff8832df36f5c432064f7693c2",
        "7eb118d4dc3269b6db0f974d619bbb32ff9afd1ed28595e759e3955509d78ef9",
        "7e40a432968ef77805ac5a0d3497a58eec61a9b938f6237484eaddb47c8e79e5",
        "07c21a58db7aa3f2672cccab485b39f4a18efe2ec3d237408a702cbc653bc23c",
        "82c1db6558b7e16c160ca378ab4bd1374dfd8afa651c351524fa168c112bc5c1",
    ],
}


def schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 24), ("A1", 6), ("A2", 2)])
    b = linear_dimension("B", [("B0", 10), ("B1", 3)])
    c = linear_dimension("C", [("C0", 4)])
    return CubeSchema(
        (a, b, c),
        make_aggregates(("sum", 0), ("count", 0), ("max", 0)),
        n_measures=1,
    )


def rows(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    return [
        (rng.randrange(24), rng.randrange(10), rng.randrange(4), rng.randrange(-50, 100))
        for _ in range(count)
    ]


def digests(root: Path, plus: bool) -> list[str]:
    """The committed container's SHA-256 after each record."""
    rng = random.Random(53)
    cube_schema = schema()
    engine = Engine(Catalog(root / "catalog"), MemoryManager())
    try:
        ingestor = StreamingIngestor.bootstrap(
            cube_schema,
            engine,
            table_of(cube_schema.fact_schema, rows(rng, 300)),
            root / "log",
            plus=plus,
        )
        found = []
        for _ in range(RECORDS):
            ingestor.append(rows(rng, 25))
            ingestor.log.seal()
            assert ingestor.apply_ready() == 1
            ingestor.checkpoint()
            container = engine.catalog.root / f"stream.g{ingestor.generation}.cube.v2"
            found.append(file_checksum(container))
        return found
    finally:
        engine.close()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_generation_bytes_after_each_record(variant, tmp_path):
    assert digests(tmp_path, variant == "CURE+") == GOLDEN[variant]


if __name__ == "__main__":
    import tempfile

    for name in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as scratch:
            print(f"    {name!r}: [")
            for digest in digests(Path(scratch), name == "CURE+"):
                print(f"        {digest!r},")
            print("    ],")
