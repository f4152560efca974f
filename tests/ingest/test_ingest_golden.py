"""Pinned bytes of streamed generations: the SHA-256 of the container
each of five records commits, for a CURE and a CURE+ cube.

A change to the delta merger or to the container writer that moves one
relation row or one byte shows here, record by record.  The digests were
taken on the commit before the merger began keeping group keys, so they
also hold that change to the bytes the merger wrote before it.  They
were re-pinned once since, when the container directory's ``meta``
dropped the ``cube_prefix`` and ``fact_relation`` keys (no reader had
one): that commit's parent, with only those two keys removed, writes the
same bytes.  They moved once more when the directory ``meta`` gained
``min_count``: every section's SHA-256 is the one the commit before
wrote, and only the directory differs.

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
        "cfc78e8e52416a824804a93131ef7b8a929af5805036b534ae36b94945fdad5e",
        "968eb6693318d15ae5852cf69d76b5df819df2c8244cecd7e36b211f70375878",
        "afb15e3348e9fb118819bcc0d91dc115756711232fa8d5b10da55da6d4173408",
        "8ab2e2cc8a400366f62a032ad91b6ad4bb62dc76a124bc447494a6bd8915970f",
        "698eef53757f48c15b32bc496dfbcd06b6af9f755d209ea289b94bf902477368",
    ],
    "CURE+": [
        "204a0965cb322939aaf778d6714d052f16ed6255c79687449643e028cef338a4",
        "cf321b14d7f78ddbe353fa3524293527fdec47bcaaef30b8ea8b1efdbf3fc7f4",
        "75e62257a095d3a61c9041cd06d9ba2d877d1d290e9446f5d62bfd7c8ff7a371",
        "55a3b9ad599ade64caf23c10374b965e81daf72a54523ca269e6d7d81fb241c5",
        "b2797e75fb945270b5781af0718572a9e0f3a1edae7234ba6ee2b7fac0f5e920",
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
