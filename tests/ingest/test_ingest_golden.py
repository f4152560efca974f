"""Pinned bytes of streamed generations: the SHA-256 of the container
each of five records commits, for a CURE and a CURE+ cube.

A change to the delta merger or to the container writer that moves one
relation row or one byte shows here, record by record.  The digests were
taken on the commit before the merger began keeping group keys, so they
also hold that change to the bytes the merger wrote before it.

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
        "99e0160e36d247e4e99aeb4f402b18a5d762333374379bc758db2b7938b2d2e9",
        "598a4a1473fc1155ba77755f6ad952c15be28eb136026e53d0cbaa87e057e012",
        "5ae28bcd30516c9cd2764c1fce330b23dedfc68a004ca447d089753a112d0a8e",
        "42c1533025f18f0cdd22ac1539e344318fbbcb2a4a10690fd61818aa6057c351",
        "bdce8bd2cb9ace77c3f94e705e304545928fcea1e5d917edd600d3e42410f958",
    ],
    "CURE+": [
        "7a950d546a54f2fa4ef73e0f27377435e9150ef6bf4d9c26e929ce232ae3900d",
        "2030f42a58d38ea958bc5854f77ed72413c4f359d96307befcba59510093ff5a",
        "7c9aabd6323e3ff55bfd9c0f1ec566527c90d9a3d7c5d1a5b237a60968426968",
        "64077601366eb65647a7babe8c6477849c47a13d102aebdc4a08b198fec6bb77",
        "c7428d57abd0bd41afb01e13f9d2faf9e823f38bc7c8dc120419d86d724e38f2",
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
