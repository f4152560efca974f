"""Byte identity of built cubes *across commits*, not only across paths.

The pairwise suites (sequential↔parallel, built↔mapped, crash↔resume)
build both sides with the same builder, so they stay green if both sides
drift together.  This suite pins, per variant, over one fixed seeded
dataset: the SHA-256 of every file ``save_bundle`` writes (``bundle.json``,
the fact heap, ``cube.v2``), of ``cube.v2`` alone, and of what the
container *holds* (:func:`content_digest`) — which no codec or layout
change moves.  A builder, pool or storage change that moves one byte of
any variant fails here.  The content digests were computed on the commit
before ``save_bundle`` encoded ``cube.v2`` from memory, when it was still
re-read from v1 heap relations, and have not moved since.

Regenerate (only when a format change is intended, on the commit whose
bytes become the new reference) with::

    PYTHONPATH=src python tests/integration/test_build_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import (
    VARIANTS,
    CubeSchema,
    Engine,
    Table,
    complex_dimension,
    flat_dimension,
    linear_dimension,
    make_aggregates,
    save_bundle,
)
from repro.core.signature import SignaturePool
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from repro.storage2 import V2_FILE, V2File
from repro.storage2.codecs import NARROW, RAW
from repro.storage2.format import V2Writer

SEED = 20060912
N_ROWS = 8000
POOL_CAPACITY = 1500  # ~28k signatures on the hierarchical builds: 20 flushes

#: case → (config name, min_count, share of the fact bytes the memory
#: budget leaves beyond the pool; None builds in memory).  0.6 partitions
#: on one level of Store (3 partitions), 0.4 falls back to (Store, Product)
#: pairs (4 partitions).
CASES = {
    "CURE": ("CURE", 1, None),
    "CURE+": ("CURE+", 1, None),
    "CURE_DR": ("CURE_DR", 1, None),
    "FCURE": ("FCURE", 1, None),
    "iceberg3": ("CURE", 3, None),
    "partitioned": ("CURE", 1, 0.6),
    "partitioned_pair": ("CURE", 1, 0.4),
    "partitioned_DR": ("CURE_DR", 1, 0.6),
    "partitioned_pair_DR": ("CURE_DR", 1, 0.4),
}

#: case → (files written, digest over every file's SHA-256, cube.v2
#: SHA-256, content digest of cube.v2)
GOLDEN: dict[str, tuple[int, str, str, str]] = {
    "CURE": (
        4,
        "2a056118800aad8c130e569af5100b6f6d392890109438b80b4a435bf95c587a",
        "632db4392115165a7c9bc8063fead017923df695c91f0388eade92640e3d0a50",
        "6d1e1d15a0d46f7e3d5944d5612d1938190ed679e4abf3343bb29d8e1ea005f5",
    ),
    "CURE+": (
        4,
        "c8730c06c191178c8ad110ab87c514bff4e0473d4aa47c66cda22774a0df0504",
        "3a262788e2f9972173f2f3eb29ea864baf8373fb58ab22f8b7a03008c32eb280",
        "2adb3d0cce59596b7ed1e7f101fbcf7f440ad61911b79be425f61e729c44707b",
    ),
    "CURE_DR": (
        4,
        "3d2917a94b49dfffd7f4ee36ff4aa244eee1d15fd2e586b5f36f1e8e79591551",
        "83fdf30463097a2603e5f792d4b95eb7a7fb8dcc7fb2f699e45551a04652f147",
        "e92d9316c50c8d1e3531590fc073fe92290cddb2ca0690bb15136943c10fb54c",
    ),
    "FCURE": (
        4,
        "237eefb3b12144b7fccc0f23c3d3981ada6a19e21c31df320cc0aba5156582a6",
        "0ae5d6511a51f367cc7de1886a4ebec56b675ed7938fb586c5e2a270a5c48109",
        "480f87256d2f956aff25bc67e131de6de5494411306bc8e03ac56e392783ad8e",
    ),
    "iceberg3": (
        4,
        "64dd89217e460e7f921b6e8720f78beae946d4d2d4d441a8a2aae00b5eb337d5",
        "3289f5252fa333d4697e72bc9a0515846ad1ee746ed79d74d314dc0722854839",
        "5f9e85cf992b4fb014ac39332b10347e6046d0ea47182af20ea72d6ec2eab4ec",
    ),
    "partitioned": (
        4,
        "ef0059954102b2d33fadca462a9941e910dd24cb5940af110d176a07f76d8f89",
        "5c7308f1f9f1627a0befc740767f1da8520041b0781ccd019b9aaf0692fe7b23",
        "437f4188318aad851400e23296fcaa90b1df84d48807263dfe2d8432ebd1284a",
    ),
    "partitioned_pair": (
        4,
        "0e85e9ff506324898131e592d575ed440fc2259368fde7468e82036d0f32330a",
        "0fa18581e078b806e1c2ebcdd85c0282b35f6d5ec9cf731bf7dcc2ac6080e43f",
        "2cf109493810a6b3277b4c84e38fae0507b2b24df25cebeff4a99b506bed574e",
    ),
    "partitioned_DR": (
        4,
        "805e6e11e7dbe730235fb7e20a1eb3bc176feb9eda7d94a23050dfbf53e9965b",
        "3afff6969a55b47194d2ec63e62adf0ba1e6482980242eb2b7fb01408b62aedb",
        "4e1a06d8575ad3457090447c08aeb5222a7681e91172c5317a1a7669464c6817",
    ),
    "partitioned_pair_DR": (
        4,
        "0c83aed10bb574d262e8a874d6254634cde78ae81bb2805609838682e726700a",
        "584b2183cc2500a2acc8c83d9b68b91bd35396e615e7ae0fed9935bee6852ea3",
        "90c69fc88bd5926c53d24aed459e5199e0cb64ea3dca27d94ce11d8daa3fe289",
    ),
}


def golden_schema() -> CubeSchema:
    """Two leading chains (single-level and pair partitioning descend
    them), a complex hierarchy whose base level has two dashed children,
    and a flat dimension."""
    store = linear_dimension("Store", [("store", 40), ("city", 8), ("region", 2)])
    time = complex_dimension(
        "Time",
        [("day", 12), ("week", 4), ("month", 3)],
        [list(range(12)), [d // 3 for d in range(12)], [d % 3 for d in range(12)]],
        [(1, 2), (3,), (3,)],
    )
    product = linear_dimension("Product", [("item", 10), ("category", 3)])
    channel = flat_dimension("Channel", 3)
    return CubeSchema(
        (store, product, time, channel),
        make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )


def golden_table(schema: CubeSchema) -> Table:
    """Skewed codes (TTs in the sparse corners, CATs from the small
    measure domain), fixed by the seed."""
    rng = np.random.default_rng(SEED)
    columns = []
    for dimension in schema.dimensions:
        cardinality = dimension.base_cardinality
        weights = 1.0 / np.arange(1, cardinality + 1) ** 0.7
        columns.append(
            rng.choice(cardinality, size=N_ROWS, p=weights / weights.sum())
        )
    columns.append(rng.integers(1, 6, size=N_ROWS))
    rows = [tuple(int(v) for v in row) for row in zip(*columns)]
    return Table(schema.fact_schema, rows)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_case_bundle(case: str, work: Path) -> Path:
    """Build one case and ``save_bundle`` it; returns the bundle directory."""
    config_name, min_count, budget_share = CASES[case]
    config = VARIANTS[config_name].with_pool(POOL_CAPACITY).with_min_count(
        min_count
    )
    schema = golden_schema()
    table = golden_table(schema)
    if budget_share is not None:
        budget = SignaturePool.size_bytes(
            POOL_CAPACITY, schema.n_aggregates
        ) + int(table.size_bytes * budget_share)
        engine = Engine(Catalog(work / "engine"), MemoryManager(budget))
        try:
            engine.store_table("fact", table)
            result, _plus = config.build(schema, engine=engine, relation="fact")
        finally:
            engine.destroy()
        assert result.stats.partitioned
        assert case.startswith("partitioned_pair") == (
            result.storage.partition_level2 is not None
        )
    else:
        result, _plus = config.build(schema, table=table)
    if config_name != "FCURE":
        assert result.pool_stats.flushes >= 3
    return save_bundle(work / "bundle", schema, table, result.storage)


def content_digest(path: Path) -> str:
    """SHA-256 of what a container holds, independent of how: every
    section's name, dtype, shape and decoded array bytes, in directory
    order, then the directory ``meta``."""
    file = V2File.open(path)
    digest = hashlib.sha256()
    for name in file.names():
        array = np.ascontiguousarray(file.array(name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}\n".encode())
        digest.update(array.tobytes())
    digest.update(json.dumps(file.meta, sort_keys=True).encode())
    return digest.hexdigest()


def build_digests(case: str, work: Path) -> tuple[int, str, str, str]:
    bundle = build_case_bundle(case, work)
    files = sorted(p for p in bundle.iterdir() if p.is_file())
    manifest = "".join(f"{p.name}:{_sha256(p)}\n" for p in files)
    files_digest = hashlib.sha256(manifest.encode()).hexdigest()
    container = bundle / V2_FILE
    return (
        len(files), files_digest, _sha256(container), content_digest(container)
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_bytes_match_parent_commit(case, tmp_path):
    assert build_digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_section_reads_back_the_array_it_was_given(
    case, tmp_path, monkeypatch
):
    """The digests pin the container's bytes; this pins what they decode
    to: every array handed to ``V2Writer.add_array`` — narrowed or not —
    comes back from ``V2File.array`` with its values, dtype and shape."""
    given: dict[str, np.ndarray] = {}
    add_array = V2Writer.add_array

    def recording(writer, name, array):
        given[name] = np.array(array)
        add_array(writer, name, array)

    monkeypatch.setattr(V2Writer, "add_array", recording)
    file = V2File.open(build_case_bundle(case, tmp_path) / V2_FILE)
    assert file.verify_all() == []
    arrays = [n for n in file.names() if file.entry(n).codec in (NARROW, RAW)]
    assert sorted(given) == arrays
    assert {file.entry(n).codec for n in arrays} == {NARROW}
    for name, array in given.items():
        decoded = file.array(name)
        assert decoded.dtype == array.dtype == np.int64, name
        assert decoded.shape == array.shape, name
        assert decoded.flags.c_contiguous, name
        assert np.array_equal(decoded, array), name


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            print(f"    {name!r}: {build_digests(name, Path(scratch))!r},")
