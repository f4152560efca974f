"""Byte identity of built cubes *across commits*, not only across paths.

The pairwise suites (sequential↔parallel, v1↔v2, crash↔resume) build both
sides with the same builder, so they stay green if both sides drift
together.  This suite pins, per variant, the SHA-256 of every file
``save_bundle`` writes (each v1 relation, the meta files, the fact heap)
and of the published ``cube.v2``, over one fixed seeded dataset.  The
digests below were computed on the commit *before* the plan-edge-at-a-time
builder landed; a builder, pool or storage change that moves one byte of
any variant fails here.

Regenerate (only when a format change is intended, on the commit whose
bytes become the new reference) with::

    PYTHONPATH=src python tests/integration/test_build_golden.py
"""

from __future__ import annotations

import hashlib
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
from repro.storage2 import V2File, publish_v2_bundle
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

#: case → (files written, digest over every file's SHA-256, cube.v2 SHA-256)
GOLDEN: dict[str, tuple[int, str, str]] = {
    "CURE": (
        392,
        "dbd888456ece9aa09049de652303bc32feb1c208fcf52186ccf639e4d29fd311",
        "308cf549bf9cacc1c173df9eb24d2ffcade9f8acc1cd3f411efceacfa59d9034",
    ),
    "CURE+": (
        392,
        "f1b462835a809eb584918661aaf26fa6fa804ffa775e22bb8436583ff37f7b42",
        "ad7ae700ca9ea14a9daeb6a4f9f0e5f89beb198797c14f5f9cff580d5cca6bef",
    ),
    "CURE_DR": (
        392,
        "df257a863bc067d52bf0d20561b29e197fc89d20fb53dd2e148959f0c1bc8aec",
        "594fa7446e40f7e08f42d87ab2fd543f46ba809998c18598057ee68a25fc8b00",
    ),
    "FCURE": (
        74,
        "cc9f032689025dd960ead70bc4fd399932c55a893ca881c49e8950e9b5232438",
        "f9f848ff00004c6d715808ae3ab0072179953f234ddf2f75b6231fa628c4adfb",
    ),
    "iceberg3": (
        332,
        "4ace835c145818fd283bc312a76daa827cd0238544963040e098cf7473b575c3",
        "a06f0fd3cf3e6f18b6f08773682454a9240d73341652b214dc1486a0c8db8cd4",
    ),
    "partitioned": (
        396,
        "17a593bdc579eab56570aea5c03352cd522bad987d274f331e3471e18d3b2301",
        "7cea2b556fd8bd97b90a5d5de471ae1b504dac291b265f2874cbfbe6d156fbf9",
    ),
    "partitioned_pair": (
        394,
        "04bdc3070d083c32bbb7e11a7662d8cd2ea0c73fcb576a824608d724f7c4c049",
        "54df64132c0bb80b7e905d9c59aa28c1ca9e049cadfdedaa0fff5baf7346aa99",
    ),
    "partitioned_DR": (
        396,
        "84c28365581e6fe0942fc2e17d62871d8bb8c8d8ccd54a3be87c4978d7b65db0",
        "9c053e6006fc0b4b81191ea767a79db8ad300e7fa4474e7ae1f9f5e49c5965e8",
    ),
    "partitioned_pair_DR": (
        394,
        "08ad81f48909b5a672c7a36f3b431ead16058f8533ed71178253eda41a122eaf",
        "1dcf79cbc81150095725d0ff2526fb2da00d1bdcf95be949190dadcc1da6cdb0",
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


def build_digests(case: str, work: Path) -> tuple[int, str, str]:
    bundle = build_case_bundle(case, work)
    files = sorted(p for p in bundle.iterdir() if p.is_file())
    manifest = "".join(f"{p.name}:{_sha256(p)}\n" for p in files)
    v1_digest = hashlib.sha256(manifest.encode()).hexdigest()
    v2_digest = _sha256(publish_v2_bundle(bundle))
    return len(files), v1_digest, v2_digest


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
    file = V2File.open(publish_v2_bundle(build_case_bundle(case, tmp_path)))
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
