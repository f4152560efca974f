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
re-read from v1 heap relations.  The six non-DR ones moved once, when the
container stopped storing the inverted index: each is that commit's
digest over every section but ``index/*``.  The three DR ones (no index)
did not move then.  The four ``partitioned*`` cases (two of them DR) were
re-pinned since — all four digests and the pool counters (20 → 21
flushes) — when every partitioned build started flushing the signature
pool at each partition barrier, as a durable build always had: their
NT/CAT split follows those windows.  The in-memory cases did not move.
Every case's file and ``cube.v2`` digests moved once more when the
container became format version 3 (the version field of the header and
directory, and ``narrow`` gap columns); of the content digests only the
``CURE+`` one moved then, because the CURE+ pass started sorting NT and
format (b) CAT relations by R-rowid.  Every file and ``cube.v2`` digest
moved again when the container became format version 4 (only the version
field: a partitioned build now stores each trivial tuple once, and no
case here has a row alone in a coarse-phase group, so no content digest
and no counter moved).  All three digests of every case moved once more
when ``bundle.json`` became the directory's versioned commit document
(it now names ``cube.v2`` with its SHA-256) and the container directory's
``meta`` dropped the ``cube_prefix`` and ``fact_relation`` keys, which
no reader had: the content digest hashes that ``meta``, and each
``cube.v2`` digest is the one the parent commit writes with only those
two keys removed.  All three moved again when the directory ``meta``
gained ``min_count`` (the iceberg threshold, which decides whether a
stored cube can take a delta): every section's SHA-256 is the one the
commit before wrote, and only the directory differs.
The ``csv_retail`` case loads its input with ``load_csv`` from a seeded
CSV file (quoted fields, CRLF, non-ASCII members, decimal measures); its
digests were taken on the commit before the byte-level CSV reader, when
``csv.reader`` parsed the file, so they pin the reader to that parse.
Each case also pins the build's logical counters
(:data:`GOLDEN_COUNTERS`): the nodes, trivial tuples, signatures and sort
work of Figure 13, and the pool's flushes and runs.

Regenerate (only when a format change is intended, on the commit whose
bytes become the new reference) with::

    PYTHONPATH=src python tests/integration/test_build_golden.py
"""

from __future__ import annotations

import csv
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
from repro.core.cure import CubeResult
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv
from repro.core.signature import SignaturePool
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from repro.storage2 import V2_FILE, V2File
from repro.storage2.codecs import NARROW, RAW
from repro.storage2.format import V2Writer
from tests.support.rows import table_of

SEED = 20060912
N_ROWS = 8000
POOL_CAPACITY = 1500  # ~28k signatures on the hierarchical builds: 20 flushes in memory

#: The one case whose schema and fact table come from a CSV file through
#: ``load_csv`` (:func:`write_golden_csv`) instead of from codes.
CSV_CASE = "csv_retail"

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
    CSV_CASE: ("CURE", 1, None),
}

#: case → (files written, digest over every file's SHA-256, cube.v2
#: SHA-256, content digest of cube.v2)
GOLDEN: dict[str, tuple[int, str, str, str]] = {
    "CURE": (
        4,
        "b27cc89a266386d1cafaa256cf6b5dd39064586ece790c3d17ed935b925655b3",
        "f5148beed2b1091f22a27cc746320800eafcb0ad3ff7390054a1b7e506a3459d",
        "fc10ad1e0e23a9b8bde74c68b70464452ad89959689b72c442953770171d4b52",
    ),
    "CURE+": (
        4,
        "3f48628e464daf84c4e19ebc3c2bf28ac3d6e7765872ac69444500254bd2319f",
        "7979e221bd5b13956dcac521feae1eb8e2ff6bdc45fedcb13757e139a8913037",
        "d0a3e47dd8b4984f22de0f11e91ab98de71a1aff5e660d5f469298e374162749",
    ),
    "CURE_DR": (
        4,
        "61d2ae2a4601e3fccc307080c5550cbea1a20472ebdb4f23cfc705790b90edb3",
        "e11b72d4c451e8b927c5e0475f8eded9da53749df1177f639a3cee60b460258a",
        "87302cdee4ff66b03ff475626fb2d9973d7a04a8325d0f0713d316cc2eae2f6b",
    ),
    "FCURE": (
        4,
        "0313b0969a076d253db1b788c0d253781a7ea94c53692434a207431d181a4dc0",
        "1f76b64f4bd2c465b875a93ebe286a1634d44285ce678d2fcd7bfda51fddccd8",
        "5059904bf80bf87971aab6d6e057bbff20a945b35efe862075e3eb6b91f87b0b",
    ),
    "iceberg3": (
        4,
        "075b20278c4cdd15022cf3ee14d5990f60d05038142b73049309208c8f50ffc6",
        "77b4f81b629bea555ec4cc82d6c7a1e23c35064476443cb9ad6b35a03f9a7407",
        "3b9c1c734f0aac4cbe559eb203e5f171f6e9cdeabde35eadb476b10849fd02ac",
    ),
    "partitioned": (
        4,
        "4f122de47e8f7944057d437d44e0465727b956aa7a61696360c4aa43887623ed",
        "7a52148d4d244464d963bf081512d3038adcae847a2b4571656e5629ee7a1545",
        "8b04457205142f36c8e2a15fd537ce170d2e324e9da4f826c73261fc53a93d71",
    ),
    "partitioned_pair": (
        4,
        "a7c02b3b68dde3de9053dc85ef7b682e6b4269d7930258cf36492495e8bf3309",
        "e3e0f7ba581c2919375d3e94efdf8d51f5e6d2d89370069f4655521fb76ce26e",
        "145c2b8dbf819e77cf07bc61d8d96ec78aa7f68779158d3cb38a5817bf5faa59",
    ),
    "partitioned_DR": (
        4,
        "871f50edc2963f97c4061ed0083059901e54f6851454a62b89a06c43a43f5464",
        "ba631304eea2db3e064e46737c72a0621cb95dd1baa459acd2fb9f2b49e11156",
        "cdc9711f1d65875709734bcc545d97d84009acbe3c13be173df47b91f4bcb390",
    ),
    "partitioned_pair_DR": (
        4,
        "59d3df80a4c321f0ae150c08604d685bcf5520cd767ac273aedf7169eaaf6933",
        "1fa38084be95a1c293e6f9882c1a5269787bee15a05e963b808fda791b36ef64",
        "7ab0b38b25688b6117694b19908267bae4e21b8bb2078a3562806f2fbc8905f5",
    ),
    CSV_CASE: (
        4,
        "8729e6eaae4adcac0dbc2a841972e4e03c6dada376e6bd5df082f4b01e136f5f",
        "59fa42f3699b259eb71b75a504dcd9d03e6a091acb37135a3b45716c63eee49a",
        "57a2e5001561c8166c7fe3f111aa4c375dc379d35f1064e9caf919521aee3372",
    ),
}


#: case → the logical counters of Figure 13 and the signature pool:
#: ``BuildStats`` (nodes_aggregated, tt_written, signatures_emitted,
#: sort.keys_sorted, sort.comparison_sorts), then ``PoolStats`` (flushes,
#: nt_runs, cat_runs, cat_signatures).  Taken on the commit before the edge
#: kernel read weights, row-ids and COUNT off the segment layout; the
#: ``partitioned*`` pool counters since re-pinned for the partition-barrier
#: flush.
GOLDEN_COUNTERS: dict[str, tuple[int, ...]] = {
    "CURE": (28652, 7636, 28652, 757653, 13740, 20, 6731, 3235, 21921),
    "CURE+": (28652, 7636, 28652, 757653, 13740, 20, 6731, 3235, 21921),
    "CURE_DR": (28652, 7636, 28652, 757653, 13740, 20, 6731, 3235, 21921),
    "FCURE": (6937, 3359, 6937, 118739, 3179, 5, 1233, 680, 5704),
    "iceberg3": (22792, 0, 22792, 754025, 11926, 16, 6292, 2895, 16500),
    "partitioned": (28652, 7636, 28652, 414224, 13741, 21, 6829, 3253, 21823),
    "partitioned_pair": (
        28652, 7636, 28652, 323072, 13821, 21, 6736, 3315, 21916
    ),
    "partitioned_DR": (
        28652, 7636, 28652, 414224, 13741, 21, 6829, 3253, 21823
    ),
    "partitioned_pair_DR": (
        28652, 7636, 28652, 323072, 13821, 21, 6736, 3315, 21916
    ),
    CSV_CASE: (7301, 2983, 7301, 182959, 3518, 5, 6542, 360, 759),
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
    return table_of(schema.fact_schema, rows)


#: Members of the CSV case: quoted commas, doubled quotes, a line break
#: inside a field, non-ASCII text and names longer than eight bytes.
GOLDEN_CITIES = (
    "Athens", "Athens, GA", "Zürich", "São Paulo", "Kraków", '"Big" Apple',
    "Reykjavík", "Oslo", "Köln", "Lyon", "Ağrı", "Bergen",
)
GOLDEN_REGIONS = ("Europe", 'Americas, "New World"', "Nordics")
GOLDEN_CHANNELS = ("web", "store", "phone")
STORES_PER_CITY = 10
PRODUCTS_PER_CATEGORY = 6
N_CATEGORIES = 5


def write_golden_csv(path: Path) -> tuple[list, list]:
    """A seeded retail-style fact file, written by ``csv.writer`` (CRLF
    line ends, minimal quoting); returns the load's dimension and measure
    specs.  Units may be negative; prices are decimals at scale 100."""
    rng = np.random.default_rng(SEED)
    n_stores = len(GOLDEN_CITIES) * STORES_PER_CITY
    n_products = N_CATEGORIES * PRODUCTS_PER_CATEGORY

    def skewed(cardinality: int) -> np.ndarray:
        weights = 1.0 / np.arange(1, cardinality + 1) ** 0.7
        return rng.choice(cardinality, size=N_ROWS, p=weights / weights.sum())

    stores, products, channels = skewed(n_stores), skewed(n_products), skewed(3)
    units = rng.integers(-3, 20, size=N_ROWS)
    cents = rng.integers(1, 100_000, size=N_ROWS)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["store", "city", "region", "product", "category", "channel",
             "units", "price"]
        )
        for store, product, channel, unit, cent in zip(
            stores.tolist(), products.tolist(), channels.tolist(),
            units.tolist(), cents.tolist(),
        ):
            city = store // STORES_PER_CITY
            kiosk = "\nkiosk" if store % 17 == 0 else ""
            writer.writerow([
                f"{GOLDEN_CITIES[city]} #{store % STORES_PER_CITY}{kiosk}",
                GOLDEN_CITIES[city],
                GOLDEN_REGIONS[city % len(GOLDEN_REGIONS)],
                f"product number {product}",
                f"cat{product // PRODUCTS_PER_CATEGORY}",
                GOLDEN_CHANNELS[channel],
                unit,
                f"{cent // 100}.{cent % 100:02d}",
            ])
    dimensions = [
        DimensionSpec.of("Store", "store", "city", "region"),
        DimensionSpec.of("Product", "product", "category"),
        DimensionSpec.of("Channel", "channel"),
    ]
    measures = [MeasureSpec.of("units"), MeasureSpec.of("price", scale=100)]
    return dimensions, measures


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_case_bundle(case: str, work: Path) -> tuple[Path, CubeResult]:
    """Build one case and ``save_bundle`` it; returns the bundle directory
    and the build's result."""
    config_name, min_count, budget_share = CASES[case]
    config = VARIANTS[config_name].with_pool(POOL_CAPACITY).with_min_count(
        min_count
    )
    if case == CSV_CASE:
        csv_path = work / "facts.csv"
        loaded = load_csv(csv_path, *write_golden_csv(csv_path))
        schema, table = loaded.schema, loaded.table
    else:
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
    return save_bundle(work / "bundle", schema, table, result.storage), result


def build_counters(result: CubeResult) -> tuple[int, ...]:
    """The :data:`GOLDEN_COUNTERS` fields of one build."""
    stats, pool = result.stats, result.pool_stats
    return (
        stats.nodes_aggregated,
        stats.tt_written,
        stats.signatures_emitted,
        stats.sort.keys_sorted,
        stats.sort.comparison_sorts,
        pool.flushes,
        pool.nt_runs,
        pool.cat_runs,
        pool.cat_signatures,
    )


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


def bundle_digests(bundle: Path) -> tuple[int, str, str, str]:
    files = sorted(p for p in bundle.iterdir() if p.is_file())
    manifest = "".join(f"{p.name}:{_sha256(p)}\n" for p in files)
    files_digest = hashlib.sha256(manifest.encode()).hexdigest()
    container = bundle / V2_FILE
    return (
        len(files), files_digest, _sha256(container), content_digest(container)
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_bytes_match_parent_commit(case, tmp_path):
    bundle, result = build_case_bundle(case, tmp_path)
    assert bundle_digests(bundle) == GOLDEN[case]
    assert build_counters(result) == GOLDEN_COUNTERS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_section_reads_back_the_array_it_was_given(
    case, tmp_path, monkeypatch
):
    """The digests pin the container's bytes; this pins what they decode
    to: every array handed to ``V2Writer.add_arrays`` to be narrowed —
    stored narrow or not — comes back from ``V2File.array`` with its
    values, dtype and shape."""
    given: dict[str, np.ndarray] = {}
    add_arrays = V2Writer.add_arrays

    def recording(writer, sections, rowid_lists=()):
        for name, array in sections:
            if name not in rowid_lists:
                given[name] = np.array(array)
        add_arrays(writer, sections, rowid_lists)

    monkeypatch.setattr(V2Writer, "add_arrays", recording)
    file = V2File.open(build_case_bundle(case, tmp_path)[0] / V2_FILE)
    assert file.verify_all() == []
    assert not [n for n in file.names() if n.startswith("index/")]
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
            bundle, result = build_case_bundle(name, Path(scratch))
            print(f"    {name!r}: {bundle_digests(bundle)!r},")
            print(f"    # counters: {build_counters(result)!r}")
