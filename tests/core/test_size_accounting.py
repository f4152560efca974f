"""One cube, one logical size: CURE+ accounting is a rule over sorted lists.

The paper's CURE+ pass (Section 5.3) stores a row-id list as a bitmap
over the relation it references when the bitmap is smaller.  The cube
holds only the sorted lists; :meth:`CubeStorage.size_report` charges a TT
list ``min(4·count, ⌈fact_rows/8⌉)`` and a duplicate-free format (a) CAT
list ``min(4·count, ⌈aggregates/8⌉)``.

``PINNED`` holds the reports of the commit that still converted lists
into in-memory bitmap objects, for cubes that held both kinds of bitmap:
flat and hierarchical, both CAT formats, CURE_DR, iceberg, built through
an engine in memory and partitioned, and after deltas re-plussed the way
streaming ingest does.  The rule must reproduce every field exactly, and
a reload — ``load_v2`` or the mapped ``open_v2`` — must not change it
(with bitmap objects, the reloaded cube reported the lists' full size).
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

from repro import Engine, Table, build_cube
from repro.core.incremental import apply_delta
from repro.core.model import CubeSchema
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CatFormat
from repro.datasets.apb import generate_apb_dataset
from repro.datasets.synthetic import generate_flat_dataset
from repro.hierarchy.builders import linear_dimension
from repro.relational.aggregates import make_aggregates
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from repro.storage2 import load_v2, open_v2, write_v2

A, B = CatFormat.COMMON_SOURCE, CatFormat.COINCIDENTAL

#: name → (nt_bytes, tt_bytes, cat_bytes, aggregates_bytes, n_relations,
#: n_nt, n_tt, n_cat, n_aggregate_rows).
PINNED = {
    "flat-3x4000-s5": (18376, 3500, 0, 0, 15, 2297, 10736, 0, 0),
    "flat-3x2000-z0.8-s1-a": (1512, 1750, 754, 7952, 21, 189, 5284, 1002, 994),
    "flat-3x4000-z0.0-s2-a": (488, 3008, 1245, 26008, 17, 61, 10689, 3260, 3251),
    "flat-4x3000-z0.5-s3-a": (1344, 3950, 1592, 20640, 29, 168, 15597, 2595, 2580),
    "flat-4x1500-z1.2-s4-a": (1976, 2820, 2402, 10688, 45, 247, 6153, 1442, 1336),
    "flat-2x2500-z0.8-s6-a": (1216, 939, 291, 6192, 10, 152, 2698, 776, 774),
    "flat-5x1000-z0.8-s7-a": (1432, 3181, 2171, 9112, 68, 179, 8468, 1181, 1139),
    "hier-400-s17-rule": (6852, 276, 3888, 1336, 44, 571, 330, 486, 167),
    "hier-400-s17-a": (6852, 276, 392, 3732, 44, 571, 330, 486, 311),
    "hier-400-s17-b": (6852, 276, 3888, 1336, 44, 571, 330, 486, 167),
    "hier-2000-s5-rule": (16464, 100, 2488, 1152, 32, 1372, 25, 311, 144),
    "hier-2000-s5-a": (16464, 100, 216, 3540, 32, 1372, 25, 311, 295),
    "hier-2000-s5-b": (16464, 100, 2488, 1152, 32, 1372, 25, 311, 144),
    "hier-1000-dr": (18028, 257, 3960, 1624, 38, 996, 157, 495, 203),
    "hier-1000-iceberg2-a": (11952, 0, 368, 4908, 35, 996, 0, 495, 409),
    "apb-a": (164004, 31230, 41725, 63816, 347, 13667, 64715, 16647, 5318),
    "flat-3x3000-engine-a": (1800, 2625, 1110, 11840, 20, 225, 8048, 1491, 1480),
    "hier-2000-partitioned-a": (19764, 136, 20, 360, 31, 1647, 34, 32, 30),
    "hier-2000-partitioned-b": (19764, 136, 256, 128, 31, 1647, 34, 32, 16),
    "hier-2000-delta1-a": (16668, 112, 212, 3804, 32, 1389, 28, 290, 317),
    "hier-2000-delta2-a": (17232, 88, 188, 3804, 32, 1436, 22, 249, 317),
    "hier-2000-delta3-a": (17544, 84, 164, 3804, 31, 1462, 21, 225, 317),
    "hier-2000-delta4-a": (17928, 72, 788, 3804, 30, 1494, 18, 197, 317),
    "hier-2000-delta1-b": (16668, 112, 2320, 1240, 32, 1389, 28, 290, 155),
    "hier-2000-delta2-b": (17232, 88, 1992, 1240, 32, 1436, 22, 249, 155),
    "hier-2000-delta3-b": (17544, 84, 1800, 1240, 31, 1462, 21, 225, 155),
    "hier-2000-delta4-b": (17928, 72, 1576, 1240, 30, 1494, 18, 197, 155),
}

FLAT_A = (  # (n_dims, n_tuples, zipf, seed), built with format (a) forced
    (3, 2000, 0.8, 1),
    (3, 4000, 0.0, 2),
    (4, 3000, 0.5, 3),
    (4, 1500, 1.2, 4),
    (2, 2500, 0.8, 6),
    (5, 1000, 0.8, 7),
)


def _values(storage) -> tuple[int, ...]:
    report = storage.size_report()
    return (
        report.nt_bytes,
        report.tt_bytes,
        report.cat_bytes,
        report.aggregates_bytes,
        report.n_relations,
        report.n_nt,
        report.n_tt,
        report.n_cat,
        report.n_aggregate_rows,
    )


def _plus(schema, table=None, cat_format=None, **options):
    forced = (
        contextlib.nullcontext()
        if cat_format is None
        else mock.patch(
            "repro.core.storage.choose_cat_format", lambda _s, _y: cat_format
        )
    )
    with forced:
        storage = build_cube(schema, table=table, **options).storage
    postprocess_plus(storage)
    return storage


def _hier_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 12), ("A1", 6), ("A2", 3)])
    b = linear_dimension("B", [("B0", 8), ("B1", 4)])
    c = linear_dimension("C", [("C0", 5)])
    return CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


def _hier_rows(schema, n, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(d.base_cardinality) for d in schema.dimensions)
        + (rng.randrange(1, 100),)
        for _ in range(n)
    ]


def _engine(root, table, budget=None) -> Engine:
    engine = Engine(Catalog(root), MemoryManager(budget))
    engine.store_table("fact", table)
    return engine


def cases(tmp_path):
    """Yield ``(name, schema, fact table, CURE+ storage)`` per pinned case;
    the delta cases yield one storage, maintained in place, four times."""
    schema, table = generate_flat_dataset(3, 4000, seed=5)
    yield "flat-3x4000-s5", schema, table, _plus(schema, table)
    for n_dims, n, zipf, seed in FLAT_A:
        schema, table = generate_flat_dataset(n_dims, n, zipf=zipf, seed=seed)
        name = f"flat-{n_dims}x{n}-z{zipf}-s{seed}-a"
        yield name, schema, table, _plus(schema, table, A)

    schema = _hier_schema()
    for n, seed in ((400, 17), (2000, 5)):
        table = Table(schema.fact_schema, _hier_rows(schema, n, seed))
        for fmt, tag in ((None, "rule"), (A, "a"), (B, "b")):
            yield f"hier-{n}-s{seed}-{tag}", schema, table, _plus(
                schema, table, fmt
            )
    table = Table(schema.fact_schema, _hier_rows(schema, 1000, 9))
    yield "hier-1000-dr", schema, table, _plus(schema, table, dr_mode=True)
    yield "hier-1000-iceberg2-a", schema, table, _plus(
        schema, table, A, min_count=2
    )

    apb_schema, table = generate_apb_dataset(0.4, scale=1 / 2000, seed=3)
    yield "apb-a", apb_schema, table, _plus(apb_schema, table, A)

    flat_schema, table = generate_flat_dataset(3, 3000, zipf=0.8, seed=8)
    engine = _engine(tmp_path / "in-memory", table)
    yield "flat-3x3000-engine-a", flat_schema, table, _plus(
        flat_schema, None, A, engine=engine, relation="fact"
    )
    engine.close()

    table = Table(schema.fact_schema, _hier_rows(schema, 2000, 13))
    budget = int(len(table) * schema.fact_schema.row_size_bytes * 0.8)
    engine = _engine(tmp_path / "partitioned", table, budget)
    for fmt, tag in ((A, "a"), (B, "b")):
        storage = _plus(
            schema, None, fmt, engine=engine, relation="fact", pool_capacity=100
        )
        assert storage.partition_level is not None
        yield f"hier-2000-partitioned-{tag}", schema, table, storage
    engine.close()

    for fmt, tag in ((A, "a"), (B, "b")):
        table = Table(schema.fact_schema, _hier_rows(schema, 2000, 11))
        storage = _plus(schema, table, fmt)
        rng = random.Random(23)
        for step in range(4):
            delta = _hier_rows(schema, 50, rng.randrange(1 << 30))
            apply_delta(storage, schema, table, delta)
            if step < 3:  # the last delta is left un-plussed
                postprocess_plus(storage)
            yield f"hier-2000-delta{step + 1}-{tag}", schema, table, storage


def test_size_report_reproduces_the_bitmap_accounting(tmp_path):
    seen = {}
    for name, _schema, _table, storage in cases(tmp_path):
        seen[name] = _values(storage)
    assert seen == PINNED


def test_one_cube_one_logical_size(tmp_path):
    """A reloaded CURE+ cube reports the size the built one did, though
    its TT and format (a) CAT lists are charged as bitmaps."""
    for name, schema, table, storage in cases(tmp_path):
        path = write_v2(
            tmp_path / f"{name}.cube.v2", schema, storage, table.as_batch()
        )
        built = _values(storage)
        assert _values(load_v2(path, schema)[0]) == built, name
        assert _values(open_v2(path, schema).storage) == built, name
