"""Structural check: no tuple per fact row between the CSV and ``cube.v2``.

A build pass — ``load_csv`` → ``CureConfig.build`` → ``save_bundle``
(which publishes ``cube.v2``) → ``open_bundle`` — moves the fact relation
as columns the whole way: ``src/`` has no bridge between tuples and
columns left to call.  What remains to guard is the heap's row-id
gather: ``HeapFile.read_batch`` is patched to raise, and the pass must
still succeed with the table in memory, through ``Engine.store_table``
and a heap-file load, and under a memory budget that forces the
Section 4 partition pass, which reads the fact relation only in
whole sequential passes.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    VARIANTS,
    DimensionSpec,
    Engine,
    load_csv,
    open_bundle,
    save_bundle,
)
from repro.core.signature import SignaturePool
from repro.relational.batch import ColumnBatch
from repro.relational.catalog import Catalog
from repro.relational.heap import HeapFile
from repro.relational.memory import MemoryManager

N_ROWS = 240


@pytest.fixture
def fact_csv(tmp_path):
    lines = ["store,city,product,channel,units,dollars"]
    for i in range(N_ROWS):
        store = (i * 7) % 23
        lines.append(
            f"s{store},c{store % 5},p{(i * 3) % 11},h{i % 3},"
            f"{1 + i % 9},{100 + (i * 37) % 900}"
        )
    path = tmp_path / "fact.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def no_row_bridges(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a build pass gathered fact rows by row-id")

    monkeypatch.setattr(HeapFile, "read_batch", refuse)
    for tuple_api in ("from_rows", "to_rows", "iter_rows"):
        assert not hasattr(ColumnBatch, tuple_api)


@pytest.mark.parametrize("mode", ["memory", "heap", "partitioned"])
def test_build_pass_never_transposes(tmp_path, fact_csv, no_row_bridges, mode):
    loaded = load_csv(
        fact_csv,
        [
            DimensionSpec.of("Store", "store", "city"),
            DimensionSpec.of("Product", "product"),
            DimensionSpec.of("Channel", "channel"),
        ],
        ["units", "dollars"],
    )
    schema, table = loaded.schema, loaded.table
    config = VARIANTS["CURE+"].with_pool(1_000)
    if mode == "memory":
        result, _plus = config.build(schema, table=table)
    else:
        budget = None
        if mode == "partitioned":
            budget = (
                SignaturePool.size_bytes(1_000, schema.n_aggregates)
                + 100 * schema.partition_schema.row_size_bytes
            )
        engine = Engine(Catalog(tmp_path / "engine"), MemoryManager(budget))
        try:
            engine.store_table("fact", table)
            result, _plus = config.build(schema, engine=engine, relation="fact")
        finally:
            engine.destroy()
        assert result.stats.partitioned == (mode == "partitioned")
    bundle_dir = save_bundle(
        tmp_path / "bundle", schema, table, result.storage
    )
    with open_bundle(bundle_dir) as bundle:
        assert bundle.fact_row_count == N_ROWS
        for served, built in zip(
            bundle.v2.fact.as_batch().arrays, table.as_batch().arrays
        ):
            assert np.array_equal(served, built)


#: The tuple API that left ``src/``: heap record readers, the row bridges
#: of ``ColumnBatch`` / ``Table``, the fact cache's tuple fetches, the
#: ``RowSource`` protocol and the ``struct`` record layout.
TUPLE_API = re.compile(
    r"\bread_rows?\b|read_rows_sequential|append_many|\.scan\(\)|fetch_many"
    r"|RowSource|iter_rows|from_rows|to_rows|struct_format|struct_code"
)


def test_src_keeps_no_tuple_api():
    src = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(src)}:{number}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if TUPLE_API.search(line)
    ]
    assert found == []
