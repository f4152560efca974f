"""Structural check: no tuple per fact row between the CSV and ``cube.v2``.

A build pass — ``load_csv`` → ``CureConfig.build`` → ``save_bundle`` →
``publish_v2_bundle`` → ``open_bundle`` — moves the fact relation as
columns the whole way.  The two bridges between tuples and columns,
``ColumnBatch.from_rows`` and ``ColumnBatch.to_rows``, are patched to
raise, and the pass must still succeed: with the table in memory, and
through ``Engine.store_table`` and a heap-file load.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    VARIANTS,
    DimensionSpec,
    Engine,
    load_csv,
    open_bundle,
    save_bundle,
)
from repro.relational.batch import ColumnBatch
from repro.storage2 import publish_v2_bundle

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
        raise AssertionError("a build pass transposed fact rows")

    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(refuse))
    monkeypatch.setattr(ColumnBatch, "to_rows", refuse)


@pytest.mark.parametrize("through_engine", [False, True], ids=["memory", "heap"])
def test_build_pass_never_transposes(
    tmp_path, fact_csv, no_row_bridges, through_engine
):
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
    if through_engine:
        engine = Engine.temporary()
        try:
            engine.store_table("fact", table)
            result, _plus = config.build(schema, engine=engine, relation="fact")
        finally:
            engine.destroy()
    else:
        result, _plus = config.build(schema, table=table)
    bundle_dir = save_bundle(
        tmp_path / "bundle", schema, table, result.storage
    )
    publish_v2_bundle(bundle_dir)
    with open_bundle(bundle_dir) as bundle:
        assert bundle.v2 is not None
        assert bundle.fact_row_count == N_ROWS
        for served, built in zip(
            bundle.v2.fact.as_batch().arrays, table.as_batch().arrays
        ):
            assert np.array_equal(served, built)
