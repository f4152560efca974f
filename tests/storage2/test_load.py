"""``load_v2``: a container back into mutable structures, fail closed.

The mapped path (``open_v2``) serves a container read-only; streaming
ingest recovers through :func:`repro.storage2.load.load_v2` instead, and
what it gets must be the cube that was written — same relations in the
same order, same metadata, a fact table it can append to — detached from
the file, with array views already installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incremental import apply_delta
from repro.core.postprocess import postprocess_plus
from repro.core.variants import VARIANTS
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.storage2 import V2File, V2FormatError, load_v2, write_v2
from repro.storage2.format import SectionCorruption
from tests.server.conftest import serving_fact, serving_schema
from tests.storage2.test_corruption import flip_byte
from tests.support.rows import aggregates_rows, cat_rows, nt_rows, tt_rowids


@pytest.fixture
def written(tmp_path):
    schema = serving_schema()
    fact = serving_fact(schema, n=300)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    result.storage.update_drift_bytes = 24  # metadata must survive too
    path = write_v2(
        tmp_path / "stream.g0.cube.v2", schema, result.storage, fact.as_batch()
    )
    return schema, fact, result.storage, path


def test_load_round_trips_the_cube_and_fact_table(written):
    schema, fact, original, path = written
    storage, table = load_v2(path, schema)
    assert table.to_rows() == fact.to_rows()
    assert table.as_batch().length == len(fact)
    assert sorted(storage.nodes) == sorted(original.nodes)
    for node_id, store in original.nodes.items():
        loaded = storage.nodes[node_id]
        assert nt_rows(loaded) == nt_rows(store)
        assert tt_rowids(loaded) == tt_rowids(store)
        assert cat_rows(loaded) == cat_rows(store)
        if loaded.nt_count:
            assert loaded.nt_matrix().flags.owndata  # copied off the map
    assert aggregates_rows(storage) == aggregates_rows(original)
    assert storage.cat_format is original.cat_format
    assert storage.plus_processed and storage.update_drift_bytes == 24
    assert storage.fact_row_count == len(fact)


def test_loaded_cube_is_detached_and_maintainable(written):
    schema, _fact, _original, path = written
    storage, table = load_v2(path, schema)
    path.unlink()  # the next generation replaces the file; the cube lives on
    postprocess_plus(storage)
    rows = table.to_rows()
    delta = rows[:5] + [rows[-1]]
    apply_delta(storage, schema, table, delta)
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, table.to_rows(), node)
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


def test_load_fails_closed_on_any_loaded_section(written):
    schema, _fact, _original, path = written
    pristine = path.read_bytes()
    file = V2File.open(path)
    for name in ("node/0/nt", "aggregates", "fact/dim/0", "fact/measure/0"):
        path.write_bytes(pristine)
        flip_byte(path, file.entry(name).offset)
        with pytest.raises(SectionCorruption, match=name):
            load_v2(path, schema)
    path.write_bytes(pristine[: len(pristine) // 2])
    with pytest.raises(V2FormatError):
        load_v2(path, schema)


def test_load_rejects_a_row_count_the_directory_disowns(tmp_path, written):
    schema, fact, original, _path = written
    original.fact_row_count += 1
    path = write_v2(tmp_path / "lying.v2", schema, original, fact.as_batch())
    with pytest.raises(V2FormatError, match="rows"):
        load_v2(path, schema)


def test_bitmap_array_round_trip(written):
    """A CURE+ TT list long enough to be charged as a bitmap is stored as
    the sorted array itself and loads back as that array, charged the
    same: one cube, one logical size."""
    schema, _fact, original, path = written
    storage, _table = load_v2(path, schema)
    bitmap_bytes = (original.fact_row_count + 7) // 8
    charged_as_bitmaps = [
        node_id
        for node_id, store in original.nodes.items()
        if store.tt_count * 4 > bitmap_bytes
    ]
    assert charged_as_bitmaps
    for node_id in charged_as_bitmaps:
        rowids = storage.nodes[node_id].tt_array()
        assert rowids.tolist() == tt_rowids(original.nodes[node_id])
        assert (np.diff(rowids) > 0).all()
    assert storage.size_report() == original.size_report()
