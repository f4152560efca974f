"""Fail closed on values: a container whose every checksum is valid but
whose bytes hold a row-id, an A-rowid or a code outside its column's
domain must raise :class:`ValueOutOfDomain`, never answer.

Each case mutates one value of a built cube in memory and saves it, so
the writer signs the bad value and only the reader's domain table
stands between it and a query.  Before the table, a negative row-id
wrapped to the last fact rows and answered, and one past the fact
table raised ``IndexError`` (an HTTP 500).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bundle import open_bundle, save_bundle
from repro.core.storage import CatFormat
from repro.core.variants import VARIANTS
from repro.query.planner import QueryRequest
from repro.relational.batch import ColumnBatch
from repro.relational.durable import atomic_write_chunks
from repro.relational.table import Table
from repro.storage2 import verify_v2
from repro.storage2.format import V2File, V2Writer, ValueOutOfDomain
from tests.server.conftest import serving_fact, serving_schema

N_ROWS = 400


def _first(storage, relation):
    for node_id in sorted(storage.nodes):
        store = storage.nodes[node_id]
        if getattr(store, f"{relation}_count"):
            return node_id, getattr(store, relation)
    raise AssertionError(f"the cube has no {relation} relation")


def _nt_rowid(value):
    def mutate(storage, columns):
        node_id, relation = _first(storage, "nt")
        rows = relation.array().copy()
        rows[0, 0] = value(N_ROWS)
        relation.replace(rows)
        return f"node/{node_id}/nt"

    return mutate


def _tt_rowid(value, at):
    def mutate(storage, columns):
        node_id, relation = _first(storage, "tt")
        rowids = relation.array().copy()
        rowids[at] = value(N_ROWS)
        relation.replace(rowids)
        return f"node/{node_id}/tt"

    return mutate


def _cat_arowid(value):
    def mutate(storage, columns):
        node_id, relation = _first(storage, "cat")
        rows = relation.array().copy()
        column = 0 if storage.cat_format is CatFormat.COMMON_SOURCE else 1
        rows[0, column] = value(storage.aggregates_count)
        relation.replace(rows)
        return f"node/{node_id}/cat"

    return mutate


def _fact_code(storage, columns):
    columns[0][-1] = storage.schema.dimensions[0].base_cardinality
    return "fact/dim/0"


#: Item 14's table, one case a row, plus a fact code past its cardinality.
MUTATIONS = {
    "NT row-id -1": _nt_rowid(lambda rows: -1),
    "TT row-id -2": _tt_rowid(lambda rows: -2, at=0),
    "CAT A-rowid -1": _cat_arowid(lambda aggregates: -1),
    "NT row-id |R|": _nt_rowid(lambda rows: rows),
    "TT row-id |R| + 5": _tt_rowid(lambda rows: rows + 5, at=-1),
    "CAT A-rowid 10**9": _cat_arowid(lambda aggregates: 10**9),
    "CAT A-rowid |AGGREGATES|": _cat_arowid(lambda aggregates: aggregates),
    "fact code = base cardinality": _fact_code,
}


def mutated_bundle(directory, mutate):
    """A CURE+ bundle saved after ``mutate`` changed one value; returns
    the bundle's root and the section that holds the value."""
    schema = serving_schema()
    fact = serving_fact(schema, n=N_ROWS)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    columns = [np.array(column) for column in fact.as_batch().arrays]
    section = mutate(result.storage, columns)
    fact = Table.from_batch(ColumnBatch.from_arrays(schema.fact_schema, columns))
    return save_bundle(directory, schema, fact, result.storage), section


def answer_every_node(bundle):
    planner = bundle.planner()
    for node in bundle.schema.lattice.nodes():
        planner.answer(QueryRequest.of(node))


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_out_of_domain_value_fails_closed(tmp_path, case):
    root, section = mutated_bundle(tmp_path / "bundle", MUTATIONS[case])
    with open_bundle(root) as bundle:
        with pytest.raises(ValueOutOfDomain, match=section):
            answer_every_node(bundle)
        cardinalities = [d.base_cardinality for d in bundle.schema.dimensions]
    report = verify_v2(root / "cube.v2", cardinalities)
    assert not report.ok
    [bad] = [s for s in report.sections if not s.ok]
    assert bad.name == section and "outside [0, " in bad.problem


def test_in_domain_extremes_answer(tmp_path):
    """The bounds are inclusive below and exclusive above: row-ids 0 and
    |R| − 1, A-rowid |AGGREGATES| − 1 and the last base code answer."""
    def mutate(storage, columns):
        _cat_arowid(lambda aggregates: aggregates - 1)(storage, columns)
        _tt_rowid(lambda rows: 0, at=0)(storage, columns)
        columns[0][-1] = storage.schema.dimensions[0].base_cardinality - 1
        return _nt_rowid(lambda rows: rows - 1)(storage, columns)

    root, _section = mutated_bundle(tmp_path / "bundle", mutate)
    with open_bundle(root) as bundle:
        answer_every_node(bundle)
    assert verify_v2(root / "cube.v2").ok


def test_domain_table_by_section_name(tmp_path):
    """The table keys on the section name and the directory's meta: a
    format (b) CAT matrix without its A-rowid column fails closed, a
    name outside the table is not checked, and fact codes are bounded by
    the cardinalities the caller gives."""
    target = tmp_path / "cube.v2"
    writer = V2Writer({"fact_row_count": 4, "cat_format": "b", "dr_mode": False})
    writer.add_array("node/1/cat", np.asarray([[3], [1]], dtype=np.int64))
    writer.add_array("node/1/tt", np.asarray([0, 3], dtype=np.int64))
    writer.add_array("fact/dim/x", np.asarray([-7], dtype=np.int64))
    writer.add_array("fact/dim/0", np.asarray([0, 2], dtype=np.int64))
    atomic_write_chunks(target, writer.chunks())
    file = V2File.open(target, [2])
    with pytest.raises(ValueOutOfDomain, match="no column 1"):
        file.array("node/1/cat")
    assert file.array("node/1/tt").tolist() == [0, 3]
    assert file.array("fact/dim/x").tolist() == [-7]
    with pytest.raises(ValueOutOfDomain, match=r"\[0, 2\)"):
        file.array("fact/dim/0")
    report = verify_v2(target, [3])
    assert [s.name for s in report.sections if not s.ok] == ["node/1/cat"]
