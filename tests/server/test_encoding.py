"""The canonical encoder's bytes are pinned to the reference encoder.

``repro.server.encoding.encode_answer`` formats the ``rows`` array
column-wise and splices it behind ``json.dumps``-rendered metadata;
``tests/support/reference_encoding.py`` renders the whole payload
row-at-a-time through one ``json.dumps``.  Every byte must agree — on
the degenerate shapes hand-assembly could plausibly get wrong as much
as on ordinary answers.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro import CubeSchema, linear_dimension, make_aggregates
from repro.lattice.node import CubeNode
from repro.query.column_answer import ColumnAnswer
from repro.server import encoding
from repro.server.encoding import decode_answer, encode_answer
from tests.support.reference_encoding import reference_encode_answer

INT64 = np.iinfo(np.int64)


def schema_named(first: str = "A", level: str = "A0") -> CubeSchema:
    a = linear_dimension(first, [(level, 12), ("A1", 6)])
    b = linear_dimension("B", [("B0", 8)])
    return CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


SCHEMA = schema_named()
#: Grouping arity 2, 1 and 0 (the grand total: every dimension at ALL).
NODES = (CubeNode((0, 0)), CubeNode((1, 1)), CubeNode((2, 1)))

int64s = st.one_of(
    st.integers(INT64.min, INT64.max),
    st.integers(-5, 5),
    st.sampled_from(
        [INT64.min, INT64.max, 2**53, 2**53 + 1, -(2**53) - 1, 0, -1]
    ),
)


@st.composite
def answers(draw):
    node = draw(st.sampled_from(NODES))
    arity = len(node.grouping_dims(SCHEMA.dimensions))
    n_rows = draw(st.integers(0, 12))
    pairs = [
        (
            tuple(draw(int64s) for _ in range(arity)),
            tuple(draw(int64s) for _ in range(SCHEMA.n_aggregates)),
        )
        for _ in range(n_rows)
    ]
    params = draw(
        st.one_of(
            st.none(),
            st.just({"min_count": 3}),
            st.just(
                {"where": [{"dim": 0, "level": 0, "members": [1, 2]}]}
            ),
        )
    )
    kind = draw(st.sampled_from(["node", "slice", "rollup", "iceberg"]))
    as_pairs = draw(st.booleans())
    return node, pairs, kind, params, as_pairs


@settings(max_examples=200, deadline=None)
@given(answers())
@example((NODES[0], [], "node", None, True))
@example((NODES[2], [((), (7, 1))], "node", None, False))
@example(
    (NODES[0], [((3, 1), (5, 1)), ((0, 2), (-4, 1)), ((0, 2), (-9, 1))],
     "slice", {"where": []}, True)
)
def test_encoder_matches_the_reference_byte_for_byte(case):
    node, pairs, kind, params, as_pairs = case
    arity = len(node.grouping_dims(SCHEMA.dimensions))
    answer = ColumnAnswer.from_pairs(
        pairs, arity=arity, n_aggregates=SCHEMA.n_aggregates
    )
    body = encode_answer(SCHEMA, node, answer, kind=kind, params=params)
    # The reference also takes the oracle's pair lists directly.
    assert body == reference_encode_answer(
        SCHEMA, node, pairs if as_pairs else answer, kind=kind, params=params
    )
    payload, decoded = decode_answer(body)
    assert payload["count"] == len(pairs)
    assert decoded == pairs  # order-insensitive: rows arrive sorted


def test_grand_total_node_has_dims_of_shape_one_by_zero():
    answer = ColumnAnswer(
        0, 2, np.empty((1, 0), dtype=np.int64), np.array([[41, 3]])
    )
    body = encode_answer(SCHEMA, NODES[2], answer)
    assert body == reference_encode_answer(SCHEMA, NODES[2], answer)
    assert json.loads(body)["rows"] == [[41, 3]]
    assert json.loads(body)["groups"] == []


def test_non_ascii_names_stay_escaped():
    # The metadata still goes through json.dumps (ensure_ascii): a name
    # outside ASCII must come out as \\uXXXX escapes, and splicing the
    # rows in must not disturb them.
    schema = schema_named("Région", "Департамент")
    answer = ColumnAnswer.from_pairs([((1, 2), (3, 4))])
    body = encode_answer(schema, NODES[0], answer)
    assert body == reference_encode_answer(schema, NODES[0], answer)
    assert body.isascii()
    assert json.loads(body)["groups"] == ["Région.Департамент", "B.B0"]


def test_rows_spanning_several_format_blocks(monkeypatch):
    # The rows are formatted a block at a time; block seams must not
    # show, whether the last block is full, partial or empty.
    monkeypatch.setattr(encoding, "_ROWS_PER_FORMAT", 4)
    for n_rows in (3, 4, 5, 8, 9):
        answer = ColumnAnswer.from_pairs(
            [((i % 12, i % 8), (-i, 1)) for i in range(n_rows)]
        )
        assert encode_answer(SCHEMA, NODES[0], answer) == (
            reference_encode_answer(SCHEMA, NODES[0], answer)
        )
