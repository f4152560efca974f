"""The canonical encoder's bytes are pinned to the reference encoder.

``repro.server.encoding.encode_answer`` serializes the ``rows`` matrix
with ``orjson`` and splices it behind ``json.dumps``-rendered metadata;
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


#: Four one-level dimensions: a node groups on those at level 0 and
#: puts the rest at ALL (level 1), so arity runs 0..4.
WIDE_DIMENSIONS = tuple(
    linear_dimension(name, [(f"{name}0", 8)]) for name in "CDEF"
)
AGGREGATE_SPECS = (("sum", 0), ("count", 0), ("min", 0), ("max", 0))


@st.composite
def matrix_answers(draw):
    """Large answers over the whole int64 range, in any memory layout."""
    n_aggregates = draw(st.integers(1, 4))
    schema = CubeSchema(
        WIDE_DIMENSIONS,
        make_aggregates(*AGGREGATE_SPECS[:n_aggregates]),
        n_measures=1,
    )
    node = CubeNode(tuple(draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))))
    arity = len(node.grouping_dims(schema.dimensions))
    # Hypothesis favours small integers, so the large sizes are named too.
    n_rows = draw(
        st.one_of(st.integers(0, 5000), st.sampled_from([1527, 4097, 5000]))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = draw(
        st.sampled_from([(INT64.min, INT64.max), (-3, 3), (0, 2**53 + 2)])
    )
    width = arity + n_aggregates
    values = rng.integers(low, high, size=(n_rows, width), endpoint=True)
    # The ±2**63 edges, wherever the draw puts them.
    edges = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.1]))
    values[edges] = rng.choice([INT64.min, INT64.max], size=int(edges.sum()))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided":
        # Every other column and every other row of a larger matrix.
        padded = np.zeros((2 * n_rows, 2 * width), dtype=np.int64)
        padded[::2, ::2] = values
        values = padded[::2, ::2]
    elif layout == "transposed":
        values = np.ascontiguousarray(values.T).T
    answer = ColumnAnswer(arity, n_aggregates, values[:, :arity], values[:, arity:])
    return schema, node, answer


@settings(max_examples=60, deadline=None)
@given(matrix_answers())
def test_encoder_matches_the_reference_on_any_int64_matrix(case):
    # The rows array is serialized in one call whatever the answer's
    # size, value range or memory layout: no seam, width or stride of
    # the input may show in the bytes.
    schema, node, answer = case
    assert encode_answer(schema, node, answer) == (
        reference_encode_answer(schema, node, answer)
    )


@st.composite
def domain_answers(draw):
    """Answers whose dims lie inside the node's code space (8 members a
    dimension): one row per group (in any order, or already ascending),
    tied groups, or a few codes pushed just outside the domain."""
    schema = CubeSchema(
        WIDE_DIMENSIONS, make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    node = CubeNode(tuple(draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))))
    arity = len(node.grouping_dims(schema.dimensions))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(
        st.one_of(
            st.integers(0, 200),
            st.just(4096),
        )
    )
    kind = draw(st.sampled_from(["distinct", "ascending", "ties", "outside"]))
    if kind in ("distinct", "ascending"):
        n_rows = min(n_rows, 8**arity)
        keys = rng.permutation(8**arity)[:n_rows]
        if kind == "ascending":
            keys.sort()
        dims = np.empty((n_rows, arity), dtype=np.int64)
        for i in range(arity):
            dims[:, i] = keys // 8 ** (arity - 1 - i) % 8
    else:
        dims = rng.integers(0, 8, size=(n_rows, arity))
        if kind == "outside" and dims.size:
            dims.flat[rng.integers(0, dims.size, size=3)] = rng.choice([-1, 8, 9])
    aggregates = rng.integers(-50, 50, size=(n_rows, 2))
    rows = np.hstack((dims, aggregates)).astype(np.int64)
    return schema, node, ColumnAnswer.of_rows(arity, rows)


@settings(max_examples=150, deadline=None)
@given(domain_answers())
def test_encoder_matches_the_reference_inside_the_node_domain(case):
    # Distinct groups take ColumnAnswer.sort_order's packed key (or no
    # gather, when the rows already ascend), tied groups its lexsort.
    # Every path must produce the reference's bytes.
    schema, node, answer = case
    assert encode_answer(schema, node, answer) == (
        reference_encode_answer(schema, node, answer)
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrix_answers(), domain_answers()))
def test_decode_inverts_encode(case):
    # Empty, arity-0, negative and int64-extreme answers alike: the body
    # decodes to the answer's rows in canonical order, with its shape.
    schema, node, answer = case
    payload, decoded = decode_answer(encode_answer(schema, node, answer))
    assert (decoded.arity, decoded.n_aggregates) == (
        answer.arity,
        answer.n_aggregates,
    )
    assert np.array_equal(decoded.matrix(), answer.normalized().matrix())
    assert decoded == answer
    assert payload["count"] == len(answer)
