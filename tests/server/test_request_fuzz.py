"""The request path under arbitrary input: a status and a JSON body, always.

``SlicerServer`` hands :meth:`SlicerApp.dispatch_request` the
percent-decoded path and the parsed query string of whatever target a
client sent; anything the app raises becomes a ``500`` and costs the
connection.  These tests draw ASCII targets of at most 64 bytes —
unstructured ones, and ones biased toward the answer endpoints'
parameters (``/slice/<id>?where=…``, whose answers pre-filter stored
row-ids against the mapped fact columns, ``/iceberg/<id>?min=…`` and
``/nodes?limit=…``) — and require a 200, 400, 404 or 405 with a JSON
object body for every one.
"""

from __future__ import annotations

import json
import string
from urllib.parse import parse_qs, unquote

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.server.app import SlicerApp
from tests.server.conftest import serving_schema

MAX_TARGET = 64
SCHEMA = serving_schema()
STATUSES = {
    "200 OK", "400 Bad Request", "404 Not Found", "405 Method Not Allowed"
}


@pytest.fixture(scope="module")
def app(served_bundles):
    return SlicerApp(served_bundles["CURE+"])


def dispatch(app: SlicerApp, target: str) -> tuple[str, bytes]:
    """What the HTTP front does with a request target."""
    path, _, query = target.partition("?")
    return app.dispatch_request(unquote(path), parse_qs(query))


#: Mostly small valid numbers (so many slices answer), else numbers out
#: of every range, non-canonical spellings, escapes and junk.
number = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(0, 3).map(str),
    st.integers(0, 3).map(str),
    st.integers(-2, 40).map(str),
    st.sampled_from(
        ["", "00", "+1", "-0", "1_0", " 1", "0x1", "1e3", "%31",
         "%D9%A3", "99999999999999999999", "-99999999999999999999"]
    ),
    st.text(string.printable, max_size=3),
)


@st.composite
def where(draw) -> str:
    members = "|".join(draw(st.lists(number, min_size=1, max_size=3)))
    separators = draw(
        st.sampled_from([(".", ":")] * 4 + [(".", ""), ("", ":")])
    )
    return (
        f"where={draw(number)}{separators[0]}{draw(number)}"
        f"{separators[1]}{members}"
    )


@st.composite
def endpoint_target(draw) -> str:
    node = draw(number)
    kind = draw(st.sampled_from(["slice", "iceberg", "nodes", "node"]))
    if kind == "slice":
        clauses = draw(st.lists(where(), max_size=2))
        return f"/slice/{node}?" + "&".join(clauses)
    if kind == "iceberg":
        return f"/iceberg/{node}?min={draw(number)}"
    if kind == "nodes":
        return f"/nodes?limit={draw(number)}"
    return f"/node/{node}?" + draw(st.sampled_from(["", "where=0.0:1"]))


@st.composite
def answered_slice(draw) -> str:
    """A slice target that mostly names a real node, dimension, level
    and members — a valid request the pre-filter answers — and
    sometimes steps one past a bound."""
    node_id = draw(st.integers(0, SCHEMA.enumerator.n_nodes - 1))
    node = SCHEMA.decode_node(node_id)
    clauses = []
    for dim in node.grouping_dims(SCHEMA.dimensions):
        if not draw(st.booleans()):
            continue
        dimension = SCHEMA.dimensions[dim]
        level = draw(st.integers(node.levels[dim], dimension.n_levels))
        top = dimension.cardinality(min(level, dimension.n_levels - 1))
        members = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
        clauses.append(
            f"where={dim}.{level}:" + "|".join(map(str, members))
        )
    return f"/slice/{node_id}?" + "&".join(clauses)


targets = st.one_of(
    answered_slice(),
    answered_slice(),
    st.text(
        st.characters(min_codepoint=0, max_codepoint=127), max_size=MAX_TARGET
    ),
    endpoint_target(),
    endpoint_target(),
    endpoint_target(),
).filter(lambda target: len(target.encode()) <= MAX_TARGET)


@settings(max_examples=400, deadline=None)
@given(targets)
def test_any_target_gets_a_status_and_a_json_body(app, target):
    status, body = dispatch(app, target)
    assert status in STATUSES, (target, status)
    payload = json.loads(body)
    assert isinstance(payload, dict)
    assert ("error" in payload) == (status != "200 OK"), (target, payload)


@pytest.mark.parametrize(
    "target,status",
    [
        ("/slice/0?where=0.0:1|2", "200 OK"),
        ("/slice/0?where=0.0:1&where=1.1:0", "200 OK"),
        ("/slice/3?where=0.2:99999999999999999999", "400 Bad Request"),
        ("/slice/3?where=0.0:", "400 Bad Request"),
        ("/slice/3", "400 Bad Request"),
        ("/iceberg/3?min=99999999999999999999", "200 OK"),
        ("/iceberg/3?min=-99999999999999999999", "200 OK"),
        ("/nodes?limit=-1", "400 Bad Request"),
        ("/nodes?limit=%31", "200 OK"),
        ("/node/%33", "200 OK"),
        ("/node/3?where=0.0:1", "400 Bad Request"),
        ("/nope", "404 Not Found"),
    ],
)
def test_pinned_targets(app, target, status):
    got, body = dispatch(app, target)
    assert got == status, body
    json.loads(body)
