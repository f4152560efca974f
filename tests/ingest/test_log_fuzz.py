"""Ingest-log fuzzer: a sealed record mutated and re-signed fails closed.

A record's digest and its segment's whole-file checksum only prove that
the bytes are the ones a writer signed.  Here one pending sealed record
gets a payload no producer could have appended, a fresh digest, and a
manifest checksum to match; :meth:`StreamingIngestor.apply_ready` must
then raise :class:`LogCorruption` (the payload is not a list of rows) or
``validate_delta``'s ``ValueError`` (the rows do not fit the fact
layout) — never anything else, and never after half-applying a delta.
A log manifest of another shape than the log writes fails at open.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ingest import LogCorruption, StreamingIngestor
from repro.ingest.log import _HEADER, LOG_MANIFEST, AppendLog
from repro.relational.durable import file_checksum
from tests.ingest.test_ingestor import BASE, SCHEMA, fresh_engine
from tests.support.rows import cube_bytes, rows_of, table_of

# SCHEMA's fact layout: A code in [0, 8), B code in [0, 5), one measure.
_ARITY = 3

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_good_rows = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 4), st.integers(-99, 99)).map(
        list
    ),
    min_size=1,
    max_size=3,
)


def _json(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _bad_rows(rows: list[list]) -> st.SearchStrategy[list[list]]:
    """``rows`` with one row broken: wrong arity, a code outside its
    dimension, or a value that is not an integer."""
    return st.integers(0, len(rows) - 1).flatmap(
        lambda index: st.one_of(
            st.lists(st.integers(0, 4), max_size=6)
            .filter(lambda row: len(row) != _ARITY)
            .map(lambda row: rows[:index] + [row] + rows[index + 1 :]),
            st.tuples(
                st.integers(0, 1),
                st.one_of(st.integers(-(2**40), -1), st.integers(8, 2**40)),
            ).map(
                lambda bad: [
                    *rows[:index],
                    [bad[1] if d == bad[0] else v for d, v in enumerate(rows[index])],
                    *rows[index + 1 :],
                ]
            ),
            st.tuples(
                st.integers(0, _ARITY - 1),
                st.one_of(
                    st.none(),
                    st.text(max_size=3),
                    st.floats(allow_nan=False, allow_infinity=False).filter(
                        lambda x: x != int(x)
                    ),
                    st.lists(st.integers(0, 3), max_size=2),
                ),
            ).map(
                lambda bad: [
                    *rows[:index],
                    [bad[1] if d == bad[0] else v for d, v in enumerate(rows[index])],
                    *rows[index + 1 :],
                ]
            ),
        )
    )


#: Payloads no producer appends: not UTF-8, not JSON, JSON but not a
#: list of lists (``5``, ``null``, ``[1,2]``, ``[]``), or rows that break
#: the fact layout.
bad_payloads = st.one_of(
    st.binary(max_size=8).map(lambda tail: b"\xff" + tail),
    st.text(max_size=12)
    .filter(lambda text: "]" not in text)
    .map(lambda text: ("[[1," + text).encode("utf-8")),
    _scalars.map(_json),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=2).map(_json),
    st.just(b"[]"),
    st.lists(_scalars, min_size=1, max_size=4).map(_json),
    _good_rows.flatmap(
        lambda rows: st.tuples(st.integers(0, len(rows)), _scalars).map(
            lambda extra: rows[: extra[0]] + [extra[1]] + rows[extra[0] :]
        )
    ).map(_json),
    _good_rows.flatmap(_bad_rows).map(_json),
)


def _re_sign(log_root: Path, segment: Path, target: int, payload: bytes) -> None:
    """Replace record ``target`` of a sealed segment with ``payload``,
    framed with a valid digest, and re-checksum the segment in the
    manifest — the damage no checksum can see."""
    data = segment.read_bytes()
    frames: list[bytes] = []
    offset = 0
    while offset < len(data):
        length, _digest = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        frames.append(data[start : start + length])
        offset = start + length
    frames[target] = payload
    segment.write_bytes(
        b"".join(
            _HEADER.pack(len(frame), hashlib.sha256(frame).digest()) + frame
            for frame in frames
        )
    )
    manifest_path = log_root / LOG_MANIFEST
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["sealed"]:
        if segment.name == f"segment.{int(entry['id']):06d}.log":
            entry["checksum"] = file_checksum(segment)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    applied=st.lists(_good_rows, max_size=2),
    followers=st.lists(_good_rows, max_size=2),
    payload=bad_payloads,
    plus=st.booleans(),
)
def test_re_signed_sealed_record_fails_closed(applied, followers, payload, plus):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        log_root = root / "log"
        ingestor = StreamingIngestor.bootstrap(
            SCHEMA,
            fresh_engine(root),
            table_of(SCHEMA.fact_schema, list(BASE)),
            log_root,
            plus=plus,
            seal_records=100,
        )
        # Records already applied sit in an earlier segment ...
        for rows in applied:
            ingestor.append(rows)
        ingestor.log.seal()
        ingestor.apply_ready()
        # ... the damaged one is the next to apply, valid ones follow it.
        target_lsn = ingestor.append([[0, 0, 1]])
        for rows in followers:
            ingestor.append(rows)
        ingestor.log.seal()
        segment = log_root / f"segment.{ingestor.log.sealed_segments - 1:06d}.log"
        _re_sign(log_root, segment, 0, payload)
        ingestor.log = AppendLog.open(log_root, seal_records=100)

        cube_before = cube_bytes(ingestor.storage)
        facts_before = rows_of(ingestor.fact_table)
        with pytest.raises((LogCorruption, ValueError)) as raised:
            ingestor.apply_ready()
        if raised.type is LogCorruption:
            assert f"record {target_lsn} of sealed segment {segment.name}" in str(
                raised.value
            )
        else:
            names = {entry.name for entry in raised.traceback}
            assert "validate_delta" in names, raised.getrepr()
        assert ingestor.applied_lsn == target_lsn - 1
        assert cube_bytes(ingestor.storage) == cube_before
        assert rows_of(ingestor.fact_table) == facts_before
        ingestor.engine.catalog.close()


@pytest.mark.parametrize("payload", [b"5", b"null", b"[1,2]", b"[]", b"\xff[[1"])
def test_non_row_payloads_are_log_corruption(tmp_path, payload):
    """The shapes that escaped as ``TypeError`` / ``UnicodeDecodeError``."""
    log = AppendLog.open(tmp_path, seal_records=100)
    log.append([(1, 2, 3)])
    log.seal()
    segment = tmp_path / "segment.000000.log"
    _re_sign(tmp_path, segment, 0, payload)
    with pytest.raises(LogCorruption, match="record 0 of sealed segment"):
        list(AppendLog.open(tmp_path, seal_records=100).sealed_records())


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


def _entry_without(key: str):
    return lambda m: {**m, "sealed": [_without(m["sealed"][0], key)]}


@pytest.mark.parametrize(
    "field, damage",
    [
        ("'sealed'", lambda m: _without(m, "sealed")),
        ("sealed[0] has no valid 'id'", _entry_without("id")),
        ("sealed[0] has no valid 'first_lsn'", _entry_without("first_lsn")),
        ("sealed[0] has no valid 'records'", _entry_without("records")),
        ("sealed[0] has no valid 'checksum'", _entry_without("checksum")),
        ("'active_id'", lambda m: {**m, "active_id": "x"}),
        ("'active_first_lsn'", lambda m: {**m, "active_first_lsn": None}),
        ("not a JSON object", lambda m: [m]),
        ("not JSON", lambda m: b'{"version": 1, "sealed": ['),
    ],
)
def test_malformed_manifest_is_log_corruption(tmp_path, field, damage):
    """A manifest of another shape than the log writes fails at open,
    naming the file and the field, instead of escaping later as
    ``KeyError`` / ``ValueError`` / ``TypeError``."""
    log = AppendLog.open(tmp_path, seal_records=100)
    log.append([(1, 2, 3)])
    log.seal()
    manifest_path = tmp_path / LOG_MANIFEST
    damaged = damage(json.loads(manifest_path.read_text()))
    manifest_path.write_bytes(
        damaged if isinstance(damaged, bytes) else _json(damaged)
    )
    with pytest.raises(LogCorruption) as raised:
        list(AppendLog.open(tmp_path, seal_records=100).sealed_records())
    assert str(manifest_path) in str(raised.value)
    assert field in str(raised.value)
