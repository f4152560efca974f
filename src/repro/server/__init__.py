"""The OLAP serving layer ("slicer"): concurrent HTTP answers over one
immutable published cube.

Load the bundle once, share every cache across request threads, answer
node/slice/rollup/iceberg queries as canonical JSON that is byte-
identical to the in-process library call — see ``docs/serving.md``.
"""

from __future__ import annotations

from repro.query.slice import canonical_slices
from repro.server.app import DEFAULT_RESULT_CACHE_BYTES, SlicerApp
from repro.server.encoding import (
    canonical_json,
    decode_answer,
    encode_answer,
)
from repro.server.http import SlicerServer
from repro.server.replay import encode_op, execute_op, op_path, replay_op

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "SlicerApp",
    "SlicerServer",
    "canonical_json",
    "canonical_slices",
    "decode_answer",
    "encode_answer",
    "encode_op",
    "execute_op",
    "op_path",
    "replay_op",
]
