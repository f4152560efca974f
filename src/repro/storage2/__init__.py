"""The v2 cube container: compressed, checksummed, mmap-served.

See ``docs/storage_format.md`` for the on-disk layout.  The public
surface is intentionally small:

* :func:`~repro.storage2.publish.write_v2` — write a built cube and its
  fact table as one atomic ``cube.v2`` file;
  :func:`~repro.storage2.publish.publish_v2_bundle` — the container a
  bundle serves from;
* :func:`~repro.storage2.mapped.open_v2` — map a v2 file back into the
  query layer's storage/fact/index surfaces with no deserialization;
* :func:`~repro.storage2.load.load_v2` — the other way to read one: back
  into a mutable ``CubeStorage`` and fact ``Table`` (how streaming ingest
  recovers its committed generation);
* :func:`~repro.storage2.verify.verify_v2` — offline checksum + decode
  verification and per-section size reporting.
"""

from __future__ import annotations

from repro.storage2.format import SectionCorruption, V2File, V2FormatError
from repro.storage2.load import load_v2
from repro.storage2.mapped import MappedCube, open_v2
from repro.storage2.publish import V2_FILE, publish_v2_bundle, write_v2
from repro.storage2.verify import V2Report, verify_v2

__all__ = [
    "MappedCube",
    "SectionCorruption",
    "V2File",
    "V2FormatError",
    "V2Report",
    "V2_FILE",
    "load_v2",
    "open_v2",
    "publish_v2_bundle",
    "verify_v2",
    "write_v2",
]
