"""The partition entry point; the state it mutates lives in ``listing.py``.

Analyzed alone, each file is clean: ``listing.py`` has no entry point
and this file mutates nothing.  Only a whole-set analysis
(``analyze_paths``) follows the call edge from ``process_partition``
into ``list_partition`` and reports the unlocked write, which is exactly
what the fixture exercises.
"""

from __future__ import annotations

from flowproj.listing import list_partition


def process_partition(name: str) -> int:
    return list_partition(name)
