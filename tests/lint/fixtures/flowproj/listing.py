"""The partitions listed so far: module state the entry in ``writer.py`` mutates."""

from __future__ import annotations

_LISTED: dict[str, int] = {}


def list_partition(name: str) -> int:
    _LISTED[name] = len(name)
    return _LISTED[name]
