"""R4 fixture: a mutable default argument."""

from __future__ import annotations


def collect(item: int, into: list = []) -> list:
    into.append(item)
    return into
