"""A documented order-insensitive listing, silenced with a pragma."""

from __future__ import annotations

import os


def entry_count(root: str) -> int:
    return len(os.listdir(root))  # cubelint: disable=R11
