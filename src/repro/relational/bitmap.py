"""Bitmap indices over row-id ranges.

CURE+ (Section 5.3 of the paper) optionally replaces per-node lists of
row-ids (TT relations, and CAT relations under format (a)) with bitmaps
over the referenced relation: bit ``i`` set means row-id ``i`` belongs to
the node.  A bitmap costs ``ceil(universe / 8)`` bytes regardless of how
many bits are set, so the conversion pays off only when the row-id list is
long — the same trade-off the paper notes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

_ROWID_BYTES = 4  # size of one stored row-id, matching ColumnType.INT32


@dataclass
class Bitmap:
    """A fixed-universe bitmap with set/test/iterate operations."""

    universe: int
    _bits: bytearray = field(default_factory=bytearray, repr=False)

    def __post_init__(self) -> None:
        if self.universe < 0:
            raise ValueError("bitmap universe must be non-negative")
        if not self._bits:
            self._bits = bytearray((self.universe + 7) // 8)

    @classmethod
    def from_rowids(
        cls, rowids: Iterable[int] | np.ndarray, universe: int
    ) -> "Bitmap":
        """The bitmap with exactly ``rowids`` set (one ``packbits``)."""
        if not isinstance(rowids, np.ndarray):
            rowids = np.fromiter(rowids, dtype=np.int64)
        bitmap = cls(universe)
        if len(rowids):
            low, high = int(rowids.min()), int(rowids.max())
            if low < 0 or high >= universe:
                bad = low if low < 0 else high
                raise IndexError(
                    f"row-id {bad} outside universe {universe}"
                )
            flags = np.zeros(8 * len(bitmap._bits), dtype=np.uint8)
            flags[rowids] = 1
            bitmap._bits[:] = np.packbits(flags, bitorder="little").tobytes()
        return bitmap

    def set(self, rowid: int) -> None:
        if rowid < 0 or rowid >= self.universe:
            raise IndexError(f"row-id {rowid} outside universe {self.universe}")
        self._bits[rowid >> 3] |= 1 << (rowid & 7)

    def test(self, rowid: int) -> bool:
        if rowid < 0 or rowid >= self.universe:
            return False
        return bool(self._bits[rowid >> 3] & (1 << (rowid & 7)))

    def __contains__(self, rowid: int) -> bool:
        return self.test(rowid)

    def to_array(self) -> np.ndarray:
        """The set row-ids as an ascending int64 array (one ``unpackbits``)."""
        flags = np.unpackbits(
            np.frombuffer(self._bits, dtype=np.uint8), bitorder="little"
        )
        return np.flatnonzero(flags).astype(np.int64, copy=False)

    def iter_set(self) -> Iterator[int]:
        """Yield set row-ids in ascending order (sequential by design)."""
        return iter(self.to_array().tolist())

    def count(self) -> int:
        return int.from_bytes(self._bits, "little").bit_count()

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    @staticmethod
    def beneficial(rowid_count: int, universe: int) -> bool:
        """Is a bitmap smaller than storing ``rowid_count`` explicit row-ids?

        This is the "only if the number of row-ids stored originally is
        large enough" condition from Section 5.3.
        """
        return ((universe + 7) // 8) < rowid_count * _ROWID_BYTES
