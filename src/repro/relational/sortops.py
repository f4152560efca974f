"""Counters of sorting work.

The builders group rows with numpy sorts (:mod:`repro.core.segments`);
what every construction method reports is how much it sorted —
:class:`SortStats` feeds the machine-independent benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SortStats:
    """Counters of sorting work, for scale-free benchmark reporting."""

    keys_sorted: int = 0
    counting_sorts: int = 0
    comparison_sorts: int = 0

    def reset(self) -> None:
        self.keys_sorted = 0
        self.counting_sorts = 0
        self.comparison_sorts = 0

    def merge(self, other: "SortStats") -> None:
        self.keys_sorted += other.keys_sorted
        self.counting_sorts += other.counting_sorts
        self.comparison_sorts += other.comparison_sorts
