"""Offline integrity + size reporting for v2 cube files (``verify-cube``).

``verify_v2`` re-checks what the lazy read path defers: every section's
SHA-256 and decodability, on top of the header/trailer/directory
validation :meth:`~repro.storage2.format.V2File.open` already performs.
It also reports, per section, the stored bytes beside the bytes the
section decodes to (``count × itemsize``) and a ``narrow`` section's
column widths and gap columns, and the file-level stored ÷ decoded
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.storage2.codecs import NARROW
from repro.storage2.format import V2File, V2FormatError


@dataclass
class SectionReport:
    """One section's verification outcome."""

    name: str
    codec: str
    nbytes: int
    count: int
    problem: str | None = None
    #: Bytes of the array the section decodes to (``count × itemsize``).
    decoded_bytes: int = 0
    #: Bytes per value of each column, for a ``narrow`` section.
    widths: tuple[int, ...] | None = None
    #: Rows (leading extent) the directory records for the section.
    rows: int = 0
    #: ``(column, bytes)`` of each gap column of a ``narrow`` section.
    gaps: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.problem is None


@dataclass
class V2Report:
    """The whole file's verification outcome."""

    path: Path
    file_bytes: int = 0
    sections: list[SectionReport] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(s.ok for s in self.sections)

    @property
    def stored_bytes(self) -> int:
        return sum(section.nbytes for section in self.sections)

    @property
    def decoded_bytes(self) -> int:
        return sum(section.decoded_bytes for section in self.sections)

    def describe(self) -> str:
        lines = [
            f"v2 cube {self.path}: "
            f"{'OK' if self.ok else 'CORRUPT'}, "
            f"{len(self.sections)} sections, {self.file_bytes} bytes"
        ]
        if self.decoded_bytes:
            lines.append(
                f"  sections: {self.stored_bytes} B stored, "
                f"{self.decoded_bytes} B decoded (stored/decoded "
                f"{self.stored_bytes / self.decoded_bytes:.3f})"
            )
        for section in self.sections:
            status = "ok" if section.ok else f"FAIL {section.problem}"
            widths = (
                ""
                if section.widths is None
                else "  widths " + "/".join(str(w) for w in section.widths)
            )
            if section.gaps:
                widths += "  gaps " + " ".join(f"{j}:{n} B" for j, n in section.gaps)
            lines.append(
                f"  {section.name:<24} {section.codec:<8} "
                f"{section.nbytes:>10} B of {section.decoded_bytes:>10} B  "
                f"{section.count:>8} values  {status}{widths}"
            )
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        return "\n".join(lines)


def v1_disk_bytes(root: Path, cube_prefix: str, fact_relation: str) -> int:
    """On-disk bytes of the heap files under ``cube_prefix`` and
    ``fact_relation``, containers excluded — in a bundle, only the fact
    heap.  ``benchmarks/e2e`` reports it as ``core.v1_bytes``."""
    total = 0
    for pattern in (
        f"{cube_prefix}.*",
        f"{fact_relation}.dat",
        f"{fact_relation}.schema.json",
    ):
        for path in sorted(Path(root).glob(pattern)):
            if path.is_file() and not path.name.endswith(".v2"):
                total += path.stat().st_size
    return total


def verify_v2(path: str | Path, cardinalities: Sequence[int] = ()) -> V2Report:
    """Fully verify one v2 file (``cardinalities`` as for
    :meth:`V2File.open`); never raises on corruption, reports it."""
    target = Path(path)
    report = V2Report(target)
    try:
        file = V2File.open(target, cardinalities)
    except V2FormatError as error:
        report.problems.append(str(error))
        return report
    report.file_bytes = file.file_bytes
    for name in file.names():
        entry = file.entry(name)
        widths = (
            tuple(entry.extra.get("widths", ()))
            if entry.codec == NARROW
            else None
        )
        problem = file.verify_section(name)
        # Only a section that decoded has gaps known to be pairs.
        gaps = entry.extra.get("gaps", []) if widths and problem is None else []
        report.sections.append(
            SectionReport(
                name,
                entry.codec,
                entry.nbytes,
                entry.count,
                problem,
                entry.count * np.dtype(entry.dtype).itemsize,
                widths,
                entry.shape[0],
                tuple((j, n) for j, n in gaps),
            )
        )
    return report
