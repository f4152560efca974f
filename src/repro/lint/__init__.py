"""cubelint — domain-aware static analysis for the CURE reproduction.

The CURE engine's correctness rests on structural invariants that no unit
test observes directly: construction must be deterministic, partitions
must be processed independently (Section 4), and every durable write
must sit where the crash harness can reach it.  ``cubelint`` is an AST-level gate that
machine-checks the coding rules protecting those invariants, plus a
handful of general hygiene rules.  Any finding fails the gate; an inline
``# cubelint: disable=<id>`` pragma is the one escape hatch.

Usage::

    PYTHONPATH=src python -m repro.lint src/repro

See ``docs/static_analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.lint.analyzer import FileReport, analyze_file, analyze_paths
from repro.lint.rules import ALL_RULES, Rule, Violation

__all__ = [
    "ALL_RULES",
    "FileReport",
    "Rule",
    "Violation",
    "analyze_file",
    "analyze_paths",
]
