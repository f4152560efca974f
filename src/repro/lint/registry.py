"""The full cubelint rule catalogue: per-file R3–R9 and R11, flow R12–R13.

Import ``ALL_RULES``/``RULES_BY_ID`` from here (not from ``rules``) to
get the complete set; ``rules`` keeps only the per-file catalogue so the
flow layer can build on it without an import cycle.
"""

from __future__ import annotations

from repro.lint.rules import ALL_RULES as CORE_RULES
from repro.lint.rules import Rule
from repro.lint.rules_flow import FLOW_RULES

ALL_RULES: tuple[Rule, ...] = CORE_RULES + FLOW_RULES

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
