"""Each rule fires on its fixture with the right id and location."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.analyzer import analyze_file
from repro.lint.registry import ALL_RULES, RULES_BY_ID

FIXTURES = Path(__file__).parent / "fixtures"

# fixture -> list of (rule_id, line) expected as *active* violations
EXPECTED = {
    "core/r3_wall_clock.py": [("R3", 9)],
    "anywhere/r4_mutable_default.py": [("R4", 6)],
    "anywhere/r5_no_future_import.py": [("R5", 1)],
    "core/r6_implicit_dtype.py": [("R6", 9)],
    "relational/r7_assert_validation.py": [("R7", 7)],
    "lattice/r8_untyped_public.py": [("R8", 6)],
    "query/r9_raw_durability.py": [("R9", 10), ("R9", 12), ("R9", 14), ("R9", 15)],
    "anywhere/r11_nondeterminism.py": [
        ("R11", 13),  # os.listdir
        ("R11", 17),  # Path.glob inside a list comprehension
        ("R11", 21),  # unseeded random.Random()
        ("R11", 25),  # unseeded np.random.default_rng()
        ("R11", 29),  # random.choice on the global generator
        ("R11", 33),  # np.random.rand on the global generator
    ],
    "anywhere/r11_clean.py": [],
    "anywhere/r11_suppressed.py": [],
    "core/r12_shared_state.py": [("R12", 10), ("R12", 15)],
    "core/r12_locked_cache.py": [],
    "relational/r13_fault_sites.py": [("R13", 22), ("R13", 26)],
    "ingest/r9_ingest_raw_write.py": [("R9", 15), ("R9", 17)],
    "ingest/r13_ingest_entry.py": [("R13", 31)],
    # clean in isolation: the entry point lives in flowproj/writer.py and
    # only a whole-set analysis follows the edge (tests/lint/test_rules_flow.py)
    "flowproj/listing.py": [],
    "flowproj/writer.py": [],
    "anywhere/clean.py": [],
}


@pytest.mark.parametrize("fixture", sorted(EXPECTED))
def test_fixture_fires_expected_rules(fixture: str) -> None:
    report = analyze_file(FIXTURES / fixture)
    observed = [(v.rule_id, v.line) for v in report.violations]
    assert observed == EXPECTED[fixture]


def test_every_rule_is_covered_by_a_fixture() -> None:
    covered = {rule_id for hits in EXPECTED.values() for rule_id, _ in hits}
    assert covered == set(RULES_BY_ID)


def test_rule_catalogue_shape() -> None:
    assert len(ALL_RULES) == 10
    for rule in ALL_RULES:
        assert rule.rule_id.startswith("R")
        assert rule.hint and rule.title


def test_violation_render_has_location() -> None:
    report = analyze_file(FIXTURES / "core" / "r3_wall_clock.py")
    (violation,) = report.violations
    rendered = violation.render()
    assert "r3_wall_clock.py:9:" in rendered
    assert "R3" in rendered


def test_package_scoping_keeps_rules_out_of_other_layers(tmp_path: Path) -> None:
    # the same wall-clock call outside core/ is not an R3 violation
    module = tmp_path / "bench" / "timing.py"
    module.parent.mkdir()
    module.write_text(
        '"""Bench timing helper."""\n\n'
        "from __future__ import annotations\n\n"
        "import time\n\n\n"
        "def stamp() -> float:\n"
        "    return time.time()\n"
    )
    report = analyze_file(module)
    assert report.violations == []
