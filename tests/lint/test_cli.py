"""End-to-end CLI behavior: exit codes, flags, rule listing."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_violation_exits_1_with_rule_and_hint(capsys: pytest.CaptureFixture) -> None:
    code = main([str(FIXTURES / "core" / "r3_wall_clock.py")])
    captured = capsys.readouterr()
    assert code == 1
    assert "R3" in captured.out
    assert "wall-clock" in captured.out
    assert "hint:" in captured.out


def test_clean_file_exits_0(capsys: pytest.CaptureFixture) -> None:
    code = main([str(FIXTURES / "anywhere" / "clean.py")])
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_any_violation_exits_1(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    # No ceiling to stay under: one finding fails the gate, and a pragma
    # on its line is the only way to pass it.
    module = tmp_path / "core" / "mod.py"
    module.parent.mkdir()
    source = (
        '"""Doc."""\n\n'
        "from __future__ import annotations\n\n"
        "import time\n\n\n"
        "def stamp() -> float:\n"
        "    return time.time(){}\n"
    )
    module.write_text(source.format(""))
    assert main([str(module)]) == 1
    assert "1 violation(s)" in capsys.readouterr().err
    module.write_text(source.format("  # cubelint: disable=R3"))
    assert main([str(module)]) == 0
    assert "1 suppressed" in capsys.readouterr().out


def test_select_runs_only_named_rules(capsys: pytest.CaptureFixture) -> None:
    code = main([str(FIXTURES), "--select", "R7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "R7" in captured.out
    assert "R3" not in captured.out


def test_select_unknown_rule_is_a_usage_error(
    capsys: pytest.CaptureFixture,
) -> None:
    with pytest.raises(SystemExit) as exc:
        main([str(FIXTURES), "--select", "R99"])
    assert exc.value.code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_no_files_found_is_a_usage_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main([str(tmp_path / "nope")]) == 2
    assert "no python files" in capsys.readouterr().err


def test_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    listed = [
        line.split()[0] for line in capsys.readouterr().out.splitlines()
        if line.startswith("R")
    ]
    assert listed == [f"R{n}" for n in (3, 4, 5, 6, 7, 8, 9, 11, 12, 13)]


def test_show_suppressed(capsys: pytest.CaptureFixture) -> None:
    main(
        [
            str(FIXTURES / "core" / "r3_suppressed.py"),
            "--show-suppressed",
        ]
    )
    assert "[suppressed]" in capsys.readouterr().out


def test_statistics(capsys: pytest.CaptureFixture) -> None:
    main([str(FIXTURES), "--statistics"])
    assert "active" in capsys.readouterr().out


def test_explain_prints_call_paths(capsys: pytest.CaptureFixture) -> None:
    code = main([str(FIXTURES / "flowproj"), "--explain"])
    captured = capsys.readouterr()
    assert code == 1
    assert "R12 `_LISTED[...] = ...` mutates module-level state" in captured.out
    assert "entry process_partition" in captured.out
    assert "calls list_partition" in captured.out
