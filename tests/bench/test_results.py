"""Unit tests for the result-table container."""

import pytest

from paper.results import ExperimentTable, format_value


@pytest.fixture
def table() -> ExperimentTable:
    t = ExperimentTable(
        "Figure X", "demo", ["method", "seconds"], notes="a note"
    )
    t.add(method="A", seconds=1.5)
    t.add(method="B", seconds=0.25)
    return t


def test_add_requires_all_columns(table):
    with pytest.raises(ValueError, match="missing columns"):
        table.add(method="C")


def test_column(table):
    assert table.column("method") == ["A", "B"]


def test_value_single_match(table):
    assert table.value("seconds", method="A") == 1.5


def test_value_no_match_raises(table):
    with pytest.raises(KeyError, match="0 rows match"):
        table.value("seconds", method="Z")


def test_value_ambiguous_raises(table):
    table.add(method="A", seconds=9.0)
    with pytest.raises(KeyError, match="2 rows match"):
        table.value("seconds", method="A")


def test_render_contains_everything(table):
    text = table.render()
    assert "Figure X" in text
    assert "method" in text and "seconds" in text
    assert "a note" in text
    assert "0.2500" in text


def test_render_empty_table():
    table = ExperimentTable("T", "empty", ["a"])
    assert "T: empty" in table.render()


def test_format_value():
    assert format_value(0.0) == "0"
    assert format_value(1234.5) == "1,234"
    assert format_value(2.5) == "2.5"
    assert format_value(0.0421) == "0.0421"
    assert format_value(1_000_000) == "1,000,000"
    assert format_value("x") == "x"
