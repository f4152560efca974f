"""Unit tests for the raw-record loader (dictionary encoding, hierarchies)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.loader import (
    DimensionSpec,
    HierarchyViolation,
    MeasureSpec,
    load_csv,
    load_records,
)
from tests.support.rows import rows_of

RECORDS = [
    {"city": "Athens", "country": "Greece", "sku": "a", "qty": 3},
    {"city": "Paris", "country": "France", "sku": "b", "qty": 5},
    {"city": "Patras", "country": "Greece", "sku": "a", "qty": 2},
    {"city": "Athens", "country": "Greece", "sku": "b", "qty": 7},
]

REGION = DimensionSpec.of("Region", "city", "country")
PRODUCT = DimensionSpec.of("Product", "sku")


def load(records=RECORDS, **kwargs):
    return load_records(records, [REGION, PRODUCT], ["qty"], **kwargs)


def test_schema_shape():
    result = load()
    schema = result.schema
    assert schema.n_dimensions == 2
    region = result.decoder("Region").spec
    assert region.levels == ("city", "country")
    # Default aggregates: SUM per measure plus COUNT.
    assert [s.name for s in schema.aggregates] == ["sum_0", "count_0"]


def test_dictionary_encoding_roundtrip():
    result = load()
    region = result.decoder("Region")
    assert region.decode(0, region.encode(0, "Paris")) == "Paris"
    assert region.decode(1, region.encode(1, "Greece")) == "Greece"
    with pytest.raises(KeyError):
        region.encode(0, "Atlantis")


def test_rollup_derived_from_data():
    result = load()
    # Find the Region dimension in the (possibly reordered) schema.
    region = next(
        d for d in result.schema.dimensions if d.name == "Region"
    )
    decoder = result.decoder("Region")
    athens = decoder.encode(0, "Athens")
    patras = decoder.encode(0, "Patras")
    paris = decoder.encode(0, "Paris")
    greece = decoder.encode(1, "Greece")
    assert region.code_at(athens, 1) == greece
    assert region.code_at(patras, 1) == greece
    assert region.code_at(paris, 1) != greece


def test_hierarchy_violation_detected():
    bad = RECORDS + [
        {"city": "Athens", "country": "France", "sku": "a", "qty": 1}
    ]
    with pytest.raises(HierarchyViolation, match="Athens"):
        load(bad)


def test_cardinality_ordering():
    result = load()
    cards = [d.base_cardinality for d in result.schema.dimensions]
    assert cards == sorted(cards, reverse=True)
    unordered = load(order_by_cardinality=False)
    assert [d.name for d in unordered.schema.dimensions] == [
        "Region", "Product",
    ]


def test_fact_rows_follow_dimension_order():
    result = load()
    schema = result.schema
    for record, row in zip(RECORDS, rows_of(result.table)):
        for d, dimension in enumerate(schema.dimensions):
            decoder = result.decoder(dimension.name)
            field = decoder.spec.levels[0]
            assert decoder.decode(0, row[d]) == str(record[field])
        assert row[-1] == record["qty"]


def test_measure_scaling_fixed_point():
    records = [
        {"city": "A", "country": "X", "sku": "s", "qty": 1, "price": "12.34"},
    ]
    result = load_records(
        records,
        [REGION, PRODUCT],
        ["qty", MeasureSpec.of("price", scale=100)],
    )
    assert rows_of(result.table)[0][-1] == 1234


def test_measure_non_integral_rejected():
    records = [
        {"city": "A", "country": "X", "sku": "s", "qty": 1, "price": "12.345"},
    ]
    with pytest.raises(ValueError, match="not integral"):
        load_records(
            records, [REGION, PRODUCT],
            ["qty", MeasureSpec.of("price", scale=100)],
        )


def test_missing_fields_reported():
    with pytest.raises(KeyError, match="country"):
        load_records(
            [{"city": "A", "sku": "s", "qty": 1}], [REGION, PRODUCT], ["qty"]
        )
    with pytest.raises(KeyError, match="qty"):
        load_records(
            [{"city": "A", "country": "X", "sku": "s"}],
            [REGION, PRODUCT],
            ["qty"],
        )


def test_validation_of_specs():
    with pytest.raises(ValueError):
        DimensionSpec.of("empty")
    with pytest.raises(ValueError):
        MeasureSpec.of("m", scale=0)
    with pytest.raises(ValueError, match="at least one dimension"):
        load_records(RECORDS, [], ["qty"])
    with pytest.raises(ValueError, match="at least one measure"):
        load_records(RECORDS, [REGION], [])


def test_load_csv(tmp_path):
    path = tmp_path / "facts.csv"
    path.write_text(
        "city,country,sku,qty\n"
        "Athens,Greece,a,3\n"
        "Paris,France,b,5\n"
    )
    result = load_csv(path, [REGION, PRODUCT], ["qty"])
    assert len(result.table) == 2


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "facts.csv"
    path.write_text(
        "city,country,sku,qty\n"
        "Athens,Greece,a,3\n"
        "\n"
        "Paris,France,b,5\n"
        "\n"
    )
    result = load_csv(path, [REGION, PRODUCT], ["qty"])
    assert [row[-1] for row in rows_of(result.table)] == [3, 5]


@pytest.mark.parametrize(
    "body, line, fields",
    [
        # A short row used to load a city *named* "None" …
        ("1,s0,c0\n2,s1\n", 3, 2),
        # … or die converting the measure 'None' to float …
        ("1,s0,c0\n\ns1,c1\n3,s2,c2\n", 4, 2),
        # … and a long row's extra field was dropped without a word.
        ("1,s0,c0\n2,s1,c1,extra\n", 3, 4),
        # A quoted field spanning lines: the row ends on line 4.
        ('1,"s\n0",c0\n2,s1\n', 4, 2),
    ],
    ids=["short-dimension", "short-measure", "long", "after-multiline"],
)
def test_load_csv_rejects_ragged_rows(tmp_path, body, line, fields):
    path = tmp_path / "facts.csv"
    path.write_text("units,store,city\n" + body)
    with pytest.raises(
        ValueError, match=rf"line {line} has {fields} fields, the header has 3"
    ):
        load_csv(path, [DimensionSpec.of("Store", "store", "city")], ["units"])


def test_load_csv_reads_utf8_with_a_bom_on_any_locale(tmp_path):
    """An Excel "CSV UTF-8" file: the BOM is not part of the first header
    name, and members decode as UTF-8 whatever the locale's encoding."""
    path = tmp_path / "facts.csv"
    path.write_bytes(
        "\ufeffcity,country,sku,qty\r\n"
        "Zürich,Schweiz,a,3\r\n"
        "Αθήνα,Ελλάδα,b,5\r\n".encode("utf-8")
    )
    result = load_csv(path, [REGION, PRODUCT], ["qty"])
    assert result.decoder("Region").members == [
        ["Zürich", "Αθήνα"],
        ["Schweiz", "Ελλάδα"],
    ]
    assert [row[-1] for row in rows_of(result.table)] == [3, 5]
    # The same file under the C locale, UTF-8 mode and locale coercion
    # off: text-mode ``open`` would decode it as ASCII there.
    script = (
        "import json, sys; from repro.datasets.loader import *; "
        "r = load_csv(sys.argv[1], [DimensionSpec.of('Region', 'city', "
        "'country'), DimensionSpec.of('Product', 'sku')], ['qty']); "
        "print(json.dumps(r.decoder('Region').members))"
    )
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
    }
    shown = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(shown.stdout) == result.decoder("Region").members


def test_load_csv_tells_members_apart_by_trailing_nul_bytes(tmp_path):
    """A field is keyed as zero-padded words: "a" and "a\\0" (or their
    nine-byte kin) differ only in length."""
    cities = ["a", "a\0", "a\0\0", "abcdefgh", "abcdefgh\0", "abcdefgh\0\0"]
    path = tmp_path / "facts.csv"
    path.write_text(
        "city,country,sku,qty\n"
        + "".join(f"{city},c,s,{n}\n" for n, city in enumerate(cities))
    )
    result = load_csv(path, [REGION, PRODUCT], ["qty"])
    assert result.decoder("Region").members[0] == cities
    assert [row[0] for row in rows_of(result.table)] == list(range(6))


@pytest.mark.parametrize(
    "body, line, what",
    [
        ("Athens,Greece,a,3\rParis,France,b,5\n", 2, "carriage return"),
        ("Athens,Greece,a,3\nPa\"ris,France,b,5\n", 3, "quote inside an unquoted"),
        ('Athens,Greece,a,3\nPa"ri"s,France,b,5\n', 3, "quote inside an unquoted"),
        ('Athens,Greece,a,3\n"Paris" 2,France,b,5\n', 3, "text after a closing"),
        ('"Athens",Greece,a,3\n"Paris,France,b,5\n', 3, "not closed"),
    ],
    ids=[
        "bare-cr",
        "quote-in-unquoted-field",
        "quotes-in-unquoted-field",
        "text-after-quote",
        "unclosed",
    ],
)
def test_load_csv_rejects_non_rfc_4180_input(tmp_path, monkeypatch, body, line, what):
    """``csv.reader`` read each of these somehow; ``load_csv`` names the
    line instead, whatever the block size."""
    path = tmp_path / "facts.csv"
    path.write_text("city,country,sku,qty\n" + body)
    for chunk_bytes in (1, 1 << 20):
        monkeypatch.setattr("repro.datasets.loader.CHUNK_BYTES", chunk_bytes)
        with pytest.raises(ValueError, match=rf"line {line}: .*{what}"):
            load_csv(path, [REGION, PRODUCT], ["qty"])


def test_load_csv_missing_column_reported(tmp_path):
    path = tmp_path / "facts.csv"
    path.write_text("city,sku,qty\nAthens,a,3\n")
    with pytest.raises(KeyError, match="country"):
        load_csv(path, [REGION, PRODUCT], ["qty"])
    with pytest.raises(KeyError, match="price"):
        load_csv(path, [PRODUCT], ["price"])


def test_load_csv_without_data_rows_is_empty(tmp_path):
    for text in ("", "city,country,sku,qty\n"):
        path = tmp_path / "facts.csv"
        path.write_text(text)
        result = load_csv(path, [REGION, PRODUCT], ["qty"])
        assert len(result.table) == 0
        assert rows_of(result.table) == []


def test_load_csv_chunks_agree_with_one_pass(tmp_path, monkeypatch):
    """Members first seen, parents confirmed and rows rejected in a later
    block than the first, blocks cut inside rows: block size must not show
    in the result."""
    rows = [
        (f"c{i % 7}", f"k{(i % 7) % 3}", f"s{i % 4}", str(i)) for i in range(23)
    ]
    text = "city,country,sku,qty\n" + "".join(
        ",".join(row) + "\n" + ("\n\n\n" if i == 9 else "")
        for i, row in enumerate(rows)
    )
    path = tmp_path / "facts.csv"
    path.write_text(text)
    records = [dict(zip(("city", "country", "sku", "qty"), row)) for row in rows]
    whole = load_records(records, [REGION, PRODUCT], ["qty"])
    for chunk_bytes in (1, 7, 40):
        monkeypatch.setattr("repro.datasets.loader.CHUNK_BYTES", chunk_bytes)
        chunked = load_csv(path, [REGION, PRODUCT], ["qty"])
        assert rows_of(chunked.table) == rows_of(whole.table)
        assert chunked.decoders == whole.decoders
        assert [d.base_maps for d in chunked.schema.dimensions] == [
            d.base_maps for d in whole.schema.dimensions
        ]
    path.write_text(text + "c0,k1,s0,5\n")  # c0 was under k0 chunks ago
    with pytest.raises(HierarchyViolation, match="c0"):
        load_csv(path, [REGION, PRODUCT], ["qty"])
    path.write_text(text + "c0,k0,s0\n")
    with pytest.raises(ValueError, match="line 28 has 3 fields"):
        load_csv(path, [REGION, PRODUCT], ["qty"])


def test_cube_over_loaded_data_matches_reference():
    from repro import build_cube
    from repro.query import FactCache, answer_cure_query, reference_group_by
    from repro.query.answer import normalize_answer

    result = load()
    built = build_cube(result.schema, table=result.table)
    cache = FactCache(result.schema, table=result.table)
    for node in result.schema.lattice.nodes():
        expected = reference_group_by(
            result.schema, rows_of(result.table), node
        )
        got = normalize_answer(
            answer_cure_query(built.storage, cache, node)
        )
        assert got == expected
