"""Unit tests for the APB-1 generator."""

import pytest

from repro.datasets.apb import (
    APB_LEVELS,
    apb_dimensions,
    apb_tuple_count,
    generate_apb_dataset,
)
from tests.support.rows import rows_digest, rows_of


def test_exact_cardinalities_from_the_paper():
    product, customer, time, channel = apb_dimensions()
    assert [level.cardinality for level in product.levels] == [
        6_500, 435, 215, 54, 11, 3,
    ]
    assert [level.cardinality for level in customer.levels] == [640, 71]
    assert [level.cardinality for level in time.levels] == [17, 6, 2]
    assert channel.base_cardinality == 9


def test_lattice_has_168_nodes():
    """(6+1)·(2+1)·(3+1)·(1+1) = 168, as Section 7 states."""
    schema, _table = generate_apb_dataset(density=0.01)
    assert schema.enumerator.n_nodes == 168


def test_density_drives_tuple_count():
    assert apb_tuple_count(0.1, scale=1.0) == 1_239_300  # the paper's figure
    assert apb_tuple_count(0.1, scale=1 / 100) == 12_393
    assert apb_tuple_count(40, scale=1.0) == 495_720_000


def test_measures_and_aggregates():
    schema, table = generate_apb_dataset(density=0.01)
    assert schema.n_measures == 2
    assert schema.n_aggregates == 2
    schema_counted, _t = generate_apb_dataset(density=0.01, with_count=True)
    assert schema_counted.count_aggregate_index() is not None


def test_dimension_codes_in_range():
    schema, table = generate_apb_dataset(density=0.01, seed=3)
    for row in rows_of(table)[:500]:
        for d, dimension in enumerate(schema.dimensions):
            assert 0 <= row[d] < dimension.base_cardinality


def test_calendar_time_rollups():
    _product, _customer, time, _channel = apb_dimensions()
    # Month 16 (the 17th) sits in quarter 5, year 1.
    assert time.code_at(16, 1) == 5
    assert time.code_at(16, 2) == 1
    # Month 0 is quarter 0, year 0.
    assert time.code_at(0, 1) == 0
    assert time.code_at(0, 2) == 0


def test_member_scale_shrinks_wide_dimensions_only():
    product, customer, time, channel = apb_dimensions(member_scale=1 / 8)
    assert product.base_cardinality == round(6_500 / 8)
    assert customer.base_cardinality == 80
    # Chain stays monotone non-increasing upward.
    cards = [level.cardinality for level in product.levels]
    assert cards == sorted(cards, reverse=True)
    # Time and Channel untouched.
    assert [level.cardinality for level in time.levels] == [17, 6, 2]
    assert channel.base_cardinality == 9
    # The 168-node lattice structure is preserved.
    assert product.n_levels == 6 and customer.n_levels == 2


def test_invalid_density_rejected():
    with pytest.raises(ValueError):
        generate_apb_dataset(density=0)


def test_deterministic_by_seed():
    _s, t1 = generate_apb_dataset(density=0.01, seed=1)
    _s, t2 = generate_apb_dataset(density=0.01, seed=1)
    assert rows_of(t1) == rows_of(t2)


def test_seeded_output_pinned():
    """Same seed, same table as when the generator boxed its columns into
    row tuples (values pinned at the commit before it stopped)."""
    _s, table = generate_apb_dataset(density=0.01, seed=3)
    assert len(table) == 124
    assert rows_of(table)[:2] == [
        (5274, 116, 16, 4, 974, 10714), (556, 481, 13, 0, 353, 6707),
    ]
    assert rows_digest(table) == (
        "c91990224449c21bf41bf55877fef091d504f07d1f6a50a4743e93f3223b4968"
    )
