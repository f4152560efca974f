"""Unit tests for the synthetic Zipf generator."""

import numpy as np
import pytest

from repro.datasets.synthetic import (
    default_cardinalities,
    generate_flat_dataset,
    zipf_probabilities,
)
from tests.support.rows import rows_digest, rows_of


def test_zipf_uniform_at_zero():
    probabilities = zipf_probabilities(10, 0.0)
    assert np.allclose(probabilities, 0.1)


def test_zipf_monotone_decreasing():
    probabilities = zipf_probabilities(100, 1.2)
    assert np.all(np.diff(probabilities) <= 0)
    assert probabilities.sum() == pytest.approx(1.0)


def test_zipf_validation():
    with pytest.raises(ValueError):
        zipf_probabilities(0, 1.0)
    with pytest.raises(ValueError):
        zipf_probabilities(10, -0.1)


def test_default_cardinalities_are_t_over_i():
    assert default_cardinalities(4, 1000) == (1000, 500, 333, 250)
    assert default_cardinalities(2, 3) == (3, 2)  # floored at 2


def test_generate_flat_dataset_shape():
    schema, table = generate_flat_dataset(3, 200, zipf=0.8, seed=1)
    assert schema.n_dimensions == 3
    assert len(table) == 200
    assert table.schema.arity == 4  # 3 dims + 1 measure
    for row in rows_of(table):
        for d, dimension in enumerate(schema.dimensions):
            assert 0 <= row[d] < dimension.base_cardinality


def test_generate_deterministic_by_seed():
    _s1, t1 = generate_flat_dataset(3, 100, seed=5)
    _s2, t2 = generate_flat_dataset(3, 100, seed=5)
    _s3, t3 = generate_flat_dataset(3, 100, seed=6)
    assert rows_of(t1) == rows_of(t2)
    assert rows_of(t1) != rows_of(t3)


def test_skew_concentrates_mass():
    _s, uniform = generate_flat_dataset(1, 3000, zipf=0.0, seed=2)
    _s, skewed = generate_flat_dataset(1, 3000, zipf=1.8, seed=2)
    def top_share(table):
        values = [row[0] for row in rows_of(table)]
        counts = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        return max(counts.values()) / len(values)
    assert top_share(skewed) > 3 * top_share(uniform)


def test_cardinality_validation():
    with pytest.raises(ValueError, match="one cardinality"):
        generate_flat_dataset(2, 10, cardinalities=(5,))
    with pytest.raises(ValueError):
        generate_flat_dataset(0, 10)


def test_multiple_measures_and_aggregates():
    schema, table = generate_flat_dataset(
        2, 50, n_measures=2,
        aggregates=(("sum", 0), ("sum", 1), ("count", 0)),
    )
    assert schema.n_aggregates == 3
    assert table.schema.arity == 4


def _member_share(table, dimension, member):
    values = [row[dimension] for row in rows_of(table)]
    return values.count(member) / len(values)


def test_hot_member_fraction_concentrates_one_member():
    _s, table = generate_flat_dataset(
        2, 2000, zipf=0.0, seed=3, hot_member_fraction=0.7
    )
    share = _member_share(table, 0, 0)
    assert 0.6 < share < 0.8  # ~Binomial(2000, 0.7) plus uniform spillover


def test_hot_member_fraction_targets_chosen_dimension():
    _s, table = generate_flat_dataset(
        3, 1500, zipf=0.0, seed=4, hot_member_fraction=0.9, hot_dimension=1
    )
    assert _member_share(table, 1, 0) > 0.85
    # Other dimensions keep their (spread-out) Zipf draw.
    assert _member_share(table, 0, 0) < 0.2


def test_hot_member_fraction_zero_is_inert():
    _s, plain = generate_flat_dataset(2, 300, seed=9)
    _s, with_knob = generate_flat_dataset(
        2, 300, seed=9, hot_member_fraction=0.0
    )
    assert rows_of(plain) == rows_of(with_knob)


def test_hot_member_fraction_validation():
    with pytest.raises(ValueError, match="hot_member_fraction"):
        generate_flat_dataset(2, 10, hot_member_fraction=1.5)
    with pytest.raises(ValueError, match="hot_member_fraction"):
        generate_flat_dataset(2, 10, hot_member_fraction=-0.1)
    with pytest.raises(ValueError, match="hot_dimension"):
        generate_flat_dataset(2, 10, hot_member_fraction=0.5, hot_dimension=2)


def test_seeded_output_pinned():
    """Same seed, same table as when the generator boxed its columns into
    row tuples (values pinned at the commit before it stopped)."""
    _s, table = generate_flat_dataset(3, 100, seed=5)
    assert rows_of(table)[:2] == [(50, 31, 0, 64), (51, 29, 27, 66)]
    assert rows_digest(table) == (
        "d19b6a516d732bdd88551486a076ec7921388d1cb10fdfebf3be3c52de613538"
    )
    _s, hot = generate_flat_dataset(
        4, 300, zipf=1.1, seed=8, n_measures=2,
        aggregates=(("sum", 0), ("sum", 1)),
        hot_member_fraction=0.5, hot_dimension=1,
    )
    assert rows_of(hot)[:2] == [
        (2, 0, 94, 48, 87, 58), (268, 0, 34, 6, 3, 32),
    ]
    assert rows_digest(hot) == (
        "3cdcc765541a93b2c60e4537d9d9c502e1ac9d08e8a88afaabc8ea3bb962e830"
    )
