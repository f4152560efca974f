"""Unit tests for the CovType/Sep85L simulacra."""

import pytest

from repro.datasets.real import (
    COVTYPE_TUPLES,
    SEP85L_TUPLES,
    generate_covtype_like,
    generate_sep85l_like,
)
from tests.support.rows import rows_digest, rows_of


def test_dimensionality_matches_originals():
    cov_schema, _t = generate_covtype_like(scale=1 / 500)
    sep_schema, _t = generate_sep85l_like(scale=1 / 500)
    assert cov_schema.n_dimensions == 10
    assert sep_schema.n_dimensions == 9


def test_tuple_counts_scale():
    _s, cov = generate_covtype_like(scale=1 / 100)
    _s, sep = generate_sep85l_like(scale=1 / 100)
    assert len(cov) == round(COVTYPE_TUPLES / 100)
    assert len(sep) == round(SEP85L_TUPLES / 100)


def test_cardinalities_decreasing():
    cov_schema, _t = generate_covtype_like(scale=1 / 100)
    cards = [d.base_cardinality for d in cov_schema.dimensions]
    assert cards == sorted(cards, reverse=True)


def test_sep85l_has_narrow_tail():
    sep_schema, _t = generate_sep85l_like(scale=1 / 100)
    cards = [d.base_cardinality for d in sep_schema.dimensions]
    assert min(cards) <= 4  # dense areas come from narrow domains


def test_sparsity_character():
    """CovType-like data is sparser: more distinct full-dimension combos
    per tuple than the Sep85L-like data."""
    _s, cov = generate_covtype_like(scale=1 / 200)
    _s, sep = generate_sep85l_like(scale=1 / 200)

    def distinct_share(table, n_dims):
        combos = {row[:n_dims] for row in rows_of(table)}
        return len(combos) / len(table)

    assert distinct_share(cov, 10) > distinct_share(sep, 9)


def test_schemas_carry_sum_and_count():
    schema, _t = generate_covtype_like(scale=1 / 500)
    assert schema.n_aggregates == 2
    assert schema.count_aggregate_index() is not None


def test_deterministic():
    _s, a = generate_covtype_like(scale=1 / 500, seed=9)
    _s, b = generate_covtype_like(scale=1 / 500, seed=9)
    assert rows_of(a) == rows_of(b)


def test_seeded_output_pinned():
    """Same seed, same table as when the generator boxed its columns into
    row tuples (values pinned at the commit before it stopped)."""
    _s, cov = generate_covtype_like(scale=1 / 500, seed=9)
    assert rows_of(cov)[0] == (8, 1, 1, 0, 1, 0, 1, 1, 1, 1, 42)
    assert rows_digest(cov) == (
        "25c2e55136dbbc1741d4e04aa1aee72d315a3fc054ef0fcb4f65df8a277d5bd4"
    )
    _s, sep = generate_sep85l_like(scale=1 / 500, seed=9)
    assert rows_of(sep)[0] == (6, 1, 1, 0, 1, 4, 1, 0, 0, 86)
    assert rows_digest(sep) == (
        "9c38293be8efe63af95499f449316b7f9b0fce40b45c43278950d7c3c1178f90"
    )
