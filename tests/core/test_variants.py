"""Unit tests for the CURE variant configurations."""

import pytest

from repro.core.variants import VARIANTS, CureConfig
from tests.support.rows import table_of


def test_registry_contains_paper_variants():
    assert set(VARIANTS) == {
        "CURE", "CURE+", "CURE_DR", "CURE_DR+", "FCURE", "FCURE+",
    }


def test_flags_match_names():
    assert not VARIANTS["CURE"].plus
    assert VARIANTS["CURE+"].plus
    assert VARIANTS["CURE_DR"].dr_mode
    assert VARIANTS["FCURE"].flat
    assert VARIANTS["FCURE+"].flat and VARIANTS["FCURE+"].plus


def test_with_pool_and_min_count_return_new_configs():
    base = VARIANTS["CURE"]
    tweaked = base.with_pool(10).with_min_count(5)
    assert tweaked.pool_capacity == 10
    assert tweaked.min_count == 5
    assert base.pool_capacity == 1_000_000
    assert base.min_count == 1


def test_build_runs_plus_pass(flat_schema, figure9_table):
    result, plus = VARIANTS["CURE+"].build(flat_schema, table=figure9_table)
    assert plus is not None
    assert result.storage.plus_processed


def test_build_without_plus(flat_schema, figure9_table):
    result, plus = VARIANTS["CURE"].build(flat_schema, table=figure9_table)
    assert plus is None
    assert not result.storage.plus_processed


def test_dr_plus_composition(flat_schema, figure9_table):
    result, plus = VARIANTS["CURE_DR+"].build(flat_schema, table=figure9_table)
    assert result.storage.dr_mode
    assert result.storage.plus_processed


def test_dr_cube_is_larger_but_same_tuples(paper_schema):
    # NTs in multi-dimensional nodes store G > 1 values instead of one
    # row-id, so the DR cube is strictly larger on realistic data (on a
    # cube whose NTs all sit in 0/1-dimensional nodes it can tie or win).
    import random

    rng = random.Random(11)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(20))
        for _ in range(300)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    plain, _x = VARIANTS["CURE"].build(paper_schema, table=table)
    dr, _x = VARIANTS["CURE_DR"].build(paper_schema, table=table)
    plain_report = plain.storage.size_report()
    dr_report = dr.storage.size_report()
    assert dr_report.n_nt == plain_report.n_nt
    assert dr_report.total_bytes > plain_report.total_bytes


def test_fcure_smaller_and_faster_shape(paper_schema):
    import random

    rng = random.Random(9)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(20))
        for _ in range(150)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    full, _x = VARIANTS["CURE"].build(paper_schema, table=table)
    flat, _x = VARIANTS["FCURE"].build(paper_schema, table=table)
    assert (
        flat.storage.size_report().total_bytes
        < full.storage.size_report().total_bytes
    )
    assert flat.stats.nodes_aggregated < full.stats.nodes_aggregated
