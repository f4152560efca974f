"""One end-to-end story: raw records → cube → bundle → planner → updates.

The scenario a downstream adopter walks through, as a single test: load
CSV-shaped records with derived hierarchies, build a CURE+ cube, persist
it as a bundle, reopen it, answer planned queries (direct, roll-up after
switching to a flat cube, sliced), apply a nightly append incrementally,
and stay equivalent to ground truth throughout.
"""

import random

import pytest

from repro import build_cube
from repro.bundle import open_bundle, save_bundle
from repro.core.incremental import apply_delta
from repro.core.postprocess import postprocess_plus
from repro.datasets.loader import DimensionSpec, load_records
from repro.lattice.node import CubeNode
from repro.query import (
    DimensionSlice,
    FactCache,
    reference_group_by,
)
from repro.query.answer import normalize_answer
from repro.query.planner import CubePlanner, QueryRequest, build_indices

CITIES = [
    ("Athens", "Greece", "Europe"), ("Patras", "Greece", "Europe"),
    ("Paris", "France", "Europe"), ("Lyon", "France", "Europe"),
    ("Seoul", "Korea", "Asia"), ("Busan", "Korea", "Asia"),
]


def make_records(n, seed):
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        city, country, continent = CITIES[rng.randrange(len(CITIES))]
        sku = rng.randrange(12)
        records.append({
            "city": city, "country": country, "continent": continent,
            "sku": f"s{sku}", "brand": f"b{sku % 4}",
            "qty": rng.randrange(1, 9),
        })
    return records


def test_full_story(tmp_path):
    # 1. Load raw records; hierarchies derived and validated from data.
    loaded = load_records(
        make_records(400, seed=71),
        [DimensionSpec.of("Region", "city", "country", "continent"),
         DimensionSpec.of("Product", "sku", "brand")],
        ["qty"],
    )
    schema, fact = loaded.schema, loaded.table

    # 2. Build CURE+ and persist as a bundle.
    result = build_cube(schema, table=fact)
    postprocess_plus(result.storage)
    save_bundle(tmp_path / "cube", schema, fact, result.storage,
                extra={"variant": "CURE+"})

    # 3. Reopen and answer through the planner.
    with open_bundle(tmp_path / "cube") as bundle:
        fact_batch = bundle.v2.fact.as_batch()
        planner = CubePlanner(
            bundle.storage,
            bundle.fact_cache(),
            indices=build_indices(bundle.schema, fact_batch),
        )
        region_index = next(
            d for d, dim in enumerate(bundle.schema.dimensions)
            if dim.name == "Region"
        )
        region = bundle.schema.dimensions[region_index]
        country_level = region.level_index("country")
        levels = [d.all_level for d in bundle.schema.dimensions]
        levels[region_index] = country_level
        node = CubeNode(tuple(levels))

        direct = QueryRequest.of(node)
        assert planner.plan(direct).strategy == "direct"
        got = normalize_answer(planner.answer(direct))
        assert got == reference_group_by(bundle.schema, fact_batch.to_rows(), node)

        europe = region.member_names[2].index("Europe")
        sliced = QueryRequest.of(
            node, DimensionSlice.of(region_index, 2, {europe})
        )
        assert planner.plan(sliced).strategy == "indexed"
        answer = planner.answer(sliced)
        names = {
            region.member_name(country_level, dims[0])
            for dims, _aggs in answer
        }
        assert names == {"Greece", "France"}

    # 4. Nightly append, applied incrementally; equivalence preserved.
    delta_records = make_records(60, seed=72)
    # Re-encode delta rows under the ORIGINAL schema's dictionaries.
    delta_rows = []
    for record in delta_records:
        codes = []
        for dimension in schema.dimensions:
            decoder = loaded.decoder(dimension.name)
            codes.append(decoder.encode(0, str(record[decoder.spec.levels[0]])))
        delta_rows.append(tuple(codes) + (record["qty"],))
    apply_delta(result.storage, schema, fact, delta_rows)
    cache = FactCache(schema, table=fact)
    from repro.query import answer_cure_query

    for node in list(schema.lattice.nodes())[::4]:
        expected = reference_group_by(schema, fact.to_rows(), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(schema.dimensions)
