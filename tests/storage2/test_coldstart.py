"""Cold-start contract: opening a v2 bundle unpacks **zero** heap rows.

The whole point of the mapped container is that time-to-first-answer no
longer pays for decoding the fact heap file.  A
spy over every :class:`HeapFile` read primitive proves the v2 open +
planner + first-query path never touches them, and that the answers it
produces match the built cube's, read from memory.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.relational.heap as heap_module
from repro.bundle import open_bundle
from repro.core.storage import CatFormat
from repro.query.cache import FactCache
from repro.query.answer import tt_source_ids
from repro.query.planner import CubePlanner, QueryRequest
from repro.query.slice import DimensionSlice
from repro.query.workload import mixed_workload
from repro.relational.catalog import Catalog
from repro.server.encoding import encode_answer
from repro.server.replay import replay_op
from repro.storage2 import V2File

SPIED = ("load_mapped", "scan_batches", "read_batch")


@pytest.fixture
def heap_reads(monkeypatch):
    """Counts every heap-file row-reading call, by method name."""
    counts = {name: 0 for name in SPIED}
    for name in SPIED:
        original = getattr(heap_module.HeapFile, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(heap_module.HeapFile, name, spy)
    return counts


def test_v2_cold_start_reads_no_heap_rows(dual_bundles, heap_reads):
    built, _ = dual_bundles["CURE+"]
    schema = built.schema

    # Reference answers first, from the cube the build returned.
    reference = built.planner()
    nodes = list(schema.lattice.nodes())[:6]
    expected = {
        schema.node_id(node): encode_answer(
            schema, node, reference.answer(QueryRequest.of(node)), kind="node"
        )
        for node in nodes
    }
    ops = mixed_workload(schema, 20, seed=41)
    expected_ops = [replay_op(reference, op) for op in ops]
    for name in heap_reads:
        heap_reads[name] = 0

    # Cold start: open, plan, answer — all over the mapped container.
    bundle = open_bundle(built.root)
    try:
        planner = bundle.planner()
        for node in nodes:
            body = encode_answer(
                schema, node, planner.answer(QueryRequest.of(node)), kind="node"
            )
            assert body == expected[schema.node_id(node)]
        for op, want in zip(ops, expected_ops):
            assert replay_op(planner, op) == want, op
    finally:
        bundle.close()

    assert heap_reads == {name: 0 for name in SPIED}, heap_reads


def test_v1_open_does_hit_the_heap(dual_bundles, heap_reads):
    # The spy itself must be load-bearing: answering through the bundle's
    # v1 fact heap trips it.
    built, _ = dual_bundles["CURE"]
    bundle = open_bundle(built.root)
    try:
        cache = FactCache(built.schema, heap=Catalog(built.root).open("fact"))
        node = next(iter(built.schema.lattice.nodes()))
        CubePlanner(bundle.storage, cache).answer(QueryRequest.of(node))
    finally:
        bundle.close()
    assert sum(heap_reads.values()) > 0


def test_counts_over_a_mapped_cube_decode_no_section(dual_bundles, monkeypatch):
    """The planner's cost estimate and ``relation_count`` read row counts
    from the v2 directory: over every node, ``V2File.array`` is never
    called — and what it returns once a query does ask is read-only."""
    built, _ = dual_bundles["CURE+"]
    decoded: list[str] = []
    original = V2File.array

    def spy(self, name):
        decoded.append(name)
        return original(self, name)

    monkeypatch.setattr(V2File, "array", spy)
    bundle = open_bundle(built.root)
    try:
        planner = bundle.planner()
        storage = bundle.storage
        estimated = {
            node: planner._estimated_tuples(node)
            for node in built.schema.lattice.nodes()
        }
        relations = sum(s.relation_count for s in storage.nodes.values())
        assert storage.aggregates_count == built.storage.aggregates_count
        assert decoded == []

        assert relations == built.storage.size_report().n_relations
        reference = built.planner()
        for node, estimate in estimated.items():
            assert estimate == reference._estimated_tuples(node)
        for store in storage.nodes.values():
            for array in (store.nt_matrix(), store.tt_array(), store.cat_matrix()):
                assert not array.flags.writeable
        assert not storage.aggregates_matrix().flags.writeable
        assert decoded
    finally:
        bundle.close()


def expected_decodes(built, node) -> set[str]:
    """The sections a cold direct answer of ``node`` must decode, from
    the built cube's relation counts: the node's NT and CAT (plus
    AGGREGATES under a CAT), every TT source's TT, the fact columns of
    its grouping dimensions when any stored row carries a row-id, and
    the measures only when a TT row is answered."""
    schema, storage = built.schema, built.storage
    node_id = schema.node_id(node)
    store = storage.get_node_store(node_id)
    sections: set[str] = set()
    dereferenced = False
    if store is not None and store.nt_count:
        sections.add(f"node/{node_id}/nt")
        dereferenced = not storage.dr_mode
    if store is not None and store.cat_count:
        sections |= {f"node/{node_id}/cat", "aggregates"}
        dereferenced = True
    tts = [
        source
        for source in tt_source_ids(storage, node, node_id)
        if storage.get_node_store(source) is not None
        and storage.get_node_store(source).tt_count
    ]
    sections |= {f"node/{source}/tt" for source in tts}
    if dereferenced or tts:
        grouping = node.grouping_dims(schema.dimensions)
        sections |= {f"fact/dim/{d}" for d in grouping}
    if tts:
        sections |= {f"fact/measure/{m}" for m in range(schema.n_measures)}
    return sections


@pytest.fixture
def decoded(monkeypatch):
    """Every section name ``V2File.array`` is asked for, in order."""
    names: list[str] = []
    original = V2File.array

    def spy(self, name):
        names.append(name)
        return original(self, name)

    monkeypatch.setattr(V2File, "array", spy)
    return names


@pytest.mark.parametrize("variant", ["CURE", "CURE+", "FCURE"])
def test_cold_answer_decodes_only_what_it_reads(dual_bundles, decoded, variant):
    """Per node, a fresh open and one direct answer decode exactly the
    node's relations and the fact columns that answer reads — not the
    whole fact table."""
    built, _ = dual_bundles[variant]
    schema = built.schema
    seen = {"measures": 0, "no measures": 0, "cat": 0, "partial dims": 0}
    for node in schema.lattice.nodes():
        bundle = open_bundle(built.root)
        try:
            planner = bundle.planner()
            request = QueryRequest.of(node)
            if planner.plan(request).strategy != "direct":
                continue
            decoded.clear()
            planner.answer(request)
        finally:
            bundle.close()
        want = expected_decodes(built, node)
        assert set(decoded) == want, schema.node_id(node)
        fact_read = any(name.startswith("fact/dim/") for name in want)
        measures = any(name.startswith("fact/measure/") for name in want)
        seen["measures"] += measures
        seen["no measures"] += fact_read and not measures
        seen["cat"] += "aggregates" in want
        seen["partial dims"] += 0 < len(
            node.grouping_dims(schema.dimensions)
        ) < schema.n_dimensions and fact_read
    assert all(seen.values()), seen


def test_cold_slice_decodes_only_the_columns_it_slices_or_fetches(
    dual_bundles, decoded
):
    """Per node, a fresh open and one pre-filtered slice decode the
    node's relations, the sliced dimension's fact column and — only when
    a stored row survives the slice — the grouping dimensions' columns
    (plus the measures when a TT row does): no other section."""
    built, _ = dual_bundles["CURE+"]
    schema, storage = built.schema, built.storage
    seen = {"fetched": 0, "none survive": 0, "other dims unread": 0}
    for node in schema.lattice.nodes():
        grouping = node.grouping_dims(schema.dimensions)
        if not grouping:
            continue
        node_id = schema.node_id(node)
        store = storage.get_node_store(node_id)
        stored = []  # the fact row-ids each relation dereferences
        if store is not None and store.nt_count:
            stored.append(store.nt_matrix()[:, 0])
        if store is not None and store.cat_count:
            cat = store.cat_matrix()
            if storage.cat_format is CatFormat.COMMON_SOURCE:
                stored.append(storage.aggregates_matrix()[cat[:, 0], 0])
            else:
                stored.append(cat[:, 0])
        tts = [
            storage.get_node_store(source).tt_array()
            for source in tt_source_ids(storage, node, node_id)
            if storage.get_node_store(source) is not None
            and storage.get_node_store(source).tt_count
        ]
        relations = {
            name
            for name in expected_decodes(built, node)
            if not name.startswith("fact/")
        }
        dim = grouping[0]
        dimension = schema.dimensions[dim]
        level = dimension.n_levels - 1
        # Member 0 keeps some rows; a member past the level keeps none.
        for member in (0, dimension.cardinality(level)):
            request = QueryRequest.of(node, DimensionSlice.of(dim, level, {member}))
            with open_bundle(built.root) as bundle:
                planner = bundle.planner()
                assert planner.plan(request).strategy == "prefilter"
                decoded.clear()
                got = planner.answer(request)
            reference = built.planner().answer(request)
            assert got.normalized().to_pairs() == (
                reference.normalized().to_pairs()
            )

            passes = np.array(
                [
                    dimension.code_at(c, level) == member
                    for c in range(dimension.base_cardinality)
                ]
            )[built.fact.column_at(dim)]
            want = relations | {f"fact/dim/{dim}"}
            tt_survives = any(passes[rowids].any() for rowids in tts)
            if tt_survives or any(passes[rowids].any() for rowids in stored):
                want |= {f"fact/dim/{d}" for d in grouping}
                seen["fetched"] += 1
            else:
                seen["none survive"] += 1
            if tt_survives:
                want |= {f"fact/measure/{m}" for m in range(schema.n_measures)}
            assert set(decoded) == want, (node_id, member)
            seen["other dims unread"] += len(grouping) < schema.n_dimensions
    assert all(seen.values()), seen
