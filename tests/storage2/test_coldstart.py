"""Cold-start contract: opening a v2 bundle unpacks **zero** heap rows.

The whole point of the mapped container is that time-to-first-answer no
longer pays for decoding the fact heap file and rebuilding indices.  A
spy over every :class:`HeapFile` read primitive proves the v2 open +
planner + first-query path never touches them, and that the answers it
produces match the built cube's, read from memory.
"""

from __future__ import annotations

import pytest

import repro.relational.heap as heap_module
from repro.bundle import open_bundle
from repro.query.cache import FactCache
from repro.query.planner import CubePlanner, QueryRequest
from repro.query.workload import mixed_workload
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
        cache = FactCache(built.schema, heap=bundle.catalog.open("fact"))
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
        planner = bundle.planner(with_indices=False)
        storage = bundle.storage
        estimated = {
            node: planner._estimated_tuples(node)
            for node in built.schema.lattice.nodes()
        }
        relations = sum(s.relation_count for s in storage.nodes.values())
        assert storage.aggregates_count == built.storage.aggregates_count
        assert decoded == []

        assert relations == built.storage.size_report().n_relations
        reference = built.planner(with_indices=False)
        for node, estimate in estimated.items():
            assert estimate == reference._estimated_tuples(node)
        for store in storage.nodes.values():
            for array in (store.nt_matrix(), store.tt_array(), store.cat_matrix()):
                assert not array.flags.writeable
        assert not storage.aggregates_matrix().flags.writeable
        assert decoded
    finally:
        bundle.close()
