"""Unit tests for the streaming ingestor: watermark, compaction, recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import CubeSchema, build_cube, linear_dimension, make_aggregates
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.ingest import IngestError, StreamingIngestor
from repro.ingest.ingestor import generation_container
from repro.lattice.node import CubeNode
from repro.query import (
    CubePlanner,
    DimensionSlice,
    FactCache,
    QueryRequest,
    reference_group_by,
)
from repro.query.answer import normalize_answer
from repro.relational.batch import ColumnBatch
from repro.relational.durable import InjectedCrash, file_checksum
from repro.storage2 import V2File, V2FormatError, open_v2, write_v2
from repro.storage2.format import ValueOutOfDomain
from tests.property.test_hypothesis_delta_merge import assert_keys_kept
from tests.storage2.test_corruption import flip_byte
from tests.support.rows import rows_of, table_of


def small_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 8), ("A1", 4), ("A2", 2)])
    b = linear_dimension("B", [("B0", 5)])
    return CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


SCHEMA = small_schema()

BASE = [(code % 8, code % 5, code * 3) for code in range(40)]


def bootstrap(engine, tmp_path, **kwargs):
    return StreamingIngestor.bootstrap(
        SCHEMA,
        engine,
        table_of(SCHEMA.fact_schema, list(BASE)),
        tmp_path / "log",
        seal_records=2,
        **kwargs,
    )


def fresh_engine(tmp_path):
    from repro.relational.catalog import Catalog
    from repro.relational.engine import Engine
    from repro.relational.memory import MemoryManager

    return Engine(Catalog(tmp_path / "cat"), MemoryManager())


def assert_queries_match(ingestor):
    cache = FactCache(SCHEMA, table=ingestor.fact_table)
    for node in SCHEMA.lattice.nodes():
        expected = reference_group_by(SCHEMA, rows_of(ingestor.fact_table), node)
        planner = CubePlanner(ingestor.storage, cache)
        got = normalize_answer(planner.answer(QueryRequest(node)))
        assert got == expected, node.label(SCHEMA.dimensions)


@pytest.mark.parametrize("plus", [False, True])
def test_kept_group_keys_survive_compaction_and_recovery(tmp_path, plus):
    """After every record — on the bootstrapped cube, on a compacted
    one and on a recovered one — the group keys the merger keeps equal
    keys computed from scratch."""
    engine = fresh_engine(tmp_path)
    ingestor = bootstrap(engine, tmp_path, plus=plus)

    def fold(start: int) -> None:
        for code in range(start, start + 3):
            ingestor.append([(code % 8, code % 5, code), ((code * 3) % 8, 1, -code)])
            ingestor.log.seal()
            ingestor.apply_ready()
            assert_keys_kept(ingestor.storage, SCHEMA, ingestor.fact_table)
            assert ingestor.storage.plus_processed == plus

    fold(0)
    ingestor.compact()
    assert ingestor.storage.keyed_relations is None  # a rebuilt cube
    fold(10)
    ingestor.checkpoint()
    engine.close()
    engine = fresh_engine(tmp_path)
    ingestor = StreamingIngestor.recover(engine, tmp_path / "log", seal_records=2)
    fold(20)
    assert_queries_match(ingestor)
    engine.close()


def test_bootstrap_apply_recover_round_trip(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path, plus=True)
    for start in range(0, 8, 2):
        ingestor.append([(start % 8, start % 5, 100 + start)])
        ingestor.append([((start + 1) % 8, (start + 1) % 5, 200 + start)])
        ingestor.apply_ready()
    assert ingestor.applied_lsn == 7
    assert ingestor.stats.records_applied == 8
    ingestor.checkpoint()
    assert_queries_match(ingestor)

    recovered = StreamingIngestor.recover(
        fresh_engine(tmp_path), tmp_path / "log", seal_records=2
    )
    assert recovered.applied_lsn == ingestor.applied_lsn
    assert recovered.generation == ingestor.generation
    assert rows_of(recovered.fact_table) == rows_of(ingestor.fact_table)
    assert recovered.storage.plus_processed
    assert_queries_match(recovered)


def test_recover_without_manifest_raises(engine, tmp_path):
    with pytest.raises(IngestError, match="nothing committed"):
        StreamingIngestor.recover(engine, tmp_path / "log")


def committed_generation(engine, tmp_path):
    """One applied record, checkpointed; returns the container's path."""
    ingestor = bootstrap(engine, tmp_path)
    ingestor.append([(1, 1, 5)])
    ingestor.log.seal()
    ingestor.apply_ready()
    ingestor.checkpoint()
    return ingestor, engine.catalog.root / generation_container(
        ingestor.generation
    )


def test_recover_rejects_tampered_fact(engine, tmp_path):
    _ingestor, container = committed_generation(engine, tmp_path)
    entry = V2File.open(container).entry("fact/measure/0")
    flip_byte(container, entry.offset + entry.nbytes - 1)
    with pytest.raises(IngestError, match="fails verification"):
        StreamingIngestor.recover(
            fresh_engine(tmp_path), tmp_path / "log"
        )


def test_recover_rejects_truncated_generation(engine, tmp_path):
    _ingestor, container = committed_generation(engine, tmp_path)
    container.write_bytes(container.read_bytes()[:200])
    with pytest.raises(IngestError, match="fails verification"):
        StreamingIngestor.recover(
            fresh_engine(tmp_path), tmp_path / "log"
        )
    container.unlink()
    with pytest.raises(IngestError, match="missing container"):
        StreamingIngestor.recover(
            fresh_engine(tmp_path), tmp_path / "log"
        )


def test_recover_verifies_sections_behind_the_file_checksum(engine, tmp_path):
    """The container's own checksums are a second line: a manifest that
    vouches for damaged bytes still does not get them loaded."""
    ingestor, container = committed_generation(engine, tmp_path)
    # An NT with a payload: a one-row relation is all frame of reference
    # (every column constant) and stores no bytes to damage.
    file = V2File.open(container)
    name = next(
        n for n in file.names() if n.endswith("/nt") and file.entry(n).nbytes
    )
    flip_byte(container, file.entry(name).offset)
    payload = json.loads(ingestor.manifest_path.read_text())
    payload["container_checksum"] = file_checksum(container)
    ingestor.manifest_path.write_text(json.dumps(payload))
    with pytest.raises(IngestError, match=name):
        StreamingIngestor.recover(
            fresh_engine(tmp_path), tmp_path / "log"
        )


def test_a_row_count_the_directory_disowns_fails_closed(engine, tmp_path):
    """Fact columns one row short of the directory's count: serving
    raises on the first fact read, and recovery refuses the generation."""
    ingestor, container = committed_generation(engine, tmp_path)
    ingestor.storage.fact_row_count += 1
    write_v2(container, SCHEMA, ingestor.storage, ingestor.fact_table.as_batch())
    served = open_v2(container, SCHEMA).fact
    assert len(served) == len(ingestor.fact_table) + 1  # the directory's
    with pytest.raises(V2FormatError, match="rows"):
        served.column_at(0)  # each column is checked as it is decoded
    with pytest.raises(V2FormatError, match="rows"):
        served.as_batch()
    payload = json.loads(ingestor.manifest_path.read_text())
    payload["container_checksum"] = file_checksum(container)
    ingestor.manifest_path.write_text(json.dumps(payload))
    with pytest.raises(IngestError, match="rows"):
        StreamingIngestor.recover(
            fresh_engine(tmp_path), tmp_path / "log"
        )


def test_recover_checks_the_domain_of_fact_codes(engine, tmp_path):
    """A fact code at its dimension's base cardinality, in a generation
    whose section and manifest checksums are re-signed over it, fails
    recovery as it fails serving (``open_v2``)."""
    ingestor, container = committed_generation(engine, tmp_path)
    columns = [np.array(column) for column in ingestor.fact_table.as_batch().arrays]
    columns[0][-1] = SCHEMA.dimensions[0].base_cardinality
    batch = ColumnBatch.from_arrays(SCHEMA.fact_schema, columns)
    write_v2(container, SCHEMA, ingestor.storage, batch)
    payload = json.loads(ingestor.manifest_path.read_text())
    payload["container_checksum"] = file_checksum(container)
    ingestor.manifest_path.write_text(json.dumps(payload))
    with pytest.raises(IngestError, match="fact/dim/0") as raised:
        StreamingIngestor.recover(
            fresh_engine(tmp_path), tmp_path / "log"
        )
    # The section's own error class, not a checksum failure.
    assert isinstance(raised.value.__cause__, ValueOutOfDomain)


def test_recovered_cube_outlives_the_generation_it_mapped(engine, tmp_path):
    """Recovery maps the committed generation; the checkpoint after it
    unlinks that file, and the recovered cube answers on — then takes a
    delta and answers again."""
    _ingestor, container = committed_generation(engine, tmp_path)
    recovered = StreamingIngestor.recover(
        fresh_engine(tmp_path), tmp_path / "log", seal_records=2
    )
    recovered.checkpoint()
    assert not container.exists()
    assert_queries_match(recovered)
    recovered.append([(2, 3, 11)])
    recovered.log.seal()
    recovered.apply_ready()
    assert_queries_match(recovered)


def test_checkpoint_is_one_file_per_generation(engine, tmp_path):
    ingestor, container = committed_generation(engine, tmp_path)
    generations = sorted(
        path.name
        for path in engine.catalog.root.iterdir()
        if path.name.startswith(f"{ingestor.prefix}.g")
    )
    assert generations == [container.name]  # the previous one is gone
    assert engine.catalog.names() == []  # and nothing is a heap relation
    payload = json.loads(ingestor.manifest_path.read_text())
    assert payload["container"] == container.name
    assert payload["container_checksum"] == file_checksum(container)
    assert V2File.open(container).verify_all() == []


def test_checkpoint_walks_no_directory(engine, tmp_path, monkeypatch):
    """A checkpoint removes the generation it replaces by name; only
    :meth:`StreamingIngestor.recover` walks the catalog directory."""
    ingestor, container = committed_generation(engine, tmp_path)

    def no_walk(self):
        raise AssertionError(f"checkpoint walked {self}")

    monkeypatch.setattr(type(container), "iterdir", no_walk)
    ingestor.append([(2, 3, 11)])
    ingestor.log.seal()
    ingestor.apply_ready()
    ingestor.checkpoint()
    ingestor.checkpoint()
    monkeypatch.undo()
    generations = sorted(
        path.name
        for path in engine.catalog.root.iterdir()
        if path.name.startswith(f"{ingestor.prefix}.g")
    )
    assert generations == [
        generation_container(ingestor.generation)
    ]
    assert not container.exists()


def test_append_validates_before_logging(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path)
    before = ingestor.log.next_lsn
    with pytest.raises(ValueError, match="arity"):
        ingestor.append([(0, 0, 1), (0, 0)])  # second row too short
    assert ingestor.log.next_lsn == before
    assert ingestor.stats.records_appended == 0


def test_drift_triggered_compaction(engine, tmp_path):
    # A tight overhead budget plus CAT-demoting single-row deltas (each
    # lands in an existing group, growing NTs where a condensed build
    # would keep CATs) must trip the estimate and rebuild.
    ingestor = bootstrap(engine, tmp_path, compact_overhead=1.001)
    for value in range(6):
        ingestor.append([(value % 8, value % 5, 7 * value)])
    ingestor.log.seal()
    ingestor.apply_ready()
    assert ingestor.stats.compactions > 0
    assert ingestor.storage.update_drift_bytes == 0  # rebuilt = condensed
    assert_queries_match(ingestor)


def test_no_compaction_without_budget(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path)  # compact_overhead=None
    for value in range(6):
        ingestor.append([(value % 8, value % 5, 7 * value)])
    ingestor.log.seal()
    ingestor.apply_ready()
    assert ingestor.stats.compactions == 0


def test_stale_generation_swept_on_recover(engine, tmp_path):
    ingestor, container = committed_generation(engine, tmp_path)
    committed = ingestor.generation
    # Fake crashed checkpoints: an orphaned container that never got its
    # manifest, the ``.wip`` of an interrupted atomic write, and heap
    # relations an older layout would have left under the same prefix.
    root = engine.catalog.root
    orphan = root / generation_container(committed + 1)
    orphan.write_bytes(container.read_bytes())
    torn = root / (generation_container(committed + 2) + ".wip")
    torn.write_bytes(b"half a container")
    stale_prefix = f"{ingestor.prefix}.g{committed + 1}"
    engine.store_table(
        f"{stale_prefix}.fact", table_of(SCHEMA.fact_schema, [(0, 0, 1)])
    )

    fresh = fresh_engine(tmp_path)
    recovered = StreamingIngestor.recover(
        fresh, tmp_path / "log", seal_records=2
    )
    assert recovered.generation == committed
    assert container.exists()
    assert not orphan.exists() and not torn.exists()
    assert not any(
        name.startswith(stale_prefix) for name in fresh.catalog.names()
    )
    assert_queries_match(recovered)


@pytest.mark.parametrize(
    "site, committed",
    [
        ("storage2.publish:*", 0),  # before the container is written
        ("checkpoint.write:*", 0),  # container durable, manifest not yet
        ("manifest.save:bundle", 1),  # the commit landed
    ],
)
def test_crashed_checkpoint_leaves_only_sweepable_garbage(
    tmp_path, site, committed
):
    """Whichever side of the manifest flip a checkpoint dies on, recovery
    ends with exactly one generation file: the committed one."""
    engine = fresh_engine(tmp_path)
    engine.install_faults(
        FaultInjector(plan=(FaultSpec(site=site, kind=FaultKind.CRASH, hit=2),))
    )
    ingestor = bootstrap(engine, tmp_path)  # hit 1: generation 0
    ingestor.append([(1, 1, 5)])
    ingestor.log.seal()
    ingestor.apply_ready()
    with pytest.raises(InjectedCrash):
        ingestor.checkpoint()
    engine.close()
    recovered = StreamingIngestor.recover(
        fresh_engine(tmp_path), tmp_path / "log", seal_records=2
    )
    assert recovered.generation == committed
    assert len(recovered.fact_table) == len(BASE) + 1  # replayed or loaded
    names = sorted(
        path.name
        for path in (tmp_path / "cat").iterdir()
        if path.name.startswith("stream.g")
    )
    assert names == [generation_container(committed)]
    assert_queries_match(recovered)


def test_lag_records_across_append_seal_apply_recover(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path)  # seal_records=2
    assert ingestor.lag_records == 0
    ingestor.append([(1, 1, 5)])
    assert ingestor.lag_records == 1  # durable, still in the active segment
    assert ingestor.apply_ready() == 0
    assert ingestor.lag_records == 1
    ingestor.append([(2, 2, 6)])  # second record seals the segment
    ingestor.append([(3, 3, 7)])
    assert ingestor.lag_records == 3
    assert ingestor.apply_ready() == 2
    assert ingestor.lag_records == 1  # the unsealed third record
    ingestor.checkpoint()
    assert ingestor.lag_records == 1  # committing does not absorb it

    # A crash now loses nothing durable: the recovered ingestor reports
    # the same lag, and sealing + applying drains it.
    recovered = StreamingIngestor.recover(
        fresh_engine(tmp_path), tmp_path / "log", seal_records=2
    )
    assert recovered.lag_records == 1
    recovered.log.seal()
    assert recovered.apply_ready() == 1
    assert recovered.lag_records == 0
    assert_queries_match(recovered)


def test_a_delta_clears_the_result_cache(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path)
    cache = FactCache(SCHEMA, table=ingestor.fact_table)
    planner = CubePlanner(ingestor.storage, cache)
    ingestor.planner = planner

    base_node = CubeNode((0, 0))  # A0 × B0
    hit = QueryRequest(base_node, (DimensionSlice.of(0, 0, {0}),))
    miss = QueryRequest(base_node, (DimensionSlice.of(0, 0, {5}),))
    unsliced = QueryRequest(base_node)
    requests = (hit, miss, unsliced)
    for request in requests:
        planner.answer(request)
    assert len(planner.results) == 3

    # The delta lands in A0=0 only, yet every entry goes, the A0=5
    # slice's with the rest.
    ingestor.append([(0, 2, 999)])
    ingestor.log.seal()
    ingestor.apply_ready()
    assert len(planner.results) == 0
    assert ingestor.stats.results_dropped == 3

    # Every re-asked answer is a miss over the maintained storage.
    misses = planner.results.stats.misses
    for request in requests:
        got = normalize_answer(planner.answer(request))
        reference = reference_group_by(
            SCHEMA, rows_of(ingestor.fact_table), base_node
        )
        if request.slices:
            (slice_,) = request.slices
            reference = [
                (dims, aggregates)
                for dims, aggregates in reference
                if dims[0] in slice_.members
            ]
        assert got == reference
    assert planner.results.stats.misses == misses + 3

    # No empty record reaches the cube: the log refuses it, and applying
    # with nothing sealed leaves every entry where it was.
    with pytest.raises(ValueError, match="at least one row"):
        ingestor.append([])
    assert ingestor.apply_ready() == 0
    assert len(planner.results) == 3
    assert ingestor.stats.results_dropped == 3


def test_prefiltered_slice_finds_rows_apply_ready_appended(engine, tmp_path):
    """A slice pre-filters stored row-ids against the grown fact table, so
    a slice that only rows appended by ``apply_ready`` satisfy answers
    what a fresh build over the same facts does."""
    # A0 member 7 (and so A1 member 3) appears only in the delta.
    table = table_of(SCHEMA.fact_schema, [(c % 6, c % 2, c) for c in range(40)])
    ingestor = StreamingIngestor.bootstrap(
        SCHEMA, engine, table, tmp_path / "log", seal_records=2, plus=True
    )
    ingestor.planner = CubePlanner(
        ingestor.storage, FactCache(SCHEMA, table=ingestor.fact_table)
    )
    requests = [
        QueryRequest(CubeNode((0, 0)), (DimensionSlice.of(0, 0, {7}),)),
        QueryRequest(CubeNode((0, 1)), (DimensionSlice.of(0, 1, {3}),)),
        QueryRequest(
            CubeNode((1, 0)),
            (DimensionSlice.of(0, 2, {1}), DimensionSlice.of(1, 0, {4})),
        ),
    ]
    for request in requests:
        assert ingestor.planner.plan(request).strategy == "prefilter"
        assert not ingestor.planner.answer(request)

    ingestor.append([(7, 4, 999), (7, 1, 5)])
    ingestor.append([(7, 4, 1)])
    ingestor.log.seal()
    assert ingestor.apply_ready() == 2

    facts = table_of(SCHEMA.fact_schema, rows_of(ingestor.fact_table))
    fresh = CubePlanner(
        build_cube(SCHEMA, table=facts).storage, FactCache(SCHEMA, table=facts)
    )
    for request in requests:
        got = normalize_answer(ingestor.planner.answer(request))
        assert got, request
        assert got == normalize_answer(fresh.answer(request))


def test_planner_storage_swapped_after_compaction(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path, compact_overhead=1.001)
    planner = CubePlanner(
        ingestor.storage, FactCache(SCHEMA, table=ingestor.fact_table)
    )
    ingestor.planner = planner
    for value in range(6):
        ingestor.append([(value % 8, value % 5, 7 * value)])
    ingestor.log.seal()
    ingestor.apply_ready()
    assert ingestor.stats.compactions > 0
    assert planner.storage is ingestor.storage
    assert len(planner.results) == 0


def test_log_truncated_behind_watermark_on_checkpoint(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path)
    for value in range(4):
        ingestor.append([(value % 8, value % 5, value)])
    ingestor.log.seal()
    ingestor.apply_ready()
    assert ingestor.log.sealed_segments > 0
    ingestor.checkpoint()
    assert ingestor.log.sealed_segments == 0
    assert ingestor.log.next_lsn == 4  # LSNs never rewind


def test_sealed_records_only(engine, tmp_path):
    ingestor = bootstrap(engine, tmp_path)
    ingestor.append([(1, 1, 5)])  # one record, below seal_records=2
    applied = ingestor.apply_ready()
    assert applied == 0  # active-segment records are not yet eligible
    ingestor.log.seal()
    assert ingestor.apply_ready() == 1
