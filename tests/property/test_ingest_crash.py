"""Property: crash streaming ingest anywhere, recover, get the identical cube.

A recording run drives a deterministic ingest script — bootstrap, eight
appended batches applied as their segments seal, an explicit compaction,
a final checkpoint — and enumerates every injection point: the four
``ingest.*`` families plus the three a one-file generation checkpoint
fires (``storage2.publish`` before the container is written,
``checkpoint.write`` once it is durable but unreferenced,
``manifest.save`` after the commit).  For each sampled point
(``FAULT_SEED`` selects the sample; CI unions seeds toward full coverage;
``MAX_CRASH_POINTS=100000`` enumerates all of them) the script is crashed exactly there and recovery runs as a new process would: recover
the last committed generation from disk (or bootstrap afresh when the
crash predates the first commit), then re-drive the script from the
log's own ``next_lsn`` — the producer re-appends whatever the crash
lost, the exactly-once watermark absorbs whatever it did not.  The final
cube, canonically compared (TT/CAT order normalized),
and the fact table must be byte-identical to the uninterrupted run.

Torn writes on ``ingest.append`` (a partial record framed into the
active segment, truncated on open) and transient faults on ingest sites
(absorbed by bounded retries, no recovery needed) are exercised on top
of clean crashes.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import CubeSchema, Engine, Table, linear_dimension, make_aggregates
from repro.faults import FaultInjector, FaultKind, FaultSpec, seeded_crash_indices
from repro.ingest import IngestError, StreamingIngestor
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.memory import MemoryManager
from tests.support.rows import cube_bytes

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
MAX_CRASH_POINTS = int(os.environ.get("MAX_CRASH_POINTS", "12"))

SEAL_RECORDS = 2
COMPACT_OVERHEAD = 1.02


def _instance() -> tuple[CubeSchema, list[tuple], list[list[tuple]]]:
    a = linear_dimension("A", [("A0", 12), ("A1", 4), ("A2", 2)])
    b = linear_dimension("B", [("B0", 5)])
    schema = CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(7)
    base = [
        (rng.randrange(12), rng.randrange(5), rng.randrange(100))
        for _ in range(80)
    ]
    batches = [
        [
            (rng.randrange(12), rng.randrange(5), rng.randrange(100))
            for _ in range(4)
        ]
        for _ in range(8)
    ]
    return schema, base, batches


def _bootstrap(schema, base, engine, root) -> StreamingIngestor:
    return StreamingIngestor.bootstrap(
        schema,
        engine,
        Table(schema.fact_schema, list(base)),
        root / "log",
        plus=True,
        compact_overhead=COMPACT_OVERHEAD,
        seal_records=SEAL_RECORDS,
    )


def _drive(ingestor: StreamingIngestor, batches) -> None:
    """The deterministic producer: resumes from the log's own cursor."""
    for index in range(ingestor.log.next_lsn, len(batches)):
        ingestor.append(batches[index])
        ingestor.apply_ready()
    ingestor.log.seal()
    ingestor.apply_ready()
    ingestor.compact()
    ingestor.checkpoint()


def _run(root, instance, plan) -> tuple[StreamingIngestor, FaultInjector]:
    """One ingest 'process': crash under ``plan``, then recover fault-free."""
    schema, base, batches = instance
    engine = Engine(Catalog(root / "cat"), MemoryManager())
    injector = FaultInjector(plan=plan)
    engine.install_faults(injector)
    try:
        ingestor = _bootstrap(schema, base, engine, root)
        _drive(ingestor, batches)
        return ingestor, injector
    except InjectedCrash:
        engine.close()
    # The restarted process: only what reached disk exists, no faults.
    engine = Engine(Catalog(root / "cat"), MemoryManager())
    try:
        ingestor = StreamingIngestor.recover(
            schema, engine, root / "log", seal_records=SEAL_RECORDS
        )
    except IngestError:
        # Crash predates the first committed generation: bootstrap again
        # from the source data, exactly as a real operator would.
        ingestor = _bootstrap(schema, base, engine, root)
    _drive(ingestor, batches)
    return ingestor, injector


@pytest.fixture(scope="module")
def instance():
    return _instance()


@pytest.fixture(scope="module")
def baseline(instance, tmp_path_factory):
    """Uninterrupted ingest run: reference state plus the site trace."""
    ingestor, recorder = _run(
        tmp_path_factory.mktemp("baseline"), instance, ()
    )
    families = {site.split(":")[0] for site in recorder.trace}
    assert families == {
        "ingest.append", "ingest.seal", "ingest.apply", "ingest.compact",
        "storage2.publish", "checkpoint.write", "manifest.save",
    }
    reference = (cube_bytes(ingestor.storage), ingestor.fact_table.to_rows())
    return reference, list(recorder.trace)


def test_crash_anywhere_recover_identical(tmp_path_factory, instance, baseline):
    reference, trace = baseline
    points = seeded_crash_indices(FAULT_SEED, len(trace), MAX_CRASH_POINTS)
    assert points, "recording run produced no injection points"
    for point in points:
        tmp = tmp_path_factory.mktemp(f"crash{point}")
        ingestor, _injector = _run(
            tmp,
            instance,
            (FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),),
        )
        state = (cube_bytes(ingestor.storage), ingestor.fact_table.to_rows())
        assert state == reference, (
            f"state differs after crash at point {point} ({trace[point]})"
        )


def test_crash_at_every_ingest_site(tmp_path_factory, instance, baseline):
    """The four ``ingest.*`` families, each crashed at every occurrence."""
    reference, trace = baseline
    points = [
        index for index, site in enumerate(trace) if site.startswith("ingest.")
    ]
    assert points, "expected ingest.* sites in the trace"
    for point in points:
        tmp = tmp_path_factory.mktemp(f"ingest{point}")
        ingestor, _injector = _run(
            tmp,
            instance,
            (FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),),
        )
        state = (cube_bytes(ingestor.storage), ingestor.fact_table.to_rows())
        assert state == reference, (
            f"state differs after crash at ingest point {point} "
            f"({trace[point]})"
        )


def test_torn_append_recover_identical(tmp_path_factory, instance, baseline):
    """Power loss mid-append leaves a torn record; open truncates it and
    the producer's re-append converges to the identical state."""
    reference, trace = baseline
    hits = len([site for site in trace if site.startswith("ingest.append:")])
    assert hits, "expected ingest.append sites in the trace"
    rng = random.Random(FAULT_SEED)
    sampled = rng.sample(range(1, hits + 1), min(3, hits))
    for hit in sampled:
        tmp = tmp_path_factory.mktemp(f"torn{hit}")
        ingestor, _injector = _run(
            tmp,
            instance,
            (
                FaultSpec(
                    site="ingest.append:*",
                    kind=FaultKind.TORN_WRITE,
                    hit=hit,
                    keep_fraction=0.5,
                ),
            ),
        )
        state = (cube_bytes(ingestor.storage), ingestor.fact_table.to_rows())
        assert state == reference, f"state differs after torn append #{hit}"


def test_transient_ingest_faults_absorbed(tmp_path_factory, instance, baseline):
    """Transient I/O errors at ingest sites retry in place; no recovery."""
    reference, _trace = baseline
    ingestor, injector = _run(
        tmp_path_factory.mktemp("transient"),
        instance,
        (
            FaultSpec(
                site="ingest.append:*", kind=FaultKind.TRANSIENT, hit=2, times=2
            ),
            FaultSpec(site="ingest.seal:*", kind=FaultKind.TRANSIENT, hit=1),
            FaultSpec(
                site="ingest.compact:truncate:*",
                kind=FaultKind.TRANSIENT,
                hit=1,
            ),
        ),
    )
    assert injector.fired, "expected at least one transient fault to fire"
    state = (cube_bytes(ingestor.storage), ingestor.fact_table.to_rows())
    assert state == reference
