"""``bundle.json`` is a bundle directory's one commit document.

``save_bundle`` commits it at generation −1 naming ``cube.v2``; every
ingest checkpoint rewrites it naming the new generation, and the
container it named before is removed.  One reader
(:func:`~repro.storage2.publish.read_manifest`) serves ``open_bundle``,
recovery and the command line.  Here: the directory's file set across
ingests, a crash sweep over the CLI's first and second ingest, and a
fuzzer over the document itself.
"""

from __future__ import annotations

import csv
import functools
import json
import shutil
from pathlib import Path

import pytest

import repro.cli as cli_module
from repro.bundle import open_bundle
from repro.cli import main
from repro.faults.injector import FaultInjector, FaultKind, FaultSpec
from repro.ingest import StreamingIngestor
from repro.query import answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.engine import Engine
from repro.relational.memory import MemoryManager
from repro.storage2.publish import BUNDLE_META, BundleError, read_manifest
from tests.storage2.test_cli import cli_build
from tests.support.rows import rows_of

#: Delta rows in bundle schema order (Product, Region), by member name.
FIRST = [["s0", "Athens", 7], ["s1", "Paris", 11], ["s59", "Lyon", 2]]
SECOND = [["s6", "Patras", 5], ["s0", "Athens", 1]]


def write_delta(path: Path, rows) -> Path:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return path


def ingest(root: Path, delta: Path, faults: FaultInjector | None = None):
    """``python -m repro ingest``, one log record per row, under ``faults``."""
    argv = ["ingest", "--cube", str(root), "--csv", str(delta), "--batch", "1"]
    if faults is None:
        return main(argv)
    patched = functools.partial(Catalog, faults=faults)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_module, "Catalog", patched)
        return main(argv)


def top_level(root: Path) -> list[str]:
    return sorted(path.name for path in root.iterdir())


def containers(root: Path) -> list[str]:
    return [name for name in top_level(root) if name.endswith("cube.v2")]


def snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def facts(root: Path) -> list[tuple]:
    with open_bundle(root) as bundle:
        return rows_of(bundle.v2.fact.as_batch())


def assert_answers(root: Path, expected_rows: list[tuple]) -> None:
    """Every node ``open_bundle`` answers equals the reference group-by
    over ``expected_rows``."""
    with open_bundle(root) as bundle:
        assert bundle.fact_row_count == len(expected_rows)
        cache = bundle.fact_cache()
        for node in bundle.schema.lattice.nodes():
            got = normalize_answer(answer_cure_query(bundle.storage, cache, node))
            assert got == reference_group_by(bundle.schema, expected_rows, node)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A CLI-built bundle, the same after one ingest and after two, the
    final fact rows, and the two delta files."""
    tmp = tmp_path_factory.mktemp("manifest")
    first = write_delta(tmp / "first.csv", FIRST)
    second = write_delta(tmp / "second.csv", SECOND)
    saved = cli_build(tmp, "saved")
    once = tmp / "once"
    shutil.copytree(saved, once)
    assert ingest(once, first) == 0
    twice = tmp / "twice"
    shutil.copytree(once, twice)
    assert ingest(twice, second) == 0
    final = facts(twice)
    assert final[: len(final) - len(FIRST) - len(SECOND)] == facts(saved)
    return {
        "saved": saved, "once": once, "twice": twice, "final": final,
        "first": first, "second": second, "tmp": tmp,
    }


def test_an_ingest_leaves_one_container_named_by_the_manifest(workspace, capsys):
    capsys.readouterr()
    heap = ["fact.dat", "fact.schema.json"]
    assert top_level(workspace["saved"]) == sorted([BUNDLE_META, "cube.v2", *heap])
    for name, generation in (("once", 0), ("twice", 1)):
        root = workspace[name]
        container = f"stream.g{generation}.cube.v2"
        assert top_level(root) == sorted(
            [BUNDLE_META, container, "ingest.log", *heap]
        )
        manifest = read_manifest(root)
        assert (manifest.container, manifest.generation) == (container, generation)
        assert manifest.extra["variant"] == "CURE+"  # carried from the build
    assert read_manifest(workspace["saved"]).generation == -1


def test_recover_opens_a_directory_from_its_manifest_alone(workspace, tmp_path):
    root = tmp_path / "bundle"
    shutil.copytree(workspace["twice"], root)
    engine = Engine(Catalog(root), MemoryManager())
    try:
        ingestor = StreamingIngestor.recover(engine, root / "ingest.log")
        with open_bundle(workspace["saved"]) as saved:
            assert ingestor.schema.dimensions == saved.schema.dimensions
        assert ingestor.generation == 1
        assert ingestor.storage.plus_processed  # the container's meta says so
        assert rows_of(ingestor.fact_table) == workspace["final"]
    finally:
        engine.close()


def crash_sweep(workspace, start: str, delta: str, committed: set[str]):
    """Crash the CLI ingest of ``delta`` into a copy of ``start`` at each
    site it passes: ``bundle.json`` names one of ``committed``,
    ``open_bundle`` answers over exactly the facts it records, and a
    recovery leaves only the container its commit names."""
    recorder = FaultInjector()
    recorded = workspace["tmp"] / f"record-{start}"
    shutil.copytree(workspace[start], recorded)
    assert ingest(recorded, workspace[delta], recorder) == 0
    trace = list(recorder.trace)
    assert {site.split(":")[0] for site in trace} >= {
        "storage2.publish", "checkpoint.write", "manifest.save", "ingest.append",
    }
    named = set()
    for point, site in enumerate(trace):
        root = workspace["tmp"] / f"crash-{start}-{point}"
        shutil.copytree(workspace[start], root)
        crash = FaultInjector((FaultSpec("*", FaultKind.CRASH, hit=point + 1),))
        with pytest.raises(InjectedCrash):
            ingest(root, workspace[delta], crash)
        manifest = read_manifest(root)
        assert manifest.container in committed, site
        assert (root / manifest.container).exists(), site
        named.add(manifest.container)
        assert_answers(root, workspace["final"][: manifest.fact_rows])
        # A restart keeps one container: the one its commit names.
        engine = Engine(Catalog(root), MemoryManager())
        try:
            recovered = StreamingIngestor.recover(engine, root / "ingest.log")
        finally:
            engine.close()
        assert containers(root) == [recovered.container], site
        rows = rows_of(recovered.fact_table)
        assert rows == workspace["final"][: len(rows)], site
    return named


@pytest.mark.crash
def test_crash_anywhere_in_the_first_ingest(workspace, capsys):
    named = crash_sweep(
        workspace, "saved", "first", {"cube.v2", "stream.g0.cube.v2"}
    )
    assert named == {"cube.v2", "stream.g0.cube.v2"}
    capsys.readouterr()


@pytest.mark.crash
def test_crash_anywhere_in_the_second_ingest(workspace, capsys):
    named = crash_sweep(
        workspace, "once", "second", {"stream.g0.cube.v2", "stream.g1.cube.v2"}
    )
    assert named == {"stream.g0.cube.v2", "stream.g1.cube.v2"}
    capsys.readouterr()


def _set(key, value):
    def edit(payload):
        payload[key] = value
        return json.dumps(payload).encode()

    return edit


def _drop(key):
    def edit(payload):
        del payload[key]
        return json.dumps(payload).encode()

    return edit


def _schema(edit_schema):
    def edit(payload):
        edit_schema(payload["schema"])
        return json.dumps(payload).encode()

    return edit


KEYS = (
    "version", "schema", "extra", "container", "container_checksum",
    "fact_rows", "generation", "applied_lsn", "compact_overhead",
)

#: name → an edit of the parsed document that returns the bytes to write.
DAMAGE = {
    **{f"drop {key}": _drop(key) for key in KEYS},
    **{
        f"wrong type {key}": _set(key, value)
        for key, value in (
            ("schema", []), ("extra", "x"), ("container", 1),
            ("container_checksum", None), ("fact_rows", "200"),
            ("generation", 1.0), ("applied_lsn", True),
            ("compact_overhead", "1.5"),
        )
    },
    "wrong version": _set("version", 2),
    "version as text": _set("version", "1"),
    "no dimensions": _schema(lambda schema: schema.pop("dimensions")),
    "n_measures as text": _schema(lambda schema: schema.update(n_measures="1")),
    "a level without a name": _schema(
        lambda schema: schema["dimensions"][0]["levels"][0].pop("name")
    ),
    "unknown aggregate": _schema(
        lambda schema: schema.update(aggregates=[["nonesuch", 0]])
    ),
    "truncated": lambda payload: json.dumps(payload).encode()[:-40],
    "empty": lambda payload: b"",
    "not JSON": lambda payload: b"\xff\xfe not json",
    "a JSON list": lambda payload: json.dumps([payload]).encode(),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
@pytest.mark.parametrize("start", ["saved", "once"])
def test_a_damaged_manifest_fails_closed_and_changes_nothing(
    workspace, tmp_path, case, start
):
    """Every reader of a damaged ``bundle.json`` ends in
    :class:`BundleError` naming the file, and nothing is written, logged
    or applied."""
    root = tmp_path / "bundle"
    shutil.copytree(workspace[start], root)
    path = root / BUNDLE_META
    path.write_bytes(DAMAGE[case](json.loads(path.read_text())))
    before = snapshot(root)
    with pytest.raises(BundleError, match=f"{BUNDLE_META}.*rebuild the bundle"):
        open_bundle(root)
    engine = Engine(Catalog(root), MemoryManager())
    try:
        with pytest.raises(BundleError, match=BUNDLE_META):
            StreamingIngestor.recover(engine, root / "ingest.log")
    finally:
        engine.close()
    with pytest.raises(SystemExit, match=BUNDLE_META):
        ingest(root, workspace["first"])
    assert snapshot(root) == before
