"""End-to-end wiring: CLI publish/verify, build-time publish, staleness.

Covers the operational surface of the v2 format — ``python -m repro
publish-v2`` / ``verify-cube --cube`` exit codes, the
:class:`DurableCubeBuild` final commit (one ``<prefix>.v2`` container),
and the staleness guard that silently falls back to v1 when the
published container no longer matches the cube metadata.
"""

from __future__ import annotations

import pytest

from repro.bundle import open_bundle, save_bundle
from repro.cli import main
from repro.core.variants import VARIANTS
from repro.storage2 import V2_FILE, V2File, verify_v2
from tests.server.conftest import serving_fact, serving_schema
from tests.storage2.test_corruption import flip_byte


@pytest.fixture
def bundle_dir(tmp_path):
    """A freshly built v1-only bundle (no cube.v2 yet)."""
    schema = serving_schema()
    fact = serving_fact(schema, n=200)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    return save_bundle(tmp_path / "bundle", schema, fact, result.storage)


def test_publish_and_verify_roundtrip(bundle_dir, capsys):
    assert main(["publish-v2", "--cube", str(bundle_dir)]) == 0
    assert (bundle_dir / V2_FILE).exists()
    out = capsys.readouterr().out
    assert "published" in out and "sections" in out

    assert main(["verify-cube", "--cube", str(bundle_dir)]) == 0
    report = capsys.readouterr().out
    assert "ok" in report
    assert "v1" in report  # the v1-vs-v2 size comparison is reported
    # Stored beside decoded bytes, per section and for the file, and the
    # column widths of the narrow sections.
    assert "stored/decoded" in report and "widths " in report
    verified = verify_v2(bundle_dir / V2_FILE)
    assert verified.stored_bytes < verified.decoded_bytes
    aggregates = next(s for s in verified.sections if s.name == "aggregates")
    assert aggregates.codec == "narrow"
    assert aggregates.decoded_bytes == aggregates.count * 8
    rows = aggregates.count // len(aggregates.widths)
    assert aggregates.nbytes == sum(aggregates.widths) * rows
    tt = next(s for s in verified.sections if s.name.endswith("/tt"))
    assert tt.widths is None and tt.decoded_bytes == tt.count * 8


def test_verify_cube_flags_corruption(bundle_dir, capsys):
    assert main(["publish-v2", "--cube", str(bundle_dir)]) == 0
    target = bundle_dir / V2_FILE
    entry = V2File.open(target).entry("aggregates")
    flip_byte(target, entry.offset + 1)
    assert main(["verify-cube", "--cube", str(bundle_dir)]) != 0
    out = capsys.readouterr().out
    assert "aggregates" in out


def test_verify_cube_flags_truncation(bundle_dir, capsys):
    assert main(["publish-v2", "--cube", str(bundle_dir)]) == 0
    target = bundle_dir / V2_FILE
    target.write_bytes(target.read_bytes()[:100])
    assert main(["verify-cube", "--cube", str(bundle_dir)]) != 0


def test_verify_cube_requires_a_target():
    with pytest.raises(SystemExit, match="catalog.*cube|cube.*catalog"):
        main(["verify-cube"])


def test_publish_is_idempotent_and_picked_up(bundle_dir):
    assert main(["publish-v2", "--cube", str(bundle_dir)]) == 0
    first = (bundle_dir / V2_FILE).read_bytes()
    assert main(["publish-v2", "--cube", str(bundle_dir)]) == 0
    assert (bundle_dir / V2_FILE).read_bytes() == first  # deterministic

    bundle = open_bundle(bundle_dir)
    try:
        assert bundle.v2 is not None
        assert bundle.v2.file.path == bundle_dir / V2_FILE
    finally:
        bundle.close()


def test_stale_v2_falls_back_to_v1_silently(bundle_dir):
    assert main(["publish-v2", "--cube", str(bundle_dir)]) == 0
    # Perturb the cube metadata the checksum covers: the published
    # container no longer describes the current cube.
    meta_path = bundle_dir / "cube.meta.json"
    meta_path.write_text(meta_path.read_text() + "\n")
    bundle = open_bundle(bundle_dir)
    try:
        assert bundle.v2 is None  # silent v1 fallback, not an error
        assert bundle.fact_row_count == 200
    finally:
        bundle.close()


def test_durable_build_publishes_v2(tmp_path):
    """A durable build commits the mapped container with metadata that
    matches what a fresh publish would produce."""
    from repro import Engine
    from repro.core.recovery import DurableCubeBuild
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    schema = serving_schema()
    fact = serving_fact(schema, n=150)
    engine = Engine(Catalog(tmp_path), MemoryManager(1 << 26))
    engine.store_table("fact", fact)
    durable = DurableCubeBuild(schema, engine, "fact")
    result = durable.build()
    try:
        container = tmp_path / "cube.v2"
        assert container.exists()
        file = V2File.open(container)
        assert file.meta["fact_relation"] == "fact"
        assert file.meta["cube_prefix"] == "cube"
        assert sorted(file.meta["node_ids"]) == sorted(result.storage.nodes)
        assert file.verify_all() == []
    finally:
        engine.close()
