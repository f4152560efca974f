"""Command-line interface for building and querying CURE cubes.

::

    python -m repro build --csv sales.csv --spec spec.json --out cube_dir
    python -m repro describe --cube cube_dir
    python -m repro nodes --cube cube_dir
    python -m repro query --cube cube_dir --group-by Region.country,Product
    python -m repro query --cube cube_dir --group-by Region.country \
        --where Region.country=Greece,France --limit 20
    python -m repro ingest --cube cube_dir --csv new_rows.csv --batch 256
    python -m repro serve --cube cube_dir --port 8787

The spec file describes how raw CSV columns map to dimensions and
measures::

    {
      "dimensions": [
        {"name": "Region", "levels": ["city", "country"]},
        {"name": "Product", "levels": ["sku", "brand"]}
      ],
      "measures": ["quantity", {"field": "price", "scale": 100}],
      "aggregates": [["sum", 0], ["sum", 1], ["count", 0]]   // optional
    }

``--group-by`` lists ``Dimension.Level`` items (a bare ``Dimension`` means
its base level); unlisted dimensions are aggregated away.  ``--where``
restricts a grouped dimension to the named members.

``ingest`` streams new fact rows into an existing bundle through the
crash-safe append log (docs/robustness.md): each CSV row lists one
base-level member per dimension (by name or code) followed by the raw
measure values, in schema order.  Rows are appended in ``--batch``-sized
durable records, applied exactly once, and committed as a new cube
generation — one mapped ``cube.v2``-format file — that later
``query``/``describe``/``serve`` calls read automatically.  The command
prints the commit watermark and the ingest lag (appended records not yet
in the cube).  Re-running after a crash resumes from the last committed
watermark.

``serve`` starts the slicer HTTP server (docs/serving.md) over one
published bundle: the cube loads once, every request thread shares the
node matrix caches, the fact cache and a byte-budgeted result cache, and
node/slice/rollup/iceberg answers come back as canonical JSON that is
byte-identical to the equivalent library call.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.build import check_workers
from repro.bundle import open_bundle, save_bundle
from repro.core.recovery import verify_cube
from repro.core.variants import VARIANTS
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv
from repro.lattice.node import CubeNode
from repro.query import DimensionSlice, QueryRequest
from repro.relational.catalog import Catalog


def _parse_spec(path: str) -> tuple[list[DimensionSpec], list[MeasureSpec], tuple | None]:
    payload = json.loads(Path(path).read_text())
    dimensions = [
        DimensionSpec.of(entry["name"], *entry["levels"])
        for entry in payload["dimensions"]
    ]
    measures = []
    for entry in payload["measures"]:
        if isinstance(entry, str):
            measures.append(MeasureSpec.of(entry))
        else:
            measures.append(
                MeasureSpec.of(entry["field"], entry.get("scale", 1))
            )
    aggregates = None
    if "aggregates" in payload:
        aggregates = tuple(
            (name, index) for name, index in payload["aggregates"]
        )
    return dimensions, measures, aggregates


def _read_bundle(read, root):
    """``read(root)`` — :func:`open_bundle` or ``read_manifest`` — with a
    missing or damaged ``bundle.json`` as a one-line nonzero exit."""
    from repro.storage2.publish import BundleError

    try:
        return read(root)
    except (FileNotFoundError, BundleError) as error:
        raise SystemExit(str(error)) from None


def _workers(text: str) -> int:
    """``--workers``: the executor's own check, as a usage error."""
    try:
        return check_workers(int(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def cmd_build(args) -> int:
    from repro.relational.engine import Engine

    dimensions, measures, aggregates = _parse_spec(args.spec)
    loaded = load_csv(args.csv, dimensions, measures, aggregates)
    config = VARIANTS[args.variant]
    if args.pool:
        config = config.with_pool(args.pool)
    if args.min_count > 1:
        config = config.with_min_count(args.min_count)
    engine = None
    if args.memory_budget:
        engine = Engine.temporary(args.memory_budget)
        engine.store_table("fact", loaded.table)
        result, _plus = config.build(
            loaded.schema, engine=engine, relation="fact", workers=args.workers
        )
    else:
        result, _plus = config.build(
            loaded.schema, table=loaded.table, workers=args.workers
        )
    report = result.storage.size_report()
    save_bundle(
        args.out,
        loaded.schema,
        loaded.table,
        result.storage,
        extra={"variant": args.variant, "source_csv": str(args.csv)},
    )
    stats = result.stats
    print(f"built {args.variant} cube over {len(loaded.table):,} rows "
          f"in {stats.elapsed_seconds:.2f}s")
    print(f"  lattice nodes: {loaded.schema.enumerator.n_nodes}")
    print(f"  NT/TT/CAT: {report.n_nt:,}/{report.n_tt:,}/{report.n_cat:,}")
    if stats.partitioned:
        print(f"  partitions: {stats.partitions_created} "
              f"(repartitioned: {stats.repartitioned_partitions}, "
              f"pair-repartitioned: {stats.pair_repartitioned_partitions}, "
              f"sub-partitions: {stats.subpartitions_created})")
    if stats.tasks_run:
        line = (f"  executor: {stats.workers} worker(s), "
                f"{stats.tasks_run} task(s) run, "
                f"{stats.tasks_stolen} stolen")
        if stats.peak_worker_bytes:
            line += f", peak worker memory {stats.peak_worker_bytes:,} bytes"
        print(line)
    print(f"  logical size: {report.total_mb:.3f} MB -> {args.out}")
    if engine is not None:
        engine.destroy()
    return 0


def cmd_describe(args) -> int:
    with _read_bundle(open_bundle, args.cube) as bundle:
        print(f"cube bundle at {bundle.root}")
        print(f"  variant: {bundle.extra.get('variant', '?')}")
        print(f"  fact rows: {bundle.fact_row_count:,}")
        for dimension in bundle.schema.dimensions:
            chain = " -> ".join(
                f"{level.name}({level.cardinality})"
                for level in dimension.levels
            )
            print(f"  dimension {dimension.name}: {chain}")
        names = ", ".join(spec.name for spec in bundle.schema.aggregates)
        print(f"  aggregates: {names}")
        print(bundle.storage.describe())
    return 0


def cmd_nodes(args) -> int:
    with _read_bundle(open_bundle, args.cube) as bundle:
        schema = bundle.schema
        shown = 0
        for node in schema.lattice.nodes():
            print(f"{schema.node_id(node):6d}  {node.label(schema.dimensions)}")
            shown += 1
            if args.limit and shown >= args.limit:
                remaining = schema.enumerator.n_nodes - shown
                if remaining:
                    print(f"… {remaining} more (raise --limit)")
                break
    return 0


def _parse_group_by(schema, text: str) -> CubeNode:
    levels = [dimension.all_level for dimension in schema.dimensions]
    by_name = {d.name: (i, d) for i, d in enumerate(schema.dimensions)}
    for item in filter(None, (part.strip() for part in text.split(","))):
        name, _sep, level_name = item.partition(".")
        if name not in by_name:
            raise SystemExit(
                f"unknown dimension {name!r}; "
                f"known: {', '.join(by_name)}"
            )
        index, dimension = by_name[name]
        levels[index] = (
            dimension.level_index(level_name) if level_name else 0
        )
    return CubeNode(tuple(levels))


def _parse_where(schema, clauses: list[str]):
    slices = []
    by_name = {d.name: (i, d) for i, d in enumerate(schema.dimensions)}
    for clause in clauses or []:
        target, _sep, members_text = clause.partition("=")
        if not members_text:
            raise SystemExit(f"bad --where clause {clause!r} (Dim.Level=v1,v2)")
        name, _sep, level_name = target.partition(".")
        if name not in by_name:
            raise SystemExit(f"unknown dimension {name!r} in --where")
        index, dimension = by_name[name]
        level = dimension.level_index(level_name) if level_name else 0
        members = set()
        for raw in members_text.split(","):
            code = _member_code(dimension, level, raw.strip())
            members.add(code)
        slices.append(DimensionSlice.of(index, level, members))
    return slices


def _member_code(dimension, level: int, value: str) -> int:
    if dimension.member_names is not None:
        names = dimension.member_names[level]
        if names is not None and value in names:
            return names.index(value)
    try:
        return int(value)
    except ValueError:
        raise SystemExit(
            f"{value!r} is not a member of "
            f"{dimension.name}.{dimension.level(level).name}"
        ) from None


def cmd_query(args) -> int:
    with _read_bundle(open_bundle, args.cube) as bundle:
        schema = bundle.schema
        node = _parse_group_by(schema, args.group_by)
        slices = _parse_where(schema, args.where)
        # The planner rolls an FCURE cube's base-level nodes up to a
        # coarse group-by, as the server does.
        request = QueryRequest(node, tuple(slices))
        try:
            answer = bundle.planner().execute(request).normalized()
        except ValueError as error:  # a slice the group-by cannot take
            raise SystemExit(str(error)) from None
        grouping = node.grouping_dims(schema.dimensions)
        header = [
            f"{schema.dimensions[d].name}."
            f"{schema.dimensions[d].level(node.levels[d]).name}"
            for d in grouping
        ] + [spec.name for spec in schema.aggregates]
        print("\t".join(header))
        # Only the rows that print become Python tuples.
        shown = min(args.limit, len(answer)) if args.limit > 0 else len(answer)
        for dims, aggregates in zip(
            answer.dims[:shown].tolist(), answer.aggregates[:shown].tolist()
        ):
            rendered = [
                schema.dimensions[d].member_name(node.levels[d], code)
                for d, code in zip(grouping, dims)
            ]
            print("\t".join(rendered + [str(v) for v in aggregates]))
        if shown < len(answer):
            print(f"… {len(answer) - shown} more rows (raise --limit)")
    return 0


def _parse_delta_csv(schema, path: str) -> np.ndarray:
    """CSV rows → one int64 fact matrix: base members (name or code),
    then measures.  Read by ``load_csv``'s reader (UTF-8, RFC 4180)."""
    from repro.datasets.loader import csv_blocks

    n_dims = schema.n_dimensions
    expected = n_dims + schema.n_measures
    parts = [np.empty((0, expected), dtype=np.int64)]
    with open(path, "rb") as handle:
        try:
            for block in csv_blocks(handle, path):
                wrong = block.counts != expected
                if wrong.any():
                    row = int(np.argmax(wrong))
                    raise SystemExit(
                        f"{path}:{block.row_line(row)}: expected {expected} "
                        f"fields ({n_dims} dimensions + {schema.n_measures} "
                        f"measures), got {int(block.counts[row])}"
                    )
                rows = block.rows(0, len(block.counts), expected)
                columns = [
                    [
                        _member_code(schema.dimensions[d], 0, value.strip())
                        for value in rows.texts(d)
                    ]
                    for d in range(n_dims)
                ]
                for column in range(n_dims, expected):
                    measures = []
                    for row, value in enumerate(rows.texts(column)):
                        try:
                            measures.append(int(value))
                        except ValueError:
                            raise SystemExit(
                                f"{path}:{block.row_line(row)}: measures "
                                "must be integers"
                            ) from None
                    columns.append(measures)
                parts.append(np.array(columns, dtype=np.int64).T)
        except ValueError as error:
            raise SystemExit(str(error)) from None
    return np.concatenate(parts)


def cmd_ingest(args) -> int:
    from repro.bundle import STREAM_LOG_DIR
    from repro.ingest import IngestError, StreamingIngestor
    from repro.relational.engine import Engine
    from repro.relational.memory import MemoryManager
    from repro.storage2.publish import read_manifest

    root = Path(args.cube)
    schema = _read_bundle(read_manifest, root).schema
    delta_rows = _parse_delta_csv(schema, args.csv)
    engine = Engine(Catalog(root), MemoryManager())
    try:
        # The committed generation, or the saved cube's facts rebuilt as
        # generation 0 on the first ingest.  A damaged container stops the
        # command rather than send it back to older facts.
        try:
            ingestor = StreamingIngestor.recover(engine, root / STREAM_LOG_DIR)
        except IngestError as error:
            raise SystemExit(f"{root}: {error}") from None
        ingestor.compact_overhead = (
            args.compact_overhead if args.compact_overhead > 0 else None
        )
        batch = max(1, args.batch)
        for start in range(0, len(delta_rows), batch):
            ingestor.append(delta_rows[start : start + batch])
        ingestor.log.seal()
        ingestor.apply_ready()
        ingestor.checkpoint()
        stats = ingestor.stats
        print(
            f"ingested {stats.rows_appended:,} rows "
            f"({stats.records_appended} log records) into {root}"
        )
        print(
            f"  applied {stats.records_applied} records "
            f"(watermark lsn {ingestor.applied_lsn}, "
            f"lag {ingestor.lag_records} records), "
            f"{stats.compactions} compaction(s)"
        )
        print(
            f"  committed generation {ingestor.generation}; "
            f"fact rows now {len(ingestor.fact_table):,}"
        )
    finally:
        engine.close()
    return 0


def cmd_serve(args) -> int:
    from repro.server import SlicerApp, SlicerServer

    with _read_bundle(open_bundle, args.cube) as bundle:
        app = SlicerApp(
            bundle,
            result_cache_bytes=args.cache_bytes if args.cache_bytes > 0 else None,
            result_cache_entries=args.cache_entries,
        )
        server = SlicerServer(app, host=args.host, port=args.port, quiet=False)
        print(
            f"serving {bundle.extra.get('variant', '?')} cube "
            f"{bundle.root} on http://{server.host}:{server.port}"
        )
        print(
            "  endpoints: /cube /nodes /node/<id> "
            "/slice/<id>?where=<dim>.<level>:<m1>|<m2> "
            "/rollup/<id> /iceberg/<id>?min=<k> /stats"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
    return 0


def cmd_verify_cube(args) -> int:
    """Verify a v2 container; exit 0 iff sound.

    With ``--catalog`` the target is a durable build: its manifest's
    stage, the final container's whole-file checksum, every section, and
    the recorded row counts.  With ``--cube`` it is a bundle's
    ``cube.v2`` (for a streamed-into bundle, its committed ingest
    generation): every section checksum and codec is re-verified and the
    per-section bytes are reported.
    """
    if args.cube is not None:
        from repro.storage2 import verify_v2
        from repro.storage2.publish import read_manifest

        manifest = _read_bundle(read_manifest, args.cube)
        dimensions = manifest.schema.dimensions
        report = verify_v2(
            Path(args.cube) / manifest.container,
            [dimension.base_cardinality for dimension in dimensions],
        )
        print(report.describe())
        return 0 if report.ok else 1
    if args.catalog is None:
        raise SystemExit("verify-cube needs --catalog (a durable build) or --cube (a bundle)")
    catalog_root = Path(args.catalog)
    manifest_path = (
        Path(args.manifest)
        if args.manifest
        else catalog_root / f"{args.prefix}.manifest.json"
    )
    report = verify_cube(Catalog(catalog_root), manifest_path)
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Build and query CURE cubes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build a cube from a CSV file")
    build.add_argument("--csv", required=True)
    build.add_argument("--spec", required=True, help="JSON mapping spec")
    build.add_argument("--out", required=True, help="bundle directory")
    build.add_argument(
        "--variant", default="CURE+", choices=sorted(VARIANTS)
    )
    build.add_argument("--pool", type=int, default=0,
                       help="signature pool capacity (0 = variant default)")
    build.add_argument("--min-count", type=int, default=1,
                       help="iceberg support threshold")
    build.add_argument(
        "--memory-budget", type=int, default=0,
        help="simulated memory budget in bytes (0 = unbounded, in-memory "
             "build); a bounded budget exercises the Section 4 external "
             "partitioning pipeline, including adaptive and local pair "
             "re-partitioning on skewed inputs",
    )
    build.add_argument(
        "--workers", type=_workers, default=1,
        help="processes that run the partition build's tasks (default 1 = "
             "this process alone; N > 1 adds up to N - 1 work-stealing "
             "helper processes, forked from this one where the platform "
             "can fork, else spawned)",
    )
    build.set_defaults(handler=cmd_build)

    describe = commands.add_parser("describe", help="summarize a cube bundle")
    describe.add_argument("--cube", required=True)
    describe.set_defaults(handler=cmd_describe)

    nodes = commands.add_parser("nodes", help="list the lattice's nodes")
    nodes.add_argument("--cube", required=True)
    nodes.add_argument("--limit", type=int, default=40)
    nodes.set_defaults(handler=cmd_nodes)

    query = commands.add_parser("query", help="answer one node query")
    query.add_argument("--cube", required=True)
    query.add_argument(
        "--group-by", required=True,
        help="comma list of Dimension.Level (bare Dimension = base level)",
    )
    query.add_argument(
        "--where", action="append",
        help="Dimension.Level=member[,member…] (repeatable)",
    )
    query.add_argument("--limit", type=int, default=50)
    query.set_defaults(handler=cmd_query)

    ingest = commands.add_parser(
        "ingest",
        help="stream new fact rows into a bundle via the crash-safe log",
    )
    ingest.add_argument("--cube", required=True, help="bundle directory")
    ingest.add_argument(
        "--csv", required=True,
        help="delta rows: base members then measures, in schema order",
    )
    ingest.add_argument(
        "--batch", type=int, default=512,
        help="rows per durable log record (default 512)",
    )
    ingest.add_argument(
        "--compact-overhead", type=float, default=1.5,
        help="drift ratio that triggers a compacting rebuild (0 disables)",
    )
    ingest.set_defaults(handler=cmd_ingest)

    serve = commands.add_parser(
        "serve",
        help="serve cube answers over HTTP (the slicer)",
    )
    serve.add_argument("--cube", required=True, help="bundle directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port (0 picks an ephemeral one)")
    serve.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        help="result-cache byte budget (0 = unbounded)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=4096,
        help="result-cache entry cap",
    )
    serve.set_defaults(handler=cmd_serve)

    verify = commands.add_parser(
        "verify-cube",
        help="verify a crash-safe build's manifest and container "
             "(--catalog), or a bundle's cube.v2 container (--cube)",
    )
    verify.add_argument(
        "--catalog", default=None,
        help="engine catalog directory of a durable build",
    )
    verify.add_argument(
        "--cube", default=None,
        help="bundle directory whose cube.v2 to verify",
    )
    verify.add_argument(
        "--prefix", default="cube", help="cube relation prefix"
    )
    verify.add_argument(
        "--manifest", default=None,
        help="manifest path (default <catalog>/<prefix>.manifest.json)",
    )
    verify.set_defaults(handler=cmd_verify_cube)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
