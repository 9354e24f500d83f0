"""Command-line interface.

Twelve subcommands covering the full workflow:

- ``repro generate``  — write a synthetic Customer reference relation CSV;
- ``repro corrupt``   — sample reference tuples and inject Table 4 errors;
- ``repro match``     — build the ETI and fuzzy-match an input CSV
  (``--db`` persists the warehouse and reuses it on later runs);
- ``repro explain``   — one query's span tree: per-stage time and counters;
- ``repro dedup``     — flag fuzzy duplicates inside a reference CSV;
- ``repro evaluate``  — run the paper's experiment suite and print tables;
- ``repro fsck``      — check a persisted warehouse for corruption;
- ``repro recover``   — replay a warehouse's write-ahead log and checkpoint;
- ``repro serve``     — run a long-lived match server over a warehouse
  (admission control, deadlines, load shedding, graceful drain);
- ``repro ping``      — query a running server's readiness (``--stats``
  appends a one-line health summary);
- ``repro stats``     — dump a running server's live metrics as JSON or
  Prometheus text (``--watch`` refreshes continuously);
- ``repro fuzz``      — sweep mutated inputs at one trust boundary.

CSV conventions: the reference file's first column is the integer ``tid``;
a dirty-input file may carry a ``target_tid`` first column (written by
``corrupt``), in which case ``match`` also reports accuracy.  Empty cells
are treated as missing (NULL) attribute values.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
import time
from typing import Sequence, TextIO

from repro.core.batch import BatchMatcher
from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.resilience import ResiliencePolicy
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DATASET_PRESETS, DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.fsck import check_database
from repro.db.snapshot import load_database, save_database
from repro.eti.builder import BuildStats, build_eti
from repro.eti.index import EtiIndex
from repro.eval.harness import Workbench
from repro.eval import figures as figure_drivers
from repro.eval.metrics import accuracy
from repro.obs.tracing import Tracer, render_span


def _cell(value: str | None) -> str:
    return "" if value is None else value


def _value(cell: str) -> str | None:
    return cell if cell != "" else None


def _open_csv(path: str) -> TextIO:
    """``path`` opened for CSV reading; a missing file exits cleanly."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise SystemExit(f"{path}: {exc.strerror or exc}") from None


def _read_reference_csv(
    path: str,
) -> tuple[list[str], list[tuple[int, tuple[str | None, ...]]]]:
    """Returns (column_names, [(tid, values), ...])."""
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[0] != "tid":
            raise SystemExit(f"{path}: first column must be 'tid', got {header[:1]}")
        columns = header[1:]
        rows = []
        for record in reader:
            rows.append((int(record[0]), tuple(_value(c) for c in record[1:])))
    return columns, rows


def _build_matcher(
    reference_path: str, config: MatchConfig
) -> tuple[FuzzyMatcher, BuildStats]:
    columns, rows = _read_reference_csv(reference_path)
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", columns)
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    eti, build_stats = build_eti(db, reference, config)
    return FuzzyMatcher(reference, weights, config, eti), build_stats


def _matcher_from_db(
    db_path: str, reference_path: str | None, config: MatchConfig, wal: bool
) -> tuple[FuzzyMatcher, BuildStats | None, Database]:
    """A matcher over a persisted warehouse (§6.2.2.1 ETI reuse).

    If a snapshot exists at ``db_path``, the persisted reference + ETI
    serve this batch directly (``BuildStats`` is ``None``); the ETI must
    have been built with the same ``q``/``signature_size``/``scheme``.
    Otherwise the warehouse is built from the reference CSV and
    snapshotted for subsequent runs.  The returned :class:`Database` is
    the open warehouse handle — long-lived callers (``repro serve``)
    checkpoint it on drain.
    """
    if os.path.exists(db_path + ".meta.json"):
        db = load_database(db_path, wal=wal)
        relation = db.relation("reference")
        columns = [c.name for c in relation.schema.columns][1:]
        reference = ReferenceTable.attach(db, "reference", columns)
        weights = build_frequency_cache(
            reference.scan_values(), reference.num_columns
        )
        eti = EtiIndex(db.relation("eti"))
        return FuzzyMatcher(reference, weights, config, eti), None, db
    if reference_path is None:
        raise SystemExit(
            f"{db_path}: no persisted warehouse found and no --reference "
            "CSV given to build one"
        )
    columns, rows = _read_reference_csv(reference_path)
    db = Database.on_disk(db_path, wal=wal)
    reference = ReferenceTable(db, "reference", columns)
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    eti, build_stats = build_eti(db, reference, config)
    save_database(db, db_path)
    return FuzzyMatcher(reference, weights, config, eti), build_stats, db


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic reference relation CSV."""
    customers = generate_customers(
        args.count,
        seed=args.seed,
        business_fraction=args.business_fraction,
        unique=args.unique,
    )
    writer = csv.writer(args.out)
    writer.writerow(("tid",) + CUSTOMER_COLUMNS)
    for customer in customers:
        writer.writerow((customer.tid,) + customer.values)
    print(f"wrote {len(customers)} reference tuples", file=sys.stderr)
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    """``repro corrupt``: sample reference tuples and inject errors."""
    columns, rows = _read_reference_csv(args.reference)
    if args.preset:
        spec = DatasetSpec.preset(args.preset, method=args.method)
    else:
        probabilities = tuple(float(p) for p in args.probabilities.split(","))
        if len(probabilities) != len(columns):
            raise SystemExit(
                f"need {len(columns)} probabilities, got {len(probabilities)}"
            )
        spec = DatasetSpec("custom", probabilities, method=args.method)
    frequency_lookup = None
    if args.method == "type2":
        cache = build_frequency_cache((v for _, v in rows), len(columns))
        frequency_lookup = cache.frequency
    dataset = make_dataset(
        rows, spec, args.count, seed=args.seed, frequency_lookup=frequency_lookup
    )
    writer = csv.writer(args.out)
    writer.writerow(["target_tid"] + columns)
    for dirty in dataset.inputs:
        writer.writerow([dirty.target_tid] + [_cell(v) for v in dirty.values])
    print(
        f"wrote {len(dataset)} dirty tuples "
        f"(errors: {dataset.error_counts()})",
        file=sys.stderr,
    )
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    """``repro match``: build an ETI and fuzzy-match an input CSV."""
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    config = MatchConfig(
        q=args.q,
        signature_size=args.signature_size,
        scheme=SignatureScheme(args.scheme),
        k=args.k,
        min_similarity=args.min_similarity,
        use_osc=(args.strategy != "basic"),
    )
    started = time.perf_counter()
    if args.db:
        matcher, build_stats, _db = _matcher_from_db(
            args.db, args.reference, config, wal=args.wal
        )
    else:
        matcher, build_stats = _build_matcher(args.reference, config)
    build_seconds = time.perf_counter() - started
    if build_stats is None:
        print(
            f"reused persisted ETI from {args.db} in {build_seconds:.2f}s",
            file=sys.stderr,
        )
    else:
        print(
            f"built ETI: {build_stats.eti_rows} rows in {build_seconds:.2f}s",
            file=sys.stderr,
        )

    with _open_csv(args.input) as handle:
        reader = csv.reader(handle)
        header = next(reader)
        has_target = bool(header) and header[0] == "target_tid"
        input_columns = header[1:] if has_target else header
        if len(input_columns) != matcher.reference.num_columns:
            raise SystemExit(
                f"input has {len(input_columns)} attribute columns, "
                f"reference has {matcher.reference.num_columns}"
            )
        inputs = []
        for record in reader:
            target = int(record[0]) if has_target else None
            values = tuple(_value(c) for c in (record[1:] if has_target else record))
            inputs.append((target, values))

    budgeted = args.deadline_ms is not None or args.max_page_fetches is not None
    resilience = None
    if budgeted:
        resilience = ResiliencePolicy(
            deadline_ms=args.deadline_ms, max_page_fetches=args.max_page_fetches
        )
    engine = BatchMatcher.from_matcher(
        matcher,
        jobs=args.jobs,
        resilience=resilience,
        fail_fast=args.fail_fast,
    )
    started = time.perf_counter()
    with engine:
        results = engine.match_many(
            [values for _, values in inputs], strategy=args.strategy
        )
    elapsed = time.perf_counter() - started

    writer = csv.writer(args.out)
    out_header = (["target_tid"] if has_target else []) + list(input_columns)
    out_header += ["matched_tid", "similarity"]
    if budgeted:
        # The status column only appears when a budget was requested, so
        # budget-free runs keep the historical output schema.
        out_header += ["status"]
    writer.writerow(out_header)
    predictions = []
    for (target, values), result in zip(inputs, results):
        best = result.best
        row = ([target] if has_target else []) + [_cell(v) for v in values]
        if best is None:
            row += ["", ""]
        else:
            row += [best.tid, f"{best.similarity:.4f}"]
        if budgeted:
            if result.failed:
                row += [f"error:{result.error_type}"]
            elif result.stats.degraded:
                row += [f"degraded:{result.stats.degraded_reason}"]
            else:
                row += ["ok"]
        writer.writerow(row)
        if has_target:
            predictions.append((best.tid if best else None, target))
    report = engine.last_report
    print(
        f"matched {len(inputs)} tuples in {elapsed:.2f}s "
        f"({1000 * elapsed / max(len(inputs), 1):.1f} ms/tuple, "
        f"{report.queries_per_second:.1f} q/s, jobs={args.jobs}, "
        f"{report.deduplicated_queries} deduplicated)",
        file=sys.stderr,
    )
    if report.degraded_queries or report.failed_queries:
        print(
            f"resilience: {report.degraded_queries} degraded, "
            f"{report.failed_queries} failed",
            file=sys.stderr,
        )
        breakdown = [
            f"{reason}={count}"
            for reason, count in sorted(report.degraded_reasons.items())
        ] + [
            f"error:{error_type}={count}"
            for error_type, count in sorted(report.failed_types.items())
        ]
        if breakdown:
            print("  reasons: " + ", ".join(breakdown), file=sys.stderr)
    if args.report_json:
        with open(args.report_json, "w") as handle:
            handle.write(report.to_json(indent=2))
            handle.write("\n")
    if has_target and predictions:
        print(f"accuracy: {accuracy(predictions):.3f}", file=sys.stderr)
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    """``repro dedup``: flag fuzzy duplicates inside a reference CSV."""
    from repro.dedup import FuzzyDeduplicator

    columns, rows = _read_reference_csv(args.reference)
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", columns)
    reference.load(rows)
    dedup = FuzzyDeduplicator(threshold=args.threshold, neighbors=args.neighbors)
    report = dedup.deduplicate(reference, db)
    mapping = report.duplicates_of()

    writer = csv.writer(args.out)
    writer.writerow(["tid"] + columns + ["duplicate_of"])
    for tid, values in reference.scan():
        canonical = mapping.get(tid, "")
        writer.writerow([tid] + [_cell(v) for v in values] + [canonical])
    print(
        f"scanned {report.tuples_scanned} tuples in {report.elapsed_seconds:.2f}s; "
        f"{len(report.clusters)} clusters, "
        f"{report.duplicate_count} duplicates flagged",
        file=sys.stderr,
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: run one query under a tracer, print its span tree."""
    config = MatchConfig(
        q=args.q,
        signature_size=args.signature_size,
        scheme=SignatureScheme(args.scheme),
    )
    matcher, _ = _build_matcher(args.reference, config)
    values = tuple(_value(v) for v in args.values)
    if len(values) != matcher.reference.num_columns:
        raise SystemExit(
            f"{len(values)} values given, reference has "
            f"{matcher.reference.num_columns} columns"
        )
    with Tracer().trace("explain") as root:
        result = matcher.match(values, strategy=args.strategy)
    print("\n".join(render_span(root)))
    print()
    if result.best is None:
        print("no match")
    else:
        for match in result.matches:
            print(f"match tid={match.tid} fms={match.similarity:.4f} {match.values}")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """``repro fsck``: check a persisted warehouse for corruption.

    Exit code 0 = clean, 1 = recoverable findings only (e.g. a torn log
    tail recovery would discard), 2 = corruption.
    """
    report = check_database(args.db, eti_name=args.eti_name)
    for line in report.lines():
        print(line)
    return report.exit_code


def cmd_recover(args: argparse.Namespace) -> int:
    """``repro recover``: replay a warehouse's log and checkpoint it."""
    db = load_database(args.db)
    wal = db.wal
    assert wal is not None  # load_database(wal=True) always attaches one
    recovery = wal.recovery
    catalog_source = (
        "recovered from log" if recovery.catalog_recovered else "from snapshot"
    )
    print(f"generation:      {wal.generation}")
    print(f"committed txns:  {recovery.committed_txns}")
    print(f"replayed pages:  {recovery.replayed_pages}")
    print(f"torn bytes:      {recovery.torn_bytes}")
    print(f"catalog:         {catalog_source}")
    if args.dry_run:
        # Report only: no checkpoint, no flush (a torn tail is still
        # trimmed — that happens on every open).
        db.pool.storage.close()
        print("dry run: snapshot and log left as found")
        return 0
    save_database(db, args.db)
    db.close()
    print("checkpointed: log applied to the page file and emptied")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: a long-lived match server over a warehouse.

    Binds immediately (``ping`` answers ``loading`` while the warehouse
    builds or loads), then serves until SIGTERM/SIGINT.  SIGTERM during
    load exits 1 without serving; SIGTERM while serving drains: admitted
    work finishes within ``--drain-budget-s``, the rest is shed with a
    typed reason, and the WAL is checkpointed before exit.
    """
    from repro.serve.server import MatchServer, ServeConfig

    config = MatchConfig(
        q=args.q,
        signature_size=args.signature_size,
        scheme=SignatureScheme(args.scheme),
        k=args.k,
        min_similarity=args.min_similarity,
        use_osc=(args.strategy != "basic"),
    )
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_deadline_ms=(
            args.default_deadline_ms if args.default_deadline_ms > 0 else None
        ),
        max_page_fetches=args.max_page_fetches,
        degrade_p95_s=args.degrade_p95_ms / 1000.0,
        recover_p95_s=args.recover_p95_ms / 1000.0,
        shed_p95_s=args.shed_p95_ms / 1000.0,
        stage_cooldown_s=args.stage_cooldown_s,
        drain_budget_s=args.drain_budget_s,
        stuck_after_s=args.stuck_after_s,
    )

    def engine_factory() -> tuple[BatchMatcher, Database | None]:
        matcher, build_stats, db = _matcher_from_db(
            args.db, args.reference, config, wal=args.wal
        )
        if build_stats is None:
            print(f"loaded persisted warehouse {args.db}", file=sys.stderr)
        else:
            print(
                f"built warehouse {args.db}: {build_stats.eti_rows} ETI rows",
                file=sys.stderr,
            )
        engine = BatchMatcher.from_matcher(
            matcher,
            jobs=args.workers,
            resilience=ResiliencePolicy(),
            fail_fast=False,
        )
        return engine, db

    on_bound = None
    if args.port_file:

        def write_port_file(host: str, port: int) -> None:
            tmp = args.port_file + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(f"{host} {port}\n")
            os.replace(tmp, args.port_file)

        on_bound = write_port_file

    server = MatchServer(
        engine_factory=engine_factory, config=serve_config, on_bound=on_bound
    )

    def handle_signal(signum: int, _frame: object) -> None:
        if server.lifecycle.state == "loading":
            # Nothing has been served and the snapshot write is atomic:
            # dying now is cheaper and safer than a half-loaded drain.
            raise SystemExit(1)
        server.request_shutdown()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)

    host, port = server.start()
    print(f"serving on {host}:{port}", file=sys.stderr)
    server.serve_until_shutdown()
    stats = server.stats.as_dict()
    print(
        f"drained: {stats['completed']} completed, {stats['degraded']} degraded, "
        f"{stats['shed']} shed",
        file=sys.stderr,
    )
    if server.checkpoint_error is not None:
        print(f"checkpoint failed: {server.checkpoint_error}", file=sys.stderr)
        return 1
    return 0


def _server_endpoint(args: argparse.Namespace) -> tuple[str, int] | None:
    """Resolve the server address from ``--host/--port/--port-file``.

    Returns ``None`` (after printing why) when the port file cannot be
    read; raises ``SystemExit`` when no port was given at all.
    """
    host, port = args.host, args.port
    if args.port_file:
        try:
            with open(args.port_file) as handle:
                bound_host, bound_port = handle.read().split()
        except (OSError, ValueError) as exc:
            print(f"cannot read --port-file: {exc}", file=sys.stderr)
            return None
        host, port = bound_host, int(bound_port)
    if port is None:
        raise SystemExit(f"{args.command} needs --port or --port-file")
    return host, port


def cmd_ping(args: argparse.Namespace) -> int:
    """``repro ping``: print a running server's readiness payload.

    ``--stats`` swaps the JSON payload for a one-line health summary
    (state, ladder stage, queue depth, wait p95, shed rate).  Exit
    codes: 0 = serving, 1 = any other state (loading, degraded,
    draining), 2 = unreachable.
    """
    from repro.serve.client import ServeClient

    endpoint = _server_endpoint(args)
    if endpoint is None:
        return 2
    host, port = endpoint
    try:
        with ServeClient(host, port, timeout_s=args.timeout_s) as client:
            payload = client.ping()
            stats = client.stats(["serve"]) if args.stats else None
    except (OSError, ConnectionError) as exc:
        print(f"ping failed: {exc}", file=sys.stderr)
        return 2
    if stats is not None:
        completed = stats.get("completed", 0)
        shed = stats.get("shed", 0)
        resolved = (
            completed
            + sum(stats.get("degraded_reasons", {}).values())
            + sum(stats.get("errors", {}).values())
            + shed
        )
        shed_rate = shed / resolved if resolved else 0.0
        print(
            f"{payload.get('state')} stage={payload.get('stage')} "
            f"queue={payload.get('queue_depth')}/{payload.get('queue_capacity')} "
            f"p95_wait={payload.get('p95_wait_ms')}ms "
            f"shed_rate={shed_rate:.1%} completed={completed}"
        )
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload.get("state") == "serving" else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: dump a running server's live metrics.

    ``--format json`` prints the full stats payload (serve counters
    plus the merged metrics snapshot; ``--traces`` adds recent and
    slow span trees); ``--format prom`` renders the metrics section in
    Prometheus text exposition format.  ``--watch`` refetches every
    ``--interval-s`` seconds until interrupted.  Exit codes: 0 =
    payload fetched, 2 = unreachable.
    """
    from repro.obs.exposition import render_prometheus
    from repro.serve.client import ServeClient

    endpoint = _server_endpoint(args)
    if endpoint is None:
        return 2
    host, port = endpoint
    sections = ["serve", "metrics"]
    if args.traces:
        sections.append("traces")
    try:
        while True:
            with ServeClient(host, port, timeout_s=args.timeout_s) as client:
                payload = client.stats(sections)
            if args.format == "prom":
                sys.stdout.write(render_prometheus(payload.get("metrics", {})))
            else:
                print(json.dumps(payload, indent=2, sort_keys=True))
            if not args.watch:
                return 0
            sys.stdout.flush()
            time.sleep(args.interval_s)
    except (OSError, ConnectionError) as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz``: sweep mutated inputs at one trust boundary.

    Targets: ``wire`` (mutated frames against a live in-process server),
    ``stats`` (mutated stats requests against the same server), ``wal``
    (mutated write-ahead logs through recovery), ``snapshot``
    (mutated catalog metadata through the loader).  Prints a JSON report;
    exits 1 if any case crashed, hung, or failed untyped.  Failing
    inputs (raw and minimized) are written to ``--corpus-dir``.
    """
    from repro.fuzz.harness import run_fuzz

    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    cases = min(args.cases, 25) if args.smoke else args.cases
    report = run_fuzz(
        args.target,
        seeds=seeds,
        cases_per_seed=cases,
        corpus_dir=args.corpus_dir,
        case_deadline_s=args.case_deadline_s,
    )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: run the paper's experiment suite."""
    workbench = Workbench(
        num_reference=args.reference_size, num_inputs=args.inputs, seed=args.seed
    )
    wanted = args.figures.split(",") if args.figures != "all" else [
        "edfms", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"
    ]
    grid = None
    if any(f.startswith("fig") and f != "fig7" for f in wanted):
        grid = figure_drivers.run_strategy_grid(workbench)
    naive_unit = None
    if "fig6" in wanted or "fig7" in wanted:
        naive_unit = workbench.naive_unit_time()
    for name in wanted:
        if name == "edfms":
            result = figure_drivers.run_ed_vs_fms(workbench, num_inputs=args.edfms_inputs)
        elif name == "fig5":
            result = figure_drivers.fig5_accuracy(grid)
        elif name == "fig6":
            result = figure_drivers.fig6_times(grid, naive_unit)
        elif name == "fig7":
            result = figure_drivers.fig7_build_times(workbench, naive_unit)
        elif name == "fig8":
            result = figure_drivers.fig8_candidates(grid)
        elif name == "fig9":
            result = figure_drivers.fig9_tids(grid)
        elif name == "fig10":
            result = figure_drivers.fig10_osc(grid)
        else:
            raise SystemExit(f"unknown figure {name!r}")
        print(result.render())
        print()
    workbench.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fuzzy match for online data cleaning (SIGMOD 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic reference relation CSV")
    gen.add_argument("--count", type=int, default=5000)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--business-fraction", type=float, default=0.4)
    gen.add_argument("--unique", action="store_true", default=True)
    gen.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    gen.set_defaults(func=cmd_generate)

    cor = sub.add_parser("corrupt", help="inject errors into sampled reference tuples")
    cor.add_argument("--reference", required=True)
    cor.add_argument("--count", type=int, default=200)
    cor.add_argument("--preset", choices=sorted(DATASET_PRESETS))
    cor.add_argument(
        "--probabilities",
        help="comma-separated per-column error probabilities (alternative to --preset)",
    )
    cor.add_argument("--method", choices=("type1", "type2"), default="type1")
    cor.add_argument("--seed", type=int, default=7)
    cor.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    cor.set_defaults(func=cmd_corrupt)

    mat = sub.add_parser("match", help="fuzzy-match an input CSV against a reference CSV")
    mat.add_argument("--reference", required=True)
    mat.add_argument("--input", required=True)
    mat.add_argument("--k", type=int, default=1)
    mat.add_argument("--min-similarity", type=float, default=0.0)
    mat.add_argument("--q", type=int, default=4)
    mat.add_argument("--signature-size", type=int, default=2)
    mat.add_argument("--scheme", choices=("Q", "Q+T"), default="Q+T")
    mat.add_argument("--strategy", choices=("naive", "basic", "osc"), default="osc")
    mat.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="batch-matching worker threads (1 = sequential)",
    )
    mat.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query wall-clock budget; exhausted queries return "
        "best-so-far results flagged 'degraded' in a status column",
    )
    mat.add_argument(
        "--max-page-fetches",
        type=int,
        default=None,
        help="per-query physical page read budget (adds the status column)",
    )
    mat.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole batch on the first storage error instead of "
        "isolating it into that row's result",
    )
    mat.add_argument(
        "--db",
        default=None,
        help="page-file path of a persisted warehouse: built and "
        "snapshotted on first use, the persisted ETI answers later runs "
        "(build parameters must match)",
    )
    mat.add_argument(
        "--wal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="write-ahead logging for --db (--no-wal trades crash "
        "safety for write-in-place speed)",
    )
    mat.add_argument(
        "--report-json",
        default=None,
        help="also write the full batch report (counts, degradation "
        "reasons, error types) as JSON to this path",
    )
    mat.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    mat.set_defaults(func=cmd_match)

    ded = sub.add_parser("dedup", help="flag fuzzy duplicates inside a reference CSV")
    ded.add_argument("--reference", required=True)
    ded.add_argument("--threshold", type=float, default=0.85)
    ded.add_argument("--neighbors", type=int, default=4)
    ded.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    ded.set_defaults(func=cmd_dedup)

    exp = sub.add_parser("explain", help="one query's span tree: per-stage time and counters")
    exp.add_argument("--reference", required=True)
    exp.add_argument("--q", type=int, default=4)
    exp.add_argument("--signature-size", type=int, default=2)
    exp.add_argument("--scheme", choices=("Q", "Q+T"), default="Q+T")
    exp.add_argument("--strategy", choices=("basic", "osc"), default="osc")
    exp.add_argument(
        "values",
        nargs="+",
        help="the input tuple's attribute values (use '' for NULL)",
    )
    exp.set_defaults(func=cmd_explain)

    ev = sub.add_parser("evaluate", help="run the paper's experiment suite")
    ev.add_argument("--reference-size", type=int, default=2000)
    ev.add_argument("--inputs", type=int, default=100)
    ev.add_argument("--edfms-inputs", type=int, default=40)
    ev.add_argument("--seed", type=int, default=2003)
    ev.add_argument(
        "--figures",
        default="all",
        help="comma list from: edfms,fig5,fig6,fig7,fig8,fig9,fig10 (default all)",
    )
    ev.set_defaults(func=cmd_evaluate)

    fsk = sub.add_parser("fsck", help="check a persisted warehouse for corruption")
    fsk.add_argument("db", help="page-file path (metadata and WAL live beside it)")
    fsk.add_argument(
        "--eti-name",
        default="eti",
        help="relation name of the ETI for referential checks",
    )
    fsk.set_defaults(func=cmd_fsck)

    rec = sub.add_parser(
        "recover", help="replay a warehouse's write-ahead log and checkpoint it"
    )
    rec.add_argument("db", help="page-file path (metadata and WAL live beside it)")
    rec.add_argument(
        "--dry-run",
        action="store_true",
        help="report what recovery finds without checkpointing",
    )
    rec.set_defaults(func=cmd_recover)

    srv = sub.add_parser(
        "serve",
        help="run a long-lived match server over a persisted warehouse",
    )
    srv.add_argument(
        "--db",
        required=True,
        help="page-file path of the warehouse (built from --reference "
        "and snapshotted on first use)",
    )
    srv.add_argument(
        "--reference",
        default=None,
        help="reference CSV for building the warehouse when --db does "
        "not exist yet",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    srv.add_argument(
        "--port-file",
        default=None,
        help="write 'host port' here once bound (for supervisors and "
        "`repro ping --port-file`)",
    )
    srv.add_argument("--workers", type=int, default=4)
    srv.add_argument("--queue-capacity", type=int, default=64)
    srv.add_argument(
        "--default-deadline-ms",
        type=float,
        default=250.0,
        help="end-to-end deadline for requests that name none "
        "(<= 0 disables the default)",
    )
    srv.add_argument("--max-page-fetches", type=int, default=None)
    srv.add_argument("--degrade-p95-ms", type=float, default=200.0)
    srv.add_argument("--recover-p95-ms", type=float, default=50.0)
    srv.add_argument("--shed-p95-ms", type=float, default=400.0)
    srv.add_argument("--stage-cooldown-s", type=float, default=1.0)
    srv.add_argument("--drain-budget-s", type=float, default=5.0)
    srv.add_argument("--stuck-after-s", type=float, default=10.0)
    srv.add_argument("--q", type=int, default=4)
    srv.add_argument("--signature-size", type=int, default=2)
    srv.add_argument("--scheme", choices=("Q", "Q+T"), default="Q+T")
    srv.add_argument("--k", type=int, default=1)
    srv.add_argument("--min-similarity", type=float, default=0.0)
    srv.add_argument("--strategy", choices=("basic", "osc"), default="osc")
    srv.add_argument(
        "--wal", action=argparse.BooleanOptionalAction, default=True
    )
    srv.set_defaults(func=cmd_serve)

    png = sub.add_parser("ping", help="query a running match server's readiness")
    png.add_argument("--host", default="127.0.0.1")
    png.add_argument("--port", type=int, default=None)
    png.add_argument(
        "--port-file", default=None, help="read host/port written by serve"
    )
    png.add_argument("--timeout-s", type=float, default=5.0)
    png.add_argument(
        "--stats",
        action="store_true",
        help="print a one-line health summary instead of the JSON payload",
    )
    png.set_defaults(func=cmd_ping)

    st = sub.add_parser(
        "stats", help="dump a running match server's live metrics"
    )
    st.add_argument("--host", default="127.0.0.1")
    st.add_argument("--port", type=int, default=None)
    st.add_argument(
        "--port-file", default=None, help="read host/port written by serve"
    )
    st.add_argument("--timeout-s", type=float, default=5.0)
    st.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="full payload as JSON, or Prometheus text exposition",
    )
    st.add_argument(
        "--traces",
        action="store_true",
        help="include recent and slow request span trees (JSON format)",
    )
    st.add_argument(
        "--watch", action="store_true", help="refetch until interrupted"
    )
    st.add_argument(
        "--interval-s", type=float, default=2.0, help="--watch refresh period"
    )
    st.set_defaults(func=cmd_stats)

    fz = sub.add_parser(
        "fuzz",
        help="fuzz a trust boundary: wire protocol, stats op, WAL, or snapshot",
    )
    fz.add_argument(
        "--target",
        choices=sorted(("wire", "stats", "wal", "snapshot")),
        default="wire",
    )
    fz.add_argument(
        "--seeds", type=int, default=3, help="number of consecutive seeds"
    )
    fz.add_argument("--seed-base", type=int, default=0, help="first seed")
    fz.add_argument(
        "--cases", type=int, default=200, help="mutated inputs per seed"
    )
    fz.add_argument(
        "--smoke", action="store_true", help="CI-sized sweep (caps cases at 25)"
    )
    fz.add_argument(
        "--corpus-dir", default=None, help="directory for failing inputs"
    )
    fz.add_argument(
        "--case-deadline-s",
        type=float,
        default=5.0,
        help="per-case hang budget",
    )
    fz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "corrupt" and not args.preset and not args.probabilities:
        parser.error("corrupt needs --preset or --probabilities")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
