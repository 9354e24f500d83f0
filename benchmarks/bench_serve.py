"""Serving-layer overhead and overload behaviour: ``BENCH_serve.json``.

Measures the online serving story end to end against an in-process
:class:`~repro.serve.server.MatchServer` over real TCP:

- ``direct`` — the baseline: the same per-thread matcher the server's
  workers use, called in a plain loop.  Its p50 is the floor the wire
  path is judged against.
- ``serve_1x`` — one closed-loop client: exactly one request in flight,
  so nothing queues and the measured p50 is the direct path plus the
  serving layer (wire, admission, deadline stamping, worker hand-off).
  This is the level the overhead gate is judged on.
- ``serve_2x`` / ``serve_10x`` — 2 and 10 closed-loop clients *per
  server worker* (no think time), offered load well past service
  capacity.  Each level records throughput, latency percentiles
  (p50/p95/p99), and the outcome mix — completed / degraded / shed
  rates.
- ``hostile`` — a slowloris (one byte then silence) and a 64 MiB
  unterminated frame attack the server while a well-behaved client
  keeps querying.  Both attackers must be disconnected within their
  budgets and the well-behaved client must see only typed outcomes.
- ``metrics`` — the same 1x closed loop run twice, with the whole
  observability plane (registry recording + request tracing) switched
  off and then on.  The gate: metrics-on p50 within 5% of metrics-off
  p50 plus a fixed sub-ms allowance.
- ``stats_probe`` — a live full-section ``stats`` request after the
  load levels: the latency histograms and ETI lookup counters must be
  non-zero, the buffer-pool hit rate present, and the retained slowest
  trace must span serve → matcher → db.  This is a correctness gate,
  enforced even under ``--smoke``.

The acceptance gate: at 1x offered load the served p50 must be within
10% plus a fixed 2ms wire allowance of the direct p50 (admission,
deadline stamping, and the JSON protocol are cheap), and no request at
any level may resolve to an untyped error.  The full run exits 1 when
the gate fails; ``--smoke`` (the CI mode) still records the numbers but
never fails on timing, only on correctness.

Scale is environment-tunable::

    REPRO_BENCH_SERVE_REFERENCE   reference relation size   (default 1500)
    REPRO_BENCH_SERVE_DISTINCT    distinct dirty tuples     (default 60)
    REPRO_BENCH_SERVE_REQUESTS    requests per client       (default 40)
    REPRO_BENCH_SERVE_WORKERS     server worker threads     (default 4)

Run directly: ``PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.core.batch import BatchMatcher
from repro.core.config import MatchConfig
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti
from repro.serve.client import ServeClient
from repro.serve.protocol import PRIORITY_BULK, PRIORITY_INTERACTIVE
from repro.serve.server import MatchServer, ServeConfig

REFERENCE_SIZE = int(os.environ.get("REPRO_BENCH_SERVE_REFERENCE", "1500"))
DISTINCT_INPUTS = int(os.environ.get("REPRO_BENCH_SERVE_DISTINCT", "60"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "40"))
WORKERS = int(os.environ.get("REPRO_BENCH_SERVE_WORKERS", "4"))
SEED = 2003

#: Fixed allowance for the wire itself (connect/JSON/syscalls), so the
#: 10% relative gate stays meaningful when direct queries are sub-ms.
WIRE_ALLOWANCE_S = 0.002

#: Fixed allowance for the metrics-on/off comparison: at sub-ms p50 a
#: bare 5% relative gate would be under scheduler jitter.
METRICS_ALLOWANCE_S = 0.00015

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_serve.json"


def build_world(reference_size, distinct_inputs):
    customers = generate_customers(reference_size, seed=SEED, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    config = MatchConfig(q=4, signature_size=2, use_osc=True)
    eti, _ = build_eti(db, reference, config)
    dataset = make_dataset(
        rows, DatasetSpec.preset("D2"), distinct_inputs, seed=SEED + 1
    )
    inputs = [dirty.values for dirty in dataset.inputs]
    return db, reference, weights, config, eti, inputs


def percentile(samples, fraction):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))]


def latency_summary(samples):
    return {
        "p50_ms": round(percentile(samples, 0.50) * 1000, 3),
        "p95_ms": round(percentile(samples, 0.95) * 1000, 3),
        "p99_ms": round(percentile(samples, 0.99) * 1000, 3),
        "mean_ms": round(statistics.fmean(samples) * 1000, 3)
        if samples
        else 0.0,
    }


def run_direct(engine, inputs, requests):
    """The baseline: the server worker's own code path, no wire."""
    matcher = engine.worker_matcher()
    rng = random.Random(SEED + 7)
    for _ in range(min(10, requests)):  # warm caches like a live worker
        matcher.match(inputs[rng.randrange(len(inputs))])
    latencies = []
    started = time.perf_counter()
    for _ in range(requests):
        values = inputs[rng.randrange(len(inputs))]
        t0 = time.perf_counter()
        matcher.match(values)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - started
    return {
        "name": "direct",
        "requests": requests,
        "seconds": round(elapsed, 4),
        "throughput_rps": round(requests / elapsed, 1),
        "latency": latency_summary(latencies),
    }


def run_load_level(host, port, inputs, clients, requests_per_client, level_seed):
    """Closed-loop clients hammering the server; returns the level record."""
    latencies_lock = threading.Lock()
    latencies = []
    outcomes = {"completed": 0, "degraded": 0, "shed": 0, "error": 0}

    def client_loop(worker_index):
        rng = random.Random(level_seed * 1000 + worker_index)
        local_latencies = []
        local_outcomes = dict.fromkeys(outcomes, 0)
        with ServeClient(host, port) as client:
            for _ in range(requests_per_client):
                values = inputs[rng.randrange(len(inputs))]
                priority = (
                    PRIORITY_BULK if rng.random() < 0.5 else PRIORITY_INTERACTIVE
                )
                t0 = time.perf_counter()
                response = client.match(values, priority=priority)
                local_latencies.append(time.perf_counter() - t0)
                local_outcomes[response["outcome"]] += 1
        with latencies_lock:
            latencies.extend(local_latencies)
            for key, count in local_outcomes.items():
                outcomes[key] += count

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    total = clients * requests_per_client
    answered = outcomes["completed"] + outcomes["degraded"]
    return {
        "clients": clients,
        "requests": total,
        "seconds": round(elapsed, 4),
        "throughput_rps": round(answered / elapsed, 1),
        "latency": latency_summary(latencies),
        "outcomes": dict(outcomes),
        "shed_rate": round(outcomes["shed"] / total, 4),
        "degraded_rate": round(outcomes["degraded"] / total, 4),
    }


def run_metrics_comparison(server, host, port, inputs, requests):
    """A/B the observability plane at 1x load: recording off, then on.

    Both runs are the same single-client closed loop, so the only
    difference is whether instruments record and request span trees are
    captured.  The gate: metrics-on p50 within 5% of metrics-off p50
    plus :data:`METRICS_ALLOWANCE_S`.
    """
    server.set_metrics_enabled(False)
    off = run_load_level(
        host, port, inputs, clients=1, requests_per_client=requests,
        level_seed=31,
    )
    server.set_metrics_enabled(True)
    on = run_load_level(
        host, port, inputs, clients=1, requests_per_client=requests,
        level_seed=37,
    )
    off_p50 = off["latency"]["p50_ms"]
    on_p50 = on["latency"]["p50_ms"]
    budget_ms = off_p50 * 1.05 + METRICS_ALLOWANCE_S * 1000
    return {
        "metrics_off_p50_ms": off_p50,
        "metrics_on_p50_ms": on_p50,
        "budget_ms": round(budget_ms, 3),
        "within_gate": on_p50 <= budget_ms,
        "off": off,
        "on": on,
    }


def _span_names(node):
    names = [node["name"]]
    for child in node.get("children", []):
        names.extend(_span_names(child))
    return names


def run_stats_probe(host, port):
    """Fetch a live full-section stats payload and check its substance.

    After the load levels the serving plane must be able to *show* the
    work it did: non-zero latency histograms and ETI lookup counters, a
    buffer-pool hit rate, and a retained trace whose span tree reaches
    from the serve root through the matcher into the db layer.
    """
    with ServeClient(host, port) as client:
        payload = client.stats(["serve", "metrics", "traces"])
    problems = []
    metrics = payload.get("metrics", {})
    counters = {
        (series["name"], tuple(sorted(series["labels"].items()))): series["value"]
        for series in metrics.get("counters", [])
    }
    eti_lookups = counters.get(("repro_match_eti_lookups_total", ()), 0)
    if eti_lookups <= 0:
        problems.append("ETI lookup counter is zero")
    request_hists = [
        series
        for series in metrics.get("histograms", [])
        if series["name"] == "repro_serve_request_seconds" and series["count"]
    ]
    if not request_hists or all(s["sum"] <= 0 for s in request_hists):
        problems.append("request latency histograms are empty")
    gauges = {s["name"]: s["value"] for s in metrics.get("gauges", [])}
    if "repro_pool_hit_rate" not in gauges:
        problems.append("pool hit rate gauge missing")
    slowest = payload.get("traces", {}).get("slowest")
    names = _span_names(slowest) if slowest else []
    for needed in ("request", "matcher", "db"):
        if needed not in names:
            problems.append(f"slowest trace lacks a {needed!r} span")
    return {
        "eti_lookups": eti_lookups,
        "request_latency_count": sum(s["count"] for s in request_hists),
        "pool_hit_rate": gauges.get("repro_pool_hit_rate"),
        "slowest_trace_spans": names,
        "ok": not problems,
        "problems": problems,
    }


def run_hostile_mix(host, port, inputs, requests, frame_timeout_s, oversize_bytes):
    """Hostile clients alongside a well-behaved one.

    Two attackers run concurrently with a normal closed-loop client: a
    slowloris (one byte, then silence) and an oversized single-line
    frame (``oversize_bytes`` with no newline).  The record captures how
    long each attacker held its connection before the server cut it off,
    and the well-behaved client's outcome mix and latency — which must
    be all-typed and unharmed while the attacks are in flight.
    """
    slow = {}
    oversized = {}

    def slowloris():
        t0 = time.perf_counter()
        try:
            with socket.create_connection((host, port), timeout=30.0) as sock:
                sock.settimeout(30.0)
                sock.sendall(b"{")  # arm the frame deadline, then stall
                with sock.makefile("rb") as reader:
                    slow["response"] = reader.readline().decode("ascii", "replace")
                    reader.readline()  # EOF: the server hung up
        except OSError:
            pass
        slow["held_s"] = time.perf_counter() - t0

    def oversize():
        blob = b"x" * oversize_bytes  # one giant line, never terminated
        t0 = time.perf_counter()
        try:
            with socket.create_connection((host, port), timeout=30.0) as sock:
                sock.settimeout(30.0)
                try:
                    sock.sendall(blob)
                except OSError:
                    pass  # the server stopped reading and closed: expected
                with sock.makefile("rb") as reader:
                    oversized["response"] = reader.readline().decode(
                        "ascii", "replace"
                    )
                    reader.readline()
        except OSError:
            pass
        oversized["held_s"] = time.perf_counter() - t0

    well_behaved = {}

    def normal_client():
        rng = random.Random(SEED + 99)
        latencies = []
        outcomes = {"completed": 0, "degraded": 0, "shed": 0, "error": 0}
        with ServeClient(host, port) as client:
            for _ in range(requests):
                values = inputs[rng.randrange(len(inputs))]
                t0 = time.perf_counter()
                response = client.match(values)
                latencies.append(time.perf_counter() - t0)
                outcomes[response["outcome"]] += 1
        well_behaved["latency"] = latency_summary(latencies)
        well_behaved["outcomes"] = outcomes

    threads = [
        threading.Thread(target=fn)
        for fn in (slowloris, oversize, normal_client)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # The slowloris is cut at the frame deadline; the oversized frame is
    # cut as soon as the drain budget is spent (transfer time dominates).
    slow_budget = frame_timeout_s + 5.0
    oversize_budget = 30.0
    return {
        "slowloris": {
            "held_s": round(slow.get("held_s", 0.0), 3),
            "budget_s": slow_budget,
            "disconnected_within_budget": slow.get("held_s", 0.0) <= slow_budget,
        },
        "oversized_frame": {
            "bytes": oversize_bytes,
            "held_s": round(oversized.get("held_s", 0.0), 3),
            "budget_s": oversize_budget,
            "disconnected_within_budget": oversized.get("held_s", 0.0)
            <= oversize_budget,
        },
        "well_behaved": well_behaved,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run for CI: records numbers, never fails on timing",
    )
    args = parser.parse_args(argv)

    reference_size = 300 if args.smoke else REFERENCE_SIZE
    distinct_inputs = 20 if args.smoke else DISTINCT_INPUTS
    requests_per_client = 8 if args.smoke else REQUESTS_PER_CLIENT
    workers = 2 if args.smoke else WORKERS

    db, reference, weights, config, eti, inputs = build_world(
        reference_size, distinct_inputs
    )
    engine = BatchMatcher(reference, weights, config, eti, jobs=workers)
    serve_config = ServeConfig(
        workers=workers,
        queue_capacity=max(16, workers * 8),
        default_deadline_ms=250.0,
        degrade_p95_s=0.050,
        recover_p95_s=0.010,
        shed_p95_s=0.100,
        stage_cooldown_s=0.25,
        # Boundary limits the hostile mix leans on: a slowloris is cut
        # after one second, an unterminated flood after ~2 MiB.
        frame_timeout_s=1.0,
    )
    server = MatchServer(engine=engine, config=serve_config)
    levels = {}
    try:
        direct = run_direct(
            engine, inputs, workers * requests_per_client
        )
        host, port = server.start()
        # 1x is a single in-flight request (no queueing, no GIL
        # timeslicing between workers) so the gate measures the serving
        # layer itself; the overload levels scale clients per worker.
        for multiple, clients in ((1, 1), (2, workers * 2), (10, workers * 10)):
            levels[f"serve_{multiple}x"] = run_load_level(
                host,
                port,
                inputs,
                clients=clients,
                requests_per_client=requests_per_client,
                level_seed=multiple,
            )
        metrics_comparison = run_metrics_comparison(
            server, host, port, inputs, requests_per_client
        )
        stats_probe = run_stats_probe(host, port)
        hostile = run_hostile_mix(
            host,
            port,
            inputs,
            requests=requests_per_client,
            frame_timeout_s=serve_config.frame_timeout_s,
            oversize_bytes=(4 << 20) if args.smoke else (64 << 20),
        )
        queue_max_depth = server.queue.max_depth
        stage_trips = server.ladder.trips()
    finally:
        server.shutdown(drain_budget_s=10.0)
        engine.close()
        db.close()

    direct_p50 = direct["latency"]["p50_ms"]
    served_p50 = levels["serve_1x"]["latency"]["p50_ms"]
    overhead_budget_ms = direct_p50 * 1.10 + WIRE_ALLOWANCE_S * 1000
    overhead_ok = served_p50 <= overhead_budget_ms
    errors = sum(level["outcomes"]["error"] for level in levels.values())
    errors += metrics_comparison["off"]["outcomes"]["error"]
    errors += metrics_comparison["on"]["outcomes"]["error"]

    payload = {
        "benchmark": "serve_overhead_and_overload",
        "smoke": args.smoke,
        "cpus": os.cpu_count() or 1,
        "workload": {
            "reference_size": reference_size,
            "distinct_inputs": distinct_inputs,
            "requests_per_client": requests_per_client,
            "server_workers": workers,
            "dataset_preset": "D2",
            "default_deadline_ms": 250.0,
        },
        "direct": direct,
        "levels": levels,
        "hostile": hostile,
        "queue_max_depth": queue_max_depth,
        "queue_capacity": serve_config.queue_capacity,
        "stage_trips": stage_trips,
        "overhead": {
            "direct_p50_ms": direct_p50,
            "serve_1x_p50_ms": served_p50,
            "budget_ms": round(overhead_budget_ms, 3),
            "within_gate": overhead_ok,
        },
        "metrics_overhead": metrics_comparison,
        "stats_probe": stats_probe,
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"direct: {direct['throughput_rps']:.0f} q/s, "
        f"p50 {direct_p50:.2f}ms"
    )
    for name, level in levels.items():
        print(
            f"  {name:>9}: {level['throughput_rps']:7.0f} answered/s  "
            f"p50 {level['latency']['p50_ms']:7.2f}ms  "
            f"p95 {level['latency']['p95_ms']:7.2f}ms  "
            f"p99 {level['latency']['p99_ms']:7.2f}ms  "
            f"shed {100 * level['shed_rate']:5.1f}%  "
            f"degraded {100 * level['degraded_rate']:5.1f}%"
        )
    print(
        f"1x wire overhead: p50 {served_p50:.2f}ms vs budget "
        f"{overhead_budget_ms:.2f}ms ({'OK' if overhead_ok else 'OVER'})"
    )
    print(
        f"metrics overhead: p50 off {metrics_comparison['metrics_off_p50_ms']:.2f}ms "
        f"on {metrics_comparison['metrics_on_p50_ms']:.2f}ms vs budget "
        f"{metrics_comparison['budget_ms']:.2f}ms "
        f"({'OK' if metrics_comparison['within_gate'] else 'OVER'})"
    )
    print(
        f"stats probe: eti_lookups {stats_probe['eti_lookups']}, "
        f"latency samples {stats_probe['request_latency_count']}, "
        f"pool hit rate {stats_probe['pool_hit_rate']}, "
        f"trace spans {'->'.join(stats_probe['slowest_trace_spans'][:3]) or 'none'} "
        f"({'OK' if stats_probe['ok'] else 'MISSING DATA'})"
    )
    print(
        f"hostile: slowloris held {hostile['slowloris']['held_s']:.2f}s, "
        f"oversized held {hostile['oversized_frame']['held_s']:.2f}s, "
        f"well-behaved p50 {hostile['well_behaved']['latency']['p50_ms']:.2f}ms"
    )
    if queue_max_depth > serve_config.queue_capacity:
        print("ERROR: queue grew past capacity", file=sys.stderr)
        return 1
    if errors:
        print(f"ERROR: {errors} requests resolved to errors", file=sys.stderr)
        return 1
    if hostile["well_behaved"]["outcomes"]["error"]:
        print("ERROR: well-behaved client saw errors under attack", file=sys.stderr)
        return 1
    if not (
        hostile["slowloris"]["disconnected_within_budget"]
        and hostile["oversized_frame"]["disconnected_within_budget"]
    ):
        print("ERROR: hostile connection outlived its budget", file=sys.stderr)
        return 1
    if not stats_probe["ok"]:
        # Correctness, not timing: enforced even under --smoke.
        print(
            f"ERROR: stats probe missing data: {stats_probe['problems']}",
            file=sys.stderr,
        )
        return 1
    if not overhead_ok and not args.smoke:
        print("WARNING: 1x p50 overhead above the gate", file=sys.stderr)
        return 1
    if not metrics_comparison["within_gate"] and not args.smoke:
        print(
            "WARNING: metrics-on p50 above the 5% observability gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
