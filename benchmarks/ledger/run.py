"""The perf ledger's one command.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run in this process — what ``BENCHMARK.json``'s ``command`` is.
    ``--trace 0`` measures the end-to-end metrics with nothing installed;
    ``--trace 1`` repeats the workload under the probe and measures the
    per-layer metrics.  The last line of standard output is one JSON
    object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``run.py [--workload NAME] [--seed N] [--out DIR] [--smoke] [--check-noise] [--compare LEDGER]``
    The whole set: every workload (or the named one) once untraced and
    once traced, each in its own child process so caches start clean and
    peak RSS is attributable; prints both tables and writes
    ``<out>/ledger.json``.  Exits non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

import harness
from harness import END_TO_END, PER_LAYER, SPEC

DEFAULT_SEED = 2003
SMOKE_SECONDS = 2.0
#: Top-1 answers each run records, for the traced-against-timed check.
ANSWERS_KEPT = 200
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload, one process, one JSON line."""
    from workloads import WORKLOADS, Run

    traced = args.trace == 1
    catalog = PER_LAYER if traced else END_TO_END
    with harness.work_dir() as work:
        run = Run(args.workload, args.seed, args.seconds, traced, args.smoke, work)
        outcome = WORKLOADS[args.workload](run)

    unknown = sorted(set(outcome.metrics) - set(catalog))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    if traced:
        # A layer a workload never enters did no work: report it as 0.
        values = {name: float(outcome.metrics.get(name, 0.0)) for name in catalog}
    elif outcome.metrics:
        values = {name: float(outcome.metrics[name]) for name in catalog}
    else:
        values = {}
    correct = not outcome.problems and bool(values)
    failed = min(outcome.failed, outcome.attempted)
    record = {
        "workload": args.workload,
        "traced": traced,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "failed_share": harness.share(failed, outcome.attempted),
        "problems": outcome.problems[:20],
        "answers": outcome.answers[:ANSWERS_KEPT],
        "fingerprint": harness.fingerprint(
            seed=args.seed, seconds=args.seconds, smoke=args.smoke, **outcome.scale
        ),
        "metrics": values,
    }

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.{'traced' if traced else 'timed'}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.probe is not None and outcome.probe.roots:
        roots = outcome.probe.roots
        trace = {
            "workload": args.workload,
            "fingerprint": record["fingerprint"],
            "spans": harness.flatten(roots, roots[0].start_s),
            **outcome.trace_extra,
        }
        (out / f"{args.workload}.trace.json").write_text(json.dumps(trace) + "\n")

    print_table(args.workload, traced, record)
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": catalog[name]["unit"]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


def print_table(workload: str, traced: bool, record: dict[str, Any]) -> None:
    catalog = PER_LAYER if traced else END_TO_END
    kind = "per-layer (traced run)" if traced else "end-to-end (tracing off)"
    print(
        f"== {workload}: {kind}, {record['attempted']} operations, "
        f"{record['failed']} failed =="
    )
    for name, value in record["metrics"].items():
        if traced and value == 0.0:
            continue
        print(f"  {name:<44} {value:>14.4f} {catalog[name]['unit']}")


# ----------------------------------------------------------------------
# The whole set
# ----------------------------------------------------------------------


def run_child(workload: str, trace: int, args: argparse.Namespace) -> dict[str, Any]:
    """One workload in its own process; returns the record it wrote."""
    stem = f"{workload}.{'traced' if trace else 'timed'}"
    record_path = Path(args.out) / f"{stem}.json"
    # ``--out`` outlives an invocation: a record left there by an earlier
    # one must never stand in for a child that died before writing its own.
    record_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    # Everything but the contract's JSON line is the child's own table.
    print(completed.stdout.rsplit("\n", 2)[0])
    # 0 is a correct run, 1 one that failed an output check; both wrote.
    if completed.returncode not in (0, 1) or not record_path.exists():
        raise SystemExit(f"{stem}: no result (exit {completed.returncode})")
    record = json.loads(record_path.read_text())
    asked = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke}
    got = {key: record["fingerprint"].get(key) for key in asked}
    if got != asked:
        raise SystemExit(f"{stem}: record is of {got}, asked for {asked}")
    return record


def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """One workload untraced then traced; its entry in the ledger."""
    timed = run_child(name, 0, args)
    traced = run_child(name, 1, args)
    problems = timed["problems"] + traced["problems"]
    # Same seed, same inputs: tracing must not change one answer.
    shared = min(len(timed["answers"]), len(traced["answers"]))
    if timed["answers"][:shared] != traced["answers"][:shared]:
        problems.append("traced and timed runs disagree on the shared prefix")
    return {
        "correct": not problems,
        "fingerprint": timed["fingerprint"],
        "attempted": timed["attempted"],
        "failed_share": timed["failed_share"],
        "end_to_end": timed["metrics"],
        "per_layer": {k: v for k, v in traced["metrics"].items() if v != 0.0},
        "problems": problems,
    }


def run_sets(args: argparse.Namespace, count: int) -> list[dict[str, Any]]:
    """``count`` complete sets, as one ledger each."""
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    ledgers: list[dict[str, Any]] = [{"workloads": {}} for _ in range(count)]
    for name in names:
        # The sets take turns workload by workload.  This machine speeds
        # up and slows down by a quarter for minutes at a time; two runs
        # of one workload taken four minutes apart measure that.
        for ledger in ledgers:
            ledger["workloads"][name] = run_workload(name, args)
    return ledgers


def worse_by(name: str, before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative = better)."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if END_TO_END[name]["better"] == "lower" else -change


def compare(before: dict[str, Any], after: dict[str, Any], title: str) -> dict[str, Any]:
    """Per (metric, workload): both values, the gap, and the bound it met."""
    print(f"== {title} ==")
    rows: dict[str, Any] = {}
    for workload, entry in after["workloads"].items():
        base = before["workloads"].get(workload)
        if base is None:
            continue
        differing = harness.comparable(base["fingerprint"], entry["fingerprint"])
        if differing:
            raise SystemExit(
                f"{workload}: fingerprints differ on {differing}; "
                "refusing to compare runs taken at different scales"
            )
        for name, value in entry["end_to_end"].items():
            bound = END_TO_END[name]["bound"]
            gap = worse_by(name, base["end_to_end"][name], value)
            verdict = "within" if gap <= bound else "WORSE"
            rows[f"{name}@{workload}"] = {
                "before": base["end_to_end"][name],
                "after": value,
                "worse_by": gap,
                "bound": bound,
                "within_bound": gap <= bound,
            }
            print(
                f"  {name:<28} {workload:<18} {base['end_to_end'][name]:>12.4f} "
                f"{value:>12.4f} {gap:>+8.3f} (bound {bound}) {verdict}"
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=str(harness.LEDGER_DIR / "out"))
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scales and short runs; output checks still enforced",
    )
    parser.add_argument(
        "--check-noise", action="store_true",
        help="run the set twice on this commit and compare with the bounds",
    )
    parser.add_argument(
        "--compare", metavar="LEDGER",
        help="an earlier ledger.json to compare this run with",
    )
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(SPEC["run_seconds"])
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ledger.json").unlink(missing_ok=True)  # none rather than a stale one
    ledger, *again = run_sets(args, 2 if args.check_noise else 1)
    if again:
        ledger["noise"] = compare(ledger, again[0], "same commit, run twice")
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())
        ledger["comparison"] = compare(earlier, ledger, f"against {args.compare}")
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    wrong = [name for name, entry in ledger["workloads"].items() if not entry["correct"]]
    if wrong:
        print(f"output checks failed on: {', '.join(wrong)}")
    outside = [
        key
        for section in ("noise", "comparison")
        for key, row in ledger.get(section, {}).items()
        if not row["within_bound"]
    ]
    if outside and not args.smoke:
        print(f"outside their bounds: {', '.join(outside)}")
    return 1 if wrong or (outside and not args.smoke) else 0


if __name__ == "__main__":
    sys.exit(main())
