"""Smoke check of the perf ledger.

Run it by name — ``PYTHONPATH=src python -m pytest benchmarks/ledger/check_ledger.py``.
It is deliberately not called ``test_*`` or ``bench_*``, so tier-1
collection and the legacy bench smoke jobs never pick it up.  Timing
bounds are not enforced at smoke scale; every output check is.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN = [sys.executable, str(LEDGER / "run.py")]


def test_spec_names_are_unique_and_bounded():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


def test_smoke_set_checks_outputs_and_writes_both_tables(tmp_path):
    completed = subprocess.run(
        [*RUN, "--smoke", "--seed", "7", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:]
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert list(ledger["workloads"]) == WORKLOADS
    for name, entry in ledger["workloads"].items():
        assert entry["correct"] and not entry["problems"], name
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value in entry["end_to_end"].values()), name
        assert entry["per_layer"]["bench.traced_ops"] > 0
        assert entry["fingerprint"]["seed"] == 7
        spans = json.loads((tmp_path / f"{name}.trace.json").read_text())["spans"]
        assert spans and {"id", "op", "parent", "name", "start_ms", "end_ms"} <= set(spans[0])
    # The spans the program already emits arrive under the benchmark's roots.
    direct = json.loads((tmp_path / "direct_cold_12k.trace.json").read_text())
    assert {"bench.query", "matcher.eti_lookups", "db"} <= {s["name"] for s in direct["spans"]}


def test_driver_line_is_the_contract(tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        completed = subprocess.run(
            [*RUN, "--workload", "direct_cold_12k", "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
            stdout=subprocess.PIPE, text=True, timeout=120,
        )
        assert completed.returncode == 0
        line = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }


def test_a_dead_child_never_passes_for_an_earlier_record(tmp_path, monkeypatch):
    sys.path.insert(0, str(LEDGER))
    import run

    args = argparse.Namespace(seed=99, seconds=2.0, smoke=True, out=str(tmp_path))
    record = tmp_path / "build_12k.timed.json"
    earlier = {"correct": True, "fingerprint": {"seed": 7, "seconds": 2.0, "smoke": True}}

    def dies(command, **_):
        return subprocess.CompletedProcess(command, 1, stdout="")

    def writes_another_seed(command, **_):
        record.write_text(json.dumps(earlier))
        return subprocess.CompletedProcess(command, 0, stdout="")

    record.write_text(json.dumps(earlier))
    monkeypatch.setattr(run.subprocess, "run", dies)
    with pytest.raises(SystemExit, match="no result"):
        run.run_child("build_12k", 0, args)
    assert not record.exists()
    monkeypatch.setattr(run.subprocess, "run", writes_another_seed)
    with pytest.raises(SystemExit, match="asked for"):
        run.run_child("build_12k", 0, args)


def test_seed_decides_the_inputs():
    sys.path.insert(0, str(LEDGER))
    import harness

    assert harness.make_world(5, 50, 20, 10) == harness.make_world(5, 50, 20, 10)
    assert harness.make_world(5, 50, 20)[0] != harness.make_world(6, 50, 20)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "build_12k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
