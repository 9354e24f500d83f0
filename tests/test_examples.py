"""Smoke tests: the fast example scripts must run and produce key output.

The heavier examples (etl_pipeline, offline_dedup, persistent_warehouse)
take tens of seconds and are exercised indirectly through the modules they
compose; the two quick ones run here so the documented entry points cannot
rot silently.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 120) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestQuickstart:
    @pytest.fixture(scope="class")
    def output(self):
        return run_example("quickstart.py")

    def test_eti_built(self, output):
        assert "ETI built" in output

    def test_all_inputs_resolve_to_boeing(self, output):
        assert output.count("Boeing Company") >= 4

    def test_top_k_section(self, output):
        assert "Top-3 matches" in output


class TestPaperWalkthrough:
    @pytest.fixture(scope="class")
    def output(self):
        return run_example("paper_walkthrough.py")

    def test_edit_distance_section(self, output):
        assert "0.636" in output  # ed(company, corporation) = 7/11

    def test_ed_fails_fms_succeeds(self, output):
        assert "ed prefers the wrong tuple" in output
        assert "fms prefers the true target" in output

    def test_worked_fms_value(self, output):
        assert "0.806" in output  # the paper's fms(I3', R1) with unit weights

    def test_eti_table_rendered(self, output):
        assert "Tid-list" in output

    def test_osc_trace(self, output):
        assert "matcher.eti_lookups" in output
        assert "osc_succeeded=True osc_bound=" in output


def test_all_examples_exist():
    expected = {
        "quickstart.py",
        "etl_pipeline.py",
        "dedup_guard.py",
        "offline_dedup.py",
        "paper_walkthrough.py",
        "persistent_warehouse.py",
        "product_catalog.py",
    }
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present
