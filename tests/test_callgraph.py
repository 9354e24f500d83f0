"""Call graph: per-edge resolution, reachability, and SARIF output."""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.callgraph import DYNAMIC, Program
from repro.analysis.framework import Module

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def fixture_program():
    module = Module.load(FIXTURES / "callgraph_edges.py")
    return Program([module])


def _edges_from_run(program):
    run_qualname = next(
        q for q in program.functions if q.endswith("Widget.run")
    )
    return {
        (edge.callee.rsplit(".", 1)[-1], edge.resolution)
        for edge in program.callees(run_qualname)
    }


def test_self_method_edge(fixture_program):
    assert ("refresh", "self") in _edges_from_run(fixture_program)


def test_module_level_function_edge(fixture_program):
    assert ("helper", "local") in _edges_from_run(fixture_program)


def test_aliased_import_edge(fixture_program):
    """``import json as j; j.loads(...)`` resolves to ``json.loads``."""
    run_qualname = next(
        q for q in fixture_program.functions if q.endswith("Widget.run")
    )
    edges = {e.callee: e.resolution for e in fixture_program.callees(run_qualname)}
    assert edges.get("json.loads") == "import"


def test_unresolvable_call_is_dynamic(fixture_program):
    """A method on an untyped value falls back to the <dynamic> sink."""
    assert (DYNAMIC, "dynamic") in _edges_from_run(fixture_program)


def test_edges_are_in_source_order(fixture_program):
    run_qualname = next(
        q for q in fixture_program.functions if q.endswith("Widget.run")
    )
    lines = [edge.line for edge in fixture_program.callees(run_qualname)]
    assert lines == sorted(lines)


def test_reaches_returns_witness_path():
    """Transitive reachability reports the chain to the blocking seed."""
    module = Module.load(FIXTURES / "bad_blocking.py")
    program = Program([module])
    flush = next(q for q in program.functions if q.endswith("._flush"))
    witness = program.reaches({"os.fsync"})
    assert flush in witness
    assert witness[flush][-1] == "os.fsync"


def test_program_over_package_builds_and_resolves():
    """The graph over the real package resolves a healthy share of edges."""
    modules = [
        Module.load(p, root=SRC_REPRO.parent)
        for p in sorted(SRC_REPRO.rglob("*.py"))
    ]
    program = Program(modules)
    assert len(program.functions) > 300
    resolved = [e for e in program.edges if e.callee != DYNAMIC]
    assert len(resolved) > 500


def test_sarif_output_has_rules_and_results(capsys):
    import json

    assert main(["--format", "sarif", str(FIXTURES / "bad_blocking.py")]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    run_block = document["runs"][0]
    rule_ids = {r["id"] for r in run_block["tool"]["driver"]["rules"]}
    assert "blocking-under-lock" in rule_ids
    assert all(
        r["ruleId"] in rule_ids and r["locations"] for r in run_block["results"]
    )
