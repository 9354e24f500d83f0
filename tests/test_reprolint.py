"""reprolint: every rule fires on its bad fixture and the tree is clean."""

from pathlib import Path

import pytest

from repro.analysis import REGISTRY, run
from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"

# (fixture file, rule name, fragments that must appear in the messages)
BAD_FIXTURES = [
    (
        "bad_lock.py",
        "lock-discipline",
        ["Counter._total is lock-guarded", "without the lock in peek()"],
    ),
    (
        "bad_exceptions.py",
        "exception-taxonomy",
        ["the db layer raises `KeyError`", "bare `except:`"],
    ),
    (
        "bad_determinism.py",
        "determinism",
        ["`random.random(...)`", "`time.time()`", "iterates a set directly"],
    ),
    (
        "bad_determinism_obs.py",
        "determinism",
        ["`random.random(...)`", "`time.time()`", "iterates a set directly"],
    ),
    (
        "bad_api.py",
        "api-consistency",
        [
            "__all__ lists 'missing_name'",
            "private name '_private'",
            "public function 'helper' has no docstring",
        ],
    ),
    (
        "bad_unused_import.py",
        "unused-import",
        ["import 'json' is never used", "import 'path' is never used"],
    ),
    (
        "bad_annotations.py",
        "annotations",
        [
            "missing parameter annotations for: value, factor",
            "missing a return annotation",
        ],
    ),
    (
        "bad_blocking.py",
        "blocking-under-lock",
        [
            "blocking call `.recv(...)` inside `with self._lock:`",
            "blocking call time.sleep() inside `with self._lock:`",
            "transitively reaches blocking I/O",
        ],
    ),
    (
        "bad_deadline.py",
        "deadline-propagation",
        ["without forwarding any of them", "the deadline is dropped here"],
    ),
    (
        "bad_leak.py",
        "resource-leak",
        [
            "never released or handed off",
            "may leak on an exception path",
            "semaphore token from self._tokens.acquire() is never released",
        ],
    ),
    (
        "bad_wal.py",
        "durability-ordering",
        [
            "COMMIT record appended without a following log fsync",
            "without a following inner.sync()",
            "no fsync between them",
        ],
    ),
    (
        "bad_shed.py",
        "shed-exhaustiveness",
        [
            "'mystery_reason' is not in the protocol's documented SHED_REASONS",
            "documented shed reason 'ghost_reason' is never raised",
        ],
    ),
]


@pytest.mark.parametrize(
    "fixture, rule, fragments",
    BAD_FIXTURES,
    ids=[rule for _, rule, _ in BAD_FIXTURES],
)
def test_rule_fires_on_bad_fixture(fixture, rule, fragments):
    findings = run([FIXTURES / fixture], select=[rule])
    assert findings, f"{rule} found nothing in {fixture}"
    assert all(f.rule == rule for f in findings)
    messages = "\n".join(f.message for f in findings)
    for fragment in fragments:
        assert fragment in messages


@pytest.mark.parametrize(
    "fixture, rule, fragments",
    BAD_FIXTURES,
    ids=[rule for _, rule, _ in BAD_FIXTURES],
)
def test_cli_exits_nonzero_on_bad_fixture(fixture, rule, fragments, capsys):
    code = main([str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert code == 1
    assert f": {rule}: " in out


def test_clean_fixture_has_zero_findings():
    assert run([FIXTURES / "clean.py"]) == []


def test_cli_exits_zero_on_clean_fixture(capsys):
    assert main([str(FIXTURES / "clean.py")]) == 0
    assert capsys.readouterr().out == ""


def test_source_tree_is_finding_free():
    """The acceptance gate: reprolint is clean over the whole package."""
    assert run([SRC_REPRO]) == []


def test_finding_render_shape():
    finding = run([FIXTURES / "bad_lock.py"], select=["lock-discipline"])[0]
    rendered = finding.render()
    assert rendered.startswith(f"{finding.path}:{finding.line}:{finding.col}: ")
    assert ": lock-discipline: " in rendered


def test_cli_parse_error_exits_2(capsys):
    code = main([str(FIXTURES / "unparseable.py.broken")])
    captured = capsys.readouterr()
    assert code == 2
    assert ": syntax-error: " in captured.out


def test_syntax_error_is_a_finding_in_json_output(capsys):
    import json

    code = main(["--format", "json", str(FIXTURES / "unparseable.py.broken")])
    assert code == 2
    document = json.loads(capsys.readouterr().out)
    assert document["count"] == 1
    assert document["findings"][0]["rule"] == "syntax-error"


def test_cli_unknown_rule_exits_2(capsys):
    code = main(["--select", "no-such-rule", str(FIXTURES / "clean.py")])
    assert code == 2
    assert "no-such-rule" in capsys.readouterr().err


def test_cli_missing_path_exits_2(capsys):
    code = main([str(FIXTURES / "does_not_exist.py")])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_run_rejects_unknown_rule_names():
    with pytest.raises(KeyError):
        run([FIXTURES / "clean.py"], select=["bogus"])


def test_disable_pragma_suppresses_finding(tmp_path):
    source = (FIXTURES / "bad_unused_import.py").read_text()
    suppressed = source.replace(
        "import json", "import json  # reprolint: disable=unused-import"
    ).replace(
        "from os import path",
        "from os import path  # reprolint: disable=unused-import",
    )
    target = tmp_path / "suppressed.py"
    target.write_text(suppressed)
    assert run([target], select=["unused-import"]) == []


def test_path_pragma_opts_into_scoped_rules(tmp_path):
    """Without the pragma the annotations rule skips non-package files."""
    unscoped = tmp_path / "unscoped.py"
    unscoped.write_text('"""Doc."""\n\n\ndef f(x):\n    """Doc."""\n    return x\n')
    assert run([unscoped], select=["annotations"]) == []
    scoped = tmp_path / "scoped.py"
    scoped.write_text(
        '"""Doc."""\n# reprolint: path=repro/scoped.py\n\n\n'
        'def f(x):\n    """Doc."""\n    return x\n'
    )
    findings = run([scoped], select=["annotations"])
    assert findings and findings[0].rule == "annotations"


def test_disable_pragma_on_decorated_def_covers_decorators(tmp_path):
    """A pragma on the `def` header suppresses findings anchored at a
    decorator line (the block span extends upward over decorators)."""
    target = tmp_path / "decorated.py"
    target.write_text(
        '"""Doc."""\n'
        "# reprolint: path=repro/core/fms_decorated.py\n"
        "import random\n\n\n"
        "def retry(jitter):\n"
        '    """Doc."""\n'
        "    return lambda fn: fn\n\n\n"
        "@retry(jitter=random.random())\n"
        "def flaky():  # reprolint: disable=determinism\n"
        '    """Doc."""\n'
        "    return 1\n"
    )
    findings = run([target], select=["determinism"])
    assert findings == []
    # Sanity: without the pragma the same file does fire.
    bare = tmp_path / "bare.py"
    bare.write_text(target.read_text().replace("  # reprolint: disable=determinism", ""))
    assert run([bare], select=["determinism"])


def test_registry_has_the_documented_rules():
    assert set(REGISTRY) == {
        "lock-discipline",
        "exception-taxonomy",
        "determinism",
        "api-consistency",
        "unused-import",
        "annotations",
        "blocking-under-lock",
        "deadline-propagation",
        "resource-leak",
        "durability-ordering",
        "shed-exhaustiveness",
    }
