"""CLI for reprolint: ``python -m repro.analysis [paths...]``.

Exit status is 0 when every selected rule is clean over every target,
1 when there are findings, 2 on usage errors or unparseable files.
Two output formats:

- ``--format text`` (default) — one ``path:line:col: rule: message``
  line per finding, the same shape as compiler diagnostics, so editors
  and CI annotate it for free.
- ``--format sarif`` — minimal SARIF 2.1.0 for GitHub code-scanning
  upload.

Files that fail to parse are reported as rule ``syntax-error`` findings
(both formats) and force exit code 2 — a tree the linter cannot read is
not a clean tree.  An unknown rule name or an empty ``--select`` is a
usage error (exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.framework import Finding, registry, run

#: The pseudo-rule used for files the parser rejects.
SYNTAX_ERROR_RULE = "syntax-error"

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _default_target() -> Path:
    """The installed package directory (``src/repro`` in a checkout)."""
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the reprolint argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis for the repro package.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _display_path(raw: str) -> str:
    """``raw`` relative to the working directory when possible (posix).

    Keeps output stable across checkouts: the default target is an
    absolute path, but CI output must not depend on where the runner
    cloned the repo.
    """
    path = Path(raw)
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _sarif_document(findings: Sequence[Finding]) -> str:
    """A minimal SARIF 2.1.0 document for code-scanning upload."""
    rule_ids = sorted({f.rule for f in findings})
    known = registry()
    rules = []
    for rule_id in rule_ids:
        registered = known.get(rule_id)
        description = (
            registered.description
            if registered is not None
            else "file failed to parse"
        )
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": description or rule_id},
            }
        )
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    document = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": (
                            "https://example.invalid/repro/analysis"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """Run reprolint; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        known = registry()
        width = max(len(name) for name in known)
        for name in sorted(known):
            print(f"{name:<{width}}  {known[name].description}")
        return 0
    targets = [Path(p) for p in args.paths] if args.paths else [_default_target()]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    select = None
    if args.select is not None:
        select = [name.strip() for name in args.select.split(",") if name.strip()]
        if not select:
            print("error: --select names no rule", file=sys.stderr)
            return 2
    syntax_errors: list[Finding] = []

    def record_parse_error(path: Path, exc: Exception) -> None:
        line = getattr(exc, "lineno", None) or 0
        message = getattr(exc, "msg", None) or str(exc)
        syntax_errors.append(
            Finding(SYNTAX_ERROR_RULE, str(path), line, 0, message)
        )

    try:
        findings = run(targets, select=select, on_error=record_parse_error)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    findings = syntax_errors + findings
    findings = [
        dataclasses.replace(f, path=_display_path(f.path)) for f in findings
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if args.output_format == "sarif":
        sys.stdout.write(_sarif_document(findings))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(
                f"\nreprolint: {len(findings)} finding(s) across "
                f"{len({f.path for f in findings})} file(s)",
                file=sys.stderr,
            )
    if any(f.rule == SYNTAX_ERROR_RULE for f in findings):
        return 2
    if findings:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
