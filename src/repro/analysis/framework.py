"""The reprolint rule framework: findings, pragmas, registry, runner.

``reprolint`` is this repository's own static-analysis layer.  Generic
linters cannot know that ``BufferPool._cache`` is guarded by
``BufferPool._lock``, that the ``db/`` layer's error contract is "raise
:class:`~repro.db.errors.DatabaseError` subclasses only", or that the
match path must stay deterministic — those invariants live in DESIGN.md
and reviewers' heads.  This framework turns them into executable rules
(see the ``rules_*`` modules) that run over the package AST via
``python -m repro.analysis``.

Architecture:

- :class:`Module` parses one file and extracts the *pragmas* that scope
  and suppress rules;
- :class:`Rule` subclasses declare a ``name`` and yield
  :class:`Finding` objects from :meth:`Rule.check`;
- :func:`registry` maps rule names to singleton instances (each rule
  module's ``@register`` decorators fill it; :func:`registry` imports
  the rule modules on first use, so importing the package — as every
  lock owner does for :mod:`repro.analysis.debuglock` — loads no rule);
- :func:`run` walks files, applies every selected rule, and returns the
  combined findings.

Pragmas (magic comments):

``# reprolint: disable=rule-a,rule-b``
    Suppress the named rules on this line.  When the comment sits on a
    ``def``/``class``/``with`` header line, the suppression covers that
    whole block — used for lock-held helper methods whose guard is the
    *caller's* ``with self._lock`` (the dynamic side is still checked by
    :mod:`repro.analysis.debuglock`).  For a decorated ``def``/``class``
    the block extends upward over the decorator lines, so findings
    anchored at a decorator are suppressed by the header pragma too.

``# reprolint: path=repro/db/something.py``
    Override the file's *logical path*, which is what rules scope on.
    This is how known-bad fixture files under ``tests/fixtures/lint/``
    opt in to path-scoped rules without living inside the package.
"""

from __future__ import annotations

import ast
import importlib
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Type

if TYPE_CHECKING:
    from repro.analysis.callgraph import Program

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*(?P<body>[^#]*)")
_DISABLE_RE = re.compile(r"disable=(?P<rules>[\w,-]+)")
_PATH_RE = re.compile(r"path=(?P<path>\S+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: rule: message`` — the CLI's output format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class Module:
    """One parsed source file plus its pragma state.

    ``logical_path`` is the posix-style path rules use for scoping
    (normally the path relative to the ``src`` root, e.g.
    ``repro/db/pager.py``); a ``# reprolint: path=...`` pragma near the
    top of the file overrides it.
    """

    def __init__(self, path: Path, source: str, logical_path: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.logical_path = logical_path
        # rule name -> list of (first_line, last_line) suppressed ranges
        self._disabled: dict[str, list[tuple[int, int]]] = {}
        self._scan_pragmas()

    @classmethod
    def load(cls, path: Path, root: Path | None = None) -> "Module":
        """Parse ``path``; the logical path is relative to ``root``.

        The source is decoded as Python decodes it (PEP 263/3120: a
        coding cookie or BOM, else UTF-8), never with the locale's
        encoding.
        """
        with tokenize.open(path) as handle:
            source = handle.read()
        try:
            relative = path.relative_to(root) if root is not None else path
        except ValueError:
            relative = path
        return cls(path, source, PurePosixPath(relative).as_posix())

    def _scan_pragmas(self) -> None:
        # header line -> (first suppressed line, last suppressed line); for
        # decorated defs/classes the span starts at the first decorator, so
        # a pragma on the `def`/`class` line covers the decorator lines too.
        block_spans: dict[int, tuple[int, int]] = {}
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.With)
            ):
                end = node.end_lineno if node.end_lineno is not None else node.lineno
                start = node.lineno
                decorators = getattr(node, "decorator_list", [])
                if decorators:
                    start = min(start, min(d.lineno for d in decorators))
                prior = block_spans.get(node.lineno, (node.lineno, node.lineno))
                block_spans[node.lineno] = (min(start, prior[0]), max(end, prior[1]))
        for lineno, text in enumerate(self.source.splitlines(), start=1):
            pragma = _PRAGMA_RE.search(text)
            if pragma is None:
                continue
            body = pragma.group("body")
            path_match = _PATH_RE.search(body)
            if path_match is not None and lineno <= 5:
                self.logical_path = path_match.group("path")
            disable_match = _DISABLE_RE.search(body)
            if disable_match is not None:
                span = block_spans.get(lineno, (lineno, lineno))
                for rule in disable_match.group("rules").split(","):
                    self._disabled.setdefault(rule.strip(), []).append(span)

    def suppressed(self, rule: str, line: int) -> bool:
        """Is ``rule`` disabled at ``line`` by a pragma?"""
        return any(
            first <= line <= last for first, last in self._disabled.get(rule, ())
        )

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``node`` (caller checks pragmas)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule, str(self.path), line, col, message)


class Rule:
    """Base class for reprolint rules; subclasses set ``name`` and check."""

    name: str = ""
    description: str = ""

    def applies(self, module: Module) -> bool:
        """Whether this rule runs on ``module`` (scope by logical path)."""
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError
        yield  # pragma: no cover

    def emit(
        self, module: Module, node: ast.AST, message: str
    ) -> Iterator[Finding]:
        """Yield one finding unless a pragma suppresses it."""
        finding = module.finding(self.name, node, message)
        if not module.suppressed(self.name, finding.line):
            yield finding


class ProgramRule(Rule):
    """A whole-program rule: runs once over the parsed module set.

    Per-module rules are structurally blind to invariants that span
    functions and files (a lock region calling into blocking I/O three
    frames away, a deadline parameter dropped at a module boundary).
    ``ProgramRule`` subclasses implement :meth:`check_program` against a
    :class:`~repro.analysis.callgraph.Program` — every module parsed in
    this run, plus the call graph built over them — instead of
    :meth:`Rule.check`.  Pragma suppression still goes through
    :meth:`Rule.emit` with the module the finding lands in.
    """

    def check(self, module: Module) -> Iterator[Finding]:
        """Program rules do not run per module; see :meth:`check_program`."""
        return iter(())

    def check_program(self, program: "Program") -> Iterator[Finding]:
        """Yield findings over the whole program (a ``callgraph.Program``)."""
        raise NotImplementedError
        yield  # pragma: no cover


_REGISTRY: dict[str, Rule] = {}

#: The modules whose ``@register`` decorators define every rule.
RULE_MODULES = (
    "repro.analysis.rules_determinism",
    "repro.analysis.rules_exceptions",
    "repro.analysis.rules_interproc",
    "repro.analysis.rules_locks",
)


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one singleton instance to the registry."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def registry() -> dict[str, Rule]:
    """Every rule by name, importing the rule modules on first use."""
    for name in RULE_MODULES:
        importlib.import_module(name)
    return _REGISTRY


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _guess_root(path: Path) -> Path | None:
    """The directory whose ``repro`` ancestor makes logical paths package
    relative (``.../src/repro/db/pager.py`` -> root ``.../src``)."""
    for parent in path.parents:
        if parent.name == "repro":
            return parent.parent
    return None


#: Exceptions a source file can raise at parse time: plain syntax errors,
#: null bytes (``ValueError``), undecodable bytes, and unreadable files.
PARSE_ERRORS = (SyntaxError, ValueError, UnicodeDecodeError, OSError)


def run(
    paths: Sequence[Path],
    select: Sequence[str] | None = None,
    on_error: Callable[[Path, Exception], None] | None = None,
) -> list[Finding]:
    """Run the selected rules (default: all) over ``paths``.

    Returns all findings sorted by location.  Per-module rules run as
    each file parses; whole-program rules (:class:`ProgramRule`) run once
    at the end over a :class:`~repro.analysis.callgraph.Program` built
    from every module that parsed.  Unparseable files are reported
    through ``on_error`` (or re-raised when it is ``None``) and excluded
    from the program.
    """
    known = registry()
    if select is None:
        rules = list(known.values())
    else:
        unknown = [name for name in select if name not in known]
        if unknown:
            raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
        rules = [known[name] for name in select]
    module_rules = [r for r in rules if not isinstance(r, ProgramRule)]
    program_rules = [r for r in rules if isinstance(r, ProgramRule)]
    findings: list[Finding] = []
    modules: list[Module] = []
    for path in iter_python_files(paths):
        try:
            module = Module.load(path, root=_guess_root(path))
        except PARSE_ERRORS as exc:
            if on_error is None:
                raise
            on_error(path, exc)
            continue
        modules.append(module)
        for rule in module_rules:
            if rule.applies(module):
                findings.extend(rule.check(module))
    if program_rules and modules:
        # Imported here: callgraph depends on this module's Module class.
        from repro.analysis.callgraph import Program

        program = Program(modules)
        for rule in program_rules:
            findings.extend(rule.check_program(program))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
