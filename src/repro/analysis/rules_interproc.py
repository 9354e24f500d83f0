"""Interprocedural rules: invariants that span functions and files.

PRs 4–7 introduced contracts no per-module rule can see whole: the WAL's
fsync ordering, deadline propagation down the serve → resilience →
matcher stack, the admission queue's semaphore-token accounting, and the
"no blocking I/O while holding a lock" discipline.  These four
:class:`~repro.analysis.framework.ProgramRule` subclasses check them
over the :class:`~repro.analysis.callgraph.Program` built from every
module in the run:

``blocking-under-lock``
    No call inside a ``with self.<...lock...>:`` region may *transitively*
    reach blocking I/O (``time.sleep``, ``os.fsync``, socket ops, raw
    ``os`` file I/O) along resolved call-graph edges.  A thread asleep
    under a lock starves every sibling; fsync under a lock serializes
    the whole pool behind the disk.
``deadline-propagation``
    A function that accepts a deadline/timeout/budget parameter must
    hand it (or a value derived from it) to every resolved callee that
    accepts one — dropping it silently converts a bounded request into
    an unbounded one.
``resource-leak``
    Sockets, file descriptors, and semaphore tokens must be released on
    every path: a resource bound to a local must be closed or handed
    off, risky calls before the hand-off need a covering ``try``, and a
    semaphore ``acquire`` with no ``release`` anywhere in the function
    is flagged (intentional token consumption takes a justified pragma).
``durability-ordering``
    In ``repro/db/wal.py``: a COMMIT append must be followed by a log
    fsync (the durability point), a page image copied into the inner
    backend must be followed by ``inner.sync()`` (checkpoint
    crash-safety), and a PAGE append sharing a function with a COMMIT
    append needs a sync between them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import DYNAMIC, CallEdge, FunctionInfo, Program
from repro.analysis.dataflow import (
    expr_params,
    find_acquisitions,
    reaching_params,
    release_facts,
)
from repro.analysis.framework import Finding, Module, ProgramRule, register
from repro.analysis.rules_locks import _lock_with_items

# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------

#: External callables that block on I/O or time.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.open",
        "os.read",
        "os.write",
        "os.pread",
        "os.pwrite",
        "os.ftruncate",
        "socket.socket",
        "socket.create_connection",
        "select.select",
    }
)

#: Method names (underscores stripped) that block regardless of receiver:
#: ``self._sleep(...)``, ``sock.recv(...)``, ``conn.sendall(...)``.
BLOCKING_METHODS = frozenset(
    {"sleep", "recv", "recv_into", "sendall", "accept", "connect", "fsync"}
)

#: Modules where blocking under the lock is the documented design.
#: ``repro/db/pager.py``: the BufferPool lock *is* the physical-I/O
#: serialization point (WAL appends, page reads, and the fault-retry
#: backoff sleep all deliberately run under it — see the module
#: docstring and db/wal.py's thread-safety note).
SANCTIONED_BLOCKING_MODULES = frozenset({"repro/db/pager.py"})


def _blocking_method_name(call: ast.Call) -> str | None:
    """The blocking method name a call site hits directly, if any."""
    if isinstance(call.func, ast.Attribute):
        name = call.func.attr.strip("_")
        if name in BLOCKING_METHODS:
            return name
    return None


def _lock_regions(info: FunctionInfo) -> list[tuple[str, int, int]]:
    """``(lock attr, first body line, last line)`` per lock ``with``."""
    regions: list[tuple[str, int, int]] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.With) or not _lock_with_items(node):
            continue
        if not node.body:
            continue
        end = node.end_lineno if node.end_lineno is not None else node.lineno
        attr = "self._lock"
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
                attr = f"self.{expr.attr}"
                break
        regions.append((attr, node.body[0].lineno, end))
    return regions


@register
class BlockingUnderLockRule(ProgramRule):
    """No transitive blocking I/O inside ``with self._lock`` regions."""

    name = "blocking-under-lock"
    description = (
        "calls inside `with self.<lock>:` regions must not transitively "
        "reach blocking I/O (sleep, fsync, socket/file ops)"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        """Seed blocking sinks, propagate reachability, audit lock regions."""
        seeds: set[str] = set(BLOCKING_CALLS)
        for qualname, info in program.functions.items():
            for edge in program.callees(qualname):
                if edge.callee in BLOCKING_CALLS or (
                    edge.callee == DYNAMIC
                    and _blocking_method_name(edge.call) is not None
                ):
                    seeds.add(qualname)
                    break
        witness = program.reaches(seeds)
        for qualname in sorted(program.functions):
            info = program.functions[qualname]
            if info.module.logical_path in SANCTIONED_BLOCKING_MODULES:
                continue
            regions = _lock_regions(info)
            if not regions:
                continue
            for edge in program.callees(qualname):
                region = next(
                    (r for r in regions if r[1] <= edge.line <= r[2]), None
                )
                if region is None:
                    continue
                yield from self._check_edge(info.module, edge, region[0], witness)

    def _check_edge(
        self,
        module: Module,
        edge: CallEdge,
        lock: str,
        witness: dict[str, tuple[str, ...]],
    ) -> Iterator[Finding]:
        method = _blocking_method_name(edge.call)
        if edge.callee == DYNAMIC and method is not None:
            yield from self.emit(
                module,
                edge.call,
                f"blocking call `.{method}(...)` inside `with {lock}:` — "
                f"move the I/O outside the lock",
            )
            return
        if edge.callee in BLOCKING_CALLS:
            yield from self.emit(
                module,
                edge.call,
                f"blocking call {edge.callee}() inside `with {lock}:` — "
                f"move the I/O outside the lock",
            )
            return
        path = witness.get(edge.callee)
        if path is not None:
            chain = " -> ".join(path)
            yield from self.emit(
                module,
                edge.call,
                f"call inside `with {lock}:` transitively reaches blocking "
                f"I/O: {chain}",
            )


# ---------------------------------------------------------------------------
# deadline-propagation
# ---------------------------------------------------------------------------

#: Substrings that mark a parameter as deadline/budget carrying.
FAMILY_MARKERS = ("deadline", "timeout", "budget")


def _is_family(name: str) -> bool:
    """Is ``name`` a deadline/timeout/budget-family parameter name?"""
    lowered = name.lower()
    return any(marker in lowered for marker in FAMILY_MARKERS)


def _family_attr_in(expr: ast.expr) -> bool:
    """Does ``expr`` mention an attribute with a family-marker name?

    Accepts forwarding through configuration (``self.config.drain_budget_s``)
    or object state (``item.deadline``) — the value is still
    deadline-derived even though no parameter name appears.
    """
    return any(
        isinstance(node, ast.Attribute) and _is_family(node.attr)
        for node in ast.walk(expr)
    )


@register
class DeadlinePropagationRule(ProgramRule):
    """Deadline/budget parameters must flow into callees that accept one."""

    name = "deadline-propagation"
    description = (
        "a function taking a deadline/timeout/budget parameter must forward "
        "it to every resolved callee that accepts one"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        """Audit every resolved edge between family-parameter functions."""
        for qualname in sorted(program.functions):
            caller = program.functions[qualname]
            caller_family = [p for p in caller.params if _is_family(p)]
            if not caller_family:
                continue
            reaching = reaching_params(caller.node)
            for edge in program.callees(qualname):
                callee = program.functions.get(edge.callee)
                if callee is None or callee.node.name == "__init__":
                    continue
                callee_family = [p for p in callee.params if _is_family(p)]
                if not callee_family:
                    continue
                if self._forwards(edge.call, caller_family, reaching):
                    continue
                yield from self.emit(
                    caller.module,
                    edge.call,
                    f"{qualname} has {caller_family} but calls "
                    f"{edge.callee} (which accepts {callee_family}) without "
                    f"forwarding any of them — the deadline is dropped here",
                )

    def _forwards(
        self,
        call: ast.Call,
        caller_family: list[str],
        reaching: dict[str, frozenset[str]],
    ) -> bool:
        family_set = frozenset(caller_family)
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        if any(kw.arg is None for kw in call.keywords):
            return True  # **kwargs forwards everything
        for kw in call.keywords:
            if kw.arg is not None and _is_family(kw.arg):
                return True
        for arg in arguments:
            if expr_params(arg, reaching) & family_set:
                return True
            if _family_attr_in(arg):
                return True
        return False


# ---------------------------------------------------------------------------
# resource-leak
# ---------------------------------------------------------------------------

#: Callables whose return value is a leakable OS resource.
ACQUIRE_CALLS = frozenset(
    {"socket.socket", "socket.create_connection", "os.open", "os.dup", "open"}
)

#: Methods whose return value is a leakable OS resource.
ACQUIRE_METHODS = frozenset({"makefile", "accept", "dup"})

#: Receiver-name substrings marking a counting-semaphore token source.
TOKEN_MARKERS = ("sem", "slot", "token", "available", "permit")


def _call_dotted(call: ast.Call) -> str | None:
    """Dotted name of a call's target, if it is a plain name chain."""
    parts: list[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_acquire(call: ast.Call) -> bool:
    """Does this call produce a resource the caller must release?"""
    dotted = _call_dotted(call)
    if dotted in ACQUIRE_CALLS:
        return True
    return (
        isinstance(call.func, ast.Attribute) and call.func.attr in ACQUIRE_METHODS
    )


def _token_receiver(call: ast.Call) -> str | None:
    """Dotted semaphore receiver when ``call`` is ``self.<sem>.acquire``."""
    if not isinstance(call.func, ast.Attribute) or call.func.attr != "acquire":
        return None
    dotted = _call_dotted(call)
    if dotted is None or not dotted.startswith("self."):
        return None
    receiver = dotted.rsplit(".", 1)[0]
    owner = receiver.rsplit(".", 1)[-1].lower()
    if "lock" in owner:
        return None
    if any(marker in owner for marker in TOKEN_MARKERS):
        return receiver
    return None


@register
class ResourceLeakRule(ProgramRule):
    """Sockets, fds, and semaphore tokens are released on every path."""

    name = "resource-leak"
    description = (
        "locally acquired sockets/fds must be released or handed off on all "
        "paths (risky calls need a covering try); semaphore tokens acquired "
        "without any release take a justified pragma"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        """Audit acquisitions and semaphore tokens function by function."""
        for qualname in sorted(program.functions):
            info = program.functions[qualname]
            yield from self._check_acquisitions(info)
            yield from self._check_tokens(info)

    def _check_acquisitions(self, info: FunctionInfo) -> Iterator[Finding]:
        for acq in find_acquisitions(info.node, _is_acquire):
            facts = release_facts(info.node, acq)
            if not facts.released and not facts.escapes:
                yield from self.emit(
                    info.module,
                    acq.call,
                    f"resource {acq.name!r} acquired here is never released "
                    f"or handed off in {info.qualname} — close it in a "
                    f"finally or use a context manager",
                )
            elif facts.unguarded_risk is not None:
                risk_line = facts.unguarded_risk.lineno
                yield from self.emit(
                    info.module,
                    acq.call,
                    f"resource {acq.name!r} may leak on an exception path in "
                    f"{info.qualname}: the call at line {risk_line} can raise "
                    f"before the resource is released or stored — wrap the "
                    f"prologue in try/except and close on failure",
                )

    def _check_tokens(self, info: FunctionInfo) -> Iterator[Finding]:
        acquires: list[tuple[str, ast.Call]] = []
        releases: set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            receiver = _token_receiver(node)
            if receiver is not None:
                acquires.append((receiver, node))
            dotted = _call_dotted(node)
            if (
                dotted is not None
                and dotted.endswith(".release")
                and isinstance(node.func, ast.Attribute)
            ):
                releases.add(dotted.rsplit(".", 1)[0])
        for receiver, call in acquires:
            if receiver in releases:
                continue
            yield from self.emit(
                info.module,
                call,
                f"semaphore token from {receiver}.acquire() is never "
                f"released in {info.qualname} — release it on every path, "
                f"or suppress with a pragma documenting why consuming the "
                f"token is correct",
            )


# ---------------------------------------------------------------------------
# durability-ordering
# ---------------------------------------------------------------------------

#: The module whose append/fsync discipline this rule audits.
WAL_MODULE = "repro/db/wal.py"

#: Calls that fsync the log file itself.
LOG_SYNC_CALLS = frozenset(
    {"self.sync", "self.wal_file.sync", "os.fsync", "os.fdatasync"}
)


def _append_record_kind(call: ast.Call) -> str | None:
    """``"REC_PAGE"``/``"REC_COMMIT"`` when the call appends that record."""
    dotted = _call_dotted(call)
    if dotted not in ("self._append", "_append"):
        return None
    if not call.args:
        return None
    first = call.args[0]
    if isinstance(first, ast.Name) and first.id in ("REC_PAGE", "REC_COMMIT"):
        return first.id
    if isinstance(first, ast.Attribute) and first.attr in (
        "REC_PAGE",
        "REC_COMMIT",
    ):
        return first.attr
    return None


@register
class DurabilityOrderingRule(ProgramRule):
    """WAL appends and fsyncs happen in the crash-safe order.

    The crash sweep (``pytest -m crash``) cannot see what this rule
    checks: ``CrashableWalFile.append`` writes through to the file at
    once, so a simulated crash never loses bytes that were appended but
    not yet fsynced.  A commit path missing its fsync after the COMMIT
    append therefore recovers correctly in every crash-sweep case, and
    only this rule fails it.
    """

    name = "durability-ordering"
    description = (
        "in db/wal.py: COMMIT appends need a following log fsync, inner-"
        "backend page writes need a following inner.sync(), and PAGE->COMMIT "
        "appends in one function need a sync between them"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        """Check source-order append/sync events in every WAL function."""
        for module in program.modules.values():
            if module.logical_path != WAL_MODULE:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(module, node)

    def _check_function(
        self, module: Module, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        pages: list[ast.Call] = []
        commits: list[ast.Call] = []
        log_syncs: list[int] = []
        inner_writes: list[ast.Call] = []
        inner_syncs: list[int] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            kind = _append_record_kind(node)
            if kind == "REC_PAGE":
                pages.append(node)
            elif kind == "REC_COMMIT":
                commits.append(node)
            dotted = _call_dotted(node)
            if dotted in LOG_SYNC_CALLS:
                log_syncs.append(node.lineno)
            elif dotted == "self.inner.write":
                inner_writes.append(node)
            elif dotted == "self.inner.sync":
                inner_syncs.append(node.lineno)
        for commit in commits:
            if not any(line > commit.lineno for line in log_syncs):
                yield from self.emit(
                    module,
                    commit,
                    "COMMIT record appended without a following log fsync — "
                    "the fsync after the COMMIT append is the durability "
                    "point; without it a 'committed' transaction can vanish "
                    "in a crash",
                )
        for write in inner_writes:
            if not any(line > write.lineno for line in inner_syncs):
                yield from self.emit(
                    module,
                    write,
                    "page image written to the inner backend without a "
                    "following inner.sync() — a checkpoint that skips the "
                    "page-file fsync is not crash-safe",
                )
        for page in pages:
            later_commits = [c for c in commits if c.lineno > page.lineno]
            for commit in later_commits:
                if not any(
                    page.lineno < line < commit.lineno for line in log_syncs
                ):
                    yield from self.emit(
                        module,
                        commit,
                        f"COMMIT appended at line {commit.lineno} after the "
                        f"PAGE append at line {page.lineno} with no fsync "
                        f"between them — the page image may not be durable "
                        f"when the commit record claims it is",
                    )
                break


__all__ = [
    "ACQUIRE_CALLS",
    "ACQUIRE_METHODS",
    "BLOCKING_CALLS",
    "BLOCKING_METHODS",
    "BlockingUnderLockRule",
    "DeadlinePropagationRule",
    "DurabilityOrderingRule",
    "FAMILY_MARKERS",
    "LOG_SYNC_CALLS",
    "ResourceLeakRule",
    "SANCTIONED_BLOCKING_MODULES",
    "TOKEN_MARKERS",
    "WAL_MODULE",
]
