"""Lock-discipline rule: guarded attributes stay under their lock.

The concurrency layer (PR 1–2) follows one convention: a class that owns
a ``self._lock`` (or ``self._store_lock``, …) mutates its shared state
only inside ``with self.<lock>:`` blocks.  This rule makes the
convention checkable:

1. **Infer the guarded set.**  For each class, any ``self.X`` that is
   *assigned* inside a ``with self.<lock>:`` block — attribute
   assignment, augmented assignment, subscript store (``self.X[k] = v``),
   or a known mutating method call (``self.X.append(...)``) — is a
   guarded attribute.  ``__init__`` is construction-time and exempt.
2. **Check every access.**  Outside ``__init__``, any read or write of a
   guarded attribute that is not inside a ``with self.<lock>:`` block is
   a finding.

Helper methods whose contract is "caller holds the lock" (e.g.
``BufferPool._install``) carry a ``# reprolint: disable=lock-discipline``
pragma on their ``def`` line; the dynamic side of that contract is
enforced at test time by :func:`repro.analysis.debuglock.assert_owned`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, Module, Rule, register

#: method names treated as mutations of their receiver
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def _self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_name(attr: str) -> bool:
    return "lock" in attr.lower()


def _lock_with_items(node: ast.With) -> bool:
    """Does this ``with`` acquire a ``self.<...lock...>`` attribute?"""
    for item in node.items:
        attr = _self_attr(item.context_expr)
        if attr is not None and _is_lock_name(attr):
            return True
    return False


class _AccessCollector(ast.NodeVisitor):
    """Record ``self.X`` stores and loads, tagged with lock context."""

    def __init__(self) -> None:
        self.depth = 0
        # (attr, node, under_lock, is_store)
        self.accesses: list[tuple[str, ast.AST, bool, bool]] = []

    def visit_With(self, node: ast.With) -> None:
        if _lock_with_items(node):
            for item in node.items:
                self.visit(item)
            self.depth += 1
            for statement in node.body:
                self.visit(statement)
            self.depth -= 1
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None:
            is_store = isinstance(node.ctx, (ast.Store, ast.Del))
            self.accesses.append((attr, node, self.depth > 0, is_store))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # self.X[k] = v stores *into* X even though self.X itself is a Load
        attr = _self_attr(node.value)
        if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.accesses.append((attr, node, self.depth > 0, True))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            receiver = _self_attr(node.func.value)
            if receiver is not None and node.func.attr in MUTATOR_METHODS:
                self.accesses.append((receiver, node, self.depth > 0, True))
        self.generic_visit(node)


@register
class LockDisciplineRule(Rule):
    """Attributes assigned under ``self._lock`` are only touched under it."""

    name = "lock-discipline"
    description = (
        "attributes mutated inside `with self._lock` must never be read or "
        "written outside it (outside __init__)"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        """Infer each class's guarded attributes and audit every access."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: Module, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            item
            for item in class_node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        collected: list[tuple[ast.AST, _AccessCollector]] = []
        guarded: set[str] = set()
        for method in methods:
            collector = _AccessCollector()
            for statement in method.body:
                collector.visit(statement)
            if method.name != "__init__":
                for attr, _, under_lock, is_store in collector.accesses:
                    if under_lock and is_store and not _is_lock_name(attr):
                        guarded.add(attr)
                collected.append((method, collector))
        if not guarded:
            return
        for method, collector in collected:
            reported: set[tuple[str, int]] = set()
            for attr, node, under_lock, _ in collector.accesses:
                if attr not in guarded or under_lock:
                    continue
                line = getattr(node, "lineno", 1)
                if (attr, line) in reported:
                    continue
                reported.add((attr, line))
                yield from self.emit(
                    module,
                    node,
                    f"{class_node.name}.{attr} is lock-guarded (mutated under "
                    f"a `with self._lock` block) but accessed without the "
                    f"lock in {method.name}()",
                )
