"""ROP012 — failures are handled or propagated, never silently eaten.

The resilience layer (:mod:`repro.engine.resilience`) is built on a
discipline this rule enforces statically: every failure is either
*recovered from* (retried under a bounded budget, degraded with a
counter bumped) or *propagated* — it is never discarded. Three shapes
violate that discipline:

* ``except:`` with no exception type catches everything — including
  ``KeyboardInterrupt`` and ``SystemExit`` — so an operator cannot even
  stop a run that is looping on a swallowed error;
* ``except Exception:`` (or ``BaseException``) whose body is only
  ``pass``/``...`` makes any failure look like success with no record
  that anything happened;
* a ``while True:`` loop that catches an exception and ``continue``\\ s
  retries forever — a persistent failure becomes a busy hang instead of
  an error, which is exactly the stuck-worker state the resilient
  executor exists to kill.

Narrow handlers with an empty body (``except OSError: pass`` around
best-effort cleanup) stay legal: the author named the precise failure
they are choosing to ignore. Broad handlers that *do something* (log,
count, classify, re-raise) also stay legal — breadth is fine when the
failure is recorded or routed, only silent breadth is not.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.rules.base import ModuleContext, Rule, register

#: Exception names too broad to swallow silently.
_BROAD = {"Exception", "BaseException"}


def _caught_names(node: ast.expr) -> set[str]:
    """The exception names an ``except`` clause catches."""
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names: set[str] = set()
    for entry in nodes:
        if isinstance(entry, ast.Name):
            names.add(entry.id)
        elif isinstance(entry, ast.Attribute):
            names.add(entry.attr)
    return names


def _is_noop(body: list[ast.stmt]) -> bool:
    """Whether a handler body discards the failure without a trace."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or bare `...`
        return False
    return True


def _contains(node: ast.AST, kinds: tuple[type, ...]) -> bool:
    return any(isinstance(child, kinds) for child in ast.walk(node))


@register
class SwallowedFailureRule(Rule):
    """Flags bare excepts, silent broad excepts, and unbounded retries."""

    rule_id: ClassVar[str] = "ROP012"
    name: ClassVar[str] = "swallowed-failure"
    description: ClassVar[str] = (
        "failures must be recovered or propagated: no bare except, no "
        "silent except-Exception, no retry loops without a bound."
    )
    hint: ClassVar[str] = (
        "catch the narrowest exception recovery actually handles, record "
        "or re-raise anything broader, and give retry loops a bounded "
        "budget that ends in an explicit raise"
    )
    rationale: ClassVar[str] = (
        "An except that swallows everything converts crashes into "
        "silently wrong results: a failed case looks like an empty "
        "result, and the fault-tolerance layer cannot retry what it "
        "never saw. Narrow handlers that record or re-raise keep "
        "failures observable."
    )
    example_bad: ClassVar[str] = (
        "try:\n"
        "    result = run_case(case)\n"
        "except Exception:\n"
        "    pass"
    )
    example_good: ClassVar[str] = (
        "try:\n"
        "    result = run_case(case)\n"
        "except CaseTimeout as error:\n"
        "    instrumentation.record_failure(case, error)\n"
        "    raise"
    )

    @classmethod
    def applies_to(cls, context: ModuleContext) -> bool:
        name = context.path.name
        return not (name.startswith("test_") or name == "conftest.py")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            if not _contains(node, (ast.Raise,)):
                self.report(
                    node,
                    "bare except swallows every failure, including "
                    "KeyboardInterrupt and SystemExit",
                )
        elif _caught_names(node.type) & _BROAD and _is_noop(node.body):
            caught = " | ".join(sorted(_caught_names(node.type) & _BROAD))
            self.report(
                node,
                f"except {caught} with an empty body makes any failure "
                "look like success",
            )
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        if isinstance(node.test, ast.Constant) and node.test.value is True:
            for handler in self._handlers_under(node):
                if _contains(handler, (ast.Continue,)) and not _contains(
                    handler, (ast.Raise, ast.Break, ast.Return)
                ):
                    self.report(
                        handler,
                        "retrying forever inside `while True` turns a "
                        "persistent failure into a hang; bound the retries",
                    )
        self.generic_visit(node)

    @staticmethod
    def _handlers_under(loop: ast.While) -> list[ast.ExceptHandler]:
        """Except handlers whose ``continue`` re-enters *this* loop.

        Nested function bodies and nested loops are excluded — a
        ``continue`` there targets a different loop (or is illegal), so
        only handlers of ``try`` statements directly in this loop's
        statement tree count.
        """
        handlers: list[ast.ExceptHandler] = []
        stack: list[ast.stmt] = list(loop.body)
        while stack:
            statement = stack.pop()
            if isinstance(
                statement,
                (
                    ast.While,
                    ast.For,
                    ast.AsyncFor,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                continue
            if isinstance(statement, ast.Try):
                handlers.extend(statement.handlers)
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
        return handlers
