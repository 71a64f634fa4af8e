"""ROP015: RNG objects must not cross process or checkpoint boundaries.

A ``numpy.random.Generator`` (or ``random.Random``) handed to an
executor submission gets pickled into the worker — every worker then
replays the *same* stream, or worse, the stream depends on submission
order. A generator dropped into a checkpoint payload is not
JSON-serializable and, even via state dicts, couples resume behaviour
to incidental draw history. The sanctioned pattern is value-level:
pass an integer seed across the boundary and construct the generator
on the far side with ``repro.util.rng.derive_rng`` or
``SeedSequenceFactory``. Explicit state extraction
(``rng.bit_generator.state``) is attribute access, not a bare
generator, and passes untouched.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules.base import ModuleContext, Rule, dotted_name, register

#: Callable tails whose result is an RNG object.
_RNG_CONSTRUCTOR_TAILS = frozenset(
    {"derive_rng", "default_rng", "Generator", "RandomState"}
)

#: Canonical names whose result is an RNG object.
_RNG_CONSTRUCTOR_CANONICAL = frozenset(
    {"random.Random", "numpy.random.RandomState"}
)

#: Annotation tails marking a parameter as an RNG object.
_RNG_ANNOTATION_TAILS = frozenset({"Generator", "RandomState", "Random"})

_EXECUTOR_NAME_PARTS = ("executor", "session", "pool", "engine")
_CHECKPOINT_NAME_PARTS = ("checkpoint",)
_SUBMIT_METHODS = frozenset({"map", "submit"})


def _tail(dotted: str | None) -> str | None:
    return dotted.rsplit(".", 1)[-1] if dotted else None


def _receiver_tail_matches(node: ast.expr, parts: tuple[str, ...]) -> bool:
    dotted = dotted_name(node)
    if dotted is None:
        return False
    tail = dotted.split(".")[-1].lower()
    return any(part in tail for part in parts)


def _annotation_tail(annotation: ast.expr | None) -> str | None:
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].strip("\"'")
    return _tail(dotted_name(node))


@register
class SeedDisciplineViolation(Rule):
    """Flag bare RNG objects at executor/checkpoint boundaries."""

    rule_id: ClassVar[str] = "ROP015"
    name: ClassVar[str] = "rng-across-boundary"
    description: ClassVar[str] = (
        "RNG object crosses a process or checkpoint boundary instead "
        "of a derived seed."
    )
    hint: ClassVar[str] = (
        "Pass an integer seed across the boundary and rebuild the "
        "generator with repro.util.rng.derive_rng(seed) or "
        "SeedSequenceFactory(seed).generator(index) on the other side; "
        "checkpoint rng.bit_generator.state, never the generator "
        "itself."
    )
    rationale: ClassVar[str] = (
        "Pickling a live Generator across a process boundary forks "
        "its stream: parent and worker continue from the same state "
        "and draw identical 'random' numbers, correlating tasks that "
        "must be independent. Sending a derived integer seed gives "
        "each side its own stream."
    )
    example_bad: ClassVar[str] = (
        "pool.submit(run_case, case, rng)"
    )
    example_good: ClassVar[str] = (
        "pool.submit(run_case, case, base_seed, case.index)\n"
        "# worker: rng = SeedSequenceFactory(seed).generator(index)"
    )
    default_severity: ClassVar[Severity] = Severity.ERROR

    def __init__(self, context: ModuleContext) -> None:
        super().__init__(context)
        self._rng_names: set[str] = set()

    def check(self) -> list[Finding]:
        self._collect_rng_names()
        if self._rng_names:
            self.visit(self.context.tree)
        return self.findings

    # -- collection ----------------------------------------------------
    def _is_rng_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        canonical = self.context.imports.resolve_node(node.func)
        if canonical in _RNG_CONSTRUCTOR_CANONICAL:
            return True
        if _tail(canonical) in _RNG_CONSTRUCTOR_TAILS:
            return True
        # SeedSequenceFactory.generator(...) — factory-shaped receiver.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "generator"
        ):
            return True
        return False

    def _collect_rng_names(self) -> None:
        for node in ast.walk(self.context.tree):
            if isinstance(node, ast.Assign) and self._is_rng_call(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._rng_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and (
                    _annotation_tail(node.annotation)
                    in _RNG_ANNOTATION_TAILS
                    or (
                        node.value is not None
                        and self._is_rng_call(node.value)
                    )
                ):
                    self._rng_names.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if (
                        _annotation_tail(arg.annotation)
                        in _RNG_ANNOTATION_TAILS
                    ):
                        self._rng_names.add(arg.arg)

    # -- boundary scanning ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _SUBMIT_METHODS and _receiver_tail_matches(
                node.func.value, _EXECUTOR_NAME_PARTS
            ):
                self._scan_boundary(node, "an executor submission", True)
            elif attr == "save" and _receiver_tail_matches(
                node.func.value, _CHECKPOINT_NAME_PARTS
            ):
                self._scan_boundary(node, "a checkpoint save", False)
        self.generic_visit(node)

    def _scan_boundary(
        self, node: ast.Call, boundary: str, skip_callable: bool
    ) -> None:
        args = list(node.args)
        if skip_callable and args:
            head, args = args[0], args[1:]
            # functools.partial(worker, rng, ...) bakes the generator
            # into the pickled callable — same violation.
            if isinstance(head, ast.Call) and _tail(
                self.context.imports.resolve_node(head.func)
            ) == "partial":
                args = [*head.args[1:], *args]
                args.extend(kw.value for kw in head.keywords)
        for value in args:
            self._scan_value(value, boundary)
        for keyword in node.keywords:
            self._scan_value(keyword.value, boundary)

    def _scan_value(self, node: ast.expr, boundary: str) -> None:
        """Look for bare RNG names in value position.

        Deliberately shallow: attribute access
        (``rng.bit_generator.state``) and arbitrary calls are
        sanctioned transformations, so recursion only follows display
        containers and iterable unpacking.
        """
        if isinstance(node, ast.Name):
            if node.id in self._rng_names:
                self.report(
                    node,
                    f"RNG object '{node.id}' crosses {boundary}; "
                    f"pass a derived integer seed instead.",
                )
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._scan_value(element, boundary)
        elif isinstance(node, ast.Starred):
            self._scan_value(node.value, boundary)
        elif isinstance(node, ast.Dict):
            for value in node.values:
                self._scan_value(value, boundary)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            self._scan_value(node.elt, boundary)
