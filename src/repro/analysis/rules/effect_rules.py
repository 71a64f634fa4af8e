"""Project-scope determinism rules built on the effect engine.

These rules consume :class:`repro.analysis.effects.ProjectContext`
(the whole-project function index plus inferred effect summaries)
instead of a single module, so they can see *through* call chains:
a worker function that calls a helper that calls ``random.random()``
is just as flagged as one that draws directly.

The imports from :mod:`repro.analysis.effects` are deliberately
deferred into the method bodies — rule modules are imported by
``repro.analysis.rules.__init__`` while the effects package may still
be mid-import (it imports :mod:`repro.analysis.rules.base` for the
ImportMap), and a module-level import here would complete the cycle.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules.base import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.effects.lattice import Origin
    from repro.analysis.effects.project import (
        EffectProject,
        FunctionInfo,
        SaveSite,
    )


def _origin_note(origin: "Origin | None") -> str:
    """Cite an effect's primitive site without the line number.

    Finding fingerprints are ``(rule, path, message)`` so baselines
    survive unrelated edits; embedding the line would defeat that.
    """
    if origin is None:
        return ""
    detail = getattr(origin, "detail", "")
    path = getattr(origin, "path", "")
    return f" ({detail} in {path})" if detail else ""


@register
class TransitivelyImpureSubmission(ProjectRule):
    """ROP013: impure callables must not cross the executor boundary.

    A work unit submitted to ``Executor.map``/``submit`` runs in a
    worker process; if it (or anything it transitively calls) draws
    ambient RNG, reads the wall clock, or mutates module globals, then
    serial and parallel runs of the same plan diverge — precisely the
    failure mode the engine's hash-parity tests exist to catch, found
    here before the code ever runs.
    """

    rule_id: ClassVar[str] = "ROP013"
    name: ClassVar[str] = "impure-task-submission"
    description: ClassVar[str] = (
        "Transitively impure callable (ambient RNG, wall clock, or "
        "global mutation) submitted to an executor."
    )
    hint: ClassVar[str] = (
        "Thread determinism through arguments: derive a per-task "
        "generator with repro.util.rng.derive_rng(seed) or "
        "SeedSequenceFactory, take timestamps in the driver, and pass "
        "state explicitly instead of mutating module globals from "
        "workers."
    )
    rationale: ClassVar[str] = (
        "The impurity may live three calls below the submitted "
        "function, where no module-scope rule can see it; the effect "
        "fixpoint propagates it to the submission site, which is the "
        "one place the fix (threading seeds and clocks through "
        "arguments) must be applied."
    )
    example_bad: ClassVar[str] = (
        "def run_case(case):\n"
        "    return simulate(case)  # simulate() uses random.random\n"
        "pool.submit(run_case, case)"
    )
    example_good: ClassVar[str] = (
        "def run_case(case, seed, index):\n"
        "    rng = SeedSequenceFactory(seed).generator(index)\n"
        "    return simulate(case, rng)\n"
        "pool.submit(run_case, case, base_seed, i)"
    )
    default_severity: ClassVar[Severity] = Severity.ERROR

    def check(self) -> list[Finding]:
        from repro.analysis.effects.intrinsics import KNOWN_EFFECTS
        from repro.analysis.effects.lattice import TASK_UNSAFE

        effects_project = self.project.effects
        for info in effects_project.functions.values():
            for site in info.submissions:
                if site.work_target is None:
                    continue
                override = KNOWN_EFFECTS.get(site.work_target)
                if override is not None:
                    unsafe = override.exported & TASK_UNSAFE
                    summary = None
                else:
                    summary = effects_project.summaries.get(
                        site.work_target
                    )
                    if summary is None:
                        continue
                    unsafe = summary.effects & TASK_UNSAFE
                if not unsafe:
                    continue
                names = ", ".join(sorted(e.value for e in unsafe))
                note = ""
                if summary is not None:
                    first = min(unsafe, key=lambda e: e.value)
                    note = _origin_note(summary.origin(first))
                self.report_at(
                    path=info.display_path,
                    line=site.line,
                    column=site.col + 1,
                    message=(
                        f"'{site.work_repr}' is submitted to an "
                        f"executor but is transitively impure: "
                        f"{names}{note}."
                    ),
                )
        return self.findings


@register
class NondetOrderIntoDecision(ProjectRule):
    """ROP014: nondeterministic iteration order feeding decisions.

    Iterating a ``set``/``frozenset`` or an unsorted directory listing
    is harmless in isolation — the order only matters once it can
    influence a *decision*: a placement outcome, a checkpoint payload,
    or a hash input. The rule therefore fires on a nondeterministic
    iteration site only when the surrounding function transitively
    reaches such a sink (or lives in the placement package, whose
    entire output is a decision).
    """

    rule_id: ClassVar[str] = "ROP014"
    name: ClassVar[str] = "nondet-order-into-decision"
    description: ClassVar[str] = (
        "Nondeterministic iteration order (set iteration, unsorted "
        "directory listing) flows into a placement decision, "
        "checkpoint payload, or hash input."
    )
    hint: ClassVar[str] = (
        "Materialize a stable order first: sorted(the_set), "
        "sorted(os.listdir(...)), or keep the data in an "
        "insertion-ordered list/dict from the start."
    )
    rationale: ClassVar[str] = (
        "Set iteration order varies with hash seeding and insertion "
        "history, so a greedy pass that walks a set picks different "
        "winners run to run — same seed, different placement plan. "
        "Decisions, checkpoints, and hashes must consume a "
        "materialized, sorted order."
    )
    example_bad: ClassVar[str] = (
        "for app in pending_apps:  # a set\n"
        "    assign(app, best_node(app))"
    )
    example_good: ClassVar[str] = (
        "for app in sorted(pending_apps, key=lambda a: a.name):\n"
        "    assign(app, best_node(app))"
    )
    default_severity: ClassVar[Severity] = Severity.ERROR

    #: Module prefixes whose results are decisions by construction.
    _DECISION_PREFIXES: ClassVar[tuple[str, ...]] = ("repro.placement.",)

    def _sink_phrase(
        self, info: "FunctionInfo", kinds: frozenset[str]
    ) -> str:
        phrases: list[str] = []
        if any(
            info.module.startswith(prefix)
            for prefix in self._DECISION_PREFIXES
        ):
            phrases.append("placement decisions")
        if "checkpoint" in kinds:
            phrases.append("checkpoint payloads")
        if "hash" in kinds:
            phrases.append("hash inputs")
        return " and ".join(phrases)

    def check(self) -> list[Finding]:
        from repro.analysis.effects.lattice import Effect

        effects_project = self.project.effects
        for qualified, info in effects_project.functions.items():
            kinds = effects_project.reaches_sink.get(
                qualified, frozenset()
            )
            phrase = self._sink_phrase(info, kinds)
            if not phrase:
                continue
            for effect, origin in info.direct_sites:
                if effect is not Effect.NONDET_ITERATION:
                    continue
                self.report_at(
                    path=info.display_path,
                    line=origin.line,
                    column=1,
                    message=(
                        f"{origin.detail} in '{info.short_name}' "
                        f"flows into {phrase}; the order is not "
                        f"reproducible across runs."
                    ),
                )
        return self.findings


@register
class UnstableCheckpointPayload(ProjectRule):
    """ROP016: checkpoint payloads must round-trip bit-stably.

    ``Checkpointer.save`` serializes with ``json.dumps(sort_keys=...)``
    and resume-equivalence depends on the reloaded payload being
    byte-identical to what a fresh run would produce. Sets (order- and
    JSON-unstable), wall-clock timestamps, ambient RNG draws, and NaN
    (``nan != nan`` breaks the fingerprint round-trip) inside a payload
    all violate that contract.
    """

    rule_id: ClassVar[str] = "ROP016"
    name: ClassVar[str] = "unstable-checkpoint-payload"
    description: ClassVar[str] = (
        "Checkpoint payload contains a value that does not round-trip "
        "bit-stably through JSON (set, wall-clock timestamp, ambient "
        "RNG draw, or NaN)."
    )
    hint: ClassVar[str] = (
        "Checkpoint only stable, replayable values: sorted lists "
        "instead of sets, explicit seeds or bit_generator.state "
        "instead of fresh draws, and no timestamps inside the payload "
        "(log them outside the checkpoint instead)."
    )
    rationale: ClassVar[str] = (
        "Resume correctness depends on the checkpoint meaning the "
        "same thing when read back: a set loses its order, a "
        "timestamp never matches, and a fresh RNG draw differs every "
        "write — each one makes resumed runs diverge from "
        "uninterrupted ones."
    )
    example_bad: ClassVar[str] = (
        "save_checkpoint({'done': done_set,\n"
        "                 'at': time.time()})"
    )
    example_good: ClassVar[str] = (
        "save_checkpoint({'done': sorted(done_set)})\n"
        "log.info('checkpoint at %s', time.time())"
    )
    default_severity: ClassVar[Severity] = Severity.ERROR

    def check(self) -> list[Finding]:
        effects_project = self.project.effects
        for info in effects_project.functions.values():
            for site in info.saves:
                if site.payload is None:
                    continue
                for expr_info, expr in self._payload_exprs(
                    effects_project, info, site.payload
                ):
                    self._scan_payload(expr_info, site, expr)
        return self.findings

    def _payload_exprs(
        self,
        effects_project: "EffectProject",
        info: "FunctionInfo",
        payload: ast.expr,
    ) -> list[tuple["FunctionInfo", ast.expr]]:
        """Expressions that (may) build the saved payload.

        Follows one level of indirection: a local name back to its
        assignments, and a call to a project function into that
        function's ``return`` expressions. Deeper chains fall back to
        scanning nothing — optimistic, like the rest of the engine.
        """
        if isinstance(payload, ast.Name):
            exprs: list[tuple["FunctionInfo", ast.expr]] = []
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == payload.id
                        ):
                            exprs.append((info, node.value))
                elif (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == payload.id
                    and node.value is not None
                ):
                    exprs.append((info, node.value))
            resolved: list[tuple["FunctionInfo", ast.expr]] = []
            for owner, expr in exprs:
                resolved.extend(
                    self._follow_call(effects_project, owner, expr)
                )
            return resolved
        return self._follow_call(effects_project, info, payload)

    def _follow_call(
        self,
        effects_project: "EffectProject",
        info: "FunctionInfo",
        expr: ast.expr,
    ) -> list[tuple["FunctionInfo", ast.expr]]:
        if not isinstance(expr, ast.Call):
            return [(info, expr)]
        for site in info.calls:
            if site.node is not expr or site.kind != "name":
                continue
            target = site.target
            if target is None:
                break
            callee = effects_project.functions.get(target)
            if callee is None:
                break
            returns = [
                (callee, node.value)
                for node in ast.walk(callee.node)
                if isinstance(node, ast.Return) and node.value is not None
            ]
            if returns:
                return returns
            break
        return [(info, expr)]

    #: Consumers that impose a stable order (or reduce to a scalar),
    #: sanctioning whatever they wrap.
    _SANCTIONING_CALLS: ClassVar[frozenset[str]] = frozenset(
        {"sorted", "min", "max", "sum", "len"}
    )

    def _scan_payload(
        self, info: "FunctionInfo", site: "SaveSite", expr: ast.expr
    ) -> None:
        from repro.analysis.effects.intrinsics import (
            WALL_CLOCK_CALLS,
            external_effects,
        )
        from repro.analysis.effects.lattice import Effect

        imports = info.context.imports
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Set, ast.SetComp)):
                self._report_payload(
                    info,
                    site,
                    node,
                    "a set value (iteration order and JSON encoding "
                    "are both unstable)",
                )
                continue
            if isinstance(node, ast.Call):
                callee = imports.resolve_node(node.func)
                if callee in self._SANCTIONING_CALLS:
                    continue  # sorted(...)/len(...) stabilize contents
                if callee in {"set", "frozenset"}:
                    self._report_payload(
                        info, site, node, "a set value"
                    )
                    continue
                if (
                    callee == "float"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and str(node.args[0].value).lower()
                    in {"nan", "inf", "-inf"}
                ):
                    self._report_payload(
                        info,
                        site,
                        node,
                        f"float({node.args[0].value!r}) (not "
                        "JSON-round-trippable)",
                    )
                    continue
                canonical = imports.resolve_imported(node.func)
                if canonical is not None:
                    if canonical in WALL_CLOCK_CALLS:
                        self._report_payload(
                            info,
                            site,
                            node,
                            f"a wall-clock timestamp "
                            f"({canonical}())",
                        )
                        continue
                    effects = external_effects(canonical, node)
                    if Effect.AMBIENT_RNG in effects:
                        self._report_payload(
                            info,
                            site,
                            node,
                            f"an ambient RNG draw ({canonical}())",
                        )
                        continue
            stack.extend(ast.iter_child_nodes(node))

    def _report_payload(
        self,
        info: "FunctionInfo",
        site: "SaveSite",
        node: ast.AST,
        what: str,
    ) -> None:
        self.report_at(
            path=info.display_path,
            line=getattr(node, "lineno", site.line),
            column=getattr(node, "col_offset", site.col) + 1,
            message=(
                f"checkpoint payload saved in '{info.short_name}' "
                f"contains {what}; resume-equivalence requires "
                f"bit-stable JSON round-trips."
            ),
        )
