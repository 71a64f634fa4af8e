"""Span tracing for the benchmark's traced run.

:meth:`Tracer.installed` wraps the public entry points of each planner
layer (:data:`TARGETS`) in timing shims for the length of one ``with``
block and restores the original objects on exit. Every call records a
:class:`Span` in memory: its layer name, start, end, parent span and
plan id. The benchmark opens one root span per ``ROpus.plan`` call, so
a span's plan id is its root's.

A span's self time is its duration minus the time its child spans
cover. Summed over every span of a plan, self times equal the root's
duration; the root's own self time is the traced wall that no layer
span covers (``other_s``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

#: The root span the benchmark opens around each ``ROpus.plan`` call.
ROOT = "plan"

#: ``(layer, module, attribute)`` of every wrapped entry point. An
#: attribute ``Class.method`` is patched on the class; a plain function
#: is patched in every loaded ``repro`` module that binds it, because
#: callers import it by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("translation", "repro.core.translation", "QoSTranslator.translate_items"),
    ("translation", "repro.core.translation", "QoSTranslator.translate"),
    ("greedy.ffd", "repro.placement.greedy", "first_fit_decreasing"),
    ("greedy.bfd", "repro.placement.greedy", "best_fit_decreasing"),
    ("correlation.seed", "repro.placement.correlation", "correlation_aware_seed"),
    ("genetic", "repro.placement.genetic", "GeneticPlacementSearch.run"),
    ("evaluation", "repro.placement.evaluation", "PlacementEvaluator.evaluate_group"),
    ("evaluation", "repro.placement.evaluation", "PlacementEvaluator.evaluate_groups"),
    ("evaluation", "repro.placement.evaluation", "evaluate_group_worker"),
    ("evaluation", "repro.placement.evaluation", "evaluate_groups_worker"),
    (
        "consolidation",
        "repro.placement.consolidation",
        "Consolidator.consolidate_with_evaluator",
    ),
    ("failure", "repro.placement.failure", "FailurePlanner.plan"),
    ("failure", "repro.placement.failure", "FailurePlanner.plan_scope"),
    ("failure", "repro.placement.failure", "FailurePlanner.plan_degraded"),
    ("failure", "repro.placement.failure", "FailurePlanner.spare_sizing_curve"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    plan: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; serial callers only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, plan: Optional[int] = None):
        """Record one span around the ``with`` body."""
        parent = self._open[-1] if self._open else None
        if plan is None:
            plan = self.spans[parent].plan if parent is not None else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, plan))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, layer: str, function):
        """``function`` recording a ``layer`` span per call.

        The body repeats :meth:`span` inline: evaluation calls number in
        the tens of thousands per plan, and a generator-based context
        manager would double the tracing overhead.
        """
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            plan = spans[parent].plan if parent is not None else -1
            span = Span(layer, 0.0, 0.0, parent, plan)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = clock()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the ``with`` body, then restore them all."""
        try:
            for layer, module_name, attribute in TARGETS:
                self._install(layer, module_name, attribute)
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                setattr(owner, name, original)

    def _install(self, layer: str, module_name: str, attribute: str) -> None:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, name = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[name]
            if not callable(original):
                raise TypeError(f"{attribute} is not a plain method")
            self._patch(owner, name, original, self.wrap(layer, original))
            return
        original = getattr(module, attribute)
        traced = self.wrap(layer, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro":
                continue
            if getattr(loaded, attribute, None) is original:
                self._patch(loaded, attribute, original, traced)

    def _patch(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Per-plan layer metrics from one traced run's spans.

    Times are means per plan (totals divided by the number of root
    spans), so ``other_s``, ``translation.busy_s`` and every
    ``*.self_s`` add up to ``traced_plan_s``. ``*.total_s`` are
    inclusive times (outermost spans of the layer, children included);
    they overlap across layers and give each layer's share of the plan.
    """
    selfs = self_times(spans)
    plans = max(1, sum(1 for span in spans if span.name == ROOT))
    own = dict.fromkeys((ROOT, *LAYERS), 0.0)
    inclusive = dict.fromkeys((ROOT, *LAYERS), 0.0)
    calls = dict.fromkeys((ROOT, *LAYERS), 0)
    consolidation: list[float] = []
    cases: list[float] = []
    for span, self_time in zip(spans, selfs):
        own[span.name] += self_time
        parent = spans[span.parent].name if span.parent is not None else None
        if parent != span.name:
            inclusive[span.name] += span.duration
            calls[span.name] += 1
        if span.name == "consolidation":
            consolidation.append(span.duration)
            if parent == "failure":
                cases.append(span.duration)
    seeds = ("greedy.ffd", "greedy.bfd", "correlation.seed")
    metrics = {
        "traced_plan_s": inclusive[ROOT] / plans,
        "other_s": own[ROOT] / plans,
        "translation.busy_s": own["translation"] / plans,
        "translation.calls": calls["translation"] / plans,
        "greedy.ffd.self_s": own["greedy.ffd"] / plans,
        "greedy.bfd.self_s": own["greedy.bfd"] / plans,
        "correlation.seed.self_s": own["correlation.seed"] / plans,
        "greedy.calls": sum(calls[layer] for layer in seeds) / plans,
        "greedy.ffd.total_s": inclusive["greedy.ffd"] / plans,
        "greedy.bfd.total_s": inclusive["greedy.bfd"] / plans,
        "correlation.seed.total_s": inclusive["correlation.seed"] / plans,
        "genetic.self_s": own["genetic"] / plans,
        "genetic.total_s": inclusive["genetic"] / plans,
        "evaluation.self_s": own["evaluation"] / plans,
        "evaluation.calls": calls["evaluation"] / plans,
        "consolidation.self_s": own["consolidation"] / plans,
        "consolidation.calls": len(consolidation) / plans,
        "consolidation.call_s.p50": _median(consolidation),
        "failure.self_s": own["failure"] / plans,
        "failure.total_s": inclusive["failure"] / plans,
        "failure.cases": len(cases) / plans,
        "failure.case_s.p50": _median(cases),
    }
    metrics.update(_p90("consolidation.call_s", consolidation))
    metrics.update(_p90("failure.case_s", cases))
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(name: str, values: list[float]) -> dict[str, float]:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    ordered = sorted(values)
    index = int(0.9 * len(ordered))
    if len(ordered) - index - 1 < 10:
        return {}
    return {f"{name}.p90": ordered[index]}


def write_chrome_trace(spans: list[Span], path) -> None:
    """Write the spans as Chrome trace-event JSON (``ph: "X"`` events).

    Perfetto and ``chrome://tracing`` open the file; each event's
    ``args`` carry its span id, parent span id and plan id.
    """
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span": index, "parent": span.parent, "plan": span.plan},
        }
        for index, span in enumerate(spans)
    ]
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
