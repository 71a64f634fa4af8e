"""Unit knowledge the interpreter seeds its states from.

Three sources, in decreasing order of authority:

* **Annotations** — parameters, returns, and dataclass fields marked
  with the :mod:`repro.units` aliases. Resolved syntactically through
  the module's :class:`~repro.analysis.rules.base.ImportMap` (the
  analysis never imports the code it checks).
* **Validation helpers** — a call to ``require_fraction(x, ...)``
  proves ``x`` is a ``Fraction01`` on every path past it
  (:data:`repro.units.VALIDATOR_UNITS` ties helper to unit);
  ``require_positive``/``require_non_negative`` refine the interval
  while preserving whatever unit is already known.
* **Known signatures** — the unit contracts of the repro core
  functions, so cross-module calls are checked even though the
  analysis is intraprocedural. ``tests/analysis/test_dataflow.py``
  asserts this table agrees with the live annotations, so it cannot
  silently drift.

Plus one *convention*: attribute names that spell a paper symbol
(``u_low``, ``theta``, ``m_degr_percent``, ...) carry that symbol's
unit wherever they are read — ``qos.m_degr_percent`` is a ``Percent``
no matter what object ``qos`` is. The names are specific enough that
a colliding non-QoS attribute would be a naming bug in its own right.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.rules.base import ImportMap
from repro.units import Unit, unit_for_annotation

#: Canonical names of the repro.units markers, for annotation checks.
_UNITS_MODULE = "repro.units"


@dataclass(frozen=True)
class Signature:
    """The unit contract of one callable."""

    params: tuple[tuple[str, str | None], ...]  # (name, unit name | None)
    returns: str | None = None

    def param_unit(self, index: int, keyword: str | None) -> Unit | None:
        if keyword is not None:
            for name, unit_name in self.params:
                if name == keyword:
                    return _unit(unit_name)
            return None
        if 0 <= index < len(self.params):
            return _unit(self.params[index][1])
        return None

    def param_name(self, index: int, keyword: str | None) -> str:
        if keyword is not None:
            return keyword
        if 0 <= index < len(self.params):
            return self.params[index][0]
        return f"#{index + 1}"

    @property
    def return_unit(self) -> Unit | None:
        return _unit(self.returns)


def _unit(name: str | None) -> Unit | None:
    return None if name is None else unit_for_annotation(name)


#: Unit contracts of repro callables checked at cross-module call
#: sites. Keyed by canonical dotted name (post ImportMap resolution).
KNOWN_SIGNATURES: dict[str, Signature] = {
    "repro.core.partition.breakpoint_fraction": Signature(
        params=(
            ("u_low", "Fraction01"),
            ("u_high", "Fraction01"),
            ("theta", "Probability"),
        ),
        returns="Fraction01",
    ),
    "repro.core.partition.partition_demand": Signature(
        params=(
            ("demand_values", None),
            ("demand_cap", "CpuShares"),
            ("breakpoint_demand", "CpuShares"),
        ),
    ),
    "repro.core.partition.worst_case_granted_allocation": Signature(
        params=(
            ("cos1_demand", None),
            ("cos2_demand", None),
            ("theta", "Probability"),
            ("u_low", "Fraction01"),
        ),
    ),
    "repro.core.qos.case_study_qos": Signature(
        params=(
            ("m_degr_percent", "Percent"),
            ("t_degr_minutes", None),
            ("u_low", "Fraction01"),
            ("u_high", "Fraction01"),
            ("u_degr", "Fraction01"),
        ),
    ),
    "repro.metrics.access.measure_theta": Signature(
        params=(("allocation", None), ("capacity", "CpuShares")),
        returns="Probability",
    ),
    "repro.metrics.access.theta_by_slot": Signature(
        params=(("allocation", None), ("capacity", "CpuShares")),
    ),
    "repro.metrics.access.required_capacity_for_theta": Signature(
        params=(
            ("allocation", None),
            ("theta", "Probability"),
            ("capacity_limit", "CpuShares"),
            ("tolerance", None),
        ),
        returns="CpuShares",
    ),
    "repro.engine.faults.seeded_occurrences": Signature(
        params=(
            ("seed", None),
            ("label", None),
            ("rate", "Probability"),
            ("horizon", None),
        ),
    ),
    "repro.workloads.ensemble.scaled_ensemble": Signature(
        params=(
            ("n_apps", None),
            ("seed", None),
            ("weeks", None),
            ("slot_minutes", None),
        ),
    ),
    "repro.util.validation.require_fraction": Signature(
        params=(("value", None), ("name", None)), returns="Fraction01"
    ),
    "repro.util.validation.require_probability": Signature(
        params=(("value", None), ("name", None)), returns="Probability"
    ),
}

#: Validation helpers that *refine* their first argument without
#: assigning it a unit: canonical name -> (low, high) interval facts.
REFINING_VALIDATORS: dict[str, tuple[float, float]] = {
    "repro.util.validation.require_positive": (0.0, float("inf")),
    "repro.util.validation.require_non_negative": (0.0, float("inf")),
}

#: Paper-symbol attribute names and the unit they always denote.
ATTRIBUTE_UNITS: dict[str, str | None] = {
    "u_low": "Fraction01",
    "u_high": "Fraction01",
    "u_degr": "Fraction01",
    "m_degr_percent": "Percent",
    "m_degr_fraction": "Fraction01",
    "compliance_percent": "Percent",
    "compliance_fraction": "Fraction01",
    "theta": "Probability",
    "acceptable_fraction": "Fraction01",
    "degraded_fraction": "Fraction01",
    "violation_fraction": "Fraction01",
    "breakpoint": "Fraction01",
    "burst_factor": None,  # 1/U_low: unbounded above, deliberately unitless
    "longest_degraded_run_slots": "Slots",
}


def attribute_unit(attribute: str) -> Unit | None:
    """The conventional unit of a paper-symbol attribute name."""
    return _unit(ATTRIBUTE_UNITS.get(attribute))


def annotation_unit(node: ast.expr | None, imports: ImportMap) -> Unit | None:
    """The unit named by an annotation expression, if any.

    Recognizes the markers by canonical name (``repro.units.Percent``
    however the module imported it), by bare name when spelled
    directly, and inside ``Optional[...]`` / ``X | None`` wrappers.
    String (quoted) annotations are parsed and resolved the same way.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    # Optional[X] / Union[X, None] / X | None wrappers.
    if isinstance(node, ast.Subscript):
        wrapper = imports.resolve_node(node.value)
        if wrapper in {
            "typing.Optional",
            "typing.Union",
            "Optional",
            "Union",
        }:
            inner = node.slice
            elements = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                unit = annotation_unit(element, imports)
                if unit is not None:
                    return unit
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            unit = annotation_unit(side, imports)
            if unit is not None:
                return unit
        return None
    canonical = imports.resolve_node(node)
    if canonical is None:
        return None
    if canonical.startswith(f"{_UNITS_MODULE}."):
        return unit_for_annotation(canonical)
    # A bare spelling that did not resolve through an import only
    # counts when it is exactly a marker name (fixture/doc usage).
    if "." not in canonical:
        return unit_for_annotation(canonical)
    return None


def collect_local_signatures(
    tree: ast.Module, imports: ImportMap
) -> dict[str, Signature]:
    """Unit contracts of functions defined at module top level.

    Intraprocedural analysis still checks *calls* to module-local
    functions against their declared parameter units; only top-level
    ``def``s participate (methods would need receiver tracking).
    """
    signatures: dict[str, Signature] = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params: list[tuple[str, str | None]] = []
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            unit = annotation_unit(arg.annotation, imports)
            params.append((arg.arg, unit.name if unit is not None else None))
        return_unit = annotation_unit(node.returns, imports)
        signatures[node.name] = Signature(
            params=tuple(params),
            returns=return_unit.name if return_unit is not None else None,
        )
    return signatures
