"""Tests of the benchmark itself: inputs, tracer hygiene, output check.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from checks import ReferenceCheck  # noqa: E402
from spans import LAYERS, ROOT, TARGETS, Tracer, layer_summary, self_times  # noqa: E402
from workloads import WORKLOADS, build, instance_seeds, qos_policy  # noqa: E402

from repro import (  # noqa: E402
    FailureReport,
    FailureSweepPolicy,
    GeneticSearchConfig,
    PoolCommitments,
    ROpus,
    ResourcePool,
    homogeneous_servers,
)
from repro.workloads.ensemble import scaled_ensemble  # noqa: E402


def _traces(instances):
    return [
        [demand.values for demand in instance.demands] for instance in instances
    ]


def test_seed_is_deterministic_and_changes_the_traces():
    workload = WORKLOADS["case-study"]
    first = _traces(build(workload, 2006))
    again = _traces(build(workload, 2006))
    other = _traces(build(workload, 2007))
    assert len(first) == workload.panel
    for ensemble, repeat in zip(first, again):
        for values, repeated in zip(ensemble, repeat):
            assert (values == repeated).all()
    assert any(
        (values != changed).any()
        for ensemble, alternative in zip(first, other)
        for values, changed in zip(ensemble, alternative)
    )


def test_panel_starts_at_the_seed_and_draws_distinct_ensembles():
    seeds = instance_seeds(2006, 4)
    assert seeds[0] == 2006
    assert len(set(seeds)) == 4
    assert instance_seeds(2006, 4) == seeds


@pytest.fixture(scope="module")
def small():
    """A small topology pool with a domain sweep, planned once."""
    demands = scaled_ensemble(8, seed=2006, weeks=1, slot_minutes=60)
    pool = ResourcePool(homogeneous_servers(4, cpus=16, racks=2, zones=2))
    framework = ROpus(
        PoolCommitments.of(theta=0.95),
        pool,
        search_config=GeneticSearchConfig(
            seed=2006, population_size=4, max_generations=2, stall_generations=1
        ),
        failure_policy=FailureSweepPolicy(scopes=("rack",), degraded_factor=0.5),
    )
    policy = qos_policy()
    return demands, pool, framework, policy


def _check(small):
    demands, pool, framework, policy = small
    return ReferenceCheck(demands, pool, framework.commitments, policy)


def test_traced_run_restores_every_wrapped_function(small):
    demands, _, framework, policy = small
    tracer = Tracer()
    with tracer.installed():
        sites = list(tracer._patches)
        for owner, name, original in sites:
            assert vars(owner)[name] is not original
        with tracer.span(ROOT, plan=1):
            framework.plan(demands, policy)
    patched = {(owner, name) for owner, name, _ in sites}
    for _, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, name = attribute.split(".")
            assert (getattr(module, class_name), name) in patched
        else:
            assert (module, attribute) in patched
    for owner, name, original in sites:
        assert vars(owner)[name] is original
    recorded = {span.name for span in tracer.spans}
    assert recorded == {ROOT, *LAYERS}

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("plan failed")
    for owner, name, original in sites:
        assert vars(owner)[name] is original


def test_self_times_add_up_to_the_traced_wall(small):
    demands, _, framework, policy = small
    tracer = Tracer()
    with tracer.installed():
        for plan in (1, 2):
            with tracer.span(ROOT, plan=plan):
                framework.plan(demands, policy)
    assert all(span.end >= span.start for span in tracer.spans)
    assert all(own >= -1e-9 for own in self_times(tracer.spans))
    layers = layer_summary(tracer.spans)
    accounted = layers["other_s"] + layers["translation.busy_s"] + sum(
        value for key, value in layers.items() if key.endswith(".self_s")
    )
    assert accounted == pytest.approx(layers["traced_plan_s"], abs=1e-9)
    assert layers["failure.cases"] > 0


def test_check_accepts_the_plan(small):
    demands, _, framework, policy = small
    check = _check(small)
    plan = framework.plan(demands, policy)
    assert check.problems(plan) == []
    assert check.problems(framework.plan(demands, policy)) == []


def test_check_rejects_a_dropped_workload(small):
    demands, _, framework, policy = small
    plan = framework.plan(demands, policy)
    assignment = dict(plan.consolidation.assignment)
    server = max(assignment, key=lambda name: len(assignment[name]))
    dropped = assignment[server][0]
    assignment[server] = assignment[server][1:]
    corrupted = replace(
        plan, consolidation=replace(plan.consolidation, assignment=assignment)
    )
    problems = _check(small).problems(corrupted)
    assert any(f"{dropped} placed 0 times" in problem for problem in problems)


def test_check_rejects_capacity_below_feasibility(small):
    demands, _, framework, policy = small
    plan = framework.plan(demands, policy)
    required = dict(plan.consolidation.required_by_server)
    server = max(required, key=required.get)
    required[server] *= 0.5
    corrupted = replace(
        plan,
        consolidation=replace(
            plan.consolidation,
            required_by_server=required,
            sum_required=sum(required.values()),
        ),
    )
    problems = _check(small).problems(corrupted)
    assert any("miss the CoS2 commitment" in problem for problem in problems)


def test_check_rejects_a_failure_case_on_its_failed_server(small):
    demands, _, framework, policy = small
    plan = framework.plan(demands, policy)
    cases = list(plan.failure_report.cases)
    position, case = next(
        (position, case) for position, case in enumerate(cases) if case.feasible
    )
    assignment = dict(case.result.assignment)
    moved = assignment.pop(next(iter(assignment)))
    assignment[case.failed_servers[0]] = moved
    cases[position] = replace(
        case, result=replace(case.result, assignment=assignment)
    )
    corrupted = replace(plan, failure_report=FailureReport(cases=tuple(cases)))
    problems = _check(small).problems(corrupted)
    assert any("uses failed server" in problem for problem in problems)


def test_check_rejects_a_changed_plan_hash(small):
    demands, _, framework, policy = small
    plan = framework.plan(demands, policy)
    check = _check(small)
    assert check.problems(plan) == []
    required = {
        server: value * 1.01
        for server, value in plan.consolidation.required_by_server.items()
    }
    changed = replace(
        plan,
        consolidation=replace(
            plan.consolidation,
            required_by_server=required,
            sum_required=sum(required.values()),
        ),
    )
    problems = check.problems(changed)
    assert any("plan_hash" in problem for problem in problems)


def test_benchmark_json_names_exactly_the_reported_metrics():
    import json

    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == (
        run.PER_LAYER_UNITS
    )
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
