#!/usr/bin/env python3
"""R-Opus planner benchmark: ``ROpus.plan`` end to end, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload case-study --seed 2006 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 2006      # every workload, one process each

A run builds the workload's panel of ensembles from ``--seed`` (timed
as ``setup_s``), makes one warm-up plan, then plans the panel round
after round, one caller and one plan at a time on the default serial
engine, for as many rounds as fit in ``--seconds`` (at least one).
Every plan is checked from outside the planner after its timing (see
``checks.py``); a plan that raises or fails the check counts as failed.

``plan_s`` and ``setup_s`` are seconds at the reference machine speed:
the run's wall times (printed as ``plan_wall_s`` and ``setup_wall_s``)
times ``REFERENCE_S`` over the median of the calibration passes timed
between the run's builds and plans (``calibration.py``). On a shared
host this removes the drift of the machine's speed between runs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` then plans
the panel once more with the layer wrappers of ``spans.py`` installed,
reports the per-layer metrics, and writes the spans as a Chrome
trace-event file under ``perfbench/out/``. End-to-end figures always
come from the untraced plans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program
under test is the checkout's ``src/repro``; the run exits with code 2
and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SOURCE_DIR = REPO_DIR / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    # One caller in one process: keep numpy's BLAS from adding threads.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SOURCE_DIR))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {SOURCE_DIR}: {error}",
              file=sys.stderr)
        raise SystemExit(2)
    if Path(repro.__file__).resolve().parent.parent != SOURCE_DIR:
        print(f"perfbench: repro imported from {repro.__file__}, not from "
              f"{SOURCE_DIR}", file=sys.stderr)
        raise SystemExit(2)


END_TO_END_UNITS = {
    "plan_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sum_required": "CPU",
    "servers_used": "count",
}
#: Printed and written for every run, but not part of the result line:
#: each can legitimately be 0, which a regression bound cannot compare.
REPORTED_UNITS = {
    "infeasible_cases": "count",
    "spares_needed": "count",
    "plan_s.samples": "count",
    "plan_wall_s": "s",
    "setup_wall_s": "s",
    "calibration_s": "s",
    "plan_error_rate": "ratio",
    "plans": "count",
    "rounds": "count",
}
PER_LAYER_UNITS = {
    "translation.busy_s": "s",
    "translation.calls": "count",
    "greedy.ffd.self_s": "s",
    "greedy.bfd.self_s": "s",
    "correlation.seed.self_s": "s",
    "greedy.calls": "count",
    "greedy.ffd.total_s": "s",
    "greedy.bfd.total_s": "s",
    "correlation.seed.total_s": "s",
    "genetic.self_s": "s",
    "genetic.total_s": "s",
    "genetic.generations": "count",
    "evaluation.self_s": "s",
    "evaluation.calls": "count",
    "evaluation.cache_hit_ratio": "ratio",
    "evaluation.cache_lookups": "count",
    "kernel.calls": "count",
    "kernel.rows": "count",
    "kernel.bracket_iterations": "count",
    "consolidation.self_s": "s",
    "consolidation.calls": "count",
    "consolidation.call_s.p50": "s",
    "failure.self_s": "s",
    "failure.total_s": "s",
    "failure.cases": "count",
    "failure.case_s.p50": "s",
    "engine.sessions": "count",
    "other_s": "s",
    "traced_plan_s": "s",
    "trace.overhead": "ratio",
}


class Phase:
    """Rounds of plans over the panel: timings, failures, plan facts.

    A round plans every ensemble of the panel once. After the first
    round, another starts only if it should end within ``seconds`` at
    the pace of the last one; rounds stop after one in which a plan
    failed.
    """

    def __init__(self, panel: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(panel)]
        self.calibrations: list[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.facts: dict[int, dict] = {}

    def plan_once(self, workload, index, instance, check, policy, tracer=None):
        """Plan one ensemble, check it after timing; the time or ``None``."""
        from spans import ROOT
        from workloads import plan

        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = plan(workload, instance, policy)
            else:
                with tracer.span(ROOT, plan=self.attempted):
                    result = plan(workload, instance, policy)
        except Exception:  # a plan that raises counts as failed
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        problems = check.problems(result)
        if problems:
            self.failed += 1
            print(f"perfbench: plan of ensemble {instance.seed} failed the "
                  f"check: {problems[:5]}", file=sys.stderr)
            return None
        self.facts.setdefault(index, plan_facts(result))
        return elapsed

    def run(self, workload, instances, checks, policy, seconds, tracer=None):
        """Plan rounds, with a calibration pass before and after each plan."""
        from calibration import calibrate

        start = last = time.perf_counter()
        self.calibrations.append(calibrate())
        while True:
            self.rounds += 1
            for index, instance in enumerate(instances):
                elapsed = self.plan_once(
                    workload, index, instance, checks[index], policy, tracer
                )
                self.calibrations.append(calibrate())
                if elapsed is not None:
                    self.times[index].append(elapsed)
            now = time.perf_counter()
            if self.failed or now + (now - last) - start > seconds:
                return
            last = now

    @property
    def complete(self) -> bool:
        return self.failed == 0 and all(self.times)

    def plan_wall_s(self) -> float:
        """Mean over the panel of each ensemble's median plan wall time."""
        if not self.complete:
            return 0.0
        return statistics.fmean(statistics.median(times) for times in self.times)


def plan_facts(plan) -> dict:
    """The quality figures and counters of one plan (no traces kept)."""
    reports = [plan.failure_report, *(plan.domain_reports or {}).values()]
    infeasible = sum(
        len(report.infeasible_cases) for report in reports if report is not None
    )
    if plan.spare_curve is not None:
        limit = plan.spare_curve.max_spares + 1
        spares = max(
            (
                limit if point.spares_needed is None else point.spares_needed
                for point in plan.spare_curve.points
            ),
            default=0,
        )
    else:
        spares = int(bool(plan.spare_server_needed))
    return {
        "sum_required": plan.consolidation.sum_required,
        "servers_used": plan.servers_used,
        "infeasible_cases": infeasible,
        "spares_needed": spares,
        "plan_hash": plan.plan_hash(),
        "counters": dict(plan.counters),
    }


def counter_metrics(facts: list[dict]) -> dict[str, float]:
    """Per-plan counter metrics, averaged over the panel."""
    def mean(name: str) -> float:
        return statistics.fmean(fact["counters"].get(name, 0.0) for fact in facts)

    hits = mean("placement.cache_hits")
    lookups = hits + mean("placement.cache_misses")
    return {
        "genetic.generations": mean("placement.ga_generations"),
        "evaluation.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "evaluation.cache_lookups": lookups,
        "kernel.calls": mean("kernel.calls"),
        "kernel.rows": mean("kernel.rows"),
        "kernel.bracket_iterations": mean("kernel.bracket_iterations"),
        "engine.sessions": mean("broadcast.sessions"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result document."""
    from calibration import calibrate, speed_scale
    from checks import ReferenceCheck
    from spans import Tracer, layer_summary, write_chrome_trace
    from workloads import WORKLOADS, build, qos_policy

    workload = WORKLOADS[name]
    policy = qos_policy()
    setup_times = []
    calibrations = [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instances = build(workload, seed)
        setup_times.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    checks = [
        ReferenceCheck(
            instance.demands, instance.pool,
            instance.framework.commitments, policy,
        )
        for instance in instances
    ]

    untraced = Phase(len(instances))
    untraced.plan_once(workload, 0, instances[0], checks[0], policy)  # warm-up
    untraced.run(workload, instances, checks, policy, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    facts = [untraced.facts[index] for index in sorted(untraced.facts)]
    calibrations += untraced.calibrations
    scale = speed_scale(calibrations)
    plan_wall_s = untraced.plan_wall_s()
    setup_wall_s = statistics.median(setup_times)
    phases = [untraced]
    document = {
        "workload": name,
        "seed": seed,
        "ensemble_seeds": [instance.seed for instance in instances],
        "plan_hashes": [fact["plan_hash"] for fact in facts],
        "plan_times": untraced.times,
        "end_to_end": {
            "plan_s": plan_wall_s * scale,
            "plan_s.samples": sum(len(times) for times in untraced.times),
            "setup_s": setup_wall_s * scale,
            "plan_wall_s": plan_wall_s,
            "setup_wall_s": setup_wall_s,
            "calibration_s": statistics.median(calibrations),
            "peak_rss_mb": peak_rss_mb,
            "sum_required": sum(fact["sum_required"] for fact in facts),
            "servers_used": sum(fact["servers_used"] for fact in facts),
            "infeasible_cases": sum(fact["infeasible_cases"] for fact in facts),
            "spares_needed": sum(fact["spares_needed"] for fact in facts),
        },
    }
    metric_units = END_TO_END_UNITS
    reported = document["end_to_end"]
    consistent = True
    if trace:
        tracer = Tracer()
        traced = Phase(len(instances))
        with tracer.installed():
            traced.run(workload, instances, checks, policy, 0.0, tracer)
        phases.append(traced)
        layers = layer_summary(tracer.spans)
        layers.update(counter_metrics(facts))
        layers["trace.overhead"] = (
            traced.plan_wall_s() * speed_scale(traced.calibrations)
            / (plan_wall_s * speed_scale(untraced.calibrations)) - 1
            if traced.complete and plan_wall_s else 0.0
        )
        accounted = layers["other_s"] + layers["translation.busy_s"] + sum(
            value for key, value in layers.items() if key.endswith(".self_s")
        )
        layers["trace.unaccounted_s"] = layers["traced_plan_s"] - accounted
        if abs(layers["trace.unaccounted_s"]) > 1e-6:
            print("perfbench: span self times do not add up to the traced "
                  "wall", file=sys.stderr)
            consistent = False
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{name}-seed{seed}.chrome.json"
        write_chrome_trace(tracer.spans, trace_path)
        document["chrome_trace"] = str(trace_path.relative_to(REPO_DIR))
        document["per_layer"] = layers
        metric_units = PER_LAYER_UNITS
        reported = layers

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    document["end_to_end"].update(
        plan_error_rate=failed / attempted,
        plans=attempted,
        rounds=sum(phase.rounds for phase in phases),
    )
    document["result"] = {
        "correct": consistent and all(phase.complete for phase in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": reported[key], "unit": unit}
            for key, unit in metric_units.items()
        },
    }
    return document


def details_path(name: str, seed: int, trace: int) -> Path:
    """Where a run writes its full result document."""
    return OUT_DIR / f"{name}-seed{seed}.{'layers' if trace else 'e2e'}.json"


def print_table(document: dict) -> None:
    name = document["workload"]
    rows = dict(document["end_to_end"])
    units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    if "per_layer" in document:
        rows.update(document["per_layer"])
        units.update(PER_LAYER_UNITS)
    for key, value in rows.items():
        unit = units.get(key, "s" if key.endswith(("_s", ".p90")) else "count")
        print(f"{name:<11} {key:<28} {value:>14.6g} {unit}")


def main_single(args) -> int:
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    document = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    details_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(document, indent=2) + "\n"
    )
    print_table(document)
    print(json.dumps(document["result"]), flush=True)
    return 0 if document["result"]["correct"] else 1


def main_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import numpy

    from workloads import WORKLOADS

    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode != 0 or not lines:
                status = 1
                continue
            entry["traced" if trace else "untraced"] = json.loads(
                details_path(name, args.seed, trace).read_text()
            )
        report["workloads"][name] = entry
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.relative_to(REPO_DIR)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None,
                        help="case-study, fleet or domains (default: all)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return main_all(args)
    return main_single(args)


if __name__ == "__main__":
    sys.exit(main())
