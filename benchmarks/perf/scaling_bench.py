"""Wall-time scaling ladder for ``ROpus.plan`` placement.

Replicated ensembles from 65 to 520 workloads, drawn with a pinned
seed, are planned on proportionally sized pools with failure planning
off. Wall-clock is fitted on a log-log scale; the growth exponent must
stay below 2 (sub-quadratic) and the ≥500-workload rung must complete
end to end with every workload placed.

Measurements land in ``BENCH_scaling.json`` at the repo root::

    PYTHONPATH=src python benchmarks/perf/scaling_bench.py           # full ladder
    PYTHONPATH=src python benchmarks/perf/scaling_bench.py --quick   # small rungs (CI)
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.workloads.ensemble import scaled_ensemble

SEED = 2006
TOLERANCE = 0.01
THETA = 0.95
REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_scaling.json"

#: Ladder rungs: (workloads, servers). Two servers per workload keeps
#: pool utilisation near the case study's (~75-80%) at every rung.
LADDER: list[tuple[int, int]] = [(65, 30), (130, 60), (260, 120), (520, 240)]
QUICK_LADDER: list[tuple[int, int]] = [(65, 30), (130, 60)]


def _framework(pool_size: int) -> ROpus:
    return ROpus(
        PoolCommitments.of(theta=THETA),
        ResourcePool(homogeneous_servers(pool_size, cpus=16)),
        search_config=GeneticSearchConfig(
            seed=SEED,
            population_size=10,
            max_generations=8,
            stall_generations=4,
        ),
        tolerance=TOLERANCE,
    )


def _fit_exponent(rungs: list[dict]) -> float:
    """Least-squares slope of log(seconds) against log(workloads)."""
    xs = [math.log(rung["workloads"]) for rung in rungs]
    ys = [math.log(rung["seconds"]) for rung in rungs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def run_scaling_ladder(quick: bool) -> dict:
    """Replicated ensembles planned end to end, with fitted growth."""
    ladder = QUICK_LADDER if quick else LADDER
    policy = QoSPolicy(normal=case_study_qos(m_degr_percent=0))
    rungs: list[dict] = []
    for workloads, servers in ladder:
        demands = scaled_ensemble(
            workloads, seed=SEED, weeks=1, slot_minutes=60
        )

        start = time.perf_counter()
        plan = _framework(servers).plan(demands, policy, plan_failures=False)
        seconds = time.perf_counter() - start

        placed = sum(
            len(names) for names in plan.consolidation.assignment.values()
        )
        if placed != workloads:
            raise RuntimeError(f"rung {workloads} placed {placed} workloads")
        rung = {
            "workloads": workloads,
            "servers": servers,
            "seconds": round(seconds, 4),
            "sum_required": round(plan.consolidation.sum_required, 4),
            "servers_used": plan.servers_used,
        }
        rungs.append(rung)
        print(
            f"[ladder] n={workloads} {seconds:.2f}s, "
            f"{rung['servers_used']} servers, "
            f"{rung['sum_required']:.2f} CPU",
            flush=True,
        )

    exponent = _fit_exponent(rungs)
    result = {
        "rungs": rungs,
        "growth_exponent": round(exponent, 3),
        "subquadratic": exponent < 2.0,
        "largest_rung_completed": rungs[-1]["workloads"],
    }
    if not result["subquadratic"]:
        raise RuntimeError(
            f"growth exponent {exponent:.2f} is not sub-quadratic"
        )
    print(f"[ladder] growth exponent {exponent:.2f}", flush=True)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the small rungs only (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args()

    report = {
        "benchmark": "placement scaling",
        "seed": SEED,
        "theta": THETA,
        "tolerance": TOLERANCE,
        "quick": args.quick,
        "scaling_ladder": run_scaling_ladder(args.quick),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
