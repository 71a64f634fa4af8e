"""The benchmark's workloads and how their inputs are made from a seed.

Each workload is a *panel* of ``panel`` independent ensembles drawn from
the workload seed: instance 0 uses the seed itself (so the default seed
2006 includes the paper's case-study ensemble) and instance ``i > 0``
uses a seed derived from ``(seed, i)``. Planning a panel instead of a
single ensemble averages out how much one draw's traces happen to cost
or pack, so the figures of two different seeds stay comparable.

The planner only ever sees the generated traces: the genetic search
seed is fixed (:data:`SEARCH_SEED`), independent of the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import (
    FailureSweepPolicy,
    GeneticSearchConfig,
    PoolCommitments,
    QoSPolicy,
    ROpus,
    ResourcePool,
    case_study_qos,
    homogeneous_servers,
)
from repro.workloads.ensemble import scaled_ensemble

THETA = 0.95
TOLERANCE = 0.01
CPUS_PER_SERVER = 16
WEEKS = 4
SEARCH_SEED = 2006


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: ensemble shape, pool and search budget."""

    name: str
    apps: int
    servers: int
    slot_minutes: int
    population: int
    generations: int
    stall: int
    plan_failures: bool
    panel: int
    racks: Optional[int] = None
    zones: Optional[int] = None
    domain_sweep: bool = False

    def search_config(self) -> GeneticSearchConfig:
        return GeneticSearchConfig(
            seed=SEARCH_SEED,
            population_size=self.population,
            max_generations=self.generations,
            stall_generations=self.stall,
        )

    def failure_policy(self) -> Optional[FailureSweepPolicy]:
        if not self.domain_sweep:
            return None
        return FailureSweepPolicy(
            scopes=("rack", "zone", "rack:2"),
            degraded_factor=0.5,
            spare_curve=True,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="case-study",
            apps=26,
            servers=12,
            slot_minutes=5,
            population=10,
            generations=8,
            stall=4,
            plan_failures=True,
            panel=16,
        ),
        Workload(
            name="fleet",
            apps=104,
            servers=48,
            slot_minutes=5,
            population=4,
            generations=3,
            stall=2,
            plan_failures=False,
            panel=4,
        ),
        Workload(
            name="domains",
            apps=26,
            servers=12,
            slot_minutes=30,
            population=10,
            generations=8,
            stall=4,
            plan_failures=True,
            panel=9,
            racks=4,
            zones=2,
            domain_sweep=True,
        ),
    )
}


def qos_policy() -> QoSPolicy:
    """Normal mode without degradation; failure mode as in the paper."""
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
    )


def instance_seeds(seed: int, panel: int) -> list[int]:
    """The ensemble seeds of one panel; the first is ``seed`` itself."""
    derived = [
        int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
        for index in range(1, panel)
    ]
    return [seed, *derived]


@dataclass
class Instance:
    """One ensemble of a panel, with the framework that plans it."""

    seed: int
    demands: list
    pool: ResourcePool
    framework: ROpus


def build(workload: Workload, seed: int) -> list[Instance]:
    """Generate the panel's ensembles and build a pool and framework each.

    This is what ``setup_s`` times.
    """
    instances = []
    for instance_seed in instance_seeds(seed, workload.panel):
        demands = scaled_ensemble(
            workload.apps,
            seed=instance_seed,
            weeks=WEEKS,
            slot_minutes=workload.slot_minutes,
        )
        pool = ResourcePool(
            homogeneous_servers(
                workload.servers,
                cpus=CPUS_PER_SERVER,
                racks=workload.racks,
                zones=workload.zones,
            )
        )
        framework = ROpus(
            PoolCommitments.of(theta=THETA),
            pool,
            search_config=workload.search_config(),
            tolerance=TOLERANCE,
            failure_policy=workload.failure_policy(),
        )
        instances.append(Instance(instance_seed, demands, pool, framework))
    return instances


def plan(workload: Workload, instance: Instance, policy: QoSPolicy):
    """One ``ROpus.plan`` call: the operation the benchmark times."""
    return instance.framework.plan(
        instance.demands, policy, plan_failures=workload.plan_failures
    )
