"""Greedy placement baselines.

The paper compares its genetic search against greedy algorithms
(Section VIII). Two classics are provided, both driven by the same
trace-accurate feasibility test as the genetic search (a workload set
fits on a server iff its required capacity is within the server's
limit):

* **first-fit decreasing** — workloads sorted by peak allocation, each
  placed on the first server that still fits it;
* **best-fit decreasing** — each workload placed on the feasible server
  whose required capacity would become largest (tightest fit), packing
  servers hot before opening new ones.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import InfeasiblePlacementError
from repro.placement.evaluation import PlacementEvaluator
from repro.resources.pool import ResourcePool

Assignment = tuple[int, ...]


def first_fit_decreasing(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    attribute: str = "cpu",
) -> Assignment:
    """Place each workload (largest peak first) on the first fitting server."""

    def choose(
        feasible: list[tuple[int, float]], current_groups: dict[int, list[int]]
    ) -> int:
        return feasible[0][0]

    return _greedy_place(evaluator, pool, choose, attribute)


def best_fit_decreasing(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    attribute: str = "cpu",
) -> Assignment:
    """Place each workload on the feasible server it fills tightest."""

    def choose(
        feasible: list[tuple[int, float]], current_groups: dict[int, list[int]]
    ) -> int:
        return max(feasible, key=lambda item: item[1])[0]

    return _greedy_place(evaluator, pool, choose, attribute)


def _greedy_place(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    choose: Callable[[list[tuple[int, float]], dict[int, list[int]]], int],
    attribute: str,
) -> Assignment:
    """Shared greedy skeleton.

    Workloads are taken in decreasing order of peak total allocation.
    For each, every *already-used* server is tested first; if none fits,
    the next unused server is opened. ``choose`` picks among the feasible
    used servers given ``(server_index, required_capacity)`` candidates.
    """
    servers = list(pool.servers)
    order = np.argsort(-evaluator.peak_allocations(), kind="stable")
    groups: dict[int, list[int]] = {}
    assignment = [-1] * evaluator.n_workloads
    # All of one workload's candidate (used server + workload) subsets
    # go to the evaluator in one call when it can take them; results
    # are identical either way, and both calls share one cache.
    batch_evaluate = getattr(evaluator, "evaluate_groups", None)

    for workload_index in (int(index) for index in order):
        used = sorted(groups)
        candidates = [groups[server_index] + [workload_index] for server_index in used]
        if batch_evaluate is not None:
            evaluations = batch_evaluate(
                [
                    (servers[server_index].capacity_of(attribute), candidate)
                    for server_index, candidate in zip(used, candidates)
                ]
            )
        else:
            evaluations = [
                evaluator.evaluate_group(
                    candidate, servers[server_index], attribute
                )
                for server_index, candidate in zip(used, candidates)
            ]
        feasible = [
            (server_index, evaluation.required)
            for server_index, evaluation in zip(used, evaluations)
            if evaluation.fits
        ]
        if feasible:
            target = choose(feasible, groups)
        else:
            target = _open_new_server(
                evaluator, servers, groups, workload_index, attribute
            )
        groups.setdefault(target, []).append(workload_index)
        assignment[workload_index] = target

    return tuple(assignment)


def _open_new_server(
    evaluator: PlacementEvaluator,
    servers: Sequence,
    groups: dict[int, list[int]],
    workload_index: int,
    attribute: str,
) -> int:
    for server_index, server in enumerate(servers):
        if server_index in groups:
            continue
        evaluation = evaluator.evaluate_group(
            [workload_index], server, attribute
        )
        if evaluation.fits:
            return server_index
    raise InfeasiblePlacementError(
        f"workload {evaluator.names[workload_index]!r} fits on no remaining "
        "server; the pool is too small or the workload exceeds every "
        "server's capacity"
    )
