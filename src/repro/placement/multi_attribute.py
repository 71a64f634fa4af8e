"""Multi-attribute placement (the paper's Section IX future work).

The paper's evaluation manages CPU only and closes with: "Future work
will look at extending our techniques to consider the impact of greater
sharing of other capacity attributes such as memory and input-output
resources." This module provides that extension:

* each workload brings one per-CoS allocation pair *per capacity
  attribute* (e.g. ``cpu``, ``mem``);
* a workload set fits on a server iff **every** attribute's required
  capacity is within that attribute's limit on the server;
* the placement objective scores the server by its hottest attribute.

:class:`MultiAttributeEvaluator` exposes the same group-evaluation
interface as :class:`~repro.placement.evaluation.PlacementEvaluator`, so
the genetic search and the greedy baselines work unchanged;
:class:`MultiAttributeConsolidator` wires it into the consolidation
exercise.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.cos import CoSCommitment
from repro.exceptions import PlacementError
from repro.placement.consolidation import (
    Algorithm,
    ConsolidationResult,
    Consolidator,
)
from repro.placement.evaluation import PlacementEvaluator, ServerEvaluation
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import ServerSpec
from repro.traces.allocation import CoSAllocationPair

PRIMARY_ATTRIBUTE = "cpu"


class MultiAttributeEvaluator:
    """Joint feasibility across several capacity attributes.

    Parameters
    ----------
    pairs_by_attribute:
        One sequence of :class:`CoSAllocationPair` per attribute. All
        sequences must cover the same workload names in the same order.
    commitments:
        The pool's CoS2 commitment, either shared across attributes or
        given per attribute.
    """

    def __init__(
        self,
        pairs_by_attribute: Mapping[str, Sequence[CoSAllocationPair]],
        commitments: CoSCommitment | Mapping[str, CoSCommitment],
        tolerance: float = 0.01,
    ):
        if not pairs_by_attribute:
            raise PlacementError("need at least one capacity attribute")
        self.attributes = list(pairs_by_attribute)
        self._evaluators: dict[str, PlacementEvaluator] = {}
        for attribute, pairs in pairs_by_attribute.items():
            commitment = (
                commitments
                if isinstance(commitments, CoSCommitment)
                else commitments[attribute]
            )
            self._evaluators[attribute] = PlacementEvaluator(
                pairs, commitment, tolerance=tolerance
            )
        names = self._evaluators[self.attributes[0]].names
        for attribute, evaluator in self._evaluators.items():
            if evaluator.names != names:
                raise PlacementError(
                    f"attribute {attribute!r} covers different workloads "
                    "than the others"
                )
        self.names = names
        self.primary = (
            PRIMARY_ATTRIBUTE
            if PRIMARY_ATTRIBUTE in self._evaluators
            else self.attributes[0]
        )

    @property
    def n_workloads(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        return self._evaluators[self.primary].index_of(name)

    def evaluator_for(self, attribute: str) -> PlacementEvaluator:
        try:
            return self._evaluators[attribute]
        except KeyError:
            raise PlacementError(
                f"no allocation data for attribute {attribute!r}"
            ) from None

    def peak_allocations(self) -> np.ndarray:
        """Primary-attribute peaks (used for greedy ordering / C_peak)."""
        return self._evaluators[self.primary].peak_allocations()

    def evaluate_group(
        self,
        indices: Sequence[int],
        server: ServerSpec,
        attribute: str | None = None,
    ) -> ServerEvaluation:
        """Joint evaluation: fits iff every attribute fits.

        The ``attribute`` argument is accepted for interface
        compatibility with :class:`PlacementEvaluator` and ignored — the
        whole point is that all attributes are checked. The reported
        ``required`` is the primary attribute's; ``utilization`` is the
        maximum across attributes (the server is as hot as its hottest
        resource, which is what the objective should see).
        """
        worst_utilization = 0.0
        primary_required = 0.0
        for name in self.attributes:
            if not server.has_attribute(name):
                raise PlacementError(
                    f"server {server.name!r} has no capacity attribute "
                    f"{name!r}"
                )
            evaluation = self._evaluators[name].evaluate_group(
                indices, server, name
            )
            if not evaluation.fits:
                return ServerEvaluation(
                    fits=False,
                    required=float("inf"),
                    utilization=float("inf"),
                )
            worst_utilization = max(worst_utilization, evaluation.utilization)
            if name == self.primary:
                primary_required = evaluation.required
        return ServerEvaluation(
            fits=True,
            required=primary_required,
            utilization=worst_utilization,
        )


class MultiAttributeConsolidator:
    """Consolidation with joint multi-attribute feasibility."""

    def __init__(
        self,
        pool: ResourcePool,
        commitments: CoSCommitment | Mapping[str, CoSCommitment],
        *,
        config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
    ):
        self.pool = pool
        self.commitments = commitments
        self.config = config
        self.tolerance = tolerance

    def consolidate(
        self,
        pairs_by_attribute: Mapping[str, Sequence[CoSAllocationPair]],
        algorithm: Algorithm = "genetic",
    ) -> ConsolidationResult:
        evaluator = MultiAttributeEvaluator(
            pairs_by_attribute, self.commitments, tolerance=self.tolerance
        )
        shared_commitment = (
            self.commitments
            if isinstance(self.commitments, CoSCommitment)
            else self.commitments[evaluator.primary]
        )
        delegate = Consolidator(
            self.pool,
            shared_commitment,
            config=self.config,
            tolerance=self.tolerance,
            attribute=evaluator.primary,
        )
        return delegate.consolidate_with_evaluator(evaluator, algorithm)
