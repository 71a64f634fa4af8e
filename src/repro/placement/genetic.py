"""Genetic optimizing search over workload assignments (Section VI-B).

The search evolves assignments (one server index per workload) toward a
small number of hot servers:

* **fitness** is the consolidation score — ``+1`` per empty server,
  ``f(U) = U^(2Z)`` per feasible used server, ``-N`` per over-booked
  server;
* **mutation** picks a used server with probability weighted by
  ``1 - f(U)`` — poorly utilised servers are the likeliest to have their
  workloads migrated away, so each mutation step tends to reduce the
  number of servers in use by one;
* **cross-over** mates two parents by taking each workload's server from
  one parent or the other at random.

The search tracks the best *feasible* assignment ever seen and returns
it; when seeded with a feasible initial assignment (the consolidator uses
a greedy first fit) the result can only improve on the seed.

Fan-out: each generation's children are *generated* first (all RNG draws
stay in the driver, in the historical order) and then *evaluated* as a
batch through the engine's executor — only server-content subsets missing
from the evaluator cache are shipped to workers, and their results are
reconciled back into the single driver-side cache, so the memoisation
that makes the search affordable is preserved under any backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.engine import Checkpointer, ExecutionEngine, ExecutorSession
from repro.engine.dispatch import split_chunks
from repro.exceptions import PlacementError
from repro.placement.evaluation import (
    GroupKey,
    PlacementEvaluator,
    ServerEvaluation,
    evaluate_groups_worker,
)
from repro.placement.objective import server_score
from repro.resources.pool import ResourcePool
from repro.util.rng import derive_rng

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class GeneticSearchConfig:
    """Tuning knobs for the genetic search."""

    population_size: int = 24
    max_generations: int = 80
    stall_generations: int = 12
    elite_count: int = 2
    crossover_probability: float = 0.6
    mutation_probability: float = 0.8
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise PlacementError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.max_generations < 1:
            raise PlacementError(
                f"max_generations must be >= 1, got {self.max_generations}"
            )
        if self.stall_generations < 1:
            raise PlacementError(
                f"stall_generations must be >= 1, got {self.stall_generations}"
            )
        if not 0 <= self.elite_count < self.population_size:
            raise PlacementError(
                "elite_count must be in [0, population_size)"
            )
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise PlacementError("crossover_probability must be in [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise PlacementError("mutation_probability must be in [0, 1]")


@dataclass
class EvaluatedAssignment:
    """An assignment plus its score and per-server evaluations."""

    assignment: Assignment
    score: float
    evaluations: dict[int, ServerEvaluation]
    feasible: bool

    def servers_used(self) -> set[int]:
        return set(self.assignment)


@dataclass
class GeneticSearchResult:
    """Outcome of one search run."""

    best: EvaluatedAssignment
    generations_run: int
    evaluations_performed: int
    history: list[float] = field(default_factory=list)


class GeneticPlacementSearch:
    """Evolves workload-to-server assignments for one pool."""

    def __init__(
        self,
        evaluator: PlacementEvaluator,
        pool: ResourcePool,
        config: GeneticSearchConfig | None = None,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        constraints=None,
    ):
        if len(pool) == 0:
            raise PlacementError("the pool must contain at least one server")
        self.evaluator = evaluator
        self.pool = pool
        self.servers = list(pool.servers)
        self.config = config or GeneticSearchConfig()
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self._evaluations = 0
        # Anti-affinity constraints price co-located pairs into the
        # fitness (soft: feasibility stays purely capacity-based), so
        # the search evolves away from shared failure domains. With no
        # constraints the scoring path is untouched — bit-identical to
        # the unconstrained search.
        self._constraint_index = None
        if constraints is not None and constraints.enabled:
            from repro.placement.affinity import ConstraintIndex

            self._constraint_index = ConstraintIndex(
                constraints, evaluator.names, self.servers
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        initial: Assignment | Sequence[int],
        extra_seeds: Sequence[Assignment] = (),
        *,
        checkpointer: Optional[Checkpointer] = None,
        checkpoint_key: str = "genetic",
    ) -> GeneticSearchResult:
        """Search from an initial assignment; returns the best feasible one.

        ``extra_seeds`` adds further starting points to the population
        (e.g. several greedy solutions), guaranteeing the result is at
        least as good as the best seed. Raises :class:`PlacementError`
        when neither a seed nor any evolved assignment is feasible.

        With a ``checkpointer``, every completed generation journals the
        full search state (generation number, RNG state, population and
        incumbent assignments, stall counter, score history) under
        ``checkpoint_key``. A later run with the same inputs resumes
        from the last completed generation and — because evaluation is
        pure and the RNG state is restored bit-exactly — continues to
        the same result a never-interrupted run produces.
        """
        rng = derive_rng(self.config.seed)
        seed_assignment = self._validate_assignment(tuple(initial))
        instrumentation = self.engine.instrumentation
        resume = (
            checkpointer.load(checkpoint_key)
            if checkpointer is not None
            else None
        )
        with self.engine.session(self._worker_payload()) as session:
            if resume is not None:
                population, best_feasible, history, stall, start_generation = (
                    self._restore(resume, rng, session)
                )
                instrumentation.count("placement.ga_resumes")
                instrumentation.event(
                    "placement.ga_resumed", generation=start_generation
                )
            else:
                population = [self.evaluate(seed_assignment)]
                pending: list[Assignment] = []
                for extra in extra_seeds:
                    if (
                        len(population) + len(pending)
                        >= self.config.population_size
                    ):
                        break
                    pending.append(self._validate_assignment(tuple(extra)))
                while (
                    len(population) + len(pending) < self.config.population_size
                ):
                    pending.append(self._mutate(seed_assignment, rng))
                population.extend(self._evaluate_batch(pending, session))

                best_feasible = self._best_feasible(population)
                history = []
                stall = 0
                start_generation = 0
            # Entry-checked loop (not `for ... break`) so a resume from
            # a checkpoint written at the converged generation stops
            # immediately instead of evolving one extra generation.
            generation = start_generation
            while (
                generation < self.config.max_generations
                and stall < self.config.stall_generations
            ):
                generation += 1
                population = self._next_generation(population, rng, session)
                instrumentation.count("placement.ga_generations")
                history.append(max(member.score for member in population))
                candidate = self._best_feasible(population)
                if candidate is not None and (
                    best_feasible is None or candidate.score > best_feasible.score
                ):
                    best_feasible = candidate
                    stall = 0
                else:
                    stall += 1
                if checkpointer is not None:
                    checkpointer.save(
                        checkpoint_key,
                        self._checkpoint_payload(
                            generation, rng, population, best_feasible,
                            stall, history,
                        ),
                    )

        if best_feasible is None:
            raise PlacementError(
                "genetic search found no feasible assignment; the pool "
                "cannot satisfy the CoS commitments for these workloads"
            )
        return GeneticSearchResult(
            best=best_feasible,
            generations_run=generation,
            evaluations_performed=self._evaluations,
            history=history,
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _checkpoint_payload(
        self,
        generation: int,
        rng: np.random.Generator,
        population: list[EvaluatedAssignment],
        best_feasible: EvaluatedAssignment | None,
        stall: int,
        history: list[float],
    ) -> dict:
        """The JSON-able search state after a completed generation.

        Only *assignments* are persisted, never scores or evaluations —
        those are recomputed on resume by the same pure functions, so a
        corrupted evaluator cache can never be smuggled through a
        checkpoint into a resumed run.
        """
        return {
            "generation": generation,
            "rng_state": rng.bit_generator.state,
            "population": [list(member.assignment) for member in population],
            "best_feasible": (
                list(best_feasible.assignment)
                if best_feasible is not None
                else None
            ),
            "stall": stall,
            "history": list(history),
        }

    def _restore(
        self,
        resume: dict,
        rng: np.random.Generator,
        session: ExecutorSession,
    ) -> tuple[
        list[EvaluatedAssignment],
        EvaluatedAssignment | None,
        list[float],
        int,
        int,
    ]:
        """Rebuild the search state a checkpoint describes.

        The population is re-evaluated in its persisted order (batch
        evaluation preserves order, and the generation loop's sort is
        stable, so ties break identically to the original run) and the
        RNG is restored bit-exactly, making the continuation
        indistinguishable from one that never stopped.

        Every restored assignment passes through
        :meth:`_validate_assignment` (inside the evaluation calls), so
        a checkpoint written against a different workload ensemble or
        pool shape fails loudly here instead of seeding the search with
        out-of-range state.
        """
        try:
            population = self._evaluate_batch(
                [tuple(member) for member in resume["population"]], session
            )
            best_feasible = (
                self.evaluate(tuple(resume["best_feasible"]))
                if resume["best_feasible"] is not None
                else None
            )
            history = [float(score) for score in resume["history"]]
            stall = int(resume["stall"])
            start_generation = int(resume["generation"])
            rng.bit_generator.state = resume["rng_state"]
        except (KeyError, TypeError, ValueError, PlacementError) as error:
            raise PlacementError(
                f"genetic-search checkpoint is not restorable: {error!r}; "
                "it likely belongs to a different planning problem — "
                "delete the checkpoint directory to restart the search"
            ) from error
        return population, best_feasible, history, stall, start_generation

    def evaluate(self, assignment: Assignment) -> EvaluatedAssignment:
        """Score one assignment (cached per server-content subset)."""
        assignment = self._validate_assignment(assignment)
        groups: dict[int, list[int]] = {}
        for workload_index, server_index in enumerate(assignment):
            groups.setdefault(server_index, []).append(workload_index)
        evaluations = self._evaluate_used_servers(groups)
        score = 0.0
        feasible = True
        for server_index, server in enumerate(self.servers):
            indices = groups.get(server_index, [])
            if not indices:
                score += 1.0
                continue
            evaluation = evaluations[server_index]
            self._evaluations += 1
            required = evaluation.required if evaluation.fits else None
            score += server_score(server, len(indices), required, self.attribute)
            feasible = feasible and evaluation.fits
        if self._constraint_index is not None:
            score -= self._constraint_index.penalty(assignment)
        return EvaluatedAssignment(
            assignment=assignment,
            score=score,
            evaluations=evaluations,
            feasible=feasible,
        )

    def _evaluate_used_servers(
        self, groups: dict[int, list[int]]
    ) -> dict[int, ServerEvaluation]:
        """Evaluate every used server's group, as one batch if possible.

        An evaluator exposing ``evaluate_groups`` takes all of an
        assignment's server groups in one call; composite evaluators
        fall back to per-group calls. Results are identical either way.
        """
        used = sorted(server_index for server_index in groups if groups[server_index])
        batch_evaluate = getattr(self.evaluator, "evaluate_groups", None)
        if batch_evaluate is not None:
            evaluations = batch_evaluate(
                [
                    (
                        self.servers[server_index].capacity_of(self.attribute),
                        groups[server_index],
                    )
                    for server_index in used
                ]
            )
        else:
            evaluations = [
                self.evaluator.evaluate_group(
                    groups[server_index],
                    self.servers[server_index],
                    self.attribute,
                )
                for server_index in used
            ]
        return dict(zip(used, evaluations))

    # ------------------------------------------------------------------
    # Fanned-out evaluation through the execution engine
    # ------------------------------------------------------------------
    def _worker_payload(self):
        """The broadcastable evaluator state, when the evaluator has one.

        Composite (multi-attribute) evaluators do not expose a payload;
        batches then evaluate inline in the driver, which keeps the
        search correct (just not parallel) for them.
        """
        payload_factory = getattr(self.evaluator, "worker_payload", None)
        return payload_factory() if payload_factory is not None else None

    def _evaluate_batch(
        self,
        assignments: Sequence[Assignment],
        session: ExecutorSession,
    ) -> list[EvaluatedAssignment]:
        """Evaluate assignments, fanning uncached subsets out first.

        Workers compute only the (server capacity, workload subset)
        groups missing from the driver cache — the whole generation's
        missing subsets, split into one chunk per worker — and their
        results are merged back via :meth:`PlacementEvaluator.install`
        before the ordinary cached evaluation path scores each
        assignment. Results are bit-identical to evaluating one by one.
        """
        validated = [self._validate_assignment(tuple(a)) for a in assignments]
        self._prime_cache(validated, session)
        return [self.evaluate(assignment) for assignment in validated]

    def _prime_cache(
        self,
        assignments: Sequence[Assignment],
        session: ExecutorSession,
    ) -> None:
        if not (
            hasattr(self.evaluator, "cache_key")
            and hasattr(self.evaluator, "install")
            and self._worker_payload() is not None
        ):
            return
        pending: dict[GroupKey, None] = {}
        for assignment in assignments:
            groups: dict[int, list[int]] = {}
            for workload_index, server_index in enumerate(assignment):
                groups.setdefault(server_index, []).append(workload_index)
            for server_index, indices in groups.items():
                server = self.servers[server_index]
                key = self.evaluator.cache_key(indices, server, self.attribute)
                if not self.evaluator.is_cached(key):
                    pending[key] = None
        if not pending:
            return
        keys = list(pending)
        parallelism = max(1, int(getattr(session, "parallelism", 1)))
        chunks = split_chunks(keys, min(len(keys), parallelism))
        cursor = 0
        for evaluations in session.map(evaluate_groups_worker, chunks):
            for evaluation in evaluations:
                self.evaluator.install(keys[cursor], evaluation)
                cursor += 1
        instrumentation = self.engine.instrumentation
        instrumentation.count("kernel.rows", len(keys))
        instrumentation.count("placement.group_evaluations", len(keys))

    # ------------------------------------------------------------------
    # Evolution operators
    # ------------------------------------------------------------------
    def _next_generation(
        self,
        population: list[EvaluatedAssignment],
        rng: np.random.Generator,
        session: ExecutorSession,
    ) -> list[EvaluatedAssignment]:
        population = sorted(population, key=lambda member: member.score, reverse=True)
        next_population = population[: self.config.elite_count]
        children: list[Assignment] = []
        while len(next_population) + len(children) < self.config.population_size:
            parent_a = self._tournament(population, rng)
            if rng.random() < self.config.crossover_probability:
                parent_b = self._tournament(population, rng)
                child = self._crossover(
                    parent_a.assignment, parent_b.assignment, rng
                )
            else:
                child = parent_a.assignment
            if rng.random() < self.config.mutation_probability:
                child = self._mutate(child, rng)
            children.append(child)
        next_population.extend(self._evaluate_batch(children, session))
        return next_population

    def _tournament(
        self,
        population: list[EvaluatedAssignment],
        rng: np.random.Generator,
        size: int = 3,
    ) -> EvaluatedAssignment:
        contenders = rng.integers(0, len(population), size=size)
        return max(
            (population[int(index)] for index in contenders),
            key=lambda member: member.score,
        )

    def _crossover(
        self, parent_a: Assignment, parent_b: Assignment, rng: np.random.Generator
    ) -> Assignment:
        """Take each workload's server from one parent or the other."""
        take_from_a = rng.random(len(parent_a)) < 0.5
        return tuple(
            parent_a[index] if take_from_a[index] else parent_b[index]
            for index in range(len(parent_a))
        )

    def _mutate(self, assignment: Assignment, rng: np.random.Generator) -> Assignment:
        """Empty a poorly utilised server onto the other used servers.

        The victim server is drawn with probability proportional to
        ``1 - f(U)`` across used servers (the paper's mutation bias); its
        workloads are scattered over the remaining used servers, or a
        random server when none remain.
        """
        used = sorted(set(assignment))
        if not used:
            return assignment
        groups: dict[int, list[int]] = {}
        for workload_index, server_index in enumerate(assignment):
            groups.setdefault(server_index, []).append(workload_index)
        evaluations = self._evaluate_used_servers(groups)
        weights = np.array(
            [
                1.0 - self._utilization_weight(evaluations[server_index], server_index)
                for server_index in used
            ]
        )
        weights = np.clip(weights, 1e-6, None)
        victim = int(rng.choice(used, p=weights / weights.sum()))
        targets = [server_index for server_index in used if server_index != victim]
        if not targets:
            targets = [
                index for index in range(len(self.servers)) if index != victim
            ]
        if not targets:
            return assignment
        mutated = list(assignment)
        for workload_index, server_index in enumerate(assignment):
            if server_index == victim:
                mutated[workload_index] = int(
                    targets[int(rng.integers(0, len(targets)))]
                )
        return tuple(mutated)

    def _utilization_weight(
        self, evaluation: ServerEvaluation, server_index: int
    ) -> float:
        if not evaluation.fits:
            return 0.0
        return float(
            min(1.0, evaluation.utilization)
            ** (2 * self.servers[server_index].cpus)
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _best_feasible(
        self, population: list[EvaluatedAssignment]
    ) -> EvaluatedAssignment | None:
        feasible = [member for member in population if member.feasible]
        if not feasible:
            return None
        return max(feasible, key=lambda member: member.score)

    def _validate_assignment(self, assignment: Assignment) -> Assignment:
        if len(assignment) != self.evaluator.n_workloads:
            raise PlacementError(
                f"assignment covers {len(assignment)} workloads, expected "
                f"{self.evaluator.n_workloads}"
            )
        for server_index in assignment:
            if not 0 <= server_index < len(self.servers):
                raise PlacementError(
                    f"server index {server_index} out of range "
                    f"[0, {len(self.servers)})"
                )
        return tuple(int(server_index) for server_index in assignment)
