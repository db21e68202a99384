"""Generic NSGA-II engine over bounded integer vectors.

The engine is independent of the federated problem: it needs per-coordinate
bounds, an objective direction per objective (+1 minimize, -1 maximize), and
a batch evaluator. Objective values must not be NaN: the sort, the archive
and the hypervolume raise ValueError on one; ±inf is ordered as usual.
Operators draw from a single sequential random stream, so a fixed seed
reproduces a run exactly regardless of how the evaluator parallelizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .metrics import dominated_by, hypervolume, pareto_filter

Vector = tuple[int, ...]
BatchEvaluator = Callable[[list[Vector], int], list[tuple[float, ...]]]
Fronts = tuple[tuple[int, ...], ...]

MINIMIZE = 1
MAXIMIZE = -1


@dataclass
class Individual:
    genome: Vector
    objectives: tuple[float, ...] | None = None
    rank: int | None = None
    crowding: float = 0.0


@dataclass(frozen=True)
class SearchParams:
    population_size: int
    generations: int
    bounds: tuple[tuple[int, int], ...]
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # defaults to 1 / dimension
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def effective_mutation_prob(self) -> float:
        return 1.0 / self.dimension if self.mutation_prob is None else self.mutation_prob


def non_dominated_sort(objectives: Sequence[tuple[float, ...]], directions: Sequence[int]) -> Fronts:
    """Population indices in fronts of increasing rank, each front ascending.
    A front is every remaining point that no remaining point dominates."""
    n = len(objectives)
    arr = np.asarray(objectives, np.float64).reshape(n, len(directions)) * np.asarray(directions)
    dominated = dominated_by(arr)
    count = dominated.sum(axis=1)
    done = np.zeros(n, bool)
    fronts = []
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(tuple(front.tolist()))
        done[front] = True
        count -= dominated[:, front].sum(axis=1)
        front = np.flatnonzero((count == 0) & ~done)
    return tuple(fronts)


def crowding_distance(front_objectives: list[tuple[float, ...]]) -> list[float]:
    """Per-member crowding: normalized gap to the neighbours in each objective,
    infinity at the boundaries; objectives with zero range contribute nothing."""
    n = len(front_objectives)
    if n == 0:
        return []
    distances = [0.0] * n
    n_obj = len(front_objectives[0])
    for k in range(n_obj):
        values = [o[k] for o in front_objectives]
        order = sorted(range(n), key=lambda i: values[i])
        span = values[order[-1]] - values[order[0]]
        if span == 0:
            continue
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        for pos in range(1, n - 1):
            i = order[pos]
            if distances[i] != math.inf:
                distances[i] += (values[order[pos + 1]] - values[order[pos - 1]]) / span
    return distances


def _crowded_better(a: Individual, b: Individual, rng: np.random.Generator) -> bool:
    if a.rank != b.rank:
        return a.rank < b.rank
    if a.crowding != b.crowding:
        return a.crowding > b.crowding
    return rng.random() < 0.5


def binary_tournament(population: list[Individual], n_pairs: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """n_pairs parent pairs; each parent wins a 2-way tournament between two
    distinct uniform draws, decided by rank, then crowding, then a coin."""
    pairs = []
    for _ in range(n_pairs):
        parents = []
        for _ in range(2):
            i, j = rng.choice(len(population), size=2, replace=False)
            winner = i if _crowded_better(population[i], population[j], rng) else j
            parents.append(int(winner))
        pairs.append((parents[0], parents[1]))
    return pairs


def single_point_crossover(
    a: Vector, b: Vector, rng: np.random.Generator, crossover_prob: float
) -> tuple[Vector, Vector]:
    """Swap the tails at a uniform switching point in [1, d-1] with probability
    crossover_prob; otherwise return copies. Coordinates are exchanged, never blended."""
    if len(a) != len(b):
        raise ValueError("parents must have equal length")
    d = len(a)
    if d >= 2 and rng.random() < crossover_prob:
        omega = int(rng.integers(1, d))
        return a[:omega] + b[omega:], b[:omega] + a[omega:]
    return tuple(a), tuple(b)


def uniform_mutation(
    vec: Vector, bounds: Sequence[tuple[int, int]], rng: np.random.Generator, mutation_prob: float
) -> Vector:
    """Independently replace each coordinate, with probability mutation_prob,
    by a uniform integer from its own closed range."""
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    mask = rng.random(len(vec)) < mutation_prob
    draws = rng.integers(lows, highs + 1)
    return tuple(int(d) if m else int(v) for v, d, m in zip(vec, draws, mask))


def assign_ranks_and_crowding(population: list[Individual], directions: Sequence[int]) -> Fronts:
    objs = [ind.objectives for ind in population]
    fronts = non_dominated_sort(objs, directions)
    for rank, front in enumerate(fronts, start=1):
        dists = crowding_distance([objs[i] for i in front])
        for i, dist in zip(front, dists):
            population[i].rank = rank
            population[i].crowding = dist
    return fronts


def replacement(parents: list[Individual], offspring: list[Individual], directions: Sequence[int]) -> list[Individual]:
    """Elitist survivor selection over parents + offspring: whole fronts by
    ascending rank, the overflowing front truncated by descending crowding."""
    union = parents + offspring
    target = len(parents)
    objs = [ind.objectives for ind in union]
    survivors: list[Individual] = []
    for front in non_dominated_sort(objs, directions):
        dists = crowding_distance([objs[i] for i in front])
        if len(survivors) + len(front) <= target:
            survivors.extend(union[i] for i in front)
        else:
            order = sorted(range(len(front)), key=lambda p: -dists[p])
            survivors.extend(union[front[p]] for p in order[: target - len(survivors)])
            break
    return survivors


@dataclass
class GenerationRecord:
    generation: int
    front: list[tuple[tuple[float, ...], Vector]]
    hv_front: float
    hv_archive: float
    evaluations: int


@dataclass
class SearchResult:
    population: list[Individual]
    history: list[GenerationRecord]
    archive: list[tuple[tuple[float, ...], Vector, int]]
    evaluations: int


def _hv_in_box(points, directions, reference) -> float:
    # map to the (minimize, maximize) convention of metrics.hypervolume
    d0, d1 = directions
    mapped = [(d0 * p[0], -d1 * p[1]) for p in points]
    return hypervolume(mapped, (d0 * reference[0], -d1 * reference[1]))


def run(
    evaluate: BatchEvaluator,
    params: SearchParams,
    directions: Sequence[int] = (MINIMIZE, MAXIMIZE),
    hv_reference: tuple[float, float] | None = None,
) -> SearchResult:
    """Full NSGA-II loop: evaluate a random population, then per generation
    select, cross, mutate, evaluate, and apply elitist replacement.

    History records each generation's first front and, when hv_reference is
    given, the hypervolume of that front and of the running archive of all
    non-dominated points seen so far.
    """
    rng = np.random.default_rng(params.seed)
    lows = np.array([lo for lo, _ in params.bounds])
    highs = np.array([hi for _, hi in params.bounds])

    population = [
        Individual(tuple(int(v) for v in rng.integers(lows, highs + 1)))
        for _ in range(params.population_size)
    ]
    evaluations = 0
    archive: list[tuple[tuple[float, ...], Vector, int]] = []
    history: list[GenerationRecord] = []

    def eval_all(individuals: list[Individual], generation: int) -> None:
        nonlocal evaluations
        results = evaluate([ind.genome for ind in individuals], generation)
        for ind, objs in zip(individuals, results):
            ind.objectives = tuple(float(v) for v in objs)
        evaluations += len(individuals)

    def update_archive(individuals: list[Individual], generation: int) -> None:
        merged = archive + [(ind.objectives, ind.genome, generation) for ind in individuals]
        keep = pareto_filter([m[0] for m in merged], directions)
        seen: set[tuple] = set()
        fresh = []
        for i in keep:
            key = (merged[i][0], merged[i][1])
            if key not in seen:
                seen.add(key)
                fresh.append(merged[i])
        archive[:] = fresh

    def record(generation: int) -> None:
        first = min(ind.rank for ind in population)
        front = [(ind.objectives, ind.genome) for ind in population if ind.rank == first]
        hv_front = hv_archive = 0.0
        if hv_reference is not None:
            hv_front = _hv_in_box([f[0] for f in front], directions, hv_reference)
            hv_archive = _hv_in_box([a[0] for a in archive], directions, hv_reference)
        history.append(GenerationRecord(generation, front, hv_front, hv_archive, evaluations))

    eval_all(population, 0)
    update_archive(population, 0)
    assign_ranks_and_crowding(population, directions)
    record(0)

    for generation in range(1, params.generations + 1):
        pairs = binary_tournament(population, params.population_size // 2, rng)
        offspring: list[Individual] = []
        for i, j in pairs:
            child_a, child_b = single_point_crossover(
                population[i].genome, population[j].genome, rng, params.crossover_prob
            )
            for child in (child_a, child_b):
                mutated = uniform_mutation(child, params.bounds, rng, params.effective_mutation_prob)
                offspring.append(Individual(mutated))
        eval_all(offspring, generation)
        update_archive(offspring, generation)
        population = replacement(population, offspring, directions)
        assign_ranks_and_crowding(population, directions)
        record(generation)

    return SearchResult(population, history, archive, evaluations)
