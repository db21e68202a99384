"""Generic NSGA-II engine over bounded integer vectors.

The engine is independent of the federated problem: it needs per-coordinate
bounds, an objective direction per objective (+1 minimize, -1 maximize), and
a batch evaluator that returns one result per genome, each with one value
per objective, or run raises ValueError. Objective values must not be NaN:
the sort, the archive and the hypervolume raise ValueError on one; ±inf is
ordered as usual.
Operators draw from a single sequential random stream, so a fixed seed
reproduces a run exactly regardless of how the evaluator parallelizes.

The stream is `np.random.default_rng(seed)`'s draws, replayed in Python from
the raw 64-bit words of PCG64 seeded with `seed` under numpy's draw rules:
`random()` is the next word's top 53 bits times 2**-53; a 32-bit draw is a
word's low half, its high half kept for the next 32-bit draw (a 64-bit draw
never touches it); `integers(low, high)` is Lemire's multiply-shift with
numpy's rejection threshold, on a 32-bit draw when high - low - 1 < 2**32,
and no draw at all when high - low is 1.
So a campaign's bytes rest on PCG64's output, which numpy keeps stable, and
not on how `Generator` methods turn it into draws, which NEP 19 lets change.
The operators call only `random()` and `integers(low, high)`, so they make
the same draws from a real `Generator`.

Each generation runs one non-dominated sort: `replacement` sorts parents plus
offspring, and the sort stops peeling at the first front that fills the
population, as no later front could be kept. `replacement` sets the rank and
crowding of each survivor as it keeps it.
The history holds what the search knows: each generation's first front and
archive volume. Whoever writes it derives the rest: gen, evals, front volume.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .metrics import GenerationRecord, dominated_by, hypervolume, pareto_filter

Vector = tuple[int, ...]
BatchEvaluator = Callable[[list[Vector], int], list[tuple[float, ...]]]
Fronts = tuple[tuple[int, ...], ...]

MINIMIZE = 1
MAXIMIZE = -1
CROSSOVER_PROB = 0.9  # the paper's value; mutation is 1 / dimension, set in run


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
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not self.bounds:
            raise ValueError("bounds need at least one coordinate")
        for k, (lo, hi) in enumerate(self.bounds):
            try:
                # numpy integers pass; a float such as 1.5 is not truncated
                lo, hi = operator.index(lo), operator.index(hi)
            except TypeError:
                raise ValueError(f"bounds ({lo!r}, {hi!r}) of coordinate {k} must be integers") from None
            if not 0 <= hi - lo < 2**64:
                raise ValueError(f"bounds ({lo}, {hi}) of coordinate {k} need lo <= hi < lo + 2**64")

    @property
    def dimension(self) -> int:
        return len(self.bounds)


def non_dominated_sort(
    objectives: Sequence[tuple[float, ...]], directions: Sequence[int], needed: int | None = None
) -> Fronts:
    """Population indices in fronts of increasing rank, each front ascending.
    A front is every remaining point that no remaining point dominates.
    With `needed`, peeling stops at the first front that brings the fronts
    returned to at least `needed` points: the shortest prefix of the full
    sort that holds that many. None returns every front."""
    n = len(objectives)
    arr = np.asarray(objectives, np.float64).reshape(n, len(directions)) * np.asarray(directions)
    dominated = dominated_by(arr)
    count = dominated.sum(axis=1)
    done = np.zeros(n, bool)
    fronts = []
    peeled, needed = 0, n if needed is None else needed
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(tuple(front.tolist()))
        peeled += front.size
        if peeled >= needed:
            break
        done[front] = True
        count -= dominated[:, front].sum(axis=1)
        front = np.flatnonzero((count == 0) & ~done)
    return tuple(fronts)


def crowding_distance(front_objectives: list[tuple[float, ...]]) -> list[float]:
    """Per-member crowding: normalized gap to the neighbours in each objective,
    infinity at the boundaries; objectives with zero range contribute nothing.
    An objective whose range is not finite (an infinite extreme, or a span
    that overflows) marks its two boundary members infinite and adds nothing
    else, so no member's crowding is NaN."""
    n = len(front_objectives)
    if n == 0:
        return []
    distances = [0.0] * n
    n_obj = len(front_objectives[0])
    for k in range(n_obj):
        values = [o[k] for o in front_objectives]
        order = sorted(range(n), key=values.__getitem__)
        lo, hi = values[order[0]], values[order[-1]]
        if lo == hi:
            continue
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        span = hi - lo
        if not math.isfinite(span):
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if distances[i] != math.inf:
                distances[i] += (values[order[pos + 1]] - values[order[pos - 1]]) / span
    return distances


_WORDS_PER_READ = 1024
_MASK32 = 2**32 - 1


class _Stream:
    """The scalar `random()` and `integers(low, high)` draws of
    `np.random.default_rng(seed)`, replayed from PCG64's words (see the module
    docstring). Bounds are Python ints with 0 <= high - low - 1 < 2**64."""

    __slots__ = ("_word", "_half")

    def __init__(self, seed: int):
        self._word = _words(np.random.PCG64(seed)).__next__
        self._half = None  # the high half of the last 32-bit draw's word, until drawn

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def integers(self, low: int, high: int) -> int:
        # numpy returns a whole 32-bit draw at r = 2**32 - 1 and a whole word
        # at r = 2**64 - 1; Lemire's form gives just that there, with no rejection
        r = high - low - 1
        if r == 0:
            return low
        if r > _MASK32:
            return low + _lemire(self._word, r, 64)
        # _lemire(self._uint32, r, 32), written out: nearly every draw of a
        # search takes this path, and most take no rejection branch
        n = r + 1
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            m = (word & _MASK32) * n
        else:
            self._half = None
            m = half * n
        if m & _MASK32 < n:
            threshold = (_MASK32 - r) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return low + (m >> 32)


def _words(bitgen: np.random.PCG64):
    while True:
        yield from bitgen.random_raw(_WORDS_PER_READ).tolist()


def _lemire(draw: Callable[[], int], r: int, bits: int) -> int:
    """A uniform integer in [0, r] from bits-wide draws, as numpy bounds one:
    the high bits of draw * (r + 1), drawn again while the low bits fall
    below (2**bits - 1 - r) mod (r + 1)."""
    n, mask = r + 1, (1 << bits) - 1
    m = draw() * n
    if m & mask < n:
        threshold = (mask - r) % n
        while m & mask < threshold:
            m = draw() * n
    return m >> bits


def _crowded_better(a: Individual, b: Individual, rng: np.random.Generator | _Stream) -> bool:
    if a.rank != b.rank:
        return a.rank < b.rank
    if a.crowding != b.crowding:
        return a.crowding > b.crowding
    return rng.random() < 0.5


def _distinct_pair(n: int, rng: np.random.Generator | _Stream) -> tuple[int, int]:
    """`rng.choice(n, size=2, replace=False)` written out as numpy draws it:
    Floyd's sampler, a in [0, n - 2] then b in [0, n - 1] (n - 1 if b == a),
    then a shuffle of the pair, which gives (b, a) when its draw in [0, 1] is 0."""
    a = rng.integers(0, n - 1)
    b = rng.integers(0, n)
    if b == a:
        b = n - 1
    return (b, a) if rng.integers(0, 2) == 0 else (a, b)


def binary_tournament(
    population: list[Individual], n_pairs: int, rng: np.random.Generator | _Stream
) -> list[tuple[int, int]]:
    """n_pairs parent pairs; each parent wins a 2-way tournament between two
    distinct uniform draws, decided by rank, then crowding, then a coin."""
    pairs = []
    for _ in range(n_pairs):
        parents = []
        for _ in range(2):
            i, j = _distinct_pair(len(population), rng)
            winner = i if _crowded_better(population[i], population[j], rng) else j
            parents.append(int(winner))
        pairs.append((parents[0], parents[1]))
    return pairs


def single_point_crossover(
    a: Vector, b: Vector, rng: np.random.Generator | _Stream, crossover_prob: float
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
    vec: Vector, bounds: Sequence[tuple[int, int]], rng: np.random.Generator | _Stream, mutation_prob: float
) -> Vector:
    """Independently replace each coordinate, with probability mutation_prob,
    by a uniform integer from its own closed range. Every coordinate draws its
    coin first, then every coordinate its integer, whether it mutates or not."""
    random, integers = rng.random, rng.integers
    mutate = [random() < mutation_prob for _ in vec]
    draws = [integers(lo, hi + 1) for lo, hi in bounds]
    return tuple(int(d) if m else v for v, d, m in zip(vec, draws, mutate, strict=True))


def replacement(parents: list[Individual], offspring: list[Individual], directions: Sequence[int]) -> list[Individual]:
    """Elitist survivor selection over parents + offspring: whole fronts by
    ascending rank, the overflowing front truncated by descending crowding.

    Sets each survivor's rank and crowding: a whole front keeps the crowding
    of the union's sort, and the kept part of the truncated front is crowded
    again among itself, in descending-crowding order. That equals sorting the
    survivors anew, as every dropped point lies behind a whole kept front.
    With no offspring, the parents are ranked in place and keep their order.
    """
    union = parents + offspring
    room = len(parents)
    objs = [ind.objectives for ind in union]
    survivors: list[Individual] = []
    for rank, front in enumerate(non_dominated_sort(objs, directions, room), start=1):
        dists = crowding_distance([objs[i] for i in front])
        if len(front) > room:
            order = sorted(range(len(front)), key=lambda p: -dists[p])
            front = [front[p] for p in order[:room]]
            dists = crowding_distance([objs[i] for i in front])
        for i, dist in zip(front, dists):
            union[i].rank = rank
            union[i].crowding = dist
            survivors.append(union[i])
        room -= len(front)
        if room == 0:
            break
    return survivors


class Archive:
    """Every non-dominated point seen so far: `entries` maps (objectives, genome) to its generation.

    `update` compares only the new points whose key is not a member's: they
    are filtered against each other and against the archive, and the archive
    members a surviving new point dominates are dropped. A point whose key is
    a member's has that member's objectives, so leaving it out changes
    nothing: no member dominates it, it dominates no member, any point it
    dominates that member dominates too, and it would not be added again. The
    archive is already mutually non-dominated, so by transitivity of
    dominance this equals filtering the archive and the new points together,
    and no two archive members are ever compared. The order is the same too:
    archive first, then new points in batch order, the first copy of an
    (objectives, genome) key kept.
    """

    def __init__(self, directions: Sequence[int]):
        self.entries: dict[tuple[tuple[float, ...], Vector], int] = {}
        self.objectives = np.empty((0, len(directions)))  # one row per entry
        self._sign = np.asarray(directions, np.float64)

    def update(self, points: Sequence[tuple[tuple[float, ...], Vector]], generation: int) -> None:
        """Add the non-dominated ones of these (objectives, genome) points."""
        keys = [(p[0], p[1]) for p in points]
        unknown = [key for key in keys if key not in self.entries]
        objs = np.asarray([key[0] for key in unknown], np.float64).reshape(len(unknown), len(self._sign))
        fresh = np.asarray(pareto_filter(objs, self._sign), np.int64)
        old, new = self.objectives * self._sign, objs[fresh] * self._sign
        new_kept = ~dominated_by(old, new).any(axis=1)
        fresh, new = fresh[new_kept], new[new_kept]
        # the members a new point dominates, with the few new points as rows:
        # under reversed directions, such a member dominates that point
        old_kept = ~dominated_by(-old, -new).any(axis=0)
        gone = np.flatnonzero(~old_kept).tolist()
        if gone:
            # del keeps the order and hashes only the keys that leave
            members = list(self.entries)
            for position in gone:
                del self.entries[members[position]]
        added = []
        for row, i in enumerate(fresh.tolist()):
            if unknown[i] not in self.entries:
                self.entries[unknown[i]] = generation
                added.append(row)
        if gone or added:
            self.objectives = np.concatenate([self.objectives[old_kept], objs[fresh[added]]])


@dataclass
class SearchResult:
    population: list[Individual]
    history: list[GenerationRecord]
    archive: list[tuple[tuple[float, ...], Vector, int]]
    evaluations: int


def _hv_in_box(objectives: np.ndarray, directions, reference) -> float:
    # map to the (minimize, maximize) convention of metrics.hypervolume
    d0, d1 = directions
    return hypervolume(objectives * (d0, -d1), (d0 * reference[0], -d1 * reference[1]))


def run(
    evaluate: BatchEvaluator,
    params: SearchParams,
    directions: Sequence[int] = (MINIMIZE, MAXIMIZE),
    hv_reference: tuple[float, float] | None = None,
) -> SearchResult:
    """Full NSGA-II loop: evaluate a random population, then per generation
    select, cross, mutate, evaluate, and apply elitist replacement.

    History holds one record per generation, generation g at index g: its
    first front and, when hv_reference is given (else 0.0), the hypervolume
    of the running archive of all non-dominated points seen so far. The
    archive takes each generation's new points incrementally (see Archive):
    its members are never compared again. The result lists its entries as
    (objectives, genome, generation) tuples, in archive order.

    Before it draws or evaluates anything, run raises ValueError unless
    directions holds one or more of MINIMIZE and MAXIMIZE, and, with an
    hv_reference, exactly two of them and two reference values. Each
    result must hold one value per direction, or run raises ValueError
    naming the generation and the genome.
    """
    if len(directions) == 0 or any(d not in (MINIMIZE, MAXIMIZE) for d in directions):
        raise ValueError(f"directions must be one or more of {MINIMIZE} (minimize) and {MAXIMIZE} (maximize),"
                         f" got {tuple(directions)!r}")
    if hv_reference is not None and (len(directions) != 2 or len(hv_reference) != 2):
        raise ValueError(f"hv_reference needs two objectives and two reference values,"
                         f" got {len(directions)} directions and {tuple(hv_reference)!r}")
    rng = _Stream(params.seed)
    bounds = [(int(lo), int(hi)) for lo, hi in params.bounds]  # the stream's arithmetic is on Python ints
    mutation_prob = 1 / params.dimension

    population = [
        Individual(tuple(int(rng.integers(lo, hi + 1)) for lo, hi in bounds)) for _ in range(params.population_size)
    ]
    archive = Archive(directions)
    history: list[GenerationRecord] = []

    def score(individuals: list[Individual], generation: int) -> None:
        results = evaluate([ind.genome for ind in individuals], generation)
        if len(results) != len(individuals):
            raise ValueError(f"evaluate returned {len(results)} results for {len(individuals)} genomes")
        for index, (ind, objs) in enumerate(zip(individuals, results)):
            ind.objectives = tuple(map(float, objs))
            if len(ind.objectives) != len(directions):
                raise ValueError(f"generation {generation}: the result for genome {index} holds"
                                 f" {len(ind.objectives)} values, not {len(directions)}, one per direction")
        archive.update([(ind.objectives, ind.genome) for ind in individuals], generation)

    def record() -> None:
        front = [(ind.objectives, ind.genome) for ind in population if ind.rank == 1]
        hv_archive = 0.0 if hv_reference is None else _hv_in_box(archive.objectives, directions, hv_reference)
        history.append(GenerationRecord(front, hv_archive))

    score(population, 0)
    replacement(population, [], directions)  # ranks in place; the list order feeds the tournament
    record()

    for generation in range(1, params.generations + 1):
        pairs = binary_tournament(population, params.population_size // 2, rng)
        offspring: list[Individual] = []
        for i, j in pairs:
            child_a, child_b = single_point_crossover(population[i].genome, population[j].genome, rng, CROSSOVER_PROB)
            for child in (child_a, child_b):
                mutated = uniform_mutation(child, bounds, rng, mutation_prob)
                offspring.append(Individual(mutated))
        score(offspring, generation)
        population = replacement(population, offspring, directions)
        record()

    entries = [(*key, generation) for key, generation in archive.entries.items()]
    return SearchResult(population, history, entries, params.population_size * (params.generations + 1))
