import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcop import metrics, nsga2
from flcop.metrics import pareto_filter
from conftest import bounds_loop_mutation, choice_tournament, dominates, pair_loop_sort, refilter_archive, resort_replacement

MIN_MAX = (1, -1)


def test_dominates_cases():
    cases = [
        ((0.1, 0.95), (0.2, 0.90), True),
        ((0.1, 0.90), (0.2, 0.95), False),
        ((0.2, 0.95), (0.1, 0.90), False),
        ((0.3, 0.5), (0.3, 0.5), False),
        ((0.3, 0.6), (0.3, 0.5), True),
    ]
    for a, b, expected in cases:
        assert dominates(a, b, MIN_MAX) == expected
        # the kernel's entry [r, j] says that point j dominates row r
        assert metrics.dominated_by(np.array([b, a]) * MIN_MAX)[0, 1] == expected


def _oracle_fronts(objectives, directions):
    """Dominance-counting front extraction, quadratic and independent."""
    remaining = set(range(len(objectives)))
    fronts = []
    while remaining:
        front = sorted(
            i
            for i in remaining
            if not any(dominates(objectives[j], objectives[i], directions) for j in remaining)
        )
        fronts.append(tuple(front))
        remaining -= set(front)
    return tuple(fronts)


def test_sort_examples():
    fs = nsga2.non_dominated_sort([(0.1, 0.9), (0.2, 0.95), (0.3, 0.8)], MIN_MAX)
    assert fs == ((0, 1), (2,))
    fs = nsga2.non_dominated_sort([(0.5, 0.5)] * 5, MIN_MAX)
    assert fs == ((0, 1, 2, 3, 4),)
    fs = nsga2.non_dominated_sort([(0.1, 0.9), (0.2, 0.8), (0.3, 0.7)], MIN_MAX)
    assert fs == ((0,), (1,), (2,))


def test_sort_matches_oracle_on_random_populations():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        objs = [tuple(rng.random(2)) for _ in range(n)]
        if rng.random() < 0.5:  # force ties sometimes
            objs += objs[: n // 3]
        got = nsga2.non_dominated_sort(objs, MIN_MAX)
        assert got == _oracle_fronts(objs, MIN_MAX)


# few distinct values, so ties between points are the rule, plus the values
# whose order is easiest to get wrong: signed zeros and infinities
_TIE_HEAVY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf])
# from this many points on, pareto_filter splits its rows into blocks
_FIRST_BLOCKED = math.isqrt(metrics._BLOCK_ENTRIES) + 1


@st.composite
def _populations(draw):
    """(objectives, directions): 0-400 points of 1-3 objectives whose
    coordinates come from a small palette of tie-heavy and arbitrary finite
    values, under any sign combination of directions."""
    d = draw(st.integers(1, 3))
    directions = draw(st.tuples(*[st.sampled_from([1, -1])] * d))
    n = draw(st.one_of(st.integers(0, 400), st.integers(_FIRST_BLOCKED, 400)))
    values = st.one_of(_TIE_HEAVY, st.floats(allow_nan=False, allow_infinity=False))
    palette = draw(st.lists(values, min_size=1, max_size=40))
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=n * d, max_size=n * d))
    objectives = [tuple(palette[k] for k in picks[i * d : (i + 1) * d]) for i in range(n)]
    return objectives, directions


@settings(max_examples=60, deadline=None)
@given(case=_populations())
def test_sort_matches_pair_loop_oracle(case):
    objectives, directions = case
    assert nsga2.non_dominated_sort(objectives, directions) == pair_loop_sort(objectives, directions)


@settings(max_examples=60, deadline=None)
@given(case=_populations())
def test_sort_stops_at_the_first_front_that_holds_needed(case):
    objectives, directions = case
    full = pair_loop_sort(objectives, directions)
    # the shortest prefix of the full sort whose fronts hold `needed` points
    # is its first `length` fronts for every needed in (start, total]: both
    # ends of each such range are checked
    start = 0
    for length, total in enumerate(itertools.accumulate(len(front) for front in full), start=1):
        for needed in {start + 1, total}:
            assert nsga2.non_dominated_sort(objectives, directions, needed) == full[:length]
        start = total
    assert nsga2.non_dominated_sort(objectives, directions, None) == full


@settings(max_examples=60, deadline=None)
@given(case=_populations())
def test_pareto_filter_matches_pairwise_oracle(case):
    objectives, directions = case
    expected = [
        i for i, p in enumerate(objectives)
        if not any(dominates(q, p, directions) for q in objectives)
    ]
    assert pareto_filter(objectives, directions) == expected


@settings(max_examples=60, deadline=None)
@given(case=_populations(), data=st.data())
def test_dominated_by_block_equals_rows_of_full_matrix(case, data):
    objectives, directions = case
    arr = np.asarray(objectives, np.float64).reshape(len(objectives), len(directions)) * np.asarray(directions)
    rows = data.draw(st.lists(st.integers(0, max(0, len(arr) - 1)), max_size=len(arr)))
    full = metrics.dominated_by(arr)
    assert np.array_equal(metrics.dominated_by(arr, arr[rows]), full[rows])


@st.composite
def _archive_batches(draw):
    """(directions, batches): 1-5 batches of 0-120 (objectives, genome)
    points over a small tie-heavy palette with signed zeros and infinities,
    whose genomes and whole (objectives, genome) keys repeat."""
    d = draw(st.integers(1, 3))
    directions = draw(st.tuples(*[st.sampled_from([1, -1])] * d))
    values = st.one_of(_TIE_HEAVY, st.floats(allow_nan=False, allow_infinity=False))
    palette = draw(st.lists(values, min_size=1, max_size=8))
    point = st.tuples(st.tuples(*[st.sampled_from(palette)] * d), st.tuples(st.integers(0, 2)))
    batches = draw(st.lists(st.lists(point, max_size=120), min_size=1, max_size=5))
    return directions, batches


@settings(max_examples=60, deadline=None)
@given(case=_archive_batches())
def test_archive_matches_refilter_oracle(case):
    directions, batches = case
    archive = nsga2.Archive(directions)
    expected = []
    for generation, batch in enumerate(batches):
        archive.update(batch, generation)
        expected = refilter_archive(expected, batch, generation, directions)
        # repr tells -0.0 from 0.0, so the same copy of a key must win
        assert repr(list(archive.entries.items())) == repr([((objs, genome), gen) for objs, genome, gen in expected])
        assert repr(archive.objectives.tolist()) == repr([list(e[0]) for e in expected])


def test_archive_never_compares_two_members(monkeypatch):
    archive = nsga2.Archive(MIN_MAX)
    archive.update([((i / 100, i / 100), (i,)) for i in range(100)], 0)
    shapes = []

    def spy(points, block=None):
        shapes.append((len(points), len(points if block is None else block)))
        return metrics.dominated_by(points, block)

    monkeypatch.setattr(nsga2, "dominated_by", spy)
    archive.update([((0.505, 0.2), (100,)), ((0.3, 0.995), (101,))], 1)
    assert shapes and all(min(shape) <= 2 for shape in shapes)
    # (0.505, 0.2) is dominated; (0.3, 0.995) dominates every member from f1 = 0.3 on
    assert [e[1] for e in archive.entries] == [(i,) for i in range(30)] + [(101,)]


def test_sort_rejects_nan():
    # NaN is unordered; a pairwise test that skipped it used to rank (0.5, 0.5) second
    with pytest.raises(ValueError, match="NaN"):
        nsga2.non_dominated_sort([(math.nan, 0.9), (0.5, 0.5)], MIN_MAX)


def test_archive_rejects_nan():
    # the initial population goes into the archive before it is ranked
    def evaluate(genomes, generation):
        return [(math.nan, 0.5)] + [(0.5, 0.5)] * (len(genomes) - 1)

    with pytest.raises(ValueError, match="NaN"):
        nsga2.run(evaluate, nsga2.SearchParams(4, 0, ((0, 5),), seed=0))


def test_crowding_examples():
    two = nsga2.crowding_distance([(0.1, 0.3), (0.9, 0.9)])
    assert two == [math.inf, math.inf]
    three = nsga2.crowding_distance([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    assert three[0] == three[2] == math.inf
    assert abs(three[1] - 2.0) < 1e-12
    flat = nsga2.crowding_distance([(0.5, 0.0), (0.5, 0.4), (0.5, 1.0)])
    assert abs(flat[1] - 1.0) < 1e-12  # degenerate objective skipped


def test_crowding_with_infinite_range_marks_boundaries_only():
    inf = math.inf
    # a non-finite span sets the boundaries to infinity and adds nothing else
    assert nsga2.crowding_distance([(0, -inf), (1, 0), (2, inf)]) == [inf, 1.0, inf]
    assert nsga2.crowding_distance([(0, 1), (1, inf), (2, inf), (3, inf)]) == [inf, 2 / 3, 2 / 3, inf]
    assert nsga2.crowding_distance([(-1e308, 0), (0, 1), (1e308, 2)]) == [inf, 1.0, inf]  # span overflows
    # equal extremes are a zero range, infinite or not
    assert nsga2.crowding_distance([(inf, 0), (inf, 1), (inf, 2)]) == [inf, 1.0, inf]


TIE_HEAVY = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf]) | st.floats(allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(TIE_HEAVY, TIE_HEAVY), min_size=1, max_size=12))
def test_crowding_is_never_nan(front):
    dists = nsga2.crowding_distance(front)
    assert not any(math.isnan(d) for d in dists)
    for k in range(2):
        values = [p[k] for p in front]
        if min(values) != max(values):
            first_low = values.index(min(values))
            last_high = len(values) - 1 - values[::-1].index(max(values))
            assert dists[first_low] == dists[last_high] == math.inf


def test_tournament_rules():
    rng = np.random.default_rng(1)
    a = nsga2.Individual((0,), (0.0, 0.0), rank=1, crowding=0.0)
    b = nsga2.Individual((1,), (0.0, 0.0), rank=3, crowding=math.inf)
    assert nsga2._crowded_better(a, b, rng)
    c = nsga2.Individual((2,), (0.0, 0.0), rank=1, crowding=math.inf)
    d = nsga2.Individual((3,), (0.0, 0.0), rank=1, crowding=0.4)
    assert nsga2._crowded_better(c, d, rng)


def test_tournament_winner_distribution_matches_analytic():
    # distinct (rank, crowding) so no coin flips are involved
    population = [
        nsga2.Individual((0,), (0.0, 0.0), rank=1, crowding=math.inf),
        nsga2.Individual((1,), (0.0, 0.0), rank=2, crowding=5.0),
        nsga2.Individual((2,), (0.0, 0.0), rank=2, crowding=1.0),
        nsga2.Individual((3,), (0.0, 0.0), rank=3, crowding=math.inf),
    ]
    beats = {
        (i, j): population[i].rank < population[j].rank
        or (population[i].rank == population[j].rank and population[i].crowding > population[j].crowding)
        for i, j in itertools.permutations(range(4), 2)
    }
    pairs = list(itertools.combinations(range(4), 2))
    analytic = np.zeros(4)
    for i, j in pairs:
        analytic[i if beats[(i, j)] else j] += 1 / len(pairs)

    rng = np.random.default_rng(2)
    counts = np.zeros(4)
    rounds = 10_000
    for i, j in nsga2.binary_tournament(population, rounds, rng):
        counts[i] += 1
        counts[j] += 1
    assert np.abs(counts / (2 * rounds) - analytic).max() < 0.02


def test_crossover_definitional():
    a = (0,) * 8
    b = (1,) * 8
    rng = np.random.default_rng(3)
    seen_cuts = set()
    for _ in range(200):
        c1, c2 = nsga2.single_point_crossover(a, b, rng, 1.0)
        flip = c1.index(1)
        seen_cuts.add(flip)
        assert c1 == a[:flip] + b[flip:]
        assert c2 == b[:flip] + a[flip:]
        for x, y in zip(c1, c2):
            assert {x, y} == {0, 1}  # positionwise multiset preserved
    assert seen_cuts == set(range(1, 8))  # switching point spans [1, d-1]


def test_crossover_probability_zero_clones():
    rng = np.random.default_rng(4)
    a, b = (1, 2, 3), (4, 5, 6)
    assert nsga2.single_point_crossover(a, b, rng, 0.0) == (a, b)
    with pytest.raises(ValueError):
        nsga2.single_point_crossover((1, 2), (1, 2, 3), rng, 1.0)


def test_mutation_identity_and_forced():
    rng = np.random.default_rng(5)
    bounds = ((0, 9), (5, 5), (1, 32))
    vec = (3, 5, 17)
    assert nsga2.uniform_mutation(vec, bounds, rng, 0.0) == vec
    for _ in range(50):
        mutated = nsga2.uniform_mutation(vec, bounds, rng, 1.0)
        assert mutated[1] == 5
        assert 0 <= mutated[0] <= 9 and 1 <= mutated[2] <= 32
    with pytest.raises(ValueError):
        nsga2.uniform_mutation(vec[:2], bounds, rng, 0.5)


def test_mutation_rate():
    rng = np.random.default_rng(6)
    bounds = tuple(((0, 1000),) * 8)
    vec = (2000,) * 8  # outside the draw range so any change is a mutation
    flips = 0
    trials = 10_000
    for _ in range(trials):
        mutated = nsga2.uniform_mutation(vec, bounds, rng, 1 / 8)
        flips += sum(m != v for m, v in zip(mutated, vec))
    assert abs(flips / (trials * 8) - 1 / 8) < 0.01


def test_mutation_same_stream_for_tuple_and_array_bounds():
    bounds = ((0, 9), (5, 5), (1, 32), (-3, 1000))
    vec = (3, 5, 17, 2000)
    as_tuple, as_array, reference = (np.random.default_rng(8) for _ in range(3))
    for prob in (0.0, 0.25, 1.0):
        for _ in range(40):
            expected = bounds_loop_mutation(vec, bounds, reference, prob)
            assert nsga2.uniform_mutation(vec, bounds, as_tuple, prob) == expected
            assert nsga2.uniform_mutation(vec, np.asarray(bounds), as_array, prob) == expected
    assert as_tuple.bit_generator.state == as_array.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 4, 99, 100, 101])
def test_tournament_same_stream_as_choice_oracle(n):
    # ties in rank and crowding, so coins are drawn between the pair draws
    population = [nsga2.Individual((k,), (0.0, 0.0), rank=1 + k % 2, crowding=float(k % 3)) for k in range(n)]
    ours, oracle = np.random.default_rng(9), np.random.default_rng(9)
    for n_pairs in (1, 7, 50):
        assert nsga2.binary_tournament(population, n_pairs, ours) == choice_tournament(population, n_pairs, oracle)
    assert ours.bit_generator.state == oracle.bit_generator.state


def test_distinct_pair_is_numpys_choice():
    ours, oracle = np.random.default_rng(10), np.random.default_rng(10)
    for n in range(2, 301):
        for _ in range(20):
            assert nsga2._distinct_pair(n, ours) == tuple(oracle.choice(n, size=2, replace=False))
        assert ours.bit_generator.state == oracle.bit_generator.state


def test_lemire_rejects_below_numpys_threshold():
    # r = 2**bits - 2: the threshold (2**bits - 1 - r) mod (r + 1) is 1, so the
    # draw 0 (low bits 0) is rejected, and 5 gives the high bits of 5 * (r + 1)
    for bits in (32, 64):
        r = 2**bits - 2
        assert nsga2._lemire(iter([0, 5]).__next__, r, bits) == 4
        assert nsga2._lemire(iter([1]).__next__, r, bits) == 0


# spans r = high - low - 1 at each branch of numpy's bounded draw and its edges
_SPANS = [0, 1, 2, 99, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@st.composite
def _draw_calls(draw):
    """A list of ("random",) and ("integers", low, high) calls whose bounds
    numpy's int64 or uint64 `integers` accepts; sometimes led by a 32-bit draw,
    so that the next 32-bit draw takes a kept half-word."""
    calls = [("integers", 0, 100)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):
            calls.append(("random",))
            continue
        span = draw(st.one_of(st.sampled_from(_SPANS), st.integers(0, 2**64 - 1)))
        low = draw(st.one_of(st.integers(-50, 50), st.integers(-(2**63), 2**64 - 1)))
        low = min(low, 2**64 - 1 - span)
        if low < 0:
            low = min(low, 2**63 - 1 - span)  # int64 then holds high
        calls.append(("integers", low, low + span + 1))
    return calls


def _numpy_draw(rng, call):
    if call[0] == "random":
        return rng.random()
    _, low, high = call
    return int(rng.integers(low, high, dtype=np.int64 if high <= 2**63 else np.uint64))


@settings(max_examples=300, deadline=None)
@given(calls=_draw_calls(), seed=st.integers(0, 2**32))
def test_stream_matches_default_rng_call_by_call(calls, seed):
    stream, rng = nsga2._Stream(seed), np.random.default_rng(seed)
    for call in calls:
        got = stream.random() if call[0] == "random" else stream.integers(call[1], call[2])
        assert got == _numpy_draw(rng, call), call
    # the two are at the same word and half-word: the next draws agree
    for call in (("integers", 0, 7), ("random",), ("integers", 0, 7), ("integers", 0, 7)):
        assert (stream.random() if call[0] == "random" else stream.integers(*call[1:])) == _numpy_draw(rng, call)


def _pop(objs, genome_start=0):
    return [nsga2.Individual((genome_start + i,), o) for i, o in enumerate(objs)]


def test_replacement_keeps_parents_when_offspring_dominated():
    parents = _pop([(0.1, 0.9), (0.2, 0.95), (0.15, 0.92), (0.05, 0.5)])
    offspring = _pop([(0.5, 0.1), (0.6, 0.2), (0.7, 0.3), (0.9, 0.01)], genome_start=10)
    survivors = nsga2.replacement(parents, offspring, MIN_MAX)
    assert sorted(ind.genome for ind in survivors) == sorted(ind.genome for ind in parents)


def test_replacement_truncates_first_front_by_crowding():
    objs = [(x / 10, x / 10) for x in range(8)]  # one big mutually non-dominated front
    parents = _pop(objs[:4])
    offspring = _pop(objs[4:], genome_start=10)
    survivors = nsga2.replacement(parents, offspring, (1, -1))
    assert len(survivors) == 4
    # boundaries of the union front must survive truncation
    pairs = {ind.objectives for ind in survivors}
    assert (0.0, 0.0) in pairs and (0.7, 0.7) in pairs


def test_replacement_preserves_size_and_elitism():
    rng = np.random.default_rng(7)
    for _ in range(25):
        parents = _pop([tuple(rng.random(2)) for _ in range(10)])
        offspring = _pop([tuple(rng.random(2)) for _ in range(10)], genome_start=100)
        union = parents + offspring
        survivors = nsga2.replacement(parents, offspring, MIN_MAX)
        assert len(survivors) == 10
        kept_ids = {id(ind) for ind in survivors}
        discarded = [ind for ind in union if id(ind) not in kept_ids]
        fronts = nsga2.non_dominated_sort([ind.objectives for ind in union], MIN_MAX)
        rank = {}
        for r, front in enumerate(fronts, start=1):
            for i in front:
                rank[id(union[i])] = r
        worst_kept = max(rank[id(ind)] for ind in survivors)
        for ind in discarded:
            assert rank[id(ind)] >= worst_kept


def _individual_state(ind):
    return (ind.genome, ind.rank, float.hex(ind.crowding))


@settings(max_examples=300, deadline=None)
@given(
    n_obj=st.sampled_from([2, 3]),
    data=st.data(),
    no_offspring=st.booleans(),
)
def test_replacement_matches_resorting_the_survivors(n_obj, data, no_offspring):
    objs = data.draw(st.lists(st.tuples(*[TIE_HEAVY] * n_obj), min_size=4, max_size=60))
    directions = data.draw(st.sampled_from(list(itertools.product((1, -1), repeat=n_obj))))
    n_parents = len(objs) if no_offspring else data.draw(st.integers(1, len(objs) - 1))
    got_union, want_union = _pop(objs), _pop(objs)
    got = nsga2.replacement(got_union[:n_parents], got_union[n_parents:], directions)
    want = resort_replacement(want_union[:n_parents], want_union[n_parents:], directions)
    assert [_individual_state(ind) for ind in got] == [_individual_state(ind) for ind in want]
    if no_offspring:
        # the caller's list is ranked in place and keeps its order
        assert [_individual_state(ind) for ind in got_union] == [_individual_state(ind) for ind in want_union]


def _tie_heavy_problem(genomes, generation):
    return [(float(g[0] // 3), float((g[1] - g[0]) // 4), float(g[2] % 5)) for g in genomes]


def _analytic_problem(genomes, generation):
    return [(g[0] / 40, (1 + g[0]) / 2 ** (g[1] + g[2])) for g in genomes]


def _search_state(result):
    return (
        [(ind.genome, ind.objectives, ind.rank, float.hex(ind.crowding)) for ind in result.population],
        [repr(r) for r in result.history],
        repr(result.archive),
        result.evaluations,
    )


TIE_HEAVY_BOUNDS = ((0, 20), (0, 20), (0, 9))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "problem, bounds, directions, hv_reference",
    [
        (_tie_heavy_problem, TIE_HEAVY_BOUNDS, (1, 1, -1), None),
        (_tie_heavy_problem, TIE_HEAVY_BOUNDS, (-1, 1, 1), None),
        (_analytic_problem, ((0, 40), (0, 7), (0, 7)), (1, -1), (1.0, 0.0)),
    ],
)
def test_run_matches_resorting_replacement(monkeypatch, seed, problem, bounds, directions, hv_reference):
    params = nsga2.SearchParams(12, 15, bounds, seed=seed)
    got = nsga2.run(problem, params, directions, hv_reference)
    monkeypatch.setattr(nsga2, "replacement", resort_replacement)
    assert _search_state(got) == _search_state(nsga2.run(problem, params, directions, hv_reference))


# a table-lookup problem: a grid of 801 x 16 x 16 genomes, each with its (f1, f2)
GRID_BOUNDS = ((0, 800), (0, 15), (0, 15))
_GRID_X = np.arange(801, dtype=np.float64)[:, None, None] / 800
GRID_F1 = np.broadcast_to(_GRID_X, (801, 16, 16))
GRID_F2 = (0.05 + 0.95 * np.sqrt(_GRID_X)) * np.exp2(-(np.arange(16)[:, None] + np.arange(16)).astype(np.float64))


def _grid_problem(genomes, generation):
    return [(float(GRID_F1[g]), float(GRID_F2[g])) for g in genomes]


def _fc_shaped_problem(genomes, generation):
    return [((g[0] * g[1] % 97) / 97, (sum(g[2:]) % 101) / 101) for g in genomes]


def _wide_problem(genomes, generation):
    return [(float(g[0] % 1000) / 1000, float((g[2] ^ g[3]) % 997) / 997) for g in genomes]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "problem, params",
    [
        (_grid_problem, nsga2.SearchParams(100, 20, GRID_BOUNDS)),
        # the desk-fc genome's coordinate ranges: m, E, four drops, four bit widths
        (_fc_shaped_problem, nsga2.SearchParams(20, 20, ((1, 4), (1, 1000)) + ((0, 50),) * 4 + ((1, 32),) * 4)),
        # spans 2**40, 0, 2**32 - 1 and 2**32 + 3: 64-bit, none, a whole 32-bit draw, 64-bit
        (_wide_problem, nsga2.SearchParams(20, 20, ((0, 2**40), (7, 7), (0, 2**32 - 1), (-3, 2**32)))),
    ],
)
def test_run_draws_as_from_default_rng(monkeypatch, seed, problem, params):
    params = dataclasses.replace(params, seed=seed)
    got = nsga2.run(problem, params, MIN_MAX, metrics.HV_REFERENCE)
    monkeypatch.setattr(nsga2, "_Stream", np.random.default_rng)
    assert _search_state(got) == _search_state(nsga2.run(problem, params, MIN_MAX, metrics.HV_REFERENCE))


# sha256 of repr(archive) + repr(hv_archive list) of the grid search at pop
# 100, 30 generations, taken when the search drew through numpy's Generator
# methods: a change to the campaign's random stream changes these
GRID_GOLDEN = {
    1: "232ed101fa1f6a16a1f6cb83371ee123bd295b7f547acb97ad773feec37098a8",
    2: "db0ff9f7328c3771d3782ee013546f44d495e92ddc988a3634e10d5e0fc381fb",
    3: "f61a8b1b3c5acc2c0e77381738425d19bc41cc824ad792c2184d111bcffd337c",
}


@pytest.mark.parametrize("seed", sorted(GRID_GOLDEN))
def test_grid_search_golden(seed):
    result = nsga2.run(_grid_problem, nsga2.SearchParams(100, 30, GRID_BOUNDS, seed=seed), MIN_MAX, metrics.HV_REFERENCE)
    text = repr(result.archive) + repr([record.hv_archive for record in result.history])
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_GOLDEN[seed]


# the same digest for the benchmark's search: the grid problem at pop 100 for
# 300 generations, seed 901, taken when the sort peeled every front. By then
# the archive holds nearly all 801 optimal points, and in nearly every
# generation the first front alone fills the population
LONG_GRID_GOLDEN = "c46d27ef2c93dd461d56015beae1c041fa2c49e527395999f286cb8a453c9e72"


def test_long_grid_search_golden():
    result = nsga2.run(_grid_problem, nsga2.SearchParams(100, 300, GRID_BOUNDS, seed=901), MIN_MAX, metrics.HV_REFERENCE)
    text = repr(result.archive) + repr([record.hv_archive for record in result.history])
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_GRID_GOLDEN


def test_run_sorts_once_per_generation(monkeypatch):
    calls = []
    original = nsga2.non_dominated_sort

    def spy(objectives, directions, *rest):
        calls.append(len(objectives))
        return original(objectives, directions, *rest)

    monkeypatch.setattr(nsga2, "non_dominated_sort", spy)
    nsga2.run(_tie_heavy_problem, nsga2.SearchParams(10, 7, TIE_HEAVY_BOUNDS, seed=1), directions=(1, 1, 1))
    assert calls == [10] + [20] * 7


def test_run_zero_generations_returns_initial_population():
    params = nsga2.SearchParams(6, 0, ((0, 5), (0, 5)), seed=0)
    calls = []

    def evaluate(genomes, generation):
        calls.append((generation, list(genomes)))
        return [(float(g[0]), float(g[1])) for g in genomes]

    result = nsga2.run(evaluate, params, directions=(1, 1))
    assert [generation for generation, _ in calls] == [0]
    # ranking keeps the drawn order, which the first tournament reads
    assert [ind.genome for ind in result.population] == calls[0][1]
    assert len({ind.rank for ind in result.population}) > 1
    assert all(ind.objectives is not None and ind.rank is not None for ind in result.population)
    assert result.evaluations == 6


TABLE_BOUNDS = ((0, 7), (0, 7))
# one (f1, f2) per genome of the 8 x 8 grid, looked up rather than computed
TABLE = {g: (g[0] / 7, ((5 * g[0] + 3 * g[1]) % 8) / 7) for g in itertools.product(range(8), repeat=2)}


def _table_problem(genomes, generation):
    return [TABLE[g] for g in genomes]


@pytest.mark.parametrize("pop, generations", [(4, 0), (4, 6), (6, 1), (10, 3), (12, 0), (20, 2)])
def test_run_counts_one_population_per_generation(pop, generations):
    params = nsga2.SearchParams(pop, generations, TABLE_BOUNDS, seed=pop + generations)
    result = nsga2.run(_table_problem, params, MIN_MAX, metrics.HV_REFERENCE)
    assert len(result.history) == generations + 1
    assert result.evaluations == pop * (generations + 1)

    # the last batch gets one result too few, then one too many
    for miscount, returned in ((lambda rows: rows[:-1], pop - 1), (lambda rows: rows + rows[:1], pop + 1)):
        def evaluate(genomes, generation):
            rows = _table_problem(genomes, generation)
            return miscount(rows) if generation == generations else rows

        with pytest.raises(ValueError, match=f"evaluate returned {returned} results for {pop} genomes"):
            nsga2.run(evaluate, params, MIN_MAX, metrics.HV_REFERENCE)


def _signed_zero_problem(genomes, generation):
    # -0.0 and 0.0 are one key to the archive, so its first copy must stay
    return [(float(g[0] // 3) * (-1) ** g[1], float((g[1] - g[0]) // 4)) for g in genomes]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "problem, bounds, directions",
    [
        (_tie_heavy_problem, TIE_HEAVY_BOUNDS, (1, 1, -1)),
        (_signed_zero_problem, TIE_HEAVY_BOUNDS, (1, -1)),
        (_analytic_problem, ((0, 40), (0, 7), (0, 7)), (1, -1)),
    ],
)
def test_run_returns_the_archive_as_refilter_oracle_tuples(seed, problem, bounds, directions):
    # the benchmark unpacks result.archive as (objectives, genome, generation) tuples
    expected = []

    def evaluate(genomes, generation):
        nonlocal expected
        rows = problem(genomes, generation)
        expected = refilter_archive(expected, list(zip(rows, genomes)), generation, directions)
        return rows

    result = nsga2.run(evaluate, nsga2.SearchParams(12, 15, bounds, seed=seed), directions)
    assert repr(result.archive) == repr(expected)


def test_run_deterministic_and_archive_monotone():
    bounds = ((-4, 12), (-4, 12))

    def evaluate(genomes, generation):
        return [
            ((g[0] / 4) ** 2 + (g[1] / 4) ** 2, (g[0] / 4 - 2) ** 2 + (g[1] / 4 - 2) ** 2)
            for g in genomes
        ]

    params = nsga2.SearchParams(12, 10, bounds, seed=3)
    a = nsga2.run(evaluate, params, directions=(1, 1), hv_reference=(70.0, 70.0))
    b = nsga2.run(evaluate, params, directions=(1, 1), hv_reference=(70.0, 70.0))
    assert [ind.genome for ind in a.population] == [ind.genome for ind in b.population]
    assert [r.hv_archive for r in a.history] == [r.hv_archive for r in b.history]
    hvs = [r.hv_archive for r in a.history]
    assert all(later >= earlier for earlier, later in zip(hvs, hvs[1:]))
    assert a.evaluations == 12 * 11


@pytest.mark.parametrize("generations", [0, 1, 4])
def test_run_takes_one_hypervolume_per_generation(monkeypatch, generations):
    # the archive's volume is the only one the engine takes; a front's volume
    # is left to metrics, which renders it from the front
    calls = []
    real = nsga2.hypervolume

    def spy(points, reference):
        calls.append(len(points))
        return real(points, reference)

    monkeypatch.setattr(nsga2, "hypervolume", spy)
    params = nsga2.SearchParams(8, generations, ((0, 20), (0, 20)), seed=1)

    def evaluate(genomes, generation):
        return [(g[0] / 20, (g[0] * g[1] % 21) / 20) for g in genomes]

    result = nsga2.run(evaluate, params, directions=(1, -1), hv_reference=metrics.HV_REFERENCE)
    assert len(calls) == generations + 1
    assert calls[-1] == len(result.archive)
    assert result.history[-1].hv_archive == real([objs for objs, _, _ in result.archive], metrics.HV_REFERENCE)
    calls.clear()
    nsga2.run(evaluate, params, directions=(1, -1))
    assert calls == []


def test_run_converges_on_discretized_analytic_problem():
    scale = 4.0
    bounds = ((-4, 12), (-4, 12))

    def objectives(g):
        v1, v2 = g[0] / scale, g[1] / scale
        return (v1 * v1 + v2 * v2, (v1 - 2.0) ** 2 + (v2 - 2.0) ** 2)

    domain = list(itertools.product(range(-4, 13), repeat=2))
    objs = [objectives(g) for g in domain]
    oracle = {objs[i] for i in pareto_filter(objs, (1, 1))}

    result = nsga2.run(
        lambda genomes, gen: [objectives(g) for g in genomes],
        nsga2.SearchParams(50, 50, bounds, seed=0),
        directions=(1, 1),
    )
    final = {ind.objectives for ind in result.population if ind.rank == 1}
    assert final == oracle


def test_search_params_validation(monkeypatch):
    with pytest.raises(ValueError):
        nsga2.SearchParams(7, 5, ((0, 1),))
    with pytest.raises(ValueError):
        nsga2.SearchParams(2, 5, ((0, 1),))
    # an empty range, and one wider than a 64-bit draw
    for bounds in (((3, 2),), ((0, 1), (0, 2**64))):
        with pytest.raises(ValueError, match="need lo <= hi < lo"):
            nsga2.SearchParams(4, 1, bounds)
    nsga2.SearchParams(4, 1, ((5, 5), (0, 2**64 - 1)))
    # no coordinate at all, and a bound that is not an integer
    with pytest.raises(ValueError, match="at least one coordinate"):
        nsga2.SearchParams(4, 1, ())
    for bounds in (((0, 1.5),), ((0, 3), (np.float64(0.0), 7))):
        with pytest.raises(ValueError, match=f"coordinate {len(bounds) - 1} must be integers"):
            nsga2.SearchParams(4, 1, bounds)
    nsga2.SearchParams(4, 1, ((np.int64(0), np.int32(7)),))
    # crossover 0.9 and mutation 1 / dimension are fixed, not parameters
    seen = {"crossover": set(), "mutation": set()}
    crossover, mutation = nsga2.single_point_crossover, nsga2.uniform_mutation

    def crossover_spy(a, b, rng, prob):
        seen["crossover"].add(prob)
        return crossover(a, b, rng, prob)

    def mutation_spy(vec, bounds, rng, prob):
        seen["mutation"].add(prob)
        return mutation(vec, bounds, rng, prob)

    monkeypatch.setattr(nsga2, "single_point_crossover", crossover_spy)
    monkeypatch.setattr(nsga2, "uniform_mutation", mutation_spy)
    nsga2.run(lambda genomes, gen: [(float(sum(g)), 0.0) for g in genomes], nsga2.SearchParams(10, 3, ((0, 1),) * 5))
    assert seen == {"crossover": {0.9}, "mutation": {1 / 5}}


@pytest.mark.parametrize(
    "directions, hv_reference, message",
    [
        ((1, 1, 1), metrics.HV_REFERENCE, "two objectives"),
        ((1, -1), (1.0, 0.0, 0.0), "two reference values"),
        ((), None, "one or more"),
        ((1, 0), None, "one or more"),
    ],
)
def test_run_checks_directions_before_evaluating(directions, hv_reference, message):
    calls = []

    def evaluate(genomes, generation):
        calls.append(generation)
        return [tuple(float(v) for v in g) for g in genomes]

    with pytest.raises(ValueError, match=message):
        nsga2.run(evaluate, nsga2.SearchParams(4, 1, ((0, 3),) * 3), directions, hv_reference)
    assert calls == []


def test_run_rejects_a_result_of_another_length():
    def evaluate(genomes, generation):
        return [(float(sum(g)),) for g in genomes]

    with pytest.raises(ValueError, match="generation 0: the result for genome 0 holds 1 values, not 2"):
        nsga2.run(evaluate, nsga2.SearchParams(4, 1, ((0, 3), (0, 3))), directions=(1, 1))
