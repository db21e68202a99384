import json
import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flcop import metrics, nn, nsga2
from flcop.metrics import ParetoPoint, hypervolume, merge_pseudo_optimal
from flcop.objectives import Bounds, Genome, comm_fraction
from conftest import filter_sweep_hypervolume, read_hypervolume_csv, read_pareto_csv


def _point(f1, f2, run_id=1, gen=0, seed=0):
    rng = np.random.default_rng(seed)
    g = Genome(
        int(rng.integers(1, 5)), int(rng.integers(1, 1001)),
        tuple(int(v) for v in rng.integers(0, 51, 2)),
        tuple(int(v) for v in rng.integers(1, 33, 2)),
    )
    return ParetoPoint(f1, f2, g, run_id, gen)


def test_hypervolume_single_point():
    assert hypervolume([(0.5, 0.5)], (1.0, 0.0)) == 0.25


def test_hypervolume_ignores_dominated_points():
    base = hypervolume([(0.2, 0.9)], (1.0, 0.0))
    with_dominated = hypervolume([(0.2, 0.9), (0.5, 0.5)], (1.0, 0.0))
    assert with_dominated == base == pytest.approx(0.8 * 0.9)


def test_hypervolume_staircase():
    front = [(0.1, 0.3), (0.4, 0.6), (0.7, 0.95)]
    expected = 0.9 * 0.3 + 0.6 * 0.3 + 0.3 * 0.35
    assert hypervolume(front, (1.0, 0.0)) == pytest.approx(expected)


def test_hypervolume_monotone_in_new_points():
    front = [(0.3, 0.4), (0.6, 0.8)]
    grown = front + [(0.1, 0.2)]
    assert hypervolume(grown, (1.0, 0.0)) >= hypervolume(front, (1.0, 0.0))


def _exact_area(points) -> Fraction:
    """The dominated area within the default box, in rational arithmetic."""
    area, ceiling = Fraction(0), Fraction(0)
    for f1, f2 in sorted(points, key=lambda p: (p[0], -p[1])):
        if Fraction(f2) > ceiling:
            area += (1 - Fraction(f1)) * (Fraction(f2) - ceiling)
            ceiling = Fraction(f2)
    return area


def test_hypervolume_of_a_larger_set_can_round_lower():
    # the added point adds area exactly, but the sweep rounds it one ulp
    # lower, so report checks hv_archive >= hv and a never-falling
    # hv_archive only up to a rounding slack; f2 is a fraction of 10,000
    # test images, as accuracies are
    front = [(0.25531449357320013, 0.3189)]
    grown = front + [(0.2553144935731989, 0.0028)]
    assert _exact_area(grown) > _exact_area(front)
    assert hypervolume(grown) < hypervolume(front)


_fractions = st.integers(0, 10_000)


@settings(max_examples=300, deadline=None)
@given(
    front=st.lists(st.tuples(st.floats(0, 1), _fractions, st.floats(0, 1), _fractions), min_size=1, max_size=8),
    extra=st.lists(st.tuples(st.floats(0, 1), _fractions), max_size=8),
)
def test_a_dominating_set_keeps_a_positive_hypervolume(front, extra):
    # the rules report checks on hv_archive: each front point (f1, k / 10,000)
    # is replaced by one that weakly dominates it, and other points join
    points = [(f1, k / 10_000) for f1, k, _, _ in front]
    archive = [(f1 * shrink, min(k + gain, 10_000) / 10_000) for f1, k, shrink, gain in front]
    archive += [(f1, k / 10_000) for f1, k in extra]
    if hypervolume(points) > 0.0:
        assert hypervolume(archive) > 0.0
    # the archive's volume falls short of the front's by at most the slack
    # read_campaign allows, where pop * (gen + 1) bounds the archive's size
    slack = 4 * (len(archive) + len(points) + 4) * 2.0**-53
    assert hypervolume(archive) >= hypervolume(points) * (1.0 - slack)


def test_hypervolume_rejects_point_outside_box():
    with pytest.raises(ValueError, match="1.2"):
        hypervolume([(1.2, 0.4)], (1.0, 0.0))
    with pytest.raises(ValueError):
        hypervolume([(0.5, -0.1)], (1.0, 0.0))


def test_hypervolume_boundary_points_contribute_nothing():
    assert hypervolume([(1.0, 0.7)], (1.0, 0.0)) == 0.0
    assert hypervolume([(0.5, 0.0)], (1.0, 0.0)) == 0.0
    assert hypervolume([], (1.0, 0.0)) == 0.0


def test_hypervolume_rejects_nan():
    # a NaN point used to pass the box check and vanish in the filter
    with pytest.raises(ValueError, match="NaN"):
        hypervolume([(math.nan, 0.9), (0.5, 0.5)], (1.0, 0.0))


def test_pareto_filter_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        metrics.pareto_filter([(0.5, math.nan), (0.5, 0.5)])
    with pytest.raises(ValueError, match="NaN"):
        metrics.dominated_by(np.zeros((3, 2)), np.array([[0.5, math.nan]]))


def test_hypervolume_against_monte_carlo():
    rng = np.random.default_rng(1)
    samples = rng.random((1_000_000, 2))
    for trial in range(5):
        pts = [tuple(map(float, row)) for row in rng.random((int(rng.integers(1, 12)), 2))]
        hv = hypervolume(pts, (1.0, 0.0))
        dominated = np.zeros(len(samples), bool)
        for f1, f2 in pts:
            dominated |= (samples[:, 0] >= f1) & (samples[:, 1] <= f2)
        assert abs(hv - dominated.mean()) < 0.003


# palettes on both sides of the default box's edges, with signed zeros,
# infinities and NaN, so that ties, repeats and boundary points are common
_HV_F1 = [-math.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, math.inf, math.nan]
_HV_F2 = [-0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, math.inf, math.nan]
_HV_REFERENCES = [(1.0, 0.0), (1.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (2.0, -1.0), (math.inf, -math.inf)]


@st.composite
def _hv_sets(draw):
    """(points, reference): up to 80 points over small palettes of each
    coordinate, half drawn from the values above and half from finite values
    inside the default box's edges."""
    f1s = draw(st.lists(st.one_of(st.sampled_from(_HV_F1), st.floats(-2, 1)), min_size=1, max_size=6))
    f2s = draw(st.lists(st.one_of(st.sampled_from(_HV_F2), st.floats(0, 2)), min_size=1, max_size=6))
    points = draw(st.lists(st.tuples(st.sampled_from(f1s), st.sampled_from(f2s)), max_size=80))
    return points, draw(st.sampled_from(_HV_REFERENCES))


@settings(max_examples=500, deadline=None)
@given(case=_hv_sets())
# a long staircase, whose terms a pairwise sum would round differently
@example(case=([(i / 37, math.sqrt((i + 1) / 38)) for i in range(37)], (1.0, 0.0)))
# only a -0.0 term: the loop's area starts at +0.0, and 0.0 + -0.0 is +0.0
@example(case=([(0.0, 0.5)], (-0.0, 0.0)))
def test_hypervolume_matches_filter_sweep_oracle(case):
    points, reference = case
    try:
        expected = filter_sweep_hypervolume(points, reference)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            hypervolume(points, reference)
        assert str(raised.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hypervolume(points, reference)
    assert got.hex() == expected.hex()


def test_hypervolume_calls_no_filter(monkeypatch):
    def no_filter(*args, **kwargs):
        raise AssertionError("hypervolume filtered its points")

    monkeypatch.setattr(metrics, "pareto_filter", no_filter)
    assert hypervolume([(0.2, 0.9), (0.5, 0.5), (0.2, 0.9)], (1.0, 0.0)) == 0.8 * 0.9


def test_merge_single_run_filters_dominated():
    run = [_point(0.1, 0.9), _point(0.5, 0.5), _point(0.4, 0.95)]
    merged = merge_pseudo_optimal([run])
    assert {(p.comm, p.accuracy) for p in merged} == {(0.1, 0.9), (0.4, 0.95)}


def test_merge_dominating_run_wins():
    weak = [_point(0.5, 0.5, run_id=1), _point(0.7, 0.6, run_id=1)]
    strong = [_point(0.1, 0.7, run_id=2), _point(0.2, 0.9, run_id=2)]
    merged = merge_pseudo_optimal([weak, strong])
    assert all(p.run_id == 2 for p in merged)
    assert len(merged) == 2


def test_merge_matches_brute_force_filter():
    rng = np.random.default_rng(2)
    runs = []
    flat = []
    for run_id in range(1, 6):
        run = [_point(float(a), float(b), run_id=run_id) for a, b in rng.random((40, 2))]
        runs.append(run)
        flat.extend(run)
    merged = merge_pseudo_optimal(runs)
    oracle = [
        p
        for p in flat
        if not any(
            (q.comm <= p.comm and q.accuracy >= p.accuracy)
            and (q.comm < p.comm or q.accuracy > p.accuracy)
            for q in flat
        )
    ]
    assert sorted((p.comm, p.accuracy, p.run_id) for p in merged) == sorted(
        (p.comm, p.accuracy, p.run_id) for p in oracle
    )
    # merged front is mutually non-dominated
    for p in merged:
        for q in merged:
            assert not ((q.comm <= p.comm and q.accuracy >= p.accuracy) and (q.comm < p.comm or q.accuracy > p.accuracy))


def test_extreme_point_selectors():
    front = [_point(0.1, 0.5), _point(0.2, 0.9), _point(0.5, 1.0)]
    assert metrics.best_accuracy_point(front).accuracy == 1.0
    assert metrics.lowest_comm_point(front).comm == 0.1
    elbow = metrics.elbow_point(front)
    assert (elbow.comm, elbow.accuracy) == (0.2, 0.9)


def test_elbow_degenerate_single_point():
    front = [_point(0.3, 0.7)]
    assert metrics.elbow_point(front) is front[0]


def test_genome_stats_quartiles():
    bounds = Bounds(4, 2)
    fronts = []
    for run_id, m in enumerate((1, 2, 3, 4), start=1):
        g = Genome(m, 500, (25, 0), (16, 32))
        fronts.append([ParetoPoint(0.2, 0.8, g, run_id, 0)])
    rows = metrics.genome_stats_rows(fronts, bounds)
    by_key = {(kind, coord): (q1, med, q3) for kind, coord, q1, med, q3 in rows}
    # single point per front: all three kinds select it
    for kind in metrics.FRONT_KINDS:
        q1, med, q3 = by_key[(kind, "m")]
        norm = [(v - 1) / 3 for v in (1, 2, 3, 4)]
        assert med == pytest.approx(np.percentile(norm, 50))
        assert q1 == pytest.approx(np.percentile(norm, 25))
        assert q3 == pytest.approx(np.percentile(norm, 75))
        assert by_key[(kind, "E")][1] == pytest.approx((500 - 1) / 999)
        assert by_key[(kind, "b_2")][1] == 1.0


def test_is_campaign_file_names_what_a_campaign_of_n_runs_writes(monkeypatch):
    written = [metrics.MANIFEST_FILE, *metrics.MERGED_FILES, *(name for k in (1, 2, 3) for name in metrics.run_files(k))]
    assert all(metrics.is_campaign_file(name, 3) for name in written)
    others = ["pareto_run02.csv", "pareto_run0.csv", "pareto_run4.csv", "generations_run3.csv", "pareto_run1.csv.bak",
              "xpareto_run1.csv", "pareto_run.csv", "notes.txt", "summary.json.tmp"]
    assert not any(metrics.is_campaign_file(name, 3) for name in others)
    # a huge run count builds the names of the one run a name can be
    calls = []
    real = metrics.run_files
    monkeypatch.setattr(metrics, "run_files", lambda k: calls.append(k) or real(k))
    assert metrics.is_campaign_file("generations_run999999999.jsonl", 10**9)
    assert not metrics.is_campaign_file("generations_run1000000001.jsonl", 10**9)
    assert calls == [999999999]


def test_export_empty_campaign(tmp_path):
    # read_campaign admits no campaign without runs, so there is nothing to merge
    with pytest.raises(ValueError, match="at least one run"):
        metrics.export_campaign(tmp_path, {"runs": 0}, Bounds(4, 2), [])
    assert list(tmp_path.iterdir()) == []


def test_export_and_read_back(tmp_path):
    bounds = Bounds(4, 2)
    fronts = [
        [_point(0.1, 0.8, run_id=1, gen=1, seed=5), _point(0.3, 0.9, run_id=1, gen=1, seed=6)],
        [_point(0.2, 0.85, run_id=2, gen=0, seed=7)],
    ]
    # (gen, evals, hv_archive) per record
    archive_tables = [
        [(0, 10, 0.5), (1, 20, 0.65)],
        [(0, 10, 0.4)],
    ]
    histories = []
    for k, (front, rows) in enumerate(zip(fronts, archive_tables), start=1):
        # every generation holds the final front, listed unsorted: the pareto file sorts the last one
        front1 = [(p.as_pair(), p.genome.to_vector()) for p in reversed(front)]
        histories.append([metrics.GenerationRecord(front1, hv_archive) for _, _, hv_archive in rows])
        metrics.write_run(tmp_path, k, histories[-1], 10)
    summary = metrics.export_campaign(tmp_path, {"runs": 2, "pop": 10}, bounds, histories)
    assert (tmp_path / "pareto_run1.csv").read_text().splitlines()[0] == "run,gen,f1,f2,m,E,mu_1,mu_2,b_1,b_2"
    assert (tmp_path / "hypervolume_run1.csv").read_text().splitlines()[0] == "gen,hv,evals,hv_archive"

    back = read_pareto_csv(tmp_path / "pareto_run1.csv")
    assert back == fronts[0]
    # each hv is the hypervolume of its record's front
    hv = filter_sweep_hypervolume([p.as_pair() for p in fronts[0]])
    assert read_hypervolume_csv(tmp_path / "hypervolume_run1.csv") == [
        (gen, hv, evals, hv_archive) for gen, evals, hv_archive in archive_tables[0]
    ]

    merged = read_pareto_csv(tmp_path / "pareto_merged.csv")
    assert merged == merge_pseudo_optimal(fronts)
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["merged_front_size"] == summary["merged_front_size"]
    assert loaded["per_run"][0]["evaluations"] == 20


@settings(max_examples=200, deadline=None)
@given(
    pop=st.sampled_from([4, 6, 8]),
    generations=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 2),
    # f2 is a fraction of correct test images, as the hv_archive rule assumes
    table=st.lists(st.integers(0, 2000).map(lambda c: c / 2000), min_size=1, max_size=12),
)
def test_read_campaign_accepts_what_write_run_writes(pop, generations, seed, table):
    # write_run and read_campaign both render each hv from a record's front,
    # so every run file passes only if each front, and each hv_archive, reads
    # back from the files bit for bit; f1 is the closed form that report checks
    bounds = Bounds(3, 4, 5)
    sizes = nn.fully_connected().param_shapes

    def evaluate(genomes, generation):
        return [
            (comm_fraction(Genome.from_vector(genome), sizes, 3)[2], table[sum(g * 7**i for i, g in enumerate(genome)) % len(table)])
            for genome in genomes
        ]

    histories = [
        nsga2.run(evaluate, nsga2.SearchParams(pop, generations, tuple(bounds.coordinate_ranges()), seed=run_seed),
                  hv_reference=metrics.HV_REFERENCE).history
        for run_seed in (seed, seed + 1)
    ]
    # the search keeps E <= 5, inside the narrowest preset's cap of 100
    manifest = {"runs": 2, "model": "fc", "n_clients": 3, "n_layers": 4, "interval_max": 100, "pop": pop,
                "generations": generations, "bounds": "mutation-narrow", "lr": 0.1, "seed": seed, "init_seed": 0,
                "batch_size": 64, "epochs": 1, "workers": 1, "train_limit": None, "test_limit": None, "out": "flcop-out",
                "mnist_dir": None}
    with tempfile.TemporaryDirectory() as out:
        metrics.write_json(Path(out) / metrics.MANIFEST_FILE, manifest)
        for k, history in enumerate(histories, start=1):
            metrics.write_run(out, k, history, pop)
            rows = metrics.read_csv(Path(out) / f"hypervolume_run{k}.csv")
            assert [(gen, evals) for gen, _, evals, _ in rows] == [(str(g), str(pop * (g + 1))) for g in range(generations + 1)]
        assert metrics.read_campaign(out) == (manifest, Bounds(3, 4, 100), histories)
