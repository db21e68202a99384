"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 6-8 need the real MNIST IDX files and are skipped with an explicit
reason when no data directory is available (set FLCOP_MNIST_DIR).
"""

import itertools
import json
import time

import numpy as np
import pytest

from flcop import cli, codec, metrics, nn, nsga2
from flcop.objectives import Bounds, Genome, comm_fraction
from conftest import LayerCompressionSpec, find_mnist_dir, payload_bits, random_genome, requires_mnist
from test_nn import TOY_CONV, TOY_FC, _finite_difference_check


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"criterion {criterion}: PASS in {elapsed:.1f}s - {detail}")


def test_criterion_1_closed_form_objective_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    checked = 0
    for spec in (nn.fully_connected(), nn.convolutional()):
        sizes = spec.param_shapes
        total = sum(sizes)
        bounds = Bounds(4, len(sizes))
        for _ in range(500):
            g = random_genome(bounds, rng)
            alpha, beta, f1 = comm_fraction(g, sizes, 4)
            alpha_o = (1 / g.interval) * (g.participants / 4)
            beta_o = (g.participants / 4) * (1 / g.interval) * sum(
                (b / 32) * ((100 - mu) / 100) * (n / total)
                for b, mu, n in zip(g.bit_widths, g.drop_percents, sizes)
            )
            assert abs(alpha - alpha_o) < 1e-12
            assert abs(beta - beta_o) < 1e-12
            assert abs(f1 - (alpha_o + beta_o) / 2) < 1e-12
            checked += 1
        brute = Genome(4, 1, (0,) * len(sizes), (32,) * len(sizes))
        assert comm_fraction(brute, sizes, 4)[2] == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, f"{checked} genomes within 1e-12, brute force exactly 1.0")


def test_criterion_2_codec_bound_and_wire_layout():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for trial in range(10_000):
        n = int(rng.integers(1, 4097))
        mu = int(rng.integers(0, 51))
        bits = int(rng.integers(1, 33))
        layer = (rng.standard_normal(n) * rng.uniform(0.01, 50)).astype(np.float32)

        kept = codec.sparsify(layer, mu)
        payload = codec.quantize(layer, kept, bits)
        rec = codec.dequantize(payload, n)
        bound = (payload.w_max - payload.w_min) / (2 * ((1 << bits) - 1))
        err = np.abs(rec[kept] - layer[kept].astype(np.float64)).max()
        # slack of a few float64 ulps of the layer magnitude; at least five
        # orders below the tightest possible bound, so it only absorbs the
        # rounding of the comparison itself
        slack = 4 * np.finfo(np.float64).eps * max(abs(payload.w_min), abs(payload.w_max), bound)
        assert err <= bound + slack

        k = kept.size
        assert payload_bits([LayerCompressionSpec(bits, mu)], [n]) == k * bits + 64
        buf = codec.encode_payload(payload)
        # 13-byte header (1 for the width, 4 for the count, 8 = 64 bits of extrema),
        # then ceil(k * bits / 8) code bytes and 4 bytes per kept index
        assert len(buf) == 13 + (k * bits + 7) // 8 + 4 * k
        if trial % 20 == 0:
            back = codec.decode_payload(buf)
            assert np.array_equal(back.codes, payload.codes)
            assert np.array_equal(back.kept_indices, payload.kept_indices)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, elapsed, "10000 layers respect the half-step bound and wire layout")


def _oracle_fronts_vectorized(objs: np.ndarray, directions) -> list[tuple[int, ...]]:
    arr = objs * np.asarray(directions, np.float64)
    le = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    lt = (arr[:, None, :] < arr[None, :, :]).any(axis=2)
    dom = le & lt  # dom[i, j]: i dominates j
    remaining = np.ones(len(arr), bool)
    fronts = []
    while remaining.any():
        dominated = (dom & remaining[:, None]).any(axis=0)
        front = remaining & ~dominated
        fronts.append(tuple(np.flatnonzero(front)))
        remaining &= ~front
    return fronts


def test_criterion_3_sorting_and_hypervolume_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        objs = rng.random((n, 2))
        if rng.random() < 0.3:  # duplicated rows exercise tie handling
            objs[rng.integers(0, n)] = objs[rng.integers(0, n)]
        got = nsga2.non_dominated_sort([tuple(row) for row in objs], (1, -1))
        assert list(got) == _oracle_fronts_vectorized(objs, (1, -1))

    samples = rng.random((1_000_000, 2))
    for _ in range(20):
        pts = [tuple(map(float, row)) for row in rng.random((int(rng.integers(1, 15)), 2))]
        hv = metrics.hypervolume(pts, (1.0, 0.0))
        dominated = np.zeros(len(samples), bool)
        for f1, f2 in pts:
            dominated |= (samples[:, 0] >= f1) & (samples[:, 1] <= f2)
        assert abs(hv - dominated.mean()) < 0.003
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, elapsed, "100 sorts match the O(n^2) oracle; 20 hypervolumes within 0.003 of Monte Carlo")


def test_criterion_4_engine_convergence_on_analytic_problem():
    start = time.perf_counter()
    scale = 4.0
    bounds = ((-4, 12), (-4, 12))

    def objectives(g):
        v1, v2 = g[0] / scale, g[1] / scale
        return (v1 * v1 + v2 * v2, (v1 - 2.0) ** 2 + (v2 - 2.0) ** 2)

    domain = list(itertools.product(range(-4, 13), repeat=2))
    objs = [objectives(g) for g in domain]
    oracle = {objs[i] for i in metrics.pareto_filter(objs, (1, 1))}

    for seed in range(5):
        result = nsga2.run(
            lambda genomes, gen: [objectives(g) for g in genomes],
            nsga2.SearchParams(50, 50, bounds, seed=seed),
            directions=(1, 1),
            hv_reference=(70.0, 70.0),
        )
        final = {ind.objectives for ind in result.population if ind.rank == 1}
        assert final == oracle, f"seed {seed} missed {oracle - final}"
        hvs = [r.hv_archive for r in result.history]
        assert all(later >= earlier for earlier, later in zip(hvs, hvs[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, elapsed, f"5 seeds cover all {len(oracle)} optimal points, archive hypervolume monotone")


def test_criterion_5_gradient_fidelity():
    start = time.perf_counter()
    worst_fc = _finite_difference_check(TOY_FC, seed=11, n_examples=6)
    worst_conv = _finite_difference_check(TOY_CONV, seed=12, n_examples=4)
    elapsed = time.perf_counter() - start
    assert worst_fc < 1e-3 and worst_conv < 1e-3
    assert elapsed < 60.0
    _report(5, elapsed, f"max relative error fc={worst_fc:.2e}, conv={worst_conv:.2e}")


@requires_mnist
def test_criterion_6_mnist_baseline_accuracy(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "baseline"
    rc = cli.main(["baseline", "--mnist-dir", str(find_mnist_dir()), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "baseline.json").read_text())
    assert payload["objectives"]["f1"] == 1.0
    assert payload["objectives"]["f2"] >= 0.90
    _report(6, time.perf_counter() - start, f"full-communication accuracy {payload['objectives']['f2']:.4f}")


@pytest.fixture(scope="module")
def desk_fc_campaign(tmp_path_factory):
    if find_mnist_dir() is None:
        pytest.skip("real MNIST IDX files not available (set FLCOP_MNIST_DIR)")
    out = tmp_path_factory.mktemp("desk_fc")
    start = time.perf_counter()
    rc = cli.main([
        "optimize", "--preset", "desk-fc",
        "--mnist-dir", str(find_mnist_dir()), "--out", str(out), "--workers", "1",
    ])
    assert rc == 0
    return out, time.perf_counter() - start


@requires_mnist
def test_criterion_7_desk_scale_headline_result(desk_fc_campaign):
    out, elapsed = desk_fc_campaign
    merged = metrics.read_pareto_csv(out / "pareto_merged.csv")
    winners = [p for p in merged if p.comm <= 0.05 and p.accuracy >= 0.85]
    assert elapsed < 1800.0
    assert winners, f"no merged-front point with f1 <= 0.05 and f2 >= 0.85 in {[(p.comm, p.accuracy) for p in merged]}"
    best = max(winners, key=lambda p: p.accuracy)
    _report(7, elapsed, f"merged front holds f1={best.comm:.4f}, f2={best.accuracy:.4f}")


@requires_mnist
def test_criterion_8_campaign_determinism_across_workers(desk_fc_campaign, tmp_path):
    out, _ = desk_fc_campaign
    start = time.perf_counter()
    rerun = tmp_path / "rerun"
    rc = cli.main([
        "optimize", "--preset", "desk-fc",
        "--mnist-dir", str(find_mnist_dir()), "--out", str(rerun), "--workers", "2",
    ])
    assert rc == 0
    for name in ("pareto_run1.csv", "pareto_merged.csv"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes()
    _report(8, time.perf_counter() - start, "pareto CSVs byte-identical under a different worker count")
