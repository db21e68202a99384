import math

import numpy as np
import pytest

from flcop import codec, federation, nn
from flcop.codec import LayerCompressionSpec
from flcop.data import partition
from conftest import argsort_sparsify, copying_partition, float64_dequantize, make_synthetic, snap_loop_quantize

TOY = nn.ModelSpec((784,), (nn.Dense(784, 8), nn.Dense(8, 10)))


def _config(n_clients=4, participants=4, interval=1, bits=32, drop=0, epochs=1, batch=32, lr=0.1):
    specs = tuple(LayerCompressionSpec(bits, drop) for _ in range(TOY.n_arrays))
    return federation.FLRunConfig(
        TOY, n_clients, participants, interval, specs, nn.TrainConfig(lr, batch), epochs
    )


def test_select_clients_full_participation():
    rng = np.random.default_rng(0)
    assert list(federation.select_clients(4, 4, rng)) == [0, 1, 2, 3]


def test_select_clients_deterministic():
    a = federation.select_clients(10, 3, np.random.default_rng(42))
    b = federation.select_clients(10, 3, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_select_clients_rejects_oversubscription():
    with pytest.raises(ValueError):
        federation.select_clients(4, 5, np.random.default_rng(0))


def test_select_clients_inclusion_frequency():
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[federation.select_clients(4, 2, rng)] += 1
    assert np.abs(counts / 10_000 - 0.5).max() < 0.02


def _constant_model(value: float) -> nn.ModelParams:
    return nn.ModelParams(TOY, [np.full(s, value, np.float32) for s in TOY.param_shapes])


def test_aggregate_identity_and_symmetry():
    m = nn.build_model(TOY, 0)
    only = federation.aggregate([m])
    assert all(np.array_equal(a, b) for a, b in zip(only.arrays, m.arrays))

    neg = nn.ModelParams(TOY, [-a for a in m.arrays])
    zero = federation.aggregate([m, neg])
    assert all(not a.any() for a in zero.arrays)


def test_aggregate_mean_of_constants():
    mean = federation.aggregate([_constant_model(v) for v in (1, 2, 3, 4)])
    assert all((a == 2.5).all() for a in mean.arrays)


def test_aggregate_of_identical_models_is_exact():
    m = nn.build_model(TOY, 3)
    agg = federation.aggregate([nn.ModelParams(m.spec, [a.copy() for a in m.arrays]) for _ in range(3)])
    assert all(np.array_equal(a, b) for a, b in zip(agg.arrays, m.arrays))


def test_aggregate_rejects_spec_mismatch():
    other = nn.ModelSpec((784,), (nn.Dense(784, 4), nn.Dense(4, 10)))
    with pytest.raises(ValueError):
        federation.aggregate([nn.build_model(TOY, 0), nn.build_model(other, 0)])


def test_run_ledger_exactness_and_round_count():
    train = make_synthetic(256, 0)
    test = make_synthetic(64, 1)
    part = partition(train, 4, seed=2)
    cfg = _config(participants=3, interval=2, bits=9, drop=35)
    outcome = federation.run_federated_training(cfg, part, test, seed=5)
    ledger = outcome.ledger

    batches = math.ceil(64 / 32)
    rounds = math.ceil(batches / 2)
    theta = 32 * TOY.total_params
    per_model = codec.payload_bits(cfg.layer_specs, TOY.param_shapes)
    assert ledger.rounds_executed == rounds
    assert ledger.downlink_bits == rounds * 3 * theta
    assert ledger.uplink_bits == rounds * 3 * per_model
    assert ledger.baseline_bits == batches * 4 * theta
    assert outcome.accuracy == outcome.n_correct / test.count


def test_run_single_round_when_interval_covers_epoch():
    train = make_synthetic(128, 3)
    test = make_synthetic(32, 4)
    part = partition(train, 4, seed=0)
    cfg = _config(interval=100)
    outcome = federation.run_federated_training(cfg, part, test, seed=1)
    assert outcome.ledger.rounds_executed == 1


def test_interval_beyond_budget_trains_exactly_one_epoch():
    train = make_synthetic(128, 5)
    test = make_synthetic(32, 6)
    part = partition(train, 4, seed=0)
    exact = federation.run_federated_training(_config(interval=1, batch=8), part, test, seed=9)
    one_shot = federation.run_federated_training(_config(interval=4, batch=8), part, test, seed=9)
    huge = federation.run_federated_training(_config(interval=1000, batch=8), part, test, seed=9)
    # local budget is min(interval, remaining), so both single-round runs coincide
    assert one_shot.ledger.rounds_executed == huge.ledger.rounds_executed == 1
    assert one_shot.accuracy == huge.accuracy
    assert all(
        np.array_equal(a, b)
        for a, b in zip(one_shot.global_model.arrays, huge.global_model.arrays)
    )
    assert exact.ledger.rounds_executed == 4


def test_run_deterministic_and_trace_consistent():
    train = make_synthetic(200, 7)
    test = make_synthetic(40, 8)
    part = partition(train, 4, seed=1)
    cfg = _config(participants=2, interval=2, bits=6, drop=20)
    rows = []
    a = federation.run_federated_training(cfg, part, test, seed=3, trace=rows.append)
    b = federation.run_federated_training(cfg, part, test, seed=3)
    assert a.accuracy == b.accuracy
    assert all(np.array_equal(x, y) for x, y in zip(a.global_model.arrays, b.global_model.arrays))
    assert len(rows) == a.ledger.rounds_executed
    assert sum(r["uplink_bits"] for r in rows) == a.ledger.uplink_bits
    assert sum(r["downlink_bits"] for r in rows) == a.ledger.downlink_bits
    assert all(len(r["selected"]) == 2 for r in rows)


@pytest.mark.parametrize("seed", [2, 8])
def test_shard_views_train_as_copied_shards(seed):
    train = make_synthetic(203, 21)
    test = make_synthetic(64, 22)
    cfg = _config(participants=3, interval=2, bits=6, drop=20)
    views = federation.run_federated_training(cfg, partition(train, 4, seed), test, seed=seed)
    copies = federation.run_federated_training(cfg, copying_partition(train, 4, seed), test, seed=seed)
    assert [a.tobytes() for a in views.global_model.arrays] == [a.tobytes() for a in copies.global_model.arrays]
    assert views.ledger == copies.ledger and views.n_correct == copies.n_correct


def _reference_fedavg(cfg, part, test, seed):
    """No-codec FedAvg mirror of the simulator's seeding and batch order."""
    root = np.random.SeedSequence(seed)
    select_seq, batch_seq = root.spawn(2)
    select_rng = np.random.default_rng(select_seq)
    client_rngs = [np.random.default_rng(s) for s in batch_seq.spawn(cfg.n_clients)]
    orders = [rng.permutation(part.shards[k].count) for k, rng in enumerate(client_rngs)]
    pos = [0] * cfg.n_clients

    batches = math.ceil(max(s.count for s in part.shards) / cfg.train.batch_size)
    total = batches * cfg.epochs
    rounds = math.ceil(total / cfg.interval)
    global_model = nn.build_model(cfg.model_spec, cfg.init_seed)
    for t in range(1, rounds + 1):
        selected = np.sort(select_rng.choice(cfg.n_clients, cfg.participants, replace=False))
        steps = min(cfg.interval, total - (t - 1) * cfg.interval)
        local_models = []
        for k in selected:
            local = global_model
            for _ in range(steps):
                if pos[k] >= part.shards[k].count:
                    orders[k] = client_rngs[k].permutation(part.shards[k].count)
                    pos[k] = 0
                idx = orders[k][pos[k] : pos[k] + cfg.train.batch_size]
                pos[k] += cfg.train.batch_size
                local = nn.sgd_step(local, part.shards[k].take(idx), cfg.train)
            local_models.append(local)
        global_model = federation.aggregate(local_models)
    return global_model


def test_full_precision_upload_matches_reference_fedavg():
    train = make_synthetic(256, 9)
    test = make_synthetic(64, 10)
    part = partition(train, 4, seed=4)
    cfg = _config(participants=3, interval=2, bits=32, drop=0)
    outcome = federation.run_federated_training(cfg, part, test, seed=17)
    reference = _reference_fedavg(cfg, part, test, seed=17)
    for got, want in zip(outcome.global_model.arrays, reference.arrays):
        scale = max(1e-12, float(np.abs(want).max()))
        assert np.abs(got.astype(np.float64) - want.astype(np.float64)).max() / scale < 1e-6
    assert outcome.accuracy == nn.evaluate_accuracy(reference, test)


def test_dropped_positions_keep_global_value():
    train = make_synthetic(64, 11)
    test = make_synthetic(16, 12)
    part = partition(train, 1, seed=5)
    cfg = federation.FLRunConfig(
        TOY, 1, 1, 100,
        tuple(LayerCompressionSpec(32, 50) for _ in range(TOY.n_arrays)),
        nn.TrainConfig(0.1, 32), 1,
    )
    outcome = federation.run_federated_training(cfg, part, test, seed=21)
    assert outcome.ledger.rounds_executed == 1
    start = nn.build_model(TOY, cfg.init_seed)
    reference = _reference_fedavg(cfg, part, test, seed=21)
    for got, w0, local in zip(outcome.global_model.arrays, start.arrays, reference.arrays):
        kept = codec.sparsify(local, 50)
        dropped = np.setdiff1d(np.arange(local.size), kept)
        assert np.array_equal(got[dropped], w0[dropped])


def test_run_rejects_bad_inputs():
    train = make_synthetic(64, 13)
    part = partition(train, 4, seed=6)
    empty = make_synthetic(16, 14).take(np.array([], np.int64))
    with pytest.raises(ValueError):
        federation.run_federated_training(_config(), part, empty, seed=0)
    with pytest.raises(ValueError):
        federation.FLRunConfig(TOY, 4, 5, 1, tuple(LayerCompressionSpec(8, 0) for _ in range(4)), nn.TrainConfig(), 1)


def _lossy_fc_run(bits=(8, 16, 8, 16)):
    """Genome [2,1,50,10,25,0,*bits] on the fc model over a tiny partition."""
    train = make_synthetic(256, 15)
    test = make_synthetic(64, 16)
    specs = tuple(LayerCompressionSpec(b, mu) for b, mu in zip(bits, (50, 10, 25, 0)))
    cfg = federation.FLRunConfig(nn.fully_connected(), 4, 2, 1, specs, nn.TrainConfig(0.1, 32))
    return federation.run_federated_training(cfg, partition(train, 4, seed=8), test, seed=17)


def test_threshold_sparsify_run_matches_argsort_oracle(monkeypatch):
    got = _lossy_fc_run()
    monkeypatch.setattr(federation, "sparsify", argsort_sparsify)
    want = _lossy_fc_run()
    assert got.ledger == want.ledger
    assert got.n_correct == want.n_correct
    assert [a.tobytes() for a in got.global_model.arrays] == [a.tobytes() for a in want.global_model.arrays]


def test_one_pass_codec_run_matches_snap_loop_oracle(monkeypatch):
    # genome [2,1,50,10,25,0,8,16,8,32]: lossy layers beside a 32-bit one
    got = _lossy_fc_run(bits=(8, 16, 8, 32))
    monkeypatch.setattr(federation, "quantize", snap_loop_quantize)
    monkeypatch.setattr(
        federation, "dequantize",
        lambda payload, n, fill=0.0, dtype=np.float64: float64_dequantize(payload, n, fill).astype(dtype),
    )
    want = _lossy_fc_run(bits=(8, 16, 8, 32))
    assert got.ledger == want.ledger
    assert got.n_correct == want.n_correct
    assert [a.tobytes() for a in got.global_model.arrays] == [a.tobytes() for a in want.global_model.arrays]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_local_model_raises_before_upload(monkeypatch, value):
    def poisoned_step(params, batch, cfg):
        out = nn.sgd_step(params, batch, cfg)
        out.arrays[1][0] = value
        return out

    monkeypatch.setattr(federation, "sgd_step", poisoned_step)
    train = make_synthetic(64, 18)
    # at drop 50 a NaN is never kept, so only the check before encoding sees it
    with pytest.raises(nn.NumericError) as info:
        federation.run_federated_training(_config(drop=50), partition(train, 4, seed=9), train, seed=0)
    assert info.value.layer_index == 1
