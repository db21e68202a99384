import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcop import codec, federation, nn
from flcop.data import partition
from flcop.objectives import EvalEnv, Genome
from conftest import (
    argsort_sparsify,
    copying_partition,
    evaluate_accuracy,
    float64_dequantize,
    layer_specs,
    make_synthetic,
    payload_bits,
    snap_loop_quantize,
)

TOY = nn.ModelSpec((784,), (nn.Dense(784, 8), nn.Dense(8, 10)))


def _run(part, test, participants=4, interval=1, bits=32, drop=0, epochs=1, batch=32, lr=0.1):
    """The (genome, env) of a TOY run with one bit width and drop percent on every array."""
    genome = Genome(participants, interval, (drop,) * TOY.n_arrays, (bits,) * TOY.n_arrays)
    return genome, EvalEnv(TOY, part, test, nn.TrainConfig(lr, batch), epochs, seed=0)


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
    genome, env = _run(part, test, participants=3, interval=2, bits=9, drop=35)
    outcome = federation.run_federated_training(genome, env, seed=5)
    ledger = outcome.ledger

    batches = math.ceil(64 / 32)
    rounds = math.ceil(batches / 2)
    theta = 32 * TOY.total_params
    per_model = payload_bits(layer_specs(genome), TOY.param_shapes)
    assert ledger.rounds_executed == rounds
    assert ledger.downlink_bits == rounds * 3 * theta
    assert ledger.uplink_bits == rounds * 3 * per_model
    assert ledger.baseline_bits == batches * 4 * theta
    assert outcome.n_correct == nn.count_correct(outcome.global_model, test)


def test_run_single_round_when_interval_covers_epoch():
    train = make_synthetic(128, 3)
    test = make_synthetic(32, 4)
    part = partition(train, 4, seed=0)
    outcome = federation.run_federated_training(*_run(part, test, interval=100), seed=1)
    assert outcome.ledger.rounds_executed == 1


def test_interval_beyond_budget_trains_exactly_one_epoch():
    train = make_synthetic(128, 5)
    test = make_synthetic(32, 6)
    part = partition(train, 4, seed=0)
    exact = federation.run_federated_training(*_run(part, test, interval=1, batch=8), seed=9)
    one_shot = federation.run_federated_training(*_run(part, test, interval=4, batch=8), seed=9)
    huge = federation.run_federated_training(*_run(part, test, interval=1000, batch=8), seed=9)
    # local budget is min(interval, remaining), so both single-round runs coincide
    assert one_shot.ledger.rounds_executed == huge.ledger.rounds_executed == 1
    assert one_shot.n_correct == huge.n_correct
    assert all(
        np.array_equal(a, b)
        for a, b in zip(one_shot.global_model.arrays, huge.global_model.arrays)
    )
    assert exact.ledger.rounds_executed == 4


def test_run_deterministic_and_trace_consistent():
    train = make_synthetic(200, 7)
    test = make_synthetic(40, 8)
    part = partition(train, 4, seed=1)
    genome, env = _run(part, test, participants=2, interval=2, bits=6, drop=20)
    rows, models = [], []

    def trace(row, model):
        rows.append(row)
        models.append(model)

    a = federation.run_federated_training(genome, env, seed=3, trace=trace)
    b = federation.run_federated_training(genome, env, seed=3)
    assert a.n_correct == b.n_correct
    # the hook's last model is the one the objective scores
    assert nn.count_correct(models[-1], test) == a.n_correct
    assert all(np.array_equal(x, y) for x, y in zip(a.global_model.arrays, b.global_model.arrays))
    assert len(rows) == a.ledger.rounds_executed
    assert sum(r["uplink_bits"] for r in rows) == a.ledger.uplink_bits
    assert sum(r["downlink_bits"] for r in rows) == a.ledger.downlink_bits
    assert all(len(r["selected"]) == 2 for r in rows)


@pytest.mark.parametrize("seed", [2, 8])
def test_shard_views_train_as_copied_shards(seed):
    train = make_synthetic(203, 21)
    test = make_synthetic(64, 22)
    settings = dict(participants=3, interval=2, bits=6, drop=20)
    views = federation.run_federated_training(*_run(partition(train, 4, seed), test, **settings), seed=seed)
    copies = federation.run_federated_training(*_run(copying_partition(train, 4, seed), test, **settings), seed=seed)
    assert [a.tobytes() for a in views.global_model.arrays] == [a.tobytes() for a in copies.global_model.arrays]
    assert views.ledger == copies.ledger and views.n_correct == copies.n_correct


def _reference_fedavg(genome, env, seed):
    """No-codec FedAvg mirror of the simulator's seeding and batch order."""
    part, train = env.partition, env.train
    root = np.random.SeedSequence(seed)
    select_seq, batch_seq = root.spawn(2)
    select_rng = np.random.default_rng(select_seq)
    client_rngs = [np.random.default_rng(s) for s in batch_seq.spawn(len(part))]
    orders = [rng.permutation(part[k].count) for k, rng in enumerate(client_rngs)]
    pos = [0] * len(part)

    batches = math.ceil(max(s.count for s in part) / train.batch_size)
    total = batches * env.epochs
    rounds = math.ceil(total / genome.interval)
    global_model = nn.build_model(env.spec, env.init_seed)
    for t in range(1, rounds + 1):
        selected = np.sort(select_rng.choice(len(part), genome.participants, replace=False))
        steps = min(genome.interval, total - (t - 1) * genome.interval)
        local_models = []
        for k in selected:
            local = global_model
            for _ in range(steps):
                if pos[k] >= part[k].count:
                    orders[k] = client_rngs[k].permutation(part[k].count)
                    pos[k] = 0
                idx = orders[k][pos[k] : pos[k] + train.batch_size]
                pos[k] += train.batch_size
                local = nn.sgd_step(local, *part[k].take(idx), train)
            local_models.append(local)
        global_model = federation.aggregate(local_models)
    return global_model


def test_full_precision_upload_matches_reference_fedavg():
    train = make_synthetic(256, 9)
    test = make_synthetic(64, 10)
    part = partition(train, 4, seed=4)
    genome, env = _run(part, test, participants=3, interval=2, bits=32, drop=0)
    outcome = federation.run_federated_training(genome, env, seed=17)
    reference = _reference_fedavg(genome, env, seed=17)
    for got, want in zip(outcome.global_model.arrays, reference.arrays):
        scale = max(1e-12, float(np.abs(want).max()))
        assert np.abs(got.astype(np.float64) - want.astype(np.float64)).max() / scale < 1e-6
    assert outcome.n_correct / test.count == evaluate_accuracy(reference, test)


def test_dropped_positions_keep_global_value():
    train = make_synthetic(64, 11)
    test = make_synthetic(16, 12)
    part = partition(train, 1, seed=5)
    genome, env = _run(part, test, participants=1, interval=100, bits=32, drop=50)
    outcome = federation.run_federated_training(genome, env, seed=21)
    assert outcome.ledger.rounds_executed == 1
    start = nn.build_model(TOY, env.init_seed)
    reference = _reference_fedavg(genome, env, seed=21)
    for got, w0, local in zip(outcome.global_model.arrays, start.arrays, reference.arrays):
        kept = codec.sparsify(local, 50)
        dropped = np.setdiff1d(np.arange(local.size), kept)
        assert np.array_equal(got[dropped], w0[dropped])


def _no_training(params, images, labels, cfg):
    raise AssertionError("sgd_step ran before the run was rejected")


def test_run_rejects_bad_inputs(monkeypatch):
    monkeypatch.setattr(federation, "sgd_step", _no_training)
    train = make_synthetic(64, 13)
    part = partition(train, 4, seed=6)
    empty = make_synthetic(16, 14).take(np.array([], np.int64))
    with pytest.raises(ValueError, match="test set"):
        federation.run_federated_training(*_run(part, empty), seed=0)


@pytest.mark.parametrize(
    "settings, genes, match",
    [
        (dict(participants=0), None, r"^m=0 outside \[1, inf\]$"),
        (dict(participants=5), None, "selects 5 participants"),
        (dict(interval=0), None, r"^E=0 outside \[1, inf\]$"),
        (dict(epochs=0), None, "^epochs must be at least 1, got 0$"),
        ({}, ((0,) * 3, (32,) * 3), "genes for 3 parameter arrays"),
        ({}, ((0,) * 5, (32,) * 5), "genes for 5 parameter arrays"),
        (dict(bits=0), None, r"^b_1=0 outside \[1, 32\]$"),
        (dict(bits=33), None, r"^b_1=33 outside \[1, 32\]$"),
        ({}, ((0, 0, 0, 0), (8, 8, 40, 8)), r"^b_3=40 outside \[1, 32\]$"),
        (dict(drop=-1), None, r"^mu_1=-1 outside \[0, 50\]$"),
        (dict(drop=51), None, r"^mu_1=51 outside \[0, 50\]$"),
        ({}, ((0, 60, 0, 0), (8, 8, 8, 8)), r"^mu_2=60 outside \[0, 50\]$"),
    ],
    ids=[
        "participants-0", "participants-5", "interval-0", "epochs-0", "3-arrays", "5-arrays",
        "bits-0", "bits-33", "array-2-bits-40", "drop-minus-1", "drop-51", "array-1-drop-60",
    ],
)
def test_run_rejects_bad_settings_before_training(monkeypatch, settings, genes, match):
    monkeypatch.setattr(federation, "sgd_step", _no_training)
    train = make_synthetic(64, 13)
    # a genome or env out of range fails as it is built, a misfit in the run
    with pytest.raises(ValueError, match=match):
        genome, env = _run(partition(train, 4, seed=6), train, **settings)
        if genes is not None:
            genome = Genome(genome.participants, genome.interval, *genes)
        federation.run_federated_training(genome, env, seed=0)


def _lossy_fc_run(bits=(8, 16, 8, 16)):
    """Genome [2,1,50,10,25,0,*bits] on the fc model over a tiny partition."""
    train = make_synthetic(256, 15)
    test = make_synthetic(64, 16)
    genome = Genome(2, 1, (50, 10, 25, 0), bits)
    env = EvalEnv(nn.fully_connected(), partition(train, 4, seed=8), test, nn.TrainConfig(0.1, 32), 1, seed=0)
    return federation.run_federated_training(genome, env, seed=17)


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
    def poisoned_step(params, images, labels, cfg):
        out = nn.sgd_step(params, images, labels, cfg)
        out.arrays[1][0] = value
        return out

    monkeypatch.setattr(federation, "sgd_step", poisoned_step)
    train = make_synthetic(64, 18)
    # at drop 50 a NaN is never kept, so only the check before encoding sees it
    with pytest.raises(nn.NumericError) as info:
        federation.run_federated_training(*_run(partition(train, 4, seed=9), train, drop=50), seed=0)
    assert info.value.layer_index == 1


# 98 rows split 25, 25, 24, 24, so the largest shard sets T
COST_TRAIN = make_synthetic(98, 19)
COST_PART = partition(COST_TRAIN, 4, seed=3)
COST_TEST = make_synthetic(16, 20)


@settings(max_examples=60, deadline=None)
@given(
    participants=st.integers(1, 4),
    batch=st.sampled_from([4, 8, 16, 32, 64]),
    epochs=st.integers(1, 3),
    drops=st.lists(st.integers(0, 50), min_size=TOY.n_arrays, max_size=TOY.n_arrays),
    bits=st.lists(st.integers(4, 32), min_size=TOY.n_arrays, max_size=TOY.n_arrays),
    draw=st.data(),
)
def test_evaluation_costs_m_times_t_steps_and_ceil_t_over_e_uploads(participants, batch, epochs, drops, bits, draw):
    budget = math.ceil(max(s.count for s in COST_PART) / batch) * epochs
    divisors = [e for e in range(1, budget + 1) if budget % e == 0]
    others = [e for e in range(1, budget) if budget % e]
    interval = draw.draw(st.sampled_from(sorted({1, budget, budget + 1, 1000, *divisors, *others})), label="E")
    genome = Genome(participants, interval, tuple(drops), tuple(bits))
    env = EvalEnv(TOY, COST_PART, COST_TEST, nn.TrainConfig(0.1, batch), epochs, seed=0)
    counts = {"sgd_step": 0, "quantize": 0}

    def counted(name):
        original = getattr(federation, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in counts:
            patch.setattr(federation, name, counted(name))
        outcome = federation.run_federated_training(genome, env, seed=[1, 2])
    rounds = math.ceil(budget / interval)
    assert env.step_budget == budget
    assert counts["sgd_step"] == participants * budget
    assert counts["quantize"] == participants * rounds * TOY.n_arrays
    assert outcome.ledger.rounds_executed == rounds
