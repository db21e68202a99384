import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcop import federation, nn, objectives
from flcop.codec import MAX_BITS, MAX_DROP_PERCENT
from flcop.data import Shard, partition
from flcop.federation import run_federated_training
from flcop.objectives import Bounds, EvalEnv, Genome, comm_fraction
from conftest import layer_specs, make_synthetic, payload_bits, random_genome


def test_brute_force_genome_is_exactly_one():
    for spec in (nn.fully_connected(), nn.convolutional()):
        n_layers = spec.n_arrays
        g = Genome(4, 1, (0,) * n_layers, (32,) * n_layers)
        alpha, beta, f1 = comm_fraction(g, spec.param_shapes, 4)
        assert alpha == 1.0 and beta == 1.0 and f1 == 1.0


def test_comm_fraction_worked_example():
    g = Genome(4, 20, (10, 45, 2), (2, 20, 15))
    alpha, beta, f1 = comm_fraction(g, [100, 100, 100], 4)
    assert alpha == 0.05
    assert abs(beta - 275000 / 19200000) < 1e-15
    assert abs(f1 - 0.0321614583333333) < 1e-12


def test_comm_fraction_extreme_compression():
    g = Genome(1, 1000, (50, 50), (1, 1))
    alpha, beta, _ = comm_fraction(g, [64, 64], 4)
    assert alpha == 0.00025
    assert abs(beta - 0.00025 * (1 / 32) * 0.5) < 1e-18


def test_single_upload_extreme_genome_is_below_half_percent():
    # one client, one communication at an epoch budget of 32 batches
    g = Genome(1, 32, (50,) * 4, (1,) * 4)
    _, _, f1 = comm_fraction(g, nn.fully_connected().param_shapes, 4)
    assert f1 < 0.005


def test_comm_fraction_matches_direct_summation():
    rng = np.random.default_rng(0)
    for spec in (nn.fully_connected(), nn.convolutional()):
        sizes = spec.param_shapes
        bounds = Bounds(4, len(sizes))
        for _ in range(250):
            g = random_genome(bounds, rng)
            alpha, beta, f1 = comm_fraction(g, sizes, 4)
            total = sum(sizes)
            alpha_o = (1 / g.interval) * (g.participants / 4)
            beta_o = alpha_o * sum(
                (b / 32) * ((100 - mu) / 100) * (n / total)
                for b, mu, n in zip(g.bit_widths, g.drop_percents, sizes)
            )
            assert abs(alpha - alpha_o) < 1e-12
            assert abs(beta - beta_o) < 1e-12
            assert abs(f1 - (alpha_o + beta_o) / 2) < 1e-12


def test_beta_never_exceeds_alpha():
    rng = np.random.default_rng(1)
    bounds = Bounds(4, 4)
    for _ in range(500):
        g = random_genome(bounds, rng)
        alpha, beta, f1 = comm_fraction(g, [100, 10, 50, 5], 4)
        assert 0.0 <= beta <= alpha <= 1.0
        assert 0.0 <= f1 <= 1.0


def test_f1_monotonicity():
    rng = np.random.default_rng(2)
    sizes = [300, 20, 60, 10]
    bounds = Bounds(4, 4)
    for _ in range(200):
        g = random_genome(bounds, rng)
        _, _, base = comm_fraction(g, sizes, 4)
        more_interval = Genome(g.participants, min(1000, g.interval + 7), g.drop_percents, g.bit_widths)
        assert comm_fraction(more_interval, sizes, 4)[2] <= base
        more_drop = Genome(g.participants, g.interval, tuple(min(50, mu + 5) for mu in g.drop_percents), g.bit_widths)
        assert comm_fraction(more_drop, sizes, 4)[2] <= base
        more_clients = Genome(min(4, g.participants + 1), g.interval, g.drop_percents, g.bit_widths)
        assert comm_fraction(more_clients, sizes, 4)[2] >= base
        more_bits = Genome(g.participants, g.interval, g.drop_percents, tuple(min(32, b + 3) for b in g.bit_widths))
        assert comm_fraction(more_bits, sizes, 4)[2] >= base


def test_random_genomes_respect_bounds():
    rng = np.random.default_rng(3)
    bounds = Bounds(4, 4)
    for _ in range(2000):
        random_genome(bounds, rng).validate(bounds)


def test_random_genome_bits_roughly_uniform():
    rng = np.random.default_rng(4)
    bounds = Bounds(4, 1)
    counts = np.zeros(33)
    draws = 10_000
    for _ in range(draws):
        counts[random_genome(bounds, rng).bit_widths[0]] += 1
    freqs = counts[1:] / draws
    assert np.abs(freqs - 1 / 32).max() < 0.01


def test_genome_vector_round_trip_and_bounds_presets():
    g = Genome(2, 20, (10, 45, 2), (2, 20, 15))
    assert g.to_vector() == (2, 20, 10, 45, 2, 2, 20, 15)
    assert Genome.from_vector(g.to_vector()) == g
    assert objectives.BOUNDS_PRESETS == {"default": 1000, "mutation-narrow": 100}
    assert Bounds(4, 3).interval_max == 1000
    assert len(Bounds(4, 3).coordinate_ranges()) == 8
    assert Bounds(4, 1).coordinate_ranges() == [(1, 4), (1, 1000), (0, MAX_DROP_PERCENT), (1, MAX_BITS)]
    with pytest.raises(ValueError):
        Genome.from_vector([1, 2, 3])


def test_evaluate_genome_deterministic(tiny_env):
    g = Genome(3, 2, (25,) * 4, (10,) * 4)
    a, _ = objectives.simulate_genome(g, tiny_env, generation=2, index=5)
    b, _ = objectives.simulate_genome(g, tiny_env, generation=2, index=5)
    assert a == b
    c, _ = objectives.simulate_genome(g, tiny_env, generation=2, index=6)
    assert c.comm_fraction == a.comm_fraction  # closed form ignores the seed
    assert a.comm_fraction == (a.alpha + a.beta) / 2
    assert a.accuracy == a.n_correct / a.n_test


def test_failed_training_becomes_zero_accuracy(tiny_env):
    env = EvalEnv(
        spec=tiny_env.spec,
        partition=tiny_env.partition,
        test=tiny_env.test,
        train=nn.TrainConfig(1e30, 32),
        epochs=1,
        seed=1,
    )
    vector, outcome = objectives.simulate_genome(Genome(4, 1, (0,) * 4, (32,) * 4), env)
    assert outcome is None
    assert vector.failed
    assert vector.accuracy == 0.0
    assert "training failed" in vector.note


def test_non_finite_local_model_marks_genome_failed(tiny_env, monkeypatch):
    def overflowing_step(params, images, labels, cfg):
        return nn.ModelParams(params.spec, [np.full_like(a, np.inf) for a in params.arrays])

    monkeypatch.setattr(federation, "sgd_step", overflowing_step)
    vector, outcome = objectives.simulate_genome(Genome(2, 1, (50, 10, 25, 0), (8, 16, 8, 16)), tiny_env)
    assert vector.failed and outcome is None
    assert vector.accuracy == 0.0
    assert "non-finite values in parameter array" in vector.note


LEDGER_TRAIN = partition(make_synthetic(256, 5), 4, seed=3)  # shards of 64
LEDGER_TEST = make_synthetic(64, 6)


@st.composite
def ledger_cases(draw, divisors_only=True):
    """A batch size, giving a budget of 64 / batch iterations, and a genome
    whose E divides that budget, or with divisors_only=False any E of the
    default bounds."""
    batch = draw(st.sampled_from([8, 16, 32, 64]))
    budget = 64 // batch
    n_layers = nn.fully_connected().n_arrays
    divisors = [e for e in range(1, budget + 1) if budget % e == 0]
    genome = Genome(
        draw(st.integers(1, 4)),
        draw(st.sampled_from(divisors) if divisors_only else st.integers(1, 1000)),
        tuple(draw(st.lists(st.integers(0, 50), min_size=n_layers, max_size=n_layers))),
        tuple(draw(st.lists(st.integers(1, 32), min_size=n_layers, max_size=n_layers))),
    )
    return batch, budget, genome


@settings(max_examples=40, deadline=None)
@given(ledger_cases())
def test_ledger_agrees_with_closed_form(case):
    batch, total_iters, g = case
    env = EvalEnv(nn.fully_connected(), LEDGER_TRAIN, LEDGER_TEST, nn.TrainConfig(0.1, batch), 1, seed=9)
    outcome = run_federated_training(g, env, seed=1)
    sizes = env.spec.param_shapes
    theta = 32 * sum(sizes)
    alpha, beta, _ = comm_fraction(g, sizes, 4)
    assert outcome.ledger.rounds_executed == total_iters // g.interval
    assert outcome.ledger.downlink_bits == alpha * (total_iters * 4 * theta)
    # uplink modelled by the closed form, up to per-layer ceil rounding and
    # the 64-bit extrema overhead the formula deliberately ignores
    rounds = outcome.ledger.rounds_executed
    m = g.participants
    extrema = 64 * len(sizes)
    modelled = beta * (total_iters * 4 * theta)
    actual = outcome.ledger.uplink_bits - rounds * m * extrema
    assert abs(actual - modelled) <= rounds * m * len(sizes) * 32
    assert outcome.ledger.uplink_bits == rounds * m * payload_bits(layer_specs(g), sizes)


@settings(max_examples=40, deadline=None)
@given(ledger_cases(divisors_only=False))
def test_ledger_runs_ceil_rounds_for_every_interval(case):
    # f1 charges m * T / E rounds of downloads; the run executes ceil(T / E)
    batch, total_iters, g = case
    env = EvalEnv(nn.fully_connected(), LEDGER_TRAIN, LEDGER_TEST, nn.TrainConfig(0.1, batch), 1, seed=9)
    outcome = run_federated_training(g, env, seed=1)
    sizes = env.spec.param_shapes
    theta = 32 * sum(sizes)
    rounds = math.ceil(total_iters / g.interval)
    m = g.participants
    assert outcome.ledger.rounds_executed == rounds
    assert outcome.ledger.downlink_bits == m * rounds * theta
    assert outcome.ledger.uplink_bits == rounds * m * payload_bits(layer_specs(g), sizes)


def test_simulate_genome_returns_outcome(tiny_env):
    g = Genome(4, 1, (0,) * 4, (32,) * 4)
    vector, outcome = objectives.simulate_genome(g, tiny_env)
    assert outcome is not None
    assert vector.comm_fraction == 1.0
    assert vector.n_correct == outcome.n_correct
    assert vector.accuracy == outcome.n_correct / tiny_env.test.count


def test_validate_rejects_out_of_bounds():
    bounds = Bounds(4, 2)
    with pytest.raises(ValueError):
        Genome(5, 1, (0, 0), (32, 32)).validate(bounds)
    with pytest.raises(ValueError):
        Genome(4, 0, (0, 0), (32, 32)).validate(bounds)
    with pytest.raises(ValueError):
        Genome(4, 1, (0, 60), (32, 32)).validate(bounds)
    with pytest.raises(ValueError):
        Genome(4, 1, (0, 0), (32, 0)).validate(bounds)


@st.composite
def genome_cases(draw):
    """Bounds of a random problem and a vector inside its ranges."""
    bounds = Bounds(draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 1000)))
    return bounds, [draw(st.integers(lo, hi)) for lo, hi in bounds.coordinate_ranges()]


@given(genome_cases(), st.data())
def test_genome_checks_the_ranges_every_problem_shares(case, data):
    bounds, vec = case
    assert Genome.from_vector(vec).to_vector() == tuple(vec)
    i = data.draw(st.integers(0, len(vec) - 1), label="coordinate")
    lo, hi = bounds.coordinate_ranges()[i]
    name = bounds.coordinate_names()[i]
    outside = [lo - 1, hi + 1] if i >= 2 else [lo - 1]
    for value in outside:
        with pytest.raises(ValueError, match=rf"^{name}={value} outside "):
            Genome.from_vector([*vec[:i], value, *vec[i + 1 :]])
    if i < 2:
        # a problem's own Bounds cap m and E; the genome alone does not
        assert Genome.from_vector([*vec[:i], hi + 1, *vec[i + 1 :]]).to_vector()[i] == hi + 1


@pytest.mark.parametrize("field", ["no-shards", "empty-shard", "empty-test", "epochs-0"])
def test_eval_env_rejects_a_setting_that_describes_no_run(field):
    train, test = make_synthetic(64, 13), make_synthetic(16, 14)
    part = partition(train, 4, seed=6)
    none = np.array([], np.int64)
    fields = dict(spec=nn.fully_connected(), partition=part, test=test, train=nn.TrainConfig(0.1, 32), epochs=1, seed=0)
    assert EvalEnv(**fields).step_budget == 1
    bad = {
        "no-shards": dict(partition=()),
        "empty-shard": dict(partition=(*part[:3], Shard(train, none))),
        "empty-test": dict(test=test.take(none)),
        "epochs-0": dict(epochs=0),
    }[field]
    with pytest.raises(ValueError, match="epochs must be at least 1" if field == "epochs-0" else "client shards"):
        EvalEnv(**{**fields, **bad})
