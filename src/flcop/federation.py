"""FedAvg simulation with compressed uploads and an exact communication ledger.

A run is described by a genome and an evaluation environment:
`run_federated_training(genome, env, seed)` reads the participant count, the
communication interval and each parameter array's drop percent and bit width
from the genome, and the model spec, client partition, test set, training
config, epoch count and initial-model seed from the env. Each round the
server broadcasts the full-precision global model to the selected clients,
every selected client trains locally for the round's step quota, encodes each
parameter array with its drop percent and bit width, and uploads the payload.
The server reconstructs the arrays (positions dropped by sparsification keep
the current global value) and averages them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .codec import dequantize, quantize, sparsify
from .nn import ModelParams, NumericError, build_model, count_correct, sgd_step

if TYPE_CHECKING:  # objectives imports this module, so its types are named for checkers only
    from .objectives import EvalEnv, Genome


@dataclass
class CommLedger:
    """Bit-exact traffic counters for one run.

    baseline_bits is the per-direction volume of the no-reduction reference:
    every client uploading uncompressed after every local step.
    """

    rounds_executed: int = 0
    uplink_bits: int = 0
    downlink_bits: int = 0
    baseline_bits: int = 0


@dataclass
class FLOutcome:
    """A run's final global model, its traffic, and the global model's count
    of correct test predictions."""

    global_model: ModelParams
    ledger: CommLedger
    n_correct: int


def select_clients(n_clients: int, participants: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of `participants` distinct client indices, sorted.
    More participants than clients raises ValueError."""
    return np.sort(rng.choice(n_clients, size=participants, replace=False))


def aggregate(local_models: list[ModelParams]) -> ModelParams:
    """Elementwise arithmetic mean of the local models (64-bit accumulation)."""
    if not local_models:
        raise ValueError("need at least one model to aggregate")
    spec = local_models[0].spec
    if any(m.spec != spec for m in local_models):
        raise ValueError("models disagree on their spec")
    dtype = local_models[0].arrays[0].dtype
    out = []
    for i in range(spec.n_arrays):
        acc = np.zeros(spec.param_shapes[i], np.float64)
        for m in local_models:
            acc += m.arrays[i]
        acc /= len(local_models)
        out.append(acc.astype(dtype))
    return ModelParams(spec, out)


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Endless cycle over one client's shard of n > 0 examples: a seeded
    shuffle consumed batch by batch, reshuffled when exhausted."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def run_federated_training(
    genome: Genome,
    env: EvalEnv,
    seed,
    trace: Callable[[dict, ModelParams], None] | None = None,
) -> FLOutcome:
    """Simulate the run the genome describes in the env's setting, for
    ceil(batches_per_epoch * epochs / interval) rounds.

    The local-iteration budget per client is one epoch over its shard times
    `env.epochs`; the final round is shortened so the budget is met exactly.
    After each round, `trace` (if given) is called with the round's row of
    selected clients and traffic, and the new global model.

    Deterministic given (genome, env, seed). Genome and EvalEnv check
    themselves when built; this raises ValueError, before any training,
    only when the genome does not fit the env, and NumericError when
    training or a local model about to be uploaded holds non-finite values.
    """
    part, test, spec, train = env.partition, env.test, env.spec, env.train
    n_clients = len(part)
    if genome.participants > n_clients or genome.n_layers != spec.n_arrays:
        raise ValueError(f"genome selects {genome.participants} participants with genes for {genome.n_layers} parameter"
                         f" arrays; the env has {n_clients} clients and a model of {spec.n_arrays} arrays")

    sizes = spec.param_shapes
    theta = 32 * spec.total_params
    total_iters = env.step_budget
    rounds = math.ceil(total_iters / genome.interval)

    root = np.random.SeedSequence(seed)
    select_seq, batch_seq = root.spawn(2)
    select_rng = np.random.default_rng(select_seq)
    # one generator per client, so no client's batches depend on when another draws
    streams = [
        _batches(part[k].count, train.batch_size, np.random.default_rng(s))
        for k, s in enumerate(batch_seq.spawn(n_clients))
    ]

    global_model = build_model(spec, env.init_seed)
    dtype = global_model.arrays[0].dtype
    ledger = CommLedger(rounds_executed=rounds, baseline_bits=total_iters * n_clients * theta)

    for t in range(1, rounds + 1):
        selected = select_clients(n_clients, genome.participants, select_rng)
        ledger.downlink_bits += genome.participants * theta
        steps = min(genome.interval, total_iters - (t - 1) * genome.interval)

        decoded = []
        round_up = 0
        for k in selected:
            shard = part[k]
            local = global_model
            for _ in range(steps):
                local = sgd_step(local, *shard.take(next(streams[k])), train)
            arrays = []
            for i, arr in enumerate(local.arrays):
                # sparsify would silently drop a NaN, so check before encoding
                if not np.isfinite(arr).all():
                    raise NumericError(i, f"non-finite values in parameter array {i} before upload")
                kept = sparsify(arr, genome.drop_percents[i])
                payload = quantize(arr, kept, genome.bit_widths[i])
                round_up += payload.codes.size * payload.bits + 64
                arrays.append(dequantize(payload, sizes[i], fill=global_model.arrays[i], dtype=dtype))
            decoded.append(ModelParams(spec, arrays))
        ledger.uplink_bits += round_up
        global_model = aggregate(decoded)

        if trace is not None:
            row = {
                "round": t,
                "selected": [int(k) for k in selected],
                "uplink_bits": round_up,
                "downlink_bits": genome.participants * theta,
            }
            trace(row, global_model)

    return FLOutcome(global_model, ledger, count_correct(global_model, test))
