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
from typing import TYPE_CHECKING, Callable

import numpy as np

from .codec import MAX_BITS, MAX_DROP_PERCENT, dequantize, quantize, sparsify
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
    global_model: ModelParams
    ledger: CommLedger
    accuracy: float
    n_correct: int = 0


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


class _BatchStream:
    """Deterministic cycle over one client's shard: a seeded shuffle consumed
    batch by batch, reshuffled when exhausted. Advances only when asked."""

    def __init__(self, n_examples: int, batch_size: int, rng: np.random.Generator):
        self._n = n_examples
        self._batch = batch_size
        self._rng = rng
        self._order = rng.permutation(n_examples)
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self._pos >= self._n:
            self._order = self._rng.permutation(self._n)
            self._pos = 0
        batch = self._order[self._pos : self._pos + self._batch]
        self._pos += self._batch
        return batch


def run_federated_training(
    genome: Genome,
    env: EvalEnv,
    seed,
    trace: Callable[[dict], None] | None = None,
    trace_accuracy: bool = False,
) -> FLOutcome:
    """Simulate the run the genome describes in the env's setting, for
    ceil(batches_per_epoch * epochs / interval) rounds.

    The local-iteration budget per client is one epoch over its shard times
    `env.epochs`; the final round is shortened so the budget is met exactly.
    Deterministic given (genome, env, seed). Raises ValueError, before any
    training, on a genome or env that describes no run, and NumericError
    when training or a local model about to be uploaded holds non-finite
    values.
    """
    part, test, spec, train = env.partition, env.test, env.spec, env.train
    n_clients = part.n_clients
    if not 1 <= genome.participants <= n_clients:
        raise ValueError(f"participants must lie in [1, {n_clients}], got {genome.participants}")
    if genome.interval < 1:
        raise ValueError(f"interval must be at least 1, got {genome.interval}")
    if env.epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {env.epochs}")
    if genome.n_layers != spec.n_arrays:
        raise ValueError(f"genome has genes for {genome.n_layers} parameter arrays, the model has {spec.n_arrays}")
    for i, (bits, drop) in enumerate(zip(genome.bit_widths, genome.drop_percents)):
        if not 1 <= bits <= MAX_BITS:
            raise ValueError(f"bit width of array {i} must lie in [1, {MAX_BITS}], got {bits}")
        if not 0 <= drop <= MAX_DROP_PERCENT:
            raise ValueError(f"drop percent of array {i} must lie in [0, {MAX_DROP_PERCENT}], got {drop}")
    if any(s.count == 0 for s in part.shards):
        raise ValueError("every client shard must be non-empty")
    if test.count == 0:
        raise ValueError("test set must be non-empty")

    sizes = spec.param_shapes
    theta = 32 * spec.total_params
    batches_per_epoch = math.ceil(max(s.count for s in part.shards) / train.batch_size)
    total_iters = batches_per_epoch * env.epochs
    rounds = math.ceil(total_iters / genome.interval)

    root = np.random.SeedSequence(seed)
    select_seq, batch_seq = root.spawn(2)
    select_rng = np.random.default_rng(select_seq)
    streams = [
        _BatchStream(part.shards[k].count, train.batch_size, np.random.default_rng(s))
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
            shard = part.shards[k]
            local = global_model
            for _ in range(steps):
                local = sgd_step(local, shard.take(streams[k].next_batch()), train)
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
            if trace_accuracy:
                row["global_accuracy"] = count_correct(global_model, test) / test.count
            trace(row)

    n_correct = count_correct(global_model, test)
    return FLOutcome(global_model, ledger, n_correct / test.count, n_correct)
