"""FedAvg simulation with compressed uploads and an exact communication ledger.

Each round the server broadcasts the full-precision global model to the
selected clients, every selected client trains locally for the round's step
quota, encodes each parameter array with its per-layer compression spec, and
uploads the payload. The server reconstructs the arrays (positions dropped by
sparsification keep the current global value) and averages them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codec import LayerCompressionSpec, dequantize, quantize, sparsify
from .data import ClientPartition, LabeledDataset
from .nn import ModelParams, ModelSpec, NumericError, TrainConfig, build_model, count_correct, sgd_step


@dataclass(frozen=True)
class FLRunConfig:
    """One simulated federated run: protocol knobs plus per-layer compression."""

    model_spec: ModelSpec
    n_clients: int
    participants: int
    interval: int
    layer_specs: tuple[LayerCompressionSpec, ...]
    train: TrainConfig = TrainConfig()
    epochs: int = 1
    init_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.participants <= self.n_clients:
            raise ValueError("participants must lie in [1, n_clients]")
        if self.interval < 1:
            raise ValueError("interval must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if len(self.layer_specs) != self.model_spec.n_arrays:
            raise ValueError("one compression spec per parameter array required")


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
    """Uniform sample of `participants` distinct client indices, sorted."""
    if not 1 <= participants <= n_clients:
        raise ValueError("participants must lie in [1, n_clients]")
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
    cfg: FLRunConfig,
    part: ClientPartition,
    test: LabeledDataset,
    seed,
    trace: Callable[[dict], None] | None = None,
    trace_accuracy: bool = False,
) -> FLOutcome:
    """Simulate the full protocol for ceil(batches_per_epoch * epochs / interval) rounds.

    The local-iteration budget per client is one epoch over its shard times
    `epochs`; the final round is shortened so the budget is met exactly.
    Deterministic given (cfg, part, seed). Raises NumericError when training
    or a local model about to be uploaded holds non-finite values.
    """
    if part.n_clients != cfg.n_clients:
        raise ValueError("partition size does not match n_clients")
    if any(s.count == 0 for s in part.shards):
        raise ValueError("every client shard must be non-empty")
    if test.count == 0:
        raise ValueError("test set must be non-empty")

    spec = cfg.model_spec
    sizes = spec.param_shapes
    theta = 32 * spec.total_params
    batches_per_epoch = math.ceil(max(s.count for s in part.shards) / cfg.train.batch_size)
    total_iters = batches_per_epoch * cfg.epochs
    rounds = math.ceil(total_iters / cfg.interval)

    root = np.random.SeedSequence(seed)
    select_seq, batch_seq = root.spawn(2)
    select_rng = np.random.default_rng(select_seq)
    streams = [
        _BatchStream(part.shards[k].count, cfg.train.batch_size, np.random.default_rng(s))
        for k, s in enumerate(batch_seq.spawn(cfg.n_clients))
    ]

    global_model = build_model(spec, cfg.init_seed)
    dtype = global_model.arrays[0].dtype
    ledger = CommLedger(rounds_executed=rounds, baseline_bits=total_iters * cfg.n_clients * theta)

    for t in range(1, rounds + 1):
        selected = select_clients(cfg.n_clients, cfg.participants, select_rng)
        ledger.downlink_bits += cfg.participants * theta
        steps = min(cfg.interval, total_iters - (t - 1) * cfg.interval)

        decoded = []
        round_up = 0
        for k in selected:
            shard = part.shards[k]
            local = global_model
            for _ in range(steps):
                local = sgd_step(local, shard.take(streams[k].next_batch()), cfg.train)
            arrays = []
            for i, arr in enumerate(local.arrays):
                # sparsify would silently drop a NaN, so check before encoding
                if not np.isfinite(arr).all():
                    raise NumericError(i, f"non-finite values in parameter array {i} before upload")
                layer_spec = cfg.layer_specs[i]
                kept = sparsify(arr, layer_spec.drop_percent)
                payload = quantize(arr, kept, layer_spec.bits)
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
                "downlink_bits": cfg.participants * theta,
            }
            if trace_accuracy:
                row["global_accuracy"] = count_correct(global_model, test) / test.count
            trace(row)

    n_correct = count_correct(global_model, test)
    return FLOutcome(global_model, ledger, n_correct / test.count, n_correct)
