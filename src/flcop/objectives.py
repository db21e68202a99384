"""Problem definition for the communication-vs-accuracy search.

A genome fixes the number of participating clients, the communication
interval, and a per-layer (drop percent, bit width) pair. The first objective
is the closed-form fraction of baseline traffic the configuration moves; the
second is the final test accuracy of the simulated federated run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codec import MAX_BITS, MAX_DROP_PERCENT
from .data import LabeledDataset, Shard
from .federation import run_federated_training
from .nn import ModelSpec, NumericError, TrainConfig


@dataclass(frozen=True)
class Bounds:
    """Closed per-coordinate ranges for genomes over a model with n_layers arrays."""

    n_clients: int
    n_layers: int
    interval_max: int = 1000

    def coordinate_ranges(self) -> list[tuple[int, int]]:
        return (
            [(1, self.n_clients), (1, self.interval_max)]
            + [(0, MAX_DROP_PERCENT)] * self.n_layers
            + [(1, MAX_BITS)] * self.n_layers
        )

    def coordinate_names(self) -> list[str]:
        return (
            ["m", "E"]
            + [f"mu_{i + 1}" for i in range(self.n_layers)]
            + [f"b_{i + 1}" for i in range(self.n_layers)]
        )


# each bounds preset's interval_max; "mutation-narrow" is a narrower interval
# range exposed as a preset rather than silently chosen
BOUNDS_PRESETS = {"default": 1000, "mutation-narrow": 100}


@dataclass(frozen=True)
class Genome:
    """Decision vector: participants, interval, per-layer drops and bit widths."""

    participants: int
    interval: int
    drop_percents: tuple[int, ...]
    bit_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.drop_percents) != len(self.bit_widths):
            raise ValueError("drop_percents and bit_widths must have equal length")
        # the ranges every problem shares; a problem's own Bounds also cap m and E
        self.validate(Bounds(math.inf, self.n_layers, math.inf))

    @property
    def n_layers(self) -> int:
        return len(self.drop_percents)

    def to_vector(self) -> tuple[int, ...]:
        return (self.participants, self.interval, *self.drop_percents, *self.bit_widths)

    @classmethod
    def from_vector(cls, vec) -> "Genome":
        vec = [int(v) for v in vec]
        if len(vec) < 4 or len(vec) % 2:
            raise ValueError(f"genome length must be even and at least 4, got {len(vec)}")
        n_layers = (len(vec) - 2) // 2
        return cls(vec[0], vec[1], tuple(vec[2 : 2 + n_layers]), tuple(vec[2 + n_layers :]))

    def validate(self, bounds: Bounds) -> None:
        if self.n_layers != bounds.n_layers:
            raise ValueError(f"genome has {self.n_layers} layers, bounds expect {bounds.n_layers}")
        for value, (lo, hi), name in zip(
            self.to_vector(), bounds.coordinate_ranges(), bounds.coordinate_names()
        ):
            if not lo <= value <= hi:
                raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class ObjectiveVector:
    """Both objective values plus their raw ingredients."""

    comm_fraction: float  # f1, minimized
    accuracy: float  # f2, maximized
    alpha: float
    beta: float
    n_correct: int
    n_test: int
    failed: bool = False
    note: str = ""

    def as_pair(self) -> tuple[float, float]:
        return (self.comm_fraction, self.accuracy)


def comm_fraction(genome: Genome, layer_sizes, n_clients: int) -> tuple[float, float, float]:
    """Closed-form (alpha, beta, f1): downlink and uplink fractions of the
    no-reduction baseline and their mean. Exact integer core, no simulation."""
    if len(layer_sizes) != genome.n_layers:
        raise ValueError("genome does not match the layer layout")
    total = sum(layer_sizes)
    alpha = genome.participants / (n_clients * genome.interval)
    numerator = sum(
        b * (100 - mu) * n
        for b, mu, n in zip(genome.bit_widths, genome.drop_percents, layer_sizes)
    )
    beta = (genome.participants * numerator) / (n_clients * genome.interval * 3200 * total)
    return alpha, beta, (alpha + beta) / 2


@dataclass
class EvalEnv:
    """The whole setting of a federated run besides the genome: the model,
    the client partition, the test set, the training config, the epoch count
    and the initial-model seed. Together with a genome it describes the run
    that `run_federated_training(genome, env, seed)` simulates.

    Per-evaluation randomness is derived from (seed, generation, index), so
    results do not depend on how evaluations are scheduled across workers.
    """

    spec: ModelSpec
    partition: tuple[Shard, ...]
    test: LabeledDataset
    train: TrainConfig
    epochs: int
    seed: int
    init_seed: int = 0

    def __post_init__(self):
        if not self.partition or min(s.count for s in self.partition) == 0 or self.test.count == 0:
            raise ValueError("an env needs one or more client shards, none empty, and a non-empty test set")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")

    @property
    def n_clients(self) -> int:
        return len(self.partition)

    @property
    def step_budget(self) -> int:
        """T, each client's SGD step budget: ceil(largest shard / batch size) * epochs."""
        return math.ceil(max(s.count for s in self.partition) / self.train.batch_size) * self.epochs


def simulate_genome(
    genome: Genome,
    env: EvalEnv,
    generation: int = 0,
    index: int = 0,
    trace=None,
):
    """Simulate one genome; returns (ObjectiveVector, FLOutcome or None),
    deterministic given (env.seed, generation, index).

    A numeric failure during training does not abort the search: the result
    is marked failed with accuracy 0, a diagnostic note, and no outcome.
    """
    alpha, beta, f1 = comm_fraction(genome, env.spec.param_shapes, env.n_clients)
    try:
        outcome = run_federated_training(genome, env, [env.seed, generation, index], trace=trace)
    except NumericError as exc:
        vector = ObjectiveVector(
            f1, 0.0, alpha, beta, 0, env.test.count,
            failed=True, note=f"training failed: {exc} (array {exc.layer_index})",
        )
        return vector, None
    vector = ObjectiveVector(f1, outcome.n_correct / env.test.count, alpha, beta, outcome.n_correct, env.test.count)
    return vector, outcome
