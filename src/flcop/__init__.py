"""Communication-overhead optimizer for federated learning.

Simulates FedAvg training over N clients with a per-layer quantisation and
sparsification codec, and searches the configuration space (participants,
communication interval, per-layer drop percentages and bit widths) with
NSGA-II to produce Pareto fronts trading communication volume against
global-model accuracy.
"""

from .codec import LayerPayload, dequantize, quantize, sparsify
from .data import LabeledDataset, load_idx, load_mnist, partition
from .federation import CommLedger, FLOutcome, aggregate, run_federated_training
from .metrics import ParetoPoint, hypervolume, merge_pseudo_optimal
from .nn import ModelParams, ModelSpec, TrainConfig, build_model, convolutional, forward, fully_connected, sgd_step
from .objectives import Bounds, EvalEnv, Genome, ObjectiveVector, comm_fraction, simulate_genome

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CommLedger",
    "EvalEnv",
    "FLOutcome",
    "Genome",
    "LabeledDataset",
    "LayerPayload",
    "ModelParams",
    "ModelSpec",
    "ObjectiveVector",
    "ParetoPoint",
    "TrainConfig",
    "aggregate",
    "build_model",
    "comm_fraction",
    "convolutional",
    "dequantize",
    "forward",
    "fully_connected",
    "hypervolume",
    "load_idx",
    "load_mnist",
    "merge_pseudo_optimal",
    "partition",
    "quantize",
    "run_federated_training",
    "sgd_step",
    "simulate_genome",
    "sparsify",
]
