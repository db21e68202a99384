import os
from pathlib import Path

import numpy as np
import pytest

from flcop import codec, data
from flcop.nn import TrainConfig
from flcop.objectives import EvalEnv
from flcop import nn


def argsort_sparsify(layer, drop_percent: int) -> np.ndarray:
    """Reference top-k selection by a full stable sort of the negated
    magnitudes: ties go to the lower index and NaN sorts last."""
    layer = np.asarray(layer)
    k = codec.kept_count(layer.size, drop_percent)
    order = np.argsort(-np.abs(layer.astype(np.float64)), kind="stable")
    return np.sort(order[:k])


def make_synthetic(n: int, seed: int) -> data.LabeledDataset:
    """Learnable MNIST-shaped stand-in: noisy class prototypes on a byte grid.

    The prototypes are fixed so train and test splits drawn with different
    seeds share one classification task.
    """
    protos = np.random.default_rng(12345).random((10, 784)) * 0.8
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    images = np.clip(protos[labels] + rng.normal(0, 0.25, (n, 784)), 0, 1)
    images = np.rint(images * 255) / 255.0
    return data.LabeledDataset(images.astype(np.float32), labels.astype(np.int64))


@pytest.fixture(scope="session")
def fixture_mnist_dir(tmp_path_factory) -> Path:
    """Directory of synthetic IDX files in the standard MNIST layout."""
    d = tmp_path_factory.mktemp("idx")
    data.write_idx(make_synthetic(1024, 0), d / data.TRAIN_IMAGES, d / data.TRAIN_LABELS)
    data.write_idx(make_synthetic(256, 1), d / data.TEST_IMAGES, d / data.TEST_LABELS)
    return d


@pytest.fixture(scope="session")
def tiny_env() -> EvalEnv:
    """Small in-memory evaluation environment over the synthetic data."""
    train = make_synthetic(256, 2)
    test = make_synthetic(128, 3)
    return EvalEnv(
        spec=nn.fully_connected(),
        partition=data.partition(train, 4, seed=7),
        test=test,
        train=TrainConfig(0.1, 32),
        epochs=1,
        seed=11,
    )


def find_mnist_dir() -> Path | None:
    """Real MNIST location for the full-scale acceptance criteria, if present."""
    candidates = []
    env = os.environ.get("FLCOP_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "mnist", here / "data"]
    for c in candidates:
        if (c / data.TRAIN_IMAGES).is_file() and (c / data.TEST_IMAGES).is_file():
            return c
    return None


requires_mnist = pytest.mark.skipif(
    find_mnist_dir() is None,
    reason="real MNIST IDX files not available (set FLCOP_MNIST_DIR)",
)
