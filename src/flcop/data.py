"""MNIST loading from IDX files, normalization, and IID client partitioning."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


class IdxFormatError(ValueError):
    """Magic number or structural violation in an IDX file."""


class IdxLengthError(ValueError):
    """IDX payload shorter than its header promises."""


class DataConsistencyError(ValueError):
    """Image and label files disagree on the example count."""


@dataclass(frozen=True)
class LabeledDataset:
    """Images as float rows in [0, 1], one row of 784 pixels per example."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 2 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels must have one row per example")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 9]")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixels must lie in [0, 1]")

    @property
    def count(self) -> int:
        return self.images.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        """The rows at a 1-D index array. Rows of a checked dataset need no
        second check, so the subset skips __post_init__."""
        subset = object.__new__(LabeledDataset)
        object.__setattr__(subset, "images", self.images[indices])
        object.__setattr__(subset, "labels", self.labels[indices])
        return subset


@dataclass(frozen=True)
class ClientPartition:
    """Disjoint shards of a dataset, one per client."""

    shards: tuple[LabeledDataset, ...]

    @property
    def n_clients(self) -> int:
        return len(self.shards)


def _read_header(raw: bytes, path, n_dims: int, expected_magic: int) -> tuple[int, ...]:
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise IdxLengthError(f"{path}: file shorter than its {header_len}-byte header")
    fields = struct.unpack(f">{1 + n_dims}i", raw[:header_len])
    if fields[0] != expected_magic:
        raise IdxFormatError(f"{path}: bad magic {fields[0]}, expected {expected_magic}")
    if min(fields[1:]) < 0:
        raise IdxFormatError(f"{path}: negative dimension in header {fields[1:]}")
    return fields[1:]


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an MNIST-style IDX image/label file pair.

    Pixels are scaled from byte value v to v / 255 and stored as float32.
    Raises IdxFormatError on a bad magic number or a negative dimension,
    IdxLengthError on a truncated payload, and DataConsistencyError when the
    two files disagree on the example count.
    """
    raw_images = Path(images_path).read_bytes()
    raw_labels = Path(labels_path).read_bytes()

    count, rows, cols = _read_header(raw_images, images_path, 3, IMAGE_MAGIC)
    if rows * cols != 784:
        raise IdxFormatError(f"{images_path}: expected 28x28 images, got {rows}x{cols}")
    pixels = np.frombuffer(raw_images, np.uint8, offset=16)
    if pixels.size < count * 784:
        raise IdxLengthError(f"{images_path}: payload holds {pixels.size} bytes, header promises {count * 784}")

    (label_count,) = _read_header(raw_labels, labels_path, 1, LABEL_MAGIC)
    if label_count != count:
        raise DataConsistencyError(f"{labels_path}: {label_count} labels for {count} images")
    labels = np.frombuffer(raw_labels, np.uint8, offset=8)
    if labels.size < count:
        raise IdxLengthError(f"{labels_path}: payload holds {labels.size} labels, header promises {count}")

    images = pixels[: count * 784].reshape(count, 784).astype(np.float32) / np.float32(255.0)
    return LabeledDataset(images, labels[:count].astype(np.int64))


def load_mnist(mnist_dir) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the train/test pair from a directory of the four standard IDX files."""
    d = Path(mnist_dir)
    train = load_idx(d / TRAIN_IMAGES, d / TRAIN_LABELS)
    test = load_idx(d / TEST_IMAGES, d / TEST_LABELS)
    return train, test


def subsample(ds: LabeledDataset, limit: int | None, seed: int) -> LabeledDataset:
    """Take the first `limit` examples of the seeded permutation of `ds`."""
    if limit is None or limit >= ds.count:
        return ds
    if limit < 1:
        raise ValueError("limit must be positive")
    order = np.random.default_rng(seed).permutation(ds.count)
    return ds.take(order[:limit])


def partition(ds: LabeledDataset, n_clients: int, seed: int) -> ClientPartition:
    """Split a dataset into n_clients random disjoint shards.

    The examples are permuted under `seed` and split contiguously into
    floor(count / n) sized shards, the remainder going to the first shards.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be at least 1")
    if n_clients > ds.count:
        raise ValueError(f"cannot split {ds.count} examples among {n_clients} clients")
    order = np.random.default_rng(seed).permutation(ds.count)
    base, rem = divmod(ds.count, n_clients)
    sizes = [base + 1] * rem + [base] * (n_clients - rem)
    shards = []
    start = 0
    for size in sizes:
        shards.append(ds.take(order[start : start + size]))
        start += size
    return ClientPartition(tuple(shards))
