"""MNIST loading from IDX files, the pixel decode, and IID client partitioning.
A dataset keeps the files' uint8 pixel bytes and decodes them as they are read;
a client batch is no dataset but the (pixels, labels) pair `nn.sgd_step` reads."""

from __future__ import annotations

import os
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
    """One row of pixels per example, stored as an IDX file's uint8 bytes v,
    which `pixels` decodes to float32 v / 255. Every dataset, loaded or
    taken, is checked when built: uint8 rows, one label in [0, 9] per row."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 2 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels must have one row per example")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 9]")
        if self.images.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8 bytes, got {self.images.dtype}")

    @property
    def count(self) -> int:
        return self.images.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        """The rows at a 1-D index array, gathered into a new dataset."""
        return LabeledDataset(self.images[indices], self.labels[indices])

    def pixels(self, index) -> np.ndarray:
        """The pixels at `index` (a slice or an index array) as the model
        reads them: bytes decoded to float32 v / 255."""
        # the float32 scalar and dtype pin a float32 loop, bit-equal to astype(float32) / float32(255)
        return np.divide(self.images[index], np.float32(255), dtype=np.float32)


@dataclass(frozen=True)
class Shard:
    """One client's examples as row indices into a dataset that every shard
    of a partition shares. Rows are gathered only when a batch is taken."""

    source: LabeledDataset
    rows: np.ndarray

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    def take(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The shard's examples at `positions`, in that order, as the pair
        `nn.sgd_step` reads: their rows as `pixels` decodes them, and their labels."""
        indices = self.rows[positions]
        return self.source.pixels(indices), self.source.labels[indices]


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

    The image payload is read straight into one (count, 784) uint8 array,
    which the dataset keeps as it is: `LabeledDataset.pixels` decodes byte v
    to float32 v / 255 when a batch or a test chunk is used, so the pixels
    are held once, at a quarter of their float32 size. Bytes past the
    payload the header promises are ignored. Raises
    IdxFormatError on a bad magic number, a negative dimension, images that
    are not 28x28 or a label above 9, IdxLengthError on a truncated payload,
    and DataConsistencyError when the two files disagree on the example count.
    """
    with open(images_path, "rb") as f:
        count, rows, cols = _read_header(f.read(16), images_path, 3, IMAGE_MAGIC)
        if (rows, cols) != (28, 28):
            raise IdxFormatError(f"{images_path}: expected 28x28 images, got {rows}x{cols}")
        payload = os.fstat(f.fileno()).st_size - 16
        if payload < count * 784:
            raise IdxLengthError(f"{images_path}: payload holds {payload} bytes, header promises {count * 784}")

        raw_labels = Path(labels_path).read_bytes()
        (label_count,) = _read_header(raw_labels, labels_path, 1, LABEL_MAGIC)
        if label_count != count:
            raise DataConsistencyError(f"{labels_path}: {label_count} labels for {count} images")
        labels = np.frombuffer(raw_labels, np.uint8, offset=8)
        if labels.size < count:
            raise IdxLengthError(f"{labels_path}: payload holds {labels.size} labels, header promises {count}")
        labels = labels[:count].astype(np.int64)
        if labels.max(initial=0) > 9:
            raise IdxFormatError(f"{labels_path}: labels must lie in [0, 9], got {labels.max()}")

        images = np.empty((count, 784), np.uint8)
        if f.readinto(images) != images.nbytes:
            raise IdxLengthError(f"{images_path}: payload ended before the {count * 784} bytes its header promises")
    return LabeledDataset(images, labels)


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


def partition(ds: LabeledDataset, n_clients: int, seed: int) -> tuple[Shard, ...]:
    """Split a dataset into n_clients random disjoint shards, one per client.

    The examples are permuted under `seed` and split contiguously into
    floor(count / n) sized shards, the remainder going to the first shards.
    Each shard holds its slice of the permutation as row indices into `ds`,
    so no row is copied here.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be at least 1")
    if n_clients > ds.count:
        raise ValueError(f"cannot split {ds.count} examples among {n_clients} clients")
    order = np.random.default_rng(seed).permutation(ds.count)
    # array_split gives the first count % n pieces one more row, as views of order
    return tuple(Shard(ds, rows) for rows in np.array_split(order, n_clients))
