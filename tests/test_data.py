import struct

import numpy as np
import pytest

from flcop import data
from conftest import make_synthetic, write_idx


def test_idx_round_trip(tmp_path):
    ds = make_synthetic(50, 4)
    write_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    back = data.load_idx(tmp_path / "imgs", tmp_path / "labs")
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", 0, 1, 28, 28) + bytes(784))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 1) + bytes(1))
    with pytest.raises(data.IdxFormatError):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


def test_truncated_payload_rejected(tmp_path):
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, 2, 28, 28) + bytes(784))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 2) + bytes(2))
    with pytest.raises(data.IdxLengthError):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


def test_count_mismatch_rejected(tmp_path):
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, 1, 28, 28) + bytes(784))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 3) + bytes(3))
    with pytest.raises(data.DataConsistencyError):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


def test_wrong_geometry_rejected(tmp_path):
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, 1, 16, 16) + bytes(256))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 1) + bytes(1))
    with pytest.raises(data.IdxFormatError):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


@pytest.mark.parametrize("count, rows, cols, labels", [(-1, 28, 28, -1), (1, -28, -28, 1), (1, 28, 28, -1)])
def test_negative_header_fields_rejected(tmp_path, count, rows, cols, labels):
    # a count of -1 over ten images would otherwise load nine of them
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, count, rows, cols) + bytes(10 * 784))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, labels) + bytes(10))
    with pytest.raises(data.IdxFormatError, match="negative dimension"):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


def test_pixels_scaled_to_unit_interval(tmp_path):
    ds = make_synthetic(20, 5)
    write_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    back = data.load_idx(tmp_path / "imgs", tmp_path / "labs")
    assert back.images.min() >= 0.0 and back.images.max() <= 1.0
    assert back.images.dtype == np.float32


def _row_multiset(ds: data.LabeledDataset) -> set:
    return {
        (ds.labels[i], ds.images[i].tobytes())
        for i in range(ds.count)
    }


def test_partition_equal_shards():
    ds = make_synthetic(1000, 6)
    part = data.partition(ds, 4, seed=7)
    assert [s.count for s in part.shards] == [250] * 4


def test_partition_remainder_to_first_shards():
    ds = make_synthetic(10, 6)
    part = data.partition(ds, 3, seed=1)
    assert [s.count for s in part.shards] == [4, 3, 3]


def test_partition_single_client_is_identity_content():
    ds = make_synthetic(10, 6)
    part = data.partition(ds, 1, seed=3)
    assert part.shards[0].count == 10
    assert _row_multiset(part.shards[0]) == _row_multiset(ds)


def test_partition_is_bijection():
    ds = make_synthetic(101, 8)
    part = data.partition(ds, 4, seed=9)
    union = set()
    total = 0
    for shard in part.shards:
        union |= _row_multiset(shard)
        total += shard.count
    assert total == ds.count
    assert union == _row_multiset(ds)


def test_partition_deterministic():
    ds = make_synthetic(64, 10)
    a = data.partition(ds, 4, seed=5)
    b = data.partition(ds, 4, seed=5)
    for sa, sb in zip(a.shards, b.shards):
        assert np.array_equal(sa.images, sb.images)
        assert np.array_equal(sa.labels, sb.labels)


def test_partition_too_many_clients():
    ds = make_synthetic(3, 11)
    with pytest.raises(ValueError):
        data.partition(ds, 4, seed=0)


def test_subsample_takes_seeded_permutation_prefix():
    ds = make_synthetic(40, 12)
    sub = data.subsample(ds, 10, seed=21)
    order = np.random.default_rng(21).permutation(40)
    assert np.array_equal(sub.images, ds.images[order[:10]])
    assert data.subsample(ds, None, seed=21) is ds
    assert data.subsample(ds, 100, seed=21) is ds


def test_take_equals_fancy_indexing():
    ds = make_synthetic(40, 6)
    idx = np.array([5, 0, 39, 5, 17])
    subset = ds.take(idx)
    assert np.array_equal(subset.images, ds.images[idx])
    assert np.array_equal(subset.labels, ds.labels[idx])
    assert subset.count == 5


def test_external_dataset_still_checked():
    images = np.zeros((3, 784), np.float32)
    labels = np.array([0, 1, 2])
    data.LabeledDataset(images, labels)
    with pytest.raises(ValueError, match="one row per example"):
        data.LabeledDataset(images, labels[:2])
    with pytest.raises(ValueError, match="labels"):
        data.LabeledDataset(images, np.array([0, 1, 10]))
    bright = images.copy()
    bright[1, 7] = 1.5
    with pytest.raises(ValueError, match="pixels"):
        data.LabeledDataset(bright, labels)
