import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcop import data, federation, nn
from flcop.objectives import EvalEnv, Genome
from conftest import copying_partition, float32_load_idx, make_synthetic, write_idx


def test_idx_round_trip(tmp_path):
    ds = make_synthetic(50, 4)
    write_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    back = data.load_idx(tmp_path / "imgs", tmp_path / "labs")
    assert back.images.dtype == np.uint8 and np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", 0, 1, 28, 28) + bytes(784))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 1) + bytes(1))
    with pytest.raises(data.IdxFormatError):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


@pytest.mark.parametrize("count, payload", [(2, 784), (23, 23 * 784 - 1)])
def test_truncated_payload_rejected(tmp_path, count, payload):
    # the second case ends one byte short inside the last image
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, count, 28, 28) + bytes(payload))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, count) + bytes(count))
    with pytest.raises(data.IdxLengthError, match=f"header promises {count * 784}"):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


def test_count_mismatch_rejected(tmp_path):
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, 1, 28, 28) + bytes(784))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 3) + bytes(3))
    with pytest.raises(data.DataConsistencyError):
        data.load_idx(tmp_path / "imgs", tmp_path / "labs")


@pytest.mark.parametrize("rows, cols", [(16, 16), (784, 1), (1, 784), (16, 49)])
def test_wrong_geometry_rejected(tmp_path, rows, cols):
    # 784 pixels in another shape are not a 28x28 image either
    (tmp_path / "imgs").write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, 1, rows, cols) + bytes(rows * cols))
    (tmp_path / "labs").write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 1) + bytes(1))
    with pytest.raises(data.IdxFormatError, match="28x28"):
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
    decoded = back.pixels(slice(None))
    assert decoded.min() >= 0.0 and decoded.max() <= 1.0
    assert decoded.dtype == np.float32


def _write_pixels(tmp_path, pixels: np.ndarray, count: int, trailing: bytes = b"") -> tuple:
    """An IDX pair whose header promises `count` images over the given pixel bytes."""
    images, labels = tmp_path / "imgs", tmp_path / "labs"
    images.write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, count, 28, 28) + pixels.tobytes() + trailing)
    labels.write_bytes(struct.pack(">2i", data.LABEL_MAGIC, count) + bytes(k % 10 for k in range(count)))
    return images, labels


@pytest.mark.parametrize("count", [7, 23, 64])
def test_decode_equals_float32_division_for_every_byte(tmp_path, count):
    pixels = (np.arange(count * 784) * 7 % 256).astype(np.uint8).reshape(count, 784)
    assert set(np.unique(pixels)) == set(range(256))
    images, labels = _write_pixels(tmp_path, pixels, count, trailing=b"\xff" * 1000)
    back = data.load_idx(images, labels)
    expected = pixels.astype(np.float32) / np.float32(255)
    decoded = back.pixels(slice(None))
    assert decoded.dtype == np.float32 and decoded.shape == (count, 784)
    assert decoded.tobytes() == expected.tobytes()
    assert np.array_equal(back.labels, np.arange(count) % 10)


def _byte_files(tmp_path, count: int, seed: int) -> tuple:
    """An IDX pair of `count` images of random bytes, holding every byte value."""
    pixels = np.random.default_rng(seed).integers(0, 256, (count, 784), dtype=np.uint8)
    assert set(np.unique(pixels)) == set(range(256))
    (tmp_path / str(seed)).mkdir()
    return _write_pixels(tmp_path / str(seed), pixels, count)


def test_batches_and_test_chunks_decode_as_the_float32_loader(tmp_path, monkeypatch):
    paths = _byte_files(tmp_path, 600, 1)
    ds, oracle = data.load_idx(*paths), float32_load_idx(*paths)
    assert ds.images.dtype == np.uint8 and oracle.images.dtype == np.float32
    rng = np.random.default_rng(2)
    for shard in data.partition(ds, 3, seed=4):
        for positions in (np.arange(shard.count), rng.integers(0, shard.count, 64)):
            images, labels = shard.take(positions)
            assert images.dtype == np.float32
            assert images.tobytes() == oracle.images[shard.rows[positions]].tobytes()
            assert labels.tobytes() == oracle.labels[shard.rows[positions]].tobytes()
    # 600 rows: two whole EVAL_CHUNKs and a partial one
    seen = []
    real_forward = nn.forward
    monkeypatch.setattr(nn, "forward", lambda params, x: seen.append(x) or real_forward(params, x))
    model = nn.build_model(nn.fully_connected(), 0)
    assert nn.count_correct(model, ds) == nn.count_correct(model, oracle)
    chunks = len(seen) // 2
    assert [x.shape[0] for x in seen[:chunks]] == [256, 256, 88]
    assert all(x.dtype == np.float32 for x in seen)
    assert [x.tobytes() for x in seen[:chunks]] == [x.tobytes() for x in seen[chunks:]]


TOY_CONV = nn.ModelSpec((28, 28, 1), (nn.Conv2D(3, 1, 2), nn.MaxPool2x2(), nn.Flatten(), nn.Dense(392, 10)))


@pytest.mark.parametrize("spec", [nn.fully_connected(), TOY_CONV], ids=["fc", "toy-conv"])
def test_training_on_bytes_equals_training_on_float32_rows(tmp_path, spec):
    train_paths, test_paths = _byte_files(tmp_path, 200, 5), _byte_files(tmp_path, 300, 6)
    genome = Genome(3, 2, (10,) * spec.n_arrays, (8,) * spec.n_arrays)
    outcomes = []
    for load in (data.load_idx, float32_load_idx):
        train, test = load(*train_paths), load(*test_paths)
        env = EvalEnv(spec, data.partition(train, 4, seed=1), test, nn.TrainConfig(0.1, 16), epochs=2, seed=0)
        outcomes.append(federation.run_federated_training(genome, env, seed=9))
    got, want = outcomes
    assert [a.tobytes() for a in got.global_model.arrays] == [a.tobytes() for a in want.global_model.arrays]
    assert got.ledger == want.ledger and got.ledger.rounds_executed == 4
    assert got.n_correct == want.n_correct


def test_payload_shrinking_while_read_rejected(tmp_path, monkeypatch):
    # a file cut short after its size was read ends before its payload does
    images, labels = _write_pixels(tmp_path, np.zeros((20, 784), np.uint8), 23)
    real_fstat = data.os.fstat
    monkeypatch.setattr(data.os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 3 * 784))
    with pytest.raises(data.IdxLengthError, match="payload ended"):
        data.load_idx(images, labels)


def test_label_above_nine_rejected(tmp_path):
    images, labels = _write_pixels(tmp_path, np.zeros((2, 784), np.uint8), 2)
    labels.write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 2) + bytes([3, 10]))
    with pytest.raises(ValueError, match="labels must lie in"):
        data.load_idx(images, labels)


@pytest.mark.parametrize("count", [3000, 6000])
def test_load_holds_one_chunk_beside_the_result(tmp_path, count):
    """Beyond the pixel bytes and labels it returns, loading allocates
    about the label file's bytes, whatever the image count: no float copy
    and no chunk buffer."""
    pixels = (np.arange(count * 784) % 251).astype(np.uint8)
    images, labels = _write_pixels(tmp_path, pixels, count)
    tracemalloc.start()
    try:
        back = data.load_idx(images, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = peak - back.images.nbytes - back.labels.nbytes
    # the slack covers the label file's bytes and the interpreter's own small allocations
    assert extra < 128 * 1024, extra


def _rows(shard) -> tuple[np.ndarray, np.ndarray]:
    """Every example of a shard as (pixels, labels), read through its take."""
    return shard.take(np.arange(shard.count))


def _row_multiset(pixels: np.ndarray, labels: np.ndarray) -> set:
    return {(labels[i], pixels[i].tobytes()) for i in range(len(labels))}


def test_partition_equal_shards():
    ds = make_synthetic(1000, 6)
    part = data.partition(ds, 4, seed=7)
    assert [s.count for s in part] == [250] * 4


def test_partition_remainder_to_first_shards():
    ds = make_synthetic(10, 6)
    part = data.partition(ds, 3, seed=1)
    assert [s.count for s in part] == [4, 3, 3]


def test_partition_single_client_is_identity_content():
    ds = make_synthetic(10, 6)
    part = data.partition(ds, 1, seed=3)
    assert part[0].count == 10
    assert _row_multiset(*_rows(part[0])) == _row_multiset(ds.pixels(slice(None)), ds.labels)


def test_partition_is_bijection():
    ds = make_synthetic(101, 8)
    part = data.partition(ds, 4, seed=9)
    union = set()
    total = 0
    for shard in part:
        union |= _row_multiset(*_rows(shard))
        total += shard.count
    assert total == ds.count
    assert union == _row_multiset(ds.pixels(slice(None)), ds.labels)


def test_partition_deterministic():
    ds = make_synthetic(64, 10)
    a = data.partition(ds, 4, seed=5)
    b = data.partition(ds, 4, seed=5)
    for sa, sb in zip(a, b):
        (images_a, labels_a), (images_b, labels_b) = _rows(sa), _rows(sb)
        assert np.array_equal(images_a, images_b)
        assert np.array_equal(labels_a, labels_b)


@pytest.mark.parametrize("seed", [0, 1, 5, 11])
def test_shard_batches_equal_copied_shards(seed):
    ds = make_synthetic(203, 13)
    views = data.partition(ds, 4, seed)
    copies = copying_partition(ds, 4, seed)
    rng = np.random.default_rng(seed)
    for view, copy in zip(views, copies, strict=True):
        assert view.count == copy.count
        for positions in (np.arange(view.count), rng.permutation(view.count), rng.integers(0, view.count, 16)):
            (images, labels), (want_images, want_labels) = view.take(positions), copy.take(positions)
            assert images.tobytes() == want_images.tobytes()
            assert labels.tobytes() == want_labels.tobytes()


def test_partition_copies_no_rows():
    ds = make_synthetic(4000, 14)
    tracemalloc.start()
    try:
        part = data.partition(ds, 4, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the permutation's int64 indices are all it allocates: 1/98 of the byte rows
    assert peak < ds.images.nbytes // 20, peak
    assert all(shard.source is ds for shard in part)


@st.composite
def _partition_cases(draw):
    rows = draw(st.integers(1, 300))
    return rows, draw(st.integers(1, rows)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=_partition_cases())
def test_partition_property(case):
    rows, n_clients, seed = case
    ds = data.LabeledDataset(np.zeros((rows, 784), np.uint8), np.zeros(rows, np.int64))
    part = data.partition(ds, n_clients, seed)
    assert len(part) == n_clients
    # disjoint and covering: every row index appears in exactly one shard, once
    assert np.array_equal(np.sort(np.concatenate([s.rows for s in part])), np.arange(rows))
    sizes = [s.count for s in part]
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)
    assert all(s.source is ds for s in part)
    again = data.partition(ds, n_clients, seed)
    assert all(np.array_equal(a.rows, b.rows) for a, b in zip(part, again, strict=True))


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


def test_take_checks_the_rows_it_gathers(tmp_path):
    ds = data.load_idx(*_byte_files(tmp_path, 8, 3))
    ds.labels[5] = 10
    assert ds.take(np.array([0, 4])).count == 2
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 9\]"):
        ds.take(np.array([0, 5]))


def test_external_dataset_still_checked():
    images = np.zeros((3, 784), np.uint8)
    labels = np.array([0, 1, 2])
    data.LabeledDataset(images, labels)
    with pytest.raises(ValueError, match="one row per example"):
        data.LabeledDataset(images, labels[:2])
    with pytest.raises(ValueError, match="labels"):
        data.LabeledDataset(images, np.array([0, 1, 10]))
    # pixels are the IDX files' bytes: float rows, even in [0, 1], are no dataset
    for dtype in (np.float32, np.float64, np.int64):
        with pytest.raises(ValueError, match="pixels must be uint8 bytes"):
            data.LabeledDataset(images.astype(dtype), labels)


def test_caller_built_byte_rows_decode_as_loaded_ones():
    # bytes above 1 are pixels, not out-of-range floats
    images = np.array([[0] * 782 + [1, 255]], np.uint8)
    ds = data.LabeledDataset(images, np.array([3]))
    assert ds.pixels(slice(None)).tobytes() == (images.astype(np.float32) / np.float32(255)).tobytes()
