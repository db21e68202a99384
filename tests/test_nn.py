import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcop import nn
from flcop.data import LabeledDataset
from conftest import (
    copying_forward,
    copying_loss_and_gradients,
    copying_sgd_step,
    evaluate_accuracy,
    fan_build_model,
    make_synthetic,
    scatter_conv_backward,
    tagged_cache_forward,
    tagged_cache_loss_and_gradients,
)

TOY_FC = nn.ModelSpec((6,), (nn.Dense(6, 5), nn.Dense(5, 3)))
TOY_CONV = nn.ModelSpec(
    (8, 8, 1),
    (
        nn.Conv2D(3, 1, 2),
        nn.MaxPool2x2(),
        nn.Conv2D(3, 2, 3),
        nn.MaxPool2x2(),
        nn.Flatten(),
        nn.Dense(12, 3),
    ),
)


def test_standard_parameter_layouts():
    fc = nn.fully_connected()
    conv = nn.convolutional()
    assert fc.param_shapes == (32928, 42, 420, 10)
    assert fc.total_params == 33400
    assert conv.param_shapes == (800, 32, 25600, 32, 18432, 64, 36864, 64, 802816, 256, 2560, 10)
    assert conv.total_params == 887530


def test_build_model_deterministic():
    a = nn.build_model(nn.fully_connected(), seed=0)
    b = nn.build_model(nn.fully_connected(), seed=0)
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays, b.arrays))
    c = nn.build_model(nn.fully_connected(), seed=1)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays, c.arrays))
    assert [x.size for x in a.arrays] == list(nn.fully_connected().param_shapes)


def test_forward_rows_are_distributions():
    params = nn.build_model(nn.fully_connected(), seed=0)
    images = np.random.default_rng(0).random((16, 784)).astype(np.float32)
    probs = nn.forward(params, images)
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def test_forward_batch_independence():
    params = nn.build_model(nn.fully_connected(), seed=0)
    images = np.random.default_rng(1).random((32, 784)).astype(np.float32)
    batch = nn.forward(params, images)
    single = nn.forward(params, images[:1])
    assert np.abs(batch[0] - single[0]).max() < 1e-6


def test_forward_degenerate_input_is_finite():
    params = nn.build_model(nn.fully_connected(), seed=0)
    probs = nn.forward(params, np.zeros((1, 784), np.float32))
    assert np.isfinite(probs).all()


def test_forward_shape_mismatch():
    params = nn.build_model(nn.fully_connected(), seed=0)
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros((1, 100), np.float32))


def test_zero_learning_rate_keeps_params():
    params = nn.build_model(nn.fully_connected(), seed=0)
    batch = make_synthetic(8, 0)
    after = nn.sgd_step(params, batch, nn.TrainConfig(0.0, 8))
    assert all(np.array_equal(a, b) for a, b in zip(params.arrays, after.arrays))


def test_sgd_step_reduces_single_example_loss():
    params = nn.build_model(nn.fully_connected(), seed=0)
    batch = make_synthetic(1, 5)
    before, _ = nn.loss_and_gradients(params, batch.images, batch.labels)
    stepped = nn.sgd_step(params, batch, nn.TrainConfig(0.1, 1))
    after, _ = nn.loss_and_gradients(stepped, batch.images, batch.labels)
    assert after < before


def test_sgd_step_preserves_parameter_counts():
    params = nn.build_model(nn.convolutional(), seed=0)
    batch = make_synthetic(2, 6)
    after = nn.sgd_step(params, batch, nn.TrainConfig(0.05, 2))
    assert [a.size for a in after.arrays] == [a.size for a in params.arrays]


def test_learning_rate_must_be_finite_in_float32():
    for lr in (1e39, np.inf, np.nan, -0.1):
        with pytest.raises(ValueError):
            nn.TrainConfig(lr, 64)
    assert nn.TrainConfig(float(np.finfo(np.float32).max), 64).batch_size == 64


def test_non_finite_gradient_reports_layer():
    params = nn.build_model(TOY_FC, seed=0, dtype=np.float64)
    params.arrays[2][0] = np.nan
    rng = np.random.default_rng(2)
    with pytest.raises(nn.NumericError) as info:
        nn.loss_and_gradients(params, rng.random((4, 6)), rng.integers(0, 3, 4))
    # the NaN weight makes the loss NaN, and the loss is checked first
    assert info.value.layer_index == -1
    assert "non-finite loss" in str(info.value)


# a pool or a Flatten ahead of the first weighted layer, where backward stops
POOL_FIRST = nn.ModelSpec(
    (8, 8, 1), (nn.MaxPool2x2(), nn.Conv2D(3, 1, 2), nn.MaxPool2x2(), nn.Flatten(), nn.Dense(8, 3))
)
FLATTEN_FIRST = nn.ModelSpec((4, 4, 2), (nn.Flatten(), nn.Dense(32, 5), nn.Dense(5, 3)))
# one layer object at two positions: only the first occurrence skips the input gradient
_SHARED = nn.Dense(4, 4)
SHARED_LAYER = nn.ModelSpec((4,), (_SHARED, _SHARED, nn.Dense(4, 3)))

ORACLE_CASES = [
    pytest.param(nn.fully_connected(), 64, id="fully_connected"),
    pytest.param(nn.convolutional(), 3, id="convolutional"),
    pytest.param(TOY_FC, 7, id="toy_fc"),
    pytest.param(TOY_CONV, 4, id="toy_conv"),
    pytest.param(POOL_FIRST, 5, id="pool_first"),
    pytest.param(FLATTEN_FIRST, 6, id="flatten_first"),
    pytest.param(SHARED_LAYER, 5, id="shared_layer"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec,batch", ORACLE_CASES)
def test_matches_tagged_cache_oracle(spec, batch, dtype):
    for seed in (0, 1):
        params = nn.build_model(spec, seed, dtype=dtype)
        reference = fan_build_model(spec, seed, dtype=dtype)
        assert [a.tobytes() for a in params.arrays] == [a.tobytes() for a in reference.arrays]
        assert [a.dtype for a in params.arrays] == [a.dtype for a in reference.arrays]
        rng = np.random.default_rng(seed)
        for arr in params.arrays:  # move biases off zero so every path is exercised
            arr += rng.normal(0, 0.1, arr.size).astype(dtype)
        images = rng.random((batch, spec.input_width)).astype(dtype)
        labels = rng.integers(0, spec.param_shapes[-1], batch)
        assert nn.forward(params, images).tobytes() == tagged_cache_forward(params, images).tobytes()
        loss, grads = nn.loss_and_gradients(params, images, labels)
        ref_loss, ref_grads = tagged_cache_loss_and_gradients(params, images, labels)
        assert loss.hex() == ref_loss.hex()
        assert len(grads) == len(ref_grads) == spec.n_arrays
        for g, r in zip(grads, ref_grads):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()


def test_backward_forms_no_input_gradient_at_the_first_weighted_layer(monkeypatch):
    flags = []
    conv_backward = nn._conv_backward

    def spy(dout, xp, w, pad, input_grad):
        flags.append(input_grad)
        return conv_backward(dout, xp, w, pad, input_grad)

    monkeypatch.setattr(nn, "_conv_backward", spy)
    params = nn.build_model(POOL_FIRST, 0, dtype=np.float64)
    nn.loss_and_gradients(params, np.random.default_rng(0).random((2, 64)), np.array([0, 2]))
    assert flags == [False]
    nn.loss_and_gradients(nn.build_model(TOY_CONV, 0), np.zeros((2, 64), np.float32), np.array([0, 2]))
    assert flags == [False, True, False]


def _finite_difference_check(spec, seed, n_examples, eps=1e-5):
    rng = np.random.default_rng(seed)
    params = nn.build_model(spec, seed, dtype=np.float64)
    for arr in params.arrays:  # move biases off zero so every path is exercised
        arr += rng.normal(0, 0.3, arr.size)
    x = rng.random((n_examples, spec.input_width))
    y = rng.integers(0, 3, n_examples)
    _, grads = nn.loss_and_gradients(params, x, y)
    worst = 0.0
    for ai, arr in enumerate(params.arrays):
        for j in range(arr.size):
            orig = arr[j]
            arr[j] = orig + eps
            up, _ = nn.loss_and_gradients(params, x, y)
            arr[j] = orig - eps
            down, _ = nn.loss_and_gradients(params, x, y)
            arr[j] = orig
            fd = (up - down) / (2 * eps)
            denom = max(1e-6, abs(fd), abs(grads[ai][j]))
            worst = max(worst, abs(fd - grads[ai][j]) / denom)
    return worst


def test_gradients_match_finite_differences_fc():
    assert _finite_difference_check(TOY_FC, seed=3, n_examples=6) < 1e-3


def test_gradients_match_finite_differences_conv():
    assert _finite_difference_check(TOY_CONV, seed=4, n_examples=4) < 1e-3


def test_accuracy_counts_argmax_matches():
    params = nn.build_model(TOY_FC, seed=0, dtype=np.float64)
    rng = np.random.default_rng(5)
    images = rng.random((10, 6))
    probs = nn.forward(params, images)
    labels = probs.argmax(axis=1)
    ds = LabeledDataset(np.clip(images, 0, 1), labels)
    assert evaluate_accuracy(params, ds) == 1.0

    wrong = labels.copy()
    wrong[:4] = (wrong[:4] + 1) % 3
    # 6 of 10 correct
    assert evaluate_accuracy(params, LabeledDataset(np.clip(images, 0, 1), wrong)) == 0.6


def test_accuracy_three_quarters():
    params = nn.build_model(TOY_FC, seed=0, dtype=np.float64)
    rng = np.random.default_rng(6)
    images = np.clip(rng.random((4, 6)), 0, 1)
    labels = nn.forward(params, images).argmax(axis=1)
    labels[0] = (labels[0] + 1) % 3
    assert evaluate_accuracy(params, LabeledDataset(images, labels)) == 0.75


def test_accuracy_empty_dataset_rejected():
    params = nn.build_model(TOY_FC, seed=0)
    ds = LabeledDataset(np.zeros((0, 6), np.float32), np.zeros(0, np.int64))
    with pytest.raises(ValueError):
        evaluate_accuracy(params, ds)


def test_untrained_model_is_at_chance_on_random_labels():
    params = nn.build_model(nn.fully_connected(), seed=0)
    rng = np.random.default_rng(7)
    ds = LabeledDataset(
        rng.random((2000, 784)).astype(np.float32), rng.integers(0, 10, 2000)
    )
    assert abs(evaluate_accuracy(params, ds) - 0.1) < 0.05


def test_fc_results_do_not_depend_on_concurrent_threads():
    # a campaign evaluates genomes on threads of one process; these are the
    # batch-64 training and 256-row test shapes whose low bits follow the
    # BLAS thread count, so running them side by side must not move them
    spec = nn.fully_connected()
    ds = make_synthetic(1024, 8)

    def work(seed):
        params = nn.build_model(spec, seed)
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(3):
            rows = rng.choice(ds.count, 64, replace=False)
            loss, grads = nn.loss_and_gradients(params, ds.images[rows], ds.labels[rows])
            out += [float(loss).hex(), *(g.tobytes() for g in grads)]
        out.append(nn.count_correct(params, ds))
        out += [nn.forward(params, ds.images[s : s + 256]).tobytes() for s in range(0, ds.count, 256)]
        return out

    seeds = range(8)
    serial = [work(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(work, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# the logits come out of a pool, through a Flatten, with no Dense layer
CONV_LAST = nn.ModelSpec((4, 4, 1), (nn.Conv2D(3, 1, 2), nn.MaxPool2x2(), nn.Flatten()))
STEP_SPECS = [nn.fully_connected(), TOY_FC, TOY_CONV, POOL_FIRST, FLATTEN_FIRST, SHARED_LAYER, CONV_LAST]


def _with_signed_zeros(arr, rng, fraction):
    """arr with a fraction of its entries set to +0.0 or -0.0."""
    zeros = rng.random(arr.shape) < fraction
    arr[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return arr


def _step_case(spec, dtype, batch, scale, seed):
    """Parameters scaled by `scale`, images in [0, 1] and labels, each array
    holding some signed zeros."""
    rng = np.random.default_rng(seed)
    params = nn.build_model(spec, seed, dtype=dtype)
    for arr in params.arrays:
        arr += rng.normal(0, 0.1, arr.size).astype(dtype)
        arr *= dtype(scale)
        _with_signed_zeros(arr, rng, 0.05)
    images = _with_signed_zeros(rng.random((batch, spec.input_width)).astype(dtype), rng, 0.2)
    labels = rng.integers(0, spec.param_shapes[-1], batch)
    return params, images, labels


def _outcome(fn, *args):
    """fn's result, or the layer index of the NumericError it raised."""
    try:
        return fn(*args)
    except nn.NumericError as exc:
        return ("NumericError", exc.layer_index)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(STEP_SPECS),
    dtype=st.sampled_from([np.float32, np.float64]),
    # 16 rows is the last batch of a 2,000-example shard at batch 64
    batch=st.one_of(st.sampled_from([1, 16, 64]), st.integers(1, 64)),
    scale=st.sampled_from([1.0, 30.0, 1e4, 1e20]),
    lr=st.sampled_from([0.0, 0.05, 0.1, 7.0]),
    seed=st.integers(0, 2**16),
)
def test_training_step_matches_copying_oracle(spec, dtype, batch, scale, lr, seed):
    params, images, labels = _step_case(spec, dtype, batch, scale, seed)
    assert nn.forward(params, images).tobytes() == copying_forward(params, images).tobytes()

    got = _outcome(nn.loss_and_gradients, params, images, labels)
    ref = _outcome(copying_loss_and_gradients, params, images, labels)
    if isinstance(ref[0], str):
        assert got == ref
        return
    assert got[0].hex() == ref[0].hex()
    assert [(g.dtype, g.shape, g.tobytes()) for g in got[1]] == [(r.dtype, r.shape, r.tobytes()) for r in ref[1]]

    batch_ds = LabeledDataset(images, labels)
    stepped = nn.sgd_step(params, batch_ds, nn.TrainConfig(lr, batch))
    reference = copying_sgd_step(params, batch_ds, nn.TrainConfig(lr, batch))
    assert [(a.dtype, a.tobytes()) for a in stepped.arrays] == [(r.dtype, r.tobytes()) for r in reference.arrays]


@settings(max_examples=120, deadline=None)
@given(
    kernel=st.sampled_from([1, 3, 5]),
    dtype=st.sampled_from([np.float32, np.float64]),
    batch=st.integers(1, 4),
    # a window of one row or one column flattens without a copy
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    c_in=st.integers(1, 5),
    c_out=st.integers(1, 5),
    input_grad=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv_backward_matches_scatter_oracle(kernel, dtype, batch, height, width, c_in, c_out, input_grad, seed):
    rng = np.random.default_rng(seed)
    pad = (kernel - 1) // 2
    x = _with_signed_zeros(rng.standard_normal((batch, height, width, c_in)).astype(dtype), rng, 0.2)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    w = _with_signed_zeros(rng.standard_normal((kernel, kernel, c_in, c_out)).astype(dtype), rng, 0.2)
    dout = _with_signed_zeros(rng.standard_normal((batch, height, width, c_out)).astype(dtype), rng, 0.2)
    got = nn._conv_backward(dout, xp, w, pad, input_grad)
    ref = scatter_conv_backward(dout, xp, w, pad, input_grad)
    assert (got[0] is None) == (ref[0] is None) == (not input_grad)
    for g, r in zip(got, ref):
        if r is not None:
            assert (g.dtype, g.shape, g.tobytes()) == (r.dtype, r.shape, r.tobytes())


# (batch, size, kernel, c_in, c_out) of the convolutional model's layers, at
# the sizes where the GEMMs leave their small-matrix paths
@pytest.mark.parametrize("batch,size,kernel,c_in,c_out", [
    (16, 28, 5, 32, 32), (64, 28, 5, 1, 32), (64, 14, 3, 32, 64), (16, 14, 3, 64, 64),
])
def test_conv_backward_matches_scatter_oracle_at_model_sizes(batch, size, kernel, c_in, c_out):
    rng = np.random.default_rng(size * kernel + c_in)
    pad = (kernel - 1) // 2
    xp = np.pad(rng.standard_normal((batch, size, size, c_in), np.float32), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    w = rng.standard_normal((kernel, kernel, c_in, c_out), np.float32)
    dout = rng.standard_normal((batch, size, size, c_out), np.float32)
    got = nn._conv_backward(dout, xp, w, pad, True)
    ref = scatter_conv_backward(dout, xp, w, pad, True)
    assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", STEP_SPECS)
def test_training_leaves_caller_arrays_unchanged(spec, dtype):
    params, images, labels = _step_case(spec, dtype, 8, 1.0, 3)
    before = [a.tobytes() for a in params.arrays], images.tobytes(), labels.tobytes()
    nn.forward(params, images)
    nn.loss_and_gradients(params, images, labels)
    nn.sgd_step(params, LabeledDataset(images, labels), nn.TrainConfig(0.1, 8))
    assert ([a.tobytes() for a in params.arrays], images.tobytes(), labels.tobytes()) == before
