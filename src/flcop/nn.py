"""Minimal trainable neural networks (fully-connected and convolutional).

Parameters live as an ordered list of flat arrays, weights and biases as
separate entries, so downstream per-layer compression can treat every
trainable array uniformly. Training is plain SGD on softmax cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericError(ArithmeticError):
    """Non-finite loss or gradient; carries the offending parameter-array index."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(message)
        self.layer_index = layer_index


@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int


@dataclass(frozen=True)
class Conv2D:
    kernel: int
    c_in: int
    c_out: int

    @property
    def pad(self) -> int:
        return (self.kernel - 1) // 2


@dataclass(frozen=True)
class MaxPool2x2:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


FC_PARAM_SHAPES = (32928, 42, 420, 10)
CONV_PARAM_SHAPES = (800, 32, 25600, 32, 18432, 64, 36864, 64, 802816, 256, 2560, 10)


@dataclass(frozen=True)
class ModelSpec:
    """Network topology plus the derived flat parameter-array layout."""

    arch_kind: str
    input_shape: tuple[int, ...]
    layers: tuple

    def __post_init__(self):
        if self.arch_kind == "fully_connected" and self.param_shapes != FC_PARAM_SHAPES:
            raise ValueError("fully_connected layout must be " + str(FC_PARAM_SHAPES))
        if self.arch_kind == "convolutional" and self.param_shapes != CONV_PARAM_SHAPES:
            raise ValueError("convolutional layout must be " + str(CONV_PARAM_SHAPES))

    @property
    def param_shapes(self) -> tuple[int, ...]:
        shapes = []
        for layer in self.layers:
            if isinstance(layer, Dense):
                shapes += [layer.n_in * layer.n_out, layer.n_out]
            elif isinstance(layer, Conv2D):
                shapes += [layer.kernel * layer.kernel * layer.c_in * layer.c_out, layer.c_out]
        return tuple(shapes)

    @property
    def n_arrays(self) -> int:
        return len(self.param_shapes)

    @property
    def total_params(self) -> int:
        return sum(self.param_shapes)

    @property
    def input_width(self) -> int:
        return int(np.prod(self.input_shape))


def fully_connected() -> ModelSpec:
    """784 -> 42 -> 10 multilayer perceptron, ReLU hidden, softmax output."""
    return ModelSpec("fully_connected", (784,), (Dense(784, 42), Dense(42, 10)))


def convolutional() -> ModelSpec:
    """Four same-padded conv layers with two 2x2 pools, then 3136 -> 256 -> 10."""
    return ModelSpec(
        "convolutional",
        (28, 28, 1),
        (
            Conv2D(5, 1, 32),
            Conv2D(5, 32, 32),
            MaxPool2x2(),
            Conv2D(3, 32, 64),
            Conv2D(3, 64, 64),
            MaxPool2x2(),
            Flatten(),
            Dense(3136, 256),
            Dense(256, 10),
        ),
    )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 64

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be non-negative")
        # sgd_step applies the rate in the parameter dtype, float32 by default
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(self.learning_rate)):
                raise ValueError(f"learning_rate {self.learning_rate} is not finite in float32")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class ModelParams:
    """Ordered list of flat parameter arrays matching spec.param_shapes."""

    spec: ModelSpec
    arrays: list[np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.spec, [a.copy() for a in self.arrays])


def build_model(spec: ModelSpec, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    arrays: list[np.ndarray] = []
    for layer in spec.layers:
        if isinstance(layer, Dense):
            fan_in, fan_out = layer.n_in, layer.n_out
            w_size, b_size = layer.n_in * layer.n_out, layer.n_out
        elif isinstance(layer, Conv2D):
            k2 = layer.kernel * layer.kernel
            fan_in, fan_out = k2 * layer.c_in, k2 * layer.c_out
            w_size, b_size = k2 * layer.c_in * layer.c_out, layer.c_out
        else:
            continue
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        arrays.append(rng.uniform(-limit, limit, w_size).astype(dtype))
        arrays.append(np.zeros(b_size, dtype))
    return ModelParams(spec, arrays)


def _weight_views(params: ModelParams):
    """Yield (layer, weight_view, bias) with weights reshaped for computation."""
    it = iter(params.arrays)
    for layer in params.spec.layers:
        if isinstance(layer, Dense):
            w = next(it).reshape(layer.n_in, layer.n_out)
            yield layer, w, next(it)
        elif isinstance(layer, Conv2D):
            k = layer.kernel
            w = next(it).reshape(k, k, layer.c_in, layer.c_out)
            yield layer, w, next(it)
        else:
            yield layer, None, None


def _conv_forward(x, w, b, pad):
    batch, height, width, _ = x.shape
    k = w.shape[0]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((batch, height, width, w.shape[3]), x.dtype)
    for ky in range(k):
        for kx in range(k):
            out += xp[:, ky : ky + height, kx : kx + width, :] @ w[ky, kx]
    return out + b, xp


def _conv_backward(dout, xp, w, pad):
    batch, height, width, _ = dout.shape
    k = w.shape[0]
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, ky : ky + height, kx : kx + width, :]
            dw[ky, kx] = np.tensordot(patch, dout, axes=([0, 1, 2], [0, 1, 2]))
            dxp[:, ky : ky + height, kx : kx + width, :] += dout @ w[ky, kx].T
    db = dout.sum(axis=(0, 1, 2))
    dx = dxp[:, pad : pad + height, pad : pad + width, :]
    return dx, dw, db


def _pool_forward(x):
    b, h, w, c = x.shape
    r = x.reshape(b, h // 2, 2, w // 2, 2, c)
    out = r.max(axis=(2, 4))
    mask = r == out[:, :, None, :, None, :]
    return out, mask


def _pool_backward(dout, mask):
    b, h2, _, w2, _, c = mask.shape
    d = mask * dout[:, :, None, :, None, :]
    return d.reshape(b, h2 * 2, w2 * 2, c)


def _run_layers(params: ModelParams, images: np.ndarray, keep_caches: bool):
    spec = params.spec
    if images.ndim != 2 or images.shape[1] != spec.input_width:
        raise ValueError(f"expected image rows of width {spec.input_width}, got {images.shape}")
    views = list(_weight_views(params))
    last_param = max(i for i, (_, w, _) in enumerate(views) if w is not None)

    x = images.reshape(images.shape[0], *spec.input_shape)
    caches = []
    for i, (layer, w, b) in enumerate(views):
        if isinstance(layer, Dense):
            if x.ndim != 2:
                raise ValueError("Dense layer needs flattened input; add a Flatten layer")
            pre = x @ w + b
            cache = ("dense", x, w)
        elif isinstance(layer, Conv2D):
            pre, xp = _conv_forward(x, w, b, layer.pad)
            cache = ("conv", xp, w, layer.pad)
        elif isinstance(layer, MaxPool2x2):
            x, mask = _pool_forward(x)
            if keep_caches:
                caches.append(("pool", mask))
            continue
        else:  # Flatten
            shape = x.shape
            x = x.reshape(shape[0], -1)
            if keep_caches:
                caches.append(("flatten", shape))
            continue
        if i == last_param:
            x = pre
        else:
            x = np.maximum(pre, 0)
            if keep_caches:
                cache = cache + (pre > 0,)
        if keep_caches:
            caches.append(cache)
    # stable log-softmax over the final logits
    z = x - x.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return logp, caches


def forward(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Class-probability matrix: one non-negative row per image, rows sum to 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        logp, _ = _run_layers(params, images, keep_caches=False)
        return np.exp(logp)


def loss_and_gradients(params: ModelParams, images, labels) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over the batch and its gradient per flat parameter
    array. Overflow is allowed to propagate as non-finite values and is then
    reported as NumericError."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_gradients(params, images, labels)


def _loss_and_gradients(params: ModelParams, images, labels) -> tuple[float, list[np.ndarray]]:
    logp, caches = _run_layers(params, images, keep_caches=True)
    n = images.shape[0]
    loss = float(-logp[np.arange(n), labels].sum(dtype=np.float64) / n)

    probs = np.exp(logp)
    d = probs
    d[np.arange(n), labels] -= 1
    d /= n

    flat_grads: list[np.ndarray] = []
    for cache in reversed(caches):
        kind = cache[0]
        if kind == "pool":
            d = _pool_backward(d, cache[1])
        elif kind == "flatten":
            d = d.reshape(cache[1])
        elif kind == "dense":
            _, x, w = cache[:3]
            if len(cache) == 4:
                d = d * cache[3]
            dw = x.T @ d
            db = d.sum(axis=0)
            d = d @ w.T
            flat_grads += [db, dw.reshape(-1)]
        else:  # conv
            _, xp, w, pad = cache[:4]
            if len(cache) == 5:
                d = d * cache[4]
            d, dw, db = _conv_backward(d, xp, w, pad)
            flat_grads += [db, dw.reshape(-1)]
    flat_grads.reverse()

    if not math.isfinite(loss):
        raise NumericError(-1, f"non-finite loss {loss}")
    for i, g in enumerate(flat_grads):
        if not np.isfinite(g).all():
            raise NumericError(i, f"non-finite gradient in parameter array {i}")
    return loss, flat_grads


def sgd_step(params: ModelParams, batch, cfg: TrainConfig) -> ModelParams:
    """One plain SGD update: params - learning_rate * mean batch gradient."""
    if batch.count < 1:
        raise ValueError("batch must be non-empty")
    _, grads = loss_and_gradients(params, batch.images, batch.labels)
    lr = params.arrays[0].dtype.type(cfg.learning_rate)
    return ModelParams(params.spec, [a - lr * g for a, g in zip(params.arrays, grads)])


def count_correct(params: ModelParams, ds, chunk: int = 256) -> int:
    """Number of argmax-correct predictions over the dataset."""
    correct = 0
    for start in range(0, ds.count, chunk):
        probs = forward(params, ds.images[start : start + chunk])
        correct += int((probs.argmax(axis=1) == ds.labels[start : start + chunk]).sum())
    return correct


def evaluate_accuracy(params: ModelParams, ds) -> float:
    """Fraction of correct predictions, in [0, 1]."""
    if ds.count < 1:
        raise ValueError("dataset must be non-empty")
    return count_correct(params, ds) / ds.count
