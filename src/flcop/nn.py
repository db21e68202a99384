"""Minimal trainable neural networks (fully-connected and convolutional).

Each weighted layer states its weight shape, (n_in, n_out) for Dense and
(k, k, c_in, c_out) for Conv2D, with one bias per entry of the last axis; the
flat parameter layout, the initialisation and the weight views derive from it.
Parameters live as an ordered list of flat arrays, weights and biases as
separate entries, so downstream per-layer compression can treat every
trainable array uniformly. Training is plain SGD on softmax cross-entropy.
Backward stops at the first weighted layer: no input gradient is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# test images per forward pass in count_correct; the chunk sets the matmul
# shapes, and so the low bits of the predictions
EVAL_CHUNK = 256


class NumericError(ArithmeticError):
    """Non-finite loss or gradient; carries the offending parameter-array index."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(message)
        self.layer_index = layer_index


@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int

    @property
    def weight_shape(self) -> tuple[int, ...]:
        return (self.n_in, self.n_out)


@dataclass(frozen=True)
class Conv2D:
    kernel: int
    c_in: int
    c_out: int

    @property
    def weight_shape(self) -> tuple[int, ...]:
        return (self.kernel, self.kernel, self.c_in, self.c_out)

    @property
    def pad(self) -> int:
        return (self.kernel - 1) // 2


@dataclass(frozen=True)
class MaxPool2x2:
    weight_shape = None


@dataclass(frozen=True)
class Flatten:
    weight_shape = None


@dataclass(frozen=True)
class ModelSpec:
    """Network topology plus the derived flat parameter-array layout, each
    layout fact computed once per spec."""

    input_shape: tuple[int, ...]
    layers: tuple

    @cached_property
    def param_shapes(self) -> tuple[int, ...]:
        shapes = []
        for layer in self.layers:
            if layer.weight_shape:
                shapes += [math.prod(layer.weight_shape), layer.weight_shape[-1]]
        return tuple(shapes)

    @property
    def n_arrays(self) -> int:
        return len(self.param_shapes)

    @property
    def total_params(self) -> int:
        return sum(self.param_shapes)

    @cached_property
    def input_width(self) -> int:
        return math.prod(self.input_shape)

    @cached_property
    def first_weighted(self) -> int:
        return min(i for i, layer in enumerate(self.layers) if layer.weight_shape)

    @cached_property
    def last_weighted(self) -> int:
        return max(i for i, layer in enumerate(self.layers) if layer.weight_shape)


def fully_connected() -> ModelSpec:
    """784 -> 42 -> 10 multilayer perceptron, ReLU hidden, softmax output."""
    return ModelSpec((784,), (Dense(784, 42), Dense(42, 10)))


def convolutional() -> ModelSpec:
    """Four same-padded conv layers with two 2x2 pools, then 3136 -> 256 -> 10."""
    return ModelSpec(
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


def build_model(spec: ModelSpec, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases.
    A conv layer's fans count its whole k x k receptive field."""
    rng = np.random.default_rng(seed)
    arrays: list[np.ndarray] = []
    for layer in spec.layers:
        shape = layer.weight_shape
        if shape:
            receptive = math.prod(shape[:-2])
            limit = math.sqrt(6.0 / (receptive * shape[-2] + receptive * shape[-1]))
            arrays.append(rng.uniform(-limit, limit, math.prod(shape)).astype(dtype))
            arrays.append(np.zeros(shape[-1], dtype))
    return ModelParams(spec, arrays)


def _conv_forward(x, w, b, pad):
    batch, height, width, _ = x.shape
    k = w.shape[0]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((batch, height, width, w.shape[3]), x.dtype)
    for ky in range(k):
        for kx in range(k):
            out += xp[:, ky : ky + height, kx : kx + width, :] @ w[ky, kx]
    return out + b, xp


def _conv_backward(dout, xp, w, pad, input_grad: bool):
    """(dx, dw, db) of a same-padded conv; dx is None unless input_grad.

    dw[ky, kx] is a tensordot of the tap's input window with dout. Where the
    window's rows do not flatten into one stride, tensordot would copy it
    channels-first for every tap; instead the padded input is transposed once
    and each window copied from it into one reused buffer, and the same dot
    runs on the same layout, so dw keeps tensordot's bits."""
    batch, height, width, c_out = dout.shape
    k, c_in = w.shape[0], w.shape[2]
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp) if input_grad else None
    # a window flattens into a strided view when unpadded or along one axis
    strided = pad == 0 or sum(n > 1 for n in (batch, height, width)) <= 1
    if not strided:
        channels_first = np.ascontiguousarray(xp.transpose(3, 0, 1, 2))
        window = np.empty((c_in, batch, height, width), xp.dtype)
        rows = dout.reshape(-1, c_out)
    for ky in range(k):
        for kx in range(k):
            if strided:
                patch = xp[:, ky : ky + height, kx : kx + width, :]
                dw[ky, kx] = np.tensordot(patch, dout, axes=([0, 1, 2], [0, 1, 2]))
            else:
                window[...] = channels_first[:, :, ky : ky + height, kx : kx + width]
                dw[ky, kx] = np.dot(window.reshape(c_in, -1), rows)
            if input_grad:
                dxp[:, ky : ky + height, kx : kx + width, :] += dout @ w[ky, kx].T
    db = dout.sum(axis=(0, 1, 2))
    dx = dxp[:, pad : pad + height, pad : pad + width, :] if input_grad else None
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
    """Log-probabilities and, if keep_caches, one (layer, input, weight, mask)
    entry per layer: a weighted layer's input (padded for a conv) and ReLU mask
    (None on the output layer), a pool's max mask, Flatten's input."""
    spec = params.spec
    if images.ndim != 2 or images.shape[1] != spec.input_width:
        raise ValueError(f"expected image rows of width {spec.input_width}, got {images.shape}")
    arrays = iter(params.arrays)

    x = images.reshape(images.shape[0], *spec.input_shape)
    caches = []
    for i, layer in enumerate(spec.layers):
        x_in, w, mask = x, None, None
        if isinstance(layer, MaxPool2x2):
            x_in = None
            x, mask = _pool_forward(x)
        elif isinstance(layer, Flatten):
            x = x.reshape(x.shape[0], -1)
        else:
            w = next(arrays).reshape(layer.weight_shape)
            b = next(arrays)
            if isinstance(layer, Conv2D):
                x, x_in = _conv_forward(x, w, b, layer.pad)
            elif x.ndim != 2:
                raise ValueError("Dense layer needs flattened input; add a Flatten layer")
            else:
                x = x @ w
                x += b
            # a weighted layer's output is a new array, so it is overwritten in place
            if i != spec.last_weighted:
                if keep_caches:
                    mask = x > 0
                np.maximum(x, 0, out=x)
        if keep_caches:
            caches.append((layer, x_in, w, mask))
    # stable log-softmax, in place on the final logits
    x -= x.max(axis=1, keepdims=True)
    x -= np.log(np.exp(x).sum(axis=1, keepdims=True))
    return x, caches


def forward(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Class-probability matrix: one non-negative row per image, rows sum to 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        logp, _ = _run_layers(params, images, keep_caches=False)
        return np.exp(logp, out=logp)


def loss_and_gradients(params: ModelParams, images, labels) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over the batch and its gradient per flat parameter
    array. Overflow is allowed to propagate as non-finite values and is then
    reported as NumericError."""
    with np.errstate(over="ignore", invalid="ignore"):
        logp, caches = _run_layers(params, images, keep_caches=True)
        n = images.shape[0]
        # each row's label entry as one flat index; the logits are a new
        # C-contiguous array, so reshape(-1) is a view that writes through
        picked = np.ravel_multi_index((np.arange(n), labels), logp.shape)
        loss = float(-logp.reshape(-1)[picked].sum(dtype=np.float64) / n)

        d = np.exp(logp, out=logp)
        d.reshape(-1)[picked] -= 1
        d /= n

        first_weighted = params.spec.first_weighted
        flat_grads: list[np.ndarray] = []
        for i in reversed(range(first_weighted, len(caches))):
            layer, x, w, mask = caches[i]
            if isinstance(layer, MaxPool2x2):
                d = _pool_backward(d, mask)
            elif isinstance(layer, Flatten):
                d = d.reshape(x.shape)
            else:
                if mask is not None:
                    d *= mask
                if isinstance(layer, Conv2D):
                    d, dw, db = _conv_backward(d, x, w, layer.pad, input_grad=i > first_weighted)
                else:
                    dw = x.T @ d
                    db = d.sum(axis=0)
                    if i > first_weighted:
                        d = d @ w.T
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
    # the gradients are this step's own arrays, so each is scaled in place
    # and then overwritten by the updated parameters
    return ModelParams(
        params.spec, [np.subtract(a, np.multiply(g, lr, out=g), out=g) for a, g in zip(params.arrays, grads)]
    )


def count_correct(params: ModelParams, ds) -> int:
    """Number of argmax-correct predictions over the dataset, EVAL_CHUNK
    images per forward pass."""
    correct = 0
    for start in range(0, ds.count, EVAL_CHUNK):
        probs = forward(params, ds.images[start : start + EVAL_CHUNK])
        correct += int((probs.argmax(axis=1) == ds.labels[start : start + EVAL_CHUNK]).sum())
    return correct
