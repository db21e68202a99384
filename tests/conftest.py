import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from flcop import codec, data, metrics, nsga2
from flcop.nn import TrainConfig
from flcop.objectives import Bounds, EvalEnv, Genome
from flcop import nn


def argsort_sparsify(layer, drop_percent: int) -> np.ndarray:
    """Reference top-k selection by a full stable sort of the negated
    magnitudes: ties go to the lower index and NaN sorts last."""
    layer = np.asarray(layer)
    k = codec.kept_count(layer.size, drop_percent)
    order = np.argsort(-np.abs(layer.astype(np.float64)), kind="stable")
    return np.sort(order[:k])


def snap_loop_quantize(layer, kept, bits: int) -> codec.LayerPayload:
    """Reference quantizer: round-half-up to the nearest level, then snap
    every kept entry to c - 1 and then c + 1 wherever that reconstruction is
    strictly closer, each pass building whole candidate arrays."""
    layer = np.asarray(layer)
    kept = np.asarray(kept, np.int64)
    vals = layer[kept].astype(np.float64)
    if not np.isfinite(vals).all():
        raise FloatingPointError("layer holds non-finite values")
    lo = np.float64(np.float32(vals.min()))
    hi = np.float64(np.float32(vals.max()))
    levels = (1 << bits) - 1
    if hi == lo:
        codes = np.zeros(kept.size, np.uint32)
    else:
        step = (hi - lo) / levels
        codes = np.floor((vals - lo) * (levels / (hi - lo)) + 0.5)
        np.clip(codes, 0, levels, out=codes)
        err = np.abs(vals - (lo + codes * step))
        for cand in (codes - 1, codes + 1):
            np.clip(cand, 0, levels, out=cand)
            cand_err = np.abs(vals - (lo + cand * step))
            better = cand_err < err
            codes = np.where(better, cand, codes)
            err = np.where(better, cand_err, err)
        codes = codes.astype(np.uint32)
    return codec.LayerPayload(kept, codes, float(lo), float(hi), bits)


@dataclass(frozen=True)
class LayerCompressionSpec:
    """Reference bit width and drop percentage of one parameter array, each
    checked against the codec's range."""

    bits: int
    drop_percent: int

    def __post_init__(self):
        if not 1 <= self.bits <= codec.MAX_BITS:
            raise ValueError(f"bits must lie in [1, {codec.MAX_BITS}], got {self.bits}")
        if not 0 <= self.drop_percent <= codec.MAX_DROP_PERCENT:
            raise ValueError(f"drop_percent must lie in [0, {codec.MAX_DROP_PERCENT}], got {self.drop_percent}")


def layer_specs(genome: Genome) -> list[LayerCompressionSpec]:
    """One LayerCompressionSpec per parameter array of the genome."""
    return [LayerCompressionSpec(b, mu) for b, mu in zip(genome.bit_widths, genome.drop_percents)]


def payload_bits(specs, layer_sizes) -> int:
    """Reference uplink bits for one model: sum of kept * bits plus 64 per
    layer for the two 32-bit extrema. Index overhead is deliberately not
    counted."""
    if len(specs) != len(layer_sizes):
        raise ValueError("one compression spec per layer required")
    return sum(codec.kept_count(n, s.drop_percent) * s.bits + 64 for s, n in zip(specs, layer_sizes))


def float64_dequantize(payload: codec.LayerPayload, n: int, fill=0.0) -> np.ndarray:
    """Reference decoder: scatter the float64 reconstruction into a float64
    copy of `fill`; callers cast the result to the model dtype."""
    out = np.full(n, fill, np.float64) if np.ndim(fill) == 0 else np.asarray(fill, np.float64).copy()
    levels = (1 << payload.bits) - 1
    step = (payload.w_max - payload.w_min) / levels if payload.w_max > payload.w_min else 0.0
    out[payload.kept_indices] = payload.w_min + payload.codes.astype(np.float64) * step
    return out


def dominates(a, b, directions) -> bool:
    """Reference dominance: a is no worse than b in every objective and
    better in one, with each objective times its direction minimised."""
    better = False
    for av, bv, d in zip(a, b, directions):
        if d * av > d * bv:
            return False
        if d * av < d * bv:
            better = True
    return better


def pair_loop_sort(objectives, directions) -> tuple[tuple[int, ...], ...]:
    """Reference fast non-dominated sort (Deb et al. 2002): one dominance
    test per pair, then fronts peeled by domination counts, each sorted."""
    n = len(objectives)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objectives[i], objectives[j], directions):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i], directions):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(tuple(current))
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = sorted(nxt)
    return tuple(fronts)


def refilter_archive(archive, points, generation, directions):
    """Reference archive update: filter the archive and the new (objectives,
    genome) points together, then keep the first copy of each (objectives,
    genome) key, archive first and new points in batch order."""
    merged = archive + [(objectives, genome, generation) for objectives, genome in points]
    keep = metrics.pareto_filter([m[0] for m in merged], directions)
    seen: set[tuple] = set()
    fresh = []
    for i in keep:
        key = (merged[i][0], merged[i][1])
        if key not in seen:
            seen.add(key)
            fresh.append(merged[i])
    return fresh


def filter_sweep_hypervolume(points, reference=metrics.HV_REFERENCE) -> float:
    """Reference hypervolume: check the box, filter the dominated points out,
    then sweep the distinct front by ascending f1 in a Python loop."""
    f1_ref, f2_ref = reference
    for p in points:
        if p[0] > f1_ref or p[1] < f2_ref:
            raise ValueError(f"point {tuple(p)} lies outside the reference box {reference}")
    if not points:
        return 0.0
    keep = metrics.pareto_filter([(p[0], p[1]) for p in points])
    front = sorted({(points[i][0], points[i][1]) for i in keep})
    area = 0.0
    ceiling = f2_ref
    for f1, f2 in front:
        if f2 > ceiling:
            area += (f1_ref - f1) * (f2 - ceiling)
            ceiling = f2
    return area


def read_pareto_csv(path) -> list[metrics.ParetoPoint]:
    """The points of a pareto file, as metrics.write_run or export_campaign wrote them."""
    return [
        metrics.ParetoPoint(float(f1), float(f2), Genome.from_vector([int(c) for c in genes]), int(run_id), int(gen))
        for run_id, gen, f1, f2, *genes in metrics.read_csv(path)
    ]


def read_hypervolume_csv(path) -> list[tuple[int, float, int, float]]:
    """The (gen, hv, evals, hv_archive) rows of a hypervolume file."""
    return [(int(gen), float(hv), int(evals), float(hv_archive)) for gen, hv, evals, hv_archive in metrics.read_csv(path)]


def choice_tournament(population, n_pairs, rng):
    """Reference binary tournament: each pair of contestants is numpy's own
    `rng.choice(n, size=2, replace=False)`, as the engine drew it before it
    wrote that draw out."""
    pairs = []
    for _ in range(n_pairs):
        parents = []
        for _ in range(2):
            i, j = rng.choice(len(population), size=2, replace=False)
            winner = i if nsga2._crowded_better(population[i], population[j], rng) else j
            parents.append(int(winner))
        pairs.append((parents[0], parents[1]))
    return pairs


def bounds_loop_mutation(vec, bounds, rng, mutation_prob):
    """Reference uniform mutation, as the engine drew it before its scalar
    draws: one array of coins, then one array-bounds `rng.integers` over
    every coordinate."""
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    mask = rng.random(len(vec)) < mutation_prob
    draws = rng.integers(lows, highs + 1)
    return tuple(int(d) if m else int(v) for v, d, m in zip(vec, draws, mask))


def resort_replacement(parents, offspring, directions):
    """Reference survivor selection that ranks twice: whole fronts of the
    sorted union, the overflowing front truncated by descending crowding,
    then the survivors sorted and crowded again from scratch."""
    union = parents + offspring
    target = len(parents)
    objs = [ind.objectives for ind in union]
    survivors = []
    for front in nsga2.non_dominated_sort(objs, directions):
        dists = nsga2.crowding_distance([objs[i] for i in front])
        if len(survivors) + len(front) <= target:
            survivors.extend(union[i] for i in front)
        else:
            order = sorted(range(len(front)), key=lambda p: -dists[p])
            survivors.extend(union[front[p]] for p in order[: target - len(survivors)])
            break
    objs = [ind.objectives for ind in survivors]
    for rank, front in enumerate(nsga2.non_dominated_sort(objs, directions), start=1):
        dists = nsga2.crowding_distance([objs[i] for i in front])
        for i, dist in zip(front, dists):
            survivors[i].rank = rank
            survivors[i].crowding = dist
    return survivors


def evaluate_accuracy(params: nn.ModelParams, ds) -> float:
    """Reference accuracy: the fraction of correct predictions, in [0, 1].
    An empty dataset raises ValueError."""
    if ds.count < 1:
        raise ValueError("dataset must be non-empty")
    return nn.count_correct(params, ds) / ds.count


def fan_build_model(spec: nn.ModelSpec, seed: int, dtype=np.float32) -> nn.ModelParams:
    """Reference initialisation with the fans and sizes spelt out per layer type."""
    rng = np.random.default_rng(seed)
    arrays = []
    for layer in spec.layers:
        if isinstance(layer, nn.Dense):
            fan_in, fan_out = layer.n_in, layer.n_out
            w_size, b_size = layer.n_in * layer.n_out, layer.n_out
        elif isinstance(layer, nn.Conv2D):
            k2 = layer.kernel * layer.kernel
            fan_in, fan_out = k2 * layer.c_in, k2 * layer.c_out
            w_size, b_size = k2 * layer.c_in * layer.c_out, layer.c_out
        else:
            continue
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        arrays.append(rng.uniform(-limit, limit, w_size).astype(dtype))
        arrays.append(np.zeros(b_size, dtype))
    return nn.ModelParams(spec, arrays)


def _tagged_weight_views(params):
    it = iter(params.arrays)
    for layer in params.spec.layers:
        if isinstance(layer, nn.Dense):
            yield layer, next(it).reshape(layer.n_in, layer.n_out), next(it)
        elif isinstance(layer, nn.Conv2D):
            k = layer.kernel
            yield layer, next(it).reshape(k, k, layer.c_in, layer.c_out), next(it)
        else:
            yield layer, None, None


def scatter_conv_backward(dout, xp, w, pad, input_grad: bool):
    """Reference conv backward: dw by one tensordot per tap over the strided
    window, dx by scattering each tap's product into a padded zero array."""
    batch, height, width, _ = dout.shape
    k = w.shape[0]
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp) if input_grad else None
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, ky : ky + height, kx : kx + width, :]
            dw[ky, kx] = np.tensordot(patch, dout, axes=([0, 1, 2], [0, 1, 2]))
            if input_grad:
                dxp[:, ky : ky + height, kx : kx + width, :] += dout @ w[ky, kx].T
    db = dout.sum(axis=(0, 1, 2))
    dx = dxp[:, pad : pad + height, pad : pad + width, :] if input_grad else None
    return dx, dw, db


def _tagged_run_layers(params, images):
    spec = params.spec
    views = list(_tagged_weight_views(params))
    last_param = max(i for i, (_, w, _) in enumerate(views) if w is not None)
    x = images.reshape(images.shape[0], *spec.input_shape)
    caches = []
    for i, (layer, w, b) in enumerate(views):
        if isinstance(layer, nn.Dense):
            pre = x @ w + b
            cache = ("dense", x, w)
        elif isinstance(layer, nn.Conv2D):
            pre, xp = nn._conv_forward(x, w, b, layer.pad)
            cache = ("conv", xp, w, layer.pad)
        elif isinstance(layer, nn.MaxPool2x2):
            x, mask = nn._pool_forward(x)
            caches.append(("pool", mask))
            continue
        else:
            caches.append(("flatten", x.shape))
            x = x.reshape(x.shape[0], -1)
            continue
        if i == last_param:
            x = pre
        else:
            x = np.maximum(pre, 0)
            cache = cache + (pre > 0,)
        caches.append(cache)
    z = x - x.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return logp, caches


def tagged_cache_forward(params, images):
    """Reference class probabilities through the string-tagged forward pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(_tagged_run_layers(params, images)[0])


def tagged_cache_loss_and_gradients(params, images, labels):
    """Reference loss and gradients: string-tagged cache tuples, ReLU layers
    told apart by tuple length, and the input gradient formed at every layer,
    the first included. Non-finite results are returned, not raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        logp, caches = _tagged_run_layers(params, images)
        n = images.shape[0]
        loss = float(-logp[np.arange(n), labels].sum(dtype=np.float64) / n)
        d = np.exp(logp)
        d[np.arange(n), labels] -= 1
        d /= n
        flat_grads = []
        for cache in reversed(caches):
            kind = cache[0]
            if kind == "pool":
                d = nn._pool_backward(d, cache[1])
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
            else:
                _, xp, w, pad = cache[:4]
                if len(cache) == 5:
                    d = d * cache[4]
                d, dw, db = scatter_conv_backward(d, xp, w, pad, input_grad=True)
                flat_grads += [db, dw.reshape(-1)]
        flat_grads.reverse()
    return loss, flat_grads


def _copying_run_layers(params, images, keep_caches: bool):
    spec = params.spec
    if images.ndim != 2 or images.shape[1] != math.prod(spec.input_shape):
        raise ValueError(f"expected image rows of width {math.prod(spec.input_shape)}, got {images.shape}")
    arrays = iter(params.arrays)
    last_weighted = max(i for i, layer in enumerate(spec.layers) if layer.weight_shape)

    x = images.reshape(images.shape[0], *spec.input_shape)
    caches = []
    for i, layer in enumerate(spec.layers):
        x_in, w, mask = x, None, None
        if isinstance(layer, nn.MaxPool2x2):
            x_in = None
            x, mask = nn._pool_forward(x)
        elif isinstance(layer, nn.Flatten):
            x = x.reshape(x.shape[0], -1)
        else:
            w = next(arrays).reshape(layer.weight_shape)
            b = next(arrays)
            if isinstance(layer, nn.Conv2D):
                x, x_in = nn._conv_forward(x, w, b, layer.pad)
            else:
                x = x @ w + b
            if i != last_weighted:
                if keep_caches:
                    mask = x > 0
                x = np.maximum(x, 0)
        if keep_caches:
            caches.append((layer, x_in, w, mask))
    z = x - x.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return logp, caches


def copying_forward(params, images):
    """Reference class probabilities: every layer writes a new array."""
    with np.errstate(over="ignore", invalid="ignore"):
        logp, _ = _copying_run_layers(params, images, keep_caches=False)
        return np.exp(logp)


def copying_loss_and_gradients(params, images, labels):
    """Reference loss and gradients: every step of forward and backward
    writes a new array, the conv backward is scatter_conv_backward, and
    non-finite results raise NumericError as nn.loss_and_gradients does."""
    with np.errstate(over="ignore", invalid="ignore"):
        logp, caches = _copying_run_layers(params, images, keep_caches=True)
        n = images.shape[0]
        loss = float(-logp[np.arange(n), labels].sum(dtype=np.float64) / n)

        d = np.exp(logp)
        d[np.arange(n), labels] -= 1
        d /= n

        first_weighted = min(i for i, layer in enumerate(params.spec.layers) if layer.weight_shape)
        flat_grads = []
        for i in reversed(range(first_weighted, len(caches))):
            layer, x, w, mask = caches[i]
            if isinstance(layer, nn.MaxPool2x2):
                d = nn._pool_backward(d, mask)
            elif isinstance(layer, nn.Flatten):
                d = d.reshape(x.shape)
            else:
                if mask is not None:
                    d = d * mask
                if isinstance(layer, nn.Conv2D):
                    d, dw, db = scatter_conv_backward(d, x, w, layer.pad, input_grad=i > first_weighted)
                else:
                    dw = x.T @ d
                    db = d.sum(axis=0)
                    if i > first_weighted:
                        d = d @ w.T
                flat_grads += [db, dw.reshape(-1)]
        flat_grads.reverse()

        if not math.isfinite(loss):
            raise nn.NumericError(-1, f"non-finite loss {loss}")
        for i, g in enumerate(flat_grads):
            if not np.isfinite(g).all():
                raise nn.NumericError(i, f"non-finite gradient in parameter array {i}")
        return loss, flat_grads


def copying_sgd_step(params, images, labels, cfg):
    """Reference SGD update: a - lr * g, with lr * g a new array."""
    _, grads = copying_loss_and_gradients(params, images, labels)
    lr = params.arrays[0].dtype.type(cfg.learning_rate)
    return nn.ModelParams(params.spec, [a - lr * g for a, g in zip(params.arrays, grads)])


def random_genome(bounds: Bounds, rng: np.random.Generator) -> Genome:
    """Uniform integer draw within every coordinate's closed range."""
    ranges = bounds.coordinate_ranges()
    lows = np.array([lo for lo, _ in ranges])
    highs = np.array([hi for _, hi in ranges])
    return Genome.from_vector(rng.integers(lows, highs + 1))


def write_idx(ds: data.LabeledDataset, images_path, labels_path) -> None:
    """Write a dataset to the IDX container (exact inverse of data.load_idx)."""
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4i", data.IMAGE_MAGIC, ds.count, 28, 28))
        f.write(ds.images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2i", data.LABEL_MAGIC, ds.count))
        f.write(ds.labels.astype(np.uint8).tobytes())


@dataclass(frozen=True)
class FloatRows:
    """Reference dataset that stores its pixels as float32 rows and returns
    them unchanged: the count, labels, pixels and take that data.Shard and
    nn.count_correct read from a LabeledDataset."""

    images: np.ndarray
    labels: np.ndarray

    @property
    def count(self) -> int:
        return self.images.shape[0]

    def take(self, indices: np.ndarray) -> "FloatRows":
        return FloatRows(self.images[indices], self.labels[indices])

    def pixels(self, index) -> np.ndarray:
        return self.images[index]


def float32_load_idx(images_path, labels_path) -> FloatRows:
    """Reference loader for well-formed files: the pixels decoded once, at
    load, into float32 rows v / 255, in chunks of 1024 rows through one
    reused byte buffer."""
    decode_rows = 1024
    with open(images_path, "rb") as f:
        count = struct.unpack(">4i", f.read(16))[1]
        images = np.empty((count, 784), np.float32)
        buf = np.empty((min(count, decode_rows), 784), np.uint8)
        for start in range(0, count, decode_rows):
            chunk = buf[: min(decode_rows, count - start)]
            assert f.readinto(chunk) == chunk.nbytes
            np.divide(chunk, np.float32(255), out=images[start : start + chunk.shape[0]], dtype=np.float32)
    labels = np.frombuffer(Path(labels_path).read_bytes(), np.uint8, offset=8)[:count].astype(np.int64)
    return FloatRows(images, labels)


def copying_partition(ds: data.LabeledDataset, n_clients: int, seed: int) -> tuple[data.Shard, ...]:
    """Reference partition: the same shards as data.partition, each over a
    copy of its rows rather than a row-index view onto ds."""
    order = np.random.default_rng(seed).permutation(ds.count)
    base, rem = divmod(ds.count, n_clients)
    sizes = [base + 1] * rem + [base] * (n_clients - rem)
    starts = np.cumsum([0] + sizes)
    return tuple(data.Shard(ds.take(order[a:b]), np.arange(b - a)) for a, b in zip(starts[:-1], starts[1:]))


def make_synthetic(n: int, seed: int) -> data.LabeledDataset:
    """Learnable MNIST-shaped stand-in: noisy class prototypes in [0, 1],
    stored as the bytes round(255 x).

    The prototypes are fixed so train and test splits drawn with different
    seeds share one classification task.
    """
    protos = np.random.default_rng(12345).random((10, 784)) * 0.8
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    images = np.clip(protos[labels] + rng.normal(0, 0.25, (n, 784)), 0, 1)
    return data.LabeledDataset(np.rint(images * 255).astype(np.uint8), labels.astype(np.int64))


@pytest.fixture(scope="session")
def fixture_mnist_dir(tmp_path_factory) -> Path:
    """Directory of synthetic IDX files in the standard MNIST layout."""
    d = tmp_path_factory.mktemp("idx")
    write_idx(make_synthetic(1024, 0), d / data.TRAIN_IMAGES, d / data.TRAIN_LABELS)
    write_idx(make_synthetic(256, 1), d / data.TEST_IMAGES, d / data.TEST_LABELS)
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
