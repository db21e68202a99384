"""Per-layer lossy compression: top-magnitude sparsification plus b-bit
min/max quantisation, and a binary wire layout."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAX_DROP_PERCENT = 50  # sparsification drops at most this percent of a layer
MAX_BITS = 32  # quantisation codes are 1 to MAX_BITS bits wide


class PayloadCorruptionError(ValueError):
    """Decoded payload is internally inconsistent with its layer."""


@dataclass
class LayerPayload:
    """Compressed wire form of one parameter array.

    kept_indices are sorted positions into the original flat array; codes are
    integers below 2**bits, one per kept position; w_min and w_max span the
    kept values and anchor the reconstruction grid.
    """

    kept_indices: np.ndarray
    codes: np.ndarray
    w_min: float
    w_max: float
    bits: int


def kept_count(n: int, drop_percent: int) -> int:
    """Entries surviving sparsification: ceil(n * (100 - drop_percent) / 100)."""
    return -((n * (100 - drop_percent)) // -100)


def sparsify(layer: np.ndarray, drop_percent: int) -> np.ndarray:
    """Indices of the k = ceil(n * (100 - drop_percent) / 100) largest-magnitude
    entries, returned sorted ascending.

    Selection is by threshold: one partition finds the k-th largest
    magnitude, every entry above it is kept, and entries equal to it fill the
    remaining places lowest index first. NaN ranks below every number, ties
    among NaNs again going to the lower index. When k == n every index is
    returned without reading the values.
    """
    layer = np.asarray(layer)
    if layer.size == 0:
        raise ValueError("cannot sparsify an empty layer")
    if not 0 <= drop_percent <= MAX_DROP_PERCENT:
        raise ValueError(f"drop_percent must lie in [0, {MAX_DROP_PERCENT}], got {drop_percent}")
    n = layer.size
    k = kept_count(n, drop_percent)
    if k == n:
        return np.arange(n)
    # negated magnitudes: ascending order is descending magnitude, and the
    # partition's NaN-last order ranks NaN below every number. abs and
    # negation are exact in a float dtype that float64 holds, so such a layer
    # keys in its own dtype with the comparisons of float64; any other dtype
    # keys in float64, where abs of the lowest integer cannot overflow
    exact = layer.dtype.kind == "f" and np.can_cast(layer.dtype, np.float64)
    key = np.abs(layer.reshape(-1), dtype=layer.dtype if exact else np.float64)
    np.negative(key, out=key)
    thr = np.partition(key, k - 1)[k - 1]
    if math.isnan(thr):
        # fewer than k numbers: keep them all, then NaNs lowest index first
        kept = ~np.isnan(key)
        kept[np.flatnonzero(~kept)[: k - np.count_nonzero(kept)]] = True
        return np.flatnonzero(kept)
    kept = np.flatnonzero(key <= thr)
    # more than k entries reach the threshold: drop the highest-index ties
    surplus = kept.size - k
    if surplus:
        kept = np.delete(kept, np.flatnonzero(key[kept] == thr)[-surplus:])
    return kept


# magnitudes from here up round to infinity when cast to float32: half an
# ulp above the largest float32, where round-half-even goes up
_F32_OVERFLOW = 2.0**128 - 2.0**103


def quantize(layer: np.ndarray, kept: np.ndarray, bits: int) -> LayerPayload:
    """Encode the kept entries on a 2**bits level grid spanning [min, max].

    Code 0 decodes to the minimum, code 2**bits - 1 to the maximum, interior
    codes to equally spaced levels between them. Each value takes the
    nearest level by round-half-up of its normalized position; a
    neighbouring level (c - 1 tried first, then c + 1) replaces it only when
    its float64 reconstruction is strictly closer, so the half-step error
    bound survives float rounding. A neighbour can win only where the error
    lies within float64 rounding of half a step, so only those entries are
    checked. A constant layer yields all-zero codes. Raises
    FloatingPointError when a kept value is NaN or infinite or when an
    extremum overflows float32.
    """
    layer = np.asarray(layer)
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must lie in [1, {MAX_BITS}], got {bits}")
    kept = np.asarray(kept, np.int64)
    if kept.size == 0:
        raise ValueError("kept index set must be non-empty")
    # arithmetic runs in float64; casting each kept value as it is read is
    # exact and saves a converted copy
    vals = layer[kept]
    # min and max propagate NaN and infinities, so this also rejects those
    lo, hi = float(vals.min()), float(vals.max())
    if not (-_F32_OVERFLOW < lo and hi < _F32_OVERFLOW):
        raise FloatingPointError("layer holds values that are not finite in float32")
    # extrema travel as float32 on the wire; quantize against the stored values
    lo, hi = float(np.float32(lo)), float(np.float32(hi))
    levels = (1 << bits) - 1
    if hi == lo:
        return LayerPayload(kept, np.zeros(kept.size, np.uint32), lo, hi, bits)
    step = (hi - lo) / levels
    codes = np.subtract(vals, lo, dtype=np.float64)
    codes *= levels / (hi - lo)
    codes += 0.5
    np.floor(codes, out=codes)
    np.clip(codes, 0, levels, out=codes)
    err = np.multiply(codes, step)
    err += lo
    np.subtract(vals, err, out=err, dtype=np.float64)
    np.abs(err, out=err)
    # each computed reconstruction lo + c * step is off by at most
    # 2**-53 * (|lo| + 2 (hi - lo)) and each computed error by a relative
    # 2**-53, so a neighbour can be strictly closer only where err lies
    # within 2**-52 * (|lo| + |hi| + (hi - lo)) of step / 2; the margin is
    # eight times that
    margin = 8 * 2.0**-52 * (abs(lo) + abs(hi) + (hi - lo))
    near = np.flatnonzero(err >= step / 2 - margin)
    if near.size:
        v, c, e = vals[near].astype(np.float64), codes[near], err[near]
        for cand in (c - 1, c + 1):
            np.clip(cand, 0, levels, out=cand)
            cand_err = np.abs(v - (lo + cand * step))
            better = cand_err < e
            c = np.where(better, cand, c)
            e = np.where(better, cand_err, e)
        codes[near] = c
    return LayerPayload(kept, codes.astype(np.uint32), lo, hi, bits)


def dequantize(payload: LayerPayload, n: int, fill=0.0, dtype=np.float64) -> np.ndarray:
    """Reconstruct a flat array of length n and the given dtype from a payload.

    Kept positions decode to w_min + code * step, computed in float64 and
    rounded once to `dtype`; every other position takes `fill` (a scalar, or
    an array of length n read positionally) cast to `dtype`.
    """
    idx = payload.kept_indices
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n):
        raise PayloadCorruptionError(f"kept indices {idx.min()}..{idx.max()} out of range for layer of {n}")
    if np.ndim(fill) and np.shape(fill) != (n,):
        raise ValueError("fill array must match the layer length")
    levels = (1 << payload.bits) - 1
    step = (payload.w_max - payload.w_min) / levels if payload.w_max > payload.w_min else 0.0
    rec = payload.codes.astype(np.float64)
    rec *= step
    rec += payload.w_min
    # one rounding to dtype; a scatter without a cast in it is also faster
    rec = rec.astype(dtype, copy=False)
    # n strictly increasing indices below n, starting at 0, are every position
    if idx.size == n > 0 and idx[0] == 0 and (idx[1:] > idx[:-1]).all():
        return rec
    out = np.full(n, fill, dtype) if np.ndim(fill) == 0 else np.array(fill, dtype)
    out[idx] = rec
    return out


def encode_payload(payload: LayerPayload) -> bytes:
    """Serialize: [u8 bits][u32 n_kept][f32 min][f32 max][codes, bits each,
    little-endian bit order][u32 delta-encoded indices], all little-endian."""
    k = payload.codes.size
    header = struct.pack("<BIff", payload.bits, k, payload.w_min, payload.w_max)
    code_bits = np.unpackbits(
        payload.codes.astype("<u4").view(np.uint8).reshape(k, 4), axis=1, bitorder="little"
    )[:, : payload.bits]
    packed = np.packbits(code_bits.reshape(-1), bitorder="little").tobytes()
    idx = payload.kept_indices.astype(np.int64)
    deltas = np.diff(idx, prepend=0).astype("<u4")
    return header + packed + deltas.tobytes()


def decode_payload(buf: bytes) -> LayerPayload:
    """Inverse of encode_payload; raises PayloadCorruptionError on bad sizes,
    a bit width outside [1, MAX_BITS], or kept indices that do not strictly
    increase."""
    if len(buf) < 13:
        raise PayloadCorruptionError("payload shorter than its 13-byte header")
    bits, k, w_min, w_max = struct.unpack("<BIff", buf[:13])
    if not 1 <= bits <= MAX_BITS:
        raise PayloadCorruptionError(f"bits byte {bits} outside [1, {MAX_BITS}]")
    code_bytes = (k * bits + 7) // 8
    if len(buf) != 13 + code_bytes + 4 * k:
        raise PayloadCorruptionError(f"payload length {len(buf)} does not match header (k={k}, bits={bits})")
    stream = np.unpackbits(np.frombuffer(buf, np.uint8, code_bytes, offset=13), bitorder="little")
    padded = np.zeros((k, 32), np.uint8)
    padded[:, :bits] = stream[: k * bits].reshape(k, bits)
    codes = np.packbits(padded, axis=1, bitorder="little").view("<u4").reshape(k)
    deltas = np.frombuffer(buf, "<u4", k, offset=13 + code_bytes)
    if not deltas[1:].all():
        raise PayloadCorruptionError("kept indices repeat: zero delta after the first")
    indices = np.cumsum(deltas.astype(np.int64))
    return LayerPayload(indices, codes.astype(np.uint32), w_min, w_max, bits)
