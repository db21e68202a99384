import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flcop import codec
from conftest import argsort_sparsify, float64_dequantize, snap_loop_quantize


def test_sparsify_keeps_top_magnitude():
    assert list(codec.sparsify(np.array([5.0, -9.0, 1.0, 2.0]), 50)) == [0, 1]


def test_sparsify_zero_drop_keeps_everything():
    assert list(codec.sparsify(np.array([0.0, -1.0, 2.0]), 0)) == [0, 1, 2]


def test_sparsify_tie_breaks_to_lower_index():
    assert list(codec.sparsify(np.array([3.0, 3.0, 3.0]), 34)) == [0, 1]


# few distinct values, so ties at the threshold are the rule, plus the
# entries whose order is easiest to get wrong: signed zeros, infinities, NaN
_TIE_HEAVY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, np.inf, -np.inf, np.nan])


@st.composite
def _layers(draw):
    # float16 and longdouble besides the model dtypes, since sparsify keys a
    # float layer in its own dtype only where float64 holds it exactly; int8
    # with its lowest value, whose magnitude overflows int8
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64, np.longdouble, np.int8]))
    if dtype == np.int8:
        elements = st.one_of(st.sampled_from([-128, -127, 0, 1, 127]), st.integers(-128, 127))
    else:
        width = min(np.dtype(dtype).itemsize * 8, 64)
        elements = st.one_of(_TIE_HEAVY, st.floats(width=width))
    return draw(hnp.arrays(dtype, st.integers(1, 5000), elements=elements))


@settings(max_examples=150, deadline=None)
@given(layer=_layers())
def test_sparsify_matches_stable_argsort(layer):
    for mu in range(51):
        kept = codec.sparsify(layer, mu)
        assert kept.size == codec.kept_count(layer.size, mu)
        assert np.array_equal(kept, argsort_sparsify(layer, mu))


def test_sparsify_conv_sized_layer_matches_stable_argsort():
    rng = np.random.default_rng(802816)
    # rounding to a coarse grid leaves many ties at every threshold
    layer = np.round(rng.standard_normal(802816), 2).astype(np.float32)
    for mu in (1, 25, 50):
        assert np.array_equal(codec.sparsify(layer, mu), argsort_sparsify(layer, mu))


def test_sparsify_ranks_longdouble_by_float64_magnitude():
    # 1 + 2**-60 and 1 tie in float64, so the lower index is kept, as it was
    # when every layer keyed in float64 (where longdouble is float64 they tie anyway)
    layer = np.array([1.0, 1.0 + np.longdouble(2) ** -60], dtype=np.longdouble)
    assert list(codec.sparsify(layer, 50)) == [0]
    assert np.array_equal(codec.sparsify(layer, 50), argsort_sparsify(layer, 50))


def test_sparsify_nan_ranks_last():
    layer = np.array([np.nan, 1.0, np.nan, 0.0, -2.0])
    assert list(codec.sparsify(layer, 40)) == [1, 3, 4]
    assert list(codec.sparsify(layer, 20)) == [0, 1, 3, 4]


def test_sparsify_rejects_empty_and_bad_percent():
    with pytest.raises(ValueError):
        codec.sparsify(np.array([]), 10)
    with pytest.raises(ValueError):
        codec.sparsify(np.array([1.0]), 60)


def test_kept_count_is_ceiling():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 5000))
        mu = int(rng.integers(0, 51))
        assert codec.kept_count(n, mu) == math.ceil(n * (100 - mu) / 100)


def test_quantize_four_levels():
    p = codec.quantize(np.array([0.0, 1.0, 2.0, 3.0]), np.arange(4), 2)
    assert list(p.codes) == [0, 1, 2, 3]
    assert p.w_min == 0.0 and p.w_max == 3.0


def test_quantize_single_bit_maps_endpoints():
    p = codec.quantize(np.array([-0.5, 0.7]), np.arange(2), 1)
    assert list(p.codes) == [0, 1]


def test_quantize_constant_layer():
    p = codec.quantize(np.array([5.0, 5.0, 5.0]), np.arange(3), 4)
    assert p.w_min == p.w_max == 5.0
    assert not p.codes.any()
    assert np.array_equal(codec.dequantize(p, 3), [5.0, 5.0, 5.0])


def test_quantize_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        codec.quantize(np.array([1.0, np.nan]), np.arange(2), 4)


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e39, -1e39])
def test_quantize_rejects_values_not_finite_in_float32(value):
    # 1e39 is finite in float64 but the extrema travel as float32
    with pytest.raises(FloatingPointError):
        codec.quantize(np.array([value, 0.0, -5.0, 1.0]), np.arange(4), 8)


def test_quantize_float32_overflow_edge():
    # half an ulp above the largest float32 rounds to infinity, just below it
    # rounds to the largest float32
    edge = 2.0**128 - 2.0**103
    with pytest.raises(FloatingPointError):
        codec.quantize(np.array([0.0, edge]), np.arange(2), 8)
    with pytest.raises(FloatingPointError):
        codec.quantize(np.array([-edge, 0.0]), np.arange(2), 8)
    below = np.nextafter(edge, 0.0)
    p = codec.quantize(np.array([-below, below]), np.arange(2), 8)
    big = float(np.finfo(np.float32).max)
    assert (p.w_min, p.w_max) == (-big, big)
    assert list(p.codes) == [0, 255]


def _old_and_new_agree(layer, kept, bits):
    got = codec.quantize(layer, kept, bits)
    want = snap_loop_quantize(layer, kept, bits)
    assert got.codes.dtype == want.codes.dtype == np.uint32
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.kept_indices, want.kept_indices)
    assert (got.w_min, got.w_max) == (want.w_min, want.w_max)
    n = layer.size
    for fill in (0.1, layer):
        for dtype in (np.float32, np.float64):
            old = float64_dequantize(want, n, fill).astype(dtype)
            assert codec.dequantize(got, n, fill, dtype=dtype).tobytes() == old.tobytes()


# float32 values at 1e6 are 1/16 apart, so a few of them span a range whose
# grid at high bit widths is finer than float64 rounding of lo + c * step
_CLUSTER = st.integers(-8, 8).map(lambda k: np.float32(1e6 + k / 16))
_FINITE_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 0.5, 0.25])
_FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _quantize_inputs(draw):
    kind = draw(st.sampled_from(["float32", "float64", "cluster"]))
    size = st.integers(1, 5000)
    if kind == "cluster":
        layer = draw(hnp.arrays(np.float32, size, elements=_CLUSTER))
    elif kind == "float32":
        layer = draw(hnp.arrays(np.float32, size, elements=st.one_of(_FINITE_TIES, _FINITE32)))
    else:
        # float64 values stay inside float32 range, where the extrema can travel
        layer = draw(hnp.arrays(np.float64, size, elements=st.one_of(_FINITE_TIES, st.floats(-3e38, 3e38))))
    if draw(st.booleans()):
        kept = codec.sparsify(layer, draw(st.integers(0, 50)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kept = rng.permutation(layer.size)[: draw(st.integers(1, layer.size))]
    return layer, kept


@settings(max_examples=120, deadline=None)
@given(case=_quantize_inputs())
def test_quantize_matches_snap_loop(case):
    layer, kept = case
    for bits in range(1, 33):
        _old_and_new_agree(layer, kept, bits)


def test_quantize_snaps_where_rounding_moves_the_nearest_level():
    # the rounded position puts v at code 523962005, but the float64
    # reconstruction of 523962004 is strictly closer; v's error is about
    # 0.2 * 2**-52 * (|lo| + |hi| + (hi - lo)) below half a step
    layer = np.array([-1.801721815551181e16, 444803590389760.0, 889592376911.9999])
    p = codec.quantize(layer, np.arange(3), 29)
    assert list(p.codes) == [0, (1 << 29) - 1, 523962004]
    _old_and_new_agree(layer, np.arange(3), 29)


def test_quantize_matches_snap_loop_on_cauchy_tails():
    rng = np.random.default_rng(901)
    for dtype in (np.float32, np.float64):
        layer = rng.standard_cauchy(20000).astype(dtype)
        for bits in (1, 8, 16, 24, 32):
            _old_and_new_agree(layer, codec.sparsify(layer, 10), bits)


def test_dequantize_exact_on_grid_values():
    p = codec.quantize(np.array([0.0, 1.0, 2.0, 3.0]), np.arange(4), 2)
    assert np.array_equal(codec.dequantize(p, 4), [0.0, 1.0, 2.0, 3.0])


def test_dequantize_fill_scalar_and_array():
    layer = np.array([10.0, -20.0, 0.5, 0.25], np.float32)
    kept = codec.sparsify(layer, 50)
    p = codec.quantize(layer, kept, 8)
    scalar = codec.dequantize(p, 4, fill=-1.0)
    assert scalar[2] == -1.0 and scalar[3] == -1.0
    stash = np.array([7.0, 7.0, 7.0, 7.0])
    filled = codec.dequantize(p, 4, fill=stash)
    assert filled[2] == 7.0 and filled[3] == 7.0
    assert (stash == 7.0).all()


def test_dequantize_scatters_unless_every_position_is_covered():
    # a payload built in memory may repeat an index: the last write wins
    # and the uncovered position keeps the fill
    p = codec.LayerPayload(np.array([0, 0, 2]), np.array([1, 2, 3], np.uint32), 0.0, 3.0, 2)
    assert list(codec.dequantize(p, 3, fill=-1.0)) == [2.0, -1.0, 3.0]
    shuffled = codec.LayerPayload(np.array([2, 0, 1]), np.array([1, 2, 3], np.uint32), 0.0, 3.0, 2)
    assert list(codec.dequantize(shuffled, 3, dtype=np.float32)) == [2.0, 3.0, 1.0]
    with pytest.raises(ValueError):
        codec.dequantize(shuffled, 3, fill=np.zeros(4))


def test_dequantize_rejects_out_of_range_index():
    p = codec.LayerPayload(np.array([5]), np.array([0], np.uint32), 0.0, 1.0, 1)
    with pytest.raises(codec.PayloadCorruptionError):
        codec.dequantize(p, 4)


def test_dequantize_rejects_negative_index():
    # numpy would wrap -1 to the last position
    p = codec.LayerPayload(np.array([-1]), np.array([1], np.uint32), 0.0, 1.0, 1)
    with pytest.raises(codec.PayloadCorruptionError):
        codec.dequantize(p, 4)


def test_round_trip_error_bound_random_layers():
    rng = np.random.default_rng(1)
    for _ in range(400):
        n = int(rng.integers(1, 512))
        mu = int(rng.integers(0, 51))
        bits = int(rng.integers(1, 33))
        layer = (rng.standard_normal(n) * rng.uniform(0.01, 100)).astype(np.float32)
        kept = codec.sparsify(layer, mu)
        assert kept.size == codec.kept_count(n, mu)
        p = codec.quantize(layer, kept, bits)
        assert int(p.codes.max(initial=0)) < (1 << bits)
        rec = codec.dequantize(p, n)
        bound = (p.w_max - p.w_min) / (2 * ((1 << bits) - 1))
        err = np.abs(rec[kept] - layer[kept].astype(np.float64)).max()
        assert err <= bound


_FLOAT32_LAYERS = hnp.arrays(np.float32, st.integers(1, 2000), elements=st.one_of(_FINITE_TIES, _FINITE32))


@settings(max_examples=200, deadline=None)
@given(layer=_FLOAT32_LAYERS, mu=st.integers(0, 50), bits=st.integers(1, 32))
def test_round_trip_error_bound_property(layer, mu, bits):
    kept = codec.sparsify(layer, mu)
    assert kept.size == codec.kept_count(layer.size, mu)
    p = codec.quantize(layer, kept, bits)
    assert int(p.codes.max(initial=0)) < (1 << bits)
    rec = codec.dequantize(p, layer.size)
    bound = (p.w_max - p.w_min) / (2 * ((1 << bits) - 1))
    err = np.abs(rec[kept] - layer[kept].astype(np.float64)).max()
    # lo + c * step is itself rounded in float64: on 29 consecutive float32
    # values from -1.2771597 at 31 bits the error passes half a step by 1.1e-16
    slack = 4 * np.finfo(np.float64).eps * max(abs(p.w_min), abs(p.w_max), bound)
    assert err <= bound + slack


def test_fidelity_monotone_in_bits():
    rng = np.random.default_rng(2)
    layer = (rng.standard_normal(300) * 4).astype(np.float32)
    kept = codec.sparsify(layer, 25)
    last = np.inf
    for bits in range(1, 33):
        p = codec.quantize(layer, kept, bits)
        rec = codec.dequantize(p, layer.size)
        err = np.abs(rec[kept] - layer[kept].astype(np.float64)).max()
        assert err <= last + 1e-15
        last = err


def test_codes_are_permutation_equivariant():
    rng = np.random.default_rng(3)
    layer = rng.standard_normal(200).astype(np.float32)
    perm = rng.permutation(layer.size)
    shuffled = np.empty_like(layer)
    shuffled[perm] = layer
    for mu, bits in ((0, 6), (30, 12), (50, 1)):
        kept = codec.sparsify(layer, mu)
        kept_s = codec.sparsify(shuffled, mu)
        assert np.array_equal(np.sort(perm[kept]), kept_s)
        p = codec.quantize(layer, kept, bits)
        p_s = codec.quantize(shuffled, kept_s, bits)
        by_position = dict(zip(perm[kept], p.codes))
        assert all(by_position[i] == c for i, c in zip(p_s.kept_indices, p_s.codes))


def test_payload_bits_examples():
    spec = codec.LayerCompressionSpec
    assert codec.payload_bits([spec(8, 0)], [100]) == 864
    assert codec.payload_bits([spec(32, 0)], [100]) == 100 * 32 + 64
    assert codec.payload_bits([spec(1, 50), spec(1, 50)], [10, 10]) == 138
    with pytest.raises(ValueError):
        codec.payload_bits([spec(8, 0)], [100, 200])


def test_compression_spec_bounds():
    with pytest.raises(ValueError):
        codec.LayerCompressionSpec(0, 10)
    with pytest.raises(ValueError):
        codec.LayerCompressionSpec(33, 10)
    with pytest.raises(ValueError):
        codec.LayerCompressionSpec(8, 51)


def test_wire_golden_bytes():
    payload = codec.LayerPayload(
        kept_indices=np.array([1, 4, 6]),
        codes=np.array([5, 2, 7], np.uint32),
        w_min=0.0,
        w_max=7.0,
        bits=3,
    )
    buf = codec.encode_payload(payload)
    # header: u8 bits, u32 count, two f32 extrema
    assert buf[:13] == struct.pack("<BIff", 3, 3, 0.0, 7.0)
    # bit stream (LSB first): 101 010 111 -> bytes 0b11010101, 0b00000001
    assert buf[13:15] == bytes([0b11010101, 0b00000001])
    # u32 little-endian deltas of the index list: 1, 3, 2
    assert buf[15:] == struct.pack("<3I", 1, 3, 2)
    assert len(buf) * 8 == 8 * (13 + (3 * 3 + 7) // 8 + 4 * 3)


def test_wire_round_trip_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 800))
        mu = int(rng.integers(0, 51))
        bits = int(rng.integers(1, 33))
        layer = rng.standard_normal(n).astype(np.float32)
        p = codec.quantize(layer, codec.sparsify(layer, mu), bits)
        q = codec.decode_payload(codec.encode_payload(p))
        assert q.bits == p.bits
        assert q.w_min == p.w_min and q.w_max == p.w_max
        assert np.array_equal(q.kept_indices, p.kept_indices)
        assert np.array_equal(q.codes, p.codes)


@settings(max_examples=200, deadline=None)
@given(layer=_FLOAT32_LAYERS, mu=st.integers(0, 50), bits=st.integers(1, 32))
def test_wire_round_trip_property(layer, mu, bits):
    p = codec.quantize(layer, codec.sparsify(layer, mu), bits)
    q = codec.decode_payload(codec.encode_payload(p))
    assert q.bits == p.bits
    assert q.w_min == p.w_min and q.w_max == p.w_max
    assert np.array_equal(q.kept_indices, p.kept_indices)
    assert np.array_equal(q.codes, p.codes)


def test_wire_rejects_corrupt_buffers():
    layer = np.arange(16, dtype=np.float32)
    p = codec.quantize(layer, codec.sparsify(layer, 0), 5)
    buf = codec.encode_payload(p)
    with pytest.raises(codec.PayloadCorruptionError):
        codec.decode_payload(buf[:10])
    with pytest.raises(codec.PayloadCorruptionError):
        codec.decode_payload(buf + b"\x00")


@pytest.mark.parametrize("bits", [0, 33, 200, 255])
def test_wire_rejects_bits_outside_range(bits):
    # a buffer whose length matches its header, so only the bits byte is wrong
    k = 3
    buf = struct.pack("<BIff", bits, k, 0.0, 1.0) + bytes((k * bits + 7) // 8) + struct.pack("<3I", 0, 1, 1)
    with pytest.raises(codec.PayloadCorruptionError, match="bits"):
        codec.decode_payload(buf)


def test_wire_rejects_repeated_indices():
    # indices [0, 0, 2] travel as deltas [0, 0, 2]; decoding them would
    # overwrite code 1 and leave position 1 at the fill
    repeated = codec.LayerPayload(np.array([0, 0, 2]), np.array([1, 2, 3], np.uint32), 0.0, 3.0, 2)
    with pytest.raises(codec.PayloadCorruptionError):
        codec.decode_payload(codec.encode_payload(repeated))
    # a zero first delta is index 0, not a repeat
    first = codec.LayerPayload(np.array([0, 1, 2]), np.array([1, 2, 3], np.uint32), 0.0, 3.0, 2)
    assert list(codec.decode_payload(codec.encode_payload(first)).kept_indices) == [0, 1, 2]
