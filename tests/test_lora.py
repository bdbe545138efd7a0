"""Adapter structures, depth bands of the noise scales, accounting, wire format."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor.dp import NoiseCalibration, noise_scales
from fedmentor.linalg import Rng, ShapeError
from fedmentor.lora import (
    FIXED_HEADER_BYTES,
    LAYER_HEADER_BYTES,
    MAGIC,
    WIRE_VERSION,
    AdapterSet,
    WireFormatError,
    deserialize,
    serialize,
)
from oracles import reference_band, trainable_param_count, wire_length, zero_adapters


def random_set(rng: Rng, n_layers: int, d: int = 6, k: int = 5, r: int = 2) -> AdapterSet:
    return AdapterSet.from_factors(
        (rng.derive("a", i).standard_normal(r, k), rng.derive("b", i).standard_normal(d, r))
        for i in range(n_layers)
    )


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def adapter_sets(draw) -> AdapterSet:
    """Adapter sets of zero to four layers with per-layer shapes and ranks."""
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(1, 6))
        k = draw(st.integers(1, 6))
        r = draw(st.integers(1, min(d, k)))
        a = draw(st.lists(_finite, min_size=r * k, max_size=r * k))
        b = draw(st.lists(_finite, min_size=d * r, max_size=d * r))
        factors.append((np.reshape(a, (r, k)), np.reshape(b, (d, r))))
    return AdapterSet.from_factors(factors)


def wire_blob(headers, n_scalars: int) -> bytes:
    """A v1 payload with the given ``(layer_index, r, d, k)`` headers and zero scalars."""
    blob = struct.pack("<4sII", MAGIC, WIRE_VERSION, len(headers))
    blob += b"".join(struct.pack("<IIII", *h) for h in headers)
    return blob + bytes(8 * n_scalars)


class TestConstants:
    """The stock noise scales per kind and position, held by ``NoiseCalibration``."""

    def test_kind_multipliers_exact(self):
        cal = NoiseCalibration()
        assert (cal.multiplier_a, cal.multiplier_b) == (1.2, 0.8)

    def test_position_base_scales_exact(self):
        cal = NoiseCalibration()
        assert [cal.early, cal.middle, cal.late] == [0.01, 0.008, 0.005]


# Base scales that name their band, and kind multipliers of 1, so a scale reads as a band.
_BANDS = {3.0: "early", 2.0: "middle", 1.0: "late"}
_BAND_CAL = NoiseCalibration(early=3.0, middle=2.0, late=1.0, multiplier_a=1.0, multiplier_b=1.0)


def bands(n_layers: int) -> list[str]:
    """The depth band ``dp.noise_scales`` gives each layer, read off its B and A entries."""
    scales = noise_scales(_BAND_CAL, n_layers)
    assert scales.shape == (2 * n_layers,)
    assert scales[0::2].tolist() == scales[1::2].tolist()  # B and A share their layer's band
    return [_BANDS[x] for x in scales[0::2].tolist()]


class TestClassifyLayer:
    """Layer depth bands as ``dp.noise_scales`` assigns them: ceil-thirds of the depth."""

    def test_nine_layer_examples(self):
        labels = bands(9)
        assert (labels[0], labels[4], labels[8]) == ("early", "middle", "late")

    def test_single_layer_is_early(self):
        assert bands(1) == ["early"]

    def test_three_layer_split(self):
        assert bands(3) == ["early", "middle", "late"]

    def test_no_layers_no_scales(self):
        assert bands(0) == []

    @pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6, 7, 9, 10, 17, 100])
    def test_partition_is_exact_and_ordered(self, total):
        order = ["early", "middle", "late"]
        labels = bands(total)
        # contiguous bands in early < middle < late order
        ranks = [order.index(lab) for lab in labels]
        assert ranks == sorted(ranks)
        assert labels[0] == "early"
        assert labels == [reference_band(i, total) for i in range(total)]


class TestLoraPair:
    """The ``(a, b)`` factors of one layer, as ``AdapterSet.from_factors`` packs them."""

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="layer 0"):
            AdapterSet.from_factors([(np.zeros((2, 5)), np.zeros((6, 3)))])

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(ShapeError, match="exceeds"):
            AdapterSet.from_factors([(np.zeros((4, 3)), np.zeros((5, 4)))])

    def test_dims_exposed(self):
        s = AdapterSet.from_factors([(np.zeros((2, 5)), np.zeros((6, 2)))])
        assert s.shapes == ((2, 6, 5),)


class TestAdapterSet:
    def test_conformable(self):
        s1 = random_set(Rng(1), 3)
        s2 = random_set(Rng(2), 3)
        assert s1.conformable_with(s2)
        assert not s1.conformable_with(random_set(Rng(3), 2))
        assert not s1.conformable_with(random_set(Rng(3), 3, d=7))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4), (2, 4, 0), (5, 4, 6)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ShapeError, match="layer 0"):
            AdapterSet((shape,), np.zeros(20))

    def test_vector_length_must_match_shapes(self):
        with pytest.raises(ShapeError, match="16 entries"):
            AdapterSet(((2, 4, 4),), np.zeros(15))

    def test_non_finite_entry_named(self):
        vec = np.zeros(16)
        vec[9] = np.inf
        with pytest.raises(ValueError, match="entry 9 is not finite"):
            AdapterSet(((2, 4, 4),), vec)

    def test_construction_copies_and_freezes_the_vector(self):
        vec = np.arange(16.0)
        s = AdapterSet(((2, 4, 4),), vec)
        vec[0] = 99.0
        assert s.vec[0] == 0.0
        with pytest.raises(ValueError):
            s.vec[0] = 1.0

    def test_vector_is_b_then_a_per_layer_row_major(self):
        a0, b0 = np.arange(10.0).reshape(2, 5), np.arange(10.0, 22.0).reshape(6, 2)
        a1, b1 = np.arange(22.0, 25.0).reshape(1, 3), np.arange(25.0, 27.0).reshape(2, 1)
        s = AdapterSet.from_factors([(a0, b0), (a1, b1)])
        expected = np.concatenate([b0.ravel(), a0.ravel(), b1.ravel(), a1.ravel()])
        assert s.vec.tobytes() == expected.tobytes()
        assert s.segment_sizes == (12, 10, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(adapter_sets())
    def test_factors_round_trip_as_read_only_views_property(self, s):
        factors = s.factors()
        back = AdapterSet.from_factors(factors)
        assert back == s
        assert back.vec.tobytes() == s.vec.tobytes()  # -0.0 keeps its sign
        for a, b in factors:
            for m in (a, b):
                assert not m.flags.writeable
                assert np.shares_memory(m, s.vec)
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0


class TestAccounting:
    def test_single_layer_count(self):
        s = zero_adapters([(2, 4, 4)])
        assert trainable_param_count(s) == 16
        assert s.vec.size == 16

    def test_empty_set(self):
        assert trainable_param_count(zero_adapters([])) == 0

    def test_three_layer_formula(self):
        s = zero_adapters([(8, 64, 64)] * 3)
        assert trainable_param_count(s) == 3 * 8 * 128

    def test_payload_headerless_example(self):
        s = zero_adapters([(2, 4, 4)])
        assert trainable_param_count(s) * 8 == 128

    def test_doubling_rank_doubles_payload(self):
        s1 = zero_adapters([(2, 8, 8)])
        s2 = zero_adapters([(4, 8, 8)])
        assert trainable_param_count(s2) * 8 == 2 * trainable_param_count(s1) * 8

    def test_header_size_is_documented_constant(self):
        s = random_set(Rng(1), 4)
        with_header = len(serialize(s))
        without = trainable_param_count(s) * 8
        assert with_header - without == FIXED_HEADER_BYTES + 4 * LAYER_HEADER_BYTES


class TestWireFormat:
    def test_round_trip_identity(self):
        s = random_set(Rng(21), 3)
        assert deserialize(serialize(s)) == s

    def test_round_trip_is_bit_exact(self):
        s = random_set(Rng(22), 2)
        assert serialize(deserialize(serialize(s))) == serialize(s)

    def test_length_equals_payload_accounting(self):
        rng = Rng(23)
        for i in range(20):
            shape_rng = rng.derive("case", i)
            n_layers = 1 + i % 4
            d = 2 + (i * 3) % 7
            k = 2 + (i * 5) % 6
            r = 1 + i % min(d, k)
            s = random_set(shape_rng, n_layers, d=d, k=k, r=r)
            assert len(serialize(s)) == wire_length(s)

    def test_corrupt_magic_rejected(self):
        blob = bytearray(serialize(random_set(Rng(24), 1)))
        blob[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            deserialize(bytes(blob))

    def test_version_mismatch_rejected(self):
        blob = bytearray(serialize(random_set(Rng(25), 1)))
        blob[4] = 9
        with pytest.raises(WireFormatError, match="version") as info:
            deserialize(bytes(blob))
        assert info.value.offset == 4

    def test_truncation_reports_offset(self):
        blob = serialize(random_set(Rng(26), 2))
        with pytest.raises(WireFormatError, match="truncated") as info:
            deserialize(blob[:-8])
        assert info.value.offset == len(blob) - 8

    def test_trailing_bytes_rejected(self):
        blob = serialize(random_set(Rng(27), 1))
        with pytest.raises(WireFormatError, match="trailing"):
            deserialize(blob + b"\x00")

    def test_empty_set_round_trips(self):
        s = zero_adapters([])
        assert deserialize(serialize(s)) == s

    @settings(max_examples=60, deadline=None)
    @given(adapter_sets())
    def test_round_trip_property(self, s):
        blob = serialize(s)
        back = deserialize(blob)
        assert back == s
        assert serialize(back) == blob

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("scalar", [0, 11, 21])
    def test_non_finite_scalar_rejected(self, bad, scalar):
        # Two 6x5 rank-2 layers: scalars 0-11 are layer 0's B then 12-21 its A.
        blob = bytearray(serialize(random_set(Rng(28), 2)))
        offset = FIXED_HEADER_BYTES + 2 * LAYER_HEADER_BYTES + 8 * scalar
        struct.pack_into("<d", blob, offset, bad)
        with pytest.raises(WireFormatError, match="finite") as info:
            deserialize(bytes(blob))
        assert f"entry {scalar} " in str(info.value)
        assert info.value.offset == FIXED_HEADER_BYTES + 2 * LAYER_HEADER_BYTES

    @pytest.mark.parametrize(
        "headers, bad",
        [
            pytest.param([(0, 2, 4, 4), (0, 2, 4, 4)], 1, id="duplicate"),
            pytest.param([(0, 2, 4, 4), (5, 2, 4, 4)], 1, id="index_out_of_range"),
            pytest.param([(1, 2, 4, 4), (0, 2, 4, 4)], 0, id="out_of_order"),
            pytest.param([(0, 2, 4, 4), (1, 0, 4, 4)], 1, id="r0"),
            pytest.param([(0, 1, 0, 4)], 0, id="d0"),
            pytest.param([(0, 2, 4, 4), (1, 5, 4, 6)], 1, id="rank_exceeds_dims"),
        ],
    )
    def test_bad_layer_header_rejected(self, headers, bad):
        # The scalar count fits the headers, so the header itself is the only defect.
        blob = wire_blob(headers, sum(r * (d + k) for _, r, d, k in headers))
        with pytest.raises(WireFormatError) as info:
            deserialize(blob)
        assert info.value.offset == FIXED_HEADER_BYTES + bad * LAYER_HEADER_BYTES
