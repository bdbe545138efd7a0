"""Adapter structures, layer classification, accounting, wire format."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor.linalg import Matrix, Rng
from fedmentor.lora import (
    FIXED_HEADER_BYTES,
    LAYER_HEADER_BYTES,
    AdapterKind,
    AdapterSet,
    LayerPosition,
    LoraPair,
    WireFormatError,
    classify_layer,
    deserialize,
    serialize,
)
from oracles import trainable_param_count, wire_length, zero_pair


def random_pair(rng: Rng, layer_index: int, d: int, k: int, r: int) -> LoraPair:
    a = Matrix(rng.derive("a", layer_index).standard_normal(r, k))
    b = Matrix(rng.derive("b", layer_index).standard_normal(d, r))
    return LoraPair(layer_index, a, b)


def random_set(rng: Rng, n_layers: int, d: int = 6, k: int = 5, r: int = 2) -> AdapterSet:
    pairs = tuple(random_pair(rng, i, d, k, r) for i in range(n_layers))
    return AdapterSet(pairs, n_layers)


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def adapter_sets(draw) -> AdapterSet:
    """Complete adapter sets (one pair per layer) with per-layer shapes and ranks."""
    n_layers = draw(st.integers(0, 4))
    pairs = []
    for i in range(n_layers):
        d = draw(st.integers(1, 6))
        k = draw(st.integers(1, 6))
        r = draw(st.integers(1, min(d, k)))
        a = draw(st.lists(_finite, min_size=r * k, max_size=r * k))
        b = draw(st.lists(_finite, min_size=d * r, max_size=d * r))
        pairs.append(LoraPair(i, Matrix(np.reshape(a, (r, k))), Matrix(np.reshape(b, (d, r)))))
    return AdapterSet(tuple(pairs), n_layers)


class TestConstants:
    def test_kind_multipliers_exact(self):
        assert AdapterKind.A.noise_multiplier == 1.2
        assert AdapterKind.B.noise_multiplier == 0.8

    def test_position_base_scales_exact(self):
        assert LayerPosition.EARLY.default_base_scale == 0.01
        assert LayerPosition.MIDDLE.default_base_scale == 0.008
        assert LayerPosition.LATE.default_base_scale == 0.005


class TestClassifyLayer:
    def test_nine_layer_examples(self):
        assert classify_layer(0, 9) is LayerPosition.EARLY
        assert classify_layer(4, 9) is LayerPosition.MIDDLE
        assert classify_layer(8, 9) is LayerPosition.LATE

    def test_single_layer_is_early(self):
        assert classify_layer(0, 1) is LayerPosition.EARLY

    def test_three_layer_split(self):
        assert classify_layer(0, 3) is LayerPosition.EARLY
        assert classify_layer(1, 3) is LayerPosition.MIDDLE
        assert classify_layer(2, 3) is LayerPosition.LATE

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_layer(3, 3)
        with pytest.raises(ValueError):
            classify_layer(-1, 3)
        with pytest.raises(ValueError):
            classify_layer(0, 0)

    @pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6, 7, 9, 10, 17, 100])
    def test_partition_is_exact_and_ordered(self, total):
        order = [LayerPosition.EARLY, LayerPosition.MIDDLE, LayerPosition.LATE]
        labels = [classify_layer(i, total) for i in range(total)]
        # contiguous bands in early < middle < late order
        ranks = [order.index(lab) for lab in labels]
        assert ranks == sorted(ranks)
        assert labels[0] is LayerPosition.EARLY


class TestLoraPair:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            LoraPair(0, Matrix.zeros(2, 5), Matrix.zeros(6, 3))

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            LoraPair(0, Matrix.zeros(4, 3), Matrix.zeros(5, 4))

    def test_dims_exposed(self):
        p = LoraPair(1, Matrix.zeros(2, 5), Matrix.zeros(6, 2))
        assert (p.rank, p.d, p.k) == (2, 6, 5)


class TestAdapterSet:
    def test_duplicate_layer_index_rejected(self):
        p = zero_pair(0, 4, 4, 2)
        with pytest.raises(ValueError, match="duplicate"):
            AdapterSet((p, p), 2)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            AdapterSet((zero_pair(5, 4, 4, 2),), 3)

    def test_conformable(self):
        s1 = random_set(Rng(1), 3)
        s2 = random_set(Rng(2), 3)
        assert s1.conformable_with(s2)
        assert not s1.conformable_with(random_set(Rng(3), 2))
        assert not s1.conformable_with(random_set(Rng(3), 3, d=7))


class TestAccounting:
    def test_single_layer_count(self):
        s = AdapterSet((zero_pair(0, 4, 4, 2),), 1)
        assert trainable_param_count(s) == 16

    def test_empty_set(self):
        assert trainable_param_count(AdapterSet((), 0)) == 0

    def test_three_layer_formula(self):
        s = AdapterSet(tuple(zero_pair(i, 64, 64, 8) for i in range(3)), 3)
        assert trainable_param_count(s) == 3 * 8 * 128

    def test_payload_headerless_example(self):
        s = AdapterSet((zero_pair(0, 4, 4, 2),), 1)
        assert trainable_param_count(s) * 8 == 128

    def test_doubling_rank_doubles_payload(self):
        s1 = AdapterSet((zero_pair(0, 8, 8, 2),), 1)
        s2 = AdapterSet((zero_pair(0, 8, 8, 4),), 1)
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
        s = AdapterSet((), 0)
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
        with pytest.raises(WireFormatError, match="finite"):
            deserialize(bytes(blob))
