"""Low-rank adapter pairs, layer classification, and the adapter wire format.

An adapted layer carries two trainable factors: B (d x r) and A (r x k) whose
product B@A is the layer's delta weight. Adapter sets are the only state that
ever leaves a client, so this module also owns the wire format every
simulated transmission uses: the round loop sends ``serialize`` output,
works on what ``deserialize`` gives back, and counts bytes as the lengths of
those payloads.

Wire format v1 (little-endian throughout):

    magic  b"FMAD"
    u32    version          (=1)
    u32    layer_count
    layer_count x (u32 layer_index, u32 r, u32 d, u32 k)   -- all headers
    layer_count x (d*r float64 for B, then r*k float64 for A), row-major

Headers precede all bulk data so a reader can validate every shape before
touching the scalar payload. Round-trips are bit-exact.
"""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix

__all__ = [
    "AdapterKind",
    "LayerPosition",
    "LoraPair",
    "AdapterSet",
    "WireFormatError",
    "classify_layer",
    "serialize",
    "deserialize",
    "MAGIC",
    "WIRE_VERSION",
    "FIXED_HEADER_BYTES",
    "LAYER_HEADER_BYTES",
]

MAGIC = b"FMAD"
WIRE_VERSION = 1
FIXED_HEADER_BYTES = 12  # magic(4) + version(4) + layer_count(4)
LAYER_HEADER_BYTES = 16  # layer_index, r, d, k as u32


class AdapterKind(enum.Enum):
    """Which factor of the low-rank pair a matrix is."""

    A = "A"
    B = "B"

    @property
    def noise_multiplier(self) -> float:
        """Perturbation-sensitivity multiplier: A factors 1.2, B factors 0.8."""
        return 1.2 if self is AdapterKind.A else 0.8


class LayerPosition(enum.Enum):
    """Depth class of an adapted layer within the network."""

    EARLY = "early"
    MIDDLE = "middle"
    LATE = "late"

    @property
    def default_base_scale(self) -> float:
        """Default noise base scale: early 0.01, middle 0.008, late 0.005."""
        return _DEFAULT_BASE_SCALE[self]


_DEFAULT_BASE_SCALE = {
    LayerPosition.EARLY: 0.01,
    LayerPosition.MIDDLE: 0.008,
    LayerPosition.LATE: 0.005,
}


def classify_layer(layer_index: int, total_layers: int) -> LayerPosition:
    """Partition layer indices into equal thirds: early, middle, late.

    Indices in [0, ceil(L/3)) are early, [ceil(L/3), ceil(2L/3)) middle, and
    the rest late. The partition is exact: every index maps to exactly one
    position and the three bands are contiguous and ordered.
    """
    if total_layers < 1:
        raise ValueError(f"total_layers must be >= 1, got {total_layers}")
    if not 0 <= layer_index < total_layers:
        raise ValueError(
            f"layer_index {layer_index} out of range for {total_layers} layers"
        )
    early_end = -(-total_layers // 3)  # ceil(L/3)
    middle_end = -(-2 * total_layers // 3)  # ceil(2L/3)
    if layer_index < early_end:
        return LayerPosition.EARLY
    if layer_index < middle_end:
        return LayerPosition.MIDDLE
    return LayerPosition.LATE


@dataclass(frozen=True)
class LoraPair:
    """Adapter factors for one layer: b is d x r, a is r x k, delta = b@a."""

    layer_index: int
    a: Matrix
    b: Matrix

    def __post_init__(self):
        if self.layer_index < 0:
            raise ValueError(f"layer_index must be >= 0, got {self.layer_index}")
        if self.a.rows != self.b.cols:
            raise ValueError(
                f"rank mismatch at layer {self.layer_index}: "
                f"a is {self.a.rows}x{self.a.cols}, b is {self.b.rows}x{self.b.cols}"
            )
        r = self.a.rows
        if r > min(self.d, self.k):
            raise ValueError(
                f"rank {r} exceeds min(d={self.d}, k={self.k}) at layer {self.layer_index}"
            )

    @property
    def rank(self) -> int:
        return self.a.rows

    @property
    def d(self) -> int:
        """Output dimension of the adapted weight."""
        return self.b.rows

    @property
    def k(self) -> int:
        """Input dimension of the adapted weight."""
        return self.a.cols


@dataclass(frozen=True)
class AdapterSet:
    """Ordered per-layer adapter pairs; the only trainable/transmitted state."""

    pairs: tuple[LoraPair, ...]
    total_layers: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.total_layers < 0:
            raise ValueError(f"total_layers must be >= 0, got {self.total_layers}")
        seen = set()
        for pair in self.pairs:
            if pair.layer_index >= self.total_layers:
                raise ValueError(
                    f"layer_index {pair.layer_index} out of range for "
                    f"total_layers={self.total_layers}"
                )
            if pair.layer_index in seen:
                raise ValueError(f"duplicate layer_index {pair.layer_index}")
            seen.add(pair.layer_index)

    def conformable_with(self, other: "AdapterSet") -> bool:
        """True when per-layer shapes match pairwise."""
        if self.total_layers != other.total_layers or len(self.pairs) != len(other.pairs):
            return False
        return all(
            p.layer_index == q.layer_index and p.a.shape == q.a.shape and p.b.shape == q.b.shape
            for p, q in zip(self.pairs, other.pairs)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdapterSet):
            return NotImplemented
        return (
            self.total_layers == other.total_layers
            and len(self.pairs) == len(other.pairs)
            and all(
                p.layer_index == q.layer_index and p.a == q.a and p.b == q.b
                for p, q in zip(self.pairs, other.pairs)
            )
        )


class WireFormatError(ValueError):
    """Malformed adapter payload; carries the byte offset of the defect."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset


def serialize(adapters: AdapterSet) -> bytes:
    """Encode an adapter set in wire format v1 (bit-exact round-trip)."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", WIRE_VERSION, len(adapters.pairs))
    for p in adapters.pairs:
        out += struct.pack("<IIII", p.layer_index, p.rank, p.d, p.k)
    for p in adapters.pairs:
        out += p.b.array.astype("<f8", copy=False).tobytes(order="C")
        out += p.a.array.astype("<f8", copy=False).tobytes(order="C")
    return bytes(out)


def deserialize(blob: bytes) -> AdapterSet:
    """Decode wire format v1, validating shapes before reading bulk data.

    ``total_layers`` is reconstructed as max(layer_index)+1, which is exact
    for the complete adapter sets the protocol transmits (one pair per layer).
    """
    if len(blob) < FIXED_HEADER_BYTES:
        raise WireFormatError(len(blob), "truncated fixed header")
    if blob[:4] != MAGIC:
        raise WireFormatError(0, f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, layer_count = struct.unpack_from("<II", blob, 4)
    if version != WIRE_VERSION:
        raise WireFormatError(4, f"unsupported version {version}, expected {WIRE_VERSION}")

    offset = FIXED_HEADER_BYTES
    headers: list[tuple[int, int, int, int]] = []
    for _ in range(layer_count):
        if offset + LAYER_HEADER_BYTES > len(blob):
            raise WireFormatError(offset, "truncated layer header")
        headers.append(struct.unpack_from("<IIII", blob, offset))
        offset += LAYER_HEADER_BYTES

    expected = offset + sum((d * r + r * k) * 8 for _, r, d, k in headers)
    if len(blob) < expected:
        raise WireFormatError(len(blob), f"truncated payload, expected {expected} bytes")
    if len(blob) > expected:
        raise WireFormatError(expected, f"{len(blob) - expected} trailing bytes")

    pairs = []
    for layer_index, r, d, k in headers:
        b_arr = np.frombuffer(blob, dtype="<f8", count=d * r, offset=offset).reshape(d, r)
        offset += d * r * 8
        a_arr = np.frombuffer(blob, dtype="<f8", count=r * k, offset=offset).reshape(r, k)
        offset += r * k * 8
        try:
            pairs.append(LoraPair(layer_index, Matrix(a_arr), Matrix(b_arr)))
        except ValueError as exc:
            raise WireFormatError(offset, f"invalid layer payload: {exc}") from exc

    total_layers = max((p.layer_index for p in pairs), default=-1) + 1
    return AdapterSet(tuple(pairs), total_layers)


def map_pairs(adapters: AdapterSet, fn) -> AdapterSet:
    """Adapter set with fn(pair) -> (a, b) applied per layer, shapes preserved."""
    new_pairs = []
    for p in adapters.pairs:
        a, b = fn(p)
        new_pairs.append(LoraPair(p.layer_index, a, b))
    return AdapterSet(tuple(new_pairs), adapters.total_layers)
