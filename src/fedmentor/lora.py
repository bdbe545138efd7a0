"""Adapter sets and the adapter wire format.

An adapted layer carries two trainable factors: B (d x r) and A (r x k) whose
product B@A is the layer's delta weight. An ``AdapterSet`` holds every
layer's factors as one flat float64 vector in wire order, so serializing,
decoding, privatizing and averaging a client's update are each one step over
one vector; ``factors()``, or ``factor_views`` on any vector of that layout,
gives the per-layer matrices as views where local training and evaluation
need them. Adapter sets are the only state that ever leaves a client, so
this module also owns the wire format every simulated transmission uses: the
round loop sends ``serialize`` output, works on what ``deserialize`` gives
back, and counts bytes as the lengths of those payloads. The noise scale of
each matrix, by depth band and factor, is ``dp.noise_scales``.

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

import struct
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError

__all__ = [
    "AdapterSet",
    "WireFormatError",
    "factor_views",
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


def _check_shape(layer: int, r: int, d: int, k: int) -> None:
    if min(r, d, k) < 1:
        raise ShapeError(f"layer {layer}: dimensions must be >= 1, got r={r}, d={d}, k={k}")
    if r > min(d, k):
        raise ShapeError(f"layer {layer}: rank {r} exceeds min(d={d}, k={k})")


@dataclass(frozen=True, eq=False)
class AdapterSet:
    """Every layer's adapter factors as one flat vector; the only transmitted state.

    ``shapes`` holds one ``(r, d, k)`` per layer, the layer index being the
    position. ``vec`` holds, per layer, B (d x r) then A (r x k), row-major:
    the order of the wire payload. Construction copies ``vec``, checks it
    against ``shapes`` and for finiteness once, and marks the copy read-only.
    """

    shapes: tuple[tuple[int, int, int], ...]
    vec: np.ndarray

    def __post_init__(self):
        shapes = tuple((int(r), int(d), int(k)) for r, d, k in self.shapes)
        for i, shape in enumerate(shapes):
            _check_shape(i, *shape)
        object.__setattr__(self, "shapes", shapes)
        vec = np.array(self.vec, dtype=np.float64, copy=True)
        expected = sum(self.segment_sizes)
        if vec.shape != (expected,):
            raise ShapeError(f"vector of shape {vec.shape} does not hold {expected} entries")
        finite = np.isfinite(vec)
        if not finite.all():
            raise ValueError(f"entry {int(np.argmin(finite))} is not finite (NaN/Inf)")
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)

    @classmethod
    def from_factors(cls, factors) -> "AdapterSet":
        """Pack one ``(a, b)`` array pair per layer, a r x k and b d x r."""
        shapes, parts = [], []
        for i, (a, b) in enumerate(factors):
            a, b = np.asarray(a), np.asarray(b)
            if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[1]:
                raise ShapeError(f"layer {i}: a is {a.shape}, b is {b.shape}")
            shapes.append((a.shape[0], b.shape[0], a.shape[1]))
            parts += [b.ravel(), a.ravel()]
        return cls(tuple(shapes), np.concatenate(parts) if parts else np.empty(0))

    @property
    def segment_sizes(self) -> tuple[int, ...]:
        """Entry counts of the vector's matrices in order: B then A per layer."""
        return tuple(n for r, d, k in self.shapes for n in (d * r, r * k))

    def factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Read-only ``(a, b)`` views into the vector, one pair per layer."""
        return factor_views(self.vec, self.shapes)

    def conformable_with(self, other: "AdapterSet") -> bool:
        """True when per-layer shapes match pairwise."""
        return self.shapes == other.shapes

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdapterSet):
            return NotImplemented
        return self.shapes == other.shapes and np.array_equal(self.vec, other.vec)


def factor_views(vec: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(a, b)`` views into a flat vector laid out like ``AdapterSet.vec``, one pair per layer.

    The views share ``vec``'s memory and writability: writing through them, or
    updating ``vec`` in place, changes both.
    """
    out = []
    start = 0
    for r, d, k in shapes:
        b = vec[start : start + d * r].reshape(d, r)
        start += d * r
        a = vec[start : start + r * k].reshape(r, k)
        start += r * k
        out.append((a, b))
    return out


class WireFormatError(ValueError):
    """Malformed adapter payload; carries the byte offset of the defect."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset


def serialize(adapters: AdapterSet) -> bytes:
    """Encode an adapter set in wire format v1 (bit-exact round-trip)."""
    header = struct.pack("<4sII", MAGIC, WIRE_VERSION, len(adapters.shapes))
    header += b"".join(
        struct.pack("<IIII", i, r, d, k) for i, (r, d, k) in enumerate(adapters.shapes)
    )
    return header + adapters.vec.astype("<f8", copy=False).tobytes()


def deserialize(blob: bytes) -> AdapterSet:
    """Decode wire format v1, validating every header before reading bulk data.

    Layer indices must run 0, 1, 2, ... in header order: the protocol only
    ever transmits complete adapter sets.
    """
    if len(blob) < FIXED_HEADER_BYTES:
        raise WireFormatError(len(blob), "truncated fixed header")
    if blob[:4] != MAGIC:
        raise WireFormatError(0, f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, layer_count = struct.unpack_from("<II", blob, 4)
    if version != WIRE_VERSION:
        raise WireFormatError(4, f"unsupported version {version}, expected {WIRE_VERSION}")

    offset = FIXED_HEADER_BYTES
    shapes: list[tuple[int, int, int]] = []
    for position in range(layer_count):
        if offset + LAYER_HEADER_BYTES > len(blob):
            raise WireFormatError(offset, "truncated layer header")
        layer_index, r, d, k = struct.unpack_from("<IIII", blob, offset)
        if layer_index != position:
            raise WireFormatError(offset, f"layer index {layer_index} in header {position}")
        try:
            _check_shape(position, r, d, k)
        except ShapeError as exc:
            raise WireFormatError(offset, str(exc)) from exc
        shapes.append((r, d, k))
        offset += LAYER_HEADER_BYTES

    expected = offset + sum((d * r + r * k) * 8 for r, d, k in shapes)
    if len(blob) < expected:
        raise WireFormatError(len(blob), f"truncated payload, expected {expected} bytes")
    if len(blob) > expected:
        raise WireFormatError(expected, f"{len(blob) - expected} trailing bytes")
    vec = np.frombuffer(blob, dtype="<f8", count=(expected - offset) // 8, offset=offset)
    try:
        return AdapterSet(tuple(shapes), vec)
    except ValueError as exc:
        raise WireFormatError(offset, f"invalid payload: {exc}") from exc
