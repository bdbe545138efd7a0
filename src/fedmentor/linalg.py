"""The validated weight matrix type, reproducible random streams, and BLAS threads.

``Matrix`` is a 2-D, finite, read-only float64 array: the type of the frozen
backbone's weights and head, which are checked once when a model is built.
Adapters do not use it; they travel as one flat vector (``lora.AdapterSet``),
and the SGD hot path works on plain numpy arrays.

``Rng`` is a seeded stream whose output depends only on the seed tuple it was
derived from, never on call order elsewhere in the program. The generator is
numpy's PCG64 keyed through ``SeedSequence``; Gaussian samples come from
numpy's ziggurat (``standard_normal``). Both are fixed by name here so that
streams are bit-reproducible across platforms and runs.

A stream's entropy is a tuple of 32-bit words: the seed's words, then each
tag's, in order. An int tag is taken modulo 2**64 and a string tag is the
little-endian int of its 8-byte BLAKE2b digest; each int is split into words
low word first, with 0 one word. That is how ``SeedSequence`` reads a list of
ints, so the words key the same generator as ``[seed, *tag ints]`` would, and
passing them as a uint32 array only skips numpy's per-int conversion. A
string's words are computed once per process; ``derive`` splits only its new
tags.

``single_blas_thread`` runs a block with numpy's bundled OpenBLAS on one
thread; set-up and the rounds both run inside it. Every matmul here has at
most a few hundred columns, too small to gain from a second thread, while an
idle OpenBLAS worker spin-waits after each threaded call and roughly doubles
the CPU time of a run. One thread also makes results independent of the
machine's core count.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["ShapeError", "Matrix", "Rng", "single_blas_thread"]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


def _as_matrix_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise ShapeError(f"matrix data must be 2-D, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable row-major dense matrix of float64 scalars.

    Construction copies its input (an array or nested lists), checks that it
    is 2-D, non-empty and finite, and marks the copy read-only.
    """

    array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "array", _as_matrix_array(self.array))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


_MASK64 = 0xFFFFFFFFFFFFFFFF

# Words of each string tag seen so far; the tags in use are a few fixed names
# and the domain names.
_STRING_TAG_WORDS: dict[str, tuple[int, ...]] = {}


def _words(n: int) -> tuple[int, ...]:
    """The 32-bit words of a non-negative int, low word first; 0 is one word."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return tuple(words)


def _tag_words(tags: tuple) -> tuple[int, ...]:
    """Entropy words of stream tags, in order.

    Strings go through BLAKE2b so the mapping never depends on Python's
    salted ``hash()``.
    """
    out: tuple[int, ...] = ()
    for tag in tags:
        if isinstance(tag, str):
            words = _STRING_TAG_WORDS.get(tag)
            if words is None:
                digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
                words = _STRING_TAG_WORDS[tag] = _words(int.from_bytes(digest, "little"))
        elif isinstance(tag, bool):
            raise TypeError("bool is not a valid stream tag")
        elif isinstance(tag, int):
            words = _words(tag & _MASK64)
        else:
            raise TypeError(f"stream tags must be int or str, got {type(tag).__name__}")
        out += words
    return out


class Rng:
    """Seeded random stream keyed by (seed, *stream tags).

    Identical (seed, tags) always yields an identical sample stream; distinct
    tag tuples yield statistically independent streams. An ``Rng`` is
    single-owner: it is consumed sequentially and must never be shared across
    workers. Use :meth:`derive` to mint a fresh stream for a sub-task (e.g.
    per client, per round, per purpose) — derivation does not advance this
    stream's state, so scheduling order cannot change results.

    The seed and tags are checked at construction, but the generator is built
    on the first draw: a stream used only to derive others never builds one.
    """

    def __init__(self, seed: int, *stream: int | str):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._seed = seed
        self._stream = stream
        self._entropy = _words(seed) + _tag_words(stream)
        self._gen: np.random.Generator | None = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(np.array(self._entropy, dtype=np.uint32))
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def derive(self, *tags: int | str) -> "Rng":
        """Fresh independent stream for (seed, *this stream's tags, *tags)."""
        child = Rng.__new__(Rng)
        child._seed = self._seed
        child._stream = self._stream + tags
        child._entropy = self._entropy + _tag_words(tags)
        child._gen = None
        return child

    def standard_normal(self, *shape: int) -> np.ndarray:
        return self._generator().standard_normal(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def uniform(self, size: int) -> np.ndarray:
        return self._generator().random(size)

    def __repr__(self) -> str:
        return f"Rng(seed={self._seed}, stream={self._stream!r})"


@functools.cache
def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up once per process: the glob and ``dlopen`` cost about 80 us, and
    ``single_blas_thread`` is entered once per set-up and once per training.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread.

    Both entry points of a run use it: ``config.build_experiment`` for
    set-up and ``federation.run_training`` for the rounds. On two threads,
    set-up's largest gemm (a train split's rotation on the ``wide_model``
    benchmark) took about 50x longer on a 2-vCPU host. The previous thread
    count is restored on exit, also when the block raises, so the two nest.
    Where numpy bundles no OpenBLAS (another BLAS, or a build linked against
    the system's), the block runs unchanged. The count is process-wide, so
    the block should not overlap BLAS work on other threads.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)
