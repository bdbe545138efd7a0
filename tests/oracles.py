"""Independent reference implementations shared by the test modules.

These deliberately avoid the library's own code paths: the matrix product is
a triple loop, the weighted mean is an elementwise pure-Python sum, the
forward pass materializes merged weights first, gradients are checked by
central finite differences, the wire length of an adapter set is
computed from its shapes rather than by encoding it, and the OpenBLAS thread
count is read through a ctypes lookup of its own.
"""
from __future__ import annotations

import ctypes
import hashlib
from pathlib import Path

import numpy as np

from fedmentor.linalg import Matrix, Rng
from fedmentor.lora import AdapterSet, LoraPair
from fedmentor.trainer import BackboneModel, grad_adapters, mean_loss


def zero_pair(layer_index: int, d: int, k: int, rank: int) -> LoraPair:
    """Adapter pair with both factors zero: b is d x rank, a is rank x k."""
    return LoraPair(layer_index, Matrix.zeros(rank, k), Matrix.zeros(d, rank))


def trainable_param_count(adapters: AdapterSet) -> int:
    """Total trainable scalars: sum over layers of r*(d+k)."""
    return sum(p.rank * (p.d + p.k) for p in adapters.pairs)


def wire_length(adapters: AdapterSet) -> int:
    """Bytes in the v1 encoding: 12-byte fixed header, 16 per layer header, 8 per scalar."""
    return 12 + 16 * len(adapters.pairs) + 8 * trainable_param_count(adapters)


def backbone_checksum(model: BackboneModel) -> str:
    """SHA-256 over all frozen weights and the head; constant across any training."""
    h = hashlib.sha256()
    for w in model.layers:
        h.update(w.array.tobytes())
    h.update(model.head.array.tobytes())
    return h.hexdigest()


def openblas_threads():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None without one."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
        ):
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def randomized_adapters(model: BackboneModel, rank: int, rng: Rng, scale: float = 0.3) -> AdapterSet:
    """Adapters with both factors random (B nonzero, unlike init)."""
    pairs = []
    for i, w in enumerate(model.layers):
        a = Matrix(rng.derive("a", i).standard_normal(rank, w.cols) * scale)
        b = Matrix(rng.derive("b", i).standard_normal(w.rows, rank) * scale)
        pairs.append(LoraPair(i, a, b))
    return AdapterSet(tuple(pairs), model.n_layers)


def array_pairs(adapters: AdapterSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(a, b)`` array pair per layer that ``grad_adapters`` takes."""
    return [(p.a.array, p.b.array) for p in adapters.pairs]


def merged_forward(model: BackboneModel, adapters: AdapterSet, xs: np.ndarray) -> np.ndarray:
    """Reference forward that first materializes every merged weight."""
    merged = [w.array + p.b.array @ p.a.array for w, p in zip(model.layers, adapters.pairs)]
    act = np.asarray(xs, dtype=np.float64)
    for e in merged[:-1]:
        act = np.tanh(act @ e.T)
    act = act @ merged[-1].T
    return act @ model.head.array[0]


def brute_force_weighted_mean(sets, sizes):
    """Pure-Python elementwise oracle for dataset-weighted averaging."""
    total = sum(sizes)
    out = []
    for li in range(len(sets[0].pairs)):
        a = np.zeros(sets[0].pairs[li].a.shape)
        b = np.zeros(sets[0].pairs[li].b.shape)
        for idx in np.ndindex(a.shape):
            a[idx] = sum((n / total) * s.pairs[li].a.array[idx] for s, n in zip(sets, sizes))
        for idx in np.ndindex(b.shape):
            b[idx] = sum((n / total) * s.pairs[li].b.array[idx] for s, n in zip(sets, sizes))
        out.append((a, b))
    return out


def fd_gradient_check(model, adapters, xs, ys, h=1e-5, rel_tol=1e-5, abs_floor=1e-8):
    """Compare every adapter-gradient entry against central finite differences.

    Entries whose absolute disagreement stays below ``abs_floor`` are exempt
    from the relative test (both sides are numerically zero). Returns the
    worst relative error seen.
    """
    analytic = grad_adapters(model, array_pairs(adapters), xs, ys)
    worst = 0.0
    for li, pair in enumerate(adapters.pairs):
        for slot, field in enumerate(("a", "b")):
            base = getattr(pair, field).array
            grad = analytic[li][slot]
            for idx in np.ndindex(base.shape):
                def perturbed(delta):
                    arr = base.copy()
                    arr[idx] += delta
                    pairs = list(adapters.pairs)
                    if field == "a":
                        pairs[li] = LoraPair(pair.layer_index, Matrix(arr), pair.b)
                    else:
                        pairs[li] = LoraPair(pair.layer_index, pair.a, Matrix(arr))
                    return AdapterSet(tuple(pairs), adapters.total_layers)

                fd = (
                    mean_loss(model, perturbed(h), xs, ys)
                    - mean_loss(model, perturbed(-h), xs, ys)
                ) / (2 * h)
                err = abs(grad[idx] - fd)
                rel = err / max(abs(grad[idx]), abs(fd), abs_floor)
                worst = max(worst, rel)
                if err > abs_floor:
                    assert rel < rel_tol, (
                        f"layer {li} {field}{idx}: analytic {grad[idx]:.3e} vs fd {fd:.3e}"
                    )
    return worst
