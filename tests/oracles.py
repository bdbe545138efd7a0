"""Independent reference implementations shared by the test modules.

These deliberately avoid the library's own code paths: the weighted mean is
an elementwise pure-Python sum, the forward pass materializes merged weights
first, each a fresh ``W + B @ A`` with W on the left, and runs all rows in
one unblocked pass, gradients are checked by central finite differences and
bit for bit against a per-layer pairwise kernel with a masked sigmoid,
privatization clips and noises one matrix at a time with one draw per
matrix, a matrix's noise std comes from the calibration fields through a
depth-band rule of its own (integer thirds, not ceilings), the wire length
of an adapter set is computed from its shapes rather than by encoding it,
the OpenBLAS thread count is read through a ctypes lookup of its own, and a
random stream is keyed by handing numpy's ``SeedSequence`` the plain list of
ints rather than 32-bit words.
"""
from __future__ import annotations

import ctypes
import hashlib
from pathlib import Path

import numpy as np

from fedmentor.linalg import Rng
from fedmentor.lora import AdapterSet
from fedmentor.trainer import BackboneModel, cross_entropy, grad_adapters, model_view, workspace


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function by boolean-mask scatter.

    1/(1+e^-z) where z >= 0, e^z/(1+e^z) elsewhere.
    """
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def pairwise_grad_adapters(model: BackboneModel, params, xs, ys) -> list:
    """Mean batch gradient as one ``(dL/dA, dL/dB)`` pair per layer.

    The per-layer formulation the flat kernel must match bit for bit: each
    layer's effective weight is W + B@A, the head gradient is an
    ``np.outer``, and the gradients are kept as separate matrices.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    eff = merged_weights(model, params)
    last = model.n_layers - 1
    acts = [xs]
    for l, e in enumerate(eff):
        pre = acts[-1] @ e.T
        acts.append(np.tanh(pre) if l < last else pre)
    logits = acts[-1] @ model.head.array[0]

    dlogit = (masked_sigmoid(logits) - ys) / xs.shape[0]
    g_act = np.outer(dlogit, model.head.array[0])

    grads = [None] * model.n_layers
    for l in range(last, -1, -1):
        g_z = g_act if l == last else g_act * (1.0 - acts[l + 1] ** 2)
        g_eff = g_z.T @ acts[l]
        a, b = params[l]
        grads[l] = (b.T @ g_eff, g_eff @ a.T)
        if l > 0:
            g_act = g_z @ eff[l]
    return grads


def unflatten_gradient(adapters: AdapterSet, grad: np.ndarray) -> list:
    """A flat gradient in ``AdapterSet.vec`` order as one ``(dL/dA, dL/dB)`` pair per layer."""
    return AdapterSet(adapters.shapes, grad).factors()


def zero_adapters(shapes) -> AdapterSet:
    """Adapters with every entry zero, one ``(r, d, k)`` per layer."""
    shapes = tuple(shapes)
    return AdapterSet(shapes, np.zeros(sum(r * (d + k) for r, d, k in shapes)))


def trainable_param_count(adapters: AdapterSet) -> int:
    """Total trainable scalars: sum over layers of r*(d+k)."""
    return sum(r * (d + k) for r, d, k in adapters.shapes)


def wire_length(adapters: AdapterSet) -> int:
    """Bytes in the v1 encoding: 12-byte fixed header, 16 per layer header, 8 per scalar."""
    return 12 + 16 * len(adapters.shapes) + 8 * trainable_param_count(adapters)


def mean_loss(model: BackboneModel, adapters: AdapterSet, xs, ys) -> float:
    """Mean cross-entropy of the adapted model over one batch."""
    return float(np.mean(cross_entropy(model_view(model, adapters)(xs), ys)))


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


def stream_oracle(seed: int, *tags: int | str) -> np.random.Generator:
    """The generator of the stream (seed, *tags), keyed from a list of Python ints.

    ``Generator(PCG64(SeedSequence([seed, *ints])))``, where an int tag is
    taken modulo 2**64 and a string tag is its 8-byte BLAKE2b digest read
    little-endian.
    """
    ints = [seed]
    for tag in tags:
        if isinstance(tag, str):
            digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
            ints.append(int.from_bytes(digest, "little"))
        else:
            ints.append(tag & (2**64 - 1))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(ints)))


def randomized_adapters(model: BackboneModel, rank: int, rng: Rng, scale: float = 0.3) -> AdapterSet:
    """Adapters with both factors random (B nonzero, unlike init)."""
    return AdapterSet.from_factors(
        (
            rng.derive("a", i).standard_normal(rank, w.cols) * scale,
            rng.derive("b", i).standard_normal(w.rows, rank) * scale,
        )
        for i, w in enumerate(model.layers)
    )


def merged_weights(model: BackboneModel, params) -> list[np.ndarray]:
    """Each layer's W + B@A as a fresh array, one ``(a, b)`` pair per layer, W on the left."""
    return [w.array + b @ a for w, (a, b) in zip(model.layers, params)]


def merged_forward(model: BackboneModel, adapters: AdapterSet, xs: np.ndarray) -> np.ndarray:
    """Reference forward that first materializes every merged weight, then runs every row at once.

    Unblocked and ``@``-based, so ``model_view``'s row blocks are checked
    against a pass that has none.
    """
    merged = merged_weights(model, adapters.factors())
    act = np.asarray(xs, dtype=np.float64)
    for e in merged[:-1]:
        act = np.tanh(act @ e.T)
    act = act @ merged[-1].T
    return act @ model.head.array[0]


def brute_force_weighted_mean(sets, sizes):
    """Pure-Python elementwise oracle for dataset-weighted averaging."""
    total = sum(sizes)
    factors = [s.factors() for s in sets]
    out = []
    for li, (a0, b0) in enumerate(factors[0]):
        a = np.zeros(a0.shape)
        b = np.zeros(b0.shape)
        for idx in np.ndindex(a.shape):
            a[idx] = sum((n / total) * f[li][0][idx] for f, n in zip(factors, sizes))
        for idx in np.ndindex(b.shape):
            b[idx] = sum((n / total) * f[li][1][idx] for f, n in zip(factors, sizes))
        out.append((a, b))
    return out


def reference_band(layer_index: int, n_layers: int) -> str:
    """The depth band of a layer: "early" in the first third, "middle" in the second.

    For integers, i < ceil(L/3) exactly when 3i < L, so the bands need no
    ceiling: early when 3i < L, middle when 3i < 2L, late otherwise.
    """
    if 3 * layer_index < n_layers:
        return "early"
    return "middle" if 3 * layer_index < 2 * n_layers else "late"


def reference_std(cal, band: str, kind: str, eps: float, scale_multiplier: float) -> float:
    """One matrix's noise std, read off the calibration fields by band and kind ("A"/"B").

    The product runs in the documented order: base * kind multiplier *
    scale_multiplier / eps.
    """
    mult = cal.multiplier_a if kind == "A" else cal.multiplier_b
    return getattr(cal, band) * mult * scale_multiplier / eps


def reference_privatize(adapters: AdapterSet, std_of, clip_norm, rng: Rng) -> AdapterSet:
    """Privatization one matrix at a time: per layer B, then A.

    Each matrix is scaled down to Frobenius norm ``clip_norm`` when that is
    set and exceeded, then gets ``std_of(layer_index, kind)`` times its own
    rows x cols Gaussian draw, ``kind`` being "B" or "A"; a std of 0 draws
    nothing and leaves the matrix as it is.
    """
    out = []
    for li, (a, b) in enumerate(adapters.factors()):
        noised = {}
        for kind, m in (("B", b), ("A", a)):
            if clip_norm is not None:
                norm = float(np.sqrt(np.sum(m * m)))
                if norm > clip_norm:
                    m = m * (clip_norm / norm)
            std = std_of(li, kind)
            if std != 0.0:
                m = m + std * rng.standard_normal(*m.shape)
            noised[kind] = m
        out.append((noised["A"], noised["B"]))
    return AdapterSet.from_factors(out)


def fd_gradient_check(model, adapters, xs, ys, h=1e-5, rel_tol=1e-5, abs_floor=1e-8):
    """Compare every adapter-gradient entry against central finite differences.

    Entries whose absolute disagreement stays below ``abs_floor`` are exempt
    from the relative test (both sides are numerically zero). Returns the
    worst relative error seen.
    """
    factors = adapters.factors()
    work = workspace(model, adapters.shapes, len(xs))
    analytic = unflatten_gradient(adapters, grad_adapters(model, factors, xs, ys, work))
    worst = 0.0
    for li, pair in enumerate(factors):
        for slot, field in enumerate(("a", "b")):
            base = pair[slot]
            grad = analytic[li][slot]
            for idx in np.ndindex(base.shape):
                def perturbed(delta):
                    arr = base.copy()
                    arr[idx] += delta
                    changed = list(factors)
                    changed[li] = (arr, pair[1]) if field == "a" else (pair[0], arr)
                    return AdapterSet.from_factors(changed)

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
