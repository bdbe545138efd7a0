"""Client-side model and the local SGD loop.

The model is a small dense network with a frozen backbone: per layer an
immutable weight matrix plus a low-rank adapter pair, tanh between layers,
and a frozen linear head producing one logit. Only adapter entries ever
receive gradient; the backbone and head never change.

``train_local`` knows no client: it trains one dataset on the backbone and
the local-SGD schedule that the server holds once per run. Local training
runs on one plain vector: ``train_local`` copies the global ``AdapterSet``'s
flat vector once, takes ``(a, b)`` views of the copy once, one pair per
layer, and updates it in place. ``grad_adapters`` reads those views and
writes one flat gradient in the same B-then-A-per-layer order, so each SGD
step is ``grad *= lr; vec -= grad``: elementwise the same arithmetic as
``a - lr * ga`` per matrix. Each epoch gathers its shuffled copy of the
training split once, and every minibatch is a slice of it. The trained
vector becomes one ``AdapterSet``, checked for finiteness, once per
client-round. Its validation-split loss then goes through ``model_view``,
the one forward pass; the server evaluates through it too.

No SGD step allocates an array of d x k or of batch x width entries, and a
pass holds two ``BLOCK_ROWS`` x width buffers besides its (n,) logits. No
rule below changes an arithmetic operation, so the bits are those of the
plain expressions:

- a ``workspace``, a single allocation, belongs to a worker for a round
  (a lone ``train_local`` call builds one); each epoch gathers its shuffled
  copy of the training split into its row prefix, each step writes every
  product into it with ``out=``, a partial batch into a row prefix, and the
  validation pass builds its E in the workspace's E buffers;
- an effective weight is built in its product's array (``e = B@A; e += W``),
  and a layer's gradient G is written over its E after E's last read;
- a model view builds E once and pushes its input through in blocks of
  ``BLOCK_ROWS`` rows, and never writes into its input. A block's row count
  picks OpenBLAS's kernel path, so another block size can move bits;
- every product is ``x.dot(y, out=...)`` on the ndarray: the C function
  and BLAS call behind ``np.dot`` and ``@``, without ``np.dot``'s
  Python-level dispatch, a large share of a call on the stock config's
  arrays of at most 32 x 16 entries;
- the head gradient ``dlogit[:, None] * head`` is the rank-1 product
  ``dlogit[:, None].dot(head)``: with an inner dimension of 1 each entry
  is one correctly rounded multiply, written into its buffer;
- a backbone layer's draw is scaled in place before ``Matrix`` copies it.

tanh is used between layers (rather than ReLU) so the analytic gradients can
be validated against central finite differences without subgradient
headaches. Gradients are derived by hand: with effective weight
E = W + B@A per layer, dL/dB = G @ A^T and dL/dA = B^T @ G where G is the
gradient with respect to E.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .linalg import Matrix, Rng, ShapeError
from .lora import AdapterSet, factor_views

__all__ = [
    "BackboneModel",
    "init_adapters",
    "model_view",
    "cross_entropy",
    "workspace",
    "grad_adapters",
    "train_local",
]


@dataclass(frozen=True)
class BackboneModel:
    """Frozen dense backbone: per-layer weights plus a linear readout head."""

    layers: tuple[Matrix, ...]
    head: Matrix  # 1 x d_last

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("backbone needs at least one layer")
        for i in range(1, len(self.layers)):
            if self.layers[i].cols != self.layers[i - 1].rows:
                raise ShapeError(
                    f"layer {i} expects input dim {self.layers[i].cols}, "
                    f"layer {i - 1} outputs {self.layers[i - 1].rows}"
                )
        if self.head.rows != 1 or self.head.cols != self.layers[-1].rows:
            raise ShapeError(
                f"head must be 1x{self.layers[-1].rows}, got {self.head.rows}x{self.head.cols}"
            )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].cols

    @classmethod
    def random(cls, rng: Rng, input_dim: int, hidden_dim: int, n_layers: int) -> "BackboneModel":
        """Random frozen backbone, entries scaled by 1/sqrt(fan_in)."""
        layers = []
        fan_in = input_dim
        for i in range(n_layers):
            w = rng.derive("layer", i).standard_normal(hidden_dim, fan_in)
            w /= np.sqrt(fan_in)
            layers.append(Matrix(w))
            fan_in = hidden_dim
        head = rng.derive("head").standard_normal(1, fan_in) / np.sqrt(fan_in)
        return cls(tuple(layers), Matrix(head))


A_STD = 0.01  # standard deviation of a fresh adapter's A entries


def init_adapters(model: BackboneModel, rank: int, rng: Rng) -> AdapterSet:
    """Fresh adapters: A from a small Gaussian, B at zero, so delta starts at 0."""
    factors = []
    for i, w in enumerate(model.layers):
        d, k = w.rows, w.cols
        if rank > min(d, k):
            raise ValueError(f"rank {rank} too large for layer {i} ({d}x{k})")
        a = rng.derive("adapter-a", i).standard_normal(rank, k) * A_STD
        factors.append((a, np.zeros((d, rank))))
    return AdapterSet.from_factors(factors)


def _check_conformable(model: BackboneModel, adapters: AdapterSet) -> None:
    if len(adapters.shapes) != model.n_layers:
        raise ShapeError(
            f"adapter set covers {len(adapters.shapes)} layers, model has {model.n_layers}"
        )
    for i, ((_, d, k), w) in enumerate(zip(adapters.shapes, model.layers)):
        if (d, k) != w.shape:
            raise ShapeError(f"adapter at layer {i} is {d}x{k}, weight is {w.rows}x{w.cols}")


def _effective_weights(model: BackboneModel, params, out=None) -> list[np.ndarray]:
    """E = W + B@A per layer, each built in its product's array: ``out``'s, or fresh ones.

    IEEE addition is commutative, so ``e += w`` gives the bits of W + B@A,
    signed zeros included, without a second d x k array; W is finite, so a
    NaN can only come from B@A and passes through unchanged.
    """
    if out is None:
        out = [np.empty(w.shape) for w in model.layers]
    for e, w, (a, b) in zip(out, model.layers, params):
        b.dot(a, out=e)
        e += w.array
    return out


BLOCK_ROWS = 256  # rows per block of a model view's pass (module docstring)


def model_view(model: BackboneModel, adapters: AdapterSet,
               effs: list[np.ndarray] | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """The adapted model as a function from feature rows (n, input_dim) to logits (n,).

    Conformance is checked and the effective weights W + B@A are built once,
    here, so evaluating many batches costs one pass each. tanh sits between
    consecutive layers only; the last layer feeds the head linearly, so a
    one-layer model with identity effective weight is exactly the head.
    A pass runs in blocks of ``BLOCK_ROWS`` rows and never writes into ``xs``.
    E is built in ``effs``, one d x k array per layer, if given (a workspace's).
    """
    _check_conformable(model, adapters)
    effs = _effective_weights(model, adapters.factors(), effs)
    head = model.head.array[0]
    width = max(w.rows for w in model.layers)

    def logits(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != model.input_dim:
            raise ShapeError(f"batch shape {xs.shape} does not match input dim {model.input_dim}")
        out = np.empty(xs.shape[0])
        bufs = np.empty((2, min(xs.shape[0], BLOCK_ROWS) * width))
        for start in range(0, xs.shape[0], BLOCK_ROWS):
            act = xs[start : start + BLOCK_ROWS]
            for l, eff in enumerate(effs):
                buf = bufs[l % 2, : len(act) * eff.shape[0]].reshape(len(act), -1)
                act = act.dot(eff.T, out=buf)
                if l < len(effs) - 1:
                    np.tanh(act, out=act)
            act.dot(head, out=out[start : start + len(act)])
        return out

    return logits


def cross_entropy(logits: np.ndarray, labels) -> np.ndarray:
    """Elementwise binary cross-entropy with sigmoid, in the stable log-sum-exp form."""
    ys = np.asarray(labels, dtype=np.float64)
    return np.maximum(logits, 0.0) - logits * ys + np.log1p(np.exp(-np.abs(logits)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without a mask:
    # both branches share ez = e^-|z|, so neither exponent can overflow, and
    # the numerator e^min(z, 0) is e^0 = 1 for z >= 0 and ez's own e^z below.
    # min(z, -z) rather than -abs(z) keeps a NaN's sign bit, as exp(z) does,
    # and min(z, 0) passes a NaN through with its sign.
    ez = np.exp(np.minimum(z, -z))
    return np.exp(np.minimum(z, 0.0)) / (1.0 + ez)


Workspace = namedtuple("Workspace", "effs acts g_acts grad grads xs ys")


def workspace(model: BackboneModel, shapes, rows: int, split=(0, 0)) -> Workspace:
    """Step buffers for up to ``rows`` rows and adapters of ``(r, d, k)`` ``shapes``.

    For ``grad_adapters``: each layer's E, which the backward pass overwrites
    with that layer's weight gradient once E is dead, per layer a forward and
    a backward buffer of ``rows`` x width, and the flat gradient with its
    ``(dL/dA, dL/dB)`` views; for ``train_local``, an epoch's shuffled
    training split (``split`` features, as many labels).
    They are views into one allocation: glibc maps the first such block and,
    when it is freed, raises its mmap and trim thresholds above it, so later
    client-rounds reuse heap pages instead of re-faulting a trimmed heap.
    """
    layers = [w.shape for w in model.layers]
    parts = [*layers, *[(rows, d) for d, _ in layers] * 2,
             (sum(r * (d + k) for r, d, k in shapes),), split, split[:1]]
    ends = list(itertools.accumulate(math.prod(shape) for shape in parts))
    flat = np.empty(ends[-1])
    views = [flat[end - math.prod(shape) : end].reshape(shape) for shape, end in zip(parts, ends)]
    n = len(layers)
    grad = views[-3]
    return Workspace(views[:n], views[n : 2 * n], views[2 * n : -3], grad,
                     factor_views(grad, shapes), *views[-2:])


def grad_adapters(
    model: BackboneModel,
    params: list[tuple[np.ndarray, np.ndarray]],
    xs: np.ndarray,
    ys: np.ndarray,
    work: Workspace | None = None,
) -> np.ndarray:
    """Mean batch gradient of the loss w.r.t. every A and B entry, as one flat vector.

    ``params`` holds one ``(a, b)`` array pair per backbone layer, in layer
    order, already known to conform to the model (``train_local`` passes
    views into its working vector). The result is laid out like
    ``AdapterSet.vec``: per layer dL/dB then dL/dA, row-major, so a step is
    ``grad *= lr; vec -= grad``. The backbone gradient is never formed into
    updates. With a ``workspace`` the result is its ``grad``, which the next
    call on it overwrites; without one, the result is a fresh array.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("grad_adapters needs a nonempty 2-D batch")
    m = xs.shape[0]
    if work is None:
        work = workspace(model, [(a.shape[0], b.shape[0], a.shape[1]) for a, b in params], m)

    # Every product is ``x.dot(y, out=...)``: np.dot's BLAS call, so the bits
    # are those of @, without np.dot's Python-level dispatch; the tests hold
    # it to an @-based oracle bit for bit.
    eff = _effective_weights(model, params, work.effs)
    acts, g_acts = work.acts, work.g_acts
    if m < len(acts[0]):  # a partial batch uses a row prefix
        acts, g_acts = [buf[:m] for buf in acts], [buf[:m] for buf in g_acts]
    acts = [xs, *acts]
    last = len(eff) - 1
    for l, e in enumerate(eff):
        acts[l].dot(e.T, out=acts[l + 1])
        if l < last:
            np.tanh(acts[l + 1], out=acts[l + 1])
    head = model.head.array  # 1 x d_last
    dlogit = _sigmoid(acts[-1].dot(head[0]))
    dlogit -= ys
    dlogit /= float(m)
    # g_z = dlogit[:, None] * head, as a rank-1 product (module docstring).
    g_z = dlogit[:, None].dot(head, out=g_acts[last])  # (m, d_last)
    for l in range(last, -1, -1):
        if l < last:  # g_z = g_act * (1 - act**2) through tanh, in act's buffer
            g_z = np.square(acts[l + 1], out=acts[l + 1])
            np.subtract(1.0, g_z, out=g_z)
            np.multiply(g_acts[l], g_z, out=g_z)
        if l > 0:
            g_z.dot(eff[l], out=g_acts[l - 1])
        g_eff = g_z.T.dot(acts[l], out=eff[l])  # E[l] is dead from here on
        (a, b), (g_a, g_b) = params[l], work.grads[l]
        b.T.dot(g_eff, out=g_a)
        g_eff.dot(a.T, out=g_b)
    return work.grad


def train_local(
    model: BackboneModel, data: Dataset, global_adapters: AdapterSet, rng: Rng, *,
    learning_rate: float, local_epochs: int, batch_size: int,
    epochs: range | None = None, vec: np.ndarray | None = None, work: Workspace | None = None,
) -> tuple[AdapterSet, float] | None:
    """Run ``local_epochs`` of minibatch SGD on ``data`` from the global adapters.

    The caller hands an rng already scoped to (run seed, client, round); each
    epoch derives its own shuffle stream from it, so results depend only on
    (data, schedule, global adapters, rng identity) and never on scheduling.
    Minibatches follow the shuffled order with the last partial batch kept.
    Each epoch gathers the shuffled training split once and takes its
    minibatches as slices. Only adapter weights change. Returns the trained
    adapters and their mean loss on the validation split.

    A scheduler may split the epochs into calls over consecutive ``epochs``
    ranges on one writable ``vec`` (a copy of the global vector, the whole
    state between epochs) and any ``work`` that holds the split, with the bits
    of one call; only the call whose range ends at ``local_epochs`` returns.

    The steps never check finiteness: a client that diverges runs its
    remaining steps on NaN/Inf, and the result fails the ``AdapterSet``
    finiteness check with a ``ValueError``.
    """
    _check_conformable(model, global_adapters)
    epochs = range(local_epochs) if epochs is None else epochs
    if vec is None:
        vec = np.array(global_adapters.vec)  # writable; params are views into it
    params = factor_views(vec, global_adapters.shapes)
    xs, ys = data.train_x, data.train_y
    n = xs.shape[0]
    if work is None:
        work = workspace(model, global_adapters.shapes, min(batch_size, n), xs.shape)
    split_x, split_y = work.xs[:n], work.ys[:n]
    # Each epoch refills the split in place, so its minibatch views are taken once.
    batches = [(split_x[start : start + batch_size], split_y[start : start + batch_size])
               for start in range(0, n, batch_size)]
    for epoch in epochs:
        order = rng.derive("epoch", epoch, "shuffle").permutation(n)
        # A permutation has no index to clip; "clip" only spares take the
        # full-size copy that "raise" gathers into before writing ``out``.
        np.take(xs, order, axis=0, out=split_x, mode="clip")
        split_y[:] = ys[order]
        for batch_x, batch_y in batches:
            grad = grad_adapters(model, params, batch_x, batch_y, work)
            grad *= learning_rate
            vec -= grad
    if epochs.stop < local_epochs:
        return None
    adapters = AdapterSet(global_adapters.shapes, vec)
    logits = model_view(model, adapters, work.effs)(data.val_x)
    return adapters, float(np.mean(cross_entropy(logits, data.val_y)))
