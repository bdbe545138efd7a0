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
returns one flat gradient in the same B-then-A-per-layer order, so each SGD
step is ``vec -= lr * grad``: elementwise the same arithmetic as
``a - lr * ga`` per matrix. Each epoch gathers its shuffled copy of the
training split once, and every minibatch is a slice of it. The trained
vector becomes one ``AdapterSet``, checked for finiteness, once per
client-round. Both post-training losses (train and validation split) then
go through one ``model_view`` of the trained adapters, which builds the
effective weights W + B@A once; the server evaluates the same way.

Every large temporary exists once, and no rule below changes an arithmetic
operation, so the bits are those of the plain expressions:

- an effective weight is built in its product's array (``e = B@A; e += W``);
- a model view runs each tanh in place on the fresh product it follows, so a
  pass holds at most two activations and never writes into its input;
- an epoch's shuffled copy of the training split is freed when the epoch
  ends, so none is alive during the next gather or the loss passes;
- a backbone layer's draw is scaled in place before ``Matrix`` copies it.

tanh is used between layers (rather than ReLU) so the analytic gradients can
be validated against central finite differences without subgradient
headaches. Gradients are derived by hand: with effective weight
E = W + B@A per layer, dL/dB = G @ A^T and dL/dA = B^T @ G where G is the
gradient with respect to E.
"""
from __future__ import annotations

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


def init_adapters(model: BackboneModel, rank: int, rng: Rng, a_std: float = 0.01) -> AdapterSet:
    """Fresh adapters: A from a small Gaussian, B at zero, so delta starts at 0."""
    factors = []
    for i, w in enumerate(model.layers):
        d, k = w.rows, w.cols
        if rank > min(d, k):
            raise ValueError(f"rank {rank} too large for layer {i} ({d}x{k})")
        a = rng.derive("adapter-a", i).standard_normal(rank, k) * a_std
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


def _effective_weights(model: BackboneModel, params) -> list[np.ndarray]:
    """E = W + B@A per layer, each built in the product's own array.

    IEEE addition is commutative, so ``e += w`` gives the bits of W + B@A,
    signed zeros included, without a second d x k array; W is finite, so a
    NaN can only come from B@A and passes through unchanged.
    """
    effs = []
    for w, (a, b) in zip(model.layers, params):
        e = b.dot(a)
        e += w.array
        effs.append(e)
    return effs


def model_view(model: BackboneModel, adapters: AdapterSet) -> Callable[[np.ndarray], np.ndarray]:
    """The adapted model as a function from feature rows (n, input_dim) to logits (n,).

    Conformance is checked and the effective weights W + B@A are built once,
    here, so evaluating many batches costs one pass each. tanh sits between
    consecutive layers only; the last layer feeds the head linearly, so a
    one-layer model with identity effective weight is exactly the head.
    A pass holds at most two activations and never writes into ``xs``.
    """
    _check_conformable(model, adapters)
    effs = _effective_weights(model, adapters.factors())

    def logits(xs: np.ndarray) -> np.ndarray:
        act = np.asarray(xs, dtype=np.float64)
        if act.ndim != 2 or act.shape[1] != model.input_dim:
            raise ShapeError(f"batch shape {act.shape} does not match input dim {model.input_dim}")
        for eff in effs[:-1]:
            act = act @ eff.T
            np.tanh(act, out=act)
        act = act @ effs[-1].T
        return act @ model.head.array[0]

    return logits


def cross_entropy(logits: np.ndarray, labels) -> np.ndarray:
    """Elementwise binary cross-entropy with sigmoid, in the stable log-sum-exp form."""
    ys = np.asarray(labels, dtype=np.float64)
    return np.maximum(logits, 0.0) - logits * ys + np.log1p(np.exp(-np.abs(logits)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without a mask:
    # both branches share ez = e^-|z|, so neither exponent can overflow.
    # min(z, -z) rather than -abs(z) keeps a NaN's sign bit, as exp(z) does.
    ez = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def grad_adapters(
    model: BackboneModel,
    params: list[tuple[np.ndarray, np.ndarray]],
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Mean batch gradient of the loss w.r.t. every A and B entry, as one flat vector.

    ``params`` holds one ``(a, b)`` array pair per backbone layer, in layer
    order, already known to conform to the model (``train_local`` passes
    views into its working vector). The result is laid out like
    ``AdapterSet.vec``: per layer dL/dB then dL/dA, row-major, so a step is
    one in-place ``vec -= lr * grad``. The backbone gradient is never formed
    into updates.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("grad_adapters needs a nonempty 2-D batch")

    # ndarray.dot reaches the same BLAS calls as @, so the bits are the same,
    # at less overhead per call on small matrices; the tests hold it to an
    # @-based oracle bit for bit.
    eff = _effective_weights(model, params)
    head = model.head.array[0]
    last = model.n_layers - 1
    acts = [xs]
    for l, e in enumerate(eff):
        pre = acts[-1].dot(e.T)
        acts.append(np.tanh(pre) if l < last else pre)
    logits = acts[-1].dot(head)

    dlogit = (_sigmoid(logits) - ys) / xs.shape[0]  # (n,)
    g_act = dlogit[:, None] * head  # (n, d_last)

    parts = []  # dL/dA, dL/dB per layer, last layer first
    for l in range(last, -1, -1):
        # The final layer is linear into the head; earlier ones pass tanh.
        g_z = g_act if l == last else g_act * (1.0 - acts[l + 1] ** 2)
        g_eff = g_z.T.dot(acts[l])  # (d_l, d_{l-1})
        a, b = params[l]
        parts += (b.T.dot(g_eff), g_eff.dot(a.T))
        if l > 0:
            g_act = g_z.dot(eff[l])
    return np.concatenate(parts[::-1], axis=None)


def train_local(
    model: BackboneModel, data: Dataset, global_adapters: AdapterSet, rng: Rng, *,
    learning_rate: float, local_epochs: int, batch_size: int,
) -> tuple[AdapterSet, float, float]:
    """Run ``local_epochs`` of minibatch SGD on ``data`` from the global adapters.

    The caller hands an rng already scoped to (run seed, client, round); each
    epoch derives its own shuffle stream from it, so results depend only on
    (data, schedule, global adapters, rng identity) and never on scheduling.
    Minibatches follow the shuffled order with the last partial batch kept.
    Each epoch gathers the shuffled training split once and takes its
    minibatches as slices. Only adapter weights change. Returns the trained
    adapters and their mean losses on the full train and validation splits.

    The steps never check finiteness: a client that diverges runs its
    remaining steps on NaN/Inf, and the result fails the ``AdapterSet``
    finiteness check with a ``ValueError``.
    """
    _check_conformable(model, global_adapters)
    vec = np.array(global_adapters.vec)  # writable; params are views into it
    params = factor_views(vec, global_adapters.shapes)
    xs, ys = data.train_x, data.train_y
    n = xs.shape[0]
    for epoch in range(local_epochs):
        order = rng.derive("epoch", epoch, "shuffle").permutation(n)
        shuffled_x, shuffled_y = xs[order], ys[order].astype(np.float64)
        for start in range(0, n, batch_size):
            stop = start + batch_size
            vec -= learning_rate * grad_adapters(
                model, params, shuffled_x[start:stop], shuffled_y[start:stop]
            )
        # Not left for the next epoch's gather or the loss passes to free.
        del shuffled_x, shuffled_y
    adapters = AdapterSet(global_adapters.shapes, vec)
    view = model_view(model, adapters)
    train_loss = float(np.mean(cross_entropy(view(xs), ys)))
    eval_loss = float(np.mean(cross_entropy(view(data.val_x), data.val_y)))
    return adapters, train_loss, eval_loss
