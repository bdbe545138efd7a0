"""Client-side model and the local SGD loop.

The model is a small dense network with a frozen backbone: per layer an
immutable weight matrix plus a low-rank adapter pair, tanh between layers,
and a frozen linear head producing one logit. Only adapter entries ever
receive gradient; the backbone and head never change.

Local training runs on plain arrays: ``train_local`` unpacks the global
``AdapterSet`` once into one ``(a, b)`` pair of float64 arrays per layer,
``grad_adapters`` takes and returns such pairs, and each SGD step is
``a - lr * ga`` and ``b - lr * gb``. The trained pairs become an
``AdapterSet`` again, and are checked for finiteness, once per client-round.
The effective weights W + B@A of the trained adapters are then built once and
shared by both post-training losses (train and validation split), through
the same ``_logits`` pass that ``forward_batch`` uses.

tanh is used between layers (rather than ReLU) so the analytic gradients can
be validated against central finite differences without subgradient
headaches. Gradients are derived by hand: with effective weight
E = W + B@A per layer, dL/dB = G @ A^T and dL/dA = B^T @ G where G is the
gradient with respect to E.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linalg import Matrix, Rng, ShapeError
from .lora import AdapterSet, LoraPair

__all__ = [
    "BackboneModel",
    "ClientState",
    "TrainStats",
    "init_adapters",
    "forward_batch",
    "cross_entropy",
    "mean_loss",
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
            w = rng.derive("layer", i).standard_normal(hidden_dim, fan_in) / np.sqrt(fan_in)
            layers.append(Matrix(w))
            fan_in = hidden_dim
        head = rng.derive("head").standard_normal(1, fan_in) / np.sqrt(fan_in)
        return cls(tuple(layers), Matrix(head))


def init_adapters(model: BackboneModel, rank: int, rng: Rng, a_std: float = 0.01) -> AdapterSet:
    """Fresh adapters: A from a small Gaussian, B at zero, so delta starts at 0."""
    pairs = []
    for i, w in enumerate(model.layers):
        d, k = w.rows, w.cols
        if rank > min(d, k):
            raise ValueError(f"rank {rank} too large for layer {i} ({d}x{k})")
        a = rng.derive("adapter-a", i).standard_normal(rank, k) * a_std
        pairs.append(LoraPair(i, Matrix(a), Matrix.zeros(d, rank)))
    return AdapterSet(tuple(pairs), model.n_layers)


def _check_conformable(model: BackboneModel, adapters: AdapterSet) -> None:
    if adapters.total_layers != model.n_layers or len(adapters.pairs) != model.n_layers:
        raise ShapeError(
            f"adapter set covers {len(adapters.pairs)}/{adapters.total_layers} layers, "
            f"model has {model.n_layers}"
        )
    for pair, w in zip(adapters.pairs, model.layers):
        if pair.d != w.rows or pair.k != w.cols:
            raise ShapeError(
                f"adapter at layer {pair.layer_index} is {pair.d}x{pair.k}, "
                f"weight is {w.rows}x{w.cols}"
            )


def _effective_weights(model: BackboneModel, params) -> list[np.ndarray]:
    return [w.array + b @ a for w, (a, b) in zip(model.layers, params)]


def _array_pairs(adapters: AdapterSet) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(p.a.array, p.b.array) for p in adapters.pairs]


def forward_batch(model: BackboneModel, adapters: AdapterSet, xs: np.ndarray) -> np.ndarray:
    """Logits for a batch of feature rows (n, input_dim) -> (n,).

    tanh sits between consecutive layers only; the last layer feeds the head
    linearly, so a one-layer model with identity effective weight is exactly
    the head.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.input_dim:
        raise ShapeError(f"batch shape {xs.shape} does not match input dim {model.input_dim}")
    _check_conformable(model, adapters)
    return _logits(model, _effective_weights(model, _array_pairs(adapters)), xs)


def _logits(model: BackboneModel, effs: list[np.ndarray], xs: np.ndarray) -> np.ndarray:
    act = xs
    for eff in effs[:-1]:
        act = np.tanh(act @ eff.T)
    act = act @ effs[-1].T
    return act @ model.head.array[0]


def cross_entropy(logits: np.ndarray, labels) -> np.ndarray:
    """Elementwise binary cross-entropy with sigmoid, in the stable log-sum-exp form."""
    ys = np.asarray(labels, dtype=np.float64)
    return np.maximum(logits, 0.0) - logits * ys + np.log1p(np.exp(-np.abs(logits)))


def mean_loss(model: BackboneModel, adapters: AdapterSet, xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.mean(cross_entropy(forward_batch(model, adapters, xs), ys)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def grad_adapters(
    model: BackboneModel,
    params: list[tuple[np.ndarray, np.ndarray]],
    xs: np.ndarray,
    ys: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean batch gradient of the loss w.r.t. every A and B entry.

    ``params`` holds one ``(a, b)`` array pair per backbone layer, in layer
    order, already known to conform to the model; the result has the same
    layout, ``(dL/dA, dL/dB)`` per layer. The backbone gradient is never
    formed into updates.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("grad_adapters needs a nonempty 2-D batch")

    eff = _effective_weights(model, params)
    last = model.n_layers - 1
    acts = [xs]
    for l, e in enumerate(eff):
        pre = acts[-1] @ e.T
        acts.append(np.tanh(pre) if l < last else pre)
    logits = acts[-1] @ model.head.array[0]

    n = xs.shape[0]
    dlogit = (_sigmoid(logits) - ys) / n  # (n,)
    g_act = np.outer(dlogit, model.head.array[0])  # (n, d_last)

    grads = [None] * model.n_layers
    for l in range(last, -1, -1):
        # The final layer is linear into the head; earlier ones pass tanh.
        g_z = g_act if l == last else g_act * (1.0 - acts[l + 1] ** 2)
        g_eff = g_z.T @ acts[l]  # (d_l, d_{l-1})
        a, b = params[l]
        grads[l] = (b.T @ g_eff, g_eff @ a.T)
        if l > 0:
            g_act = g_z @ eff[l]
    return grads


@dataclass(frozen=True)
class ClientState:
    """One client: its data, backbone view, and hyperparameters.

    A client holds no adapters of its own: each round it trains from the
    adapters the server broadcasts.
    """

    id: int
    domain: str
    data: Dataset
    model: BackboneModel
    learning_rate: float
    local_epochs: int
    batch_size: int

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.data.input_dim != self.model.input_dim:
            raise ShapeError(
                f"client {self.id}: data dim {self.data.input_dim} vs "
                f"model dim {self.model.input_dim}"
            )


@dataclass(frozen=True)
class TrainStats:
    final_train_loss: float
    final_eval_loss: float
    steps: int
    wall_time: float


def train_local(
    client: ClientState,
    global_adapters: AdapterSet,
    rng: Rng,
) -> tuple[AdapterSet, TrainStats]:
    """Run the client's local epochs of minibatch SGD from the global adapters.

    The caller hands an rng already scoped to (run seed, client, round); each
    epoch derives its own shuffle stream from it, so results depend only on
    (client state, global adapters, rng identity) and never on scheduling.
    Minibatches follow the shuffled order with the last partial batch kept.
    Only adapter weights change; the returned stats carry post-training mean
    losses on the full train and validation splits.

    The steps never check finiteness: a client that diverges runs its
    remaining steps on NaN/Inf, and the ``ValueError`` raised when the result
    becomes an ``AdapterSet`` names the client, its domain and the phase.
    """
    started = time.perf_counter()
    _check_conformable(client.model, global_adapters)
    params = _array_pairs(global_adapters)
    lr = client.learning_rate
    xs, ys = client.data.train_x, client.data.train_y
    n = xs.shape[0]
    steps = 0
    for epoch in range(client.local_epochs):
        order = rng.derive("epoch", epoch, "shuffle").permutation(n)
        for start in range(0, n, client.batch_size):
            batch = order[start : start + client.batch_size]
            grads = grad_adapters(client.model, params, xs[batch], ys[batch])
            params = [(a - lr * ga, b - lr * gb) for (a, b), (ga, gb) in zip(params, grads)]
            steps += 1
    try:
        pairs = [
            LoraPair(p.layer_index, Matrix(a), Matrix(b))
            for p, (a, b) in zip(global_adapters.pairs, params)
        ]
    except ValueError as exc:
        raise ValueError(f"client {client.id} ({client.domain}): local training: {exc}") from exc
    adapters = AdapterSet(tuple(pairs), global_adapters.total_layers)
    effs = _effective_weights(client.model, _array_pairs(adapters))
    val_x, val_y = client.data.val_x, client.data.val_y
    stats = TrainStats(
        final_train_loss=float(np.mean(cross_entropy(_logits(client.model, effs, xs), ys))),
        final_eval_loss=float(np.mean(cross_entropy(_logits(client.model, effs, val_x), val_y))),
        steps=steps,
        wall_time=time.perf_counter() - started,
    )
    return adapters, stats
