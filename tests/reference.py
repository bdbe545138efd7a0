"""Reference training paths that bypass the privacy engine entirely.

``run_plain_fedavg`` is a from-first-principles FedAvg loop: broadcast,
sequential local training, dataset-weighted averaging, utility evaluation.
It never imports the privacy machinery, so it serves both as the
"FL without DP" baseline of ablation runs and as the oracle that the full
pipeline must match bit-for-bit when noise is disabled.

``run_centralized_sgd`` is the degenerate single-owner loop: plain minibatch
SGD over one dataset using the same per-round/per-epoch stream derivation,
with no federation machinery at all. A one-client federated run with noise
off must reproduce it exactly.

``train_client`` is one client's whole local update, as a round makes it
on one worker: ``train_local`` over every epoch on a copy of the broadcast
vector, then the trained adapters and their validation loss.

The server holds the backbone and the local-SGD schedule (learning rate,
epochs, batch size) once per run; both loops read them, the starting
adapters and the seed from a ``ServerState`` and nothing else from it.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from fedmentor import metrics as metrics_mod
from fedmentor.data import Dataset
from fedmentor.federation import ClientState, RoundRecord, ServerState
from fedmentor.linalg import Rng
from fedmentor.lora import AdapterSet, factor_views, serialize
from fedmentor.trainer import (
    BackboneModel,
    cross_entropy,
    grad_adapters,
    model_view,
    train_local,
    workspace,
)

__all__ = ["train_client", "run_plain_fedavg", "run_centralized_sgd"]


def train_client(
    model: BackboneModel, data: Dataset, broadcast: AdapterSet, rng: Rng, *,
    learning_rate: float, local_epochs: int, batch_size: int,
) -> tuple[AdapterSet, float]:
    """What ``local_epochs`` of local SGD make of ``broadcast``, and its validation loss."""
    vec = np.array(broadcast.vec)  # writable; train_local updates it in place
    work = workspace(model, broadcast.shapes, min(batch_size, data.n_train), data.train_x.shape)
    train_local(model, data, broadcast, rng, vec=vec, work=work, epochs=range(local_epochs),
                learning_rate=learning_rate, batch_size=batch_size)
    update = AdapterSet(broadcast.shapes, vec)
    logits = model_view(model, update, work.effs)(data.val_x)
    return update, float(np.mean(cross_entropy(logits, data.val_y)))


def _weighted_mean(sets: Sequence[AdapterSet], sizes: Sequence[int]) -> AdapterSet:
    # Same convexity fixed point the pipeline aggregator honors.
    if all(s == sets[0] for s in sets[1:]):
        return sets[0]
    total = float(sum(sizes))
    weights = [s / total for s in sizes]
    factors = [s.factors() for s in sets]
    out = []
    for li, (a0, b0) in enumerate(factors[0]):
        acc_a = weights[0] * a0
        acc_b = weights[0] * b0
        for f, w in zip(factors[1:], weights[1:]):
            acc_a = acc_a + w * f[li][0]
            acc_b = acc_b + w * f[li][1]
        out.append((acc_a, acc_b))
    return AdapterSet.from_factors(out)


def run_plain_fedavg(
    server: ServerState,
    clients: Sequence[ClientState],
    rounds: int,
    budgets_echo: Mapping[str, float],
) -> tuple[AdapterSet, list[RoundRecord]]:
    """Plain dataset-weighted FedAvg from ``server``'s state, with no noise, no gate, no decay.

    ``budgets_echo`` is copied verbatim into every round record so the
    emitted metrics line up column-for-column with a noise-off pipeline run.
    Byte counts are kept in local integers: every recipient's copy of the
    broadcast, and every upload.
    """
    backbone, seed = server.backbone, server.rng_seed
    schedule = dict(
        learning_rate=server.learning_rate,
        local_epochs=server.local_epochs,
        batch_size=server.batch_size,
    )
    ordered = sorted(clients, key=lambda c: c.id)
    global_adapters = server.global_adapters
    records: list[RoundRecord] = []

    for round_number in range(1, rounds + 1):
        blob = serialize(global_adapters)
        broadcast_bytes = len(blob) * len(ordered)

        updates, sizes, eval_losses = [], [], {}
        upload_bytes = 0
        for client in ordered:
            rng = Rng(seed).derive("client", client.id, "round", round_number)
            update, eval_losses[client.id] = train_client(
                backbone, client.data, global_adapters, rng, **schedule
            )
            payload = serialize(update)
            upload_bytes += len(payload)
            updates.append(update)
            sizes.append(client.data.n_train)

        global_adapters = _weighted_mean(updates, sizes)
        utilities = metrics_mod.evaluate(
            model_view(backbone, global_adapters), [c.data for c in ordered]
        )

        records.append(
            RoundRecord(
                round=round_number,
                eval_losses=eval_losses,
                broadcast_bytes=broadcast_bytes,
                upload_bytes=upload_bytes,
                utilities=utilities,
                gate_triggered=False,
                scale_multiplier=1.0,
                budgets=dict(budgets_echo),
            )
        )
    return global_adapters, records


def run_centralized_sgd(server: ServerState, client: ClientState, rounds: int) -> AdapterSet:
    """Direct minibatch SGD over one client's data, no federation machinery.

    Streams are derived the same way the protocol derives them — per
    (seed, client, round) and per epoch — so this is the exact computation a
    single-client federation performs, minus broadcast/aggregate.
    """
    adapters = server.global_adapters
    xs, ys = client.data.train_x, client.data.train_y
    n = xs.shape[0]
    lr, size = server.learning_rate, server.batch_size
    work = workspace(server.backbone, adapters.shapes, min(size, n))
    for round_number in range(1, rounds + 1):
        rng = Rng(server.rng_seed).derive("client", client.id, "round", round_number)
        for epoch in range(server.local_epochs):
            order = rng.derive("epoch", epoch, "shuffle").permutation(n)
            for start in range(0, n, size):
                batch = order[start : start + size]
                params = adapters.factors()
                grad = grad_adapters(server.backbone, params, xs[batch], ys[batch], work)
                grads = factor_views(grad, adapters.shapes)
                adapters = AdapterSet.from_factors(
                    (a - lr * g_a, b - lr * g_b) for (a, b), (g_a, g_b) in zip(params, grads)
                )
    return adapters

