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
"""
from __future__ import annotations

from typing import Mapping, Sequence

from fedmentor import metrics as metrics_mod
from fedmentor.federation import ClientRoundStats, RoundRecord
from fedmentor.linalg import Rng
from fedmentor.lora import AdapterSet, factor_views, serialize
from fedmentor.trainer import (
    BackboneModel,
    ClientState,
    grad_adapters,
    model_view,
    train_local,
)

__all__ = ["run_plain_fedavg", "run_centralized_sgd"]


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
    backbone: BackboneModel,
    clients: Sequence[ClientState],
    initial_adapters: AdapterSet,
    seed: int,
    rounds: int,
    budgets_echo: Mapping[str, float],
) -> tuple[AdapterSet, list[RoundRecord]]:
    """Plain dataset-weighted FedAvg with no noise, no gate, no decay.

    ``budgets_echo`` is copied verbatim into every round record so the
    emitted metrics line up column-for-column with a noise-off pipeline run.
    Byte counts are kept in local integers: every recipient's copy of the
    broadcast, and every upload.
    """
    ordered = sorted(clients, key=lambda c: c.id)
    global_adapters = initial_adapters
    records: list[RoundRecord] = []

    for round_number in range(1, rounds + 1):
        blob = serialize(global_adapters)
        broadcast_bytes = len(blob) * len(ordered)

        updates, sizes, per_client = [], [], []
        upload_bytes = 0
        for client in ordered:
            rng = Rng(seed).derive("client", client.id, "round", round_number)
            update, train_loss, eval_loss = train_local(client, global_adapters, rng)
            payload = serialize(update)
            upload_bytes += len(payload)
            updates.append(update)
            sizes.append(client.data.n_train)
            per_client.append(ClientRoundStats(client.id, train_loss, eval_loss))

        global_adapters = _weighted_mean(updates, sizes)
        utilities = metrics_mod.evaluate(
            model_view(backbone, global_adapters), [c.data for c in ordered]
        )

        records.append(
            RoundRecord(
                round=round_number,
                per_client=tuple(per_client),
                broadcast_bytes=broadcast_bytes,
                upload_bytes=upload_bytes,
                utilities=utilities,
                gate_triggered=False,
                scale_multiplier=1.0,
                budgets=dict(budgets_echo),
            )
        )
    return global_adapters, records


def run_centralized_sgd(
    client: ClientState,
    initial_adapters: AdapterSet,
    seed: int,
    rounds: int,
) -> AdapterSet:
    """Direct minibatch SGD over one client's data, no federation machinery.

    Streams are derived the same way the protocol derives them — per
    (seed, client, round) and per epoch — so this is the exact computation a
    single-client federation performs, minus broadcast/aggregate.
    """
    adapters = initial_adapters
    xs, ys = client.data.train_x, client.data.train_y
    n = xs.shape[0]
    lr = client.learning_rate
    for round_number in range(1, rounds + 1):
        rng = Rng(seed).derive("client", client.id, "round", round_number)
        for epoch in range(client.local_epochs):
            order = rng.derive("epoch", epoch, "shuffle").permutation(n)
            for start in range(0, n, client.batch_size):
                batch = order[start : start + client.batch_size]
                params = adapters.factors()
                grad = grad_adapters(client.model, params, xs[batch], ys[batch])
                grads = factor_views(grad, adapters.shapes)
                adapters = AdapterSet.from_factors(
                    (a - lr * g_a, b - lr * g_b) for (a, b), (g_a, g_b) in zip(params, grads)
                )
    return adapters

