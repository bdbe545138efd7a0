"""The round engine: broadcast, train, privatize, aggregate, gate, decay.

It does no file I/O: the rounds return records, and ``cli`` writes them, with
the final adapters, into the run directory.

One round executes, in order: encode the global adapters and decode that
broadcast, train each responding client from the decoded adapters in
client-id order, privatize each update under its domain's current budget,
encode it as the client's upload, decode every upload on the server and
aggregate the decoded sets with dataset-size weights, evaluate utility
proxies on the pool of every client's own validation split (a client that
dropped out this round included), apply the utility gate, and decay the
budgets. Adapters travel only through the wire format, and the round's byte
counts are the lengths of those payloads (the broadcast once per recipient).
Aggregation always consumes results sorted by client id, so client
declaration order cannot change a single bit of the outcome.

A client is its id, domain and data: the server holds the backbone and the
local-SGD schedule once. A failure in local training, privatize or upload
names the client, its domain and the phase.

The round trains every client first, then privatizes, encodes and decodes
each update in a second loop. A raw trained update is released as soon as it
is privatized, so the round holds the decoded uploads plus one client's
update in flight, never two full sets of updates.

The gate's multiplier and each domain's current budget are round state in
``ServerState``; the decay schedule, a ``dp.BudgetConfig``, does not change
during a run. The round loop has no strategy branch:
``config.build_experiment`` turns the run's privacy strategy into the
starting state's calibration, schedule and thresholds, so every round
privatizes every upload with ``dp.privatize`` and runs the gate and the decay.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Sequence

import numpy as np

from . import metrics as metrics_mod
from .data import Dataset
from .dp import (
    BudgetConfig,
    NoiseCalibration,
    UnknownDomainError,
    apply_utility_gate,
    decay_budgets,
    privatize,
)
from .linalg import Rng, ShapeError, single_blas_thread
from .lora import AdapterSet, deserialize, serialize
from .trainer import BackboneModel, _check_conformable, model_view, train_local

__all__ = [
    "ClientState",
    "ServerState",
    "ClientRoundStats",
    "RoundRecord",
    "RoundError",
    "aggregate",
    "run_round",
    "run_training",
]


@dataclass(frozen=True)
class ClientState:
    """One client: it trains the server's broadcast on the server's backbone and schedule."""

    id: int
    domain: str
    data: Dataset


@dataclass(frozen=True)
class ServerState:
    """Everything the server carries from round to round.

    It holds the frozen ``backbone`` and the local-SGD schedule
    (``learning_rate``, ``local_epochs``, ``batch_size``) once for all clients.
    ``scale_multiplier`` is the product of every gate factor applied so far:
    it starts at 1.0 and only ever shrinks. Setting it to 0 disables noise.
    ``budgets`` holds each domain's current eps under the decay ``schedule``;
    left unset, it starts at ``schedule.entries``.
    """

    backbone: BackboneModel
    global_adapters: AdapterSet
    schedule: BudgetConfig
    calibration: NoiseCalibration
    thresholds: Mapping[str, float]
    learning_rate: float
    local_epochs: int
    batch_size: int
    round_index: int = 0
    rng_seed: int = 0
    scale_multiplier: float = 1.0
    budgets: Mapping[str, float] | None = None

    def __post_init__(self):
        for name, least in (("learning_rate", 0), ("local_epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        _check_conformable(self.backbone, self.global_adapters)
        object.__setattr__(self, "thresholds", dict(self.thresholds))
        start = self.schedule.entries if self.budgets is None else self.budgets
        object.__setattr__(self, "budgets", dict(start))


@dataclass(frozen=True)
class ClientRoundStats:
    client_id: int
    train_loss: float
    eval_loss: float


@dataclass(frozen=True)
class RoundRecord:
    round: int  # 1-based
    per_client: tuple[ClientRoundStats, ...]
    broadcast_bytes: int
    upload_bytes: int
    utilities: Mapping[str, float]
    gate_triggered: bool
    scale_multiplier: float
    budgets: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "utilities", dict(self.utilities))
        object.__setattr__(self, "budgets", dict(self.budgets))


class RoundError(RuntimeError):
    """A round failed; the message carries the 1-based round number.

    ``records`` holds the rounds completed before the failure, and ``server``
    the state after the last of them (the starting state if none completed).
    """

    def __init__(self, message: str, server: ServerState, records: list[RoundRecord]):
        super().__init__(message)
        self.server = server
        self.records = records


def aggregate(updates: Sequence[AdapterSet], train_sizes: Sequence[int]) -> AdapterSet:
    """Dataset-weighted FedAvg: entrywise convex combination of update vectors.

    Weights are train_sizes normalized to sum to one; the adapter vectors are
    summed with their weights left to right, in list order.
    """
    if len(updates) == 0:
        raise ValueError("aggregate needs at least one update")
    if len(updates) != len(train_sizes):
        raise ValueError(
            f"{len(updates)} updates but {len(train_sizes)} sizes"
        )
    for size in train_sizes:
        if size <= 0:
            raise ValueError(f"train sizes must be positive, got {size}")
    first = updates[0]
    for u in updates[1:]:
        if not first.conformable_with(u):
            raise ShapeError("updates are not conformable")
    # Identical updates are returned verbatim: a convex combination of equal
    # points is that point, and rounding the weighted sum must not break it.
    if all(u == first for u in updates[1:]):
        return first
    total = float(sum(train_sizes))
    weights = [s / total for s in train_sizes]
    assert abs(sum(weights) - 1.0) < 1e-12

    acc = weights[0] * first.vec
    for u, w in zip(updates[1:], weights[1:]):
        acc = acc + w * u.vec
    return AdapterSet(first.shapes, acc)


def _validate_clients(server: ServerState, clients: Sequence[ClientState]) -> list[ClientState]:
    ordered = sorted(clients, key=lambda c: c.id)
    ids = [c.id for c in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids: {ids}")
    dim = server.backbone.input_dim
    for c in ordered:
        if c.domain not in server.budgets:
            raise UnknownDomainError(
                f"domain {c.domain!r} has no budget; known: {sorted(server.budgets)}"
            )
        if c.data.input_dim != dim:
            raise ShapeError(f"client {c.id}: data dim {c.data.input_dim} vs model dim {dim}")
    return ordered


@contextmanager
def _phase(client: ClientState, phase: str):
    """Re-raise a ``ValueError`` as one naming the client, its domain and the phase."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"client {client.id} ({client.domain}): {phase}: {exc}") from exc


def run_round(
    server: ServerState,
    clients: Sequence[ClientState],
    dropouts: Collection[tuple[int, int]] = frozenset(),
) -> tuple[ServerState, RoundRecord]:
    """Execute one federated round and return the advanced server state.

    ``dropouts`` holds ``(round, client_id)`` pairs; a client listed for this
    round neither trains nor uploads, and the weights renormalize over the
    clients that respond.
    """
    ordered = _validate_clients(server, clients)
    round_number = server.round_index + 1

    broadcast_blob = serialize(server.global_adapters)
    broadcast = deserialize(broadcast_blob)
    broadcast_bytes = len(broadcast_blob) * len(ordered)

    responders = [c for c in ordered if (round_number, c.id) not in dropouts]
    if not responders:
        raise ValueError(f"all clients failed in round {round_number}")

    trained = []
    for client in responders:
        rng = Rng(server.rng_seed).derive("client", client.id, "round", round_number)
        with _phase(client, "local training"):
            trained.append(train_local(
                server.backbone, client.data, broadcast, rng, learning_rate=server.learning_rate,
                local_epochs=server.local_epochs, batch_size=server.batch_size,
            ))

    per_client = []
    updates = []
    sizes = []
    upload_bytes = 0
    for i, client in enumerate(responders):
        update, train_loss, eval_loss = trained[i]
        trained[i] = None
        rng = Rng(server.rng_seed).derive("privatize", client.id, "round", round_number)
        eps = server.budgets[client.domain]
        with _phase(client, "privatize"):
            private = privatize(update, eps, server.calibration, server.scale_multiplier, rng)
        del update
        payload = serialize(private)
        upload_bytes += len(payload)
        with _phase(client, "upload"):
            updates.append(deserialize(payload))
        sizes.append(client.data.n_train)
        per_client.append(ClientRoundStats(client.id, train_loss, eval_loss))

    new_global = aggregate(updates, sizes)

    pool_datasets = [c.data for c in ordered]
    utilities = metrics_mod.evaluate(model_view(server.backbone, new_global), pool_datasets)

    scale_multiplier, gate_triggered = apply_utility_gate(
        server.scale_multiplier,
        server.calibration.gate_factor,
        utilities,
        server.thresholds,
    )
    budgets = decay_budgets(server.schedule, server.budgets)

    record = RoundRecord(
        round=round_number,
        per_client=tuple(per_client),
        broadcast_bytes=broadcast_bytes,
        upload_bytes=upload_bytes,
        utilities=utilities,
        gate_triggered=gate_triggered,
        scale_multiplier=scale_multiplier,
        budgets=budgets,
    )
    new_server = replace(
        server,
        global_adapters=new_global,
        budgets=budgets,
        round_index=round_number,
        scale_multiplier=scale_multiplier,
    )
    return new_server, record


def run_training(
    server: ServerState,
    clients: Sequence[ClientState],
    rounds: int,
    dropouts: Collection[tuple[int, int]] = frozenset(),
) -> tuple[ServerState, list[RoundRecord]]:
    """Run ``rounds`` sequential federated rounds from the given state.

    A failing round raises ``RoundError``, which carries the records and the
    server state of the rounds completed before it.

    The rounds run with numpy's OpenBLAS on one thread (see
    ``linalg.single_blas_thread``), as set-up in ``config.build_experiment``
    does: no matmul in a run is large enough to gain from a second thread,
    whose spin-waiting roughly doubled the CPU time of every benchmarked run
    and made a set-up gemm about 50x slower on a 2-vCPU host, and one thread
    keeps results independent of the core count. The previous thread count
    is back when this returns or raises.

    Floating-point overflow and invalid operations raise no numpy warning in
    the rounds: a client that diverges fails its round once, with the
    ``AdapterSet`` finiteness error naming the round, client and phase.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    records: list[RoundRecord] = []
    with single_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(rounds):
            round_number = server.round_index + 1
            try:
                server, record = run_round(server, clients, dropouts)
            except Exception as exc:
                raise RoundError(f"round {round_number}: {exc}", server, records) from exc
            records.append(record)
    return server, records
