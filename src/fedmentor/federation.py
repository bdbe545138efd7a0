"""The round engine: broadcast, train, privatize, aggregate, gate, decay.

It does no file I/O: the rounds return records, and ``cli`` writes them, with
the final adapters, into the run directory.

One round executes, in order: encode the global adapters and decode that
broadcast, train each responding client from the decoded adapters, privatize
each update under its domain's current budget, encode it as the client's
upload, decode every upload on the server and aggregate the decoded sets
with dataset-size weights, evaluate utility proxies on the pool of every
client's own validation split (a client that dropped out this round
included), apply the utility gate, and decay the budgets. Adapters travel
only through the wire format, and the round's byte counts are the lengths
of those payloads (the broadcast once per recipient).
Aggregation always consumes results sorted by client id, so client
declaration order cannot change a single bit of the outcome.

A client is its id, domain and data: the server holds the backbone and the
local-SGD schedule once. A failure in local training, privatize or upload
names the client, its domain and the phase.

The round streams its clients through FedAvg: ``aggregate`` draws one
responder at a time, in id order, from a generator that privatizes, encodes
and decodes it once it and every lower id have trained, and folds the upload
into its running sum. Training runs in units: a ``train_local`` call over
some of a client's epochs, on its working vector and the workspace its
worker holds for the round. After a client's last unit, that worker builds
the client's update from the vector and its validation loss in the same
workspace. The main thread is a worker; with a backbone layer of at least
``HELPER_MIN_ENTRIES`` weights, two or more responders and two CPUs
allowed, a helper thread is a second, and a unit is one epoch, not all. A
free worker takes, of the first 2 x workers - 1 unfolded responders, the
one with the most epochs left that no worker runs, the lowest id on a tie.
So one worker trains in id order, and at most three clients are in flight,
however many respond. A unit's bits depend on the client's vector, data
and epoch stream and the broadcast, never on its worker, and BLAS runs on
one thread in each. Once a unit fails, no higher id starts one, and the
fold raises the lowest failing id's error.

The gate's multiplier and each domain's current budget are round state in
``ServerState``; the decay schedule, a ``dp.BudgetConfig``, does not change
during a run. The round loop has no strategy branch:
``config.build_experiment`` turns the run's privacy strategy into the
starting state's calibration, schedule and thresholds, so every round
privatizes every upload with ``dp.privatize`` and runs the gate and the decay.
"""
from __future__ import annotations

import contextvars
import os
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from threading import Condition, Thread
from typing import Collection, Iterable, Mapping, Sequence

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
from .trainer import (BackboneModel, _check_conformable, cross_entropy, model_view, train_local,
                      workspace)

__all__ = [
    "ClientState",
    "ServerState",
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
            if not getattr(self, name) >= least:  # also rejects NaN
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        _check_conformable(self.backbone, self.global_adapters)
        object.__setattr__(self, "thresholds", dict(self.thresholds))
        start = self.schedule.entries if self.budgets is None else self.budgets
        object.__setattr__(self, "budgets", dict(start))


@dataclass(frozen=True)
class RoundRecord:
    round: int  # 1-based
    eval_losses: Mapping[int, float]  # responders' validation losses, by client id
    broadcast_bytes: int
    upload_bytes: int
    utilities: Mapping[str, float]
    gate_triggered: bool
    scale_multiplier: float
    budgets: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "eval_losses", dict(self.eval_losses))
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


def aggregate(updates: Iterable[AdapterSet], train_sizes: Sequence[int]) -> AdapterSet:
    """Dataset-weighted FedAvg: entrywise convex combination of update vectors.

    Weights are train_sizes normalized to sum to one; the adapter vectors are
    summed with their weights left to right, in iteration order. ``updates``
    is consumed once, one at a time, keeping only the first update and the
    running sum, so it may be a generator that makes each update on demand.
    """
    for size in train_sizes:
        if size <= 0:
            raise ValueError(f"train sizes must be positive, got {size}")
    total = float(sum(train_sizes))
    weights = [s / total for s in train_sizes]

    first = acc = None
    all_equal = True
    count = 0
    for count, u in enumerate(updates, 1):
        if count > len(weights):
            raise ValueError(f"at least {count} updates but {len(weights)} sizes")
        if first is None:
            first, acc = u, weights[0] * u.vec
            continue
        if not first.conformable_with(u):
            raise ShapeError("updates are not conformable")
        all_equal = all_equal and u == first
        acc += weights[count - 1] * u.vec  # the same IEEE add as acc = acc + w * u
    if not weights:
        raise ValueError("aggregate needs at least one update")
    if count != len(weights):
        raise ValueError(f"{count} updates but {len(weights)} sizes")
    assert abs(sum(weights) - 1.0) < 1e-12
    # Identical updates are returned verbatim: a convex combination of equal
    # points is that point, and rounding the weighted sum must not break it.
    return first if all_equal else AdapterSet(first.shapes, acc)


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


# Measured in-process, best of 5, on a 2-vCPU host, for id-order pairs: with
# the helper, runs shaped like the wide_model benchmark got slower at hidden
# width 128 (16,384 weights per layer; 224 -> 234-273 ms) and faster at 192
# (36,864; 525 -> 411-424 ms) and 256 (65,536; 852-873 -> 679-720 ms). With
# epoch units: 236 -> 240 ms at 128, 629 -> 505 ms at 192. 2**15 lies between.
HELPER_MIN_ENTRIES = 2**15


def _two_at_a_time(backbone: BackboneModel, responders: int) -> bool:
    """Whether a round trains on two workers: the main thread and a helper thread."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    widest = max(w.rows * w.cols for w in backbone.layers)
    return responders >= 2 and cpus >= 2 and widest >= HELPER_MIN_ENTRIES


@dataclass
class _Training:
    """A responder's training in a round: its vector until its last unit ends or one raises."""

    next_epoch: int = 0
    vec: np.ndarray | None = None
    busy: bool = False
    result: tuple[AdapterSet, float] | None = None
    error: BaseException | None = None


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

    eval_losses = {}
    upload_bytes = 0

    def upload(client: ClientState, done: _Training) -> AdapterSet:
        """Take ``done``'s update, privatize and encode it; return the server's decoding."""
        nonlocal upload_bytes
        with _phase(client, "local training"):
            if done.error is not None:
                raise done.error
        (update, eval_losses[client.id]), done.result = done.result, None
        rng = Rng(server.rng_seed).derive("privatize", client.id, "round", round_number)
        eps = server.budgets[client.domain]
        with _phase(client, "privatize"):
            private = privatize(update, eps, server.calibration, server.scale_multiplier, rng)
        del update
        payload = serialize(private)
        upload_bytes += len(payload)
        with _phase(client, "upload"):
            return deserialize(payload)

    def uploads():
        workers = 2 if _two_at_a_time(server.backbone, len(responders)) else 1
        n_epochs, todo, cond = server.local_epochs, [_Training() for _ in responders], Condition()
        head, stop = 0, len(responders)  # the lowest position not folded; the lowest failed one
        rows = max(c.data.n_train for c in responders)
        sizes = (min(server.batch_size, rows), (rows, server.backbone.input_dim))

        def next_unit(folds: bool) -> int | None:
            """Wait for a unit, mark its position busy and return it; or return None once
            the head is ready to fold (``folds``), marking it busy, or no unit is left."""
            with cond:
                while head < len(responders):
                    if folds and (todo[head].result or todo[head].error):
                        todo[head].busy = True
                        break
                    free = [i for i in range(head, min(head + 2 * workers - 1, stop))
                            if not todo[i].busy and todo[i].result is None]
                    if free:  # the most epochs left, then the lowest id
                        i = min(free, key=lambda i: (todo[i].next_epoch, i))
                        todo[i].busy = True
                        return i
                    cond.wait()
            return None

        def run(i: int, work) -> None:
            """Train position ``i``'s next unit in ``work`` and record how it ended."""
            nonlocal stop
            t, client = todo[i], responders[i]
            end = n_epochs if workers == 1 else min(t.next_epoch + 1, n_epochs)
            if t.vec is None:
                t.vec = np.array(broadcast.vec)
            rng = Rng(server.rng_seed).derive("client", client.id, "round", round_number)
            result = error = None
            try:
                train_local(
                    server.backbone, client.data, broadcast, rng, vec=t.vec, work=work,
                    epochs=range(t.next_epoch, end), learning_rate=server.learning_rate,
                    batch_size=server.batch_size,
                )
                if end == n_epochs:  # the client's update and its validation loss
                    update = AdapterSet(broadcast.shapes, t.vec)
                    logits = model_view(server.backbone, update, work.effs)(client.data.val_x)
                    result = update, float(np.mean(cross_entropy(logits, client.data.val_y)))
            except BaseException as exc:  # raised by the fold, in id order
                error = exc
            with cond:
                t.busy, t.next_epoch, t.result, t.error = False, end, result, error
                if result is not None:
                    t.vec = None
                if error is not None:
                    stop = min(stop, i)  # no unit of a higher id starts
                cond.notify_all()
            if error is not None and not isinstance(error, Exception):
                raise error

        def help_train() -> None:
            work = workspace(server.backbone, broadcast.shapes, *sizes)
            while (i := next_unit(False)) is not None:
                run(i, work)

        # The helper runs in a copy of this context, so np.errstate reaches it.
        helper = Thread(target=contextvars.copy_context().run, args=(help_train,), daemon=True)
        try:
            if workers == 2:
                helper.start()
            work = workspace(server.backbone, broadcast.shapes, *sizes)
            for client, done in zip(responders, todo):
                while (i := next_unit(True)) is not None:
                    run(i, work)
                yield upload(client, done)
                with cond:
                    head += 1
                    cond.notify_all()
        finally:
            with cond:
                head = len(responders)  # the helper starts no unit after this
                cond.notify_all()
            if helper.is_alive():
                helper.join()

    with closing(uploads()) as stream:
        new_global = aggregate(stream, [c.data.n_train for c in responders])

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
        eval_losses=eval_losses,
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
    is back when this returns or raises. The count is process-wide, so the
    helper thread that trains a round's epoch units beside the main thread
    (module docstring) runs its BLAS on one thread too; no helper thread
    outlives its round.

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
