"""Aggregation, the round loop, accounting, and determinism."""
from __future__ import annotations

import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor import federation, lora
from fedmentor.cli import bytes_to_mb, metrics_csv_lines
from fedmentor.config import PrivacyStrategy, build_experiment, config_from_dict
from fedmentor.data import DomainSpec, make_domain
from fedmentor.dp import BudgetConfig, NoiseCalibration, UnknownDomainError, decay_budgets
from fedmentor.federation import (
    ClientState,
    RoundError,
    ServerState,
    aggregate,
    run_round,
    run_training,
)
from fedmentor.linalg import Rng, ShapeError
from fedmentor.lora import (
    FIXED_HEADER_BYTES,
    LAYER_HEADER_BYTES,
    AdapterSet,
    deserialize,
    serialize,
)
from fedmentor.trainer import BackboneModel, init_adapters, model_view, train_local
from oracles import brute_force_weighted_mean, merged_forward, reference_std, wire_length
from reference import run_plain_fedavg

EPS = {"IRF": 0.5, "Dreaddit": 2.0, "MultiWD": 1.5}
DOMAINS = ("Dreaddit", "IRF", "MultiWD")


def constant_set(value: float, n_layers: int = 2, d: int = 4, k: int = 3, r: int = 2) -> AdapterSet:
    return AdapterSet.from_factors([(np.full((r, k), value), np.full((d, r), value))] * n_layers)


def random_set(rng: Rng, n_layers: int = 2, d: int = 4, k: int = 3, r: int = 2) -> AdapterSet:
    return AdapterSet.from_factors(
        (rng.derive("a", i).standard_normal(r, k), rng.derive("b", i).standard_normal(d, r))
        for i in range(n_layers)
    )


_entries = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def conformable_updates(draw) -> tuple[list[AdapterSet], list[int]]:
    """One to five conformable adapter sets of random shapes, with positive sizes."""
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        d, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        shapes.append((d, k, draw(st.integers(1, min(d, k)))))
    n = draw(st.integers(1, 5))

    def matrix(rows, cols):
        values = draw(st.lists(_entries, min_size=rows * cols, max_size=rows * cols))
        return np.reshape(values, (rows, cols))

    sets = [
        AdapterSet.from_factors([(matrix(r, k), matrix(d, r)) for d, k, r in shapes])
        for _ in range(n)
    ]
    return sets, draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n))


class TestAggregate:
    @settings(max_examples=60, deadline=None)
    @given(conformable_updates())
    def test_entrywise_convex_property(self, case):
        sets, sizes = case
        out = aggregate(sets, sizes)
        for li, (a, b) in enumerate(out.factors()):
            for slot, got in enumerate((a, b)):
                stack = np.stack([s.factors()[li][slot] for s in sets])
                tol = 1e-13 * float(np.max(np.abs(stack)))
                assert np.all(got >= stack.min(axis=0) - tol)
                assert np.all(got <= stack.max(axis=0) + tol)

    @settings(max_examples=60, deadline=None)
    @given(conformable_updates())
    def test_identical_updates_fixed_point_property(self, case):
        sets, sizes = case
        decoded = [deserialize(serialize(sets[0])) for _ in sizes]
        assert aggregate(decoded, sizes) == sets[0]

    def test_unweighted_mean(self):
        out = aggregate([constant_set(0.0), constant_set(2.0)], [10, 10])
        assert out == constant_set(1.0)

    def test_weighted_by_hand(self):
        # sizes (1, 3) over values (0, 4): 0.25*0 + 0.75*4 = 3
        out = aggregate([constant_set(0.0), constant_set(4.0)], [1, 3])
        assert out == constant_set(3.0)

    def test_corpus_size_weights(self):
        # Basis trick: client k holds all-ones, others zero -> output is alpha_k.
        sizes = [3553, 3522, 3281]
        expected = [0.34309, 0.34009, 0.31682]
        for k in range(3):
            sets = [constant_set(1.0 if i == k else 0.0) for i in range(3)]
            out = aggregate(sets, sizes)
            assert out.factors()[0][0][0, 0] == pytest.approx(expected[k], abs=1e-5)

    def test_matches_brute_force_oracle(self):
        rng = Rng(40)
        for case in range(10):
            k = 2 + case % 3
            sets = [random_set(rng.derive("set", case, i)) for i in range(k)]
            sizes = [int(rng.derive("n", case, i).uniform(1)[0] * 100) + 1 for i in range(k)]
            oracle = brute_force_weighted_mean(sets, sizes)
            out = aggregate(sets, sizes)
            for (a, b), (out_a, out_b) in zip(oracle, out.factors()):
                assert np.max(np.abs(out_a - a)) < 1e-12
                assert np.max(np.abs(out_b - b)) < 1e-12

    def test_idempotent_on_identical_updates(self):
        s = random_set(Rng(41))
        out = aggregate([s, s, s], [3553, 3522, 3281])
        assert out == s
        assert serialize(out) == serialize(s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([constant_set(1.0)], [1, 2])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            aggregate([constant_set(1.0), constant_set(2.0)], [1, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            aggregate([constant_set(1.0, d=4), constant_set(1.0, d=5)], [1, 1])

    @settings(max_examples=60, deadline=None)
    @given(conformable_updates())
    def test_one_shot_iterator_equals_list_property(self, case):
        sets, sizes = case
        yielded = []

        def counted():
            for s in sets:
                yielded.append(s)
                yield s

        expected = serialize(aggregate(sets, sizes))
        assert serialize(aggregate(iter(sets), sizes)) == expected
        assert serialize(aggregate(counted(), sizes)) == expected
        assert yielded == sets

    @pytest.mark.parametrize("n_updates, message", [
        (3, "at least 3 updates but 2 sizes"),
        (1, "1 updates but 2 sizes"),
        (0, "0 updates but 2 sizes"),
    ])
    def test_count_mismatch_of_an_iterator_names_both_counts(self, n_updates, message):
        sets = (constant_set(float(i)) for i in range(n_updates))
        with pytest.raises(ValueError, match=re.escape(message)):
            aggregate(sets, [1, 2])


def build_federation(seed: int = 0, n_clients: int = 3, dp_off: bool = False,
                     thresholds: dict | None = None, epochs: int = 1, scale: float = 0.02):
    """Small 3-domain federation for round-loop tests.

    ``dp_off`` gives the server the noise state ``build_experiment`` makes for
    strategy ``off``: sigma 0 everywhere, eps 1.0 with decay rate 0, and no
    thresholds.
    """
    rng = Rng(seed)
    model = BackboneModel.random(rng.derive("model"), 6, 8, 3)
    adapters0 = init_adapters(model, 2, rng.derive("adapters"))
    sizes = {"Dreaddit": 71, "IRF": 70, "MultiWD": 66}
    clients = []
    for i, domain in enumerate(DOMAINS[:n_clients]):
        spec = DomainSpec(
            domain,
            n_train=sizes[domain],
            n_val=12,
            input_dim=6,
            true_weights=tuple(rng.derive("w", domain).standard_normal(1, 6)[0]),
            rotation_angle=0.1 * i,
        )
        clients.append(ClientState(i, domain, make_domain(spec, rng.derive("data", domain))))
    server = ServerState(
        backbone=model,
        global_adapters=adapters0,
        schedule=BudgetConfig(EPS),
        calibration=NoiseCalibration(),
        thresholds=thresholds if thresholds is not None else {"accuracy": 0.0},
        learning_rate=0.3,
        local_epochs=epochs,
        batch_size=16,
        round_index=0,
        rng_seed=seed,
    )
    if dp_off:
        server = replace(
            server,
            schedule=BudgetConfig({d: 1.0 for d in DOMAINS}, decay_rate=0.0),
            calibration=NoiseCalibration(0.0, 0.0, 0.0, multiplier_a=1.0, multiplier_b=1.0),
            thresholds={},
            budgets=None,
        )
    return server, clients


def first_round_update(server: ServerState, client: ClientState):
    """The client's round-1 local update from the server's adapters, backbone and schedule."""
    rng = Rng(server.rng_seed).derive("client", client.id, "round", 1)
    update, _ = train_local(
        server.backbone, client.data, server.global_adapters, rng,
        learning_rate=server.learning_rate,
        local_epochs=server.local_epochs,
        batch_size=server.batch_size,
    )
    return update


class TestRunRound:
    def test_single_client_dp_off_equals_client_update(self):
        server, clients = build_federation(seed=1, n_clients=1, dp_off=True)
        new_server, record = run_round(server, clients)
        expected = first_round_update(server, clients[0])
        assert serialize(new_server.global_adapters) == serialize(expected)
        assert record.round == 1

    def test_three_clients_dp_off_matches_plain_fedavg_bitwise(self):
        server, clients = build_federation(seed=2, dp_off=True)
        final_server, records = run_training(server, clients, 4)

        ref_adapters, ref_records = run_plain_fedavg(
            server, clients, 4, budgets_echo=server.budgets
        )
        assert serialize(final_server.global_adapters) == serialize(ref_adapters)
        assert metrics_csv_lines(records) == metrics_csv_lines(ref_records)
        byte_counts = [(r.broadcast_bytes, r.upload_bytes) for r in records]
        assert byte_counts == [(r.broadcast_bytes, r.upload_bytes) for r in ref_records]

    def test_gate_fires_under_unreachable_threshold(self):
        server, clients = build_federation(seed=3, thresholds={"accuracy": 1.1})
        new_server, record = run_round(server, clients)
        assert record.gate_triggered
        assert record.scale_multiplier == pytest.approx(0.8, abs=0)
        assert new_server.scale_multiplier == pytest.approx(0.8, abs=0)

    def test_gate_silent_with_zero_threshold(self):
        server, clients = build_federation(seed=4, thresholds={"accuracy": 0.0})
        _, record = run_round(server, clients)
        assert not record.gate_triggered
        assert record.scale_multiplier == 1.0

    def test_upload_bytes_equal_payload_accounting(self):
        server, clients = build_federation(seed=5)
        _, record = run_round(server, clients)
        assert record.upload_bytes == 3 * wire_length(server.global_adapters)

    def test_broadcast_counts_every_recipient(self):
        server, clients = build_federation(seed=6)
        _, record = run_round(server, clients)
        assert record.broadcast_bytes == len(serialize(server.global_adapters)) * 3
        assert record.broadcast_bytes == wire_length(server.global_adapters) * 3

    def test_client_order_is_irrelevant(self):
        server, clients = build_federation(seed=7)
        a, rec_a = run_round(server, list(clients))
        b, rec_b = run_round(server, list(reversed(clients)))
        assert serialize(a.global_adapters) == serialize(b.global_adapters)
        assert metrics_csv_lines([rec_a]) == metrics_csv_lines([rec_b])

    def test_failed_client_excluded_and_weights_renormalized(self):
        server, clients = build_federation(seed=9, dp_off=True)
        new_server, record = run_round(server, clients, {(1, clients[1].id)})
        assert record.eval_losses.keys() == {0, 2}

        survivors = [clients[0], clients[2]]
        updates = [first_round_update(server, c) for c in survivors]
        expected = aggregate(updates, [c.data.n_train for c in survivors])
        assert serialize(new_server.global_adapters) == serialize(expected)

    def test_all_clients_failed_is_an_error(self):
        server, clients = build_federation(seed=10, n_clients=1)
        with pytest.raises(ValueError, match="all clients failed"):
            run_round(server, clients, {(1, clients[0].id)})

    def test_unknown_domain_rejected_upfront(self):
        server, clients = build_federation(seed=11)
        server = replace(server, budgets={"Dreaddit": 1.0})
        message = "domain 'IRF' has no budget; known: ['Dreaddit']"
        with pytest.raises(UnknownDomainError, match=re.escape(message)):
            run_round(server, clients)

    def test_client_data_must_match_the_server_backbone_width(self):
        server, clients = build_federation(seed=12, n_clients=2)
        narrow = BackboneModel.random(Rng(12, "narrow"), 5, 8, 3)
        server = replace(server, backbone=narrow, global_adapters=init_adapters(narrow, 2, Rng(12)))
        with pytest.raises(ShapeError, match=re.escape("client 0: data dim 6 vs model dim 5")):
            run_round(server, clients)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", -0.1, "learning_rate must be >= 0, got -0.1"),
            ("learning_rate", math.nan, "learning_rate must be >= 0, got nan"),
            ("local_epochs", -1, "local_epochs must be >= 0, got -1"),
            ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ],
    )
    def test_server_rejects_a_bad_sgd_schedule(self, field, value, message):
        server, _ = build_federation(seed=12, n_clients=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(server, **{field: value})

    def test_server_adapters_must_fit_its_backbone(self):
        server, _ = build_federation(seed=12, n_clients=1)
        other = init_adapters(BackboneModel.random(Rng(12, "other"), 6, 8, 2), 2, Rng(12, "a"))
        with pytest.raises(ShapeError, match="adapter set covers 2 layers, model has 3"):
            replace(server, global_adapters=other)

    def test_duplicate_client_ids_rejected(self):
        server, clients = build_federation(seed=12, n_clients=2)
        twins = [clients[0], clients[0]]
        with pytest.raises(ValueError, match="duplicate"):
            run_round(server, twins)

    def test_round_never_holds_two_sets_of_client_updates(self):
        # Adapters large beside everything else a client touches: 32 clients
        # of one tiny domain, rank half the width. numpy reports its data
        # buffers to tracemalloc; keeping every raw update alive beside every
        # decoded upload peaks at about 2.2 full sets of updates.
        n_clients, width = 32, 64
        rng = Rng(40)
        model = BackboneModel.random(rng.derive("model"), width, width, 2)
        spec = DomainSpec("d", 4, 4, width, (1.0,) + (0.0,) * (width - 1))
        data = make_domain(spec, rng.derive("data"))
        clients = [ClientState(i, "d", data) for i in range(n_clients)]
        adapters = init_adapters(model, width // 2, rng.derive("adapters"))
        server = ServerState(
            model, adapters, BudgetConfig({"d": 1.0}), NoiseCalibration(), {}, 0.1, 1, 4
        )
        tracemalloc.start()
        try:
            run_round(server, clients)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n_clients * adapters.vec.nbytes

    def test_round_memory_does_not_grow_with_its_clients(self):
        # Streaming FedAvg holds a fixed number of adapter sets whatever the
        # client count; keeping one upload per client would add 56 sets from
        # 8 clients to 64.
        small, set_bytes = round_peak(8)
        large, _ = round_peak(64)
        assert large - small < 2 * set_bytes


def round_peak(n_clients: int, local_epochs: int = 1) -> tuple[int, int]:
    """A round's tracemalloc peak and one adapter set's bytes, for clients shaped
    like the many_clients benchmark: 3 layers, width 128, rank 8 and 35
    training rows each, so one adapter set (42 KiB) is large beside one
    client's data."""
    names = [f"client{i:02d}" for i in range(n_clients)]
    cfg = config_from_dict({
        "rounds": 1, "local_epochs": local_epochs,
        "model": {"n_layers": 3, "input_dim": 32, "hidden_dim": 128, "rank": 8},
        "data": {"scale": 0.01, "domains": names,
                 "overrides": {n: {"n_train": 35} for n in names}},
        "budgets": {"entries": {n: 1.0 for n in names}},
    })
    exp = build_experiment(cfg)
    tracemalloc.start()
    try:
        run_round(exp.server, exp.clients)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, exp.server.global_adapters.vec.nbytes


class TestBudgetState:
    def test_current_budgets_start_at_the_schedule_entries(self):
        server, _ = build_federation(seed=14)
        assert server.budgets == EPS
        assert server.budgets is not server.schedule.entries

    def test_a_round_decays_the_budgets_and_keeps_the_schedule(self):
        server, clients = build_federation(seed=15)
        new_server, record = run_round(server, clients)
        assert new_server.schedule is server.schedule
        assert new_server.budgets == record.budgets == decay_budgets(server.schedule, EPS)
        assert server.budgets == EPS

    def test_noise_follows_the_current_budget(self):
        # A server whose current IRF budget differs from its schedule noises with the current one.
        server, clients = build_federation(seed=16, n_clients=2, thresholds={"accuracy": 0.0})
        moved = replace(server, budgets={**server.budgets, "IRF": 4.0})
        round_1 = run_round(moved, clients)[0].global_adapters
        # budgets=None restarts the current budgets from the new schedule's entries.
        reference = replace(server, schedule=BudgetConfig({**EPS, "IRF": 4.0}), budgets=None)
        assert serialize(round_1) == serialize(run_round(reference, clients)[0].global_adapters)
        assert serialize(round_1) != serialize(run_round(server, clients)[0].global_adapters)


class TestRunTraining:
    def test_budget_trace_follows_decay(self):
        server, clients = build_federation(seed=13)
        _, records = run_training(server, clients, 8)
        # records[r-1] holds the post-decay budgets of round r
        for r, record in enumerate(records, start=1):
            assert record.budgets["Dreaddit"] == pytest.approx(2.0 * 0.9**r, rel=1e-12)
        # budget in effect at the start of round 8 is 2.0 * 0.9^7
        assert records[6].budgets["Dreaddit"] == pytest.approx(2.0 * 0.9**7, rel=1e-12)

    def test_comm_total_is_rounds_times_fixed_payload(self):
        server, clients = build_federation(seed=14)
        _, records = run_training(server, clients, 5)
        per_round = 6 * wire_length(server.global_adapters)  # 3 broadcast copies + 3 uploads
        assert all(r.broadcast_bytes + r.upload_bytes == per_round for r in records)
        total = sum(r.broadcast_bytes + r.upload_bytes for r in records)
        assert bytes_to_mb(total) == 5 * per_round / (1024 * 1024)

    def test_round_indices_advance_by_one(self):
        server, clients = build_federation(seed=15)
        final_server, records = run_training(server, clients, 3)
        assert [r.round for r in records] == [1, 2, 3]
        assert final_server.round_index == 3

    def test_same_seed_same_csv_bytes(self):
        server, clients = build_federation(seed=16)
        _, records_a = run_training(server, clients, 3)
        server2, clients2 = build_federation(seed=16)
        _, records_b = run_training(server2, clients2, 3)
        assert metrics_csv_lines(records_a) == metrics_csv_lines(records_b)

    def test_metrics_csv_header_and_a_dropped_clients_empty_cell(self):
        server, clients = build_federation(seed=19)
        _, records = run_training(server, clients, 2, {(2, 1)})
        lines = metrics_csv_lines(records)
        assert lines[0] == (
            "round,client0_eval_loss,client1_eval_loss,client2_eval_loss,"
            "broadcast_bytes,upload_bytes,total_comm_bytes,accuracy,neg_eval_loss,"
            "gate_triggered,scale_multiplier,budget_Dreaddit,budget_IRF,budget_MultiWD"
        )
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [row["round"] for row in rows] == ["1", "2"]
        assert rows[1]["client1_eval_loss"] == ""
        assert rows[0]["client1_eval_loss"] == str(records[0].eval_losses[1])
        assert rows[1]["client2_eval_loss"] == str(records[1].eval_losses[2])

    def test_round_errors_carry_round_number(self):
        server, clients = build_federation(seed=17, n_clients=1)
        with pytest.raises(RoundError, match="round 2") as info:
            run_training(server, clients, 3, {(2, clients[0].id)})
        assert [r.round for r in info.value.records] == [1]
        assert info.value.server.round_index == 1

    @settings(max_examples=6, deadline=None)  # 3! orders
    @given(st.permutations(range(3)))
    def test_client_order_is_irrelevant_over_rounds_property(self, order):
        server, clients = build_federation(seed=28)
        final, records = run_training(server, clients, 2)
        shuffled_final, shuffled_records = run_training(server, [clients[i] for i in order], 2)
        assert serialize(shuffled_final.global_adapters) == serialize(final.global_adapters)
        assert metrics_csv_lines(shuffled_records) == metrics_csv_lines(records)

    def test_rounds_run_on_one_blas_thread(self, blas_threads, monkeypatch):
        get, outside = blas_threads
        seen = []
        real_run_round = federation.run_round

        def observing(*args, **kwargs):
            seen.append(get())
            return real_run_round(*args, **kwargs)

        monkeypatch.setattr(federation, "run_round", observing)
        server, clients = build_federation(seed=26)
        run_training(server, clients, 2)
        assert seen == [1, 1]
        assert get() == outside

    def test_blas_threads_restored_when_a_round_fails(self, blas_threads, monkeypatch):
        get, outside = blas_threads
        seen = []

        def failing(*args, **kwargs):
            seen.append(get())
            raise ValueError("injected")

        monkeypatch.setattr(federation, "run_round", failing)
        server, clients = build_federation(seed=27)
        with pytest.raises(RoundError, match="round 1: injected"):
            run_training(server, clients, 2)
        assert seen == [1]
        assert get() == outside

    def test_corrupted_upload_names_round_client_domain_and_phase(self, monkeypatch):
        header_1 = FIXED_HEADER_BYTES + LAYER_HEADER_BYTES
        corruptions = {
            "trailing byte": lambda blob: blob + b"\x00",
            # Layer 1's header claims index 0, so the payload repeats a layer index.
            "duplicate layer index": lambda blob: blob[:header_1] + bytes(4) + blob[header_1 + 4:],
        }
        for name, corrupt in corruptions.items():
            server, clients = build_federation(seed=25)
            real_serialize = lora.serialize
            calls = []

            def corrupting(adapters):
                calls.append(adapters)
                blob = real_serialize(adapters)
                # Call 1 is round 1's broadcast; calls 2 and 3 are the uploads of clients 0 and 1.
                return corrupt(blob) if len(calls) == 3 else blob

            monkeypatch.setattr(federation, "serialize", corrupting)
            with pytest.raises(RoundError) as info:
                run_training(server, clients, 2)
            message = str(info.value)
            for part in ("round 1", "client 1", "IRF", "upload"):
                assert part in message, (name, message)
            assert info.value.records == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_privatize_failure_names_round_client_domain_and_phase(self):
        # At eps 0.5 an early std of 1e308 overflows to inf for every client.
        cfg = config_from_dict({
            "rounds": 1, "data": {"scale": 0.02}, "calibration": {"early": 1.0e308},
            "strategy": {"kind": "uniform", "eps_glob": 0.5},
        })
        exp = build_experiment(cfg)
        with pytest.raises(RoundError) as info:
            run_training(exp.server, exp.clients, cfg.rounds)
        assert str(info.value).startswith("round 1: client 0 (Dreaddit): privatize: entry")
        assert type(info.value.__cause__) is ValueError
        assert info.value.records == []

    # An escalated numpy RuntimeWarning would itself fail the round, under
    # its own message: the run must fail on the finiteness check alone.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_round_client_domain_and_phase(self):
        from fedmentor.config import build_experiment, config_from_dict

        cfg = config_from_dict(
            {"learning_rate": 50.0, "data": {"overrides": {"IRF": {"n_train": 5}}}}
        )
        exp = build_experiment(cfg)
        with pytest.raises(RoundError) as info:
            run_training(exp.server, exp.clients, cfg.rounds)
        message = str(info.value)
        for part in ("round 4", "client 0", "Dreaddit", "local training: entry"):
            assert part in message
        assert type(info.value.__cause__) is ValueError
        assert len(info.value.records) == 3

    def test_invalid_round_count(self):
        server, clients = build_federation(seed=18)
        with pytest.raises(ValueError):
            run_training(server, clients, 0)

    def test_early_a_std_nondecreasing_when_gate_off(self):
        server, clients = build_federation(seed=19, thresholds={"accuracy": 0.0})
        _, records = run_training(server, clients, 10)
        for domain in EPS:
            stds = [
                reference_std(server.calibration, "early", "A", r.budgets[domain], 1.0)
                for r in records
            ]
            assert all(b >= a for a, b in zip(stds, stds[1:]))


class TestStrategies:
    @staticmethod
    def _run(seed: int, rounds: int, strategy: dict):
        # With the default accuracy threshold 0.8 the domain_aware gate fires
        # in every round of these runs (accuracy 0.38 and 0.52).
        cfg = config_from_dict({"seed": seed, "data": {"scale": 0.02}, "strategy": strategy})
        exp = build_experiment(cfg)
        return run_training(exp.server, exp.clients, rounds)

    def test_static_noise_leaves_budgets_and_multiplier_alone(self):
        _, records = self._run(20, 3, {"kind": "static_noise", "sigma": 0.008})
        for record in records:
            assert record.budgets == {d: 1.0 for d in DOMAINS}
            assert record.scale_multiplier == 1.0
            assert not record.gate_triggered

    def test_off_strategy_adds_no_noise_and_never_gates(self):
        _, records = self._run(21, 2, {"kind": "off"})
        assert all(not r.gate_triggered for r in records)
        assert all(r.scale_multiplier == 1.0 for r in records)

    @pytest.mark.parametrize(
        "kind, name",
        [("uniform", "eps_glob"), ("static_noise", "sigma"), ("utility_threshold", "tau")],
    )
    def test_non_number_is_named_as_the_config_walk_names_it(self, kind, name):
        with pytest.raises(TypeError) as info:
            PrivacyStrategy(kind, **{name: "1"})
        assert str(info.value) == f"{name}: expected float, got '1'"

    def test_uniform_requires_eps(self):
        with pytest.raises(ValueError):
            PrivacyStrategy(kind="uniform")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_uniform_eps_glob_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="eps_glob"):
            PrivacyStrategy(kind="uniform", eps_glob=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, None])
    def test_static_sigma_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            PrivacyStrategy(kind="static_noise", sigma=bad)
        PrivacyStrategy(kind="static_noise", sigma=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PrivacyStrategy(kind="bogus")


class TestGlobalModel:
    def test_merged_weights_reproduce_factored_forward(self):
        server, clients = build_federation(seed=23)
        new_server, _ = run_round(server, clients)
        xs = Rng(23, "probe").standard_normal(15, 6)
        via_merged = merged_forward(new_server.backbone, new_server.global_adapters, xs)
        via_factored = model_view(new_server.backbone, new_server.global_adapters)(xs)
        assert np.max(np.abs(via_merged - via_factored)) < 1e-12

    def test_identical_updates_fixed_point(self):
        s = random_set(Rng(24), n_layers=3, d=8, k=6, r=2)
        out = aggregate([s, s], [5, 7])
        assert out == s


def wide_federation(seed: int, n_clients: int, epochs: int = 1):
    """``build_federation`` on a 2-layer backbone of width 192, above ``HELPER_MIN_ENTRIES``.

    Clients past the third repeat the domains, each with data of its own and
    more training rows than any client before it.
    """
    server, clients = build_federation(seed=seed, n_clients=min(n_clients, 3), epochs=epochs)
    for i in range(3, n_clients):
        rng = Rng(seed, "client", i)
        spec = DomainSpec(DOMAINS[i % 3], n_train=60 + 9 * i, n_val=12, input_dim=6,
                          true_weights=tuple(rng.derive("w").standard_normal(1, 6)[0]),
                          rotation_angle=0.1 * i)
        clients.append(ClientState(i, spec.domain, make_domain(spec, rng.derive("data"))))
    model = BackboneModel.random(Rng(seed, "wide"), 6, 192, 2)
    server = replace(server, backbone=model,
                     global_adapters=init_adapters(model, 2, Rng(seed, "wide-adapters")))
    return server, clients


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count the round sees: ``cpus(2)`` allows the helper on any host."""
    def set_cpus(n: int):
        affinity = set(range(n))
        monkeypatch.setattr(federation.os, "sched_getaffinity", lambda pid: affinity, raising=False)

    return set_cpus


def failing_for(monkeypatch, ids, clients, **train_kwargs):
    """``federation.train_local`` fails (or, with ``train_kwargs``, trains so) for ``ids``' data.

    Without ``train_kwargs`` every other client's first unit starts 50 ms
    late, so a client that fails on one thread does so while the other
    still trains.
    """
    real = federation.train_local
    marked = [clients[i].data for i in ids]

    def train(model, data, adapters, rng, **kwargs):
        if any(data is d for d in marked):
            if not train_kwargs:
                raise ValueError("injected")
            kwargs.update(train_kwargs)
        elif not train_kwargs and kwargs["epochs"].start == 0:
            time.sleep(0.05)
        return real(model, data, adapters, rng, **kwargs)

    monkeypatch.setattr(federation, "train_local", train)


NAMES = {2: "two", 3: "three", 4: "four", 5: "five"}


class TestTwoAtATime:
    @pytest.mark.parametrize("n_clients, epochs, dropouts", [
        *(pytest.param(n, e, set(), id=name if e == 1 else f"{name}-{e}-epochs")
          for n, name in NAMES.items() for e in (1, 2, 3)),
        pytest.param(3, 1, {(1, 1)}, id="dropout"),
        pytest.param(5, 2, {(1, 0), (2, 3)}, id="dropout-five-2-epochs"),
    ])
    def test_helper_keeps_every_bit(self, cpus, n_clients, epochs, dropouts):
        runs = []
        for n in (2, 1):
            cpus(n)
            server, clients = wide_federation(40 + n_clients, n_clients, epochs)
            final, records = run_training(server, clients, 2, dropouts)
            runs.append((serialize(final.global_adapters), metrics_csv_lines(records)))
        assert runs[0] == runs[1]

    def test_bits_hold_under_fast_thread_switching(self, cpus, monkeypatch):
        # A lost update to the shared schedule would retrain, skip or hang a
        # unit; switching threads every microsecond makes one likely.
        real, units, runs, interval = federation.train_local, [], [], sys.getswitchinterval()

        def spy(model, data, adapters, rng, *, epochs, **kwargs):
            units.extend((next(c.id for c in clients if c.data is data), e) for e in epochs)
            return real(model, data, adapters, rng, epochs=epochs, **kwargs)

        monkeypatch.setattr(federation, "train_local", spy)
        for n in (2, 1):
            cpus(n)
            server, clients = wide_federation(51, 5, epochs=3)
            sys.setswitchinterval(1e-6)
            try:
                final, records = run_training(server, clients, 2)
            finally:
                sys.setswitchinterval(interval)
            runs.append((serialize(final.global_adapters), metrics_csv_lines(records)))
            assert sorted(units) == sorted([(c, e) for c in range(5) for e in range(3)] * 2)
            units.clear()
        assert runs[0] == runs[1]

    def test_train_local_runs_on_two_threads(self, cpus, monkeypatch):
        # One call per (client, epoch) unit. A free worker takes the client
        # with the most epochs left, so c2's first epoch starts before c0's
        # last one, whichever worker frees first.
        cpus(2)
        server, clients = wide_federation(44, 3, epochs=2)
        real, starts, threads = federation.train_local, [], set()

        def spy(model, data, adapters, rng, *, epochs, **kwargs):
            starts.append((next(c.id for c in clients if c.data is data), tuple(epochs)))
            threads.add(threading.get_ident())
            return real(model, data, adapters, rng, epochs=epochs, **kwargs)

        monkeypatch.setattr(federation, "train_local", spy)
        run_training(server, clients, 1)
        assert sorted(starts) == [(c, (e,)) for c in range(3) for e in range(2)]
        assert len(threads) == 2
        assert starts.index((2, (0,))) < starts.index((0, (1,)))

    @pytest.mark.parametrize("failing, named", [
        ([0], "client 0 (Dreaddit)"), ([1], "client 1 (IRF)"), ([0, 1], "client 0 (Dreaddit)"),
    ])
    def test_failure_names_round_client_domain_and_phase(self, cpus, monkeypatch, failing, named):
        cpus(2)
        server, clients = wide_federation(45, 3)
        failing_for(monkeypatch, failing, clients)
        start = threading.active_count()
        with pytest.raises(RoundError) as info:
            run_training(server, clients, 2)
        assert str(info.value) == f"round 1: {named}: local training: injected"
        assert threading.active_count() == start

    def test_lowest_failing_id_is_named_though_a_higher_one_fails_first(self, cpus, monkeypatch):
        cpus(2)
        server, clients = wide_federation(49, 3, epochs=2)
        real, started, failed = federation.train_local, [], []

        def train(model, data, adapters, rng, *, epochs, **kwargs):
            client = next(c.id for c in clients if c.data is data)
            started.append(client)
            if client == 1:
                failed.append(client)
                raise ValueError("first in time")
            time.sleep(0.05)  # client 1 fails while client 0's first epoch runs
            if client == 0 and epochs.start == 1:
                failed.append(client)
                raise ValueError("injected")
            return real(model, data, adapters, rng, epochs=epochs, **kwargs)

        monkeypatch.setattr(federation, "train_local", train)
        start = threading.active_count()
        with pytest.raises(RoundError) as info:
            run_training(server, clients, 1)
        assert str(info.value) == "round 1: client 0 (Dreaddit): local training: injected"
        assert failed == [1, 0]
        assert sorted(started) == [0, 0, 1]  # no unit of client 2 starts
        assert threading.active_count() == start

    def test_no_thread_outlives_a_run(self, cpus):
        cpus(2)
        server, clients = wide_federation(46, 3)
        start = threading.active_count()
        run_training(server, clients, 2)
        assert threading.active_count() == start

    def test_no_thread_outlives_a_fold_that_fails(self, cpus, monkeypatch):
        # aggregate rejects client 1's decoded upload while the helper still
        # has units to train or waits for them; closing the stream joins it.
        cpus(2)
        server, clients = wide_federation(50, 4, epochs=2)
        real, calls = federation.deserialize, []

        def decode(blob):  # call 1 decodes the broadcast, call 3 client 1's upload
            calls.append(blob)
            return constant_set(1.0) if len(calls) == 3 else real(blob)

        monkeypatch.setattr(federation, "deserialize", decode)
        start = threading.active_count()
        with pytest.raises(RoundError, match="round 1: updates are not conformable") as info:
            run_training(server, clients, 1)
        assert threading.active_count() == start, info  # while the error is still held

    def test_round_memory_does_not_grow_with_its_clients(self, cpus, monkeypatch):
        # The window holds at most three clients in flight, so 20 more clients
        # add no adapter sets; keeping one per client would add 20. The bound
        # leaves room for timing: when units end while an upload is folded,
        # up to about 1.3 sets more overlap. (Three clients read about 2 sets
        # lower than four or more: all three train before the fold holds its
        # first upload and running sum.)
        cpus(2)
        monkeypatch.setattr(federation, "HELPER_MIN_ENTRIES", 1)
        small, set_bytes = round_peak(4, local_epochs=2)
        large, _ = round_peak(24, local_epochs=2)
        assert large - small < 4 * set_bytes

    # The helper runs in a copy of the round's context, so run_training's
    # np.errstate reaches it: a diverging helper client fails on the
    # finiteness check alone, not on an escalated RuntimeWarning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_on_the_helper_warns_nothing(self, cpus, monkeypatch):
        cpus(2)
        server, clients = wide_federation(47, 2)
        failing_for(monkeypatch, [1], clients, learning_rate=1e100)
        with pytest.raises(RoundError) as info:
            run_training(server, clients, 1)
        assert str(info.value).startswith("round 1: client 1 (IRF): local training: entry")

    def test_selection(self, cpus, monkeypatch):
        wide = wide_federation(48, 2)[0].backbone
        narrow = BackboneModel.random(Rng(48), 6, 128, 3)  # 16,384 weights per layer
        cpus(2)
        assert federation._two_at_a_time(wide, 2)
        assert not federation._two_at_a_time(wide, 1)
        assert not federation._two_at_a_time(narrow, 2)
        cpus(1)
        assert not federation._two_at_a_time(wide, 2)
        monkeypatch.delattr(federation.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(federation.os, "cpu_count", lambda: None)
        assert not federation._two_at_a_time(wide, 2)
