"""Aggregation, the round loop, accounting, and determinism."""
from __future__ import annotations

import re
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
    update, _, _ = train_local(
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
        assert {s.client_id for s in record.per_client} == {0, 2}

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
