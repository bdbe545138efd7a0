"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion alongside the pytest verdicts. Tolerances are stated inline next
to every assertion.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from fedmentor.cli import BYTES_PER_MB, bytes_to_mb, write_metrics_csv
from fedmentor.config import PrivacyStrategy, RunConfig, build_experiment, config_from_dict
from fedmentor.data import Dataset
from fedmentor.dp import NoiseCalibration, privatize
from fedmentor.federation import aggregate, run_training
from fedmentor.linalg import Rng
from fedmentor.lora import AdapterSet, serialize
from fedmentor.metrics import ACCURACY, evaluate
from fedmentor.trainer import BackboneModel
from oracles import (
    brute_force_weighted_mean,
    fd_gradient_check,
    randomized_adapters,
    reference_band,
    reference_std,
    wire_length,
    zero_adapters,
)
from reference import run_centralized_sgd, run_plain_fedavg


def report(criterion: int, description: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS — {description}")


def test_criterion_01_noise_calibration_statistics():
    """Sample std within 2% of sigma_l(w)/eps for all 18 calibration cells."""
    started = time.perf_counter()
    cal = NoiseCalibration()
    # One layer per position; every matrix holds 1e5 entries (500x200 / 200x500).
    zero = zero_adapters([(200, 500, 500)] * 3)
    for eps in (0.5, 1.5, 2.0):
        noised = privatize(zero, eps, cal, 1.0, Rng(2026, "cal", str(eps)))
        for li, (a, b) in enumerate(noised.factors()):
            band = reference_band(li, 3)
            for kind, arr in (("A", a), ("B", b)):
                assert arr.size == 100_000
                expected = reference_std(cal, band, kind, eps, 1.0)
                observed = float(arr.std())
                assert abs(observed - expected) / expected < 0.02, (
                    f"{band}/{kind}/eps={eps}: {observed} vs {expected}"
                )
    # Spot-check the flagship cell: early/A at eps 0.5 targets 0.024.
    assert reference_std(cal, "early", "A", 0.5, 1.0) == pytest.approx(0.024)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    report(1, f"18 calibration cells within 2% (elapsed {elapsed:.2f}s < 10s)")


def test_criterion_02_fedavg_brute_force_oracle():
    """aggregate matches an elementwise weighted mean within 1e-12 on 100 cases."""
    rng = Rng(7, "agg-oracle")
    worst = 0.0
    for case in range(100):
        k = 2 + case % 4
        sets = []
        for i in range(k):
            r = rng.derive("set", case, i)
            sets.append(
                AdapterSet.from_factors(
                    (
                        r.derive("a", li).standard_normal(2, 3),
                        r.derive("b", li).standard_normal(4, 2),
                    )
                    for li in range(2)
                )
            )
        sizes = [1 + int(rng.derive("n", case, i).uniform(1)[0] * 5000) for i in range(k)]
        out = aggregate(sets, sizes)
        oracle = brute_force_weighted_mean(sets, sizes)
        for (a, b), (out_a, out_b) in zip(oracle, out.factors()):
            worst = max(worst, float(np.max(np.abs(out_a - a))), float(np.max(np.abs(out_b - b))))
    assert worst < 1e-12, f"worst absolute deviation {worst:.2e}"
    report(2, f"100 aggregate instances, worst |dev| {worst:.1e} < 1e-12")


def test_criterion_03_dp_off_byte_equivalence(tmp_path):
    """strategy=off pipeline is byte-identical to the plain-FedAvg path."""
    cfg = config_from_dict({"rounds": 8, "seed": 4, "strategy": {"kind": "off"}})
    exp = build_experiment(cfg)
    server, records = run_training(exp.server, exp.clients, cfg.rounds)
    write_metrics_csv(records, tmp_path / "pipeline.csv")
    (tmp_path / "pipeline.bin").write_bytes(serialize(server.global_adapters))

    ref_adapters, ref_records = run_plain_fedavg(
        exp.server, list(exp.clients), cfg.rounds, budgets_echo=exp.server.budgets,
    )
    write_metrics_csv(ref_records, tmp_path / "reference.csv")
    (tmp_path / "reference.bin").write_bytes(serialize(ref_adapters))

    assert (tmp_path / "pipeline.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "pipeline.bin").read_bytes() == (tmp_path / "reference.bin").read_bytes()
    report(3, "8-round, 3-client DP-off run byte-identical to plain FedAvg")


def test_criterion_04_gradient_finite_differences():
    """Every adapter-gradient entry within 1e-5 relative of central FD, 20 models."""
    worst = 0.0
    for model_idx in range(20):
        rng = Rng(100 + model_idx, "fd")
        model = BackboneModel.random(rng.derive("model"), 4, 5, 2)
        adapters = randomized_adapters(model, 2, rng.derive("adapters"))
        xs = rng.derive("x").standard_normal(6, 4)
        ys = (rng.derive("y").uniform(6) > 0.5).astype(np.int64)
        worst = max(worst, fd_gradient_check(model, adapters, xs, ys, h=1e-5, rel_tol=1e-5))
    report(4, f"20 two-layer rank-2 models, worst relative FD error {worst:.1e} < 1e-5")


def test_criterion_05_communication_arithmetic():
    """3 x 16.56 MB/round totals 49.68 MB, within 0.1% of the reported 49.69."""
    per_client_bytes = int(16.56 * BYTES_PER_MB)
    total_mb = bytes_to_mb(3 * per_client_bytes)
    assert round(total_mb, 2) == 49.68
    assert abs(total_mb - 49.69) / 49.69 < 0.001

    rng = Rng(55, "shapes")
    for case in range(100):
        n_layers = 1 + case % 5
        d = 2 + (case * 7) % 9
        k = 2 + (case * 3) % 8
        r = 1 + case % min(d, k)
        s = AdapterSet.from_factors(
            (
                rng.derive(case, "a", i).standard_normal(r, k),
                rng.derive(case, "b", i).standard_normal(d, r),
            )
            for i in range(n_layers)
        )
        assert len(serialize(s)) == wire_length(s)
    report(5, "49.68 MB/round within 0.1% of 49.69; serialize length exact on 100 shapes")


def test_criterion_06_gate_behavior():
    """tau=1.1 fires every round with multiplier 0.8^t; tau=0 never fires."""
    base = config_from_dict({"rounds": 8, "seed": 6, "data": {"scale": 0.02}})

    cfg_hot = replace(base, thresholds={"accuracy": 1.1})
    exp = build_experiment(cfg_hot)
    _, records = run_training(exp.server, exp.clients, cfg_hot.rounds)
    running = 1.0
    for t, record in enumerate(records, start=1):
        assert record.gate_triggered, f"gate silent in round {t} despite tau=1.1"
        running *= 0.8
        assert record.scale_multiplier == running  # exact product of gate factors
        assert record.scale_multiplier == pytest.approx(0.8**t, rel=1e-12)

    cfg_cold = replace(base, thresholds={"accuracy": 0.0})
    exp = build_experiment(cfg_cold)
    _, records = run_training(exp.server, exp.clients, cfg_cold.rounds)
    assert all(not r.gate_triggered for r in records)
    assert all(r.scale_multiplier == 1.0 for r in records)
    report(6, "gate fires 8/8 with multiplier 0.8^t exactly; tau=0 never fires")


def test_criterion_07_budget_decay():
    """Budgets reach initial*0.9^8 within 1e-12 after 8 rounds; stds nondecreasing."""
    cfg = config_from_dict({"rounds": 8, "seed": 7, "data": {"scale": 0.02},
                            "thresholds": {"accuracy": 0.0}})
    exp = build_experiment(cfg)
    _, records = run_training(exp.server, exp.clients, cfg.rounds)
    initial = {"Dreaddit": 2.0, "IRF": 0.5, "MultiWD": 1.5}
    floor = exp.server.schedule.floor
    for domain, eps0 in initial.items():
        expected = max(floor, eps0 * 0.9**8)
        assert records[-1].budgets[domain] == pytest.approx(expected, abs=1e-12)

    cal = exp.server.calibration
    for domain in initial:
        stds = [reference_std(cal, "early", "A", r.budgets[domain], 1.0) for r in records]
        assert all(later >= earlier for earlier, later in zip(stds, stds[1:]))
    report(7, "budgets at initial*0.9^8 within 1e-12; per-domain noise std nondecreasing")


def test_criterion_08_learning_sanity():
    """Plain FL >= 0.90 pooled val accuracy; domain-aware DP within 5 points."""
    started = time.perf_counter()
    base = RunConfig(rounds=50, seed=0)  # scale 0.1, E=2, separable by default
    assert base.data.scale == 0.1 and base.local_epochs == 2 and base.data.label_noise == 0.0

    plain_cfg = replace(base, strategy=PrivacyStrategy(kind="off"))
    exp = build_experiment(plain_cfg)
    _, plain_records = run_training(exp.server, exp.clients, plain_cfg.rounds)
    plain_acc = plain_records[-1].utilities[ACCURACY]

    dp_cfg = base  # domain_aware with stock budgets
    exp = build_experiment(dp_cfg)
    _, dp_records = run_training(exp.server, exp.clients, dp_cfg.rounds)
    dp_acc = dp_records[-1].utilities[ACCURACY]

    elapsed = time.perf_counter() - started
    assert plain_acc >= 0.90, f"plain FL accuracy {plain_acc:.4f} below 0.90"
    assert abs(plain_acc - dp_acc) <= 0.05, (
        f"DP accuracy {dp_acc:.4f} more than 5 points from plain {plain_acc:.4f}"
    )
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
    report(
        8,
        f"plain {plain_acc:.4f} >= 0.90, DP {dp_acc:.4f} within 5 points "
        f"(elapsed {elapsed:.1f}s < 120s)",
    )


def test_criterion_09_single_client_centralization():
    """K=1 federated DP-off run equals the direct centralized SGD loop bit-for-bit."""
    cfg = config_from_dict({
        "rounds": 6, "seed": 9, "strategy": {"kind": "off"},
        "data": {"domains": ["Dreaddit"], "scale": 0.05},
    })
    exp = build_experiment(cfg)
    server, _ = run_training(exp.server, exp.clients, cfg.rounds)

    direct = run_centralized_sgd(exp.server, exp.clients[0], cfg.rounds)
    assert serialize(server.global_adapters) == serialize(direct)
    report(9, "one-client federation bit-identical to the direct SGD loop")


def test_criterion_10_determinism(tmp_path):
    """Same config+seed twice is byte-identical; client order changes nothing."""
    from fedmentor.cli import execute_run

    cfg = config_from_dict({"rounds": 4, "seed": 10, "data": {"scale": 0.02}})
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        execute_run(cfg, d)
        dirs.append(d)
    for artifact in ("metrics.csv", "summary.json", "adapters.bin"):
        assert (dirs[0] / artifact).read_bytes() == (dirs[1] / artifact).read_bytes()

    permuted = config_from_dict({
        "rounds": 4, "seed": 10, "data": {"scale": 0.02,
                                          "domains": ["MultiWD", "Dreaddit", "IRF"]},
    })
    d = tmp_path / "c"
    d.mkdir()
    execute_run(permuted, d)
    assert (d / "metrics.csv").read_bytes() == (dirs[0] / "metrics.csv").read_bytes()
    assert (d / "adapters.bin").read_bytes() == (dirs[0] / "adapters.bin").read_bytes()
    report(10, "rerun and client-permutation outputs byte-identical")


def test_criterion_11_fairness_machinery():
    """Per-client accuracies {94, 98, 100}% give mean 97.33, std 2.49, spread 6."""
    # 50 validation points per client, all positive; the view misses the first 3, 1, 0.
    def client(misses: int) -> Dataset:
        xs = np.where(np.arange(50) < misses, -1.0, 1.0)[:, None]
        return Dataset(xs, np.ones(50, dtype=np.int64), xs, np.ones(50, dtype=np.int64))

    percent = 100 * np.array(
        [evaluate(lambda xs: xs[:, 0], [client(m)])[ACCURACY] for m in (3, 1, 0)]
    )
    assert percent.tolist() == [94.0, 98.0, 100.0]
    assert round(percent.mean(), 2) == 97.33
    assert round(percent.std(), 2) == 2.49  # population std, as 3-client tables report
    assert percent.max() - percent.min() == 6.0
    report(11, "per-client accuracy 94/98/100% -> mean 97.33, std 2.49, spread 6")
