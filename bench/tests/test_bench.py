"""Tests of the benchmark itself: workloads, span arithmetic, metric names, checks.

Run with ``python -m pytest bench/tests``.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import threading

import pytest

import run
import spans
import workloads
from fedmentor import cli, federation, linalg, trainer
from fedmentor.config import DataConfig, RunConfig

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_config_is_deterministic_in_the_seed_and_differs_across_seeds(name):
    assert workloads.config(name, 5) == workloads.config(name, 5)
    assert workloads.config(name, 5) == workloads.config(name, 5 + workloads.VARIANTS)
    echoes = {
        json.dumps(workloads.config(name, seed).to_dict(), sort_keys=True)
        for seed in range(workloads.VARIANTS)
    }
    assert len(echoes) == workloads.VARIANTS


def test_many_clients_budgets_come_from_the_seed():
    budgets = [workloads.config("many_clients", seed).budgets.entries for seed in (1, 2)]
    assert budgets[0] != budgets[1]
    for entries in budgets:
        assert len(entries) == workloads.MANY_DOMAINS
        assert all(0.5 <= eps <= 2.0 for eps in entries.values())


def test_sgd_steps_follow_the_config():
    # Stock sizes 3553/3522/3281 in batches of 32, 2 epochs, 8 rounds.
    assert workloads.sgd_steps(workloads.config("small_model", 0)) == 8 * 2 * (112 + 111 + 103)
    # 64 clients of 35 samples: 2 batches, 1 epoch, 6 rounds.
    assert workloads.sgd_steps(workloads.config("many_clients", 0)) == 6 * 64 * 2


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    nested = [
        S(0, "root", 1, None, 0.0, 10.0),
        S(1, "child", 1, 0, 1.0, 4.0),
        S(2, "grandchild", 1, 1, 2.0, 3.0),
        S(3, "child", 1, 0, 5.0, 6.0),
    ]
    assert spans.self_times(nested) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_ignores_spans_on_other_threads():
    S = spans.Span
    cross = [
        S(0, "round", 1, None, 0.0, 10.0),
        S(1, "train", 2, None, 1.0, 9.0),  # overlaps the round on a pool thread
        S(2, "grad", 2, 1, 2.0, 5.0),
        S(3, "stray", 2, 0, 6.0, 7.0),  # names span 0 as parent but runs elsewhere
    ]
    assert spans.self_times(cross) == pytest.approx({0: 10.0, 1: 5.0, 2: 3.0, 3: 1.0})


def test_tracer_keeps_a_parent_stack_per_thread():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    worker = tracer.wrap("worker", inner)

    def outer():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        inner()

    tracer.wrap("outer", outer)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (o,), (w,) = by_name["outer"], by_name["worker"]
    assert w.parent is None and w.thread != o.thread
    assert sorted(s.parent for s in by_name["inner"]) == sorted([o.id, w.id])


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tracing_restores_the_program():
    with spans.traced(spans.Tracer()):
        assert federation.train_local is not trainer.train_local
    assert federation.train_local is trainer.train_local
    assert "__post_init__" in vars(linalg.Matrix)
    assert not hasattr(linalg.Matrix.__post_init__, "__wrapped__")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_smoke_run_passes_the_sha_check(name):
    cfg = workloads.config(name, 3, rounds=1)
    check = run.Check(name, 3)
    tracer = spans.Tracer()
    traced = check.attempt(cli, cfg, tracer)
    plain = check.attempt(cli, cfg)
    assert check.failures == []
    assert traced.sha256 == plain.sha256 == workloads.expected_sha256(name, 3, 1)

    layers = spans.layer_metrics(tracer, workloads.sgd_steps(cfg), traced.summary["gate_rounds"])
    assert set(layers) | {"trace_overhead_frac"} == PER_LAYER
    assert all(NAME.fullmatch(n) for n in layers)
    assert layers["trainer.grad_adapters_calls"] == workloads.sgd_steps(cfg)
    # Set-up, the rounds and artifact writing account for the whole run.
    assert layers["trace_accounted_frac"] == pytest.approx(1.0, abs=0.05)


def test_check_counts_a_wrong_sha_as_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "expected_sha256", lambda *args: "0" * 64)
    check = run.Check("small_model", 0)
    assert check.attempt(cli, workloads.config("small_model", 0, rounds=1)) is None
    assert len(check.failures) == 1 and "recorded" in check.failures[0]


def test_small_model_is_the_stock_config_at_scale_one():
    stock = RunConfig(seed=3, rounds=1, data=DataConfig(scale=1.0))
    assert run.execute(cli, stock).sha256 == workloads.expected_sha256("small_model", 3, 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_metric_and_the_contract_line(trace, capsys):
    argv = ["--workload", "small_model", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1]}
    assert END_TO_END <= printed
    if trace:
        assert PER_LAYER <= printed


def test_refuses_to_run_with_fedmentor_threads_set(monkeypatch, capsys):
    monkeypatch.setenv("FEDMENTOR_THREADS", "1")
    assert run.main(["--workload", "small_model", "--seed", "0", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "FEDMENTOR_THREADS" in out.err


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_model", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "FEDMENTOR_THREADS"},
    )
    assert proc.returncode != 0
    assert proc.stdout == "" and "no fedmentor source" in proc.stderr
