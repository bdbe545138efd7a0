"""The floor invariants as properties over small random configs.

``run_configs`` draws a ``RunConfig`` with 1-3 layers of width 2-6 and rank
1-2, 1-4 domains mixing stock and custom names, scale 0.003-0.01, batch
size 1-9 (so the last batch is often partial), 0-2 local epochs, 1-3
rounds, label noise 0 or 0.1, any strategy kind, and ``clip_norm`` set or
unset wherever the strategy allows it. Each property runs 40 examples with
``derandomize=True``, so every run of the suite draws the same configs.
The fixed-config acceptance criteria stay as they are; these add cases.

A fifth property checks the analytic adapter gradient against central finite
differences over random shapes: 1-3 layers, input and hidden widths 2-6,
rank 1-2 and batch size 1-9, with both adapter factors nonzero. A sixth runs
each drawn config with every backbone wide enough for a helper thread, once
on two workers and once on one, and finds the same bytes.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor import federation
from fedmentor.cli import metrics_csv_lines
from fedmentor.config import STRATEGY_KINDS, RunConfig, build_experiment, config_from_dict
from fedmentor.data import DEFAULT_DOMAIN_SIZES
from fedmentor.federation import run_training
from fedmentor.linalg import Rng
from fedmentor.lora import serialize
from fedmentor.trainer import BackboneModel
from oracles import fd_gradient_check, randomized_adapters
from reference import run_centralized_sgd, run_plain_fedavg

DOMAIN_NAMES = (*sorted(DEFAULT_DOMAIN_SIZES), "alpha", "beta")
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def run_configs(draw, kinds=STRATEGY_KINDS, max_domains=4) -> RunConfig:
    """A small ``RunConfig`` whose strategy kind is one of ``kinds``."""
    domains = draw(st.lists(
        st.sampled_from(DOMAIN_NAMES), min_size=1, max_size=max_domains, unique=True
    ))
    kind = draw(st.sampled_from(kinds))
    input_dim, hidden_dim = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    strategy = {"kind": kind}
    raw = {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "rounds": draw(st.integers(1, 3)),
        "local_epochs": draw(st.sampled_from((1, 2, 0))),
        "batch_size": draw(st.integers(1, 9)),
        "model": {
            "n_layers": draw(st.integers(1, 3)),
            "input_dim": input_dim,
            "hidden_dim": hidden_dim,
            "rank": draw(st.integers(1, min(2, input_dim, hidden_dim))),
        },
        "data": {
            "scale": draw(st.floats(0.003, 0.01)),
            "label_noise": draw(st.sampled_from([0.0, 0.1])),
            "domains": domains,
        },
        "strategy": strategy,
    }
    eps = st.floats(0.25, 4.0)
    if kind == "uniform":
        strategy["eps_glob"] = draw(eps)
    elif kind == "static_noise":
        strategy["sigma"] = draw(st.sampled_from([0.0, 0.008]))
    elif kind == "utility_threshold":
        strategy["tau"] = draw(st.sampled_from([-1.0, 0.5]))
    if kind in ("domain_aware", "utility_threshold"):
        raw["budgets"] = {"entries": {d: draw(eps) for d in domains}}
    if kind not in ("static_noise", "off") and draw(st.booleans()):
        raw["calibration"] = {"clip_norm": draw(st.sampled_from([0.05, 1.0]))}
    return config_from_dict(raw)


def outcome(server, records) -> tuple[bytes, list[str]]:
    """A run's final adapter bytes and its metrics.csv lines."""
    return serialize(server.global_adapters), metrics_csv_lines(records)


def run(cfg: RunConfig) -> tuple[bytes, list[str]]:
    exp = build_experiment(cfg)
    return outcome(*run_training(exp.server, exp.clients, cfg.rounds))


@PROPERTY
@given(run_configs(kinds=("off",)))
def test_dp_off_run_equals_plain_fedavg_property(cfg):
    exp = build_experiment(cfg)
    adapters, records = run_plain_fedavg(
        exp.server, exp.clients, cfg.rounds, budgets_echo=exp.server.budgets
    )
    assert run(cfg) == (serialize(adapters), metrics_csv_lines(records))


@PROPERTY
@given(run_configs(kinds=("off",), max_domains=1))
def test_one_domain_dp_off_run_equals_centralized_sgd_property(cfg):
    exp = build_experiment(cfg)
    server, _ = run_training(exp.server, exp.clients, cfg.rounds)
    direct = run_centralized_sgd(exp.server, exp.clients[0], cfg.rounds)
    assert serialize(server.global_adapters) == serialize(direct)


@PROPERTY
@given(st.data())
def test_rerun_and_domain_order_change_nothing_property(data):
    cfg = data.draw(run_configs())
    domains = data.draw(st.permutations(cfg.data.domains))
    first = run(cfg)
    assert run(cfg) == first
    assert run(replace(cfg, data=replace(cfg.data, domains=tuple(domains)))) == first


@PROPERTY
@given(run_configs(), st.integers(1, 2), st.integers(1, 2))
def test_rounds_compose_property(cfg, r1, r2):
    exp = build_experiment(cfg)
    middle, head = run_training(exp.server, exp.clients, r1)
    end, tail = run_training(middle, exp.clients, r2)
    full, records = run_training(exp.server, exp.clients, r1 + r2)
    assert outcome(end, head + tail) == outcome(full, records)
    assert end == full


@PROPERTY
@given(run_configs())
def test_schedule_changes_nothing_property(cfg):
    runs = []
    for cpus in (2, 1):
        # A function-scoped monkeypatch fixture would trip hypothesis' health check.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "HELPER_MIN_ENTRIES", 1)
            patch.setattr(federation.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                          raising=False)
            runs.append(run(cfg))
    assert runs[0] == runs[1]


@PROPERTY
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 6), st.integers(2, 6),
    st.integers(1, 2), st.integers(1, 9),
)
def test_gradient_matches_finite_differences_property(
    seed, n_layers, input_dim, hidden_dim, rank, batch
):
    rng = Rng(seed, "fd")
    model = BackboneModel.random(rng.derive("model"), input_dim, hidden_dim, n_layers)
    adapters = randomized_adapters(model, rank, rng.derive("adapters"))
    xs = rng.derive("x").standard_normal(batch, input_dim)
    ys = (rng.derive("y").uniform(batch) > 0.5).astype(np.int64)
    fd_gradient_check(model, adapters, xs, ys, h=1e-5, rel_tol=1e-5)
