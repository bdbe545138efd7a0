"""The benchmark's workloads: the RunConfig each one runs for a seed.

A seed selects one of ``VARIANTS`` recorded variants (``seed % VARIANTS``).
For ``small_model`` and ``wide_model`` the variant is the run seed. For
``many_clients`` it draws the 64 per-domain budgets and the run seed stays 0:
with 3 validation samples per domain its accuracy sits near chance, and
across run seeds it spreads by about 17% of its median (IQR over the 32
variants), which would be a spread over different federations rather than
measurement noise. Every domain's train size is written into the config
as an override, so the SGD step count follows from the config alone.
RATIONALE.md says why each workload exists.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedmentor.config import BudgetConfig, DataConfig, DomainOverride, ModelConfig, RunConfig

VARIANTS = 32
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_sha256.json"

# Corpus sizes of the three stock domains; train size is round(scale * size).
STOCK_SIZES = {"Dreaddit": 3553, "IRF": 3522, "MultiWD": 3281}

MANY_DOMAINS = 64
CUSTOM_CORPUS = 3452  # the size a custom domain is scaled from


def _stock_data(scale: float) -> DataConfig:
    overrides = {d: DomainOverride(n_train=round(scale * n)) for d, n in STOCK_SIZES.items()}
    return DataConfig(scale=scale, domains=tuple(sorted(STOCK_SIZES)), overrides=overrides)


def small_model(variant: int) -> RunConfig:
    return RunConfig(seed=variant, data=_stock_data(1.0))


def wide_model(variant: int) -> RunConfig:
    return RunConfig(
        seed=variant,
        rounds=3,
        model=ModelConfig(n_layers=4, input_dim=64, hidden_dim=256, rank=8),
        data=_stock_data(0.3),
    )


def many_clients(variant: int) -> RunConfig:
    scale = 0.01
    names = tuple(f"client{i:02d}" for i in range(MANY_DOMAINS))
    eps = np.random.default_rng([variant, MANY_DOMAINS]).uniform(0.5, 2.0, MANY_DOMAINS)
    n_train = round(scale * CUSTOM_CORPUS)
    return RunConfig(
        seed=0,
        rounds=6,
        local_epochs=1,
        model=ModelConfig(n_layers=3, input_dim=32, hidden_dim=128, rank=8),
        data=DataConfig(
            scale=scale,
            domains=names,
            overrides={n: DomainOverride(n_train=n_train) for n in names},
        ),
        budgets=BudgetConfig(entries={n: round(float(e), 4) for n, e in zip(names, eps)}),
    )


WORKLOADS = {"small_model": small_model, "wide_model": wide_model, "many_clients": many_clients}


def config(name: str, seed: int, rounds: int | None = None) -> RunConfig:
    """The workload's config for ``seed``; ``rounds`` shortens it for warm-up and tests."""
    cfg = WORKLOADS[name](seed % VARIANTS)
    return cfg if rounds is None else replace(cfg, rounds=rounds)


def sgd_steps(cfg: RunConfig) -> int:
    """Local SGD steps in a whole run: every client trains every round."""
    per_epoch = sum(
        math.ceil(cfg.data.overrides[d].n_train / cfg.batch_size) for d in cfg.data.domains
    )
    return cfg.rounds * cfg.local_epochs * per_epoch


def expected_sha256(name: str, seed: int, rounds: int) -> str | None:
    """Recorded final-adapters SHA-256 for this workload, seed and round count."""
    table = json.loads(EXPECTED_PATH.read_text())
    return table.get(name, {}).get(str(rounds), [None] * VARIANTS)[seed % VARIANTS]
