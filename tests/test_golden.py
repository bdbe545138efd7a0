"""Bit-stability: final-adapters SHA-256 of short runs under every strategy.

Each constant was recorded from the code before adapters were trained on
plain arrays; a refactor that changes one bit of any run fails here. The
parameters make the six digests pairwise distinct: ``tau`` -1.0 keeps the
utility-threshold gate silent (``neg_eval_loss`` is negative, so any tau >= 0
fires like ``domain_aware``), and ``clip_norm`` 0.05 is below the Frobenius
norm of every A factor a client uploads, so clipping really happens.
"""
from __future__ import annotations

import pytest

from fedmentor.config import build_experiment, config_from_dict
from fedmentor.federation import adapters_sha256, run_training

GOLDEN = {
    "domain_aware": (
        {"strategy": {"kind": "domain_aware"}},
        "df0c71b6a5f3decacd86b4b02b5cb096b4f3064eb0cdf762031af404c61114df",
    ),
    "uniform": (
        {"strategy": {"kind": "uniform", "eps_glob": 1.0}},
        "6e33c8665f4046d03227826dde07418fb6bc3bbd44ca26068cdc9c93decdb8c5",
    ),
    "static_noise": (
        {"strategy": {"kind": "static_noise", "sigma": 0.008}},
        "188cdde3f1344f1a418c3be090b699fc01d11a972b642cf9b82bc32ef0278bd2",
    ),
    "utility_threshold": (
        {"strategy": {"kind": "utility_threshold", "tau": -1.0}},
        "98b854aa2da40daa3364330098bc70e1586d10fcf08e4f6223302b80f2bf2a11",
    ),
    "off": (
        {"strategy": {"kind": "off"}},
        "b4867f1740b32d3d7c74ba70291b13f22cf692db4b29760c952037aa9b10354f",
    ),
    "domain_aware_clipped": (
        {"calibration": {"clip_norm": 0.05}},
        "889f832244c4bb82d298501f5450a6862c49e4cbebcf1af9164093ab2c1677f4",
    ),
}


def test_golden_digests_are_pairwise_distinct():
    digests = [sha for _, sha in GOLDEN.values()]
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_two_round_final_adapters_sha256(case):
    overrides, expected = GOLDEN[case]
    cfg = config_from_dict({"rounds": 2, **overrides})
    exp = build_experiment(cfg)
    server, _ = run_training(exp.server, exp.clients, cfg.rounds)
    assert adapters_sha256(server.global_adapters) == expected
