"""Bit-stability: the golden runs recorded in tests/recorded_sha256.json.

Each golden entry is a short run's config with the SHA-256 of its final
adapters and of its metrics.csv, as ``write_metrics_csv`` writes it; a change
to one bit of either fails here. ``python tests/check_recorded_sha256.py
--record`` re-records them. The configs make the adapter digests pairwise
distinct: ``tau`` -1.0 keeps the utility-threshold gate silent
(``neg_eval_loss`` is negative, so any tau >= 0 fires like ``domain_aware``),
and ``clip_norm`` 0.05 clips at least one uploaded segment, which
``test_clipped_case_clips_uploaded_segments`` checks.
"""
from __future__ import annotations

import numpy as np
import pytest

from check_recorded_sha256 import load_recorded, run_golden
from fedmentor import federation
from fedmentor.config import config_from_dict

GOLDEN = load_recorded()["golden"]


def test_golden_digests_are_pairwise_distinct():
    digests = [entry["adapters"] for entry in GOLDEN.values()]
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_two_round_final_adapters_sha256(case):
    """Both digests of each golden run; the name predates custom_only's one round
    and the metrics.csv digest, and is kept so the test IDs stay the same."""
    entry = GOLDEN[case]
    assert run_golden(entry["config"]) == entry


def test_clipped_case_clips_uploaded_segments(monkeypatch):
    config = GOLDEN["domain_aware_clipped"]["config"]
    clip_norm = config_from_dict(config).calibration.clip_norm
    norms = []  # Frobenius norm of every segment handed to privatize
    real_privatize = federation.privatize

    def spy(adapters, *args):
        bounds = np.cumsum(adapters.segment_sizes)[:-1]
        norms.extend(float(np.linalg.norm(s)) for s in np.split(np.asarray(adapters.vec), bounds))
        return real_privatize(adapters, *args)

    monkeypatch.setattr(federation, "privatize", spy)
    run_golden(config)
    assert norms
    assert sum(norm > clip_norm for norm in norms) >= 1
