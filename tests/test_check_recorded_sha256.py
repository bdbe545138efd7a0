"""The record command of tests/check_recorded_sha256.py, on a one-entry benchmark table."""
from __future__ import annotations

import json

import pytest

import check_recorded_sha256 as check


@pytest.fixture
def tables(tmp_path, monkeypatch):
    """Points the script at temporary tables.

    Returns ``(bench table path, tests table path, real bench table, real tests table)``;
    the tests table starts with a stale ``custom_only`` golden entry.
    """
    bench = json.loads(check.BENCH_EXPECTED_PATH.read_text())
    recorded = check.load_recorded()
    bench_path = tmp_path / "expected_sha256.json"
    recorded_path = tmp_path / "recorded_sha256.json"
    monkeypatch.setattr(check, "BENCH_EXPECTED_PATH", bench_path)
    monkeypatch.setattr(check, "RECORDED_PATH", recorded_path)
    custom_only = recorded["golden"]["custom_only"]
    recorded_path.write_text(json.dumps({
        "bench_metrics_csv": {},
        "golden": {"custom_only": {**custom_only, "adapters": "stale", "metrics_csv": "stale"}},
    }))
    return bench_path, recorded_path, bench, recorded


def test_record_writes_nothing_when_a_bench_sha_does_not_reproduce(tables):
    bench_path, recorded_path, _, _ = tables
    bench_path.write_text(json.dumps({"small_model": {"1": ["0" * 64]}}))
    before = recorded_path.read_bytes()
    assert check.main(["--record"]) == 1
    assert recorded_path.read_bytes() == before


def test_record_rewrites_every_entry_when_the_bench_shas_reproduce(tables):
    bench_path, recorded_path, bench, recorded = tables
    bench_path.write_text(json.dumps({"small_model": {"1": bench["small_model"]["1"][:1]}}))
    assert check.main(["--record"]) == 0
    assert json.loads(recorded_path.read_text()) == {
        "bench_metrics_csv": {"small_model": {"1": recorded["bench_metrics_csv"]["small_model"]["1"][:1]}},
        "golden": {"custom_only": recorded["golden"]["custom_only"]},
    }
    assert check.main([]) == 0
