#!/usr/bin/env python3
"""Recompute every recorded final-adapters and metrics.csv SHA-256.

    python tests/check_recorded_sha256.py            # check every recorded value
    python tests/check_recorded_sha256.py --record   # rewrite tests/recorded_sha256.json

tests/recorded_sha256.json is the one record of the pinned runs on the tests
side. It holds two sections:

- ``golden``: short runs, each stored as its config with the SHA-256 of its
  final adapters and of its metrics.csv. tests/test_golden.py and
  tests/test_cli.py assert against these entries.
- ``bench_metrics_csv``: the metrics.csv SHA-256 of every benchmark run whose
  final-adapters SHA-256 bench/expected_sha256.json records.

Each golden config, and each benchmark workload (bench/workloads.py) for
every variant and round count in bench/expected_sha256.json, is run through
``cli.execute_run`` as the benchmark runs it, and the adapters.bin and
metrics.csv it writes are hashed. Every digest is compared
with its record, one line is printed per mismatch, and the exit status is 1
if there is any; a refactor that must keep every result bit has to pass this.

``--record`` recomputes every digest of tests/recorded_sha256.json and
rewrites the file in one pass, keeping the golden configs. It writes only if
every final-adapters SHA-256 in bench/expected_sha256.json reproduced
(re-record that file first with ``bench/run.py --record``); bench/ is only
read. The 192 benchmark runs take a few minutes, so pytest does not collect
this script.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED_PATH = Path(__file__).resolve().parent / "recorded_sha256.json"
BENCH_EXPECTED_PATH = ROOT / "bench" / "expected_sha256.json"
sys.path.insert(0, str(ROOT / "src"))

from fedmentor import cli  # noqa: E402
from fedmentor.config import RunConfig, config_from_dict  # noqa: E402

BENCH_ADAPTERS = "bench final-adapters"


def load_recorded() -> dict:
    return json.loads(RECORDED_PATH.read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(cfg: RunConfig) -> dict:
    """The SHA-256 of the adapters.bin and metrics.csv that ``cli.execute_run`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        cli.execute_run(cfg, run_dir)
        return {"adapters": _sha256(run_dir / "adapters.bin"),
                "metrics_csv": _sha256(run_dir / "metrics.csv")}


def run_golden(config: dict) -> dict:
    """The golden entry of ``config``: the config, its final-adapters and metrics.csv SHA-256."""
    return {"config": config, **_digests(config_from_dict(config))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite tests/{RECORDED_PATH.name}")
    args = parser.parse_args(argv)
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # only the record of benchmark runs needs bench/

    table = load_recorded()
    recorded: dict = {"bench_metrics_csv": {}, "golden": {}}
    tally: dict[str, list[int]] = {}  # kind -> [reproduced, checked]
    failures = 0

    def check(kind: str, where: str, got: str, expected: str | None) -> None:
        nonlocal failures
        counts = tally.setdefault(kind, [0, 0])
        counts[1] += 1
        if got == expected:
            counts[0] += 1
            return
        # Re-recording replaces every value but a benchmark adapter SHA.
        changed = args.record and kind != BENCH_ADAPTERS
        failures += not changed
        print(f"{'CHANGED' if changed else 'MISMATCH'} {where}: {kind} {got} != {expected}")

    for case, entry in sorted(table["golden"].items()):
        got = recorded["golden"][case] = run_golden(entry["config"])
        check("golden final-adapters", f"golden {case}", got["adapters"], entry["adapters"])
        check("golden metrics.csv", f"golden {case}", got["metrics_csv"], entry["metrics_csv"])
    print("checked golden", flush=True)

    bench = json.loads(BENCH_EXPECTED_PATH.read_text())
    for name, by_rounds in sorted(bench.items()):
        for rounds, expected in sorted(by_rounds.items()):
            csv_expected = table["bench_metrics_csv"].get(name, {}).get(rounds, [])
            for variant, sha in enumerate(expected):
                cfg = workloads.config(name, variant, rounds=int(rounds))
                got = _digests(cfg)
                recorded["bench_metrics_csv"].setdefault(name, {}).setdefault(rounds, []).append(
                    got["metrics_csv"])
                where = f"{name} rounds={rounds} variant={variant}"
                check(BENCH_ADAPTERS, where, got["adapters"], sha)
                check("bench metrics.csv", where, got["metrics_csv"],
                      csv_expected[variant] if variant < len(csv_expected) else None)
        print(f"checked {name}", flush=True)

    print(", ".join(f"{ok}/{n} {kind}" for kind, (ok, n) in tally.items())
          + " SHA-256 values reproduced")
    if failures:
        if args.record:
            print(f"{RECORDED_PATH.name} left unchanged: a final-adapters SHA-256 in "
                  f"{BENCH_EXPECTED_PATH.name} did not reproduce")
        return 1
    if args.record:
        RECORDED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {RECORDED_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
