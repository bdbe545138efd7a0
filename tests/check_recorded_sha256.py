#!/usr/bin/env python3
"""Recompute every recorded final-adapters and metrics.csv SHA-256.

    python tests/check_recorded_sha256.py            # check both tables
    python tests/check_recorded_sha256.py --record   # rewrite the metrics.csv table

Runs each benchmark workload (bench/workloads.py) for every variant and round
count recorded in bench/expected_sha256.json, through ``cli.execute_run`` as
the benchmark does. It compares the SHA-256 of the written ``adapters.bin``
with bench/expected_sha256.json and the SHA-256 of ``metrics.csv`` with
tests/expected_metrics_csv_sha256.json. ``--record`` rewrites only the
metrics.csv table; bench/ is only read. Prints one line per mismatch and exits
1 if there is any; a refactor that must keep every result bit has to pass
this. It takes a few minutes (192 runs), so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CSV_EXPECTED_PATH = Path(__file__).resolve().parent / "expected_metrics_csv_sha256.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from fedmentor import cli  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite tests/expected_metrics_csv_sha256.json")
    args = parser.parse_args(argv)
    table = json.loads(workloads.EXPECTED_PATH.read_text())
    csv_table = {} if args.record else json.loads(CSV_EXPECTED_PATH.read_text())
    recorded: dict[str, dict[str, list[str]]] = {}
    mismatches = checked = 0
    for name, by_rounds in sorted(table.items()):
        for rounds, expected in sorted(by_rounds.items()):
            csv_expected = csv_table.get(name, {}).get(rounds, [None] * len(expected))
            for variant, sha in enumerate(expected):
                cfg = workloads.config(name, variant, rounds=int(rounds))
                with tempfile.TemporaryDirectory() as run_dir:
                    cli.execute_run(cfg, Path(run_dir))
                    got = _sha256(Path(run_dir) / "adapters.bin")
                    got_csv = _sha256(Path(run_dir) / "metrics.csv")
                recorded.setdefault(name, {}).setdefault(rounds, []).append(got_csv)
                checked += 1
                problems = []
                if got != sha:
                    problems.append(f"adapters.bin {got} != {sha}")
                if not args.record and got_csv != csv_expected[variant]:
                    problems.append(f"metrics.csv {got_csv} != {csv_expected[variant]}")
                if problems:
                    mismatches += 1
                    where = f"{name} rounds={rounds} variant={variant}"
                    print(f"MISMATCH {where}: " + "; ".join(problems))
        print(f"checked {name}", flush=True)
    if args.record:
        CSV_EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {checked} metrics.csv SHA-256 values in {CSV_EXPECTED_PATH.name}")
    what = "final-adapters" if args.record else "final-adapters and metrics.csv"
    print(f"{checked - mismatches}/{checked} recorded {what} SHA-256 values reproduced")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
