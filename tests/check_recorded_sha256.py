#!/usr/bin/env python3
"""Recompute every final-adapters SHA-256 recorded in bench/expected_sha256.json.

    python tests/check_recorded_sha256.py

Runs each benchmark workload (bench/workloads.py) for every recorded variant
and round count, through ``cli.execute_run`` as the benchmark does, and
compares the SHA-256 of the written ``adapters.bin`` with the recorded value.
Both bench files are only read. Prints one line per mismatch and exits 1 if
there is any; a refactor that must keep every result bit has to pass this.
It takes a few minutes (192 runs), so pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from fedmentor import cli  # noqa: E402


def main() -> int:
    table = json.loads(workloads.EXPECTED_PATH.read_text())
    mismatches = checked = 0
    for name, by_rounds in sorted(table.items()):
        for rounds, expected in sorted(by_rounds.items()):
            for variant, sha in enumerate(expected):
                cfg = workloads.config(name, variant, rounds=int(rounds))
                with tempfile.TemporaryDirectory() as run_dir:
                    cli.execute_run(cfg, Path(run_dir))
                    got = hashlib.sha256((Path(run_dir) / "adapters.bin").read_bytes()).hexdigest()
                checked += 1
                if got != sha:
                    mismatches += 1
                    print(f"MISMATCH {name} rounds={rounds} variant={variant}: {got} != {sha}")
        print(f"checked {name}", flush=True)
    print(f"{checked - mismatches}/{checked} recorded final-adapters SHA-256 values reproduced")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
