#!/usr/bin/env python3
"""Benchmark for fedmentor: whole runs of ``cli.execute_run``, timed from outside.

    python3 bench/run.py --workload small_model --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --record      # rewrite bench/expected_sha256.json

Closed loop: one process, one run at a time, no threads of its own. The seed
picks the workload's config (workloads.py) and the program sees only that
config; it runs as shipped, with ``FEDMENTOR_THREADS`` unset and the BLAS
thread count left alone. One invocation

1. runs one warm-up round, checked like every other run;
2. repeats, until ``--seconds`` have passed: ``SETUP_PER_RUN`` timed calls
   of ``config.build_experiment``, then one timed ``execute_run``. With
   ``--trace 1`` the runs alternate between plain and traced.

Set-up calls are spread over the whole window, like the runs, so both
medians see the same machine load.

Every run is checked: the final-adapters SHA-256 must equal the value
recorded in expected_sha256.json for the workload, seed and round count, and
metrics.csv must be byte-identical across repeats. A run that raises or fails
the check counts in ``failed``.

Every metric is printed with its unit, median, quartiles and sample count.
The value reported for ``run_s``, ``us_per_step`` and ``cpu_s`` is the
fastest run of the window; RATIONALE.md gives the reason. The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (BENCHMARK.json's ``end_to_end`` metrics with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``). A fuller
result, with the environment, goes to ``.bench_out/`` at the repo root.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PER_RUN = 5
MIN_REPEATS = 3
BYTES_PER_MB = 1024 * 1024


@dataclass
class Repeat:
    run_s: float
    cpu_s: float
    sha256: str
    csv_sha256: str
    summary: dict
    tracer: spans.Tracer | None = None


def execute(cli, cfg, tracer=None) -> Repeat:
    """One ``execute_run`` in a fresh directory, timed; the directory is removed after."""
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    run = cli.execute_run if tracer is None else tracer.wrap(spans.ROOT, cli.execute_run)
    try:
        with nullcontext() if tracer is None else spans.traced(tracer):
            cpu0, t0 = time.process_time(), time.perf_counter()
            summary = run(cfg, run_dir)
            run_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
        sha = hashlib.sha256((run_dir / "adapters.bin").read_bytes()).hexdigest()
        reported = json.loads((run_dir / "summary.json").read_text())["final_adapters_sha256"]
        if reported != sha:
            raise ValueError(f"summary.json sha256 {reported} disagrees with adapters.bin {sha}")
        csv_sha = hashlib.sha256((run_dir / "metrics.csv").read_bytes()).hexdigest()
    finally:
        shutil.rmtree(run_dir)
    return Repeat(run_s, cpu_s, sha, csv_sha, summary, tracer)


class Check:
    """Runs attempts and keeps those whose artifacts are correct."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first_csv: dict[int, str] = {}  # rounds -> metrics.csv sha256 of the first repeat

    def attempt(self, cli, cfg, tracer=None) -> Repeat | None:
        import workloads

        self.attempted += 1
        try:
            rep = execute(cli, cfg, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            self.failures.append(f"run {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        expected = workloads.expected_sha256(self.workload, self.seed, cfg.rounds)
        first_csv = self.first_csv.setdefault(cfg.rounds, rep.csv_sha256)
        if rep.sha256 != expected:
            problem = f"final adapters sha256 {rep.sha256} != recorded {expected}"
        elif rep.csv_sha256 != first_csv:
            problem = "metrics.csv differs from the first repeat"
        else:
            return rep
        self.failures.append(f"run {self.attempted} ({cfg.rounds} rounds): {problem}")
        return None


def summarize(values: list[float], fastest: bool = False) -> dict:
    """Median, quartiles and count; ``value`` is the minimum when ``fastest``, else the median."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"value": min(values) if fastest else median, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read without changing it."""
    import numpy as np

    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside a repository."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment(clients: int) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pool_workers": max(1, min(clients, cpus, 4)),
        "git_commit": git_commit(ROOT),
        # Recorded, not gated: adding code must never fail a run.
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src" / "fedmentor").rglob("*.py")
        ),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload for ``seconds`` and return its metrics and check record."""
    import workloads
    from fedmentor import cli
    from fedmentor.config import build_experiment

    cfg = workloads.config(workload, seed)
    steps = workloads.sgd_steps(cfg)
    check = Check(workload, seed)
    check.attempt(cli, workloads.config(workload, seed, rounds=1))

    start = time.perf_counter()
    setup, plain, traced = [], [], []
    attempts = 0
    while attempts < MIN_REPEATS * (2 if trace else 1) or time.perf_counter() - start < seconds:
        for _ in range(SETUP_PER_RUN):
            t0 = time.perf_counter()
            build_experiment(cfg)
            setup.append(time.perf_counter() - t0)
        tracer = spans.Tracer() if trace and attempts % 2 else None
        rep = check.attempt(cli, cfg, tracer)
        attempts += 1
        if rep is not None:
            (plain if tracer is None else traced).append(rep)
    if not plain or (trace and not traced):
        raise RuntimeError("no run passed the check: " + "; ".join(check.failures[:3]))

    setup_median = statistics.median(setup)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    metrics = {
        "run_s": summarize([r.run_s for r in plain], fastest=True),
        "setup_s": summarize(setup),
        "us_per_step": summarize(
            [(r.run_s - setup_median) / steps * 1e6 for r in plain], fastest=True
        ),
        "cpu_s": summarize([r.cpu_s for r in plain], fastest=True),
        "peak_rss_mb": summarize([rss]),
        "final_accuracy": summarize([plain[0].summary["final_accuracy"]]),
        "comm_mb": summarize([plain[0].summary["total_comm_bytes"] / BYTES_PER_MB]),
        "success_rate": summarize([1 - len(check.failures) / check.attempted]),
    }
    if trace:
        layers = [spans.layer_metrics(r.tracer, steps, r.summary["gate_rounds"]) for r in traced]
        for name in layers[0]:
            metrics[name] = summarize([m[name] for m in layers])
        overhead = min(r.run_s for r in traced) / metrics["run_s"]["value"] - 1
        metrics["trace_overhead_frac"] = summarize([overhead])
        write_spans(OUT / f"{workload}-seed{seed}-spans.jsonl", traced[-1].tracer.spans)
    return {
        "workload": workload,
        "seed": seed,
        "variant": seed % workloads.VARIANTS,
        "sgd_steps": steps,
        "final_adapters_sha256": plain[0].sha256,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "failures": check.failures,
        "metrics": metrics,
    }


def write_spans(path: Path, recorded: list[spans.Span]) -> None:
    """Spans of one traced run, one JSON array per line, times relative to the first start."""
    t0 = min(s.start for s in recorded)
    with open(path, "w") as fh:
        for s in sorted(recorded, key=lambda s: s.start):
            fh.write(json.dumps([s.id, s.name, s.thread, s.parent, s.start - t0, s.end - t0, s.nbytes]))
            fh.write("\n")


def record() -> None:
    """Rewrite expected_sha256.json from the current program (both round counts, every variant)."""
    import workloads
    from fedmentor import cli

    table = {}
    for name in workloads.WORKLOADS:
        full = workloads.config(name, 0).rounds
        table[name] = {
            str(rounds): [
                execute(cli, workloads.config(name, v, rounds=rounds)).sha256
                for v in range(workloads.VARIANTS)
            ]
            for rounds in (full, 1)
        }
        print(f"recorded {name}", flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the contract's metrics mapping."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"{result['workload']} seed {result['seed']} (variant {result['variant']}), "
          f"trace {int(trace)}, {result['sgd_steps']} SGD steps per run")
    print(f"env: {env}")
    ok = result["attempted"] - result["failed"]
    print(f"check: {ok}/{result['attempted']} runs had the recorded final-adapters sha256 "
          f"{result['final_adapters_sha256']} and the same metrics.csv as the first repeat")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:<12.6g} {units.get(name, ''):10s} median "
              f"{m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} n={m['n']}")
    print(f"{'error_rate':34s} {result['failed'] / result['attempted']:<12.6g} frac")
    gated = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in gated}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("small_model", "wide_model", "many_clients"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected_sha256.json")
    args = parser.parse_args(argv)

    if "FEDMENTOR_THREADS" in os.environ:
        print("refusing to run: FEDMENTOR_THREADS is set, which changes the program under "
              "test; unset it to benchmark the program as shipped", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fedmentor" / "__init__.py").is_file():
        print(f"cannot run: no fedmentor source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # The program and the modules that import it load only after the checks above.
    sys.path.insert(0, str(ROOT / "src"))
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(len(workloads.config(args.workload, args.seed).data.domains))
    metrics = report(result, spec, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
