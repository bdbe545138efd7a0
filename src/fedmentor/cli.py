"""Command-line entry point: run experiments, sweep budgets, inspect runs.

    fedmentor run --config CONFIG [--seed N] [--rounds R] [--out DIR]
    fedmentor sweep --config CONFIG --domain NAME --eps V [V ...]
    fedmentor report RUN_DIR [--plot-csv PATH]

Each run writes into its own directory named by seed and timestamp (never
overwriting an earlier run): ``metrics.csv`` with one row per round,
``summary.json`` with the config echo (less ``output_dir``) and the final
adapter checksum, and ``adapters.bin`` holding the final global adapters in
wire format. A run whose round fails keeps ``metrics.csv`` and
``adapters.bin`` for the rounds it completed, if any, and its
``summary.json`` carries the error, which ``report`` prints.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, RunConfig, build_experiment, config_from_dict, load_config
from .federation import (
    RoundError, bytes_to_mb, run_training, write_metrics_csv, write_summary_json,
)
from .lora import serialize
from .metrics import ACCURACY

__all__ = ["main", "run_command", "sweep_command", "report_command"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fresh_run_dir(parent: Path, seed: int) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"run-seed{seed}-{stamp}"
    candidate = parent / base
    n = 1
    while candidate.exists():
        n += 1
        candidate = parent / f"{base}-{n}"
    candidate.mkdir()
    return candidate


def execute_run(cfg: RunConfig, run_dir: Path) -> dict:
    """Train per the config and emit metrics.csv / summary.json / adapters.bin.

    If a round fails, the artifacts of the rounds completed before it are
    written, and then its ``RoundError`` is raised again.
    """
    experiment = build_experiment(cfg)
    error = None
    try:
        server, records = run_training(experiment.server, experiment.clients, cfg.rounds)
    except RoundError as exc:
        server, records, error = exc.server, exc.records, exc
    if records:
        write_metrics_csv(records, run_dir / "metrics.csv")
        (run_dir / "adapters.bin").write_bytes(serialize(server.global_adapters))
    # Where the run was written is no part of it: same runs, same summary bytes.
    echo = {k: v for k, v in cfg.to_dict().items() if k != "output_dir"}
    write_summary_json(run_dir / "summary.json", echo, server.global_adapters, records, error)
    if error is not None:
        raise error
    final = records[-1]
    return {
        "rounds": len(records),
        "final_accuracy": final.utilities[ACCURACY],
        "total_comm_bytes": sum(r.broadcast_bytes + r.upload_bytes for r in records),
        "gate_rounds": sum(1 for r in records if r.gate_triggered),
        "scale_multiplier": final.scale_multiplier,
    }


def run_command(
    config_path,
    seed: int | None = None,
    rounds: int | None = None,
    out: str | None = None,
) -> Path:
    """Load config, apply CLI overrides, run, and return the run directory."""
    cfg = load_config(config_path)
    overrides = {"seed": seed, "rounds": rounds, "output_dir": out}
    cfg = config_from_dict(
        {**cfg.to_dict(), **{k: v for k, v in overrides.items() if v is not None}}
    )
    run_dir = _fresh_run_dir(Path(cfg.output_dir), cfg.seed)
    try:
        summary = execute_run(cfg, run_dir)
    except RoundError:
        print(f"partial artifacts in {run_dir}", file=sys.stderr)
        raise
    print(
        f"run complete: {summary['rounds']} rounds, "
        f"final accuracy {summary['final_accuracy']:.4f}, "
        f"comm {bytes_to_mb(summary['total_comm_bytes']):.2f} MB, "
        f"gate fired {summary['gate_rounds']}x"
    )
    print(f"artifacts in {run_dir}")
    return run_dir


def sweep_command(config_path, domain: str, eps_values: list[float], out: str | None = None) -> Path:
    """One training per epsilon for the chosen domain, other budgets fixed.

    Only the strategies that read per-domain budgets can sweep one, and the
    domain must have a client.
    """
    if not eps_values:
        raise ConfigError("sweep: --eps needs at least one value")
    cfg = load_config(config_path)
    if out is not None:
        cfg = replace(cfg, output_dir=out)
    if not cfg.strategy.per_domain:
        raise ConfigError(
            f"sweep: strategy {cfg.strategy.kind!r} does not read per-domain budgets"
        )
    if domain not in cfg.data.domains:
        raise ConfigError(
            f"sweep: domain {domain!r} has no client; data.domains: {list(cfg.data.domains)}"
        )

    names = {}
    for eps in eps_values:
        if not 0 < eps < math.inf:
            raise ConfigError(f"sweep: eps values must be > 0 and finite, got {eps}")
        name = f"eps-{eps:g}"
        if name in names:
            raise ConfigError(f"sweep: eps values {names[name]} and {eps} both name the run {name}")
        names[name] = eps

    sweep_dir = _fresh_run_dir(Path(cfg.output_dir), cfg.seed)
    rows = []
    for name, eps in names.items():
        entries = dict(cfg.budgets.entries)
        entries[domain] = eps
        run_cfg = replace(cfg, budgets=replace(cfg.budgets, entries=entries))
        run_dir = sweep_dir / name
        run_dir.mkdir()
        summary = execute_run(run_cfg, run_dir)
        rows.append(
            {
                "domain": domain,
                "eps": repr(float(eps)),
                "final_accuracy": repr(summary["final_accuracy"]),
                "gate_rounds": summary["gate_rounds"],
                "scale_multiplier": repr(summary["scale_multiplier"]),
                "total_comm_bytes": summary["total_comm_bytes"],
                "run_dir": run_dir.name,
            }
        )
    with open(sweep_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"{'eps':>8}  {'accuracy':>9}  {'gate':>5}  {'comm MB':>8}")
    for row in rows:
        print(
            f"{float(row['eps']):>8g}  {float(row['final_accuracy']):>9.4f}  "
            f"{row['gate_rounds']:>5}  {bytes_to_mb(row['total_comm_bytes']):>8.2f}"
        )
    print(f"sweep table in {sweep_dir / 'sweep.csv'}")
    return sweep_dir


def _read_metrics(run_dir: Path) -> tuple[list[str], list[dict]]:
    metrics_path = run_dir / "metrics.csv"
    if not metrics_path.exists():
        raise FileNotFoundError(f"missing metrics file: {metrics_path}")
    with open(metrics_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def report_command(run_dir, plot_csv=None) -> None:
    """Print a failed run's error, the round table, budget traces, gate events, and comm totals."""
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"missing summary file: {summary_path}")
    summary = json.loads(summary_path.read_text())
    print(f"run: {run_dir}")
    if "error" in summary:
        print(f"run failed: {summary['error']}")
    if summary["rounds_completed"] == 0:  # only a failed run; it wrote no metrics.csv
        print("rounds: 0")
        return
    columns, rows = _read_metrics(run_dir)

    budget_cols = [c for c in columns if c.startswith("budget_")]
    print(f"rounds: {len(rows)}, final adapters sha256: {summary['final_adapters_sha256'][:16]}…")
    print()
    header = f"{'round':>5}  {'accuracy':>9}  {'neg_loss':>9}  {'gate':>4}  {'mult':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['round']:>5}  {float(row['accuracy']):>9.4f}  "
            f"{float(row['neg_eval_loss']):>9.4f}  {row['gate_triggered']:>4}  "
            f"{float(row['scale_multiplier']):>8.4f}"
        )
    print()
    for col in budget_cols:
        trace = " -> ".join(f"{float(r[col]):.4f}" for r in rows)
        print(f"{col}: {trace}")
    gate_rounds = [r["round"] for r in rows if r["gate_triggered"] == "1"]
    print(f"gate fired in rounds: {', '.join(gate_rounds) if gate_rounds else 'never'}")
    total = sum(int(r["total_comm_bytes"]) for r in rows)
    print(f"total communication: {total} bytes ({bytes_to_mb(total):.2f} MB)")

    if plot_csv is not None:
        with open(plot_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "metric", "value"])
            for row in rows:
                for col in columns:
                    if col != "round":
                        writer.writerow([row["round"], col, row[col]])
        print(f"plot-ready CSV in {plot_csv}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmentor",
        description="Federated LoRA fine-tuning simulator with domain-aware DP noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--rounds", type=int, default=None, help="override the round count")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_sweep = sub.add_parser("sweep", help="sweep one domain's privacy budget")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--domain", required=True)
    p_sweep.add_argument("--eps", type=float, nargs="+", required=True, help="budget values")
    p_sweep.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="summarize a finished run directory")
    p_report.add_argument("run_dir")
    p_report.add_argument("--plot-csv", default=None, help="also write a tidy long-format CSV")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run_command(args.config, seed=args.seed, rounds=args.rounds, out=args.out)
        elif args.command == "sweep":
            sweep_command(args.config, args.domain, args.eps, out=args.out)
        else:
            report_command(args.run_dir, plot_csv=args.plot_csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
