"""Command-line entry point, and the one module that writes and reads a run directory.

    fedmentor run --config CONFIG [--seed N] [--rounds R] [--out DIR]
    fedmentor sweep --config CONFIG --domain NAME --eps V [V ...]
    fedmentor report RUN_DIR [--plot-csv PATH]

Each run writes into its own directory named by seed and timestamp (never
overwriting an earlier run). It holds three files:

    metrics.csv    one row per completed round (``metrics_csv_lines``)
    adapters.bin   the final global adapters in wire format
    summary.json   the config echo (less ``output_dir``), rounds completed,
                   total communication bytes, final utilities, and the
                   SHA-256 of the final adapters' wire bytes (those of
                   ``adapters.bin``, or of the starting adapters if no
                   round completed)

A run whose round fails keeps ``metrics.csv`` and ``adapters.bin`` for the
rounds it completed, if any, and its ``summary.json`` carries the error,
which ``report`` prints.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from .config import ConfigError, RunConfig, build_experiment, load_config
from .federation import RoundError, RoundRecord, run_training
from .lora import serialize
from .metrics import ACCURACY, METRIC_NAMES

__all__ = ["main", "run_command", "sweep_command", "report_command"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

BYTES_PER_MB = 1024 * 1024


def bytes_to_mb(n_bytes: int) -> float:
    return n_bytes / BYTES_PER_MB


def _fresh_run_dir(parent: Path, seed: int) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"run-seed{seed}-{stamp}"
    candidate = parent / base
    for n in itertools.count(2):
        try:
            candidate.mkdir()  # no exists() check first: another process may take the name
            return candidate
        except FileExistsError:
            candidate = parent / f"{base}-{n}"


def execute_run(cfg: RunConfig, run_dir: Path) -> dict:
    """Train per the config and write metrics.csv, adapters.bin and summary.json.

    If a round fails, the artifacts of the rounds completed before it are
    written, and then its ``RoundError`` is raised again.
    """
    experiment = build_experiment(cfg)
    error = None
    try:
        server, records = run_training(experiment.server, experiment.clients, cfg.rounds)
    except RoundError as exc:
        server, records, error = exc.server, exc.records, exc
    blob = serialize(server.global_adapters)
    if records:
        write_metrics_csv(records, run_dir / "metrics.csv")
        (run_dir / "adapters.bin").write_bytes(blob)
    summary = {
        # Where the run was written is no part of it: same runs, same summary bytes.
        "config": {k: v for k, v in cfg.to_dict().items() if k != "output_dir"},
        "final_adapters_sha256": hashlib.sha256(blob).hexdigest(),
        "rounds_completed": len(records),
        "total_comm_bytes": sum(r.broadcast_bytes + r.upload_bytes for r in records),
        "final_utilities": dict(records[-1].utilities) if records else {},
    }
    if error is not None:
        summary["error"] = str(error)
    write_summary_json(run_dir / "summary.json", summary)
    if error is not None:
        raise error
    final = records[-1]
    return {
        "rounds": len(records),
        "final_accuracy": final.utilities[ACCURACY],
        "total_comm_bytes": summary["total_comm_bytes"],
        "gate_rounds": sum(1 for r in records if r.gate_triggered),
        "scale_multiplier": final.scale_multiplier,
    }


def metrics_csv_lines(records: Sequence[RoundRecord]) -> list[str]:
    """Fixed-column CSV rows, one per round.

    Columns: round, per-client validation losses (client ids sorted; empty
    in a round the client dropped out of), comm byte counters, utilities,
    gate flag, scale multiplier, per-domain budgets (domains sorted). A float
    is written as ``str`` writes it, its shortest round-trip form, so equal
    runs produce byte-equal files.
    """
    if not records:
        raise ValueError("no records to format")
    client_ids = sorted({cid for r in records for cid in r.eval_losses})
    domains = sorted(records[0].budgets)
    header = ["round", *(f"client{cid}_eval_loss" for cid in client_ids)]
    header += ["broadcast_bytes", "upload_bytes", "total_comm_bytes"]
    header += list(METRIC_NAMES)
    header += ["gate_triggered", "scale_multiplier"]
    header += [f"budget_{d}" for d in domains]

    lines = [",".join(header)]
    for rec in records:
        row = [str(rec.round)]
        row += [str(rec.eval_losses.get(cid, "")) for cid in client_ids]
        total = rec.broadcast_bytes + rec.upload_bytes
        row += [str(rec.broadcast_bytes), str(rec.upload_bytes), str(total)]
        row += [str(rec.utilities[m]) for m in METRIC_NAMES]
        row += [str(int(rec.gate_triggered)), str(rec.scale_multiplier)]
        row += [str(rec.budgets[d]) for d in domains]
        lines.append(",".join(row))
    return lines


def write_metrics_csv(records: Sequence[RoundRecord], path) -> None:
    Path(path).write_text("\n".join(metrics_csv_lines(records)) + "\n", newline="")


def write_summary_json(path, summary: Mapping) -> None:
    """Encode the whole summary before opening the file, so a bad value leaves no partial file."""
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text)


def run_command(
    config_path,
    seed: int | None = None,
    rounds: int | None = None,
    out: str | None = None,
) -> Path:
    """Load config, apply CLI overrides, run, and return the run directory.

    ``replace`` checks the overridden config before any run directory exists.
    """
    overrides = {"seed": seed, "rounds": rounds, "output_dir": out}
    cfg = replace(load_config(config_path), **{k: v for k, v in overrides.items() if v is not None})
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
    domain must have a client. If a run's round fails, ``sweep.csv`` still
    holds a row for each run completed before it, and the ``RoundError`` is
    raised again.
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
    rows, error = [], None
    for name, eps in names.items():
        entries = dict(cfg.budgets.entries)
        entries[domain] = eps
        run_cfg = replace(cfg, budgets=replace(cfg.budgets, entries=entries))
        run_dir = sweep_dir / name
        run_dir.mkdir()
        try:
            summary = execute_run(run_cfg, run_dir)
        except RoundError as exc:
            error = exc
            break
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
    columns = [
        "domain", "eps", "final_accuracy", "gate_rounds", "scale_multiplier", "total_comm_bytes",
        "run_dir",
    ]
    with open(sweep_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    if error is not None:
        print(f"partial artifacts in {run_dir}", file=sys.stderr)
        raise error

    print(f"{'eps':>8}  {'accuracy':>9}  {'gate':>5}  {'comm MB':>8}")
    for row in rows:
        print(
            f"{float(row['eps']):>8g}  {float(row['final_accuracy']):>9.4f}  "
            f"{row['gate_rounds']:>5}  {bytes_to_mb(row['total_comm_bytes']):>8.2f}"
        )
    print(f"sweep table in {sweep_dir / 'sweep.csv'}")
    return sweep_dir


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
        columns, rows = [], []
    else:
        with open(run_dir / "metrics.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        columns = reader.fieldnames
        budget_cols = [c for c in columns if c.startswith("budget_")]
        sha = summary["final_adapters_sha256"]
        print(f"rounds: {len(rows)}, final adapters sha256: {sha[:16]}…")
        print()
        print(f"{'round':>5}  {'accuracy':>9}  {'neg_loss':>9}  {'gate':>4}  {'mult':>8}")
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
