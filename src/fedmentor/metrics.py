"""Utility proxies over validation data, and the comparison table writer.

The server's gate decisions run on these proxies: pooled validation accuracy
and the negated mean cross-entropy (negated so that, like every utility,
larger is better). Evaluation reads validation splits only — training data
never enters a utility number.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import Dataset
from .trainer import cross_entropy

__all__ = [
    "UtilityReport",
    "evaluate",
    "write_comparison_csv",
    "ACCURACY",
    "NEG_EVAL_LOSS",
    "METRIC_NAMES",
]

ACCURACY = "accuracy"
NEG_EVAL_LOSS = "neg_eval_loss"
METRIC_NAMES = (ACCURACY, NEG_EVAL_LOSS)

# A model view maps a feature batch (n, d) to a logit vector (n,).
ModelView = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class UtilityReport:
    """Pooled utility proxies plus accuracy per evaluated dataset."""

    per_metric: Mapping[str, float]
    per_client_accuracy: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "per_metric", dict(self.per_metric))
        object.__setattr__(self, "per_client_accuracy", dict(self.per_client_accuracy))
        for idx, acc in self.per_client_accuracy.items():
            if not 0.0 <= acc <= 1.0:
                raise ValueError(f"accuracy for client {idx} outside [0, 1]: {acc}")


def evaluate(model_view: ModelView, datasets: Sequence[Dataset]) -> UtilityReport:
    """Accuracy and mean cross-entropy over the pooled validation splits.

    ``per_client_accuracy`` is keyed by position in ``datasets``; callers
    that pass datasets in client-id order get client ids back. Training
    splits are never touched.
    """
    if not datasets:
        raise ValueError("evaluate needs at least one dataset")
    per_client = {}
    correct = 0
    total = 0
    loss_sum = 0.0
    for idx, ds in enumerate(datasets):
        logits = np.asarray(model_view(ds.val_x), dtype=np.float64)
        if logits.shape != (ds.n_val,):
            raise ValueError(
                f"model view returned shape {logits.shape} for {ds.n_val} samples"
            )
        preds = (logits > 0.0).astype(np.int64)
        hits = int(np.sum(preds == ds.val_y))
        per_client[idx] = hits / ds.n_val
        correct += hits
        total += ds.n_val
        loss_sum += float(np.sum(cross_entropy(logits, ds.val_y)))
    return UtilityReport(
        per_metric={ACCURACY: correct / total, NEG_EVAL_LOSS: -loss_sum / total},
        per_client_accuracy=per_client,
    )


def write_comparison_csv(path, rows: Sequence[Mapping[str, object]]) -> None:
    """One row per strategy/run, for ablation-style side-by-side tables."""
    if not rows:
        raise ValueError("no rows to write")
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
