"""Utility proxies over validation data.

The server's gate decisions run on these proxies: pooled validation accuracy
and the negated mean cross-entropy (negated so that, like every utility,
larger is better). Evaluation reads validation splits only — training data
never enters a utility number.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .trainer import cross_entropy

__all__ = ["evaluate", "ACCURACY", "NEG_EVAL_LOSS", "METRIC_NAMES"]

ACCURACY = "accuracy"
NEG_EVAL_LOSS = "neg_eval_loss"
METRIC_NAMES = (ACCURACY, NEG_EVAL_LOSS)

# A model view maps a feature batch (n, d) to a logit vector (n,).
ModelView = Callable[[np.ndarray], np.ndarray]


def evaluate(model_view: ModelView, datasets: Sequence[Dataset]) -> dict[str, float]:
    """Accuracy and mean cross-entropy over the pooled validation splits.

    Returns ``{ACCURACY: ..., NEG_EVAL_LOSS: ...}``, each pooled over every
    validation sample, so a larger split weighs more. Training splits are
    never touched.
    """
    if not datasets:
        raise ValueError("evaluate needs at least one dataset")
    correct = 0
    total = 0
    loss_sum = 0.0
    for ds in datasets:
        logits = np.asarray(model_view(ds.val_x), dtype=np.float64)
        if logits.shape != (ds.n_val,):
            raise ValueError(
                f"model view returned shape {logits.shape} for {ds.n_val} samples"
            )
        preds = (logits > 0.0).astype(np.int64)
        correct += int(np.sum(preds == ds.val_y))
        total += ds.n_val
        loss_sum += float(np.sum(cross_entropy(logits, ds.val_y)))
    return {ACCURACY: correct / total, NEG_EVAL_LOSS: -loss_sum / total}
