"""Utility proxies."""
from __future__ import annotations

import numpy as np
import pytest

from fedmentor.data import Dataset, DomainSpec, make_domain
from fedmentor.linalg import Rng
from fedmentor.metrics import ACCURACY, NEG_EVAL_LOSS, evaluate


def boundary_dataset(rng: Rng, n_val: int = 500, dim: int = 4) -> Dataset:
    spec = DomainSpec("d", 10, n_val, dim, tuple([1.0] + [0.0] * (dim - 1)))
    return make_domain(spec, rng)


class TestEvaluate:
    def test_random_guess_near_half(self):
        ds = boundary_dataset(Rng(1), n_val=1000)
        noise = Rng(2, "guess")

        def view(xs):
            return noise.standard_normal(1, xs.shape[0])[0]

        assert abs(evaluate(view, [ds])[ACCURACY] - 0.5) < 0.05

    def test_perfect_model_on_noiseless_data(self):
        ds = boundary_dataset(Rng(3))

        def view(xs):
            return xs @ np.array([1.0, 0.0, 0.0, 0.0]) * 10.0

        assert evaluate(view, [ds])[ACCURACY] == 1.0

    def test_idempotent(self):
        ds = boundary_dataset(Rng(4))

        def view(xs):
            return xs[:, 0] - 0.2 * xs[:, 1]

        assert evaluate(view, [ds]) == evaluate(view, [ds])

    def test_training_split_never_consulted(self):
        ds = boundary_dataset(Rng(5))
        poisoned = Dataset(
            np.full_like(ds.train_x, 1e9),
            1 - ds.train_y,
            ds.val_x,
            ds.val_y,
        )

        def view(xs):
            return xs[:, 0]

        assert evaluate(view, [ds]) == evaluate(view, [poisoned])

    def test_pooled_metrics_weight_by_sample_count(self):
        big = boundary_dataset(Rng(6), n_val=900)
        small = boundary_dataset(Rng(7), n_val=100)

        def perfect_on_big_only(xs):
            return xs[:, 0] * 10.0

        # Make the small domain always wrong: invert its labels.
        wrong_small = Dataset(small.train_x, small.train_y, small.val_x, 1 - small.val_y)
        assert evaluate(perfect_on_big_only, [big])[ACCURACY] == 1.0
        assert evaluate(perfect_on_big_only, [wrong_small])[ACCURACY] == 0.0
        pooled = evaluate(perfect_on_big_only, [big, wrong_small])
        assert pooled[ACCURACY] == pytest.approx(0.9, abs=1e-12)

    def test_neg_eval_loss_matches_direct_cross_entropy(self):
        ds = boundary_dataset(Rng(8))

        def view(xs):
            return xs @ np.array([1.0, 0.0, 0.0, 0.0]) * 20.0

        utilities = evaluate(view, [ds])
        zs = view(ds.val_x)
        ys = ds.val_y.astype(np.float64)
        expected = np.mean(np.maximum(zs, 0) - zs * ys + np.log1p(np.exp(-np.abs(zs))))
        assert utilities[NEG_EVAL_LOSS] == pytest.approx(-expected, rel=1e-12)
        assert utilities[NEG_EVAL_LOSS] < 0.0

    def test_no_datasets_rejected(self):
        with pytest.raises(ValueError):
            evaluate(lambda xs: xs[:, 0], [])

    def test_bad_view_shape_rejected(self):
        ds = boundary_dataset(Rng(9))
        with pytest.raises(ValueError):
            evaluate(lambda xs: np.zeros((2, 2)), [ds])
