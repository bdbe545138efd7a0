"""Utility proxies and the comparison table."""
from __future__ import annotations

import numpy as np
import pytest

from fedmentor.data import Dataset, DomainSpec, make_domain
from fedmentor.linalg import Rng
from fedmentor.metrics import (
    ACCURACY,
    NEG_EVAL_LOSS,
    UtilityReport,
    evaluate,
    write_comparison_csv,
)


def boundary_dataset(rng: Rng, n_val: int = 500, dim: int = 4) -> Dataset:
    spec = DomainSpec("d", 10, n_val, dim, tuple([1.0] + [0.0] * (dim - 1)))
    return make_domain(spec, rng)


class TestEvaluate:
    def test_random_guess_near_half(self):
        ds = boundary_dataset(Rng(1), n_val=1000)
        noise = Rng(2, "guess")

        def view(xs):
            return noise.standard_normal(1, xs.shape[0])[0]

        report = evaluate(view, [ds])
        assert abs(report.per_metric[ACCURACY] - 0.5) < 0.05

    def test_perfect_model_on_noiseless_data(self):
        ds = boundary_dataset(Rng(3))

        def view(xs):
            return xs @ np.array([1.0, 0.0, 0.0, 0.0]) * 10.0

        report = evaluate(view, [ds])
        assert report.per_metric[ACCURACY] == 1.0
        assert report.per_client_accuracy == {0: 1.0}

    def test_idempotent(self):
        ds = boundary_dataset(Rng(4))

        def view(xs):
            return xs[:, 0] - 0.2 * xs[:, 1]

        first = evaluate(view, [ds])
        second = evaluate(view, [ds])
        assert first.per_metric == second.per_metric
        assert first.per_client_accuracy == second.per_client_accuracy

    def test_training_split_never_consulted(self):
        ds = boundary_dataset(Rng(5))
        poisoned = Dataset(
            ds.domain,
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
        wrong_small = Dataset(
            "s", small.train_x, small.train_y, small.val_x, 1 - small.val_y
        )
        report = evaluate(perfect_on_big_only, [big, wrong_small])
        assert report.per_client_accuracy[0] == 1.0
        assert report.per_client_accuracy[1] == 0.0
        assert report.per_metric[ACCURACY] == pytest.approx(0.9, abs=1e-12)

    def test_neg_eval_loss_matches_direct_cross_entropy(self):
        ds = boundary_dataset(Rng(8))

        def view(xs):
            return xs @ np.array([1.0, 0.0, 0.0, 0.0]) * 20.0

        report = evaluate(view, [ds])
        zs = view(ds.val_x)
        ys = ds.val_y.astype(np.float64)
        expected = np.mean(np.maximum(zs, 0) - zs * ys + np.log1p(np.exp(-np.abs(zs))))
        assert report.per_metric[NEG_EVAL_LOSS] == pytest.approx(-expected, rel=1e-12)
        assert report.per_metric[NEG_EVAL_LOSS] < 0.0

    def test_no_datasets_rejected(self):
        with pytest.raises(ValueError):
            evaluate(lambda xs: xs[:, 0], [])

    def test_bad_view_shape_rejected(self):
        ds = boundary_dataset(Rng(9))
        with pytest.raises(ValueError):
            evaluate(lambda xs: np.zeros((2, 2)), [ds])

    def test_accuracy_range_enforced(self):
        with pytest.raises(ValueError):
            UtilityReport({}, {0: 1.5})


class TestComparisonCsv:
    def test_writes_one_row_per_entry(self, tmp_path):
        path = tmp_path / "table.csv"
        write_comparison_csv(path, [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 3

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_comparison_csv(tmp_path / "t.csv", [])
