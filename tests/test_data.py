"""Synthetic domain generation and the domain spec recipe."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor import data
from fedmentor.data import (
    DEFAULT_DOMAIN_SIZES,
    Dataset,
    DomainOverride,
    DomainSpec,
    domain_specs,
    make_domain,
)
from fedmentor.linalg import Rng
from oracles import stream_oracle


def simple_spec(**kwargs) -> DomainSpec:
    base = dict(
        domain="d",
        n_train=50,
        n_val=10,
        input_dim=4,
        true_weights=(1.0, 0.0, 0.0, 0.0),
        rotation_angle=0.0,
        label_noise=0.0,
    )
    base.update(kwargs)
    return DomainSpec(**base)


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            simple_spec(n_train=0)
        with pytest.raises(ValueError):
            simple_spec(n_val=0)

    def test_label_noise_bounds(self):
        with pytest.raises(ValueError):
            simple_spec(label_noise=0.5)
        with pytest.raises(ValueError):
            simple_spec(label_noise=-0.1)

    def test_weight_length_must_match_dim(self):
        with pytest.raises(ValueError):
            simple_spec(true_weights=(1.0, 2.0))

    def test_rotation_needs_two_dims(self):
        with pytest.raises(ValueError):
            DomainSpec("d", 5, 5, 1, (1.0,), rotation_angle=0.3)


class TestMakeDomain:
    def test_zero_rotation_labels_follow_first_feature(self):
        ds = make_domain(simple_spec(), Rng(1, "gen"))
        assert np.array_equal(ds.train_y, (ds.train_x[:, 0] > 0).astype(np.int64))
        assert np.array_equal(ds.val_y, (ds.val_x[:, 0] > 0).astype(np.int64))

    def test_exact_counts(self):
        ds = make_domain(simple_spec(n_train=37, n_val=13), Rng(2))
        assert ds.n_train == 37 and ds.n_val == 13

    def test_same_spec_and_seed_identical(self):
        a = make_domain(simple_spec(), Rng(3, "x"))
        b = make_domain(simple_spec(), Rng(3, "x"))
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.val_x, b.val_x)
        assert np.array_equal(a.val_y, b.val_y)

    def test_train_and_val_streams_disjoint(self):
        ds = make_domain(simple_spec(n_train=10, n_val=10), Rng(4))
        # Same shape but statistically independent draws: no shared rows.
        for row in ds.val_x:
            assert not any(np.array_equal(row, t) for t in ds.train_x)

    def test_rotation_changes_feature_label_correlation(self):
        # Empirical correlation oracle over 1e4 samples for angles 0 vs pi/2.
        n = 10_000
        corr = {}
        for angle in (0.0, np.pi / 2):
            spec = simple_spec(n_train=n, rotation_angle=angle)
            ds = make_domain(spec, Rng(5, "rot"))
            y = ds.train_y.astype(np.float64)
            corr[angle] = [
                float(np.corrcoef(ds.train_x[:, j], y)[0, 1]) for j in range(spec.input_dim)
            ]
        # At angle 0 the label tracks feature 0; at pi/2 it tracks feature 1.
        assert abs(corr[0.0][0]) > 0.5 and abs(corr[0.0][1]) < 0.1
        assert abs(corr[np.pi / 2][1]) > 0.5 and abs(corr[np.pi / 2][0]) < 0.1

    def test_label_noise_flips_expected_fraction(self):
        clean = make_domain(simple_spec(n_train=20_000), Rng(6, "noise"))
        noisy = make_domain(simple_spec(n_train=20_000, label_noise=0.2), Rng(6, "noise"))
        flip_rate = float(np.mean(clean.train_y != noisy.train_y))
        assert abs(flip_rate - 0.2) < 0.02

    def test_generating_boundary_is_bayes_optimal_when_noiseless(self):
        # The rotated true weight vector classifies its own domain perfectly.
        spec = simple_spec(n_train=2000, rotation_angle=0.7)
        ds = make_domain(spec, Rng(7))
        c, s = np.cos(spec.rotation_angle), np.sin(spec.rotation_angle)
        rot = np.eye(spec.input_dim)
        rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c
        w_eff = rot @ np.array(spec.true_weights)
        preds = (ds.train_x @ w_eff > 0).astype(np.int64)
        assert np.array_equal(preds, ds.train_y)

    def test_datasets_are_immutable(self):
        ds = make_domain(simple_spec(), Rng(8))
        with pytest.raises(ValueError):
            ds.train_x[0, 0] = 99.0

    def test_zero_angle_features_are_the_stream_draws(self, monkeypatch):
        # An unrotated domain builds no rotation and its features are its draws, bit for bit.
        def no_rotation(*args):
            raise AssertionError("a zero angle needs no rotation matrix")

        monkeypatch.setattr(data, "_rotation", no_rotation)
        ds = make_domain(simple_spec(n_train=37, n_val=13), Rng(9, "gen"))
        train = stream_oracle(9, "gen", "train").standard_normal((37, 4))
        val = stream_oracle(9, "gen", "val").standard_normal((13, 4))
        assert train.tobytes() == ds.train_x.tobytes()
        assert val.tobytes() == ds.val_x.tobytes()


STOCK = tuple(DEFAULT_DOMAIN_SIZES)


def stock_specs(rng: Rng, scale: float = 1.0) -> list[DomainSpec]:
    return domain_specs(rng, STOCK, scale=scale, input_dim=8)


class TestDefaultFederation:
    def test_scaled_sizes(self):
        specs = stock_specs(Rng(1), scale=0.1)
        sizes = {s.domain: s.n_train for s in specs}
        assert sizes == {"Dreaddit": 355, "IRF": 352, "MultiWD": 328}

    def test_full_scale_matches_corpus_sizes(self):
        specs = stock_specs(Rng(1), scale=1.0)
        sizes = {s.domain: s.n_train for s in specs}
        assert sizes == DEFAULT_DOMAIN_SIZES

    def test_each_domain_exactly_once(self):
        specs = domain_specs(Rng(2), ["x", "IRF", "Dreaddit", "a"], scale=0.1, input_dim=8)
        assert [s.domain for s in specs] == ["x", "IRF", "Dreaddit", "a"]

    def test_distinct_rotations(self):
        specs = stock_specs(Rng(3))
        angles = [s.rotation_angle for s in specs]
        assert len(set(angles)) == 3

    def test_distinct_true_weights(self):
        specs = stock_specs(Rng(4))
        weights = {s.true_weights for s in specs}
        assert len(weights) == 3

    def test_deterministic_in_rng(self):
        a = stock_specs(Rng(5, "specs"))
        b = stock_specs(Rng(5, "specs"))
        assert a == b

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            stock_specs(Rng(1), scale=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        names=st.lists(st.sampled_from(STOCK) | st.text(min_size=1, max_size=6),
                       min_size=1, max_size=6, unique=True),
        scale=st.floats(0.001, 2.0),
        input_dim=st.integers(2, 6),
        label_noise=st.floats(0.0, 0.4),
        n_train=st.none() | st.integers(1, 50),
        angle=st.none() | st.floats(-3.0, 3.0),
    )
    def test_each_spec_depends_on_its_name_alone(
        self, names, scale, input_dim, label_noise, n_train, angle
    ):
        """A domain's spec is the one a call naming it alone gives, whatever else is listed."""
        overrides = {names[0]: DomainOverride(n_train=n_train, rotation_angle=angle)}
        kwargs = dict(scale=scale, input_dim=input_dim, label_noise=label_noise,
                      overrides=overrides)
        specs = domain_specs(Rng(6, "specs"), names, **kwargs)
        assert specs == [domain_specs(Rng(6, "specs"), [name], **kwargs)[0] for name in names]


class TestCsvRoundTrip:
    def test_split_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64),
                    np.zeros((1, 2)), np.zeros(1, dtype=np.int64))


class TestDataset:
    def test_caller_arrays_stay_writable(self):
        xs, ys = np.zeros((3, 2)), np.zeros(3, dtype=np.int64)
        Dataset(xs, ys, xs, ys)
        assert xs.flags.writeable and ys.flags.writeable

    def test_train_and_val_widths_must_match(self):
        ys = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="of one width"):
            Dataset(np.zeros((3, 5)), ys, np.zeros((3, 4)), ys)

    def test_features_must_be_2d_and_labels_1d(self):
        ys = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="need 2-D features"):
            Dataset(np.zeros(3), ys, np.zeros(3), ys)
        with pytest.raises(ValueError, match="1-D labels"):
            Dataset(np.zeros((3, 2)), ys[:, None], np.zeros((3, 2)), ys)

    def test_writes_through_a_view_base_do_not_reach_the_dataset(self):
        base = np.zeros((5, 2))
        ys = np.zeros(3, dtype=np.int64)
        ds = Dataset(base[:3], ys, base[:3], ys)
        base[0, 0] = 5.0
        assert ds.train_x[0, 0] == 0.0 and ds.val_x[0, 0] == 0.0
