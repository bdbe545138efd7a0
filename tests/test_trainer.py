"""Forward pass, loss, analytic gradients, and the local SGD loop."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor import trainer
from fedmentor.data import Dataset, DomainSpec, make_domain
from fedmentor.linalg import Matrix, Rng, ShapeError
from fedmentor.lora import AdapterSet, serialize
from fedmentor.trainer import (
    BackboneModel,
    ClientState,
    _sigmoid,
    cross_entropy,
    grad_adapters,
    init_adapters,
    model_view,
    train_local,
)
from oracles import (
    backbone_checksum,
    fd_gradient_check,
    masked_sigmoid,
    mean_loss,
    merged_forward,
    pairwise_grad_adapters,
    randomized_adapters,
    unflatten_gradient,
    zero_adapters,
)


def tiny_dataset(rng: Rng, n: int = 40, dim: int = 5) -> Dataset:
    spec = DomainSpec("d", n, max(4, n // 5), dim, tuple([1.0] + [0.0] * (dim - 1)))
    return make_domain(spec, rng)


class TestBackbone:
    def test_random_shapes(self):
        m = BackboneModel.random(Rng(1), input_dim=5, hidden_dim=7, n_layers=3)
        assert [w.shape for w in m.layers] == [(7, 5), (7, 7), (7, 7)]
        assert m.head.shape == (1, 7)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            BackboneModel(
                (Matrix(np.zeros((4, 3))), Matrix(np.zeros((4, 5)))), Matrix(np.zeros((1, 4)))
            )

    def test_head_shape_enforced(self):
        with pytest.raises(ShapeError):
            BackboneModel((Matrix(np.zeros((4, 3))),), Matrix(np.zeros((1, 5))))

    def test_checksum_stable(self):
        m = BackboneModel.random(Rng(2), 4, 6, 2)
        assert backbone_checksum(m) == backbone_checksum(m)
        other = BackboneModel.random(Rng(3), 4, 6, 2)
        assert backbone_checksum(m) != backbone_checksum(other)


class TestInitAdapters:
    def test_b_zero_a_small(self):
        model = BackboneModel.random(Rng(4), 5, 8, 2)
        adapters = init_adapters(model, 3, Rng(4, "init"))
        assert adapters.shapes == ((3, 8, 5), (3, 8, 8))
        for a, b in adapters.factors():
            assert not b.any()
            assert np.abs(a).max() < 0.1

    def test_rank_too_large(self):
        model = BackboneModel.random(Rng(5), 4, 8, 1)
        with pytest.raises(ValueError):
            init_adapters(model, 5, Rng(5))


class TestForward:
    def test_zero_adapters_equal_backbone_only(self):
        model = BackboneModel.random(Rng(6), 5, 7, 3)
        zeros = zero_adapters((2, w.rows, w.cols) for w in model.layers)
        xs = Rng(6, "x").standard_normal(10, 5)
        act = xs
        for w in [m.array for m in model.layers][:-1]:
            act = np.tanh(act @ w.T)
        expected = (act @ model.layers[-1].array.T) @ model.head.array[0]
        assert np.allclose(model_view(model, zeros)(xs), expected, atol=0)

    def test_identity_effective_weight_single_layer(self):
        # Theta = 0 and B@A = I: the logit is the head applied to x directly.
        d = 3
        model = BackboneModel((Matrix(np.zeros((d, d))),), Matrix([[1.0, -2.0, 0.5]]))
        adapters = AdapterSet.from_factors([(np.eye(d), np.eye(d))])
        x = np.array([0.3, -1.2, 2.0])
        assert model_view(model, adapters)(x.reshape(1, -1))[0] == pytest.approx(
            float(model.head.array[0] @ x), abs=1e-15
        )

    def test_matches_merged_weight_oracle(self):
        model = BackboneModel.random(Rng(7), 6, 8, 3)
        adapters = randomized_adapters(model, 2, Rng(7, "ad"))
        xs = Rng(7, "x").standard_normal(20, 6)
        ours = model_view(model, adapters)(xs)
        assert np.max(np.abs(ours - merged_forward(model, adapters, xs))) < 1e-12

    def test_input_dim_mismatch(self):
        model = BackboneModel.random(Rng(8), 4, 6, 2)
        adapters = init_adapters(model, 2, Rng(8))
        with pytest.raises(ShapeError):
            model_view(model, adapters)(np.zeros((1, 5)))


class TestLoss:
    def test_zero_logit_is_ln2(self):
        assert cross_entropy(0.0, 0) == pytest.approx(np.log(2.0), abs=1e-12)
        assert cross_entropy(0.0, 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct_prediction(self):
        assert cross_entropy(20.0, 1) < 1e-8
        assert cross_entropy(-20.0, 0) < 1e-8

    def test_matches_naive_formula_at_moderate_logits(self):
        rng = Rng(9)
        zs = rng.standard_normal(1, 200)[0] * 5.0
        for z in zs:
            for y in (0, 1):
                sig = 1.0 / (1.0 + np.exp(-z))
                naive = -(y * np.log(sig) + (1 - y) * np.log(1.0 - sig))
                assert abs(cross_entropy(z, y) - naive) < 1e-10

    def test_nonnegative(self):
        for z in (-50.0, -1.0, 0.0, 1.0, 50.0):
            for y in (0, 1):
                assert cross_entropy(z, y) >= 0.0


class TestGradients:
    def test_finite_difference_agreement(self):
        rng = Rng(10)
        model = BackboneModel.random(rng.derive("m"), 4, 5, 2)
        adapters = randomized_adapters(model, 2, rng.derive("ad"))
        xs = rng.derive("x").standard_normal(6, 4)
        ys = (rng.derive("y").uniform(6) > 0.5).astype(np.int64)
        fd_gradient_check(model, adapters, xs, ys)

    def test_saturated_batch_has_negligible_gradient(self):
        # Single layer driven deep into correct saturation: logit ~ +40.
        model = BackboneModel((Matrix([[40.0]]),), Matrix([[1.0]]))
        params = [(np.full((1, 1), 0.5), np.full((1, 1), 0.5))]
        xs = np.ones((4, 1))
        ys = np.ones(4, dtype=np.int64)
        grad = grad_adapters(model, params, xs, ys)
        total = float(np.abs(grad).sum())
        assert total < 1e-6

    def test_grad_b_is_zero_when_a_is_zero(self):
        model = BackboneModel.random(Rng(11), 4, 5, 2)
        adapters = AdapterSet.from_factors(
            (np.zeros((2, w.cols)), Rng(11, "b", i).standard_normal(w.rows, 2))
            for i, w in enumerate(model.layers)
        )
        xs = Rng(11, "x").standard_normal(5, 4)
        ys = np.array([0, 1, 0, 1, 0])
        grads = unflatten_gradient(adapters, grad_adapters(model, adapters.factors(), xs, ys))
        for (_, b), (_, g_b) in zip(adapters.factors(), grads):
            assert g_b.shape == b.shape
            assert not g_b.any()

    def test_empty_batch_rejected(self):
        model = BackboneModel.random(Rng(12), 4, 5, 1)
        adapters = init_adapters(model, 2, Rng(12))
        with pytest.raises(ValueError):
            grad_adapters(model, adapters.factors(), np.zeros((0, 4)), np.zeros(0))

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 9),
    )
    def test_flat_gradient_is_the_pairwise_oracle_bit_for_bit(self, dims, seed, m):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, min(dims) + 1))
        model = BackboneModel(
            tuple(Matrix(rng.standard_normal((d, k))) for k, d in zip(dims, dims[1:])),
            Matrix(rng.standard_normal((1, dims[-1]))),
        )
        adapters = AdapterSet.from_factors(
            (rng.standard_normal((rank, w.cols)), rng.standard_normal((w.rows, rank)))
            for w in model.layers
        )
        xs = rng.standard_normal((m, dims[0]))
        ys = rng.integers(0, 2, m)
        for batch_x, batch_y in ((xs, ys), (xs[:1], ys[:1])):
            flat = grad_adapters(model, adapters.factors(), batch_x, batch_y)
            pairs = pairwise_grad_adapters(model, adapters.factors(), batch_x, batch_y)
            expected = np.concatenate([part.ravel() for g_a, g_b in pairs for part in (g_b, g_a)])
            assert flat.dtype == np.float64 and flat.shape == adapters.vec.shape
            assert flat.tobytes() == expected.tobytes()


_SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 745.5, -745.5, 1e300, -1e300, np.nan, -np.nan]


class TestSigmoid:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(width=64)
            | st.floats(745.0, 1e308).flatmap(lambda v: st.sampled_from([v, -v]))
            | st.sampled_from(_SIGMOID_SPECIALS),
            max_size=40,
        )
    )
    def test_mask_free_sigmoid_is_the_masked_oracle_bit_for_bit(self, values):
        z = np.array(_SIGMOID_SPECIALS + values, dtype=np.float64)
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def make_client(
    seed: int, epochs: int = 2, lr: float = 0.3, n: int = 40
) -> tuple[ClientState, AdapterSet]:
    """A client and the initial adapters it is handed to train from."""
    rng = Rng(seed)
    model = BackboneModel.random(rng.derive("model"), 5, 8, 2)
    client = ClientState(
        id=0,
        domain="d",
        data=tiny_dataset(rng.derive("data"), n=n),
        model=model,
        learning_rate=lr,
        local_epochs=epochs,
        batch_size=8,
    )
    return client, init_adapters(model, 2, rng.derive("adapters"))


def count_steps(monkeypatch) -> list:
    """Record every ``trainer.grad_adapters`` call, one SGD step each, in the returned list."""
    calls = []
    original = trainer.grad_adapters

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(trainer, "grad_adapters", counted)
    return calls


class TestTrainLocal:
    def test_zero_epochs_is_identity(self, monkeypatch):
        steps = count_steps(monkeypatch)
        client, adapters = make_client(1, epochs=0)
        out, _, _ = train_local(client, adapters, Rng(1, "r"))
        assert out == adapters
        assert len(steps) == 0

    def test_zero_learning_rate_keeps_adapters_but_reports_losses(self, monkeypatch):
        steps = count_steps(monkeypatch)
        client, adapters = make_client(2, lr=0.0)
        out, train_loss, eval_loss = train_local(client, adapters, Rng(2, "r"))
        assert out == adapters
        assert len(steps) > 0
        assert train_loss > 0.0
        assert eval_loss > 0.0

    def test_loss_improves_on_separable_domain(self):
        client, adapters = make_client(3, epochs=20)
        initial = mean_loss(
            client.model, adapters, client.data.train_x, client.data.train_y
        )
        _, train_loss, _ = train_local(client, adapters, Rng(3, "r"))
        assert train_loss < initial

    def test_reported_losses_equal_mean_loss_bitwise(self):
        client, adapters = make_client(7, epochs=3)
        out, train_loss, eval_loss = train_local(client, adapters, Rng(7, "r"))
        data = client.data
        assert train_loss == mean_loss(client.model, out, data.train_x, data.train_y)
        assert eval_loss == mean_loss(client.model, out, data.val_x, data.val_y)

    def test_backbone_frozen_through_training(self):
        client, adapters = make_client(4, epochs=5)
        before = backbone_checksum(client.model)
        for round_number in range(3):
            adapters, _, _ = train_local(client, adapters, Rng(4, "round", round_number))
        assert backbone_checksum(client.model) == before

    def test_deterministic_given_seed(self):
        client, adapters = make_client(5)
        one, _, _ = train_local(client, adapters, Rng(5, "r"))
        two, _, _ = train_local(client, adapters, Rng(5, "r"))
        assert serialize(one) == serialize(two)

    def test_different_stream_changes_result(self):
        client, adapters = make_client(6, epochs=3)
        one, _, _ = train_local(client, adapters, Rng(6, "r1"))
        two, _, _ = train_local(client, adapters, Rng(6, "r2"))
        assert serialize(one) != serialize(two)

    def test_partial_last_batch_kept(self, monkeypatch):
        # 40 samples, batch 8 -> 5 steps/epoch; 41 samples -> 6 steps/epoch.
        steps = count_steps(monkeypatch)
        client, adapters = make_client(7, epochs=1, n=41)
        train_local(client, adapters, Rng(7, "r"))
        assert len(steps) == 6

    def test_matrix_constructions_do_not_grow_with_steps(self, monkeypatch):
        # No Matrix at all, and one AdapterSet: the trained factors packed once.
        clients = [make_client(9, epochs=1), make_client(9, epochs=4)]
        built = []
        for cls in (Matrix, AdapterSet):
            original = cls.__post_init__

            def counting(obj, original=original):
                built.append(type(obj))
                original(obj)

            monkeypatch.setattr(cls, "__post_init__", counting)
        calls = count_steps(monkeypatch)
        counts, steps = [], []
        for client, adapters in clients:
            before, steps_before = len(built), len(calls)
            train_local(client, adapters, Rng(9, "r"))
            counts.append(built[before:])
            steps.append(len(calls) - steps_before)
        assert steps == [5, 20]
        assert counts == [[AdapterSet], [AdapterSet]]

    def test_nonconformable_global_adapters_rejected(self):
        client, _ = make_client(8)
        other_model = BackboneModel.random(Rng(99), 5, 6, 2)
        foreign = init_adapters(other_model, 2, Rng(99))
        with pytest.raises(ShapeError):
            train_local(client, foreign, Rng(8, "r"))
