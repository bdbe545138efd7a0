"""Forward pass, loss, analytic gradients, and the local SGD loop."""
from __future__ import annotations

import numpy as np
import pytest

from fedmentor.data import Dataset, DomainSpec, make_domain
from fedmentor.linalg import Matrix, Rng, ShapeError
from fedmentor.lora import AdapterSet, LoraPair, serialize
from fedmentor.trainer import (
    BackboneModel,
    ClientState,
    cross_entropy,
    forward_batch,
    grad_adapters,
    init_adapters,
    mean_loss,
    train_local,
)
from oracles import (
    array_pairs,
    backbone_checksum,
    fd_gradient_check,
    merged_forward,
    randomized_adapters,
    zero_pair,
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
            BackboneModel((Matrix.zeros(4, 3), Matrix.zeros(4, 5)), Matrix.zeros(1, 4))

    def test_head_shape_enforced(self):
        with pytest.raises(ShapeError):
            BackboneModel((Matrix.zeros(4, 3),), Matrix.zeros(1, 5))

    def test_checksum_stable(self):
        m = BackboneModel.random(Rng(2), 4, 6, 2)
        assert backbone_checksum(m) == backbone_checksum(m)
        other = BackboneModel.random(Rng(3), 4, 6, 2)
        assert backbone_checksum(m) != backbone_checksum(other)


class TestInitAdapters:
    def test_b_zero_a_small(self):
        model = BackboneModel.random(Rng(4), 5, 8, 2)
        adapters = init_adapters(model, 3, Rng(4, "init"))
        for p in adapters.pairs:
            assert p.b == Matrix.zeros(p.d, p.rank)
            assert np.abs(p.a.array).max() < 0.1

    def test_rank_too_large(self):
        model = BackboneModel.random(Rng(5), 4, 8, 1)
        with pytest.raises(ValueError):
            init_adapters(model, 5, Rng(5))


class TestForward:
    def test_zero_adapters_equal_backbone_only(self):
        model = BackboneModel.random(Rng(6), 5, 7, 3)
        zeros = AdapterSet(
            tuple(zero_pair(i, w.rows, w.cols, 2) for i, w in enumerate(model.layers)), 3
        )
        xs = Rng(6, "x").standard_normal(10, 5)
        act = xs
        for w in [m.array for m in model.layers][:-1]:
            act = np.tanh(act @ w.T)
        expected = (act @ model.layers[-1].array.T) @ model.head.array[0]
        assert np.allclose(forward_batch(model, zeros, xs), expected, atol=0)

    def test_identity_effective_weight_single_layer(self):
        # Theta = 0 and B@A = I: the logit is the head applied to x directly.
        d = 3
        model = BackboneModel((Matrix.zeros(d, d),), Matrix([[1.0, -2.0, 0.5]]))
        adapters = AdapterSet((LoraPair(0, Matrix(np.eye(d)), Matrix(np.eye(d))),), 1)
        x = np.array([0.3, -1.2, 2.0])
        assert forward_batch(model, adapters, x.reshape(1, -1))[0] == pytest.approx(
            float(model.head.array[0] @ x), abs=1e-15
        )

    def test_matches_merged_weight_oracle(self):
        model = BackboneModel.random(Rng(7), 6, 8, 3)
        adapters = randomized_adapters(model, 2, Rng(7, "ad"))
        xs = Rng(7, "x").standard_normal(20, 6)
        ours = forward_batch(model, adapters, xs)
        assert np.max(np.abs(ours - merged_forward(model, adapters, xs))) < 1e-12

    def test_input_dim_mismatch(self):
        model = BackboneModel.random(Rng(8), 4, 6, 2)
        adapters = init_adapters(model, 2, Rng(8))
        with pytest.raises(ShapeError):
            forward_batch(model, adapters, np.zeros((1, 5)))


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
        grads = grad_adapters(model, params, xs, ys)
        total = sum(float(np.abs(g_a).sum() + np.abs(g_b).sum()) for g_a, g_b in grads)
        assert total < 1e-6

    def test_grad_b_is_zero_when_a_is_zero(self):
        model = BackboneModel.random(Rng(11), 4, 5, 2)
        pairs = tuple(
            LoraPair(i, Matrix.zeros(2, w.cols), Matrix(Rng(11, "b", i).standard_normal(w.rows, 2)))
            for i, w in enumerate(model.layers)
        )
        adapters = AdapterSet(pairs, 2)
        xs = Rng(11, "x").standard_normal(5, 4)
        ys = np.array([0, 1, 0, 1, 0])
        grads = grad_adapters(model, array_pairs(adapters), xs, ys)
        for (_, b), (_, g_b) in zip(array_pairs(adapters), grads):
            assert g_b.shape == b.shape
            assert not g_b.any()

    def test_empty_batch_rejected(self):
        model = BackboneModel.random(Rng(12), 4, 5, 1)
        adapters = init_adapters(model, 2, Rng(12))
        with pytest.raises(ValueError):
            grad_adapters(model, array_pairs(adapters), np.zeros((0, 4)), np.zeros(0))


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


class TestTrainLocal:
    def test_zero_epochs_is_identity(self):
        client, adapters = make_client(1, epochs=0)
        out, stats = train_local(client, adapters, Rng(1, "r"))
        assert out == adapters
        assert stats.steps == 0

    def test_zero_learning_rate_keeps_adapters_but_reports_losses(self):
        client, adapters = make_client(2, lr=0.0)
        out, stats = train_local(client, adapters, Rng(2, "r"))
        assert out == adapters
        assert stats.steps > 0
        assert stats.final_train_loss > 0.0
        assert stats.final_eval_loss > 0.0

    def test_loss_improves_on_separable_domain(self):
        client, adapters = make_client(3, epochs=20)
        initial = mean_loss(
            client.model, adapters, client.data.train_x, client.data.train_y
        )
        _, stats = train_local(client, adapters, Rng(3, "r"))
        assert stats.final_train_loss < initial

    def test_reported_losses_equal_mean_loss_bitwise(self):
        client, adapters = make_client(7, epochs=3)
        out, stats = train_local(client, adapters, Rng(7, "r"))
        data = client.data
        assert stats.final_train_loss == mean_loss(client.model, out, data.train_x, data.train_y)
        assert stats.final_eval_loss == mean_loss(client.model, out, data.val_x, data.val_y)

    def test_backbone_frozen_through_training(self):
        client, adapters = make_client(4, epochs=5)
        before = backbone_checksum(client.model)
        for round_number in range(3):
            adapters, _ = train_local(client, adapters, Rng(4, "round", round_number))
        assert backbone_checksum(client.model) == before

    def test_deterministic_given_seed(self):
        client, adapters = make_client(5)
        one, _ = train_local(client, adapters, Rng(5, "r"))
        two, _ = train_local(client, adapters, Rng(5, "r"))
        assert serialize(one) == serialize(two)

    def test_different_stream_changes_result(self):
        client, adapters = make_client(6, epochs=3)
        one, _ = train_local(client, adapters, Rng(6, "r1"))
        two, _ = train_local(client, adapters, Rng(6, "r2"))
        assert serialize(one) != serialize(two)

    def test_partial_last_batch_kept(self):
        # 40 samples, batch 8 -> 5 steps/epoch; 41 samples -> 6 steps/epoch.
        client, adapters = make_client(7, epochs=1, n=41)
        _, stats = train_local(client, adapters, Rng(7, "r"))
        assert stats.steps == 6

    def test_matrix_constructions_do_not_grow_with_steps(self, monkeypatch):
        # Matrix is built only at the boundary: the trained a and b per layer.
        clients = [make_client(9, epochs=1), make_client(9, epochs=4)]
        built = []
        original = Matrix.__post_init__

        def counting(m):
            built.append(m)
            original(m)

        monkeypatch.setattr(Matrix, "__post_init__", counting)
        counts, steps = [], []
        for client, adapters in clients:
            before = len(built)
            _, stats = train_local(client, adapters, Rng(9, "r"))
            counts.append(len(built) - before)
            steps.append(stats.steps)
        assert steps == [5, 20]
        assert counts[0] == counts[1] <= 2 * clients[0][0].model.n_layers

    def test_nonconformable_global_adapters_rejected(self):
        client, _ = make_client(8)
        other_model = BackboneModel.random(Rng(99), 5, 6, 2)
        foreign = init_adapters(other_model, 2, Rng(99))
        with pytest.raises(ShapeError):
            train_local(client, foreign, Rng(8, "r"))
