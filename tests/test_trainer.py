"""Forward pass, loss, analytic gradients, and the local SGD loop."""
from __future__ import annotations

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmentor import trainer
from fedmentor.data import Dataset, DomainSpec, make_domain
from fedmentor.dp import BudgetConfig, NoiseCalibration
from fedmentor.federation import ClientState, ServerState, run_round
from fedmentor.linalg import Matrix, Rng, ShapeError
from fedmentor.lora import AdapterSet, factor_views, serialize
from fedmentor.trainer import (
    BackboneModel,
    _sigmoid,
    cross_entropy,
    grad_adapters,
    init_adapters,
    model_view,
)
from oracles import (
    backbone_checksum,
    fd_gradient_check,
    masked_sigmoid,
    mean_loss,
    merged_forward,
    merged_weights,
    pairwise_grad_adapters,
    randomized_adapters,
    unflatten_gradient,
    zero_adapters,
)
from reference import train_client


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

    def test_pass_holds_at_most_two_activations(self):
        # numpy reports its data buffers to tracemalloc. Over n rows of width
        # h, a pass holds the effective weights, two blocks of at most
        # BLOCK_ROWS x h and the n logits: less than two n x h activations.
        n, k, h = 2000, 16, 64
        model = BackboneModel.random(Rng(31), k, h, 3)
        adapters = randomized_adapters(model, 4, Rng(31, "ad"))
        xs = Rng(31, "x").standard_normal(n, k)
        xs.setflags(write=False)  # the view only reads its input
        eff_bytes = sum(w.rows * w.cols for w in model.layers) * 8
        tracemalloc.start()
        try:
            model_view(model, adapters)(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * h * 8 + eff_bytes + 64 * 1024

    def test_pass_grows_only_by_its_logits(self):
        # Ten times the rows may add the 2,700 extra logits (twice over, for
        # slack), but no activation: a pass works through blocks of rows.
        model = BackboneModel.random(Rng(34), 16, 64, 3)
        adapters = randomized_adapters(model, 4, Rng(34, "ad"))
        xs = Rng(34, "x").standard_normal(3000, 16)
        view = model_view(model, adapters)
        view(xs[:300])  # numpy's first-call set-up is not the pass's
        peaks = []
        tracemalloc.start()
        try:
            for rows in (300, 3000):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                view(xs[:rows])
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2 * 2700 * 8

    @pytest.mark.parametrize(
        "n", [1, trainer.BLOCK_ROWS - 1, trainer.BLOCK_ROWS, trainer.BLOCK_ROWS + 1,
              2 * trainer.BLOCK_ROWS + 3]
    )
    def test_blocks_match_the_unblocked_oracle(self, n):
        # Widths 5 -> 7 -> 3, so the block buffers are reshaped per layer.
        rng = Rng(35)
        model = BackboneModel(
            (Matrix(rng.derive("w0").standard_normal(7, 5)),
             Matrix(rng.derive("w1").standard_normal(3, 7))),
            Matrix(rng.derive("head").standard_normal(1, 3)),
        )
        adapters = randomized_adapters(model, 2, rng.derive("ad"))
        xs = rng.derive("x").standard_normal(n, 5)
        ours, oracle = model_view(model, adapters)(xs), merged_forward(model, adapters, xs)
        assert ours.shape == (n,)
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_input_dim_mismatch(self):
        model = BackboneModel.random(Rng(8), 4, 6, 2)
        adapters = init_adapters(model, 2, Rng(8))
        with pytest.raises(ShapeError):
            model_view(model, adapters)(np.zeros((1, 5)))


def assert_same_bits(ours: list[np.ndarray], oracle: list[np.ndarray]) -> None:
    assert [e.shape for e in ours] == [o.shape for o in oracle]
    for e, o in zip(ours, oracle):
        assert np.array_equal(e.view(np.uint64), o.view(np.uint64))


class TestEffectiveWeights:
    def test_equals_merged_weights_bit_for_bit(self):
        model = BackboneModel.random(Rng(32), 6, 9, 3)
        params = randomized_adapters(model, 3, Rng(32, "ad")).factors()
        assert_same_bits(trainer._effective_weights(model, params), merged_weights(model, params))

    def test_zero_b_keeps_the_signed_zeros_of_w_plus_b_at_a(self):
        w = np.array([[-0.0, 0.0, 1.5], [0.0, -0.0, -2.0]])
        model = BackboneModel((Matrix(w),), Matrix([[1.0, 1.0]]))
        a = np.array([[1.0, -1.0, 0.5]])
        for b in (np.zeros((2, 1)), np.full((2, 1), -0.0)):
            assert_same_bits(
                trainer._effective_weights(model, [(a, b)]), merged_weights(model, [(a, b)])
            )

    def test_non_finite_entry_reaches_the_adapter_set_error(self):
        model = BackboneModel.random(Rng(33), 5, 6, 2)
        adapters = randomized_adapters(model, 2, Rng(33, "ad"))
        vec = np.array(adapters.vec)
        params = factor_views(vec, adapters.shapes)
        params[0][1][0, 0] = np.inf
        params[1][0][1, 2] = np.nan
        with np.errstate(invalid="ignore"):
            ours = trainer._effective_weights(model, params)
            oracle = merged_weights(model, params)
        assert_same_bits(ours, oracle)
        assert not all(np.isfinite(e).all() for e in ours)

        client, start = make_client(33, lr=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            client.train(start, Rng(33, "r"))
        # The AdapterSet check names the entry; the round adds client, domain and phase.
        assert str(info.value).startswith("entry ")
        assert "not finite" in str(info.value)


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
        grad = grad_adapters(model, params, xs, ys, trainer.workspace(model, [(1, 1, 1)], 4))
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
        work = trainer.workspace(model, adapters.shapes, 5)
        grads = unflatten_gradient(adapters, grad_adapters(model, adapters.factors(), xs, ys, work))
        for (_, b), (_, g_b) in zip(adapters.factors(), grads):
            assert g_b.shape == b.shape
            assert not g_b.any()

    def test_empty_batch_rejected(self):
        model = BackboneModel.random(Rng(12), 4, 5, 1)
        adapters = init_adapters(model, 2, Rng(12))
        with pytest.raises(ValueError):
            grad_adapters(model, adapters.factors(), np.zeros((0, 4)), np.zeros(0),
                          trainer.workspace(model, adapters.shapes, 1))

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 9),
    )
    # The layer widths of small_model, many_clients and wide_model, each at a
    # full batch of 32 and at the tails its runs train (train size mod 32).
    @example(dims=[8, 16, 16], seed=0, m=32)
    @example(dims=[8, 16, 16], seed=0, m=1)
    @example(dims=[8, 16, 16], seed=0, m=2)
    @example(dims=[8, 16, 16], seed=0, m=17)
    @example(dims=[32, 128, 128, 128], seed=1, m=32)
    @example(dims=[32, 128, 128, 128], seed=1, m=3)
    @example(dims=[64, 256, 256, 256, 256], seed=2, m=32)
    @example(dims=[64, 256, 256, 256, 256], seed=2, m=1)
    @example(dims=[64, 256, 256, 256, 256], seed=2, m=10)
    @example(dims=[64, 256, 256, 256, 256], seed=2, m=24)
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
        # A held workspace is refilled by each call; the 1-row batch uses a row prefix.
        work = trainer.workspace(model, adapters.shapes, m)
        for batch_x, batch_y in ((xs, ys), (xs[:1], ys[:1])):
            fresh = trainer.workspace(model, adapters.shapes, len(batch_x))
            flat = grad_adapters(model, adapters.factors(), batch_x, batch_y, fresh)
            pairs = pairwise_grad_adapters(model, adapters.factors(), batch_x, batch_y)
            expected = np.concatenate([part.ravel() for g_a, g_b in pairs for part in (g_b, g_a)])
            assert flat.dtype == np.float64 and flat.shape == adapters.vec.shape
            assert flat.tobytes() == expected.tobytes()
            held = grad_adapters(model, adapters.factors(), batch_x, batch_y, work)
            assert held is work.grad and held.tobytes() == expected.tobytes()

    def test_step_on_a_held_workspace_allocates_less_than_one_layer(self):
        model = BackboneModel.random(Rng(36), 64, 64, 3)
        adapters = randomized_adapters(model, 4, Rng(36, "ad"))
        params = adapters.factors()
        xs = Rng(36, "x").standard_normal(32, 64)
        ys = (Rng(36, "y").uniform(32) > 0.5).astype(np.float64)
        work = trainer.workspace(model, adapters.shapes, 32)
        grad_adapters(model, params, xs, ys, work)  # the warm-up step
        tracemalloc.start()
        try:
            grad_adapters(model, params, xs, ys, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 64 * 8

    def test_step_and_pass_skip_numpys_python_dispatch(self, monkeypatch):
        # Each product is ndarray.dot and no select is left: np.dot, np.matmul
        # and np.where would add their Python-level dispatch to every call.
        model = BackboneModel.random(Rng(38), 8, 16, 2)
        adapters = randomized_adapters(model, 4, Rng(38, "ad"))
        params = adapters.factors()
        xs = Rng(38, "x").standard_normal(32, 8)
        ys = (Rng(38, "y").uniform(32) > 0.5).astype(np.float64)
        work = trainer.workspace(model, adapters.shapes, 32)

        def refuse(*args, **kwargs):
            raise AssertionError("called through numpy's dispatch")

        for name in ("dot", "matmul", "where"):
            monkeypatch.setattr(np, name, refuse)
        for batch_x, batch_y in ((xs, ys), (xs[:17], ys[:17])):
            grad_adapters(model, params, batch_x, batch_y, work)
        model_view(model, adapters, work.effs)(xs)

    def test_workspace_is_one_allocation_of_every_e_two_row_buffers_the_gradient_and_split(self):
        # Each layer's weight gradient is written over its E: no separate d x k buffer.
        model = BackboneModel.random(Rng(37), 5, 12, 3)
        adapters = randomized_adapters(model, 2, Rng(37, "ad"))
        rows, split = 7, (20, 5)
        work = trainer.workspace(model, adapters.shapes, rows, split)
        dims = [w.shape for w in model.layers]
        expected = (
            sum(d * k for d, k in dims)
            + 2 * rows * sum(d for d, _ in dims)
            + sum(r * (d + k) for r, d, k in adapters.shapes)
            + split[0] * split[1] + split[0]
        )
        views = [*work.effs, *work.acts, *work.g_acts, work.grad, work.xs, work.ys]
        assert {id(v.base) for v in views} == {id(work.grad.base)}
        assert work.grad.base.size == expected


_SIGMOID_SPECIALS = [
    0.0, -0.0, np.inf, -np.inf, 745.5, -745.5, 1e300, -1e300, np.nan, -np.nan,
    # the smallest subnormal and normal, exp's overflow edge, and a tiny normal
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    709.78, -709.78, 1e-300, -1e-300,
]


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


class Client(NamedTuple):
    """A backbone, a dataset and the local-SGD schedule ``train_local`` runs them under."""

    model: BackboneModel
    data: Dataset
    schedule: dict

    def train(self, adapters: AdapterSet, rng: Rng) -> tuple[AdapterSet, float]:
        return train_client(self.model, self.data, adapters, rng, **self.schedule)

    def round(self, adapters: AdapterSet) -> tuple[AdapterSet, float]:
        """Round 1 of a noise-free federation of this client alone, from ``adapters``:
        the new global adapters, which are the client's update, and its validation loss."""
        server = ServerState(
            backbone=self.model,
            global_adapters=adapters,
            schedule=BudgetConfig({"d": 1.0}, decay_rate=0.0),
            calibration=NoiseCalibration(0.0, 0.0, 0.0, multiplier_a=1.0, multiplier_b=1.0),
            thresholds={},
            **self.schedule,
        )
        new_server, record = run_round(server, [ClientState(0, "d", self.data)])
        return new_server.global_adapters, record.eval_losses[0]


def make_client(
    seed: int, epochs: int = 2, lr: float = 0.3, n: int = 40
) -> tuple[Client, AdapterSet]:
    """A client and the initial adapters it is handed to train from."""
    rng = Rng(seed)
    model = BackboneModel.random(rng.derive("model"), 5, 8, 2)
    client = Client(
        model,
        tiny_dataset(rng.derive("data"), n=n),
        dict(learning_rate=lr, local_epochs=epochs, batch_size=8),
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
        out, _ = client.train(adapters, Rng(1, "r"))
        assert out == adapters
        assert len(steps) == 0

    def test_zero_learning_rate_keeps_adapters_but_reports_losses(self, monkeypatch):
        steps = count_steps(monkeypatch)
        client, adapters = make_client(2, lr=0.0)
        out, eval_loss = client.round(adapters)
        assert out == adapters
        assert len(steps) > 0
        assert eval_loss > 0.0

    def test_loss_improves_on_separable_domain(self):
        client, adapters = make_client(3, epochs=20)
        initial = mean_loss(
            client.model, adapters, client.data.train_x, client.data.train_y
        )
        out, _ = client.train(adapters, Rng(3, "r"))
        assert mean_loss(client.model, out, client.data.train_x, client.data.train_y) < initial

    def test_reported_losses_equal_mean_loss_bitwise(self):
        client, adapters = make_client(7, epochs=3)
        out, eval_loss = client.round(adapters)
        assert eval_loss == mean_loss(client.model, out, client.data.val_x, client.data.val_y)
        # Independently of trainer's model_view and cross_entropy: the merged
        # forward, and the loss softplus(z) - y z as a logaddexp.
        logits = merged_forward(client.model, out, client.data.val_x)
        direct = np.mean(np.logaddexp(0.0, logits) - client.data.val_y * logits)
        assert eval_loss == pytest.approx(direct, rel=1e-12, abs=0)

    def test_backbone_frozen_through_training(self):
        client, adapters = make_client(4, epochs=5)
        before = backbone_checksum(client.model)
        for round_number in range(3):
            adapters, _ = client.train(adapters, Rng(4, "round", round_number))
        assert backbone_checksum(client.model) == before

    def test_deterministic_given_seed(self):
        client, adapters = make_client(5)
        one, _ = client.train(adapters, Rng(5, "r"))
        two, _ = client.train(adapters, Rng(5, "r"))
        assert serialize(one) == serialize(two)

    def test_different_stream_changes_result(self):
        client, adapters = make_client(6, epochs=3)
        one, _ = client.train(adapters, Rng(6, "r1"))
        two, _ = client.train(adapters, Rng(6, "r2"))
        assert serialize(one) != serialize(two)

    def test_partial_last_batch_kept(self, monkeypatch):
        # 40 samples, batch 8 -> 5 steps/epoch; 41 samples -> 6 steps/epoch.
        steps = count_steps(monkeypatch)
        client, adapters = make_client(7, epochs=1, n=41)
        client.train(adapters, Rng(7, "r"))
        assert len(steps) == 6

    def test_matrix_constructions_do_not_grow_with_steps(self, monkeypatch):
        # No Matrix at all, and a round's AdapterSets: the decoded broadcast,
        # the trained vector packed once, the privatized update, the decoded
        # upload (the aggregate of one update is that update).
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
            client.round(adapters)
            counts.append(built[before:])
            steps.append(len(calls) - steps_before)
        assert steps == [5, 20]
        assert counts == [[AdapterSet] * 4] * 2

    def test_nonconformable_global_adapters_rejected(self):
        client, _ = make_client(8)
        other_model = BackboneModel.random(Rng(99), 5, 6, 2)
        foreign = init_adapters(other_model, 2, Rng(99))
        with pytest.raises(ShapeError):
            client.train(foreign, Rng(8, "r"))
