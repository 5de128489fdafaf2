"""Tests for dense kernels, stats, and deterministic streams."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aime import neural_net
from aime.aime_model import build_architecture, build_network, fit
from aime.errors import (
    ColumnError,
    ColumnIndexError,
    DataError,
    DomainError,
    InsufficientDataError,
    ShapeError,
)
from aime.importance import permutation_importance
from aime.matrix_core import (
    KIND_IMPORTANCE,
    all_finite,
    as_matrix,
    column_stats,
    destandardize_columns,
    permute_column,
    permuted,
    rng_stream,
    sign_fixed,
    standardize_columns,
    svd_thin,
)
from aime.neural_net import TrainConfig, gradient_check
from aime.synth_bench import SynthSpec, evaluate_embedding, generate


class TestAsMatrix:
    def test_coerces_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_copies_input(self):
        src = np.ones((2, 2))
        m = as_matrix(src)
        m[0, 0] = 5.0
        assert src[0, 0] == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DataError):
            as_matrix([[np.nan, 0.0]])
        with pytest.raises(DataError):
            as_matrix([[np.inf, 0.0]])


class TestAllFinite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_anywhere(self, dtype, bad):
        for index in [(0, 0), (2, 1), (4, 3)]:
            m = np.ones((5, 4), dtype=dtype)
            m[index] = bad
            assert not all_finite(m)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_extremes(self, dtype):
        info = np.finfo(dtype)
        assert all_finite(np.array([[info.max, -info.max], [info.tiny, 0.0]], dtype=dtype))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_is_finite(self, shape):
        assert all_finite(np.empty(shape))

    def test_no_array_sized_mask(self):
        m = np.ones(1 << 20)
        tracemalloc.start()
        try:
            assert all_finite(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # np.isfinite(m) alone would take 1 MiB.
        assert peak < 1 << 16


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = rng_stream(7, 0, 3).standard_normal(16)
        b = rng_stream(7, 0, 3).standard_normal(16)
        assert a.tobytes() == b.tobytes()

    def test_different_stream_differs(self):
        a = rng_stream(7, 0, 3).standard_normal(16)
        b = rng_stream(7, 0, 4).standard_normal(16)
        assert a.tobytes() != b.tobytes()

    def test_different_seed_differs(self):
        a = rng_stream(7, 0, 3).standard_normal(16)
        b = rng_stream(8, 0, 3).standard_normal(16)
        assert a.tobytes() != b.tobytes()

    def test_stream_id_namespacing(self):
        # Kind k, index i of seed s is Philox keyed [s, (k << 48) + i].
        for seed, kind, index in [(7, 1, 0), (7, 2, 5), (3, KIND_IMPORTANCE, 450_000)]:
            key = [seed, (kind << 48) + index]
            expected = np.random.Generator(np.random.Philox(key=key)).random(8)
            assert rng_stream(seed, kind, index).random(8).tobytes() == expected.tobytes()
        firsts = {rng_stream(7, k, i).random() for k in range(1, 13) for i in range(100)}
        assert len(firsts) == 12 * 100

    @pytest.mark.parametrize(
        "seed, kind, index, message",
        [
            (2**64, 1, 0, "seed must fit in 64 bits, got 18446744073709551616"),
            (-1, 1, 0, "seed must fit in 64 bits, got -1"),
            (0, 1 << 16, 0, "stream_id must fit in 64 bits, got 18446744073709551616"),
            (0, 0, -1, "stream_id must fit in 64 bits, got -1"),
        ],
        ids=["seed 2^64", "negative seed", "kind 2^16", "negative id"],
    )
    def test_key_out_of_range(self, seed, kind, index, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            rng_stream(seed, kind, index)


def _pin_data():
    return generate(SynthSpec(n=30, p=20, q=20, n_signal=4, noise_sd=0.5,
                              design="quadratic", seed=5))


def _pin_model(data):
    return fit(data.x.values, data.y.values, 2, TrainConfig(epochs=3, batch_size=8, seed=4))


def _pin_synth(monkeypatch):
    data = _pin_data()
    return [data.x.values, data.y.values]


def _pin_fit(monkeypatch):
    model = _pin_model(_pin_data())
    return [model.network.params, np.array(model.loss_history)]


def _pin_importance(monkeypatch):
    data = _pin_data()
    return [permutation_importance(_pin_model(data), data.x.values, repeats=3, seed=6)]


def _pin_folds(monkeypatch):
    # Two noise columns score near chance, so the score moves with the folds.
    data = _pin_data()
    return [np.array([evaluate_embedding(data.x.values[:, :2], data.labels, seed)
                      for seed in range(8)])]


def _pin_gradient_check_masks(monkeypatch):
    drawn = []
    draw = neural_net.draw_dropout_masks

    def spy(*args, **kwargs):
        masks = draw(*args, **kwargs)
        drawn.extend(m for m in masks if m is not None)
        return masks

    monkeypatch.setattr(neural_net, "draw_dropout_masks", spy)
    data = _pin_data()
    network = build_network(build_architecture(6, 5, 1), 2)
    gradient_check(network, data.x.values[:, :6], data.y.values[:, :5], seed=3)
    return drawn


class TestStreamOutputsPinned:
    """Every stream kind's seeded output, pinned by sha256 prefix: the six
    synth kinds through ``generate``, init, shuffle and dropout through a
    small ``fit``, the importance and fold streams through their scores,
    and the gradient-check stream through the masks ``gradient_check``
    draws. A stream keyed differently changes its hash."""

    @pytest.mark.parametrize(
        "outputs, prefix",
        [
            (_pin_synth, "e9d9e7088d593d63"),
            (_pin_fit, "2100e3a3817f8617"),
            (_pin_importance, "a89cfdec79a381a8"),
            (_pin_folds, "d6321bb8d7c28567"),
            (_pin_gradient_check_masks, "ddbf6f31e3a2ebff"),
        ],
        ids=["synth", "fit", "importance", "folds", "gradient_check"],
    )
    def test_output_pinned(self, monkeypatch, outputs, prefix):
        digest = hashlib.sha256()
        for array in outputs(monkeypatch):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest()[:16] == prefix


class TestPermutation:
    @pytest.mark.parametrize(
        "n, prefix",
        [(5, "5cfffb4e54de274b"), (600, "3dc3e02c9b247619"), (70_000, "34fa40259f5ad083")],
    )
    def test_is_numpy_philox_permutation(self, n, prefix):
        # numpy's Generator.permutation on the stream's Philox key, pinned
        # by hash too: a numpy release that changes its draws changes
        # every seeded output, and fails here first.
        expected = np.random.Generator(np.random.Philox(key=[12, 3])).permutation(n)
        got = permuted(np.arange(n, dtype=np.int64), rng_stream(12, 0, 3))
        assert got.tobytes() == expected.tobytes()
        assert hashlib.sha256(got.astype("<i8").tobytes()).hexdigest()[:16] == prefix

    def test_preserves_multiset(self):
        values = np.array([3.0, 3.0, 1.0, 2.0, 2.0, 9.0])
        out = permuted(values, rng_stream(0, 0, 1))
        assert sorted(out.tolist()) == sorted(values.tolist())

    def test_input_not_mutated(self):
        values = np.arange(10.0)
        permuted(values, rng_stream(1, 0, 1))
        assert values.tolist() == list(range(10))

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            permuted(np.zeros((2, 2)), rng_stream(0, 0, 0))

    def test_permute_column_only_touches_target(self):
        m = np.arange(24.0).reshape(6, 4)
        out = permute_column(m, 2, rng_stream(5, 0, 0))
        others = [0, 1, 3]
        assert np.array_equal(out[:, others], m[:, others])
        assert sorted(out[:, 2].tolist()) == m[:, 2].tolist()
        assert np.array_equal(m, np.arange(24.0).reshape(6, 4))

    def test_permute_column_matches_permuted_on_same_stream(self):
        m = np.arange(15.0).reshape(5, 3)
        out = permute_column(m, 1, rng_stream(9, 0, 7))
        direct = permuted(m[:, 1], rng_stream(9, 0, 7))
        assert out[:, 1].tobytes() == direct.tobytes()

    def test_permute_column_bad_index(self):
        with pytest.raises(ColumnIndexError):
            permute_column(np.zeros((3, 2)), 2, rng_stream(0, 0, 0))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_multiset_preserved_property(self, seed, n):
        values = np.arange(float(n))
        out = permuted(values, rng_stream(seed, 0, 1))
        assert sorted(out.tolist()) == values.tolist()


class TestSvdThin:
    def assert_valid_svd(self, m, u, s, v, atol=1e-9):
        r = min(m.shape)
        assert u.shape == (m.shape[0], r)
        assert s.shape == (r,)
        assert v.shape == (m.shape[1], r)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=atol)
        np.testing.assert_allclose(u.T @ u, np.eye(r), atol=atol)
        np.testing.assert_allclose(v.T @ v, np.eye(r), atol=atol)

    def test_diagonal_matrix(self):
        m = np.diag([3.0, 1.0])
        u, s, v = svd_thin(m)
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-12)
        self.assert_valid_svd(m, u, s, v)

    def test_random_tall(self):
        m = rng_stream(6, 0, 0).standard_normal((9, 4))
        u, s, v = svd_thin(m)
        self.assert_valid_svd(m, u, s, v)

    def test_random_wide(self):
        m = rng_stream(6, 0, 1).standard_normal((3, 8))
        u, s, v = svd_thin(m)
        self.assert_valid_svd(m, u, s, v)

    def test_square_and_rank_deficient(self):
        a = rng_stream(6, 0, 2).standard_normal((5, 2))
        m = a @ a.T  # rank 2 in a 5x5 frame
        u, s, v = svd_thin(m)
        self.assert_valid_svd(m, u, s, v, atol=1e-8)
        assert np.sum(s > 1e-8) == 2

    def test_zero_matrix(self):
        m = np.zeros((4, 3))
        u, s, v = svd_thin(m)
        self.assert_valid_svd(m, u, s, v)
        np.testing.assert_allclose(s, 0.0)

    def test_singular_values_match_transpose(self):
        m = rng_stream(6, 0, 3).standard_normal((7, 5))
        _, s, _ = svd_thin(m)
        _, st_, _ = svd_thin(m.T)
        np.testing.assert_allclose(s, st_, atol=1e-9)

    def test_agrees_with_gram_eigenvalues(self):
        # Independent route: squared singular values are eigenvalues of
        # the Gram matrix, which numpy computes by a different algorithm.
        m = rng_stream(6, 0, 4).standard_normal((10, 6))
        _, s, _ = svd_thin(m)
        eig = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        np.testing.assert_allclose(s**2, eig, atol=1e-8)

    @given(st.integers(0, 2**32), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, seed, rows, cols):
        m = rng_stream(seed, 0, 9).standard_normal((rows, cols))
        u, s, v = svd_thin(m)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-8)


class TestSignFixed:
    @staticmethod
    def per_column(m):
        """The rule one column at a time, the reference sign_fixed must
        match bit for bit."""
        out = m.copy()
        for i in range(m.shape[1]):
            if m[np.argmax(np.abs(m[:, i])), i] < 0:
                out[:, i] = -m[:, i]
        return out

    @given(st.integers(0, 2**32), st.integers(1, 9), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_column_loop_bitwise(self, seed, rows, cols):
        m = rng_stream(seed, 0, 10).standard_normal((rows, cols))
        before = m.copy()
        assert sign_fixed(m).tobytes() == self.per_column(m).tobytes()
        assert m.tobytes() == before.tobytes()

    def test_tie_picks_first_index(self):
        m = np.array([[-2.0, 2.0, 0.5], [2.0, -2.0, -0.5], [1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(
            sign_fixed(m), [[2.0, 2.0, 0.5], [-2.0, -2.0, -0.5], [-1.0, 1.0, 0.0]]
        )


class TestColumnStats:
    def test_matches_two_pass_oracle(self):
        m = rng_stream(8, 0, 0).standard_normal((40, 6)) * 3.0 + 1.5
        means, sds = column_stats(m)
        for j in range(6):
            col = m[:, j]
            mean = sum(col) / len(col)
            var = sum((x - mean) ** 2 for x in col) / (len(col) - 1)
            assert abs(means[j] - mean) < 1e-12
            assert abs(sds[j] - np.sqrt(var)) < 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            column_stats(np.ones((1, 3)))

    def test_bits_are_numpys(self):
        m = rng_stream(8, 0, 2).standard_normal((25, 7)) * 1e150
        means, sds = column_stats(m)
        assert means.tobytes() == m.mean(axis=0).tobytes()
        assert sds.tobytes() == m.std(axis=0, ddof=1).tobytes()

    @pytest.mark.parametrize(
        "scale, shift", [(3e154, 0.0), (1.0, 1.7e308)], ids=["squares", "sum"]
    )
    def test_overflowing_column_named_without_numpy_warnings(self, scale, shift):
        m = rng_stream(8, 0, 3).standard_normal((20, 6))
        m[:, 2] = m[:, 2] * scale + shift
        m[:, 4] *= 3e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ColumnError) as caught:
                column_stats(m, "x")
        assert str(caught.value) == (
            "x column 2: values too large for a finite mean and standard deviation"
        )
        assert (caught.value.matrix, caught.value.column) == ("x", 2)


class TestStandardize:
    def test_round_trip(self):
        m = rng_stream(8, 0, 1).standard_normal((30, 5)) * 2.0 - 4.0
        means, sds = column_stats(m)
        z = standardize_columns(m, means, sds)
        back = destandardize_columns(z, means, sds)
        np.testing.assert_allclose(back, m, atol=1e-10)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        m = np.column_stack([np.arange(6.0), np.full(6, 7.0)])
        means, sds = column_stats(m)
        z = standardize_columns(m, means, sds)
        np.testing.assert_allclose(z[:, 1], 0.0)
        back = destandardize_columns(z, means, sds)
        np.testing.assert_allclose(back[:, 1], 7.0)

    def test_length_mismatch(self):
        m = np.zeros((4, 3))
        with pytest.raises(ShapeError):
            standardize_columns(m, np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            destandardize_columns(m, np.zeros(3), np.ones(2))
