"""Tests for dense kernels, stats, and deterministic streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aime.errors import (
    ColumnIndexError,
    DataError,
    InsufficientDataError,
    ShapeError,
)
from aime.matrix_core import (
    RngStream,
    as_matrix,
    column_stats,
    destandardize_columns,
    permute_column,
    permuted,
    standardize_columns,
    stream_id,
    svd_thin,
)


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


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(7, 3).standard_normal(16)
        b = RngStream(7, 3).standard_normal(16)
        assert a.tobytes() == b.tobytes()

    def test_different_stream_differs(self):
        a = RngStream(7, 3).standard_normal(16)
        b = RngStream(7, 4).standard_normal(16)
        assert a.tobytes() != b.tobytes()

    def test_different_seed_differs(self):
        a = RngStream(7, 3).standard_normal(16)
        b = RngStream(8, 3).standard_normal(16)
        assert a.tobytes() != b.tobytes()

    def test_randint_below_range(self):
        rng = RngStream(0, 0)
        draws = [rng.randint_below(5) for _ in range(200)]
        assert set(draws) <= {0, 1, 2, 3, 4}
        assert len(set(draws)) == 5

    def test_randint_below_rejects_zero(self):
        with pytest.raises(ValueError):
            RngStream(0, 0).randint_below(0)

    def test_randints_below_rejects_zero(self):
        with pytest.raises(ValueError):
            RngStream(0, 0).randints_below(np.array([3, 0, 2]))

    def test_stream_id_namespacing(self):
        assert stream_id(1, 0) == 1 << 48
        assert stream_id(2, 5) == (2 << 48) + 5
        ids = {stream_id(k, i) for k in range(1, 12) for i in range(100)}
        assert len(ids) == 11 * 100


class TestPermutation:
    def test_matches_hand_simulated_fisher_yates(self):
        # Replay the documented draw order with the same stream and check
        # the swaps land where the hand simulation says they must.
        rng = RngStream(11, 2)
        draws = [rng.randint_below(i + 1) for i in range(4, 0, -1)]
        expected = list(range(5))
        i = 4
        for j in draws:
            expected[i], expected[j] = expected[j], expected[i]
            i -= 1
        got = permuted(np.arange(5.0), RngStream(11, 2))
        assert got.tolist() == [float(v) for v in expected]

    @pytest.mark.parametrize("n", [600, 70_000])
    def test_matches_scalar_replay_at_scale(self, n):
        # The documented draws, one randint_below call per position; the
        # stream must also be left where the scalar calls leave it.
        replay = RngStream(12, 3)
        expected = list(range(n))
        for i in range(n - 1, 0, -1):
            j = replay.randint_below(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        rng = RngStream(12, 3)
        got = permuted(np.arange(n), rng)
        assert got.tobytes() == np.array(expected).tobytes()
        assert rng.randint_below(2**40) == replay.randint_below(2**40)

    def test_preserves_multiset(self):
        values = np.array([3.0, 3.0, 1.0, 2.0, 2.0, 9.0])
        out = permuted(values, RngStream(0, 1))
        assert sorted(out.tolist()) == sorted(values.tolist())

    def test_input_not_mutated(self):
        values = np.arange(10.0)
        permuted(values, RngStream(1, 1))
        assert values.tolist() == list(range(10))

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            permuted(np.zeros((2, 2)), RngStream(0, 0))

    def test_permute_column_only_touches_target(self):
        m = np.arange(24.0).reshape(6, 4)
        out = permute_column(m, 2, RngStream(5, 0))
        others = [0, 1, 3]
        assert np.array_equal(out[:, others], m[:, others])
        assert sorted(out[:, 2].tolist()) == m[:, 2].tolist()
        assert np.array_equal(m, np.arange(24.0).reshape(6, 4))

    def test_permute_column_matches_permuted_on_same_stream(self):
        m = np.arange(15.0).reshape(5, 3)
        out = permute_column(m, 1, RngStream(9, 7))
        direct = permuted(m[:, 1], RngStream(9, 7))
        assert out[:, 1].tobytes() == direct.tobytes()

    def test_permute_column_bad_index(self):
        with pytest.raises(ColumnIndexError):
            permute_column(np.zeros((3, 2)), 2, RngStream(0, 0))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_multiset_preserved_property(self, seed, n):
        values = np.arange(float(n))
        out = permuted(values, RngStream(seed, 1))
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
        m = RngStream(6, 0).standard_normal((9, 4))
        u, s, v = svd_thin(m)
        self.assert_valid_svd(m, u, s, v)

    def test_random_wide(self):
        m = RngStream(6, 1).standard_normal((3, 8))
        u, s, v = svd_thin(m)
        self.assert_valid_svd(m, u, s, v)

    def test_square_and_rank_deficient(self):
        a = RngStream(6, 2).standard_normal((5, 2))
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
        m = RngStream(6, 3).standard_normal((7, 5))
        _, s, _ = svd_thin(m)
        _, st_, _ = svd_thin(m.T)
        np.testing.assert_allclose(s, st_, atol=1e-9)

    def test_agrees_with_gram_eigenvalues(self):
        # Independent route: squared singular values are eigenvalues of
        # the Gram matrix, which numpy computes by a different algorithm.
        m = RngStream(6, 4).standard_normal((10, 6))
        _, s, _ = svd_thin(m)
        eig = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        np.testing.assert_allclose(s**2, eig, atol=1e-8)

    @given(st.integers(0, 2**32), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, seed, rows, cols):
        m = RngStream(seed, 9).standard_normal((rows, cols))
        u, s, v = svd_thin(m)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-8)


class TestColumnStats:
    def test_matches_two_pass_oracle(self):
        m = RngStream(8, 0).standard_normal((40, 6)) * 3.0 + 1.5
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


class TestStandardize:
    def test_round_trip(self):
        m = RngStream(8, 1).standard_normal((30, 5)) * 2.0 - 4.0
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
