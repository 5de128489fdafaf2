import time
import warnings

import numpy as np
import pytest

from aime.cca_baseline import fit_cca
from aime.errors import ColumnError, DefinitenessError, DomainError
from aime.synth_bench import SynthSpec, generate


def rng(seed=0):
    return np.random.default_rng(seed)


def regularized_covariance(block, ridge):
    """Sample covariance plus ridge * trace / dim on the diagonal."""
    centred = block - block.mean(axis=0)
    s = centred.T @ centred / (len(block) - 1)
    return s + ridge * np.trace(s) / s.shape[0] * np.eye(s.shape[0])


def dense_cca(x, y, k, ridge):
    """Reference CCA in feature space: Cholesky-whiten both regularized
    covariance blocks, then SVD the whitened cross-covariance."""
    n = len(x)
    sxy = (x - x.mean(axis=0)).T @ (y - y.mean(axis=0)) / (n - 1)
    lx = np.linalg.cholesky(regularized_covariance(x, ridge))
    ly = np.linalg.cholesky(regularized_covariance(y, ridge))
    whitened = np.linalg.solve(ly, np.linalg.solve(lx, sxy).T).T
    u, s, vt = np.linalg.svd(whitened)
    x_dirs = np.linalg.solve(lx.T, u[:, :k])
    y_dirs = np.linalg.solve(ly.T, vt[:k].T)
    return s[:k], x_dirs, y_dirs


def assert_matches_dense(x, y, k, ridge):
    result = fit_cca(x, y, k, ridge=ridge)
    corr, x_dirs, y_dirs = dense_cca(x, y, k, ridge)
    assert np.abs(result.correlations - corr).max() < 1e-10
    for got, want in ((result.x_directions, x_dirs), (result.y_directions, y_dirs)):
        signs = np.sign(np.sum(got * want, axis=0))
        assert np.abs(got * signs - want).max() < 1e-8


class TestFitErrors:
    def test_row_mismatch(self):
        with pytest.raises(DomainError, match="paired"):
            fit_cca(rng().normal(size=(10, 2)), rng().normal(size=(9, 2)), 1)

    def test_k_too_large(self):
        x = rng().normal(size=(20, 3))
        y = rng().normal(size=(20, 5))
        with pytest.raises(DomainError, match="k must lie"):
            fit_cca(x, y, 4)

    def test_k_bounded_by_rows_on_wide_blocks(self):
        # centred n-row blocks have rank n-1, so only n-1 pairs exist
        x = rng().normal(size=(5, 8))
        y = rng(1).normal(size=(5, 9))
        with pytest.raises(DomainError, match=r"k must lie in \[1, min\(n-1=4"):
            fit_cca(x, y, 5)
        assert fit_cca(x, y, 4).x_variates.shape == (5, 4)

    def test_negative_ridge(self):
        x = rng().normal(size=(20, 2))
        with pytest.raises(DomainError, match="ridge"):
            fit_cca(x, x, 1, ridge=-0.1)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_non_finite_ridge(self, ridge):
        x = rng().normal(size=(20, 2))
        with pytest.raises(DomainError, match="ridge must be finite"):
            fit_cca(x, x, 1, ridge=ridge)

    def test_overflowing_ridge_term(self):
        # ridge * trace(S) overflows once the trace exceeds about 1.8.
        x = 10.0 * rng().normal(size=(20, 2))
        with pytest.raises(DomainError, match="ridge 1e\\+308 overflows"):
            fit_cca(x, x, 1, ridge=1e308)

    def test_wide_block_needs_ridge(self):
        x = rng().normal(size=(5, 8))
        y = rng().normal(size=(5, 2))
        with pytest.raises(DomainError, match="more samples than columns"):
            fit_cca(x, y, 1, ridge=0)

    def test_singular_covariance_advises_ridge(self):
        base = rng().normal(size=(30, 1))
        x = np.hstack([base, base])  # rank 1, exactly singular
        y = rng(1).normal(size=(30, 2))
        with pytest.raises(DefinitenessError, match="increase ridge"):
            fit_cca(x, y, 1, ridge=0)

    def test_singular_block_named(self):
        x = rng(5).normal(size=(30, 2))
        base = rng(6).normal(size=(30, 1))
        with pytest.raises(
            DefinitenessError,
            match=r"^y block covariance is singular \(rank 1 of 2 columns\); increase ridge$",
        ):
            fit_cca(x, np.hstack([base, base]), 1, ridge=0)

    @pytest.mark.parametrize("ridge", [0.0, 1.0])
    @pytest.mark.parametrize("value", [1.0, 0.1])
    def test_constant_block_named_without_ridge_advice(self, ridge, value):
        # The ridge term of a block with no variance is 0 at any ridge.
        # Centring a constant 0.1 column leaves rounding, not zeros.
        constant = np.full((20, 3), value)
        other = rng(4).normal(size=(20, 2))
        for x, y, name in ((constant, other, "x"), (other, constant, "y")):
            with pytest.raises(
                DefinitenessError, match=f"^{name} block has no variance: all 20 rows are equal$"
            ):
                fit_cca(x, y, 1, ridge=ridge)

    @pytest.mark.parametrize("ridge", [0.0, 1.0])
    def test_overflowing_column_named_without_numpy_warnings(self, ridge):
        # Squares of values beyond about 1.3e154 overflow in the block's
        # statistics, before any ridge term is formed.
        x = rng(8).normal(size=(40, 6))
        x[:, 0] *= 3e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ColumnError) as caught:
                fit_cca(x, rng(9).normal(size=(40, 5)), 2, ridge=ridge)
        assert (caught.value.matrix, caught.value.column) == ("x", 0)

    @pytest.mark.parametrize("ridge", [0.0, 1.0])
    def test_overflowing_block_variance_named_without_numpy_warnings(self, ridge):
        # Each column's sd is finite, but the block's squared singular
        # values, and so its variance as computed, overflow.
        z = rng(10).normal(size=40)
        z = (z - z.mean()) * (1.6e153 / z.std(ddof=1))
        x = np.column_stack([z * (1 + 1e-3 * j) for j in range(6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ColumnError) as caught:
                fit_cca(x, rng(11).normal(size=(40, 5)), 2, ridge=ridge)
        assert (caught.value.matrix, caught.value.column) == ("x", None)
        assert str(caught.value) == "x: values too large for a finite variance of the whole block"

    def test_rank_deficient_block_found_from_singular_values(self):
        # a column that is a combination of two others leaves a singular
        # value at rounding level, under numpy's matrix_rank tolerance
        base = rng(2).normal(size=(40, 2))
        x = np.hstack([base, base @ [[2.0], [-0.5]]])
        y = rng(3).normal(size=(40, 2))
        with pytest.raises(DefinitenessError, match="rank 2 of 3 columns"):
            fit_cca(x, y, 1, ridge=0)
        assert fit_cca(x, y, 1, ridge=0.1).correlations.shape == (1,)


class TestOracles:
    def test_single_column_pair_equals_pearson(self):
        g = rng(7)
        x = g.normal(size=(40, 1))
        y = 0.6 * x + 0.8 * g.normal(size=(40, 1))
        result = fit_cca(x, y, 1, ridge=0)
        pearson = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
        assert abs(result.correlations[0] - abs(pearson)) < 1e-10

    def test_self_correlation_is_one(self):
        x = rng(3).normal(size=(50, 4))
        result = fit_cca(x, x.copy(), 4, ridge=0)
        assert np.all(np.abs(result.correlations - 1.0) < 1e-8)

    def test_independent_null_stays_small(self):
        # n=2000 with p=q=2: sample canonical correlation of independent
        # blocks concentrates near zero
        for seed in range(5):
            g = rng(100 + seed)
            x = g.normal(size=(2000, 2))
            y = g.normal(size=(2000, 2))
            result = fit_cca(x, y, 2, ridge=0)
            assert result.correlations[0] < 0.15

    def test_correlations_sorted_and_bounded(self):
        g = rng(9)
        x = g.normal(size=(60, 5))
        y = g.normal(size=(60, 4))
        result = fit_cca(x, y, 4, ridge=0)
        c = result.correlations
        assert np.all(c[:-1] >= c[1:] - 1e-12)
        assert np.all(c >= 0)
        assert np.all(c <= 1 + 1e-10)

    def test_known_shared_signal_found(self):
        g = rng(12)
        z = g.normal(size=(500, 1))
        x = np.hstack([z + 0.1 * g.normal(size=(500, 1)), g.normal(size=(500, 2))])
        y = np.hstack([g.normal(size=(500, 2)), z + 0.1 * g.normal(size=(500, 1))])
        result = fit_cca(x, y, 1, ridge=0)
        assert result.correlations[0] > 0.95
        # the informative coordinate dominates each direction
        assert np.abs(result.x_directions[0, 0]) > np.abs(result.x_directions[1:, 0]).max()
        assert np.abs(result.y_directions[2, 0]) > np.abs(result.y_directions[:2, 0]).max()


class TestDenseReference:
    def test_narrow_blocks_unregularized(self):
        g = rng(41)
        z = g.normal(size=(120, 2))
        x = z @ g.normal(size=(2, 7)) + g.normal(size=(120, 7))
        y = z @ g.normal(size=(2, 5)) + g.normal(size=(120, 5))
        assert_matches_dense(x, y, 4, ridge=0.0)

    def test_narrow_blocks_regularized(self):
        g = rng(42)
        x = g.normal(size=(90, 8))
        y = g.normal(size=(90, 6)) + 0.4 * x[:, :6]
        assert_matches_dense(x, y, 5, ridge=0.5)

    def test_wide_blocks(self):
        g = rng(43)
        x = g.normal(size=(20, 35))
        y = g.normal(size=(20, 28)) + 0.5 * x[:, :28]
        assert_matches_dense(x, y, 6, ridge=1.0)

    def test_paper_width(self):
        g = rng(44)
        x = g.normal(size=(32, 5459))
        y = g.normal(size=(32, 5703))
        start = time.perf_counter()
        result = fit_cca(x, y, 4)
        elapsed = time.perf_counter() - start
        c = result.correlations
        assert c.shape == (4,)
        assert np.all(c[:-1] >= c[1:]) and c[-1] >= 0 and c[0] <= 1
        for block, dirs, variates in (
            (x, result.x_directions, result.x_variates),
            (y, result.y_directions, result.y_variates),
        ):
            # unit variance in the regularized metric: var + lambda |d|^2
            lam = block.var(axis=0, ddof=1).mean()
            spread = variates.var(axis=0, ddof=1) + lam * np.sum(dirs**2, axis=0)
            assert np.abs(spread - 1.0).max() < 1e-8
        assert elapsed < 5.0


class TestInvariances:
    def test_order_invariance(self):
        g = rng(21)
        x = g.normal(size=(80, 3))
        y = g.normal(size=(80, 4)) + 0.5 * x[:, :1]
        a = fit_cca(x, y, 3, ridge=0)
        b = fit_cca(y, x, 3, ridge=0)
        assert np.all(np.abs(a.correlations - b.correlations) < 1e-8)

    def test_affine_invariance_at_zero_ridge(self):
        g = rng(22)
        z = g.normal(size=(200, 1))
        x = g.normal(size=(200, 3)) + z
        y = g.normal(size=(200, 3)) + z
        mix = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, -0.2], [0.0, 0.4, 0.9]])
        a = fit_cca(x, y, 3, ridge=0)
        b = fit_cca(x @ mix + 5.0, y, 3, ridge=0)
        assert np.all(np.abs(a.correlations - b.correlations) < 1e-6)

    def test_variates_unit_variance_in_regularized_metric(self):
        g = rng(23)
        x = g.normal(size=(100, 6))
        y = g.normal(size=(100, 5))
        for ridge in (0.0, 0.5):
            result = fit_cca(x, y, 3, ridge=ridge)
            sxx = regularized_covariance(x, ridge)
            gram = result.x_directions.T @ sxx @ result.x_directions
            assert np.all(np.abs(np.diag(gram) - 1.0) < 1e-6)
            # the variates are the centred blocks times the directions
            for block, dirs, variates in (
                (x, result.x_directions, result.x_variates),
                (y, result.y_directions, result.y_variates),
            ):
                centred = block - block.mean(axis=0)
                assert np.abs(centred @ dirs - variates).max() < 1e-10

    def test_sign_convention_deterministic(self):
        g = rng(24)
        x = g.normal(size=(50, 3))
        y = g.normal(size=(50, 3))
        result = fit_cca(x, y, 2, ridge=0)
        for i in range(2):
            stacked = np.concatenate(
                [result.x_directions[:, i], result.y_directions[:, i]]
            )
            assert stacked[np.argmax(np.abs(stacked))] > 0

    def test_pivot_in_y_block_flips_x_direction(self):
        # y's small scale makes its coefficients the largest of each pair.
        # Negating y then negates its raw directions, whose pivots the sign
        # rule makes positive again by negating the x directions too.
        g = rng(25)
        x = g.normal(size=(60, 3))
        y = 1e-3 * (g.normal(size=(60, 3)) + x[:, :1])
        a = fit_cca(x, y, 2, ridge=0)
        b = fit_cca(x, -y, 2, ridge=0)
        assert np.all(np.abs(a.y_directions).max(axis=0) > np.abs(a.x_directions).max(axis=0))
        np.testing.assert_allclose(b.x_directions, -a.x_directions, rtol=1e-9)
        np.testing.assert_allclose(b.y_directions, a.y_directions, rtol=1e-9)
        np.testing.assert_allclose(b.correlations, a.correlations, rtol=1e-12)


class TestOnSyntheticData:
    def test_noiseless_linear_factors_give_correlation_one(self):
        # the X and Y blocks share the same two factors exactly, so the
        # top canonical correlation approaches 1 as noise vanishes
        data = generate(
            SynthSpec(
                n=1000, p=8, q=8, n_signal=8, noise_sd=1e-6,
                design="linear", seed=2,
            )
        )
        result = fit_cca(data.x.values, data.y.values, 2, ridge=0)
        assert result.correlations[0] > 0.98

    def test_quadratic_design_null_with_default_ridge(self):
        # zero population cross-covariance: the regularized leading
        # correlation stays below 0.25 even with 40 columns a side
        for seed in range(1, 6):
            data = generate(
                SynthSpec(
                    n=1000, p=40, q=40, n_signal=10, noise_sd=0.3,
                    design="quadratic", seed=seed,
                )
            )
            result = fit_cca(data.x.values, data.y.values, 4)
            assert result.correlations[0] < 0.25

    def test_linear_design_survives_default_ridge(self):
        data = generate(
            SynthSpec(
                n=600, p=40, q=40, n_signal=10, noise_sd=0.3,
                design="linear", seed=1,
            )
        )
        result = fit_cca(data.x.values, data.y.values, 4)
        assert result.correlations[0] > 0.6
