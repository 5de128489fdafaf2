import numpy as np
import pytest

from aime.errors import DomainError
from aime.synth_bench import SynthSpec, evaluate_embedding, generate


def spec(**overrides):
    base = dict(
        n=50, p=8, q=6, n_signal=4, noise_sd=0.2, design="linear", seed=3
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_minimum_samples(self):
        with pytest.raises(DomainError, match="n >= 10"):
            spec(n=9)

    def test_signal_count_bounded_by_p(self):
        with pytest.raises(DomainError, match="n_signal"):
            spec(n_signal=9)

    def test_noise_positive(self):
        with pytest.raises(DomainError):
            spec(noise_sd=0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_noise_finite(self, value):
        with pytest.raises(DomainError, match=f"^noise_sd must be finite and > 0, got {value}$"):
            spec(noise_sd=value)

    def test_design_names(self):
        with pytest.raises(DomainError, match="cubic"):
            spec(design="cubic")

    def test_zero_signal_allowed(self):
        data = generate(spec(n_signal=0))
        assert data.signal_indices == []


class TestGenerate:
    def test_shapes_and_ids(self):
        data = generate(spec())
        assert data.x.values.shape == (50, 8)
        assert data.y.values.shape == (50, 6)
        assert data.latent.shape == (50, 2)
        assert data.x.sample_ids == data.y.sample_ids
        assert data.x.feature_ids[0] == "x0"
        assert data.y.feature_ids[-1] == "y5"

    def test_labels_are_latent_quadrants(self):
        data = generate(spec(n=200))
        z = data.latent
        expected = (z[:, 0] > 0).astype(int) + 2 * (z[:, 1] > 0).astype(int)
        assert np.array_equal(data.labels, expected)

    def test_signal_indices_distinct_and_in_range(self):
        data = generate(spec(p=20, n_signal=7))
        assert len(set(data.signal_indices)) == 7
        assert all(0 <= j < 20 for j in data.signal_indices)
        assert data.signal_indices == sorted(data.signal_indices)

    def test_signal_columns_track_latent_noise_columns_do_not(self):
        # R^2 of a regression on the true factors separates the two kinds
        data = generate(spec(n=2000, p=10, n_signal=5, noise_sd=0.1, seed=11))
        z1 = np.column_stack([data.latent, np.ones(2000)])
        for j in range(10):
            col = data.x.values[:, j]
            resid = col - z1 @ np.linalg.lstsq(z1, col, rcond=None)[0]
            r2 = 1 - resid.var() / col.var()
            if j in data.signal_indices:
                assert r2 > 0.95
            else:
                assert r2 < 0.02

    def test_signal_column_variance_near_one_plus_noise(self):
        # unit-norm coefficient rows on unit-variance factors
        data = generate(spec(n=4000, p=6, n_signal=6, noise_sd=0.3, seed=5))
        var = data.x.values.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.09) < 0.15)

    def test_quadratic_sample_cross_covariance_concentrates(self):
        # population cross-covariance is exactly zero by construction, so
        # sample entries should sit at sampling-noise scale for every seed.
        # Signal-signal product entries have heavy tails (fourth powers of
        # the factors), so the 4/sqrt(n) envelope needs n_signal small.
        for seed in range(1, 6):
            data = generate(
                spec(
                    n=1000,
                    p=6,
                    q=6,
                    n_signal=2,
                    noise_sd=0.3,
                    design="quadratic",
                    seed=seed,
                )
            )
            xc = data.x.values - data.x.values.mean(axis=0)
            yc = data.y.values - data.y.values.mean(axis=0)
            cross = xc.T @ yc / (1000 - 1)
            assert np.abs(cross).max() < 4 / np.sqrt(1000)

    def test_bitwise_determinism(self):
        a = generate(spec(design="quadratic"))
        b = generate(spec(design="quadratic"))
        assert np.array_equal(
            a.x.values.view(np.uint64), b.x.values.view(np.uint64)
        )
        assert np.array_equal(
            a.y.values.view(np.uint64), b.y.values.view(np.uint64)
        )
        assert np.array_equal(a.labels, b.labels)
        assert a.signal_indices == b.signal_indices

    def test_seed_changes_data(self):
        a = generate(spec(seed=1))
        b = generate(spec(seed=2))
        assert not np.array_equal(a.x.values, b.x.values)

    def test_y_block_independent_of_p(self):
        # per-ingredient streams: resizing X must not disturb Y
        a = generate(spec(p=8))
        b = generate(spec(p=30))
        assert np.array_equal(a.y.values, b.y.values)


class TestEvaluateEmbedding:
    def test_one_hot_indicators_score_perfectly(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=100)
        one_hot = np.eye(4)[labels]
        assert evaluate_embedding(one_hot, labels) == 1.0

    def test_pure_noise_near_chance(self):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(4), 100)
        emb = rng.normal(size=(400, 4))
        acc = evaluate_embedding(emb, labels)
        assert 0.15 < acc < 0.35

    def test_duplicated_columns_change_nothing(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=60)
        col = labels[:, None] + 0.3 * rng.normal(size=(60, 1))
        single = evaluate_embedding(col, labels)
        doubled = evaluate_embedding(np.hstack([col, col]), labels)
        assert single == doubled

    @pytest.mark.parametrize("jitter", [0.0, 1e-14])
    def test_constant_column_changes_nothing(self, jitter):
        # A column with sd below 1e-12 counts as constant and standardizes
        # to zeros, not to NaN (sd 0) or to unit-variance noise.
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=60)
        emb = labels[:, None] + 0.3 * rng.normal(size=(60, 2))
        constant = 5.0 + jitter * rng.normal(size=(60, 1))
        padded = np.hstack([emb, constant])
        assert evaluate_embedding(padded, labels) == evaluate_embedding(emb, labels)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError, match="2 distinct classes"):
            evaluate_embedding(np.zeros((10, 2)) + np.arange(10)[:, None], np.zeros(10))

    def test_label_length_mismatch(self):
        with pytest.raises(DomainError, match="labels shape"):
            evaluate_embedding(np.zeros((10, 2)), np.zeros(9))

    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="at least 5"):
            evaluate_embedding(np.zeros((4, 1)), np.array([0, 1, 0, 1]))

    def test_matches_loop_reference(self):
        # independent scalar-loop rendition of the same documented procedure
        from aime.matrix_core import KIND_FOLDS, permuted, rng_stream

        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=47)
        emb = rng.normal(size=(47, 3)) + labels[:, None]
        got = evaluate_embedding(emb, labels, seed=9)

        std = (emb - emb.mean(0)) / emb.std(0, ddof=1)
        order = permuted(np.arange(47), rng_stream(9, KIND_FOLDS, 0))
        hits = 0
        for fold in np.array_split(order, 5):
            train = np.setdiff1d(order, fold)
            cents = {}
            for c in np.unique(labels[train]):
                cents[c] = std[train[labels[train] == c]].mean(axis=0)
            for i in fold:
                best, best_d = None, None
                for c in sorted(cents):
                    d = float(((std[i] - cents[c]) ** 2).sum())
                    if best_d is None or d < best_d:
                        best, best_d = c, d
                hits += int(best == labels[i])
        assert got == hits / 47

    def test_seed_changes_folds_but_not_wildly(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=80)
        emb = rng.normal(size=(80, 2)) + 2.0 * labels[:, None]
        a = evaluate_embedding(emb, labels, seed=0)
        b = evaluate_embedding(emb, labels, seed=1)
        assert abs(a - b) < 0.15
