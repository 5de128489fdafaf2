import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from aime import importance
from aime.aime_model import AimeModel, embed, fit
from aime.errors import DomainError, ShapeError
from aime.importance import permutation_importance, top_fraction
from aime.matrix_core import KIND_IMPORTANCE, RngStream, permute_column, stream_id
from aime.neural_net import Network, TrainConfig
from aime.synth_bench import SynthSpec, generate


def naive_importance(model, x, repeats, seed):
    """permutation_importance written out the plain way, kept as its
    oracle: each shuffle embeds a full copy of x with column j permuted,
    drawn from column j's stream."""
    baseline = embed(model, x)
    scores = np.zeros(x.shape[1])
    for j in range(x.shape[1]):
        rng = RngStream(seed, stream_id(KIND_IMPORTANCE, j))
        total = 0.0
        for _ in range(repeats):
            delta = embed(model, permute_column(x, j, rng)) - baseline
            total += float((delta * delta).sum())
        scores[j] = total / repeats
    return scores


def widened(model):
    """The same model with its parameters held in float64."""
    net = model.network
    specs = [(l.fan_in, l.fan_out, l.activation, l.dropout_rate) for l in net.layers]
    wide = Network(specs, net.bottleneck_index, np.float64)
    wide.params[...] = net.params
    return dataclasses.replace(model, network=wide)


@pytest.fixture(scope="module")
def desk_model():
    """x and a float32 model trained on it, at the desk shape: the
    quadratic surrogate, n=600, p=q=40, d=4, 40 epochs."""
    spec = SynthSpec(n=600, p=40, q=40, n_signal=10, noise_sd=0.3,
                     design="quadratic", seed=3)
    data = generate(spec)
    model = fit(data.x.values, data.y.values, 4, TrainConfig(epochs=40, seed=1))
    return data.x.values, model


def hand_model(w):
    """Single linear layer as the bottleneck; identity standardization."""
    w = np.asarray(w, dtype=float)
    out_size, p = w.shape
    net = Network([(p, out_size, "linear", 0.0)], bottleneck_index=0)
    net.layers[0].weights[...] = w
    return AimeModel(
        network=net,
        seed=0,
        input_means=np.zeros(p),
        input_sds=np.ones(p),
        output_means=np.zeros(p),
        output_sds=np.ones(p),
    )


class TestExactZeros:
    def test_constant_column_scores_exactly_zero(self):
        model = hand_model([[1.0, 1.0, 1.0]])
        x = np.array([[5.0, 1.0, 2.0], [5.0, -1.0, 0.0], [5.0, 3.0, 1.0]])
        scores = permutation_importance(model, x, repeats=5)
        assert scores[0] == 0.0
        assert scores[1] > 0.0

    def test_zero_weight_column_scores_exactly_zero(self):
        model = hand_model([[1.0, 0.0, 2.0], [0.5, 0.0, -1.0]])
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        scores = permutation_importance(model, x, repeats=4)
        assert scores[1] == 0.0
        assert scores[0] > 0.0
        assert scores[2] > 0.0

    def test_float32_model_zero_weight_and_constant_columns(self):
        x = RngStream(8, 0).standard_normal((30, 8))
        x[:, 5] = 3.0
        y = RngStream(8, 1).standard_normal((30, 6))
        model = fit(x, y, 2, TrainConfig(epochs=2, batch_size=10, seed=1))
        assert model.network.params.dtype == np.float32
        model.network.layers[0].weights[:, 2] = 0.0
        scores = permutation_importance(model, x, repeats=3)
        assert scores[2] == 0.0
        assert scores[5] == 0.0
        assert np.all(np.delete(scores, [2, 5]) > 0.0)

    def test_all_zero_weights_rank_by_index(self):
        model = hand_model(np.zeros((2, 4)))
        x = np.random.default_rng(1).normal(size=(10, 4))
        scores = permutation_importance(model, x, repeats=3)
        assert scores.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert top_fraction(scores, 1.0) == [0, 1, 2, 3]


class TestExhaustiveOracle:
    def test_sampled_mean_within_three_ses_of_exhaustive(self):
        # n=3: only 6 possible column orders, so the expected score is
        # computable exactly; the sampled estimate must sit within 3
        # standard errors of it
        w = np.array([[0.8, -0.3], [0.2, 1.1]])
        model = hand_model(w)
        x = np.array([[1.0, 0.5], [-2.0, 1.5], [0.7, -0.9]])
        e0 = embed(model, x)

        repeats = 400
        scores = permutation_importance(model, x, repeats=repeats, seed=13)
        for j in range(2):
            outcomes = []
            for perm in itertools.permutations(range(3)):
                xp = x.copy()
                xp[:, j] = x[list(perm), j]
                delta = embed(model, xp) - e0
                outcomes.append(float((delta * delta).sum()))
            exhaustive_mean = np.mean(outcomes)
            se = np.std(outcomes) / np.sqrt(repeats)
            assert abs(scores[j] - exhaustive_mean) <= 3 * se


class TestScheduleIndependence:
    def test_single_column_recompute_matches_bitwise(self):
        # column j's shuffles are the successive permutations of its own
        # (KIND_IMPORTANCE, j) stream, so its score is reproducible alone
        model = hand_model([[0.3, -0.7, 1.2]])
        x = np.random.default_rng(5).normal(size=(15, 3))
        scores = permutation_importance(model, x, repeats=6, seed=42)

        e0 = embed(model, x)
        # Equal up to rounding: the rank-1 update of layer 0 and the full
        # product round differently. A wrong or reordered permutation
        # moves a score by far more than 1e-12 of the largest.
        tol = 1e-12 * scores.max()
        for j in range(3):
            rng = RngStream(42, stream_id(KIND_IMPORTANCE, j))
            total = 0.0
            for _ in range(6):
                order = rng.permutation(15)
                xp = x.copy()
                xp[:, j] = x[order, j]
                delta = embed(model, xp) - e0
                total += float((delta * delta).sum())
            assert abs(scores[j] - total / 6) <= tol

    def test_fewer_repeats_take_the_first_draws(self):
        # repeats=R uses the first R shuffles of repeats=R+1
        model = hand_model([[0.3, -0.7]])
        x = np.random.default_rng(4).normal(size=(9, 2))
        e0 = embed(model, x)
        for j in range(2):
            rng = RngStream(3, stream_id(KIND_IMPORTANCE, j))
            deltas = []
            for _ in range(3):
                delta = embed(model, permute_column(x, j, rng)) - e0
                deltas.append(float((delta * delta).sum()))
            # within 1e-12 of the largest score, as above
            tol = 1e-12 * permutation_importance(model, x, repeats=3, seed=3).max()
            for repeats in (1, 2, 3):
                got = permutation_importance(model, x, repeats=repeats, seed=3)[j]
                assert abs(got - sum(deltas[:repeats]) / repeats) <= tol

    def test_repeat_runs_bitwise_equal(self):
        model = hand_model([[1.0, 2.0]])
        x = np.random.default_rng(6).normal(size=(12, 2))
        a = permutation_importance(model, x, repeats=3, seed=1)
        b = permutation_importance(model, x, repeats=3, seed=1)
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_scores(self):
        model = hand_model([[1.0, 2.0]])
        x = np.random.default_rng(7).normal(size=(12, 2))
        a = permutation_importance(model, x, repeats=3, seed=1)
        b = permutation_importance(model, x, repeats=3, seed=2)
        assert a.tobytes() != b.tobytes()


class TestRanking:
    def test_descending_by_score(self):
        # column 1 has triple the weight of column 0, so shuffling it
        # moves the embedding more
        model = hand_model([[1.0, 3.0]])
        x = np.random.default_rng(8).normal(size=(30, 2))
        scores = permutation_importance(model, x, repeats=10)
        assert top_fraction(scores, 1.0) == [1, 0]

    def test_tied_zeros_fall_back_to_index_order(self):
        model = hand_model([[0.0, 1.0, 0.0]])
        x = np.random.default_rng(9).normal(size=(10, 3))
        scores = permutation_importance(model, x, repeats=2)
        assert top_fraction(scores, 1.0) == [1, 0, 2]


class TestTopFraction:
    @staticmethod
    def descending(p):
        return np.arange(p, 0, -1, dtype=float)

    def test_full_fraction_returns_everything(self):
        assert top_fraction(self.descending(7), 1.0) == list(range(7))

    def test_one_percent_of_5459_is_55(self):
        assert len(top_fraction(self.descending(5459), 0.01)) == 55

    def test_ceiling_rounding(self):
        assert len(top_fraction(self.descending(10), 0.25)) == 3

    @pytest.mark.parametrize(
        "fraction, p, count",
        [(0.07, 100, 7), (0.28, 25, 7), (0.01, 5459, 55), (0.25, 10, 3),
         (10 / 5459, 5459, 10), (10 / 12, 12, 10)],
    )
    def test_counts_the_fraction_as_written(self, fraction, p, count):
        # 0.07 * 100 and 0.28 * 25 are a hair above 7 in floating point;
        # the 17 digits of 10 / 12 spell a decimal a hair above 10 / 12
        assert len(top_fraction(self.descending(p), fraction)) == count

    def test_short_decimals_count_exactly(self):
        # every fraction of three decimal places, against exact arithmetic
        for p in (1, 7, 40, 99, 1000):
            for m in range(1, 1001):
                exact = -(-m * p // 1000)
                assert len(top_fraction(self.descending(p), m / 1000)) == exact

    def test_numpy_float_fraction(self):
        assert len(top_fraction(self.descending(100), np.float64(0.07))) == 7

    def test_equal_scores_take_lowest_indices(self):
        assert top_fraction(np.ones(6), 0.5) == [0, 1, 2]

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(DomainError, match="fraction"):
            top_fraction(self.descending(4), fraction)


class TestValidation:
    def test_column_count_mismatch(self):
        model = hand_model([[1.0, 2.0]])
        with pytest.raises(ShapeError, match="expects 2"):
            permutation_importance(model, np.zeros((4, 3)))

    def test_repeats_must_be_positive(self):
        model = hand_model([[1.0]])
        with pytest.raises(DomainError, match="repeats"):
            permutation_importance(model, np.zeros((4, 1)), repeats=0)

    def test_column_streams_distinct_at_methylation_width(self):
        # about 450k probes: no column cap, and every column's stream
        # stays inside its own named kind
        ids = [stream_id(KIND_IMPORTANCE, j) for j in (0, 65_536, 450_000)]
        assert len(set(ids)) == 3
        assert all(i >> 48 == KIND_IMPORTANCE for i in ids)


class TestRankOneOracle:
    """The rank-1 computation against the per-shuffle loop on a trained
    desk model: equal up to the rounding of the layer-0 update."""

    def test_float64_copy_matches_within_1e_10(self, desk_model):
        x, model = desk_model
        wide = widened(model)
        got = permutation_importance(wide, x, repeats=3, seed=5)
        want = naive_importance(wide, x, 3, 5)
        assert want.max() > 0.0
        assert np.max(np.abs(got - want)) <= 1e-10 * want.max()

    def test_float32_model_matches_within_1e_4(self, desk_model):
        x, model = desk_model
        got = permutation_importance(model, x, repeats=3, seed=5)
        want = naive_importance(model, x, 3, 5)
        assert np.max(np.abs(got - want)) <= 1e-4 * want.max()
        fraction = 10 / x.shape[1]
        assert set(top_fraction(got, fraction)) == set(top_fraction(want, fraction))

    def test_tied_values_match_the_loop(self):
        # A shuffle of tied values leaves many rows in place: a column of
        # two values, and one constant but for a single row, whose
        # shuffles move either no row or two.
        x = RngStream(11, 0).standard_normal((40, 6))
        x[:, 1] = np.where(x[:, 1] > 0, 1.0, -1.0)
        x[:, 4] = 2.0
        x[0, 4] = 3.0
        y = RngStream(11, 1).standard_normal((40, 6))
        model = widened(fit(x, y, 2, TrainConfig(epochs=3, batch_size=8, seed=2)))
        got = permutation_importance(model, x, repeats=4, seed=9)
        want = naive_importance(model, x, 4, 9)
        assert np.max(np.abs(got - want)) <= 1e-10 * want.max()


class TestMemory:
    def test_peak_does_not_grow_with_repeats(self, monkeypatch):
        # Two repeats per stacked pass, so repeats=200 runs 100 passes of
        # the shape that repeats=2 runs once.
        x = RngStream(12, 0).standard_normal((200, 40))
        y = RngStream(12, 1).standard_normal((200, 40))
        model = fit(x, y, 4, TrainConfig(epochs=0))
        width = model.network.layers[0].fan_out
        monkeypatch.setattr(importance, "STACK_ELEMENTS", 2 * len(x) * width)
        peaks = []
        for repeats in (2, 200):
            tracemalloc.start()
            try:
                permutation_importance(model, x, repeats=repeats)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # One stack of all 200 repeats would add 200 * 200 * 8 float32
        # entries (1.3 MB) per array that holds it.
        assert peaks[1] <= peaks[0] + 16_384
