"""Tests for architecture derivation, training, embedding, and the
model file round trip."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aime.aime_model import (
    BOTTLENECK_INDEX,
    _canonical_bottleneck,
    RELU_BIAS_INIT,
    AimeModel,
    build_architecture,
    build_network,
    embed,
    fit,
    load_model,
    reconstruct,
    save_model,
)
from aime.errors import (
    AlignmentError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    ParseError,
    ShapeError,
)
from aime.matrix_core import RngStream, column_stats, standardize_columns
from aime.neural_net import DenseLayer, Network, TrainConfig, forward


def make_pair(n, p, q, seed=0, latent_dim=2, noise=0.1):
    """Correlated X, Y pair driven by a shared low-dim latent."""
    rng = RngStream(seed, 0)
    z = rng.standard_normal((n, latent_dim))
    ax = rng.standard_normal((latent_dim, p))
    ay = rng.standard_normal((latent_dim, q))
    x = z @ ax + noise * rng.standard_normal((n, p))
    y = z @ ay + noise * rng.standard_normal((n, q))
    return x, y


class TestBuildArchitecture:
    def test_wide_genomic_shapes(self):
        arch = build_architecture(5459, 5703, 4)
        assert arch.encoder_sizes == (1092, 219, 9)
        assert arch.decoder_sizes == (10, 229, 1141)
        assert arch.encoder_dropout == (0.20, 0.10, 0.0)
        assert arch.decoder_dropout == (0.0, 0.10, 0.20)
        assert arch.layer_sizes == [5459, 1092, 219, 9, 4, 10, 229, 1141, 5703]

    def test_exact_powers_of_five(self):
        arch = build_architecture(625, 625, 1)
        assert arch.encoder_sizes == (125, 25, 1)
        assert arch.decoder_sizes == (1, 25, 125)

    def test_tiny_inputs_ceil_to_one(self):
        arch = build_architecture(3, 3, 2)
        assert arch.encoder_sizes == (1, 1, 1)
        assert arch.decoder_sizes == (1, 1, 1)
        assert arch.layer_sizes == [3, 1, 1, 1, 2, 1, 1, 1, 3]

    def test_small_inputs_floor_inner_widths(self):
        # Desk scale: the inner widths are floored at 2d and d, so the
        # waist is never narrower than the embedding.
        arch = build_architecture(40, 40, 4)
        assert arch.layer_sizes == [40, 8, 8, 4, 4, 4, 8, 8, 40]
        # ... but never above ceil(w/5): the funnel only narrows.
        arch = build_architecture(12, 100, 4)
        assert arch.encoder_sizes == (3, 3, 3)
        assert arch.decoder_sizes == (4, 8, 20)

    def test_layer_specs_chain(self):
        arch = build_architecture(100, 50, 3)
        specs = arch.layer_specs()
        assert len(specs) == 8
        for (_, out_a, _, _), (in_b, _, _, _) in zip(specs, specs[1:]):
            assert out_a == in_b
        assert [s[2] for s in specs] == [
            "relu", "relu", "relu", "linear", "relu", "relu", "relu", "linear",
        ]
        assert [s[3] for s in specs] == [0.20, 0.10, 0.0, 0.0, 0.0, 0.10, 0.20, 0.0]
        # bottleneck layer outputs the embedding
        assert specs[BOTTLENECK_INDEX][1] == 3

    def test_rejects_nonpositive(self):
        for p, q, d in [(0, 3, 1), (3, 0, 1), (3, 3, 0), (-2, 3, 1)]:
            with pytest.raises(DomainError):
                build_architecture(p, q, d)


class TestBuildNetwork:
    def test_shapes_follow_plan(self):
        arch = build_architecture(40, 30, 4)
        net = build_network(arch, seed=1)
        sizes = arch.layer_sizes
        assert net.bottleneck_index == BOTTLENECK_INDEX
        for i, layer in enumerate(net.layers):
            assert layer.weights.shape == (sizes[i + 1], sizes[i])
            assert layer.bias.shape == (sizes[i + 1],)
            if layer.activation == "relu":
                np.testing.assert_array_equal(layer.bias, RELU_BIAS_INIT)
            else:
                np.testing.assert_array_equal(layer.bias, 0.0)

    def test_deterministic_in_seed(self):
        arch = build_architecture(20, 10, 2)
        a = build_network(arch, seed=5)
        b = build_network(arch, seed=5)
        c = build_network(arch, seed=6)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
        assert any(
            la.weights.tobytes() != lc.weights.tobytes()
            for la, lc in zip(a.layers, c.layers)
        )

    def test_per_layer_streams_isolated(self):
        # Same q side, different p side: decoder init must not shift.
        net_a = build_network(build_architecture(20, 10, 2), seed=9)
        net_b = build_network(build_architecture(45, 10, 2), seed=9)
        for i in (5, 6, 7):
            assert (
                net_a.layers[i].weights.tobytes()
                == net_b.layers[i].weights.tobytes()
            )

    @given(
        st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 16),
        st.integers(0, 2**32),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_plan_forwards_one_batch(self, p, q, d, seed):
        # The derived chain is always dimension-consistent: one batch
        # flows through without shape errors for any sizes.
        net = build_network(build_architecture(p, q, d), seed=seed)
        x = RngStream(seed, 1).standard_normal((3, p))
        out, cache = forward(net, x)
        assert out.shape == (3, q)
        assert cache.outputs[BOTTLENECK_INDEX].shape == (3, d)


class TestFit:
    def test_loss_history_decreases_on_learnable_pair(self):
        # Strong 1-dim shared signal, so even the narrowest derived
        # funnel (waist of 1 unit for p < 626) can fit it.
        x, y = make_pair(50, 12, 8, seed=3, latent_dim=1, noise=0.05)
        config = TrainConfig(epochs=200, batch_size=16, seed=3)
        model = fit(x, y, embedding_size=2, config=config)
        assert len(model.loss_history) == 200
        assert model.loss_history[-1] < 0.5 * model.loss_history[0]

    def test_self_reconstruction_special_case(self):
        # Wide enough that the first hidden layer (p/5 = 10 units) can
        # cover both signs of the latent before the scalar waist.
        x, _ = make_pair(80, 50, 50, seed=11, latent_dim=1, noise=0.05)
        config = TrainConfig(
            learning_rate=3e-3, epochs=400, batch_size=20, seed=3
        )
        model = fit(x, x, embedding_size=2, config=config)
        out = reconstruct(model, x)
        xs = standardize_columns(x, model.input_means, model.input_sds)
        outs = standardize_columns(out, model.output_means, model.output_sds)
        assert float(np.mean((outs - xs) ** 2)) < 0.3

    def test_zero_epochs_returns_initial_weights(self):
        x, y = make_pair(20, 6, 5, seed=12)
        config = TrainConfig(epochs=0, seed=3)
        model = fit(x, y, embedding_size=2, config=config)
        assert model.loss_history == []
        fresh = build_network(build_architecture(6, 5, 2), seed=3)
        for trained, init in zip(model.network.layers, fresh.layers):
            assert trained.weights.tobytes() == init.weights.tobytes()
            assert trained.bias.tobytes() == init.bias.tobytes()

    def test_deterministic_given_seed(self):
        x, y = make_pair(40, 8, 6, seed=4)
        config = TrainConfig(epochs=8, batch_size=8, seed=7)
        a = fit(x, y, embedding_size=2, config=config)
        b = fit(x, y, embedding_size=2, config=config)
        assert a.loss_history == b.loss_history
        assert embed(a, x).tobytes() == embed(b, x).tobytes()

    def test_seed_changes_model(self):
        x, y = make_pair(40, 8, 6, seed=4)
        a = fit(x, y, 2, TrainConfig(epochs=5, batch_size=8, seed=1))
        b = fit(x, y, 2, TrainConfig(epochs=5, batch_size=8, seed=2))
        assert embed(a, x).tobytes() != embed(b, x).tobytes()

    def test_batch_size_above_n_falls_back_to_full_batch(self):
        x, y = make_pair(10, 5, 4, seed=13)
        model = fit(x, y, 2, TrainConfig(epochs=3, batch_size=64, seed=1))
        assert len(model.loss_history) == 3

    def test_row_mismatch(self):
        with pytest.raises(AlignmentError):
            fit(np.zeros((5, 3)), np.zeros((6, 3)), 1, TrainConfig(seed=0))

    def test_non_finite_input_rejected(self):
        x = np.zeros((5, 3))
        y = np.zeros((5, 3))
        y[2, 1] = np.nan
        with pytest.raises(Exception, match="non-finite"):
            fit(x, y, 1, TrainConfig(seed=0))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit(np.zeros((1, 3)), np.zeros((1, 3)), 1, TrainConfig(seed=0))

    def test_divergence_raises_numerical_error(self):
        x, y = make_pair(30, 6, 6, seed=5)
        config = TrainConfig(learning_rate=1e200, epochs=3, batch_size=8, seed=0)
        # The absurd learning rate overflows float64 on the way to the
        # non-finite loss we are checking for; silence numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="epoch"):
                fit(x, y, embedding_size=2, config=config)


class TestCanonicalBottleneck:
    def test_training_embedding_is_whitened(self):
        x, y = make_pair(60, 40, 8, seed=14)
        model = fit(x, y, 3, TrainConfig(epochs=5, batch_size=20, seed=1))
        e = embed(model, x)
        np.testing.assert_allclose(e.mean(axis=0), 0.0, atol=1e-10)
        # Unit variance on every axis the embedding spans, none elsewhere
        # (a relu waist unit that died in training leaves an empty axis).
        rank = np.linalg.matrix_rank(e)
        assert rank >= 2
        expected = np.diag([1.0] * rank + [0.0] * (3 - rank))
        np.testing.assert_allclose(np.cov(e.T), expected, atol=1e-10)

    def test_network_function_unchanged(self):
        net = build_network(build_architecture(10, 8, 3), seed=2)
        xs = RngStream(15, 0).standard_normal((40, 10))
        before = forward(net, xs)[0]
        _canonical_bottleneck(net, xs)
        np.testing.assert_allclose(forward(net, xs)[0], before, atol=1e-10)

    def test_fewer_rows_than_dimensions(self):
        # Three rows span at most two axes of a 4-d embedding.
        x, y = make_pair(3, 40, 8, seed=17)
        e = embed(fit(x, y, 4, TrainConfig(epochs=1, seed=0)), x)
        assert e.shape == (3, 4)
        assert np.all(np.isfinite(e))
        np.testing.assert_allclose(e.mean(axis=0), 0.0, atol=1e-10)

    def test_degenerate_axis_keeps_rank(self):
        # A bottleneck unit that never varies stays a zero-variance axis
        # instead of being scaled up from rounding noise.
        net = build_network(build_architecture(10, 8, 3), seed=3)
        net.layers[BOTTLENECK_INDEX].weights[2] = 0.0
        xs = RngStream(16, 0).standard_normal((40, 10))
        _canonical_bottleneck(net, xs)
        _, cache = forward(net, xs)
        sds = cache.outputs[BOTTLENECK_INDEX].std(axis=0, ddof=1)
        np.testing.assert_allclose(sds[:2], 1.0, atol=1e-10)
        assert sds[2] < 1e-12


def assert_layers_in_buffer(network):
    """Every layer's weights and bias are views into network.params, in
    layer order, weights before bias."""
    for layer in network.layers:
        assert np.shares_memory(layer.weights, network.params)
        assert np.shares_memory(layer.bias, network.params)
    flat = [a.ravel() for l in network.layers for a in (l.weights, l.bias)]
    assert np.concatenate(flat).tobytes() == network.params.tobytes()


class TestParameterBuffer:
    def test_after_fit(self):
        x, y = make_pair(30, 10, 7, seed=6)
        model = fit(x, y, 3, TrainConfig(epochs=2, batch_size=10, seed=2))
        assert_layers_in_buffer(model.network)

    def test_after_canonical_bottleneck(self):
        net = build_network(build_architecture(10, 8, 3), seed=2)
        _canonical_bottleneck(net, RngStream(15, 0).standard_normal((40, 10)))
        assert_layers_in_buffer(net)

    def test_after_load_model(self, tmp_path):
        x, y = make_pair(30, 10, 7, seed=6)
        save_model(fit(x, y, 3, TrainConfig(epochs=1, seed=2)), tmp_path / "m.bin")
        assert_layers_in_buffer(load_model(tmp_path / "m.bin").network)


class TestEmbed:
    def fitted(self):
        x, y = make_pair(30, 10, 7, seed=6)
        model = fit(x, y, 3, TrainConfig(epochs=4, batch_size=10, seed=2))
        return model, x

    def test_shape_and_bottleneck_identity(self):
        model, x = self.fitted()
        e = embed(model, x)
        assert e.shape == (30, 3)
        xs = standardize_columns(x, model.input_means, model.input_sds)
        _, cache = forward(model.network, xs)
        np.testing.assert_array_equal(e, cache.outputs[BOTTLENECK_INDEX])

    def test_identical_rows_identical_embeddings(self):
        model, x = self.fitted()
        doubled = np.vstack([x[4:5], x[4:5]])
        e = embed(model, doubled)
        assert e[0].tobytes() == e[1].tobytes()

    def test_repeat_call_bitwise_equal(self):
        model, x = self.fitted()
        assert embed(model, x).tobytes() == embed(model, x).tobytes()

    def test_hand_weight_model_matches_matrix_product(self):
        # A single linear layer marked as the bottleneck: the embedding
        # must be exactly W @ x_standardized (plus bias).
        w = np.array([[0.5, -1.0, 2.0], [0.0, 1.0, 1.0]])
        net = Network(
            [DenseLayer(w, np.array([0.1, -0.2]), "linear")], bottleneck_index=0
        )
        arch = build_architecture(3, 3, 2)
        model = AimeModel(
            architecture=arch,
            network=net,
            seed=0,
            input_means=np.array([1.0, 0.0, -1.0]),
            input_sds=np.array([2.0, 1.0, 0.5]),
            output_means=np.zeros(3),
            output_sds=np.ones(3),
        )
        x = np.array([[3.0, 2.0, 0.0], [1.0, -1.0, -1.0]])
        xs = (x - model.input_means) / model.input_sds
        np.testing.assert_allclose(
            embed(model, x), xs @ w.T + np.array([0.1, -0.2]), atol=1e-12
        )

    def test_new_rows_use_training_statistics(self):
        model, x = self.fitted()
        x_new = x[:5] + 10.0
        means, _ = column_stats(x)
        assert not np.allclose(means, column_stats(x_new)[0])
        e = embed(model, x_new)
        assert e.shape == (5, 3)

    def test_column_mismatch(self):
        model, _ = self.fitted()
        with pytest.raises(ShapeError):
            embed(model, np.zeros((4, 7)))

    def test_reconstruct_lands_in_y_units(self):
        x, y = make_pair(60, 8, 5, seed=8, latent_dim=1, noise=0.05)
        y = y * 40.0 + 300.0
        model = fit(x, y, 2, TrainConfig(epochs=250, batch_size=20, seed=0))
        recon = reconstruct(model, x)
        assert recon.shape == y.shape
        resid = np.abs(recon - y).mean()
        assert resid < np.abs(y - y.mean(axis=0)).mean()


class TestModelFile:
    def fitted(self, tmp_path):
        x, y = make_pair(25, 7, 6, seed=9)
        return (
            fit(x, y, 2, TrainConfig(epochs=3, batch_size=8, seed=4)),
            x,
            tmp_path / "model.bin",
        )

    def test_round_trip_is_bitwise(self, tmp_path):
        model, x, path = self.fitted(tmp_path)
        save_model(model, path)
        loaded = load_model(path)
        path2 = tmp_path / "again.bin"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert embed(model, x).tobytes() == embed(loaded, x).tobytes()
        assert loaded.loss_history == model.loss_history
        assert loaded.seed == model.seed
        assert loaded.architecture == model.architecture

    def test_load_peak_memory_near_two_parameter_copies(self, tmp_path):
        # The file bytes and the network's parameter buffer are the only
        # parameter-sized allocations (p = q = 1600: about 1M parameters).
        x = RngStream(3, 0).standard_normal((4, 1600))
        model = fit(x, x, 4, TrainConfig(epochs=0))
        path = tmp_path / "model.bin"
        save_model(model, path)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.network.params.size > 1_000_000
        assert peak < 2.5 * model.network.params.nbytes
        save_model(loaded, tmp_path / "again.bin")
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("Z")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="magic"):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="version"):
            load_model(path)

    def test_truncated(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ParseError, match="truncated"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            load_model(path)
