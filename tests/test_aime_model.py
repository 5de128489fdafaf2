"""Tests for architecture derivation, training, embedding, and the
model file round trip."""

import hashlib
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aime import aime_model
from aime.aime_model import (
    BOTTLENECK_INDEX,
    PARAM_DTYPE,
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
from aime.importance import permutation_importance
from aime.matrix_core import (
    KIND_DROPOUT,
    KIND_SHUFFLE,
    column_stats,
    rng_stream,
    standardize_columns,
)
from aime.neural_net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    Network,
    TrainConfig,
    backward,
    draw_dropout_masks,
    forward,
    mse_loss,
)
from aime.synth_bench import SynthSpec, generate


def make_pair(n, p, q, seed=0, latent_dim=2, noise=0.1):
    """Correlated X, Y pair driven by a shared low-dim latent."""
    rng = rng_stream(seed, 0, 0)
    z = rng.standard_normal((n, latent_dim))
    ax = rng.standard_normal((latent_dim, p))
    ay = rng.standard_normal((latent_dim, q))
    x = z @ ax + noise * rng.standard_normal((n, p))
    y = z @ ay + noise * rng.standard_normal((n, q))
    return x, y


def layer_sizes(plan):
    """All 9 sizes of a layer plan, input to output."""
    return [plan[0][0]] + [fan_out for _, fan_out, _, _ in plan]


class TestBuildArchitecture:
    def test_wide_genomic_shapes(self):
        plan = build_architecture(5459, 5703, 4)
        assert layer_sizes(plan) == [5459, 1092, 219, 9, 4, 10, 229, 1141, 5703]
        assert [rate for *_, rate in plan] == [0.20, 0.10, 0.0, 0.0, 0.0, 0.10, 0.20, 0.0]

    def test_exact_powers_of_five(self):
        plan = build_architecture(625, 625, 1)
        assert layer_sizes(plan) == [625, 125, 25, 1, 1, 1, 25, 125, 625]

    def test_tiny_inputs_ceil_to_one(self):
        plan = build_architecture(3, 3, 2)
        assert layer_sizes(plan) == [3, 1, 1, 1, 2, 1, 1, 1, 3]

    def test_small_inputs_floor_inner_widths(self):
        # Desk scale: the inner widths are floored at 2d and d, so the
        # waist is never narrower than the embedding.
        plan = build_architecture(40, 40, 4)
        assert layer_sizes(plan) == [40, 8, 8, 4, 4, 4, 8, 8, 40]
        # ... but never above ceil(w/5): the funnel only narrows.
        plan = build_architecture(12, 100, 4)
        assert layer_sizes(plan) == [12, 3, 3, 3, 4, 4, 8, 20, 100]

    def test_layer_specs_chain(self):
        specs = build_architecture(100, 50, 3)
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
        for p, q, d in [(0, 3, 1), (3, 0, 1), (3, 3, 0), (-2, 3, 1),
                        (3, 5, 4), (5, 3, 4), (8, 6, 99999999999)]:
            with pytest.raises(DomainError):
                build_architecture(p, q, d)


class TestBuildNetwork:
    def test_shapes_follow_plan(self):
        plan = build_architecture(40, 30, 4)
        net = build_network(plan, seed=1)
        assert net.bottleneck_index == BOTTLENECK_INDEX
        assert len(net.layers) == len(plan)
        for (fan_in, fan_out, activation, rate), layer in zip(plan, net.layers):
            assert layer.weights.shape == (fan_out, fan_in)
            assert layer.bias.shape == (fan_out,)
            assert (layer.activation, layer.dropout_rate) == (activation, rate)
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

    @pytest.mark.parametrize(
        "shape, seed, prefix",
        [((40, 40, 4), 3, "7b2ba47254cc8fc8"), ((700, 650, 4), 5, "42b1e057eca7fb0b")],
    )
    def test_params_pinned(self, shape, seed, prefix):
        # Philox draws and scalar IEEE arithmetic: the same bytes on every
        # platform, and the bytes of rng.uniform(-limit, limit, shape).
        params = build_network(build_architecture(*shape), seed).params
        assert hashlib.sha256(params.tobytes()).hexdigest()[:16] == prefix

    def test_peak_memory_one_parameter_copy(self):
        # Layers are drawn straight into the parameter buffer (p = q =
        # 1600: about 1M parameters).
        build_network(build_architecture(3, 3, 1), seed=0)  # warm imports
        tracemalloc.start()
        try:
            net = build_network(build_architecture(1600, 1600, 4), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.params.size > 1_000_000
        assert peak < 1.1 * net.params.nbytes

    def test_float32_is_float64_draws_rounded_once(self):
        # Layer 0 holds 98,000 weights: more than one block of draws.
        plan = build_architecture(700, 650, 4)
        exact = build_network(plan, seed=5)
        rounded = build_network(plan, seed=5, dtype=PARAM_DTYPE)
        assert exact.params.dtype == np.float64
        assert rounded.params.dtype == np.float32
        assert rounded.params.tobytes() == exact.params.astype(np.float32).tobytes()

    def test_float32_peak_memory_one_parameter_copy(self):
        build_network(build_architecture(3, 3, 1), seed=0, dtype=PARAM_DTYPE)
        tracemalloc.start()
        try:
            net = build_network(build_architecture(1600, 1600, 4), 1, PARAM_DTYPE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.params.size > 1_000_000
        assert peak < 1.1 * net.params.nbytes

    @given(
        st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 16),
        st.integers(0, 2**32),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_plan_forwards_one_batch(self, p, q, d, seed):
        # The derived chain is always dimension-consistent: one batch
        # flows through without shape errors for any sizes that make a
        # plan (the embedding no wider than either matrix).
        assume(d <= min(p, q))
        net = build_network(build_architecture(p, q, d), seed=seed)
        x = rng_stream(seed, 0, 1).standard_normal((3, p))
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
        fresh = build_network(build_architecture(6, 5, 2), seed=3, dtype=PARAM_DTYPE)
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

    def test_training_peak_memory(self):
        # Parameters, two Adam moments and one reused gradient buffer the
        # size of the largest update group (layer 0 or 7, about half the
        # parameters), plus the transient per-layer draws of build_network
        # (p = q = 1600: about 1M parameters; two steps of one batch each).
        x = rng_stream(4, 0, 0).standard_normal((8, 1600))
        y = rng_stream(5, 0, 0).standard_normal((8, 1600))
        tracemalloc.start()
        try:
            model = fit(x, y, 4, TrainConfig(epochs=2, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.network.params.size > 1_000_000
        assert peak < 4.0 * model.network.params.nbytes

    def test_narrow_side_warns(self):
        x, y = make_pair(20, 12, 40, seed=6)
        with pytest.warns(UserWarning, match=r"input width 12 .* d=4"):
            fit(x, y, 4, TrainConfig(epochs=1, seed=0))
        with pytest.warns(UserWarning, match=r"output width 12 .* d=4"):
            fit(y, x, 4, TrainConfig(epochs=1, seed=0))

    def test_desk_shape_does_not_warn(self):
        x, y = make_pair(20, 40, 40, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(x, y, 4, TrainConfig(epochs=1, seed=0))

    def test_divergence_raises_numerical_error(self):
        x, y = make_pair(30, 6, 6, seed=5)
        config = TrainConfig(learning_rate=1e30, epochs=3, batch_size=8, seed=0)
        # The absurd learning rate overflows float32 on the way to the
        # non-finite loss we are checking for; the error reports it, and
        # numpy's warnings stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="epoch"):
                fit(x, y, embedding_size=2, config=config)

    @pytest.mark.parametrize(
        "rate, message",
        [(1e30, "embedding of the training rows is not finite"), (1e8, "weights overflowed")],
        ids=["embedding", "fold"],
    )
    def test_diverged_last_step_raises_numerical_error(self, rate, message):
        # One step, whose loss is taken before the update and is finite.
        # At 1e30 the updated embedding is not finite, which the SVD would
        # not take; at 1e8 it is, but folding its axes into the next
        # layer overflows float32. The data are `aime synth`'s defaults.
        data = generate(SynthSpec(n=20, p=10, q=10, n_signal=10, noise_sd=0.1,
                                  design="linear", seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=message):
                fit(data.x.values, data.y.values, 4,
                    TrainConfig(learning_rate=rate, epochs=1))

    def test_healthy_desk_fit_does_not_warn(self):
        # The desk surrogate trains to a full-rank embedding.
        spec = SynthSpec(n=600, p=40, q=40, n_signal=10, noise_sd=0.3,
                         design="quadratic", seed=3)
        data = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(data.x.values, data.y.values, 4, TrainConfig(epochs=40, seed=1))

    @pytest.mark.parametrize("index", [1, 5], ids=["encoder", "decoder"])
    def test_dead_relu_layer_warns(self, monkeypatch, index):
        # A bias far below anything the weights can reach keeps every unit
        # of the layer off on every row, and gives it no gradient to
        # recover by.
        def with_dead_layer(plan, seed, dtype):
            network = build_network(plan, seed, dtype)
            network.layers[index].bias[...] = -1e4
            return network

        monkeypatch.setattr(aime_model, "build_network", with_dead_layer)
        x, y = make_pair(30, 40, 40, seed=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(x, y, 4, TrainConfig(epochs=2, batch_size=10, seed=0))
        dead = [str(w.message) for w in caught if "is dead" in str(w.message)]
        assert dead[0] == (
            f"relu layer {index} (width 8) is dead: none of its units "
            "fires on any of the 30 training rows"
        )


def reference_fit(x, y, embedding_size, config):
    """fit's training loop written out the plain way, kept as a bitwise
    oracle for the optimized one: per-layer uniform mask draws, an
    explicit float relu gradient, the textbook mean loss, per-batch row
    gathers, and Adam's scalars converted on every step. Returns the
    params after the principal-axes pass and the loss history."""
    f32 = PARAM_DTYPE.type
    xs = standardize_columns(x, *column_stats(x)).astype(PARAM_DTYPE)
    ys = standardize_columns(y, *column_stats(y)).astype(PARAM_DTYPE)
    plan = build_architecture(x.shape[1], y.shape[1], embedding_size)
    network = build_network(plan, config.seed, PARAM_DTYPE)
    m, v, t = np.zeros_like(network.params), np.zeros_like(network.params), 0
    n, history = len(xs), []
    for epoch in range(config.epochs):
        order = rng_stream(config.seed, KIND_SHUFFLE, epoch).permutation(n)
        mask_rng = rng_stream(config.seed, KIND_DROPOUT, epoch)
        scale = (epoch + 1) / config.epochs
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = []
            for layer in network.layers:
                rate = layer.dropout_rate * scale
                if rate > 0.0:
                    u = mask_rng.uniform(0.0, 1.0, (len(idx), layer.fan_out))
                    masks.append((u >= rate) * f32(1.0 / (1.0 - rate)))
                else:
                    masks.append(None)
            out, cache = forward(network, xs[idx], masks)
            diff = out - ys[idx]
            total += float(np.mean(diff * diff, dtype=np.float64)) * len(idx)
            grad_a = (2.0 / diff.size) * diff
            grads = []
            for k in range(len(network.layers) - 1, -1, -1):
                layer, z = network.layers[k], cache.pre_activations[k]
                if masks[k] is not None:
                    grad_a = grad_a * masks[k]
                if layer.activation == "relu":
                    grad_z = grad_a * (z > 0.0).astype(z.dtype)
                else:
                    grad_z = grad_a * np.ones_like(z)
                below = cache.x if k == 0 else cache.outputs[k - 1]
                grads[:0] = [(grad_z.T @ below).ravel(), grad_z.sum(axis=0)]
                grad_a = grad_z @ layer.weights
            g = np.concatenate(grads)
            t += 1
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            m[:] = f32(b1) * m + g * f32(1.0 - b1)
            v[:] = f32(b2) * v + g * g * f32(1.0 - b2)
            m_hat = m / f32(1.0 - b1**t) * f32(config.learning_rate)
            v_hat = np.sqrt(v / f32(1.0 - b2**t)) + f32(ADAM_EPSILON)
            network.params[:] -= m_hat / v_hat
        history.append(total / n)
    if history:
        _canonical_bottleneck(network, xs)
    return network.params, history


class TestFitOracle:
    """fit's params and loss history equal the plain reference loop's to
    the bit, at the desk shape (p = q = 40, d = 4), where the network is
    one update group, and at p = q = 600, where layers 0 and 7 hold 72K
    parameters each and are groups of their own: 3 groups, each updated
    as soon as backward completes it."""

    @pytest.mark.parametrize(
        "n, width, batch_size",
        [(600, 40, 32), (50, 40, 64), (70, 600, 32)],
        ids=[
            "600 rows, short last batch of 24",
            "batch above n",
            "600 features, 3 update groups",
        ],
    )
    def test_params_and_history_bitwise(self, n, width, batch_size):
        x, y = make_pair(n, width, width, seed=8)
        config = TrainConfig(epochs=4, batch_size=batch_size, seed=2)
        model = fit(x, y, 4, config)
        params, history = reference_fit(x, y, 4, config)
        assert model.network.params.dtype == params.dtype
        assert model.network.params.tobytes() == params.tobytes()
        assert np.array(model.loss_history).tobytes() == np.array(history).tobytes()

    @pytest.mark.parametrize(
        "p, q, groups, largest",
        [
            (40, 40, [range(7, -1, -1)], 948),
            (600, 600, [[7], range(6, 0, -1), [0]], 72_600),
            (5459, 5703, [[7], [6], [5, 4, 3, 2], [1], [0]], 6_512_826),
        ],
        ids=["desk", "600 features", "paper width"],
    )
    def test_update_groups(self, p, q, groups, largest):
        # Output side first, each group's layers in backward order; one
        # gradient buffer the size of the largest group.
        network = Network(build_architecture(p, q, 4), BOTTLENECK_INDEX, PARAM_DTYPE)
        state = AdamState(network, TrainConfig.learning_rate)
        assert [list(layers) for layers, _, _ in state.groups] == [list(g) for g in groups]
        assert max(grad.size for _, _, grad in state.groups) == largest
        spans = [span for _, span, _ in state.groups][::-1]
        assert [s.start for s in spans[1:]] == [s.stop for s in spans[:-1]]
        assert (spans[0].start, spans[-1].stop) == (0, network.params.size)


class TestParameterDtype:
    F32 = np.dtype(np.float32)

    def test_fit_trains_in_float32(self, monkeypatch):
        seen = set()

        def spy_step(state, grads, span):
            seen.add(("adam", state.network.params.dtype, grads.dtype, state.m.dtype, state.v.dtype))
            step(state, grads, span)

        def spy_masks(*args, **kwargs):
            masks = draw(*args, **kwargs)
            seen.update(("mask", m.dtype) for m in masks if m is not None)
            return masks

        step, draw = aime_model.adam_step, aime_model.draw_dropout_masks
        monkeypatch.setattr(aime_model, "adam_step", spy_step)
        monkeypatch.setattr(aime_model, "draw_dropout_masks", spy_masks)
        x, y = make_pair(30, 10, 7, seed=6)
        model = fit(x, y, 3, TrainConfig(epochs=2, batch_size=10, seed=2))
        assert seen == {("adam", *[self.F32] * 4), ("mask", self.F32)}
        assert model.network.params.dtype == self.F32
        assert np.asarray(model.loss_history).dtype == np.float64
        assert embed(model, x).dtype == np.float64
        assert reconstruct(model, x).dtype == np.float64

    def test_loaded_model_is_float32(self, tmp_path):
        x, y = make_pair(30, 10, 7, seed=6)
        save_model(fit(x, y, 3, TrainConfig(epochs=2, seed=2)), tmp_path / "m.bin")
        model = load_model(tmp_path / "m.bin")
        net = model.network
        masks = draw_dropout_masks(net, len(x), rng_stream(1, 0, 0))
        out, cache = forward(net, x, masks)
        state = AdamState(net, TrainConfig.learning_rate)
        dtypes = {net.params.dtype, state.m.dtype, state.v.dtype}
        loss_grad = mse_loss(out, np.zeros_like(out))[1]
        backward(cache, loss_grad, state, lambda span, grad: dtypes.add(grad.dtype))
        dtypes |= {m.dtype for m in masks if m is not None}
        assert dtypes == {self.F32}
        assert np.asarray(model.loss_history).dtype == np.float64
        assert embed(model, x).dtype == np.float64


class TestCanonicalBottleneck:
    def test_training_embedding_is_whitened(self):
        x, y = make_pair(60, 40, 8, seed=14)
        model = fit(x, y, 3, TrainConfig(epochs=5, batch_size=20, seed=1))
        e = embed(model, x)
        # The network is float32: its rounding leaves about 1e-7.
        np.testing.assert_allclose(e.mean(axis=0), 0.0, atol=1e-5)
        # Unit variance on every axis the embedding spans, none elsewhere
        # (a relu waist unit that died in training leaves an empty axis,
        # whose sd float32 rounding puts near 1e-7 rather than at 0).
        rank = np.linalg.matrix_rank(e, tol=1e-3 * np.abs(e).max())
        assert rank >= 2
        expected = np.diag([1.0] * rank + [0.0] * (3 - rank))
        np.testing.assert_allclose(np.cov(e.T), expected, atol=1e-5)

    def test_network_function_unchanged(self):
        net = build_network(build_architecture(10, 8, 3), seed=2)
        xs = rng_stream(15, 0, 0).standard_normal((40, 10))
        before = forward(net, xs)[0]
        _canonical_bottleneck(net, xs)
        np.testing.assert_allclose(forward(net, xs)[0], before, atol=1e-10)

    def test_fewer_rows_than_dimensions(self):
        # Three rows span at most two axes of a 4-d embedding.
        x, y = make_pair(3, 40, 8, seed=17)
        with pytest.warns(UserWarning, match=r"3 training rows has numerical rank [0-2], below d=4"):
            model = fit(x, y, 4, TrainConfig(epochs=1, seed=0))
        e = embed(model, x)
        assert e.shape == (3, 4)
        assert np.all(np.isfinite(e))
        np.testing.assert_allclose(e.mean(axis=0), 0.0, atol=1e-5)

    def test_degenerate_axis_keeps_rank(self):
        # A bottleneck unit that never varies stays a zero-variance axis
        # instead of being scaled up from rounding noise.
        net = build_network(build_architecture(10, 8, 3), seed=3)
        net.layers[BOTTLENECK_INDEX].weights[2] = 0.0
        xs = rng_stream(16, 0, 0).standard_normal((40, 10))
        assert _canonical_bottleneck(net, xs)[0] == 2
        _, cache = forward(net, xs)
        sds = cache.outputs[BOTTLENECK_INDEX].std(axis=0, ddof=1)
        np.testing.assert_allclose(sds[:2], 1.0, atol=1e-10)
        assert sds[2] < 1e-12

    def test_constant_input_has_rank_zero(self):
        # Standardization maps a constant x to zeros, so every row takes
        # the same pass: the embedding is one point, of rank 0, and no
        # shuffle of a column moves it.
        x = np.full((30, 40), 2.5)
        _, y = make_pair(30, 40, 40, seed=18)
        with pytest.warns(UserWarning, match=r"30 training rows has numerical rank 0, below d=4"):
            model = fit(x, y, 4, TrainConfig(epochs=2, batch_size=10, seed=0))
        with pytest.warns(UserWarning, match="every importance score is 0"):
            scores = permutation_importance(model, x, repeats=2)
        assert not scores.any()


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
        _canonical_bottleneck(net, rng_stream(15, 0, 0).standard_normal((40, 10)))
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
        net = Network([(3, 2, "linear", 0.0)], bottleneck_index=0)
        net.layers[0].weights[...] = w
        net.layers[0].bias[...] = [0.1, -0.2]
        model = AimeModel(
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


# How load_model names the fields of a layer record it rejects.
SPEC_TEXT = "(fan_in, fan_out, activation, dropout)"
SPEC = re.escape(SPEC_TEXT)


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
        assert loaded.embedding_size == model.embedding_size == 2

        def specs(network):
            return [
                (l.fan_in, l.fan_out, l.activation, l.dropout_rate)
                for l in network.layers
            ]

        assert specs(loaded.network) == specs(model.network)
        assert specs(loaded.network) == build_architecture(7, 6, 2)
        assert loaded.network.bottleneck_index == model.network.bottleneck_index

    def test_save_copies_no_parameters(self, tmp_path):
        # Layers are written from views of the parameter buffer, so the
        # extra peak is the small header, not a copy of the parameters.
        # The bytes are those of a layer-by-layer writer.
        def layer_by_layer_bytes(model):
            chunks = [b"AIMB", struct.pack("<I", 2)]
            chunks.append(
                struct.pack(
                    "<6Q", model.network.input_size, model.network.output_size,
                    model.embedding_size, model.seed,
                    model.network.bottleneck_index, len(model.network.layers),
                )
            )
            history = np.asarray(model.loss_history, dtype="<f8")
            chunks += [struct.pack("<Q", history.size), history.tobytes()]
            for stats in (model.input_means, model.input_sds,
                          model.output_means, model.output_sds):
                chunks.append(np.asarray(stats, dtype="<f8").tobytes())
            for layer in model.network.layers:
                code = {"linear": 0, "relu": 1}[layer.activation]
                chunks.append(
                    struct.pack("<QQBd", layer.fan_out, layer.fan_in, code,
                                layer.dropout_rate)
                )
                chunks.append(layer.weights.astype("<f4").tobytes())
                chunks.append(layer.bias.astype("<f4").tobytes())
            return b"".join(chunks)

        x = rng_stream(3, 0, 0).standard_normal((4, 1600))
        model = fit(x, x, 4, TrainConfig(epochs=1, seed=2))
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            save_model(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.network.params.size > 1_000_000
        assert peak < 0.1 * model.network.params.nbytes
        assert path.read_bytes() == layer_by_layer_bytes(model)

    def test_file_is_header_plus_four_bytes_per_parameter(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        headers = self.layer0_record(model) + 25 * len(model.network.layers)
        assert path.stat().st_size == headers + 4 * model.network.params.size

    def test_version_1_rejected(self, tmp_path):
        # Version 1 stored float64 parameters; it is not converted.
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="version 1 .* retrain the model"):
            load_model(path)

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

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (40, struct.pack("<Q", 1), "bottleneck index 1, expected 3"),
            (48, struct.pack("<Q", 9), "expected 8 layers, header says 9"),
            (
                "record",
                struct.pack("<d", 0.5),
                f"layer 0: {SPEC_TEXT} is (7, 2, 'relu', 0.5) in the file, "
                "but (7, 2, 'relu', 0.2) in AIME's plan for p=7, q=6, d=2",
            ),
            ("end", b"xx", "2 unexpected trailing bytes"),
        ],
        ids=["bottleneck index", "layer count", "layer record", "trailing bytes"],
    )
    def test_structure_errors_name_the_model_file(self, tmp_path, offset, value, message):
        # The header's bottleneck index and layer count follow magic,
        # version, p, q, d and seed; layer 0's dropout rate is 17 bytes
        # into its record.
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        offset = {"record": self.layer0_record(model) + 17, "end": len(raw)}.get(offset, offset)
        raw[offset : offset + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as caught:
            load_model(path)
        assert str(caught.value) == f"model file: {message}"

    def test_load_peak_memory_one_parameter_copy(self, tmp_path):
        # Each layer is read straight into the network's parameter buffer
        # (p = q = 1600: about 1M parameters).
        x = rng_stream(3, 0, 0).standard_normal((4, 1600))
        model = fit(x, x, 4, TrainConfig(epochs=0))
        path = tmp_path / "model.bin"
        save_model(model, path)
        load_model(path)  # warm imports
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.network.params.size > 1_000_000
        assert peak < 1.1 * model.network.params.nbytes
        save_model(loaded, tmp_path / "again.bin")
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()

    def layer0_record(self, model):
        """Offset of layer 0's (fan_out, fan_in, code, rate) record."""
        return 4 + 4 + 48 + 8 + 8 * len(model.loss_history) + 16 * (
            model.network.input_size + model.network.output_size
        )

    def test_overrun_sizes_rejected_before_allocating(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        offset = self.layer0_record(model) + 8
        raw[offset : offset + 8] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=rf"^model file: layer 0: {SPEC} is \({2**40}, 2, "):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # p follows magic and version; the epoch count follows p, q, d, seed,
    # the bottleneck index and the layer count.
    @pytest.mark.parametrize("offset, value", [(8, 2**40), (56, 2**60)], ids=["p", "epochs"])
    def test_header_size_overrun_rejected_before_allocating(self, tmp_path, offset, value):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 8] = struct.pack("<Q", value)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="truncated"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_header_sizes_without_a_plan(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[24:32] = struct.pack("<Q", 7)  # d, after magic, version, p and q
        path.write_bytes(bytes(raw))
        with pytest.raises(
            ParseError, match=r"^model file: embedding size 7 exceeds min\(p, q\) = 6"
        ):
            load_model(path)

    def record_offset(self, model, index):
        """Offset of layer ``index``'s (fan_out, fan_in, code, rate) record."""
        return self.layer0_record(model) + sum(
            25 + 4 * layer.fan_out * (layer.fan_in + 1)
            for layer in model.network.layers[:index]
        )

    @pytest.mark.parametrize("rate", [1.5, float("nan"), 0.9])
    def test_bad_dropout_rate(self, tmp_path, rate):
        # 0.9 is a valid rate, but not the plan's 0.2 for layer 0.
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        offset = self.layer0_record(model) + 17
        raw[offset : offset + 8] = struct.pack("<d", rate)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as caught:
            load_model(path)
        assert str(caught.value) == (
            f"model file: layer 0: {SPEC_TEXT} is (7, 2, 'relu', {rate!r}) in the file, "
            "but (7, 2, 'relu', 0.2) in AIME's plan for p=7, q=6, d=2"
        )

    @pytest.mark.parametrize(
        "index, code, found, planned",
        [(0, 0, "'linear'", "'relu'"), (3, 1, "'relu'", "'linear'"), (7, 9, "'code 9'", "'linear'")],
    )
    def test_changed_activation(self, tmp_path, index, code, found, planned):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[self.record_offset(model, index) + 16] = code
        path.write_bytes(bytes(raw))
        fan_in, fan_out, _, rate = build_architecture(7, 6, 2)[index]
        with pytest.raises(ParseError) as caught:
            load_model(path)
        assert str(caught.value).startswith(
            f"model file: layer {index}: {SPEC_TEXT} is ({fan_in}, {fan_out}, {found}, {rate!r}) "
            f"in the file, but ({fan_in}, {fan_out}, {planned}, {rate!r}) in AIME's plan"
        )

    def test_chained_widths_off_the_plan(self, tmp_path):
        # A network whose widths chain and whose p, q and d match the
        # header, but whose first hidden layer is 3 units wide, not 2.
        model, _, path = self.fitted(tmp_path)
        plan = build_architecture(7, 6, 2)
        plan[0] = (7, 3, "relu", 0.2)
        plan[1] = (3, 2, "relu", 0.1)
        model.network = Network(plan, BOTTLENECK_INDEX, np.float32)
        save_model(model, path)
        with pytest.raises(
            ParseError,
            match=rf"^model file: layer 0: {SPEC} is \(7, 3, 'relu', 0.2\) in the file, "
            r"but \(7, 2, 'relu', 0.2\) in AIME's plan",
        ):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("output_means", np.nan, "non-finite value in y means"),
            ("input_sds", -1.0, "negative value in x sds"),
            ("output_sds", -1.0, "negative value in y sds"),
            ("loss_history", -1.0, "negative value in loss history"),
        ],
        ids=["y_means_nan", "x_sds_negative", "y_sds_negative", "loss_history_negative"],
    )
    def test_nan_mean_rejected(self, tmp_path, field, value, message):
        # A negative sd would pass as a constant column to the scaling
        # (anything under 1e-12 is), so the column would be ignored.
        model, _, path = self.fitted(tmp_path)
        getattr(model, field)[1] = value
        save_model(model, path)
        with pytest.raises(ParseError, match=f"^model file: {message}$"):
            load_model(path)

    def test_zero_sd_and_loss_accepted(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        model.input_sds[0] = -0.0
        model.output_sds[0] = 0.0
        model.loss_history[0] = 0.0
        save_model(model, path)
        assert load_model(path).input_sds[0] == 0.0

    @pytest.mark.parametrize(
        "in_layer0, cut",
        [(False, 20), (False, 100), (True, 10), (True, 30)],
        ids=["header", "statistics", "record", "weights"],
    )
    def test_file_shrinking_mid_read_is_a_parse_error(self, tmp_path, monkeypatch, in_layer0, cut):
        # fstat reports the full size, as if the file were cut after the
        # size check; the read that comes up short raises ParseError.
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = path.read_bytes()
        full = os.stat(path)
        if in_layer0:
            cut += self.layer0_record(model)
        path.write_bytes(raw[:cut])
        monkeypatch.setattr(aime_model.os, "fstat", lambda fd: full)
        with pytest.raises(ParseError, match="truncated"):
            load_model(path)

    def test_inf_weight_rejected(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        model.network.layers[2].weights[0, 1] = -np.inf
        save_model(model, path)
        with pytest.raises(ParseError, match="non-finite value in layer 2 weights"):
            load_model(path)

    def test_layer_chain_mismatch(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        # Layer 1 (2 -> 2) claims to be 5 -> 1: the same 6 parameters, so
        # the file still adds up, but layer 0's 2 outputs cannot feed it.
        layer0 = model.network.layers[0]
        offset = self.layer0_record(model) + 25 + 4 * layer0.fan_out * (layer0.fan_in + 1)
        assert struct.unpack_from("<QQ", raw, offset) == (2, 2)
        raw[offset : offset + 16] = struct.pack("<QQ", 1, 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=rf"^model file: layer 1: {SPEC} is \(5, 1, 'relu', 0.1\) "):
            load_model(path)

    def test_bottleneck_out_of_range(self, tmp_path):
        model, _, path = self.fitted(tmp_path)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[40:48] = struct.pack("<Q", 8)  # after magic, version, p, q, d, seed
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="bottleneck index 8, expected 3"):
            load_model(path)

    def test_bottleneck_index_pinned(self, tmp_path):
        # Layer 1 of the 7/6/2 plan is as wide as the embedding, so only
        # the index itself tells the file is wrong.
        model, _, path = self.fitted(tmp_path)
        assert model.network.layers[1].fan_out == 2
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[40:48] = struct.pack("<Q", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="bottleneck index 1, expected 3"):
            load_model(path)
