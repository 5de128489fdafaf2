"""Tests for the network engine: forward oracle, backprop vs finite
differences, Adam against a scalar reference, dropout statistics."""

import numpy as np
import pytest

from aime.errors import CacheError, DomainError, ShapeError
from aime.matrix_core import RngStream
from aime.neural_net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPSILON,
    AdamState,
    Network,
    TrainConfig,
    adam_step,
    backward,
    draw_dropout_masks,
    forward,
    gradient_check,
    max_relative_error,
    mse_loss,
    numerical_gradients,
)


def hand_network(layers, bottleneck_index=None, dtype=np.float64):
    """A Network holding the given values: one (weights, bias,
    activation, dropout_rate) tuple per layer."""
    specs = [(len(w[0]), len(w), act, rate) for w, _, act, rate in layers]
    net = Network(specs, bottleneck_index, dtype)
    for (w, b), layer in zip(net.layer_views(net.params), layers):
        w[...], b[...] = layer[:2]
    return net


def tiny_network():
    """2 -> 2 relu -> 1 linear with hand-picked weights."""
    return hand_network(
        [
            ([[1.0, -1.0], [2.0, 0.0]], [0.0, 1.0], "relu", 0.0),
            ([[1.0, 1.0]], [-1.0], "linear", 0.0),
        ]
    )


def random_network(sizes, rng, dropout=None, dtype=np.float64):
    layers = []
    for i in range(len(sizes) - 1):
        w = rng.standard_normal((sizes[i + 1], sizes[i])) * 0.5
        b = rng.standard_normal(sizes[i + 1]) * 0.1
        act = "linear" if i == len(sizes) - 2 else "relu"
        rate = dropout[i] if dropout else 0.0
        layers.append((w, b, act, rate))
    return hand_network(layers, dtype=dtype)


def relu_margin(network, x, masks):
    """Smallest |pre-activation| over relu layers for this input."""
    _, cache = forward(network, x, masks)
    margins = [
        float(np.min(np.abs(cache.pre_activations[i])))
        for i, layer in enumerate(network.layers)
        if layer.activation == "relu"
    ]
    return min(margins) if margins else np.inf


def draw_input_away_from_kinks(network, n, masks, base_seed, min_margin=1e-3):
    """Deterministically redraw x until no relu unit sits near zero.

    Finite differences are invalid at a relu kink, so the check below is
    only meaningful for inputs with a margin. The rejection rule depends
    only on pre-activations, never on gradient agreement.
    """
    for attempt in range(50):
        x = RngStream(base_seed, attempt).standard_normal((n, network.input_size))
        if relu_margin(network, x, masks) > min_margin:
            return x
    raise AssertionError("could not find an input clear of relu kinks")


class TestForward:
    def test_hand_worked_two_layer(self):
        net = tiny_network()
        x = np.array([[1.0, 2.0]])
        out, cache = forward(net, x)
        np.testing.assert_allclose(cache.pre_activations[0], [[-1.0, 3.0]])
        np.testing.assert_allclose(cache.outputs[0], [[0.0, 3.0]])
        np.testing.assert_allclose(out, [[2.0]])

    def test_identity_layer_passes_input_through(self):
        net = hand_network([(np.eye(3), np.zeros(3), "linear", 0.0)])
        x = RngStream(1, 0).standard_normal((4, 3))
        np.testing.assert_array_equal(forward(net, x)[0], x)

    def test_train_equals_eval_when_no_dropout(self):
        net = tiny_network()
        x = np.array([[1.0, 2.0], [0.3, -0.7]])
        masks = draw_dropout_masks(net, 2, RngStream(1, 1))
        assert masks == [None, None]
        train_out, _ = forward(net, x, masks)
        np.testing.assert_array_equal(train_out, forward(net, x)[0])

    def test_batch_rows_independent(self):
        net = tiny_network()
        x = np.array([[1.0, 2.0], [0.5, -0.5]])
        batched = forward(net, x)[0]
        np.testing.assert_allclose(batched[0:1], forward(net, x[0:1])[0])
        np.testing.assert_allclose(batched[1:2], forward(net, x[1:2])[0])

    def test_input_size_checked(self):
        with pytest.raises(ShapeError):
            forward(tiny_network(), np.zeros((3, 5)))

    def test_layer_chain_validated(self):
        with pytest.raises(ShapeError, match="layer 1"):
            Network([(2, 3, "relu", 0.0), (4, 1, "relu", 0.0)])

    def test_bottleneck_index_validated(self):
        with pytest.raises(ShapeError, match="bottleneck"):
            Network([(2, 2, "relu", 0.0)], bottleneck_index=1)

    def test_mask_count_checked(self):
        with pytest.raises(ShapeError, match="masks"):
            forward(tiny_network(), np.zeros((1, 2)), [None])

    def test_stop_runs_leading_layers_only(self):
        net = random_network([4, 3, 3, 2], RngStream(5, 0))
        x = RngStream(5, 1).standard_normal((6, 4))
        out, cache = forward(net, x, stop=2)
        assert len(cache.outputs) == 2
        assert out.tobytes() == forward(net, x)[1].outputs[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_start_resumes_a_stopped_pass(self, k, dtype):
        net = random_network([4, 3, 5, 3, 2], RngStream(6, 0), dropout=[0.3, 0.2, 0.0, 0.0],
                             dtype=dtype)
        x = RngStream(6, 1).standard_normal((7, 4))
        masks = draw_dropout_masks(net, 7, RngStream(6, 2))
        for m in (None, masks):
            full, _ = forward(net, x, m)
            head, _ = forward(net, x, m, stop=k)
            tail, cache = forward(net, head, m, start=k)
            assert tail.dtype == net.dtype
            assert tail.tobytes() == full.tobytes()
            assert len(cache.outputs) == 4 - k
            assert cache.x.tobytes() == head.tobytes()
        # start and stop together run the layers between them
        middle = forward(net, forward(net, x, stop=1)[0], start=1, stop=3)[0]
        assert middle.tobytes() == forward(net, x, stop=3)[0].tobytes()

    def test_start_input_width_checked(self):
        net = random_network([4, 3, 5, 2], RngStream(7, 0))
        with pytest.raises(ShapeError, match="input size 5 of layer 2"):
            forward(net, np.zeros((2, 3)), start=2)
        with pytest.raises(ShapeError, match="input size 4 of layer 0"):
            forward(net, np.zeros((2, 3)))

    @pytest.mark.parametrize("start", [-1, 3, 10])
    def test_start_out_of_range(self, start):
        net = random_network([4, 3, 5, 2], RngStream(7, 0))
        with pytest.raises(ShapeError, match=f"start layer {start} out of range for 3 layers"):
            forward(net, np.zeros((2, 4)), start=start)


class TestPlan:
    def test_built_from_specs_with_zeroed_views(self):
        net = Network([(2, 3, "relu", 0.2), (3, 1, "linear", 0.0)], 0)
        assert net.params.size == 13
        np.testing.assert_array_equal(net.params, 0.0)
        assert [(l.fan_in, l.fan_out, l.activation, l.dropout_rate)
                for l in net.layers] == [(2, 3, "relu", 0.2), (3, 1, "linear", 0.0)]
        assert (net.input_size, net.output_size, net.bottleneck_index) == (2, 1, 0)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ShapeError, match="layer 0"):
            Network([(0, 3, "relu", 0.0), (3, 1, "linear", 0.0)])

    def test_unknown_activation(self):
        with pytest.raises(DomainError, match="layer 1: unknown activation"):
            Network([(2, 3, "relu", 0.0), (3, 1, "tanh", 0.0)])

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
    def test_dropout_rate_in_unit_interval(self, rate):
        with pytest.raises(DomainError, match="layer 0: dropout rate"):
            Network([(2, 3, "relu", rate)])

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
    def test_dtype_is_float32_or_float64(self, dtype):
        with pytest.raises(DomainError, match="float32 or float64"):
            Network([(2, 3, "relu", 0.0)], dtype=dtype)


class TestParameterBuffer:
    def test_layers_are_views_in_layer_order(self):
        w0, b0 = np.arange(6.0).reshape(3, 2), np.array([6.0, 7.0, 8.0])
        w1, b1 = np.array([[9.0, 10.0, 11.0]]), np.array([12.0])
        net = hand_network([(w0, b0, "relu", 0.0), (w1, b1, "linear", 0.0)])
        np.testing.assert_array_equal(net.params, np.arange(13.0))
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.params)
            assert np.shares_memory(layer.bias, net.params)
        net.params[4] = -1.0
        assert net.layers[0].weights[2, 0] == -1.0

    def test_layer_views_split_any_vector(self):
        net = tiny_network()
        flat = np.arange(float(net.params.size))
        (w0, b0), (w1, b1) = net.layer_views(flat)
        np.testing.assert_array_equal(w0, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(b0, [4.0, 5.0])
        np.testing.assert_array_equal(w1, [[6.0, 7.0]])
        np.testing.assert_array_equal(b1, [8.0])


class TestMseLoss:
    def test_equal_inputs_zero_loss_zero_grad(self):
        pred = RngStream(3, 0).standard_normal((4, 3))
        loss, grad = mse_loss(pred, pred.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_all_ones_difference(self):
        pred = np.ones((2, 3))
        target = np.zeros((2, 3))
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(1.0)
        np.testing.assert_allclose(grad, np.full((2, 3), 2.0 / 6.0))

    def test_matches_scalar_loop_oracle(self):
        rng = RngStream(3, 1)
        pred = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 4))
        loss, grad = mse_loss(pred, target)
        acc = 0.0
        for i in range(5):
            for j in range(4):
                acc += (pred[i, j] - target[i, j]) ** 2
        assert abs(loss - acc / 20.0) < 1e-12
        for i in range(5):
            for j in range(4):
                expected = 2.0 / 20.0 * (pred[i, j] - target[i, j])
                assert abs(grad[i, j] - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestFloat32Pass:
    def test_every_array_stays_float32(self):
        # A float64 array anywhere in the pass would promote the rest.
        net = random_network([5, 4, 3], RngStream(36, 0), [0.2, 0.0], np.float32)
        x = RngStream(36, 1).standard_normal((6, 5))
        target = RngStream(36, 2).standard_normal((6, 3)).astype(np.float32)
        out, cache = forward(net, x, draw_dropout_masks(net, 6, RngStream(36, 3)))
        _, loss_grad = mse_loss(out, target)
        grads = backward(net, cache, loss_grad)
        arrays = [out, loss_grad, grads, *cache.pre_activations, *cache.outputs]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_loss_accumulated_in_float64(self):
        pred = RngStream(37, 0).standard_normal((50, 40)).astype(np.float32)
        target = np.zeros_like(pred)
        loss, _ = mse_loss(pred, target)
        squares = (pred * pred).astype(np.float64)
        assert loss == float(np.mean(squares))


class TestBackward:
    def test_hand_worked_gradient(self):
        # loss = (pred - y)^2 with pred = 2, y = 0 -> dL/dpred = 4
        net = tiny_network()
        x = np.array([[1.0, 2.0]])
        y = np.array([[0.0]])
        out, cache = forward(net, x)
        _, loss_grad = mse_loss(out, y)
        grads = net.layer_views(backward(net, cache, loss_grad))
        # layer 2: dW = dz @ a1 = 4 * [0, 3]; db = 4
        np.testing.assert_allclose(grads[1][0], [[0.0, 12.0]])
        np.testing.assert_allclose(grads[1][1], [4.0])
        # layer 1: grad into a1 = 4 * [1, 1]; unit 0 dead (z=-1), unit 1 live
        np.testing.assert_allclose(grads[0][0], [[0.0, 0.0], [4.0, 8.0]])
        np.testing.assert_allclose(grads[0][1], [0.0, 4.0])

    def test_zero_loss_grad_gives_zero_gradients(self):
        net = random_network([4, 3, 2], RngStream(4, 0))
        x = RngStream(4, 1).standard_normal((5, 4))
        _, cache = forward(net, x)
        grads = backward(net, cache, np.zeros((5, 2)))
        for gw, gb in net.layer_views(grads):
            np.testing.assert_array_equal(gw, 0.0)
            np.testing.assert_array_equal(gb, 0.0)

    def test_single_linear_layer_closed_form(self):
        # For one linear layer the MSE gradient is (2/(n q)) (pred-y)^T x.
        w = np.array([[0.5, -1.0], [2.0, 0.3]])
        net = hand_network([(w, np.zeros(2), "linear", 0.0)])
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, cache = forward(net, x)
        _, loss_grad = mse_loss(out, y)
        grads = net.layer_views(backward(net, cache, loss_grad))
        diff = out - y
        np.testing.assert_allclose(grads[0][0], (2.0 / 4.0) * diff.T @ x, atol=1e-12)
        np.testing.assert_allclose(grads[0][1], (2.0 / 4.0) * diff.sum(axis=0), atol=1e-12)

    def test_writes_into_given_buffer(self):
        net = random_network([4, 3, 2], RngStream(5, 0))
        x = RngStream(5, 1).standard_normal((5, 4))
        out, cache = forward(net, x)
        loss_grad = mse_loss(out, RngStream(5, 2).standard_normal((5, 2)))[1]
        buf = np.full(net.params.size, np.nan)
        assert backward(net, cache, loss_grad, out=buf) is buf
        assert buf.tobytes() == backward(net, cache, loss_grad).tobytes()
        with pytest.raises(ShapeError):
            backward(net, cache, loss_grad, out=np.empty(net.params.size + 1))
        with pytest.raises(ShapeError, match="dtype float32"):
            backward(net, cache, loss_grad, out=np.empty(net.params.size, np.float32))

    def test_switching_buffers_writes_the_new_one(self):
        # backward keeps the layer views of the buffer it last wrote; a
        # different buffer must get views of its own.
        net = random_network([4, 3, 2], RngStream(6, 0))
        x = RngStream(6, 1).standard_normal((5, 4))
        out, cache = forward(net, x)
        loss_grad = mse_loss(out, RngStream(6, 2).standard_normal((5, 2)))[1]
        expected = backward(net, cache, loss_grad).tobytes()
        first, second = np.zeros(net.params.size), np.zeros(net.params.size)
        backward(net, cache, loss_grad, out=first)
        backward(net, cache, 0.0 * loss_grad, out=second)
        backward(net, cache, loss_grad, out=second)
        assert first.tobytes() == expected
        assert second.tobytes() == expected

    def test_cache_network_mismatch(self):
        net = tiny_network()
        _, cache = forward(net, np.array([[1.0, 2.0]]))
        with pytest.raises(CacheError):
            backward(Network([(2, 2, "relu", 0.0)]), cache, np.zeros((1, 2)))

    def test_cache_loss_grad_mismatch(self):
        net = tiny_network()
        _, cache = forward(net, np.array([[1.0, 2.0]]))
        with pytest.raises(CacheError):
            backward(net, cache, np.zeros((2, 1)))


class TestGradientCheck:
    def test_single_linear_layer_tight(self):
        net = hand_network([([[0.7, -0.2]], [0.1], "linear", 0.0)])
        x = RngStream(20, 0).standard_normal((6, 2))
        y = RngStream(20, 1).standard_normal((6, 1))
        assert gradient_check(net, x, y) < 1e-7

    def test_relu_net_away_from_kinks(self):
        rng = RngStream(21, 0)
        net = random_network([4, 3, 2], rng)
        x = draw_input_away_from_kinks(net, 5, None, base_seed=100)
        y = RngStream(101, 0).standard_normal((5, 2))
        assert gradient_check(net, x, y) < 1e-4

    def test_with_frozen_dropout_masks(self):
        rng = RngStream(22, 0)
        net = random_network([5, 4, 3, 2], rng, dropout=[0.3, 0.2, 0.0])
        masks = draw_dropout_masks(net, 6, RngStream(22, 1))
        x = draw_input_away_from_kinks(net, 6, masks, base_seed=102)
        y = RngStream(103, 0).standard_normal((6, 2))
        assert gradient_check(net, x, y, masks=masks) < 1e-4

    def test_deep_narrow_chain(self):
        # Same shape family as the embedding models: a 1-unit waist.
        rng = RngStream(23, 0)
        net = random_network([6, 3, 1, 2, 4], rng)
        x = draw_input_away_from_kinks(net, 4, None, base_seed=104)
        y = RngStream(105, 0).standard_normal((4, 4))
        assert gradient_check(net, x, y) < 1e-4

    def test_detects_corrupted_gradient(self):
        rng = RngStream(24, 0)
        net = random_network([3, 2, 2], rng)
        x = draw_input_away_from_kinks(net, 4, None, base_seed=106)
        y = RngStream(107, 0).standard_normal((4, 2))
        out, cache = forward(net, x)
        _, loss_grad = mse_loss(out, y)
        grads = backward(net, cache, loss_grad)
        net.layer_views(grads)[0][0][0, 0] += 0.1
        numeric = numerical_gradients(net, x, y)
        assert max_relative_error(grads, numeric) > 1e-2

    def test_oracle_needs_float64(self):
        net = hand_network([([[1.5]], [0.0], "linear", 0.0)], dtype=np.float32)
        with pytest.raises(DomainError, match="float64"):
            numerical_gradients(net, np.array([[2.0]]), np.array([[1.0]]))

    def test_numeric_matches_slope_of_loss(self):
        # Independent check of the checker itself on a 1-parameter net.
        net = hand_network([([[1.5]], [0.0], "linear", 0.0)])
        x = np.array([[2.0]])
        y = np.array([[1.0]])
        numeric = numerical_gradients(net, x, y)
        # loss(w) = (2w - 1)^2, slope at w=1.5 is 2*2*(2*1.5-1) = 8
        assert net.layer_views(numeric)[0][0][0, 0] == pytest.approx(8.0, rel=1e-6)


class TestDropout:
    def test_masks_only_on_positive_rate_layers(self):
        net = random_network([4, 3, 3, 2], RngStream(30, 0), dropout=[0.5, 0.0, 0.0])
        masks = draw_dropout_masks(net, 10, RngStream(30, 1))
        assert masks[0] is not None
        assert masks[1] is None and masks[2] is None

    def test_mask_values_are_zero_or_scaled(self):
        net = random_network([4, 3, 2], RngStream(31, 0), dropout=[0.25, 0.0])
        masks = draw_dropout_masks(net, 50, RngStream(31, 1))
        values = set(np.round(masks[0], 12).ravel().tolist())
        assert values <= {0.0, round(1.0 / 0.75, 12)}

    def test_scale_multiplies_every_rate(self):
        net = random_network([4, 3, 3, 2], RngStream(34, 0), dropout=[0.4, 0.2, 0.0])
        half = draw_dropout_masks(net, 50, RngStream(34, 1), scale=0.5)
        assert set(np.round(half[0], 12).ravel().tolist()) <= {0.0, round(1 / 0.8, 12)}
        assert set(np.round(half[1], 12).ravel().tolist()) <= {0.0, round(1 / 0.9, 12)}
        assert half[2] is None
        assert draw_dropout_masks(net, 50, RngStream(34, 1), scale=0.0) == [None] * 3

    def test_masked_average_approaches_eval_output(self):
        # Inverted dropout keeps the expectation: averaging many masked
        # forward passes approaches the eval pass, within 3 standard
        # errors per output entry.
        net = hand_network(
            [
                ([[0.9, -0.4], [0.2, 1.1], [-0.6, 0.5]], [0.3, -0.1, 0.2], "relu", 0.3),
                ([[1.0, -2.0, 0.5]], [0.1], "linear", 0.0),
            ]
        )
        x = np.array([[1.2, -0.7]])
        rng = RngStream(32, 0)
        draws = 2500
        outs = np.empty(draws)
        for i in range(draws):
            out, _ = forward(net, x, draw_dropout_masks(net, 1, rng))
            outs[i] = out[0, 0]
        eval_out = forward(net, x)[0][0, 0]
        se = outs.std(ddof=1) / np.sqrt(draws)
        assert abs(outs.mean() - eval_out) < 3.0 * se

    def test_masks_follow_network_dtype(self):
        # The same draws in either dtype: float32 masks are the float64
        # ones rounded once.
        sizes, rates = [4, 3, 3, 2], [0.3, 0.0, 0.0]
        wide = random_network(sizes, RngStream(35, 0), dropout=rates)
        narrow = random_network(sizes, RngStream(35, 0), dropout=rates, dtype=np.float32)
        m64 = draw_dropout_masks(wide, 20, RngStream(35, 1), scale=0.5)
        m32 = draw_dropout_masks(narrow, 20, RngStream(35, 1), scale=0.5)
        assert m32[0].dtype == np.float32
        assert m32[0].tobytes() == m64[0].astype(np.float32).tobytes()
        assert m32[1:] == [None, None]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_draw_equals_per_layer_draws(self, dtype):
        # The masks come from one draw split in layer order; they must be
        # the masks of one uniform(0, 1) call per positive-rate layer,
        # and leave the stream where those calls would.
        sizes, rates = [5, 4, 3, 6, 2], [0.4, 0.0, 0.25, 0.0]
        net = random_network(sizes, RngStream(37, 0), dropout=rates, dtype=dtype)
        rng, ref_rng = RngStream(37, 1), RngStream(37, 1)
        for n, scale in ((7, 0.3), (1, 0.9), (4, 1.0)):
            masks = draw_dropout_masks(net, n, rng, scale)
            for layer, mask in zip(net.layers, masks):
                rate = layer.dropout_rate * scale
                if rate == 0.0:
                    assert mask is None
                    continue
                u = ref_rng.uniform(0.0, 1.0, (n, layer.fan_out))
                expected = (u >= rate) * net.dtype.type(1.0 / (1.0 - rate))
                assert mask.dtype == net.dtype
                assert mask.tobytes() == expected.tobytes()
        assert rng.uniform(0.0, 1.0, 3).tobytes() == ref_rng.uniform(0.0, 1.0, 3).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, batch_size",
        [(600, 32), (50, 64), (9, 1), (64, 32)],
        ids=["short last batch", "batch above n", "batches of 1", "whole batches"],
    )
    def test_epoch_draw_equals_per_batch_draws(self, n, batch_size, dtype):
        # One call for an epoch: each layer's mask is the per-batch masks
        # concatenated, and the stream ends where the per-batch calls
        # leave it.
        sizes, rates = [5, 8, 3, 6, 2], [0.2, 0.0, 0.25, 0.1]
        net = random_network(sizes, RngStream(39, 0), dropout=rates, dtype=dtype)
        rng, ref_rng = RngStream(39, 1), RngStream(39, 1)
        masks = draw_dropout_masks(net, n, rng, 0.7, batch_size=batch_size)
        batches = [
            draw_dropout_masks(net, len(range(start, min(start + batch_size, n))), ref_rng, 0.7)
            for start in range(0, n, batch_size)
        ]
        for k, mask in enumerate(masks):
            if rates[k] == 0.0:
                assert mask is None
                continue
            expected = np.concatenate([batch[k] for batch in batches])
            assert mask.dtype == net.dtype
            assert mask.shape == (n, sizes[k + 1])
            assert mask.tobytes() == expected.tobytes()
        assert rng.uniform(0.0, 1.0, 3).tobytes() == ref_rng.uniform(0.0, 1.0, 3).tobytes()

    def test_batch_size_must_be_positive(self):
        net = random_network([4, 3, 2], RngStream(40, 0), dropout=[0.5, 0.0])
        with pytest.raises(DomainError, match="batch_size"):
            draw_dropout_masks(net, 5, RngStream(40, 1), batch_size=0)

    def test_no_dropout_consumes_no_draws(self):
        net = random_network([4, 3, 2], RngStream(38, 0))
        rng = RngStream(38, 1)
        assert draw_dropout_masks(net, 5, rng) == [None, None]
        assert rng.uniform(0.0, 1.0, 2).tobytes() == RngStream(38, 1).uniform(0.0, 1.0, 2).tobytes()

    def test_eval_pass_deterministic(self):
        net = random_network([4, 3, 2], RngStream(33, 0), dropout=[0.9, 0.0])
        x = RngStream(33, 1).standard_normal((5, 4))
        np.testing.assert_array_equal(forward(net, x)[0], forward(net, x)[0])


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 32
        assert cfg.epochs == 200

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DomainError):
            TrainConfig(batch_size=0)
        with pytest.raises(DomainError):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("rate", [float("inf"), 1e308, float("nan"), 1e-50])
    def test_rejects_learning_rate_outside_float32(self, rate):
        # Training runs in float32, where 1e308 rounds to inf and 1e-50 to 0.
        with pytest.raises(DomainError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_accepts_float32_extremes(self):
        TrainConfig(learning_rate=float(np.finfo(np.float32).max))
        TrainConfig(learning_rate=1e-45)


class TestAdam:
    def scalar_reference(self, grads, lr, b1, b2, eps, w0):
        w, m, v = w0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        return w

    def test_zero_gradient_leaves_parameters(self):
        net = hand_network([([[2.0]], [0.5], "linear", 0.0)])
        state = AdamState.for_network(net)
        adam_step(net, np.zeros(2), state, TrainConfig())
        assert net.layers[0].weights[0, 0] == 2.0
        assert net.layers[0].bias[0] == 0.5
        assert state.t == 1

    def test_learning_rate_change_takes_effect(self):
        # The state converts its constants once per learning rate, so a
        # second rate on the same state must not reuse the first.
        net = hand_network([([[1.0]], [0.0], "linear", 0.0)])
        state = AdamState.for_network(net)
        for lr in (0.1, 0.01):
            adam_step(net, np.array([0.5, 0.0]), state, TrainConfig(learning_rate=lr))
        # A constant gradient makes every bias-corrected step exactly lr
        # in size, up to eps.
        assert net.layers[0].weights[0, 0] == pytest.approx(1.0 - 0.1 - 0.01, rel=1e-7)

    def test_first_step_magnitude_is_learning_rate(self):
        net = hand_network([([[1.0]], [0.0], "linear", 0.0)])
        state = AdamState.for_network(net)
        cfg = TrainConfig(learning_rate=0.01)
        adam_step(net, np.array([0.37, 0.0]), state, cfg)
        step = 1.0 - net.layers[0].weights[0, 0]
        assert step == pytest.approx(0.01, rel=1e-6)

    def test_matches_scalar_reference(self):
        net = hand_network([([[1.0]], [0.5], "linear", 0.0)])
        config = TrainConfig(learning_rate=0.05)
        state = AdamState.for_network(net)
        grad_seq = [0.4, -0.2, 0.7, 0.1, -0.5]
        for g in grad_seq:
            adam_step(net, np.array([g, 2.0 * g]), state, config)
        expect_w = self.scalar_reference(grad_seq, 0.05, 0.9, 0.999, 1e-8, 1.0)
        expect_b = self.scalar_reference(
            [2.0 * g for g in grad_seq], 0.05, 0.9, 0.999, 1e-8, 0.5
        )
        assert net.layers[0].weights[0, 0] == pytest.approx(expect_w, abs=1e-12)
        assert net.layers[0].bias[0] == pytest.approx(expect_b, abs=1e-12)
        assert state.t == 5

    def test_three_steps_on_quadratic_matches_trace(self):
        # f(w) = w^2 from w = 1, gradient 2w, lr 0.1.
        net = hand_network([([[1.0]], [0.0], "linear", 0.0)])
        cfg = TrainConfig(learning_rate=0.1)
        state = AdamState.for_network(net)
        w_ref, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            g = 2.0 * net.layers[0].weights[0, 0]
            adam_step(net, np.array([g, 0.0]), state, cfg)
            g_ref = 2.0 * w_ref
            m = 0.9 * m + 0.1 * g_ref
            v = 0.999 * v + 0.001 * g_ref * g_ref
            w_ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert net.layers[0].weights[0, 0] == pytest.approx(w_ref, abs=1e-12)

    def test_single_step_decreases_quadratic_bowl(self):
        # One step on f(w) = w^2 must strictly decrease f for lr <= 0.1.
        # Adam's bias-corrected first step has magnitude ~lr regardless of
        # the gradient's size, so the start must satisfy |w0| > lr/2 or the
        # step overshoots past -w0.
        for lr in (0.1, 0.05, 0.01, 1e-3):
            for w0 in (1.0, -0.4, 0.25):
                net = hand_network([([[w0]], [0.0], "linear", 0.0)])
                state = AdamState.for_network(net)
                g = 2.0 * w0
                adam_step(
                    net, np.array([g, 0.0]), state, TrainConfig(learning_rate=lr)
                )
                w1 = net.layers[0].weights[0, 0]
                assert w1**2 < w0**2

    def check_against_per_layer_reference(self, net, x, y, steps):
        # The per-layer update the flat one replaced, kept as the oracle:
        # every parameter must come out bit for bit the same.
        def per_layer_step(params, grads, moments, t, cfg):
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            for p, g, (m, v) in zip(params, grads, moments):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)

        ref = [a.copy() for l in net.layers for a in (l.weights, l.bias)]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref]
        config = TrainConfig(learning_rate=0.05)
        state = AdamState.for_network(net)
        for t in range(1, steps + 1):
            out, cache = forward(net, x)
            grads = backward(net, cache, mse_loss(out, y)[1])
            ref_grads = [a.copy() for pair in net.layer_views(grads) for a in pair]
            adam_step(net, grads, state, config)
            per_layer_step(ref, ref_grads, moments, t, config)
            got = [a for l in net.layers for a in (l.weights, l.bias)]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
        assert state.t == steps

    def test_flat_step_matches_per_layer_reference(self):
        rng = RngStream(41, 0)
        net = random_network([5, 4, 3, 2], rng)
        assert [l.activation for l in net.layers] == ["relu", "relu", "linear"]
        assert all(np.all(l.bias != 0.0) for l in net.layers)
        x = rng.standard_normal((8, 5))
        y = rng.standard_normal((8, 2))
        self.check_against_per_layer_reference(net, x, y, steps=6)

    def check_blocked_step(self, dtype):
        # Over two full blocks and a partial third one, with block
        # boundaries falling inside the first layer's weights.
        rng = RngStream(42, 0)
        net = random_network([600, 220, 3], rng, dtype=dtype)
        assert net.params.size > 2 * ADAM_BLOCK
        assert net.params.size % ADAM_BLOCK != 0
        state = AdamState.for_network(net)
        assert state.scratch.size == ADAM_BLOCK
        assert state.m.dtype == state.v.dtype == state.scratch.dtype == dtype
        x = rng.standard_normal((6, 600)).astype(dtype)
        y = rng.standard_normal((6, 3)).astype(dtype)
        self.check_against_per_layer_reference(net, x, y, steps=3)

    def test_blocked_step_matches_per_layer_reference(self):
        self.check_blocked_step(np.float64)

    def test_float32_blocked_step_matches_per_layer_reference(self):
        self.check_blocked_step(np.float32)

    def test_gradient_layout_checked(self):
        net = tiny_network()
        with pytest.raises(ShapeError):
            adam_step(net, np.zeros(3), AdamState.for_network(net), TrainConfig())

    def test_dtype_mismatch_checked(self):
        net = hand_network([([[1.0]], [0.0], "linear", 0.0)], dtype=np.float32)
        with pytest.raises(ShapeError, match="dtype float64"):
            adam_step(net, np.zeros(2), AdamState.for_network(net), TrainConfig())
        with pytest.raises(ShapeError, match="moments"):
            state = AdamState(m=np.zeros(2), v=np.zeros(2))
            adam_step(net, np.zeros(2, np.float32), state, TrainConfig())

    def test_moment_layout_checked(self):
        # A state built for a larger network must not be sliced silently.
        net = tiny_network()
        size = net.params.size
        for m, v in (
            (np.zeros(size + 1), np.zeros(size)),
            (np.zeros(size), np.zeros(size + 1)),
        ):
            with pytest.raises(ShapeError, match="moments"):
                adam_step(net, np.zeros(size), AdamState(m=m, v=v), TrainConfig())

    def test_full_loop_reduces_loss(self):
        rng = RngStream(40, 0)
        net = random_network([6, 4, 3], rng)
        x = rng.standard_normal((64, 6))
        y = x[:, :3] * 0.5
        config = TrainConfig(learning_rate=5e-3)
        state = AdamState.for_network(net)
        start, _ = mse_loss(forward(net, x)[0], y)
        for _ in range(300):
            out, cache = forward(net, x)
            loss, loss_grad = mse_loss(out, y)
            grads = backward(net, cache, loss_grad)
            adam_step(net, grads, state, config)
        final, _ = mse_loss(forward(net, x)[0], y)
        assert final < 0.2 * start
