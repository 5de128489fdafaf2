"""Tests for the network engine: forward oracle, backprop vs finite
differences, Adam against a scalar reference, dropout statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aime.aime_model import (
    PARAM_DTYPE,
    build_architecture,
    build_network,
    fit,
    load_model,
    save_model,
)
from aime import neural_net
from aime.errors import CacheError, DomainError, ShapeError
from aime.matrix_core import rng_stream
from aime.neural_net import (
    ADAM_BETA1,
    ADAM_BETA2,
    BLOCK,
    ADAM_EPSILON,
    AdamState,
    ForwardCache,
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
    whole_gradient,
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


def plain_forward(network, x, masks=None, start=0, stop=None):
    """forward written the plain way, the oracle for its products and
    gate: ``a @ W.T + b`` per layer, relu as ``np.maximum``, then the
    mask. Returns the output and a cache of the layers that ran."""
    masks = masks or [None] * len(network.layers)
    a = x = np.asarray(x, dtype=network.dtype)
    pre, outs = [], []
    for layer, mask in zip(network.layers[start:stop], masks[start:stop]):
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if mask is not None:
            a = a * mask
        pre.append(z)
        outs.append(a)
    return a, ForwardCache(network, x, pre, outs, list(masks))


def plain_backward(network, cache, loss_grad):
    """The gradient of every parameter by the plain per-layer loop of
    test_aime_model's reference_fit: an explicit float relu gradient,
    one product and one sum per layer, and one concatenation."""
    grad_a, grads = loss_grad, []
    for k in range(len(network.layers) - 1, -1, -1):
        layer, z, mask = network.layers[k], cache.pre_activations[k], cache.masks[k]
        if mask is not None:
            grad_a = grad_a * mask
        if layer.activation == "relu":
            grad_z = grad_a * (z > 0.0).astype(z.dtype)
        else:
            grad_z = grad_a * np.ones_like(z)
        below = cache.x if k == 0 else cache.outputs[k - 1]
        grads[:0] = [(grad_z.T @ below).ravel(), grad_z.sum(axis=0)]
        grad_a = grad_z @ layer.weights
    return np.concatenate(grads)


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
        x = rng_stream(base_seed, 0, attempt).standard_normal((n, network.input_size))
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
        x = rng_stream(1, 0, 0).standard_normal((4, 3))
        np.testing.assert_array_equal(forward(net, x)[0], x)

    def test_train_equals_eval_when_no_dropout(self):
        net = tiny_network()
        x = np.array([[1.0, 2.0], [0.3, -0.7]])
        masks = draw_dropout_masks(net, 2, rng_stream(1, 0, 1))
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
        net = random_network([4, 3, 3, 2], rng_stream(5, 0, 0))
        x = rng_stream(5, 0, 1).standard_normal((6, 4))
        out, cache = forward(net, x, stop=2)
        assert len(cache.outputs) == 2
        assert out.tobytes() == forward(net, x)[1].outputs[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_start_resumes_a_stopped_pass(self, k, dtype):
        net = random_network([4, 3, 5, 3, 2], rng_stream(6, 0, 0), dropout=[0.3, 0.2, 0.0, 0.0],
                             dtype=dtype)
        x = rng_stream(6, 0, 1).standard_normal((7, 4))
        masks = draw_dropout_masks(net, 7, rng_stream(6, 0, 2))
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
        net = random_network([4, 3, 5, 2], rng_stream(7, 0, 0))
        with pytest.raises(ShapeError, match="input size 5 of layer 2"):
            forward(net, np.zeros((2, 3)), start=2)
        with pytest.raises(ShapeError, match="input size 4 of layer 0"):
            forward(net, np.zeros((2, 3)))

    @pytest.mark.parametrize("start", [-1, 3, 10])
    def test_start_out_of_range(self, start):
        net = random_network([4, 3, 5, 2], rng_stream(7, 0, 0))
        with pytest.raises(ShapeError, match=f"start layer {start} out of range for 3 layers"):
            forward(net, np.zeros((2, 4)), start=start)


    @pytest.mark.parametrize(
        "start, stop", [(0, 0), (0, -1), (0, 4), (0, 99), (2, 2), (2, 1)]
    )
    def test_stop_out_of_range(self, start, stop):
        net = random_network([4, 3, 5, 2], rng_stream(7, 0, 0))
        x = np.zeros((2, net.layers[start].fan_in))
        with pytest.raises(ShapeError, match=f"stop layer {stop} out of range"):
            forward(net, x, stop=stop, start=start)


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
        pred = rng_stream(3, 0, 0).standard_normal((4, 3))
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
        rng = rng_stream(3, 0, 1)
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
        net = random_network([5, 4, 3], rng_stream(36, 0, 0), [0.2, 0.0], np.float32)
        x = rng_stream(36, 0, 1).standard_normal((6, 5))
        target = rng_stream(36, 0, 2).standard_normal((6, 3)).astype(np.float32)
        out, cache = forward(net, x, draw_dropout_masks(net, 6, rng_stream(36, 0, 3)))
        _, loss_grad = mse_loss(out, target)
        handed = []
        backward(cache, loss_grad, AdamState(net, 1e-3), lambda span, grad: handed.append(grad))
        arrays = [out, loss_grad, *handed, *cache.pre_activations, *cache.outputs]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_loss_accumulated_in_float64(self):
        pred = rng_stream(37, 0, 0).standard_normal((50, 40)).astype(np.float32)
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
        grads = net.layer_views(whole_gradient(cache, loss_grad))
        # layer 2: dW = dz @ a1 = 4 * [0, 3]; db = 4
        np.testing.assert_allclose(grads[1][0], [[0.0, 12.0]])
        np.testing.assert_allclose(grads[1][1], [4.0])
        # layer 1: grad into a1 = 4 * [1, 1]; unit 0 dead (z=-1), unit 1 live
        np.testing.assert_allclose(grads[0][0], [[0.0, 0.0], [4.0, 8.0]])
        np.testing.assert_allclose(grads[0][1], [0.0, 4.0])

    def test_zero_loss_grad_gives_zero_gradients(self):
        net = random_network([4, 3, 2], rng_stream(4, 0, 0))
        x = rng_stream(4, 0, 1).standard_normal((5, 4))
        _, cache = forward(net, x)
        grads = whole_gradient(cache, np.zeros((5, 2)))
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
        grads = net.layer_views(whole_gradient(cache, loss_grad))
        diff = out - y
        np.testing.assert_allclose(grads[0][0], (2.0 / 4.0) * diff.T @ x, atol=1e-12)
        np.testing.assert_allclose(grads[0][1], (2.0 / 4.0) * diff.sum(axis=0), atol=1e-12)

    def test_groups_give_the_whole_vector_gradient(self):
        # The p = q = 600 network: layers 7 and 0 (72,000 weights each)
        # are handed over in two row blocks each, the last rows with the
        # bias first, and layers 6-1 in one handover between them. Each
        # handover's gradient is that span of the plain per-layer
        # gradient, to the bit.
        net = build_network(build_architecture(600, 600, 4), 7, PARAM_DTYPE)
        x = rng_stream(7, 0, 1).standard_normal((5, 600))
        out, cache = forward(net, x, draw_dropout_masks(net, 5, rng_stream(7, 0, 2)))
        target = rng_stream(7, 0, 3).standard_normal((5, 600)).astype(PARAM_DTYPE)
        loss_grad = mse_loss(out, target)[1]
        plain = plain_backward(net, cache, loss_grad)
        seen = []

        def keep(span, grad):
            seen.append((span, grad.copy()))

        state = AdamState(net, 1e-3)
        backward(cache, loss_grad, state, keep)
        size = net.params.size
        assert [(span.start, span.stop) for span, _ in seen] == [
            (size - 7_080, size), (size - 72_600, size - 7_080),
            (72_120, size - 72_600), (65_400, 72_120), (0, 65_400),
        ]
        # All five gradients are the head of one 65,520-element buffer:
        # layer 7's 546-row block.
        grads = [grad for _, _, grad, _, _ in state.handovers]
        assert {grad.base.size for grad in grads} == {65_520}
        assert np.shares_memory(grads[0], grads[-1])
        for span, grad in seen:
            assert grad.tobytes() == plain[span].tobytes()
        assert whole_gradient(cache, loss_grad).tobytes() == plain.tobytes()

    def test_small_layers_past_block_split(self):
        # Layers 3-1 (15,100, 22,650 and 22,650 parameters) share one
        # handover; layer 0 (15,150) would take it past BLOCK, so it
        # starts another.
        net = random_network([100, 150, 150, 150, 100], rng_stream(47, 0, 0),
                             dtype=PARAM_DTYPE)
        state = AdamState(net, 1e-3)
        assert [[idx for idx, *_ in layers] for layers, *_ in state.handovers] == [
            [3, 2, 1], [0]
        ]
        assert [rows for *_, rows, _ in state.handovers] == [None, None]
        x = rng_stream(47, 0, 1).standard_normal((6, 100))
        out, cache = forward(net, x)
        loss_grad = mse_loss(out, np.zeros_like(out))[1]
        assert whole_gradient(cache, loss_grad).tobytes() == (
            plain_backward(net, cache, loss_grad).tobytes()
        )

    def test_cache_network_mismatch(self):
        net = tiny_network()
        _, cache = forward(net, np.array([[1.0, 2.0]]))
        other = Network([(2, 2, "relu", 0.0)])
        before = other.params.tobytes()
        handed = []
        with pytest.raises(CacheError, match="another network"):
            backward(cache, np.zeros((1, 1)), AdamState(other, 1e-3),
                     lambda span, grad: handed.append(span))
        assert handed == []
        assert other.params.tobytes() == before

    def test_cache_checked_before_any_group_is_handed_over(self):
        # Every layer but the first matches: the input width does not.
        other = random_network([601, 120, 4, 3], rng_stream(8, 0, 0))
        _, cache = forward(other, rng_stream(8, 0, 1).standard_normal((5, 601)))
        net = random_network([600, 120, 4, 3], rng_stream(8, 0, 2))
        before = net.params.tobytes()
        handed = []
        state = AdamState(net, 1e-3)
        with pytest.raises(CacheError, match="another network"):
            backward(cache, np.zeros((5, 3)), state, lambda span, grad: handed.append(span))
        assert handed == []
        assert net.params.tobytes() == before

    @pytest.mark.parametrize(
        "state_sizes, state_dtype",
        [([4, 2, 3], np.float64), ([4, 3, 2], np.float32)],
        ids=["other layout", "other dtype"],
    )
    def test_state_checked_before_any_group_is_handed_over(self, state_sizes, state_dtype):
        net = random_network([4, 3, 2], rng_stream(9, 0, 0))
        other = random_network(state_sizes, rng_stream(9, 0, 1), dtype=state_dtype)
        _, cache = forward(net, rng_stream(9, 0, 2).standard_normal((5, 4)))
        before = other.params.tobytes()
        handed = []
        with pytest.raises(CacheError, match="another network"):
            backward(cache, np.zeros((5, 2)), AdamState(other, 1e-3),
                     lambda span, grad: handed.append(span))
        assert handed == []
        assert other.params.tobytes() == before

    def test_twin_network_state_rejected(self):
        # A twin (same plan, same draws, another object) matches the
        # network in every shape and dtype, yet a state belongs to the one
        # network it was made for.
        net, twin = (random_network([4, 3, 2], rng_stream(9, 0, 0)) for _ in range(2))
        assert net.params.tobytes() == twin.params.tobytes()
        _, cache = forward(net, rng_stream(9, 0, 2).standard_normal((5, 4)))
        handed = []
        with pytest.raises(CacheError, match="another network"):
            backward(cache, np.zeros((5, 2)), AdamState(twin, 1e-3),
                     lambda span, grad: handed.append(span))
        assert handed == []

    @pytest.mark.parametrize("pass_range", [{"stop": 1}, {"start": 1}], ids=["stop", "start"])
    def test_partial_pass_rejected(self, pass_range):
        net = random_network([4, 3, 2], rng_stream(10, 0, 0))
        width = net.layers[pass_range.get("start", 0)].fan_in
        out, cache = forward(net, rng_stream(10, 0, 1).standard_normal((5, width)), **pass_range)
        handed = []
        with pytest.raises(CacheError, match="cache holds 1 layers, network has 2"):
            backward(cache, np.zeros_like(out), AdamState(net, 1e-3),
                     lambda span, grad: handed.append(span))
        assert handed == []

    def test_cache_loss_grad_mismatch(self):
        net = tiny_network()
        _, cache = forward(net, np.array([[1.0, 2.0]]))
        with pytest.raises(CacheError):
            whole_gradient(cache, np.zeros((2, 1)))


class TestPlainOracle:
    """forward and the gradient of backward equal the plain ``@`` and
    ``z > 0`` loops to the bit, on the shapes where a BLAS call or the
    relu gate could take another path: one row, 1-unit layers, a waist
    narrower than d, float64, dropped units, partial passes and a
    paper-width layer."""

    @staticmethod
    def assert_pass_bitwise(net, x, masks, start=0, stop=None):
        out, cache = forward(net, x, masks, stop=stop, start=start)
        plain_out, plain = plain_forward(net, x, masks, start=start, stop=stop)
        assert out.dtype == plain_out.dtype == net.dtype
        assert out.tobytes() == plain_out.tobytes()
        assert len(cache.outputs) == len(plain.outputs)
        for got, want in zip(cache.pre_activations + cache.outputs,
                             plain.pre_activations + plain.outputs):
            assert got.tobytes() == want.tobytes()
        return cache, plain

    def assert_step_bitwise(self, net, x, masks, seed):
        cache, plain = self.assert_pass_bitwise(net, x, masks)
        target = rng_stream(seed, 0, 3).standard_normal(cache.outputs[-1].shape)
        loss_grad = mse_loss(cache.outputs[-1], target.astype(net.dtype))[1]
        gradient = whole_gradient(cache, loss_grad)
        assert gradient.tobytes() == plain_backward(net, plain, loss_grad).tobytes()

    @pytest.mark.parametrize(
        "p, q, d, n, dtype, masked",
        [
            (40, 40, 4, 1, PARAM_DTYPE, True),
            (40, 40, 1, 24, PARAM_DTYPE, True),
            (12, 15, 4, 24, PARAM_DTYPE, True),
            (40, 40, 4, 32, np.float64, True),
            (40, 40, 4, 32, PARAM_DTYPE, False),
        ],
        ids=["1-row batch", "d=1, 1-unit waist", "12 features, 3-unit waist",
             "float64", "no masks"],
    )
    def test_step_bitwise(self, p, q, d, n, dtype, masked):
        net = build_network(build_architecture(p, q, d), 9, dtype)
        x = rng_stream(9, 0, 1).standard_normal((n, p))
        masks = draw_dropout_masks(net, n, rng_stream(9, 0, 2)) if masked else None
        if masked:
            assert any((mask == 0).any() for mask in masks if mask is not None)
        self.assert_step_bitwise(net, x, masks, 9)

    @pytest.mark.parametrize("start, stop", [(0, 3), (3, None), (1, 6), (7, None), (2, 3)])
    def test_partial_pass_bitwise(self, start, stop):
        net = build_network(build_architecture(40, 40, 4), 10, PARAM_DTYPE)
        x = rng_stream(10, 0, 1).standard_normal((32, 40))
        masks = draw_dropout_masks(net, 32, rng_stream(10, 0, 2))
        below = plain_forward(net, x, masks, stop=start)[0] if start else x
        self.assert_pass_bitwise(net, below, masks, start=start, stop=stop)

    def test_loaded_model_bitwise(self, tmp_path):
        # load_model reads the parameters into the views the network's
        # forward plan was made from.
        x = rng_stream(12, 0, 1).standard_normal((32, 12))
        y = rng_stream(12, 0, 2).standard_normal((32, 9))
        save_model(fit(x, y, 2, TrainConfig(epochs=2, seed=3)), tmp_path / "m.bin")
        net = load_model(tmp_path / "m.bin").network
        assert net.params.any()
        masks = draw_dropout_masks(net, 32, rng_stream(12, 0, 3))
        for pass_masks in (None, masks):
            self.assert_pass_bitwise(net, x, pass_masks)

    def test_paper_width_layer_bitwise(self):
        # A 16-row batch through the first encoder layer's shape at paper
        # width, 5459 -> 1092, behind a 3-unit layer so that backward
        # also forms the 16 x 5459 gradient into its input.
        net = Network(
            [(3, 5459, "relu", 0.0), (5459, 1092, "relu", 0.2), (1092, 2, "linear", 0.0)],
            dtype=PARAM_DTYPE,
        )
        net.params[:] = rng_stream(11, 0, 0).standard_normal(net.params.size, PARAM_DTYPE)
        net.params *= PARAM_DTYPE.type(0.02)
        x = rng_stream(11, 0, 1).standard_normal((16, 3))
        masks = draw_dropout_masks(net, 16, rng_stream(11, 0, 2))
        self.assert_step_bitwise(net, x, masks, 11)


def blocked_layers(net):
    """{index: handovers} of each layer that ``AdamState`` hands over in
    row blocks, each handover ``(span, grad, rows, slot_t)``: the rule
    backward uses, with its rows and output views."""
    blocks = {}
    for layers, *handover in AdamState(net, 1e-3).handovers:
        if layers:
            # A blocked layer's first block completes it and nothing else.
            idx = layers[0][0]
        if handover[2] is not None:
            blocks.setdefault(idx, []).append(tuple(handover))
    return blocks


class TestGradBlocks:
    """A layer of more than BLOCK weights hands its weight gradient over
    in row blocks, each formed as ``np.matmul(below.T, grad_z[:, rows],
    out=slot.T)``; in float32 that must be, to the bit, the block's rows
    of the whole product ``np.dot(grad_z.T, below)``, or seeded models
    would change. That holds for the block heights the rule picks, not
    for every height (on a 1141 x 229 layer, heights 1-4, 12 and 57
    differ at batch 64 and above; the rule picks 286 there), so the rows
    and output views come from the state itself. Float64 networks follow
    the same rule; their gradients are checked to rounding and against
    finite differences."""

    BATCHES = [*range(1, 34), 64, 128, 256]

    @pytest.mark.parametrize(
        "sizes, blocked",
        [
            ([5459, 1092, 219, 9, 4, 10, 229, 1141, 5703],
             {0: (91, 12), 1: (4, 60), 6: (4, 286), 7: (101, 57)}),
            ([2000, 400, 2000], {0: (13, 32), 1: (13, 163)}),
        ],
        ids=["paper width", "2000 wide"],
    )
    def test_block_product_is_whole_product(self, sizes, blocked):
        net = Network([(a, b, "relu", 0.0) for a, b in zip(sizes, sizes[1:])],
                      dtype=PARAM_DTYPE)
        layers = blocked_layers(net)
        heights = {idx: (len(pieces), pieces[-1][2].stop) for idx, pieces in layers.items()}
        assert heights == blocked
        rng = rng_stream(13, 0, 0)
        for idx, pieces in layers.items():
            fan_in, fan_out = sizes[idx], sizes[idx + 1]
            for batch in self.BATCHES:
                below = rng.standard_normal((batch, fan_in), PARAM_DTYPE)
                grad_z = rng.standard_normal((batch, fan_out), PARAM_DTYPE)
                whole = np.empty((fan_out, fan_in), PARAM_DTYPE)
                np.dot(grad_z.T, below, out=whole)
                for _, _, rows, slot_t in pieces:
                    np.matmul(below.T, grad_z[:, rows], out=slot_t)
                    assert slot_t.T.tobytes() == whole[rows].tobytes(), (idx, batch, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(1, 300), st.integers(1, 70_000)),
                    min_size=2, max_size=9))
    def test_handovers_tile_params(self, sizes):
        # Random layer plans: the spans tile params from the end, each
        # holds at most BLOCK weights (or one row of a wider layer) plus at
        # most one layer's bias, and a handover completes exactly the
        # layers whose biases it holds.
        shapes = [(b, a) for a, b in zip(sizes, sizes[1:])]
        ends = np.cumsum([rows * (cols + 1) for rows, cols in shapes]).tolist()
        biases = [range(end - rows, end) for end, (rows, _) in zip(ends, shapes)]
        pieces = neural_net._handovers(shapes)
        spans = [span for _, span, _ in pieces]
        assert spans[0].stop == ends[-1]
        assert [s.stop for s in spans[1:]] == [s.start for s in spans[:-1]]
        assert spans[-1].start == 0
        for layers, span, rows in pieces:
            held = [idx for idx, bias in enumerate(biases)
                    if bias.start >= span.start and bias.stop <= span.stop]
            assert layers == held[::-1]
            size = span.stop - span.start
            bias_size = sum(len(biases[idx]) for idx in held)
            assert size - bias_size <= BLOCK or rows.stop - rows.start == 1
            assert size <= BLOCK or len(held) <= 1
            if rows is not None:
                idx = next(i for i, end in enumerate(ends) if span.start < end)
                rows_, cols = shapes[idx]
                assert rows_ * cols > BLOCK
                assert span.start == ends[idx] - rows_ * (cols + 1) + rows.start * cols
                assert size == (rows.stop - rows.start) * cols + len(layers) * rows_

    def test_backward_hands_blocks_over_bias_first(self):
        # Layer 1 (400 -> 700, 280,000 weights) in blocks of 163 rows:
        # rows 652-699 with the bias, then the others from the last rows
        # back; then layer 0 (300 -> 400, 120,000 weights) in blocks of
        # 218 rows the same way. The pieces are the plain gradient's spans.
        net = random_network([300, 400, 700], rng_stream(45, 0, 0), dtype=PARAM_DTYPE)
        x = rng_stream(45, 0, 1).standard_normal((20, 300))
        out, cache = forward(net, x)
        loss_grad = mse_loss(out, np.zeros_like(out))[1]
        plain = plain_backward(net, cache, loss_grad)
        seen = []
        backward(cache, loss_grad, AdamState(net, 1e-3),
                 lambda span, grad: seen.append((span, grad.copy())))
        layer1 = 400 * 301
        bounds = [net.params.size, *(layer1 + r * 400 for r in (652, 489, 326, 163, 0)),
                  218 * 300, 0]
        assert [(span.start, span.stop) for span, _ in seen] == list(zip(bounds[1:], bounds))
        for span, grad in seen:
            assert grad.tobytes() == plain[span].tobytes()

    def test_float64_blocked_layer(self, monkeypatch):
        # Layer 1 of the float64 [300, 400, 700] network goes in five row
        # blocks and layer 0 in two, as in float32: the gradient is the
        # plain one to float64 rounding.
        net = random_network([300, 400, 700], rng_stream(48, 0, 0))
        assert {idx: len(pieces) for idx, pieces in blocked_layers(net).items()} == {1: 5, 0: 2}
        x = rng_stream(48, 0, 1).standard_normal((20, 300))
        out, cache = forward(net, x)
        loss_grad = mse_loss(out, rng_stream(48, 0, 2).standard_normal(out.shape))[1]
        np.testing.assert_allclose(
            whole_gradient(cache, loss_grad), plain_backward(net, cache, loss_grad),
            rtol=1e-12, atol=1e-15,
        )
        # Finite differences at that size take minutes; a block of 8
        # weights puts the same rule on a small network: layer 4 (fan_in
        # 9) in blocks of 1 row, layer 3 (9 weights) in blocks of 8 rows,
        # layers 2 and 1 (7 parameters) in one handover and layer 0 (12
        # weights) in blocks of 2 rows.
        monkeypatch.setattr(neural_net, "BLOCK", 8)
        small = random_network([3, 4, 1, 1, 9, 2], rng_stream(49, 0, 0))
        handovers = AdamState(small, 1e-3).handovers
        assert [[idx for idx, *_ in layers] for layers, *_ in handovers] == [
            [4], [], [3], [], [2, 1], [0], []
        ]
        x = draw_input_away_from_kinks(small, 5, None, base_seed=108)
        y = rng_stream(109, 0, 0).standard_normal((5, 2))
        assert gradient_check(small, x, y) < 1e-4


class TestGradientCheck:
    def test_single_linear_layer_tight(self):
        net = hand_network([([[0.7, -0.2]], [0.1], "linear", 0.0)])
        x = rng_stream(20, 0, 0).standard_normal((6, 2))
        y = rng_stream(20, 0, 1).standard_normal((6, 1))
        assert gradient_check(net, x, y) < 1e-7

    def test_relu_net_away_from_kinks(self):
        rng = rng_stream(21, 0, 0)
        net = random_network([4, 3, 2], rng)
        x = draw_input_away_from_kinks(net, 5, None, base_seed=100)
        y = rng_stream(101, 0, 0).standard_normal((5, 2))
        assert gradient_check(net, x, y) < 1e-4

    def test_with_frozen_dropout_masks(self):
        rng = rng_stream(22, 0, 0)
        net = random_network([5, 4, 3, 2], rng, dropout=[0.3, 0.2, 0.0])
        masks = draw_dropout_masks(net, 6, rng_stream(22, 0, 1))
        x = draw_input_away_from_kinks(net, 6, masks, base_seed=102)
        y = rng_stream(103, 0, 0).standard_normal((6, 2))
        assert gradient_check(net, x, y, masks=masks) < 1e-4

    def test_deep_narrow_chain(self):
        # Same shape family as the embedding models: a 1-unit waist.
        rng = rng_stream(23, 0, 0)
        net = random_network([6, 3, 1, 2, 4], rng)
        x = draw_input_away_from_kinks(net, 4, None, base_seed=104)
        y = rng_stream(105, 0, 0).standard_normal((4, 4))
        assert gradient_check(net, x, y) < 1e-4

    def test_detects_corrupted_gradient(self):
        rng = rng_stream(24, 0, 0)
        net = random_network([3, 2, 2], rng)
        x = draw_input_away_from_kinks(net, 4, None, base_seed=106)
        y = rng_stream(107, 0, 0).standard_normal((4, 2))
        out, cache = forward(net, x)
        _, loss_grad = mse_loss(out, y)
        grads = whole_gradient(cache, loss_grad)
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
        net = random_network([4, 3, 3, 2], rng_stream(30, 0, 0), dropout=[0.5, 0.0, 0.0])
        masks = draw_dropout_masks(net, 10, rng_stream(30, 0, 1))
        assert masks[0] is not None
        assert masks[1] is None and masks[2] is None

    def test_mask_values_are_zero_or_scaled(self):
        net = random_network([4, 3, 2], rng_stream(31, 0, 0), dropout=[0.25, 0.0])
        masks = draw_dropout_masks(net, 50, rng_stream(31, 0, 1))
        values = set(np.round(masks[0], 12).ravel().tolist())
        assert values <= {0.0, round(1.0 / 0.75, 12)}

    def test_scale_multiplies_every_rate(self):
        net = random_network([4, 3, 3, 2], rng_stream(34, 0, 0), dropout=[0.4, 0.2, 0.0])
        half = draw_dropout_masks(net, 50, rng_stream(34, 0, 1), scale=0.5)
        assert set(np.round(half[0], 12).ravel().tolist()) <= {0.0, round(1 / 0.8, 12)}
        assert set(np.round(half[1], 12).ravel().tolist()) <= {0.0, round(1 / 0.9, 12)}
        assert half[2] is None
        assert draw_dropout_masks(net, 50, rng_stream(34, 0, 1), scale=0.0) == [None] * 3

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
        rng = rng_stream(32, 0, 0)
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
        wide = random_network(sizes, rng_stream(35, 0, 0), dropout=rates)
        narrow = random_network(sizes, rng_stream(35, 0, 0), dropout=rates, dtype=np.float32)
        m64 = draw_dropout_masks(wide, 20, rng_stream(35, 0, 1), scale=0.5)
        m32 = draw_dropout_masks(narrow, 20, rng_stream(35, 0, 1), scale=0.5)
        assert m32[0].dtype == np.float32
        assert m32[0].tobytes() == m64[0].astype(np.float32).tobytes()
        assert m32[1:] == [None, None]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_draw_equals_per_layer_draws(self, dtype):
        # The masks come from one draw split in layer order; they must be
        # the masks of one uniform(0, 1) call per positive-rate layer,
        # and leave the stream where those calls would.
        sizes, rates = [5, 4, 3, 6, 2], [0.4, 0.0, 0.25, 0.0]
        net = random_network(sizes, rng_stream(37, 0, 0), dropout=rates, dtype=dtype)
        rng, ref_rng = rng_stream(37, 0, 1), rng_stream(37, 0, 1)
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
        net = random_network(sizes, rng_stream(39, 0, 0), dropout=rates, dtype=dtype)
        rng, ref_rng = rng_stream(39, 0, 1), rng_stream(39, 0, 1)
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
        net = random_network([4, 3, 2], rng_stream(40, 0, 0), dropout=[0.5, 0.0])
        with pytest.raises(DomainError, match="batch_size"):
            draw_dropout_masks(net, 5, rng_stream(40, 0, 1), batch_size=0)

    def test_no_dropout_consumes_no_draws(self):
        net = random_network([4, 3, 2], rng_stream(38, 0, 0))
        rng = rng_stream(38, 0, 1)
        assert draw_dropout_masks(net, 5, rng) == [None, None]
        assert rng.uniform(0.0, 1.0, 2).tobytes() == rng_stream(38, 0, 1).uniform(0.0, 1.0, 2).tobytes()

    def test_eval_pass_deterministic(self):
        net = random_network([4, 3, 2], rng_stream(33, 0, 0), dropout=[0.9, 0.0])
        x = rng_stream(33, 0, 1).standard_normal((5, 4))
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalars_are_zero_d_in_the_network_dtype(self, dtype):
        # float64 for the gradient oracle's networks, float32 for training.
        net = random_network([3, 4, 2], rng_stream(6, 0, 0), dtype=dtype)
        state = AdamState(net, 1e-3)
        lr = state.scalars[4]
        for value in (*state.scalars, *state.debias):
            assert value.shape == () and value.dtype == dtype
        assert lr == np.dtype(dtype).type(1e-3)
        grads = rng_stream(6, 0, 1).standard_normal(net.params.size).astype(dtype)
        for t in (1, 2):
            adam_step(state, grads.copy(), slice(None))
            assert state.debias[0] == np.dtype(dtype).type(1.0 - ADAM_BETA1**t)
            assert state.debias[1] == np.dtype(dtype).type(1.0 - ADAM_BETA2**t)
        assert net.params.dtype == dtype

    def test_zero_gradient_leaves_parameters(self):
        net = hand_network([([[2.0]], [0.5], "linear", 0.0)])
        state = AdamState(net, TrainConfig.learning_rate)
        adam_step(state, np.zeros(2), slice(0, 2))
        assert net.layers[0].weights[0, 0] == 2.0
        assert net.layers[0].bias[0] == 0.5
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        net = hand_network([([[1.0]], [0.0], "linear", 0.0)])
        state = AdamState(net, 0.01)
        adam_step(state, np.array([0.37, 0.0]), slice(0, 2))
        step = 1.0 - net.layers[0].weights[0, 0]
        assert step == pytest.approx(0.01, rel=1e-6)

    def test_matches_scalar_reference(self):
        net = hand_network([([[1.0]], [0.5], "linear", 0.0)])
        state = AdamState(net, 0.05)
        grad_seq = [0.4, -0.2, 0.7, 0.1, -0.5]
        for g in grad_seq:
            adam_step(state, np.array([g, 2.0 * g]), slice(0, 2))
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
        state = AdamState(net, 0.1)
        w_ref, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            g = 2.0 * net.layers[0].weights[0, 0]
            adam_step(state, np.array([g, 0.0]), slice(0, 2))
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
                state = AdamState(net, lr)
                g = 2.0 * w0
                adam_step(state, np.array([g, 0.0]), slice(0, 2))
                w1 = net.layers[0].weights[0, 0]
                assert w1**2 < w0**2

    def check_against_per_layer_reference(self, net, x, y, steps):
        # The per-layer update the flat one replaced, kept as the oracle:
        # every parameter must come out bit for bit the same. Returns
        # state.t after each adam_step call.
        def per_layer_step(params, grads, moments, t, lr):
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            for p, g, (m, v) in zip(params, grads, moments):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)

        ref = [a.copy() for l in net.layers for a in (l.weights, l.bias)]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref]
        state = AdamState(net, 0.05)
        grads = np.empty_like(net.params)
        counts = []

        def update(span, grad):
            grads[span] = grad
            adam_step(state, grad, span)
            counts.append(state.t)

        for t in range(1, steps + 1):
            out, cache = forward(net, x)
            backward(cache, mse_loss(out, y)[1], state, update)
            ref_grads = [a for pair in net.layer_views(grads) for a in pair]
            per_layer_step(ref, ref_grads, moments, t, 0.05)
            got = [a for l in net.layers for a in (l.weights, l.bias)]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
        assert state.t == steps
        return counts

    def test_flat_step_matches_per_layer_reference(self):
        rng = rng_stream(41, 0, 0)
        net = random_network([5, 4, 3, 2], rng)
        assert [l.activation for l in net.layers] == ["relu", "relu", "linear"]
        assert all(np.all(l.bias != 0.0) for l in net.layers)
        x = rng.standard_normal((8, 5))
        y = rng.standard_normal((8, 2))
        self.check_against_per_layer_reference(net, x, y, steps=6)

    def check_blocked_step(self, dtype):
        # Over two full blocks and a partial third one, with block
        # boundaries falling inside the first layer's weights.
        rng = rng_stream(42, 0, 0)
        net = random_network([600, 220, 3], rng, dtype=dtype)
        assert net.params.size > 2 * BLOCK
        assert net.params.size % BLOCK != 0
        state = AdamState(net, 0.05)
        assert state.scratch.size == BLOCK
        assert state.m.dtype == state.v.dtype == state.scratch.dtype == dtype
        x = rng.standard_normal((6, 600)).astype(dtype)
        y = rng.standard_normal((6, 3)).astype(dtype)
        self.check_against_per_layer_reference(net, x, y, steps=3)

    def test_blocked_step_matches_per_layer_reference(self):
        self.check_blocked_step(np.float64)

    def test_float32_blocked_step_matches_per_layer_reference(self):
        self.check_blocked_step(np.float32)

    def test_blocked_output_layer_steps_once(self):
        # The output layer (400 -> 700, 280,000 float32 weights) is handed
        # over in five row blocks, the one with its bias first, and layer 0
        # in two: t advances on the first call alone, once per step, and
        # every parameter is the per-layer reference's.
        net = random_network([300, 400, 700], rng_stream(46, 0, 0), dtype=np.float32)
        assert len(AdamState(net, 0.05).handovers) == 7
        rng = rng_stream(46, 0, 1)
        x = rng.standard_normal((8, 300)).astype(np.float32)
        y = rng.standard_normal((8, 700)).astype(np.float32)
        counts = self.check_against_per_layer_reference(net, x, y, steps=3)
        assert counts == [1] * 7 + [2] * 7 + [3] * 7

    def test_span_by_span_matches_whole_vector_step(self):
        # Spans in the order backward hands them over (the one holding the
        # last parameter first), with bounds inside BLOCK slices:
        # together they give the bytes of one whole-vector step, and t
        # advances once per step.
        rng = rng_stream(44, 0, 0)
        nets = [random_network([600, 220, 3], rng_stream(44, 0, 1)) for _ in range(2)]
        size = nets[0].params.size
        bounds = [size, 2 * BLOCK + 5, 1000, 0]
        states = [AdamState(net, 0.05) for net in nets]
        for step in range(1, 4):
            grads = rng.standard_normal(size)
            adam_step(states[0], grads.copy(), slice(0, size))
            for high, low in zip(bounds, bounds[1:]):
                adam_step(states[1], grads[low:high].copy(), slice(low, high))
            assert nets[1].params.tobytes() == nets[0].params.tobytes()
            assert states[1].m.tobytes() == states[0].m.tobytes()
            assert states[1].v.tobytes() == states[0].v.tobytes()
            assert states[1].t == states[0].t == step

    def test_gradient_layout_checked(self):
        net = tiny_network()
        with pytest.raises(ShapeError):
            adam_step(AdamState(net, 1e-3), np.zeros(3), slice(0, net.params.size))
        with pytest.raises(ShapeError, match=r"\(3,\) .* for 2 float64"):
            adam_step(AdamState(net, 1e-3), np.zeros(3), slice(3, 5))

    def test_stepped_span_refused(self):
        net = random_network([5, 4, 3], rng_stream(50, 0, 0))
        state = AdamState(net, 1e-3)
        before = net.params.tobytes()
        with pytest.raises(ShapeError, match="not contiguous"):
            adam_step(state, np.ones(10), slice(0, 10, 2))
        assert net.params.tobytes() == before

    def test_first_span_must_end_at_last_parameter(self):
        # Before t has started, a span short of the end would update with
        # a zero debias term and write NaN.
        net = random_network([5, 4, 3], rng_stream(51, 0, 0))
        state = AdamState(net, 1e-3)
        before = net.params.tobytes()
        with pytest.raises(ShapeError, match="first update must end"):
            adam_step(state, np.ones(10), slice(0, 10))
        assert net.params.tobytes() == before
        assert state.t == 0
        size = net.params.size
        adam_step(state, np.ones(size - 10), slice(10, size))
        adam_step(state, np.ones(10), slice(0, 10))
        assert state.t == 1
        assert np.isfinite(net.params).all()

    def test_dtype_mismatch_checked(self):
        net = hand_network([([[1.0]], [0.0], "linear", 0.0)], dtype=np.float32)
        with pytest.raises(ShapeError, match="dtype float64"):
            adam_step(AdamState(net, 1e-3), np.zeros(2), slice(0, 2))

    def test_full_loop_reduces_loss(self):
        rng = rng_stream(40, 0, 0)
        net = random_network([6, 4, 3], rng)
        x = rng.standard_normal((64, 6))
        y = x[:, :3] * 0.5
        state = AdamState(net, 5e-3)

        def update(span, grad):
            adam_step(state, grad, span)

        start, _ = mse_loss(forward(net, x)[0], y)
        for _ in range(300):
            out, cache = forward(net, x)
            loss, loss_grad = mse_loss(out, y)
            backward(cache, loss_grad, state, update)
        final, _ = mse_loss(forward(net, x)[0], y)
        assert final < 0.2 * start
