"""Feed-forward network engine: forward, analytic backprop, Adam.

Written directly against numpy so the analytic gradients can be audited
against finite differences (see :func:`gradient_check`); no autodiff
framework is involved. Conventions:

* a batch is (n, features), one sample per row
* layer weights are (fan_out, fan_in); forward is ``a @ W.T + b``
* dropout is inverted: at train time the kept activations are scaled by
  ``1 / (1 - rate)`` so evaluation needs no rescaling
* the loss is mean squared error averaged over every output entry,
  accumulated in float64
* every array of a pass (parameters, masks, activations, gradients,
  Adam's moments) has the dtype of the network's ``params``: float32,
  which training uses, or float64, which the finite-difference oracle
  needs
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CacheError, DomainError, ShapeError
from .matrix_core import KIND_GRAD_CHECK, check_seed, rng_stream

ACTIVATIONS = ("relu", "linear")

# (fan_in, fan_out, activation, dropout_rate) of one dense layer.
LayerSpec = tuple[int, int, str, float]

# adam_step runs its in-place operations over slices of this many
# elements (256 KiB per float32 operand), so the five operands of one
# slice (1.25 MiB) stay in a core's L2 cache across all 14 operations;
# over whole vectors, each operation streams every one of them through
# memory again. At 13M float32 parameters one step took 67.0 ms with 16K
# slices, 58.2 ms with 32K and 55.5 ms with 64K.
#
# It is also the most weights one handover of backward's gradient to Adam
# holds, one row at least (see _handovers), so the gradient buffer holds
# about one slice rather than the widest layer: at paper width 66,600
# elements, where layer 7 whole would be 6,512,826 (26 MB). Measured in
# one process over paper-width batch-32 steps (BLAS 1 thread): peak RSS
# 216.9 MB with whole layers, 192.4 MB with blocks of 2**18 weights and
# 191.9 MB at 2**16, with 51 and 201 Adam calls per step; step times at
# 2**16 to 2**20 were all within the host's noise of whole layers' 62-68 ms.
BLOCK = 1 << 16

# The dtypes a network's parameters may have: float32 for training and
# model files, float64 for the finite-difference gradient oracle.
DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class DenseLayer:
    """One dense layer plus the dropout rate applied to its output.

    ``weights`` (fan_out, fan_in) and ``bias`` are views into the
    ``params`` buffer of the network that made the layer. The layer is
    frozen: the network's step plans hold the same views and flags, so
    its parameters change only by writes into those views.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"
    dropout_rate: float = 0.0

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]


def _check_plan(specs: list[LayerSpec], bottleneck_index: int | None) -> None:
    for index, (fan_in, fan_out, activation, rate) in enumerate(specs):
        if fan_in < 1 or fan_out < 1:
            raise ShapeError(
                f"layer {index}: sizes must be positive, got {fan_in} -> {fan_out}"
            )
        if index and fan_in != specs[index - 1][1]:
            raise ShapeError(
                f"layer {index}: input size {fan_in} does not match the "
                f"{specs[index - 1][1]} outputs of layer {index - 1}"
            )
        if activation not in ACTIVATIONS:
            raise DomainError(f"layer {index}: unknown activation {activation!r}")
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"layer {index}: dropout rate must be in [0, 1), got {rate}")
    if bottleneck_index is not None and not 0 <= bottleneck_index < len(specs):
        raise ShapeError(
            f"bottleneck index {bottleneck_index} out of range for "
            f"{len(specs)} layers"
        )


def _split(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) views of each (fan_out, fan_in) layer, in order,
    into a vector laid out like ``Network.params``."""
    views, offset = [], 0
    for rows, cols in shapes:
        end = offset + rows * cols
        views.append((flat[offset:end].reshape(rows, cols), flat[end : end + rows]))
        offset = end + rows
    return views


class Network:
    """A chain of dense layers, built from its layer plan: one
    ``(fan_in, fan_out, activation, dropout_rate)`` spec per layer.

    ``bottleneck_index`` marks the layer whose output is the embedding,
    for networks that have one; plain regression networks leave it None.

    Every weight and bias lives in one contiguous vector of ``dtype``
    (one of ``DTYPES``), ``params``, allocated zeroed: layer by layer,
    each layer's weights (row-major) before its bias. Each layer's
    ``weights`` and ``bias`` are views into it, so one vector operation
    can update the whole network, and initialization or loading writes
    straight into them. An invalid plan raises ShapeError or DomainError
    naming the layer.

    ``forward_plan`` holds, per layer, what :func:`forward` reads on every
    pass: the ``weights.T`` view, the ``bias`` view and whether the layer
    is relu, made once here rather than looked up per layer and step.
    They are views into ``params`` too, so whatever changes the
    parameters must write into them in place (``params[...] = ...``,
    ``weights[...] = ...``, ``readinto``, an in-place byteswap); the
    frozen :class:`DenseLayer` refuses a rebinding that would leave a plan
    entry on the old values. ``relu_floor`` is relu's zero:
    ``np.maximum(z, relu_floor)`` is a relu layer's output.
    """

    def __init__(
        self,
        specs: list[LayerSpec],
        bottleneck_index: int | None = None,
        dtype=np.float64,
    ):
        _check_plan(specs, bottleneck_index)
        if np.dtype(dtype) not in DTYPES:
            raise DomainError(f"parameter dtype must be float32 or float64, got {dtype}")
        self.bottleneck_index = bottleneck_index
        self.params = np.zeros(
            sum(fan_out * (fan_in + 1) for fan_in, fan_out, _, _ in specs), dtype=dtype
        )
        views = _split(self.params, [(fan_out, fan_in) for fan_in, fan_out, _, _ in specs])
        self.layers = [
            DenseLayer(w, b, activation, rate)
            for (w, b), (_, _, activation, rate) in zip(views, specs)
        ]
        self.forward_plan = [
            (layer.weights.T, layer.bias, layer.activation == "relu")
            for layer in self.layers
        ]
        # relu's floor as a 0-d array: numpy converts a scalar operand to
        # one on every call.
        self.relu_floor = np.zeros((), dtype)

    def layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, bias) views of each layer into a vector laid out like
        ``params``."""
        return _split(flat, [layer.weights.shape for layer in self.layers])

    @property
    def input_size(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_size(self) -> int:
        return self.layers[-1].fan_out

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype


@dataclass
class TrainConfig:
    """Optimization settings plus the base seed for all training streams."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        # Training runs in float32, where 1e308 is inf and 1e-50 is 0.
        with np.errstate(over="ignore"):
            rounded = np.float32(self.learning_rate)
        if not (self.learning_rate > 0 and 0 < rounded < np.inf):
            raise DomainError(
                "learning_rate must be > 0 and finite in float32, got "
                f"{self.learning_rate}"
            )
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        check_seed(self.seed)


@dataclass
class ForwardCache:
    """Intermediate values from one forward pass of ``network``.

    :func:`backward` reads ``x``, ``outputs`` and ``masks``; permutation
    importance reads the first layer's pre-activation,
    ``pre_activations[0]``."""

    network: Network
    x: np.ndarray
    pre_activations: list[np.ndarray]
    outputs: list[np.ndarray]
    masks: list[np.ndarray | None]


def draw_dropout_masks(
    network: Network,
    n: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    batch_size: int | None = None,
) -> list[np.ndarray | None]:
    """Scaled keep masks for ``n`` rows, ``None`` for zero-rate layers,
    in the network's dtype.

    Each layer drops at ``scale`` times its own rate (fit anneals scale
    from near 0 up to 1). Only positive-rate layers consume randomness,
    in layer order, so the draw sequence is stable under architecture
    changes that touch only no-dropout layers. The draws for all of them
    are taken in one call and split in layer order, which yields the
    same doubles as one ``uniform(0, 1, (n, fan_out))`` call per layer.

    With ``batch_size``, the rows are an epoch's batches in order (the
    last may be short): the stream is consumed batch by batch and, within
    a batch, layer by layer, still in one call, so row slice
    ``[k * batch_size, (k + 1) * batch_size)`` of each mask equals, bit
    for bit, the mask that a call for that batch alone would draw next.
    """
    if batch_size is not None and batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    rates = [layer.dropout_rate * scale for layer in network.layers]
    units = sum(layer.fan_out for layer, rate in zip(network.layers, rates) if rate > 0.0)
    u = np.empty(n * units)
    rng.random(out=u)
    batch = max(1, min(batch_size or n, n))
    # (draws, first row, rows per batch): one row of draws per batch, for
    # the full batches, then for the short last one.
    full = n - n % batch
    pieces = [(u[: full * units].reshape(full // batch, batch * units), 0, batch)]
    if full < n:
        pieces.append((u[full * units :].reshape(1, -1), full, n - full))
    masks: list[np.ndarray | None] = []
    offset = 0
    for layer, rate in zip(network.layers, rates):
        if rate > 0.0:
            fan = layer.fan_out
            value = network.dtype.type(1.0 / (1.0 - rate))
            mask = np.empty((n, fan), network.dtype)
            for draws, first, rows in pieces:
                count = len(draws)
                keep = draws[:, rows * offset : rows * (offset + fan)] >= rate
                np.multiply(
                    keep.reshape(count, rows, fan),
                    value,
                    out=mask[first : first + count * rows].reshape(count, rows, fan),
                )
            masks.append(mask)
            offset += fan
        else:
            masks.append(None)
    return masks


def forward(
    network: Network,
    x: np.ndarray,
    masks: list[np.ndarray | None] | None = None,
    stop: int | None = None,
    start: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (output, cache).

    Dropout is applied only through ``masks`` (one per layer, from
    :func:`draw_dropout_masks`; ``None`` entries leave a layer alone), so
    a training step and the gradient checks replay one fixed pass bit
    for bit. Without masks the pass is the deterministic evaluation one.
    ``stop`` runs only the first ``stop`` layers, so the output is that
    layer's and the cache holds only those layers; the embedding is read
    this way without running the decoder. ``start`` skips the layers
    before it: ``x`` is then the output of layer ``start - 1``, and
    ``forward(start=k)`` on ``forward(stop=k)``'s output gives the full
    pass's output bit for bit. The cache holds the layers that ran. Unless
    ``0 <= start < stop <= len(layers)`` (``stop`` given), ShapeError is
    raised. The input is cast to the network's dtype.

    The layers run from ``network.forward_plan``, each layer's
    ``(weights.T, bias, relu)`` made once when the network was built.
    """
    layers = network.layers
    if not 0 <= start < len(layers):
        raise ShapeError(f"start layer {start} out of range for {len(layers)} layers")
    if stop is not None and not start < stop <= len(layers):
        raise ShapeError(
            f"stop layer {stop} out of range for start {start} and {len(layers)} layers"
        )
    x = np.asarray(x, dtype=network.dtype)
    if x.ndim != 2 or x.shape[1] != layers[start].fan_in:
        raise ShapeError(
            f"input of shape {x.shape} does not match input size "
            f"{layers[start].fan_in} of layer {start}"
        )
    if masks is None:
        masks = [None] * len(layers)
    elif len(masks) != len(layers):
        raise ShapeError(f"{len(masks)} masks for {len(layers)} layers")

    floor = network.relu_floor
    a = x
    pre, outs = [], []
    for (weights_t, bias, relu), mask in zip(
        network.forward_plan[start:stop], masks[start:stop]
    ):
        z = np.dot(a, weights_t)
        z += bias
        if relu:
            a = np.maximum(z, floor)
            if mask is not None:
                a *= mask
        else:
            # a linear layer's output is z itself, which the cache keeps
            a = z if mask is None else z * mask
        pre.append(z)
        outs.append(a)
    cache = ForwardCache(network, x, pre, outs, list(masks))
    return a, cache


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries, accumulated in float64, and its
    gradient w.r.t. pred, in pred's dtype."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    # np.mean's own arithmetic, without its Python wrapper.
    loss = float(np.add.reduce(diff * diff, axis=None, dtype=np.float64) / diff.size)
    # The gradient scales diff in place; diff is this call's own array.
    diff *= 2.0 / diff.size
    return loss, diff


def backward(cache: ForwardCache, loss_grad: np.ndarray, state: AdamState, on_handover) -> None:
    """Gradient of the loss w.r.t. every parameter of ``state.network``,
    from the output back, handed to ``on_handover(span, grad)`` one piece
    at a time: the handovers of ``state.handovers`` (see :class:`AdamState`).

    Each piece's gradient goes into the state's buffer, and
    ``on_handover`` runs as soon as the piece is complete, with the
    piece's slice of ``params`` and its gradient; the next piece then
    overwrites that gradient. Each layer's downstream gradient is formed
    before ``on_handover`` first runs on any of its parameters, so the
    callback may update them in place (``fit`` runs :func:`adam_step`
    there), and training holds one piece's gradient, not the whole
    network's. :func:`whole_gradient` copies the pieces into one vector.

    A row block's weight gradient is formed straight into the buffer as
    ``np.matmul(below.T, grad_z[:, rows], out=slot.T)``, with ``slot`` the
    block's (rows, fan_in) C-order view. That equals, to the bit, the
    block's rows of the whole product ``np.dot(grad_z.T, below)`` that a
    whole layer forms, at the heights the rule picks (README, design
    notes).

    ``loss_grad`` is the gradient of the loss at the network output (for
    MSE, the second value of :func:`mse_loss`). The cache and the state
    each carry the network they were made from, so one identity check
    stands for every shape and dtype check: a cache of another network
    object (even a twin of the same plan), a partial pass (``stop`` or
    ``start``) or a loss gradient that is not the cached output's shape
    raises CacheError before anything is handed over.
    """
    network = state.network
    if cache.network is not network:
        raise CacheError("the forward cache comes from another network than the Adam state")
    if len(cache.outputs) != len(network.layers):
        raise CacheError(
            f"cache holds {len(cache.outputs)} layers, network has "
            f"{len(network.layers)}"
        )
    pred = cache.outputs[-1]
    if pred.shape != loss_grad.shape:
        raise CacheError(
            f"cached output {pred.shape} vs loss gradient {loss_grad.shape}"
        )

    x, outputs, masks = cache.x, cache.outputs, cache.masks
    grad_a = loss_grad
    for layers, span, grad, rows, slot_t in state.handovers:
        for idx, weights, relu, gw, gb in layers:
            mask = masks[idx]
            if mask is not None:
                grad_a = grad_a * mask
            # relu passes the gradient where z > 0. Its output's sign is 1
            # there (where the unit was kept) and 0 elsewhere: a gate in the
            # gradient's dtype, cheaper than the bool z > 0, and bitwise the
            # same, since a dropped unit's grad_a is already +-0. A linear
            # layer passes the gradient unchanged.
            grad_z = grad_a * np.sign(outputs[idx]) if relu else grad_a
            below = outputs[idx - 1] if idx else x
            if gw is not None:
                np.dot(grad_z.T, below, out=gw)
            np.add.reduce(grad_z, axis=0, out=gb)
            if idx:
                grad_a = np.dot(grad_z, weights)
        # A row block's layer is the last one run, so grad_z and below are
        # its own here.
        if rows is not None:
            np.matmul(below.T, grad_z[:, rows], out=slot_t)
        on_handover(span, grad)


def whole_gradient(cache: ForwardCache, loss_grad: np.ndarray) -> np.ndarray:
    """The gradient of :func:`backward`, laid out like the cached
    network's ``params`` (``network.layer_views`` splits it by layer):
    each piece it hands over is copied into one new vector."""
    whole = np.empty_like(cache.network.params)

    def collect(span, grad):
        whole[span] = grad

    backward(cache, loss_grad, AdamState(cache.network, 1.0), collect)
    return whole


def _handovers(shapes) -> list[tuple[list[int], slice, slice | None]]:
    """The pieces in which :func:`backward` hands over the gradient of
    layers of ``shapes`` ((fan_out, fan_in) each), in the order it makes
    them: ``(layers, span, rows)``, the indices of the layers whose
    gradients the piece completes, output side first, its slice of
    ``params``, and for a row block its rows, None otherwise.

    From the output back, a layer of more than ``BLOCK`` weights goes in
    row blocks of ``max(1, BLOCK // fan_in)`` rows, last rows first; the
    first block runs on through the bias and completes the layer, the
    later ones complete none. Consecutive smaller layers share one piece
    while their parameters total at most ``BLOCK``: each handover is a
    run of numpy calls, so a network of small layers, such as the desk
    one, takes one per step.
    """
    ends = np.cumsum([rows * (cols + 1) for rows, cols in shapes]).tolist()
    pieces = []
    for idx in reversed(range(len(shapes))):
        rows, cols = shapes[idx]
        start = ends[idx] - rows * (cols + 1)
        if rows * cols > BLOCK:
            height = max(1, BLOCK // cols)
            for r0 in reversed(range(0, rows, height)):
                r1 = min(r0 + height, rows)
                last = r1 == rows
                span = slice(start + r0 * cols, ends[idx] if last else start + r1 * cols)
                pieces.append(([idx] if last else [], span, slice(r0, r1)))
        elif pieces and pieces[-1][2] is None and pieces[-1][1].stop - start <= BLOCK:
            layers, span, _ = pieces[-1]
            pieces[-1] = ([*layers, idx], slice(start, span.stop), None)
        else:
            pieces.append(([idx], slice(start, ends[idx]), None))
    return pieces


class AdamState:
    """Adam's step count ``t`` and moment vectors ``m`` and ``v`` for
    ``network``, laid out like its ``params`` and of its dtype, plus one
    scratch block of up to ``BLOCK`` elements for the update and the
    gradient layout that :func:`backward` fills. The state keeps the
    network it was made for, so :func:`backward` and :func:`adam_step`
    take it from here rather than as an argument that could disagree.

    ``scalars`` holds b1, b2, 1-b1, 1-b2, the learning rate and eps, and
    ``debias`` the step's 1-b1^t and 1-b2^t, as 0-d arrays of the moments'
    dtype, made once, where numpy would convert a Python float or a numpy
    scalar operand into such an array on every operation: at desk scale
    that conversion costs more than the operation's arithmetic.
    :func:`adam_step` writes ``debias`` in place when it advances ``t``.

    The network's gradient is split once, from its layer shapes, into
    handovers (see ``_handovers``): row blocks of each layer of more than
    ``BLOCK`` weights, and runs of smaller layers. Every handover's
    gradient goes into one buffer the size of the largest.
    ``handovers`` holds them in the order :func:`backward` makes them, each
    ``(layers, span, grad, rows, slot_t)``: what backward runs of the
    layers the handover completes, its slice of ``params``, its gradient
    (the head of the buffer), and for a row block its rows and the
    transpose of its (rows, fan_in) weight gradient view, None otherwise.
    Each layer is what backward reads of it, made once: ``(index, weights,
    relu, gw, gb)``, the layer's weights view into ``params``, whether it
    is relu, and its (weights, bias) gradient views into the buffer;
    ``gw`` is None for a blocked layer, and a blocked layer's later blocks
    run no layer. At paper width layers 7, 6, 1 and 0 go in 101, 4, 4 and
    91 blocks, layers 5-2 in one handover, and the buffer holds 66,600
    gradients; at desk scale the whole network is one handover.
    """

    def __init__(self, network: Network, learning_rate: float):
        self.network = network
        # np.zeros, unlike np.zeros_like, leaves the zeroing of the pages
        # to the first write, so the moments cost nothing before step 1.
        size, dtype = network.params.size, network.dtype
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.t = 0
        self.scratch = np.empty(min(size, BLOCK), dtype)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.scalars = tuple(
            np.array(value, dtype)
            for value in (b1, b2, 1.0 - b1, 1.0 - b2, learning_rate, ADAM_EPSILON)
        )
        # 1 - b^0 for t = 0.
        self.debias = (np.zeros((), dtype), np.zeros((), dtype))
        layers = network.layers
        shapes = [layer.weights.shape for layer in layers]
        pieces = _handovers(shapes)
        buffer = np.empty(max(span.stop - span.start for _, span, _ in pieces), dtype)
        self.handovers = []
        for idxs, span, rows in pieces:
            grad = buffer[: span.stop - span.start]
            slot_t = None
            if rows is None:
                views = _split(grad, [shapes[idx] for idx in idxs[::-1]])[::-1]
            else:
                if idxs:
                    # A layer's first block; its later ones follow.
                    cols = shapes[idxs[0]][1]
                # The bias gradient follows the first block's weights.
                slot = grad[: (rows.stop - rows.start) * cols]
                views = [(None, grad[slot.size :])]
                slot_t = slot.reshape(-1, cols).T
            self.handovers.append((
                [(idx, layers[idx].weights, layers[idx].activation == "relu", *view)
                 for idx, view in zip(idxs, views)],
                span, grad, rows, slot_t,
            ))


def adam_step(state: AdamState, grads: np.ndarray, span: slice) -> None:
    """One Adam update, in place, of the span ``span`` of
    ``state.network.params``, with bias-corrected moments (Kingma & Ba
    2015, Algorithm 1), at the state's learning rate.

    ``grads`` is the span's gradient, as :func:`backward` hands it over;
    it serves as scratch space and comes back overwritten. ``fit`` updates
    each span as soon as backward hands it over (see :class:`AdamState`).
    A step's first span is the one that ends at the last parameter, which
    backward hands over first; only that call advances ``state.t``, so the
    spans of one step share its count. A desk-scale network takes one call
    per step, over all of ``params``; a paper-width one takes 201. Any
    contiguous span is valid, but a stepped one, or a first call whose
    span does not end at the last parameter (the count would still be 0),
    raises ShapeError.

    The update is a fixed run of in-place vector operations, applied
    slice by slice over ``BLOCK`` elements, and each element goes
    through the same operations in the same order as the textbook
    per-parameter form, so the result is the same to the bit:
    ``m = b1 m + (1-b1) g``, ``v = b2 v + (g g)(1-b2)``, then
    ``p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)``.
    """
    params = state.network.params
    size, dtype = params.size, params.dtype
    low, high, stride = span.indices(size)
    if grads.shape != (high - low,) or grads.dtype != dtype:
        raise ShapeError(
            f"gradient of shape {grads.shape} and dtype {grads.dtype} for "
            f"{high - low} {dtype} parameters"
        )
    if stride != 1:
        raise ShapeError(f"span {span} is not contiguous")
    if high != size and not state.t:
        raise ShapeError(
            f"the first update must end at the last parameter ({size}), "
            f"got span {span}"
        )
    b1, b2, keep1, keep2, lr, eps = state.scalars
    debias1, debias2 = state.debias
    if high == size:
        state.t += 1
        debias1[()] = 1.0 - ADAM_BETA1**state.t
        debias2[()] = 1.0 - ADAM_BETA2**state.t
    for start in range(low, high, BLOCK):
        block = slice(start, min(start + BLOCK, high))
        p, m, v = params[block], state.m[block], state.v[block]
        g = grads[start - low : start - low + BLOCK]
        scratch = state.scratch[: g.size]
        m *= b1
        np.multiply(g, keep1, out=scratch)
        m += scratch
        v *= b2
        g *= g
        g *= keep2
        v += g
        np.divide(m, debias1, out=scratch)
        scratch *= lr
        np.divide(v, debias2, out=g)
        np.sqrt(g, out=g)
        g += eps
        scratch /= g
        p -= scratch


def numerical_gradients(
    network: Network,
    x: np.ndarray,
    target: np.ndarray,
    masks: list[np.ndarray | None] | None = None,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of the MSE loss for every parameter,
    laid out like ``network.params``.

    Dropout masks are frozen across the +h/-h evaluations so the loss is
    a deterministic function of the parameters. The loss difference is
    formed as mean((up - down) * (up + down - 2 target)), which equals
    mse(up) - mse(down) exactly but does not subtract two rounded O(1)
    losses: that cancellation alone leaves ~1e-11 of error at h=1e-5,
    which swamps a gradient entry of 1e-7. Cost is two forward passes
    per scalar parameter; meant for small test networks. The network must
    be float64: a step of 1e-5 is below float32's resolution of O(1)
    weights.
    """
    if network.dtype != np.float64:
        raise DomainError(
            f"finite differences need a float64 network, got {network.dtype}"
        )
    target = np.asarray(target, dtype=np.float64)
    params = network.params
    grads = np.zeros_like(params)
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + h
        up = forward(network, x, masks)[0]
        params[k] = orig - h
        down = forward(network, x, masks)[0]
        params[k] = orig
        delta = np.mean((up - down) * (up + down - 2.0 * target))
        grads[k] = delta / (2.0 * h)
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative disagreement: |a - n| / max(|a|, |n|, 1e-8)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(
    network: Network,
    x: np.ndarray,
    target: np.ndarray,
    h: float = 1e-5,
    seed: int = 0,
    masks: list[np.ndarray | None] | None = None,
) -> float:
    """Max relative error between analytic and finite-difference gradients.

    Dropout masks are drawn once from the seed (or passed in) and frozen
    for the analytic pass and every perturbed evaluation.
    """
    if masks is None:
        rng = rng_stream(seed, KIND_GRAD_CHECK)
        masks = draw_dropout_masks(network, np.asarray(x).shape[0], rng)
    out, cache = forward(network, x, masks)
    _, loss_grad = mse_loss(out, target)
    analytic = whole_gradient(cache, loss_grad)
    numeric = numerical_gradients(network, x, target, masks=masks, h=h)
    return max_relative_error(analytic, numeric)
