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

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheError, DomainError, ShapeError
from .matrix_core import KIND_GRAD_CHECK, RngStream, stream_id

ACTIVATIONS = ("relu", "linear")

# (fan_in, fan_out, activation, dropout_rate) of one dense layer.
LayerSpec = tuple[int, int, str, float]

# adam_step runs its in-place operations over slices of this many
# elements (256 KiB per float32 operand), so the five operands of one
# slice (1.25 MiB) stay in a core's L2 cache across all 14 operations;
# over whole vectors, each operation streams every one of them through
# memory again. At 13M float32 parameters one step took 67.0 ms with 16K
# slices, 58.2 ms with 32K and 55.5 ms with 64K.
ADAM_BLOCK = 1 << 16

# The dtypes a network's parameters may have: float32 for training and
# model files, float64 for the finite-difference gradient oracle.
DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class DenseLayer:
    """One dense layer plus the dropout rate applied to its output.

    ``weights`` (fan_out, fan_in) and ``bias`` are views into the
    ``params`` buffer of the network that made the layer.
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
        # The gradient buffer backward last wrote and its layer views, so
        # a training loop that passes one buffer on every step splits it
        # once.
        self._grad_views: tuple[np.ndarray, list] | None = None

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
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass
class ForwardCache:
    """Intermediate values from one forward pass, consumed by backward."""

    x: np.ndarray
    pre_activations: list[np.ndarray]
    outputs: list[np.ndarray]
    masks: list[np.ndarray | None]


def activate(name: str, z: np.ndarray) -> np.ndarray:
    """A layer's output for its pre-activation ``z``: a new array for
    relu, ``z`` itself for a linear layer."""
    return np.maximum(z, z.dtype.type(0)) if name == "relu" else z


def draw_dropout_masks(
    network: Network,
    n: int,
    rng: RngStream,
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
    rng.fill_uniform(u)
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
    pass's output bit for bit. The cache holds the layers that ran. The
    input is cast to the network's dtype.
    """
    layers = network.layers
    if not 0 <= start < len(layers):
        raise ShapeError(f"start layer {start} out of range for {len(layers)} layers")
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

    a = x
    pre, outs = [], []
    for layer, mask in zip(layers[start:stop], masks[start:stop]):
        z = a @ layer.weights.T
        z += layer.bias
        a = activate(layer.activation, z)
        if mask is not None:
            # a linear layer's output is z itself, which the cache keeps
            a = z * mask if a is z else np.multiply(a, mask, out=a)
        pre.append(z)
        outs.append(a)
    cache = ForwardCache(x=x, pre_activations=pre, outputs=outs, masks=list(masks))
    return a, cache


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries, accumulated in float64, and its
    gradient w.r.t. pred, in pred's dtype."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    # np.mean's own arithmetic, without its Python wrapper.
    loss = float(np.add.reduce(diff * diff, axis=None, dtype=np.float64) / diff.size)
    grad = (2.0 / diff.size) * diff
    return loss, grad


def backward(
    network: Network,
    cache: ForwardCache,
    loss_grad: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the loss w.r.t. every parameter, laid out like
    ``network.params`` (``network.layer_views`` splits it by layer).
    It is written into ``out`` when given (and ``out`` is returned), so a
    training loop can reuse one buffer for every step.

    ``loss_grad`` is the gradient of the loss at the network output (for
    MSE, the second value of :func:`mse_loss`). The cache must come from
    a forward pass of this same network; mismatches raise CacheError.
    """
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

    if out is None:
        out = np.empty_like(network.params)
    elif out.shape != network.params.shape or out.dtype != network.dtype:
        raise ShapeError(
            f"gradient buffer of shape {out.shape} and dtype {out.dtype} for "
            f"{network.params.size} {network.dtype} parameters"
        )

    if network._grad_views is None or network._grad_views[0] is not out:
        network._grad_views = (out, network.layer_views(out))
    views = network._grad_views[1]

    n = pred.shape[0]
    zero = network.dtype.type(0)
    grad_a = loss_grad
    for idx in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[idx]
        z = cache.pre_activations[idx]
        if z.shape != (n, layer.fan_out):
            raise CacheError(
                f"cached pre-activation {z.shape} does not match layer {idx} "
                f"({n}, {layer.fan_out})"
            )
        mask = cache.masks[idx]
        if mask is not None:
            grad_a = grad_a * mask
        # relu passes the gradient where z > 0; the bool operand
        # multiplies as 0.0 or 1.0. A linear layer passes it unchanged.
        grad_z = grad_a * (z > zero) if layer.activation == "relu" else grad_a
        below = cache.x if idx == 0 else cache.outputs[idx - 1]
        gw, gb = views[idx]
        np.matmul(grad_z.T, below, out=gw)
        np.add.reduce(grad_z, axis=0, out=gb)
        if idx > 0:
            grad_a = grad_z @ layer.weights
    return out


@dataclass
class AdamState:
    """Adam's step count and moment vectors, laid out like the network's
    ``params`` and of its dtype, plus one scratch block of up to
    ``ADAM_BLOCK`` elements for the update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)
    _constants: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty(min(self.m.size, ADAM_BLOCK), dtype=self.m.dtype)

    def constants(self, learning_rate: float) -> tuple:
        """b1, b2, 1-b1, 1-b2, the learning rate and eps in the moments'
        dtype, converted once per learning rate, as numpy would convert
        them on every operation: at desk scale a float32 operation on a
        Python float costs half a microsecond more than on the array's
        own scalar type, which is more than its arithmetic."""
        if self._constants[0] != learning_rate:
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            self._constants = (
                learning_rate,
                tuple(map(self.m.dtype.type,
                          (b1, b2, 1.0 - b1, 1.0 - b2, learning_rate, ADAM_EPSILON))),
            )
        return self._constants[1]

    @classmethod
    def for_network(cls, network: Network) -> "AdamState":
        # np.zeros, unlike np.zeros_like, leaves the zeroing of the pages
        # to the first write, so the moments cost nothing before step 1.
        size, dtype = network.params.size, network.dtype
        return cls(m=np.zeros(size, dtype), v=np.zeros(size, dtype))


def adam_step(
    network: Network,
    grads: np.ndarray,
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One Adam update of every parameter, in place, with bias-corrected
    moments (Kingma & Ba 2015, Algorithm 1).

    ``grads`` is a flat gradient from :func:`backward`; it serves as
    scratch space and comes back overwritten. The update is a fixed run
    of in-place vector operations, applied slice by slice over
    ``ADAM_BLOCK`` elements of ``network.params``, and each element goes
    through the same operations in the same order as the textbook
    per-parameter form, so the result is the same to the bit:
    ``m = b1 m + (1-b1) g``, ``v = b2 v + (g g)(1-b2)``, then
    ``p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)``.
    """
    shape, dtype = network.params.shape, network.dtype
    if grads.shape != shape or grads.dtype != dtype:
        raise ShapeError(
            f"gradient of shape {grads.shape} and dtype {grads.dtype} for "
            f"{network.params.size} {dtype} parameters"
        )
    moments = (state.m.shape, state.v.shape, state.m.dtype, state.v.dtype)
    if moments != (shape, shape, dtype, dtype):
        raise ShapeError(
            f"Adam moments of shapes {state.m.shape} and {state.v.shape} for "
            f"{network.params.size} {dtype} parameters"
        )
    state.t += 1
    b1, b2, keep1, keep2, lr, eps = state.constants(config.learning_rate)
    debias1 = dtype.type(1.0 - ADAM_BETA1**state.t)
    debias2 = dtype.type(1.0 - ADAM_BETA2**state.t)
    for start in range(0, network.params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g = network.params[block], grads[block]
        m, v = state.m[block], state.v[block]
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
        rng = RngStream(seed, stream_id(KIND_GRAD_CHECK, 0))
        masks = draw_dropout_masks(network, np.asarray(x).shape[0], rng)
    out, cache = forward(network, x, masks)
    _, loss_grad = mse_loss(out, target)
    analytic = backward(network, cache, loss_grad)
    numeric = numerical_gradients(network, x, target, masks=masks, h=h)
    return max_relative_error(analytic, numeric)
