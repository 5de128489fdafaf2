"""Cross-modal autoencoder: embed one matrix so it reconstructs another.

The model reads a standardized input matrix X (n samples by p features),
funnels it through a fixed chain of dense layers to a small linear
bottleneck of size d, then expands to predict the standardized paired
matrix Y (n by q). The bottleneck activations are the embedding. The
hidden widths on each side are ceil(w/5), ceil(w/25) and ceil(w/625) of
its data width w, the last two floored at 2d and d (see _hidden_widths):
p = q = 40 and d = 4 give 40-8-8-4-4-4-8-8-40, and the paper's p = 5459,
q = 5703, d = 4 give 5459-1092-219-9-4-10-229-1141-5703.

Hidden layers are relu; the bottleneck and the output are linear.
Dropout on the three encoder hidden layers is (0.20, 0.10, 0) and on the
three decoder hidden layers (0, 0.10, 0.20), so the layers nearest the
wide data matrices are regularized hardest and the bottleneck itself is
never dropped.

Training is plain minibatch Adam on mean squared reconstruction error in
the standardized Y space, with float32 parameters, activations, gradients
and moments (PARAM_DTYPE) and the loss accumulated in float64; model files
store the parameters as float32 too. Everything downstream of the config
seed is deterministic; see fit() for the stream layout.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AimeError,
    AlignmentError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    ParseError,
    ShapeError,
)
from .matrix_core import (
    KIND_DROPOUT,
    KIND_INIT,
    KIND_SHUFFLE,
    RngStream,
    as_matrix,
    column_stats,
    destandardize_columns,
    permuted,
    standardize_columns,
    stream_id,
)
from .neural_net import (
    AdamState,
    LayerSpec,
    Network,
    TrainConfig,
    adam_step,
    backward,
    draw_dropout_masks,
    forward,
    mse_loss,
)

# Index of the bottleneck among the 8 dense layers (0-based): the layer
# whose output is the embedding.
BOTTLENECK_INDEX = 3

# Initial bias for relu layers; see build_network for why not zero.
RELU_BIAS_INIT = 0.5

# The dtype fit trains in and model files store the parameters in.
PARAM_DTYPE = np.dtype(np.float32)

# build_network draws this many weights at a time into a float64 scratch
# block (256 KiB), so initialization never holds a float64 copy of a layer.
_INIT_BLOCK = 1 << 15

# One entry per dense layer, input to output: three relu encoder layers,
# the linear bottleneck, three relu decoder layers and the linear output.
_ACTIVATIONS = ("relu",) * 3 + ("linear",) + ("relu",) * 3 + ("linear",)
_DROPOUT_RATES = (0.20, 0.10, 0.0, 0.0, 0.0, 0.10, 0.20, 0.0)
_LAYER_COUNT = len(_ACTIVATIONS)

_MAGIC = b"AIMB"
_FORMAT_VERSION = 2
_ACTIVATION_CODES = {"linear": 0, "relu": 1}
_ACTIVATION_NAMES = {code: name for name, code in _ACTIVATION_CODES.items()}


def _hidden_widths(width: int, d: int) -> tuple[int, int, int]:
    """Hidden widths on one side, nearest the data matrix first.

    The derived widths ceil(w/25) and ceil(w/625) are floored at 2d and d,
    but never above ceil(w/5), so the funnel still only narrows. Without
    the floors every matrix under 626 columns gets a 1-unit waist and a
    rank-1 embedding whatever d is.
    """
    cap = math.ceil(width / 5)
    return (
        cap,
        max(math.ceil(width / 25), min(cap, 2 * d)),
        max(math.ceil(width / 625), min(cap, d)),
    )


def build_architecture(p: int, q: int, d: int) -> list[LayerSpec]:
    """Layer plan for input width p, output width q, embedding size d:
    one (fan_in, fan_out, activation, dropout_rate) spec per dense layer.
    The embedding may be no wider than the narrower data matrix."""
    for name, value in (("input width", p), ("output width", q), ("embedding size", d)):
        if value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value}")
    if d > min(p, q):
        raise DomainError(
            f"embedding size {d} exceeds min(p, q) = {min(p, q)} data columns"
        )
    sizes = [p, *_hidden_widths(p, d), d, *_hidden_widths(q, d)[::-1], q]
    return list(zip(sizes, sizes[1:], _ACTIVATIONS, _DROPOUT_RATES))


def build_network(plan: list[LayerSpec], seed: int, dtype=np.float64) -> Network:
    """Freshly initialized network for the plan, deterministic in seed.

    Each layer draws from its own stream, so widening one layer never
    shifts another layer's initial weights. Relu layers get He-uniform
    weights (limit sqrt(6 / fan_in)), linear layers Glorot-uniform
    (limit sqrt(6 / (fan_in + fan_out))).

    The weights are drawn in float64, a block at a time, and written into
    the layer views of ``params``; a float32 network (``PARAM_DTYPE``,
    what fit trains) holds the float64 draws rounded once, and a float64
    one (the default, for the gradient oracle) holds them exactly.

    Linear biases start at zero; relu biases start at a small positive
    constant. The derived funnel still has 1-unit relu layers when d = 1
    or the data width is under 6, and with a zero bias such a unit
    is stillborn for the roughly half of seeds where its weight points
    away from its nonnegative input cone - its gradient is then exactly
    zero and the whole encoder freezes. A positive bias keeps every unit
    initially active so training can decide.
    """
    network = Network(plan, bottleneck_index=BOTTLENECK_INDEX, dtype=dtype)
    scratch = np.empty(min(_INIT_BLOCK, network.params.size))
    for index, layer in enumerate(network.layers):
        if layer.activation == "relu":
            limit = math.sqrt(6.0 / layer.fan_in)
            layer.bias[...] = RELU_BIAS_INIT
        else:
            limit = math.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        # Block by block, the draws of rng.uniform(-limit, limit, shape):
        # each weight is -limit + (2 limit) u, to the bit.
        rng = RngStream(seed, stream_id(KIND_INIT, index))
        weights = layer.weights.reshape(-1)
        for start in range(0, weights.size, _INIT_BLOCK):
            block = scratch[: min(_INIT_BLOCK, weights.size - start)]
            rng.fill_uniform(block)
            block *= 2.0 * limit
            block -= limit
            weights[start : start + block.size] = block
    return network


@dataclass
class AimeModel:
    """A trained embedding model plus everything needed to apply it. The
    network is the only description of its layers."""

    network: Network
    seed: int
    input_means: np.ndarray
    input_sds: np.ndarray
    output_means: np.ndarray
    output_sds: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    @property
    def embedding_size(self) -> int:
        return self.network.layers[self.network.bottleneck_index].fan_out


def fit(
    x,
    y,
    embedding_size: int,
    config: TrainConfig | None = None,
) -> AimeModel:
    """Train an embedding model on paired matrices with aligned rows.

    Both matrices are standardized column-wise with their own training
    statistics (stored on the model). Each epoch shuffles the row order
    with stream (KIND_SHUFFLE, epoch) and draws its dropout masks from
    stream (KIND_DROPOUT, epoch) in one call, batch by batch in stream
    order, so a (config, data) pair always yields the same model. A batch
    size above n falls back to one full batch. The recorded loss history
    is the row-weighted mean training MSE per epoch, in standardized Y
    units.

    Dropout is annealed in (curriculum dropout, after Morerio et al.
    2017, with a linear schedule): epoch e of E drops units at (e+1)/E of
    each layer's rate, so the last epoch trains at the full rates. At
    desk scale the hidden layers have a handful of units, and with the
    full rates from the first step the embedding recovers the latent
    structure markedly less often (README, design notes).

    After training, the bottleneck is re-expressed in its principal axes
    on the training rows (see _canonical_bottleneck); the network computes
    the same function, and with zero epochs it is returned as initialized.

    Warns (UserWarning) when a side is under 5d features wide: its hidden
    layers then have ceil(w/5) < d units, so the funnel there is narrower
    than the embedding. Raises NumericalError if the loss goes non-finite
    (diverged run).
    """
    if config is None:
        config = TrainConfig()
    x = as_matrix(x, name="x")
    y = as_matrix(y, name="y")
    if x.shape[0] != y.shape[0]:
        raise AlignmentError(
            f"x has {x.shape[0]} rows but y has {y.shape[0]}; rows must be "
            "the same samples in the same order"
        )
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"training needs at least 2 samples, got {n}")

    seed = config.seed
    plan = build_architecture(x.shape[1], y.shape[1], embedding_size)
    for side, width, widest in (
        ("input", x.shape[1], plan[0][1]),
        ("output", y.shape[1], plan[-1][0]),
    ):
        if widest < embedding_size:
            warnings.warn(
                f"{side} width {width} is narrow for embedding size "
                f"d={embedding_size}: its hidden layers have at most "
                f"ceil({width}/5) = {widest} units, fewer than d",
                stacklevel=2,
            )
    input_means, input_sds = column_stats(x)
    output_means, output_sds = column_stats(y)
    xs = standardize_columns(x, input_means, input_sds).astype(PARAM_DTYPE)
    ys = standardize_columns(y, output_means, output_sds).astype(PARAM_DTYPE)

    network = build_network(plan, seed, PARAM_DTYPE)
    state = AdamState.for_network(network)
    grads = np.empty_like(network.params)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = permuted(np.arange(n), RngStream(seed, stream_id(KIND_SHUFFLE, epoch)))
        # The epoch's rows in shuffled order, so each batch is a slice.
        x_epoch, y_epoch = xs[order], ys[order]
        mask_rng = RngStream(seed, stream_id(KIND_DROPOUT, epoch))
        ramp = (epoch + 1) / config.epochs
        # The epoch's masks in one draw; each batch's are a row slice.
        epoch_masks = draw_dropout_masks(network, n, mask_rng, ramp, config.batch_size)
        total = 0.0
        for start in range(0, n, config.batch_size):
            rows = slice(start, start + config.batch_size)
            xb, yb = x_epoch[rows], y_epoch[rows]
            masks = [None if m is None else m[rows] for m in epoch_masks]
            out, cache = forward(network, xb, masks)
            loss, loss_grad = mse_loss(out, yb)
            backward(network, cache, loss_grad, out=grads)
            adam_step(network, grads, state, config)
            total += loss * len(xb)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise NumericalError(
                f"training loss became non-finite at epoch {epoch + 1}; "
                "lower the learning rate or check the data scale"
            )
        history.append(epoch_loss)
    # backward keeps views of the last gradient buffer; the model need not.
    network._grad_views = None
    if history:
        _canonical_bottleneck(network, xs)

    return AimeModel(
        network=network,
        seed=seed,
        input_means=input_means,
        input_sds=input_sds,
        output_means=output_means,
        output_sds=output_sds,
        loss_history=history,
    )


def _canonical_bottleneck(network: Network, xs: np.ndarray) -> None:
    """Rotate and scale the bottleneck, in place, to its principal axes.

    The bottleneck is linear and feeds an affine layer, so any invertible
    affine change of its coordinates, undone in the next layer's weights,
    leaves the network's output unchanged. This picks the one that makes
    the embedding of the training rows zero-mean with uncorrelated
    unit-variance columns in order of decreasing variance (the basis CCA
    variates come in); each axis's largest weight is made positive. Axes
    with no variance are rotated but not scaled, so a degenerate embedding
    keeps its numerical rank. No variance means an sd below sqrt(eps) of
    the largest, eps of the network's dtype (3.5e-4 for float32): a
    float32 pass leaves an axis that is constant in exact arithmetic with
    an sd of about 1e-7 of the largest, from rounding alone. The
    transform is computed in float64 and rounded once into the weights.
    """
    b = network.bottleneck_index
    emb = forward(network, xs, stop=b + 1)[0].astype(np.float64)
    mean = emb.mean(axis=0)
    centered = emb - mean
    # Zero rows pad n < d up to a full set of d right singular vectors.
    padding = np.zeros((max(emb.shape[1] - len(xs), 0), emb.shape[1]))
    _, singular, vt = np.linalg.svd(np.vstack([centered, padding]), full_matrices=False)
    axes = vt.T
    pivots = np.argmax(np.abs(axes), axis=0)
    axes = axes * np.sign(axes[pivots, np.arange(axes.shape[1])])
    sds = singular / np.sqrt(len(xs) - 1)
    scale = np.where(sds > np.sqrt(np.finfo(network.dtype).eps) * sds[0], sds, 1.0)
    # new = T (old - mean) with T = diag(1/scale) axes^T; T^-1 = axes diag(scale)
    encode, nxt = network.layers[b], network.layers[b + 1]
    transform = axes.T / scale[:, None]
    # Written in place: the layers are views into network.params.
    encode.weights[...] = transform @ encode.weights
    encode.bias[...] = transform @ (encode.bias - mean)
    nxt.bias += nxt.weights @ mean
    nxt.weights[...] = nxt.weights @ (axes * scale)


def _standardized_input(model: AimeModel, x) -> np.ndarray:
    """Rows of the input modality, checked against the model's input width
    and standardized with its training statistics."""
    x = as_matrix(x, name="x")
    if x.shape[1] != model.network.input_size:
        raise ShapeError(
            f"x has {x.shape[1]} columns, model expects {model.network.input_size}"
        )
    return standardize_columns(x, model.input_means, model.input_sds)


def embed(model: AimeModel, x) -> np.ndarray:
    """Bottleneck activations (n, d) for new rows of the input modality.

    Rows are standardized with the model's stored training statistics, so
    embeddings of new data live in the same space as the training ones.
    Only the encoder runs, up to the bottleneck, in the network's dtype;
    the result is float64.
    """
    xs = _standardized_input(model, x)
    emb = forward(model.network, xs, stop=model.network.bottleneck_index + 1)[0]
    return emb.astype(np.float64)


def reconstruct(model: AimeModel, x) -> np.ndarray:
    """Predicted paired matrix (n, q), mapped back to original Y units, as
    float64 (the float64 statistics promote the network's output)."""
    out = forward(model.network, _standardized_input(model, x))[0]
    return destandardize_columns(out, model.output_means, model.output_sds)


def save_model(model: AimeModel, path) -> None:
    """Write the model to the versioned binary format (see
    docs/model_format.md). Same model, same bytes.

    The parameters are stored as float32. The layers are written straight
    from views of a float32 parameter buffer, so saving a trained model
    makes no copy of the parameters (on a little-endian host; a
    big-endian one converts them once, as does a float64 network, which
    is rounded).
    """
    network = model.network
    header = [_MAGIC, struct.pack("<I", _FORMAT_VERSION)]
    header.append(
        struct.pack(
            "<6Q",
            network.input_size,
            network.output_size,
            model.embedding_size,
            model.seed,
            network.bottleneck_index,
            len(network.layers),
        )
    )
    history = np.asarray(model.loss_history, dtype="<f8")
    header.append(struct.pack("<Q", history.size))
    header.append(history.tobytes())
    for stats in (model.input_means, model.input_sds, model.output_means, model.output_sds):
        header.append(np.asarray(stats, dtype="<f8").tobytes())
    views = network.layer_views(network.params.astype("<f4", copy=False))
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        for layer, (weights, bias) in zip(network.layers, views):
            fh.write(
                struct.pack(
                    "<QQBd",
                    layer.fan_out,
                    layer.fan_in,
                    _ACTIVATION_CODES[layer.activation],
                    layer.dropout_rate,
                )
            )
            fh.write(weights)
            fh.write(bias)


class _Reader:
    """Reads a model file, checking every length against the file size
    before it reads (or anything allocates) the bytes."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def skip(self, count: int) -> int:
        """Offset of the next ``count`` bytes, which are then passed."""
        if self.pos + count > self.size:
            raise ParseError(
                f"model file truncated: needed {count} bytes at offset {self.pos}"
            )
        self.pos += count
        return self.pos - count

    def take(self, count: int) -> bytes:
        self.fh.seek(self.skip(count))
        return self.fh.read(count)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)

    def fill(self, start: int, out: np.ndarray) -> None:
        """Read ``out.nbytes`` bytes at offset ``start`` into ``out``."""
        self.fh.seek(start)
        if self.fh.readinto(out) != out.nbytes:
            raise ParseError(f"model file truncated at offset {start}")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    # min and max propagate NaN and reach any infinity, without the
    # layer-sized mask np.isfinite would allocate.
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ParseError(f"model file: non-finite value in {what}")
    return values


def load_model(path) -> AimeModel:
    """Read a model written by save_model; malformed files, including
    non-finite values in any field, raise ParseError.

    A first pass reads the header and the layer record headers and checks
    that the declared sizes fill the file exactly; only then is the
    network allocated, and each layer's parameters are read straight
    into its views.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.take(4) != _MAGIC:
            raise ParseError("not a model file: bad magic bytes")
        (version,) = reader.unpack("<I")
        if version == 1:
            raise ParseError(
                "model format version 1 (float64 parameters) is no longer read; "
                "retrain the model to write version 2"
            )
        if version != _FORMAT_VERSION:
            raise ParseError(f"unsupported model format version {version}")
        p, q, d, seed, bottleneck, n_layers = reader.unpack("<6Q")
        if n_layers != _LAYER_COUNT:
            raise ParseError(f"expected {_LAYER_COUNT} layers, header says {n_layers}")
        (history_len,) = reader.unpack("<Q")
        history = _finite(reader.floats(history_len), "loss history").tolist()
        input_means = _finite(reader.floats(p), "x means")
        input_sds = _finite(reader.floats(p), "x sds")
        output_means = _finite(reader.floats(q), "y means")
        output_sds = _finite(reader.floats(q), "y sds")
        specs, starts = [], []
        for index in range(n_layers):
            fan_out, fan_in, act_code, rate = reader.unpack("<QQBd")
            if act_code not in _ACTIVATION_NAMES:
                raise ParseError(f"layer {index}: unknown activation code {act_code}")
            specs.append((fan_in, fan_out, _ACTIVATION_NAMES[act_code], rate))
            starts.append(reader.skip(PARAM_DTYPE.itemsize * fan_out * (fan_in + 1)))
        if reader.pos != reader.size:
            raise ParseError(f"{reader.size - reader.pos} unexpected trailing bytes")
        try:
            network = Network(specs, bottleneck_index=bottleneck, dtype=PARAM_DTYPE)
        except AimeError as exc:
            raise ParseError(f"model file: {exc}") from None
        if network.input_size != p or network.output_size != q:
            raise ParseError("layer shapes disagree with the header sizes")
        if bottleneck != BOTTLENECK_INDEX:
            raise ParseError(
                f"bottleneck index {bottleneck}, expected {BOTTLENECK_INDEX}"
            )
        if network.layers[bottleneck].fan_out != d:
            raise ParseError("bottleneck width disagrees with the header sizes")
        for layer, start in zip(network.layers, starts):
            reader.fill(start, layer.weights)
            reader.fill(start + layer.weights.nbytes, layer.bias)
    # The file is little-endian; ``params`` holds native float32s.
    if sys.byteorder == "big":
        network.params.byteswap(inplace=True)
    for index, layer in enumerate(network.layers):
        _finite(layer.weights, f"layer {index} weights")
        _finite(layer.bias, f"layer {index} bias")
    return AimeModel(
        network=network,
        seed=seed,
        input_means=input_means,
        input_sds=input_sds,
        output_means=output_means,
        output_sds=output_sds,
        loss_history=history,
    )
