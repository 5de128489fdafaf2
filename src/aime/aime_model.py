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
    all_finite,
    as_matrix,
    check_columns_finite,
    column_stats,
    destandardize_columns,
    permuted,
    rng_stream,
    sign_fixed,
    standardize_columns,
    svd_thin,
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

_MAGIC = b"AIMB"
_FORMAT_VERSION = 2
# magic, version, p, q, d, seed, bottleneck index, layer count, epoch count
_HEADER = struct.Struct("<4sI7Q")
# Each layer's record, before its weights and bias: fan_out, fan_in,
# activation code, dropout rate.
_RECORD = struct.Struct("<QQBd")
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
        rng = rng_stream(seed, KIND_INIT, index)
        weights = layer.weights.reshape(-1)
        for start in range(0, weights.size, _INIT_BLOCK):
            block = scratch[: min(_INIT_BLOCK, weights.size - start)]
            rng.random(out=block)
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
    than the embedding; when the trained embedding of the training rows
    has numerical rank below d, as a collapsed run's has; and when a relu
    layer is dead, with no unit that fires on any training row. Raises
    NumericalError when the run diverged: the loss, the embedding of the
    training rows or, after the fold, the parameters are not finite.
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
    input_means, input_sds = column_stats(x, "x")
    output_means, output_sds = column_stats(y, "y")
    xs = standardize_columns(x, input_means, input_sds).astype(PARAM_DTYPE)
    ys = standardize_columns(y, output_means, output_sds).astype(PARAM_DTYPE)
    # as_matrix's float64 copies are not needed past this point; training
    # would otherwise hold them throughout.
    del x, y

    network = build_network(plan, seed, PARAM_DTYPE)
    state = AdamState(network, config.learning_rate)

    def update(span, grad):
        adam_step(state, grad, span)

    history: list[float] = []
    # A diverging run overflows on its way to the NumericalError that
    # reports it; numpy's own warnings would only repeat it, unplaced.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            # permuted gives rng.permutation(n)'s bits; bench/run.py's tracer
            # counts the shuffles through this name.
            order = permuted(np.arange(n), rng_stream(seed, KIND_SHUFFLE, epoch))
            # The epoch's rows in shuffled order, so each batch is a slice.
            x_epoch, y_epoch = xs[order], ys[order]
            mask_rng = rng_stream(seed, KIND_DROPOUT, epoch)
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
                # Adam updates each piece of the gradient as backward hands
                # it over.
                backward(cache, loss_grad, state, update)
                total += loss * len(xb)
            epoch_loss = total / n
            if not np.isfinite(epoch_loss):
                raise NumericalError(
                    f"training loss became non-finite at epoch {epoch + 1}; "
                    "lower the learning rate or check the data scale"
                )
            history.append(epoch_loss)
        if history:
            rank, outputs = _canonical_bottleneck(network, xs)
            if rank < embedding_size:
                warnings.warn(
                    f"the embedding of the {n} training rows has numerical rank "
                    f"{rank}, below d={embedding_size}: {embedding_size - rank} of "
                    "its axes are constant",
                    stacklevel=2,
                )
            for index, (layer, out) in enumerate(zip(network.layers, outputs)):
                if layer.activation == "relu" and not out.any():
                    warnings.warn(
                        f"relu layer {index} (width {layer.fan_out}) is dead: none "
                        f"of its units fires on any of the {n} training rows",
                        stacklevel=2,
                    )

    return AimeModel(
        network=network,
        seed=seed,
        input_means=input_means,
        input_sds=input_sds,
        output_means=output_means,
        output_sds=output_sds,
        loss_history=history,
    )


def _canonical_bottleneck(
    network: Network, xs: np.ndarray
) -> tuple[int, list[np.ndarray]]:
    """Rotate and scale the bottleneck, in place, to its principal axes;
    return the embedding's numerical rank and the outputs on ``xs`` of
    every layer but the output layer, from one pass before the fold.

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
    an sd of about 1e-7 of the largest, from rounding alone. The rank is
    the number of axes with variance. The transform is computed in
    float64 and rounded once into the weights.

    A diverged run raises NumericalError: one whose embedding is not
    finite, which the SVD cannot take, and one whose folded weights
    overflow the network's dtype.
    """
    b = network.bottleneck_index
    _, cache = forward(network, xs, stop=len(network.layers) - 1)
    emb = _finite_embedding(
        cache.outputs[b], "the training rows",
        "training diverged, so lower the learning rate or check the data scale",
    )
    mean = emb.mean(axis=0)
    centered = emb - mean
    # Zero rows pad n < d up to a full set of d right singular vectors.
    padding = np.zeros((max(emb.shape[1] - len(xs), 0), emb.shape[1]))
    _, singular, axes = svd_thin(np.vstack([centered, padding]))
    axes = sign_fixed(axes)
    sds = singular / np.sqrt(len(xs) - 1)
    live = sds > np.sqrt(np.finfo(network.dtype).eps) * sds[0]
    scale = np.where(live, sds, 1.0)
    # new = T (old - mean) with T = diag(1/scale) axes^T; T^-1 = axes diag(scale)
    encode, nxt = network.layers[b], network.layers[b + 1]
    transform = axes.T / scale[:, None]
    # Written in place: the layers are views into network.params.
    encode.weights[...] = transform @ encode.weights
    encode.bias[...] = transform @ (encode.bias - mean)
    nxt.bias[...] += nxt.weights @ mean
    nxt.weights[...] = nxt.weights @ (axes * scale)
    if not all_finite(network.params):
        raise NumericalError(
            "the weights overflowed when the embedding's axes were folded in; "
            "training diverged, so lower the learning rate"
        )
    return int(np.count_nonzero(live)), cache.outputs


def _finite_embedding(
    encoded: np.ndarray, rows: str = "x", cause: str = "the model's weights overflow on it"
) -> np.ndarray:
    """``encoded`` as float64, or NumericalError naming ``rows`` and ``cause``."""
    emb = encoded.astype(np.float64)
    if not all_finite(emb):
        raise NumericalError(f"the embedding of {rows} is not finite; {cause}")
    return emb


def _standardized_input(model: AimeModel, x) -> np.ndarray:
    """Rows of the input modality, checked against the model's input width,
    standardized with its training statistics and cast to the network's
    dtype. A column with a value outside that dtype's range raises
    ColumnError naming it."""
    x = as_matrix(x, name="x")
    network = model.network
    if x.shape[1] != network.input_size:
        raise ShapeError(f"x has {x.shape[1]} columns, model expects {network.input_size}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # Rebinding x frees the raw copy before the cast, so embed's peak
        # holds one float64 and one cast copy of x, not two float64 ones.
        x = standardize_columns(x, model.input_means, model.input_sds)
        xs = x.astype(network.dtype)
    reason = f"values outside the network's {network.dtype} range once standardized"
    check_columns_finite(xs, "x", reason)
    return xs


def embed(model: AimeModel, x) -> np.ndarray:
    """Bottleneck activations (n, d) for new rows of the input modality.

    Rows are standardized with the model's stored training statistics, so
    embeddings of new data live in the same space as the training ones.
    Only the encoder runs, up to the bottleneck, in the network's dtype;
    the result is float64. An embedding that is not finite raises
    NumericalError.
    """
    xs = _standardized_input(model, x)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        emb = forward(model.network, xs, stop=model.network.bottleneck_index + 1)[0]
    return _finite_embedding(emb)


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
    history = np.asarray(model.loss_history, dtype="<f8")
    header = [
        _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, network.input_size, network.output_size,
            model.embedding_size, model.seed, network.bottleneck_index,
            len(network.layers), history.size,
        ),
        history.tobytes(),
    ]
    for stats in (model.input_means, model.input_sds, model.output_means, model.output_sds):
        header.append(np.asarray(stats, dtype="<f8").tobytes())
    views = network.layer_views(network.params.astype("<f4", copy=False))
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        for layer, (weights, bias) in zip(network.layers, views):
            code = _ACTIVATION_CODES[layer.activation]
            fh.write(_RECORD.pack(layer.fan_out, layer.fan_in, code, layer.dropout_rate))
            fh.write(weights)
            fh.write(bias)


def _read_into(fh, out) -> None:
    """Fill ``out`` from the file. The size was checked up front, so a short
    read means the file shrank while it was being read."""
    offset = fh.tell()
    if fh.readinto(out) != memoryview(out).nbytes:
        raise ParseError(f"model file truncated at offset {offset}")


def _check(values: np.ndarray, what: str, nonnegative: bool = False) -> None:
    if not all_finite(values):
        raise ParseError(f"model file: non-finite value in {what}")
    if nonnegative and values.size and values.min() < 0:
        raise ParseError(f"model file: negative value in {what}")


def load_model(path) -> AimeModel:
    """Read a model written by save_model; malformed files, including
    non-finite values in any field and negative sds or losses, raise
    ParseError.

    The header's p, q and d fix the layer plan ``build_architecture(p, q,
    d)``, and with the epoch count the exact file size, which is checked
    before anything is allocated. The file is then read once, front to
    back: each layer record is checked against the plan, and the layer's
    weights and bias are read straight into the network's views.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != _MAGIC:
            raise ParseError("not a model file: bad magic bytes")
        if len(head) < _HEADER.size:
            raise ParseError(f"model file truncated: {len(head)}-byte header")
        _, version, p, q, d, seed, bottleneck, n_layers, epochs = _HEADER.unpack(head)
        if version == 1:
            raise ParseError(
                "model format version 1 (float64 parameters) is no longer read; "
                "retrain the model to write version 2"
            )
        if version != _FORMAT_VERSION:
            raise ParseError(f"unsupported model format version {version}")
        try:
            plan = build_architecture(p, q, d)
        except DomainError as exc:
            raise ParseError(f"model file: {exc}") from None
        if bottleneck != BOTTLENECK_INDEX:
            raise ParseError(
                f"model file: bottleneck index {bottleneck}, expected "
                f"{BOTTLENECK_INDEX}"
            )
        if n_layers != len(plan):
            raise ParseError(
                f"model file: expected {len(plan)} layers, header says {n_layers}"
            )
        n_stats = epochs + 2 * (p + q)
        expected = _HEADER.size + 8 * n_stats + sum(
            _RECORD.size + PARAM_DTYPE.itemsize * fan_out * (fan_in + 1)
            for fan_in, fan_out, _, _ in plan
        )
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise ParseError(
                f"model file truncated: its header implies {expected} bytes, "
                f"the file has {size}"
            )
        stats = np.empty(n_stats)
        _read_into(fh, stats)
        network = Network(plan, BOTTLENECK_INDEX, PARAM_DTYPE)
        record = bytearray(_RECORD.size)
        for index, (spec, layer) in enumerate(zip(plan, network.layers)):
            _read_into(fh, record)
            fan_out, fan_in, act_code, rate = _RECORD.unpack(record)
            activation = _ACTIVATION_NAMES.get(act_code, f"code {act_code}")
            if (fan_in, fan_out, activation, rate) != spec:
                raise ParseError(
                    f"model file: layer {index}: (fan_in, fan_out, activation, "
                    "dropout) is "
                    f"{(fan_in, fan_out, activation, rate)} in the file, but "
                    f"{spec} in AIME's plan for p={p}, q={q}, d={d}"
                )
            _read_into(fh, layer.weights)
            _read_into(fh, layer.bias)
        if size > expected:
            raise ParseError(f"model file: {size - expected} unexpected trailing bytes")
    # The file is little-endian; numpy arrays hold native values.
    if sys.byteorder == "big":
        stats.byteswap(inplace=True)
        network.params.byteswap(inplace=True)
    names = ("loss history", "x means", "x sds", "y means", "y sds")
    fields = dict(zip(names, np.split(stats, np.cumsum([epochs, p, p, q]))))
    for what, values in fields.items():
        _check(values, what, nonnegative=not what.endswith("means"))
    for index, layer in enumerate(network.layers):
        _check(layer.weights, f"layer {index} weights")
        _check(layer.bias, f"layer {index} bias")
    return AimeModel(
        network=network,
        seed=seed,
        input_means=fields["x means"],
        input_sds=fields["x sds"],
        output_means=fields["y means"],
        output_sds=fields["y sds"],
        loss_history=fields["loss history"].tolist(),
    )
