"""Cross-modal autoencoder: embed one matrix so it reconstructs another.

The model reads a standardized input matrix X (n samples by p features),
funnels it through a fixed chain of dense layers to a small linear
bottleneck of size d, then expands to predict the standardized paired
matrix Y (n by q). The bottleneck activations are the embedding. Layer
widths are derived from p and q by ceiling division:

    p -> ceil(p/5) -> ceil(p/25) -> ceil(p/625) -> d
      -> ceil(q/625) -> ceil(q/25) -> ceil(q/5) -> q

Hidden layers are relu; the bottleneck and the output are linear.
Dropout on the three encoder hidden layers is (0.20, 0.10, 0) and on the
three decoder hidden layers (0, 0.10, 0.20), so the layers nearest the
wide data matrices are regularized hardest and the bottleneck itself is
never dropped.

Training is plain minibatch Adam on mean squared reconstruction error in
the standardized Y space. Everything downstream of the config seed is
deterministic; see fit() for the stream layout.
"""

from __future__ import annotations

import math
import struct
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
    DenseLayer,
    Network,
    TrainConfig,
    adam_step,
    backward,
    draw_dropout_masks,
    forward,
    mse_loss,
    predict,
)

# Index of the bottleneck among the 8 dense layers (0-based): the layer
# whose output is the embedding.
BOTTLENECK_INDEX = 3

# Initial bias for relu layers; see build_network for why not zero.
RELU_BIAS_INIT = 0.5

_ENCODER_DROPOUT = (0.20, 0.10, 0.0)
_DECODER_DROPOUT = (0.0, 0.10, 0.20)

_MAGIC = b"AIMB"
_FORMAT_VERSION = 1
_LAYER_COUNT = 8
_ACTIVATION_CODES = {"linear": 0, "relu": 1}
_ACTIVATION_NAMES = {code: name for name, code in _ACTIVATION_CODES.items()}


@dataclass(frozen=True)
class Architecture:
    """Derived layer plan for one (p, q, d) triple."""

    input_size: int
    output_size: int
    embedding_size: int
    encoder_sizes: tuple[int, int, int]
    decoder_sizes: tuple[int, int, int]
    encoder_dropout: tuple[float, float, float] = _ENCODER_DROPOUT
    decoder_dropout: tuple[float, float, float] = _DECODER_DROPOUT

    @property
    def layer_sizes(self) -> list[int]:
        """All 9 sizes from input to output, bottleneck in the middle."""
        return [
            self.input_size,
            *self.encoder_sizes,
            self.embedding_size,
            *self.decoder_sizes,
            self.output_size,
        ]

    def layer_specs(self) -> list[tuple[int, int, str, float]]:
        """(fan_in, fan_out, activation, dropout_rate) for each of the
        8 dense layers."""
        sizes = self.layer_sizes
        activations = ["relu"] * 3 + ["linear"] + ["relu"] * 3 + ["linear"]
        dropout = [*self.encoder_dropout, 0.0, *self.decoder_dropout, 0.0]
        return [
            (sizes[i], sizes[i + 1], activations[i], dropout[i])
            for i in range(_LAYER_COUNT)
        ]


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


def build_architecture(p: int, q: int, d: int) -> Architecture:
    """Layer plan for input width p, output width q, embedding size d."""
    for name, value in (("input width", p), ("output width", q), ("embedding size", d)):
        if value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value}")
    return Architecture(
        input_size=p,
        output_size=q,
        embedding_size=d,
        encoder_sizes=_hidden_widths(p, d),
        decoder_sizes=_hidden_widths(q, d)[::-1],
    )


def build_network(arch: Architecture, seed: int) -> Network:
    """Freshly initialized network for the plan, deterministic in seed.

    Each layer draws from its own stream, so widening one layer never
    shifts another layer's initial weights. Relu layers get He-uniform
    weights (limit sqrt(6 / fan_in)), linear layers Glorot-uniform
    (limit sqrt(6 / (fan_in + fan_out))).

    Linear biases start at zero; relu biases start at a small positive
    constant. The derived funnel still has 1-unit relu layers when d = 1
    or the data width is under 6, and with a zero bias such a unit
    is stillborn for the roughly half of seeds where its weight points
    away from its nonnegative input cone - its gradient is then exactly
    zero and the whole encoder freezes. A positive bias keeps every unit
    initially active so training can decide.
    """
    layers = []
    for index, (fan_in, fan_out, activation, rate) in enumerate(arch.layer_specs()):
        rng = RngStream(seed, stream_id(KIND_INIT, index))
        if activation == "relu":
            limit = math.sqrt(6.0 / fan_in)
            bias = np.full(fan_out, RELU_BIAS_INIT)
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            bias = np.zeros(fan_out)
        weights = rng.uniform(-limit, limit, (fan_out, fan_in))
        layers.append(
            DenseLayer(
                weights=weights,
                bias=bias,
                activation=activation,
                dropout_rate=rate,
            )
        )
    return Network(layers, bottleneck_index=BOTTLENECK_INDEX)


@dataclass
class AimeModel:
    """A trained embedding model plus everything needed to apply it."""

    architecture: Architecture
    network: Network
    seed: int
    input_means: np.ndarray
    input_sds: np.ndarray
    output_means: np.ndarray
    output_sds: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    @property
    def input_size(self) -> int:
        return self.architecture.input_size

    @property
    def output_size(self) -> int:
        return self.architecture.output_size

    @property
    def embedding_size(self) -> int:
        return self.architecture.embedding_size


def fit(
    x,
    y,
    embedding_size: int,
    config: TrainConfig | None = None,
) -> AimeModel:
    """Train an embedding model on paired matrices with aligned rows.

    Both matrices are standardized column-wise with their own training
    statistics (stored on the model). Each epoch shuffles the row order
    with stream (KIND_SHUFFLE, epoch) and draws dropout masks batch by
    batch from stream (KIND_DROPOUT, epoch), so a (config, data) pair
    always yields the same model. A batch size above n falls back to one
    full batch. The recorded loss history is the row-weighted mean
    training MSE per epoch, in standardized Y units.

    Dropout is annealed in (curriculum dropout, after Morerio et al.
    2017, with a linear schedule): epoch e of E drops units at (e+1)/E of
    each layer's rate, so the last epoch trains at the full rates. At
    desk scale the hidden layers have a handful of units, and with the
    full rates from the first step the embedding recovers the latent
    structure markedly less often (README, design notes).

    After training, the bottleneck is re-expressed in its principal axes
    on the training rows (see _canonical_bottleneck); the network computes
    the same function, and with zero epochs it is returned as initialized.

    Raises NumericalError if the loss goes non-finite (diverged run).
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
    arch = build_architecture(x.shape[1], y.shape[1], embedding_size)
    input_means, input_sds = column_stats(x)
    output_means, output_sds = column_stats(y)
    xs = standardize_columns(x, input_means, input_sds)
    ys = standardize_columns(y, output_means, output_sds)

    network = build_network(arch, seed)
    state = AdamState.for_network(network)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = permuted(np.arange(n), RngStream(seed, stream_id(KIND_SHUFFLE, epoch)))
        mask_rng = RngStream(seed, stream_id(KIND_DROPOUT, epoch))
        ramp = (epoch + 1) / config.epochs
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = xs[idx], ys[idx]
            masks = draw_dropout_masks(network, len(idx), mask_rng, ramp)
            out, cache = forward(network, xb, mode="train", masks=masks)
            loss, loss_grad = mse_loss(out, yb)
            grads = backward(network, cache, loss_grad)
            adam_step(network, grads, state, config)
            total += loss * len(idx)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise NumericalError(
                f"training loss became non-finite at epoch {epoch + 1}; "
                "lower the learning rate or check the data scale"
            )
        history.append(epoch_loss)
    if history:
        _canonical_bottleneck(network, xs)

    return AimeModel(
        architecture=arch,
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
    with no variance (below 1e-8 of the largest) are rotated but not
    scaled, so a degenerate embedding keeps its numerical rank.
    """
    b = network.bottleneck_index
    emb = forward(network, xs, stop=b + 1)[0]
    mean = emb.mean(axis=0)
    centered = emb - mean
    # Zero rows pad n < d up to a full set of d right singular vectors.
    padding = np.zeros((max(emb.shape[1] - len(xs), 0), emb.shape[1]))
    _, singular, vt = np.linalg.svd(np.vstack([centered, padding]), full_matrices=False)
    axes = vt.T
    pivots = np.argmax(np.abs(axes), axis=0)
    axes = axes * np.sign(axes[pivots, np.arange(axes.shape[1])])
    sds = singular / np.sqrt(len(xs) - 1)
    scale = np.where(sds > 1e-8 * sds[0], sds, 1.0)
    # new = T (old - mean) with T = diag(1/scale) axes^T; T^-1 = axes diag(scale)
    encode, nxt = network.layers[b], network.layers[b + 1]
    transform = axes.T / scale[:, None]
    # Written in place: the layers are views into network.params.
    encode.weights[...] = transform @ encode.weights
    encode.bias[...] = transform @ (encode.bias - mean)
    nxt.bias += nxt.weights @ mean
    nxt.weights[...] = nxt.weights @ (axes * scale)


def embed(model: AimeModel, x) -> np.ndarray:
    """Bottleneck activations (n, d) for new rows of the input modality.

    Rows are standardized with the model's stored training statistics, so
    embeddings of new data live in the same space as the training ones.
    Only the encoder runs, up to the bottleneck.
    """
    x = as_matrix(x, name="x")
    if x.shape[1] != model.network.input_size:
        raise ShapeError(
            f"x has {x.shape[1]} columns, model expects {model.network.input_size}"
        )
    xs = standardize_columns(x, model.input_means, model.input_sds)
    return forward(model.network, xs, stop=model.network.bottleneck_index + 1)[0]


def reconstruct(model: AimeModel, x) -> np.ndarray:
    """Predicted paired matrix (n, q), mapped back to original Y units."""
    x = as_matrix(x, name="x")
    if x.shape[1] != model.network.input_size:
        raise ShapeError(
            f"x has {x.shape[1]} columns, model expects {model.network.input_size}"
        )
    xs = standardize_columns(x, model.input_means, model.input_sds)
    out = predict(model.network, xs)
    return destandardize_columns(out, model.output_means, model.output_sds)


def save_model(model: AimeModel, path) -> None:
    """Write the model to the versioned binary format (see
    docs/model_format.md). Same model, same bytes."""
    chunks = [_MAGIC, struct.pack("<I", _FORMAT_VERSION)]
    chunks.append(
        struct.pack(
            "<6Q",
            model.input_size,
            model.output_size,
            model.embedding_size,
            model.seed,
            model.network.bottleneck_index,
            len(model.network.layers),
        )
    )
    history = np.asarray(model.loss_history, dtype="<f8")
    chunks.append(struct.pack("<Q", history.size))
    chunks.append(history.tobytes())
    for stats in (model.input_means, model.input_sds, model.output_means, model.output_sds):
        chunks.append(np.asarray(stats, dtype="<f8").tobytes())
    for layer in model.network.layers:
        chunks.append(
            struct.pack(
                "<QQBd",
                layer.fan_out,
                layer.fan_in,
                _ACTIVATION_CODES[layer.activation],
                layer.dropout_rate,
            )
        )
        chunks.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        chunks.append(np.asarray(layer.bias, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, count: int) -> int:
        """Offset of the next ``count`` bytes, which are then passed."""
        if self.pos + count > len(self.data):
            raise ParseError(
                f"model file truncated: needed {count} bytes at offset {self.pos}"
            )
        self.pos += count
        return self.pos - count

    def take(self, count: int) -> bytes:
        start = self.skip(count)
        return self.data[start : self.pos]

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        """The next ``count`` doubles as a read-only view of the file bytes."""
        start = self.skip(8 * count)
        return np.frombuffer(self.data, dtype="<f8", count=count, offset=start)


def load_model(path) -> AimeModel:
    """Read a model written by save_model; malformed files raise ParseError."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != _MAGIC:
        raise ParseError("not a model file: bad magic bytes")
    (version,) = reader.unpack("<I")
    if version != _FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {version}")
    p, q, d, seed, bottleneck, n_layers = reader.unpack("<6Q")
    if n_layers != _LAYER_COUNT:
        raise ParseError(f"expected {_LAYER_COUNT} layers, header says {n_layers}")
    (history_len,) = reader.unpack("<Q")
    history = reader.floats(history_len).tolist()
    # Copies, so that nothing in the model pins the file bytes; the layer
    # weights stay views because Network copies them into its buffer.
    input_means = reader.floats(p).astype(np.float64)
    input_sds = reader.floats(p).astype(np.float64)
    output_means = reader.floats(q).astype(np.float64)
    output_sds = reader.floats(q).astype(np.float64)
    layers = []
    for index in range(n_layers):
        fan_out, fan_in, act_code, rate = reader.unpack("<QQBd")
        if act_code not in _ACTIVATION_NAMES:
            raise ParseError(f"layer {index}: unknown activation code {act_code}")
        weights = reader.floats(fan_out * fan_in).reshape(fan_out, fan_in)
        bias = reader.floats(fan_out)
        layers.append(
            DenseLayer(
                weights=weights,
                bias=bias,
                activation=_ACTIVATION_NAMES[act_code],
                dropout_rate=rate,
            )
        )
    if reader.pos != len(reader.data):
        raise ParseError(
            f"{len(reader.data) - reader.pos} unexpected trailing bytes"
        )
    if bottleneck >= n_layers:
        raise ParseError("bottleneck index out of range for the layer count")
    network = Network(layers, bottleneck_index=bottleneck)
    if network.input_size != p or network.output_size != q:
        raise ParseError("layer shapes disagree with the header sizes")
    if network.layers[bottleneck].fan_out != d:
        raise ParseError("bottleneck width disagrees with the header sizes")
    arch = Architecture(
        input_size=p,
        output_size=q,
        embedding_size=d,
        encoder_sizes=tuple(layers[i].fan_out for i in range(3)),
        decoder_sizes=tuple(layers[i].fan_out for i in range(4, 7)),
        encoder_dropout=tuple(layers[i].dropout_rate for i in range(3)),
        decoder_dropout=tuple(layers[i].dropout_rate for i in range(4, 7)),
    )
    return AimeModel(
        architecture=arch,
        network=network,
        seed=seed,
        input_means=input_means,
        input_sds=input_sds,
        output_means=output_means,
        output_sds=output_sds,
        loss_history=history,
    )
