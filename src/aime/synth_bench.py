"""Paired synthetic datasets with planted two-factor latent structure.

Both data blocks are driven by the same hidden factors z1, z2. The X block
always depends on them linearly; the Y block either linearly (so classical
linear methods succeed) or through centered second-order terms only. In the
quadratic design every Y column is built from z1^2 - 1, z2^2 - 1 and z1*z2,
all of which have exactly zero population covariance with z1 and z2, so any
method that relies on linear cross-covariance sees nothing by construction.

Class labels are the quadrant of (z1, z2), giving a 4-way classification
target for scoring how well an embedding separates the hidden factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_io import LabeledMatrix
from .errors import DomainError
from .matrix_core import (
    KIND_FOLDS,
    KIND_SYNTH_COEF_X,
    KIND_SYNTH_COEF_Y,
    KIND_SYNTH_LATENT,
    KIND_SYNTH_NOISE_X,
    KIND_SYNTH_NOISE_Y,
    KIND_SYNTH_SIGNAL,
    as_matrix,
    check_seed,
    column_stats,
    permuted,
    rng_stream,
    standardize_columns,
)

LATENT_DIM = 2
DESIGNS = ("linear", "quadratic")
N_FOLDS = 5


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic dataset.

    The latent dimension is fixed at LATENT_DIM = 2: the quadrant labels
    and the quadratic design are defined for exactly two factors.
    """

    n: int
    p: int
    q: int
    n_signal: int
    noise_sd: float
    design: str
    seed: int

    def __post_init__(self) -> None:
        if self.n < 10:
            raise DomainError(f"need n >= 10 samples, got {self.n}")
        if self.p < 1 or self.q < 1:
            raise DomainError("p and q must be positive")
        if not 0 <= self.n_signal <= self.p:
            raise DomainError(
                f"n_signal must lie in [0, p={self.p}], got {self.n_signal}"
            )
        if not 0 < self.noise_sd < math.inf:
            raise DomainError(f"noise_sd must be finite and > 0, got {self.noise_sd}")
        if self.design not in DESIGNS:
            raise DomainError(
                f"design must be one of {DESIGNS}, got {self.design!r}"
            )
        check_seed(self.seed)


@dataclass
class SynthData:
    x: LabeledMatrix
    y: LabeledMatrix
    latent: np.ndarray
    labels: np.ndarray
    signal_indices: list[int] = field(default_factory=list)


def _unit_rows(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    """Standard normal rows scaled to unit euclidean norm."""
    rows = rng.standard_normal((count, width))
    norms = np.sqrt((rows**2).sum(axis=1))
    # A zero draw has probability zero but would poison the division.
    while (norms < 1e-12).any():
        bad = norms < 1e-12
        rows[bad] = rng.standard_normal((int(bad.sum()), width))
        norms = np.sqrt((rows**2).sum(axis=1))
    return rows / norms[:, None]


def generate(spec: SynthSpec) -> SynthData:
    """Build one dataset from a SynthSpec, fully determined by spec.seed.

    Each random ingredient (latent factors, coefficient rows, noise blocks,
    signal column placement) draws from its own counter-derived stream, so
    changing p never perturbs the Y block and vice versa.
    """
    n, p, q = spec.n, spec.p, spec.q
    z = rng_stream(spec.seed, KIND_SYNTH_LATENT).standard_normal((n, LATENT_DIM))

    placement = permuted(np.arange(p), rng_stream(spec.seed, KIND_SYNTH_SIGNAL))
    signal_indices = sorted(int(j) for j in placement[: spec.n_signal])

    x = spec.noise_sd * rng_stream(spec.seed, KIND_SYNTH_NOISE_X).standard_normal((n, p))
    if spec.n_signal:
        coef_x = _unit_rows(
            rng_stream(spec.seed, KIND_SYNTH_COEF_X), spec.n_signal, LATENT_DIM
        )
        x[:, signal_indices] += z @ coef_x.T

    coef_rng = rng_stream(spec.seed, KIND_SYNTH_COEF_Y)
    y = spec.noise_sd * rng_stream(spec.seed, KIND_SYNTH_NOISE_Y).standard_normal((n, q))
    if spec.design == "linear":
        coef_y = _unit_rows(coef_rng, q, LATENT_DIM)
        y += z @ coef_y.T
    else:
        coef_y = _unit_rows(coef_rng, q, 3)
        terms = np.column_stack(
            [z[:, 0] ** 2 - 1.0, z[:, 1] ** 2 - 1.0, z[:, 0] * z[:, 1]]
        )
        y += terms @ coef_y.T

    labels = (z[:, 0] > 0).astype(np.int64) + 2 * (z[:, 1] > 0).astype(np.int64)
    sample_ids = [f"s{i}" for i in range(n)]
    return SynthData(
        x=LabeledMatrix(x, sample_ids, [f"x{j}" for j in range(p)]),
        y=LabeledMatrix(y, list(sample_ids), [f"y{j}" for j in range(q)]),
        latent=z,
        labels=labels,
        signal_indices=signal_indices,
    )


def evaluate_embedding(embedding, labels, seed: int = 0) -> float:
    """5-fold cross-validated accuracy of a one-nearest-centroid classifier.

    Columns are standardized first (constant columns become zeros). Fold
    assignment shuffles the sample order with a stream derived from ``seed``
    and splits it into 5 nearly equal parts, so the score is reproducible.
    A class absent from a training split simply has no centroid; its test
    samples count as errors.
    """
    emb = as_matrix(embedding)
    labels = np.asarray(labels)
    n = emb.shape[0]
    if labels.shape != (n,):
        raise DomainError(
            f"labels shape {labels.shape} does not match {n} embedding rows"
        )
    if emb.shape[1] < 1:
        raise DomainError("embedding needs at least one column")
    if n < N_FOLDS:
        raise DomainError(f"need at least {N_FOLDS} samples, got {n}")
    if len(np.unique(labels)) < 2:
        raise DomainError("need at least 2 distinct classes to score")

    emb = standardize_columns(emb, *column_stats(emb))

    order = permuted(np.arange(n), rng_stream(seed, KIND_FOLDS))
    correct = 0
    for fold in np.array_split(order, N_FOLDS):
        train = np.setdiff1d(order, fold)
        train_labels = labels[train]
        classes = np.unique(train_labels)
        centroids = np.stack(
            [emb[train[train_labels == c]].mean(axis=0) for c in classes]
        )
        deltas = emb[fold][:, None, :] - centroids[None, :, :]
        nearest = np.argmin((deltas**2).sum(axis=2), axis=1)
        correct += int((classes[nearest] == labels[fold]).sum())
    return correct / n
