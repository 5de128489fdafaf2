"""Matrix helpers and deterministic random streams.

Matrices are plain 2-D float64 numpy arrays stored row-major with samples
in rows. No function here mutates its inputs.

Stream-id registry
------------------
Random streams are numpy Generators made by :func:`rng_stream`, which keys
Philox by ``[base_seed, (kind << 48) + index]``. One ``KIND_*`` constant
per consumer keeps independent subsystems from colliding on stream ids
derived from one seed; kind 0 is unassigned. A Generator is stateful, and
each one has a single owner.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ColumnError,
    ColumnIndexError,
    DataError,
    DomainError,
    InsufficientDataError,
    ShapeError,
)

# Stream kinds (see module docstring).
KIND_SHUFFLE = 1
KIND_DROPOUT = 2
KIND_INIT = 3
KIND_GRAD_CHECK = 4
KIND_SYNTH_LATENT = 5
KIND_SYNTH_COEF_X = 6
KIND_SYNTH_NOISE_X = 7
KIND_SYNTH_COEF_Y = 8
KIND_SYNTH_NOISE_Y = 9
KIND_SYNTH_SIGNAL = 10
KIND_FOLDS = 11
KIND_IMPORTANCE = 12

_SD_CONSTANT_FLOOR = 1e-12

_U64 = 2**64


def check_seed(seed: int) -> None:
    """Raise DomainError naming ``seed`` unless it fits a stream's 64-bit
    base seed; commands check their ``--seed`` with this before any work."""
    if not 0 <= seed < _U64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")


def rng_stream(base_seed: int, kind: int, index: int = 0) -> np.random.Generator:
    """The deterministic random stream of one consumer: numpy's Generator
    on Philox keyed by ``[base_seed, (kind << 48) + index]``.

    The key fully determines the output sequence, on every platform.
    Distinct keys under one base seed give statistically independent
    streams, so independently scheduled work stays reproducible.
    """
    check_seed(base_seed)
    stream_id = (kind << 48) + index
    if not 0 <= stream_id < _U64:
        raise DomainError(f"stream_id must fit in 64 bits, got {stream_id}")
    key = np.array([base_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry of ``values`` is finite (True when it is empty).
    min and max propagate NaN and reach any infinity, so the test needs no
    array-sized mask, as ``np.isfinite(values).all()`` would."""
    return not values.size or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def check_columns_finite(m: np.ndarray, name: str, reason: str) -> None:
    """Raise ColumnError with ``reason``, naming matrix ``name`` and the
    first column of the 2-D ``m`` that holds a non-finite value."""
    if not all_finite(m):
        raise ColumnError(name, int(np.argmin(np.isfinite(m).all(axis=0))), reason)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a fresh 2-D float64 array, rejecting NaN/Inf."""
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    if not all_finite(arr):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def permuted(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Copy of a 1-D array in the order of ``rng``'s next permutation."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ShapeError(f"permuted expects a 1-D array, got {values.ndim}-D")
    return values[rng.permutation(len(values))]


def permute_column(m: np.ndarray, col: int, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``m`` with column ``col`` uniformly permuted; ``m`` untouched."""
    if not 0 <= col < m.shape[1]:
        raise ColumnIndexError(f"column {col} out of range for {m.shape[1]} columns")
    out = m.copy()
    out[:, col] = permuted(m[:, col], rng)
    return out


def sign_fixed(m: np.ndarray) -> np.ndarray:
    """Copy of ``m`` with each column negated whose largest-magnitude entry
    (the first of them, on a tie) is negative, so that entry is positive."""
    pivots = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    return m * np.where(pivots < 0, -1.0, 1.0)


def svd_thin(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD through ``numpy.linalg.svd``.

    Returns ``(u, s, v)`` with ``u`` of shape (rows, r), ``s`` nonincreasing
    of length r, ``v`` of shape (cols, r), r = min(rows, cols), such that
    ``u @ diag(s) @ v.T`` reconstructs ``m``.
    """
    m = as_matrix(m, name="svd operand")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u, s, vt.T


def column_stats(m: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sample standard deviation (n - 1 divisor). The
    first column whose mean or sd overflows, as values beyond about 1.3e154
    do when squared, raises ColumnError naming it in matrix ``name``."""
    if m.shape[0] < 2:
        raise InsufficientDataError(
            f"standard deviation needs at least 2 rows, got {m.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        means = m.mean(axis=0)
        sds = m.std(axis=0, ddof=1)
    reason = "values too large for a finite mean and standard deviation"
    check_columns_finite(np.stack([means, sds]), name, reason)
    return means, sds


def _column_scaling(m: np.ndarray, means, sds) -> tuple[np.ndarray, ...]:
    """Checked statistics for the columns of ``m``: the means, the sds with
    those of constant columns (sd below 1e-12) set to 1, and the mask of
    constant columns."""
    means = np.asarray(means, dtype=np.float64)
    sds = np.asarray(sds, dtype=np.float64)
    if means.shape != (m.shape[1],) or sds.shape != (m.shape[1],):
        raise ShapeError(
            f"statistics of lengths {means.shape[0]}/{sds.shape[0]} do not match "
            f"{m.shape[1]} columns"
        )
    constant = sds < _SD_CONSTANT_FLOOR
    return means, np.where(constant, 1.0, sds), constant


def standardize_columns(
    m: np.ndarray, means: np.ndarray, sds: np.ndarray
) -> np.ndarray:
    """Z-score columns with the supplied statistics.

    Columns whose sd is below 1e-12 are treated as constant and mapped to
    all zeros.
    """
    means, safe_sds, constant = _column_scaling(m, means, sds)
    out = (m - means) / safe_sds
    out[:, constant] = 0.0
    return out


def destandardize_columns(
    m: np.ndarray, means: np.ndarray, sds: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`standardize_columns` for non-constant columns."""
    means, safe_sds, constant = _column_scaling(m, means, sds)
    out = m * safe_sds + means
    out[:, constant] = means[constant]
    return out
