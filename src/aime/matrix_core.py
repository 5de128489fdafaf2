"""Dense matrix kernels and deterministic random streams.

Matrices are plain 2-D float64 numpy arrays stored row-major with samples
in rows. All functions here are pure: inputs are never mutated, and a
:class:`RngStream` is the only stateful object (single-owner by design).

Stream-id registry
------------------
Random streams are addressed by ``(base_seed, stream_id)``. To keep
independent subsystems from colliding on stream ids derived from one seed,
ids are namespaced as ``(kind << 48) + index`` via :func:`stream_id`. The
permutation-importance module is the one exception: it derives ids as
``variable * 2**32 + repeat`` (documented there), which stays below any
``kind << 48`` for realistic variable counts.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ColumnIndexError,
    ConvergenceError,
    DataError,
    DefinitenessError,
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

_SD_CONSTANT_FLOOR = 1e-12

_U64 = 2**64


def stream_id(kind: int, index: int = 0) -> int:
    """Namespaced stream id for the given kind and index."""
    return (kind << 48) + index


class RngStream:
    """Deterministic counter-based random stream.

    The pair ``(base_seed, stream_id)`` fully determines the output
    sequence, on every platform. Distinct stream ids under one base seed
    give statistically independent streams (Philox keyed by both values),
    so independently scheduled work stays reproducible.
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        if not 0 <= base_seed < _U64:
            raise ValueError(f"base_seed must fit in 64 bits, got {base_seed}")
        if not 0 <= stream_id < _U64:
            raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
        self.base_seed = base_seed
        self.stream_id = stream_id
        key = np.array([base_seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed}, stream_id={self.stream_id})"

    def randint_below(self, n: int) -> int:
        """One uniform integer in ``{0, ..., n-1}``."""
        if n < 1:
            raise ValueError(f"randint_below needs n >= 1, got {n}")
        return int(self._gen.integers(n))

    def randints_below(self, bounds: np.ndarray) -> np.ndarray:
        """One uniform integer in ``{0, ..., b-1}`` for each bound ``b``.

        One call, with the same draws and the same stream state after it
        as one :meth:`randint_below` call per bound, in order.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.size and bounds.min() < 1:
            raise ValueError(
                f"randints_below needs every bound >= 1, got {bounds.min()}"
            )
        return self._gen.integers(bounds)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a fresh 2-D float64 array, rejecting NaN/Inf."""
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def permuted(values: np.ndarray, rng: RngStream) -> np.ndarray:
    """Fisher-Yates shuffle of a copy of a 1-D array.

    Draw order is fixed so traces can be replayed: for ``i`` from
    ``n - 1`` down to ``1``, draw ``j = rng.randint_below(i + 1)`` and
    swap positions ``i`` and ``j``. All n - 1 draws come from one
    :meth:`RngStream.randints_below` call, which yields exactly those
    numbers; the swaps then run on a list of positions, and one gather
    applies them.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ShapeError(f"permuted expects a 1-D array, got {values.ndim}-D")
    n = len(values)
    draws = rng.randints_below(np.arange(n, 1, -1)).tolist()
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        order[i], order[j] = order[j], order[i]
    return values[order]


def permute_column(m: np.ndarray, col: int, rng: RngStream) -> np.ndarray:
    """Copy of ``m`` with column ``col`` uniformly permuted; ``m`` untouched."""
    if not 0 <= col < m.shape[1]:
        raise ColumnIndexError(f"column {col} out of range for {m.shape[1]} columns")
    out = m.copy()
    out[:, col] = permuted(m[:, col], rng)
    return out


def cholesky(s: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == s for symmetric positive definite s.

    Symmetry is required within 1e-10 relative to the largest entry. A
    non-positive pivot raises :class:`DefinitenessError` naming the pivot
    index, which callers use to advise regularization.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"cholesky needs a square matrix, got shape {s.shape}")
    n = s.shape[0]
    sym_tol = 1e-10 * max(1.0, float(np.abs(s).max(initial=0.0)))
    if n and float(np.abs(s - s.T).max()) > sym_tol:
        raise ShapeError("cholesky needs a symmetric matrix (asymmetry above 1e-10)")
    L = np.zeros_like(s)
    for j in range(n):
        pivot = s[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= 0.0:
            raise DefinitenessError(
                f"matrix is not positive definite: pivot {pivot:.6e} at index {j}"
            )
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (s[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``l @ x = b`` for lower-triangular ``l`` by forward substitution."""
    if l.shape[0] != l.shape[1] or l.shape[0] != b.shape[0]:
        raise ShapeError(f"cannot solve shapes {l.shape} and {b.shape}")
    n = l.shape[0]
    x = np.zeros_like(b, dtype=np.float64)
    for i in range(n):
        x[i] = (b[i] - l[i, :i] @ x[:i]) / l[i, i]
    return x


def solve_upper(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``u @ x = b`` for upper-triangular ``u`` by back substitution."""
    if u.shape[0] != u.shape[1] or u.shape[0] != b.shape[0]:
        raise ShapeError(f"cannot solve shapes {u.shape} and {b.shape}")
    n = u.shape[0]
    x = np.zeros_like(b, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - u[i, i + 1 :] @ x[i + 1 :]) / u[i, i]
    return x


def svd_thin(
    m: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD by one-sided Jacobi rotation sweeps.

    Returns ``(u, s, v)`` with ``u`` of shape (rows, r), ``s`` nonincreasing
    of length r, ``v`` of shape (cols, r), r = min(rows, cols), such that
    ``u @ diag(s) @ v.T`` reconstructs ``m``. Convergence is reached when
    every column pair satisfies ``|<ai, aj>| <= tol * ||ai|| * ||aj||``;
    exceeding ``max_sweeps`` raises :class:`ConvergenceError` with the
    residual.
    """
    m = as_matrix(m, name="svd operand")
    if m.shape[0] < m.shape[1]:
        v, s, u = svd_thin(m.T, tol=tol, max_sweeps=max_sweeps)
        return u, s, v

    a = m.copy()
    n = a.shape[1]
    v = np.eye(n)
    residual = 0.0
    for _ in range(max_sweeps):
        residual = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ai = a[:, i]
                aj = a[:, j]
                alpha = float(ai @ ai)
                beta = float(aj @ aj)
                gamma = float(ai @ aj)
                if alpha == 0.0 or beta == 0.0:
                    continue
                ratio = abs(gamma) / np.sqrt(alpha * beta)
                residual = max(residual, ratio)
                if ratio <= tol:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = c * t
                a[:, i], a[:, j] = c * ai - sn * aj, sn * ai + c * aj
                vi = v[:, i].copy()
                vj = v[:, j].copy()
                v[:, i] = c * vi - sn * vj
                v[:, j] = sn * vi + c * vj
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge in {max_sweeps} sweeps "
            f"(residual {residual:.3e})"
        )

    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    order = np.argsort(-norms, kind="stable")
    s = norms[order]
    u = np.zeros_like(a)
    scale = float(s[0]) if n else 0.0
    null_cols = []
    for k, idx in enumerate(order):
        if s[k] > scale * 1e-15 and s[k] > 0.0:
            u[:, k] = a[:, idx] / s[k]
        else:
            s[k] = 0.0
            null_cols.append(k)
    if null_cols:
        _fill_orthonormal(u, null_cols)
    return u, s, v[:, order]


def _fill_orthonormal(u: np.ndarray, cols: list[int]) -> None:
    """Fill the listed columns of u with vectors orthonormal to the rest."""
    rows = u.shape[0]
    filled = [k for k in range(u.shape[1]) if k not in cols]
    basis = [u[:, k] for k in filled]
    candidates = iter(range(rows))
    for k in cols:
        while True:
            e = np.zeros(rows)
            e[next(candidates)] = 1.0
            for b in basis:
                e -= (b @ e) * b
            norm = np.linalg.norm(e)
            if norm > 1e-8:
                e /= norm
                u[:, k] = e
                basis.append(e)
                break


def column_stats(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sample standard deviation (n - 1 divisor)."""
    if m.shape[0] < 2:
        raise InsufficientDataError(
            f"standard deviation needs at least 2 rows, got {m.shape[0]}"
        )
    means = m.mean(axis=0)
    sds = m.std(axis=0, ddof=1)
    return means, sds


def standardize_columns(
    m: np.ndarray, means: np.ndarray, sds: np.ndarray
) -> np.ndarray:
    """Z-score columns with the supplied statistics.

    Columns whose sd is below 1e-12 are treated as constant and mapped to
    all zeros.
    """
    means = np.asarray(means, dtype=np.float64)
    sds = np.asarray(sds, dtype=np.float64)
    if means.shape != (m.shape[1],) or sds.shape != (m.shape[1],):
        raise ShapeError(
            f"statistics of lengths {means.shape[0]}/{sds.shape[0]} do not match "
            f"{m.shape[1]} columns"
        )
    constant = sds < _SD_CONSTANT_FLOOR
    safe_sds = np.where(constant, 1.0, sds)
    out = (m - means) / safe_sds
    out[:, constant] = 0.0
    return out


def destandardize_columns(
    m: np.ndarray, means: np.ndarray, sds: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`standardize_columns` for non-constant columns."""
    means = np.asarray(means, dtype=np.float64)
    sds = np.asarray(sds, dtype=np.float64)
    if means.shape != (m.shape[1],) or sds.shape != (m.shape[1],):
        raise ShapeError(
            f"statistics of lengths {means.shape[0]}/{sds.shape[0]} do not match "
            f"{m.shape[1]} columns"
        )
    constant = sds < _SD_CONSTANT_FLOOR
    safe_sds = np.where(constant, 1.0, sds)
    out = m * safe_sds + means
    out[:, constant] = means[constant]
    return out
