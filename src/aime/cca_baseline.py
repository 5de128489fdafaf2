"""Regularized linear canonical correlation analysis.

Regularization adds a multiple of the identity to each covariance block;
the ``ridge`` argument is a dimensionless scale, with the actual additive
term being ridge * trace(S) / dim per block, so one number covers both
blocks regardless of their units.

The fit is solved in sample space, one code path for every shape
(Vinod 1976; Hardoon, Szedmak & Shawe-Taylor 2004). Each centred block
has a thin SVD ``Xc = Ux diag(sx) Vx^T``, so ``Sxx + lx I`` has the
eigenvalues ``sx^2 / (n-1) + lx`` on the span of ``Vx`` and whitening it
there is the diagonal ``gx = (sx^2 / (n-1) + lx)^(-1/2)``. The canonical
correlations are the singular values of the small core
``diag(gx sx) Ux^T Uy diag(gy sy) / (n-1)``, and with its SVD
``A diag(rho) B^T`` the directions are ``Vx diag(gx) A`` and
``Vy diag(gy) B``, normalized so that ``D^T (Sxx + lx I) D = I``. The cost
is O(n p min(n, p)) for the X block, likewise for Y, plus
O(min(n, p) min(n, q) n) for the core, so blocks far wider than n (the
paper's p = 5459, q = 5703) fit as easily as narrow ones.

The default scale of 1.0 is deliberately strong. With both blocks wider
than a handful of columns, the unregularized leading sample correlation
between even independent matrices is driven far above zero by dimension
alone (around 0.5 at n=600 with 40 columns each side). Shrinking each
covariance halfway toward the average-variance sphere brings the null
leading correlation at that size down to roughly 0.2 while leaving genuine
linear association clearly visible. Pass ridge=0 for textbook CCA. The
default does not help when a block is far wider than n: on independent
N(0, 1) blocks with n=32, p=5459 and q=5703 the leading correlation is
still about 0.995.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, DomainError, ShapeError
from .matrix_core import as_matrix, svd_thin

# fit_cca calls none of these; bench/run.py's trace table wraps them here.
cholesky = np.linalg.cholesky
solve_lower = solve_upper = np.linalg.solve

DEFAULT_RIDGE_SCALE = 1.0


@dataclass
class CcaResult:
    x_directions: np.ndarray
    y_directions: np.ndarray
    correlations: np.ndarray
    x_variates: np.ndarray
    y_variates: np.ndarray
    ridge: float
    x_means: np.ndarray
    y_means: np.ndarray


def fit_cca(x, y, k: int, ridge: float = DEFAULT_RIDGE_SCALE) -> CcaResult:
    """Fit k canonical direction pairs between two paired sample blocks.

    ridge is the regularization scale described in the module docstring;
    0 gives plain CCA and requires both covariance blocks to be nonsingular.
    Directions are sign-fixed per pair: the largest-magnitude coefficient
    across the x and y direction of a pair is made positive, which keeps
    the reported correlation nonnegative and the output deterministic.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    n, p = x.shape
    q = y.shape[1]
    if y.shape[0] != n:
        raise DomainError(
            f"x has {n} rows but y has {y.shape[0]}; samples must be paired"
        )
    if n < 3:
        raise DomainError(f"need at least 3 samples, got {n}")
    if not 1 <= k <= min(n - 1, p, q):
        raise DomainError(
            f"k must lie in [1, min(n-1={n - 1}, p={p}, q={q})], got {k}"
        )
    if ridge < 0:
        raise DomainError(f"ridge must be nonnegative, got {ridge}")
    if ridge == 0 and (p >= n or q >= n):
        raise DomainError(
            "ridge = 0 needs more samples than columns on both sides"
        )

    x_means = x.mean(axis=0)
    y_means = y.mean(axis=0)
    xc = x - x_means
    yc = y - y_means

    ux, sx, vx = svd_thin(xc)
    uy, sy, vy = svd_thin(yc)
    gx = _whitening(sx, xc.shape, ridge)
    gy = _whitening(sy, yc.shape, ridge)
    core = ((gx * sx)[:, None] * (ux.T @ uy) * (gy * sy)) / (n - 1)
    a, s, b = svd_thin(core)

    x_dirs = vx @ (gx[:, None] * a[:, :k])
    y_dirs = vy @ (gy[:, None] * b[:, :k])

    for i in range(k):
        stacked = np.concatenate([x_dirs[:, i], y_dirs[:, i]])
        if stacked[np.argmax(np.abs(stacked))] < 0:
            x_dirs[:, i] = -x_dirs[:, i]
            y_dirs[:, i] = -y_dirs[:, i]

    return CcaResult(
        x_directions=x_dirs,
        y_directions=y_dirs,
        correlations=s[:k].copy(),
        x_variates=xc @ x_dirs,
        y_variates=yc @ y_dirs,
        ridge=float(ridge),
        x_means=x_means,
        y_means=y_means,
    )


def _whitening(s: np.ndarray, shape: tuple[int, int], ridge: float) -> np.ndarray:
    """Per-axis scale ``(s^2 / (n-1) + l)^(-1/2)`` that whitens one centred
    block with singular values ``s``, where ``l = ridge * trace(S) / dim``.

    Without a ridge term, a singular value at or under numpy's
    ``matrix_rank`` tolerance means the covariance block is singular.
    """
    n, dim = shape
    variances = s**2 / (n - 1)
    lam = ridge * variances.sum() / dim
    tol = s[0] * max(shape) * np.finfo(np.float64).eps
    if lam == 0 and s[-1] <= tol:
        raise DefinitenessError(
            f"covariance block is singular (rank {np.sum(s > tol)} of {dim} "
            "columns); increase ridge"
        )
    return 1.0 / np.sqrt(variances + lam)


def project_cca(result: CcaResult, x_new) -> np.ndarray:
    """Map new samples into the fitted canonical coordinates of the X side."""
    x_new = as_matrix(x_new)
    p = result.x_directions.shape[0]
    if x_new.shape[1] != p:
        raise ShapeError(
            f"expected {p} columns to match the fitted X block, "
            f"got {x_new.shape[1]}"
        )
    return (x_new - result.x_means) @ result.x_directions
