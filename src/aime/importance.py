"""Permutation-based importance of input variables for a trained embedding.

Each input column is shuffled a number of times while everything else stays
fixed; the score is the average squared Frobenius distance between the
embedding of the shuffled data and the embedding of the original data. A
column the embedding never looks at scores exactly zero.

Column j's shuffles are the successive permutations drawn from its own
stream, ``(seed, stream_id(KIND_IMPORTANCE, j))``, one repeat after
another. So scores do not depend on the order in which columns are
evaluated, a column's score can be recomputed alone, and ``repeats=R``
uses the first R shuffles of ``repeats=R+1``.
"""

from __future__ import annotations

import math

import numpy as np

from .aime_model import AimeModel, embed
from .errors import DomainError
from .matrix_core import KIND_IMPORTANCE, RngStream, as_matrix, permute_column, stream_id

DEFAULT_REPEATS = 10


def permutation_importance(
    model: AimeModel,
    x,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> np.ndarray:
    """Score of each column of ``x``, as a float64 vector of length p."""
    x = as_matrix(x)
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
    # embed checks the width against the model.
    baseline = embed(model, x)
    scores = np.zeros(x.shape[1])
    for j in range(x.shape[1]):
        rng = RngStream(seed, stream_id(KIND_IMPORTANCE, j))
        total = 0.0
        for _ in range(repeats):
            delta = embed(model, permute_column(x, j, rng)) - baseline
            total += float((delta * delta).sum())
        scores[j] = total / repeats
    return scores


def top_fraction(scores: np.ndarray, fraction: float) -> list[int]:
    """Indices of the highest ceil(fraction * p) scores, by descending score
    with ties in ascending index order."""
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    count = math.ceil(fraction * len(scores))
    # lexsort's last key dominates: sort by descending score, then index
    order = np.lexsort((np.arange(len(scores)), -np.asarray(scores)))
    return [int(j) for j in order[:count]]
