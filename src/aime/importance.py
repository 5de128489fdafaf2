"""Permutation-based importance of input variables for a trained embedding.

Each input column is shuffled a number of times while everything else stays
fixed; the score is the average squared Frobenius distance between the
embedding of the shuffled data and the embedding of the original data. A
column the embedding never looks at scores exactly zero.

Each (column, repeat) pair draws its shuffle from its own seed-derived
stream, so scores do not depend on the order in which columns are
evaluated and the work can be split across processes freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aime_model import AimeModel, embed
from .errors import DomainError
from .matrix_core import RngStream, as_matrix, permute_column

DEFAULT_REPEATS = 10

# Column index is packed into bits 32..47 of the stream id, below the
# region used by the named stream kinds, so column streams can never
# collide with them. This caps the supported column count.
MAX_COLUMNS = 1 << 16


def _column_stream(seed: int, column: int, repeat: int) -> RngStream:
    return RngStream(seed, (column << 32) + repeat)


@dataclass
class ImportanceReport:
    """Scores plus the descending-score ranking (ties by ascending index)."""

    scores: np.ndarray
    repeats: int
    seed: int
    ranking: np.ndarray

    @property
    def n_variables(self) -> int:
        return len(self.scores)


def _rank(scores: np.ndarray) -> np.ndarray:
    # lexsort's last key dominates: sort by descending score, then index
    return np.lexsort((np.arange(len(scores)), -scores))


def permutation_importance(
    model: AimeModel,
    x,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> ImportanceReport:
    x = as_matrix(x)
    n, p = x.shape
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
    if p >= MAX_COLUMNS:
        raise DomainError(
            f"at most {MAX_COLUMNS - 1} columns supported, got {p}"
        )
    # embed checks the width against the model.
    baseline = embed(model, x)
    scores = np.zeros(p)
    for j in range(p):
        total = 0.0
        for r in range(repeats):
            shuffled = permute_column(x, j, _column_stream(seed, j, r))
            delta = embed(model, shuffled) - baseline
            total += float((delta * delta).sum())
        scores[j] = total / repeats
    return ImportanceReport(
        scores=scores, repeats=repeats, seed=seed, ranking=_rank(scores)
    )


def top_fraction(report: ImportanceReport, fraction: float) -> list[int]:
    """Indices of the highest-ranked ceil(fraction * p) variables."""
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    count = math.ceil(fraction * report.n_variables)
    return [int(j) for j in report.ranking[:count]]
