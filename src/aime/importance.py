"""Permutation-based importance of input variables for a trained embedding.

Each input column is shuffled a number of times while everything else stays
fixed; the score is the average squared Frobenius distance between the
embedding of the shuffled data and the embedding of the original data
(Breiman 2001). A column the embedding never looks at scores exactly zero.

Column j's shuffles are the successive permutations drawn from its own
stream, ``rng_stream(seed, KIND_IMPORTANCE, j)``, one repeat after
another. So scores do not depend on the order in which columns are
evaluated, a column's score can be recomputed alone, and ``repeats=R``
uses the first R shuffles of ``repeats=R+1``.

Shuffling commutes with the column-wise standardization, and shuffling
column j changes the first layer's pre-activation ``z0 = Xs W0^T + b0``
only by the rank-1 term ``(x'_j - x_j) w_j^T``. So ``z0`` is computed
once, and each column costs one stacked pass over layers 1 to the
bottleneck, on just the rows that its shuffles move.
"""

from __future__ import annotations

import warnings

import numpy as np

# embed and permute_column stay importable here: bench/run.py's tracer
# wraps them under these names.
from .aime_model import AimeModel, _finite_embedding, _standardized_input, embed  # noqa: F401
from .errors import DomainError
from .matrix_core import (  # noqa: F401
    KIND_IMPORTANCE,
    check_seed,
    permute_column,
    permuted,
    rng_stream,
)
from .neural_net import forward

DEFAULT_REPEATS = 10

# permutation_importance stacks as many of a column's repeats into one
# pass as keep the stacked layer-0 pre-activations within this many
# elements (4 MiB in float32), and at least one repeat, so its memory
# does not grow with the number of repeats.
STACK_ELEMENTS = 1 << 20


# An overflow is reported as a NumericalError, not by numpy's warnings.
@np.errstate(over="ignore", invalid="ignore")
def permutation_importance(
    model: AimeModel,
    x,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> np.ndarray:
    """Score of each column of ``x``, as a float64 vector of length p.

    One layer-0 product for all columns, then per column one stacked pass
    over layers 1 to the bottleneck, on the rows that its repeats move,
    in place of p x repeats encoder passes over a full copy of x. At
    paper width (n=32, p=5459, 10 repeats, a 1-epoch model; 2-core host,
    BLAS on 1 thread) a column takes 0.003 s, against 0.13 s for a pass
    per shuffle. The scores equal those of the per-shuffle computation
    up to rounding. A column whose shuffles move no layer-0
    pre-activation (a zero weight column, a constant column, identity
    shuffles) scores exactly 0.0. Warns (UserWarning) when every score is
    0.0, as for a collapsed model's constant embedding: the scores then
    rank nothing. An embedding of ``x``, or of a shuffled copy, that is
    not finite raises NumericalError.
    """
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
    check_seed(seed)
    network = model.network
    last = network.bottleneck_index
    first = network.layers[0]
    relu = first.activation == "relu"

    def encode(z: np.ndarray) -> np.ndarray:
        """Embedding of rows whose layer-0 pre-activation is ``z``."""
        a = np.maximum(z, network.relu_floor) if relu else z
        return forward(network, a, start=1, stop=last + 1)[0] if last else a

    # _standardized_input checks the width against the model.
    baseline, cache = forward(network, _standardized_input(model, x), stop=last + 1)
    z0, xs = cache.pre_activations[0], cache.x
    baseline = _finite_embedding(baseline)
    n = len(xs)
    block = max(1, STACK_ELEMENTS // max(1, n * first.fan_out))
    scores = np.zeros(xs.shape[1])
    for j in range(xs.shape[1]):
        w = first.weights[:, j]
        if not w.any():
            continue
        column = xs[:, j]
        rng = rng_stream(seed, KIND_IMPORTANCE, j)
        total = 0.0
        for done in range(0, repeats, block):
            moves = np.stack(
                [permuted(column, rng) - column for _ in range(min(block, repeats - done))]
            )
            # Rows whose value did not move keep z0, so their embedding
            # is the baseline's and they add exactly 0.
            moved = np.nonzero(moves)
            rows = moved[1]
            if not len(rows):
                continue
            z = z0[rows]
            z += np.multiply.outer(moves[moved], w)
            delta = _finite_embedding(encode(z)) - baseline[rows]
            total += float((delta * delta).sum())
        scores[j] = total / repeats
    if not scores.any():
        warnings.warn(
            "every importance score is 0: shuffling no column moves the "
            "embedding, so the ranking is in column order",
            stacklevel=2,
        )
    return scores


def top_fraction(scores: np.ndarray, fraction: float) -> list[int]:
    """Indices of the highest ceil(fraction * p) scores, by descending score
    with ties in ascending index order.

    The count is the fraction as written: the fewest k with k / p at
    least the fraction, k / p rounded to a float as the fraction was. So
    0.07 of 100 is 7, where the float product 0.07 * 100 is
    7.000000000000001, and the ratio 10 / p of p is 10.
    """
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    p = len(scores)
    count = 1 + int(np.searchsorted(np.arange(1, p + 1) / p, fraction))
    # lexsort's last key dominates: sort by descending score, then index
    order = np.lexsort((np.arange(p), -np.asarray(scores)))
    return [int(j) for j in order[:count]]
