#!/usr/bin/env python3
"""Score the desk-scale embedding against CCA over many data seeds.

For each data seed this generates one surrogate dataset (n=600, p=q=40,
10 signal columns, noise sd 0.3), fits the model with the stock
TrainConfig and embedding size 4, and prints one row per seed with the
numbers acceptance criteria 4 and 5 judge on seeds 1-5:

  linear     gap = |acc(model) - acc(CCA, default ridge)|, passes at <= 0.1
  quadratic  margin = acc(model) - acc(CCA, ridge 0), passes at >= 0.25

plus the numerical rank of the embedding and how much of each planted
factor a least-squares read-out of the embedding recovers (R^2). The
summary line counts the seeds that pass. Use seeds other than 1-5 to
judge a model change without tuning it to the acceptance data.

A last block uses each seed as the training seed on criterion 3's
pinned data (n=200, p=q=30, linear, noise sd 0.1, data seed 1) and
prints the epoch-200 / epoch-1 loss ratio, which passes under 0.5.

Usage: python scripts/seed_sweep.py [--design linear|quadratic|both]
                                    [--seeds 6-30]
"""

import argparse
import sys

import numpy as np

from aime.aime_model import embed, fit
from aime.cca_baseline import fit_cca
from aime.neural_net import TrainConfig
from aime.synth_bench import SynthSpec, evaluate_embedding, generate

SIZES = dict(n=600, p=40, q=40, n_signal=10, noise_sd=0.3)
GAP_BOUND = 0.1
MARGIN = 0.25
CRITERION_3_DATA = SynthSpec(
    n=200, p=30, q=30, n_signal=10, noise_sd=0.1, design="linear", seed=1
)
LOSS_RATIO_BOUND = 0.5


def numerical_rank(embedding: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(embedding - embedding.mean(axis=0)))


def factor_r2(embedding: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """R^2 of the least-squares read-out of each latent factor."""
    design = np.column_stack([embedding, np.ones(len(embedding))])
    coef, *_ = np.linalg.lstsq(design, latent, rcond=None)
    resid = latent - design @ coef
    return 1.0 - (resid**2).sum(axis=0) / ((latent - latent.mean(axis=0)) ** 2).sum(axis=0)


def score(design: str, seed: int) -> dict:
    data = generate(SynthSpec(design=design, seed=seed, **SIZES))
    x, y = data.x.values, data.y.values
    emb = embed(fit(x, y, embedding_size=4, config=TrainConfig()), x)
    acc = evaluate_embedding(emb, data.labels)
    if design == "linear":
        reference = evaluate_embedding(fit_cca(x, y, 4).x_variates, data.labels)
        figure, ok = abs(acc - reference), abs(acc - reference) <= GAP_BOUND
    else:
        reference = evaluate_embedding(
            fit_cca(x, y, 4, ridge=0.0).x_variates, data.labels
        )
        figure, ok = acc - reference, acc - reference >= MARGIN
    return dict(
        acc=acc, reference=reference, figure=figure, ok=ok,
        rank=numerical_rank(emb), r2=factor_r2(emb, data.latent),
    )


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--design", choices=("linear", "quadratic", "both"),
                        default="both")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("6-30"),
                        help="inclusive range of data seeds (default 6-30)")
    opts = parser.parse_args()
    designs = ("linear", "quadratic") if opts.design == "both" else (opts.design,)
    for design in designs:
        label = "gap" if design == "linear" else "margin"
        ref = "acc(cca)" if design == "linear" else "acc(cca0)"
        print(f"{design}: seed  acc(model)  {ref}  {label}  pass  rank  R2(z1)  R2(z2)")
        rows = []
        for seed in opts.seeds:
            row = score(design, seed)
            rows.append(row)
            print(
                f"{seed:>{len(design) + 6}}  {row['acc']:>10.3f}  "
                f"{row['reference']:>{len(ref)}.3f}  {row['figure']:>+{len(label)}.2f}  "
                f"{'yes' if row['ok'] else 'no':>4}  {row['rank']:>4}  "
                f"{row['r2'][0]:>6.2f}  {row['r2'][1]:>6.2f}",
                flush=True,
            )
        passed = sum(r["ok"] for r in rows)
        print(f"{design}: {passed}/{len(rows)} seeds pass; median {label} "
              f"{np.median([r['figure'] for r in rows]):+.3f}\n")
    data = generate(CRITERION_3_DATA)
    print("criterion 3: training seed  loss ratio")
    ratios = []
    for seed in opts.seeds:
        history = fit(data.x.values, data.y.values, embedding_size=4,
                      config=TrainConfig(seed=seed)).loss_history
        ratios.append(history[-1] / history[0])
        print(f"{seed:>26}  {ratios[-1]:>10.3f}", flush=True)
    passed = sum(r < LOSS_RATIO_BOUND for r in ratios)
    print(f"criterion 3: {passed}/{len(ratios)} seeds under {LOSS_RATIO_BOUND}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
