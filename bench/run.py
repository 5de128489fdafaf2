#!/usr/bin/env python3
"""Benchmark of the aime command-line chain on seeded synthetic data.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 50 --trace 0

One workload is one process and one closed loop: ``aime synth`` builds
the inputs, then the chain filter -> train -> embed -> [importance] ->
[cca] -> plot runs again and again, each command starting when the
previous one has finished, for as many whole chains as fit in
``--seconds``. Commands are called in-process through
``aime.cli.main(..., standalone_mode=False)``, so interpreter start-up
and imports stay out of the chain; ``setup_s`` times them, with
``aime synth``, in fresh interpreters (median over several set-ups).

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
medians over the chains run. Each command's wall time is scaled by the
host's speed around it (see ``probe``): the shared host this was tuned
on runs every process up to about twice as slow for tens of seconds at
a time, which moves raw medians between runs far more than a code
change worth catching (bench/BASELINE.md has the measurements). Raw wall times
are printed too. With ``--trace 1`` the run alternates
untraced and traced chains and reports per-layer self times and computed
work counters instead; spans are written to ``.bench_work/traces/``.
Every output is checked; a command that exits non-zero or fails a check
counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NPROC = len(os.sched_getaffinity(0))

# One BLAS thread: at most nproc, and the steadiest choice on a shared
# host. Must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(SRC))
import click  # noqa: E402
import numpy as np  # noqa: E402

import aime  # noqa: E402
from aime import aime_model, cca_baseline, cli, importance  # noqa: E402
from aime.data_io import read_labeled  # noqa: E402
from aime.errors import AimeError  # noqa: E402
from aime.synth_bench import evaluate_embedding  # noqa: E402

from spans import Tracer  # noqa: E402

DIM = 4
CCA_K = 4
N_SIGNAL = 10
NOISE_SD = 0.3


@dataclass(frozen=True)
class Workload:
    """Input shape and the commands one chain runs on it."""

    n: int
    p: int
    q: int
    design: str
    setups: int  # fresh-interpreter synth runs behind the setup_s median
    epochs: int = 200  # the train command's default
    repeats: int | None = None  # importance shuffles; None: no importance
    cca: bool = False


# Why each workload exists, and why a third one was dropped: bench/BASELINE.md.
WORKLOADS = {
    "desk": Workload(600, 40, 40, "quadratic", setups=11, epochs=40, repeats=2, cca=True),
    "wide": Workload(32, 5459, 5703, "quadratic", setups=9, epochs=1),
}

# (name, unit) in the result line with --trace 0, on every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("chain_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit) in the result line with --trace 1, on every workload.
PER_LAYER = [
    ("neural_net.adam_step.s", "s"),
    ("neural_net.adam_step.calls", "count"),
    ("neural_net.forward.s", "s"),
    ("neural_net.forward.calls", "count"),
    ("neural_net.backward.s", "s"),
    ("neural_net.backward.calls", "count"),
    ("neural_net.draw_dropout_masks.s", "s"),
    ("neural_net.draw_dropout_masks.calls", "count"),
    ("neural_net.mse_loss.s", "s"),
    ("neural_net.mse_loss.calls", "count"),
    ("neural_net.step_ms", "ms"),
    ("neural_net.params", "count"),
    ("neural_net.forward.flops_per_step", "flop"),
    ("neural_net.backward.flops_per_step", "flop"),
    ("neural_net.adam_step.bytes_per_step", "B"),
    ("neural_net.adam_step.gbps", "GB/s"),
    ("neural_net.forward.gflops", "GFLOP/s"),
    ("matrix_core.permuted.s", "s"),
    ("matrix_core.permuted.calls", "count"),
    ("matrix_core.standardize.s", "s"),
    ("aime_model.fit.s", "s"),
    ("aime_model.fit.steps", "count"),
    ("aime_model.save_model.s", "s"),
    ("aime_model.load_model.s", "s"),
    ("aime_model.model_file.mb", "MB"),
    ("aime_model.embed.s", "s"),
    ("aime_model.embed.calls", "count"),
    ("importance.useful_flop_ratio", "ratio"),
    ("data_io.read_labeled.s", "s"),
    ("data_io.read_labeled.mb", "MB"),
    ("data_io.write_labeled.s", "s"),
    ("data_io.write_labeled.mb", "MB"),
    ("data_io.align_samples.s", "s"),
    ("data_io.filter.s", "s"),
    ("synth_bench.generate.s", "s"),
    ("cli.scatter_matrix_svg.s", "s"),
    ("cli.self.s", "s"),
    ("trace_overhead_s", "s"),
]

# Printed in the human-readable lines only: these vary too much between
# seeds or between runs on a shared host to carry a bound, or exist only
# on workloads that run importance and cca (see bench/BASELINE.md).
EXTRA = [
    ("filter_s", "s"),
    ("embed_s", "s"),
    ("importance_s", "s"),
    ("cca_s", "s"),
    ("plot_s", "s"),
    ("chain_wall_s", "s"),
    ("train_wall_s", "s"),
    ("setup_wall_s", "s"),
    ("host_slowdown", "x"),
    ("final_loss", "mse"),
    ("acc_embed", "fraction"),
    ("embed_rank", "count"),
    ("acc_cca", "fraction"),
    ("signal_recall", "fraction"),
    ("failed_frac", "fraction"),
    ("matrix_core.permute_column.s", "s"),
    ("importance.permutation_importance.s", "s"),
    ("importance.columns_per_s", "1/s"),
    ("cca_baseline.fit_cca.s", "s"),
    ("matrix_core.svd_thin.s", "s"),
    ("matrix_core.cholesky.s", "s"),
    ("matrix_core.solve_triangular.s", "s"),
]

# Host-speed probe: a fixed loop of dictionary updates, plain interpreted
# Python like the per-call overhead that dominates the chain's commands.
# PROBE_REF_S is its fastest time on the reference host (2 shared vCPUs
# of an "Intel(R) Xeon(R) Processor", Python 3.11.7). A command's time is
# scaled by PROBE_REF_S over the mean of the probes taken just before and
# after it, which gives its wall time at the host's full speed.
PROBE_LOOPS = 100000
PROBE_REF_S = 0.0112


def probe() -> float:
    """Wall seconds of the host-speed probe."""
    start = time.perf_counter()
    counts: dict[int, float] = {}
    for i in range(PROBE_LOOPS):
        counts[i & 255] = counts.get(i & 255, 0.0) + i * 0.5
    return time.perf_counter() - start


# Adam reads param, grad, m, v and writes param, m, v: 7 float64 per parameter.
ADAM_BYTES_PER_PARAM = 7 * 8
BATCH = 32  # the train command's default batch size


# ---------------------------------------------------------------- tracing


def _macs(network) -> int:
    return sum(layer.weights.size for layer in network.layers)


def _count_forward(counters, args, kwargs, result):
    counters["forward.flops"] += 2 * args[1].shape[0] * _macs(args[0])


def _count_read(counters, args, kwargs, result):
    counters["read.bytes"] += os.path.getsize(args[0])


def _count_write(counters, args, kwargs, result):
    counters["write.bytes"] += os.path.getsize(args[1])


# (module, attribute as its callers look it up, span name, counter)
TRACED = [
    (cli, "generate", "synth_bench.generate", None),
    (cli, "read_labeled", "data_io.read_labeled", _count_read),
    (cli, "write_labeled", "data_io.write_labeled", _count_write),
    (cli, "align_samples", "data_io.align_samples", None),
    (cli, "sd_filter", "data_io.filter", None),
    (cli, "fit", "aime_model.fit", None),
    (cli, "embed", "aime_model.embed", None),
    (cli, "save_model", "aime_model.save_model", None),
    (cli, "load_model", "aime_model.load_model", None),
    (cli, "permutation_importance", "importance.permutation_importance", None),
    (cli, "fit_cca", "cca_baseline.fit_cca", None),
    (cli, "scatter_matrix_svg", "cli.scatter_matrix_svg", None),
    (aime_model, "forward", "neural_net.forward", _count_forward),
    (aime_model, "backward", "neural_net.backward", None),
    (aime_model, "adam_step", "neural_net.adam_step", None),
    (aime_model, "draw_dropout_masks", "neural_net.draw_dropout_masks", None),
    (aime_model, "mse_loss", "neural_net.mse_loss", None),
    (aime_model, "permuted", "matrix_core.permuted", None),
    (aime_model, "standardize_columns", "matrix_core.standardize", None),
    (aime_model, "column_stats", "matrix_core.standardize", None),
    (importance, "embed", "aime_model.embed", None),
    (importance, "permute_column", "matrix_core.permute_column", None),
    (cca_baseline, "svd_thin", "matrix_core.svd_thin", None),
    (cca_baseline, "cholesky", "matrix_core.cholesky", None),
    (cca_baseline, "solve_lower", "matrix_core.solve_triangular", None),
    (cca_baseline, "solve_upper", "matrix_core.solve_triangular", None),
]


def install(tracer: Tracer) -> None:
    for module, attr, name, count in TRACED:
        tracer.wrap(module, attr, name, count)


# ---------------------------------------------------------------- commands


class Chain:
    """File names of one workload's inputs and outputs, and its commands."""

    def __init__(self, work: Workload, seed: int, inputs: Path, out: Path):
        self.work, self.seed = work, seed
        self.x, self.y = inputs / "d_x.tsv", inputs / "d_y.tsv"
        self.labels = inputs / "d_labels.tsv"
        self.signal = inputs / "d_signal.txt"
        self.fx, self.fy = out / "fx.tsv", out / "fy.tsv"
        self.model = out / "model.bin"
        self.history = out / "model.bin.history"
        self.embedding = out / "embedding.tsv"
        self.ranks = out / "importance.tsv"
        self.cca = out / "cca"
        self.svg = out / "embedding.svg"
        self.fraction = N_SIGNAL / work.p

    def commands(self) -> list[tuple[str, list, list[Path]]]:
        """(stage, CLI arguments, output files) in chain order."""
        w = self.work
        train = ["train", self.fx, self.fy, "--dim", DIM, "--seed", self.seed,
                 "--epochs", w.epochs, "--model-out", self.model]
        steps = [
            ("filter", ["filter", self.x, self.fx, "--sd", "--threshold", 0], [self.fx]),
            ("filter", ["filter", self.y, self.fy, "--sd", "--threshold", 0], [self.fy]),
            ("train", train, [self.model, self.history]),
            ("embed", ["embed", self.model, self.fx, self.embedding], [self.embedding]),
        ]
        if w.repeats is not None:
            steps.append((
                "importance",
                ["importance", self.model, self.fx, self.ranks,
                 "--repeats", w.repeats, "--fraction", self.fraction],
                [self.ranks],
            ))
        if w.cca:
            steps.append((
                "cca",
                ["cca", self.fx, self.fy, self.cca, "--k", CCA_K],
                [self.cca_file("x_variates"), self.cca_file("y_variates"),
                 self.cca_file("correlations")],
            ))
        steps.append(
            ("plot", ["plot", self.embedding, self.labels, self.svg], [self.svg])
        )
        return steps

    def cca_file(self, part: str) -> Path:
        return Path(f"{self.cca}_{part}.tsv")

    def check(self, stage: str, outputs: list[Path]) -> str | None:
        """Why a command's outputs are wrong, or None when they are fine."""
        w = self.work
        if stage == "filter":
            # Shape from the header and line count: the byte comparison
            # with the first chain covers the values, and parsing the
            # wide matrices again would cost seconds per chain.
            width = w.p if outputs[0] == self.fx else w.q
            with open(outputs[0], encoding="utf-8") as handle:
                fields = len(handle.readline().split("\t")) - 1
                rows = sum(1 for _ in handle)
            if (rows, fields) != (w.n, width):
                return f"{outputs[0].name} is {rows}x{fields}, not {w.n}x{width}"
        elif stage == "train":
            losses = [float(line.split("\t")[1])
                      for line in self.history.read_text().splitlines()]
            if len(losses) != w.epochs or not all(map(math.isfinite, losses)):
                return "history has the wrong length or a non-finite loss"
        elif stage == "embed":
            values = read_labeled(self.embedding).values
            if values.shape != (w.n, DIM) or not np.isfinite(values).all():
                return f"embedding is {values.shape}, not a finite {w.n}x{DIM}"
        elif stage == "importance":
            rows = self.ranks.read_text().splitlines()[1:]
            ranks = [int(row.split("\t")[2]) for row in rows]
            if ranks != list(range(1, math.ceil(self.fraction * w.p) + 1)):
                return f"importance has ranks {ranks[:3]}..., expected 1..ceil(fraction*p)"
        elif stage == "cca":
            corr = self.correlations()
            if len(corr) != CCA_K or not all(0 <= c <= 1 for c in corr) or any(
                b > a for a, b in zip(corr, corr[1:])
            ):
                return f"canonical correlations {corr} are not {CCA_K} nonincreasing values in [0, 1]"
        elif stage == "plot":
            text = self.svg.read_text()
            if not (text.startswith("<svg") and text.endswith("</svg>\n")):
                return "plot is not a complete SVG document"
        return None

    def correlations(self) -> list[float]:
        text = self.cca_file("correlations").read_text()
        return [float(line.split("\t")[1]) for line in text.splitlines()]

    def quality(self) -> dict[str, float]:
        """Result quality against the planted structure, outside any timing."""
        by_id = cli.read_labels(str(self.labels))
        embedding = read_labeled(self.embedding)
        labels = [by_id[s] for s in embedding.sample_ids]
        last = self.history.read_text().splitlines()[-1]
        out = {
            "final_loss": float(last.split("\t")[1]),
            "acc_embed": evaluate_embedding(embedding.values, labels),
            "embed_rank": int(np.linalg.matrix_rank(
                embedding.values - embedding.values.mean(axis=0))),
        }
        if self.work.cca:
            variates = read_labeled(self.cca_file("x_variates")).values
            out["acc_cca"] = evaluate_embedding(variates, labels)
        if self.work.repeats is not None:
            planted = {f"x{j}" for j in self.signal.read_text().split()}
            rows = self.ranks.read_text().splitlines()[1 : N_SIGNAL + 1]
            top = {row.split("\t")[0] for row in rows}
            out["signal_recall"] = len(top & planted) / N_SIGNAL
        return out


def run_command(args: list) -> tuple[int, float, str]:
    """Call the CLI in-process; (exit code, wall seconds, captured output)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main([str(a) for a in args], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    return code, time.perf_counter() - start, sink.getvalue()


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Outcome:
    """Commands attempted and failed, with the first reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {problem}")


def run_chain(chain: Chain, outcome: Outcome, reference: dict,
              tracer: Tracer | None = None) -> dict[str, float]:
    """One closed-loop pass; returns per-stage and whole-chain seconds
    scaled by host speed, the raw wall seconds of the chain and of train,
    and how many times slower than the reference the host ran.

    Outputs are checked after the timed pass. ``reference`` maps each
    command to the digest of its outputs in the first pass; later passes
    must match it byte for byte.
    """
    scaled: dict[str, float] = {}
    wall: dict[str, float] = {}
    codes = []
    before = probe()
    for stage, args, _ in chain.commands():
        if tracer is None:
            code, seconds, log = run_command(args)
        else:
            code, seconds, log = tracer.call(f"cli.{args[0]}", run_command, args)
        after = probe()
        key = stage + "_s"
        wall[key] = wall.get(key, 0.0) + seconds
        scaled[key] = scaled.get(key, 0.0) + seconds * PROBE_REF_S / ((before + after) / 2)
        before = after
        codes.append((code, log))
    times = dict(scaled, chain_s=sum(scaled.values()), chain_wall_s=sum(wall.values()),
                 train_wall_s=wall["train_s"])
    times["host_slowdown"] = times["chain_wall_s"] / times["chain_s"]

    for i, ((stage, args, outputs), (code, log)) in enumerate(zip(chain.commands(), codes)):
        what = f"{stage} #{i}"
        if code != 0:
            outcome.record(what, f"exit code {code}: {log.strip()[-200:]}")
            continue
        try:
            problem = chain.check(stage, outputs)
            if problem is None:
                sums = digest(outputs)
                if reference.setdefault(i, sums) != sums:
                    problem = "outputs differ from the first pass with the same seed"
        except (OSError, ValueError, IndexError, AimeError) as exc:
            problem = f"unreadable output: {exc!r}"
        outcome.record(what, problem)
    return times


# ---------------------------------------------------------------- set-up


def synth_args(work: Workload, seed: int, prefix: Path) -> list:
    return ["synth", prefix, "--n", work.n, "--p", work.p, "--q", work.q,
            "--n-signal", N_SIGNAL, "--noise-sd", NOISE_SD,
            "--design", work.design, "--seed", seed]


def setup(work: Workload, seed: int, run_dir: Path,
          outcome: Outcome) -> tuple[Path, float, float]:
    """Build the inputs ``work.setups`` times, each in a fresh interpreter
    (start-up, import of aime, ``aime synth``); returns the input directory
    and the median set-up time, scaled by host speed like the commands,
    and raw. Every build must give the same bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, walls, sums = [], [], set()
    before = probe()
    for k in range(work.setups):
        inputs = run_dir / f"inputs{k}"
        inputs.mkdir()
        args = [str(a) for a in synth_args(work, seed, inputs / "d")]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "aime.cli", *args],
            env=env, capture_output=True, text=True, timeout=170,
        )
        walls.append(time.perf_counter() - start)
        after = probe()
        times.append(walls[-1] * PROBE_REF_S / ((before + after) / 2))
        before = after
        files = [inputs / f"d_{part}" for part in ("x.tsv", "y.tsv", "labels.tsv", "signal.txt")]
        if proc.returncode != 0:
            outcome.record(f"synth #{k}", f"exit code {proc.returncode}: {proc.stderr[-200:]}")
            continue
        sums.add(digest(files))
        outcome.record(
            f"synth #{k}",
            None if len(sums) == 1 else "inputs differ between builds with the same seed",
        )
        if k:
            shutil.rmtree(inputs)
    return run_dir / "inputs0", statistics.median(times), statistics.median(walls)


def traced_setup(work: Workload, seed: int, run_dir: Path, outcome: Outcome) -> tuple[Path, float]:
    """Build the inputs once in this process, under a tracer; returns the
    input directory and the self time of ``synth_bench.generate``."""
    inputs = run_dir / "inputs0"
    inputs.mkdir()
    tracer = Tracer()
    install(tracer)
    try:
        code, _, log = run_command(synth_args(work, seed, inputs / "d"))
    finally:
        tracer.restore()
    outcome.record("synth", None if code == 0 else f"exit code {code}: {log[-200:]}")
    return inputs, tracer.self_times()[0]["synth_bench.generate"]


# ---------------------------------------------------------------- metrics


def step_times_ms(tracer: Tracer) -> list[float]:
    """Wall time of each training step: mask draw through Adam update."""
    out, begin = [], None
    for name, start, end, _ in tracer.spans:
        if name == "neural_net.draw_dropout_masks" and begin is None:
            begin = start
        elif name == "neural_net.adam_step" and begin is not None:
            out.append(1000.0 * (end - begin))
            begin = None
    return out


def layer_metrics(tracer: Tracer, chain: Chain) -> dict[str, float]:
    """Per-layer self times, call counts and computed work of one traced chain."""
    self_s, calls = tracer.self_times()
    c = tracer.counters
    model = aime_model.load_model(chain.model)
    params = sum(layer.weights.size + layer.bias.size for layer in model.network.layers)
    macs = _macs(model.network)
    batch = min(BATCH, chain.work.n)
    out = {}
    for layer in ("adam_step", "forward", "backward", "draw_dropout_masks", "mse_loss"):
        out[f"neural_net.{layer}.s"] = self_s[f"neural_net.{layer}"]
        out[f"neural_net.{layer}.calls"] = calls[f"neural_net.{layer}"]
    out.update({
        "neural_net.step_ms": statistics.median(step_times_ms(tracer)),
        "neural_net.params": params,
        "neural_net.forward.flops_per_step": 2 * batch * macs,
        # weight gradients on every layer, input gradients on all but the first
        "neural_net.backward.flops_per_step":
            2 * batch * (2 * macs - model.network.layers[0].weights.size),
        "neural_net.adam_step.bytes_per_step": ADAM_BYTES_PER_PARAM * params,
        "neural_net.adam_step.gbps": calls["neural_net.adam_step"] * ADAM_BYTES_PER_PARAM
        * params / self_s["neural_net.adam_step"] / 1e9,
        "neural_net.forward.gflops": c["forward.flops"] / self_s["neural_net.forward"] / 1e9,
        "matrix_core.permuted.s": self_s["matrix_core.permuted"],
        "matrix_core.permuted.calls": calls["matrix_core.permuted"],
        "matrix_core.standardize.s": self_s["matrix_core.standardize"],
        "aime_model.fit.s": self_s["aime_model.fit"],
        "aime_model.fit.steps": calls["neural_net.adam_step"],
        "aime_model.save_model.s": self_s["aime_model.save_model"],
        "aime_model.load_model.s": self_s["aime_model.load_model"],
        "aime_model.model_file.mb": chain.model.stat().st_size / 1e6,
        "aime_model.embed.s": self_s["aime_model.embed"],
        "aime_model.embed.calls": calls["aime_model.embed"],
        # embed runs all 8 layers but only needs the 4 up to the bottleneck
        "importance.useful_flop_ratio": sum(
            layer.weights.size
            for layer in model.network.layers[: model.network.bottleneck_index + 1]
        ) / macs,
        "data_io.read_labeled.s": self_s["data_io.read_labeled"],
        "data_io.read_labeled.mb": c["read.bytes"] / 1e6,
        "data_io.write_labeled.s": self_s["data_io.write_labeled"],
        "data_io.write_labeled.mb": c["write.bytes"] / 1e6,
        "data_io.align_samples.s": self_s["data_io.align_samples"],
        "data_io.filter.s": self_s["data_io.filter"],
        "cli.scatter_matrix_svg.s": self_s["cli.scatter_matrix_svg"],
        "cli.self.s": sum(s for name, s in self_s.items() if name.startswith("cli.")
                          and name != "cli.scatter_matrix_svg"),
    })
    if chain.work.repeats is not None:
        total = sum(end - start for name, start, end, _ in tracer.spans
                    if name == "importance.permutation_importance")
        out["matrix_core.permute_column.s"] = self_s["matrix_core.permute_column"]
        out["importance.permutation_importance.s"] = self_s["importance.permutation_importance"]
        out["importance.columns_per_s"] = chain.work.p / total
    if chain.work.cca:
        out["cca_baseline.fit_cca.s"] = self_s["cca_baseline.fit_cca"]
        for kernel in ("svd_thin", "cholesky", "solve_triangular"):
            out[f"matrix_core.{kernel}.s"] = self_s[f"matrix_core.{kernel}"]
    return out


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over rows; counts stay whole numbers."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out


# ---------------------------------------------------------------- run


def run(work: Workload, seed: int, seconds: float, trace: bool, label: str) -> dict:
    """Set up, run chains for ``seconds``, check them; returns the result
    object printed as the last stdout line, plus the ungated ``extra``
    figures and the per-chain ``samples`` behind each median."""
    run_dir = WORK / f"{label}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    outcome = Outcome()
    reference: dict = {}
    try:
        if trace:
            inputs, generate_s = traced_setup(work, seed, run_dir, outcome)
        else:
            inputs, setup_s, setup_wall_s = setup(work, seed, run_dir, outcome)
        out = run_dir / "out"
        out.mkdir()
        chain = Chain(work, seed, inputs, out)

        plain, traced, layers = [], [], []
        quality = None
        tracers = []
        start = time.perf_counter()
        loop_s = 0.0  # longest pass so far, probes and checks included
        while not plain or time.perf_counter() - start + loop_s <= seconds:
            begin = time.perf_counter()
            plain.append(run_chain(chain, outcome, reference))
            if quality is None and outcome.failed == 0:
                quality = chain.quality()
            if trace:
                failed_before = outcome.failed
                tracer = Tracer()
                install(tracer)
                try:
                    traced.append(run_chain(chain, outcome, reference, tracer))
                finally:
                    tracer.restore()
                if outcome.failed == failed_before:
                    layers.append(layer_metrics(tracer, chain))
                tracers.append(tracer)
            loop_s = max(loop_s, time.perf_counter() - begin)

        values = dict(medians(plain), **(quality or {}))
        values["failed_frac"] = outcome.failed / outcome.attempted
        if trace:
            if layers:
                values.update(medians(layers))
            values["synth_bench.generate.s"] = generate_s
            values["trace_overhead_s"] = (
                statistics.median(t["chain_s"] for t in traced) - values["chain_s"]
            )
            trace_dir = WORK / "traces"
            trace_dir.mkdir(exist_ok=True)
            with open(trace_dir / f"{run_dir.name}.jsonl", "w", encoding="utf-8") as handle:
                for k, tracer in enumerate(tracers):
                    tracer.write(handle, k)
        else:
            values["setup_s"] = setup_s
            values["setup_wall_s"] = setup_wall_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": values.get(name, float("nan")), "unit": unit}
                for name, unit in (PER_LAYER if trace else END_TO_END)
            },
            "extra": {
                name: {"value": values[name], "unit": unit}
                for name, unit in EXTRA if name in values
            },
            "chains": len(plain),
            "samples": {k: [row[k] for row in plain] for k in plain[0]},
            "reasons": outcome.reasons,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


def report(result: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    print("environment", json.dumps(environment()))
    print(f"chains {result['chains']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for reason in result["reasons"]:
        print("FAILED", reason)
    for group in ("metrics", "extra"):
        for name, m in result[group].items():
            print(f"{name} {m['value']!r} {m['unit']}")
    for name, values in result["samples"].items():
        print(f"per-chain {name} " + " ".join(f"{v:.4f}" for v in values))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not Path(aime.__file__).resolve().is_relative_to(SRC):
        print(f"aime was imported from {aime.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and the set-up interpreters it starts: a
    # new process would otherwise land on the other, idle CPU, whose host
    # speed the probes in this process do not see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(WORKLOADS[opts.workload], opts.seed, opts.seconds,
                 bool(opts.trace), opts.workload)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
