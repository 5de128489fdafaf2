"""Command line front end for the whole pipeline.

One executable with subcommands: filter, train, embed, importance, cca,
synth, plot. Any option can also come from a flat key=value config file
via --config, keyed by its parameter name (``d`` for --dim); an explicit
flag always wins over the file. Output files are written atomically
(temp file in the target directory, then rename); train, embed,
importance, cca and plot refuse, before reading anything, an output path
that resolves to one of their input files.

Exit codes: 0 success, 2 validation or usage error, 3 numerical failure.
Warnings go to stderr as ``warning: ...`` lines, before any error line.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import tempfile
import warnings
from collections.abc import Callable

import click
import numpy as np

from .aime_model import embed, fit, load_model, save_model
from .cca_baseline import DEFAULT_RIDGE_SCALE, fit_cca
from .data_io import (
    LabeledMatrix,
    align_samples,
    cv_filter,
    delimiter_char,
    read_labeled,
    read_labeled_text,
    read_text,
    sd_filter,
    write_labeled,
    write_values,
)
from .errors import (
    AimeError,
    ColumnError,
    DataError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .importance import DEFAULT_REPEATS, permutation_importance, top_fraction
from .neural_net import TrainConfig
from .synth_bench import SynthSpec, generate

PALETTE = [
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
]


# ---------------------------------------------------------------- config


def parse_config(text: str, known: set[str]) -> dict[str, str]:
    """Parse flat key=value lines; blank lines and # comments are skipped.
    A key outside ``known``, or one set twice, raises ParseError naming
    its lines."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"config line {line_no}: empty key")
        if key not in known:
            raise ParseError(f"config line {line_no}: no command takes key {key!r}")
        if key in first_line:
            raise ParseError(
                f"config line {line_no}: key {key!r} already set on line {first_line[key]}"
            )
        first_line[key] = line_no
        out[key] = value.strip()
    return out


def _apply_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a config file's values the command's defaults: each goes
    through its option's type, and a flag on the command line wins. One
    file may serve several commands, so a key is rejected only when no
    command that reads --config takes it."""
    if path is not None:
        known: set[str] = set()
        for command in ctx.find_root().command.commands.values():
            names = {p.name for p in command.params}
            if "config" in names:
                known |= names - {"config"}
        try:
            ctx.default_map = parse_config(read_text(path), known)
        except AimeError as exc:
            raise click.BadParameter(str(exc), ctx, param) from None


# ---------------------------------------------------------------- output


def _atomic_write(path: str, write: Callable[[str], None]) -> None:
    """Run ``write(tmp)`` on a temp file in the target's directory, then
    rename it over ``path``; on any failure the temp file is removed and
    ``path`` is left as it was. An error creating the temp file (say, a
    missing directory) names ``path``. The file gets the mode a plain
    ``open(path, "w")`` gives a new file, 0o666 less the umask, not
    mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    os.close(fd)
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    try:
        write(tmp)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _refuse_overwrite(outputs: list[str], inputs: list[str]) -> None:
    """Raise DomainError (exit 2) when an output path resolves to one of
    the command's input files, naming both. Commands call it before
    reading anything, so a mistyped output never replaces its input."""
    for output in outputs:
        for path in inputs:
            if os.path.realpath(output) == os.path.realpath(path):
                raise DomainError(f"output {output} would overwrite the input {path}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_rows(path: str, rows, delimiter: str) -> None:
    """Write ``rows`` to ``path`` atomically, one line each, its fields as
    ``str`` gives them, separated by the ``delimiter``'s character."""
    sep = delimiter_char(delimiter)
    text = "".join(sep.join(map(str, row)) + "\n" for row in rows)
    _atomic_write(path, lambda tmp: _write_text(tmp, text))


@contextlib.contextmanager
def _naming_columns(**inputs: tuple[str, LabeledMatrix]):
    """Re-raise a ColumnError about one of ``inputs``, keyed by the
    library's name for the matrix, as a DataError naming the file and, if
    the error names one, the column's label."""
    try:
        yield
    except ColumnError as exc:
        path, m = inputs[exc.matrix]
        where = "" if exc.column is None else f"column {m.feature_ids[exc.column]!r}: "
        raise DataError(f"{path}: {where}{exc.reason}") from None


def guarded(func):
    """Map library errors to the documented exit codes, and print every
    warning as a ``warning: ...`` line on stderr, before any error line."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return func(*args, **kwargs)
            except NumericalError as exc:
                message, code = f"numerical failure: {exc}", 3
            except (AimeError, OSError) as exc:
                message, code = f"error: {exc}", 2
            finally:
                for warning in caught:
                    click.echo(f"warning: {warning.message}", err=True)
        click.echo(message, err=True)
        sys.exit(code)

    return wrapper


_in_path = click.Path(exists=True, dir_okay=False)

_delimiter_option = click.option(
    "--delimiter",
    type=click.Choice(["tab", "comma"]),
    default="tab",
    show_default=True,
    help="Field separator of input and output files.",
)
_orientation_option = click.option(
    "--orientation",
    type=click.Choice(["samples_in_rows", "features_in_rows"]),
    default="samples_in_rows",
    show_default=True,
    help="Which axis runs down the input file's rows.",
)
_config_option = click.option(
    "--config",
    type=_in_path,
    is_eager=True,
    expose_value=False,
    callback=_apply_config,
    help="Flat key=value file supplying defaults, keyed by parameter name; flags override it.",
)
_seed_option = click.option(
    "--seed", type=int, default=TrainConfig.seed, show_default=True, help="Base random seed."
)


@click.group()
@click.version_option(package_name="aime")
def main() -> None:
    """Cross-modal embedding pipeline: filters, training, importance, CCA."""


# ---------------------------------------------------------------- filter


@main.command("filter")
@click.argument("input_path", type=_in_path)
@click.argument("output_path", type=click.Path(dir_okay=False))
@click.option("--cv", "use_cv", is_flag=True, help="Filter on sd/|mean|.")
@click.option("--sd", "use_sd", is_flag=True, help="Filter on standard deviation.")
@click.option(
    "--threshold",
    type=float,
    default=None,
    show_default="0.05 for --cv, 1.25 for --sd",
    help="Cutoff; features strictly above it survive.",
)
@_delimiter_option
@_orientation_option
@_config_option
@guarded
def cmd_filter(input_path, output_path, use_cv, use_sd, threshold, delimiter, orientation):
    """Drop low-variability features from a labeled matrix."""
    if use_cv == use_sd:
        raise DomainError("pass exactly one of --cv or --sd")
    table = read_labeled_text(input_path, delimiter=delimiter, orientation=orientation)
    m = table.matrix
    try:
        with _naming_columns(matrix=(input_path, m)):
            if use_cv:
                kept = cv_filter(m, 0.05 if threshold is None else threshold)
            else:
                kept = sd_filter(m, 1.25 if threshold is None else threshold)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"{input_path}: {exc}") from None
    # The kept cells are copied as the input spelled them, not re-printed;
    # their floats go beside them, so that later reads need not parse.
    _atomic_write(output_path, lambda tmp: table.write_features(kept, tmp))
    if len(kept):
        _atomic_write(
            f"{output_path}.f64",
            lambda tmp: write_values(tmp, output_path, table.sep, m.values[:, kept]),
        )
    click.echo(
        f"kept {len(kept)} of {m.n_features} features "
        f"(dropped {m.n_features - len(kept)})"
    )


# ---------------------------------------------------------------- train


@main.command("train")
@click.argument("x_path", type=_in_path)
@click.argument("y_path", type=_in_path)
@click.option("--dim", "-d", "d", type=int, default=4, show_default=True, help="Embedding dimensions.")
@click.option("--epochs", type=int, default=TrainConfig.epochs, show_default=True, help="Training epochs.")
@_seed_option
@click.option("--learning-rate", type=float, default=TrainConfig.learning_rate, show_default=True, help="Adam step size.")
@click.option("--batch-size", type=int, default=TrainConfig.batch_size, show_default=True, help="Minibatch rows.")
@click.option("--model-out", required=True, type=click.Path(dir_okay=False), help="Where to write the fitted model.")
@click.option("--history-out", type=click.Path(dir_okay=False), default=None, show_default="MODEL_OUT + '.history'", help="Loss history file.")
@_delimiter_option
@_orientation_option
@_config_option
@guarded
def cmd_train(x_path, y_path, d, epochs, seed, learning_rate, batch_size, model_out, history_out, delimiter, orientation):
    """Fit the embedding network on paired X and Y matrices."""
    history_out = history_out or (model_out + ".history")
    if os.path.realpath(history_out) == os.path.realpath(model_out):
        raise DomainError(f"--model-out and --history-out are one file: {history_out}")
    _refuse_overwrite([model_out, history_out], [x_path, y_path])
    x = read_labeled(x_path, delimiter=delimiter, orientation=orientation)
    y = read_labeled(y_path, delimiter=delimiter, orientation=orientation)
    x, y = align_samples(x, y)
    config = TrainConfig(
        learning_rate=learning_rate, batch_size=batch_size, epochs=epochs, seed=seed
    )
    with _naming_columns(x=(x_path, x), y=(y_path, y)):
        model = fit(x.values, y.values, d, config)
    _atomic_write(model_out, lambda tmp: save_model(model, tmp))
    history = [(i + 1, float(loss)) for i, loss in enumerate(model.loss_history)]
    _write_rows(history_out, history, delimiter)
    if model.loss_history:
        click.echo(
            f"trained {x.n_samples} samples, final epoch loss "
            f"{model.loss_history[-1]:.6f}"
        )
    else:
        click.echo(f"{x.n_samples} samples: no epoch ran; the model is as initialized")


# ---------------------------------------------------------------- embed


@main.command("embed")
@click.argument("model_path", type=_in_path)
@click.argument("x_path", type=_in_path)
@click.argument("output_path", type=click.Path(dir_okay=False))
@_delimiter_option
@_orientation_option
@guarded
def cmd_embed(model_path, x_path, output_path, delimiter, orientation):
    """Map samples into the trained low-dimensional space."""
    _refuse_overwrite([output_path], [model_path, x_path])
    model = load_model(model_path)
    x = read_labeled(x_path, delimiter=delimiter, orientation=orientation)
    with _naming_columns(x=(x_path, x)):
        coords = embed(model, x.values)
    out = LabeledMatrix(
        coords, x.sample_ids, [f"e{i}" for i in range(coords.shape[1])]
    )
    _atomic_write(output_path, lambda tmp: write_labeled(out, tmp, delimiter=delimiter))
    click.echo(f"embedded {out.n_samples} samples into {out.n_features} dimensions")


# ---------------------------------------------------------------- importance


@main.command("importance")
@click.argument("model_path", type=_in_path)
@click.argument("x_path", type=_in_path)
@click.argument("output_path", type=click.Path(dir_okay=False))
@click.option("--repeats", type=click.IntRange(min=1), default=DEFAULT_REPEATS, show_default=True, help="Shuffles per variable.")
@click.option("--fraction", type=click.FloatRange(0, 1, min_open=True), default=0.01, show_default=True, help="Report the top ceil(fraction * p) variables, the fraction as written (0.07 of 100 is 7).")
@_seed_option
@_delimiter_option
@_orientation_option
@_config_option
@guarded
def cmd_importance(model_path, x_path, output_path, repeats, fraction, seed, delimiter, orientation):
    """Rank input variables by how much shuffling them moves the embedding."""
    _refuse_overwrite([output_path], [model_path, x_path])
    model = load_model(model_path)
    x = read_labeled(x_path, delimiter=delimiter, orientation=orientation)
    with _naming_columns(x=(x_path, x)):
        scores = permutation_importance(model, x.values, repeats=repeats, seed=seed)
    chosen = top_fraction(scores, fraction)
    ranks = [(x.feature_ids[j], float(scores[j]), rank) for rank, j in enumerate(chosen, start=1)]
    _write_rows(output_path, [("variable_id", "score", "rank"), *ranks], delimiter)
    click.echo(f"wrote top {len(chosen)} of {len(scores)} variables")


# ---------------------------------------------------------------- cca


@main.command("cca")
@click.argument("x_path", type=_in_path)
@click.argument("y_path", type=_in_path)
@click.argument("out_prefix")
@click.option("--k", type=int, default=4, show_default=True, help="Canonical pairs to extract.")
@click.option("--ridge", type=float, default=DEFAULT_RIDGE_SCALE, show_default=True, help="Regularization scale; 0 is plain CCA.")
@_delimiter_option
@_orientation_option
@_config_option
@guarded
def cmd_cca(x_path, y_path, out_prefix, k, ridge, delimiter, orientation):
    """Fit regularized linear CCA as the comparison baseline."""
    x_out_path, y_out_path, corr_path = (
        f"{out_prefix}_{name}.tsv" for name in ("x_variates", "y_variates", "correlations")
    )
    _refuse_overwrite([x_out_path, y_out_path, corr_path], [x_path, y_path])
    x = read_labeled(x_path, delimiter=delimiter, orientation=orientation)
    y = read_labeled(y_path, delimiter=delimiter, orientation=orientation)
    x, y = align_samples(x, y)
    with _naming_columns(x=(x_path, x), y=(y_path, y)):
        result = fit_cca(x.values, y.values, k, ridge=ridge)
    names = [f"cv{i}" for i in range(k)]
    x_out = LabeledMatrix(result.x_variates, x.sample_ids, names)
    y_out = LabeledMatrix(result.y_variates, y.sample_ids, names)
    _atomic_write(x_out_path, lambda tmp: write_labeled(x_out, tmp, delimiter=delimiter))
    _atomic_write(y_out_path, lambda tmp: write_labeled(y_out, tmp, delimiter=delimiter))
    _write_rows(corr_path, [(i, float(c)) for i, c in enumerate(result.correlations)], delimiter)
    top = ", ".join(f"{c:.4f}" for c in result.correlations)
    click.echo(f"canonical correlations: {top}")


# ---------------------------------------------------------------- synth


@main.command("synth")
@click.argument("out_prefix")
@click.option("--n", type=int, default=200, show_default=True, help="Samples.")
@click.option("--p", type=int, default=30, show_default=True, help="X features.")
@click.option("--q", type=int, default=30, show_default=True, help="Y features.")
@click.option("--n-signal", type=int, default=10, show_default=True, help="X features carrying signal.")
@click.option("--noise-sd", type=float, default=0.1, show_default=True, help="Noise standard deviation.")
@click.option("--design", type=click.Choice(["linear", "quadratic"]), default="linear", show_default=True, help="How Y depends on the latent factors.")
@click.option("--seed", type=int, default=0, show_default=True, help="Generator seed.")
@_delimiter_option
@guarded
def cmd_synth(out_prefix, n, p, q, n_signal, noise_sd, design, seed, delimiter):
    """Generate a paired synthetic dataset with planted latent structure."""
    spec = SynthSpec(
        n=n, p=p, q=q, n_signal=n_signal, noise_sd=noise_sd,
        design=design, seed=seed,
    )
    data = generate(spec)
    _atomic_write(
        f"{out_prefix}_x.tsv", lambda tmp: write_labeled(data.x, tmp, delimiter=delimiter)
    )
    _atomic_write(
        f"{out_prefix}_y.tsv", lambda tmp: write_labeled(data.y, tmp, delimiter=delimiter)
    )
    labels = [(sid, int(lab)) for sid, lab in zip(data.x.sample_ids, data.labels)]
    _write_rows(f"{out_prefix}_labels.tsv", [("id", "label"), *labels], delimiter)
    _write_rows(f"{out_prefix}_signal.txt", [(j,) for j in data.signal_indices], delimiter)
    click.echo(
        f"wrote {out_prefix}_x.tsv, _y.tsv, _labels.tsv, _signal.txt "
        f"({n} samples, design {design})"
    )


# ---------------------------------------------------------------- plot


def read_labels(path: str, delimiter: str = "tab") -> dict[str, str]:
    """Read the two-column id/label sidecar written by the synth command.
    Lines end at ``\\n`` alone, as matrix lines do, so an id holding
    another line break that ``str.splitlines`` knows (U+0085, U+2028)
    matches the matrix's; a line's trailing ``\\r`` is dropped. Whitespace
    around an id or label is stripped, as matrix ids are, and blank lines
    are skipped; errors name the file and its 1-based line."""
    sep = delimiter_char(delimiter)
    lines = [
        (line_no, line.removesuffix("\r"))
        for line_no, line in enumerate(read_text(path).split("\n"), start=1)
        if line not in ("", "\r")
    ]
    out: dict[str, str] = {}
    for line_no, line in lines[1:]:
        parts = [part.strip() for part in line.split(sep)]
        if len(parts) != 2:
            raise ParseError(
                f"{path}: line {line_no}: expected 2 fields, got {len(parts)}"
            )
        if parts[0] in out:
            raise ValidationError(f"{path}: duplicate sample id {parts[0]!r} in labels")
        out[parts[0]] = parts[1]
    return out


def _escape(text: str) -> str:
    """What ``html.escape(text)`` returns, without importing ``html``,
    whose entity table costs about 0.5 MB of memory."""
    for char, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                         ('"', "&quot;"), ("'", "&#x27;")):
        text = text.replace(char, entity)
    return text


def scatter_matrix_svg(coords: np.ndarray, labels: list[str]) -> str:
    """Render a d-by-d panel grid as SVG 1.1 text.

    Off-diagonal panel (i, j) scatters dimension j against dimension i with
    one circle per sample; diagonal panels show each sample as a tick on
    that dimension's axis. Colors come from a fixed palette keyed by the
    sorted unique labels, so output is deterministic.
    """
    d = coords.shape[1]
    classes = sorted(set(labels))
    color = {c: PALETTE[i % len(PALETTE)] for i, c in enumerate(classes)}

    panel, pad, gap = 150.0, 40.0, 12.0
    lows = coords.min(axis=0)
    spans = coords.max(axis=0) - lows
    spans[spans == 0] = 1.0
    # Each sample's position within a panel, per dimension, formatted
    # once: as a horizontal coordinate, and flipped as a vertical one.
    scaled = 6.0 + 138.0 * (coords - lows) / spans
    xs = [[f"{v:.2f}" for v in dim] for dim in scaled.T.tolist()]
    ys = [[f"{v:.2f}" for v in dim] for dim in (150.0 - scaled).T.tolist()]
    colors = [color[label] for label in labels]

    size = pad * 2 + panel * d + gap * (d - 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size + 24:.0f}" '
        f'viewBox="0 0 {size:.0f} {size + 24:.0f}">',
        f'<rect width="{size:.0f}" height="{size + 24:.0f}" fill="white"/>',
    ]
    for i in range(d):
        for j in range(d):
            ox = pad + j * (panel + gap)
            oy = pad + i * (panel + gap)
            parts.append(f'<g transform="translate({ox:.1f},{oy:.1f})">')
            parts.append(
                '<rect x="0" y="0" width="150" height="150" '
                'fill="none" stroke="#333333" stroke-width="1"/>'
            )
            # One string per panel: at desk scale, 600 point strings per
            # panel held apart until the end set the command's peak memory.
            if i == j:
                parts.append("\n".join(
                    f'<line x1="{x}" y1="60" x2="{x}" y2="90" '
                    f'stroke="{c}" stroke-width="1"/>'
                    for x, c in zip(xs[i], colors, strict=True)
                ))
            else:
                parts.append("\n".join(
                    f'<circle cx="{x}" cy="{y}" r="2.5" '
                    f'fill="{c}" fill-opacity="0.7"/>'
                    for x, y, c in zip(xs[j], ys[i], colors, strict=True)
                ))
            parts.append("</g>")
    for idx, c in enumerate(classes):
        lx = pad + idx * 110.0
        ly = size + 4.0
        parts.append(
            f'<rect x="{lx:.1f}" y="{ly:.1f}" width="12" height="12" '
            f'fill="{color[c]}"/>'
        )
        parts.append(
            f'<text x="{lx + 16.0:.1f}" y="{ly + 11.0:.1f}" '
            f'font-family="sans-serif" font-size="12">{_escape(c)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@main.command("plot")
@click.argument("embedding_path", type=_in_path)
@click.argument("labels_path", type=_in_path)
@click.argument("output_path", type=click.Path(dir_okay=False))
@_delimiter_option
@guarded
def cmd_plot(embedding_path, labels_path, output_path, delimiter):
    """Draw the embedding as a colored scatter-matrix SVG."""
    _refuse_overwrite([output_path], [embedding_path, labels_path])
    emb = read_labeled(embedding_path, delimiter=delimiter)
    by_id = read_labels(labels_path, delimiter=delimiter)
    missing = [s for s in emb.sample_ids if s not in by_id]
    if missing:
        raise ValidationError(
            f"{len(missing)} embedded sample(s) have no label, "
            f"first: {missing[0]!r}"
        )
    labels = [by_id[s] for s in emb.sample_ids]
    svg = scatter_matrix_svg(emb.values, labels)
    _atomic_write(output_path, lambda tmp: _write_text(tmp, svg))
    click.echo(
        f"plotted {emb.n_samples} samples, {emb.n_features}x{emb.n_features} panels"
    )


if __name__ == "__main__":
    main()
