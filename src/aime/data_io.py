"""Labeled matrix files, paired-sample alignment, and variance-based feature filters.

File format: delimited text with feature names in the header row and sample
names in the first column (or the transpose, when ``orientation`` says the
features run down the rows). A cell is any number Python's ``float()``
accepts, without underscores, and must be finite; whitespace around it is
allowed. A cell outside that set raises ParseError naming its line and
column.

A file is parsed in one of two ways, with the same result. numpy's C
reader (``np.loadtxt``) takes most in one call: it strips the whitespace
that ``str.strip`` strips and converts each cell with the function
``float()`` uses. A file that it refuses, or that has a ragged line or a
non-finite value, is read again cell by cell, in line order, with
``float()``; that pass names the first bad line or cell.

``write_labeled`` prints values in shortest round-trippable decimal form,
while ``LabeledText.write_features`` (what ``aime filter`` writes)
copies each kept cell as the input spelled it, minus surrounding whitespace.
Either way, reading the output back reproduces the floats bit for bit, and
for a file that ``write_labeled`` wrote the two outputs are the same bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    ParseError,
    ValidationError,
)
from .matrix_core import as_matrix, column_stats

_DELIMITERS = {"tab": "\t", "comma": ","}

# Mean magnitudes below this make a coefficient of variation meaningless.
NEAR_ZERO_MEAN = 1e-12


@dataclass
class LabeledMatrix:
    """A samples-by-features matrix with unique string labels on both axes."""

    values: np.ndarray
    sample_ids: list[str]
    feature_ids: list[str]

    def __post_init__(self) -> None:
        self.values = as_matrix(self.values)
        self.sample_ids = [str(s) for s in self.sample_ids]
        self.feature_ids = [str(f) for f in self.feature_ids]
        n, p = self.values.shape
        if len(self.sample_ids) != n:
            raise ValidationError(
                f"{len(self.sample_ids)} sample ids for {n} rows"
            )
        if len(self.feature_ids) != p:
            raise ValidationError(
                f"{len(self.feature_ids)} feature ids for {p} columns"
            )
        for kind, ids in (("sample", self.sample_ids), ("feature", self.feature_ids)):
            if len(set(ids)) != len(ids):
                dup = _first_duplicate(ids)
                raise ValidationError(f"duplicate {kind} id {dup!r}")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def _first_duplicate(ids: list[str]) -> str:
    seen: set[str] = set()
    for item in ids:
        if item in seen:
            return item
        seen.add(item)
    raise ValueError("no duplicate present")


def _parse_cell(text: str, line_no: int, col_no: int) -> float:
    cleaned = text.strip()
    # Underscores are legal in Python float literals but not in data files.
    if not cleaned or "_" in cleaned:
        raise ParseError(
            f"line {line_no}, column {col_no}: non-numeric cell {text!r}"
        )
    try:
        value = float(cleaned)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {col_no}: non-numeric cell {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"line {line_no}, column {col_no}: non-finite cell {text!r}"
        )
    return value


def read_text(path) -> str:
    """A whole UTF-8 text file, newlines untranslated. Bytes that are not
    UTF-8 raise ParseError naming the file and the byte offset."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None


@dataclass
class LabeledText:
    """A matrix file's lines together with the matrix parsed from them, so
    that selected features can be written back as the file spelled them."""

    lines: list[str]  # header first, no empty line after the last row
    matrix: LabeledMatrix
    sep: str
    orientation: str

    def write_features(self, columns, path) -> None:
        """Write the features at the given column indices of ``matrix``, in
        that order, samples in rows, with unix newlines.

        The header is ``id`` and the kept feature ids; each cell is the input
        cell's text stripped of surrounding whitespace, so reading the file
        back gives the same floats bit for bit. Input rows are copied one
        line at a time; a features-in-rows input holds the kept rows' fields
        to transpose them.
        """
        sep = self.sep
        columns = [int(j) for j in columns]
        # Field k of a samples-in-rows line, or line k of a features-in-rows
        # file, holds column k - 1.
        keep = [j + 1 for j in columns]
        feature_ids = self.matrix.feature_ids
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(sep.join(["id", *[feature_ids[j] for j in columns]]) + "\n")
            if self.orientation == "samples_in_rows":
                keep = [0, *keep]  # the sample label, then the kept cells
                for line in self.lines[1:]:
                    fields = line.split(sep)
                    handle.write(sep.join([fields[k].strip() for k in keep]) + "\n")
            else:
                rows = [self.lines[k].split(sep) for k in keep]
                for i, label in enumerate(self.matrix.sample_ids, start=1):
                    cells = [row[i].strip() for row in rows]
                    handle.write(sep.join([label, *cells]) + "\n")


def read_labeled(
    path,
    delimiter: str = "tab",
    orientation: str = "samples_in_rows",
) -> LabeledMatrix:
    """Read a labeled matrix from a delimited text file.

    The header row carries column labels and every following row starts with
    its own label. ``orientation`` names what the file's rows are; the result
    always comes back samples-in-rows. Ragged or non-numeric content raises
    ParseError pointing at the offending line and column (both 1-based).
    """
    return read_labeled_text(path, delimiter, orientation).matrix


def read_labeled_text(
    path,
    delimiter: str = "tab",
    orientation: str = "samples_in_rows",
) -> LabeledText:
    """What ``read_labeled`` reads, with the lines it parsed, from one
    read of the file. Its ParseError and ValidationError messages start
    with the path."""
    sep = delimiter_char(delimiter)
    if orientation not in ("samples_in_rows", "features_in_rows"):
        raise DomainError(f"unknown orientation {orientation!r}")

    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        matrix = _parse_lines(lines, sep, orientation)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return LabeledText(lines, matrix, sep, orientation)


def _parse_lines(lines: list[str], sep: str, orientation: str) -> LabeledMatrix:
    """The labeled matrix of a file's lines; errors name the line and
    column, not the file.

    The data cells are read by ``_c_reader`` when it takes the file, and
    otherwise by ``_cell_reader``, which gives the same floats for any
    file the first one takes and raises the ParseError for the first bad
    line or cell of one that it does not.
    """
    if len(lines) < 2:
        raise ParseError("need a header row and at least one data row")

    header = lines[0].split(sep)
    col_labels = [c.strip() for c in header[1:]]
    if not col_labels:
        raise ParseError("line 1: header has no column labels")
    width = len(header)

    rows = lines[1:]
    values = _c_reader(rows, sep, width)
    if values is None:
        values = _cell_reader(rows, sep, width)
    row_labels = [line.split(sep, 1)[0].strip() for line in rows]

    if orientation == "features_in_rows":
        return LabeledMatrix(values.T, col_labels, row_labels)
    return LabeledMatrix(values, row_labels, col_labels)


def _c_reader(rows: list[str], sep: str, width: int) -> np.ndarray | None:
    """The data cells of ``rows`` from one ``np.loadtxt`` call, or None
    where ``_cell_reader`` might read them otherwise: a line without
    exactly ``width`` fields (the call would drop extra ones), a cell the
    reader refuses (unlike ``float()``, it refuses underscores, non-ASCII
    digits and a carriage return before a line's end), or a value that is
    not finite."""
    if any(line.count(sep) != width - 1 for line in rows):
        return None
    try:
        values = np.loadtxt(
            rows,
            dtype=np.float64,
            delimiter=sep,
            comments=None,
            usecols=range(1, width),
            ndmin=2,
        )
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _cell_reader(rows: list[str], sep: str, width: int) -> np.ndarray:
    """The data cells of ``rows``, one ``_parse_cell`` call each, in line
    order; the first ragged line or bad cell raises ParseError."""
    values = np.empty((len(rows), width - 1))
    for line_no, line in enumerate(rows, start=2):
        fields = line.split(sep)
        if len(fields) != width:
            raise ParseError(
                f"line {line_no} has {len(fields)} fields, expected {width}"
            )
        values[line_no - 2] = [
            _parse_cell(text, line_no, col_no)
            for col_no, text in enumerate(fields[1:], start=2)
        ]
    return values


def write_labeled(m: LabeledMatrix, path, delimiter: str = "tab") -> None:
    """Write a labeled matrix as delimited text with unix newlines, one
    sample per row.

    Values use repr's shortest round-trippable decimal form; reading the file
    back yields bitwise-identical floats.
    """
    sep = delimiter_char(delimiter)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(sep.join(["id", *m.feature_ids]) + "\n")
        for label, row in zip(m.sample_ids, m.values):
            handle.write(sep.join([label, *map(repr, row.tolist())]) + "\n")


def delimiter_char(delimiter: str) -> str:
    """The field separator named by ``delimiter`` ('tab' or 'comma')."""
    try:
        return _DELIMITERS[delimiter]
    except KeyError:
        raise DomainError(
            f"unknown delimiter {delimiter!r}; expected 'tab' or 'comma'"
        ) from None


def align_samples(
    a: LabeledMatrix, b: LabeledMatrix
) -> tuple[LabeledMatrix, LabeledMatrix]:
    """Restrict both matrices to their shared samples, in a's original order.

    Raises AlignmentError when the id sets do not intersect, quoting a few ids
    from each side so the mismatch is visible in the message.
    """
    b_pos = {s: i for i, s in enumerate(b.sample_ids)}
    a_rows = [i for i, s in enumerate(a.sample_ids) if s in b_pos]
    if not a_rows:
        raise AlignmentError(
            "no shared sample ids; first side has "
            f"{a.sample_ids[:3]}, second side has {b.sample_ids[:3]}"
        )
    shared = [a.sample_ids[i] for i in a_rows]
    b_rows = [b_pos[s] for s in shared]
    a_out = LabeledMatrix(a.values[a_rows], shared, list(a.feature_ids))
    b_out = LabeledMatrix(b.values[b_rows], shared, list(b.feature_ids))
    return a_out, b_out


def cv_filter(m: LabeledMatrix, threshold: float) -> np.ndarray:
    """Ascending indices of the features whose coefficient of variation
    sd/|mean| exceeds threshold.

    Features whose mean is within NEAR_ZERO_MEAN of zero have no meaningful
    CV; they are dropped and counted in a warning, and no ratio is formed
    for them. A threshold that is NaN or infinite raises DomainError.
    """
    _check_threshold(threshold)
    means, sds = column_stats(m.values)
    magnitudes = np.abs(means)
    usable = magnitudes >= NEAR_ZERO_MEAN
    near_zero = m.n_features - np.count_nonzero(usable)
    if near_zero:
        warnings.warn(
            f"cv_filter dropped {near_zero} feature(s) with near-zero mean",
            stacklevel=2,
        )
    candidates = np.flatnonzero(usable)
    kept = candidates[sds[candidates] / magnitudes[candidates] > threshold]
    return _warn_if_empty(kept, "cv_filter")


def sd_filter(m: LabeledMatrix, threshold: float) -> np.ndarray:
    """Ascending indices of the features whose sample standard deviation
    exceeds threshold. A threshold that is NaN or infinite raises
    DomainError."""
    _check_threshold(threshold)
    _, sds = column_stats(m.values)
    return _warn_if_empty(np.flatnonzero(sds > threshold), "sd_filter")


def _check_threshold(threshold: float) -> None:
    # A NaN cutoff keeps nothing and an infinite one keeps all or nothing,
    # whatever the data say.
    if not math.isfinite(threshold):
        raise DomainError(f"threshold must be finite, got {threshold!r}")


def _warn_if_empty(kept: np.ndarray, name: str) -> np.ndarray:
    if kept.size == 0:
        warnings.warn(f"{name} removed every feature", stacklevel=3)
    return kept
