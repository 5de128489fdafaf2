"""Labeled matrix files, paired-sample alignment, and variance-based feature filters.

File format: delimited text with feature names in the header row and sample
names in the first column (or the transpose, when ``orientation`` says the
features run down the rows). A cell is any number Python's ``float()``
accepts, without underscores, and must be finite; whitespace around it is
allowed. A cell outside that set raises ParseError naming its line and
column.

A file is parsed in one of two ways, with the same result. numpy's C
reader (``np.loadtxt``) takes most in one call, given each data line's
text after its label: it strips the whitespace that ``str.strip`` strips
and converts each cell with the function ``float()`` uses. A file that
it refuses, or that has a ragged line or a non-finite value, is read row
by row instead, in line order, with one ``map(float)`` call per row;
only a row that this fails on, or that holds an underscore or a
non-finite value, is read cell by cell, and that pass names the first
bad line or cell.

``write_labeled`` prints values in shortest round-trippable decimal form,
while ``LabeledText.write_features`` (what ``aime filter`` writes)
copies each kept cell as the input spelled it, minus surrounding whitespace;
when every column is kept, a line with no whitespace but its separators
is written as read. Either way, reading the output back reproduces the
floats bit for bit, and for a file that ``write_labeled`` wrote the two
outputs are the same bytes.

``write_values`` (which ``aime filter`` calls after writing its output
``OUT``) stores the output's floats in a values file, ``OUT.f64``: a
SHA-256 digest of the separator, the orientation, the TSV's bytes and
the values, then the values as little-endian float64 (layout in
``docs/matrix_values.md``). ``read_labeled_text`` takes a file's values
from its values file when the size fits the TSV's shape, the digest
matches the bytes just read and every value is finite; otherwise it
parses the text as above. The TSV stays the only source of truth: the
header, the ids and every message still come from its text, and
deleting or corrupting a values file costs only a parse.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    ParseError,
    ValidationError,
)
from .matrix_core import all_finite, as_matrix, column_stats

_DELIMITERS = {"tab": "\t", "comma": ","}

# Mean magnitudes below this make a coefficient of variation meaningless.
NEAR_ZERO_MEAN = 1e-12

# The ASCII characters that str.strip strips, bar the newline that a line
# split from a file cannot hold.
_ASCII_SPACES = "".join(c for c in map(chr, range(128)) if c.isspace() and c != "\n")

# The first bytes a values file's digest covers; a new layout changes it.
_VALUES_TAG = b"aime values 1\0"
_DIGEST_BYTES = 32


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
        line at a time. A samples-in-rows line with no whitespace but its
        separators is written as read when every column is kept in order,
        since stripping and joining its fields gives it back; other lines
        are split, stripped and joined. A features-in-rows input holds the
        kept rows' fields to transpose them.
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
                keep_all = columns == list(range(self.matrix.n_features))
                spaces = _ASCII_SPACES.replace(sep, "")
                for line in self.lines[1:]:
                    if keep_all and line.isascii() and not any(c in line for c in spaces):
                        handle.write(line)
                        handle.write("\n")
                        continue
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
    with the path.

    The values come from ``PATH.f64`` when ``_stored_values`` accepts it
    for these lines, and are parsed from the lines otherwise, with the
    same result; the header, the ids and every error come from the
    lines either way.
    """
    sep = delimiter_char(delimiter)
    if orientation not in ("samples_in_rows", "features_in_rows"):
        raise DomainError(f"unknown orientation {orientation!r}")

    lines = read_text(path).split("\n")
    ended = lines[-1] == ""
    if ended:
        lines.pop()
    values = _stored_values(path, lines, ended, sep, orientation)
    try:
        matrix = _parse_lines(lines, sep, orientation, values)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return LabeledText(lines, matrix, sep, orientation)


def _parse_lines(
    lines: list[str], sep: str, orientation: str, values: np.ndarray | None = None
) -> LabeledMatrix:
    """The labeled matrix of a file's lines; errors name the line and
    column, not the file.

    The data cells are ``values`` when given, else read by ``_c_reader``
    when it takes the file, and otherwise by ``_cell_reader``, which
    gives the same floats for any file the first one takes and raises the
    ParseError for the first bad line or cell of one that it does not.
    """
    if len(lines) < 2:
        raise ParseError("need a header row and at least one data row")

    header = lines[0].split(sep)
    col_labels = [c.strip() for c in header[1:]]
    if not col_labels:
        raise ParseError("line 1: header has no column labels")
    width = len(header)

    rows = lines[1:]
    if values is None:
        values = _c_reader(rows, sep, width)
    if values is None:
        values = _cell_reader(rows, sep, width)
    row_labels = [line.split(sep, 1)[0].strip() for line in rows]

    if orientation == "features_in_rows":
        return LabeledMatrix(values.T, col_labels, row_labels)
    return LabeledMatrix(values, row_labels, col_labels)


def _stored_values(
    path, lines: list[str], ended: bool, sep: str, orientation: str
) -> np.ndarray | None:
    """The data cells of ``lines``, read-only, from the values file
    ``PATH.f64``; or None, without raising, when it cannot be opened or
    read, when its size is not the digest's plus 8 bytes per cell of the
    lines' shape, when its digest (see ``_digest``) does not match
    ``lines``, ``sep``, ``orientation`` and its values, or when a value
    is not finite.

    ``lines`` are the file's lines without the empty one after a final
    newline, which ``ended`` says was there, so joined with newlines they
    encode to the bytes the file held. The size is checked before any
    allocation or hashing; a file without a values file costs one failed
    ``open``.
    """
    if len(lines) < 2:
        return None
    rows, width = len(lines) - 1, lines[0].count(sep)
    if width < 1:
        return None
    size = 8 * rows * width
    try:
        with open(os.fsencode(path) + b".f64", "rb") as handle:
            if os.fstat(handle.fileno()).st_size != _DIGEST_BYTES + size:
                return None
            digest, data = handle.read(_DIGEST_BYTES), handle.read(size)
    except OSError:
        return None
    if len(data) != size:  # the file shrank since fstat
        return None
    # A view of the bytes read: the caller copies it into the matrix. In
    # place of np.empty and readinto, this kept wide peak RSS 1.5 MB lower.
    values = np.frombuffer(data, dtype="<f8").reshape(rows, width)
    text = _encoded(lines, ended)
    if digest != _digest(sep, orientation, text, values) or not all_finite(values):
        return None
    return values


def _encoded(lines: list[str], ended: bool):
    """The UTF-8 bytes of ``lines`` joined by newlines, and of a final
    newline if ``ended``, one piece at a time."""
    for i, line in enumerate(lines):
        if i:
            yield b"\n"
        yield line.encode()
    if ended:
        yield b"\n"


def write_values(path, tsv_path, sep: str, values: np.ndarray) -> None:
    """Write the values file of the samples-in-rows file at ``tsv_path``,
    delimited by ``sep``, whose data cells parse to ``values``: the
    digest of the file's bytes as read back and of the values, then the
    values as little-endian float64, row by row."""
    values = np.ascontiguousarray(values, dtype="<f8")
    with open(tsv_path, "rb") as tsv:
        blocks = iter(lambda: tsv.read(1 << 20), b"")
        digest = _digest(sep, "samples_in_rows", blocks, values)
    with open(path, "wb") as handle:
        handle.write(digest)
        handle.write(values.data)


def _digest(sep: str, orientation: str, text, values: np.ndarray) -> bytes:
    """SHA-256 of the values tag, ``sep``, ``orientation``, the byte
    strings of ``text`` in order and the bytes of the C-ordered
    ``values``."""
    import hashlib  # here: a read that finds no values file never needs it

    h = hashlib.sha256(_VALUES_TAG + sep.encode() + orientation.encode())
    for piece in text:
        h.update(piece)
    h.update(values.data)
    return h.digest()


def _c_reader(rows: list[str], sep: str, width: int) -> np.ndarray | None:
    """The data cells of ``rows`` from one ``np.loadtxt`` call, or None
    where ``_cell_reader`` might read them otherwise: a line without
    exactly ``width`` fields, a cell the reader refuses (unlike
    ``float()``, it refuses underscores, non-ASCII digits and a carriage
    return before a line's end), or a value that is not finite.

    The call reads each line's text after its label, one line at a time,
    and ``""`` for a line without a separator. It refuses a line whose
    field count differs from the first line's and skips a blank one, so
    the result has ``len(rows)`` rows of ``width - 1`` cells only if every
    line has ``width`` fields.
    """
    tails = (line[i:] if (i := line.find(sep) + 1) else "" for line in rows)
    try:
        with warnings.catch_warnings():
            # Every line blank after its label; the shape check refuses it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(
                tails, dtype=np.float64, delimiter=sep, comments=None, ndmin=2
            )
    except ValueError:
        return None
    if values.shape != (len(rows), width - 1):
        return None
    return values if all_finite(values) else None


def _cell_reader(rows: list[str], sep: str, width: int) -> np.ndarray:
    """The data cells of ``rows``, in line order; the first ragged line or
    bad cell raises ParseError.

    Each row's cells are converted by one ``map(float)`` call, which
    strips and converts a cell as ``_parse_cell`` does. A row where that
    raises, whose data part holds an underscore (which ``float()`` takes
    and a data file may not), or whose sum is not finite (a nan or inf
    cell, or a sum that overflows near 1.8e308) is read again with one
    ``_parse_cell`` call per cell, whose values or ParseError stand. So a
    file that the C reader refuses for one non-ASCII digit costs one row
    of ``_parse_cell`` calls at most, not one per cell of the file.
    """
    values = np.empty((len(rows), width - 1))
    for line_no, line in enumerate(rows, start=2):
        fields = line.split(sep)
        if len(fields) != width:
            raise ParseError(
                f"line {line_no} has {len(fields)} fields, expected {width}"
            )
        try:
            row = list(map(float, fields[1:]))
        except ValueError:
            row = None
        if (
            row is None
            or line.find("_", len(fields[0])) >= 0
            or not math.isfinite(sum(row))
        ):
            row = [
                _parse_cell(text, line_no, col_no)
                for col_no, text in enumerate(fields[1:], start=2)
            ]
        values[line_no - 2] = row
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
