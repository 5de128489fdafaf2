import contextlib
import hashlib
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aime import data_io
from aime.data_io import (
    LabeledMatrix,
    _parse_cell,
    align_samples,
    cv_filter,
    read_labeled,
    read_labeled_text,
    sd_filter,
    write_labeled,
    write_values,
)
from aime.errors import (
    AlignmentError,
    DomainError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)


def lm(values, samples=None, features=None):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    samples = samples or [f"s{i}" for i in range(n)]
    features = features or [f"f{j}" for j in range(p)]
    return LabeledMatrix(values, samples, features)


class TestLabeledMatrix:
    def test_valid_construction(self):
        m = lm([[1.0, 2.0], [3.0, 4.0]])
        assert m.n_samples == 2
        assert m.n_features == 2

    def test_duplicate_sample_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate sample id 'a'"):
            lm([[1.0], [2.0]], samples=["a", "a"])

    def test_duplicate_feature_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate feature id"):
            lm([[1.0, 2.0]], features=["x", "x"])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            lm([[1.0, 2.0]], samples=["a", "b"])


class TestReadLabeled:
    def test_hand_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tg1\tg2\ns1\t1.5\t2\ns2\t-3\t0.25\n")
        m = read_labeled(path)
        assert m.sample_ids == ["s1", "s2"]
        assert m.feature_ids == ["g1", "g2"]
        assert m.values.tolist() == [[1.5, 2.0], [-3.0, 0.25]]

    def test_comma_delimiter(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,a\nr1,7.5\n")
        m = read_labeled(path, delimiter="comma")
        assert m.values.tolist() == [[7.5]]

    def test_features_in_rows_is_transpose(self, tmp_path):
        wide = tmp_path / "wide.tsv"
        wide.write_text("id\tg1\tg2\ns1\t1\t2\ns2\t3\t4\n")
        tall = tmp_path / "tall.tsv"
        tall.write_text("id\ts1\ts2\ng1\t1\t3\ng2\t2\t4\n")
        a = read_labeled(wide)
        b = read_labeled(tall, orientation="features_in_rows")
        assert a.sample_ids == b.sample_ids
        assert a.feature_ids == b.feature_ids
        assert np.array_equal(a.values, b.values)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\tb\ns1\t1\t2\ns2\t3\n")
        with pytest.raises(ParseError, match="line 3 has 2 fields, expected 3"):
            read_labeled(path)

    def test_na_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\tb\ns1\t1\tNA\n")
        with pytest.raises(ParseError, match="line 2, column 3.*'NA'"):
            read_labeled(path)

    def test_inf_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\ns1\tinf\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_labeled(path)

    def test_underscore_literal_rejected(self, tmp_path):
        # float("1_0") parses in Python; a data file saying that is a typo
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\ns1\t1_0\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_labeled(path)

    def test_duplicate_ids_in_file(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\ns1\t1\ns1\t2\n")
        with pytest.raises(ValidationError, match="duplicate sample id"):
            read_labeled(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("id\ta\n")
        with pytest.raises(ParseError):
            read_labeled(path)

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"id\ta\n", ParseError),
            (b"id\ta\ns1\t1\ns1\t2\n", ValidationError),
            (b"id\ta\ns1\t\xff\n", ParseError),
            (b"id\ta\ns1\tNA\n", ParseError),
            (b"id\ta\ns1\t1\t2\n", ParseError),
        ],
        ids=["header only", "duplicate ids", "not UTF-8", "bad cell", "ragged"],
    )
    def test_error_names_the_file_once(self, tmp_path, content, error):
        path = tmp_path / "bad.tsv"
        path.write_bytes(content)
        with pytest.raises(error) as caught:
            read_labeled(path)
        message = str(caught.value)
        assert message.startswith(f"{path}: ") and message.count(str(path)) == 1

    def test_unknown_delimiter(self, tmp_path):
        with pytest.raises(DomainError, match="semicolon"):
            read_labeled(tmp_path / "x", delimiter="semicolon")


class TestRoundTrip:
    def test_hand_round_trip_bitwise(self, tmp_path):
        m = lm([[0.1, -0.0], [1e-300, 12345678.9]])
        path = tmp_path / "rt.tsv"
        write_labeled(m, path)
        back = read_labeled(path)
        assert back.sample_ids == m.sample_ids
        assert back.feature_ids == m.feature_ids
        assert np.array_equal(
            back.values.view(np.uint64), m.values.view(np.uint64)
        )

    def test_written_bytes_are_canonical(self, tmp_path):
        m = lm([[1.5]], samples=["s1"], features=["g1"])
        path = tmp_path / "rt.tsv"
        write_labeled(m, path)
        assert path.read_bytes() == b"id\tg1\ns1\t1.5\n"

    def test_features_in_rows_round_trip(self, tmp_path):
        m = lm([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "rt.tsv"
        write_labeled(LabeledMatrix(m.values.T, m.feature_ids, m.sample_ids), path)
        back = read_labeled(path, orientation="features_in_rows")
        assert np.array_equal(back.values, m.values)
        assert back.sample_ids == m.sample_ids

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(
                    allow_nan=False,
                    allow_infinity=False,
                    width=64,
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        m = lm(rows)
        path = tmp_path_factory.mktemp("rt") / "m.tsv"
        write_labeled(m, path, delimiter="comma")
        back = read_labeled(path, delimiter="comma")
        assert np.array_equal(
            back.values.view(np.uint64), m.values.view(np.uint64)
        )


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRowParser:
    """read_labeled converts a file in one numpy C-reader call and reads a
    file that the reader refuses row by row, handing only a row that fails
    to _parse_cell, cell by cell; _parse_cell is the oracle used here."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_odd_valid_cells_match_oracle_bitwise(self, tmp_path, newline):
        cells = [" 1.5 ", "+.5", "1E5", "-0.0", "5e-324", "\u0661\u0662"]
        header = "id\t" + "\t".join(f"c{j}" for j in range(len(cells)))
        rows = [cells, cells[::-1]]
        text = newline.join(
            [header] + [f"s{i}\t" + "\t".join(r) for i, r in enumerate(rows)]
        )
        path = tmp_path / "odd.tsv"
        path.write_bytes((text + newline).encode("utf-8"))
        m = read_labeled(path)
        expected = [[_parse_cell(c, 0, 0) for c in r] for r in rows]
        assert np.array_equal(bits(m.values), bits(expected))
        assert m.sample_ids == ["s0", "s1"]
        assert m.feature_ids[-1] == f"c{len(cells) - 1}"

    @pytest.mark.parametrize(
        "cell, kind",
        [
            ("1_0", "non-numeric"),
            ("", "non-numeric"),
            ("NA", "non-numeric"),
            ("nan", "non-finite"),
            ("inf", "non-finite"),
            ("1e400", "non-finite"),
            ("1 2", "non-numeric"),
        ],
    )
    def test_malformed_cell_exact_message(self, tmp_path, cell, kind):
        path = tmp_path / "bad.tsv"
        path.write_text(f"id\ta\tb\ns1\t1\t2\ns2\t3\t{cell}\n")
        with pytest.raises(ParseError) as caught:
            read_labeled(path)
        assert str(caught.value) == f"{path}: line 3, column 3: {kind} cell {cell!r}"

    @pytest.mark.parametrize("cell", ["NA", "inf", "1_0"])
    def test_bad_cell_reported_before_later_ragged_line(self, tmp_path, cell):
        path = tmp_path / "bad.tsv"
        path.write_text(f"id\ta\tb\ns1\t1\t{cell}\ns2\t3\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2, column 3: "):
            read_labeled(path)

    def test_first_of_two_bad_cells_reported(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\tb\tc\ns1\t1\tinf\tNA\n")
        with pytest.raises(ParseError) as caught:
            read_labeled(path)
        assert str(caught.value) == f"{path}: line 2, column 3: non-finite cell 'inf'"

    def test_line_without_separator_has_one_field(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\ns1\t1\nlonely\n")
        with pytest.raises(ParseError) as caught:
            read_labeled(path)
        assert str(caught.value) == f"{path}: line 3 has 1 fields, expected 2"

    @pytest.mark.parametrize(
        "row, error",
        [
            ("s1", "line 2 has 1 fields, expected 2"),
            ("s1\t", "line 2, column 2: non-numeric cell ''"),
            ("s1\t\r", "line 2, column 2: non-numeric cell '\\r'"),
        ],
    )
    def test_rows_blank_after_their_labels_raise_without_a_warning(
        self, tmp_path, recwarn, row, error
    ):
        # The C reader gets a blank line for each row, which it skips.
        path = tmp_path / "bad.tsv"
        path.write_text(f"id\ta\n{row}\n", newline="")
        with pytest.raises(ParseError) as caught:
            read_labeled(path)
        assert str(caught.value) == f"{path}: {error}"
        assert [str(w.message) for w in recwarn] == []

    def test_per_cell_parser_only_for_rows_that_fail(self, tmp_path, monkeypatch):
        calls = []

        def counting(text, line_no, col_no):
            calls.append((line_no, col_no))
            return _parse_cell(text, line_no, col_no)

        monkeypatch.setattr(data_io, "_parse_cell", counting)
        # Underscores in labels are fine.
        header = "id\tg_1\tg_2\n"
        path = tmp_path / "m.tsv"
        path.write_text(header + "s_1\t1\t2\ns_2\t1e308\t1e308\n")
        m = read_labeled(path)
        # The C reader takes the whole file, near-maximal row included.
        assert calls == []
        assert m.values.tolist() == [[1.0, 2.0], [1e308, 1e308]]
        assert m.sample_ids == ["s_1", "s_2"]

        # A cell it refuses but float() takes sends the file through the
        # row-by-row pass, and no row of it through the per-cell one.
        path.write_text(header + "s_1\t1\t2\ns_2\t\u0661\t1e308\n")
        m = read_labeled(path)
        assert calls == []
        assert m.values.tolist() == [[1.0, 2.0], [1.0, 1e308]]

    def test_per_cell_parser_only_for_the_bad_row(self, tmp_path, monkeypatch):
        calls = []

        def counting(text, line_no, col_no):
            calls.append((line_no, col_no))
            return _parse_cell(text, line_no, col_no)

        monkeypatch.setattr(data_io, "_parse_cell", counting)
        path = tmp_path / "m.tsv"
        path.write_text("id\ta\tb\ns1\t\u0661.5\t2\ns2\t3\tNA\ns3\t4\t5\n")
        with pytest.raises(ParseError) as caught:
            read_labeled(path)
        assert str(caught.value) == f"{path}: line 3, column 3: non-numeric cell 'NA'"
        # Only line 3 is read cell by cell, up to its bad cell.
        assert calls == [(3, 2), (3, 3)]


def cell_by_cell(text, sep, orientation):
    """What read_labeled returns for a file holding ``text``, from one
    _parse_cell call per cell; the oracle for its C-reader path."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split(sep)
    values, labels = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(sep)
        if len(fields) != len(header):
            raise ParseError(
                f"line {line_no} has {len(fields)} fields, expected {len(header)}"
            )
        labels.append(fields[0].strip())
        values.append(
            [_parse_cell(t, line_no, col) for col, t in enumerate(fields[1:], start=2)]
        )
    features = [c.strip() for c in header[1:]]
    if orientation == "features_in_rows":
        return LabeledMatrix(np.array(values).T, features, labels)
    return LabeledMatrix(np.array(values), labels, features)


# Shortest reprs of doubles, with the extremes spelled out.
SHORTEST_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["-0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308",
         "-1.7976931348623157e+308"]
    ),
)
ODD_CELLS = [" 1.5 ", "+.5", "1E5", "\u0661\u0662", "\xa01.5\xa0", "1.5\r"]
BAD_CELLS = ["1_0", "", "NA", "nan", "inf", "1e400", "0x10", "1.5\x00"]


# Every character str.strip strips, but the newline that ends a line.
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c != "\n"]


@st.composite
def matrix_files(draw, readable=False):
    """(text, delimiter, orientation): a grid of shortest reprs with up
    to two odd or bad cells, perhaps every field of one row padded with
    whitespace, perhaps one extra field on every grid row, perhaps one
    blank, whitespace-only or ragged line, and each line ended by a unix
    or CRLF newline. A ``readable`` file has no bad cell, no extra field
    and no such line, so read_labeled accepts it."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = [[draw(SHORTEST_CELLS) for _ in range(p)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        cell = draw(st.sampled_from(ODD_CELLS if readable else ODD_CELLS + BAD_CELLS))
        grid[draw(st.integers(0, n - 1))][draw(st.integers(0, p - 1))] = cell
    delimiter = draw(st.sampled_from(["tab", "comma"]))
    sep = data_io.delimiter_char(delimiter)
    lines = [sep.join(["id", *[f"f{j}" for j in range(p)]])]
    rows = [[f"s_{i}", *row] for i, row in enumerate(grid)]
    if draw(st.booleans()):
        pad = draw(st.sampled_from([c for c in SPACES if c != sep]))
        k = draw(st.integers(0, n - 1))
        rows[k] = [pad + f + pad for f in rows[k]]
    if readable:
        lines += [sep.join(row) for row in rows]
    else:
        extra = [draw(SHORTEST_CELLS)] if draw(st.booleans()) else []
        lines += [sep.join(row + extra) for row in rows]
        ragged = [sep.join(["r", *["1"] * k]) for k in (p - 1, p + 1)]
        odd_lines = ["", "  \t ", *ragged]
        for line in draw(st.lists(st.sampled_from(odd_lines), max_size=1)):
            lines.insert(draw(st.integers(1, len(lines))), line)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    orientation = draw(st.sampled_from(["samples_in_rows", "features_in_rows"]))
    return text, delimiter, orientation


class TestReaderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(matrix_files())
    def test_read_labeled_matches_cell_by_cell_oracle(self, tmp_path_factory, case):
        text, delimiter, orientation = case
        path = tmp_path_factory.mktemp("eq") / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = cell_by_cell(text, data_io.delimiter_char(delimiter), orientation)
        except (ParseError, ValidationError) as exc:
            with pytest.raises(type(exc)) as caught:
                read_labeled(path, delimiter, orientation)
            assert str(caught.value) == f"{path}: {exc}"
            return
        m = read_labeled(path, delimiter, orientation)
        assert np.array_equal(bits(m.values), bits(expected.values))
        assert m.sample_ids == expected.sample_ids
        assert m.feature_ids == expected.feature_ids


class TestPaperWidth:
    def test_round_trip_bytes_and_bits(self, tmp_path):
        rng = np.random.default_rng(8)
        n, p = 32, 5459
        values = rng.normal(size=(n, p))
        subnormal, zero, huge = rng.random((3, n, p)) < 0.005
        values[subnormal] = np.ldexp(rng.uniform(-1, 1, subnormal.sum()), -1060)
        values[zero] = -0.0
        # Near-maximal values are finite and must be read as such; only the
        # first half of the rows holds them.
        huge[n // 2 :] = False
        values[huge] = np.ldexp(
            rng.choice([-1.0, 1.0], huge.sum()) * rng.uniform(0.99, 1, huge.sum()),
            1024,
        )
        assert np.abs(values).max() > 1.78e308
        m = lm(values)
        path = tmp_path / "wide.tsv"
        write_labeled(m, path)
        oracle = "id\t" + "\t".join(m.feature_ids) + "\n" + "".join(
            label + "\t" + "\t".join(repr(float(v)) for v in row) + "\n"
            for label, row in zip(m.sample_ids, values)
        )
        assert path.read_bytes() == oracle.encode("utf-8")
        back = read_labeled(path)
        assert np.array_equal(bits(back.values), bits(values))


def per_field_copy(text, sep, orientation, columns):
    """What write_features writes for a file holding ``text`` that
    read_labeled accepts, with every kept field stripped and the fields
    joined line by line; the oracle for its copy of whole lines."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    table = [line.split(sep) for line in lines]
    if orientation == "features_in_rows":
        table = list(zip(*table))
    return "".join(
        sep.join([row[0].strip() if i else "id", *[row[j + 1].strip() for j in columns]])
        + "\n"
        for i, row in enumerate(table)
    )


class TestWriteFeatures:
    """LabeledText.write_features copies kept cells as the input spelled
    them; read_labeled of the copy is the oracle for the values."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_cells_stripped_and_otherwise_verbatim(self, tmp_path, newline):
        rows = [
            ["s0", "1.50", " 2 ", "1E3", "+4", "1e-400"],
            [" s1 ", "-0.0", "\u0661\u0662", "5e-324 ", ".5", "7"],
        ]
        lines = ["id\ta\tb \tc\td\te"] + ["\t".join(r) for r in rows]
        path = tmp_path / "odd.tsv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        out = tmp_path / "out.tsv"
        table = read_labeled_text(path)
        table.write_features(range(table.matrix.n_features), out)
        assert out.read_bytes().decode("utf-8") == (
            "id\ta\tb\tc\td\te\n"
            "s0\t1.50\t2\t1E3\t+4\t1e-400\n"
            "s1\t-0.0\t\u0661\u0662\t5e-324\t.5\t7\n"
        )
        assert np.array_equal(bits(read_labeled(out).values), bits(table.matrix.values))

    @pytest.mark.parametrize("orientation", ["samples_in_rows", "features_in_rows"])
    @pytest.mark.parametrize("delimiter", ["tab", "comma"])
    def test_reads_back_as_kept_columns_bitwise(self, tmp_path, delimiter, orientation):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(7, 9)) * 10.0 ** rng.integers(-300, 300, (7, 9))
        m = lm(values)
        stored = m if orientation == "samples_in_rows" else LabeledMatrix(
            values.T, m.feature_ids, m.sample_ids
        )
        path = tmp_path / "in.txt"
        write_labeled(stored, path, delimiter=delimiter)
        table = read_labeled_text(path, delimiter, orientation)
        keep = [7, 0, 3]
        out = tmp_path / "out.txt"
        table.write_features(keep, out)
        back = read_labeled(out, delimiter=delimiter)
        assert back.sample_ids == m.sample_ids
        assert back.feature_ids == ["f7", "f0", "f3"]
        assert np.array_equal(bits(back.values), bits(values[:, keep]))

    @settings(max_examples=300, deadline=None)
    @given(matrix_files(readable=True), st.data())
    def test_bytes_match_per_field_oracle(self, tmp_path_factory, case, data):
        text, delimiter, orientation = case
        path = tmp_path_factory.mktemp("wf") / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        table = read_labeled_text(path, delimiter, orientation)
        p = table.matrix.n_features
        subset = data.draw(st.lists(st.integers(0, p - 1), unique=True))
        out = path.with_name("out.txt")
        for columns in (range(p), subset):
            table.write_features(columns, out)
            expected = per_field_copy(text, table.sep, orientation, columns)
            assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("pad", SPACES, ids=lambda c: f"U+{ord(c):04X}")
    def test_keep_all_strips_every_space(self, tmp_path, pad):
        sep = "," if pad == "\t" else "\t"
        padded = sep.join(pad + f + pad for f in ["s1", "3", "4"])
        path = tmp_path / "in.txt"
        path.write_text(f"id{sep}a{sep}b\ns0{sep}1{sep}2\n{padded}\n", "utf-8", newline="")
        table = read_labeled_text(path, "comma" if sep == "," else "tab")
        out = tmp_path / "out.txt"
        table.write_features(range(2), out)
        assert out.read_bytes() == f"id{sep}a{sep}b\ns0{sep}1{sep}2\ns1{sep}3{sep}4\n".encode()

    def test_no_features_writes_labels_only(self, tmp_path):
        m = lm([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "in.tsv"
        write_labeled(m, path)
        copied, printed = tmp_path / "copied.tsv", tmp_path / "printed.tsv"
        read_labeled_text(path).write_features([], copied)
        write_labeled(LabeledMatrix(m.values[:, []], m.sample_ids, []), printed)
        assert copied.read_bytes() == printed.read_bytes() == b"id\ns0\ns1\n"
        with pytest.raises(ParseError) as caught:
            read_labeled(copied)
        assert str(caught.value) == f"{copied}: line 1: header has no column labels"


@contextlib.contextmanager
def counting_parses():
    """The list of parser calls (``_c_reader``, ``_cell_reader``) made
    inside the block, by name."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_c_reader", "_cell_reader"):
            def counting(*args, real=getattr(data_io, name), name=name):
                calls.append(name)
                return real(*args)

            mp.setattr(data_io, name, counting)
        yield calls


def filter_output(source, out, columns, delimiter="tab", orientation="samples_in_rows"):
    """What ``aime filter`` writes for ``source`` when it keeps ``columns``:
    the copied cells at ``out`` and their values file beside it."""
    table = read_labeled_text(source, delimiter, orientation)
    table.write_features(columns, out)
    write_values(f"{out}.f64", out, table.sep, table.matrix.values[:, columns])


def outcome(path, delimiter="tab", orientation="samples_in_rows"):
    """What read_labeled gives for ``path``, its values as bits, or its
    error, with the parser calls it made."""
    with counting_parses() as calls:
        try:
            m = read_labeled(path, delimiter, orientation)
        except (ParseError, ValidationError) as exc:
            return (type(exc), str(exc)), calls
    return (bits(m.values).tolist(), m.sample_ids, m.feature_ids), calls


def values_file(output):
    return output.with_name(output.name + ".f64")


def flip_tsv_digit(output):
    data = bytearray(output.read_bytes())
    assert chr(data[-2]).isdigit()
    data[-2] = ord("0") + (data[-2] - ord("0") + 1) % 10
    output.write_bytes(bytes(data))


def edit_values(edit):
    def change(output):
        values_file(output).write_bytes(edit(values_file(output).read_bytes()))

    return change


def nan_with_digest(output):
    values = np.frombuffer(values_file(output).read_bytes()[32:], "<f8").reshape(6, 3).copy()
    values[2, 1] = np.nan
    digest = data_io._digest("\t", "samples_in_rows", [output.read_bytes()], values)
    values_file(output).write_bytes(digest + values.tobytes())


def directory(output):
    values_file(output).unlink()
    values_file(output).mkdir()


# Changes to a filter output ``a_kept.tsv`` beside ``b_kept.tsv``, each
# with the read options after it; the read must be the TSV's parse, with
# the same parser calls.
MISSES = {
    "tsv_byte": (flip_tsv_digit, {}),
    "value_byte": (edit_values(lambda d: d[:40] + bytes([d[40] ^ 1]) + d[41:]), {}),
    "truncated": (edit_values(lambda d: d[:-1]), {}),
    "extended": (edit_values(lambda d: d + bytes(8)), {}),
    "other_file": (
        lambda o: shutil.copy(values_file(o.with_name("b_kept.tsv")), values_file(o)), {}
    ),
    "delimiter": (lambda o: None, {"delimiter": "comma"}),
    "orientation": (lambda o: None, {"orientation": "features_in_rows"}),
    "nan": (nan_with_digest, {}),
    "directory": (directory, {}),
}


class TestValuesFile:
    """A filter output's values file stands in for parsing it only when its
    digest matches; every other read is the parse, with its result."""

    @settings(max_examples=200, deadline=None)
    @given(matrix_files(readable=True), st.data())
    def test_filter_output_reads_the_same_from_its_values(self, tmp_path_factory, case, data):
        text, delimiter, orientation = case
        path = tmp_path_factory.mktemp("vf") / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        p = read_labeled(path, delimiter, orientation).n_features
        columns = data.draw(st.lists(st.integers(0, p - 1), min_size=1, unique=True))
        out = path.with_name("out.txt")
        filter_output(path, out, columns, delimiter, orientation)
        stored, calls = outcome(out, delimiter)
        assert calls == []
        values_file(out).rename(path.with_name("aside"))
        parsed, calls = outcome(out, delimiter)
        assert calls and parsed == stored

    @pytest.fixture()
    def output(self, tmp_path):
        """A filter output of a 6 x 5 file and one of another 6 x 5 file,
        both keeping columns 3, 0 and 4."""
        rng = np.random.default_rng(31)
        for name in ("a", "b"):
            write_labeled(lm(rng.normal(size=(6, 5))), tmp_path / f"{name}.tsv")
            filter_output(tmp_path / f"{name}.tsv", tmp_path / f"{name}_kept.tsv", [3, 0, 4])
        return tmp_path / "a_kept.tsv"

    def test_layout(self, output):
        values = read_labeled(output.with_name("a.tsv")).values[:, [3, 0, 4]]
        tag = b"aime values 1\0" + b"\t" + b"samples_in_rows"
        digest = hashlib.sha256(tag + output.read_bytes() + values.astype("<f8").tobytes())
        data = values_file(output).read_bytes()
        assert data == digest.digest() + values.astype("<f8").tobytes()
        with counting_parses() as calls:
            assert np.array_equal(bits(read_labeled(output).values), bits(values))
        assert calls == []

    @pytest.mark.parametrize("case", MISSES)
    def test_miss_is_the_parse(self, output, case):
        change, options = MISSES[case]
        change(output)
        read = outcome(output, **options)
        shutil.move(values_file(output), output.with_name("aside"))
        assert read == outcome(output, **options)


class TestAlignSamples:
    def test_reorders_b_to_a(self):
        a = lm([[1.0], [2.0]], samples=["s1", "s2"])
        b = lm([[20.0], [10.0]], samples=["s2", "s1"])
        a2, b2 = align_samples(a, b)
        assert a2.sample_ids == ["s1", "s2"]
        assert b2.sample_ids == ["s1", "s2"]
        assert b2.values.tolist() == [[10.0], [20.0]]

    def test_partial_overlap(self):
        a = lm(np.arange(5.0)[:, None], samples=list("abcde"))
        b = lm(np.arange(3.0)[:, None] + 10, samples=["e", "c", "a"])
        a2, b2 = align_samples(a, b)
        assert a2.sample_ids == ["a", "c", "e"]
        assert a2.values[:, 0].tolist() == [0.0, 2.0, 4.0]
        assert b2.values[:, 0].tolist() == [12.0, 11.0, 10.0]

    def test_disjoint_raises_with_examples(self):
        a = lm([[1.0]], samples=["left1"])
        b = lm([[2.0]], samples=["right1"])
        with pytest.raises(AlignmentError, match="left1.*right1"):
            align_samples(a, b)

    def test_thousands_of_ids_in_reversed_order(self):
        n = 3000
        ids = [f"id{i}" for i in range(n)]
        a = lm(np.arange(n, dtype=float)[:, None], samples=ids)
        b = lm(-np.arange(n, dtype=float)[::-1, None], samples=ids[::-1])
        a2, b2 = align_samples(a, b)
        assert a2.sample_ids == ids and b2.sample_ids == ids
        assert a2.values[:, 0].tolist() == list(range(n))
        assert b2.values[:, 0].tolist() == [-float(i) for i in range(n)]

    def test_idempotent(self):
        a = lm([[1.0], [2.0]], samples=["x", "y"])
        b = lm([[3.0], [4.0]], samples=["y", "x"])
        a2, b2 = align_samples(a, b)
        a3, b3 = align_samples(a2, b2)
        assert a3.sample_ids == a2.sample_ids
        assert np.array_equal(a3.values, a2.values)
        assert np.array_equal(b3.values, b2.values)


class TestFilters:
    def test_constant_feature_dropped_by_cv(self):
        m = lm([[10.0, 1.0], [10.0, 2.0], [10.0, 3.0]], features=["flat", "var"])
        assert cv_filter(m, 0.05).tolist() == [1]

    def test_cv_kept_at_mean_ten_sd_one(self):
        rows = [[9.0], [10.0], [11.0]]  # mean 10, sd 1, cv 0.1
        assert cv_filter(lm(rows), 0.05).tolist() == [0]

    def test_near_zero_mean_dropped_with_warning(self):
        m = lm([[1.0, 1.0], [-1.0, 2.0]], features=["zero_mean", "ok"])
        with pytest.warns(UserWarning, match="near-zero mean"):
            out = cv_filter(m, 0.05)
        assert out.tolist() == [1]

    def test_sd_filter_constant_dropped(self):
        m = lm([[5.0], [5.0]])
        with pytest.warns(UserWarning, match="removed every feature"):
            assert sd_filter(m, 0.001).size == 0

    def test_sd_filter_hand_value(self):
        # sd of (0, 2.5) with n-1 divisor is 2.5/sqrt(2) = 1.7678
        m = lm([[0.0], [2.5]])
        assert sd_filter(m, 1.25).tolist() == [0]
        with pytest.warns(UserWarning, match="removed every feature"):
            assert sd_filter(m, 1.77).size == 0

    def test_empty_result_warns(self):
        m = lm([[1.0], [1.1]])
        with pytest.warns(UserWarning, match="removed every feature"):
            sd_filter(m, 1e9)

    def test_single_row_rejected(self):
        m = lm([[1.0, 2.0]])
        with pytest.raises(InsufficientDataError):
            sd_filter(m, 0.1)

    def test_cv_filter_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(loc=2.0, scale=1.0, size=(30, 100))
        m = lm(vals)
        out = cv_filter(m, 0.5)
        expected = []
        for j in range(100):
            col = vals[:, j]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
            if abs(mean) >= 1e-12 and (var**0.5) / abs(mean) > 0.5:
                expected.append(j)
        assert out.tolist() == expected

    def test_sd_filter_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(scale=1.3, size=(25, 80))
        m = lm(vals)
        out = sd_filter(m, 1.25)
        expected = []
        for j in range(80):
            col = vals[:, j]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
            if var**0.5 > 1.25:
                expected.append(j)
        assert out.tolist() == expected

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("flt", [cv_filter, sd_filter])
    def test_non_finite_threshold_rejected(self, flt, threshold):
        m = lm([[1.0, 2.0], [3.0, 5.0]])
        with pytest.raises(DomainError, match="^threshold must be finite, got "):
            flt(m, threshold)

    def test_filters_preserve_order(self):
        rng = np.random.default_rng(9)
        m = lm(rng.normal(size=(10, 20)))
        out = sd_filter(m, 0.5).tolist()
        assert 0 < len(out) < 20
        assert out == sorted(out)
