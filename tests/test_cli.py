import os
import stat
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from aime import cli
from aime.aime_model import embed, fit, save_model
from aime.cca_baseline import fit_cca
from aime.cli import (
    PALETTE,
    _atomic_write,
    _escape,
    main,
    parse_config,
    read_labels,
    scatter_matrix_svg,
)
from aime.data_io import (
    LabeledMatrix,
    cv_filter,
    read_labeled,
    sd_filter,
    write_labeled,
)
from aime.errors import AimeError, ParseError, ValidationError
from aime.matrix_core import column_stats, rng_stream
from aime.neural_net import TrainConfig
from aime.synth_bench import SynthSpec, generate


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def write_toy_matrix(path, values, prefix="f"):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    m = LabeledMatrix(
        values,
        [f"s{i}" for i in range(n)],
        [f"{prefix}{j}" for j in range(p)],
    )
    write_labeled(m, path)
    return m


class TestConfig:
    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("# comment\n\nepochs = 7\n", {"epochs"})
        assert cfg == {"epochs": "7"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("epochs 7\n", {"epochs"})

    def test_repeated_key_rejected(self):
        with pytest.raises(
            ParseError, match="config line 3: key 'epochs' already set on line 1"
        ):
            parse_config("epochs=2\nd=3\n epochs = 5\n", {"epochs", "d"})

    def test_config_supplies_default_flag_overrides(self, runner, tmp_path):
        x = tmp_path / "x.tsv"
        write_toy_matrix(x, np.random.default_rng(0).normal(size=(6, 3)))
        conf = tmp_path / "run.conf"
        conf.write_text("threshold=1e9\n")
        # config says drop everything
        r1 = invoke(
            runner, "filter", x, tmp_path / "o1.tsv", "--sd", "--config", conf,
        )
        assert r1.exit_code == 0
        assert "kept 0" in r1.output
        assert "warning: sd_filter removed every feature" in r1.stderr
        assert "UserWarning" not in r1.output
        # explicit flag wins over the config value
        r2 = invoke(
            runner, "filter", x, tmp_path / "o2.tsv", "--sd",
            "--threshold", "0", "--config", conf,
        )
        assert r2.exit_code == 0
        assert "kept 3" in r2.output

    def synth(self, runner, tmp_path):
        r = invoke(runner, "synth", tmp_path / "d", "--n", 30, "--p", 8,
                   "--q", 6, "--n-signal", 4, "--seed", 1)
        assert r.exit_code == 0, r.output
        return tmp_path / "d_x.tsv", tmp_path / "d_y.tsv"

    def test_config_keys_are_parameter_names(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("d=3\nepochs=2\n")
        r = invoke(runner, "train", x, y, "--config", conf,
                   "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 0, r.output
        assert len((tmp_path / "m.bin.history").read_text().splitlines()) == 2
        r = invoke(runner, "embed", tmp_path / "m.bin", x, tmp_path / "e.tsv")
        assert r.exit_code == 0, r.output
        assert read_labeled(tmp_path / "e.tsv").values.shape == (30, 3)

    def test_bad_config_value_names_the_flag(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("epochs=abc\n")
        r = invoke(runner, "train", x, y, "--config", conf,
                   "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 2
        assert "--epochs" in r.stderr
        assert "Traceback" not in r.output
        assert not (tmp_path / "m.bin").exists()


    def test_config_key_no_command_takes_exits_2(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        conf = tmp_path / "bad.cfg"
        conf.write_text("d=2\nepoch=2\n")
        r = invoke(runner, "train", x, y, "--config", conf,
                   "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 2
        assert "config line 2: no command takes key 'epoch'" in r.stderr
        assert "Traceback" not in r.output
        assert not (tmp_path / "m.bin").exists()

    def test_config_repeated_key_exits_2(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        conf = tmp_path / "twice.cfg"
        conf.write_text("epochs=2\n# later\nepochs=5\n")
        r = invoke(runner, "train", x, y, "--config", conf,
                   "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 2
        assert "config line 3: key 'epochs' already set on line 1" in r.stderr
        assert "Traceback" not in r.output
        assert not (tmp_path / "m.bin").exists()

    def test_config_embedding_wider_than_data_exits_2(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        conf = tmp_path / "wide.cfg"
        conf.write_text("d=99999999999\n")
        r = invoke(runner, "train", x, y, "--config", conf,
                   "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 2
        assert "embedding size 99999999999 exceeds min(p, q) = 6" in r.stderr
        assert "Traceback" not in r.output
        assert not (tmp_path / "m.bin").exists()

    def test_config_key_of_another_command_accepted(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        conf = tmp_path / "shared.cfg"
        conf.write_text("ridge=0.5\nepochs=2\n")
        r = invoke(runner, "train", x, y, "--config", conf,
                   "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 0, r.output
        assert len((tmp_path / "m.bin.history").read_text().splitlines()) == 2


class TestFilterCommand:
    def test_cv_counts_match_oracle(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(loc=2.0, size=(20, 40))
        write_toy_matrix(tmp_path / "in.tsv", values)
        result = invoke(
            runner, "filter", tmp_path / "in.tsv", tmp_path / "out.tsv",
            "--cv", "--threshold", "0.4",
        )
        assert result.exit_code == 0
        expected = 0
        for j in range(40):
            col = values[:, j]
            mean = col.mean()
            sd = col.std(ddof=1)
            if abs(mean) >= 1e-12 and sd / abs(mean) > 0.4:
                expected += 1
        assert f"kept {expected} of 40" in result.output
        assert read_labeled(tmp_path / "out.tsv").n_features == expected

    def test_sd_zero_threshold_keeps_nonconstant(self, runner, tmp_path):
        values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        write_toy_matrix(tmp_path / "in.tsv", values)
        result = invoke(
            runner, "filter", tmp_path / "in.tsv", tmp_path / "out.tsv",
            "--sd", "--threshold", "0",
        )
        assert result.exit_code == 0
        out = read_labeled(tmp_path / "out.tsv")
        assert out.feature_ids == ["f0"]

    def test_missing_input_exits_2_naming_path(self, runner, tmp_path):
        result = invoke(
            runner, "filter", tmp_path / "absent.tsv", tmp_path / "o.tsv", "--cv"
        )
        assert result.exit_code == 2
        assert "absent.tsv" in result.output

    def test_non_utf8_input_exits_2(self, runner, tmp_path):
        (tmp_path / "in.tsv").write_bytes(b"id\tf0\ns0\t1.0\ns1\t\xff2.0\n")
        result = invoke(runner, "filter", tmp_path / "in.tsv", tmp_path / "o.tsv", "--sd")
        assert result.exit_code == 2
        assert "in.tsv: byte 0xff at offset 16 is not UTF-8" in result.stderr
        assert "Traceback" not in result.output

    def test_both_modes_rejected(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "in.tsv", np.ones((3, 2)))
        for flags in (["--cv", "--sd"], []):
            result = invoke(
                runner, "filter", tmp_path / "in.tsv", tmp_path / "o.tsv", *flags
            )
            assert result.exit_code == 2
            assert result.stderr == "error: pass exactly one of --cv or --sd\n"
            assert not (tmp_path / "o.tsv").exists()

    @pytest.mark.parametrize("mode", ["--cv", "--sd"])
    def test_one_row_input_exits_2_naming_path(self, runner, tmp_path, mode):
        source = tmp_path / "in.tsv"
        write_toy_matrix(source, np.ones((1, 2)))
        result = invoke(runner, "filter", source, tmp_path / "o.tsv", mode)
        assert result.exit_code == 2
        assert result.stderr == f"error: {source}: standard deviation needs at least 2 rows, got 1\n"
        assert not (tmp_path / "o.tsv").exists()


# Malformed matrix files: the TestReadLabeled and TestRowParser cases of
# tests/test_data_io.py.
MALFORMED = {
    "ragged": "id\ta\tb\ns1\t1\t2\ns2\t3\n",
    "na": "id\ta\tb\ns1\t1\tNA\n",
    "inf": "id\ta\ns1\tinf\n",
    "underscore": "id\ta\ns1\t1_0\n",
    "duplicate_ids": "id\ta\ns1\t1\ns1\t2\n",
    "header_only": "id\ta\n",
    "empty_cell": "id\ta\tb\ns1\t1\t2\ns2\t3\t\n",
    "overflow": "id\ta\tb\ns1\t1\t2\ns2\t3\t1e400\n",
    "inner_space": "id\ta\tb\ns1\t1\t1 2\n",
    "bad_cell_before_ragged": "id\ta\tb\ns1\t1\tinf\ns2\t3\n",
    "no_separator": "id\ta\ns1\t1\nlonely\n",
    "no_column_labels": "id\ns1\ns2\n",
}


class TestFilterCopiesCells:
    """filter writes each kept cell as the input spelled it; for files that
    write_labeled wrote, write_labeled of the columns that sd_filter or
    cv_filter keeps is the oracle."""

    @pytest.mark.parametrize(
        "mode, delimiter, orientation",
        [
            ("--sd", "tab", "samples_in_rows"),
            ("--cv", "tab", "samples_in_rows"),
            ("--sd", "comma", "features_in_rows"),
            ("--cv", "comma", "features_in_rows"),
        ],
    )
    def test_synth_file_bytes_match_old_write_path(
        self, runner, tmp_path, mode, delimiter, orientation
    ):
        x = generate(SynthSpec(n=30, p=40, q=6, n_signal=4, noise_sd=0.3,
                               design="linear", seed=14)).x
        if orientation == "features_in_rows":
            x = LabeledMatrix(x.values.T, x.feature_ids, x.sample_ids)
        path = tmp_path / "in.txt"
        write_labeled(x, path, delimiter=delimiter)
        m = read_labeled(path, delimiter=delimiter, orientation=orientation)
        means, sds = column_stats(m.values)
        stat = sds if mode == "--sd" else sds / np.abs(means)
        threshold = float(np.median(stat))
        result = invoke(
            runner, "filter", path, tmp_path / "out.txt", mode,
            "--threshold", repr(threshold), "--delimiter", delimiter,
            "--orientation", orientation,
        )
        assert result.exit_code == 0, result.output
        flt = sd_filter if mode == "--sd" else cv_filter
        kept = flt(m, threshold)
        assert 0 < kept.size < m.n_features
        oracle = LabeledMatrix(
            m.values[:, kept], m.sample_ids, [m.feature_ids[j] for j in kept]
        )
        write_labeled(oracle, tmp_path / "oracle.txt", delimiter=delimiter)
        assert (tmp_path / "out.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()

    def test_keep_all_of_synth_file_is_identity(self, runner, tmp_path):
        r = invoke(runner, "synth", tmp_path / "d", "--n", 20, "--p", 7, "--q", 5,
                   "--n-signal", 3, "--seed", 14)
        assert r.exit_code == 0, r.output
        for side in "xy":
            source = tmp_path / f"d_{side}.tsv"
            result = invoke(runner, "filter", source, tmp_path / "kept.tsv",
                            "--sd", "--threshold", "0")
            assert result.exit_code == 0, result.output
            assert (tmp_path / "kept.tsv").read_bytes() == source.read_bytes()

    def test_non_canonical_cells_copied_stripped_with_lf(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(
            b"id,a,b,c, d ,e\r\n"
            b"s0,1.50, 2 ,1E3,+4,1e-400\r\n"
            b" s1 ,2.50,3,2E3,5,0\r\n"
        )
        result = invoke(runner, "filter", path, tmp_path / "out.csv", "--cv",
                        "--threshold", "0", "--delimiter", "comma")
        assert result.exit_code == 0, result.output
        # e has mean 0 and is dropped with a warning.
        assert "kept 4 of 5 features (dropped 1)" in result.stdout
        assert "warning: cv_filter dropped 1 feature(s) with near-zero mean" in result.stderr
        assert (tmp_path / "out.csv").read_bytes() == (
            b"id,a,b,c,d\ns0,1.50,2,1E3,+4\ns1,2.50,3,2E3,5\n"
        )

    def test_cv_zero_mean_columns_warn_once_without_division(self, runner, tmp_path):
        # Column z has mean exactly 0 and sd 1, column o is all zeros: a
        # ratio formed for them would raise numpy's divide-by-zero and
        # invalid-value warnings, which the CLI would print too.
        path = tmp_path / "in.tsv"
        path.write_text("id\ta\tz\to\ns0\t1\t-1\t0\ns1\t3\t1\t0\n")
        result = invoke(runner, "filter", path, tmp_path / "out.tsv", "--cv",
                        "--threshold", "0")
        assert result.exit_code == 0, result.output
        assert result.stdout == "kept 1 of 3 features (dropped 2)\n"
        assert result.stderr == (
            "warning: cv_filter dropped 2 feature(s) with near-zero mean\n"
        )
        assert (tmp_path / "out.tsv").read_text() == "id\ta\ns0\t1\ns1\t3\n"

    def test_input_opened_once(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "in.tsv"
        write_toy_matrix(path, np.arange(12.0).reshape(4, 3) ** 2)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(args[:1])
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        result = invoke(runner, "filter", path, tmp_path / "out.tsv", "--sd",
                        "--threshold", "0")
        assert result.exit_code == 0, result.output
        assert opened == [("rb",)]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_same_message_no_output(self, runner, tmp_path, name):
        path = tmp_path / "bad.tsv"
        path.write_text(MALFORMED[name])
        with pytest.raises(AimeError) as caught:
            read_labeled(str(path))
        result = invoke(runner, "filter", path, tmp_path / "out.tsv", "--sd")
        assert result.exit_code == 2
        assert result.stderr == f"error: {caught.value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]

    def test_every_feature_dropped_writes_no_empty_column(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "in.tsv", np.ones((3, 2)))
        result = invoke(runner, "filter", tmp_path / "in.tsv", tmp_path / "out.tsv",
                        "--sd", "--threshold", "0")
        assert result.exit_code == 0
        assert "kept 0 of 2 features (dropped 2)" in result.stdout
        assert (tmp_path / "out.tsv").read_bytes() == b"id\ns0\ns1\ns2\n"
        with pytest.raises(ParseError) as caught:
            read_labeled(tmp_path / "out.tsv")
        assert str(caught.value) == f"{tmp_path / 'out.tsv'}: line 1: header has no column labels"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2(self, runner, tmp_path, value):
        write_toy_matrix(tmp_path / "in.tsv", np.arange(6.0).reshape(3, 2))
        for mode in ("--sd", "--cv"):
            result = invoke(runner, "filter", tmp_path / "in.tsv", tmp_path / "o.tsv",
                            mode, "--threshold", value)
            assert result.exit_code == 2
            assert result.stderr == f"error: threshold must be finite, got {float(value)!r}\n"
            assert not (tmp_path / "o.tsv").exists()

    def test_non_finite_threshold_from_config_exits_2(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "in.tsv", np.arange(6.0).reshape(3, 2))
        conf = tmp_path / "run.conf"
        conf.write_text("threshold=nan\n")
        result = invoke(runner, "filter", tmp_path / "in.tsv", tmp_path / "o.tsv",
                        "--sd", "--config", conf)
        assert result.exit_code == 2
        assert "threshold must be finite" in result.stderr
        assert not (tmp_path / "o.tsv").exists()


class TestSynthAndTrain:
    def synth(self, runner, tmp_path, **kw):
        args = ["synth", tmp_path / "d"]
        defaults = dict(n=40, p=8, q=6, n_signal=4, seed=3)
        defaults.update(kw)
        for key, value in defaults.items():
            args += [f"--{key.replace('_', '-')}", value]
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output
        return tmp_path / "d_x.tsv", tmp_path / "d_y.tsv"

    def test_synth_writes_all_files(self, runner, tmp_path):
        self.synth(runner, tmp_path)
        for suffix in ("_x.tsv", "_y.tsv", "_labels.tsv", "_signal.txt"):
            assert (tmp_path / f"d{suffix}").exists()
        labels = read_labels(tmp_path / "d_labels.tsv")
        assert len(labels) == 40
        assert set(labels.values()) <= {"0", "1", "2", "3"}

    def test_train_runs_and_writes_history(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        result = invoke(
            runner, "train", x, y, "--dim", 2, "--epochs", 3,
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 0, result.output
        assert "final epoch loss" in result.output
        history = (tmp_path / "m.bin.history").read_text().strip().split("\n")
        assert len(history) == 3
        assert all(np.isfinite(float(line.split("\t")[1])) for line in history)

    @pytest.mark.parametrize("history", ["m.bin", "./m.bin", "config"])
    def test_history_out_that_is_the_model_file_exits_2(
        self, runner, tmp_path, monkeypatch, history
    ):
        # The inputs do not parse: the paths are refused before either is read.
        monkeypatch.chdir(tmp_path)
        for name in ("x.tsv", "y.tsv"):
            (tmp_path / name).write_text("id\ta\ns1\tNA\n")
        if history == "config":
            (tmp_path / "run.conf").write_text("history_out=m.bin\n")
            setting = ["--config", "run.conf"]
        else:
            setting = ["--history-out", history]
        result = invoke(runner, "train", "x.tsv", "y.tsv", "--model-out", "m.bin", *setting)
        assert result.exit_code == 2
        named = "m.bin" if history == "config" else history
        assert result.stderr == f"error: --model-out and --history-out are one file: {named}\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["x.tsv", "y.tsv", *(["run.conf"] if history == "config" else [])]
        )

    def test_bad_cell_error_names_its_file(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        lines = y.read_text().split("\n")
        fields = lines[4].split("\t")
        fields[2] = "abc"
        lines[4] = "\t".join(fields)
        y.write_text("\n".join(lines))
        result = invoke(runner, "train", x, y, "--epochs", 1, "--model-out", tmp_path / "m.bin")
        assert result.exit_code == 2
        assert result.stderr == f"error: {y}: line 5, column 3: non-numeric cell 'abc'\n"
        assert not (tmp_path / "m.bin").exists()

    def test_comma_delimiter_applies_to_history(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        (tmp_path / "csv").mkdir()
        cx, cy = self.synth(runner, tmp_path / "csv", delimiter="comma")
        for args, name in (((x, y), "tab.bin"), ((cx, cy, "--delimiter", "comma"), "comma.bin")):
            result = invoke(runner, "train", *args, "--dim", 2, "--epochs", 3,
                            "--model-out", tmp_path / name)
            assert result.exit_code == 0, result.output
        history = (tmp_path / "tab.bin.history").read_text()
        assert history.count("\t") == 3
        assert (tmp_path / "comma.bin.history").read_text() == history.replace("\t", ",")
        assert (tmp_path / "comma.bin").read_bytes() == (tmp_path / "tab.bin").read_bytes()

    def test_narrow_side_warns_on_stderr(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path, p=12, q=40)
        result = invoke(
            runner, "train", x, y, "--dim", 4, "--epochs", 1,
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 0, result.output
        assert "warning: input width 12 is narrow" in result.stderr
        assert "d=4" in result.stderr
        assert "output width" not in result.stderr
        assert "warning" not in result.stdout

    def test_same_seed_byte_identical_models(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        for name in ("a.bin", "b.bin"):
            result = invoke(
                runner, "train", x, y, "--epochs", 2, "--seed", 9,
                "--model-out", tmp_path / name,
            )
            assert result.exit_code == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_disjoint_sample_ids_exit_2(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "x.tsv", np.ones((3, 2)) + np.arange(3)[:, None])
        m = LabeledMatrix(np.ones((3, 2)), ["t0", "t1", "t2"], ["g0", "g1"])
        write_labeled(m, tmp_path / "y.tsv")
        result = invoke(
            runner, "train", tmp_path / "x.tsv", tmp_path / "y.tsv",
            "--epochs", 1, "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 2
        assert "no shared sample ids" in result.output

    def test_non_utf8_config_exits_2(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        (tmp_path / "run.conf").write_bytes(b"epochs=1\n# \xff\n")
        result = invoke(
            runner, "train", x, y, "--config", tmp_path / "run.conf",
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 2
        assert "run.conf: byte 0xff at offset 11" in result.stderr
        assert not (tmp_path / "m.bin").exists()

    def test_zero_epochs_reports_initial_model(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        result = invoke(
            runner, "train", x, y, "--dim", 2, "--epochs", 0,
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 0, result.output
        assert result.stdout == "40 samples: no epoch ran; the model is as initialized\n"
        assert (tmp_path / "m.bin").exists()
        assert (tmp_path / "m.bin.history").read_text() == ""

    @pytest.mark.parametrize("rate", ["inf", "1e308"])
    def test_learning_rate_infinite_in_float32_exits_2(self, runner, tmp_path, rate):
        # 1e308 is finite in float64 but rounds to inf in float32.
        x, y = self.synth(runner, tmp_path)
        result = invoke(
            runner, "train", x, y, "--epochs", 1, "--learning-rate", rate,
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 2
        assert "learning_rate must be > 0 and finite in float32" in result.stderr
        assert "Traceback" not in result.output
        assert "invalid value" not in result.stderr
        assert not (tmp_path / "m.bin").exists()

    def test_divergent_training_exits_3(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path, n=20)
        # Overflow on the way to the non-finite loss is the point here;
        # the failure line reports it, numpy's warnings do not.
        result = invoke(
            runner, "train", x, y, "--epochs", 5,
            "--learning-rate", "1e30",
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 3
        assert "numerical failure" in result.output
        assert "encountered in" not in result.stderr

    @pytest.mark.parametrize(
        "rate, message",
        [("1e30", "embedding of the training rows is not finite"), ("1e8", "weights overflowed")],
        ids=["embedding", "fold"],
    )
    def test_diverged_last_step_exits_3(self, runner, tmp_path, rate, message):
        # One step: its loss is finite, what it leaves behind is not. The
        # run must fail rather than write a model that load_model refuses.
        x, y = self.synth(runner, tmp_path, n=20, p=10, q=10, n_signal=10, seed=1)
        result = invoke(
            runner, "train", x, y, "--epochs", 1, "--learning-rate", rate,
            "--model-out", tmp_path / "m.bin",
        )
        assert result.exit_code == 3
        assert f"numerical failure: the {message}" in result.stderr
        # The overflows on the way are reported by that line alone; the
        # narrow-width warnings (p = q = 10 < 5d) still print.
        lines = result.stderr.splitlines()
        assert not [line for line in lines if "encountered in" in line]
        assert lines[0].startswith("warning: input width 10 is narrow")
        assert "Traceback" not in result.output
        assert not (tmp_path / "m.bin").exists()

    def test_collapsed_model_warns_and_writes(self, runner, tmp_path):
        # A constant x embeds every row at one point: train and importance
        # say so on stderr, exit 0 and write their files.
        x, y = tmp_path / "x.tsv", tmp_path / "y.tsv"
        write_toy_matrix(x, np.full((40, 20), 1.5), prefix="x")
        write_toy_matrix(y, rng_stream(19, 0, 0).standard_normal((40, 20)), prefix="y")
        result = invoke(runner, "train", x, y, "--epochs", 2, "--model-out", tmp_path / "m.bin")
        assert result.exit_code == 0, result.output
        assert result.stderr == (
            "warning: the embedding of the 40 training rows has numerical rank 0, "
            "below d=4: 4 of its axes are constant\n"
        )
        result = invoke(runner, "importance", tmp_path / "m.bin", x, tmp_path / "imp.tsv",
                        "--repeats", 2)
        assert result.exit_code == 0, result.output
        assert result.stderr.startswith("warning: every importance score is 0")
        assert (tmp_path / "imp.tsv").read_text().startswith("variable_id\tscore\trank\nx0\t0.0\t1\n")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_noise_sd_exits_2(self, runner, tmp_path, value):
        result = invoke(runner, "synth", tmp_path / "z", "--n-signal", 4,
                        "--noise-sd", value)
        assert result.exit_code == 2
        assert result.stderr == f"error: noise_sd must be finite and > 0, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_synth_seed_exits_2(self, runner, tmp_path):
        for seed in (-1, 2**64):
            result = invoke(runner, "synth", tmp_path / "z", "--n-signal", 4,
                            "--seed", seed)
            assert result.exit_code == 2
            assert result.stderr == f"error: seed must fit in 64 bits, got {seed}\n"
            assert list(tmp_path.iterdir()) == []

    def test_out_of_range_train_seed_exits_2(self, runner, tmp_path):
        x, y = self.synth(runner, tmp_path)
        for seed in (-1, 2**64):
            result = invoke(runner, "train", x, y, "--epochs", 1, "--seed", seed,
                            "--model-out", tmp_path / "m.bin")
            assert result.exit_code == 2
            assert result.stderr == f"error: seed must fit in 64 bits, got {seed}\n"
            assert not (tmp_path / "m.bin").exists()


class TestEmbedImportanceCca:
    @pytest.fixture()
    def trained(self, runner, tmp_path):
        r = invoke(runner, "synth", tmp_path / "d", "--n", 40, "--p", 8,
                   "--q", 6, "--n-signal", 4, "--seed", 3)
        assert r.exit_code == 0
        r = invoke(
            runner, "train", tmp_path / "d_x.tsv", tmp_path / "d_y.tsv",
            "--dim", 2, "--epochs", 2, "--model-out", tmp_path / "m.bin",
        )
        assert r.exit_code == 0, r.output
        return tmp_path

    def test_embed_writes_coordinates(self, runner, trained):
        result = invoke(
            runner, "embed", trained / "m.bin", trained / "d_x.tsv",
            trained / "emb.tsv",
        )
        assert result.exit_code == 0, result.output
        emb = read_labeled(trained / "emb.tsv")
        assert emb.values.shape == (40, 2)
        assert emb.feature_ids == ["e0", "e1"]

    def test_importance_full_fraction_lists_all(self, runner, trained):
        result = invoke(
            runner, "importance", trained / "m.bin", trained / "d_x.tsv",
            trained / "imp.tsv", "--repeats", 2, "--fraction", "1.0",
        )
        assert result.exit_code == 0, result.output
        lines = (trained / "imp.tsv").read_text().strip().split("\n")
        assert lines[0] == "variable_id\tscore\trank"
        assert len(lines) == 1 + 8

    def test_importance_fraction_counts_as_written(self, runner, tmp_path):
        # 0.07 * 100 is 7.000000000000001 in floating point; 7 rows, not 8
        r = invoke(runner, "synth", tmp_path / "w", "--n", 20, "--p", 100,
                   "--q", 6, "--n-signal", 4, "--seed", 3)
        assert r.exit_code == 0, r.output
        r = invoke(runner, "train", tmp_path / "w_x.tsv", tmp_path / "w_y.tsv",
                   "--dim", 2, "--epochs", 1, "--model-out", tmp_path / "m.bin")
        assert r.exit_code == 0, r.output
        result = invoke(
            runner, "importance", tmp_path / "m.bin", tmp_path / "w_x.tsv",
            tmp_path / "imp.tsv", "--repeats", 1, "--fraction", "0.07",
        )
        assert result.exit_code == 0, result.output
        assert len((tmp_path / "imp.tsv").read_text().splitlines()) == 1 + 7

    def test_out_of_range_importance_seed_exits_2(self, runner, trained):
        for seed in (-1, 2**64):
            result = invoke(
                runner, "importance", trained / "m.bin", trained / "d_x.tsv",
                trained / "imp.tsv", "--repeats", 1, "--seed", seed,
            )
            assert result.exit_code == 2
            assert result.stderr == f"error: seed must fit in 64 bits, got {seed}\n"
            assert not (trained / "imp.tsv").exists()

    @pytest.mark.parametrize(
        "setting, named",
        [(["--fraction", "0"], "--fraction"), (["--repeats", "0"], "--repeats"),
         ("fraction=0\n", "--fraction"), ("fraction=1.5\n", "--fraction")],
    )
    def test_bad_fraction_or_repeats_rejected_before_running(
        self, runner, trained, monkeypatch, setting, named
    ):
        def not_called(*args, **kwargs):
            raise AssertionError("permutation_importance ran")

        monkeypatch.setattr(cli, "permutation_importance", not_called)
        if isinstance(setting, str):
            (trained / "run.conf").write_text(setting)
            setting = ["--config", trained / "run.conf"]
        result = invoke(
            runner, "importance", trained / "m.bin", trained / "d_x.tsv",
            trained / "imp.tsv", *setting,
        )
        assert result.exit_code == 2
        assert named in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("rate", [1.5, float("nan")])
    def test_model_with_bad_dropout_rate_exits_2(self, runner, trained, rate):
        raw = bytearray((trained / "m.bin").read_bytes())
        # Layer 0's rate follows the header, history (2 epochs), the four
        # statistics vectors (p = 8, q = 6) and fan_out, fan_in, code.
        offset = 4 + 4 + 48 + 8 + 8 * 2 + 16 * (8 + 6) + 17
        raw[offset : offset + 8] = struct.pack("<d", rate)
        (trained / "bad.bin").write_bytes(bytes(raw))
        result = invoke(
            runner, "embed", trained / "bad.bin", trained / "d_x.tsv",
            trained / "emb.tsv",
        )
        assert result.exit_code == 2
        assert f"layer 0: (fan_in, fan_out, activation, dropout) is (8, 2, 'relu', {rate!r})" \
            in result.stderr
        assert "(8, 2, 'relu', 0.2) in AIME's plan for p=8, q=6, d=2" in result.stderr
        assert "Traceback" not in result.output

    def test_model_with_linear_first_layer_exits_2(self, runner, trained):
        # Layer 0 made linear with dropout 0.9: a well-formed network, but
        # not AIME's layer plan.
        raw = bytearray((trained / "m.bin").read_bytes())
        offset = 4 + 4 + 48 + 8 + 8 * 2 + 16 * (8 + 6) + 16
        raw[offset : offset + 9] = struct.pack("<Bd", 0, 0.9)
        (trained / "bad.bin").write_bytes(bytes(raw))
        result = invoke(
            runner, "embed", trained / "bad.bin", trained / "d_x.tsv",
            trained / "emb.tsv",
        )
        assert result.exit_code == 2
        assert "layer 0: (fan_in, fan_out, activation, dropout) is (8, 2, 'linear', 0.9)" \
            in result.stderr
        assert "Traceback" not in result.output
        assert not (trained / "emb.tsv").exists()

    def test_model_with_nan_weight_exits_2(self, runner, trained):
        raw = bytearray((trained / "m.bin").read_bytes())
        # Layer 0's first weight follows its (fan_out, fan_in, code, rate)
        # record; see test_model_with_bad_dropout_rate_exits_2.
        offset = 4 + 4 + 48 + 8 + 8 * 2 + 16 * (8 + 6) + 25
        raw[offset : offset + 4] = struct.pack("<f", float("nan"))
        (trained / "bad.bin").write_bytes(bytes(raw))
        result = invoke(
            runner, "importance", trained / "bad.bin", trained / "d_x.tsv",
            trained / "imp.tsv", "--repeats", 1,
        )
        assert result.exit_code == 2
        assert "non-finite value in layer 0 weights" in result.stderr
        assert "Traceback" not in result.output
        assert not (trained / "imp.tsv").exists()

    def test_model_with_negative_sd_exits_2(self, runner, trained):
        raw = bytearray((trained / "m.bin").read_bytes())
        # x sd 0 follows the header, 2 losses and 8 x means.
        offset = 4 + 4 + 48 + 8 + 8 * 2 + 8 * 8
        raw[offset : offset + 8] = struct.pack("<d", -1.0)
        (trained / "bad.bin").write_bytes(bytes(raw))
        result = invoke(
            runner, "embed", trained / "bad.bin", trained / "d_x.tsv",
            trained / "emb.tsv",
        )
        assert result.exit_code == 2
        assert "error: model file: negative value in x sds" in result.stderr
        assert "Traceback" not in result.output
        assert not (trained / "emb.tsv").exists()

    def test_model_with_trailing_bytes_exits_2(self, runner, trained):
        raw = (trained / "m.bin").read_bytes()
        (trained / "bad.bin").write_bytes(raw + b"xx")
        result = invoke(
            runner, "embed", trained / "bad.bin", trained / "d_x.tsv",
            trained / "emb.tsv",
        )
        assert result.exit_code == 2
        assert "error: model file: 2 unexpected trailing bytes" in result.stderr
        assert "Traceback" not in result.output
        assert not (trained / "emb.tsv").exists()

    def test_model_with_wrong_bottleneck_index_exits_2(self, runner, trained):
        raw = bytearray((trained / "m.bin").read_bytes())
        # The bottleneck index follows magic, version, p, q, d and seed.
        raw[40:48] = struct.pack("<Q", 1)
        (trained / "bad.bin").write_bytes(bytes(raw))
        result = invoke(
            runner, "embed", trained / "bad.bin", trained / "d_x.tsv",
            trained / "emb.tsv",
        )
        assert result.exit_code == 2
        assert "bottleneck index 1, expected 3" in result.stderr
        assert "Traceback" not in result.output
        assert not (trained / "emb.tsv").exists()

    def test_cca_outputs(self, runner, trained):
        result = invoke(
            runner, "cca", trained / "d_x.tsv", trained / "d_y.tsv",
            trained / "c", "--k", 2,
        )
        assert result.exit_code == 0, result.output
        assert "canonical correlations" in result.output
        xv = read_labeled(trained / "c_x_variates.tsv")
        assert xv.values.shape == (40, 2)
        corr_lines = (trained / "c_correlations.tsv").read_text().strip().split("\n")
        assert len(corr_lines) == 2
        values = [float(line.split("\t")[1]) for line in corr_lines]
        assert values[0] >= values[1] >= 0

    @pytest.mark.parametrize("ridge", ["nan", "inf", "1e308"])
    def test_cca_non_finite_ridge_exits_2(self, runner, trained, ridge):
        result = invoke(
            runner, "cca", trained / "d_x.tsv", trained / "d_y.tsv",
            trained / "c", "--k", 2, "--ridge", ridge,
        )
        assert result.exit_code == 2
        assert "ridge" in result.stderr
        assert "Traceback" not in result.output
        assert "overflow encountered" not in result.stderr
        assert not (trained / "c_correlations.tsv").exists()


def test_cli_chain_matches_library(runner, tmp_path):
    # The text files in between hold every value exactly, so the numbers
    # out of the CLI chain are the library's to the bit.
    for args in (
        ["synth", tmp_path / "d", "--n", 60, "--p", 8, "--q", 6,
         "--n-signal", 4, "--design", "quadratic", "--seed", 3],
        ["train", tmp_path / "d_x.tsv", tmp_path / "d_y.tsv", "--dim", 2,
         "--epochs", 3, "--seed", 5, "--model-out", tmp_path / "m.bin"],
        ["embed", tmp_path / "m.bin", tmp_path / "d_x.tsv", tmp_path / "e.tsv"],
        ["cca", tmp_path / "d_x.tsv", tmp_path / "d_y.tsv", tmp_path / "c",
         "--k", 2],
    ):
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output

    data = generate(SynthSpec(n=60, p=8, q=6, n_signal=4, noise_sd=0.1,
                              design="quadratic", seed=3))
    x, y = data.x.values, data.y.values
    model = fit(x, y, 2, TrainConfig(epochs=3, seed=5))
    assert np.array_equal(read_labeled(tmp_path / "e.tsv").values, embed(model, x))
    assert np.array_equal(
        read_labeled(tmp_path / "c_x_variates.tsv").values,
        fit_cca(x, y, 2).x_variates,
    )


class TestPlot:
    def test_scatter_matrix_structure(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        n, d = 25, 3
        coords = rng.normal(size=(n, d))
        write_toy_matrix(tmp_path / "emb.tsv", coords, prefix="e")
        # The fourth class needs XML escaping in the legend.
        names = ["0", "1", "2", "A&B<1>"]
        labels = ["id\tlabel\n"] + [
            f"s{i}\t{names[i % 4]}\n" for i in range(n)
        ]
        (tmp_path / "labels.tsv").write_text("".join(labels))
        result = invoke(
            runner, "plot", tmp_path / "emb.tsv", tmp_path / "labels.tsv",
            tmp_path / "out.svg",
        )
        assert result.exit_code == 0, result.output

        text = (tmp_path / "out.svg").read_text()
        root = ET.fromstring(text)  # well-formed XML
        assert root.tag.endswith("svg")
        legend = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert legend == names
        circles = text.count("<circle")
        assert circles == n * d * (d - 1)
        fills = {
            part.split('"')[0]
            for part in text.split('fill="')[1:]
            if part.startswith("#")
        }
        assert len(fills) == 4

    def test_missing_label_exits_2(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "emb.tsv", np.zeros((3, 2)) + np.arange(3)[:, None], prefix="e")
        (tmp_path / "labels.tsv").write_text("id\tlabel\ns0\t0\ns1\t1\n")
        result = invoke(
            runner, "plot", tmp_path / "emb.tsv", tmp_path / "labels.tsv",
            tmp_path / "out.svg",
        )
        assert result.exit_code == 2
        assert "no label" in result.output

    def test_non_utf8_labels_exit_2(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "emb.tsv", np.arange(6.0).reshape(3, 2), prefix="e")
        (tmp_path / "labels.tsv").write_bytes(b"id\tlabel\ns0\t\xff\n")
        result = invoke(
            runner, "plot", tmp_path / "emb.tsv", tmp_path / "labels.tsv",
            tmp_path / "out.svg",
        )
        assert result.exit_code == 2
        assert "labels.tsv: byte 0xff at offset 12" in result.stderr

    def test_label_errors_name_file_and_true_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("id\tlabel\n\ns0\t0\textra\n")
        with pytest.raises(ParseError, match=r"labels\.tsv: line 3: expected 2 fields, got 3"):
            read_labels(path)
        path.write_text("id\tlabel\ns0\t0\n\ns0\t1\n")
        with pytest.raises(ValidationError, match=r"labels\.tsv: duplicate sample id 's0'"):
            read_labels(path)

    def test_crlf_and_blank_label_lines_parse(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_bytes(b"\r\nid\tlabel\r\ns0\t0\r\n\r\ns1\t1\r\n")
        assert read_labels(path) == {"s0": "0", "s1": "1"}
        path.write_bytes(b"id\tlabel\r\n\r\ns0\t0\textra\r\n")
        with pytest.raises(ParseError, match=r"labels\.tsv: line 3: expected 2 fields, got 3"):
            read_labels(path)

    @pytest.mark.parametrize(
        "brk", ["\x85", "\u2028", "\u2029", "\x0c", "\x1c", "\x1d", "\x1e"]
    )
    def test_id_holding_a_splitlines_break_matches_the_matrix(self, runner, tmp_path, brk):
        # Both readers end a line at "\n" alone, so "a<brk>b" is one id in
        # the embedding and in the labels, not two lines of the labels.
        sample = f"a{brk}b"
        (tmp_path / "emb.tsv").write_text(
            f"id\td0\td1\n{sample}\t1.0\t2.0\nc\t3.0\t4.0\n", encoding="utf-8"
        )
        (tmp_path / "lab.tsv").write_text(f"id\tlabel\n{sample}\tA\nc\tB\n", encoding="utf-8")
        assert read_labels(tmp_path / "lab.tsv") == {sample: "A", "c": "B"}
        result = invoke(
            runner, "plot", tmp_path / "emb.tsv", tmp_path / "lab.tsv", tmp_path / "out.svg"
        )
        assert result.exit_code == 0, result.output

    def test_whitespace_around_label_fields_stripped(self, runner, tmp_path):
        write_toy_matrix(tmp_path / "emb.tsv", np.arange(6.0).reshape(3, 2), prefix="e")
        path = tmp_path / "labels.tsv"
        path.write_text("id \t label\ns0 \tA\n s1\t B \ns2\tA\n")
        assert read_labels(path) == {"s0": "A", "s1": "B", "s2": "A"}
        result = invoke(runner, "plot", tmp_path / "emb.tsv", path, tmp_path / "out.svg")
        assert result.exit_code == 0, result.output

    def test_escape_matches_html_escape(self):
        import html

        for text in ["A&B<1>", "\"quoted\" & 'single'", "&amp; <>", "plain", ""]:
            assert _escape(text) == html.escape(text, quote=True)

    def test_deterministic_svg(self):
        coords = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        labels = ["a", "b", "a"]
        assert scatter_matrix_svg(coords, labels) == scatter_matrix_svg(
            coords, labels
        )

    @pytest.mark.parametrize(
        "n, d, constant",
        [(600, 4, None), (7, 1, None), (7, 2, None), (7, 3, 1), (1, 3, None), (5, 4, 0)],
    )
    def test_bytes_equal_per_point_oracle(self, n, d, constant):
        coords = rng_stream(n, 0, d).standard_normal((n, d)) * 3.0 + 1.0
        if constant is not None:
            coords[:, constant] = -2.5
        labels = [f"c{row % 3}" for row in range(n)]
        assert scatter_matrix_svg(coords, labels) == per_point_svg(coords, labels)


def per_point_svg(coords, labels):
    """scatter_matrix_svg as it computed each point's coordinates with a
    scalar function on every use, kept as a byte-for-byte oracle."""
    n, d = coords.shape
    classes = sorted(set(labels))
    color = {c: PALETTE[i % len(PALETTE)] for i, c in enumerate(classes)}

    panel, pad, gap = 150.0, 40.0, 12.0
    lows = coords.min(axis=0)
    spans = coords.max(axis=0) - lows
    spans[spans == 0] = 1.0

    def sx(value, dim):
        return 6.0 + 138.0 * (value - lows[dim]) / spans[dim]

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
            if i == j:
                for row in range(n):
                    x = sx(coords[row, i], i)
                    parts.append(
                        f'<line x1="{x:.2f}" y1="60" x2="{x:.2f}" y2="90" '
                        f'stroke="{color[labels[row]]}" stroke-width="1"/>'
                    )
            else:
                for row in range(n):
                    x = sx(coords[row, j], j)
                    y = 150.0 - sx(coords[row, i], i)
                    parts.append(
                        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                        f'fill="{color[labels[row]]}" fill-opacity="0.7"/>'
                    )
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

class TestOutputIsInput:
    """A command refuses, with exit 2 and before it reads anything, an
    output path that resolves to one of its inputs; every file is left as
    it was."""

    @pytest.fixture()
    def inputs(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for args in (
            ("synth", "d", "--n", 30, "--p", 8, "--q", 6, "--n-signal", 4, "--seed", 3),
            ("train", "d_x.tsv", "d_y.tsv", "--dim", 2, "--epochs", 1, "--model-out", "m.bin"),
            ("embed", "m.bin", "d_x.tsv", "e.tsv"),
        ):
            result = invoke(runner, *args)
            assert result.exit_code == 0, result.output
        return tmp_path

    @staticmethod
    def assert_refused(runner, directory, args, output, input_path):
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: output {output} would overwrite the input {input_path}\n"
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    @pytest.mark.parametrize(
        "option, output, input_path",
        [("--model-out", "./d_x.tsv", "d_x.tsv"), ("--history-out", "d_y.tsv", "d_y.tsv")],
    )
    def test_train(self, runner, inputs, option, output, input_path):
        args = ["train", "d_x.tsv", "d_y.tsv", "--epochs", 1, "--model-out", "n.bin",
                option, output]
        self.assert_refused(runner, inputs, args, output, input_path)

    @pytest.mark.parametrize("command", ["embed", "importance"])
    @pytest.mark.parametrize("output", ["m.bin", "d_x.tsv"])
    def test_embed_and_importance(self, runner, inputs, command, output):
        self.assert_refused(runner, inputs, [command, "m.bin", "d_x.tsv", output], output, output)

    def test_cca(self, runner, inputs):
        # The prefix names the input as its correlations file.
        os.rename("d_y.tsv", "c_correlations.tsv")
        self.assert_refused(runner, inputs, ["cca", "d_x.tsv", "c_correlations.tsv", "c"],
                            "c_correlations.tsv", "c_correlations.tsv")

    @pytest.mark.parametrize("output", ["e.tsv", "d_labels.tsv"])
    def test_plot(self, runner, inputs, output):
        self.assert_refused(runner, inputs, ["plot", "e.tsv", "d_labels.tsv", output],
                            output, output)


class TestOverflowingColumns:
    """Finite values that overflow on the way are refused, naming the file
    and the column, with no numpy warning and no output file: values whose
    squares overflow in training or CCA statistics (exit 2), values outside
    float32 once standardized with the model's statistics (exit 2), and a
    non-finite embedding from finite input and weights (exit 3)."""

    @pytest.fixture()
    def inputs(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for args in (
            ("synth", "d", "--n", 20, "--p", 6, "--q", 5, "--n-signal", 2, "--seed", 3),
            ("train", "d_x.tsv", "d_y.tsv", "--dim", 1, "--epochs", 2, "--model-out", "m.bin"),
        ):
            result = invoke(runner, *args)
            assert result.exit_code == 0, result.output
        for name, scale in (("big_x.tsv", 3e154), ("cast_x.tsv", 1e39)):
            m = read_labeled("d_x.tsv")
            m.values[:, 0] *= scale
            write_labeled(m, name)
        return tmp_path

    @staticmethod
    def assert_refused(runner, directory, args, code, message):
        before = sorted(p.name for p in directory.iterdir())
        result = invoke(runner, *args)
        assert result.exit_code == code, result.output
        assert result.stderr == message + "\n"
        assert sorted(p.name for p in directory.iterdir()) == before

    def test_filter_column_too_large_for_its_sd(self, runner, inputs):
        self.assert_refused(
            runner, inputs, ["filter", "big_x.tsv", "f.tsv", "--sd", "--threshold", 0], 2,
            "error: big_x.tsv: column 'x0': values too large for a finite mean and "
            "standard deviation",
        )

    @pytest.mark.parametrize("order", ["xy", "yx"])
    def test_train_column_too_large_for_its_sd(self, runner, inputs, order):
        files = ["big_x.tsv", "d_y.tsv"][:: 1 if order == "xy" else -1]
        self.assert_refused(
            runner, inputs,
            ["train", *files, "--dim", 1, "--epochs", 2, "--model-out", "big.bin"], 2,
            "error: big_x.tsv: column 'x0': values too large for a finite mean and "
            "standard deviation",
        )

    @pytest.mark.parametrize("ridge", [0, 1])
    def test_cca_column_too_large_for_its_sd(self, runner, inputs, ridge):
        self.assert_refused(
            runner, inputs, ["cca", "big_x.tsv", "d_y.tsv", "cc", "--k", 2, "--ridge", ridge], 2,
            "error: big_x.tsv: column 'x0': values too large for a finite mean and "
            "standard deviation",
        )

    @pytest.mark.parametrize("command", ["embed", "importance"])
    def test_column_outside_float32_once_standardized(self, runner, inputs, command):
        self.assert_refused(
            runner, inputs, [command, "m.bin", "cast_x.tsv", "out.tsv"], 2,
            "error: cast_x.tsv: column 'x0': values outside the network's float32 "
            "range once standardized",
        )

    @pytest.mark.parametrize("command", ["embed", "importance"])
    def test_non_finite_embedding_exits_3(self, runner, inputs, command):
        model = cli.load_model("m.bin")
        model.network.layers[0].weights[...] = 3e38
        save_model(model, "huge.bin")
        self.assert_refused(
            runner, inputs, [command, "huge.bin", "d_x.tsv", "out.tsv"], 3,
            "numerical failure: the embedding of x is not finite; the model's "
            "weights overflow on it",
        )


class TestAtomicWrite:
    def test_writer_output_replaces_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        _atomic_write(str(target), lambda tmp: Path(tmp).write_text("new"))
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("existing", [None, "old"])
    def test_failing_writer_leaves_no_trace(self, tmp_path, existing):
        target = tmp_path / "out.txt"
        if existing is not None:
            target.write_text(existing)

        def failing(tmp):
            with open(tmp, "w") as handle:
                handle.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(str(target), failing)
        assert not list(tmp_path.glob(".tmp_*"))
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_text() == existing


    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_mode_open_gives(self, runner, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            result = invoke(runner, "synth", tmp_path / "d", "--n", 10, "--p", 4,
                            "--q", 4, "--n-signal", 2)
        finally:
            os.umask(old)
        assert result.exit_code == 0, result.output
        expected = 0o666 & ~umask
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == expected
        for name in ("d_x.tsv", "d_y.tsv", "d_labels.tsv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected, name

    def test_missing_directory_names_the_given_path(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = invoke(runner, "synth", "nodir/demo", "--n", 10, "--p", 4, "--q", 4,
                        "--n-signal", 2)
        assert result.exit_code == 2
        assert "error: [Errno 2] No such file or directory: 'nodir/demo_x.tsv'" in result.stderr
        assert ".tmp_" not in result.stderr
        assert "Traceback" not in result.output


class TestHelp:
    def test_group_lists_subcommands(self, runner):
        result = invoke(runner, "--help")
        for name in ("filter", "train", "embed", "importance", "cca", "synth", "plot"):
            assert name in result.output

    def test_train_help_documents_defaults(self, runner):
        result = invoke(runner, "train", "--help")
        assert "[default: 200]" in result.output
        assert "[default: 0.001]" in result.output
        assert "[default: 32]" in result.output

    def test_synth_help_documents_defaults(self, runner):
        result = invoke(runner, "synth", "--help")
        assert "[default: 200]" in result.output
        assert "[default: 0.1]" in result.output
        assert "linear|quadratic" in result.output
