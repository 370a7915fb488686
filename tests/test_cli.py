"""Tests for the command-line interface and its file formats."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blockorder
from blockorder import DegenerateInputError
from blockorder.cli import main, read_csv_matrix


def run(args):
    return main([str(a) for a in args])


def run_stderr(args):
    """Run the CLI in-process; returns (exit code, stderr lines).

    A warning counts as the line it would print on stderr, so the lines are
    what a terminal would show.
    """
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in args])
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, err.getvalue().splitlines() + shown


@pytest.fixture(scope="module")
def example_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit") / "eq4.csv"
    truth = tmp_path_factory.mktemp("fit") / "truth.json"
    assert run(["simulate", "--mode", "eq4", "--n", 2000, "--seed", 2,
                "--output", path, "--truth", truth]) == 0
    return path


@pytest.fixture
def no_work(monkeypatch):
    """Fails the test if the command reads, fits or simulates anything."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    for name in ("read_csv_matrix", "fit", "fit_large", "generate_dataset"):
        monkeypatch.setattr(f"blockorder.cli.{name}", fail)


class TestSimulate:
    def test_writes_data_and_truth(self, tmp_path):
        data_path = tmp_path / "data.csv"
        truth_path = tmp_path / "truth.json"
        code = run(["simulate", "--mode", "eq4", "--n", 50, "--seed", 1,
                    "--output", data_path, "--truth", truth_path])
        assert code == 0
        lines = data_path.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,x3,x4"
        assert len(lines) == 51
        truth = json.loads(truth_path.read_text())
        assert truth["blocks"] == [[0, 1], [2], [3, 4]]
        assert truth["params"]["mode"] == "eq4"

    def test_single_variable(self, tmp_path):
        code = run(["simulate", "--p", 1, "--n", 20, "--mode", "chain",
                    "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json"])
        assert code == 0
        header = (tmp_path / "d.csv").read_text().splitlines()[0]
        assert header == "x0"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--p", 4, "--n", 60, "--seed", 3, "--mode", "chain"]
        run(args + ["--output", tmp_path / "a.csv", "--truth", tmp_path / "a.json"])
        run(args + ["--output", tmp_path / "b.csv", "--truth", tmp_path / "b.json"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_negative_seed_exits_two(self, tmp_path):
        code, lines = run_stderr(["simulate", "--p", 3, "--n", 100, "--seed", -1, "--mode", "chain",
                                  "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json"])
        assert (code, lines) == (2, ["blockorder: error: seed must be >= 0"])

    def test_p_required_outside_example_mode(self, tmp_path):
        code = run(["simulate", "--n", 20, "--mode", "chain",
                    "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json"])
        assert code == 2


class TestFit:
    def test_recovers_example_blocks(self, example_csv, tmp_path):
        out = tmp_path / "model.json"
        trace = tmp_path / "trace.csv"
        code = run(["fit", "--input", example_csv, "--output", out, "--trace", trace])
        assert code == 0
        model = json.loads(out.read_text())
        assert model["blocks"] == [[0, 1], [2], [3, 4]]
        assert model["params"]["delta"] == 0.01
        header, first = trace.read_text().splitlines()[:2]
        assert header == "level,subset,score"
        assert first.startswith("0,")

    def test_infinite_delta_gives_singletons(self, tmp_path):
        data_path = tmp_path / "dag.csv"
        run(["simulate", "--p", 5, "--n", 1000, "--seed", 4, "--mode", "dag",
             "--output", data_path, "--truth", tmp_path / "t.json"])
        out = tmp_path / "model.json"
        code = run(["fit", "--input", data_path, "--delta", "inf", "--output", out])
        assert code == 0
        model = json.loads(out.read_text())
        assert all(len(block) == 1 for block in model["blocks"])
        assert model["params"]["delta"] == "inf"

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["fit", "--input", tmp_path / "nope.csv", "--output", tmp_path / "m.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_exact_mode_refuses_large_p(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        with path.open("w") as handle:
            handle.write(",".join(f"x{i}" for i in range(16)) + "\n")
            for row in rng.standard_normal((30, 16)):
                handle.write(",".join(repr(v) for v in row) + "\n")
        code = run(["fit", "--input", path, "--output", tmp_path / "m.json"])
        assert code == 2
        assert "large" in capsys.readouterr().err

    def test_large_mode_runs(self, tmp_path):
        data_path = tmp_path / "d.csv"
        run(["simulate", "--p", 6, "--n", 400, "--seed", 5, "--mode", "dag",
             "--output", data_path, "--truth", tmp_path / "t.json"])
        out = tmp_path / "m.json"
        code = run(["fit", "--input", data_path, "--mode", "large", "--h", 3,
                    "--subsets", 8, "--seed", 1, "--output", out])
        assert code == 0
        model = json.loads(out.read_text())
        assert sorted(v for blk in model["blocks"] for v in blk) == list(range(6))

    def test_negative_seed_exits_two_in_large_mode(self, example_csv, tmp_path):
        large = ["fit", "--input", example_csv, "--output", tmp_path / "m.json", "--seed", -1]
        code, lines = run_stderr(large + ["--mode", "large", "--h", 3, "--subsets", 1])
        assert (code, lines) == (2, ["blockorder: error: seed must be >= 0"])
        # exact mode draws no covering, so it ignores the seed
        assert run_stderr(large) == (0, [])

    def test_negative_seed_exits_two_when_h_is_p(self, example_csv, tmp_path):
        # with h == p no covering is drawn, but the seed is still checked
        code, lines = run_stderr(["fit", "--input", example_csv, "--output", tmp_path / "m.json",
                                  "--mode", "large", "--h", 5, "--seed", -1])
        assert (code, lines) == (2, ["blockorder: error: seed must be >= 0"])
        assert not (tmp_path / "m.json").exists()

    def test_fit_reruns_byte_identical(self, example_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["fit", "--input", example_csv, "--output", a])
        run(["fit", "--input", example_csv, "--output", b])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_delta_rejected(self, example_csv, tmp_path, capsys):
        code = run(["fit", "--input", example_csv, "--delta", "-3",
                    "--output", tmp_path / "m.json"])
        assert code == 2
        capsys.readouterr()


class TestBenchmark:
    def test_small_report(self, tmp_path):
        report = tmp_path / "report.csv"
        code = run(["benchmark", "--p", 3, "--n", 300, "--trials", 2, "--mode", "dag",
                    "--delta", "inf", "--seed", 0, "--report", report])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "trial,p,n,mode,delta,error_count,runtime_ms"
        assert len(lines) == 3
        scatter = tmp_path / "report_scatter.csv"
        rows = scatter.read_text().splitlines()
        assert rows[0] == "true_b,est_b"
        assert len(rows) == 1 + 2 * 3 * 2  # two trials, p*(p-1) pairs each

    def test_single_trivial_trial(self, tmp_path):
        report = tmp_path / "r.csv"
        code = run(["benchmark", "--p", 1, "--n", 50, "--trials", 1,
                    "--mode", "chain", "--report", report])
        assert code == 0
        row = report.read_text().splitlines()[1].split(",")
        assert row[0] == "0" and row[5] == "0"

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_exits_two(self, trials, tmp_path):
        code, lines = run_stderr(["benchmark", "--p", 4, "--n", 100, "--trials", trials,
                                  "--report", tmp_path / "r.csv"])
        assert (code, lines) == (2, ["blockorder: error: --trials must be >= 1"])
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exits_two(self, tmp_path):
        code, lines = run_stderr(["benchmark", "--p", 3, "--n", 100, "--trials", 1, "--seed", -1,
                                  "--report", tmp_path / "r.csv"])
        assert (code, lines) == (2, ["blockorder: error: seed must be >= 0"])
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    """A usage error is one line and exit 2, from ``main`` itself."""

    @pytest.mark.parametrize("args,message", [
        (["fit", "--output", "m.json"], "the following arguments are required: --input"),
        (["simulate", "--output", "d.csv", "--truth", "t.json"],
         "the following arguments are required: --n"),
        (["benchmark", "--p", 3, "--n", 100], "the following arguments are required: --report"),
        (["fit", "--input", "d.csv", "--output", "m.json", "--h", "abc"],
         "argument --h: invalid int value: 'abc'"),
    ])
    def test_one_line_exit_two(self, args, message):
        assert run_stderr(args) == (2, [f"blockorder: error: {message}"])

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: blockorder fit")


class TestEstimationFailure:
    def test_estimation_error_exits_one(self, example_csv, tmp_path, capsys, monkeypatch):
        def failing_fit(data, cfg):
            raise DegenerateInputError("zero-variance coordinate in MI input")

        monkeypatch.setattr("blockorder.cli.fit", failing_fit)
        code = run(["fit", "--input", example_csv, "--output", tmp_path / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("blockorder: estimation failed:") and len(err.strip().splitlines()) == 1

    @staticmethod
    def duplicated_column_csv(tmp_path, seed):
        """7 samples of 3 variables from ``default_rng(seed)``, column 1 = column 0."""
        x = np.random.default_rng(seed).standard_normal((7, 3))
        x[:, 1] = x[:, 0]
        path = tmp_path / "dup.csv"
        path.write_text("x0,x1,x2\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
        return path

    @staticmethod
    def large_mode_lines(path, tmp_path):
        code, lines = run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json",
                                  "--mode", "large", "--h", 2, "--subsets", 2])
        assert code == 1
        return lines

    def test_duplicated_column_in_large_mode_exits_one(self, tmp_path):
        # the second copy of column 0 has a residual of exactly zero variance
        # once it is regressed on the first
        assert self.large_mode_lines(self.duplicated_column_csv(tmp_path, 5), tmp_path) == [
            "blockorder: estimation failed: residual standard deviation at most 1e-08 of the "
            "variable's own for variable(s) [1] regressed on [0]: up to rounding, a linear "
            "function of them"]

    def test_rounding_error_residual_in_large_mode_exits_one(self, tmp_path):
        # regressed on two variables, the copy keeps a residual of rounding
        # error only (noise_std 2e-17) rather than exactly zero
        lines = self.large_mode_lines(self.duplicated_column_csv(tmp_path, 0), tmp_path)
        assert len(lines) == 1 and lines[0].startswith("blockorder: estimation failed:")

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_duplicated_column_in_exact_mode_names_the_variable(self, seed, tmp_path):
        # scoring candidate (0,) regresses the copy on column 0, which leaves
        # it a residual of rounding size: exactly zero or about 1e-16 of its
        # scale, depending on the solve's last bits; either way it is collinear
        code, lines = run_stderr(["fit", "--input", self.duplicated_column_csv(tmp_path, seed),
                                  "--output", tmp_path / "m.json"])
        assert code == 1
        assert lines == [
            "blockorder: estimation failed: residual standard deviation at most 1e-08 of the "
            "variable's own for variable(s) [1] regressed on [0]: up to rounding, a linear "
            "function of them"]


    def test_more_variables_than_samples_exits_one(self, tmp_path):
        # 20 variables, 15 samples: ordinary least squares on all earlier
        # variables runs out of samples
        x = np.random.default_rng(1).laplace(size=(15, 20))
        path = tmp_path / "wide.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
        code, lines = run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json", "--mode", "large"])
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(
            "blockorder: estimation failed: residual standard deviation at most 1e-08 of the variable's own")
        assert not (tmp_path / "m.json").exists()


class TestCsvReading:
    def test_headerless_csv(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n2.0,1.0\n3.0,3.0\n")
        data = read_csv_matrix(path)
        assert data.values.shape == (2, 3)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_rejected(self, cell, tmp_path, capsys):
        path = tmp_path / "holes.csv"
        rows = [f"{v!r},{-v!r}" for v in np.random.default_rng(0).standard_normal(30)]
        rows[7] = f"{cell},0.5"
        path.write_text("x0,x1\n" + "\n".join(rows) + "\n")
        assert run(["fit", "--input", path, "--output", tmp_path / "m.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockorder: error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_constant_column_exits_two(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        with path.open("w") as handle:
            handle.write("x0,x1\n")
            for v in rng.standard_normal(60):
                handle.write(f"1.0,{float(v)!r}\n")
        code = run(["fit", "--input", path, "--output", tmp_path / "m.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("blockorder: error:") and "constant column for variable(s) [0]" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_input_exits_two(self, kind, tmp_path):
        path = tmp_path / "in.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"x0,x1\n\xff\xfe,1\n2,3\n")
        code, lines = run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json"])
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("blockorder: error:")

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "{csv}", "--output", "{tmp}/missing/m.json"],
        ["fit", "--input", "{csv}", "--output", "{tmp}"],
        ["fit", "--input", "{csv}", "--output", "{tmp}/m.json", "--trace", "{tmp}"],
        ["fit", "--input", "{csv}", "--output", "{tmp}/m.json", "--trace", "{tmp}/missing/t.csv"],
        ["benchmark", "--p", "3", "--n", "100", "--trials", "1", "--report", "{tmp}/missing/r.csv"],
        ["benchmark", "--p", "3", "--n", "100", "--trials", "1", "--report", "{tmp}"],
        ["simulate", "--mode", "eq4", "--n", "100", "--output", "{tmp}/d.csv", "--truth", "{tmp}"],
    ], ids=["fit-output-dir-missing", "fit-output-is-dir", "fit-trace-is-dir",
            "fit-trace-dir-missing", "benchmark-report-dir-missing", "benchmark-report-is-dir",
            "simulate-truth-is-dir"])
    def test_unusable_output_exits_two_before_any_work(self, argv, example_csv, tmp_path, no_work):
        code, lines = run_stderr([arg.format(csv=example_csv, tmp=tmp_path) for arg in argv])
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("blockorder: error:")
        assert list(tmp_path.iterdir()) == []  # no partial output

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "{csv}", "--output", ""],
        ["fit", "--input", "{csv}", "--output", "m.json", "--trace", ""],
        ["simulate", "--mode", "eq4", "--n", "100", "--output", "", "--truth", "t.json"],
        ["simulate", "--mode", "eq4", "--n", "100", "--output", "d.csv", "--truth", ""],
        ["benchmark", "--p", "3", "--n", "100", "--trials", "1", "--report", ""],
        ["benchmark", "--p", "3", "--n", "100", "--trials", "1", "--report", "."],
        ["benchmark", "--p", "3", "--n", "100", "--trials", "1", "--report", "/"],
        ["fit", "--input", "{csv}", "--output", "m/"],
        ["fit", "--input", "{csv}", "--output", "m.json", "--trace", "t/"],
        ["simulate", "--mode", "eq4", "--n", "100", "--output", "d/", "--truth", "t.json"],
        ["simulate", "--mode", "eq4", "--n", "100", "--output", "d.csv", "--truth", "t/"],
        ["benchmark", "--p", "3", "--n", "100", "--trials", "1", "--report", "r/"],
    ], ids=["fit-output-empty", "fit-trace-empty", "simulate-output-empty", "simulate-truth-empty",
            "benchmark-report-empty", "benchmark-report-dot", "benchmark-report-root",
            "fit-output-trailing-sep", "fit-trace-trailing-sep", "simulate-output-trailing-sep",
            "simulate-truth-trailing-sep", "benchmark-report-trailing-sep"])
    def test_output_that_names_no_file_exits_two_before_any_work(self, argv, example_csv, tmp_path,
                                                                 no_work, monkeypatch):
        # an empty path is given, not unset; "." and "/" leave no name for
        # the report's companion scatter file; "m/" asks for a directory
        monkeypatch.chdir(tmp_path)
        code, lines = run_stderr([arg.format(csv=example_csv) for arg in argv])
        assert code == 2
        assert len(lines) == 1 and lines[0].endswith("is not an output file name")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,clash", [
        (["fit", "--input", "d.csv", "--output", "./d.csv"], "d.csv: same file as the input"),
        (["fit", "--input", "d.csv", "--output", "m.json", "--trace", "link.csv"],
         "link.csv: same file as the input"),
        (["fit", "--input", "d.csv", "--output", "m.json", "--trace", "m.json"],
         "m.json: same file as another output"),
        (["simulate", "--mode", "eq4", "--n", "100", "--output", "x", "--truth", "x"],
         "x: same file as another output"),
    ], ids=["fit-output-is-input", "fit-trace-links-to-input", "fit-trace-is-output",
            "simulate-truth-is-output"])
    def test_output_that_overwrites_another_file_exits_two(self, argv, clash, example_csv, tmp_path,
                                                           no_work, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "d.csv"
        data.write_bytes(example_csv.read_bytes())
        (tmp_path / "link.csv").symlink_to(data)
        assert run_stderr(argv) == (2, [f"blockorder: error: {clash}, which it would overwrite"])
        assert data.read_bytes() == example_csv.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "link.csv"]

    @pytest.mark.parametrize("header", ["", "x0,x1\n"], ids=["headerless", "header"])
    def test_byte_order_mark_is_skipped(self, header, tmp_path):
        # spreadsheet exports start with one; read as data, it made the
        # first sample look like a header
        rows = header + "1.5,2.0\n2.0,1.0\n3.0,3.5\n4.0,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + rows.encode("utf-8"))
        data = read_csv_matrix(marked)
        assert data.n_samples == 4
        assert np.array_equal(data.values, read_csv_matrix(plain).values)

    @pytest.mark.parametrize("header", ["", "x0,x1\n"], ids=["headerless", "header"])
    @pytest.mark.parametrize("blank", ["\n", "   \n", "\n \t\n"], ids=["empty", "spaces", "two"])
    def test_leading_blank_lines_are_skipped(self, header, blank, tmp_path):
        # only the first line was sniffed, so a blank one read as an empty file
        path = tmp_path / "blank.csv"
        path.write_text(blank + header + "1,2\n3,5\n5,6\n")
        assert read_csv_matrix(path).n_samples == 3
        assert run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json"]) == (0, [])

    def test_blank_lines_only_is_an_empty_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n   \n\n")
        code, lines = run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json"])
        assert (code, lines) == (2, [f"blockorder: error: {path}: empty input file"])

    def test_header_only_csv_is_one_line(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1\n")
        code, lines = run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json"])
        assert code == 2
        assert lines == [f"blockorder: error: {path}: need at least 2 samples"]

    def test_overflowing_scale_exits_two(self, tmp_path):
        path = tmp_path / "huge.csv"
        rng = np.random.default_rng(1)
        rows = [f"{1e200 * a!r},{b!r},{1e155 * c!r}" for a, b, c in rng.standard_normal((40, 3)).tolist()]
        path.write_text("x0,x1,x2\n" + "\n".join(rows) + "\n")
        code, lines = run_stderr(["fit", "--input", path, "--output", tmp_path / "m.json"])
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("blockorder: error:")
        assert "variable(s) [0, 2]" in lines[0]

    def test_unparseable_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,oops\n2,3\n")
        assert run(["fit", "--input", path, "--output", tmp_path / "m.json"]) == 2

    def test_infinity_delta_parse(self):
        from blockorder.cli import _parse_delta

        for text in ("inf", "Infinity", " +INF ", "1e400"):
            assert _parse_delta(text) == math.inf
        assert _parse_delta("0.25") == 0.25


_CELLS = ["0", "1", "-2.5", "0.125", "3e-3", "7", "1e-300", "1e200", "-1e308",
          "nan", "inf", "-inf", "", "x", "1;2"]


@st.composite
def csv_texts(draw):
    """Small CSV files: p <= 4, n <= 40, with the defects a user file can have."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    values = draw(st.lists(st.lists(st.floats(-10, 10), min_size=p, max_size=p),
                           min_size=n, max_size=n))
    rows = [[repr(v) for v in row] for row in values]
    for kind in draw(st.lists(st.sampled_from(["constant", "duplicate", "cell"]), max_size=3)):
        col = draw(st.integers(0, p - 1))
        if kind == "constant":
            for row in rows:
                row[col] = "1.5"
        elif kind == "duplicate":
            for row in rows:
                row[col] = row[(col + 1) % p]
        elif rows:
            rows[draw(st.integers(0, n - 1))][col] = draw(st.sampled_from(_CELLS))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):  # ragged rows
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0.5"]
    header = draw(st.sampled_from(["names", "names", "none", "short", "text", "blank", "bad-bytes"]))
    lines = [",".join(row) for row in rows]
    head = {
        "names": ",".join(f"x{i}" for i in range(p)),
        "short": "x0",
        "text": "a b c",
        "blank": "",
    }.get(header)
    body = "\n".join(([head] if head is not None else []) + lines)
    if draw(st.booleans()):
        body += "\n"
    data = body.encode("utf-8")
    return b"\xff" + data if header == "bad-bytes" else data


class TestCliContract:
    """Every fit ends in exit 0, 1 or 2, with a one-line message on failure."""

    # valid flag values are repeated so that most examples reach the fit
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        text=csv_texts(),
        delta=st.sampled_from(["0.01", "0.01", "0", "inf", "Infinity", "1e9", "-1", "-inf",
                               "nan", "abc"]),
        kneig=st.sampled_from(["auto", "auto", "auto", "auto", "1", "3", "0", "100", "k"]),
        mode=st.sampled_from(["exact", "large"]),
        h=st.sampled_from(["1", "2", "3", "4", "2.5"]),
        subsets=st.sampled_from(["0", "1", "2", "3", "x"]),
        seed=st.sampled_from(["0", "0", "7", "-1", "-12", "1e3"]),
    )
    def test_fit_contract(self, tmp_path, text, delta, kneig, mode, h, subsets, seed):
        path = tmp_path / "in.csv"
        path.write_bytes(text)
        code, lines = run_stderr([
            "fit", "--input", path, "--output", tmp_path / "m.json", f"--delta={delta}",
            f"--kneig={kneig}", "--mode", mode, f"--h={h}", f"--subsets={subsets}",
            f"--seed={seed}",
        ])
        assert code in (0, 1, 2)
        assert not any("Traceback" in line for line in lines)
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("blockorder: "), lines


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    # an import of scipy, hypothesis or pytest raises ImportError in the child
    code = f"""
import sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
from blockorder.cli import main
d = {str(tmp_path)!r}
print(main(["simulate", "--mode", "chain", "--p", "8", "--n", "300", "--output", f"{{d}}/x.csv",
            "--truth", f"{{d}}/truth.json"]))
print(main(["fit", "--input", f"{{d}}/x.csv", "--output", f"{{d}}/exact.json"]))
print(main(["fit", "--input", f"{{d}}/x.csv", "--output", f"{{d}}/large.json",
            "--mode", "large", "--h", "4", "--subsets", "10"]))
"""
    env = dict(os.environ)
    package_root = str(Path(blockorder.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"], proc.stderr
