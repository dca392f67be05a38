import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from shapeassoc import PropertyId
from shapeassoc.cli import main


@pytest.fixture
def dataset(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("a,1,2,3,4,5\nb,2,3,4,5,6\nc,5,4,3,2,1\n")
    return str(p)


def run(*argv):
    return main(list(argv))


class TestStandardize:
    def test_to_stdout(self, dataset, capsys):
        code = run("standardize", "--input", dataset, "--delimiter", "comma", "--ids", "--spec", "center-mean")
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "a,-2.0,-1.0,0.0,1.0,2.0"

    def test_spec_from_json_file(self, dataset, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "center", "center": {"kind": "min"}}))
        code = run("standardize", "--input", dataset, "--delimiter", "comma", "--ids", "--spec", str(spec))
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "a,0.0,1.0,2.0,3.0,4.0"

    def test_output_file(self, dataset, tmp_path, capsys):
        out_file = tmp_path / "out.csv"
        code = run(
            "standardize", "--input", dataset, "--delimiter", "comma", "--ids",
            "--spec", "unit-mean", "--output", str(out_file),
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_text().startswith("a,")

    def test_id_the_output_cannot_hold_is_refused(self, tmp_path, capsys):
        p = tmp_path / "spaced.txt"
        p.write_text("a,b 1 2 3\nc 3 2 1\n")
        code = run("standardize", "--input", str(p), "--ids", "--spec", "center-mean")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "'a,b'" in captured.err


class TestSpecArguments:
    """--measure and --spec: a known name wins over a file of that name;
    anything else must be an existing JSON file."""

    ASSOC = ("assoc", "--delimiter", "comma", "--ids", "--x", "a", "--y", "c", "--measure")
    STANDARDIZE = ("standardize", "--delimiter", "comma", "--ids", "--spec")
    # other specs, in files named after a measure shorthand and a preset
    SHADOWS = {
        "pearson": {"kind": "cosine", "standardization": "center-min"},
        "unit-mean": {"kind": "center", "center": {"kind": "min"}},
    }

    def _out(self, capsys, dataset, argv, spec):
        code = run(*argv, spec, "--input", dataset)
        assert code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv, name", [(ASSOC, "pearson"), (STANDARDIZE, "unit-mean")])
    def test_names_win_over_files_of_the_same_name(self, dataset, tmp_path, monkeypatch, capsys, argv, name):
        monkeypatch.chdir(tmp_path)
        by_name = self._out(capsys, dataset, argv, name)
        Path(name).write_text(json.dumps(self.SHADOWS[name]))
        assert self._out(capsys, dataset, argv, name) == by_name
        assert self._out(capsys, dataset, argv, f"./{name}") != by_name

    @pytest.mark.parametrize("argv, known", [(ASSOC, "'pearson'"), (STANDARDIZE, "'unit-mean'")])
    def test_unknown_names_list_the_known_ones(self, dataset, tmp_path, monkeypatch, capsys, argv, known):
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "missing.json", "--input", dataset) == 1
        err = capsys.readouterr().err
        assert err.startswith("shapeassoc: error:") and err.count("\n") == 1
        assert "'missing.json'" in err and known in err


class TestAssoc:
    def test_pearson_pair(self, dataset, capsys):
        code = run(
            "assoc", "--input", dataset, "--delimiter", "comma", "--ids",
            "--measure", "pearson", "--x", "a", "--y", "c",
        )
        assert code == 0
        assert float(capsys.readouterr().out) == -1.0

    def test_measure_from_json_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "measure.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "minkowski-contrast",
                    "dissimilarity": {"r": 2.0, "standardization": "unit-mean"},
                }
            )
        )
        code = run(
            "assoc", "--input", dataset, "--delimiter", "comma", "--ids",
            "--measure", str(cfg), "--x", "a", "--y", "b",
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_series_id(self, dataset, capsys):
        code = run(
            "assoc", "--input", dataset, "--delimiter", "comma", "--ids",
            "--measure", "pearson", "--x", "a", "--y", "zzz",
        )
        assert code == 1
        assert "zzz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows", ["a,1,2,3\nb,4,4,4\n", "a,1e200,-1e200,3e200\nb,2e200,3e200,-1e200\n"], ids=["constant", "huge"]
    )
    def test_errors_name_the_pair(self, tmp_path, rows, capsys):
        p = tmp_path / "pair.csv"
        p.write_text(rows)
        code = run(
            "assoc", "--input", str(p), "--delimiter", "comma", "--ids",
            "--measure", "pearson", "--x", "a", "--y", "b",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("shapeassoc: error: pair ('a', 'b'): ") and err.count("\n") == 1, err


class TestMatrix:
    def test_csv_output(self, dataset, tmp_path):
        out_file = tmp_path / "m.csv"
        code = run(
            "matrix", "--input", dataset, "--delimiter", "comma", "--ids",
            "--measure", "pearson", "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "id,a,b,c"
        row_a = lines[1].split(",")
        assert row_a[0] == "a"
        assert float(row_a[1]) == 1.0
        assert float(row_a[3]) == -1.0

    def test_wide_file_reads_under_default_orientation(self, tmp_path, capsys):
        # more series than samples: the size rule alone would read columns
        p = tmp_path / "wide.csv"
        p.write_text("a,1,2,4\nb,2,1,3\nc,5,4,1\nd,1,3,2\n")
        argv = ("matrix", "--input", str(p), "--delimiter", "comma", "--ids", "--measure", "pearson")
        assert run(*argv) == 0
        auto = capsys.readouterr().out
        assert run(*argv, "--orientation", "rows") == 0
        assert capsys.readouterr().out == auto
        assert auto.startswith("id,a,b,c,d\n")


class TestCluster:
    @pytest.fixture
    def matrix_file(self, dataset, tmp_path):
        out_file = tmp_path / "m.csv"
        run(
            "matrix", "--input", dataset, "--delimiter", "comma", "--ids",
            "--measure", "pearson", "--output", str(out_file),
        )
        return str(out_file)

    def test_newick(self, matrix_file, capsys):
        code = run("cluster", "--matrix", matrix_file)
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(";")
        assert out.count(",") == 2

    def test_text_and_json_formats(self, matrix_file, capsys):
        assert run("cluster", "--matrix", matrix_file, "--format", "text") == 0
        text = capsys.readouterr().out
        assert text.startswith("leaves: a, b, c")
        assert run("cluster", "--matrix", matrix_file, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["leaves"] == ["a", "b", "c"]
        assert len(payload["merges"]) == 2

    def test_newick_quotes_ids_with_special_characters(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("id,a:1,b(2),c;3\na:1,1,0.5,0.3\nb(2),0.5,1,0.3\nc;3,0.3,0.3,1\n")
        assert run("cluster", "--matrix", str(p)) == 0
        assert capsys.readouterr().out == "(('a:1':0.5,'b(2)':0.5):0.7,'c;3':0.7);\n"

    def test_non_finite_cell_names_its_position(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("id,a,b\na,1.0,nan\nb,nan,1.0\n")
        assert run("cluster", "--matrix", str(p)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 2, field 3: non-finite" in err, err

    def test_empty_id_exits_one(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("id,,b\n,1,0.5\nb,0.5,1\n")
        for fmt in ("newick", "text", "json"):
            assert run("cluster", "--matrix", str(p), "--format", fmt) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "shapeassoc: error: similarity matrix ids must be unique non-empty strings\n"

    def test_missing_matrix_file(self, tmp_path, capsys):
        code = run("cluster", "--matrix", str(tmp_path / "none.csv"))
        assert code == 1
        assert capsys.readouterr().err.startswith("shapeassoc: error:")


class TestAxioms:
    def test_passing_measure_exits_zero(self, capsys):
        code = run("axioms", "--measure", "pearson", "--props", "sam", "--trials", "50", "--seed", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "symmetry" in out
        assert "FAIL" not in out

    def test_failing_measure_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "similarity-branch",
                    "recipe": {
                        "dissimilarity": {
                            "r": 2.0,
                            "standardization": {"kind": "center", "center": {"kind": "min"}},
                        },
                        "decay": {"kind": "rational-decay", "k": 1.0},
                    },
                }
            )
        )
        json_out = tmp_path / "report.json"
        code = run(
            "axioms", "--measure", str(cfg), "--props", "inverse-relationship",
            "--trials", "100", "--seed", "0", "--json", str(json_out),
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        payload = json.loads(json_out.read_text())
        assert payload["results"][0]["status"] == "fail"

    def test_unknown_property_exits_one(self, capsys):
        code = run("axioms", "--measure", "pearson", "--props", "nonsense")
        assert code == 1
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "props, named",
        [
            ("foo", "'foo' is not a property id"),
            ("sam,foo", "'foo' is not a property id"),
            ("symmetry, foo", "'foo' is not a property id"),
            ("sam,symmetry", "'sam' must stand alone"),
            ("symmetry,all", "'all' must stand alone"),
        ],
    )
    def test_a_bad_property_id_is_named_with_the_valid_ones(self, capsys, props, named):
        code = run("axioms", "--measure", "pearson", "--props", props, "--trials", "5")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and named in captured.err
        assert "use 'all' or 'sam' alone" in captured.err
        assert all(p.value in captured.err for p in PropertyId)

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_exits_one(self, capsys, tol):
        code = run("axioms", "--measure", "pearson", "--props", "sam", "--trials", "5", "--tol", tol)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "tol must be >= 0" in captured.err

    def test_negative_seed_exits_one(self, capsys):
        code = run("axioms", "--measure", "pearson", "--props", "sam", "--trials", "5", "--seed", "-1")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "shapeassoc: error: seed must be >= 0, got -1\n"

    def test_props_default_to_every_association_property(self, capsys):
        code = run("axioms", "--measure", "pearson", "--trials", "5")
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        wanted = [p.value for p in PropertyId if "association" in p.kinds]
        assert [line.split()[0] for line in out[2:]] == wanted and len(wanted) == 10
        assert all(line.split()[1] == "pass" for line in out[2:])

    def test_seed_defaults_to_zero(self, capsys):
        run("axioms", "--measure", "pearson", "--props", "symmetry", "--trials", "10")
        assert "seed=0" in capsys.readouterr().out


class TestBench:
    def test_synthetic_ok(self, capsys):
        code = run("bench", "--synthetic", "--seed", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "all expectations met: yes" in out

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset": {"kind": "synthetic", "seed": 1, "length": 120},
                    "measures": [{"name": "pearson", "measure": "pearson", "expect": "all"}],
                }
            )
        )
        json_out = tmp_path / "report.json"
        code = run("bench", "--config", str(cfg), "--json", str(json_out))
        assert code == 0
        assert json.loads(json_out.read_text())["all_expectations_met"] is True

    def test_failed_expectation_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset": {"kind": "synthetic", "seed": 0},
                    "measures": [{"name": "pearson", "measure": "pearson", "expect": "not-all"}],
                }
            )
        )
        code = run("bench", "--config", str(cfg))
        assert code == 2
        assert "UNEXPECTED" in capsys.readouterr().out

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        assert run("bench", "--synthetic", "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "shapeassoc: error: synthetic seed must be >= 0, got -1\n"
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"dataset": {"kind": "synthetic", "seed": -3}}))
        assert run("bench", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "shapeassoc: error: synthetic seed must be >= 0, got -3\n"

    def test_requires_exactly_one_source(self, capsys):
        assert run("bench") == 1
        capsys.readouterr()
        assert run("bench", "--synthetic", "--config", "x.json") == 1


class TestMalformedConfig:
    """Malformed JSON exits 1 with a one-line message naming the bad entry."""

    def _run_config(self, tmp_path, capsys, argv, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = run(*argv, str(cfg))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("shapeassoc: error:") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"dataset": {"kind": "file"}}, "'path'"),
            ({"dataset": {"kind": "synthetic"}, "measures": [{"measure": "pearson"}]}, "'name'"),
            ({"dataset": {"kind": "synthetic", "clusters": [{"size": None}]}}, "'size'"),
            ({"dataset": {"kind": "synthetic", "clusters": [{"inverted": [True]}]}}, "'size'"),
            ({"dataset": {"kind": "synthetic"}, "true_clusters": 5}, "'true_clusters'"),
            ({"dataset": {"kind": "file", "path": "x.txt", "has_ids": "false"}}, "'has_ids'"),
            ({"dataset": {"kind": "synthetic", "clusters": [{"size": 2.7}]}}, "'size'"),
            ({"dataset": {"kind": "synthetic", "length": 64}, "expectations": {"branch-midrnage": "not-all"}}, "'branch-midrnage'"),
        ],
    )
    def test_bench_config(self, tmp_path, capsys, payload, key):
        assert key in self._run_config(tmp_path, capsys, ("bench", "--config"), payload)

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"kind": "gmidrange-correlation", "k": None}, "'k'"),
            (
                {
                    "kind": "cosine",
                    "standardization": {
                        "kind": "center",
                        "center": {"kind": "weighted-mean", "weights": 5},
                    },
                },
                "'weights'",
            ),
            ({"kind": "gmidrange-correlation", "k": 2.7}, "'k'"),
        ],
    )
    def test_measure_file(self, dataset, tmp_path, capsys, payload, key):
        argv = ("assoc", "--input", dataset, "--delimiter", "comma", "--ids",
                "--x", "a", "--y", "b", "--measure")
        assert key in self._run_config(tmp_path, capsys, argv, payload)

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--config"),
            ("axioms", "--measure"),
            ("assoc", "--input", "{dataset}", "--delimiter", "comma", "--ids", "--x", "a", "--y", "b", "--measure"),
            ("standardize", "--input", "{dataset}", "--delimiter", "comma", "--ids", "--spec"),
        ],
    )
    def test_invalid_json_exits_one(self, dataset, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "pearson",}')
        try:
            json.loads(cfg.read_text())
        except json.JSONDecodeError as exc:
            cause = str(exc)
        code = run(*(a.format(dataset=dataset) for a in argv), str(cfg))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"shapeassoc: error: {cfg}: invalid JSON: {cause}\n"

    def test_non_finite_dataset_cell(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("a,1,2,3\nb,4,nan,6\n")
        code = run("matrix", "--input", str(p), "--delimiter", "comma", "--ids", "--measure", "pearson")
        assert code == 1
        assert "line 2, field 3: non-finite" in capsys.readouterr().err

    def test_overflowing_values(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("a,1e200,-1e200,3e200,2e200\nb,2e200,3e200,-1e200,1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("matrix", "--input", str(p), "--delimiter", "comma", "--ids", "--measure", "pearson")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("shapeassoc: error:") and "('a', 'b')" in err and "not finite" in err

    def test_failing_standardization_names_the_series(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        for spec, row, cause in (
            ("center-mean", "b,1.7e308,1.7e308,-1.7e308", "overflow"),
            ("unit-mean", "b,1.7e308,1.7e308,-1.7e308", "overflow"),
            ("unit-mean", "b,4,4,4", "constant"),
        ):
            p.write_text(f"a,1,2,3\n{row}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run("standardize", "--input", str(p), "--delimiter", "comma", "--ids", "--spec", spec)
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("shapeassoc: error: series 'b':") and cause in err, err

    @pytest.mark.parametrize(
        "command",
        [
            ("matrix", "--measure", "pearson"),
            ("matrix", "--measure", "cosine"),
            ("standardize", "--spec", "unit-mean"),
        ],
    )
    def test_subnormal_values_report_underflow(self, tmp_path, capsys, command):
        p = tmp_path / "tiny.csv"
        p.write_text(SUBNORMAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(*command, "--input", str(p), "--delimiter", "comma", "--ids")
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "underflow" in err, err
        assert "('a', 'b')" in err or "series 'a'" in err, err

    def test_subnormal_values_center_without_error(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text(SUBNORMAL)
        code = run("standardize", "--input", str(p), "--delimiter", "comma", "--ids", "--spec", "center-mean")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("a,1.25e-310,")


SUBNORMAL = "a,1e-310,-1e-310,2e-310,-3e-310\nb,-2e-310,1e-310,3e-310,1e-310\n"


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run() == 1

    def test_unknown_flag(self, capsys):
        assert run("matrix", "--bogus") == 1

    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            "matrix", "--input", str(tmp_path / "none.csv"), "--measure", "pearson"
        )
        assert code == 1

    def test_non_numeric_dataset(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\nx,4\n")
        code = run("matrix", "--input", str(p), "--delimiter", "comma", "--measure", "pearson")
        assert code == 1
        assert "cannot parse" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # `python -m shapeassoc.cli` runs `entrypoint`, as the console script does
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        (tmp_path / "waves.csv").write_text("a,1,2,3,4,5\nb,2,3,5,5,6\nc,5,4,3,2,1\n")
        (tmp_path / "huge.csv").write_text("a,1e200,-1e200,3e200,2e200\nb,2e200,3e200,-1e200,1e200\n")

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "shapeassoc.cli", *argv, "--delimiter", "comma", "--ids"],
                cwd=tmp_path, capture_output=True, text=True, env=env,
            )

        done = cli("assoc", "--input", "waves.csv", "--measure", "pearson", "--x", "a", "--y", "c")
        assert (done.returncode, done.stdout, done.stderr) == (0, "-1.0\n", "")
        done = cli("matrix", "--input", "huge.csv", "--measure", "pearson")
        assert done.returncode == 1 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("shapeassoc: error:"), done.stderr
