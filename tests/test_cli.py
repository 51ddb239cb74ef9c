"""Command-line interface: outputs, exit codes, determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rankworth as rw
from rankworth.cli import main
from rankworth.datasets import (
    load_abcd,
    load_disconnected,
    load_nascar,
    load_pudding,
    netflix_shape_soc_path,
)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_data")
    rw.write_rank_csv(load_pudding(), d / "pudding.csv")
    rw.write_rank_csv(load_abcd(), d / "abcd.csv", include_weights=False)
    rw.write_rank_csv(load_disconnected(), d / "disconnected.csv",
                      include_weights=False)
    return d


class TestFitCommand:
    def test_pudding_historical_run(self, runner, data_dir):
        result = runner.invoke(main, ["fit", str(data_dir / "pudding.csv"),
                                      "--npseudo", "0", "--maxit", "7"])
        assert result.exit_code == 0
        # published coefficients at display precision
        for value in ("0.1388", "0.1730", "0.1617", "0.1654", "0.1587",
                      "0.2024", "0.7468"):
            assert value in result.output

    def test_json_out(self, runner, data_dir, tmp_path):
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["fit", str(data_dir / "pudding.csv"),
                                      "--npseudo", "0", "--json-out", str(out)])
        assert result.exit_code == 0
        loaded = rw.read_model_json(out)
        assert len(loaded.items) == 6

    def test_disconnected_exits_3(self, runner, data_dir):
        result = runner.invoke(main, ["fit", str(data_dir / "disconnected.csv"),
                                      "--npseudo", "0"])
        assert result.exit_code == 3
        assert "Network is not fully connected" in result.output

    def test_non_finite_npseudo_exits_2(self, runner, data_dir):
        result = runner.invoke(main, ["fit", str(data_dir / "disconnected.csv"),
                                      "--npseudo", "nan"])
        assert result.exit_code == 2
        assert "npseudo must be finite" in result.output

    @pytest.mark.parametrize("command", ["fit", "summary"])
    def test_five_way_tie_fits(self, runner, tmp_path, command):
        data = tmp_path / "tie5.csv"
        data.write_text("a,b,c,d,e,f\n1,1,1,1,1,2\n1,2,3,4,5,6\n6,5,4,3,2,1\n"
                        "2,1,3,1,1,1\n")
        result = runner.invoke(main, [command, str(data)])
        assert result.exit_code == 0, result.output
        assert "tie5" in result.output

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["fit", "/nonexistent/file.csv"])
        assert result.exit_code == 2

    def test_weights_col(self, runner, tmp_path):
        # two items, wins (3, 1) as one weighted row each: worths 0.75, 0.25
        data = tmp_path / "counts.csv"
        data.write_text("a,b,count\n1,2,3\n2,1,1\n")
        result = runner.invoke(main, ["fit", str(data), "--npseudo", "0",
                                      "--weights-col", "count"])
        assert result.exit_code == 0
        assert "0.7500" in result.output and "0.2500" in result.output

    def test_soc_input(self, runner):
        result = runner.invoke(main, ["fit", netflix_shape_soc_path(),
                                      "--npseudo", "0"])
        assert result.exit_code == 0


class TestSummaryCommand:
    def test_pudding_summary(self, runner, data_dir):
        result = runner.invoke(main, ["summary", str(data_dir / "pudding.csv"),
                                      "--npseudo", "0", "--maxit", "7"])
        assert result.exit_code == 0
        assert "residual deviance: 1619.4 on 1484 degrees of freedom" in result.output
        assert "aic: 1631.4" in result.output
        assert "0.3771" in result.output

    def test_printed_numbers_match_library_rounding(self, runner, data_dir):
        result = runner.invoke(main, ["summary", str(data_dir / "pudding.csv"),
                                      "--npseudo", "0", "--maxit", "7"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = rw.fit(load_pudding(), npseudo=0, maxit=7)
        summ = rw.summarize(fit, ref=0)
        for name, est, se, z, p in summ.rows():
            if np.isnan(se):
                continue
            line = next(ln for ln in result.output.splitlines()
                        if ln.strip().startswith(name + " "))
            assert f"{est:10.4f}" in line
            assert f"{se:8.4f}" in line

    def test_mean_reference(self, runner, data_dir):
        result = runner.invoke(main, ["summary", str(data_dir / "pudding.csv"),
                                      "--npseudo", "0", "--maxit", "7",
                                      "--ref", "mean"])
        assert result.exit_code == 0
        assert "-0.1766" in result.output


class TestQvCommand:
    def test_pudding_qv(self, runner, data_dir, tmp_path):
        out = tmp_path / "qv.csv"
        result = runner.invoke(main, ["qv", str(data_dir / "pudding.csv"),
                                      "--npseudo", "0", "--maxit", "7",
                                      "--csv-out", str(out)])
        assert result.exit_code == 0
        assert "0.1329" in result.output
        assert "worst relative SE errors, simple contrasts" in result.output
        assert out.exists()

    def test_only_the_reference_se_is_na_at_any_weight_scale(self, runner, tmp_path):
        table = load_pudding()
        data = tmp_path / "pudding_1e30.csv"
        rw.write_rank_csv(table.with_weights(table.weights * 1e30), data)
        result = runner.invoke(main, ["qv", str(data), "--npseudo", "0"])
        assert result.exit_code == 0, result.output
        assert result.output.count(" NA ") == 1


class TestConnectivityCommand:
    def test_toy_report(self, runner, data_dir):
        result = runner.invoke(main, ["connectivity", str(data_dir / "abcd.csv")])
        assert result.exit_code == 0
        assert "no: 2" in result.output
        assert "A=1" in result.output and "D=2" in result.output
        assert "csize: 3 1" in result.output
        assert "not strongly connected" in result.output


class TestConvertCommand:
    def test_soc_to_csv(self, runner, tmp_path):
        out = tmp_path / "converted.csv"
        result = runner.invoke(main, ["convert", netflix_shape_soc_path(),
                                      "-o", str(out)])
        assert result.exit_code == 0
        table = rw.read_rank_csv(out)
        assert table.n_rows == 24
        assert table.weights.sum() == 1256

    def test_url_equals_path(self, runner, tmp_path):
        # a file:// URL goes through the URL reader without a network
        by_path, by_url = tmp_path / "path.csv", tmp_path / "url.csv"
        source = Path(netflix_shape_soc_path())
        assert runner.invoke(main, ["convert", str(source), "-o", str(by_path)]).exit_code == 0
        result = runner.invoke(main, ["convert", source.resolve().as_uri(), "--url",
                                      "-o", str(by_url)])
        assert result.exit_code == 0
        assert "wrote 24 rankings of 4 items" in result.output
        assert by_url.read_bytes() == by_path.read_bytes()

    def test_csv_url_equals_path(self, runner, tmp_path):
        # the reader is picked by the URL's suffix, as for a path
        source, by_path, by_url = (tmp_path / n for n in ("in.csv", "path.csv", "url.csv"))
        rw.write_rank_csv(load_pudding(), source)
        assert runner.invoke(main, ["convert", str(source), "-o", str(by_path)]).exit_code == 0
        result = runner.invoke(main, ["convert", source.as_uri(), "--url", "-o", str(by_url)])
        assert result.exit_code == 0, result.output
        assert by_url.read_bytes() == by_path.read_bytes()

    def test_url_not_utf8_is_input_error(self, runner, tmp_path):
        source = tmp_path / "latin1.soc"
        source.write_bytes(Path(netflix_shape_soc_path()).read_bytes().replace(
            b"Movie One", b"Caf\xe9 One"))
        result = runner.invoke(main, ["convert", source.as_uri(), "--url",
                                      "-o", str(tmp_path / "out.csv")])
        assert result.exit_code == 2
        assert "not valid UTF-8" in result.output


class TestTreeCommand:
    def test_grouped_tree(self, runner, tmp_path):
        rng = np.random.default_rng(55)
        from tests.conftest import sample_ranking_row

        rows, gidx = [], []
        x = rng.uniform(0, 1, 160)
        for g in range(160):
            lw = np.array([0.0, 1.6, -1.6]) if x[g] <= 0.5 else np.array([0.0, -1.6, 1.6])
            rows.append(sample_ranking_row(lw, rng))
            rows.append(sample_ranking_row(lw, rng))
            gidx += [g + 1, g + 1]
        table = rw.from_rank_matrix(np.array(rows), ["a", "b", "c"])
        data = tmp_path / "grouped.csv"
        with open(data, "w") as fh:
            fh.write("a,b,c,group\n")
            for row, g in zip(rows, gidx):
                fh.write(",".join(map(str, list(row) + [g])) + "\n")
        covs = tmp_path / "covs.csv"
        with open(covs, "w") as fh:
            fh.write("group,x\n")
            for g in range(160):
                fh.write(f"{g + 1},{x[g]}\n")
        out = tmp_path / "tree.json"
        plot = tmp_path / "plot.csv"
        result = runner.invoke(main, [
            "tree", str(data), "--covariates", str(covs),
            "--minsize", "20", "--maxdepth", "2",
            "--json-out", str(out), "--plot-csv", str(plot)])
        assert result.exit_code == 0
        assert "terminal nodes: 2" in result.output
        assert "x <=" in result.output
        assert out.exists() and plot.exists()


def run_fresh(script: str, **env) -> str:
    """Standard output of ``script`` run by a fresh interpreter on this
    checkout's package, with ``env`` added to the environment."""
    env = {**os.environ, **env, "PYTHONPATH": str(Path(rw.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout.decode()


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


class TestLocale:
    def test_csv_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        # the CSV writers must not take their encoding from the locale
        data = tmp_path / "cafe.csv"
        data.write_text("café,b,c\n1,2,3\n2,1,3\n3,2,1\n1,3,2\n", encoding="utf-8")
        runs = [["summary", str(data), "--csv-out", str(tmp_path / "summary.csv")],
                ["qv", str(data), "--csv-out", str(tmp_path / "qv.csv")],
                ["connectivity", str(data), "--adjacency-csv", str(tmp_path / "adj.csv")]]
        run_fresh("from rankworth.cli import main\n"
                  f"for args in {runs!r}:\n"
                  "    main(args, standalone_mode=False)\n", **ASCII_LOCALE)
        for name in ("summary.csv", "qv.csv", "adj.csv"):
            assert "café" in (tmp_path / name).read_bytes().decode("utf-8")

    def test_race_results_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        data = tmp_path / "race.csv"
        data.write_text("Drivér A,B,C\nDrivér A,B,C\nC,Drivér A,B\nB,C,Drivér A\n",
                        encoding="utf-8")
        out = run_fresh("from rankworth.datasets import load_nascar\n"
                        f"print(ascii(load_nascar({str(data)!r}).items))\n", **ASCII_LOCALE)
        assert out.strip() == ascii(("Drivér A", "B", "C"))

    def test_undecodable_race_results_raise_data_error(self, tmp_path):
        data = tmp_path / "race.csv"
        data.write_bytes("Drivér A,B\nB,Drivér A\n".encode("latin-1"))
        with pytest.raises(rw.DataError, match="not valid UTF-8"):
            load_nascar(str(data))


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        # every command pays the package's imports; scipy.stats alone would
        # cost more than a whole fit of most tables
        out = run_fresh("import sys, rankworth, rankworth.cli\n"
                        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
        assert out.strip() == "[]"

    def test_import_leaves_graph_and_linalg_unloaded(self):
        # strong components come from a numpy closure: csgraph, and the
        # scipy.sparse.linalg and scipy.linalg it would import, stay out
        out = run_fresh("import sys, rankworth, rankworth.cli\n"
                        "heavy = ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')\n"
                        "print(sorted(m for m in sys.modules\n"
                        "             if any(m == h or m.startswith(h + '.') for h in heavy)))\n")
        assert out.strip() == "[]"


class TestVersion:
    def test_version_option(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"rankworth, version {rw.__version__}\n"


class TestDeterminism:
    def test_byte_identical_runs(self, runner, data_dir):
        args = ["summary", str(data_dir / "pudding.csv"), "--npseudo", "0"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        args = ["connectivity", str(data_dir / "abcd.csv")]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output
