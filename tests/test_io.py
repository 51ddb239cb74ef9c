"""File formats: strict-orders parsing, rankings CSV, model JSON."""

import json
import warnings

import numpy as np
import pytest

import rankworth as rw
from rankworth.datasets import load_abcd, netflix_shape_soc_path
from rankworth.errors import DataError, ModelError
from rankworth.io import _parse_rank_csv, parse_soc


def quiet_fit(table, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rw.fit(table, **kw)


class TestSocParser:
    def test_bundled_four_item_file(self):
        orderings, freqs = rw.read_preflib_soc(netflix_shape_soc_path())
        assert orderings.n_rows == 24
        assert freqs.sum() == 1256
        names = {n for row in orderings.rows for slot in row for n in slot}
        assert len(names) == 4

    def test_two_item_minimal(self, tmp_path):
        path = tmp_path / "mini.soc"
        path.write_text("2\n1,apple\n2,banana\n5,5,1\n5,1,2\n")
        orderings, freqs = rw.read_preflib_soc(path)
        assert orderings.n_rows == 1
        assert freqs.tolist() == [5.0]
        assert orderings.rows[0] == (("apple",), ("banana",))

    def test_quoted_name_with_comma(self):
        soc = parse_soc('2\n1,"Last, First"\n2,Other\n3,3,2\n2,1,2\n1,2,1\n')
        assert soc.item_names == ["Last, First", "Other"]

    def test_totals_mismatch_warns_but_parses(self):
        text = "2\n1,a\n2,b\n9,9,1\n5,1,2\n"
        with pytest.warns(UserWarning, match="vote sum"):
            soc = parse_soc(text)
        assert soc.frequencies.sum() == 5

    def test_non_permutation_rejected(self):
        with pytest.raises(DataError, match="permutation"):
            parse_soc("3\n1,a\n2,b\n3,c\n1,1,1\n1,1,2,2\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(DataError):
            parse_soc("x\n1,a\n")
        with pytest.raises(DataError):
            parse_soc("2\n1,a\n2,b\nnot,a,totals,line\n")

    def test_sushi_shape_generator(self, tmp_path):
        from rankworth.datasets import write_sushi_shape_soc

        path = tmp_path / "sushi_shape.soc"
        write_sushi_shape_soc(path)
        orderings, freqs = rw.read_preflib_soc(path)
        assert orderings.n_rows == 4926
        assert freqs.sum() == 5000
        names = {n for row in orderings.rows for slot in row for n in slot}
        assert len(names) == 10


class TestRankCsv:
    def test_round_trip(self, pudding, tmp_path):
        path = tmp_path / "pudding.csv"
        rw.write_rank_csv(pudding, path)
        back = rw.read_rank_csv(path)
        assert back.items == pudding.items
        assert np.array_equal(back.ranks, pudding.ranks)
        assert np.array_equal(back.weights, pudding.weights)
        assert np.array_equal(back.na_mask, pudding.na_mask)

    def test_toy_matrix_round_trip(self, tmp_path):
        abcd = load_abcd()
        path = tmp_path / "abcd.csv"
        rw.write_rank_csv(abcd, path, include_weights=False)
        back = rw.read_rank_csv(path)
        assert back.formatted() == ["A > B", "C > A", "A > D", "B > A", "B > C"]

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            rw.read_rank_csv(path)

    def test_non_integer_rank_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(DataError, match="non-integer"):
            rw.read_rank_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n1\n")
        with pytest.raises(DataError, match="cells"):
            rw.read_rank_csv(path)

    def test_group_column(self, tmp_path):
        path = tmp_path / "grouped.csv"
        path.write_text("a,b,group\n1,2,1\n2,1,1\n1,2,2\n")
        table, groups = _parse_rank_csv(path)
        assert table.n_items == 2
        assert groups.tolist() == [1, 1, 2]
        assert rw.read_rank_csv(path).items == ("a", "b")

    def test_named_weight_column(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("a,b,count,group\n1,2,3,1\n2,1,0.5,2\n")
        table = rw.read_rank_csv(path, weights_col="count")
        assert table.items == ("a", "b")
        assert table.weights.tolist() == [3.0, 0.5]
        with pytest.raises(DataError, match="weight column 'n' not found"):
            rw.read_rank_csv(path, weights_col="n")

    def test_ambiguous_weight_column_rejected(self, tmp_path):
        path = tmp_path / "two_weights.csv"
        path.write_text("a,b,weight,count\n1,2,0.5,3\n2,1,1,2\n")
        with pytest.raises(DataError, match="'weight' is ambiguous"):
            rw.read_rank_csv(path, weights_col="count")
        assert rw.read_rank_csv(path, weights_col="weight").items == ("a", "b", "count")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-1"])
    def test_bad_weight_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad_weight.csv"
        path.write_text(f"a,b,weight\n1,2,1\n2,1,{cell}\n")
        with pytest.raises(DataError, match="finite and non-negative"):
            rw.read_rank_csv(path)


class TestCovariatesCsv:
    def test_inference_of_kinds(self, tmp_path):
        from rankworth.io import read_covariates_csv

        path = tmp_path / "covs.csv"
        path.write_text("group,season,temp\n2,wet,18.5\n1,dry,21.0\n")
        frame = read_covariates_csv(path)
        assert frame.n_groups == 2
        assert frame["season"].kind == "categorical"
        assert frame["temp"].kind == "numeric"
        # rows sorted by group id
        assert frame["season"].values == ("dry", "wet")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_numeric_rejected(self, tmp_path, cell):
        from rankworth.io import read_covariates_csv

        path = tmp_path / "covs.csv"
        path.write_text(f"group,temp\n1,18.5\n2,{cell}\n")
        with pytest.raises(DataError, match="'temp' has a missing or infinite"):
            read_covariates_csv(path)

    def test_bad_group_ids(self, tmp_path):
        from rankworth.io import read_covariates_csv

        path = tmp_path / "covs.csv"
        path.write_text("group,x\n1,0.5\n3,0.7\n")
        with pytest.raises(DataError, match="cover 1..G"):
            read_covariates_csv(path)


class TestModelJson:
    def test_fit_round_trip_bit_exact(self, pudding, tmp_path):
        m = quiet_fit(pudding, npseudo=0, maxit=7)
        path = tmp_path / "fit.json"
        rw.write_model_json(m, path)
        loaded = rw.read_model_json(path)
        assert np.array_equal(loaded.params.log_worth, m.params.log_worth)
        assert np.array_equal(loaded.params.log_tie, m.params.log_tie)
        assert loaded.items == m.items
        assert loaded.iterations == m.iterations
        assert loaded.log_likelihood == m.log_likelihood
        names, est = loaded.coef(log=False)
        names2, est2 = m.coef(log=False)
        assert names == names2
        assert np.array_equal(est, est2)

    def test_many_item_ghost_fit_round_trip(self, tmp_path):
        from rankworth.datasets import make_nascar_shape_table

        table = make_nascar_shape_table()
        m = quiet_fit(table, tol=1e-7)
        assert m.has_ghost
        path = tmp_path / "big.json"
        rw.write_model_json(m, path)
        loaded = rw.read_model_json(path)
        assert loaded.has_ghost
        assert len(loaded.params.log_worth) == 88
        assert np.array_equal(loaded.params.log_worth, m.params.log_worth)

    def test_rewrite_is_byte_identical(self, pudding, tmp_path):
        m = quiet_fit(pudding, npseudo=0, maxit=7)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        rw.write_model_json(m, first)
        loaded = rw.read_model_json(first)
        assert isinstance(loaded, rw.ModelFit)
        assert loaded.events is None
        rw.write_model_json(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_loaded_fit_reports_but_asks_for_refit(self, pudding, tmp_path):
        m = quiet_fit(pudding, npseudo=0, maxit=7)
        path = tmp_path / "fit.json"
        rw.write_model_json(m, path)
        loaded = rw.read_model_json(path)
        assert rw.model_metrics(loaded) == rw.model_metrics(m)
        for call in (rw.summarize, rw.quasi_variances, rw.vcov):
            with pytest.raises(ModelError, match="refit"):
                call(loaded)

    def test_version_check(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"kind": "fit", "version": 99}')
        with pytest.raises(DataError, match="version"):
            rw.read_model_json(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"kind": "mystery", "version": 1}')
        with pytest.raises(DataError, match="kind"):
            rw.read_model_json(path)

    @staticmethod
    def _written(fit, tmp_path):
        path = tmp_path / "model.json"
        rw.write_model_json(fit, path)
        return path, json.loads(path.read_text())

    def test_dropped_item_name_rejected(self, pudding, tmp_path):
        # 7 log-worths (6 items and the ghost) against 5 names: the ghost
        # must not be read as a real item
        path, d = self._written(quiet_fit(pudding), tmp_path)
        d["items"].pop()
        path.write_text(json.dumps(d))
        with pytest.raises(DataError, match="7 log-worths for 5 items and the ghost"):
            rw.read_model_json(path)

    def test_truncated_file_rejected(self, pudding, tmp_path):
        path, _ = self._written(quiet_fit(pudding), tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(DataError, match="not valid JSON"):
            rw.read_model_json(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d.pop("log_tie"), "no 'log_tie'"),
        (lambda d: d.update(iterations="7"), "'iterations' has the wrong type"),
        (lambda d: d.update(converged=1), "'converged' has the wrong type"),
        (lambda d: d.update(log_likelihood=True), "'log_likelihood' has the wrong type"),
        (lambda d: d["log_worth"].__setitem__(0, "x"), "'log_worth' has the wrong type"),
        (lambda d: d.update(has_ghost=False), "has_ghost is False with npseudo 0.5"),
        (lambda d: d.update(npseudo=0.0), "has_ghost is True with npseudo 0.0"),
        (lambda d: d.update(log_tie=[-1.0] * 6), "6 tie parameters for 6 items"),
        (lambda d: d.update(items=["a"] * 6), "items are empty or repeated"),
    ])
    def test_inconsistent_fit_rejected(self, pudding, tmp_path, edit, match):
        path, d = self._written(quiet_fit(pudding), tmp_path)
        edit(d)
        path.write_text(json.dumps(d))
        with pytest.raises(DataError, match=match):
            rw.read_model_json(path)

    @pytest.mark.parametrize("text", [
        b'{"kind": "fit", "version": 1, "items": ["\xff"]}',
        b'{"kind": "tree", "version": 1, "root": ' + b'{"left": ' * 3000 + b'1' + b'}' * 3001,
    ], ids=["not-utf8", "deeply-nested"])
    def test_undecodable_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(DataError, match="not valid JSON"):
            rw.read_model_json(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="not an object"):
            rw.read_model_json(path)
