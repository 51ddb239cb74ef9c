"""File formats: strict-orders parsing, rankings CSV, model JSON."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rankworth as rw
from rankworth.datasets import load_abcd, load_pudding, netflix_shape_soc_path
from rankworth.errors import DataError, ModelError
from rankworth.io import _parse_rank_csv, parse_soc
from tests.conftest import from_orderings_oracle, rank_csv_oracle, soc_oracle


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

    def test_first_bad_line_is_named(self):
        head = "2\n1,a\n01,b\n3,3,2\n"
        with pytest.raises(DataError, match="permutation of all item ids: '1,1,1'"):
            parse_soc(head + "2, 1 ,01\n1,1,1\n1,x,01\n")
        with pytest.raises(DataError, match="malformed frequency in line: 'x,1,01'"):
            parse_soc(head + "x,1,01\n0,1,01\n")
        with pytest.raises(DataError, match="non-positive frequency in line: '0,01,1'"):
            parse_soc(head + "1,1,01\n0,01,1\n")
        with pytest.raises(DataError, match="malformed frequency"):
            parse_soc(head + "99999999999999999999,1,01\n")

    def test_ids_are_stripped_strings(self):
        soc = parse_soc("2\n 1 ,a\n01,b\n3,3,2\n2, 01 , 1\n1,1,01\n")
        assert soc.orderings.tolist() == [[1, 0], [0, 1]]
        assert soc.frequencies.tolist() == [2.0, 1.0]

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

    def test_blank_first_line(self, tmp_path):
        # the header is the first line, so a blank one heads no columns
        path = tmp_path / "blank.csv"
        path.write_text("\na,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="row 1 has 3 cells, expected 0"):
            rw.read_rank_csv(path)

    def test_quoted_names_and_cells(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"Last, First", b ,weight\r\n"1", 2 ,0.5\r\n\r\n2,1,"2"\r\n')
        table = rw.read_rank_csv(path)
        assert table.items == ("Last, First", "b")
        assert table.ranks.tolist() == [[1, 2], [2, 1]]
        assert table.weights.tolist() == [0.5, 2.0]

    def test_bad_row_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,weight,group\n1,2,1,1\n\n2,1,1,1\n1,2,x,1\n")
        with pytest.raises(DataError, match="non-numeric weight in row 3"):
            rw.read_rank_csv(path)
        path.write_text("a,b,weight,group\n1,2,1,1\n2,1,1,1.5\n")
        with pytest.raises(DataError, match="non-numeric group in row 2"):
            rw.read_rank_csv(path)
        path.write_text("a,b\n1,2\n2,1_0\n")
        with pytest.raises(DataError, match="malformed rankings CSV"):
            rw.read_rank_csv(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("caf\xe9,b\n1,2\n".encode("latin-1"))
        with pytest.raises(DataError, match="not valid UTF-8"):
            rw.read_rank_csv(path)
        with pytest.raises(DataError, match="not valid UTF-8"):
            rw.read_preflib_soc(path)

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


# ---------------------------------------------------------------------------
# the array readers against the row-by-row oracles, and under mutation


def _lines_text(draw, lines, lead=True):
    """Join ``lines`` with LF or CRLF endings, with blank lines slipped in
    (before the first line too, if ``lead``)."""
    out = []
    for k, ln in enumerate(lines):
        out.extend([""] * draw(st.sampled_from([0, 0, 0, int(lead or k > 0)])) + [ln])
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(st.sampled_from(["", "\n"]))


def _pad(draw, token):
    return draw(st.sampled_from(["", " ", "  "])) + token + draw(st.sampled_from(["", " "]))


@st.composite
def soc_texts(draw):
    """Strict-orders text: padded and zero-padded ids ("01" is not "1"),
    quoted names with commas, blank lines, and now and then one fault."""
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(st.sampled_from(["1", "2", "3", "4", "5", "01", "10", "a", "b b"]),
                        min_size=n, max_size=n, unique=True))
    names = [draw(st.sampled_from(["", "Dish {k}", '"Last, First {k}"', " Roll {k} "] * 3
                                  + ["Same"])).format(k=k) for k in range(n)]
    rows, freqs = [], []
    for _ in range(draw(st.integers(0, 6))):
        order = list(draw(st.permutations(ids)))
        fault = draw(st.sampled_from([None] * 12 + ["drop", "twice", "unknown", "freq"]))
        if fault == "drop":
            order.pop()
        elif fault == "twice":
            order[-1] = order[0]
        elif fault == "unknown":
            order[0] = "zz"
        freq = draw(st.integers(1, 50))
        token = (draw(st.sampled_from(["0", "-2", "x", "1.5", "", "+3", "99999999999"]))
                 if fault == "freq" else str(freq))
        freqs.append(freq)
        rows.append(",".join([_pad(draw, token)] + [_pad(draw, i) for i in order]))
    totals = (draw(st.integers(0, 9)), sum(freqs) + draw(st.sampled_from([0, 0, 1])),
              len(rows) + draw(st.sampled_from([0, 0, -1])))
    header = [str(n)] + [f"{_pad(draw, i)},{name}" for i, name in zip(ids, names)]
    return _lines_text(draw, header + [",".join(map(str, totals))] + rows)


@st.composite
def rank_csv_texts(draw):
    """Rankings CSV text (with its ``weights_col``): tied and partial rows,
    quoted and padded cells, weight and group columns anywhere, blank lines,
    and now and then one fault."""
    n = draw(st.integers(2, 5))
    names = [draw(st.sampled_from(["item {k}", '"Last, First {k}"', " pad {k} "])).format(k=k)
             for k in range(n)]
    kinds = ["item"] * n + draw(st.sampled_from([[], ["weight"], ["group"], ["weight", "group"]]))
    kinds = draw(st.permutations(kinds))
    weights_col = draw(st.sampled_from([None, "weight", "count"])) if "weight" in kinds else (
        draw(st.sampled_from([None] * 9 + ["count"])))
    item_names = iter(names)
    header = [next(item_names) if k == "item" else (weights_col or "weight") if k == "weight"
              else k for k in kinds]
    fault = draw(st.sampled_from([None] * 8 + ["ragged", "rank", "weight", "names", "column"]))
    if fault == "names":
        header[kinds.index("item")] = header[len(kinds) - 1 - kinds[::-1].index("item")]
    elif fault == "column" and weights_col and "weight" in kinds:
        header[kinds.index("weight")] = "weight"
    rows = []
    for r in range(draw(st.integers(1, 6))):
        cells = []
        for kind in kinds:
            if kind == "item":
                cell = str(draw(st.integers(0, n + 1)))
            elif kind == "weight":
                cell = draw(st.sampled_from(["1", "0.5", "2.25", "1e-3", "0", "3.0"]))
                cell = draw(st.sampled_from([cell, repr(draw(st.floats(0, 10)))]))
            else:
                cell = str(draw(st.integers(1, 3)))
            cells.append(draw(st.sampled_from([_pad(draw, cell), f'"{cell}"'])))
        if r == 0 and fault == "ragged":
            cells.append("1") if draw(st.booleans()) else cells.pop()
        elif r == 0 and (fault == "rank" or fault == "weight" in kinds):
            cells[kinds.index("item" if fault == "rank" else "weight")] = draw(
                st.sampled_from(["x", "1.5", ""] if fault == "rank" else ["x", ""]))
        rows.append(",".join(cells))
    # a blank first line is an empty header (see test_blank_first_line)
    return _lines_text(draw, [",".join(header)] + rows, lead=False), weights_col


def _outcome(call):
    """(result, DataError message, warning messages) of ``call``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = call(), None
        except DataError as exc:
            result, error = None, str(exc)
    return result, error, [str(w.message) for w in caught]


def _same_table(a, b):
    return (a.items == b.items and np.array_equal(a.ranks, b.ranks)
            and np.array_equal(a.weights, b.weights) and np.array_equal(a.na_mask, b.na_mask))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input"


class TestReaderOracle:
    """The array readers return bit for bit the tables, rows, warnings and
    errors of the row-by-row readers in ``conftest``."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=soc_texts())
    def test_soc(self, text, scratch_file):
        scratch_file.write_bytes(text.encode())
        want, want_error, want_warnings = _outcome(
            lambda: soc_oracle(scratch_file.read_text(encoding="utf-8")))
        got, got_error, got_warnings = _outcome(lambda: rw.read_preflib_soc(scratch_file))
        assert (got_error, got_warnings) == (want_error, want_warnings)
        if want is None:
            return
        names, freqs, orderings = want
        table, weights = got
        assert table.names == tuple(names)
        assert table.rows == tuple(tuple((name,) for name in order) for order in orderings)
        assert weights.dtype == freqs.dtype and np.array_equal(weights, freqs)
        items = sorted(names)
        built, built_error, _ = _outcome(lambda: rw.from_orderings(table, items, weights))
        oracle, oracle_error, _ = _outcome(
            lambda: from_orderings_oracle(orderings, items, freqs))
        assert built_error == oracle_error
        assert oracle is None or _same_table(built, oracle)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=rank_csv_texts())
    def test_rank_csv(self, case, scratch_file):
        text, weights_col = case
        scratch_file.write_bytes(text.encode())
        want, want_error, want_warnings = _outcome(
            lambda: rank_csv_oracle(scratch_file, weights_col))
        got, got_error, got_warnings = _outcome(
            lambda: _parse_rank_csv(scratch_file, weights_col))
        assert (got_error, got_warnings) == (want_error, want_warnings)
        if want is not None:
            assert _same_table(got[0], want[0])
            assert (got[1] is None) == (want[1] is None)
            assert want[1] is None or (got[1].dtype == want[1].dtype
                                       and np.array_equal(got[1], want[1]))


def _mutants(data: bytes, seed: int, count: int = 400):
    """``count`` copies of ``data``, each with one to three random byte
    edits (replace, insert or delete; any byte value, so some copies are
    not UTF-8)."""
    rng = np.random.default_rng(seed)
    palette = b'0123456789,,,\n\n\r "-.xe\t'
    for _ in range(count):
        b = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(0, len(b)))
            byte = (palette[int(rng.integers(len(palette)))] if rng.random() < 0.8
                    else int(rng.integers(256)))
            edit = rng.integers(3)
            if edit == 0:
                b[at] = byte
            elif edit == 1:
                b.insert(at, byte)
            else:
                del b[at]
        yield bytes(b)


class TestReaderMutations:
    """Seeded byte edits of a valid file: each edited file either loads as
    a consistent table or raises DataError, never another exception."""

    @staticmethod
    def _load_all(mutants, path, load):
        loaded = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for data in mutants:
                path.write_bytes(data)
                try:
                    table = load(path)
                except DataError:
                    continue
                loaded += 1
                assert table.ranks.shape == (table.weights.size, len(table.items))
                assert np.array_equal(table.na_mask, (table.ranks > 0).sum(axis=1) < 2)
        return loaded

    def test_soc(self, tmp_path):
        def load(path):
            orderings, freqs = rw.read_preflib_soc(path)
            return rw.from_orderings(orderings, orderings.names, weights=freqs)

        data = Path(netflix_shape_soc_path()).read_bytes()
        loaded = self._load_all(_mutants(data, seed=19), tmp_path / "m.soc", load)
        assert 0 < loaded < 400

    def test_rank_csv(self, tmp_path):
        pudding = load_pudding()
        lines = [",".join([*pudding.items, "weight", "group"])]
        for i in range(pudding.n_rows):
            lines.append(",".join([*map(str, pudding.ranks[i]),
                                   format(pudding.weights[i], ".17g"), str(i % 3 + 1)]))
        data = "\n".join(lines).encode() + b"\n"
        loaded = self._load_all(_mutants(data, seed=19), tmp_path / "m.csv", rw.read_rank_csv)
        assert 0 < loaded < 400
