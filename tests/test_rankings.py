"""Rankings construction, recoding, display, grouping, and decode helpers."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankworth as rw
from rankworth.errors import DataError
from tests.conftest import (dense_recode_row_oracle, from_orderings_oracle,
                            max_tie_order_oracle, orderings_rows_oracle)


def random_rank_matrices(seed, n=300):
    """Random non-negative code matrices with gaps, ties, all-zero and
    single-item rows, and occasionally no rows at all."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        n_rows, n_items = int(rng.integers(0, 30)), int(rng.integers(2, 9))
        m = rng.integers(0, int(rng.integers(1, 12)), size=(n_rows, n_items))
        if n_rows >= 2:
            m[0] = 0
            m[1] = 0
            m[1, rng.integers(n_items)] = int(rng.integers(1, 12))
        yield m


class TestFromRankMatrix:
    def test_toy_paired_comparisons(self, abcd):
        assert abcd.formatted() == ["A > B", "C > A", "A > D", "B > A", "B > C"]

    def test_gap_recoded_dense(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = rw.from_rank_matrix([[1, 3, 0]], ["a", "b", "c"])
        assert t.ranks.tolist() == [[1, 2, 0]]

    def test_single_item_row_flagged_na(self):
        with pytest.warns(UserWarning, match="set to NA"):
            t = rw.from_rank_matrix([[1, 0, 0, 0], [1, 2, 0, 0]], list("ABCD"))
        assert t.na_mask.tolist() == [True, False]
        assert t.formatted()[0] == "NA"

    def test_all_zero_row_flagged_na(self):
        with pytest.warns(UserWarning):
            t = rw.from_rank_matrix([[0, 0], [1, 2]], ["a", "b"])
        assert t.na_mask.tolist() == [True, False]

    def test_errors(self):
        with pytest.raises(DataError):
            rw.from_rank_matrix([[1]], ["only"])
        with pytest.raises(DataError):
            rw.from_rank_matrix([[1, -1]], ["a", "b"])
        with pytest.raises(DataError):
            rw.from_rank_matrix([[1, 2]], ["a", "a"])
        with pytest.raises(DataError):
            rw.from_rank_matrix([[1.5, 2]], ["a", "b"])

    @given(st.lists(st.lists(st.integers(0, 6), min_size=4, max_size=4),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_dense_recode_idempotent(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t1 = rw.from_rank_matrix(matrix, list("wxyz"))
            t2 = rw.from_rank_matrix(t1.ranks, list("wxyz"))
        assert np.array_equal(t1.ranks, t2.ranks)
        assert np.array_equal(t1.na_mask, t2.na_mask)

    def test_recoding_matches_row_oracle(self):
        for m in random_rank_matrices(7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t = rw.from_rank_matrix(m, [f"i{j}" for j in range(m.shape[1])])
            want = np.array([dense_recode_row_oracle(r) for r in m]).reshape(m.shape)
            assert np.array_equal(t.ranks, want)
            assert t.na_mask.tolist() == [(r > 0).sum() < 2 for r in want]


class TestFromOrderings:
    def test_tie_slot(self):
        t = rw.from_orderings([[("1", "2")]], [str(k) for k in range(1, 7)])
        assert t.ranks[0].tolist() == [1, 1, 0, 0, 0, 0]
        assert t.formatted() == ["1 = 2"]

    def test_winner_loser(self):
        t = rw.from_orderings([["A", "B"]], ["A", "B"])
        assert t.ranks[0].tolist() == [1, 2]

    def test_partial_ordering_ranks_columns(self):
        items = [f"d{k}" for k in range(6)]
        t = rw.from_orderings([["d4", "d0", "d2"]], items)
        assert t.ranks[0].tolist() == [2, 0, 3, 0, 1, 0]

    def test_race_sized_partial_ordering(self):
        # an ordering of 43 names among 87 gets ranks 1..43 on exactly
        # those columns and 0 elsewhere
        rng = np.random.default_rng(87)
        items = [f"driver{k}" for k in range(87)]
        finishers = rng.choice(87, size=43, replace=False)
        t = rw.from_orderings([[items[i] for i in finishers]], items)
        row = t.ranks[0]
        assert np.array_equal(row[finishers], np.arange(1, 44))
        assert (row > 0).sum() == 43
        assert sorted(row[row > 0]) == list(range(1, 44))

    def test_unknown_item_rejected(self):
        with pytest.raises(DataError, match="unknown item"):
            rw.from_orderings([["A", "Z"]], ["A", "B"])

    def test_duplicate_item_rejected(self):
        with pytest.raises(DataError, match="twice"):
            rw.from_orderings([["A", "A"]], ["A", "B"])

    def test_duplicate_item_rejected_in_a_table_too(self):
        # decoded rows build their table through the same check
        with pytest.raises(DataError, match="'x' appears twice"):
            rw.decode_orderings([["A", "B"]], [["x", "x", "y"]], ["A", "B", "C"])
        with pytest.raises(DataError, match="'x' appears twice"):
            rw.from_orderings(rw.OrderingsTable.from_rows([["x", "y", "x"]]), ["x", "y"])

    def test_table_arrays_are_checked(self):
        for names, codes, n_slots in [(("a", "a"), [[1, 2]], [2]), (("a", "b"), [[1, 2]], [2, 2]),
                                      (("a", "b"), [[1, 3]], [2]), (("a", "b"), [[-1, 1]], [2])]:
            with pytest.raises(DataError, match="needs unique names"):
                rw.OrderingsTable(names, codes, n_slots)
        t = rw.OrderingsTable(("a", "b"), [[2, 1]], [2])
        assert t.rows == ((("b",), ("a",)),)
        # tables compare and hash by their rows, whatever their vocabulary order
        same = rw.OrderingsTable.from_rows([["b", "a"]])
        assert same == t and hash(same) == hash(t) and same != rw.OrderingsTable.from_rows([["a"]])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rows=st.lists(st.lists(st.one_of(
        st.sampled_from(["a", "b", "c", "d", "", None, float("nan"), 3, np.int64(3),
                         np.float64("nan"), np.array("b"), ("a", "b"), np.array(["c", "e"])]),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "", None, float("nan"), 3]),
                 max_size=3)),
        max_size=5), max_size=6),
        items=st.sampled_from([list("abcd"), list("abcde"), list("dcbae3")]))
    def test_matches_row_loop_oracle(self, rows, items):
        # rows, vocabulary and table as the slot-by-slot loops build them,
        # tie slots in their given order and empty slots kept
        try:
            want_rows = orderings_rows_oracle(rows)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                rw.OrderingsTable.from_rows(rows)
            return
        got = rw.OrderingsTable.from_rows(rows)
        assert got.rows == want_rows
        assert got.names == tuple(dict.fromkeys(n for r in want_rows for s in r for n in s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                want = from_orderings_oracle(rows, items)
            except DataError as exc:
                with pytest.raises(DataError, match=re.escape(str(exc))):
                    rw.from_orderings(got, items)
                return
            for table in (rw.from_orderings(got, items), rw.from_orderings(rows, items)):
                assert table.items == want.items
                assert np.array_equal(table.ranks, want.ranks)
                assert np.array_equal(table.weights, want.weights)
                assert np.array_equal(table.na_mask, want.na_mask)

    def test_round_trip_through_ordering_extraction(self, abcd):
        # a dense no-NA table survives ordering extraction + rebuild
        orderings = []
        for i in range(abcd.n_rows):
            row = abcd.ranks[i]
            slots = []
            for lv in sorted(set(row[row > 0])):
                slots.append(tuple(abcd.items[j] for j in np.flatnonzero(row == lv)))
            orderings.append(slots)
        t = rw.from_orderings(orderings, abcd.items)
        assert np.array_equal(t.ranks, abcd.ranks)


class TestFormatRanking:
    def test_basic(self):
        assert rw.format_ranking([1, 2, 0, 0, 0, 0],
                                 [str(k) for k in range(1, 7)]) == "1 > 2"

    def test_tie(self):
        assert rw.format_ranking([1, 1], ["A", "B"]) == "A = B"

    def test_na(self):
        assert rw.format_ranking([1, 0, 0], ["a", "b", "c"]) == "NA"

    def test_truncation(self):
        items = [f"Driver {k:02d}" for k in range(20)]
        row = np.arange(1, 21)
        out = rw.format_ranking(row, items, width=30)
        assert out.endswith("...")
        assert len(out) <= 34

    def test_parse_round_trip(self, abcd):
        # levels joined by " > " and ties by " = " read back as the row
        for i in range(abcd.n_rows):
            text = rw.format_ranking(abcd.ranks[i], abcd.items)
            row = np.zeros(abcd.n_items, dtype=np.int64)
            if text != "NA":
                for rank, level in enumerate(text.split(" > "), start=1):
                    for name in level.split(" = "):
                        row[abcd.items.index(name)] = rank
            assert np.array_equal(row, abcd.ranks[i])


class TestSubsetItems:
    def test_drop_always_loser(self, abcd):
        with pytest.warns(UserWarning, match="set to NA"):
            abc = rw.subset_items(abcd, ["A", "B", "C"])
        assert abc.formatted() == ["A > B", "C > A", "NA", "B > A", "B > C"]

    def test_drop_unranked_item_no_change(self):
        t = rw.from_rank_matrix([[1, 2, 0]], list("abc"))
        s = rw.subset_items(t, ["a", "b"])
        assert s.ranks.tolist() == [[1, 2]]
        assert not s.na_mask.any()

    def test_subset_preserves_dense_invariant(self, rng=np.random.default_rng(3)):
        from tests.conftest import random_table

        t = random_table(rng, n_items=5, n_rows=25, max_tie=2, partial=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = rw.subset_items(t, ["i0", "i2", "i4"])
        for i in range(s.n_rows):
            if s.na_mask[i]:
                continue
            ranked = s.ranks[i][s.ranks[i] > 0]
            assert sorted(set(ranked)) == list(range(1, len(set(ranked)) + 1))

    def test_recoding_matches_row_oracle(self):
        for m in random_rank_matrices(8, n=100):
            items = [f"i{j}" for j in range(m.shape[1])]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t = rw.RankingsTable(tuple(items), m, np.ones(len(m)), np.zeros(len(m)))
                s = rw.subset_items(t, items[::2] if len(items) > 3 else items)
            cols = [items.index(k) for k in s.items]
            want = np.array([dense_recode_row_oracle(r) for r in m[:, cols]]).reshape(s.ranks.shape)
            assert np.array_equal(s.ranks, want)
            assert s.na_mask.tolist() == [(r > 0).sum() < 2 for r in want]

    def test_errors(self, abcd):
        with pytest.raises(DataError):
            rw.subset_items(abcd, ["A"])
        with pytest.raises(DataError):
            rw.subset_items(abcd, ["A", "Z"])


class TestGroupRankings:
    def test_repeating_layout(self):
        t = rw.from_rank_matrix([[1, 2]] * 8, ["a", "b"])
        g = rw.group_rankings(t, [1, 2, 3, 4] * 2)
        assert g.n_groups == 4
        assert np.flatnonzero(g.group_index == 2).tolist() == [1, 5]

    def test_identity_index(self):
        t = rw.from_rank_matrix([[1, 2]] * 3, ["a", "b"])
        g = rw.group_rankings(t, [1, 2, 3])
        assert g.n_groups == 3

    def test_group_loglik_is_member_sum(self):
        rng = np.random.default_rng(11)
        from tests.conftest import engine_loglik, random_params, random_table

        t = random_table(rng, n_items=4, n_rows=12, max_tie=2)
        g = rw.group_rankings(t, (np.arange(t.n_rows) % 3) + 1)
        params = random_params(rng, 4, 2)
        total = 0.0
        for gid in (1, 2, 3):
            rows = g.group_index == gid
            sub = rw.RankingsTable(t.items, t.ranks[rows], t.weights[rows], t.na_mask[rows])
            total += engine_loglik(sub, params)
        assert total == pytest.approx(engine_loglik(t, params), abs=1e-10)

    def test_missing_group_id(self):
        t = rw.from_rank_matrix([[1, 2]] * 3, ["a", "b"])
        with pytest.raises(DataError, match="missing group"):
            rw.group_rankings(t, [1, 3, 3])

    def test_non_integer_ids_refused(self):
        # 1.5 and 2.7 are not truncated into groups 1 and 2
        t = rw.from_rank_matrix([[1, 2]] * 4, ["a", "b"])
        with pytest.raises(DataError, match="group ids must be positive integers"):
            rw.group_rankings(t, [1.5, 1.0, 2.0, 2.7])
        assert rw.group_rankings(t, [1.0, 1.0, 2.0, 2.0]).group_index.tolist() == [1, 1, 2, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ids_refused(self, bad):
        t = rw.from_rank_matrix([[1, 2]] * 4, ["a", "b"])
        with pytest.raises(DataError, match="group ids must be positive integers"):
            rw.group_rankings(t, [1.0, bad, 2.0, 2.0])


class TestDecodeComplete:
    def test_decode_single_row(self):
        out = rw.decode_orderings(
            [["C", "B", "A"]],
            [["BRT 103-182", "SJC 730-79", "PM2 Don Rey"]],
            ["A", "B", "C"])
        assert out.rows[0] == (("PM2 Don Rey",), ("SJC 730-79",), ("BRT 103-182",))

    def test_decode_identity(self):
        out = rw.decode_orderings([["A", "B", "C"]], [["A", "B", "C"]],
                                  ["A", "B", "C"])
        assert out.rows[0] == (("A",), ("B",), ("C",))

    def test_decode_rows_are_permutations(self):
        rng = np.random.default_rng(5)
        codes = ["A", "B", "C"]
        coded, item_rows = [], []
        for r in range(20):
            coded.append(list(rng.permutation(codes)))
            item_rows.append([f"variety{r}_{k}" for k in range(3)])
        out = rw.decode_orderings(coded, item_rows, codes)
        for row, items in zip(out.rows, item_rows):
            flat = [name for slot in row for name in slot]
            assert sorted(flat) == sorted(items)

    def test_decode_bad_cell(self):
        with pytest.raises(DataError, match="not one of the codes"):
            rw.decode_orderings([["D"]], [["x", "y", "z"]], ["A", "B", "C"])

    def test_complete_fills_middle(self):
        assert rw.complete_orderings([["C", "A"]], ["A", "B", "C"]) == ["B"]

    def test_complete_none_missing_errors(self):
        with pytest.raises(DataError, match="exactly 1"):
            rw.complete_orderings([["A", "B"]], ["A", "B"])

    def test_complete_set_equality(self):
        rng = np.random.default_rng(6)
        codes = ["A", "B", "C"]
        rows = []
        for _ in range(25):
            keep = rng.permutation(codes)[:2]
            rows.append(list(keep))
        missing = rw.complete_orderings(rows, codes)
        for row, m in zip(rows, missing):
            assert sorted(row + [m]) == codes


class TestTableBasics:
    def test_immutability(self, abcd):
        with pytest.raises(ValueError):
            abcd.ranks[0, 0] = 5

    def test_equality_and_hash_by_content(self, abcd):
        same = abcd.with_weights(abcd.weights)
        assert abcd == same and hash(abcd) == hash(same) and len({abcd, same}) == 1
        flagged = rw.RankingsTable(abcd.items, abcd.ranks, abcd.weights,
                                   np.arange(abcd.n_rows) == 0)
        renamed = rw.RankingsTable(("A", "B", "C", "E"), abcd.ranks, abcd.weights,
                                   abcd.na_mask)
        shorter = rw.RankingsTable(abcd.items, abcd.ranks[1:], abcd.weights[1:],
                                   abcd.na_mask[1:])
        for other in (abcd.with_weights(2 * abcd.weights), flagged, renamed, shorter,
                      abcd.ranks):
            assert abcd != other

    def test_weights_validation(self, abcd):
        with pytest.raises(DataError):
            abcd.with_weights([1.0])
        with pytest.raises(DataError):
            abcd.with_weights([-1.0] * abcd.n_rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, abcd, bad):
        # bad weights fail on input, not later as a misleading fit error
        weights = np.ones(abcd.n_rows)
        weights[2] = bad
        with pytest.raises(DataError, match="finite and non-negative"):
            abcd.with_weights(weights)
        with pytest.raises(DataError, match="finite and non-negative"):
            rw.from_rank_matrix(abcd.ranks, abcd.items, weights=weights)
        with pytest.raises(DataError, match="finite and non-negative"):
            rw.RankingsTable(abcd.items, abcd.ranks, weights, abcd.na_mask)

    def test_max_tie_order(self):
        t = rw.from_rank_matrix([[1, 1, 1, 2], [1, 2, 3, 4]], list("abcd"))
        assert t.max_tie_order() == 3

    def test_max_tie_order_matches_row_oracle(self):
        rng = np.random.default_rng(9)
        for m in random_rank_matrices(9):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t = rw.from_rank_matrix(m, [f"i{j}" for j in range(m.shape[1])])
            # rows flagged NA are skipped; zero-weight rows still count
            t = rw.RankingsTable(t.items, t.ranks, rng.integers(0, 2, t.n_rows),
                                 t.na_mask | (rng.random(t.n_rows) < 0.3))
            assert t.max_tie_order() == max_tie_order_oracle(t)


def random_table_input(rng):
    """Arguments for ``RankingsTable``: gapped codes (steps up to 10**12), given
    NA flags and weights, now and then of another dtype, and now and then
    broken: repeated, empty or too few names, fractional, negative or NaN
    codes, a wrong shape, bad weights or flags of the wrong length."""
    j = int(rng.integers(1, 6))
    items = [f"i{k}" for k in range(j)] if rng.random() < 0.8 else list(range(10, 10 + j))
    if j >= 2 and rng.random() < 0.1:
        items[-1] = items[0]
    if rng.random() < 0.05:
        items[0] = ""
    n = int(rng.integers(0, 7))
    m = np.zeros((n, j), dtype=np.int64)
    for row in m:
        ranked = rng.permutation(j)[:int(rng.integers(0, j + 1))]
        level = 0
        for k in ranked:
            if level == 0 or rng.random() < 0.7:   # else a tie with the last item
                level += int(rng.choice([1, 2, 5, 10**6, 10**12]))
            row[k] = level
    m = m.astype(rng.choice([np.int64, np.int32, np.float64])) if m.max(initial=0) < 2**31 else m
    if n and rng.random() < 0.15:
        m = m.astype(float)
        m[rng.integers(n), rng.integers(j)] = rng.choice([0.5, -1.0, np.nan, 2.7])
    elif n and rng.random() < 0.05:
        m[rng.integers(n), rng.integers(j)] = -3
    shape = rng.random()
    if shape < 0.05:
        m = m.ravel()
    elif shape < 0.1:
        m = m[:, 1:]
    elif shape < 0.12:
        m = m[None]
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=n)
    if rng.random() < 0.05:
        weights = np.ones(n + 1)
    elif n and rng.random() < 0.05:
        weights[rng.integers(n)] = rng.choice([-1.0, np.nan, np.inf])
    flags = rng.random(n) < 0.2
    if rng.random() < 0.03:
        flags = flags[1:]
    return items, m, weights, flags


def table_input_fault(items, m, weights, flags) -> bool:
    """Whether ``RankingsTable`` must refuse these arguments, judged cell by cell."""
    names = [str(x) for x in items]
    if len(names) < 2 or "" in names or len(set(names)) < len(names):
        return True
    if m.ndim != 2 or m.shape[1] != len(names):
        return True
    if not all(float(c).is_integer() and c >= 0 for c in m.ravel().tolist()):
        return True
    if weights.shape != (len(m),) or not all(0 <= w < np.inf for w in weights.tolist()):
        return True
    return flags.shape != (len(m),)


class TestTableConstructor:
    """The constructor checks a table and puts it in normal form, whoever
    builds it: dense codes, and NA wherever fewer than two items are ranked."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_normal_form_or_data_error(self, seed):
        items, m, weights, flags = random_table_input(np.random.default_rng(seed))
        if table_input_fault(items, m, weights, flags):
            with pytest.raises(DataError):
                rw.RankingsTable(items, m, weights, flags)
            return
        t = rw.RankingsTable(items, m, weights, flags)
        want = [dense_recode_row_oracle(row) for row in m.astype(np.int64)]
        assert t.items == tuple(str(x) for x in items)
        assert t.ranks.dtype == np.int64 and t.ranks.shape == m.shape
        assert all(np.array_equal(got, row) for got, row in zip(t.ranks, want))
        assert t.na_mask.tolist() == [f or (row > 0).sum() < 2 for f, row in zip(flags, want)]
        assert t.weights.dtype == np.float64 and np.array_equal(t.weights, weights)

    def test_repeated_names_refused(self):
        with pytest.raises(DataError, match="item names must be unique"):
            rw.RankingsTable(("a", "a", "b"), np.array([[1, 2, 3]]), np.ones(1), np.zeros(1))
        t = rw.from_rank_matrix([[1, 2, 3]], list("abc"))
        with pytest.raises(DataError, match="item names must be unique"):
            rw.subset_items(t, ["a", "a", "b"])

    def test_fractional_codes_refused(self):
        # not truncated to [1, 2, 1], a tie the data do not contain
        with pytest.raises(DataError, match="rank codes must be integers"):
            rw.RankingsTable(tuple("abc"), np.array([[1.5, 2.7, 1.2], [1.0, 2.0, 3.0]]),
                             np.ones(2), np.zeros(2))

    def test_negative_code_refused(self):
        with pytest.raises(DataError, match="rank codes must be non-negative"):
            rw.RankingsTable(tuple("abc"), np.array([[1, -2, 3], [1, 2, 3]]),
                             np.ones(2), np.zeros(2))

    def test_weight_length_refused(self):
        with pytest.raises(DataError, match="weights length must match"):
            rw.RankingsTable(tuple("ab"), np.array([[1, 2], [2, 1]]), np.ones(5), np.zeros(2))
        with pytest.raises(DataError, match="weights length must match"):
            rw.from_rank_matrix([[1, 2], [2, 1]], ["a", "b"]).with_weights(np.ones(5))

    def test_memory_does_not_grow_with_the_codes(self):
        # one row with a code of 10**7: nothing may allocate per unit of the code
        import tracemalloc

        t = rw.RankingsTable(tuple("abc"), np.array([[1, 10**7, 2]]), np.ones(1), np.zeros(1))
        for call in (t.max_tie_order, lambda: rw.fit(t)):
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
