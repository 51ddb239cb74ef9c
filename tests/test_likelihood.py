"""Model evaluation on the :class:`EventSet` engine: set strengths, stage
normalizers, ranking probabilities and sufficient statistics, checked
against closed forms and the brute-force oracles in ``conftest``."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankworth as rw
from rankworth.errors import DataError
from rankworth.likelihood import EventSet, _esp_prefixes, _leave_one_out, _leave_two_out
from tests.conftest import (
    admissible_subsets,
    brute_force_denominator,
    brute_force_information,
    brute_force_loglik,
    brute_force_row_probability,
    brute_force_stats,
    compile_oracle,
    engine_loglik,
    engine_row_logliks,
    enumerate_tied_rankings,
    esp_prefixes_oracle,
    event_alternatives,
    leave_one_out_oracle,
    random_params,
    random_table,
    random_tied_table,
)


def one_row(row):
    return rw.from_rank_matrix([row], [f"i{k}" for k in range(len(row))])


def row_log_probability(row, params):
    return engine_loglik(one_row(row), params)


def log_denominator(alts, params):
    """Engine log normalizer of the first stage of a strict ranking of
    ``alts``: the log-likelihood under unit weight on that event alone and
    zero observed statistics is minus its log denominator."""
    row = np.zeros(params.n_items, dtype=np.int64)
    row[list(alts)] = np.arange(1, len(alts) + 1)
    ev = EventSet(one_row(row), params.max_tie_order)
    first = np.zeros(ev.n_events)
    first[0] = 1.0
    return -ev.loglik(params.theta(), first, np.zeros(ev.n_params))


class TestSetStrength:
    # f(S) enters each stage as the numerator of P(S chosen from A)

    def test_singleton_is_worth(self):
        p = rw.Parameters(np.log([0.3, 0.7]), np.log([0.5]))
        want = 0.7 / (1.0 + 0.5 * math.sqrt(0.3 * 0.7))
        assert math.exp(row_log_probability([2, 1], p)) == pytest.approx(want, rel=1e-12)

    def test_equal_pair(self):
        p = rw.Parameters(np.log([0.2, 0.2]), np.log([0.6]))
        want = 0.6 * 0.2 / (0.4 + 0.6 * 0.2)
        assert math.exp(row_log_probability([1, 1], p)) == pytest.approx(want, rel=1e-12)

    def test_geometric_mean_triple(self):
        p = rw.Parameters(np.log([2.0, 4.0, 8.0]), np.log([0.9, 0.5]))
        # f({0,1,2}) = 0.5 * (2*4*8)^(1/3) = 0.5 * 4 = 2
        den = 14.0 + 0.9 * (math.sqrt(8) + math.sqrt(16) + math.sqrt(32)) + 2.0
        assert math.exp(row_log_probability([1, 1, 1], p)) == pytest.approx(
            2.0 / den, rel=1e-12)

    def test_order_above_limit(self):
        with pytest.raises(DataError, match="above the limit 1"):
            EventSet(one_row([1, 1]), 1)


class TestChoiceDenominator:
    def test_pairwise_tie_model(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = np.exp(rng.normal(0, 1, 2))
            d2 = np.exp(rng.normal(-0.3, 0.4))
            p = rw.Parameters(np.log([a, b]), np.log([d2]))
            expected = a + b + d2 * math.sqrt(a * b)
            assert math.exp(log_denominator([0, 1], p)) == pytest.approx(
                expected, rel=1e-12)

    def test_order_one_is_worth_sum(self):
        p = rw.Parameters(np.log([0.2, 0.3, 0.5]), np.zeros(0))
        assert math.exp(log_denominator([0, 1, 2], p)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force_enumerator(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_params(rng, 4, 3)
            got = math.exp(log_denominator([2, 0, 3, 1], p))
            want = brute_force_denominator([0, 1, 2, 3], p)
            assert got == pytest.approx(want, rel=1e-11)


class TestRankingLogProbability:
    def test_pairwise_closed_form(self):
        rng = np.random.default_rng(2)
        a, b = np.exp(rng.normal(0, 1, 2))
        d2 = 0.7
        p = rw.Parameters(np.log([a, b]), np.log([d2]))
        want = math.log(a / (a + b + d2 * math.sqrt(a * b)))
        assert row_log_probability([1, 2], p) == pytest.approx(want, rel=1e-12)

    def test_uniform_strict(self):
        p = rw.Parameters(np.log([1 / 3] * 3), np.zeros(0))
        got = row_log_probability([1, 2, 3], p)
        assert got == pytest.approx(math.log(1 / 3 * 1 / 2), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        t = random_table(rng, n_items=5, n_rows=15, max_tie=3, partial=True)
        p = random_params(rng, 5, 3)
        got = np.exp(engine_row_logliks(t, p))
        for i in range(t.n_rows):
            if t.na_mask[i]:
                continue
            want = brute_force_row_probability(t.ranks[i], p)
            assert got[i] == pytest.approx(want, rel=1e-10)

    def test_tie_above_limit_rejected(self):
        with pytest.raises(DataError, match="above the limit 2"):
            EventSet(one_row([1, 1, 1]), 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 4, 2)
        row = [2, 1, 3, 0]
        base = row_log_probability(row, p)
        for c in (1e-6, 5.0, 1e8):
            shifted = rw.Parameters(p.log_worth + math.log(c), p.log_tie)
            assert row_log_probability(row, shifted) == pytest.approx(base, abs=1e-12)

    def test_order_one_matches_sequential_choice_product(self):
        # without ties the stagewise product over remaining alternatives
        rng = np.random.default_rng(5)
        worth = np.exp(rng.normal(0, 1, 4))
        p = rw.Parameters(np.log(worth), np.zeros(0))
        row = [3, 1, 2, 4]
        order = [1, 2, 0, 3]
        want = 1.0
        rest = list(order)
        while len(rest) > 1:
            want *= worth[rest[0]] / worth[rest].sum()
            rest = rest[1:]
        assert math.exp(row_log_probability(row, p)) == pytest.approx(want, rel=1e-12)


class TestLogLikelihood:
    def test_all_na_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = rw.from_rank_matrix([[1, 0, 0]], list("abc"))
        p = rw.Parameters(np.zeros(3), np.zeros(0))
        assert engine_loglik(t, p) == 0.0
        for d in (1, 3):
            ev = EventSet(t, d)
            theta = np.zeros(ev.n_params)
            assert not ev.expected(theta, ev.w_data).any()
            assert not ev.information(theta, ev.w_data).any()

    def test_weight_linearity(self):
        t1 = rw.from_rank_matrix([[1, 2], [1, 2]], ["a", "b"])
        t2 = rw.from_rank_matrix([[1, 2]], ["a", "b"], weights=[2.0])
        p = rw.Parameters(np.log([0.6, 0.4]), np.zeros(0))
        assert engine_loglik(t1, p) == pytest.approx(engine_loglik(t2, p), rel=1e-12)

    def test_pudding_deviance_at_published_estimates(self, pudding):
        worth = np.array([0.1388005, 0.1729985, 0.1617420,
                          0.1653930, 0.1586805, 0.2023855])
        p = rw.Parameters(np.log(worth), np.log([0.7468147]))
        assert -2 * engine_loglik(pudding, p) == pytest.approx(1619.4, abs=0.05)


class TestSufficientStats:
    def test_single_win(self):
        ev = EventSet(rw.from_rank_matrix([[1, 2]], ["A", "B"]), 2)
        assert ev.obs_data.tolist() == [1.0, 0.0, 0.0]

    def test_single_tie(self):
        ev = EventSet(rw.from_orderings([[("A", "B")]], ["A", "B"]), 2)
        assert ev.obs_data.tolist() == [0.5, 0.5, 1.0]

    def test_pudding_tally(self, pudding):
        from rankworth.datasets import pudding_pair_counts

        pairs = pudding_pair_counts()
        obs = EventSet(pudding, 2).obs_data
        for item in range(1, 7):
            wins = sum(p["w_ij"] for p in pairs if p["i"] == item)
            wins += sum(p["w_ji"] for p in pairs if p["j"] == item)
            ties = sum(p["t_ij"] for p in pairs if item in (p["i"], p["j"]))
            assert obs[item - 1] == pytest.approx(wins + ties / 2)
        assert obs[6] == sum(p["t_ij"] for p in pairs)

    def test_equal_worth_pair_tie_expectation(self):
        d2 = 0.7468
        ev = EventSet(rw.from_rank_matrix([[1, 2]], ["a", "b"]), 2)
        theta = np.log([0.5, 0.5, d2])
        assert ev.expected(theta, ev.w_data)[2] == pytest.approx(d2 / (2 + d2), rel=1e-12)

    def test_order_one_expectation_is_normalized_worth(self):
        worth = np.array([0.5, 0.3, 0.2])
        ev = EventSet(rw.from_rank_matrix([[1, 2, 3]], list("abc")), 1)
        e = ev.expected(np.log(worth), ev.w_data)
        # first stage normalizes over all three, the second over b and c
        # only, so a's credit is its worth; b gets 0.3 + 0.3/0.5 and c the rest
        assert e[0] == pytest.approx(0.5, abs=1e-12)
        assert e.tolist() == pytest.approx([0.5, 0.9, 0.6], abs=1e-12)
        assert e.sum() == pytest.approx(2.0, abs=1e-12)

    def test_obs_exp_totals_match(self):
        rng = np.random.default_rng(6)
        t = random_table(rng, n_items=4, n_rows=12, max_tie=2, partial=True)
        p = random_params(rng, 4, 2)
        ev = EventSet(t, 2)
        exp = ev.expected(p.theta(), ev.w_data)
        assert ev.obs_data[:4].sum() == pytest.approx(exp[:4].sum(), rel=1e-10)


class TestGradientIdentity:
    def test_gradient_is_obs_minus_exp(self):
        # the engine's analytic gradient against central differences of
        # the brute-force log-likelihood
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(5):
            t = random_table(rng, n_items=4, n_rows=10, max_tie=2, partial=True)
            p = random_params(rng, 4, 2)
            ev = EventSet(t, 2)
            theta = p.theta()
            fd = np.zeros_like(theta)
            for k in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[k] += step
                down[k] -= step
                fd[k] = (brute_force_loglik(t, rw.Parameters.from_theta(up, 4))
                         - brute_force_loglik(t, rw.Parameters.from_theta(down, 4))
                         ) / (2 * step)
            grad = ev.gradient(theta, ev.w_data, ev.obs_data)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)


class TestEnumerateTiedRankings:
    """The oracle enumerator that acceptance criterion 6 sums over."""

    def test_pair_outcomes(self):
        assert len(enumerate_tied_rankings(2, 2)) == 3

    def test_strict_permutations(self):
        assert len(enumerate_tied_rankings(3, 1)) == 6

    def test_ordered_set_partitions_count(self):
        assert len(enumerate_tied_rankings(3, 3)) == 13

    def test_direct_enumeration_cross_check(self):
        # independent count: ordered set partitions with bounded blocks
        def count(n, d):
            if n == 0:
                return 1
            total = 0
            for k in range(1, min(d, n) + 1):
                total += math.comb(n, k) * count(n - k, d)
            return total

        for n, d in [(2, 2), (3, 2), (4, 2), (4, 3), (5, 3)]:
            rows = enumerate_tied_rankings(n, d)
            assert len(rows) == count(n, d)
            assert len({tuple(r) for r in rows}) == len(rows)

    def test_normalization(self):
        # the brute-force oracle itself sums to one over every outcome
        rng = np.random.default_rng(8)
        for _ in range(25):
            j = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            p = random_params(rng, j, d)
            total = sum(brute_force_row_probability(row, p)
                        for row in enumerate_tied_rankings(j, d))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestEventSet:
    """The engine must agree with the brute-force oracles."""

    def test_loglik_matches_reference(self):
        rng = np.random.default_rng(9)
        t = random_table(rng, n_items=5, n_rows=20, max_tie=3, partial=True)
        p = random_params(rng, 5, 3)
        ev = EventSet(t, 3)
        got = ev.loglik(p.theta(), ev.w_data, ev.obs_data)
        assert got == pytest.approx(brute_force_loglik(t, p), rel=1e-11)

    def test_stats_match_reference(self):
        rng = np.random.default_rng(10)
        t = random_table(rng, n_items=5, n_rows=20, max_tie=3, partial=True)
        p = random_params(rng, 5, 3)
        ev = EventSet(t, 3)
        obs, exp = brute_force_stats(t, p)
        assert np.allclose(ev.obs_data, obs, rtol=1e-12, atol=1e-12)
        assert np.allclose(ev.expected(p.theta(), ev.w_data), exp,
                           rtol=1e-10, atol=1e-12)

    def test_information_matches_fd_of_gradient(self):
        rng = np.random.default_rng(11)
        t = random_table(rng, n_items=4, n_rows=12, max_tie=2)
        p = random_params(rng, 4, 2)
        ev = EventSet(t, 2)
        theta = p.theta()
        info = ev.information(theta, ev.w_data)
        step = 1e-5
        for k in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[k] += step
            down[k] -= step
            col = (ev.expected(up, ev.w_data) - ev.expected(down, ev.w_data)) / (2 * step)
            assert np.allclose(info[:, k], col, rtol=1e-4, atol=1e-5)

    def test_order_five_and_six_ties_fit_and_match_brute_force(self):
        # ties of any order fit, with no option: a 5-way and a 6-way tie
        rng = np.random.default_rng(12)
        rows = [rng.permutation(6) + 1 for _ in range(12)]
        rows += [[1, 1, 1, 1, 1, 2], [2, 1, 1, 1, 1, 1], [1] * 6]
        t = rw.from_rank_matrix(rows, [f"i{k}" for k in range(6)])
        assert t.max_tie_order() == 6
        fits = [rw.fit(t, npseudo=0, method=m, tol=1e-10)
                for m in ("iterative_scaling", "quasi_newton")]
        free = np.r_[:6, 6 + 3:6 + 5]              # orders 2-4 are unobserved, held
        for f in fits:
            assert f.converged
            assert f.log_likelihood == pytest.approx(brute_force_loglik(t, f.params), rel=1e-12)
            # the brute-force score vanishes at the fit, on every free parameter
            obs, exp = brute_force_stats(t, f.params)
            assert np.allclose(obs[free], exp[free], rtol=0, atol=1e-8 * t.n_rows)
        assert np.allclose(fits[0].params.theta(), fits[1].params.theta(), rtol=0, atol=1e-7)

    def test_extreme_worths_stay_finite(self):
        t = rw.from_rank_matrix([[1, 2, 3]], list("abc"))
        p = rw.Parameters(np.array([500.0, 0.0, -500.0]), np.zeros(0))
        ev = EventSet(t, 1)
        ll = ev.loglik(p.theta(), ev.w_data, ev.obs_data)
        assert np.isfinite(ll)
        # with ties, where plain arithmetic underflows: the normalizer of
        # {a, b, c} is e^500 to rounding, so tying a and b costs 250 and
        # tying b and c first costs 750, and the strict row costs nothing
        t = rw.from_rank_matrix([[1, 2, 3], [1, 1, 2], [2, 1, 1]], list("abc"))
        p = rw.Parameters(np.array([500.0, 0.0, -500.0]), np.zeros(1))
        ev = EventSet(t, 2)
        ll = ev.loglik(p.theta(), ev.w_data, ev.obs_data)
        assert ll == pytest.approx(-1000.0, rel=1e-12)
        assert np.all(np.isfinite(ev.expected(p.theta(), ev.w_data)))
        assert np.all(np.isfinite(ev.information(p.theta(), ev.w_data)))


class TestChoiceEvents:
    def test_final_singleton_skipped(self):
        ev = EventSet(rw.from_rank_matrix([[1, 2]], ["a", "b"]), 1)
        assert ev.n_events == 1
        assert ev.ev_sizes.tolist() == [2]
        assert ev.obs_data.tolist() == [1.0, 0.0]

    def test_final_tie_group_not_skipped(self):
        ev = EventSet(rw.from_rank_matrix([[1, 2, 2]], list("abc")), 2)
        assert ev.n_events == 2
        assert ev.ev_sizes.tolist() == [3, 2]
        assert ev.obs_data.tolist() == [1.0, 0.5, 0.5, 1.0]


def random_compile_table(rng):
    """A small random table with ties of order up to 3, partial rows, NA
    rows (zero or one ranked item), zero, integer and fractional weights,
    and now and then rank codes with gaps (built directly, not recoded)."""
    j = int(rng.integers(2, 7))
    n = int(rng.integers(1, 13))
    ranks = np.zeros((n, j), dtype=np.int64)
    for r in range(n):
        items = rng.permutation(j)[:int(rng.integers(0, j + 1))]
        pos, level = 0, 1
        while pos < items.size:
            k = int(rng.integers(1, 4))
            ranks[r, items[pos:pos + k]] = level
            pos += k
            level += 1 if rng.random() < 0.8 else 2
    weights = rng.choice([0.0, 1.0, 2.0, 0.1, 1 / 3, 2.7], size=n)
    weights[rng.random(n) < 0.3] = rng.random()
    return rw.RankingsTable(tuple(f"i{k}" for k in range(j)), ranks, weights,
                            (ranks > 0).sum(axis=1) < 2)


class TestOnePassCompile:
    """The vectorized stage pass against the row-by-row oracle: the same
    events in the same order, and every sum taken in the same order."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_row_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = random_compile_table(rng)
        d = t.max_tie_order()
        gidx = rng.integers(1, int(rng.integers(1, 4)) + 1, t.n_rows)
        want = compile_oracle(t, d, gidx)
        ev = EventSet(t, d, group_index=gidx)
        assert event_alternatives(ev) == want["events"]
        assert np.array_equal(ev.w_data, want["w_data"])
        assert np.array_equal(ev.obs_data, want["obs_data"])
        assert np.array_equal(ev.group_event_weights.toarray(), want["group_event_weights"])
        assert np.array_equal(ev.group_obs, want["group_obs"])
        assert np.array_equal(ev.win_counts, want["wins"])
        assert np.array_equal(rw.adjacency(t).counts, want["wins"])

        # a node's network: per-group counts summed over its groups
        mask = rng.random(gidx.max()) < 0.5
        summed = ev.for_groups(mask).win_counts
        direct = rw.adjacency(t.with_weights(t.weights * mask[gidx - 1])).counts
        # the same wins, summed group by group rather than row by row
        assert np.array_equal(summed > 0, direct > 0)
        assert np.allclose(summed, direct, rtol=1e-13, atol=0)
        items = t.items
        assert (rw.connectivity(rw.AdjacencyMatrix(items, summed))
                == rw.connectivity(rw.AdjacencyMatrix(items, direct)))

    def test_wins_do_not_depend_on_the_block_size(self):
        # wins are counted item by item: each table count is summed over its
        # item's stages in row order, and each group count over its group's
        rng = np.random.default_rng(5)
        m = np.array([rng.permutation(8) + 1 for _ in range(300)])
        m[::3, :3] = 1
        t = rw.from_rank_matrix(m, list("abcdefgh"), weights=rng.random(300))
        gidx = np.arange(300) % 7 + 1
        d = t.max_tie_order()
        want = compile_oracle(t, d, gidx)["wins"]
        assert np.array_equal(rw.adjacency(t).counts, want)
        ev = EventSet(t, d, group_index=gidx)
        assert np.array_equal(ev.win_counts, want)
        assert np.allclose(ev.group_win_counts.sum(axis=0).reshape(8, 8), want,
                           rtol=1e-13, atol=0)

    def test_first_row_above_the_limit_is_named(self):
        t = rw.from_rank_matrix([[1, 2, 3], [1, 1, 2], [2, 1, 1], [1, 1, 1]], list("abc"))
        with pytest.raises(DataError, match="row 1 has a tie of order 2, above the limit 1"):
            EventSet(t, 1)
        with pytest.raises(DataError, match="row 3 has a tie of order 3, above the limit 2"):
            EventSet(t.with_weights([1.0, 1.0, 1.0, 1.0]), 2)
        with pytest.raises(DataError, match="row 2 has a tie of order 2, above the limit 1"):
            EventSet(t.with_weights([1.0, 0.0, 1.0, 1.0]), 1)


class TestPseudoComparisons:
    """Pseudo-comparisons with the ghost item are closed-form engine events:
    exactly the events of the table augmented with pseudo-rankings."""

    @staticmethod
    def _groups(table):
        return np.arange(table.n_rows) % 4 + 1

    @pytest.mark.parametrize("c", [0.1, 0.5])
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("name", ["pudding", "abcd"])
    def test_equals_augmented_table(self, name, grouped, c, request):
        t = request.getfixturevalue(name)
        d = t.max_tie_order()
        aug = rw.augment_with_pseudo_rankings(t, c)
        j = t.n_items
        if grouped:
            # the pseudo-rankings form one extra group of the augmented table
            gidx = self._groups(t)
            new = EventSet(t, d, npseudo=c, group_index=gidx)
            old = EventSet(aug, d, group_index=np.concatenate(
                [gidx, np.full(2 * j, gidx.max() + 1)]))
        else:
            new = EventSet(t, d, npseudo=c)
            old = EventSet(aug, d)
        assert (new.n_items, new.n_params, new.n_events) == (old.n_items, old.n_params,
                                                             old.n_events)
        assert np.array_equal(new.w_total, old.w_data)
        assert np.array_equal(new.obs_total, old.obs_data)
        assert np.array_equal(new.slot_event, old.slot_event)
        assert np.array_equal(new.slot_item, old.slot_item)
        assert np.array_equal(new.noutcomes, old.noutcomes)
        # data events first, then one {i, ghost} pair per item in item order
        e = new.n_events - j
        assert np.array_equal(new.w_data[e:], np.zeros(j))
        assert np.array_equal(new.w_pseudo[:e], np.zeros(e))
        assert np.array_equal(new.w_pseudo[e:], np.full(j, 2 * c))
        assert new.ev_sizes[e:].tolist() == [2] * j
        assert np.array_equal(new.obs_pseudo[:j], np.full(j, c))
        assert new.obs_pseudo[j] == old.obs_data[j]
        assert not new.obs_pseudo[j + 1:].any()
        plain = EventSet(t, d)
        assert np.array_equal(new.w_data[:e], plain.w_data)
        assert np.array_equal(new.obs_data[:j], plain.obs_data[:j])
        assert np.array_equal(new.obs_data[j + 1:], plain.obs_data[j:])
        if grouped:
            g = gidx.max()
            assert np.array_equal(new.group_event_weights.toarray(),
                                  old.group_event_weights[:g].toarray())
            assert np.array_equal(new.group_obs, old.group_obs[:g])

    def test_zero_npseudo_adds_nothing(self, pudding):
        new, plain = EventSet(pudding, 2, npseudo=0.0), EventSet(pudding, 2)
        assert new.n_params == plain.n_params
        assert np.array_equal(new.w_data, plain.w_data)
        assert not new.w_pseudo.any() and not new.obs_pseudo.any()

    def test_negative_npseudo_rejected(self, abcd):
        with pytest.raises(DataError, match="non-negative"):
            EventSet(abcd, 1, npseudo=-0.5)


class TestEngineOracle:
    """Loglik, expected statistics and information of the ESP engine
    against the brute-force subset enumerator, ties of order up to 6."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), npseudo=st.sampled_from([0.0, 0.5]))
    def test_matches_brute_force(self, seed, npseudo):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(2, 8))
        d = int(rng.integers(1, min(j, 6) + 1))
        t = random_tied_table(rng, j, d)
        ev = EventSet(t, d, npseudo=npseudo)
        # outcomes are counted, never listed
        assert ev.noutcomes.tolist() == [len(list(admissible_subsets(a, d)))
                                         for a in event_alternatives(ev)]
        assert ev.n_subsets == ev.noutcomes.sum()
        p = random_params(rng, ev.n_items, d)
        theta = p.theta()
        # the pseudo-comparisons are rows of the table augmented with the ghost
        aug = rw.augment_with_pseudo_rankings(t, npseudo)
        ll = ev.loglik(theta, ev.w_total, ev.obs_total)
        assert ll == pytest.approx(brute_force_loglik(aug, p), rel=1e-12)
        obs, exp = brute_force_stats(aug, p)
        assert np.array_equal(ev.obs_total == 0, obs == 0)
        got = ev.expected(theta, ev.w_total)
        assert np.max(np.abs(got - exp)) <= 1e-12 * np.max(np.abs(exp))
        info = brute_force_information(aug, p)
        got = ev.information(theta, ev.w_total)
        assert np.max(np.abs(got - info)) <= 1e-12 * np.max(np.abs(info))

        # C columns give exactly the numbers of C 1-D calls
        thetas = theta[:, None] + rng.normal(0, 0.5, (theta.size, 3))
        weights = ev.w_total[:, None] * rng.uniform(0, 2, (ev.n_events, 3))
        obs = np.repeat(ev.obs_total[:, None], 3, axis=1)
        lls, exps = ev.loglik(thetas, weights, obs), ev.expected(thetas, weights)
        for c in range(3):
            col = thetas[:, c].copy(), weights[:, c].copy()
            assert lls[c] == ev.loglik(*col, obs[:, c].copy())
            assert np.array_equal(exps[:, c], ev.expected(*col))


class TestFusedEvaluation:
    """``expected(theta, w, obs)`` is exactly ``expected`` and ``loglik``, and
    the in-place ESP kernels are exactly the allocating recursions."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("npseudo", [0.0, 0.5])
    def test_fused_equals_separate_calls(self, seed, npseudo):
        rng = np.random.default_rng(seed)
        ev = EventSet(random_tied_table(rng, 7, 4), 4, npseudo=npseudo)
        theta = random_params(rng, ev.n_items, 4).theta()
        thetas = theta[:, None] + rng.normal(0, 0.5, (theta.size, 3))
        weights = ev.w_total[:, None] * rng.uniform(0, 2, (ev.n_events, 3))
        obs = ev.obs_total[:, None] * rng.uniform(0, 2, (ev.n_params, 3))
        for args in [(theta, ev.w_total, ev.obs_total),
                     (thetas[:, :1], weights[:, :1], obs[:, :1]),
                     (thetas, weights, obs)]:
            exp, ll = ev.expected(*args)
            assert np.array_equal(exp, ev.expected(*args[:2]))
            alone = ev.loglik(*args)
            assert type(ll) is type(alone) and np.array_equal(ll, alone)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("trailing", [(6,), (6, 3)])
    def test_in_place_kernels_equal_oracle(self, order, trailing):
        rng = np.random.default_rng(order)
        x = rng.normal(0, 2, (5,) + trailing)
        x[rng.random(x.shape) < 0.2] = -np.inf     # zeros among the worths
        x[3:, 1] = x[1:, 4] = -np.inf              # padded columns
        z = np.exp(x / order)
        pre = _esp_prefixes(z, order)
        assert np.array_equal(pre, esp_prefixes_oracle(z, order))
        loo = leave_one_out_oracle(z, order)
        assert np.array_equal(_leave_one_out(z, order), loo)
        assert np.array_equal(_leave_one_out(z, order, _esp_prefixes(z, order + 1)), loo)


class TestLeaveTwoOut:
    def test_downdating_matches_direct_recomputation(self):
        # padded worths of events of 2-12 items, the largest 1 as the engine
        # shifts them, the rest spread over 1e-150..1 (below 1e-3 in every
        # other event, under one dominant entry).  With z <= 1 the normalizer
        # is at least 1, so an error in an ESP T moves a pair's chance of
        # joint choice, delta_k z_a z_b T / normalizer, by at most delta_k times it
        rng = np.random.default_rng(5)
        widths = rng.integers(2, 13, 60)
        z = np.zeros((12, widths.size))
        for e, m in enumerate(widths):
            z[:m, e] = 10.0 ** rng.uniform(-150, 0 if e % 2 == 0 else -3, m)
            z[rng.integers(m), e] = 1.0
        for order in range(6):
            loo = [_leave_one_out(z, r) for r in range(1, order + 1)]
            for e, m in enumerate(widths):
                for a, b in itertools.permutations(range(m), 2):
                    got = _leave_two_out([x[a, e] for x in loo], z[b, e])
                    want = esp_prefixes_oracle(np.delete(z[:m, e], [a, b]), order)[-1, order]
                    assert abs(got - want) <= 1e-13


class TestEvaluationMemo:
    """The evaluation kept for the last theta is reused only for an exactly
    equal theta, so every call gives the numbers of a fresh structure."""

    @staticmethod
    def _setup(seed=3):
        rng = np.random.default_rng(seed)
        t = random_tied_table(rng, 7, 4)
        d = t.max_tie_order()
        theta = random_params(rng, 7, d).theta()
        return t, d, theta

    @staticmethod
    def _same_as_fresh(ev, fresh, theta):
        w, obs = ev.w_total, ev.obs_total
        assert np.array_equal(ev.expected(theta, w), fresh.expected(theta, w))
        assert ev.loglik(theta, w, obs) == fresh.loglik(theta, w, obs)
        assert np.array_equal(ev.information(theta, w), fresh.information(theta, w))

    def test_one_ulp_away_is_evaluated_afresh(self):
        t, d, theta = self._setup()
        ev = EventSet(t, d)
        ev.expected(theta, ev.w_total)
        for k in range(theta.size):
            near = theta.copy()
            near[k] = np.nextafter(near[k], np.inf)
            self._same_as_fresh(ev, EventSet(t, d), near)
            ev.expected(theta, ev.w_total)

    def test_theta_changed_in_place_is_evaluated_afresh(self):
        t, d, theta = self._setup()
        ev = EventSet(t, d)
        ev.expected(theta, ev.w_total)
        theta[1] += 0.25
        self._same_as_fresh(ev, EventSet(t, d), theta)

    def test_group_view_equals_fresh_build(self):
        t, d, theta = self._setup()
        groups = np.arange(t.n_rows) % 2 + 1
        ev = EventSet(t, d, group_index=groups)
        ev.expected(theta, ev.w_total)
        mask = np.array([True, False])
        fresh = EventSet(t, d, group_index=groups).for_groups(mask)
        self._same_as_fresh(ev.for_groups(mask), fresh, theta)
        assert np.array_equal(ev.group_scores(theta),
                              EventSet(t, d, group_index=groups).group_scores(theta))

    def test_columns_equal_one_dimensional_calls(self):
        t, d, theta = self._setup()
        ev = EventSet(t, d, npseudo=0.5)
        rng = np.random.default_rng(4)
        thetas = np.append(theta, 0.0)[:, None] + rng.normal(0, 0.5, (ev.n_params, 3))
        weights = ev.w_total[:, None] * rng.uniform(0, 2, (ev.n_events, 3))
        obs = np.repeat(ev.obs_total[:, None], 3, axis=1)
        exps = ev.expected(thetas, weights)
        lls = ev.loglik(thetas, weights, obs)
        assert np.array_equal(ev.expected(thetas, weights), exps)
        for c in range(3):
            # loglik alone, then from the evaluation that expected keeps
            col = thetas[:, c].copy(), weights[:, c].copy()
            assert ev.loglik(*col, obs[:, c].copy()) == lls[c]
            assert np.array_equal(ev.expected(*col), exps[:, c])
            assert ev.loglik(*col, obs[:, c].copy()) == lls[c]
            assert np.array_equal(ev.expected(thetas[:, [c]], weights[:, [c]])[:, 0], exps[:, c])
