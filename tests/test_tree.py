"""Partitioning trees: score contributions, fluctuation tests, split
search, growth invariants, prediction, and serialization."""

import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chi2

import rankworth as rw
from rankworth.errors import DataError
from rankworth.tree import suplm_pvalue
from tests.conftest import sample_ranking_row


def quiet(call, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return call(*args, **kw)


def make_grouped(rng, n_groups, log_worth_fn, rankings_per_group=2, n_items=4):
    rows, gidx = [], []
    for g in range(n_groups):
        lw = log_worth_fn(g)
        for _ in range(rankings_per_group):
            rows.append(sample_ranking_row(lw, rng))
            gidx.append(g + 1)
    table = rw.from_rank_matrix(np.array(rows), [f"i{k}" for k in range(n_items)])
    return rw.group_rankings(table, gidx)


@pytest.fixture(scope="module")
def planted():
    """500 groups, threshold at x = 0.5, strong worth flip."""
    rng = np.random.default_rng(101)
    x = rng.uniform(0, 1, 500)
    w_lo = np.array([0.0, 1.2, 0.0, -1.2])
    w_hi = np.array([0.0, -1.2, 0.0, 1.2])
    grouped = make_grouped(rng, 500, lambda g: w_lo if x[g] <= 0.5 else w_hi)
    covs = rw.CovariateFrame.from_dict(
        {"x": x, "noise": rng.uniform(0, 1, 500)})
    return grouped, covs, x


class TestScoreContributions:
    def test_columns_sum_to_zero_at_mle(self, planted):
        grouped, _, _ = planted
        pooled = quiet(rw.fit, grouped.rankings, npseudo=0, tol=1e-10)
        scores = rw.score_contributions(grouped, pooled)
        assert scores.shape == (500, 3)
        assert np.max(np.abs(scores.sum(axis=0))) < 1e-6

    def test_single_group_is_full_gradient(self):
        rng = np.random.default_rng(102)
        grouped = make_grouped(rng, 1, lambda g: np.zeros(4),
                               rankings_per_group=12)
        pooled = quiet(rw.fit, grouped.rankings, npseudo=0, tol=1e-10)
        scores = rw.score_contributions(grouped, pooled)
        assert scores.shape[0] == 1
        assert np.max(np.abs(scores[0])) < 1e-6

    def test_planted_groups_separate_by_sign(self, planted):
        grouped, _, x = planted
        pooled = quiet(rw.fit, grouped.rankings, npseudo=0, tol=1e-8)
        scores = rw.score_contributions(grouped, pooled)
        # column 0 is the contrast for the item favoured below threshold
        lo = scores[x <= 0.5, 0].mean()
        hi = scores[x > 0.5, 0].mean()
        assert lo > 0 > hi

    def test_fit_of_other_items_refused(self, planted):
        grouped, _, _ = planted
        table = grouped.rankings
        renamed = rw.RankingsTable(("w", "x", "y", "z"), table.ranks, table.weights,
                                   table.na_mask)
        wider = rw.from_rank_matrix(np.c_[table.ranks, np.zeros(table.n_rows, int)],
                                    table.items + ("extra",))
        for other in (renamed, wider):
            pooled = quiet(rw.fit, other)
            with pytest.raises(DataError, match="other items"):
                rw.score_contributions(grouped, pooled)


class TestSupLMPValue:
    def test_matches_tabulated_critical_value(self):
        # one dimension, symmetric 15% trimming: the 5% critical value of
        # the supremum statistic is 8.85 (Andrews 1993, Table 1)
        p = suplm_pvalue(8.85, 1, 0.15, 0.85)
        assert p == pytest.approx(0.05, abs=0.003)

    def test_monotone_in_statistic(self):
        ps = [suplm_pvalue(x, 3) for x in (5.0, 10.0, 15.0, 25.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_extremes(self):
        assert suplm_pvalue(0.0, 2) == 1.0
        assert suplm_pvalue(200.0, 2) < 1e-30


class TestInstabilityTest:
    def test_constant_covariate(self):
        rng = np.random.default_rng(103)
        scores = rng.normal(size=(60, 3))
        cov = rw.Covariate("c", tuple([1.0] * 60), "numeric")
        stat, p = rw.instability_test(scores, cov)
        assert (stat, p) == (0.0, 1.0)

    def test_null_rejection_rate_numeric(self):
        rng = np.random.default_rng(104)
        n_sims, rejections = 300, 0
        for _ in range(n_sims):
            grouped = make_grouped(rng, 120, lambda g: np.zeros(4),
                                   rankings_per_group=1)
            pooled = quiet(rw.fit, grouped.rankings, npseudo=0, tol=1e-7)
            scores = rw.score_contributions(grouped, pooled)
            cov = rw.Covariate("x", tuple(rng.uniform(0, 1, 120)), "numeric")
            _, p = rw.instability_test(scores, cov)
            rejections += p < 0.05
        assert 0.02 <= rejections / n_sims <= 0.08

    def test_null_rejection_rate_categorical(self):
        rng = np.random.default_rng(105)
        n_sims, rejections = 300, 0
        for _ in range(n_sims):
            grouped = make_grouped(rng, 120, lambda g: np.zeros(4),
                                   rankings_per_group=1)
            pooled = quiet(rw.fit, grouped.rankings, npseudo=0, tol=1e-7)
            scores = rw.score_contributions(grouped, pooled)
            cov = rw.Covariate("c", tuple(rng.choice(["a", "b", "c"], 120)),
                               "categorical")
            _, p = rw.instability_test(scores, cov)
            rejections += p < 0.05
        assert 0.02 <= rejections / n_sims <= 0.09

    def test_detects_planted_break(self, planted):
        grouped, covs, _ = planted
        pooled = quiet(rw.fit, grouped.rankings)
        scores = rw.score_contributions(grouped, pooled)
        _, p_x = rw.instability_test(scores, covs["x"])
        _, p_noise = rw.instability_test(scores, covs["noise"])
        assert p_x < 1e-10
        assert p_noise > p_x

    def test_categorical_p_is_the_chi2_tail_exactly(self):
        rng = np.random.default_rng(106)
        for df in range(1, 61):     # df = dim * (levels - 1), at most 12 levels
            n_levels = 1 + max(k for k in range(1, 12) if df % k == 0)
            dim = df // (n_levels - 1)
            cov = rw.Covariate("c", tuple(f"l{k % n_levels}" for k in range(120)),
                               "categorical")
            first_level = (np.arange(120) % n_levels == 0)[:, None]
            for shift in (0.0, 1.0):      # the bulk and the far tail
                scores = rng.normal(size=(120, dim)) + shift * first_level
                stat, p = rw.instability_test(scores, cov)
                assert p == chi2.sf(stat, df)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rw.instability_test(np.zeros((10, 2)),
                                rw.Covariate("x", tuple(range(5)), "numeric"))


class TestBestSplit:
    def test_two_groups_unique_cutpoint(self):
        rng = np.random.default_rng(106)
        grouped = make_grouped(rng, 2, lambda g: np.zeros(4),
                               rankings_per_group=6)
        cov = rw.Covariate("x", (1.0, 3.0), "numeric")
        config = rw.TreeConfig(minsize=1, maxdepth=2)
        found = quiet(rw.best_split, grouped, cov, config)
        assert found is not None
        split, _ = found
        assert split.threshold == pytest.approx(2.0)

    def test_planted_threshold_recovered(self, planted):
        grouped, covs, x = planted
        config = rw.TreeConfig(minsize=25, maxdepth=3)
        found = quiet(rw.best_split, grouped, covs["x"], config)
        split, _ = found
        below = x[x <= 0.5].max()
        above = x[x > 0.5].min()
        assert below <= split.threshold <= above

    def test_categorical_split(self):
        rng = np.random.default_rng(107)
        labels = np.array(["a", "b", "c", "d"])[rng.integers(0, 4, 120)]
        w_map = {"a": 1.0, "b": 1.0, "c": -1.0, "d": -1.0}
        grouped = make_grouped(
            rng, 120,
            lambda g: np.array([0.0, w_map[labels[g]], 0.0, -w_map[labels[g]]]))
        cov = rw.Covariate("lab", tuple(labels), "categorical")
        config = rw.TreeConfig(minsize=10, maxdepth=2)
        found = quiet(rw.best_split, grouped, cov, config)
        split, _ = found
        assert split.left_levels in (frozenset("ab"), frozenset("cd"))

    def test_ordinal_contiguous_only(self):
        rng = np.random.default_rng(108)
        labels = np.array(["lo", "mid", "hi"])[rng.integers(0, 3, 90)]
        grouped = make_grouped(rng, 90, lambda g: np.zeros(4))
        cov = rw.Covariate("o", tuple(labels), "ordinal")
        config = rw.TreeConfig(minsize=5, maxdepth=2)
        found = quiet(rw.best_split, grouped, cov, config)
        split, _ = found
        # ordered levels sort as hi < lo < mid; contiguous prefixes only
        assert split.left_levels in (frozenset({"hi"}), frozenset({"hi", "lo"}))

    def test_numeric_ordinal_levels_split_in_numeric_order(self):
        from rankworth.tree import _candidates

        values = ("10", "1", "2", "2", "10", "1")
        cov = rw.Covariate("o", values, "ordinal")
        assert cov.levels() == ["1", "2", "10"]
        assert rw.Covariate("c", values, "categorical").levels() == ["1", "10", "2"]
        stats = sp.csr_matrix(np.ones((len(values), 1)))
        splits, child_sums = _candidates(cov, 1, stats)
        assert [s.left_levels for s in splits] == [frozenset({"1"}), frozenset({"1", "2"})]
        left, right = child_sums(np.arange(2))
        assert left[:, 0].tolist() == [2.0, 4.0] and right[:, 0].tolist() == [4.0, 2.0]

    def test_split_choice_free_of_weight_scale(self):
        # 40 groups of 3 strict rankings, a weak effect of x, npseudo = 0:
        # candidates whose objectives differ by less than an absolute 1e-12
        # at weights x 1e-12 must still be told apart
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 40)
        weak = np.array([0.0, 0.3, 0.0, -0.3])
        grouped = make_grouped(rng, 40, lambda g: weak if x[g] <= 0.5 else -weak,
                               rankings_per_group=3)
        table = grouped.rankings
        cov = rw.Covariate("x", tuple(x), "numeric")
        config = rw.TreeConfig(minsize=5, fit_config=rw.FitConfig(npseudo=0))
        split, _ = quiet(rw.best_split, grouped, cov, config)
        tiny = rw.group_rankings(table.with_weights(table.weights * 1e-12),
                                 grouped.group_index)
        tiny_split, _ = quiet(rw.best_split, tiny, cov, config)
        assert tiny_split.threshold == split.threshold

    def test_no_usable_rankings_refused(self):
        rng = np.random.default_rng(110)
        grouped = make_grouped(rng, 4, lambda g: np.zeros(4))
        table = grouped.rankings
        cov = rw.Covariate("x", (1.0, 2.0, 3.0, 4.0), "numeric")
        config = rw.TreeConfig(minsize=1, maxdepth=2)
        for empty in (table.with_weights(np.zeros(table.n_rows)),
                      rw.RankingsTable(table.items, table.ranks, table.weights,
                                       np.ones(table.n_rows, dtype=bool))):
            with pytest.raises(DataError, match="no usable rankings"):
                rw.best_split(rw.group_rankings(empty, grouped.group_index), cov, config)

    def test_no_admissible_split(self):
        rng = np.random.default_rng(109)
        grouped = make_grouped(rng, 4, lambda g: np.zeros(4))
        cov = rw.Covariate("x", (1.0, 2.0, 3.0, 4.0), "numeric")
        config = rw.TreeConfig(minsize=3, maxdepth=2)
        assert quiet(rw.best_split, grouped, cov, config) is None


def child_loglik_oracle(grouped, left_groups, npseudo):
    """Sum of the two children's data log-likelihoods, each child fitted on
    its own sub-table by ``fit``."""
    total = 0.0
    for side in (left_groups, ~left_groups):
        rows = side[grouped.group_index - 1]
        t = grouped.rankings
        sub = rw.RankingsTable(t.items, t.ranks[rows], t.weights[rows], t.na_mask[rows])
        total += quiet(rw.fit, sub, npseudo=npseudo).log_likelihood
    return total


class TestBatchedSplitOracle:
    """Every candidate child refitted independently with ``fit`` agrees
    with the batched search at its choice, and none beats it."""

    @pytest.fixture(scope="class")
    def design(self):
        rng = np.random.default_rng(112)
        x = np.round(rng.uniform(0, 1, 40), 2)
        labels = np.array(["a", "b", "c", "d"])[rng.integers(0, 4, 40)]
        grouped = make_grouped(
            rng, 40, lambda g: np.array([0.0, 1.0, 0.0, -1.0]) * (1 if x[g] <= 0.5 else -1))
        covs = rw.CovariateFrame.from_dict({"x": x, "lab": labels})
        return grouped, covs

    @pytest.mark.parametrize("name", ["x", "lab"])
    def test_objective_matches_independent_fits(self, design, name):
        grouped, covs = design
        config = rw.TreeConfig(minsize=5)
        cov = covs[name]
        values = np.array(cov.values, dtype=object)
        if cov.kind == "numeric":
            xs = np.unique(np.array(cov.values))
            cands = [(rw.Split(name, "numeric", threshold=0.5 * (a + b)),
                      np.array(cov.values) <= 0.5 * (a + b))
                     for a, b in zip(xs[:-1], xs[1:])]
        else:
            levels = cov.levels()
            cands = []
            for r in range(len(levels) - 1):
                for extra in itertools.combinations(levels[1:], r):
                    left = frozenset({levels[0], *extra})
                    cands.append((rw.Split(name, cov.kind, left_levels=left,
                                           right_levels=frozenset(levels) - left),
                                  np.isin(values, list(left))))
        oracle = {split: child_loglik_oracle(grouped, mask, config.fit_config.npseudo)
                  for split, mask in cands
                  if config.minsize <= mask.sum() <= len(mask) - config.minsize}
        assert len(oracle) >= 7
        split, objective = quiet(rw.best_split, grouped, cov, config)
        tol = config.fit_config.tol * abs(objective)
        assert objective == pytest.approx(oracle[split], abs=tol)
        assert max(oracle.values()) <= objective + tol


class TestInadmissibleCandidates:
    def test_child_without_wins_is_skipped(self):
        # 60 groups x 2 strict rankings at npseudo = 0: some 3-group
        # children leave an item without a win, which used to abort the tree
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 60)
        w_lo = np.array([0.0, 1.5, 0.0, -1.5])
        grouped = make_grouped(rng, 60, lambda g: w_lo if x[g] <= 0.5 else -w_lo)
        covs = rw.CovariateFrame.from_dict({"x": x})
        fit_config = rw.FitConfig(npseudo=0)
        tree = quiet(rw.grow_tree, grouped, covs, minsize=3, maxdepth=3,
                     fit_config=fit_config)
        root = tree.root
        assert root.n_inadmissible > 0
        assert root.split is not None and root.split.covariate == "x"
        assert x[x <= 0.5].max() <= root.split.threshold <= x[x > 0.5].min()
        tally = {}
        found = quiet(rw.best_split, grouped, covs["x"],
                      rw.TreeConfig(minsize=3, fit_config=fit_config), tally=tally)
        assert found[0].threshold == root.split.threshold
        assert tally["inadmissible"] == root.n_inadmissible

    def test_disconnected_child_stops_with_reason(self):
        # each side alone ranks {a, b} above {c, d}; only the pooled data
        # connects the network, so the pure split has unfittable children
        side = {0: [[1, 2, 3, 4], [2, 1, 4, 3]], 1: [[3, 4, 1, 2], [4, 3, 2, 1]]}
        rows, gidx = [], []
        for g in range(40):
            for row in side[g % 2]:
                rows.append(row)
                gidx.append(g + 1)
        table = rw.from_rank_matrix(np.array(rows), list("abcd"))
        grouped = rw.group_rankings(table, gidx)
        covs = rw.CovariateFrame.from_dict({"x": [g % 2 for g in range(40)]})
        tree = quiet(rw.grow_tree, grouped, covs, minsize=5,
                     fit_config=rw.FitConfig(npseudo=0))
        root = tree.root
        assert root.is_leaf
        assert root.n_inadmissible == 0
        assert "x <= 0.5 cannot be fitted" in root.stop_reason
        assert "not fully connected" in root.stop_reason


class TestGrowTree:
    def test_alpha_zero_single_leaf(self, planted):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3,
                     alpha=0.0)
        assert tree.n_leaves() == 1
        assert tree.root.is_leaf

    def test_planted_split_found(self, planted):
        grouped, covs, x = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=2)
        assert tree.root.split is not None
        assert tree.root.split.covariate == "x"
        assert abs(tree.root.split.threshold - 0.5) < 0.05

    def test_homogeneous_usually_single_leaf(self):
        rng = np.random.default_rng(110)
        single_leaf = 0
        for _ in range(20):
            grouped = make_grouped(rng, 100, lambda g: np.zeros(4),
                                   rankings_per_group=1)
            covs = rw.CovariateFrame.from_dict({"x": rng.uniform(0, 1, 100)})
            tree = quiet(rw.grow_tree, grouped, covs, minsize=10, maxdepth=3)
            single_leaf += tree.n_leaves() == 1
        assert single_leaf >= 16

    def test_structure_invariants(self, planted):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        leaves = tree.leaves()
        all_groups = np.concatenate([leaf.group_ids for leaf in leaves])
        assert sorted(all_groups.tolist()) == list(range(1, 501))
        for leaf in leaves:
            assert leaf.n_groups >= 25
            assert leaf.depth <= 3

    def test_tree_never_fits_worse_than_pooled(self, planted):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        pooled = quiet(rw.fit, grouped.rankings)
        if tree.n_leaves() > 1:
            assert tree.objective() <= -pooled.log_likelihood + 1e-8

    def test_determinism(self, planted):
        grouped, covs, _ = planted
        t1 = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        t2 = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        assert t1.format() == t2.format()
        for a, b in zip(t1.leaves(), t2.leaves()):
            assert np.array_equal(a.fit_result.params.theta(),
                                  b.fit_result.params.theta())


@pytest.fixture(scope="module")
def tied():
    """60 groups x 4 rankings of 5 items with a worth flip at x = 0.5;
    only groups with x <= 0.5 have 3-way ties, so the right leaf of the
    split lacks the tree's top tie order."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 60)
    lw = np.array([0.0, 1.0, 0.5, -0.5, -1.0])
    rows, gidx = [], []
    for g in range(60):
        low = x[g] <= 0.5
        for _ in range(4):
            sizes = ([3, 1, 1] if low and rng.random() < 0.3 else
                     [2, 1, 1, 1] if rng.random() < 0.3 else None)
            rows.append(sample_ranking_row(lw if low else -lw, rng, tie_sizes=sizes))
            gidx.append(g + 1)
    table = rw.from_rank_matrix(np.array(rows), list("abcde"))
    return rw.group_rankings(table, gidx), rw.CovariateFrame.from_dict({"x": x})


def node_table(grouped, node):
    rows = np.isin(grouped.group_index, node.group_ids)
    t = grouped.rankings
    return rw.RankingsTable(t.items, t.ranks[rows], t.weights[rows], t.na_mask[rows])


class TestOneCompilePerTree:
    """Every node of a tree is a group mask on the root's one event
    structure; its fit is that of ``fit`` on the node's own rows."""

    @pytest.mark.parametrize("design", ["planted", "tied"])
    @pytest.mark.parametrize("npseudo", [0.0, 0.5])
    def test_node_fits_match_fit_on_node_rows(self, design, npseudo, request):
        grouped, covs = request.getfixturevalue(design)[:2]
        fit_config = rw.FitConfig(npseudo=npseudo)
        tree = quiet(rw.grow_tree, grouped, covs, minsize=10, maxdepth=2,
                     fit_config=fit_config)
        leaves = tree.leaves()
        assert len(leaves) == 2
        tol = 100 * fit_config.tol
        for node in [tree.root, *leaves]:
            got = node.fit_result
            want = quiet(rw.fit, node_table(grouped, node), fit_config)
            assert got.converged and want.converged
            j = got.n_real_items
            assert np.allclose(got.coef()[1][:j], want.coef()[1][:j], rtol=0, atol=tol)
            # the tree's tie order: orders the node lacks sit at the floor
            d = want.max_tie_order - 1
            assert np.allclose(got.params.log_tie[:d], want.params.log_tie, rtol=0, atol=tol)
            assert (got.params.log_tie[d:] == -500.0).all()
            assert got.log_likelihood == pytest.approx(
                want.log_likelihood, abs=tol * abs(want.log_likelihood))
        if design == "tied":
            assert sorted(leaf.fit_result.max_tie_order for leaf in leaves) == [3, 3]
            assert sorted(node_table(grouped, leaf).max_tie_order() for leaf in leaves) == [2, 3]

    def test_one_event_structure_per_tree(self, planted, monkeypatch):
        grouped, covs, _ = planted
        calls = []
        init = rw.EventSet.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(rw.EventSet, "__init__", counting_init)
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        assert tree.n_leaves() >= 2
        assert len(calls) == 1

    @pytest.mark.parametrize("design", ["planted", "tied"])
    def test_split_does_not_depend_on_the_block_size(self, design, request, monkeypatch):
        # candidates are solved a block of columns at a time, blocks sized by
        # the engine's cells; a column gives exactly the numbers of a 1-D solve
        grouped, covs = request.getfixturevalue(design)[:2]
        config = rw.TreeConfig(minsize=10)
        want = quiet(rw.best_split, grouped, covs["x"], config)
        assert want is not None
        for cells in (1, 1 << 30):
            monkeypatch.setattr("rankworth.tree._BLOCK_CELLS", cells)
            assert quiet(rw.best_split, grouped, covs["x"], config) == want

    def test_leaf_summaries_have_item_errors(self, tied):
        grouped, covs = tied
        tree = quiet(rw.grow_tree, grouped, covs, minsize=10, maxdepth=2)
        for leaf in tree.leaves():
            s = rw.summarize(leaf.fit_result)
            j = leaf.fit_result.n_real_items
            assert np.isfinite(s.std_errors[1:j]).all() and (s.std_errors[1:j] > 0).all()
            # a tie order the leaf lacks is held at the floor, without an SE
            floored = leaf.fit_result.params.log_tie == -500.0
            assert np.isnan(s.std_errors[j:][floored]).all()
            assert np.isfinite(s.std_errors[j:][~floored]).all()


class TestPredictNode:
    def test_single_leaf_routes_everywhere(self, planted):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3,
                     alpha=0.0)
        nid, worths = rw.predict_node(tree, {"x": 0.3, "noise": 0.1})
        assert nid == tree.root.node_id
        assert worths.sum() == pytest.approx(1.0)

    def test_routing_reproduces_leaf_counts(self, planted):
        grouped, covs, x = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        counts = {leaf.node_id: 0 for leaf in tree.leaves()}
        noise = covs["noise"].values
        for g in range(500):
            nid, _ = rw.predict_node(tree, {"x": x[g], "noise": noise[g]})
            counts[nid] += 1
        for leaf in tree.leaves():
            assert counts[leaf.node_id] == leaf.n_groups

    def test_missing_covariate(self, planted):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=2)
        with pytest.raises(DataError, match="required"):
            rw.predict_node(tree, {"noise": 0.5})

    def test_unseen_category(self):
        rng = np.random.default_rng(111)
        labels = np.array(["a", "b"])[rng.integers(0, 2, 120)]
        w_map = {"a": 1.5, "b": -1.5}
        grouped = make_grouped(
            rng, 120, lambda g: np.array([0.0, w_map[labels[g]], 0.0, 0.0]))
        covs = rw.CovariateFrame.from_dict({"lab": labels})
        tree = quiet(rw.grow_tree, grouped, covs, minsize=10, maxdepth=2)
        assert tree.root.split is not None
        with pytest.raises(DataError, match="unseen category"):
            rw.predict_node(tree, {"lab": "z"})


class TestSerialization:
    def test_round_trip(self, planted, tmp_path):
        grouped, covs, x = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=3)
        path = tmp_path / "tree.json"
        rw.write_model_json(tree, path)
        loaded = rw.read_model_json(path)
        assert loaded.n_leaves() == tree.n_leaves()
        for a, b in zip(tree.leaves(), loaded.leaves()):
            assert isinstance(b.fit_result, rw.ModelFit)
            assert np.array_equal(a.fit_result.params.log_worth,
                                  b.fit_result.params.log_worth)
        again = tmp_path / "tree_again.json"
        rw.write_model_json(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        nid1, w1 = rw.predict_node(tree, {"x": 0.2, "noise": 0.0})
        nid2, w2 = rw.predict_node(loaded, {"x": 0.2, "noise": 0.0})
        assert nid1 == nid2
        assert np.allclose(w1, w2)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["root"].pop("left"), "node 1 has no 'left'"),
        (lambda d: d["root"]["split"].update(kind="spline"), "kind 'spline'"),
        (lambda d: d["root"]["split"].update(threshold=None), "'threshold' has the wrong type"),
        (lambda d: d["root"]["left"]["fit"]["items"].reverse(), "other items than the tree"),
        (lambda d: d["root"]["right"]["fit"]["log_worth"].pop(),
         "node 3 fit has 4 log-worths for 4 items and the ghost"),
        (lambda d: d.update(minsize="25"), "'minsize' has the wrong type"),
    ])
    def test_malformed_tree_rejected(self, planted, tmp_path, edit, match):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=2)
        path = tmp_path / "tree.json"
        rw.write_model_json(tree, path)
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))
        with pytest.raises(DataError, match=match):
            rw.read_model_json(path)

    def test_single_leaf_round_trip(self, planted, tmp_path):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, alpha=0.0, minsize=25)
        path = tmp_path / "leaf.json"
        rw.write_model_json(tree, path)
        loaded = rw.read_model_json(path)
        assert loaded.root.is_leaf

    def test_plot_csv(self, planted, tmp_path):
        grouped, covs, _ = planted
        tree = quiet(rw.grow_tree, grouped, covs, minsize=25, maxdepth=2)
        path = tmp_path / "plot.csv"
        rw.write_tree_plot_csv(tree, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node_id,n_groups,item,log_worth,worth"
        assert len(lines) == 1 + 4 * tree.n_leaves()
