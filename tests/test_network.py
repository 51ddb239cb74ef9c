"""Win/loss network: adjacency counts, connectivity, pseudo-rankings."""

import sys
import warnings

import numpy as np
import pytest

import rankworth as rw
from rankworth.errors import DataError, ModelError
from rankworth.network import GHOST_ITEM


class TestAdjacency:
    def test_toy_matrix(self, abcd):
        adj = rw.adjacency(abcd)
        expected = np.array([
            [0, 1, 0, 1],
            [1, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ])
        assert np.array_equal(adj.counts, expected)

    def test_tie_adds_no_edges(self):
        t = rw.from_orderings([[("A", "B")]], ["A", "B"])
        adj = rw.adjacency(t)
        assert not adj.counts.any()

    def test_tied_middle_row_pairs(self):
        # A > {B = C} > D implies: A beats B, C, D; B and C each beat D
        t = rw.from_rank_matrix([[1, 2, 2, 3]], list("ABCD"))
        adj = rw.adjacency(t)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[0, 2] = expected[0, 3] = 1
        expected[1, 3] = expected[2, 3] = 1
        assert np.array_equal(adj.counts, expected)

    def test_additive_in_rows(self, abcd):
        half1 = rw.RankingsTable(abcd.items, abcd.ranks[:3], abcd.weights[:3],
                                 abcd.na_mask[:3])
        half2 = rw.RankingsTable(abcd.items, abcd.ranks[3:], abcd.weights[3:],
                                 abcd.na_mask[3:])
        total = rw.adjacency(half1).counts + rw.adjacency(half2).counts
        assert np.array_equal(total, rw.adjacency(abcd).counts)

    def test_weight_scaling(self, abcd):
        scaled = abcd.with_weights(abcd.weights * 3.5)
        adj1 = rw.adjacency(abcd)
        adj2 = rw.adjacency(scaled)
        assert np.allclose(adj2.counts, 3.5 * adj1.counts)
        r1, r2 = rw.connectivity(adj1), rw.connectivity(adj2)
        assert r1 == r2


class TestConnectivity:
    def test_toy_report(self, abcd):
        rep = rw.connectivity(rw.adjacency(abcd))
        assert rep.membership == (1, 1, 1, 2)
        assert rep.csize == (3, 1)
        assert rep.no == 2
        assert not rep.strongly_connected

    def test_round_robin_connected(self):
        t = rw.from_rank_matrix(
            [[1, 2, 0], [2, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1]],
            list("abc"))
        rep = rw.connectivity(rw.adjacency(t))
        assert rep.no == 1
        assert rep.strongly_connected

    @staticmethod
    def graphs():
        """The empty graph, random graphs of 2-8 and of up to 64 items, and
        directed paths and cycles (shuffled), whose closures need the most
        squarings."""
        yield np.zeros((0, 0))
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            yield (rng.random((n, n)) < rng.uniform(0.05, 0.4)) * 1.0
        for n in (16, 33, 64):
            for density in (0.5 / n, 1.0 / n, 2.0 / n, 0.1):
                yield (rng.random((n, n)) < density) * 1.0
            for closed in (False, True):
                order = rng.permutation(n)
                counts = np.zeros((n, n))
                counts[order[:-1], order[1:]] = 1.0
                counts[order[-1], order[0]] = float(closed)
                yield counts

    def test_matches_reachability_oracle(self):
        # i and j share a component iff each reaches the other; ids follow
        # each component's smallest item index
        for counts in self.graphs():
            n = len(counts)
            np.fill_diagonal(counts, 0.0)
            reach = np.eye(n, dtype=bool) | (counts > 0)
            for k in range(n):
                reach |= reach[:, [k]] & reach[[k], :]
            same = reach & reach.T
            membership, ids = [], {}
            for i in range(n):
                root = int(np.flatnonzero(same[i])[0])
                ids.setdefault(root, len(ids) + 1)
                membership.append(ids[root])
            items = tuple(f"i{k}" for k in range(n))
            rep = rw.connectivity(rw.AdjacencyMatrix(items, counts))
            assert rep.membership == tuple(membership)
            assert rep.csize == tuple(membership.count(c) for c in range(1, len(ids) + 1))
            assert rep.no == len(ids)

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-3, 1.0, 1e6, 1e12])
    def test_weight_scale_does_not_change_components(self, pudding, scale):
        base = rw.connectivity(rw.adjacency(pudding))
        scaled = rw.connectivity(rw.adjacency(pudding.with_weights(pudding.weights * scale)))
        assert scaled == base
        assert scaled.no == 1

    def test_tiny_two_cycle_is_one_component(self):
        # an edge is read from the sign of its weight, whatever its size
        for weight in (1e-8, 1e-300):
            counts = np.array([[0.0, weight], [weight, 0.0]])
            rep = rw.connectivity(rw.AdjacencyMatrix(("a", "b"), counts))
            assert rep.no == 1

    def test_two_clusters(self, disconnected):
        rep = rw.connectivity(rw.adjacency(disconnected))
        assert rep.no == 2
        assert rep.csize == (2, 2)
        assert rep.membership == (1, 1, 2, 2)


class TestPseudoRankings:
    def test_zero_is_identity(self, abcd):
        assert rw.augment_with_pseudo_rankings(abcd, 0.0) is abcd

    def test_toy_augmentation(self, abcd):
        aug = rw.augment_with_pseudo_rankings(abcd, 0.5)
        assert aug.n_rows == 5 + 8
        assert aug.n_items == 5
        assert aug.items[-1] == GHOST_ITEM
        assert np.all(aug.weights[5:] == 0.5)
        rep = rw.connectivity(rw.adjacency(aug))
        assert rep.no == 1

    def test_any_table_becomes_connected(self, disconnected):
        for c in (0.5, 0.1, 2.0):
            aug = rw.augment_with_pseudo_rankings(disconnected, c)
            assert rw.connectivity(rw.adjacency(aug)).no == 1

    def test_nascar_shape_counts(self):
        from rankworth.datasets import make_nascar_shape_table

        t = make_nascar_shape_table()
        aug = rw.augment_with_pseudo_rankings(t, 0.5)
        assert aug.n_rows == 36 + 2 * 87
        assert aug.n_items == 88

    def test_reserved_name_collision(self):
        t = rw.from_rank_matrix([[1, 2]], ["a", GHOST_ITEM])
        with pytest.raises(rw.DataError, match="reserved"):
            rw.augment_with_pseudo_rankings(t, 0.5)


class TestCsvExport(object):
    def test_adjacency_csv(self, abcd, tmp_path):
        adj = rw.adjacency(abcd)
        path = tmp_path / "adj.csv"
        adj.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "item,A,B,C,D"
        assert lines[1].startswith("A,0,1,0,1")


class TestNetworkFromCompiledCounts:
    """``fit`` and ``grow_tree`` read the win/loss network from the win
    counts of the compiled event structure; the table is read once."""

    @pytest.fixture
    def no_adjacency(self, monkeypatch):
        original = rw.network.adjacency

        def refuse(table):
            raise AssertionError("network.adjacency was called")

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "rankworth":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)

    @pytest.mark.parametrize("method", ["iterative_scaling", "quasi_newton"])
    def test_fit_at_npseudo_zero(self, pudding, disconnected, no_adjacency, method):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert rw.fit(pudding, npseudo=0, method=method).converged
            with pytest.raises(ModelError, match="not fully connected"):
                rw.fit(disconnected, npseudo=0, method=method)
            empty = rw.from_rank_matrix([[1, 0]], ["a", "b"])
        with pytest.raises(DataError, match="no usable rankings"):
            rw.fit(empty, npseudo=0, method=method)

    def test_tree_child_networks_at_npseudo_zero(self, no_adjacency):
        # each side alone ranks {a, b} above {c, d}: the split on x has
        # children whose networks, summed over their groups, are disconnected
        side = {0: [[1, 2, 3, 4], [2, 1, 4, 3]], 1: [[3, 4, 1, 2], [4, 3, 2, 1]]}
        rows = [row for g in range(40) for row in side[g % 2]]
        grouped = rw.group_rankings(rw.from_rank_matrix(np.array(rows), list("abcd")),
                                    np.repeat(np.arange(1, 41), 2))
        covs = rw.CovariateFrame.from_dict({"x": [g % 2 for g in range(40)]})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = rw.grow_tree(grouped, covs, minsize=5, fit_config=rw.FitConfig(npseudo=0))
        assert tree.root.is_leaf
        assert "x <= 0.5 cannot be fitted" in tree.root.stop_reason
        assert "not fully connected" in tree.root.stop_reason
