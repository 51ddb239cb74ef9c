"""Shared fixtures and oracle helpers."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import rankworth as rw
from rankworth.datasets import load_abcd, load_disconnected, load_pudding


@pytest.fixture(scope="session")
def abcd():
    return load_abcd()


@pytest.fixture(scope="session")
def abc(abcd):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rw.subset_items(abcd, ["A", "B", "C"])


@pytest.fixture(scope="session")
def disconnected():
    return load_disconnected()


@pytest.fixture(scope="session")
def pudding():
    return load_pudding()


@pytest.fixture(scope="session")
def pudding_fit7(pudding):
    """The historical 7-iteration fit used throughout the published output."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rw.fit(pudding, npseudo=0, maxit=7)


def dense_recode_row_oracle(row):
    """Close rank gaps in one row, preserving order and ties, level by level."""
    out = np.zeros_like(row)
    ranked = row > 0
    if not ranked.any():
        return out
    levels = np.unique(row[ranked])
    for new, old in enumerate(levels, start=1):
        out[row == old] = new
    return out


def max_tie_order_oracle(table):
    """Largest tie-group size over the non-NA rows of a table, row by row."""
    best = 1
    for i in range(table.n_rows):
        if table.na_mask[i]:
            continue
        ranked = table.ranks[i][table.ranks[i] > 0]
        if ranked.size:
            best = max(best, int(np.bincount(ranked).max()))
    return best


def sample_ranking_row(log_worth, rng, subset=None, tie_sizes=None):
    """Draw one (possibly partial, possibly tied) ranking row.

    Without ``tie_sizes`` this is a strict ranking via the Gumbel trick;
    with tie sizes the ordered items are grouped into blocks.
    """
    j = len(log_worth)
    items = np.arange(j) if subset is None else np.asarray(subset)
    g = rng.gumbel(size=len(items)) + np.asarray(log_worth)[items]
    order = items[np.argsort(-g)]
    row = np.zeros(j, dtype=np.int64)
    if tie_sizes is None:
        for pos, item in enumerate(order):
            row[item] = pos + 1
        return row
    pos = 0
    for level, size in enumerate(tie_sizes, start=1):
        for item in order[pos:pos + size]:
            row[item] = level
        pos += size
    assert pos == len(items)
    return row


def random_table(rng, n_items=4, n_rows=30, max_tie=2, partial=False):
    """Random rankings table guaranteed to contain every tie order up to
    ``max_tie`` and (almost surely) a strongly connected network."""
    log_worth = rng.normal(0, 0.8, n_items)
    rows = []
    for r in range(n_rows):
        subset = None
        if partial and n_items > 3 and rng.random() < 0.5:
            size = int(rng.integers(3, n_items + 1))
            subset = rng.choice(n_items, size=size, replace=False)
        m = n_items if subset is None else len(subset)
        sizes = []
        left = m
        while left:
            s = min(int(rng.integers(1, max_tie + 1)), left)
            sizes.append(s)
            left -= s
        rows.append(sample_ranking_row(log_worth, rng, subset, sizes))
    # make sure every tie order occurs at least once
    for k in range(2, max_tie + 1):
        row = np.zeros(n_items, dtype=np.int64)
        row[:k] = 1
        row[k:] = np.arange(2, n_items - k + 2)
        rows.append(row)
    # a full cycle both ways guarantees a strongly connected network
    rows.append(np.arange(1, n_items + 1))
    rows.append(np.arange(n_items, 0, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rw.from_rank_matrix(
            np.array(rows), [f"i{k}" for k in range(n_items)])


def random_params(rng, n_items, max_tie_order):
    lw = rng.normal(0, 1, n_items)
    lw -= lw.max()
    lt = rng.normal(-0.5, 0.5, max_tie_order - 1)
    return rw.Parameters(lw, lt)


def brute_force_strength(block, params):
    """f(S) = delta_|S| * (product of worths in S)^(1/|S|), plain arithmetic."""
    k = len(block)
    prod = 1.0
    for i in block:
        prod *= np.exp(params.log_worth[i])
    tie = 1.0 if k == 1 else np.exp(params.log_tie[k - 2])
    return tie * prod ** (1.0 / k)


def admissible_subsets(alts, max_tie_order):
    """Every subset S of ``alts`` with 1 <= |S| <= min(|A|, D)."""
    for k in range(1, min(len(alts), max_tie_order) + 1):
        yield from itertools.combinations(alts, k)


def brute_force_denominator(alts, params):
    """Independent subset enumerator for the stage normalizer."""
    return sum(brute_force_strength(s, params)
               for s in admissible_subsets(alts, params.max_tie_order))


def row_stages(row):
    """(chosen block, remaining alternatives) for each stage of a rank-code
    row, best first; a final stage with a single item is skipped."""
    row = np.asarray(row)
    blocks = [tuple(np.flatnonzero(row == lv)) for lv in sorted(set(row[row > 0]))]
    remaining = [i for block in blocks for i in block]
    pos = 0
    for block in blocks:
        alts = remaining[pos:]
        pos += len(block)
        if len(alts) < 2:
            break
        yield block, alts


def compile_oracle(table, max_tie_order, group_index=None):
    """Row-by-row compile of a table, stage by stage in row order.

    Returns the alternative sets of the events (sorted tuples, in order of
    first occurrence), their weights, the observed statistics and the win
    counts (every chosen item beats every remaining item not chosen), each
    summed in stage order.  With ``group_index`` it adds the per-group
    observed statistics and event weights; the latter are summed from the
    (group, event, weight) records by the engine's sparse constructor,
    whose order of summation is its own, so that the records and their
    order are what is compared.
    """
    j = table.n_items
    n_params = j + max_tie_order - 1
    n_groups = int(group_index.max()) if group_index is not None else 1
    events, w_data, records = {}, [], []
    obs = np.zeros(n_params)
    group_obs = np.zeros((n_groups, n_params))
    wins = np.zeros((j, j))
    for i in range(table.n_rows):
        wt = table.weights[i]
        if table.na_mask[i] or wt == 0:
            continue
        g = group_index[i] - 1 if group_index is not None else 0
        for block, alts in row_stages(table.ranks[i]):
            e = events.setdefault(tuple(sorted(alts)), len(events))
            if e == len(w_data):
                w_data.append(0.0)
            w_data[e] += wt
            records.append((g, e, wt))
            k = len(block)
            for acc in (obs, group_obs[g]):
                for c in block:
                    acc[c] += wt / k
                if k >= 2:
                    acc[j + k - 2] += wt
            for c in block:
                for loser in alts:
                    if loser not in block:
                        wins[c, loser] += wt
    out = {"events": list(events), "w_data": np.array(w_data), "obs_data": obs,
           "wins": wins}
    if group_index is not None:
        g, e, wt = (np.array(a) for a in zip(*records)) if records else ([], [], [])
        out["group_obs"] = group_obs
        out["group_event_weights"] = sp.csr_matrix(
            (wt, (g, e)), shape=(n_groups, len(events))).toarray()
    return out


def event_alternatives(ev):
    """The alternative set of every event of an :class:`EventSet`: the
    items of its slots."""
    alts = [[] for _ in range(ev.n_events)]
    for event, item in zip(ev.slot_event, ev.slot_item):
        alts[event].append(int(item))
    return [tuple(sorted(a)) for a in alts]


def brute_force_row_probability(row, params):
    """Stagewise probability computed with plain floating arithmetic."""
    prob = 1.0
    for block, alts in row_stages(row):
        prob *= brute_force_strength(block, params) / brute_force_denominator(alts, params)
    return prob


def brute_force_loglik(table, params):
    """Weighted sum of log row probabilities over the non-NA rows."""
    return sum(table.weights[i] * np.log(brute_force_row_probability(table.ranks[i], params))
               for i in range(table.n_rows) if not table.na_mask[i])


def brute_force_stats(table, params):
    """Observed and expected sufficient statistics (item credits, then
    tie counts): a chosen set S credits 1/|S| to each member and, for
    |S| >= 2, one |S|-way tie.  The expectation averages that credit over
    every admissible subset of every stage at its model probability."""
    j, d = params.n_items, params.max_tie_order
    obs, exp = np.zeros(j + d - 1), np.zeros(j + d - 1)

    def credit(out, block, amount):
        for i in block:
            out[i] += amount / len(block)
        if len(block) >= 2:
            out[j + len(block) - 2] += amount

    for r in range(table.n_rows):
        if table.na_mask[r]:
            continue
        w = table.weights[r]
        for block, alts in row_stages(table.ranks[r]):
            credit(obs, block, w)
            den = brute_force_denominator(alts, params)
            for s in admissible_subsets(alts, d):
                credit(exp, s, w * brute_force_strength(s, params) / den)
    return obs, exp


def brute_force_information(table, params):
    """Observed information: per stage, the weighted covariance of the
    credit vector over every admissible subset at its model probability."""
    j, d = params.n_items, params.max_tie_order
    info = np.zeros((j + d - 1, j + d - 1))
    for r in range(table.n_rows):
        if table.na_mask[r]:
            continue
        for _, alts in row_stages(table.ranks[r]):
            den = brute_force_denominator(alts, params)
            second, mean = np.zeros_like(info), np.zeros(j + d - 1)
            for s in admissible_subsets(alts, d):
                b = np.zeros(j + d - 1)
                b[list(s)] = 1.0 / len(s)
                if len(s) >= 2:
                    b[j + len(s) - 2] = 1.0
                p = brute_force_strength(s, params) / den
                second += p * np.outer(b, b)
                mean += p * b
            info += table.weights[r] * (second - np.outer(mean, mean))
    return info


def enumerate_tied_rankings(n_items, max_tie_order):
    """Every complete tied ranking of ``n_items`` items (ordered set
    partitions with blocks of at most ``max_tie_order`` items), as dense
    rank-code rows."""
    rows = []

    def rec(rest, row, level):
        if not rest:
            rows.append(row.copy())
            return
        for block in admissible_subsets(rest, max_tie_order):
            row[list(block)] = level
            rec([i for i in rest if i not in block], row, level + 1)
        row[rest] = 0

    rec(list(range(n_items)), np.zeros(n_items, dtype=np.int64), 1)
    return np.array(rows)


def engine_loglik(table, params):
    """Log-likelihood of ``table`` from the :class:`EventSet` engine."""
    ev = rw.EventSet(table, params.max_tie_order)
    return ev.loglik(params.theta(), ev.w_data, ev.obs_data)


def engine_row_logliks(table, params):
    """Weighted log-probability of every row from one :class:`EventSet`
    built with one group per row (0 for NA rows)."""
    ev = rw.EventSet(table, params.max_tie_order,
                     group_index=np.arange(1, table.n_rows + 1))
    theta = params.theta()
    return ev.group_obs @ theta - ev.group_event_weights @ ev._log_denominators(theta)
