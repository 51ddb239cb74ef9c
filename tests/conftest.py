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


def random_tied_table(rng, n_items, max_tie_order):
    """A few partial rows of ``n_items`` items with ties of order up to
    ``max_tie_order`` and positive weights."""
    ranks = np.zeros((int(rng.integers(1, 6)), n_items), dtype=np.int64)
    for row in ranks:
        items = rng.permutation(n_items)[:int(rng.integers(2, n_items + 1))]
        pos, level = 0, 1
        while pos < items.size:
            k = int(rng.integers(1, max_tie_order + 1))
            row[items[pos:pos + k]] = level
            pos, level = pos + k, level + 1
    return rw.RankingsTable(tuple(f"i{k}" for k in range(n_items)), ranks,
                            rng.uniform(0.5, 2.0, ranks.shape[0]),
                            np.zeros(ranks.shape[0], dtype=bool))


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


def esp_prefixes_oracle(z, order):
    """Prefix ESPs (len(z) + 1, order + 1, ...) by the allocating recursion
    the in-place kernel replaced."""
    out = np.zeros((z.shape[0] + 1, order + 1) + z.shape[1:])
    out[:, 0] = 1.0
    for j in range(z.shape[0]):
        out[j + 1, 1:] = out[j, 1:] + z[j] * out[j, :-1]
    return out


def leave_one_out_oracle(z, order):
    """Leave-one-out ESPs of ``order`` as a ``sum`` over prefix-suffix products."""
    pre = esp_prefixes_oracle(z, order)
    suf = esp_prefixes_oracle(z[::-1], order)[::-1]
    return sum(pre[:-1, q] * suf[1:, order - q] for q in range(order + 1))


# ---------------------------------------------------------------------------
# reader oracles: the row-by-row readers that the array readers replaced


def soc_oracle(text):
    """Strict-orders text parsed line by line: (item names, frequencies,
    orderings as lists of names); warns like :func:`rankworth.io.parse_soc`."""
    from rankworth.errors import DataError
    from rankworth.io import _split_id_name

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty strict-orders file")
    try:
        n_items = int(lines[0])
    except ValueError as exc:
        raise DataError(f"malformed item count line: {lines[0]!r}") from exc
    if n_items < 1 or len(lines) < n_items + 2:
        raise DataError("strict-orders file truncated before totals line")
    id_to_name, names = {}, []
    for ln in lines[1:n_items + 1]:
        item_id, name = _split_id_name(ln)
        if not name:
            name = item_id
        if item_id in id_to_name:
            raise DataError(f"duplicate item id {item_id!r}")
        id_to_name[item_id] = name
        names.append(name)
    if len(set(names)) != len(names):
        raise DataError("duplicate item names")
    totals = lines[n_items + 1].split(",")
    if len(totals) != 3:
        raise DataError(f"malformed totals line: {lines[n_items + 1]!r}")
    try:
        voters, vote_sum, unique_orders = (int(x) for x in totals)
    except ValueError as exc:
        raise DataError(f"malformed totals line: {lines[n_items + 1]!r}") from exc
    freqs, orderings = [], []
    for ln in lines[n_items + 2:]:
        parts = [p.strip() for p in ln.split(",")]
        try:
            freq = int(parts[0])
        except ValueError as exc:
            raise DataError(f"malformed frequency in line: {ln!r}") from exc
        if freq <= 0:
            raise DataError(f"non-positive frequency in line: {ln!r}")
        order_ids = parts[1:]
        if sorted(order_ids) != sorted(id_to_name):
            raise DataError(f"ordering is not a permutation of all item ids: {ln!r}")
        freqs.append(freq)
        orderings.append([id_to_name[i] for i in order_ids])
    if len(orderings) != unique_orders:
        warnings.warn(f"totals line declares {unique_orders} unique orders, parsed "
                      f"{len(orderings)}")
    if int(sum(freqs)) != vote_sum:
        warnings.warn(f"totals line declares vote sum {vote_sum}, parsed frequencies "
                      f"sum to {int(sum(freqs))}")
    return names, np.array(freqs, dtype=float), orderings


def orderings_rows_oracle(rows):
    """Rows of slots normalized one slot at a time, as tuples, refusing a
    name that appears twice in a row."""
    from rankworth.errors import DataError

    norm = []
    for r in rows:
        slots = tuple(rw.OrderingsTable._norm_slot(s) for s in r)
        seen = set()
        for s in slots:
            for name in s:
                if name in seen:
                    raise DataError(f"item {name!r} appears twice in an ordering")
                seen.add(name)
        norm.append(slots)
    return tuple(norm)


def from_orderings_oracle(rows, item_names, weights=None):
    """:func:`rankworth.from_orderings` one row and one slot at a time."""
    from rankworth.errors import DataError

    rows = orderings_rows_oracle(rows)
    items = tuple(str(x) for x in item_names)
    if len(items) < 2:
        raise DataError("at least two items are required")
    index = {name: j for j, name in enumerate(items)}
    m = np.zeros((len(rows), len(items)), dtype=np.int64)
    for i, row in enumerate(rows):
        rank = 0
        for slot in row:
            if not slot:
                continue
            rank += 1
            for name in slot:
                if name not in index:
                    raise DataError(f"unknown item name {name!r}")
                m[i, index[name]] = rank
    return rw.from_rank_matrix(m, items, weights=weights)


def rank_csv_oracle(path, weights_col=None):
    """A rankings CSV read with ``csv`` and parsed one cell at a time:
    (table, group ids or None)."""
    import csv

    from rankworth.errors import DataError

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError("empty CSV file") from None
        rows = [r for r in reader if r]
    if not rows:
        raise DataError("CSV file has no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i + 1} has {len(row)} cells, expected {len(header)}")
    if weights_col is None:
        weights_col = "weight" if "weight" in header else None
    elif weights_col not in header:
        raise DataError(f"weight column {weights_col!r} not found")
    elif weights_col != "weight" and "weight" in header:
        raise DataError(f"weights are read from column {weights_col!r}, so the "
                        "column named 'weight' is ambiguous; rename or drop it")
    special = {header.index(name): kind
               for name, kind in ((weights_col, "weight"), ("group", "group"))
               if name in header}
    item_cols = [k for k in range(len(header)) if k not in special]
    matrix, cells = [], {kind: [] for kind in special.values()}
    for i, row in enumerate(rows):
        try:
            matrix.append([int(row[k]) for k in item_cols])
        except ValueError as exc:
            raise DataError(f"non-integer rank code in row {i + 1}") from exc
        for k, kind in special.items():
            try:
                cells[kind].append(float(row[k]) if kind == "weight" else int(row[k]))
            except ValueError as exc:
                raise DataError(f"non-numeric {kind} in row {i + 1}") from exc
    table = rw.from_rank_matrix(np.array(matrix), [header[k] for k in item_cols],
                                weights=cells.get("weight"))
    groups = cells.get("group")
    return table, (np.array(groups, dtype=np.int64) if groups is not None else None)
