"""Rankings containers and transformations.

A ranking assigns positive rank codes to a subset of the item universe:
code 1 marks the top-ranked item(s), larger codes mark lower positions and
0 marks items absent from the ranking.  Ties are expressed by repeating a
code.  All tables store ranks in *dense* form (codes 1..m with no gaps);
construction recodes as necessary.  Rows that rank fewer than two items
carry no comparison information and are flagged NA: they are kept in place
(so row indices and group alignment survive) but excluded from every
computation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DataError

__all__ = [
    "RankingsTable",
    "OrderingsTable",
    "GroupedRankings",
    "from_rank_matrix",
    "from_orderings",
    "format_ranking",
    "subset_items",
    "group_rankings",
    "decode_orderings",
    "complete_orderings",
]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _whole(a: np.ndarray, message: str) -> np.ndarray:
    """``a`` as int64; raises DataError(``message``) unless every value is a
    whole number (only a float array needs looking at)."""
    if a.dtype.kind not in "biu" and not (a.dtype.kind == "f" and np.isfinite(a).all()
                                          and (np.mod(a, 1) == 0).all()):
        raise DataError(message)
    return a.astype(np.int64)


def _dense_recode(m: np.ndarray) -> np.ndarray:
    """Close the rank gaps of the non-negative ``m`` in place, keeping each
    row's order and ties: a positive code becomes the number of distinct
    positive codes of its row up to it.  Only rows that are not dense
    (fewer distinct codes in 1..J than their largest code) are sorted."""
    r, j = m.shape
    present = np.zeros((r, j + 2), dtype=bool)
    present[np.arange(r)[:, None], np.minimum(m, j + 1)] = True
    gapped = present[:, 1:j + 1].sum(axis=1) != m.max(axis=1, initial=0)
    sub = m[gapped]
    order = np.argsort(sub, axis=1, kind="stable")
    ascending = np.take_along_axis(sub, order, axis=1)
    np.put_along_axis(sub, order, np.cumsum(np.diff(ascending, prepend=0) > 0, axis=1), axis=1)
    m[gapped] = sub
    return m


def _validate_items(items) -> tuple[str, ...]:
    names = tuple(str(x) for x in items)
    if len(names) < 2:
        raise DataError("at least two items are required")
    if any(n == "" for n in names):
        raise DataError("item names must be nonempty")
    if len(set(names)) != len(names):
        raise DataError("item names must be unique")
    return names


@dataclass(frozen=True, eq=False)
class RankingsTable:
    """Immutable table of dense rankings, checked and recoded on construction.
    Two tables are equal when their items, ranks, weights and flags are.

    Attributes:
        items: item names (as ``str``), one per column.
        ranks: (R, J) int64 rank codes, 0 = unranked, stored dense: the
            gaps of each row are closed, its order and ties kept.
        weights: (R,) finite non-negative multiplicities.
        na_mask: (R,) the given flags, and every row with fewer than two
            ranked items; flagged rows contribute nothing to any computation.

    Raises:
        DataError: fewer than two items, or an empty or repeated item name;
            ranks that are not a 2-D matrix with one column per item, or a
            code that is not a non-negative integer; weights not of length
            R, or not finite and non-negative; flags not of length R.
    """

    items: tuple[str, ...]
    ranks: np.ndarray
    weights: np.ndarray
    na_mask: np.ndarray

    def __post_init__(self):
        items = _validate_items(self.items)
        m = np.asarray(self.ranks)
        if m.ndim != 2:
            raise DataError("rank matrix must be two-dimensional")
        if m.shape[1] != len(items):
            raise DataError(f"rank matrix has {m.shape[1]} columns for {len(items)} items")
        m = _whole(m, "rank codes must be integers")
        if (m < 0).any():
            raise DataError("rank codes must be non-negative")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(m),):
            raise DataError("weights length must match the number of rankings")
        if not (np.isfinite(w) & (w >= 0)).all():
            raise DataError("weights must be finite and non-negative")
        na = np.asarray(self.na_mask, dtype=bool)
        if na.shape != w.shape:
            raise DataError("NA flags length must match the number of rankings")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "ranks", _as_readonly(_dense_recode(m)))
        object.__setattr__(self, "weights", _as_readonly(w))
        object.__setattr__(self, "na_mask", _as_readonly(na | ((m > 0).sum(axis=1) < 2)))

    @property
    def n_rows(self) -> int:
        return self.ranks.shape[0]

    @property
    def n_items(self) -> int:
        return self.ranks.shape[1]

    def max_tie_order(self) -> int:
        """Largest tie-group size over non-NA rows (1 if no ties / no rows)."""
        ranks = self.ranks[~self.na_mask]
        row, col = np.nonzero(ranks)
        # one bin per (row, code) pair; dense codes are at most J
        counts = np.bincount(row * (self.n_items + 1) + ranks[row, col])
        return max(1, int(counts.max(initial=0)))

    def with_weights(self, weights) -> "RankingsTable":
        """The same rankings with new weights; raises as :class:`RankingsTable`."""
        return RankingsTable(self.items, self.ranks, weights, self.na_mask)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankingsTable) and self.items == other.items
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in ("ranks", "weights", "na_mask")))

    def __hash__(self) -> int:
        return hash((self.items, self.ranks.shape, self.ranks.tobytes()))

    def formatted(self, width: int | None = None) -> list[str]:
        return [format_ranking(self.ranks[i], self.items, width=width)
                if not self.na_mask[i] else "NA"
                for i in range(self.n_rows)]

    def __repr__(self) -> str:
        head = self.formatted()[:6]
        tail = "" if self.n_rows <= 6 else f", ... ({self.n_rows} rows)"
        return f"RankingsTable({head}{tail})"


class Stages(NamedTuple):
    """The choice stages of a table's usable rows (not NA, positive weight,
    two or more ranked items), in row order and best first: each stage
    chooses the best remaining level; a last stage with one item is left
    out.  ``row`` and ``weight`` are those of each stage's row; ``alts`` and
    ``chosen`` are (S, J) masks of its remaining and its chosen items."""

    row: np.ndarray
    weight: np.ndarray
    alts: np.ndarray
    chosen: np.ndarray

    def win_counts(self, group=None, n_groups: int = 1):
        """(J, J) weighted counts of item i ranked strictly above item j (at
        each stage every chosen item beats every remaining item not chosen),
        and with ``group`` (each stage's group, from 0) the same per group as
        a sparse (n_groups, J * J) matrix, else None.  Built item by item, so
        only one item's stages are held at a time."""
        j = self.alts.shape[1]
        counts, by_group = np.zeros((j, j)), []
        for i in range(j):
            at = np.flatnonzero(self.chosen[:, i])
            wins = (self.alts[at] & ~self.chosen[at]) * self.weight[at, None]
            # a reduction down the rows adds them one by one, in stage order:
            # the sums of the row-by-row compile (TestOnePassCompile pins them)
            counts[i] = np.add.reduce(wins, axis=0)
            if group is not None:
                # a sparse product that adds each group's rows in stage order too
                pick = sp.csr_matrix((np.ones(at.size), (group[at], np.arange(at.size))),
                                     shape=(n_groups, at.size))
                by_group.append(pick @ sp.csr_matrix(wins))
        return counts, sp.hstack(by_group, format="csr") if group is not None else None


def _stages(table: RankingsTable) -> Stages:
    """The choice stages of ``table``, from the level counts of its usable rows."""
    rows = np.flatnonzero(~table.na_mask & (table.weights != 0))
    j = table.n_items
    dense = table.ranks[rows].astype(np.min_scalar_type(j))
    # items per (row, level); a level is a stage while two or more items remain
    per_level = np.bincount((np.arange(rows.size)[:, None] * (j + 1) + dense).ravel(),
                            minlength=rows.size * (j + 1)).reshape(rows.size, j + 1)[:, 1:]
    remaining = np.cumsum(per_level[:, ::-1], axis=1)[:, ::-1]
    r, level = np.nonzero((per_level > 0) & (remaining >= 2))
    codes, level = dense[r], level[:, None] + 1
    return Stages(rows[r], table.weights[rows[r]], codes >= level, codes == level)


def from_rank_matrix(matrix, item_names, weights=None) -> RankingsTable:
    """A :class:`RankingsTable` of a rank-code matrix, each row of weight 1
    unless ``weights`` are given; rows ranking fewer than two items are
    flagged NA with a warning.  Raises as :class:`RankingsTable`."""
    m = np.asarray(matrix)
    table = RankingsTable(item_names, m, np.ones(m.shape[:1]) if weights is None else weights,
                          np.zeros(m.shape[:1], dtype=bool))
    flagged = int(table.na_mask.sum())
    if flagged:
        warnings.warn(f"{flagged} ranking(s) with fewer than 2 ranked items set to NA")
    return table


@dataclass(frozen=True, eq=False)
class OrderingsTable:
    """Rows of ordered slots, best first; a slot may hold several items
    (a tie) or be empty.  No item appears twice within a row.

    ``names`` is the vocabulary, in the order the rows first name each;
    ``codes`` is an (R, V) matrix holding 0 where a row lacks a name, else
    ``slot * width + place + 1`` (both counted from 0, ``place`` within the
    slot); ``n_slots`` counts each row's slots, empty ones included; and
    ``width`` is the largest slot.

    Raises:
        DataError: repeated names, or codes that are not an (R, V) matrix
            with each code in ``0..width * n_slots`` of its row.
    """

    names: tuple[str, ...]
    codes: np.ndarray
    n_slots: np.ndarray
    width: int = 1

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        for name in ("codes", "n_slots"):
            object.__setattr__(self, name, _as_readonly(np.asarray(getattr(self, name), np.int64)))
        c, n = self.codes, self.n_slots
        if (c.ndim != 2 or not c.shape[1] == len(set(self.names)) == len(self.names)
                or n.shape != c.shape[:1] or self.width < 1 or (c < 0).any()
                or (c > self.width * n[:, None]).any()):
            raise DataError("an orderings table needs unique names and, per row, a "
                            "slot count and codes in 0..width * slots")

    @staticmethod
    def _norm_slot(slot) -> tuple[str, ...]:
        if slot is None:
            return ()
        if isinstance(slot, float) and np.isnan(slot):
            return ()
        if isinstance(slot, str):
            return (slot,) if slot else ()
        try:
            entries = list(slot)
        except TypeError:
            return (str(slot),)
        out = []
        for e in entries:
            if e is None or (isinstance(e, float) and np.isnan(e)):
                continue
            out.append(str(e))
        return tuple(out)

    @classmethod
    def from_rows(cls, rows) -> "OrderingsTable":
        """The table of Python rows of slots (each a name, an iterable of
        names, or empty); raises DataError if a row names an item twice."""
        vocab: dict[str, int] = {}
        entries, n_slots, width = [], [], 1
        for i, r in enumerate(rows):
            slots = [cls._norm_slot(s) for s in r]
            seen: set[str] = set()
            for k, slot in enumerate(slots):
                width = max(width, len(slot))
                for place, name in enumerate(slot):
                    if name in seen:
                        raise DataError(f"item {name!r} appears twice in an ordering")
                    seen.add(name)
                    entries.append((i, vocab.setdefault(name, len(vocab)), k, place))
            n_slots.append(len(slots))
        codes = np.zeros((len(n_slots), len(vocab)), dtype=np.int64)
        if entries:
            i, v, k, place = np.array(entries).T
            codes[i, v] = k * width + place + 1
        return cls(tuple(vocab), codes, n_slots, width)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @cached_property
    def rows(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """The rows as tuples of slots, each a tuple of names."""
        out = [[[] for _ in range(k)] for k in self.n_slots.tolist()]
        r, v = np.nonzero(self.codes)
        order = np.lexsort((self.codes[r, v], r))
        for i, j, code in zip(r[order].tolist(), v[order].tolist(),
                              self.codes[r, v][order].tolist()):
            out[i][(code - 1) // self.width].append(self.names[j])
        return tuple(tuple(map(tuple, row)) for row in out)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderingsTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


def from_orderings(orderings, item_names, weights=None) -> RankingsTable:
    """Convert orderings (slot k = rank k) to a dense rankings table.

    Multi-item slots become ties, empty slots leave no gap, and items
    absent from a row get rank 0.

    Raises:
        DataError: a name twice in one row (of rows not yet a table), the
            first name not in ``item_names``, or as :class:`RankingsTable`.
    """
    if not isinstance(orderings, OrderingsTable):
        orderings = OrderingsTable.from_rows(orderings)
    items = [str(x) for x in item_names]
    index = dict(zip(items, range(len(items))))
    col = np.array([index.get(name, -1) for name in orderings.names], dtype=np.int64)
    codes = orderings.codes
    unknown = np.flatnonzero((col < 0) & (codes > 0).any(axis=0))
    if unknown.size:
        first = (codes[:, unknown] > 0).argmax(axis=0)
        name = orderings.names[unknown[np.lexsort((codes[first, unknown], first))[0]]]
        raise DataError(f"unknown item name {name!r}")
    m = np.zeros((orderings.n_rows, len(items)), dtype=np.int64)
    # a name's slot counted from 1, 0 where absent; the table closes the gaps
    m[:, col[col >= 0]] = -(-codes[:, col >= 0] // orderings.width)
    return from_rank_matrix(m, items, weights=weights)


def format_ranking(row, items, width: int | None = None) -> str:
    """Render one rank-code row: levels joined by " > ", ties by " = ".

    Rows with fewer than two ranked items render as "NA".  With ``width``,
    longer strings are cut and terminated with "...".
    """
    row = np.asarray(row)
    ranked = row > 0
    if ranked.sum() < 2:
        return "NA"
    levels = np.unique(row[ranked])
    parts = []
    for lv in levels:
        names = [items[j] for j in np.flatnonzero(row == lv)]
        parts.append(" = ".join(names))
    out = " > ".join(parts)
    if width is not None and len(out) > width:
        out = out[: max(width - 4, 0)].rstrip() + " ..."
    return out


def subset_items(table: RankingsTable, keep_items) -> RankingsTable:
    """Drop all columns outside ``keep_items``; affected rows are recoded
    and rows left with fewer than two ranked items are flagged NA, with a
    warning.

    Raises:
        DataError: fewer than two names, a name not in the table, or as
            :class:`RankingsTable`.
    """
    keep = [str(k) for k in keep_items]
    if len(keep) < 2:
        raise DataError("keep_items must retain at least two items")
    missing = [k for k in keep if k not in table.items]
    if missing:
        raise DataError(f"unknown item(s): {missing}")
    cols = [table.items.index(k) for k in keep]
    sub = RankingsTable(keep, table.ranks[:, cols], table.weights, table.na_mask)
    newly = int(sub.na_mask.sum() - table.na_mask.sum())
    if newly:
        warnings.warn(f"{newly} ranking(s) with fewer than 2 ranked items set to NA")
    return sub


@dataclass(frozen=True)
class GroupedRankings:
    """Rankings plus a mapping of each row to a group in 1..G."""

    rankings: RankingsTable
    group_index: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "group_index",
                           _as_readonly(self.group_index.astype(np.int64)))

    @property
    def n_groups(self) -> int:
        return int(self.group_index.max()) if self.group_index.size else 0


def group_rankings(table: RankingsTable, group_index) -> GroupedRankings:
    """Attach a group id in 1..G to every ranking.

    Raises:
        DataError: length mismatch, an id that is not a positive integer,
            or a gap in the group ids.
    """
    idx = np.asarray(group_index)
    if idx.shape != (table.n_rows,):
        raise DataError("group index length must match the number of rankings")
    idx = _whole(idx, "group ids must be positive integers")
    if idx.size == 0:
        raise DataError("cannot group an empty table")
    g = int(idx.max())
    if idx.min() < 1 or g < 1:
        raise DataError("group ids must be positive integers")
    present = np.unique(idx)
    if present.size != g:
        missing = sorted(set(range(1, g + 1)) - set(present.tolist()))
        raise DataError(f"missing group id(s): {missing}")
    return GroupedRankings(table, idx)


def decode_orderings(coded, item_columns, codes) -> OrderingsTable:
    """Replace coded slot values with row-specific item names.

    ``coded`` holds per-row slot codes (e.g. best/middle/worst as "A"/"B"/"C");
    ``item_columns`` gives, for each row, the item name behind each code.

    Raises:
        DataError: a cell not in ``codes``, misaligned rows, or a name that
            appears twice in one row.
    """
    codes = [str(c) for c in codes]
    pos = {c: k for k, c in enumerate(codes)}
    coded_rows = [list(r) for r in coded]
    item_rows = [list(r) for r in item_columns]
    if len(coded_rows) != len(item_rows):
        raise DataError("coded and item_columns must have the same number of rows")
    out = []
    for cr, ir in zip(coded_rows, item_rows):
        if len(ir) != len(codes):
            raise DataError(f"expected {len(codes)} item columns, got {len(ir)}")
        slots = []
        for cell in cr:
            c = str(cell)
            if c not in pos:
                raise DataError(f"cell value {c!r} is not one of the codes {codes}")
            slots.append((str(ir[pos[c]]),))
        out.append(slots)
    return OrderingsTable.from_rows(out)


def complete_orderings(partial, codes) -> list[str]:
    """Return, per row, the single code absent from that row.

    Raises:
        DataError: a row where the number of missing codes is not exactly 1.
    """
    full = [str(c) for c in codes]
    fullset = set(full)
    out = []
    for i, row in enumerate(partial):
        present = {str(c) for c in row}
        unknown = present - fullset
        if unknown:
            raise DataError(f"row {i}: value(s) {sorted(unknown)} not in codes")
        missing = [c for c in full if c not in present]
        if len(missing) != 1:
            raise DataError(f"row {i}: expected exactly 1 missing code, found {len(missing)}")
        out.append(missing[0])
    return out
