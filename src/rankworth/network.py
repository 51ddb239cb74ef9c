"""Win/loss network derived from rankings.

Each non-NA ranking implies directed "ranked higher than" edges between
every pair of ranked items at different levels; ties imply no edge.  For
strict rankings the maximum likelihood estimate of every log-worth is
finite exactly when this directed network is strongly connected (Hunter
2004).  With ties strong connectivity is neither necessary nor sufficient,
but fitting at ``npseudo = 0`` still gates on it until an exact test of
existence replaces the gate (ROADMAP.md, item 2).  A fit reads the network
from its compiled ``win_counts``; components come from a closure in numpy.
Pseudo-comparisons with a ghost item make any data estimable; fitting adds
them as events of the likelihood engine, and
:func:`augment_with_pseudo_rankings` writes them out as table rows.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rankings import RankingsTable, _stages

__all__ = [
    "GHOST_ITEM",
    "AdjacencyMatrix",
    "ConnectivityReport",
    "adjacency",
    "connectivity",
    "augment_with_pseudo_rankings",
]

logger = logging.getLogger(__name__)

# Column name of the ghost item in a table augmented with pseudo-rankings.
GHOST_ITEM = "__ghost__"


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Weighted pairwise win counts: counts[i, j] = total weight of
    rankings placing item i strictly higher than item j."""

    items: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.counts.astype(np.float64))
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["item", *self.items])
            for name, row in zip(self.items, self.counts):
                w.writerow([name, *(format(v, ".17g") for v in row)])


@dataclass(frozen=True)
class ConnectivityReport:
    """Strongly connected component decomposition of the win/loss graph."""

    items: tuple[str, ...]
    membership: tuple[int, ...]
    csize: tuple[int, ...]
    no: int

    @property
    def strongly_connected(self) -> bool:
        return self.no == 1


def adjacency(table: RankingsTable) -> AdjacencyMatrix:
    """Accumulate weighted "ranked higher than" counts over non-NA rows,
    in row order, from the table's choice stages."""
    return AdjacencyMatrix(table.items, _stages(table).win_counts()[0])


def connectivity(adj: AdjacencyMatrix) -> ConnectivityReport:
    """Strongly connected components of the directed graph with an edge
    i -> j wherever counts[i, j] > 0.  Cluster ids are 1-based, ordered by
    each cluster's smallest item index.  The reachability matrix is squared
    until it stops changing: J³ times log₂ of the longest shortest path.  On
    one core that is at most 0.2 ms up to J = 100, 0.15 s on a 1000-item path."""
    counts = adj.counts
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise DataError("adjacency counts must be square")
    # an edge is read from the sign of its weight, whatever its size
    reach = ((counts > 0) | np.eye(len(counts), dtype=bool)).astype(np.float32)
    while not np.array_equal(closed := np.minimum(reach @ reach, 1), reach):
        reach = closed      # each squaring doubles the paths followed
    # an item's component is named by the first item it reaches both ways
    first = (reach * reach.T).argmax(axis=1) if len(counts) else []
    _, inverse = np.unique(first, return_inverse=True)
    csize = np.bincount(inverse)
    report = ConnectivityReport(adj.items, tuple((inverse + 1).tolist()),
                                tuple(csize.tolist()), len(csize))
    if not report.strongly_connected:
        logger.info("Network of items is not strongly connected")
    return report


def augment_with_pseudo_rankings(table: RankingsTable, npseudo: float) -> RankingsTable:
    """Append a ghost item and, per real item i, two weighted paired
    comparisons "i > ghost" and "ghost > i" (weight ``npseudo`` each).

    The augmented win/loss network is strongly connected for any
    ``npseudo > 0``; ``npseudo = 0`` returns the table unchanged.  Its
    events are those of ``EventSet(table, D, npseudo=npseudo)``.
    """
    if npseudo < 0:
        raise DataError("npseudo must be non-negative")
    if npseudo == 0:
        return table
    if GHOST_ITEM in table.items:
        raise DataError(f"item name {GHOST_ITEM!r} is reserved")
    j = table.n_items
    items = table.items + (GHOST_ITEM,)
    ranks = np.hstack([table.ranks, np.zeros((table.n_rows, 1), dtype=np.int64)])
    pseudo = np.zeros((2 * j, j + 1), dtype=np.int64)
    for i in range(j):
        pseudo[2 * i, i] = 1          # item i beats ghost
        pseudo[2 * i, j] = 2
        pseudo[2 * i + 1, i] = 2      # ghost beats item i
        pseudo[2 * i + 1, j] = 1
    all_ranks = np.vstack([ranks, pseudo])
    weights = np.concatenate([table.weights, np.full(2 * j, float(npseudo))])
    na = np.concatenate([table.na_mask, np.zeros(2 * j, dtype=bool)])
    return RankingsTable(items, all_ranks, weights, na)
