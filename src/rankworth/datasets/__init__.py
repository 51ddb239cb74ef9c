"""Bundled example datasets.

See MANIFEST.md in this directory for provenance notes.  The pudding
table is the classic six-brand paired-comparison taste test with ties
(Davidson 1970, Example 2); the four-item toy and the disconnected pair
of clusters are small synthetic examples for exercising connectivity
handling.  Race results for the 1-per-driver 2002 stock-car season
(Hunter 2004) are not redistributable here; ``load_nascar`` reads them
from a user-supplied CSV of per-race finishing orders.
"""

from __future__ import annotations

import csv
import os
from importlib import resources
from io import StringIO

import numpy as np

from ..errors import DataError
from ..io import _read_text
from ..rankings import RankingsTable, from_orderings, from_rank_matrix

__all__ = [
    "load_pudding",
    "pudding_pair_counts",
    "load_abcd",
    "load_disconnected",
    "load_nascar",
    "nascar_path",
    "netflix_shape_soc_path",
    "write_sushi_shape_soc",
    "make_nascar_shape_table",
    "write_stress_table",
]


def _dataset_path(name: str):
    return resources.files(__package__).joinpath(name)


def pudding_pair_counts() -> list[dict]:
    """The pudding data as published: one record per brand pair with the
    number of comparisons, wins for each brand, and ties.

    Raises:
        DataError: the bundled file is not valid UTF-8.
    """
    text = StringIO(_read_text(_dataset_path("pudding.csv")))
    return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(text)]


def load_pudding() -> RankingsTable:
    """Pudding paired comparisons as a weighted rankings table.

    Rows come in three blocks (first-brand wins, second-brand wins, ties),
    one row per pair, with the observed frequencies as weights.  Raises as
    :func:`pudding_pair_counts`.
    """
    pairs = pudding_pair_counts()
    items = [str(k) for k in range(1, 7)]
    i_wins = [[str(p["i"]), str(p["j"])] for p in pairs]
    j_wins = [[str(p["j"]), str(p["i"])] for p in pairs]
    ties = [[(str(p["i"]), str(p["j"]))] for p in pairs]
    weights = np.array([p["w_ij"] for p in pairs]
                       + [p["w_ji"] for p in pairs]
                       + [p["t_ij"] for p in pairs], dtype=float)
    return from_orderings(i_wins + j_wins + ties, items, weights=weights)


def load_abcd() -> RankingsTable:
    """Five paired comparisons of items A-D in which D only ever loses,
    leaving the win/loss network not strongly connected."""
    matrix = [
        [1, 2, 0, 0],   # A beats B
        [2, 0, 1, 0],   # C beats A
        [1, 0, 0, 2],   # A beats D
        [2, 1, 0, 0],   # B beats A
        [0, 1, 2, 0],   # B beats C
    ]
    return from_rank_matrix(matrix, ["A", "B", "C", "D"])


def load_disconnected() -> RankingsTable:
    """Two item clusters with no comparisons between them."""
    matrix = [
        [1, 2, 0, 0],
        [2, 1, 0, 0],
        [0, 0, 1, 2],
        [0, 0, 2, 1],
    ]
    return from_rank_matrix(matrix, ["A", "B", "C", "D"])


def nascar_path() -> str | None:
    """Path of the user-supplied race-results CSV, if configured."""
    for candidate in (
        os.environ.get("RANKWORTH_NASCAR_CSV"),
        os.path.join(os.environ.get("RANKWORTH_DATA_DIR", ""), "nascar2002.csv")
        if os.environ.get("RANKWORTH_DATA_DIR") else None,
    ):
        if candidate and os.path.exists(candidate):
            return candidate
    return None


def load_nascar(path: str | None = None) -> RankingsTable:
    """1 season of 36 races, each an ordering of 43 of 87 drivers.

    The file is not bundled; supply a CSV whose header row holds the 87
    driver names and whose 36 body rows give, per race, the finishing
    order as comma-separated driver names padded with empty cells.  Set
    ``RANKWORTH_NASCAR_CSV`` (or ``RANKWORTH_DATA_DIR``) to point at it.

    Raises:
        DataError: no file configured or found; a file that is not valid
            UTF-8; a driver named twice in one race, or a name not in the
            header; or as :class:`RankingsTable` (for an empty file, fewer
            than two drivers).
        OSError: a given ``path`` that cannot be read.
    """
    path = path or nascar_path()
    if path is None:
        raise DataError(
            "race-results file not found: set RANKWORTH_NASCAR_CSV to a CSV "
            "with driver names in the header and one finishing order per row "
            "(Hunter 2004 season data)")
    rows = [[c for c in row if c] for row in csv.reader(StringIO(_read_text(path)))]
    return from_orderings(rows[1:], rows[0] if rows else [])


def netflix_shape_soc_path() -> str:
    """Bundled synthetic strict-orders file shaped like the classic
    4-movie data set: 24 distinct complete orders, frequencies summing to
    1256 (contents synthetic; see MANIFEST.md)."""
    return str(_dataset_path("netflix_shape.soc"))


def write_sushi_shape_soc(path, seed: int = 2002) -> None:
    """Write a synthetic strict-orders file shaped like the 10-item food
    preference survey: 4926 distinct complete orders of 10 items with
    frequencies summing to 5000.

    Contents are sampled from a worth model; only the shape (items,
    distinct-order count, total) matches the original.
    """
    rng = np.random.default_rng(seed)
    log_worth = rng.normal(0.0, 1.0, 10)
    seen: dict[tuple, int] = {}
    while len(seen) < 4926:
        g = rng.gumbel(size=10) + log_worth
        perm = tuple(int(x) for x in np.argsort(-g))
        seen[perm] = seen.get(perm, 0) + 1
    perms = sorted(seen)
    counts = np.ones(len(perms), dtype=int)
    for e in rng.choice(len(perms), size=5000 - len(perms)):
        counts[e] += 1
    lines = ["10"]
    for i in range(1, 11):
        lines.append(f"{i},Dish {i}")
    lines.append(f"5000,5000,{len(perms)}")
    for perm, count in zip(perms, counts):
        lines.append(",".join([str(count)] + [str(i + 1) for i in perm]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def make_nascar_shape_table(seed: int = 2002) -> RankingsTable:
    """Synthetic table shaped like the 2002 season results: 87 drivers,
    36 races of 43 finishers, with drivers 84-87 each entering exactly one
    race and finishing last (the weak-connectivity structure that makes
    maximum likelihood fail on the full item set).  The 83 regulars are
    guaranteed to form a strongly connected sub-network, matching the
    original data where dropping the four one-off drivers restores
    estimability."""
    from ..network import adjacency, connectivity
    from ..rankings import subset_items

    drivers = [f"Driver {k:02d}" for k in range(1, 88)]
    for attempt in range(50):
        rng = np.random.default_rng(seed + attempt)
        log_worth = rng.normal(0.0, 0.8, 83)
        orderings = []
        for race in range(36):
            if race < 4:
                field_size = 42
                tail = [83 + race]      # one newcomer, finishing last
            else:
                field_size = 43
                tail = []
            entrants = rng.choice(83, size=field_size, replace=False)
            g = rng.gumbel(size=field_size) + log_worth[entrants]
            order = entrants[np.argsort(-g)].tolist() + tail
            orderings.append([drivers[i] for i in order])
        table = from_orderings(orderings, drivers)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            core = subset_items(table, drivers[:83])
        if connectivity(adjacency(core)).strongly_connected:
            return table
    raise RuntimeError("could not generate a connected core network")


def write_stress_table(path, seed: int = 2002) -> None:
    """Write a rankings CSV with 5000 sub-rankings of 10 items drawn from
    100, with tie groups up to order 4 (a load-test shape)."""
    rng = np.random.default_rng(seed)
    items = [f"item{k:03d}" for k in range(100)]
    rows = np.zeros((5000, 100), dtype=np.int64)
    for r in range(5000):
        chosen = rng.choice(100, 10, replace=False)
        sizes = []
        left = 10
        while left:
            s = min(int(rng.integers(1, 5)), left)
            sizes.append(s)
            left -= s
        order = rng.permutation(chosen)
        pos = 0
        for lvl, s in enumerate(sizes, 1):
            rows[r, order[pos:pos + s]] = lvl
            pos += s
    table = from_rank_matrix(rows, items)
    from ..io import write_rank_csv

    write_rank_csv(table, path, include_weights=False)
