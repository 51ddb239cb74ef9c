"""File formats: preference-library strict-order files, rankings CSV,
and model JSON.

The strict-orders format ("SOC") is line oriented: the item count, one
"id,name" line per item, a totals line "voters,vote_sum,unique_orders",
then one "frequency,id,id,...,id" line per distinct complete ordering.
Readers reject structurally invalid input; the only repair performed is
a warning (not an error) when the totals line disagrees with the parsed
frequencies, since published files are known to contain such slips.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fit import FitConfig, ModelFit
from .likelihood import Parameters
from .rankings import OrderingsTable, RankingsTable, from_rank_matrix

__all__ = [
    "SocFile",
    "read_preflib_soc",
    "read_rank_csv",
    "write_rank_csv",
    "write_model_json",
    "read_model_json",
]

MODEL_JSON_VERSION = 1


@dataclass
class SocFile:
    """Parsed strict-orders file."""

    item_names: list[str]
    frequencies: np.ndarray
    orderings: list[list[str]]
    voters: int
    vote_sum: int
    unique_orders: int


def _split_id_name(line: str) -> tuple[str, str]:
    # names may be quoted (possibly containing commas) or bare
    head, _, rest = line.partition(",")
    rest = rest.strip()
    if rest.startswith('"') and rest.endswith('"') and len(rest) >= 2:
        rest = rest[1:-1]
    return head.strip(), rest


def parse_soc(text: str) -> SocFile:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty strict-orders file")
    try:
        n_items = int(lines[0])
    except ValueError as exc:
        raise DataError(f"malformed item count line: {lines[0]!r}") from exc
    if n_items < 1 or len(lines) < n_items + 2:
        raise DataError("strict-orders file truncated before totals line")

    id_to_name: dict[str, str] = {}
    names: list[str] = []
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

    freqs: list[float] = []
    orderings: list[list[str]] = []
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
        warnings.warn(
            f"totals line declares {unique_orders} unique orders, parsed "
            f"{len(orderings)}")
    if int(sum(freqs)) != vote_sum:
        warnings.warn(
            f"totals line declares vote sum {vote_sum}, parsed frequencies "
            f"sum to {int(sum(freqs))}")
    return SocFile(names, np.array(freqs, dtype=float), orderings,
                   voters, vote_sum, unique_orders)


def read_preflib_soc(source) -> tuple[OrderingsTable, np.ndarray]:
    """Read a strict-orders file from a path or file object.

    Returns the orderings (item names substituted for ids) and the
    frequency of each, ready to be used as ranking weights.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    soc = parse_soc(text)
    rows = [[(name,) for name in order] for order in soc.orderings]
    return OrderingsTable(tuple(tuple(r) for r in rows)), soc.frequencies


def _read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
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
    return header, rows


def _parse_rank_csv(path, weights_col: str | None = None):
    """Parse a rankings CSV once into (table, group ids or None).

    Every column is an item except the weight column (``weights_col``, or
    a column named "weight" when none is named) and a column named
    "group", which holds integer group ids.  A column named "weight" next
    to a differently named ``weights_col`` is refused as ambiguous.
    """
    header, rows = _read_csv_rows(path)
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
    matrix = []
    cells = {kind: [] for kind in special.values()}
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
    table = from_rank_matrix(np.array(matrix), [header[k] for k in item_cols],
                             weights=cells.get("weight"))
    groups = cells.get("group")
    return table, (np.array(groups, dtype=np.int64) if groups is not None else None)


def read_rank_csv(path, weights_col: str | None = None) -> RankingsTable:
    """Read a rankings table from CSV: header = item names, body = integer
    rank codes.  The column named ``weights_col`` (by default one named
    "weight", if present) holds row weights, and a column named "group"
    holds group ids; neither is an item.

    Raises:
        DataError: malformed cells, or a column named "weight" beside a
            differently named ``weights_col``.
    """
    return _parse_rank_csv(path, weights_col)[0]


def read_covariates_csv(path):
    """Read per-group covariates: one row per group; a "group" column, if
    present, gives the group id (rows are sorted by it), otherwise row
    order is the group order.  Columns whose values all parse as numbers
    become numeric covariates, everything else categorical; a numeric
    column with a ``nan`` or ``inf`` cell raises DataError."""
    from .tree import CovariateFrame

    header, rows = _read_csv_rows(path)
    if "group" in header:
        gcol = header.index("group")
        try:
            order = sorted(range(len(rows)), key=lambda i: int(rows[i][gcol]))
        except ValueError as exc:
            raise DataError("non-integer group id in covariates CSV") from exc
        rows = [rows[i] for i in order]
        ids = [int(r[gcol]) for r in rows]
        if ids != list(range(1, len(rows) + 1)):
            raise DataError("covariate group ids must cover 1..G exactly once")
    data = {}
    for k, name in enumerate(header):
        if name == "group":
            continue
        data[name] = [r[k] for r in rows]
    return CovariateFrame.from_dict(data)


def write_rank_csv(table: RankingsTable, path, include_weights: bool = True) -> None:
    """Write a rankings table as CSV (inverse of :func:`read_rank_csv`).

    NA rows are written with their stored codes; reading them back flags
    them NA again.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if include_weights:
            writer.writerow([*table.items, "weight"])
            for i in range(table.n_rows):
                writer.writerow([*map(int, table.ranks[i]),
                                 format(table.weights[i], ".17g")])
        else:
            writer.writerow(list(table.items))
            for i in range(table.n_rows):
                writer.writerow(list(map(int, table.ranks[i])))


def _fit_to_dict(fit: ModelFit) -> dict:
    return {
        "kind": "fit",
        "version": MODEL_JSON_VERSION,
        "items": list(fit.items),
        "has_ghost": fit.has_ghost,
        "log_worth": fit.params.log_worth.tolist(),
        "log_tie": fit.params.log_tie.tolist(),
        "converged": fit.converged,
        "iterations": fit.iterations,
        "log_likelihood": fit.log_likelihood,
        "npseudo": float(fit.npseudo),
        "method": fit.method,
        "df_outcomes": fit.df_outcomes,
    }


def write_model_json(obj, path) -> None:
    """Serialize a fitted model or tree losslessly (floats round-trip
    bit-exactly through JSON's shortest-repr encoding)."""
    from .tree import PLTree, tree_to_dict

    if isinstance(obj, ModelFit):
        payload = _fit_to_dict(obj)
    elif isinstance(obj, PLTree):
        payload = tree_to_dict(obj)
    else:
        raise DataError(f"cannot serialize object of type {type(obj).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


_NUMBER = (int, float)
# keys of a fit in a model file and their types; [t] is a list of t
_FIT_KEYS = {"items": [str], "has_ghost": bool, "log_worth": [_NUMBER],
             "log_tie": [_NUMBER], "converged": bool, "iterations": int,
             "log_likelihood": _NUMBER, "npseudo": _NUMBER, "method": str,
             "df_outcomes": _NUMBER}


def _checked(d, keys: dict, where: str) -> dict:
    """``d``, once it is an object holding every key of ``keys`` with a
    value of its type (a boolean is never a number)."""
    def is_a(value, t):
        if isinstance(t, list):
            return isinstance(value, list) and all(is_a(v, t[0]) for v in value)
        return isinstance(value, bool) == (t is bool) and isinstance(value, t)

    if not isinstance(d, dict):
        raise DataError(f"malformed model file: {where} is not an object")
    for key, t in keys.items():
        if key not in d:
            raise DataError(f"malformed model file: {where} has no {key!r}")
        if not is_a(d[key], t):
            raise DataError(f"malformed model file: {where} {key!r} has the wrong type")
    return d


def _fit_from_dict(d: dict, where: str = "fit") -> ModelFit:
    """Inverse of :func:`_fit_to_dict`; the fit carries no event structure.

    Raises:
        DataError: a key is missing or of the wrong type, or the lengths
            disagree: one log-worth per item, plus the ghost's exactly when
            ``npseudo > 0``, and fewer tie parameters than items.
    """
    d = _checked(d, _FIT_KEYS, where)
    items, has_ghost, npseudo = d["items"], d["has_ghost"], float(d["npseudo"])
    n_worth, n_tie = len(d["log_worth"]), len(d["log_tie"])
    for bad, problem in (
            (not items or len(set(items)) < len(items), "items are empty or repeated"),
            (has_ghost != (npseudo > 0), f"has_ghost is {has_ghost} with npseudo {npseudo}"),
            (n_worth != len(items) + has_ghost, f"has {n_worth} log-worths for "
             f"{len(items)} items" + (" and the ghost" if has_ghost else "")),
            (n_tie >= len(items), f"has {n_tie} tie parameters for {len(items)} items")):
        if bad:
            raise DataError(f"malformed model file: {where} {problem}")
    return ModelFit(
        params=Parameters(np.array(d["log_worth"], dtype=float),
                          np.array(d["log_tie"], dtype=float)),
        items=tuple(items),
        has_ghost=has_ghost,
        converged=d["converged"],
        iterations=d["iterations"],
        log_likelihood=float(d["log_likelihood"]),
        npseudo=npseudo,
        method=d["method"],
        config=FitConfig(npseudo=npseudo, method=d["method"]),
        df_outcomes=float(d["df_outcomes"]),
    )


def read_model_json(path):
    """Read a model JSON file; returns a :class:`ModelFit` or a tree.

    A fit read back carries ``events=None``: coefficients, worths and
    metrics work, but standard errors and quasi-variances need a refit.

    Raises:
        DataError: the file is not JSON, its kind or version is unknown, or
            its content is malformed (see :func:`_fit_from_dict` and
            :func:`~rankworth.tree.tree_from_dict`).
    """
    from .tree import tree_from_dict

    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (ValueError, RecursionError) as exc:   # syntax, UTF-8 or nesting
            raise DataError(f"model file is not valid JSON: {exc}") from exc
    _checked(d, {}, "the top level")
    version = d.get("version")
    if version != MODEL_JSON_VERSION:
        raise DataError(f"unsupported model file version: {version!r}")
    kind = d.get("kind")
    if kind == "fit":
        return _fit_from_dict(d)
    if kind == "tree":
        return tree_from_dict(d)
    raise DataError(f"unknown model kind: {kind!r}")
