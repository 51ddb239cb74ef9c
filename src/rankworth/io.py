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
import io
import json
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DataError
from .fit import FitConfig, ModelFit
from .likelihood import Parameters
from .rankings import OrderingsTable, RankingsTable, from_rank_matrix
from .tree import CovariateFrame, PLNode, PLTree, Split, TreeConfig

__all__ = [
    "SocFile",
    "read_preflib_soc",
    "read_rank_csv",
    "write_rank_csv",
    "write_model_json",
    "read_model_json",
    "tree_to_dict",
    "tree_from_dict",
]

MODEL_JSON_VERSION = 1


@dataclass
class SocFile:
    """Parsed strict-orders file: ``orderings`` is an (R, n) matrix of item
    positions (indices into ``item_names``), best first."""

    item_names: list[str]
    frequencies: np.ndarray
    orderings: np.ndarray
    voters: int
    vote_sum: int
    unique_orders: int


def _read_text(source) -> str:
    """The text of a path or a text stream, or of a byte stream read as UTF-8."""
    try:
        if hasattr(source, "read"):
            text = source.read()
            return text.decode("utf-8") if isinstance(text, bytes) else text
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"file is not valid UTF-8: {exc}") from exc


def _split_id_name(line: str) -> tuple[str, str]:
    # names may be quoted (possibly containing commas) or bare
    head, _, rest = line.partition(",")
    rest = rest.strip()
    if rest.startswith('"') and rest.endswith('"') and len(rest) >= 2:
        rest = rest[1:-1]
    return head.strip(), rest


def _soc_line_error(body: list[str], ids: list[str]) -> DataError:
    """The error of the first malformed ordering line of ``body``."""
    for ln in body:
        parts = [p.strip() for p in ln.split(",")]
        try:
            freq = int(np.int64(int(parts[0])))
        except (ValueError, OverflowError):
            return DataError(f"malformed frequency in line: {ln!r}")
        if freq <= 0:
            return DataError(f"non-positive frequency in line: {ln!r}")
        if sorted(parts[1:]) != sorted(ids):
            return DataError(f"ordering is not a permutation of all item ids: {ln!r}")
    return DataError("malformed strict-orders file")


def parse_soc(text: str) -> SocFile:
    """Parse strict-orders text; ids are stripped strings ("01" is not "1").
    A totals line that disagrees with the orderings only warns.

    Raises:
        DataError: an empty text, a malformed item count or totals line,
            too few lines, a repeated item id or name, or (the first such
            line named) a frequency that is not a positive 64-bit integer
            or ids that are not a permutation of the item ids.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
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

    # one flat token list, n_items + 1 tokens a line: the frequency, then the ids
    body, ids = lines[n_items + 2:], list(id_to_name)
    tokens = list(map(str.strip, ",".join(body).split(","))) if body else []
    try:
        if (np.fromiter(map(str.count, body, repeat(",")), int, len(body)) != n_items).any():
            raise ValueError
        freqs = np.fromiter(map(int, tokens[::n_items + 1]), np.int64, len(body))
        del tokens[::n_items + 1]
        index = dict(zip(ids, range(n_items)))
        orderings = np.fromiter(map(index.get, tokens, repeat(-1)), np.int64,
                                len(tokens)).reshape(len(body), n_items)
        if (freqs <= 0).any() or (np.sort(orderings, axis=1) != np.arange(n_items)).any():
            raise ValueError
    except (ValueError, OverflowError):
        raise _soc_line_error(body, ids) from None

    if len(orderings) != unique_orders:
        warnings.warn(
            f"totals line declares {unique_orders} unique orders, parsed "
            f"{len(orderings)}")
    total = sum(freqs.tolist())
    if total != vote_sum:
        warnings.warn(
            f"totals line declares vote sum {vote_sum}, parsed frequencies "
            f"sum to {total}")
    return SocFile(names, freqs.astype(float), orderings,
                   voters, vote_sum, unique_orders)


def read_preflib_soc(source) -> tuple[OrderingsTable, np.ndarray]:
    """Read a strict-orders file from a path or stream: the orderings
    (one item name per slot) and their frequencies, to use as weights.

    Raises:
        DataError: a file that is not UTF-8, or as :func:`parse_soc`.
    """
    soc = parse_soc(_read_text(source))
    rows, n = soc.orderings.shape
    # each item's slot, counted from 1: the inverse of each row's permutation
    codes = np.argsort(soc.orderings, axis=1) + 1
    return OrderingsTable(tuple(soc.item_names), codes, np.full(rows, n)), soc.frequencies


def _read_csv(path) -> tuple[list[str], str]:
    """The stripped header cells of a CSV file and the text of its body."""
    text = io.StringIO(_read_text(path))
    try:
        header = [h.strip() for h in next(csv.reader(text))]
    except StopIteration:
        raise DataError("empty CSV file") from None
    except csv.Error as exc:
        raise DataError(f"malformed CSV: {exc}") from exc
    body = text.read()
    if not body.strip("\n"):
        raise DataError("CSV file has no data rows")
    return header, body


def _csv_rows(body: str, n_cols: int) -> list[list[str]]:
    """The rows of a CSV body, blank lines skipped, each of ``n_cols`` cells."""
    try:
        rows = [r for r in csv.reader(io.StringIO(body)) if r]
    except csv.Error as exc:
        raise DataError(f"malformed CSV: {exc}") from exc
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DataError(f"row {i + 1} has {len(row)} cells, expected {n_cols}")
    return rows


def _parse_rank_csv(path, weights_col: str | None = None):
    """Parse a rankings CSV once into (table, group ids or None).

    Every column is an item except the weight column (``weights_col``, or
    a column named "weight" when none is named) and a column named
    "group", which holds integer group ids.  A column named "weight" next
    to a differently named ``weights_col`` is refused as ambiguous.  The
    body is parsed as one array; only a body that fails is read again row
    by row, to name the first bad row.
    """
    header, body = _read_csv(path)
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
    # one field per column, named by its index: floats for the weight, integers otherwise
    dtype = np.dtype([(str(k), np.float64 if special.get(k) == "weight" else np.int64)
                      for k in range(len(header))])
    try:
        cells = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", quotechar='"',
                           comments=None, ndmin=1)
    except ValueError as exc:
        for i, row in enumerate(_csv_rows(body, len(header))):
            for k in item_cols + list(special):
                try:
                    float(row[k]) if special.get(k) == "weight" else int(row[k])
                except ValueError:
                    raise DataError(f"non-numeric {special[k]} in row {i + 1}" if k in special
                                    else f"non-integer rank code in row {i + 1}") from exc
        raise DataError(f"malformed rankings CSV: {exc}") from exc
    ranks = np.array([cells[str(k)] for k in item_cols], np.int64).T
    columns = {kind: cells[str(k)] for k, kind in special.items()}
    return (from_rank_matrix(ranks, [header[k] for k in item_cols], weights=columns.get("weight")),
            columns.get("group"))


def read_rank_csv(path, weights_col: str | None = None) -> RankingsTable:
    """Read a rankings table from CSV: header = item names, body = integer
    rank codes.  The column named ``weights_col`` (by default one named
    "weight", if present) holds row weights, and a column named "group"
    holds group ids; neither is an item.

    Raises:
        DataError: a file that is not UTF-8 or lacks a header or data rows;
            ``weights_col`` missing, or beside a column named "weight"; a
            row with the wrong cell count or a cell that is not an integer
            (a number for the weight), named by its row; or as
            :class:`~rankworth.rankings.RankingsTable`.
    """
    return _parse_rank_csv(path, weights_col)[0]


def read_covariates_csv(path):
    """Read per-group covariates: one row per group; a "group" column, if
    present, gives the group id (rows are sorted by it), otherwise row
    order is the group order.  Columns whose values all parse as numbers
    become numeric covariates, everything else categorical; a numeric
    column with a ``nan`` or ``inf`` cell raises DataError."""
    header, body = _read_csv(path)
    rows = _csv_rows(body, len(header))
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
    header, cells = list(table.items), table.ranks.astype(str)
    if include_weights:
        header.append("weight")
        cells = np.column_stack([cells, [format(w, ".17g") for w in table.weights]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(cells.tolist())


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


def tree_to_dict(tree: PLTree) -> dict:
    def node_dict(node: PLNode) -> dict:
        d = {"node_id": node.node_id, "n_groups": node.n_groups}
        if node.is_leaf:
            d["fit"] = _fit_to_dict(node.fit_result)
        else:
            s = node.split
            d["split"] = {
                "covariate": s.covariate,
                "kind": s.kind,
                "threshold": s.threshold,
                "left_levels": sorted(s.left_levels) if s.left_levels else None,
                "right_levels": sorted(s.right_levels) if s.left_levels else None,
                "statistic": s.statistic,
                "p_value": s.p_value,
            }
            d["left"] = node_dict(node.left)
            d["right"] = node_dict(node.right)
        return d

    return {
        "kind": "tree",
        "version": MODEL_JSON_VERSION,
        "items": list(tree.items),
        "covariates": list(tree.covariate_names),
        "minsize": tree.config.minsize,
        "maxdepth": tree.config.maxdepth,
        "alpha": tree.config.alpha,
        "root": node_dict(tree.root),
    }


def tree_from_dict(d: dict) -> PLTree:
    """Inverse of :func:`tree_to_dict`; leaf fits carry no event structure.

    Raises:
        DataError: a key is missing or of the wrong type (a numeric split
            needs a threshold, any other its levels), a split's kind is
            unknown, or a leaf's fit is malformed or has other items than
            the tree.
    """
    d = _checked(d, {"items": [str], "covariates": [str], "minsize": int,
                     "maxdepth": int, "alpha": _NUMBER, "root": dict}, "tree")
    items = tuple(d["items"])

    def node_from(nd: dict, depth: int) -> PLNode:
        nd = _checked(nd, {"node_id": int, "n_groups": int}, "tree node")
        where = f"node {nd['node_id']}"
        node = PLNode(node_id=nd["node_id"], depth=depth, n_groups=nd["n_groups"],
                      group_ids=np.zeros(0, dtype=np.int64))
        if "split" in nd:
            nd = _checked(nd, {"split": dict, "left": dict, "right": dict}, where)
            s = _checked(nd["split"], {"covariate": str, "kind": str,
                                       "statistic": _NUMBER, "p_value": _NUMBER},
                         f"{where} split")
            kind = s["kind"]
            if kind not in ("numeric", "categorical", "ordinal"):
                raise DataError(f"malformed model file: {where} split has kind {kind!r}")
            numeric = kind == "numeric"
            _checked(s, {"threshold": _NUMBER} if numeric else
                     {"left_levels": [str], "right_levels": [str]}, f"{where} split")
            node.split = Split(s["covariate"], kind, s["threshold"] if numeric else None,
                               None if numeric else frozenset(s["left_levels"]),
                               None if numeric else frozenset(s["right_levels"]),
                               statistic=s["statistic"], p_value=s["p_value"])
            node.left = node_from(nd["left"], depth + 1)
            node.right = node_from(nd["right"], depth + 1)
        else:
            node.fit_result = _fit_from_dict(_checked(nd, {"fit": dict}, where)["fit"],
                                             f"{where} fit")
            if node.fit_result.items != items:
                raise DataError(f"malformed model file: {where} fit has other "
                                "items than the tree")
        return node

    config = TreeConfig(minsize=d["minsize"], maxdepth=d["maxdepth"], alpha=d["alpha"])
    return PLTree(node_from(d["root"], 1), items, tuple(d["covariates"]), config)


def read_model_json(path):
    """Read a model JSON file; returns a :class:`ModelFit` or a tree.

    A fit read back carries ``events=None``: coefficients, worths and
    metrics work, but standard errors and quasi-variances need a refit.

    Raises:
        DataError: the file is not JSON, its kind or version is unknown, or
            its content is malformed (see :func:`_fit_from_dict` and
            :func:`tree_from_dict`).
    """
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
