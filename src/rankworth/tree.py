"""Recursive partitioning of grouped rankings by covariates.

Groups of rankings (e.g. one group per judge) carry covariates; where the
fitted worths are unstable with respect to a covariate, the groups are
split and separate models fitted to each side, recursively:

1. fit a pooled model to the node's rankings;
2. test each covariate for structural change in the per-group
   contributions to the score (observed minus expected statistics),
   ordering contributions by covariate value;
3. if any Bonferroni-adjusted p value is below alpha, split on the most
   unstable covariate at the cutpoint maximizing the summed child
   log-likelihood, subject to a minimum child size;
4. recurse until no significant instability, the depth limit, or no
   admissible split.

Numeric covariates use a sup-LM statistic over candidate breakpoints in
the trimmed range, with p values from the standard crossing-probability
approximation for the supremum of a squared Bessel bridge; categorical
covariates use the chi-squared fluctuation statistic over level sums.
Candidate-split child refits reuse one shared event structure, re-weighted
by cumulative group prefixes, with warm starts along the sweep.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import chi2

from .errors import DataError
from .fit import FitConfig, ModelFit, fit
from .likelihood import EventSet
from .network import augment_with_pseudo_rankings
from .rankings import GroupedRankings, RankingsTable

__all__ = [
    "Covariate",
    "CovariateFrame",
    "TreeConfig",
    "Split",
    "PLNode",
    "PLTree",
    "score_contributions",
    "instability_test",
    "best_split",
    "grow_tree",
    "predict_node",
    "suplm_pvalue",
    "tree_to_dict",
    "tree_from_dict",
    "write_tree_plot_csv",
]

MAX_CATEGORICAL_LEVELS = 12
TRIM = 0.1


@dataclass(frozen=True)
class Covariate:
    """One covariate observed per group.

    ``kind`` is "numeric", "categorical", or "ordinal" (ordered
    categories; tested like categorical but split only contiguously).
    """

    name: str
    values: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical", "ordinal"):
            raise DataError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "numeric":
            object.__setattr__(self, "values",
                               tuple(float(v) for v in self.values))
        else:
            object.__setattr__(self, "values",
                               tuple(str(v) for v in self.values))

    def levels(self) -> list[str]:
        return sorted(set(self.values))


class CovariateFrame:
    """Named covariates, one value per group, no missing values."""

    def __init__(self, covariates: list[Covariate]):
        if not covariates:
            raise DataError("at least one covariate is required")
        lengths = {len(c.values) for c in covariates}
        if len(lengths) != 1:
            raise DataError("covariates must all have the same length")
        names = [c.name for c in covariates]
        if len(set(names)) != len(names):
            raise DataError("covariate names must be unique")
        self.covariates = list(covariates)
        self.n_groups = lengths.pop()

    @classmethod
    def from_dict(cls, data: dict, ordered: set[str] | None = None) -> "CovariateFrame":
        """Build from name -> values, inferring numeric vs categorical."""
        ordered = ordered or set()
        covs = []
        for name, values in data.items():
            values = list(values)
            if name in ordered:
                kind = "ordinal"
            else:
                try:
                    [float(v) for v in values]
                    kind = "numeric"
                except (TypeError, ValueError):
                    kind = "categorical"
            covs.append(Covariate(name, tuple(values), kind))
        return cls(covs)

    def __getitem__(self, name: str) -> Covariate:
        for c in self.covariates:
            if c.name == name:
                return c
        raise DataError(f"unknown covariate {name!r}")

    def names(self) -> list[str]:
        return [c.name for c in self.covariates]

    def subset(self, idx: np.ndarray) -> "CovariateFrame":
        return CovariateFrame([
            Covariate(c.name, tuple(c.values[i] for i in idx), c.kind)
            for c in self.covariates])


@dataclass(frozen=True)
class TreeConfig:
    """Growth options: minimum groups per leaf, maximum depth (root has
    depth 1), significance level, and the per-node fitting options."""

    minsize: int = 20
    maxdepth: int = 10
    alpha: float = 0.05
    fit_config: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.minsize < 1:
            raise DataError("minsize must be at least 1")
        if self.maxdepth < 1:
            raise DataError("maxdepth must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise DataError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class Split:
    covariate: str
    kind: str
    threshold: float | None = None
    left_levels: frozenset | None = None
    right_levels: frozenset | None = None
    statistic: float = np.nan
    p_value: float = np.nan

    def goes_left(self, value) -> bool:
        if self.kind == "numeric":
            return float(value) <= self.threshold
        value = str(value)
        if value in self.left_levels:
            return True
        if self.right_levels is not None and value not in self.right_levels:
            raise DataError(
                f"unseen category {value!r} at split on {self.covariate!r}")
        return False

    def describe(self) -> str:
        if self.kind == "numeric":
            return f"{self.covariate} <= {self.threshold:g}"
        return f"{self.covariate} in {{{', '.join(sorted(self.left_levels))}}}"


@dataclass
class PLNode:
    node_id: int
    depth: int
    n_groups: int
    group_ids: np.ndarray
    split: Split | None = None
    left: "PLNode | None" = None
    right: "PLNode | None" = None
    fit_result: ModelFit | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class PLTree:
    root: PLNode
    items: tuple[str, ...]
    covariate_names: tuple[str, ...]
    config: TreeConfig

    def leaves(self) -> list[PLNode]:
        out = []

        def walk(node):
            if node.is_leaf:
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out

    def n_leaves(self) -> int:
        return len(self.leaves())

    def objective(self) -> float:
        """Negative log-likelihood summed over leaf fits (data rows only)."""
        return -sum(leaf.fit_result.log_likelihood for leaf in self.leaves())

    def format(self) -> str:
        lines = []

        def walk(node, indent):
            pad = "|   " * indent
            if node.is_leaf:
                names, est = node.fit_result.coef(ref=0)
                coefs = ", ".join(f"{n}={v:.4f}" for n, v in
                                  zip(names[:len(self.items)], est))
                lines.append(f"{pad}[{node.node_id}] leaf: n = {node.n_groups}")
                lines.append(f"{pad}    {coefs}")
            else:
                lines.append(f"{pad}[{node.node_id}] {node.split.describe()} "
                             f"(p = {node.split.p_value:.4g})")
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _contrast_columns(n_real: int, n_params: int, has_ghost: bool) -> np.ndarray:
    """Columns of the full statistic vector kept for score testing: all
    real items except the first (reference), plus tie columns; a ghost
    column is dropped (its per-group score is identically zero)."""
    n_items = n_real + (1 if has_ghost else 0)
    keep = list(range(1, n_real)) + list(range(n_items, n_params))
    return np.array(keep, dtype=np.int64)


def score_contributions(grouped: GroupedRankings, fitted: ModelFit) -> np.ndarray:
    """Per-group sums of (observed - expected) statistic contributions in
    the contrast parameterization, evaluated at the fitted parameters.

    Rows sum to the total data score, which is zero at an unpenalized
    maximum likelihood fit.
    """
    table = grouped.rankings
    d = fitted.max_tie_order
    events = EventSet(table, d, group_index=grouped.group_index,
                      allow_high_tie_orders=True)
    j = fitted.n_real_items
    theta = np.concatenate([fitted.params.log_worth[:j], fitted.params.log_tie])
    scores = events.group_scores(theta)
    keep = _contrast_columns(j, events.n_params, has_ghost=False)
    return scores[:, keep]


def suplm_pvalue(stat: float, dim: int, trim_lo: float = TRIM,
                 trim_hi: float = 1.0 - TRIM) -> float:
    """Tail probability of the supremum over [trim_lo, trim_hi] of the
    squared standardized Brownian bridge ||B(t)||^2 / (t(1-t)) in ``dim``
    dimensions, by the standard boundary-crossing approximation."""
    if stat <= 0 or dim < 1:
        return 1.0
    x = float(stat)
    logfactor = math.log(trim_hi * (1.0 - trim_lo) / (trim_lo * (1.0 - trim_hi)))
    log_lead = (0.5 * dim * math.log(x) - 0.5 * x
                - 0.5 * dim * math.log(2.0) - math.lgamma(0.5 * dim))
    bracket = (1.0 - dim / x) * logfactor + 4.0 / x
    if bracket <= 0:
        return 1.0
    p = math.exp(log_lead + math.log(bracket))
    return float(min(1.0, max(0.0, p)))


def _standardize(scores: np.ndarray) -> tuple[np.ndarray, int]:
    """Center scores and whiten by the outer-product covariance estimate;
    returns the whitened scores and their effective dimension."""
    g = scores.shape[0]
    centered = scores - scores.mean(axis=0)
    cov = centered.T @ centered / g
    evals, evecs = np.linalg.eigh(cov)
    tol = max(cov.shape[0], 1) * np.finfo(float).eps * max(evals.max(initial=0.0), 0.0)
    keep = evals > tol
    dim = int(keep.sum())
    if dim == 0:
        return np.zeros((g, 0)), 0
    white = evecs[:, keep] / np.sqrt(evals[keep])
    return centered @ white, dim


def instability_test(scores: np.ndarray, covariate: Covariate) -> tuple[float, float]:
    """Fluctuation test of the scores along one covariate.

    Numeric: sup-LM over breakpoints with 10% trimming.  Categorical or
    ordinal: chi-squared statistic over within-level score sums.  A
    constant covariate returns (0, 1).
    """
    g = scores.shape[0]
    values = covariate.values
    if len(values) != g:
        raise DataError("covariate length must match the number of groups")
    if len(set(values)) < 2:
        return 0.0, 1.0
    z, dim = _standardize(scores)
    if dim == 0:
        return 0.0, 1.0

    if covariate.kind == "numeric":
        order = np.argsort(np.array(values), kind="stable")
        x = np.array(values)[order]
        process = np.cumsum(z[order], axis=0) / np.sqrt(g)
        i = np.arange(1, g)                     # breakpoint after position i
        t = i / g
        valid = (t >= TRIM) & (t <= 1.0 - TRIM) & (x[:-1] < x[1:])
        if not valid.any():
            return 0.0, 1.0
        norms = np.sum(process[:-1] ** 2, axis=1)
        lm = norms[valid] / (t[valid] * (1.0 - t[valid]))
        stat = float(lm.max())
        return stat, suplm_pvalue(stat, dim)

    levels = covariate.levels()
    if len(levels) > MAX_CATEGORICAL_LEVELS:
        raise DataError(
            f"covariate {covariate.name!r} has {len(levels)} levels; "
            f"at most {MAX_CATEGORICAL_LEVELS} are supported")
    stat = 0.0
    varr = np.array(values, dtype=object)
    for lv in levels:
        mask = varr == lv
        n_l = int(mask.sum())
        c = z[mask].sum(axis=0) / np.sqrt(g)
        stat += float(c @ c) / (n_l / g)
    df = dim * (len(levels) - 1)
    return stat, float(chi2.sf(stat, df))


class _NodeFitter:
    """Shared-geometry child fitting for split search.

    One event structure covers the node's data plus the ghost
    pseudo-rankings; a candidate child is just a re-weighting (its groups'
    event weights plus the full pseudo weights), so the sweep over
    cutpoints refits from warm starts without rebuilding anything.
    """

    def __init__(self, table: RankingsTable, group_index: np.ndarray,
                 config: FitConfig, max_tie_order: int):
        self.config = config
        if config.npseudo > 0:
            aug = augment_with_pseudo_rankings(table, config.npseudo)
            pseudo_mask = np.zeros(aug.n_rows, dtype=bool)
            pseudo_mask[table.n_rows:] = True
            gidx = np.concatenate([group_index, np.ones(2 * table.n_items, dtype=np.int64)])
        else:
            aug = table
            pseudo_mask = None
            gidx = group_index
        self.events = EventSet(aug, max_tie_order, pseudo_mask=pseudo_mask,
                               group_index=gidx,
                               allow_high_tie_orders=config.allow_high_tie_orders)
        # group-resolved data weights/obs exclude pseudo rows by construction
        ev = self.events
        self.group_w = np.asarray(ev.group_event_weights.todense())
        self.group_obs = ev.group_obs
        self.w_pseudo = ev.w_pseudo
        self.obs_pseudo = ev.obs_pseudo
        self.start = None

    def fit_weights(self, w_data: np.ndarray, obs_data: np.ndarray,
                    theta0: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """Maximize with given data weighting; returns (theta, data loglik)."""
        from .fit import _scaling_solve

        w = w_data + self.w_pseudo
        obs = obs_data + self.obs_pseudo
        theta, _, _ = _scaling_solve(self.events, w, obs, self.config, theta0)
        return theta, self.events.loglik(theta, w_data, obs_data)


def best_split(grouped: GroupedRankings, covariate: Covariate,
               config: TreeConfig, fitter: _NodeFitter | None = None,
               max_tie_order: int | None = None):
    """Exhaustive cutpoint scan for one covariate.

    Numeric: midpoints of consecutive distinct sorted values; categorical:
    binary level subsets (ordinal: contiguous only).  Every candidate's
    children are refitted; returns (Split, summed child log-likelihood) or
    None when no candidate satisfies the size constraint.
    """
    table = grouped.rankings
    if max_tie_order is None:
        max_tie_order = table.max_tie_order()
    if fitter is None:
        fitter = _NodeFitter(table, grouped.group_index, config.fit_config,
                             max_tie_order)
    g = grouped.n_groups
    values = covariate.values
    if len(values) != g:
        raise DataError("covariate length must match the number of groups")

    best = None
    theta_warm = None

    def child_objective(left_mask: np.ndarray):
        nonlocal theta_warm
        w_l = left_mask @ fitter.group_w
        o_l = left_mask @ fitter.group_obs
        w_r = fitter.group_w.sum(axis=0) - w_l
        o_r = fitter.group_obs.sum(axis=0) - o_l
        theta_l, ll_l = fitter.fit_weights(w_l, o_l, theta_warm)
        theta_r, ll_r = fitter.fit_weights(w_r, o_r, theta_warm)
        theta_warm = theta_l
        return ll_l + ll_r

    if covariate.kind == "numeric":
        x = np.array(values, dtype=float)
        order = np.argsort(x, kind="stable")
        xs = x[order]
        sizes = np.arange(1, g)
        distinct = xs[:-1] < xs[1:]
        feasible = distinct & (sizes >= config.minsize) & (g - sizes >= config.minsize)
        for i in np.flatnonzero(feasible):
            cut = 0.5 * (xs[i] + xs[i + 1])
            mask = (x <= cut).astype(float)
            obj = child_objective(mask)
            if best is None or obj > best[1] + 1e-12:
                best = (Split(covariate.name, "numeric", threshold=float(cut)), obj)
    else:
        levels = covariate.levels()
        if len(levels) > MAX_CATEGORICAL_LEVELS:
            raise DataError(
                f"covariate {covariate.name!r} has {len(levels)} levels; "
                f"at most {MAX_CATEGORICAL_LEVELS} are supported")
        varr = np.array(values, dtype=object)
        if covariate.kind == "ordinal":
            candidates = [frozenset(levels[:k]) for k in range(1, len(levels))]
        else:
            first, rest = levels[0], levels[1:]
            candidates = [frozenset({first, *extra})
                          for r in range(0, len(rest))
                          for extra in itertools.combinations(rest, r)]
        for subset in candidates:
            mask = np.array([v in subset for v in varr], dtype=float)
            n_l = int(mask.sum())
            if n_l < config.minsize or g - n_l < config.minsize:
                continue
            obj = child_objective(mask)
            if best is None or obj > best[1] + 1e-12:
                split = Split(covariate.name, covariate.kind,
                              left_levels=subset,
                              right_levels=frozenset(levels) - subset)
                best = (split, obj)
    return best


def grow_tree(grouped: GroupedRankings, covariates: CovariateFrame,
              config: TreeConfig | None = None, **overrides) -> PLTree:
    """Grow a partition tree over the groups (see module docstring)."""
    if config is None:
        config = TreeConfig()
    if overrides:
        config = replace(config, **overrides)
    if covariates.n_groups != grouped.n_groups:
        raise DataError("covariate rows must match the number of groups")
    max_tie_order = grouped.rankings.max_tie_order()

    counter = itertools.count(1)

    def build(group_ids: np.ndarray, depth: int) -> PLNode:
        node = PLNode(node_id=next(counter), depth=depth,
                      n_groups=len(group_ids), group_ids=group_ids)
        sub_rows = np.isin(grouped.group_index, group_ids)
        idx = np.flatnonzero(sub_rows)
        table = grouped.rankings
        sub_table = RankingsTable(table.items, table.ranks[idx],
                                  table.weights[idx], table.na_mask[idx])
        # renumber groups 1..g in group_ids order
        remap = {gid: k + 1 for k, gid in enumerate(group_ids)}
        sub_gidx = np.array([remap[gid] for gid in grouped.group_index[idx]],
                            dtype=np.int64)
        sub_grouped = GroupedRankings(sub_table, sub_gidx)
        node_fit = fit(sub_table, config.fit_config)
        node.fit_result = node_fit

        if depth >= config.maxdepth or len(group_ids) < 2 * config.minsize:
            return node
        if config.alpha <= 0.0:
            return node

        scores = score_contributions(sub_grouped, node_fit)
        sub_cov = covariates.subset(np.asarray(group_ids) - 1)
        tests = []
        for cov in sub_cov.covariates:
            stat, p = instability_test(scores, cov)
            tests.append((p, cov.name, stat))
        m = len(tests)
        adjusted = sorted((min(1.0, p * m), name, stat, p)
                          for p, name, stat in tests)
        p_adj, name, stat, p_raw = adjusted[0]
        if p_adj >= config.alpha:
            return node

        fitter = _NodeFitter(sub_table, sub_gidx, config.fit_config, max_tie_order)
        found = best_split(sub_grouped, sub_cov[name], config, fitter,
                           max_tie_order)
        if found is None:
            return node
        split, _ = found
        split = Split(split.covariate, split.kind, split.threshold,
                      split.left_levels, split.right_levels,
                      statistic=stat, p_value=p_adj)

        cov_vals = sub_cov[name].values
        left_local = np.array([split.goes_left(v) for v in cov_vals])
        left_ids = np.asarray(group_ids)[left_local]
        right_ids = np.asarray(group_ids)[~left_local]
        node.split = split
        node.left = build(left_ids, depth + 1)
        node.right = build(right_ids, depth + 1)
        return node

    root = build(np.arange(1, grouped.n_groups + 1), 1)
    return PLTree(root, grouped.rankings.items, tuple(covariates.names()), config)


def predict_node(tree: PLTree, covariate_row: dict):
    """Route one covariate row to its leaf; returns (node id, worths).

    Raises:
        DataError: a split variable is missing or carries an unseen
            category.
    """
    node = tree.root
    while not node.is_leaf:
        name = node.split.covariate
        if name not in covariate_row:
            raise DataError(f"covariate {name!r} required for prediction")
        node = node.left if node.split.goes_left(covariate_row[name]) else node.right
    return node.node_id, node.fit_result.worth()


def tree_to_dict(tree: PLTree) -> dict:
    from .io import MODEL_JSON_VERSION, _fit_to_dict

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
    from .io import _fit_from_dict

    def node_from(nd: dict, depth: int) -> PLNode:
        node = PLNode(node_id=nd["node_id"], depth=depth,
                      n_groups=nd["n_groups"],
                      group_ids=np.zeros(0, dtype=np.int64))
        if "split" in nd:
            s = nd["split"]
            split = Split(s["covariate"], s["kind"], s["threshold"],
                          frozenset(s["left_levels"]) if s["left_levels"] else None,
                          frozenset(s["right_levels"]) if s.get("right_levels") else None,
                          statistic=s["statistic"], p_value=s["p_value"])
            node.split = split
            node.left = node_from(nd["left"], depth + 1)
            node.right = node_from(nd["right"], depth + 1)
        else:
            node.fit_result = _fit_from_dict(nd["fit"])
        return node

    config = TreeConfig(minsize=d["minsize"], maxdepth=d["maxdepth"],
                        alpha=d["alpha"])
    return PLTree(node_from(d["root"], 1), tuple(d["items"]),
                  tuple(d["covariates"]), config)


def write_tree_plot_csv(tree: PLTree, path) -> None:
    """Per-leaf worth estimates (log contrasts against the first item),
    one row per (leaf, item), for external dot-chart plotting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "n_groups", "item", "log_worth", "worth"])
        for leaf in tree.leaves():
            names, est = leaf.fit_result.coef(ref=0)
            worths = leaf.fit_result.worth()
            for item, lw, wv in zip(names, est, worths):
                writer.writerow([leaf.node_id, leaf.n_groups, item,
                                 format(lw, ".17g"), format(wv, ".17g")])
