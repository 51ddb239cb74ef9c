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
A tree compiles its rankings once, with the tree's tie order; a node's
fit, scores and candidate children all re-weight that one event structure
by their groups' sums.  The children of all candidate splits of a node are
solved as the columns of one iterative-scaling problem, each started from
the node's fit.  A candidate with a child whose fit does not exist is
skipped, not fatal.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.special import chdtrc

from .errors import DataError, ModelError
from .fit import (FitConfig, ModelFit, _compile, _fit_events, _iterative_scaling,
                  _scaling_solve)
from .likelihood import EventSet
from .rankings import GroupedRankings

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
            values = tuple(float(v) for v in self.values)
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"numeric covariate {self.name!r} has a "
                                "missing or infinite value")
            object.__setattr__(self, "values", values)
        else:
            object.__setattr__(self, "values",
                               tuple(str(v) for v in self.values))

    def levels(self) -> list[str]:
        """Distinct values in string order; an ordinal covariate whose levels
        are all finite numbers has them in numeric order."""
        levels = sorted(set(self.values))
        if len(levels) > MAX_CATEGORICAL_LEVELS:
            raise DataError(
                f"covariate {self.name!r} has {len(levels)} levels; "
                f"at most {MAX_CATEGORICAL_LEVELS} are supported")
        if self.kind == "ordinal":
            try:
                if all(math.isfinite(float(lv)) for lv in levels):
                    levels.sort(key=float)
            except ValueError:
                pass
        return levels


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
    n_inadmissible: int = 0     # candidate splits whose child fit did not exist
    n_unconverged: int = 0      # candidate child fits that missed tol
    stop_reason: str | None = None

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


def score_contributions(grouped: GroupedRankings, fitted: ModelFit) -> np.ndarray:
    """Per-group sums of (observed - expected) statistic contributions in
    the contrast parameterization, evaluated at the fitted parameters.

    Rows sum to the total data score, which is zero at an unpenalized
    maximum likelihood fit.

    Raises:
        DataError: ``fitted`` is a fit of other items than the table's.
    """
    if fitted.items != grouped.rankings.items:
        raise DataError("the fit is of other items than the rankings")
    events = EventSet(grouped.rankings, fitted.max_tie_order, fitted.npseudo, grouped.group_index)
    return _node_scores(events, fitted, slice(None))


def _node_scores(events: EventSet, fitted: ModelFit, rows) -> np.ndarray:
    """Score contributions of groups ``rows`` of ``events`` at ``fitted``,
    without the reference (first) item and the ghost."""
    keep = np.r_[1:fitted.n_real_items, events.n_items:events.n_params]
    return events.group_scores(fitted.params.theta())[rows][:, keep]


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
    stat = 0.0
    varr = np.array(values, dtype=object)
    for lv in levels:
        mask = varr == lv
        n_l = int(mask.sum())
        c = z[mask].sum(axis=0) / np.sqrt(g)
        stat += float(c @ c) / (n_l / g)
    df = dim * (len(levels) - 1)
    return stat, float(chdtrc(df, stat))


# Candidate children are solved in blocks of columns; the working arrays
# of a block hold about this many values (128 KB) of the engine's cells.
_BLOCK_CELLS = 1 << 14


def best_split(grouped: GroupedRankings, covariate: Covariate,
               config: TreeConfig, *, tally: dict | None = None):
    """Exhaustive cutpoint scan for one covariate.

    Numeric: midpoints of consecutive distinct sorted values; categorical:
    binary level subsets (ordinal: contiguous only).  Every candidate's
    two children are refitted at the table's tie order, all at once: each
    child re-weights one shared event structure (its groups' event weights
    and observed statistics, plus every pseudo-comparison with the ghost
    item at its full weight), as every node of a tree does, and the
    children are solved as the columns of one iterative-scaling problem,
    every column started from the pooled fit.  A candidate whose child has
    no scaling update (an item without wins or tie credit) is inadmissible
    and skipped.

    Returns (Split, summed child log-likelihood) or None when no candidate
    satisfies the size constraint and is admissible.  If ``tally`` is a
    dict it receives the counts of ``inadmissible`` candidates and of
    ``unconverged`` child fits among the admissible ones.

    Raises:
        DataError: a covariate not of one value per group, or no usable rankings.
    """
    table = grouped.rankings
    fit_config = config.fit_config
    if len(covariate.values) != grouped.n_groups:
        raise DataError("covariate length must match the number of groups")
    events = _compile(table, fit_config, grouped.group_index)
    found, inadmissible, unconverged = _split_node(
        events, slice(None), covariate, config, _iterative_scaling(events, fit_config)[0])
    if tally is not None:
        tally.update(inadmissible=inadmissible, unconverged=unconverged)
    return found


def _split_node(events: EventSet, rows, covariate: Covariate, config: TreeConfig,
                start: np.ndarray):
    """:func:`best_split` of the node made of groups ``rows`` of ``events``,
    whose values of ``covariate`` are given, every child started from the
    node's pooled fit ``start``; returns the best split (or None) and the
    counts of inadmissible candidates and of unconverged admissible children.
    Candidates are solved a block at a time, left children first."""
    # per-group data, one row per group: event weights, then observed statistics
    stats = sp.hstack([events.group_event_weights[rows], sp.csr_matrix(events.group_obs[rows])],
                      format="csr")
    splits, child_sums = _candidates(covariate, config.minsize, stats)
    n_cand, n_events = len(splits), events.n_events
    per_block = max(1, _BLOCK_CELLS // (2 * max(events.n_cells, 1)))
    objective = np.empty(n_cand)
    admissible = np.empty(n_cand, dtype=bool)
    unconverged = 0
    for lo in range(0, n_cand, per_block):
        cand = np.arange(lo, min(lo + per_block, n_cand))
        data = np.vstack(child_sums(cand)).T
        w, obs = data[:n_events], data[n_events:]
        theta, converged, _, failed = _scaling_solve(
            events, w + events.w_pseudo[:, None], obs + events.obs_pseudo[:, None],
            config.fit_config, start)
        ll = events.loglik(theta, w, obs)
        b = cand.size
        objective[cand] = ll[:b] + ll[b:]
        ok = ~(failed[:b] | failed[b:])
        admissible[cand] = ok
        unconverged += int((~converged[:b] & ok).sum() + (~converged[b:] & ok).sum())
    best = None
    for split, obj, ok in zip(splits, objective, admissible):
        if ok and (best is None or obj > best[1] + 1e-12 * abs(best[1])):
            best = (split, float(obj))
    return best, int((~admissible).sum()), unconverged


def _candidates(covariate: Covariate, minsize: int, stats):
    """Candidate splits on one covariate with at least ``minsize`` groups
    on each side, and ``child_sums(rows)``: the left and right child sums
    of the per-group rows of ``stats`` for candidates ``rows``."""
    values = covariate.values
    g = len(values)
    if covariate.kind == "numeric":
        x = np.array(values, dtype=float)
        order = np.argsort(x, kind="stable")
        xs = x[order]
        sizes = np.arange(1, g)
        cuts = np.flatnonzero((xs[:-1] < xs[1:]) & (sizes >= minsize)
                              & (g - sizes >= minsize))
        splits = [Split(covariate.name, "numeric", threshold=float(0.5 * (xs[i] + xs[i + 1])))
                  for i in cuts]
        prefix = stats[order].toarray()
        last = g - 1 - np.argmax(prefix[::-1] != 0, axis=0)    # last contributing group
        np.cumsum(prefix, axis=0, out=prefix)

        def child_sums(rows):
            left = prefix[cuts[rows]]
            # total minus left, exactly zero where no later group contributes
            right = np.where(cuts[rows, None] >= last, 0.0, prefix[-1] - left)
            return left, right
        return splits, child_sums

    levels = covariate.levels()
    if covariate.kind == "ordinal":
        subsets = [frozenset(levels[:k]) for k in range(1, len(levels))]
    else:
        first, rest = levels[0], levels[1:]
        subsets = [frozenset({first, *extra})
                   for r in range(0, len(rest))
                   for extra in itertools.combinations(rest, r)]
    code_of = {lv: k for k, lv in enumerate(levels)}
    codes = np.array([code_of[v] for v in values], dtype=np.int64)
    in_left = np.array([[lv in s for lv in levels] for s in subsets],
                       dtype=bool).reshape(len(subsets), len(levels))
    n_left = in_left @ np.bincount(codes, minlength=len(levels))
    keep = (n_left >= minsize) & (g - n_left >= minsize)
    splits = [Split(covariate.name, covariate.kind, left_levels=s,
                    right_levels=frozenset(levels) - s)
              for s, k in zip(subsets, keep) if k]
    in_left = in_left[keep]
    level_of = sp.csr_matrix((np.ones(g), (codes, np.arange(g))), shape=(len(levels), g))
    per_level = (level_of @ stats).toarray()

    def child_sums(rows):
        return in_left[rows] @ per_level, ~in_left[rows] @ per_level
    return splits, child_sums


def grow_tree(grouped: GroupedRankings, covariates: CovariateFrame,
              config: TreeConfig | None = None, **overrides) -> PLTree:
    """Grow a partition tree over the groups (see module docstring).

    Raises:
        ModelError: the pooled fit of the root fails.  A node whose chosen
            split has a child that cannot be fitted stays a leaf, with the
            reason in its ``stop_reason``.
    """
    if config is None:
        config = TreeConfig()
    if overrides:
        config = replace(config, **overrides)
    if covariates.n_groups != grouped.n_groups:
        raise DataError("covariate rows must match the number of groups")
    table = grouped.rankings
    events = _compile(table, config.fit_config, grouped.group_index)
    counter = itertools.count(1)

    def node_fit(group_ids: np.ndarray) -> ModelFit:
        mask = np.zeros(grouped.n_groups, dtype=bool)
        mask[group_ids - 1] = True
        return _fit_events(table.items, events.for_groups(mask), config.fit_config)

    def build(group_ids: np.ndarray, depth: int, fitted: ModelFit) -> PLNode:
        node = PLNode(node_id=next(counter), depth=depth,
                      n_groups=len(group_ids), group_ids=group_ids,
                      fit_result=fitted)
        if depth >= config.maxdepth:
            node.stop_reason = "maximum depth"
            return node
        if len(group_ids) < 2 * config.minsize:
            node.stop_reason = "too few groups to split"
            return node
        if config.alpha <= 0.0:
            node.stop_reason = "alpha is zero"
            return node

        rows = group_ids - 1
        scores = _node_scores(events, fitted, rows)
        sub_cov = covariates.subset(rows)
        tests = [(cov.name, *instability_test(scores, cov)) for cov in sub_cov.covariates]
        # the smallest Bonferroni-adjusted p value, ties broken by name
        p_adj, name, stat = min((min(1.0, p * len(tests)), name, stat)
                                for name, stat, p in tests)
        if p_adj >= config.alpha:
            node.stop_reason = "no significant instability"
            return node

        found, node.n_inadmissible, node.n_unconverged = _split_node(
            events, rows, sub_cov[name], config, fitted.params.theta())
        if found is None:
            node.stop_reason = f"no admissible split on {name!r}"
            return node
        split = replace(found[0], statistic=stat, p_value=p_adj)

        left_local = np.array([split.goes_left(v) for v in sub_cov[name].values])
        children = []
        for ids in (group_ids[left_local], group_ids[~left_local]):
            try:
                children.append((ids, node_fit(ids)))
            except ModelError as exc:
                node.stop_reason = f"child of {split.describe()} cannot be fitted: {exc}"
                return node
        node.split = split
        node.left, node.right = (build(ids, depth + 1, child_fit)
                                 for ids, child_fit in children)
        return node

    root = build(np.arange(1, grouped.n_groups + 1), 1,
                 _fit_events(table.items, events, config.fit_config))
    return PLTree(root, table.items, tuple(covariates.names()), config)


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
