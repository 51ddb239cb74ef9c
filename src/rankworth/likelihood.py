"""Probability model for rankings with ties.

A ranking is a sequence of choice events: at each stage a set C is chosen
from the remaining alternatives A.  The strength of a candidate set S is

    f(S) = delta_{|S|} * (prod_{i in S} alpha_i)^(1/|S|),

with delta_1 = 1, and the stage probability is f(C) divided by the sum of
f(S) over every subset S of A with 1 <= |S| <= min(|A|, D).  Stages with a
single remaining item have probability one and are skipped throughout.

All strengths are evaluated in log space and denominators use log-sum-exp,
so extreme worth spreads stay finite.  :class:`EventSet` is the one
evaluator of the likelihood, its gradient and its information; fitting,
inference and trees all run on it.  The test suite checks it against
plain-arithmetic brute-force oracles.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .rankings import RankingsTable, _stages

__all__ = [
    "MAX_TIE_ORDER",
    "Parameters",
    "EventSet",
]

# Subset enumeration grows as C(|A|, k); beyond 4-way ties the model is not
# practical and the builder refuses unless explicitly overridden.
MAX_TIE_ORDER = 4


@dataclass(frozen=True)
class Parameters:
    """Model parameters on the log scale.

    ``log_worth`` has one entry per item (the ghost, when present, comes
    last); ``log_tie`` holds log(delta_n) for n = 2..D.  The
    implied maximum tie order is ``D = len(log_tie) + 1``.
    """

    log_worth: np.ndarray
    log_tie: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_worth", np.asarray(self.log_worth, dtype=np.float64))
        object.__setattr__(self, "log_tie", np.asarray(self.log_tie, dtype=np.float64))

    @property
    def n_items(self) -> int:
        return self.log_worth.shape[0]

    @property
    def max_tie_order(self) -> int:
        return self.log_tie.shape[0] + 1

    def theta(self) -> np.ndarray:
        """Concatenated parameter vector (log worths, then log ties)."""
        return np.concatenate([self.log_worth, self.log_tie])

    @classmethod
    def from_theta(cls, theta: np.ndarray, n_items: int) -> "Parameters":
        return cls(theta[:n_items], theta[n_items:])

    @classmethod
    def uniform(cls, n_items: int, max_tie_order: int = 1,
                tie_start: float = 0.1) -> "Parameters":
        return cls(np.full(n_items, -np.log(n_items)),
                   np.full(max_tie_order - 1, np.log(tie_start)))


class EventSet:
    """Flat, deduplicated representation of all choice events of a table.

    Events are unique alternative sets A (stages sharing the same A are
    merged, accumulating weight), numbered by first occurrence; each
    event's admissible subsets are enumerated once into flat arrays.  The
    table is read once, as array code over its stages, which also give the
    observed statistics and the win/loss counts.  Log-strengths of all
    subsets are a single sparse matrix-vector product ``B @ theta``, where
    theta is the concatenated (log worth, log tie) vector, which makes
    log-likelihood, expected statistics and the information matrix cheap to
    evaluate for arbitrary event weightings (a tree compiles once and views
    each node as a re-weighting by its groups, see :meth:`for_groups`).

    With ``npseudo > 0`` a ghost item is parameter J, after the J items.
    Its pseudo-comparisons "i beats ghost" and "ghost beats i" (weight
    ``npseudo`` each) are J fixed events {i, ghost} after the data events,
    in item order: weight 2 * npseudo each, observed credit npseudo for
    every item and J * npseudo for the ghost.

    Attributes:
        w_data / w_pseudo: per-event weight from table rows / pseudo-comparisons.
        obs_data / obs_pseudo: observed sufficient statistics from each.
        noutcomes: possible outcomes per event.
        weight_scale: mean weight of the rows that give events (1 if none).
        win_counts: (J, J) weighted counts of the real items' wins,
            ``win_counts[i, j]`` the weight of the rows ranking item i
            strictly above item j (the win/loss network of
            :func:`rankworth.network.adjacency`).
        group_event_weights / group_obs / group_win_counts: with
            ``group_index``, the same per group, as a sparse (G, E), a dense
            (G, P) and a sparse (G, J * J) matrix.
    """

    def __init__(self, table: RankingsTable, max_tie_order: int,
                 npseudo: float = 0.0, group_index=None,
                 allow_high_tie_orders: bool = False):
        if max_tie_order > MAX_TIE_ORDER and not allow_high_tie_orders:
            raise DataError(
                f"ties up to order {max_tie_order} requested; orders above "
                f"{MAX_TIE_ORDER} must be enabled explicitly")
        if npseudo < 0:
            raise DataError("npseudo must be non-negative")
        self.n_items = table.n_items + (npseudo > 0)
        self.max_tie_order = max_tie_order
        self.n_params = self.n_items + (max_tie_order - 1)

        # the stage arrays are freed before the subsets are enumerated
        self._build_subsets(self._read_stages(table, npseudo, group_index))

    def _read_stages(self, table: RankingsTable, npseudo: float, group_index) -> np.ndarray:
        """Set the event weights, observed statistics and win counts from the
        table's stages; return the (E, n_items) masks of the events' items."""
        n_real, n_items, n_params = table.n_items, self.n_items, self.n_params
        st = _stages(table)
        size = st.chosen.sum(axis=1)
        too_big = np.flatnonzero(size > self.max_tie_order)
        if too_big.size:
            s = too_big[0]
            raise DataError(f"row {st.row[s]} has a tie of order {size[s]}, "
                            f"above the limit {self.max_tie_order}")
        # deduplicate alternative sets, numbering them by first occurrence
        keys = np.packbits(st.alts, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        event = np.argsort(by_first)[inverse]
        n_data_events = by_first.size
        members = np.zeros((n_data_events + (npseudo > 0) * n_real, n_items), dtype=bool)
        members[:n_data_events, :n_real] = st.alts[first[by_first]]

        # observed statistics: 1/|C| credit to each chosen item, one count
        # of each tie; item and tie entries fill disjoint bins, each in stage order
        c_stage, c_item = np.nonzero(st.chosen)
        tied = np.flatnonzero(size >= 2)
        obs_stage = np.concatenate([c_stage, tied])
        obs_idx = np.concatenate([c_item, n_items + size[tied] - 2])
        obs_val = np.concatenate([st.weight[c_stage] / size[c_stage], st.weight[tied]])

        rows = np.unique(st.row)
        self.weight_scale = float(np.mean(table.weights[rows])) if rows.size else 1.0
        self.obs_pseudo = np.zeros(n_params)
        if npseudo > 0:
            # event {i, ghost} for each item i
            members[n_data_events:] = np.eye(n_real, n_items, dtype=bool)
            members[n_data_events:, n_real] = True
            self.obs_pseudo[:n_real] = npseudo
            # summed one by one as over table rows: J * npseudo may differ in the last bit
            for _ in range(n_real):
                self.obs_pseudo[n_real] += npseudo
        self.n_events = len(members)
        self.w_data = np.bincount(event, weights=st.weight, minlength=self.n_events)
        self.obs_data = np.bincount(obs_idx, weights=obs_val, minlength=n_params)
        self.w_pseudo = np.zeros(self.n_events)
        self.w_pseudo[n_data_events:] = 2.0 * npseudo
        self.win_counts = st.win_counts()
        if group_index is not None:
            n_groups = int(group_index.max())
            group = group_index[st.row] - 1
            self.group_event_weights = sp.csr_matrix(
                (st.weight, (group, event)), shape=(n_groups, self.n_events))
            self.group_obs = np.bincount(
                group[obs_stage] * n_params + obs_idx, weights=obs_val,
                minlength=n_groups * n_params).reshape(n_groups, n_params)
            win_stage, win = (np.concatenate(a) for a in zip(*st.wins()))
            self.group_win_counts = sp.csr_matrix(
                (st.weight[win_stage], (group[win_stage], win)),
                shape=(n_groups, n_real * n_real))
        return members

    def _build_subsets(self, members: np.ndarray) -> None:
        D = self.max_tie_order
        sizes = members.sum(axis=1)
        self.ev_sizes = sizes

        blocks_event: list[np.ndarray] = []
        blocks_items: list[np.ndarray] = []                 # (n_b, k) each
        for m in np.unique(sizes):
            m = int(m)
            idx = np.flatnonzero(sizes == m)
            amat = np.nonzero(members[idx])[1].reshape(idx.size, m)
            for k in range(1, min(m, D) + 1):
                tmpl = np.array(list(itertools.combinations(range(m), k)), dtype=np.int64)
                items = amat[:, tmpl]                       # (n_m, ncomb, k)
                blocks_items.append(items.reshape(-1, k))
                blocks_event.append(np.repeat(idx, tmpl.shape[0]))

        sub_event = np.concatenate(blocks_event) if blocks_event else np.zeros(0, dtype=np.int64)
        order = np.argsort(sub_event, kind="stable")
        self.sub_event = sub_event[order]
        n_sub = self.sub_event.shape[0]
        self.n_subsets = n_sub

        # invert the sort permutation to place per-block data
        inv = np.empty(n_sub, dtype=np.int64)
        inv[order] = np.arange(n_sub)

        rows, cols, vals = [], [], []
        offset = 0
        for b in blocks_items:
            n_b, k = b.shape
            rows.append(np.repeat(inv[offset:offset + n_b], k))
            cols.append(b.reshape(-1))
            vals.append(np.full(n_b * k, 1.0 / k))
            if k >= 2:
                rows.append(inv[offset:offset + n_b])
                cols.append(np.full(n_b, self.n_items + k - 2, dtype=np.int64))
                vals.append(np.ones(n_b))
            offset += n_b
        if rows:
            self.B = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n_sub, self.n_params))
        else:
            self.B = sp.csr_matrix((0, self.n_params))

        # every admissible subset is a possible outcome of its event
        self.noutcomes = np.bincount(self.sub_event, minlength=self.n_events)
        self.ev_ptr = np.concatenate([[0], np.cumsum(self.noutcomes)]).astype(np.int64)
        # event aggregation matrix: rows = events, cols = subsets
        self.agg = sp.csr_matrix(
            (np.ones(n_sub), (self.sub_event, np.arange(n_sub))),
            shape=(self.n_events, n_sub))

    # -- weights ------------------------------------------------------

    @property
    def w_total(self) -> np.ndarray:
        return self.w_data + self.w_pseudo

    @property
    def obs_total(self) -> np.ndarray:
        return self.obs_data + self.obs_pseudo

    def for_groups(self, mask: np.ndarray) -> "EventSet":
        """A view sharing all structure, whose ``w_data``, ``obs_data`` and
        ``win_counts`` are the sums over the groups in boolean ``mask`` (needs ``group_index``);
        pseudo events and ``weight_scale`` stay those of the whole set."""
        view = copy.copy(self)
        view.w_data = np.asarray(self.group_event_weights[mask].sum(axis=0)).ravel()
        view.obs_data = self.group_obs[mask].sum(axis=0)
        view.win_counts = np.asarray(self.group_win_counts[mask].sum(axis=0)).reshape(
            self.win_counts.shape)
        return view

    def df_outcomes(self) -> float:
        """Sum over data events of weight * (possible outcomes - 1)."""
        return float(self.w_data @ (self.noutcomes - 1))

    # -- evaluation ---------------------------------------------------

    # Evaluation takes one parameter vector theta (P,) with event weights
    # (E,) and observed statistics (P,), or C columns of each: theta
    # (P, C), weights (E, C), obs (P, C), evaluated column by column.  A
    # single column takes the 1-D path, which is faster and keeps its
    # arithmetic.

    def _log_denominators(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logf = self.B @ theta
        if self.n_events == 0:
            return logf, np.zeros((0,) + theta.shape[1:])
        m = np.maximum.reduceat(logf, self.ev_ptr[:-1])
        shifted = np.exp(logf - m[self.sub_event])
        denom = np.add.reduceat(shifted, self.ev_ptr[:-1])
        return logf, m + np.log(denom)

    def loglik(self, theta: np.ndarray, weights: np.ndarray, obs: np.ndarray):
        """Log-likelihood: a float, or one value per column."""
        if theta.ndim == 2 and theta.shape[1] == 1:
            return np.array([self.loglik(theta[:, 0], weights[:, 0], obs[:, 0])])
        _, logden = self._log_denominators(theta)
        if theta.ndim == 1:
            return float(obs @ theta - weights @ logden)
        return np.sum(obs * theta, axis=0) - np.sum(weights * logden, axis=0)

    def outcome_probs(self, theta: np.ndarray) -> np.ndarray:
        logf, logden = self._log_denominators(theta)
        return np.exp(logf - logden[self.sub_event])

    def expected(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Expected sufficient statistics under event ``weights``."""
        if theta.ndim == 2 and theta.shape[1] == 1:
            return self.expected(theta[:, 0], weights[:, 0])[:, None]
        p = self.outcome_probs(theta)
        return self.B.T @ (weights[self.sub_event] * p)

    def gradient(self, theta: np.ndarray, weights: np.ndarray, obs: np.ndarray) -> np.ndarray:
        return obs - self.expected(theta, weights)

    def information(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Observed information (= negative Hessian) of the log-likelihood
        in the full theta parameterization; a sum of per-event outcome
        covariances, hence symmetric positive semidefinite."""
        p = self.outcome_probs(theta)
        full = (self.B.multiply((weights[self.sub_event] * p)[:, None])).T @ self.B
        means = self._event_means(p)
        return full.toarray() - means.T @ (weights[:, None] * means)

    def group_scores(self, theta: np.ndarray) -> np.ndarray:
        """Per-group (observed - expected) statistic vectors at ``theta``.

        Requires the structure to have been built with ``group_index``.
        """
        return self.group_obs - self.group_event_weights @ self._event_means(
            self.outcome_probs(theta))

    def _event_means(self, p: np.ndarray) -> np.ndarray:
        """(E, P) expected statistics of each event, of weight one, under
        outcome probabilities ``p``."""
        return (self.agg @ self.B.multiply(p[:, None])).toarray()
