"""Probability model for rankings with ties.

A ranking is a sequence of choice events: at each stage a set C is chosen
from the remaining alternatives A.  The strength of a candidate set S is

    f(S) = delta_{|S|} * (prod_{i in S} alpha_i)^(1/|S|),

with delta_1 = 1, and the stage probability is f(C) divided by the sum of
f(S) over every subset S of A with 1 <= |S| <= min(|A|, D).  Stages with a
single remaining item have probability one and are skipped throughout.

No subset is listed, so ties of any order fit: the size-k subsets of A sum
to delta_k * e_k(alpha^(1/k)), e_k the k-th elementary symmetric polynomial
(Baker & Harwell 1996, Appl. Psych. Meas. 20) of worths shifted by their
event's largest.  :class:`EventSet` is the one evaluator of the likelihood,
its gradient and its information, checked against brute-force oracles.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .rankings import RankingsTable, _stages

__all__ = ["Parameters", "EventSet"]


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
    merged, accumulating weight), numbered by first occurrence and read
    once, with the observed statistics and win/loss counts, from the
    table's stages.  Their items are laid out flat, one slot per item:
    order 1 of a normalizer is a log-sum-exp over slots, and for D > 1 the
    tie orders are ESPs over a padded (max |A|, E) index into the slots.
    A slot's credit leaves it out (prefix ESPs, one running suffix row); the
    evaluation with credits is kept, reused only for a theta equal bit for bit.
    A tree views each node as a re-weighting by groups (:meth:`for_groups`).

    With ``npseudo > 0`` a ghost item is parameter J, after the J items.
    Its pseudo-comparisons "i beats ghost" and "ghost beats i" (weight
    ``npseudo`` each) are J fixed events {i, ghost} after the data events,
    in item order: weight 2 * npseudo each, observed credit npseudo for
    every item and J * npseudo for the ghost.

    Attributes:
        w_data / w_pseudo: per-event weight from table rows / pseudo-comparisons.
        obs_data / obs_pseudo: observed sufficient statistics from each.
        slot_event / slot_item, ev_sizes: event and item of every slot; |A|.
        noutcomes: possible outcomes (admissible subsets) of each event,
            never listed; ``n_subsets`` is their sum.
        n_cells: values per column in one evaluation's working arrays.
        weight_scale: mean weight of the rows that give events (1 if none).
        win_counts: (J, J) weighted counts of the real items' wins,
            ``win_counts[i, j]`` the weight of the rows ranking item i
            strictly above item j, summed in row order (the win/loss
            network of :func:`rankworth.network.adjacency`).
        group_event_weights / group_obs / group_win_counts: with
            ``group_index``, the same per group, as a sparse (G, E), a dense
            (G, P) and a sparse (G, J * J) matrix (the last is None without).
    """

    def __init__(self, table: RankingsTable, max_tie_order: int,
                 npseudo: float = 0.0, group_index=None):
        if not (np.isfinite(npseudo) and npseudo >= 0):
            raise DataError(f"npseudo must be finite and non-negative, not {npseudo}")
        self.n_items = table.n_items + (npseudo > 0)
        self.max_tie_order = max_tie_order
        self.n_params = self.n_items + (max_tie_order - 1)

        # the stage arrays are freed before the slots are laid out
        members = self._read_stages(table, npseudo, group_index)
        self.slot_event, self.slot_item = np.nonzero(members)
        n, n_events, self.ev_sizes = self.slot_item.size, self.n_events, members.sum(axis=1)
        self._ev_first = np.cumsum(self.ev_sizes) - self.ev_sizes
        self._item_sums = sp.csr_matrix((np.ones(n), (self.slot_item, np.arange(n))),
                                        shape=(self.n_items, n))
        width = int(self.ev_sizes.max(initial=0))
        outcomes = [sum(math.comb(m, k) for k in range(1, min(m, max_tie_order) + 1))
                    for m in range(width + 1)]
        self.noutcomes = np.array(outcomes, float)[self.ev_sizes]
        self.n_subsets = int(self.noutcomes.sum())
        self.n_cells = n + (max_tie_order > 1) * (width + 3) * (max_tie_order + 1) * n_events
        if max_tie_order > 1:
            # the slot of each event's i-th item (slot n pads), and each slot's cell
            pos = np.arange(n) - self._ev_first[self.slot_event]
            self._pad = np.full((width, n_events), n)
            self._pad[pos, self.slot_event] = np.arange(n)
            self._cell = pos * n_events + self.slot_event
        self._memo = (None, None)  # (theta's shape and bytes, its evaluation)

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
        # deduplicate alternative sets, numbering them by first occurrence:
        # a stable sort of the packed sets puts each set's first stage first
        keys = np.packbits(st.alts, axis=1)
        order = np.lexsort(keys.T[::-1])
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
        first = order[starts]
        by_first = np.argsort(first)
        event = np.empty_like(order)
        event[order] = np.argsort(by_first)[np.cumsum(starts) - 1]
        n_data_events = first.size
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
        group, n_groups = None, 1
        if group_index is not None:
            n_groups = int(group_index.max())
            group = group_index[st.row] - 1
            self.group_event_weights = sp.csr_matrix(
                (st.weight, (group, event)), shape=(n_groups, self.n_events))
            self.group_obs = np.bincount(
                group[obs_stage] * n_params + obs_idx, weights=obs_val,
                minlength=n_groups * n_params).reshape(n_groups, n_params)
        self.win_counts, self.group_win_counts = st.win_counts(group, n_groups)
        return members

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

    # theta (P,), weights (E,) and obs (P,), or C columns of each; sums run in one
    # order, so a column gives exactly the numbers of a 1-D call (faster for C = 1).

    def _log_denominators(self, theta: np.ndarray, credits: bool = False):
        """Every event's log normalizer (E, ...) at theta (P, ...).  With
        ``credits``, also each slot's expected credit (N, ...), each event's
        tie-order probabilities (E, D - 1, ...), and per order k the slots'
        credit from k-item outcomes, with, for k >= 2, the padded shifted
        worths to the power 1/k and delta_k over the shifted normalizer."""
        shifted = theta[self.slot_item]
        top = np.maximum.reduceat(shifted, self._ev_first)
        shifted -= np.repeat(top, self.ev_sizes, axis=0)
        ext = (np.concatenate([shifted, np.full((1,) + theta.shape[1:], -np.inf)])
               if self.max_tie_order > 1 else None)
        first = np.exp(shifted, out=shifted)
        logs, loos = [np.log(np.add.reduceat(first, self._ev_first))], []
        with np.errstate(divide="ignore", invalid="ignore"):  # ESPs may underflow to 0
            for k in range(2, self.max_tie_order + 1):
                z = np.exp(ext / k)[self._pad]
                pre = _esp_prefixes(z, k)
                logs.append(theta[self.n_items + k - 2] + np.log(pre[-1, k]))
                loos.append((k, z, _leave_one_out(z, k - 1, pre) if credits else None))
                del pre  # freed before the next order's table is built
            rel = np.logaddexp.reduce(logs) if loos else logs[0]
        if not credits:
            return top + rel
        first *= np.repeat(np.exp(-rel), self.ev_sizes, axis=0)
        orders = [(1, first, None, None)]
        for k, z, loo in loos:
            scale = np.exp(theta[self.n_items + k - 2] - rel)
            share = (scale / k * z * loo).reshape((-1,) + theta.shape[1:])[self._cell]
            orders.append((k, share, z, scale))
        ties = np.exp(np.stack(logs, axis=1)[:, 1:] - rel[:, None])
        return top + rel, sum((share for _, share, *_ in orders[1:]), first), ties, orders

    def _evaluation(self, theta: np.ndarray, credits: bool = True):
        """:meth:`_log_denominators` at theta; with credits, kept for a theta equal bit for bit."""
        if self._memo[0] != (key := (theta.shape, theta.tobytes())):
            if not credits:
                return self._log_denominators(theta)
            # kept until the new one is built: freed first, malloc trims and re-faults it
            self._memo = (key, self._log_denominators(theta, credits=True))
        return self._memo[1] if credits else self._memo[1][0]

    def _means(self, credit: np.ndarray, ties: np.ndarray) -> np.ndarray:
        """(E, P) expected statistics of each event of weight one."""
        means = np.zeros((self.n_events, self.n_params))
        means[self.slot_event, self.slot_item] = credit
        means[:, self.n_items:] = ties
        return means

    def loglik(self, theta: np.ndarray, weights: np.ndarray, obs: np.ndarray):
        """Log-likelihood: a float, or one value per column."""
        if theta.ndim == 2 and theta.shape[1] == 1:
            return np.array([self.loglik(theta[:, 0], weights[:, 0], obs[:, 0])])
        return _loglik(theta, weights, obs, self._evaluation(theta, credits=False))

    def expected(self, theta: np.ndarray, weights: np.ndarray, obs: np.ndarray | None = None):
        """Expected sufficient statistics under event ``weights``; with
        ``obs``, the pair (expected, :meth:`loglik`) from one evaluation of
        the normalizers, each exactly as the separate calls give it."""
        if theta.ndim == 2 and theta.shape[1] == 1:
            out = self.expected(theta[:, 0], weights[:, 0], None if obs is None else obs[:, 0])
            return out[:, None] if obs is None else (out[0][:, None], np.array([out[1]]))
        logden, credit, ties, _ = self._evaluation(theta)
        exp = np.concatenate([
            self._item_sums @ (np.repeat(weights, self.ev_sizes, axis=0) * credit),
            _total(weights[:, None] * ties)])
        return exp if obs is None else (exp, _loglik(theta, weights, obs, logden))

    def gradient(self, theta: np.ndarray, weights: np.ndarray, obs: np.ndarray) -> np.ndarray:
        return obs - self.expected(theta, weights)

    def information(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Observed information (= negative Hessian) of the log-likelihood at
        theta (1-D): a sum of per-event outcome covariances, symmetric positive
        semidefinite.  At D > 1 item pairs run over each event's slot pairs a < b,
        one offset b - a per bincount, ESPs without a and b downdated from a's."""
        j, n = self.n_items, self.slot_item.size
        _, credit, ties, orders = self._evaluation(theta)
        ws = np.repeat(weights, self.ev_sizes)
        square = sum(share / k for k, share, *_ in orders)
        if self.max_tie_order == 1:
            means = self._means(credit, ties)
            return np.diag(self._item_sums @ (ws * square)) - means.T @ (weights[:, None] * means)
        info = np.diag(np.concatenate([self._item_sums @ (ws * (square - credit * credit)),
                                       _total(weights[:, None] * ties)]))
        info[j:, j:] -= ties.T @ (weights[:, None] * ties)
        per_slot = []  # per order k >= 2: delta_k / k^2 over the normalizer, z, L[1..k-2]
        for k, share, z, scale in orders[1:]:
            info[:j, j + k - 2] = info[j + k - 2, :j] = self._item_sums @ (ws * (
                share - credit * np.repeat(ties[:, k - 2], self.ev_sizes)))
            loo = [z] + [_leave_one_out(z, r) for r in range(1, k - 1)]
            per_slot.append([np.repeat(scale / k ** 2, self.ev_sizes)]
                            + [x.ravel()[self._cell] for x in loo])
        after = np.repeat(self._ev_first + self.ev_sizes, self.ev_sizes) - 1 - np.arange(n)
        cross = np.zeros(j * j)
        for step in range(1, len(self._pad)):
            a = np.flatnonzero(after >= step)
            b = a + step
            pair = credit[a] * credit[b]
            for scale, z, *loo in per_slot:
                pair -= scale[a] * z[a] * z[b] * _leave_two_out([x[a] for x in loo], z[b])
            cross += np.bincount(self.slot_item[a] * j + self.slot_item[b], ws[a] * pair,
                                 minlength=j * j)
        info[:j, :j] -= cross.reshape(j, j) + cross.reshape(j, j).T
        return info

    def group_scores(self, theta: np.ndarray) -> np.ndarray:
        """Per-group (observed - expected) statistic vectors at ``theta``.

        Requires the structure to have been built with ``group_index``.
        """
        return self.group_obs - self.group_event_weights @ self._means(
            *self._evaluation(theta)[1:3])


def _total(values: np.ndarray):
    """Sum over the first axis, in one order whatever the trailing shape."""
    return np.add.reduceat(values, [0])[0] if len(values) else np.zeros(values.shape[1:])


def _loglik(theta: np.ndarray, weights: np.ndarray, obs: np.ndarray, logden: np.ndarray):
    """Log-likelihood from the log normalizers ``logden``: a float, or one value per column."""
    ll = _total(obs * theta) - _total(weights * logden)
    return float(ll) if theta.ndim == 1 else ll


def _esp_prefixes(z: np.ndarray, order: int) -> np.ndarray:
    """ESPs of orders 0..``order`` of z[:j], j = 0..len(z): (len(z) + 1, order + 1, ...)."""
    out = np.empty((z.shape[0] + 1, order + 1) + z.shape[1:])
    out[:, 0] = 1.0
    out[0, 1:] = 0.0
    for j in range(z.shape[0]):
        np.multiply(out[j, :-1], z[j], out=out[j + 1, 1:])
        out[j + 1, 1:] += out[j, 1:]
    return out


def _leave_one_out(z: np.ndarray, order: int, pre: np.ndarray | None = None) -> np.ndarray:
    """ESP of ``order`` of z without entry i, for every i, from the prefix
    ESPs ``pre`` (of at least that order) and one running row of suffix ESPs."""
    pre = _esp_prefixes(z, order) if pre is None else pre
    out, suf = np.empty(z.shape), np.zeros((order + 1,) + z.shape[1:])
    suf[0] = 1.0
    for i in range(len(z) - 1, -1, -1):  # suf: the ESPs of z[i + 1:]
        out[i] = pre[i, 0] * suf[order]
        for q in range(1, order + 1):
            out[i] += pre[i, q] * suf[order - q]
        suf[1:] += z[i] * suf[:-1]
    return out


def _leave_two_out(loo: list, z_b: np.ndarray):
    """ESP of order ``len(loo)`` of z without entries a and b, from the ESPs ``loo`` of orders
    1, 2, ... of z without a: T_r = L[r] - z_b T_(r-1), exact to rounding of max(z) ** r."""
    two = 1.0
    for row in loo:
        two = row - z_b * two
    return two
