"""Model fitting by iterative scaling (with squared extrapolation) or a
damped Newton method.

Iterative scaling multiplies each worth and tie parameter by the ratio of
its observed to expected sufficient statistic; convergence is declared
when the two agree in relative terms.  Once the iterates are close, each
cycle of sweeps extrapolates along its first two, by the squared
Steffensen-type step of SQUAREM (Varadhan & Roland 2008, Scand. J.
Statist. 35), with a log-likelihood guard so ascent is never lost.  The
Newton method maximizes the same log-likelihood with one log-worth pinned,
using the exact gradient observed - expected and the exact information,
and stops by the same convergence rule.  Both evaluate the likelihood once
per iterate, one call giving its expectations and log-likelihood.

Fitting at ``npseudo = 0`` is maximum likelihood and requires a strongly
connected win/loss network.  With ``npseudo > 0`` (default 0.5), each
item wins once and loses once against a hypothetical ghost item, each
comparison of weight ``npseudo``.  These pseudo-comparisons are engine
events, so every parameter is estimable and estimates shrink toward equal
worth; reported log-likelihoods always exclude them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, ModelError
from .likelihood import EventSet, Parameters
from .network import AdjacencyMatrix, connectivity
from .rankings import RankingsTable

__all__ = ["FitConfig", "ModelFit", "fit", "convergence_check"]

_METHODS = ("iterative_scaling", "quasi_newton", "limited_memory_quasi_newton")

# floor for log tie parameters whose observed count is zero (worth ~ 1e-217)
_LOG_FLOOR = -500.0

NOT_CONNECTED_MESSAGE = ("Network is not fully connected - cannot estimate "
                         "all item parameters with npseudo = 0")
NO_UPDATE_MESSAGE = ("an item has no wins or tie credit, or a positive observed "
                     "count has zero expectation; fit requires a strongly "
                     "connected network or npseudo > 0")

# a Newton step is halved at most 50 times; it, or an extrapolation, may lower
# the log-likelihood by its rounding (relative 1e-12), which near the optimum exceeds any gain
_MAX_HALVINGS = 50
_LOGLIK_ROUNDING = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Fitting options.

    Attributes:
        npseudo: weight of each pseudo-comparison with the ghost item (0
            disables them and requests plain maximum likelihood).
        method: "iterative_scaling" (default); "quasi_newton" and
            "limited_memory_quasi_newton" both select the damped Newton
            method (both names are kept for scripts and model files).
        maxit: maximum number of iterative-scaling cycles / Newton steps;
            reaching it warns and returns the current iterate.
        tol: relative tolerance on observed vs expected sufficient stats
            (see :func:`convergence_check`).
        steffensen_threshold: a column's scaling cycles extrapolate (SQUAREM,
            Varadhan & Roland 2008) once its convergence measure falls below
            this value; 0 disables extrapolation.
        tie_start: starting value for every tie prevalence parameter.

    Ties of any order fit: the model's tie order is the table's largest tie.

    Raises:
        DataError: ``npseudo`` negative, ``tol`` or ``tie_start`` not
            positive, ``steffensen_threshold`` negative, any of these not
            finite, ``maxit`` below 1, or an unknown ``method``.
    """

    npseudo: float = 0.5
    method: str = "iterative_scaling"
    maxit: int = 500
    tol: float = 1e-6
    steffensen_threshold: float = 0.1
    tie_start: float = 0.1

    def __post_init__(self):
        for name in ("npseudo", "tol", "steffensen_threshold", "tie_start"):
            value, positive = getattr(self, name), name in ("tol", "tie_start")
            if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise DataError(f"{name} must be finite and "
                                f"{'positive' if positive else 'non-negative'}, not {value}")
        if self.method not in _METHODS:
            raise DataError(f"method must be one of {_METHODS}")
        if self.maxit < 1:
            raise DataError("maxit must be at least 1")


@dataclass
class ModelFit:
    """A fitted model.

    ``params`` is on the internal scale: one log-worth per item, then the
    ghost's when ``has_ghost``, normalized so the worths sum to one, plus
    log tie parameters.  ``log_likelihood`` is evaluated on the data
    rows only.  The covariance matrix is computed lazily by the inference
    module via the retained event structure; a fit read back from JSON has
    ``events=None`` and must be refitted for inference.
    """

    params: Parameters
    items: tuple[str, ...]
    has_ghost: bool
    converged: bool
    iterations: int
    log_likelihood: float
    npseudo: float
    method: str
    config: FitConfig
    df_outcomes: float
    events: EventSet | None = field(default=None, repr=False)

    @property
    def n_real_items(self) -> int:
        return len(self.items)

    @property
    def max_tie_order(self) -> int:
        return self.params.max_tie_order

    @property
    def n_free_params(self) -> int:
        """Free parameters: item contrasts plus the tie prevalences above
        the floor (an unobserved tie order is held at it, not estimated)."""
        return (self.params.n_items - 1) + int(np.sum(self.params.log_tie > _LOG_FLOOR))

    def real_log_worth(self) -> np.ndarray:
        return self.params.log_worth[: self.n_real_items]

    def worth(self) -> np.ndarray:
        """Worths of the real items on the probability scale (sum to 1)."""
        lw = self.real_log_worth()
        w = np.exp(lw - lw.max())
        return w / w.sum()

    def _ref_weights(self, ref) -> np.ndarray:
        j = self.n_real_items
        u = np.zeros(j)
        if ref is None:
            u[:] = 1.0 / j
        elif isinstance(ref, (list, tuple, set, frozenset)):
            idx = [self.items.index(r) if isinstance(r, str) else int(r) for r in ref]
            if not idx:
                raise DataError("ref set must be nonempty")
            u[idx] = 1.0 / len(idx)
        elif isinstance(ref, str):
            if ref not in self.items:
                raise DataError(f"unknown ref item {ref!r}")
            u[self.items.index(ref)] = 1.0
        else:
            i = int(ref)
            if not 0 <= i < j:
                raise DataError(f"ref index {i} out of range")
            u[i] = 1.0
        return u

    def coef(self, ref=0, log: bool = True) -> tuple[list[str], np.ndarray]:
        """Parameter estimates for reporting.

        On the log scale, item estimates are contrasts against ``ref``
        (an index, a name, a set to average, or None for the mean of all
        items) and tie parameters are log prevalences.  With ``log=False``
        item worths are returned on the probability scale (summing to one)
        together with the tie prevalences.
        """
        names = list(self.items) + [f"tie{n}" for n in range(2, self.max_tie_order + 1)]
        if log:
            lw = self.real_log_worth()
            contrasts = lw - self._ref_weights(ref) @ lw
            return names, np.concatenate([contrasts, self.params.log_tie])
        return names, np.concatenate([self.worth(), np.exp(self.params.log_tie)])


def _normalize_worth(theta: np.ndarray, n_items: int) -> np.ndarray:
    """Shift the log-worths of theta, or of each of its columns, so that
    the worths sum to one."""
    lw = theta[:n_items]
    m = lw.max(axis=0)
    total = m + np.log(np.exp(lw - m).sum(axis=0))
    out = theta.copy()
    out[:n_items] = lw - total
    return out


def convergence_check(obs, exp, tol: float, scale: float = 1.0) -> bool:
    """True iff max_i |obs_i - exp_i| / max(scale, |obs_i|) <= tol across
    all item and tie statistics.  Fits pass ``EventSet.weight_scale`` as
    ``scale``, so the rule does not depend on the scale of the weights."""
    return bool(_discrepancy(np.asarray(obs), np.asarray(exp), scale) <= tol)


def _discrepancy(obs: np.ndarray, exp: np.ndarray, scale: float):
    """max_i |obs_i - exp_i| / max(scale, |obs_i|), per column of 2-D input."""
    if obs.shape[0] == 0:
        return np.zeros(obs.shape[1:])
    denom = np.maximum(scale, np.abs(obs))
    return np.max(np.abs(obs - exp) / denom, axis=0)


def _scale(theta: np.ndarray, obs: np.ndarray, exp: np.ndarray,
           n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """One scaling sweep of theta (P,) or of each column of theta (P, C).

    Returns the new iterate and, per column, whether the update does not
    exist: a positive observed count with zero expectation, or an item
    with no wins or tie credit, whose log-worth would diverge.  Such a
    column keeps its input values.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(obs > 0, np.log(obs) - np.log(exp), -np.inf)
    new = theta + ratio
    new[n_items:] = np.maximum(new[n_items:], _LOG_FLOOR)
    failed = (np.any((exp <= 0) & (obs > 0), axis=0)
              | ~np.all(np.isfinite(new[:n_items]), axis=0))
    return _normalize_worth(np.where(failed, theta, new), n_items), failed


def _start_theta(events: EventSet, config: FitConfig) -> np.ndarray:
    return Parameters.uniform(events.n_items, events.max_tie_order, config.tie_start).theta()


def _scaling_solve(events: EventSet, w: np.ndarray, obs: np.ndarray,
                   config: FitConfig, theta0: np.ndarray | None = None):
    """Iterative scaling of an event structure, one problem per column:
    event weights ``w`` (E, C) and observed statistics ``obs`` (P, C).

    Every column starts from ``theta0`` (P,), or from the uniform start.
    A cycle makes two sweeps, t1 = F(theta) and t2 = F(t1), then one
    stabilising sweep.  A column whose convergence measure is inside
    ``steffensen_threshold`` takes the stabilising sweep from the squared
    extrapolation theta - 2 a r + a^2 v of SQUAREM (Varadhan & Roland
    2008, step S3), with r = t1 - theta, v = t2 - 2 t1 + theta and
    a = min(-|r| / |v|, -1), kept unless its log-likelihood is below theta's
    beyond rounding, else replaced by t2; other columns sweep from t2.  A
    cycle evaluates ``expected`` at t1, at the extrapolation (or t2) with
    the log-likelihood, and at the stabilised iterate with the
    log-likelihood, which serves the discrepancy and the next cycle's first
    sweep; a rejected extrapolation costs its column one more evaluation,
    at t2.  A column stops once it meets ``tol``, at ``maxit``, or when its
    scaling update does not exist (it is then marked failed and keeps its
    last iterate).

    Returns theta (P, C) and, per column, converged, iterations and failed.
    """
    j = events.n_items
    n_cols = w.shape[1]
    start = _start_theta(events, config) if theta0 is None else np.asarray(theta0, float)
    theta = _normalize_worth(np.repeat(start[:, None], n_cols, axis=1), j)
    exp, ll = events.expected(theta, w, obs)
    disc = _discrepancy(obs, exp, events.weight_scale)
    converged = disc <= config.tol
    failed = np.zeros(n_cols, dtype=bool)
    iterations = np.zeros(n_cols, dtype=np.int64)
    active = np.flatnonzero(~converged)
    exp, ll = exp[:, active], ll[active]
    for it in range(1, config.maxit + 1):
        if active.size == 0:
            break
        th, wa, oa = theta[:, active], w[:, active], obs[:, active]
        t1, f1 = _scale(th, oa, exp, j)
        t2, f2 = _scale(t1, oa, events.expected(t1, wa), j)
        base = t2.copy()
        acc = np.flatnonzero((disc[active] < config.steffensen_threshold) & ~(f1 | f2))
        if acc.size:
            r, v = t1[:, acc] - th[:, acc], t2[:, acc] - 2.0 * t1[:, acc] + th[:, acc]
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.minimum(-np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0), -1.0)
            prop = _normalize_worth(th[:, acc] - 2.0 * alpha * r + alpha ** 2 * v, j)
            prop[j:] = np.maximum(prop[j:], _LOG_FLOOR)
            base[:, acc] = prop
        exp, ll_base = events.expected(base, wa, oa)
        # a proposal below theta's log-likelihood beyond rounding (or not finite) falls back to t2
        back = acc[~(ll_base[acc] >= ll[acc] - _LOGLIK_ROUNDING * np.abs(ll[acc]))]
        if back.size:
            base[:, back] = t2[:, back]
            exp[:, back] = events.expected(t2[:, back], wa[:, back])
        new, f3 = _scale(base, oa, exp, j)
        exp, ll = events.expected(new, wa, oa)
        # a failed column stops, so its expectation (not at th) goes unused
        bad = f1 | f2 | f3
        new[:, bad] = th[:, bad]
        theta[:, active] = new
        iterations[active] = it
        failed[active] = bad
        disc[active] = _discrepancy(oa, exp, events.weight_scale)
        converged[active] = (disc[active] <= config.tol) & ~bad
        keep = ~converged[active] & ~bad
        active, exp, ll = active[keep], exp[:, keep], ll[keep]
    return theta, converged, iterations, failed


def _iterative_scaling(events: EventSet, config: FitConfig) -> tuple[np.ndarray, bool, int]:
    theta, converged, iterations, failed = _scaling_solve(
        events, events.w_total[:, None], events.obs_total[:, None], config)
    if failed[0]:
        raise ModelError(NO_UPDATE_MESSAGE)
    return theta[:, 0], bool(converged[0]), int(iterations[0])


def _free_parameters(events: EventSet) -> np.ndarray:
    """Mask of the parameters that Newton steps move and inference gives a
    standard error: all but the first log-worth (pinned: worths have no
    scale) and the log ties of unobserved tie orders (held at _LOG_FLOOR)."""
    free = np.ones(events.n_params, dtype=bool)
    free[0] = False
    free[events.n_items:] = events.obs_total[events.n_items:] > 0
    return free


def _newton(events: EventSet, config: FitConfig) -> tuple[np.ndarray, bool, int]:
    """Damped Newton ascent on the free parameters: each step solves
    information · step = observed - expected and is halved until the
    log-likelihood does not fall (beyond rounding).  Stops when the
    statistics meet ``tol``, at ``maxit``, or when no halving ascends."""
    obs, w, j = events.obs_total, events.w_total, events.n_items
    free = _free_parameters(events)
    theta = _start_theta(events, config)
    theta[j:][~free[j:]] = _LOG_FLOOR
    exp, ll = events.expected(theta, w, obs)
    for it in range(config.maxit + 1):
        if _discrepancy(obs, exp, events.weight_scale) <= config.tol:
            return _normalize_worth(theta, j), True, it
        if it == config.maxit:
            break
        info = events.information(theta, w)[np.ix_(free, free)]
        try:
            step = np.linalg.solve(info, (obs - exp)[free])
        except np.linalg.LinAlgError:
            raise ModelError("singular information matrix; the item network is "
                             "too weakly connected (consider npseudo > 0)") from None
        for _ in range(_MAX_HALVINGS):
            trial = theta.copy()
            trial[free] += step
            exp_trial, ll_trial = events.expected(trial, w, obs)
            if ll_trial >= ll - _LOGLIK_ROUNDING * abs(ll):
                break
            step = 0.5 * step
        else:
            break
        theta, exp, ll = trial, exp_trial, ll_trial
    return _normalize_worth(theta, j), False, it


def fit(table: RankingsTable, config: FitConfig | None = None,
        weights=None, **overrides) -> ModelFit:
    """Fit the ranking model to a table.

    With ``npseudo = 0`` this is maximum likelihood and the win/loss
    network must be strongly connected.  With ``npseudo > 0`` the
    pseudo-comparisons with the ghost item enter the likelihood, and the
    ghost's log-worth is the last one of ``params``.  Keyword overrides update
    individual :class:`FitConfig` fields.

    Raises:
        DataError: no usable rankings.
        ModelError: disconnected network at ``npseudo = 0``.
    """
    if config is None:
        config = FitConfig()
    if overrides:
        config = replace(config, **overrides)
    if weights is not None:
        table = table.with_weights(weights)
    return _fit_events(table.items, _compile(table, config), config)


def _compile(table: RankingsTable, config: FitConfig, group_index=None) -> EventSet:
    """The event structure of a table with usable rankings, at its tie order."""
    if not ((~table.na_mask) & (table.weights > 0)).any():
        raise DataError("no usable rankings: all rows are NA or zero-weight")
    return EventSet(table, table.max_tie_order(), config.npseudo, group_index)


def _fit_events(items: tuple[str, ...], events: EventSet, config: FitConfig) -> ModelFit:
    """Solve the model on ``events``, the compiled data of ``items``."""
    if (config.npseudo == 0
            and not connectivity(AdjacencyMatrix(items, events.win_counts)).strongly_connected):
        raise ModelError(NOT_CONNECTED_MESSAGE)
    solve = _iterative_scaling if config.method == "iterative_scaling" else _newton
    theta, converged, iterations = solve(events, config)
    if not converged:
        warnings.warn("Iterations have not converged")
    return ModelFit(
        params=Parameters.from_theta(theta, events.n_items), items=items,
        has_ghost=config.npseudo > 0, converged=converged, iterations=iterations,
        log_likelihood=events.loglik(theta, events.w_data, events.obs_data),
        npseudo=config.npseudo, method=config.method, config=config,
        df_outcomes=events.df_outcomes(), events=events)
