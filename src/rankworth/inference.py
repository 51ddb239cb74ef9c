"""Post-fit inference: covariance, Z tests, model metrics, quasi-variances.

Item parameters are only identified up to contrasts, so every summary
pins a reference: a single item (its estimate is exactly zero with no
standard error), a set of items (contrast against their average), or the
mean of all items.  Standard errors depend on that choice; quasi-variances
give per-item uncertainty summaries that do not change with it: q_i + q_j
approximates the variance of the simple contrast between items i and j for
every pair, and comparison intervals built from them can be read pairwise.

The covariance matrix comes from the analytic observed information of the
log-likelihood (including any pseudo-comparisons), which for this model
coincides with the information of the equivalent expanded-count log-linear
model; the expansion itself is retained as a test oracle only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DataError, ModelError
from .fit import ModelFit, _free_parameters

__all__ = [
    "Summary",
    "ModelMetrics",
    "QuasiVariances",
    "vcov",
    "summarize",
    "model_metrics",
    "quasi_variances",
    "comparison_intervals",
]


def _anchored_covariance(fit: ModelFit) -> np.ndarray:
    """Covariance of the free parameters (all log-worths with column 0
    pinned at zero, and the log ties of observed tie orders), padded with
    zero rows/columns for the parameters that are not free.

    The scale deficiency of the worths is removed by the pinning; any
    remaining singularity signals a weakly connected network.
    """
    cached = getattr(fit, "_anchored_cov", None)
    if cached is not None:
        return cached
    events = fit.events
    if events is None:
        raise ModelError(
            "this fit carries no event structure (it was read from a model "
            "file); refit the data to compute standard errors")
    info = events.information(fit.params.theta(), events.w_total)
    keep = _free_parameters(events)
    sub = info[np.ix_(keep, keep)]
    # cond is inf or nan for a singular matrix
    if not np.linalg.cond(sub) <= 1e12:
        raise ModelError(
            "information matrix is (numerically) singular; the item network is "
            "too weakly connected for standard errors (consider npseudo > 0)")
    inv = np.linalg.inv(sub)
    padded = np.zeros_like(info)
    padded[np.ix_(keep, keep)] = inv
    fit._anchored_cov = padded
    return padded


def vcov(fit: ModelFit, ref=0) -> np.ndarray:
    """Covariance matrix of the reported parameters: real-item log-worth
    contrasts against ``ref`` followed by log tie parameters.

    With a single-item reference the matrix has zero row/column at the
    reference position.  The variance of any simple contrast,
    V_ii + V_jj - 2 V_ij, does not depend on ``ref``.
    """
    padded = _anchored_covariance(fit)
    j_all = fit.params.n_items
    j = fit.n_real_items
    n_tie = fit.max_tie_order - 1
    u = np.zeros(j_all)
    u[:j] = fit._ref_weights(ref)
    # rows: real-item contrasts (log a_i - u . log a), then ties unchanged
    a = np.zeros((j + n_tie, j_all + n_tie))
    a[:j, :j_all] = np.eye(j, j_all) - u
    a[j:, j_all:] = np.eye(n_tie)
    return a @ padded @ a.T


def _json_number(v) -> float | None:
    return None if np.isnan(v) else float(v)    # an undefined value is null


@dataclass(frozen=True)
class Summary:
    """Per-parameter estimates, standard errors and two-sided Z tests."""

    names: tuple[str, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    z_values: np.ndarray
    p_values: np.ndarray
    ref: object
    deviance: float
    aic: float
    residual_df: float
    iterations: int

    def rows(self) -> list[tuple]:
        return list(zip(self.names, self.estimates, self.std_errors,
                        self.z_values, self.p_values))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["parameter", "estimate", "se", "z", "p"])
            for name, est, se, z, p in self.rows():
                w.writerow([name, *(format(v, ".17g") for v in (est, se, z, p))])

    def to_dict(self) -> dict:
        return {
            "parameters": [
                {"parameter": name, "estimate": float(est), "se": _json_number(se),
                 "z": _json_number(z), "p": _json_number(p)}
                for name, est, se, z, p in self.rows()],
            "deviance": self.deviance,
            "aic": self.aic,
            "residual_df": self.residual_df,
            "iterations": self.iterations,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def _standard_errors(v: np.ndarray) -> np.ndarray:
    """Standard errors from the covariance ``v``, NaN where undefined: zero,
    up to rounding against the largest, so the rule is free of weight scale."""
    se = np.sqrt(np.maximum(np.diag(v), 0.0))
    se[se <= 1e-14 * np.nanmax(se, initial=0.0)] = np.nan
    return se


def summarize(fit: ModelFit, ref=0) -> Summary:
    """Contrast estimates with standard errors, Z statistics and p values.

    A single-item reference reports estimate 0 with undefined (NaN)
    standard error for that item; tie parameters are unaffected by ``ref``.
    A tie order that is never observed keeps its floored estimate and has
    a NaN standard error.
    """
    names, estimates = fit.coef(ref=ref)
    se = _standard_errors(vcov(fit, ref=ref))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = estimates / se
    p = 2.0 * ndtr(-np.abs(z))
    metrics = model_metrics(fit)
    return Summary(tuple(names), estimates, se, z, p, ref,
                   metrics.deviance, metrics.aic, metrics.residual_df,
                   fit.iterations)


@dataclass(frozen=True)
class ModelMetrics:
    deviance: float
    aic: float
    residual_df: float


def model_metrics(fit: ModelFit) -> ModelMetrics:
    """Deviance (-2 log-likelihood on data rows), AIC = deviance + 2p and
    residual degrees of freedom.

    The residual df is the weighted count of possible outcomes minus one,
    summed over data choice events, minus the number of free parameters
    (item contrasts plus the tie prevalences not held at the floor).
    """
    p = fit.n_free_params
    deviance = -2.0 * fit.log_likelihood
    return ModelMetrics(deviance, deviance + 2.0 * p, fit.df_outcomes - p)


@dataclass(frozen=True)
class QuasiVariances:
    """Per-item quasi-variances with approximation-error diagnostics.

    ``quasi_se[i]**2 + quasi_se[j]**2`` approximates the variance of the
    log-worth contrast between items i and j regardless of the reference
    constraint.  ``simple_error_range`` holds (min, max) of
    sqrt((q_i+q_j)/v_ij) - 1 over simple contrasts; ``all_error_range``
    bounds the same quantity over every possible contrast via the extreme
    generalized eigenvalues of the quasi-variance approximation against
    the true contrast covariance.  A single-item reference's SE is NaN.
    """

    items: tuple[str, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    quasi_se: np.ndarray
    quasi_var: np.ndarray
    simple_error_range: tuple[float, float]
    all_error_range: tuple[float, float]
    ref: object

    @property
    def worst_simple_error(self) -> float:
        return max(abs(self.simple_error_range[0]), abs(self.simple_error_range[1]))

    def write_csv(self, path, level: float = 0.95) -> None:
        lower, upper = comparison_intervals(self, level)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["item", "estimate", "se", "quasi_se", "lower", "upper"])
            for i, name in enumerate(self.items):
                vals = (self.estimates[i], self.std_errors[i],
                        self.quasi_se[i], lower[i], upper[i])
                w.writerow([name, *(format(v, ".17g") for v in vals)])

    def to_dict(self, level: float = 0.95) -> dict:
        lower, upper = comparison_intervals(self, level)
        return {
            "items": [
                {"item": name, "estimate": float(self.estimates[i]),
                 "se": _json_number(self.std_errors[i]),
                 "quasi_se": float(self.quasi_se[i]),
                 "quasi_var": float(self.quasi_var[i]),
                 "lower": float(lower[i]), "upper": float(upper[i])}
                for i, name in enumerate(self.items)],
            "level": level,
            "simple_error_range": list(self.simple_error_range),
            "all_error_range": list(self.all_error_range),
        }

    def write_json(self, path, level: float = 0.95) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(level), fh, indent=1)
            fh.write("\n")


def _fit_quasi_variances(contrast_var: np.ndarray, start: np.ndarray,
                         tol: float = 1e-10, maxiter: int = 200) -> np.ndarray:
    """Minimize sum over pairs of (log(q_i+q_j) - log v_ij)^2 by
    Gauss-Newton in log q."""
    j = contrast_var.shape[0]
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    iu = np.array([a for a, _ in pairs])
    ju = np.array([b for _, b in pairs])
    logv = np.log(contrast_var[iu, ju])
    r = np.log(np.maximum(start, 1e-12))
    prev_obj = np.inf
    for _ in range(maxiter):
        q = np.exp(r)
        s = q[iu] + q[ju]
        e = np.log(s) - logv
        obj = float(e @ e)
        jac = np.zeros((len(pairs), j))
        jac[np.arange(len(pairs)), iu] = q[iu] / s
        jac[np.arange(len(pairs)), ju] = q[ju] / s
        g = jac.T @ e
        h = jac.T @ jac
        try:
            step = np.linalg.solve(h + 1e-12 * np.eye(j), -g)
        except np.linalg.LinAlgError:
            break
        # backtracking so the objective never increases
        lam = 1.0
        for _ in range(30):
            r_new = r + lam * step
            q_new = np.exp(r_new)
            e_new = np.log(q_new[iu] + q_new[ju]) - logv
            if float(e_new @ e_new) <= obj:
                break
            lam *= 0.5
        r = r + lam * step
        if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
            break
        prev_obj = obj
    return np.exp(r)


def _all_contrast_error_range(contrast_cov: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Extremes of sqrt(approx var / true var) - 1 over all contrasts.

    Both matrices are reduced to the basis of contrasts with item 0; the
    range follows from the generalized eigenvalues of the reduced
    quasi-variance matrix against the reduced covariance.
    """
    j = contrast_cov.shape[0]
    idx = np.arange(1, j)
    red_cov = (contrast_cov[np.ix_(idx, idx)]
               + contrast_cov[0, 0]
               - contrast_cov[idx, 0][:, None]
               - contrast_cov[0, idx][None, :])
    red_qv = np.diag(q[idx]) + q[0]
    chol = np.linalg.cholesky(red_cov)
    inv = np.linalg.inv(chol)
    mat = inv @ red_qv @ inv.T
    evals = np.linalg.eigvalsh(mat)
    return float(np.sqrt(evals.min()) - 1.0), float(np.sqrt(evals.max()) - 1.0)


def quasi_variances(fit: ModelFit, ref=0) -> QuasiVariances:
    """Quasi-variances of the real-item log-worths.

    Finds q >= 0 minimizing the summed squared log-scale error between
    q_i + q_j and the variance of each simple contrast, then reports the
    achieved worst relative errors in standard-error terms.
    """
    j = fit.n_real_items
    if j < 3:
        raise DataError("quasi-variances need at least three items")
    v = vcov(fit, ref=ref)
    cov_items = v[:j, :j]
    # simple-contrast variances are reference invariant
    d = np.diag(cov_items)
    contrast_var = d[:, None] + d[None, :] - 2.0 * cov_items
    mean_ref_var = np.diag(vcov(fit, ref=None))[:j]
    q = _fit_quasi_variances(contrast_var, start=mean_ref_var)

    iu, ju = np.triu_indices(j, k=1)
    rel = np.sqrt((q[iu] + q[ju]) / contrast_var[iu, ju]) - 1.0
    simple_range = (float(rel.min()), float(rel.max()))
    all_range = _all_contrast_error_range(cov_items, q)

    names, estimates = fit.coef(ref=ref)
    return QuasiVariances(
        items=tuple(names[:j]),
        estimates=estimates[:j],
        std_errors=_standard_errors(v)[:j],
        quasi_se=np.sqrt(q),
        quasi_var=q,
        simple_error_range=simple_range,
        all_error_range=all_range,
        ref=ref,
    )


def comparison_intervals(qv: QuasiVariances, level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Per-item interval endpoints: estimate +/- z_level * quasi-SE.

    Non-overlap of two intervals indicates evidence of a worth difference.

    Raises:
        DataError: level outside (0, 1).
    """
    if not 0.0 < level < 1.0:
        raise DataError("level must be in (0, 1)")
    z = ndtri(0.5 + level / 2.0)
    lower = qv.estimates - z * qv.quasi_se
    upper = qv.estimates + z * qv.quasi_se
    return lower, upper
