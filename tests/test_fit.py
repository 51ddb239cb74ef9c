"""Fitting: scaling updates, SQUAREM extrapolation, convergence, cross-method
agreement, and the documented invariants."""

import importlib
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rankworth as rw
from rankworth.errors import DataError, ModelError
from rankworth.fit import _free_parameters, _scale, _scaling_solve
from rankworth.likelihood import EventSet
from tests.conftest import brute_force_loglik, random_table, random_tied_table


def quiet_fit(table, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rw.fit(table, **kw)


@pytest.fixture(scope="module")
def two_item_31():
    """Two items, wins (3, 1): closed-form MLE alpha = (0.75, 0.25)."""
    return rw.from_rank_matrix([[1, 2]] * 3 + [[2, 1]], ["a", "b"])


class TestIterativeScalingStep:
    def test_fixed_point_unchanged(self, two_item_31):
        params = rw.Parameters(np.log([0.75, 0.25]), np.zeros(0))
        ev = EventSet(two_item_31, 1)
        exp = ev.expected(params.theta(), ev.w_data)
        new, failed = _scale(params.theta(), ev.obs_data, exp, params.n_items)
        assert not failed
        assert np.allclose(new, params.theta(), atol=1e-12)

    def test_converges_to_binomial_mle(self, two_item_31):
        m = quiet_fit(two_item_31, npseudo=0, tol=1e-12)
        assert np.allclose(m.worth(), [0.75, 0.25], atol=1e-10)

    def test_pudding_seven_iterations_close_to_published(self, pudding):
        m = quiet_fit(pudding, npseudo=0, maxit=7)
        _, vals = m.coef(log=False)
        published = np.array([0.1388005, 0.1729985, 0.1617420,
                              0.1653930, 0.1586805, 0.2023855, 0.7468147])
        # the published iterate is itself 2e-5 short of the exact optimum
        assert np.max(np.abs(vals - published)) < 2.5e-5


class TestSteffensen:
    def test_accelerated_and_plain_agree_on_pudding(self, pudding):
        fast = quiet_fit(pudding, npseudo=0, tol=1e-10)
        # threshold 0 disables extrapolation entirely
        plain = quiet_fit(pudding, npseudo=0, tol=1e-10,
                          steffensen_threshold=0.0, maxit=3000)
        assert plain.converged
        assert np.allclose(fast.params.theta(), plain.params.theta(), atol=1e-8)
        assert fast.iterations < plain.iterations


class TestConvergenceCheck:
    def test_equal_stats(self):
        assert rw.convergence_check(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 1e-12)

    def test_single_discrepancy(self):
        obs = np.array([10.0, 5.0])
        exp = obs.copy()
        exp[0] += 2 * 1e-4 * 10.0
        assert not rw.convergence_check(obs, exp, 1e-4)

    def test_small_obs_guard(self):
        # denominator max(1, |obs|) keeps near-zero stats from dominating
        assert rw.convergence_check(np.array([1e-9]), np.array([2e-9]), 1e-6)

    def test_guard_follows_scale(self):
        # on statistics in units of 1e-9 the same gap is a relative one
        assert not rw.convergence_check(np.array([1e-9]), np.array([2e-9]), 1e-6,
                                        scale=1e-9)

    def test_scale_is_mean_weight_of_rows_with_events(self, abcd):
        t = abcd.with_weights(np.arange(1.0, abcd.n_rows + 1))
        assert EventSet(t, t.max_tie_order()).weight_scale == pytest.approx(
            t.weights.mean(), rel=1e-15)
        # a row ranking one item gives no event and does not count
        one = rw.RankingsTable(("a", "b"), np.array([[1, 2], [1, 0]]),
                               np.array([2.0, 5.0]), np.array([False, False]))
        assert EventSet(one, 1).weight_scale == 2.0


class TestFit:
    def test_toy_mle(self, abc):
        m = quiet_fit(abc, npseudo=0)
        names, est = m.coef()
        assert names == ["A", "B", "C"]
        assert np.allclose(est, [0.0, 0.8392, 0.4196], atol=1e-3)
        assert m.iterations == 3
        assert m.converged

    def test_toy_pseudo(self, abcd):
        m = quiet_fit(abcd)
        _, est = m.coef()
        assert np.allclose(est, [0.0, 0.5184185, 0.1354707, -1.1537565], atol=1e-5)
        assert m.has_ghost

    def test_disconnected_mle_refused(self, disconnected):
        with pytest.raises(ModelError, match="not fully connected"):
            rw.fit(disconnected, npseudo=0)

    def test_empty_data_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = rw.from_rank_matrix([[1, 0]], ["a", "b"])
        with pytest.raises(DataError, match="no usable rankings"):
            rw.fit(t)

    def test_maxit_warns_and_returns_partial(self, pudding):
        with pytest.warns(UserWarning, match="not converged"):
            m = rw.fit(pudding, npseudo=0, maxit=1)
        assert not m.converged
        assert m.iterations == 1

    def test_tiny_pseudo_is_not_reported_converged(self):
        # a beats b beats c in every row: at npseudo = 1e-12 the optimum lies
        # far out along directions whose information is of the order of
        # npseudo, where the stop rule cannot judge nearness.  Iterative
        # scaling must not claim convergence there.
        t = rw.from_rank_matrix([[1, 2, 3]] * 3, list("abc"))
        with pytest.warns(UserWarning, match="Iterations have not converged"):
            m = rw.fit(t, npseudo=1e-12)
        assert not m.converged
        assert m.iterations == m.config.maxit

    def test_worth_sums_to_one(self, pudding):
        m = quiet_fit(pudding, npseudo=0)
        assert m.worth().sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_override(self, pudding):
        boosted = quiet_fit(pudding, weights=pudding.weights * 2.0, npseudo=0)
        base = quiet_fit(pudding, npseudo=0)
        assert np.allclose(boosted.params.theta(), base.params.theta(), atol=1e-7)

    def test_reported_loglik_excludes_pseudo_rows(self, abcd):
        m = quiet_fit(abcd)
        j = m.params.n_items
        direct = brute_force_loglik(
            abcd, rw.Parameters(m.params.log_worth[:4], m.params.log_tie))
        # data log-likelihood evaluated over real items only: the ghost
        # never enters data events, so dropping its column is exact
        assert m.log_likelihood == pytest.approx(direct, rel=1e-10)
        assert j == 5

    def test_item_may_be_named_like_the_ghost(self, abcd):
        # the ghost is a parameter of the engine, not a table column
        t = rw.RankingsTable(("A", "B", "C", rw.GHOST_ITEM), abcd.ranks,
                             abcd.weights, abcd.na_mask)
        m = quiet_fit(t)
        _, est = m.coef()
        assert np.array_equal(est, quiet_fit(abcd).coef()[1])
        assert m.coef()[0][3] == rw.GHOST_ITEM


class TestQuasiNewton:
    def test_agrees_with_scaling_on_pudding(self, pudding):
        a = quiet_fit(pudding, npseudo=0, tol=1e-10)
        b = quiet_fit(pudding, npseudo=0, method="quasi_newton", tol=1e-8)
        _, ca = a.coef()
        _, cb = b.coef()
        assert np.allclose(ca, cb, atol=1e-6)

    def test_two_item_logit_closed_form(self, two_item_31):
        m = quiet_fit(two_item_31, npseudo=0, method="quasi_newton", tol=1e-10)
        _, est = m.coef()
        assert est[1] == pytest.approx(np.log(0.25 / 0.75), abs=1e-7)

    def test_limited_memory_variant(self, pudding):
        m = quiet_fit(pudding, npseudo=0,
                      method="limited_memory_quasi_newton", tol=1e-8)
        base = quiet_fit(pudding, npseudo=0, tol=1e-10)
        assert np.allclose(m.coef()[1], base.coef()[1], atol=1e-5)

    def test_pseudo_fit_matches_published(self, abcd):
        m = quiet_fit(abcd, method="quasi_newton", tol=1e-9)
        _, est = m.coef()
        assert np.allclose(est, [0.0, 0.5184185, 0.1354707, -1.1537565], atol=1e-5)


# A table with a 3-way tie and no 2-way tie: the order-2 tie parameter
# is never observed and stays at its floor.
NO_PAIR_TIES = [[1, 1, 1, 2], [1, 2, 3, 4], [2, 1, 3, 4], [4, 3, 2, 1],
                [1, 3, 2, 4], [2, 3, 4, 1]]


def _discrepancy_ok(m):
    ev = m.events
    exp = ev.expected(m.params.theta(), ev.w_total)
    return rw.convergence_check(ev.obs_total, exp, m.config.tol, scale=ev.weight_scale)


class TestNewton:
    def test_limited_memory_on_race_shape(self):
        from rankworth.datasets import make_nascar_shape_table

        t = make_nascar_shape_table()
        m = quiet_fit(t, method="limited_memory_quasi_newton")
        base = quiet_fit(t, tol=1e-10)
        assert m.converged
        assert m.method == "limited_memory_quasi_newton"
        assert np.allclose(m.coef()[1], base.coef()[1], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_converged_means_within_tol(self, tol, pudding, abcd):
        rng = np.random.default_rng(21)
        tables = [(pudding, 0.0), (abcd, 0.5)] + [
            (random_table(rng, n_items=5, n_rows=20, max_tie=3, partial=True), 0.5)
            for _ in range(5)]
        for t, npseudo in tables:
            m = quiet_fit(t, npseudo=npseudo, method="quasi_newton", tol=tol)
            assert m.converged
            assert _discrepancy_ok(m)

    def test_maxit_warns_and_returns_partial(self, pudding):
        with pytest.warns(UserWarning, match="not converged"):
            m = rw.fit(pudding, npseudo=0, maxit=1, method="quasi_newton")
        assert not m.converged
        assert m.iterations == 1
        assert not _discrepancy_ok(m)

    @pytest.mark.parametrize("rows, npseudo", [
        ([[1, 1, 2], [2, 1, 1], [1, 2, 1], [1, 1, 2]], 0.0),    # ties only: delta unbounded
        ([[1, 2, 3]] * 3, 1e-12),                               # near-disconnected
        (NO_PAIR_TIES, 0.0),
        ([[1, 1], [1, 1]], 0.5),
    ])
    def test_awkward_tables_fit_or_raise_model_error(self, rows, npseudo):
        t = rw.from_rank_matrix(rows, [f"i{k}" for k in range(len(rows[0]))])
        try:
            m = quiet_fit(t, npseudo=npseudo, method="quasi_newton")
        except ModelError:
            return
        assert np.all(np.isfinite(m.params.theta()))

    def test_singular_information_is_model_error(self, pudding, monkeypatch):
        monkeypatch.setattr(EventSet, "information",
                            lambda self, theta, w: np.zeros((self.n_params,) * 2))
        with pytest.raises(ModelError, match="singular"):
            rw.fit(pudding, npseudo=0, method="quasi_newton")

    def test_no_ascent_reports_unconverged(self, pudding, monkeypatch):
        monkeypatch.setattr(EventSet, "information",
                            lambda self, theta, w: np.full((self.n_params,) * 2, np.nan))
        with pytest.warns(UserWarning, match="not converged"):
            m = rw.fit(pudding, npseudo=0, method="quasi_newton")
        assert not m.converged
        assert m.iterations == 0
        assert np.all(np.isfinite(m.params.theta()))


class TestColumnSolve:
    def test_columns_equal_their_one_column_solves(self):
        # one column per row re-weighting; column 2 gives item i0 no wins or
        # tie credit, so its update does not exist at npseudo = 0
        rng = np.random.default_rng(5)
        t = random_table(rng, n_items=5, n_rows=40, max_tie=3, partial=True)
        ev = EventSet(t, 3, group_index=np.arange(1, t.n_rows + 1))
        v = rng.uniform(0.2, 3.0, (t.n_rows, 6))
        v[ev.group_obs[:, 0] > 0, 2] = 0.0
        w, obs = ev.group_event_weights.T @ v, ev.group_obs.T @ v
        config = rw.FitConfig(npseudo=0, tol=1e-10)
        theta, converged, iterations, failed = _scaling_solve(ev, w, obs, config)
        assert failed.tolist() == [False, False, True, False, False, False]
        assert converged[~failed].all() and len(set(iterations[~failed])) > 1
        for c in range(6):
            alone = _scaling_solve(ev, w[:, [c]], obs[:, [c]], config)
            assert np.array_equal(theta[:, c], alone[0][:, 0])
            assert (converged[c], iterations[c], failed[c]) == tuple(a[0] for a in alone[1:])


def _counting(fn, name, calls):
    """``fn`` counting its outermost calls (the 1-column forms recurse) in ``calls[name]``."""
    depth = [0]

    def wrapper(*args, **kwargs):
        calls[name] += depth[0] == 0
        depth[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
    return wrapper


def _count_evaluations(monkeypatch):
    """Count outermost ``expected`` and ``loglik`` calls in the returned
    Counter, and list the log-likelihood of each fused ``expected`` call."""
    calls, fused = Counter(), []
    monkeypatch.setattr(EventSet, "loglik", _counting(EventSet.loglik, "loglik", calls))
    counted = _counting(EventSet.expected, "expected", calls)

    def expected(self, theta, weights, obs=None):
        outer = calls["expected"]
        out = counted(self, theta, weights, obs)
        if obs is not None and calls["expected"] > outer:
            fused.append(float(np.min(out[1])))
        return out
    monkeypatch.setattr(EventSet, "expected", expected)
    return calls, fused


def _falls(fused):
    """Fused evaluations whose log-likelihood is below the highest before them."""
    return sum(ll < max(fused[:k]) for k, ll in enumerate(fused) if k)


class TestEvaluationsPerIterate:
    @pytest.mark.parametrize("method", ["iterative_scaling", "quasi_newton"])
    def test_one_evaluation_per_iterate(self, pudding, method, monkeypatch):
        # a scaling cycle evaluates at its first sweep, at the extrapolation
        # (or the second sweep) and at the stabilised iterate; a Newton step
        # evaluates its trial.  A rejected extrapolation costs one more, at
        # the second sweep, and a halved trial one more, at the half step:
        # each follows a fused evaluation that falls.  loglik only for the
        # final data log-likelihood
        tied = random_table(np.random.default_rng(8), n_items=6, n_rows=40,
                            max_tie=4, partial=True)
        assert tied.max_tie_order() == 4
        calls, fused = _count_evaluations(monkeypatch)
        for table, npseudo in [(pudding, 0.0), (tied, 0.5)]:
            calls.clear()
            fused.clear()
            m = quiet_fit(table, npseudo=npseudo, method=method)
            assert m.converged
            assert calls["loglik"] == 1
            per_iterate = 3 if method == "iterative_scaling" else 1
            assert calls["expected"] <= 1 + per_iterate * m.iterations + _falls(fused)

    def test_rejected_extrapolation_falls_back_to_second_sweep(self, monkeypatch):
        # extrapolating from the first cycle on, the fourth cycle's proposal
        # on this table is 0.035 below theta's log-likelihood
        t = random_table(np.random.default_rng(289), n_items=6, n_rows=34,
                         max_tie=3, partial=True)
        newton = quiet_fit(t, npseudo=0, method="quasi_newton", tol=1e-10)
        calls, fused = _count_evaluations(monkeypatch)
        m = quiet_fit(t, npseudo=0, steffensen_threshold=1e9)
        assert m.converged
        assert _falls(fused) == 1
        assert calls["expected"] == 1 + 3 * m.iterations + 1
        assert np.allclose(m.coef()[1], newton.coef()[1], rtol=0, atol=1e-5)

    def test_rounding_only_fall_keeps_the_extrapolation(self, monkeypatch):
        # at tol 1e-8 a proposal on this table is 3.6e-15 below theta's
        # log-likelihood of -23.1: rounding, which the guard allows
        t = random_tied_table(np.random.default_rng(2), 5, 3)
        assert t.max_tie_order() == 2
        calls, _ = _count_evaluations(monkeypatch)
        m = quiet_fit(t, tol=1e-8)
        kept = calls["expected"]
        calls.clear()
        monkeypatch.setattr(importlib.import_module("rankworth.fit"), "_LOGLIK_ROUNDING", 0.0)
        strict = quiet_fit(t, tol=1e-8)
        assert m.converged and strict.converged and m.iterations == strict.iterations
        assert kept == calls["expected"] - 1
        assert np.allclose(m.params.theta(), strict.params.theta(), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("method", ["iterative_scaling", "quasi_newton"])
    def test_no_normalizers_beyond_expected_calls(self, pudding, method, monkeypatch):
        # the last evaluation is kept: a Newton step's information and, after
        # iterative scaling, the fit's data log-likelihood and the inference
        # reuse it.  Newton returns its estimate shifted to worths summing to
        # one, where the log-likelihood and the information evaluate once more
        tied = random_table(np.random.default_rng(8), n_items=6, n_rows=40,
                            max_tie=4, partial=True)
        calls, _ = _count_evaluations(monkeypatch)
        monkeypatch.setattr(EventSet, "_log_denominators", _counting(
            EventSet._log_denominators, "normalizers", calls))
        for table, npseudo in [(pudding, 0.0), (tied, 0.5)]:
            calls.clear()
            m = quiet_fit(table, npseudo=npseudo, method=method)
            rw.summarize(m)
            rw.quasi_variances(m)
            newton = method != "iterative_scaling"
            assert calls["normalizers"] == calls["expected"] + 2 * newton
            assert calls["loglik"] == 1


class TestUnobservedTieOrder:
    @pytest.fixture(scope="class")
    def table(self):
        return rw.from_rank_matrix(NO_PAIR_TIES, list("abcd"))

    def test_both_methods_fit_and_agree(self, table):
        a = quiet_fit(table, npseudo=0, tol=1e-10)
        b = quiet_fit(table, npseudo=0, method="quasi_newton", tol=1e-10)
        assert a.converged and b.converged
        assert a.params.log_tie[0] == b.params.log_tie[0] == -500.0
        assert np.allclose(a.coef()[1], b.coef()[1], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("method", ["iterative_scaling", "quasi_newton"])
    def test_inference_reports_items_and_observed_ties(self, table, method):
        m = quiet_fit(table, npseudo=0, method=method)
        s = rw.summarize(m)
        # the reference item and the unobserved tie order have no SE
        assert np.isnan(s.std_errors[[0, 4]]).all()
        assert np.isfinite(s.std_errors[[1, 2, 3, 5]]).all()
        qv = rw.quasi_variances(m)
        assert np.isfinite(qv.quasi_se).all() and (qv.quasi_se > 0).all()

    @pytest.mark.parametrize("method", ["iterative_scaling", "quasi_newton"])
    def test_floored_tie_is_not_a_free_parameter(self, table, method, tmp_path):
        # three item contrasts and tie3 are estimated; tie2 is held at the floor
        m = quiet_fit(table, npseudo=0, method=method)
        path = tmp_path / "model.json"
        rw.write_model_json(m, path)
        for f in (m, rw.read_model_json(path)):
            metrics = rw.model_metrics(f)
            assert f.n_free_params == 4
            assert metrics.aic == metrics.deviance + 2 * 4
            assert metrics.residual_df == f.df_outcomes - 4


class TestInvariants:
    def test_monotonicity_unaccelerated(self):
        rng = np.random.default_rng(12)
        for trial in range(4):
            t = random_table(rng, n_items=4, n_rows=14, max_tie=2, partial=True)
            ev = EventSet(t, t.max_tie_order())
            from rankworth.likelihood import Parameters

            theta = Parameters.uniform(4, t.max_tie_order()).theta()
            prev = ev.loglik(theta, ev.w_data, ev.obs_data)
            for _ in range(40):
                exp = ev.expected(theta, ev.w_data)
                theta, failed = _scale(theta, ev.obs_data, exp, 4)
                assert not failed
                ll = ev.loglik(theta, ev.w_data, ev.obs_data)
                assert ll >= prev - 1e-12
                prev = ll

    def test_permutation_equivariance(self, pudding):
        rng = np.random.default_rng(13)
        perm = rng.permutation(6)
        t = rw.RankingsTable(tuple(pudding.items[k] for k in perm),
                             pudding.ranks[:, perm], pudding.weights,
                             pudding.na_mask)
        base = quiet_fit(pudding, npseudo=0, tol=1e-10)
        permuted = quiet_fit(t, npseudo=0, tol=1e-10)
        w_base = base.worth()
        w_perm = permuted.worth()
        assert np.allclose(w_perm, w_base[perm], atol=1e-10)

    def test_weight_consistency(self):
        rng = np.random.default_rng(14)
        t = random_table(rng, n_items=4, n_rows=10, max_tie=2)
        counts = rng.integers(1, 4, t.n_rows)
        weighted = quiet_fit(t, weights=counts.astype(float), npseudo=0, tol=1e-12)
        expanded_rows = np.repeat(t.ranks, counts, axis=0)
        t2 = rw.from_rank_matrix(expanded_rows, t.items)
        expanded = quiet_fit(t2, npseudo=0, tol=1e-12)
        assert np.allclose(weighted.params.theta(), expanded.params.theta(),
                           atol=1e-10)

    def test_shrinkage_toward_equal_worth(self, pudding):
        mle = quiet_fit(pudding, npseudo=0, tol=1e-10)
        reg = quiet_fit(pudding, npseudo=0.5, tol=1e-10)
        _, c_mle = mle.coef(ref=None)
        _, c_reg = reg.coef(ref=None)
        j = 6
        assert np.all(np.abs(c_reg[:j]) <= np.abs(c_mle[:j]) + 1e-8)

    def test_shrinkage_on_synthetic_core(self):
        # pseudo-rankings pull contrasts toward zero; item-by-item
        # monotonicity is not a theorem, so on synthetic data check the
        # aggregate pull plus a near-universal per-item direction
        from rankworth.datasets import make_nascar_shape_table

        t = make_nascar_shape_table()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            core = rw.subset_items(t, t.items[:83])
        mle = quiet_fit(core, npseudo=0, tol=1e-9)
        reg = quiet_fit(core, npseudo=0.5, tol=1e-9)
        _, c_mle = mle.coef(ref=None)
        _, c_reg = reg.coef(ref=None)
        assert np.abs(c_reg).mean() < np.abs(c_mle).mean()
        frac_shrunk = np.mean(np.abs(c_reg) <= np.abs(c_mle) + 1e-8)
        assert frac_shrunk >= 0.9

    def test_determinism(self, pudding):
        a = quiet_fit(pudding, npseudo=0, tol=1e-10)
        b = quiet_fit(pudding, npseudo=0, tol=1e-10)
        assert np.array_equal(a.params.theta(), b.params.theta())
        assert a.iterations == b.iterations

    def test_config_validation(self):
        with pytest.raises(DataError):
            rw.FitConfig(npseudo=-0.1)
        with pytest.raises(DataError):
            rw.FitConfig(method="newton")
        with pytest.raises(DataError):
            rw.FitConfig(maxit=0)
        with pytest.raises(DataError):
            rw.FitConfig(tol=0.0)

    @pytest.mark.parametrize("field, value", [("npseudo", np.nan), ("npseudo", np.inf),
                                              ("tol", np.nan), ("tol", np.inf)])
    def test_non_finite_config_rejected(self, disconnected, field, value):
        # nan used to skip the connectivity gate and tol = inf to report
        # convergence after no iteration; both fail at the boundary now
        with pytest.raises(DataError, match=f"{field} must be finite"):
            rw.fit(disconnected, **{field: value})
        with pytest.raises(DataError, match=f"{field} must be finite"):
            rw.FitConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("tie_start", 0.0), ("tie_start", -1.0), ("tie_start", np.nan), ("tie_start", np.inf),
        ("steffensen_threshold", -0.1), ("steffensen_threshold", np.nan),
        ("steffensen_threshold", np.inf)])
    @pytest.mark.parametrize("method", ["iterative_scaling", "quasi_newton"])
    def test_bad_start_or_threshold_rejected(self, pudding, field, value, method):
        # a tie start of 0 used to surface as "an item has no wins or tie
        # credit" or "singular information matrix", and a nan threshold
        # silently turned acceleration off
        with pytest.raises(DataError, match=f"{field} must be finite"):
            rw.fit(pudding, npseudo=0, method=method, **{field: value})

    def test_zero_threshold_accepted(self, pudding):
        assert quiet_fit(pudding, npseudo=0, steffensen_threshold=0.0).converged

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_npseudo_rejected_by_the_engine(self, abcd, value):
        with pytest.raises(DataError, match="npseudo must be finite"):
            rw.EventSet(abcd, 1, npseudo=value)

    def test_zero_expected_with_positive_observed_raises(self):
        # structurally impossible stats are reported, not silently broken
        theta = np.log([0.5, 0.5])
        new, failed = _scale(theta, np.array([1.0, 1.0]), np.array([0.0, 2.0]), 2)
        assert failed
        assert np.array_equal(new, theta)


# Properties the model says an estimate cannot depend on, at npseudo 0.5
# and at npseudo 0 on strongly connected tables; the fits stop at TOL, so
# the estimates agree to within a hundred times that.
TOL = 1e-10
_examples = settings(max_examples=15, deadline=None, derandomize=True)


def _table(seed: int, npseudo: float):
    rng = np.random.default_rng(seed)
    t = random_table(rng, n_items=4, n_rows=12, max_tie=2, partial=True)
    t = t.with_weights(rng.uniform(0.5, 2.0, t.n_rows))
    assume(npseudo > 0 or rw.connectivity(rw.adjacency(t)).strongly_connected)
    return t


def _theta(table, npseudo, method="iterative_scaling"):
    return quiet_fit(table, npseudo=npseudo, tol=TOL, method=method).params.theta()


class TestInvarianceProperties:
    @_examples
    @given(seed=st.integers(0, 2**32 - 1), npseudo=st.sampled_from([0.0, 0.5]),
           data=st.data())
    def test_duplicate_rows_equal_doubled_weight(self, seed, npseudo, data):
        t = _table(seed, npseudo)
        dup = np.array(data.draw(st.lists(st.booleans(), min_size=t.n_rows,
                                          max_size=t.n_rows)))
        duplicated = rw.RankingsTable(
            t.items, np.vstack([t.ranks, t.ranks[dup]]),
            np.concatenate([t.weights, t.weights[dup]]),
            np.concatenate([t.na_mask, t.na_mask[dup]]))
        doubled = t.with_weights(np.where(dup, 2.0 * t.weights, t.weights))
        assert np.allclose(_theta(duplicated, npseudo), _theta(doubled, npseudo),
                           rtol=0, atol=100 * TOL)

    @_examples
    @given(seed=st.integers(0, 2**32 - 1), npseudo=st.sampled_from([0.0, 0.5]),
           data=st.data())
    def test_row_permutation(self, seed, npseudo, data):
        t = _table(seed, npseudo)
        perm = data.draw(st.permutations(range(t.n_rows)))
        permuted = rw.RankingsTable(t.items, t.ranks[perm], t.weights[perm],
                                    t.na_mask[perm])
        assert np.allclose(_theta(permuted, npseudo), _theta(t, npseudo),
                           rtol=0, atol=100 * TOL)

    @_examples
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-12, 12),
           method=st.sampled_from(["iterative_scaling", "quasi_newton"]))
    def test_weight_scale(self, seed, exponent, method):
        # maximum likelihood only: the pseudo weight is absolute
        t = _table(seed, 0.0)
        scaled = t.with_weights(t.weights * 10.0 ** exponent)
        assert np.allclose(_theta(scaled, 0.0, method), _theta(t, 0.0, method),
                           rtol=0, atol=100 * TOL)

    @_examples
    @given(exponent=st.integers(-12, 12),
           method=st.sampled_from(["iterative_scaling", "quasi_newton"]))
    def test_scaled_pudding_is_never_wrong_and_converged(self, pudding, exponent, method):
        base = _theta(pudding, 0.0, method)
        scaled = pudding.with_weights(pudding.weights * 10.0 ** exponent)
        try:
            m = quiet_fit(scaled, npseudo=0, tol=TOL, method=method)
        except ModelError:
            return
        assert m.converged
        assert np.allclose(m.params.theta(), base, rtol=0, atol=100 * TOL)

    @_examples
    @given(seed=st.integers(0, 2**32 - 1))
    def test_continuity_as_npseudo_vanishes(self, seed):
        t = _table(seed, 0.0)
        # coef() holds the real-item contrasts and the ties, not the ghost
        mle = quiet_fit(t, npseudo=0.0, tol=TOL).coef()[1]
        gaps = [np.max(np.abs(quiet_fit(t, npseudo=c, tol=TOL).coef()[1] - mle))
                for c in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b <= a + 100 * TOL for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-4 * gaps[0] + 100 * TOL

    @_examples
    @given(seed=st.integers(0, 2**32 - 1), npseudo=st.sampled_from([0.0, 0.5]),
           data=st.data())
    def test_item_permutation(self, seed, npseudo, data):
        t = _table(seed, npseudo)
        perm = data.draw(st.permutations(range(t.n_items)))
        permuted = rw.RankingsTable(tuple(t.items[k] for k in perm),
                                    t.ranks[:, perm], t.weights, t.na_mask)
        base = _theta(t, npseudo)
        # item k of the permuted table is item perm[k]; the ghost stays last
        expected = np.concatenate([base[perm], base[t.n_items:]])
        assert np.allclose(_theta(permuted, npseudo), expected,
                           rtol=0, atol=100 * TOL)


class TestMethodAgreementProperty:
    @_examples
    @given(seed=st.integers(0, 2**32 - 1), npseudo=st.sampled_from([0.0, 0.5]))
    def test_converged_fits_agree_within_tol_bound(self, seed, npseudo):
        # Both fits stop with |obs_i - exp_i| <= tol * max(scale, |obs_i|),
        # so the gradient of the fitted objective (pseudo terms included) on
        # the free parameters has norm at most eps.  The objective is concave;
        # with lam the least eigenvalue of its information there, each fit
        # lies within eps / lam of the optimum and within eps^2 / (2 lam) of
        # its objective.  lam is taken at Newton's estimate and halved as a
        # margin for its change between the fits; the objectives also carry
        # their rounding.
        t = _table(seed, npseudo)
        fits = []
        for method in ("iterative_scaling", "quasi_newton"):
            try:
                fits.append(quiet_fit(t, npseudo=npseudo, tol=1e-8, method=method))
            except ModelError:
                return
        assume(all(m.converged for m in fits))
        ev, newton = fits[1].events, fits[1].params.theta()
        free = _free_parameters(ev)
        eps = 1e-8 * np.linalg.norm(np.maximum(ev.weight_scale, np.abs(ev.obs_total))[free])
        lam = 0.5 * np.linalg.eigvalsh(ev.information(newton, ev.w_total)[np.ix_(free, free)])[0]
        assert lam > 0
        objective = [ev.loglik(m.params.theta(), ev.w_total, ev.obs_total) for m in fits]
        assert abs(objective[0] - objective[1]) <= (eps ** 2 / (2 * lam)
                                                    + 1e-12 * abs(objective[1]))
        contrasts = [m.coef()[1] for m in fits]
        assert np.max(np.abs(contrasts[0] - contrasts[1])) <= 2 * eps / lam
