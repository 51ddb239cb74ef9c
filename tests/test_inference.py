"""Covariance, Z tests, metrics, quasi-variances, and their oracles."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import rankworth as rw
from rankworth.datasets import load_pudding
from rankworth.errors import DataError
from rankworth.likelihood import EventSet
from tests.conftest import (
    admissible_subsets,
    brute_force_strength,
    random_table,
    row_stages,
)


def quiet_fit(table, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rw.fit(table, **kw)


class TestVcov:
    def test_binomial_contrast_variance(self):
        # two items, wins (3, 1): var of the log-odds estimate = 1/3 + 1/1
        t = rw.from_rank_matrix([[1, 2]] * 3 + [[2, 1]], ["a", "b"])
        m = quiet_fit(t, npseudo=0, tol=1e-12)
        v = rw.vcov(m, ref=0)
        assert v[1, 1] == pytest.approx(1 / 3 + 1 / 1, rel=1e-8)

    def test_pudding_reference_item(self, pudding_fit7):
        v = rw.vcov(pudding_fit7, ref=0)
        se = np.sqrt(np.diag(v))
        published = [0.1872, 0.1935, 0.1882, 0.1927, 0.1924]
        assert np.allclose(se[1:6], published, atol=1e-4)
        assert se[6] == pytest.approx(0.0825, abs=1e-4)

    def test_pudding_mean_reference(self, pudding_fit7):
        v = rw.vcov(pudding_fit7, ref=None)
        se = np.sqrt(np.diag(v))[:6]
        published = [0.121949, 0.121818, 0.126823, 0.122003, 0.127054, 0.126594]
        assert np.allclose(se, published, atol=2e-5)

    def test_symmetry_and_psd(self, pudding_fit7):
        v = rw.vcov(pudding_fit7, ref=None)
        assert np.allclose(v, v.T, atol=1e-12)
        assert np.linalg.eigvalsh(v).min() >= -1e-10

    def test_reference_invariance_of_simple_contrasts(self, pudding_fit7):
        v1 = rw.vcov(pudding_fit7, ref=0)
        v2 = rw.vcov(pudding_fit7, ref=3)
        d1 = np.diag(v1)[:6]
        d2 = np.diag(v2)[:6]
        c1 = d1[:, None] + d1[None, :] - 2 * v1[:6, :6]
        c2 = d2[:, None] + d2[None, :] - 2 * v2[:6, :6]
        assert np.allclose(c1, c2, atol=1e-10)

    def test_averaged_set_reference(self, pudding_fit7):
        v = rw.vcov(pudding_fit7, ref=["1", "2"])
        names, est = pudding_fit7.coef(ref=["1", "2"])
        assert est[0] + est[1] == pytest.approx(0.0, abs=1e-12)
        assert v.shape == (7, 7)


class TestPoissonTrickOracle:
    """The analytic information must equal the information of the
    expanded-count log-linear model with per-event nuisance intercepts."""

    @staticmethod
    def _poisson_glm_vcov(table, fitted):
        d = fitted.max_tie_order
        events = [(table.weights[r], alts)
                  for r in range(table.n_rows)
                  if not table.na_mask[r] and table.weights[r] > 0
                  for _, alts in row_stages(table.ranks[r])]
        j = table.n_items
        n_params = j + (d - 1)
        rows = []
        mus = []
        n_events = len(events)
        for e_id, (weight, alts) in enumerate(events):
            subs = list(admissible_subsets(alts, d))
            logf = []
            xs = []
            for s in subs:
                x = np.zeros(n_events + n_params)
                x[e_id] = 1.0
                for i in s:
                    x[n_events + i] = 1.0 / len(s)
                if len(s) >= 2:
                    x[n_events + j + len(s) - 2] = 1.0
                xs.append(x)
                logf.append(np.log(brute_force_strength(s, fitted.params)))
            logf = np.array(logf)
            p = np.exp(logf - logf.max())
            p /= p.sum()
            for x, prob in zip(xs, p):
                rows.append(x)
                mus.append(weight * prob)
        x_mat = np.array(rows)
        mu = np.array(mus)
        info = x_mat.T @ (mu[:, None] * x_mat)
        # contrast parameterization: pin item 0; nuisance intercepts stay
        keep = [k for k in range(info.shape[0]) if k != n_events]
        info = info[np.ix_(keep, keep)]
        cov = np.linalg.inv(info)
        param_block = cov[n_events:, n_events:]
        padded = np.zeros((n_params, n_params))
        padded[1:, 1:] = param_block
        return padded

    def test_small_datasets(self):
        rng = np.random.default_rng(21)
        for trial in range(4):
            t = random_table(rng, n_items=4, n_rows=12, max_tie=2, partial=True)
            m = quiet_fit(t, npseudo=0, tol=1e-11)
            analytic = rw.vcov(m, ref=0)
            j = 4
            oracle = self._poisson_glm_vcov(t, m)
            assert np.allclose(analytic[:j, :j], oracle[:j, :j], atol=1e-8)
            assert np.allclose(analytic[j:, j:], oracle[j:, j:], atol=1e-8)
            assert np.allclose(analytic, oracle, atol=1e-8)


class TestSummarize:
    def test_pudding_item6_and_tie(self, pudding_fit7):
        s = rw.summarize(pudding_fit7, ref=0)
        i6 = s.names.index("6")
        assert s.estimates[i6] == pytest.approx(0.3771, abs=1e-3)
        assert s.std_errors[i6] == pytest.approx(0.1924, abs=1e-3)
        assert s.z_values[i6] == pytest.approx(1.960, abs=1e-3)
        assert s.p_values[i6] == pytest.approx(0.049983, abs=1e-3)
        tie = s.names.index("tie2")
        assert s.estimates[tie] == pytest.approx(-0.2919, abs=1e-3)
        assert s.p_values[tie] == pytest.approx(0.000402, abs=1e-4)

    def test_reference_item_has_no_se(self, pudding_fit7):
        s = rw.summarize(pudding_fit7, ref=0)
        assert s.estimates[0] == 0.0
        assert np.isnan(s.std_errors[0])

    def test_ref_shift_constant_and_tie_invariant(self, pudding_fit7):
        s1 = rw.summarize(pudding_fit7, ref=0)
        s2 = rw.summarize(pudding_fit7, ref=2)
        shift = s1.estimates[:6] - s2.estimates[:6]
        assert np.allclose(shift, shift[0], atol=1e-12)
        assert s1.z_values[6] == pytest.approx(s2.z_values[6], abs=1e-12)

    def test_unknown_ref(self, pudding_fit7):
        with pytest.raises(DataError):
            rw.summarize(pudding_fit7, ref="brand x")

    def test_p_values_are_the_normal_tail_exactly(self, pudding_fit7):
        tied = rw.from_rank_matrix([[1, 1, 2], [2, 1, 1], [1, 2, 1], [1, 1, 2],
                                    [1, 2, 3], [3, 1, 2]], ["a", "b", "c"])
        for f in (pudding_fit7, quiet_fit(tied)):
            for ref in (0, None):
                s = rw.summarize(f, ref=ref)
                assert np.array_equal(s.p_values, 2.0 * norm.sf(np.abs(s.z_values)),
                                      equal_nan=True)

    def test_standard_errors_free_of_weight_scale(self):
        # at npseudo = 0 the SEs scale as 1/sqrt(scale); only the reference is NA
        table = load_pudding()
        base = rw.summarize(quiet_fit(table, npseudo=0))
        big = rw.summarize(quiet_fit(table.with_weights(table.weights * 1e30), npseudo=0))
        assert np.isnan(big.std_errors[0]) and not np.isnan(big.std_errors[1:]).any()
        np.testing.assert_allclose(big.std_errors[1:] * 1e15, base.std_errors[1:], rtol=1e-10)


class TestModelMetrics:
    def test_pudding(self, pudding_fit7):
        m = rw.model_metrics(pudding_fit7)
        assert m.deviance == pytest.approx(1619.4, abs=0.1)
        assert m.residual_df == 1484
        assert m.aic == pytest.approx(1631.4, abs=0.1)

    def test_abc(self, abc):
        fit = quiet_fit(abc, npseudo=0)
        m = rw.model_metrics(fit)
        assert m.deviance == pytest.approx(5.1356, abs=1e-3)
        assert m.residual_df == 2
        assert m.aic == pytest.approx(9.1356, abs=1e-3)

    def test_single_pair_df_formula(self):
        # one 2-item ranking, one tie order: 1 event with 2 outcomes and
        # 1 free parameter gives df = (2 - 1) - 1 = 0
        t = rw.from_rank_matrix([[1, 2]], ["a", "b"])
        events = EventSet(t, 1)
        p = (t.n_items - 1) + 0
        assert events.df_outcomes() - p == 0

    def test_two_opposed_rankings_df(self):
        t = rw.from_rank_matrix([[1, 2], [2, 1]], ["a", "b"])
        fit = quiet_fit(t, npseudo=0, tol=1e-10)
        m = rw.model_metrics(fit)
        assert m.residual_df == 1


class TestQuasiVariances:
    def test_pudding_values(self, pudding_fit7):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        published = [0.1328950, 0.1327373, 0.1395740,
                     0.1330240, 0.1399253, 0.1392047]
        assert np.allclose(qv.quasi_se, published, atol=1e-4)

    def test_symmetric_design_is_exact(self):
        # full round robin with equal wins every way: all items exchangeable
        rows = []
        for i, j in itertools.combinations(range(4), 2):
            row_ij = np.zeros(4, dtype=int)
            row_ij[i], row_ij[j] = 1, 2
            row_ji = np.zeros(4, dtype=int)
            row_ji[i], row_ji[j] = 2, 1
            rows += [row_ij, row_ji]
        t = rw.from_rank_matrix(np.array(rows), list("abcd"))
        m = quiet_fit(t, npseudo=0, tol=1e-12)
        qv = rw.quasi_variances(m, ref=0)
        assert np.allclose(qv.quasi_var, qv.quasi_var[0], atol=1e-10)
        assert abs(qv.worst_simple_error) < 1e-8

    def test_reference_invariance(self, pudding_fit7):
        q1 = rw.quasi_variances(pudding_fit7, ref=0)
        q2 = rw.quasi_variances(pudding_fit7, ref=4)
        assert np.allclose(q1.quasi_se, q2.quasi_se, atol=1e-8)

    def test_diagnostics_match_recomputation(self, pudding_fit7):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        v = rw.vcov(pudding_fit7, ref=0)[:6, :6]
        d = np.diag(v)
        contrast_var = d[:, None] + d[None, :] - 2 * v
        iu, ju = np.triu_indices(6, k=1)
        rel = np.sqrt((qv.quasi_var[iu] + qv.quasi_var[ju])
                      / contrast_var[iu, ju]) - 1.0
        assert qv.simple_error_range[0] == pytest.approx(rel.min(), abs=1e-12)
        assert qv.simple_error_range[1] == pytest.approx(rel.max(), abs=1e-12)

    def test_all_contrast_range_bounds_simple_range(self, pudding_fit7):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        assert qv.all_error_range[0] <= qv.simple_error_range[0] + 1e-12
        assert qv.all_error_range[1] >= qv.simple_error_range[1] - 1e-12

    def test_reference_se_is_exported_as_undefined(self, pudding_fit7, tmp_path):
        # the reference item's SE is NaN, null in JSON, as in the summary
        import json

        qv = rw.quasi_variances(pudding_fit7, ref=0)
        s = rw.summarize(pudding_fit7, ref=0)
        assert np.isnan(qv.std_errors[0]) and np.isfinite(qv.std_errors[1:]).all()
        np.testing.assert_array_equal(qv.std_errors, s.std_errors[:6])
        qv.write_json(tmp_path / "qv.json")
        s.write_json(tmp_path / "summary.json")
        q_se = [row["se"] for row in json.loads((tmp_path / "qv.json").read_text())["items"]]
        s_se = [row["se"] for row in
                json.loads((tmp_path / "summary.json").read_text())["parameters"][:6]]
        assert q_se[0] is None and q_se == s_se
        qv.write_csv(tmp_path / "qv.csv")
        s.write_csv(tmp_path / "summary.csv")
        q_csv = [line.split(",")[2] for line in (tmp_path / "qv.csv").read_text().splitlines()]
        s_csv = [line.split(",")[2] for line in
                 (tmp_path / "summary.csv").read_text().splitlines()]
        assert q_csv[1:] == s_csv[1:7]

    def test_needs_three_items(self):
        t = rw.from_rank_matrix([[1, 2], [2, 1]], ["a", "b"])
        m = quiet_fit(t, npseudo=0, maxit=50)
        with pytest.raises(DataError):
            rw.quasi_variances(m)


class TestComparisonIntervals:
    def test_endpoint_arithmetic(self, pudding_fit7):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        lower, upper = rw.comparison_intervals(qv, 0.95)
        assert lower[0] == pytest.approx(-1.959964 * qv.quasi_se[0], abs=1e-5)
        assert upper[0] == pytest.approx(+1.959964 * qv.quasi_se[0], abs=1e-5)

    def test_invariance_up_to_common_shift(self, pudding_fit7):
        q1 = rw.quasi_variances(pudding_fit7, ref=0)
        q2 = rw.quasi_variances(pudding_fit7, ref=2)
        l1, u1 = rw.comparison_intervals(q1, 0.95)
        l2, u2 = rw.comparison_intervals(q2, 0.95)
        shift = l1 - l2
        assert np.allclose(shift, shift[0], atol=1e-7)
        assert np.allclose(u1 - u2, shift[0], atol=1e-7)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_normal_quantile_exactly(self, pudding_fit7, level):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        lower, upper = rw.comparison_intervals(qv, level)
        z = norm.ppf(0.5 + level / 2.0)
        assert np.array_equal(lower, qv.estimates - z * qv.quasi_se)
        assert np.array_equal(upper, qv.estimates + z * qv.quasi_se)

    def test_level_validation(self, pudding_fit7):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        with pytest.raises(DataError):
            rw.comparison_intervals(qv, 1.0)

    def test_csv_export(self, pudding_fit7, tmp_path):
        qv = rw.quasi_variances(pudding_fit7, ref=0)
        path = tmp_path / "qv.csv"
        qv.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "item,estimate,se,quasi_se,lower,upper"

    def test_json_exports(self, pudding_fit7, tmp_path):
        import json

        qv = rw.quasi_variances(pudding_fit7, ref=0)
        qpath = tmp_path / "qv.json"
        qv.write_json(qpath)
        loaded = json.loads(qpath.read_text())
        assert len(loaded["items"]) == 6
        assert loaded["items"][0]["quasi_se"] == pytest.approx(qv.quasi_se[0])

        s = rw.summarize(pudding_fit7, ref=0)
        spath = tmp_path / "summary.json"
        s.write_json(spath)
        sloaded = json.loads(spath.read_text())
        assert sloaded["parameters"][0]["se"] is None    # reference item
        assert sloaded["deviance"] == pytest.approx(s.deviance)


class TestHessian:
    def test_observed_information_vs_fd_gradient(self):
        rng = np.random.default_rng(22)
        for _ in range(4):
            t = random_table(rng, n_items=4, n_rows=10, max_tie=2, partial=True)
            m = quiet_fit(t, npseudo=0, tol=1e-9, maxit=500)
            ev = m.events
            theta = m.params.theta()
            info = ev.information(theta, ev.w_total)
            step = 1e-5
            for k in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[k] += step
                down[k] -= step
                grad_up = ev.obs_total - ev.expected(up, ev.w_total)
                grad_dn = ev.obs_total - ev.expected(down, ev.w_total)
                col = -(grad_up - grad_dn) / (2 * step)
                scale = np.maximum(1.0, np.abs(info[:, k]))
                assert np.all(np.abs(info[:, k] - col) / scale < 1e-4)
