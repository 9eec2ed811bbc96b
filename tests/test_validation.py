"""Correlation-based residual tests against naive double-loop oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from narxid import DataError, residual_tests


def naive_cross_correlation(a, b, max_lag):
    """Direct definition: value(tau) = sum_t a(t) b(t+tau), biased, normalized."""
    L = len(a)
    denom = np.sqrt(np.sum(a**2) * np.sum(b**2))
    out = {}
    for tau in range(-max_lag, max_lag + 1):
        acc = 0.0
        for t in range(L):
            if 0 <= t + tau < L:
                acc += a[t] * b[t + tau]
        out[tau] = acc / denom
    return out


def reference_cross_correlation(a, b, max_lag, two_sided):
    """The full-correlation formula: every lag, then the reported slice.

    Kept as the bit-for-bit reference for the per-lag dot products in
    ``validation._make_test``.  Returns (lags, values).
    """
    L = len(a)
    denom = np.sqrt(float(a @ a) * float(b @ b))
    if denom == 0.0:
        values = np.zeros(2 * max_lag + 1)
    else:
        # np.correlate(b, a, "full")[L-1+tau] = sum_t a(t) b(t+tau)
        full = np.correlate(b, a, mode="full")
        center = L - 1
        values = full[center - max_lag : center + max_lag + 1] / denom
    lags = np.arange(-max_lag, max_lag + 1)
    if not two_sided:
        keep = lags >= 0
        lags, values = lags[keep], values[keep]
    return lags, values


def reference_residual_tests(residuals, u, max_lag):
    """(name, lags, values, passed, degenerate) of the five tests."""
    L = len(residuals)
    bound = 1.96 / np.sqrt(L)
    e = residuals - residuals.mean()
    uc = u - u.mean()
    eu = residuals * u
    euc = eu - eu.mean()
    u2c = u**2 - (u**2).mean()
    e2c = residuals**2 - (residuals**2).mean()
    out = []
    for name, a, b, two_sided in (
        ("phi_ee", e, e, False),
        ("phi_ue", uc, e, True),
        ("phi_e_eu", euc, e, False),
        ("phi_u2e", u2c, e, True),
        ("phi_u2e2", u2c, e2c, True),
    ):
        lags, values = reference_cross_correlation(a, b, max_lag, two_sided)
        checked = values[lags != 0] if name == "phi_ee" else values
        degenerate = float(a @ a) == 0.0 or float(b @ b) == 0.0
        passed = degenerate or bool(np.all(np.abs(checked) <= bound))
        out.append((name, lags, values, passed, degenerate))
    return out


class TestMatchesFullCorrelation:
    """Per-lag dot products give the full correlation's values bit for bit."""

    LENGTHS = (4, 5, 57, 400, 4096, 20000)

    @staticmethod
    def assert_same(residuals, u, max_lag):
        report = residual_tests(residuals, u, max_lag)
        reference = reference_residual_tests(
            residuals, u, max_lag or min(25, len(u) // 4)
        )
        assert [t.name for t in report.tests] == [r[0] for r in reference]
        for test, (_, lags, values, passed, degenerate) in zip(report.tests, reference):
            assert np.array_equal(test.lags, lags), test.name
            assert np.array_equal(test.values.view(np.int64), values.view(np.int64)), test.name
            assert test.passed == passed, test.name
            assert test.degenerate == degenerate, test.name

    @pytest.mark.parametrize("L", LENGTHS)
    def test_random_records(self, L):
        rng = np.random.default_rng(L)
        residuals = rng.normal(size=L) * 0.3
        u = rng.normal(size=L) * 5.0 + 1.0
        for max_lag in (1, None, L - 1):
            self.assert_same(residuals, u, max_lag)

    @pytest.mark.parametrize("L", LENGTHS)
    def test_zero_residual_is_degenerate(self, L):
        u = np.random.default_rng(L).normal(size=L)
        self.assert_same(np.zeros(L), u, None)
        assert all(t.degenerate for t in residual_tests(np.zeros(L), u).tests)

    @pytest.mark.parametrize("L", LENGTHS)
    def test_constant_input(self, L):
        residuals = np.random.default_rng(L).normal(size=L)
        self.assert_same(residuals, np.full(L, 2.5), None)
        report = residual_tests(residuals, np.full(L, 2.5))
        assert report["phi_ue"].degenerate and not report["phi_ee"].degenerate


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_phi_ue_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        residuals = rng.normal(size=120)
        u = rng.normal(size=120)
        report = residual_tests(residuals, u, max_lag=10)
        test = report["phi_ue"]
        uc = u - u.mean()
        e = residuals - residuals.mean()
        naive = naive_cross_correlation(uc, e, 10)
        for lag, value in zip(test.lags, test.values):
            assert value == pytest.approx(naive[int(lag)], abs=1e-12)

    def test_acf_matches_double_loop(self):
        rng = np.random.default_rng(9)
        residuals = rng.normal(size=100)
        report = residual_tests(residuals, rng.normal(size=100), max_lag=8)
        test = report["phi_ee"]
        e = residuals - residuals.mean()
        naive = naive_cross_correlation(e, e, 8)
        for lag, value in zip(test.lags, test.values):
            assert value == pytest.approx(naive[int(lag)], abs=1e-12)


class TestContracts:
    def test_acf_zero_lag_is_one_and_excluded(self):
        rng = np.random.default_rng(1)
        report = residual_tests(rng.normal(size=200), rng.normal(size=200))
        acf = report["phi_ee"]
        assert acf.values[acf.lags == 0][0] == pytest.approx(1.0)
        # an otherwise-white record passes despite the unit spike at lag 0
        assert acf.passed or np.any(np.abs(acf.values[acf.lags != 0]) > acf.bound)

    def test_bound_value(self):
        rng = np.random.default_rng(2)
        report = residual_tests(rng.normal(size=400), rng.normal(size=400))
        assert report.tests[0].bound == pytest.approx(1.96 / np.sqrt(400))

    def test_values_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e = rng.normal(size=60) * rng.uniform(0.1, 10)
            u = rng.normal(size=60) * rng.uniform(0.1, 10)
            report = residual_tests(e, u, max_lag=12)
            for test in report.tests:
                assert np.all(np.abs(test.values) <= 1.0 + 1e-12)

    def test_delayed_copy_spikes_at_lag_3(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=500)
        residuals = np.roll(u, 3)  # residual(t) = u(t-3)
        residuals[:3] = rng.normal(size=3)
        report = residual_tests(residuals, u, max_lag=8)
        test = report["phi_ue"]
        spike = test.values[test.lags == 3][0]
        assert abs(spike) > test.bound
        assert not test.passed

    def test_zero_variance_residuals_degenerate(self):
        u = np.random.default_rng(5).normal(size=100)
        report = residual_tests(np.zeros(100), u)
        assert any(t.degenerate for t in report.tests)
        for t in report.tests:
            assert np.all(np.isfinite(t.values))

    def test_iid_residuals_mostly_inside(self):
        rng = np.random.default_rng(6)
        report = residual_tests(rng.normal(size=2000), rng.normal(size=2000))
        fractions = [t.fraction_inside for t in report.tests]
        assert np.mean(fractions) >= 0.9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=150)
        u = rng.normal(size=150)
        a = residual_tests(e, u)
        b = residual_tests(e, u)
        for ta, tb in zip(a.tests, b.tests):
            assert_allclose(ta.values, tb.values, rtol=0, atol=0)

    def test_input_validation(self):
        with pytest.raises(DataError):
            residual_tests(np.zeros(10), np.zeros(9))
        with pytest.raises(DataError):
            residual_tests(np.zeros(100), np.zeros(100), max_lag=100)
        with pytest.raises(DataError, match="at least 4 samples"):
            residual_tests(np.zeros(3), np.zeros(3))

    def test_unknown_test_name_raises_key_error(self):
        rng = np.random.default_rng(7)
        report = residual_tests(rng.normal(size=50), rng.normal(size=50))
        with pytest.raises(KeyError):
            report["no such test"]
