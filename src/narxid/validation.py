"""Correlation-based residual tests for nonlinear model validation.

For an unbiased model the residuals should be unpredictable from themselves,
from the input, and from simple nonlinear transforms of both.  Five
normalized correlation functions are computed, each with the usual
``+/- 1.96 / sqrt(L)`` confidence band:

* ``phi_ee``    - residual autocorrelation, lags 0..max_lag (lag 0 is 1 by
  construction and excluded from the pass check);
* ``phi_ue``    - input/residual cross-correlation, lags -max_lag..max_lag;
* ``phi_e_eu``  - residual against the lagged residual*input product,
  lags 0..max_lag;
* ``phi_u2e``   - mean-removed squared input against the residual,
  lags -max_lag..max_lag;
* ``phi_u2e2``  - mean-removed squared input against the mean-removed
  squared residual, lags -max_lag..max_lag.

All estimators use the biased (1/L) normalization, which keeps every value
in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["CorrelationTest", "ValidationReport", "residual_tests"]

# the fewest residuals the suite runs on
MIN_RESIDUALS = 4


@dataclass(frozen=True)
class CorrelationTest:
    """One correlation function with its confidence band and verdict."""

    name: str
    lags: np.ndarray
    values: np.ndarray
    bound: float
    fraction_inside: float
    passed: bool
    degenerate: bool = False


@dataclass(frozen=True)
class ValidationReport:
    """The five-test suite over one residual record."""

    tests: tuple[CorrelationTest, ...]
    residual_variance: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tests)

    def __getitem__(self, name: str) -> CorrelationTest:
        for t in self.tests:
            if t.name == name:
                return t
        raise KeyError(name)


def _make_test(
    name: str,
    a: np.ndarray,
    b: np.ndarray,
    lags: np.ndarray,
    skip_zero_lag: bool = False,
) -> CorrelationTest:
    """Biased normalized cross-correlation of ``a`` and ``b`` at ``lags``,
    checked against the band ``1.96 / sqrt(len(a))``.

    Value at lag ``tau`` estimates ``E[a(t) b(t+tau)]`` normalized by the
    zero-lag energies, so a spike at ``tau = d > 0`` means ``b`` repeats
    ``a`` delayed by ``d`` samples.  Each value is one dot product over the
    overlap of the two records, the one ``np.correlate(b, a, "full")``
    forms for that lag, so only the reported lags cost anything.  The full
    overlap goes through ``np.correlate`` itself, which sums records of up
    to 11 samples in plain order rather than by a BLAS dot product.
    """
    L = len(a)
    bound = 1.96 / np.sqrt(L)
    aa, bb = float(a @ a), float(b @ b)
    degenerate = aa == 0.0 or bb == 0.0
    denom = np.sqrt(aa * bb)
    if denom == 0.0:
        values = np.zeros(len(lags))
    else:
        values = np.array([
            a[: L - k] @ b[k:] if k > 0
            else a[-k:] @ b[: L + k] if k < 0
            else np.correlate(b, a)[0]
            for k in lags
        ]) / denom
    checked = values[lags != 0] if skip_zero_lag else values
    inside = np.abs(checked) <= bound
    fraction = float(np.mean(inside)) if inside.size else 1.0
    passed = degenerate or bool(np.all(inside))
    return CorrelationTest(
        name, lags, values, bound, fraction, passed, degenerate
    )


def residual_tests(residuals, u, max_lag: int | None = None) -> ValidationReport:
    """Run the five-test suite on aligned residual and input records.

    ``max_lag`` defaults to ``min(25, L // 4)``.  Zero-variance residuals
    are flagged degenerate instead of dividing by zero.
    """
    residuals = np.asarray(residuals, dtype=float)
    u = np.asarray(u, dtype=float)
    if residuals.ndim != 1 or u.ndim != 1 or len(residuals) != len(u):
        raise DataError("residuals and input must be aligned 1-D arrays")
    L = len(residuals)
    if L < MIN_RESIDUALS:
        raise DataError(f"need at least {MIN_RESIDUALS} samples for residual tests")
    if max_lag is None:
        max_lag = min(25, L // 4)
    if not (1 <= max_lag < L):
        raise DataError(f"max_lag {max_lag} out of range for {L} samples")

    e = residuals - residuals.mean()
    uc = u - u.mean()
    eu = residuals * u
    euc = eu - eu.mean()
    u2 = u**2
    u2c = u2 - u2.mean()
    e2 = residuals**2
    e2c = e2 - e2.mean()

    one_sided = np.arange(0, max_lag + 1)
    two_sided = np.arange(-max_lag, max_lag + 1)
    tests = (
        _make_test("phi_ee", e, e, one_sided, skip_zero_lag=True),
        _make_test("phi_ue", uc, e, two_sided),
        # residual against the delayed residual*input product: value at
        # tau >= 0 estimates E[e(t) (e u)(t - tau)]
        _make_test("phi_e_eu", euc, e, one_sided),
        _make_test("phi_u2e", u2c, e, two_sided),
        _make_test("phi_u2e2", u2c, e2c, two_sided),
    )
    return ValidationReport(tests, float(np.var(residuals)), L)
