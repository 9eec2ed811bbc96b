"""Regression matrix construction and reference least squares.

Builds the ``L_eff x M`` matrix of candidate-term values and the aligned
target vector from an input-output record.  Columns are raw term values; no
centering or scaling is applied, so coefficients come out in the units of the
data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, SingularityError
from .terms import Dictionary, Signal, Term

__all__ = ["IoData", "RegressionProblem", "build_problem", "least_squares", "term_columns"]

# A candidate column whose orthogonalized squared norm falls below this
# fraction of its original squared norm is treated as linearly dependent.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class IoData:
    """An aligned input-output record, indexed by sample."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim != 1 or y.ndim != 1:
            raise DataError("u and y must be one-dimensional sample arrays")
        if len(u) != len(y):
            raise DataError(f"u and y lengths differ: {len(u)} vs {len(y)}")
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(y)):
            raise DataError("u and y must contain only finite values")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.y)

    def slice(self, start: int, stop: int) -> "IoData":
        if not (0 <= start < stop <= len(self)):
            raise DataError(
                f"sample range [{start}, {stop}) outside record of length {len(self)}"
            )
        return IoData(self.u[start:stop], self.y[start:stop])


def term_columns(terms: Sequence[Term], u: np.ndarray, y: np.ndarray, offset: int) -> np.ndarray:
    """Stack term-value columns for rows ``t = offset .. L-1`` (0-based)."""
    rows = np.arange(offset, len(y))
    cols = []
    for term in terms:
        c = np.ones(len(rows))
        for f in term.factors:
            x = y if f.signal is Signal.OUTPUT else u
            c = c * x[rows - f.lag] ** f.exponent
        cols.append(c)
    return np.column_stack(cols) if cols else np.empty((len(rows), 0))


@dataclass(frozen=True)
class RegressionProblem:
    """Term-value matrix, target vector and their dictionary.

    Row ``t - offset`` holds the candidate values at time ``t``; the target
    holds ``y(t)``; ``offset`` equals the dictionary's maximum lag.  Columns
    correspond one-to-one with dictionary order.  Read-only after
    construction, safe to share across concurrent selection paths.
    """

    phi: np.ndarray
    target: np.ndarray
    dictionary: Dictionary
    offset: int

    def __post_init__(self):
        # selection reads phi's bits as float64 (see first_twins)
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_terms(self) -> int:
        return self.phi.shape[1]

    @cached_property
    def first_twins(self) -> np.ndarray:
        """Column c -> the lowest index of a column equal to column c bit for
        bit (c itself when there is none), e.g. ``u(t-k)`` for ``u(t-k)^2``
        on a 0/1 input.  Computed once per problem, on first use."""
        bits = self.phi.view(np.int64)
        fingerprint = bits.sum(axis=0)  # wraps on overflow; equal columns agree
        first: dict[int, int] = {}
        twins = np.array(
            [first.setdefault(f, c) for c, f in enumerate(fingerprint.tolist())], dtype=np.intp
        )
        # a shared fingerprint is checked bit for bit
        for c in np.flatnonzero(twins != np.arange(twins.size)):
            same = np.flatnonzero(fingerprint[:c] == fingerprint[c])
            twins[c] = next((j for j in same if np.array_equal(bits[:, j], bits[:, c])), c)
        return twins


def build_problem(data: IoData, dictionary: Dictionary) -> RegressionProblem:
    """Assemble the regression problem for ``dictionary`` over ``data``.

    Requires more samples than the dictionary's maximum lag, and an output
    with nonzero energy on the fitted rows (:class:`DataError` otherwise:
    every ERR divides by that energy); warns when the number of usable rows
    does not exceed the number of candidates.
    """
    offset = dictionary.max_lag
    L = len(data)
    if L <= offset:
        raise InsufficientDataError(
            f"record of length {L} cannot support maximum lag {offset}"
        )
    target = data.y[offset:].copy()
    if float(target @ target) == 0.0:
        raise DataError(
            f"output has zero energy on the fitted rows (samples {offset}..{L - 1}); "
            "there is nothing to identify"
        )
    phi = term_columns(dictionary.terms, data.u, data.y, offset)
    if phi.shape[0] <= phi.shape[1]:
        warnings.warn(
            f"only {phi.shape[0]} usable rows for {phi.shape[1]} candidate terms; "
            "estimates may be ill-determined",
            stacklevel=2,
        )
    phi.setflags(write=False)
    target.setflags(write=False)
    return RegressionProblem(phi, target, dictionary, offset)


def least_squares(
    problem: RegressionProblem, selected: Sequence[int] | None = None
) -> np.ndarray:
    """Ordinary least squares over the selected columns.

    Reference parameter estimator used for final refits and as the oracle
    counterpart of the orthogonal decomposition.  Raises
    :class:`SingularityError` naming the first column whose orthogonalized
    squared norm falls below ``RANK_TOL`` times its original squared norm.
    """
    if selected is None:
        selected = range(problem.n_terms)
    selected = list(selected)
    A = problem.phi[:, selected]
    if A.shape[1] == 0:
        return np.empty(0)
    q, r = np.linalg.qr(A)
    diag = np.abs(np.diag(r)) ** 2
    orig = np.einsum("ij,ij->j", A, A)
    bad = np.where(diag < RANK_TOL * orig)[0]
    if bad.size:
        j = int(bad[0])
        name = str(problem.dictionary[selected[j]])
        raise SingularityError(
            f"column {name} is numerically dependent on the preceding selection",
            column=name,
        )
    return np.linalg.solve(r, q.T @ problem.target)
