"""Regression matrix construction and reference least squares.

Builds the ``L_eff x M`` matrix of candidate-term values and the aligned
target vector from an input-output record.  Columns are raw term values; no
centering or scaling is applied, so coefficients come out in the units of the
data.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, SingularityError
from .terms import Dictionary, Factor, Signal, Term

__all__ = ["IoData", "RegressionProblem", "build_problem", "least_squares", "term_columns"]

# A candidate column whose orthogonalized squared norm falls below this
# fraction of its original squared norm is treated as linearly dependent.
RANK_TOL = 1e-10

# Mean squares below this fraction of the target's mean square are noise: see noise_floor.
MSSE_FLOOR_REL = 1e-24


@dataclass(frozen=True)
class IoData:
    """An aligned input-output record, indexed by sample.

    The arrays must not be changed after construction: ``fingerprint`` and
    the regression problem :func:`build_problem` keeps on the record are
    computed from them once.
    """

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

    @cached_property
    def fingerprint(self) -> str:
        """The provenance ``data_hash``: SHA-256 of u's bytes then y's, 16 hex digits."""
        digest = hashlib.sha256(self.u.tobytes())
        digest.update(self.y.tobytes())
        return digest.hexdigest()[:16]

    def slice(self, start: int, stop: int) -> "IoData":
        if not (0 <= start < stop <= len(self)):
            raise DataError(
                f"sample range [{start}, {stop}) outside record of length {len(self)}"
            )
        return IoData(self.u[start:stop], self.y[start:stop])


def noise_floor(target: np.ndarray) -> float:
    """The mean square at or below which an error on ``target`` is
    numerically zero: ``MSSE_FLOOR_REL`` times the target's mean square.

    A PRESS path stops there, and the search clamps free-run errors to it
    and prunes exact fits against it, so all three read the same bits.
    """
    return MSSE_FLOOR_REL * float(np.mean(target**2))


def term_columns(terms: Sequence[Term], u: np.ndarray, y: np.ndarray, offset: int) -> np.ndarray:
    """Stack term-value columns for rows ``t = offset .. L-1`` (0-based).

    Each factor's lagged power is computed once, and each column is its
    factor prefix's column times its last factor's power (the constant is a
    column of ones), so a column holds the bits of the left-to-right product
    ``1 * f1 * f2 * ...``.  In an expanded dictionary the prefix is an
    earlier column; a prefix not in ``terms`` (a model's terms can lack
    one) is multiplied out on the side.  The result is one C-ordered
    ``n x M`` array.
    """
    L = len(y)
    n = L - offset
    phi = np.empty((n, len(terms)))
    powers: dict[Factor, np.ndarray] = {}
    columns: dict[tuple[Factor, ...], np.ndarray] = {(): np.ones(n)}

    def power(f: Factor) -> np.ndarray:
        p = powers.get(f)
        if p is None:
            x = y if f.signal is Signal.OUTPUT else u
            p = powers[f] = x[offset - f.lag : L - f.lag] ** f.exponent
        return p

    for j, term in enumerate(terms):
        factors = term.factors
        if not factors:
            phi[:, j] = 1.0
            continue
        prefix = factors[:-1]
        c = columns.get(prefix)
        # a loop, not a recursive closure: one would form a reference cycle
        # through the memo that keeps phi alive until the cyclic collector runs
        if c is None:
            c = columns[()]
            for f in prefix:
                c = c * power(f)
            columns[prefix] = c
        np.multiply(c, power(factors[-1]), out=phi[:, j])
        columns[factors] = phi[:, j]
    return phi


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

    # per-problem constants every selection path reads, computed once on
    # first use and read-only, like first_twins

    @cached_property
    def col_ss(self) -> np.ndarray:
        """Each column's squared norm."""
        return _read_only(np.einsum("ij,ij->j", self.phi, self.phi))

    @cached_property
    def col_norm(self) -> np.ndarray:
        """Each column's norm."""
        return _read_only(np.sqrt(self.col_ss))

    @cached_property
    def rank_floor(self) -> np.ndarray:
        """The orthogonalized squared norm at or below which each column
        counts as dependent: ``RANK_TOL`` times its squared norm."""
        return _read_only(RANK_TOL * self.col_ss)

    @cached_property
    def target_proj(self) -> np.ndarray:
        """Each column's product with the target."""
        return _read_only(self.target @ self.phi)

    @cached_property
    def target_ss(self) -> float:
        """The target's squared norm."""
        return float(self.target @ self.target)

    @cached_property
    def msse_floor(self) -> float:
        """The target's :func:`noise_floor`."""
        return noise_floor(self.target)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_problem(data: IoData, dictionary: Dictionary) -> RegressionProblem:
    """Assemble the regression problem for ``dictionary`` over ``data``.

    Requires more samples than the dictionary's maximum lag, and an output
    with nonzero energy on the fitted rows (:class:`DataError` otherwise:
    every ERR divides by that energy); warns when the number of usable rows
    does not exceed the number of candidates.

    The last problem built is kept on ``data``, as its ``fingerprint`` is,
    and returned again for a dictionary equal to its own, so an overfit
    sketch and the search after it share one ``phi`` and its constants.
    """
    last = getattr(data, "_problem", None)
    if last is not None and last.dictionary == dictionary:
        return last
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
    problem = RegressionProblem(phi, target, dictionary, offset)
    object.__setattr__(data, "_problem", problem)
    return problem


def least_squares(
    problem: RegressionProblem, selected: Sequence[int] | None = None
) -> np.ndarray:
    """Ordinary least squares over the selected columns.

    Reference parameter estimator used for final refits and as the oracle
    counterpart of the orthogonal decomposition.  Raises
    :class:`SingularityError` naming the first column whose orthogonalized
    squared norm falls below ``RANK_TOL`` times its original squared norm.
    """
    selected = list(range(problem.n_terms) if selected is None else selected)
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
