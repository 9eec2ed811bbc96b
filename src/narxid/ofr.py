"""Orthogonal forward regression along a single orthogonalization path.

Term selection is greedy: at each step every unselected candidate is
orthogonalized against the already-selected terms (modified Gram-Schmidt,
maintained incrementally across the whole candidate set) and scored either by
the error reduction ratio (ERR, maximized) or by the mean-squared PRESS
statistic (leave-one-out one-step error, minimized).  The first term of the
path can be forced, which is how multi-path searches enumerate
orthogonalization paths.

Both metrics are recorded for every selected step regardless of which one
drives the selection, along with the unit upper-triangular factors needed to
recover coefficients in the original basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LeverageError, SingularityError
from .regression import RANK_TOL, RegressionProblem

__all__ = [
    "Criterion",
    "PathStep",
    "SelectionPath",
    "ofr_select",
    "err_of",
    "press_of",
    "back_substitute",
    "default_max_terms",
]

# Reject a candidate whenever any 1 - leverage falls below this: the deleted
# residual would blow up, signalling an interpolating fit.
LEVERAGE_GUARD = 1e-8

# An ERR path stops once its cumulative ERR reaches this.
ERR_TOTAL = 1.0 - 1e-6

# One re-orthogonalization pass when the orthogonalized norm has dropped by
# more than this factor relative to the source column.
_REORTH_RATIO = 1e4


class Criterion(Enum):
    """Selection score: maximize explained variance or minimize LOO error."""

    ERR = "err"
    PRESS = "press"


class PathStep(NamedTuple):
    term_index: int
    err: float
    ms_press: float
    g: float


@dataclass(frozen=True)
class SelectionPath:
    """One finished orthogonalization path.

    ``triangular`` is the unit upper-triangular factor A with
    ``phi_selected = W @ A`` for the orthogonal columns W; coefficients in
    the original basis solve ``A theta = g``.
    """

    steps: tuple[PathStep, ...]
    triangular: np.ndarray
    stop_reason: str
    n_evaluated: int

    @property
    def term_indices(self) -> tuple[int, ...]:
        return tuple(s.term_index for s in self.steps)


def default_max_terms(n_terms: int, n_rows: int) -> int:
    """Identifiability guard: at most a quarter of the rows, capped at 30."""
    return max(1, min(n_terms, n_rows // 4, 30))


def err_of(w: np.ndarray, target: np.ndarray) -> float:
    """Error reduction ratio of one orthogonalized column.

    ``(w.y)^2 / ((w.w)(y.y))``: the fraction of the target's (uncentered)
    energy explained by ``w``.  Raises :class:`SingularityError` for a
    numerically zero column.
    """
    ww = float(w @ w)
    if ww <= 0.0 or not np.isfinite(ww):
        raise SingularityError("orthogonalized candidate has zero norm")
    yy = float(target @ target)
    return float(w @ target) ** 2 / (ww * yy)


def press_of(
    selected_w: Sequence[np.ndarray] | np.ndarray | None,
    w: np.ndarray,
    target: np.ndarray,
) -> float:
    """Mean-squared PRESS of the model formed by the path so far plus ``w``.

    The columns in ``selected_w`` must be mutually orthogonal and orthogonal
    to ``w`` (the state an OFR path maintains).  Equals the brute-force
    leave-one-out refit error of the corresponding unorthogonalized subset:
    with orthogonal columns the hat-matrix diagonal is a running sum of
    ``w_j(t)^2 / (w_j.w_j)`` and each deleted residual is
    ``e(t) / (1 - h(t))``.

    Raises :class:`LeverageError` when any ``1 - h(t)`` falls below the
    leverage guard.
    """
    target = np.asarray(target, dtype=float)
    resid = target.copy()
    lev = np.zeros(len(target))
    cols = list(selected_w) if selected_w is not None else []
    cols.append(np.asarray(w, dtype=float))
    for col in cols:
        ss = float(col @ col)
        if ss <= 0.0:
            raise SingularityError("orthogonal column has zero norm")
        g = float(resid @ col) / ss
        resid = resid - g * col
        lev = lev + col**2 / ss
    denom = 1.0 - lev
    if np.any(denom < LEVERAGE_GUARD):
        raise LeverageError(
            "leave-one-out leverage reached 1; deleted residuals undefined"
        )
    return float(np.mean((resid / denom) ** 2))


def back_substitute(path: SelectionPath) -> np.ndarray:
    """Coefficients in the original term basis from the orthogonal record."""
    k = len(path.steps)
    g = np.array([s.g for s in path.steps])
    theta = g.copy()
    A = path.triangular
    for i in range(k - 2, -1, -1):
        theta[i] -= A[i, i + 1 : k] @ theta[i + 1 : k]
    return theta


def ofr_select(
    problem: RegressionProblem,
    criterion: Criterion = Criterion.PRESS,
    forced_first: int | None = None,
    max_terms: int | None = None,
    stop: bool = True,
) -> SelectionPath:
    """Run one orthogonalization path over ``problem``.

    ``forced_first`` pins the first selected column; later steps follow the
    criterion.  Candidates whose orthogonalized squared norm falls below
    ``RANK_TOL`` times the original are dropped as dependent; PRESS
    candidates whose leverage trips the guard are rejected for that step.
    Ties break toward the lowest dictionary index.  With ``stop`` set, an
    ERR path ends once its cumulative ERR reaches ``ERR_TOTAL`` and a PRESS
    path at the first PRESS increase; running out of candidates, the
    leverage guard and the ``max_terms`` cap end a path either way.  The
    reason is recorded.
    """
    phi = problem.phi
    target = problem.target
    n_rows, n_cols = phi.shape
    if max_terms is None:
        max_terms = default_max_terms(n_cols, n_rows)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if forced_first is not None and not (0 <= forced_first < n_cols):
        raise ValueError(f"forced_first index {forced_first} out of range")

    work = phi.astype(float, copy=True)  # candidates, orthogonalized in place
    orig_ss = np.einsum("ij,ij->j", phi, phi)
    yy = float(target @ target)

    w_cols: list[np.ndarray] = []
    w_ss: list[float] = []
    steps: list[PathStep] = []
    # acc[i, c]: coefficient of the i-th selected orthogonal column in the
    # running expansion of candidate column c (the triangular record); a
    # path selects at most n_cols terms, whatever max_terms says.
    acc = np.zeros((min(max_terms, n_cols), n_cols))
    resid = target.astype(float, copy=True)
    leverage = np.zeros(n_rows)
    available = np.ones(n_cols, dtype=bool)
    # n x M floats for one step's PRESS numerators, then for its update
    scratch = np.empty(n_rows * n_cols)
    n_evaluated = 0
    stop_reason = "max_terms"

    while len(steps) < max_terms:
        cand_ss = np.einsum("ij,ij->j", work, work)
        usable = available & (cand_ss > RANK_TOL * orig_ss)
        if not usable.any():
            stop_reason = "no usable candidates (rank tolerance)"
            break

        if not steps and forced_first is not None:
            if not usable[forced_first]:
                stop_reason = "forced first term is rank-deficient"
                break
            best = forced_first
        else:
            idx = np.where(usable)[0]
            n_evaluated += len(idx)
            wm = work[:, idx]
            ssm = cand_ss[idx]
            proj = resid @ wm
            if criterion is Criterion.ERR:
                # resid.w equals target.w for columns orthogonal to the span
                scores = proj**2 / (ssm * yy)
                best = int(idx[int(np.argmax(scores))])
            else:
                # deleted residuals, numerators in scratch and denominators
                # over wm: the elementwise operations of out-of-place
                # expressions, without their n x M temporaries.  work[:, idx]
                # gathers in Fortran order, so np.mean below sums each column
                # pairwise; the numerators keep that layout to keep its bits.
                deleted_num = np.multiply(
                    wm, proj / ssm, out=scratch[: wm.size].reshape(wm.shape, order="F")
                )
                np.subtract(resid[:, None], deleted_num, out=deleted_num)
                deleted_den = np.square(wm, out=wm)
                deleted_den /= ssm
                np.subtract((1.0 - leverage)[:, None], deleted_den, out=deleted_den)
                rejected = (deleted_den < LEVERAGE_GUARD).any(axis=0)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    deleted_num /= deleted_den
                    deleted_num *= deleted_num
                    press = np.mean(deleted_num, axis=0)
                press[rejected] = np.inf
                if not np.isfinite(press).any():
                    stop_reason = "all candidates leverage-rejected"
                    break
                j = int(np.argmin(press))
                if stop and steps and press[j] > steps[-1].ms_press:
                    stop_reason = "PRESS increase"
                    break
                best = int(idx[j])

        k = len(steps)
        w = work[:, best].copy()
        ws = float(w @ w)
        if ws * _REORTH_RATIO**2 < orig_ss[best]:
            # norm collapsed; one re-orthogonalization pass against the
            # selected columns, folding the corrections into the record
            for i in range(k):
                c = float(w_cols[i] @ w) / w_ss[i]
                w -= c * w_cols[i]
                acc[i, best] += c
            ws = float(w @ w)

        g = float(resid @ w) / ws
        err = float(w @ target) ** 2 / (ws * yy)
        resid = resid - g * w
        leverage = leverage + w**2 / ws
        denom = 1.0 - leverage
        if np.all(denom >= LEVERAGE_GUARD):
            ms_press = float(np.mean((resid / denom) ** 2))
        else:
            ms_press = float("inf")

        w_cols.append(w)
        w_ss.append(ws)
        steps.append(PathStep(best, err, ms_press, g))
        available[best] = False

        rem = np.where(available)[0]
        if rem.size:
            # BLAS gemv and einsum round a column's sums differently
            # depending on where it sits in the block, so the projections
            # keep their layouts: gemv over the compacted remaining columns
            # here, einsum over the full block and scoring over the
            # compacted usable columns above.  The multiply-subtract is
            # elementwise, with the same bits wherever a column sits, so it
            # runs in place over the full block: row acc[k] is zero outside
            # rem, and the selected columns, which lose a zero multiple of
            # w, are never read again.
            acc[k, rem] = (w @ work[:, rem]) / ws
            work -= np.multiply(w[:, None], acc[k], out=scratch.reshape(work.shape))

        if stop and criterion is Criterion.ERR and sum(s.err for s in steps) >= ERR_TOTAL:
            stop_reason = "cumulative ERR threshold"
            break

    # column c of acc is written only above the row of the step that
    # selects c, so the gather is strictly upper triangular; take keeps it
    # C-ordered, so back_substitute's row slices stay contiguous
    triangular = acc[: len(steps)].take([s.term_index for s in steps], axis=1)
    np.fill_diagonal(triangular, 1.0)
    return SelectionPath(tuple(steps), triangular, stop_reason, n_evaluated)
