"""Orthogonal forward regression along a single orthogonalization path.

Term selection is greedy: at each step every unselected candidate is scored,
as if orthogonalized against the already-selected terms, either by the
mean-squared PRESS statistic (leave-one-out one-step error, minimized) or by
the error reduction ratio (ERR, maximized).  The first term of the path can
be forced, which is how multi-path searches enumerate orthogonalization
paths.

Both criteria run one loop, which never orthogonalizes the candidate block.
It keeps each candidate's orthogonalized squared norm and projection on the
target, downdated after every step from one product of the new orthogonal
column with phi (Korenberg, Biol. Cybern. 60, 1989; Chen, Billings & Luo,
Int. J. Control 50, 1989).  ERR scores from those alone.  PRESS needs every
row's leverage, but a candidate's residual sum of squares, which the
downdated values give at O(1), is a lower bound on n times its PRESS, so a
PRESS step forms explicit columns only for the candidates that can still
win it (the PRESS-driven OFR of Chen, Hong, Harris & Sharkey, IEEE Trans.
SMC-B 34, 2004; Li, Peng & Irwin, IEEE Trans. Autom. Control 50, 2005).
The selected column is formed explicitly and taken through one step, which
records both metrics whichever one drives the selection, along with the
unit upper-triangular factors needed to recover coefficients in the
original basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, LeverageError, SingularityError
from .regression import RegressionProblem

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

_EPS = float(np.finfo(float).eps)

# A PRESS step bounds its candidates' PRESS before scoring them only when
# the scoring block holds at least this many elements (rows x usable
# candidates): below it the bound's extra numpy calls cost at least what
# the explicit columns it saves do.  On the benchmark's small-batch
# workload (12 identify calls on 58- to 398-row records, 2-core x86-64,
# OpenBLAS), bounding every block instead raised wall_ref_s by 1.2% and
# cpu_ref_s by 1.3% in the median of 8 alternating pairs, slower in 5 and
# 6 of them, within the runs' spread (BENCH_31.json, "gate_runs"; 5.5% and
# 7.2% before the step's per-call overhead was cut, BENCH_26.json).  Per
# path, scoring every candidate in one call took 0.80 times as long as
# bounded scoring on 58-row records and 1.09 times on 398-row ones.  See
# _press_scores.
_BOUND_MIN_BLOCK = 2**12


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
    numerically zero column and :class:`DataError` for a zero target.
    """
    ww = float(w @ w)
    if ww <= 0.0 or not np.isfinite(ww):
        raise SingularityError("orthogonalized candidate has zero norm")
    yy = float(target @ target)
    if yy == 0.0:
        raise DataError("target is zero; its ERR is undefined")
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
    Ties break toward the lowest dictionary index, and so does a choice
    between columns equal bit for bit.  With ``stop`` set, an ERR path ends
    once its cumulative ERR reaches ``ERR_TOTAL``, and a PRESS path at the
    first PRESS increase (``"PRESS increase"``) or right after the step
    whose PRESS reaches ``problem.msse_floor`` (``"PRESS floor"``: every
    later score would be rounding noise); running out of candidates, the
    leverage guard and the ``max_terms`` cap end a path either way.  The
    reason is recorded.  ``n_evaluated`` counts every usable candidate a
    step considers, whether the residual bound ruled it out or it was scored
    in full.  A zero target raises :class:`DataError`: every ERR divides by
    its energy.
    """
    phi = problem.phi
    n_rows, n_cols = phi.shape
    if max_terms is None:
        max_terms = default_max_terms(n_cols, n_rows)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if forced_first is not None and not (0 <= forced_first < n_cols):
        raise ValueError(f"forced_first index {forced_first} out of range")
    press = criterion is Criterion.PRESS
    path = _Path(problem, max_terms)
    cand_ss = problem.col_ss.copy()
    cand_proj = problem.target_proj.copy()
    n_evaluated = 0
    stop_reason = "max_terms"

    while len(path.steps) < max_terms:
        usable = path.available & (cand_ss > problem.rank_floor)
        idx = usable.nonzero()[0]
        if not idx.size:
            stop_reason = "no usable candidates (rank tolerance)"
            break

        if not path.steps and forced_first is not None:
            if not usable[forced_first]:
                stop_reason = "forced first term is rank-deficient"
                break
            best = forced_first
        else:
            n_evaluated += len(idx)
            if press:
                scores = _press_scores(path, idx, cand_ss[idx], cand_proj[idx])
                j = int(scores.argmin())
                if scores[j] == np.inf:
                    stop_reason = "all candidates leverage-rejected"
                    break
                if stop and path.steps and scores[j] > path.steps[-1].ms_press:
                    stop_reason = "PRESS increase"
                    break
            else:
                j = int((cand_proj[idx] ** 2 / (cand_ss[idx] * problem.target_ss)).argmax())
            # columns equal bit for bit score differently in the last bits
            # (a BLAS product rounds a column by where it sits in phi), so
            # the lowest index is taken as for any other tie
            best = int(idx[j])
            if usable[problem.first_twins[best]]:
                best = int(problem.first_twins[best])

        k = len(path.steps)
        w = phi[:, best] - path.acc[:k, best] @ path.w_rows[:k]
        ws, wy = path.take(best, w)
        if stop and press and path.steps[-1].ms_press <= problem.msse_floor:
            stop_reason = "PRESS floor"
            break
        if stop and not press and sum(s.err for s in path.steps) >= ERR_TOTAL:
            stop_reason = "cumulative ERR threshold"
            break

        # after the step that fills max_terms no candidate is read again
        if len(path.steps) < max_terms:
            # candidate c orthogonalized is phi_c - sum_i acc[i, c] w_i, so
            # its product with w is w.phi_c less w's rounding-level products
            # with the earlier columns times acc[:, c]: without that term the
            # downdates pick up errors of phi's scale on ill-conditioned
            # dictionaries.  Selected columns get a zero coefficient, which
            # keeps the record triangular; their norms are never read again.
            d = w @ phi - (path.w_rows[:k] @ w) @ path.acc[:k]
            # row k of acc is still zero, which selected columns keep
            coeffs = np.divide(d, ws, out=path.acc[k], where=path.available)
            cand_ss -= coeffs * d
            cand_proj -= coeffs * wy

    return path.finish(stop_reason, n_evaluated)


class _Path:
    """What a path records as it takes columns: the orthogonal columns, the
    residual and leverage of the fit so far (with ``1 - leverage``), the
    steps, and ``acc[i, c]``, the coefficient of the i-th orthogonal column
    in the expansion of candidate column c (the triangular record)."""

    def __init__(self, problem: RegressionProblem, max_terms: int):
        n_rows, n_cols = problem.phi.shape
        self.problem = problem
        if problem.target_ss == 0.0:
            raise DataError("target is zero; its ERR is undefined")
        # a path selects at most n_cols terms, whatever max_terms says
        k_max = min(max_terms, n_cols)
        self.w_rows = np.empty((k_max, n_rows))  # orthogonal column i in row i
        self.w_ss: list[float] = []
        self.acc = np.zeros((k_max, n_cols))
        self.resid = problem.target
        self.leverage = np.zeros(n_rows)
        self.one_less_leverage = np.ones(n_rows)
        self.available = np.ones(n_cols, dtype=bool)
        self.steps: list[PathStep] = []

    def take(self, best: int, w: np.ndarray) -> tuple[float, float]:
        """Select column ``best``, orthogonalized as ``w``; returns w.w and
        w.y.

        When the norm has collapsed, ``w`` gets one re-orthogonalization
        pass, in place, with the corrections folded into the record.
        """
        k = len(self.steps)
        problem = self.problem
        ws = float(w @ w)
        if ws * _REORTH_RATIO**2 < problem.col_ss[best]:
            for i in range(k):
                c = float(self.w_rows[i] @ w) / self.w_ss[i]
                w -= c * self.w_rows[i]
                self.acc[i, best] += c
            ws = float(w @ w)

        g = float(self.resid @ w) / ws
        wy = float(w @ problem.target)
        err = wy**2 / (ws * problem.target_ss)
        self.resid = self.resid - g * w
        self.leverage = self.leverage + w**2 / ws
        denom = self.one_less_leverage = 1.0 - self.leverage
        # np.mean's sum and division without its Python wrapper
        if denom.min() >= LEVERAGE_GUARD:
            ms_press = float(np.add.reduce((self.resid / denom) ** 2) / denom.size)
        else:
            ms_press = float("inf")

        self.w_rows[k] = w
        self.w_ss.append(ws)
        self.steps.append(PathStep(best, err, ms_press, g))
        self.available[best] = False
        return ws, wy

    def finish(self, stop_reason: str, n_evaluated: int) -> SelectionPath:
        steps = self.steps
        # column c of acc is written only above the row of the step that
        # selects c, so the gather is strictly upper triangular; take keeps
        # it C-ordered, so back_substitute's row slices stay contiguous
        triangular = self.acc[: len(steps)].take([s.term_index for s in steps], axis=1)
        np.fill_diagonal(triangular, 1.0)
        return SelectionPath(tuple(steps), triangular, stop_reason, n_evaluated)


def _press_scores(path: _Path, idx: np.ndarray, ss: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Mean-squared PRESS of each candidate column ``idx``, or ``inf`` for a
    candidate the leverage guard rejects or the residual bound rules out.

    ``ss`` and ``proj`` are the candidates' downdated squared norms and
    projections on the target.  Every ``1 - h(t)`` is at most 1, so ``n *
    PRESS_j >= rr - proj_j^2 / ss_j``, the candidate's residual sum of
    squares, at O(1) per candidate.  On a block of at least
    ``_BOUND_MIN_BLOCK`` elements the candidate with the lowest bound is
    scored first, and only the candidates whose bound is within rounding of
    ``n`` times its PRESS are scored after it: no other can have a PRESS at
    or below it, so the step's minimum, its lowest-index tie and the stop
    tests are those of scoring every candidate.
    """
    g = proj / ss
    problem = path.problem
    if problem.n_rows * idx.size < _BOUND_MIN_BLOCK:
        return _score_press(path, idx, g, ss)
    # einsum, not a BLAS dot: a threaded ddot on a long record can wait
    # milliseconds for its threads, and rr only decides which candidates
    # are scored, never a score
    rr = float(np.einsum("i,i->", path.resid, path.resid))
    bound = rr - proj * g
    j0 = int(bound.argmin())
    press = np.full(idx.size, np.inf)
    press[j0] = _score_press(path, idx[j0 : j0 + 1], g[j0 : j0 + 1], ss[j0 : j0 + 1])[0]
    # if that candidate is rejected, its PRESS is inf and every column is scored
    gphi = np.abs(g) * problem.col_norm[idx]
    keep = bound <= _bound_threshold(
        problem.n_rows, len(path.steps), press[j0], rr, problem.target_ss, gphi
    )
    keep[j0] = False
    kept = keep.nonzero()[0]
    if kept.size:
        press[kept] = _score_press(path, idx[kept], g[kept], ss[kept])
    return press


def _bound_threshold(
    n_rows: int, k: int, press: float, rr: float, yy: float, gphi: np.ndarray
) -> np.ndarray:
    """The largest computed residual bound each candidate can have when its
    computed mean-squared PRESS is at or below ``press``, at step ``k`` of a
    path on ``n_rows`` rows whose residual and target have sums of squares
    ``rr`` and ``yy``; ``gphi`` is each candidate's ``|g| ||phi_c||``, its
    projection coefficient times its original norm: ``n * press * (1 + s)
    + s * (rr + (k + 1) * gphi * (2 sqrt(yy) + gphi))``, ``s = 4 (n + 4)
    eps``.

    With u = eps/2, the computed bound ``rr - p^2 / ss`` is off the exact
    one of its operands by at most about (n + 3)u rr: n u rr from rr (an
    n-term dot product), 2u from the product and quotient (p^2 / ss <= rr)
    and u from the subtraction.  Near an exact fit that subtraction
    cancels, and this absolute term is the one that matters.

    The scored column w and the stored residual r give numerators whose sum
    of squares is ``rr - 2 g (r.w) + g^2 (w.w)``: with ``r.w = p + dp`` and
    ``w.w = ss + dss`` that is the bound less ``2 g dp - g^2 dss``.  p and
    ss are downdated from ``y.phi_c`` and ``phi_c.phi_c`` and w is formed
    from phi_c and the record, so their gaps carry absolute error on the
    scale of the target's energy, not of rr.  If the orthogonal columns are
    orthogonal to working precision, each of the k steps adds to dp at most
    about 4(n + 4)u ||y|| ||phi_c||: the n-term dot products of the
    downdate, of its correction and of r against w's residual components
    along the earlier columns, each bounded through ``|a_i| ||w_i|| <=
    ||phi_c||`` and ``|g_i| ||w_i|| <= ||y||``; w's own rounding adds
    lower-order terms.  Likewise for dss with ``||phi_c||^2``.  So
    ``2|g| |dp| + g^2 |dss| <= 2 (k + 1)(n + 4) eps gphi (2 ||y|| + gphi)``.

    The exact bound is at most the exact sum of the kernel's numerators
    squared; rounding them costs at most about 6u rr, dividing by
    denominators <= 1 cannot shrink them, and the square and the mean lose
    at most (n + 2)u relative.  The slack is twice the sum of these
    first-order terms, which also covers the threshold's own roundings.
    """
    s = 4.0 * (n_rows + 4) * _EPS
    return n_rows * press * (1.0 + s) + s * (rr + (k + 1) * gphi * (2.0 * math.sqrt(yy) + gphi))


def _score_press(path: _Path, cols: np.ndarray, g: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Mean-squared PRESS of candidate columns ``cols`` with projection
    coefficients ``g`` and squared norms ``ss``; ``inf`` where rejected.

    Each candidate is orthogonalized explicitly, ``phi_c - sum_i acc[i, c]
    w_i``, one per row.  The einsum sums those products in the order of i
    and each row's mean is a pairwise sum over a contiguous row, so a
    candidate's PRESS has the same bits whether it is scored alone, in a
    subset or with every candidate (a BLAS product rounds a column
    differently depending on where it sits).
    """
    k = len(path.steps)
    w = np.einsum("in,ic->cn", path.w_rows[:k], path.acc[:k, cols], order="C")
    np.subtract(path.problem.phi[:, cols].T, w, out=w)
    deleted_num = path.resid - w * g[:, None]
    deleted_den = np.square(w, out=w)
    deleted_den /= ss[:, None]
    np.subtract(path.one_less_leverage, deleted_den, out=deleted_den)
    rejected = (deleted_den < LEVERAGE_GUARD).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        deleted_num /= deleted_den
        deleted_num *= deleted_num
        press = np.add.reduce(deleted_num, axis=1) / deleted_num.shape[1]
    press[rejected] = np.inf
    return press
