"""Orthogonal forward regression along a single orthogonalization path.

Term selection is greedy: at each step every unselected candidate is scored,
as if orthogonalized against the already-selected terms, either by the
mean-squared PRESS statistic (leave-one-out one-step error, minimized) or by
the error reduction ratio (ERR, maximized).  The first term of the path can
be forced, which is how multi-path searches enumerate orthogonalization
paths.  Each criterion has its own kernel behind :func:`ofr_select`:

- PRESS needs every row's leverage, so its kernel keeps the candidates
  orthogonalized in place (modified Gram-Schmidt, maintained incrementally
  across the whole candidate set).  On large blocks it scores only the
  candidates that can still win the step: a candidate's residual sum of
  squares is a lower bound on n times its PRESS, from the projections the
  step computes anyway (the PRESS-driven OFR of Chen, Hong, Harris &
  Sharkey, IEEE Trans. SMC-B 34, 2004).
- ERR needs only inner products, so its kernel keeps each candidate's
  orthogonalized squared norm and projection on the target, downdated after
  every step from one product of the new orthogonal column with phi
  (Korenberg, Biol. Cybern. 60, 1989; Chen, Billings & Luo, Int. J. Control
  50, 1989).

Both kernels take a column through the same step, which records both
metrics whichever one drives the selection, along with the unit
upper-triangular factors needed to recover coefficients in the original
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, LeverageError, SingularityError
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
    "noise_floor",
]

# Reject a candidate whenever any 1 - leverage falls below this: the deleted
# residual would blow up, signalling an interpolating fit.
LEVERAGE_GUARD = 1e-8

# An ERR path stops once its cumulative ERR reaches this.
ERR_TOTAL = 1.0 - 1e-6

# Mean squares below this fraction of the target's mean square are
# floating-point noise: see noise_floor.
MSSE_FLOOR_REL = 1e-24

# One re-orthogonalization pass when the orthogonalized norm has dropped by
# more than this factor relative to the source column.
_REORTH_RATIO = 1e4

# A PRESS step bounds its candidates' PRESS before scoring them only when
# the scoring block holds at least this many elements (rows x candidates):
# below it the bound's extra numpy calls cost more than the PRESS arithmetic
# it saves.  Timed per step on DC-motor records (2-core x86-64, OpenBLAS),
# plain scoring took 0.4-0.8 times as long as bounded scoring on blocks
# under 2**13 elements, 0.9 times between 2**13 and 2**14, and 1.1-6.8
# times from 2**14 up.  See _press_scores.
_BOUND_MIN_BLOCK = 2**14


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


def noise_floor(target: np.ndarray) -> float:
    """The mean square at or below which an error on ``target`` is
    numerically zero: ``MSSE_FLOOR_REL`` times the target's mean square.

    A PRESS path stops there, and the search clamps free-run errors to it
    and prunes exact fits against it, so all three read the same bits.
    """
    return MSSE_FLOOR_REL * float(np.mean(target**2))


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
    Ties break toward the lowest dictionary index.  With ``stop`` set, an
    ERR path ends once its cumulative ERR reaches ``ERR_TOTAL``, and a PRESS
    path at the first PRESS increase (``"PRESS increase"``) or right after
    the step whose PRESS reaches :func:`noise_floor` (``"PRESS floor"``:
    every later score would be rounding noise); running out of candidates,
    the leverage guard and the ``max_terms`` cap end a path either way.  The
    reason is recorded.  A zero target raises :class:`DataError`: every
    ERR divides by its energy.
    """
    n_rows, n_cols = problem.phi.shape
    if max_terms is None:
        max_terms = default_max_terms(n_cols, n_rows)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if forced_first is not None and not (0 <= forced_first < n_cols):
        raise ValueError(f"forced_first index {forced_first} out of range")
    kernel = _err_path if criterion is Criterion.ERR else _press_path
    return kernel(problem, forced_first, max_terms, stop)


class _Path:
    """What a path records as it takes columns, whichever kernel scores them:
    the orthogonal columns, the residual and leverage of the fit so far, the
    steps, and ``acc[i, c]``, the coefficient of the i-th orthogonal column
    in the expansion of candidate column c (the triangular record)."""

    def __init__(self, problem: RegressionProblem, max_terms: int):
        phi = problem.phi
        n_rows, n_cols = phi.shape
        self.target = problem.target
        self.yy = float(self.target @ self.target)
        if self.yy == 0.0:
            raise DataError("target is zero; its ERR is undefined")
        self.orig_ss = np.einsum("ij,ij->j", phi, phi)
        # a path selects at most n_cols terms, whatever max_terms says
        k_max = min(max_terms, n_cols)
        self.w_rows = np.empty((k_max, n_rows))  # orthogonal column i in row i
        self.w_ss: list[float] = []
        self.acc = np.zeros((k_max, n_cols))
        self.resid = self.target.astype(float, copy=True)
        self.leverage = np.zeros(n_rows)
        self.available = np.ones(n_cols, dtype=bool)
        self.steps: list[PathStep] = []

    def take(self, best: int, w: np.ndarray) -> float:
        """Select column ``best``, orthogonalized as ``w``; returns w.w.

        When the norm has collapsed, ``w`` gets one re-orthogonalization
        pass, in place, with the corrections folded into the record.
        """
        k = len(self.steps)
        ws = float(w @ w)
        if ws * _REORTH_RATIO**2 < self.orig_ss[best]:
            for i in range(k):
                c = float(self.w_rows[i] @ w) / self.w_ss[i]
                w -= c * self.w_rows[i]
                self.acc[i, best] += c
            ws = float(w @ w)

        g = float(self.resid @ w) / ws
        err = float(w @ self.target) ** 2 / (ws * self.yy)
        self.resid = self.resid - g * w
        self.leverage = self.leverage + w**2 / ws
        denom = 1.0 - self.leverage
        if np.all(denom >= LEVERAGE_GUARD):
            ms_press = float(np.mean((self.resid / denom) ** 2))
        else:
            ms_press = float("inf")

        self.w_rows[k] = w
        self.w_ss.append(ws)
        self.steps.append(PathStep(best, err, ms_press, g))
        self.available[best] = False
        return ws

    def finish(self, stop_reason: str, n_evaluated: int) -> SelectionPath:
        steps = self.steps
        # column c of acc is written only above the row of the step that
        # selects c, so the gather is strictly upper triangular; take keeps
        # it C-ordered, so back_substitute's row slices stay contiguous
        triangular = self.acc[: len(steps)].take([s.term_index for s in steps], axis=1)
        np.fill_diagonal(triangular, 1.0)
        return SelectionPath(tuple(steps), triangular, stop_reason, n_evaluated)


def _press_path(
    problem: RegressionProblem, forced_first: int | None, max_terms: int, stop: bool
) -> SelectionPath:
    """PRESS selection: every row's leverage counts, so the candidates are
    orthogonalized in place (modified Gram-Schmidt) and scored at n x M.

    Each step forms the candidates' squared norms, gathers the usable ones
    and projects the residual on them; :func:`_press_scores` then scores in
    full only the candidates whose residual bound does not rule them out,
    with the same bits as scoring all of them.  ``n_evaluated`` counts every
    usable candidate a step considers, whether the bound ruled it out or it
    was scored in full.
    """
    path = _Path(problem, max_terms)
    work = problem.phi.astype(float, copy=True)
    n_rows, n_cols = work.shape
    # n x M floats for one step's PRESS numerators, then for its update
    scratch = np.empty(n_rows * n_cols)
    floor = noise_floor(problem.target)
    n_evaluated = 0
    stop_reason = "max_terms"

    while len(path.steps) < max_terms:
        cand_ss = np.einsum("ij,ij->j", work, work)
        usable = path.available & (cand_ss > RANK_TOL * path.orig_ss)
        if not usable.any():
            stop_reason = "no usable candidates (rank tolerance)"
            break

        if not path.steps and forced_first is not None:
            if not usable[forced_first]:
                stop_reason = "forced first term is rank-deficient"
                break
            best = forced_first
        else:
            idx = np.where(usable)[0]
            n_evaluated += len(idx)
            press = _press_scores(work[:, idx], cand_ss[idx], path, scratch)
            if not np.isfinite(press).any():
                stop_reason = "all candidates leverage-rejected"
                break
            j = int(np.argmin(press))
            if stop and path.steps and press[j] > path.steps[-1].ms_press:
                stop_reason = "PRESS increase"
                break
            best = int(idx[j])

        k = len(path.steps)
        w = work[:, best].copy()
        ws = path.take(best, w)
        if stop and path.steps[-1].ms_press <= floor:
            stop_reason = "PRESS floor"
            break

        rem = np.where(path.available)[0]
        # after the step that fills max_terms no candidate is read again
        if rem.size and len(path.steps) < max_terms:
            # BLAS gemv and einsum round a column's sums differently
            # depending on where it sits in the block, so the projections
            # keep their layouts: gemv over the compacted remaining columns
            # here, einsum over the full block and scoring over the
            # compacted usable columns above.  The multiply-subtract is
            # elementwise, with the same bits wherever a column sits, so it
            # runs in place over the full block: row acc[k] is zero outside
            # rem, and the selected columns, which lose a zero multiple of
            # w, are never read again.
            path.acc[k, rem] = (w @ work[:, rem]) / ws
            work -= np.multiply(w[:, None], path.acc[k], out=scratch.reshape(work.shape))

    return path.finish(stop_reason, n_evaluated)


def _press_scores(
    wm: np.ndarray, ssm: np.ndarray, path: _Path, scratch: np.ndarray
) -> np.ndarray:
    """Mean-squared PRESS of each candidate column of ``wm``, or ``inf`` for
    a candidate the leverage guard rejects or the residual bound rules out.

    ``wm`` is the step's ``work[:, idx]`` gather (overwritten) and ``ssm``
    the candidates' squared norms.  Every ``1 - h(t)`` is at most 1, so
    ``n * PRESS_j >= rr - (r.w_j)^2 / (w_j.w_j)``, the candidate's residual
    sum of squares.  On a block of at least ``_BOUND_MIN_BLOCK`` elements
    the candidate with the lowest bound is scored first, and only the
    candidates whose bound is within rounding of ``n`` times its PRESS are
    scored after it: no other can have a PRESS at or below it, so the step's
    minimum, its lowest-index tie and the stop tests are unchanged.
    """
    resid = path.resid
    proj = resid @ wm
    g = proj / ssm
    one_minus_lev = 1.0 - path.leverage
    if wm.size < _BOUND_MIN_BLOCK:
        return _score_press(wm, g, ssm, resid, one_minus_lev, scratch)

    # einsum, not a BLAS dot: a threaded ddot on a long record can wait
    # milliseconds for its threads, and rr only decides which candidates
    # are scored, never a score
    rr = float(np.einsum("i,i->", resid, resid))
    bound = rr - proj * g
    j0 = int(np.argmin(bound))
    p0 = _score_press(wm[:, [j0]], g[[j0]], ssm[[j0]], resid, one_minus_lev, scratch)[0]
    # if that candidate is rejected, p0 is inf and every column is scored
    keep = bound <= _bound_threshold(wm.shape[0], p0, rr)
    keep[j0] = False
    press = np.full(g.size, np.inf)
    press[j0] = p0
    if keep.any():
        press[keep] = _score_press(
            wm[:, keep], g[keep], ssm[keep], resid, one_minus_lev, scratch
        )
    return press


def _bound_threshold(n_rows: int, press: float, rr: float) -> float:
    """The largest computed residual bound a candidate can have when its
    computed mean-squared PRESS is at or below ``press``, on ``n_rows`` rows
    with residual sum of squares ``rr``: ``n * press * (1 + slack) + slack *
    rr``.

    With u = eps/2, the computed bound is off the exact one of the stored
    vectors by at most about (4n + 3)u rr: n u rr from rr (an n-term dot
    product), n u ||r|| ||w|| <= n u rr twice from the gemv's r.w and once
    from w.w in the quotient (Cauchy-Schwarz), 2u from the product and
    quotient and u from the subtraction.  Near an exact fit that
    subtraction cancels, and this absolute term is the one that matters.
    The exact bound is at most the exact sum of the kernel's numerators
    squared, whatever g they use (r.w / w.w minimizes it); rounding them
    costs at most about 6u rr, dividing by denominators <= 1 cannot shrink
    them, and the square and the mean lose at most (n + 2)u relative.  The
    slack is twice the sum of these first-order terms, which also covers
    the threshold's own roundings.
    """
    slack = 4.0 * (n_rows + 4) * np.finfo(float).eps
    return n_rows * press * (1.0 + slack) + slack * rr


def _score_press(
    wm: np.ndarray,
    g: np.ndarray,
    ssm: np.ndarray,
    resid: np.ndarray,
    one_minus_lev: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Mean-squared PRESS of the columns of ``wm`` (an F-ordered gather,
    overwritten) with projection coefficients ``g``; ``inf`` where rejected.

    The deleted residuals are formed with numerators in ``scratch`` and
    denominators over ``wm``: the elementwise operations of out-of-place
    expressions, without their n x M temporaries.  A fancy-indexed gather
    of columns is F-ordered, so np.mean sums each column pairwise and the
    numerators keep that layout: a column's PRESS has the same bits whether
    it is scored alone, in a subset or in the full block.
    """
    deleted_num = np.multiply(wm, g, out=scratch[: wm.size].reshape(wm.shape, order="F"))
    np.subtract(resid[:, None], deleted_num, out=deleted_num)
    deleted_den = np.square(wm, out=wm)
    deleted_den /= ssm
    np.subtract(one_minus_lev[:, None], deleted_den, out=deleted_den)
    rejected = (deleted_den < LEVERAGE_GUARD).any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        deleted_num /= deleted_den
        deleted_num *= deleted_num
        press = np.mean(deleted_num, axis=0)
    press[rejected] = np.inf
    return press


def _err_path(
    problem: RegressionProblem, forced_first: int | None, max_terms: int, stop: bool
) -> SelectionPath:
    """ERR selection needs only inner products, so the candidates are never
    orthogonalized.  Each candidate's orthogonalized squared norm and its
    projection on the target are downdated after every step from ``d``, the
    new orthogonal column's products with the orthogonalized candidates:
    one gemv over phi per step.  The selected column itself is formed
    explicitly from phi and the record, for the re-orthogonalization test
    and the recorded metrics.  The Gram matrix is never formed: it would
    square phi's condition number."""
    phi = problem.phi
    path = _Path(problem, max_terms)
    cand_ss = path.orig_ss.copy()
    cand_proj = problem.target @ phi
    n_evaluated = 0
    stop_reason = "max_terms"

    while len(path.steps) < max_terms:
        usable = path.available & (cand_ss > RANK_TOL * path.orig_ss)
        if not usable.any():
            stop_reason = "no usable candidates (rank tolerance)"
            break

        if not path.steps and forced_first is not None:
            if not usable[forced_first]:
                stop_reason = "forced first term is rank-deficient"
                break
            best = forced_first
        else:
            idx = np.where(usable)[0]
            n_evaluated += len(idx)
            scores = cand_proj[idx] ** 2 / (cand_ss[idx] * path.yy)
            best = int(idx[int(np.argmax(scores))])

        k = len(path.steps)
        w = phi[:, best] - path.acc[:k, best] @ path.w_rows[:k]
        ws = path.take(best, w)

        rem = np.where(path.available)[0]
        # after the step that fills max_terms no candidate is read again,
        # but the ERR stop below still names the stop reason
        if rem.size and len(path.steps) < max_terms:
            # candidate c orthogonalized is phi_c - sum_i acc[i, c] w_i, so
            # its product with w is w.phi_c less w's rounding-level products
            # with the earlier columns times acc[:, c]: without that term the
            # downdates pick up errors of phi's scale on ill-conditioned
            # dictionaries
            d = (w @ phi - (path.w_rows[:k] @ w) @ path.acc[:k])[rem]
            coeffs = d / ws
            path.acc[k, rem] = coeffs
            cand_ss[rem] -= coeffs * d
            cand_proj[rem] -= coeffs * float(w @ problem.target)

        if stop and sum(s.err for s in path.steps) >= ERR_TOTAL:
            stop_reason = "cumulative ERR threshold"
            break

    return path.finish(stop_reason, n_evaluated)
