"""Forward selection paths: ERR, PRESS, orthogonality, back substitution.

The PRESS contract is anchored to a brute-force oracle: refit the selected
(unorthogonalized) subset leaving out one row at a time and average the
squared deleted residuals.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from narxid import (
    Criterion,
    DataError,
    LeverageError,
    SingularityError,
    back_substitute,
    err_of,
    least_squares,
    ofr_select,
    press_of,
)
from narxid.benchmarks import Prbs, WhiteNoise, dc_motor_reference, generate_signal
from narxid.ofr import (
    _REORTH_RATIO,
    ERR_TOTAL,
    LEVERAGE_GUARD,
    _BOUND_MIN_BLOCK,
    _bound_threshold,
    _press_scores,
    _score_press,
    PathStep,
    SelectionPath,
    default_max_terms,
)
from narxid.regression import RANK_TOL, IoData, RegressionProblem, build_problem, noise_floor
from narxid.terms import (
    Dictionary,
    LagSpec,
    build_linear_dictionary,
    expand_dictionary,
    parse_term,
)


def fake_problem(phi, target):
    names = [f"u(t-{i+1})" for i in range(phi.shape[1])]
    d = Dictionary(tuple(parse_term(n) for n in names))
    return RegressionProblem(np.asarray(phi, float), np.asarray(target, float), d, 0)


def brute_force_loo(phi, target, subset):
    """Mean-squared leave-one-out error of the OLS fit on `subset` columns."""
    phi = phi[:, list(subset)]
    L = len(target)
    errors = np.empty(L)
    for t in range(L):
        keep = np.arange(L) != t
        theta, *_ = np.linalg.lstsq(phi[keep], target[keep], rcond=None)
        errors[t] = target[t] - phi[t] @ theta
    return float(np.mean(errors**2))


def orthogonal_columns(path, phi):
    """Re-derive the orthogonal columns W from phi and the triangular record."""
    sel = list(path.term_indices)
    A = path.triangular
    W = np.empty((phi.shape[0], len(sel)))
    for j, col in enumerate(sel):
        W[:, j] = phi[:, col] - W[:, :j] @ A[:j, j]
    return W


class TestErrOf:
    def test_w_equal_target(self):
        y = np.array([1.0, -2.0, 3.0])
        assert err_of(y, y) == pytest.approx(1.0)

    def test_w_orthogonal_to_target(self):
        y = np.array([1.0, 0.0])
        w = np.array([0.0, 2.0])
        assert err_of(w, y) == pytest.approx(0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(SingularityError):
            err_of(np.zeros(3), np.ones(3))

    def test_zero_target_rejected(self):
        with pytest.raises(DataError, match="target is zero"):
            err_of(np.ones(3), np.zeros(3))


class TestPressOf:
    def test_single_regressor_equal_to_target(self):
        y = np.random.default_rng(0).normal(size=20)
        assert press_of(None, y, y) == pytest.approx(0.0, abs=1e-25)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_loo(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(25, 3))
        target = rng.normal(size=25)
        # orthogonalize columns in order 0, 1, 2
        w0 = phi[:, 0]
        w1 = phi[:, 1] - (w0 @ phi[:, 1]) / (w0 @ w0) * w0
        w2 = phi[:, 2] - (w0 @ phi[:, 2]) / (w0 @ w0) * w0
        w2 = w2 - (w1 @ w2) / (w1 @ w1) * w1
        fast = press_of([w0, w1], w2, target)
        slow = brute_force_loo(phi, target, [0, 1, 2])
        assert fast == pytest.approx(slow, rel=1e-8)

    def test_interpolating_fit_rejected(self):
        # 2 rows, 2 orthogonal columns: leverage is exactly 1 everywhere
        w0 = np.array([1.0, 0.0])
        w1 = np.array([0.0, 1.0])
        with pytest.raises(LeverageError):
            press_of([w0], w1, np.array([1.0, 2.0]))
        # a zero-norm orthogonal column (a dependent candidate) fits nothing
        with pytest.raises(SingularityError, match="zero norm"):
            press_of([w0], np.zeros(2), np.array([1.0, 2.0]))


class TestOfrSelect:
    def test_exact_column_selected_first_with_full_err(self):
        rng = np.random.default_rng(1)
        target = rng.normal(size=30)
        phi = np.column_stack([rng.normal(size=30), target, rng.normal(size=30)])
        path = ofr_select(fake_problem(phi, target), Criterion.ERR)
        assert path.steps[0].term_index == 1
        assert path.steps[0].err == pytest.approx(1.0, abs=1e-12)

    def test_forced_first_term(self):
        rng = np.random.default_rng(2)
        target = rng.normal(size=30)
        phi = np.column_stack([rng.normal(size=30), target])
        path = ofr_select(fake_problem(phi, target), Criterion.ERR, forced_first=0)
        assert path.steps[0].term_index == 0

    def test_step1_err_selection_is_exhaustive_max(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(40, 6))
        target = rng.normal(size=40)
        path = ofr_select(fake_problem(phi, target), Criterion.ERR, max_terms=1)
        yy = target @ target
        scores = [
            (phi[:, j] @ target) ** 2 / ((phi[:, j] @ phi[:, j]) * yy)
            for j in range(6)
        ]
        assert path.steps[0].term_index == int(np.argmax(scores))

    @pytest.mark.parametrize("seed", range(5))
    def test_press_greedy_matches_brute_force_greedy(self, seed):
        """Greedy PRESS selection equals a greedy search with LOO refits."""
        rng = np.random.default_rng(100 + seed)
        phi = rng.normal(size=(30, 6))
        target = rng.normal(size=30)
        path = ofr_select(
            fake_problem(phi, target), Criterion.PRESS, max_terms=3, stop=False,
        )
        chosen: list[int] = []
        for _ in range(3):
            best, best_press = None, np.inf
            for j in range(6):
                if j in chosen:
                    continue
                value = brute_force_loo(phi, target, chosen + [j])
                if value < best_press:
                    best, best_press = j, value
            chosen.append(best)
        assert list(path.term_indices) == chosen

    def test_recorded_press_matches_brute_force(self):
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(30, 5))
        target = rng.normal(size=30)
        path = ofr_select(fake_problem(phi, target), Criterion.PRESS, max_terms=3)
        for k in range(1, len(path.steps) + 1):
            subset = list(path.term_indices[:k])
            assert path.steps[k - 1].ms_press == pytest.approx(
                brute_force_loo(phi, target, subset), rel=1e-8
            )

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(50, 8))
        target = rng.normal(size=50)
        path = ofr_select(fake_problem(phi, target), Criterion.ERR, max_terms=6)
        W = orthogonal_columns(path, phi)
        for i, j in itertools.combinations(range(W.shape[1]), 2):
            bound = 1e-8 * np.linalg.norm(W[:, i]) * np.linalg.norm(W[:, j])
            assert abs(W[:, i] @ W[:, j]) <= bound

    def test_err_additivity(self):
        rng = np.random.default_rng(12)
        phi = rng.normal(size=(40, 5))
        target = rng.normal(size=40)
        path = ofr_select(fake_problem(phi, target), Criterion.ERR, max_terms=5)
        total_err = sum(s.err for s in path.steps)
        resid = target - phi[:, list(path.term_indices)] @ back_substitute(path)
        assert (resid @ resid) / (target @ target) == pytest.approx(
            1.0 - total_err, abs=1e-9
        )
        assert total_err <= 1.0 + 1e-9

    def test_rank_deficient_candidates_dropped(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=30)
        target = rng.normal(size=30)
        phi = np.column_stack([col, col * 2.0, rng.normal(size=30)])
        path = ofr_select(fake_problem(phi, target), Criterion.ERR)
        # the duplicate of the first selected column can never be selected
        indices = path.term_indices
        assert not {0, 1} <= set(indices)

    def test_all_candidates_dependent_stops_early(self):
        col = np.arange(1.0, 31.0)
        phi = np.column_stack([col, 2 * col, 3 * col])
        target = np.random.default_rng(0).normal(size=30)
        path = ofr_select(fake_problem(phi, target), Criterion.ERR, max_terms=3)
        assert len(path.steps) == 1
        assert "rank" in path.stop_reason

    @staticmethod
    def two_term_record(noise_std):
        # a linear relation in columns 0 and 1, column 2 unrelated
        rng = np.random.default_rng(21)
        x1 = rng.normal(size=60)
        x2 = rng.normal(size=60)
        noise_col = rng.normal(size=60)
        target = 1.5 * x1 - 2.0 * x2 + noise_std * rng.normal(size=60)
        return fake_problem(np.column_stack([x1, x2, noise_col]), target)

    def test_press_stops_at_the_noise_floor(self):
        # noise-free: PRESS collapses to rounding noise after the 2 true
        # terms, and the path ends there without scoring column 2 again
        problem = self.two_term_record(0.0)
        path = ofr_select(problem, Criterion.PRESS)
        assert set(path.term_indices) == {0, 1}
        assert path.stop_reason == "PRESS floor"
        assert path.steps[-1].ms_press <= noise_floor(problem.target)
        assert path.n_evaluated == 3 + 2

    def test_press_stops_at_first_increase(self):
        # with noise the fit never reaches the floor, and adding the
        # unrelated column raises PRESS
        path = ofr_select(self.two_term_record(0.1), Criterion.PRESS)
        assert set(path.term_indices) == {0, 1}
        assert path.stop_reason == "PRESS increase"

    def test_noisy_paths_never_stop_at_the_floor(self):
        # a linear ARX system with output noise of std 0.1: no path's
        # residual falls to rounding noise, stopped or not
        rng = np.random.default_rng(90_001)
        u = rng.normal(size=300)
        y = np.zeros(300)
        for t in range(2, 300):
            y[t] = 1.2 * y[t - 1] - 0.5 * y[t - 2] + u[t - 1] + 0.3 * u[t - 2]
        y += 0.1 * rng.normal(size=300)
        d = expand_dictionary(build_linear_dictionary(LagSpec(3, 3)), 2)
        problem = build_problem(IoData(u, y), d)
        floor = noise_floor(problem.target)
        for first in (None, *range(len(d))):
            for stop in (True, False):
                path = ofr_select(problem, Criterion.PRESS, forced_first=first, stop=stop)
                assert path.stop_reason != "PRESS floor"
                assert min(s.ms_press for s in path.steps) > floor

    def test_determinism_including_ties(self):
        rng = np.random.default_rng(17)
        col = rng.normal(size=30)
        # identical criterion values: the lower index must win
        phi = np.column_stack([col, col.copy()])
        target = col + rng.normal(scale=0.1, size=30)
        a = ofr_select(fake_problem(phi, target), Criterion.ERR, max_terms=1)
        b = ofr_select(fake_problem(phi, target), Criterion.ERR, max_terms=1)
        assert a.term_indices == b.term_indices == (0,)

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_float32_phi_selects_as_its_float64_copy(self, criterion):
        # the twin tie-break reads phi's bits as float64: a float32 phi with
        # an even column count would read as half as many columns
        rng = np.random.default_rng(43)
        phi = rng.normal(size=(60, 8)).astype(np.float32)
        phi[:, 6] = phi[:, 3]
        target = (phi[:, 5] - 0.5 * phi[:, 6] + 0.1 * rng.normal(size=60)).astype(np.float32)
        copy = fake_problem(phi, target)
        problem = RegressionProblem(phi, target, copy.dictionary, 0)
        assert problem.phi.dtype == problem.target.dtype == np.float64
        assert_array_equal(problem.first_twins, [0, 1, 2, 3, 4, 5, 3, 7])
        for first in (None, 6):
            path = ofr_select(problem, criterion, forced_first=first)
            assert path_bits(path) == path_bits(ofr_select(copy, criterion, forced_first=first))

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_empty_dictionary(self, criterion):
        problem = fake_problem(np.empty((20, 0)), np.ones(20))
        path = ofr_select(problem, criterion)
        assert path_bits(path) == path_bits(reference_ofr_select(problem, criterion))
        assert path.steps == () and path.n_evaluated == 0
        assert path.triangular.shape == (0, 0)
        assert path.stop_reason == "no usable candidates (rank tolerance)"
        theta = back_substitute(path)
        assert theta.shape == (0,) and theta.dtype == np.float64
        with pytest.raises(ValueError, match="out of range"):
            ofr_select(problem, criterion, forced_first=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_zero_target_raises(self, criterion):
        # built directly, the problem skips build_problem's energy check
        phi = np.random.default_rng(3).normal(size=(20, 2))
        with pytest.raises(DataError, match="target is zero"):
            ofr_select(fake_problem(phi, np.zeros(20)), criterion)

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_rank_deficient_forced_first_stops_before_any_step(self, criterion):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(30, 3))
        phi[:, 1] = 0.0
        problem = fake_problem(phi, rng.normal(size=30))
        path = ofr_select(problem, criterion, forced_first=1)
        assert path.steps == ()
        assert path.stop_reason == "forced first term is rank-deficient"
        assert path.n_evaluated == 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_terms": 0}, "max_terms"),
        ({"forced_first": 3}, "out of range"),
        ({"forced_first": -1}, "out of range"),
    ])
    def test_bad_arguments_raise(self, kwargs, message):
        problem = fake_problem(np.eye(4, 3), np.ones(4))
        with pytest.raises(ValueError, match=message):
            ofr_select(problem, Criterion.PRESS, **kwargs)

    def test_stop_flag_ends_an_err_path_at_err_total(self):
        # the target is a combination of two columns, so their ERRs sum to 1
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(40, 6))
        target = phi[:, 1] - 2.0 * phi[:, 4]
        problem = fake_problem(phi, target)
        path = ofr_select(problem, Criterion.ERR)
        assert path.stop_reason == "cumulative ERR threshold"
        assert sorted(path.term_indices) == [1, 4]
        assert sum(s.err for s in path.steps) >= ERR_TOTAL
        free = ofr_select(problem, Criterion.ERR, stop=False)
        assert free.term_indices[:2] == path.term_indices
        assert len(free.steps) == default_max_terms(6, 40)


class TestPathProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(12, 60),
        n_cols=st.integers(2, 8),
        crit=st.sampled_from([Criterion.ERR, Criterion.PRESS]),
    )
    def test_invariants_hold_on_random_problems(self, seed, n_rows, n_cols, crit):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(n_rows, n_cols))
        target = rng.normal(size=n_rows)
        path = ofr_select(fake_problem(phi, target), crit)
        indices = path.term_indices
        # no repeats, ERR budget, monotone information gain
        assert len(set(indices)) == len(indices)
        total_err = sum(s.err for s in path.steps)
        assert total_err <= 1.0 + 1e-9
        # coefficients reproduce the OLS fit on the same subset
        if indices:
            theta = back_substitute(path)
            direct = least_squares(fake_problem(phi, target), indices)
            fitted = phi[:, list(indices)] @ theta
            fitted_direct = phi[:, list(indices)] @ direct
            assert np.allclose(fitted, fitted_direct, rtol=1e-8, atol=1e-10)


class TestBackSubstitute:
    def test_near_parallel_columns_stay_consistent(self):
        # column 0 collapses by ~3e-5 when orthogonalized against column 1,
        # inside the re-orthogonalization band (rank tolerance still passes);
        # the triangular record must stay consistent with the fit
        rng = np.random.default_rng(1)
        base = rng.normal(size=50)
        pert = rng.normal(size=50)
        pert -= (pert @ base) / (base @ base) * base
        pert *= 3e-5 * np.linalg.norm(base) / np.linalg.norm(pert)
        phi = np.column_stack([base, base + pert, rng.normal(size=50)])
        target = phi[:, 0] + 4e4 * pert + 0.7 * phi[:, 2]
        problem = fake_problem(phi, target)
        path = ofr_select(problem, Criterion.ERR, max_terms=3)
        assert {0, 1} <= set(path.term_indices)
        theta = back_substitute(path)
        direct = least_squares(problem, path.term_indices)
        cols = phi[:, list(path.term_indices)]
        gap = np.max(np.abs(cols @ theta - cols @ direct))
        assert gap <= 1e-10 * np.max(np.abs(target))
        W = orthogonal_columns(path, phi)
        for i, j in itertools.combinations(range(W.shape[1]), 2):
            bound = 1e-8 * np.linalg.norm(W[:, i]) * np.linalg.norm(W[:, j])
            assert abs(W[:, i] @ W[:, j]) <= bound

    def test_single_term(self):
        rng = np.random.default_rng(30)
        phi = rng.normal(size=(20, 1))
        target = rng.normal(size=20)
        problem = fake_problem(phi, target)
        path = ofr_select(problem, Criterion.ERR, max_terms=1)
        theta = back_substitute(path)
        assert theta[0] == pytest.approx(path.steps[0].g)

    def test_orthogonal_columns_passthrough(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.normal(size=(25, 3)))
        target = rng.normal(size=25)
        problem = fake_problem(q, target)
        path = ofr_select(problem, Criterion.ERR, max_terms=3)
        theta = back_substitute(path)
        by_index = {i: th for i, th in zip(path.term_indices, theta)}
        for j in range(3):
            assert by_index[j] == pytest.approx(q[:, j] @ target, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_least_squares(self, seed):
        rng = np.random.default_rng(200 + seed)
        phi = rng.normal(size=(40, 6))
        target = rng.normal(size=40)
        problem = fake_problem(phi, target)
        path = ofr_select(problem, Criterion.PRESS, max_terms=4, stop=False)
        theta = back_substitute(path)
        direct = least_squares(problem, path.term_indices)
        fitted_path = phi[:, list(path.term_indices)] @ theta
        fitted_direct = phi[:, list(path.term_indices)] @ direct
        assert_allclose(fitted_path, fitted_direct, rtol=1e-10, atol=1e-12)


def reference_ofr_select(
    problem: RegressionProblem,
    criterion: Criterion = Criterion.PRESS,
    forced_first: int | None = None,
    max_terms: int | None = None,
    stop: bool = True,
) -> SelectionPath:
    """The OFR kernel that updates the candidates through a fancy-indexed
    write-back, ``work[:, rem] -= np.outer(w, coeffs)``.

    ``ofr_select`` scores on downdated norms and projections, so it agrees
    with this kernel to rounding, not bit for bit: see
    :func:`assert_path_close`.
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
    floor = noise_floor(target)

    selected: list[int] = []
    w_cols: list[np.ndarray] = []
    w_ss: list[float] = []
    steps: list[PathStep] = []
    # acc[i, c]: coefficient of the i-th selected orthogonal column in the
    # running expansion of candidate column c (the triangular record).
    acc = np.zeros((max_terms, n_cols))
    resid = target.astype(float, copy=True)
    leverage = np.zeros(n_rows)
    available = np.ones(n_cols, dtype=bool)
    n_evaluated = 0
    stop_reason = "max_terms"

    while len(selected) < max_terms:
        cand_ss = np.einsum("ij,ij->j", work, work)
        usable = available & (cand_ss > RANK_TOL * orig_ss)
        if not usable.any():
            stop_reason = "no usable candidates (rank tolerance)"
            break

        if not selected and forced_first is not None:
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
                gm = proj / ssm
                deleted_num = resid[:, None] - wm * gm[None, :]
                deleted_den = (1.0 - leverage)[:, None] - wm**2 / ssm[None, :]
                rejected = (deleted_den < LEVERAGE_GUARD).any(axis=0)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    press = np.mean((deleted_num / deleted_den) ** 2, axis=0)
                press[rejected] = np.inf
                if not np.isfinite(press).any():
                    stop_reason = "all candidates leverage-rejected"
                    break
                j = int(np.argmin(press))
                if stop and steps and press[j] > steps[-1].ms_press:
                    stop_reason = "PRESS increase"
                    break
                best = int(idx[j])

        k = len(selected)
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

        selected.append(best)
        w_cols.append(w)
        w_ss.append(ws)
        steps.append(PathStep(best, err, ms_press, g))
        available[best] = False
        if stop and criterion is Criterion.PRESS and ms_press <= floor:
            stop_reason = "PRESS floor"
            break

        rem = np.where(available)[0]
        if rem.size:
            coeffs = (w @ work[:, rem]) / ws
            acc[k, rem] = coeffs
            work[:, rem] -= np.outer(w, coeffs)

        if stop and criterion is Criterion.ERR and sum(s.err for s in steps) >= ERR_TOTAL:
            stop_reason = "cumulative ERR threshold"
            break

    k = len(selected)
    triangular = np.eye(k)
    for j in range(k):
        triangular[:j, j] = acc[:j, selected[j]]
    return SelectionPath(tuple(steps), triangular, stop_reason, n_evaluated)


def path_bits(path):
    """Everything a path records, floats as integers so -0.0 and 0.0 differ.

    The back-substituted coefficients are included because their bits also
    depend on the memory order of ``triangular``, not only on its values.
    """
    steps = [
        (s.term_index, *np.array([s.err, s.ms_press, s.g]).view(np.int64).tolist())
        for s in path.steps
    ]
    return (
        steps,
        path.triangular.shape,
        path.triangular.view(np.int64).tolist(),
        back_substitute(path).view(np.int64).tolist(),
        path.stop_reason,
        path.n_evaluated,
    )


# A path is scored on downdated norms and projections and recorded from an
# orthogonal column formed from phi, so it agrees with the reference kernel
# to rounding, not bit for bit.  On the cases below the gaps are at most
# 1.3e-13 in ERR and 4e-13 relative in g and the coefficients (near-parallel
# columns), and 2e-15 and 1e-14 elsewhere.
ERR_ATOL = 1e-11
COEF_RTOL = 1e-9
PRESS_RTOL = 1e-6
# Remaining share of the target's energy at which a fit is exact: every
# later ERR score is rounding noise, so later steps are not compared.
EXACT_FIT = 1e-9


def exact_fit_prefix(path):
    """Steps of ``path`` up to the one that leaves at most ``EXACT_FIT`` of
    the target's energy, or all of them."""
    remaining = 1.0 - np.cumsum([s.err for s in path.steps])
    hits = np.flatnonzero(remaining <= EXACT_FIT)
    return int(hits[0]) + 1 if hits.size else len(path.steps)


def truncated(path, n):
    return SelectionPath(path.steps[:n], path.triangular[:n, :n], path.stop_reason, path.n_evaluated)


def assert_path_close(problem, ours, ref):
    """The differential check against the reference kernel, for both
    criteria: the same terms up to the exact fit, where only bitwise-equal
    columns may swap (``u(t-k)`` and ``u(t-k)^2`` on a 0/1 record); ERR,
    PRESS, ``g`` and the back-substituted coefficients within tolerance
    (PRESS relative, above the noise floor); and, when the reference path
    ends before an exact fit or at it, the same length, stop reason and
    evaluation count."""
    n = exact_fit_prefix(ref)
    assert len(ours.steps) >= n
    bits = problem.phi.view(np.int64)
    g_scale = COEF_RTOL * max((abs(s.g) for s in ref.steps[:n]), default=0.0)
    floor = noise_floor(problem.target)
    for a, b in zip(ours.steps[:n], ref.steps[:n]):
        assert np.array_equal(bits[:, a.term_index], bits[:, b.term_index])
        assert abs(a.err - b.err) <= ERR_ATOL
        assert a.ms_press == pytest.approx(b.ms_press, rel=PRESS_RTOL, abs=floor)
        assert a.g == pytest.approx(b.g, rel=COEF_RTOL, abs=g_scale)
    theta_ref = back_substitute(truncated(ref, n))
    assert_allclose(
        back_substitute(truncated(ours, n)), theta_ref,
        rtol=COEF_RTOL, atol=COEF_RTOL * np.max(np.abs(theta_ref), initial=0.0),
    )
    if n == len(ref.steps):
        assert len(ours.steps) == n
        assert (ours.stop_reason, ours.n_evaluated) == (ref.stop_reason, ref.n_evaluated)


def bounded_ofr_select(problem, criterion, **kwargs):
    """``ofr_select`` with the residual bound on every PRESS step, whatever
    the block size (most cases here are below the kernel's gate)."""
    with mock.patch("narxid.ofr._BOUND_MIN_BLOCK", 0):
        return ofr_select(problem, criterion, **kwargs)


def score_all_ofr_select(problem, criterion, **kwargs):
    """``ofr_select`` scoring every usable PRESS candidate in full, in one
    block, at every step."""
    with mock.patch("narxid.ofr._BOUND_MIN_BLOCK", 2**62):
        return ofr_select(problem, criterion, **kwargs)


def assert_matches_reference(problem, criterion, **kwargs):
    """Both criteria close to the reference kernel by
    :func:`assert_path_close`; PRESS paths bit for bit with the residual
    bound on every step and with every candidate scored."""
    ours = ofr_select(problem, criterion, **kwargs)
    assert_path_close(problem, ours, reference_ofr_select(problem, criterion, **kwargs))
    if criterion is Criterion.PRESS:
        assert path_bits(bounded_ofr_select(problem, criterion, **kwargs)) == path_bits(ours)
        assert path_bits(score_all_ofr_select(problem, criterion, **kwargs)) == path_bits(ours)
    return ours


def binary_prbs_problem():
    """The DC motor's response to a 0/1 PRBS over a degree-2 dictionary
    (LagSpec(2, 2), 14 candidates, 398 rows), where ``u(t-k)^2`` equals
    ``u(t-k)`` bit for bit."""
    u = generate_signal(Prbs(length=400, levels=(0.0, 1.0), hold=5, seed=332))
    d = expand_dictionary(build_linear_dictionary(LagSpec(2, 2)), 2)
    return build_problem(IoData(u, dc_motor_reference(u)), d)


def lowest_equal_columns(phi):
    """Column c -> the lowest index of a column equal to it bit for bit."""
    bits = phi.view(np.int64)
    return np.array([
        next(j for j in range(c + 1) if np.array_equal(bits[:, j], bits[:, c]))
        for c in range(phi.shape[1])
    ])


def noise_free_cubic_problem():
    """The DC motor's noise-free response over a degree-3 dictionary with a
    constant (LagSpec(2, 2), 35 candidates, 158 rows)."""
    u = generate_signal(WhiteNoise(length=160, seed=332))
    d = expand_dictionary(build_linear_dictionary(LagSpec(2, 2)), 3, include_constant=True)
    return build_problem(IoData(u, dc_motor_reference(u)), d)


class TestOfrMatchesReference:
    """``ofr_select`` downdates the candidates' norms and projections and
    agrees with the fancy-indexed write-back kernel, which orthogonalizes
    every candidate, up to the exact fit.  Under PRESS it forms explicit
    columns only for the candidates its residual bound cannot rule out, with
    every recorded bit of scoring all of them."""

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_every_forced_first_on_noise_free_cubic(self, criterion):
        problem = noise_free_cubic_problem()
        reasons = set()
        for first in range(problem.phi.shape[1]):
            reasons.add(assert_matches_reference(problem, criterion, forced_first=first).stop_reason)
        assert reasons - {"max_terms"}  # paths stop on the criterion too
        if criterion is Criterion.PRESS:
            assert reasons == {"PRESS floor"}  # every path fits exactly

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_every_forced_first_past_the_exact_fit(self, criterion):
        # after the exact fit every score is rounding noise, so a last-bit
        # change in any candidate's norm or projection changes the path
        problem = noise_free_cubic_problem()
        for first in range(problem.phi.shape[1]):
            assert_matches_reference(problem, criterion, forced_first=first, stop=False)

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_duplicated_column_is_available_but_not_usable(self, criterion):
        rng = np.random.default_rng(40)
        phi = rng.normal(size=(60, 8))
        phi[:, 5] = phi[:, 2]
        target = phi[:, 2] - 0.5 * phi[:, 6] + 0.1 * rng.normal(size=60)
        problem = fake_problem(phi, target)
        for first in (2, 5, None):
            path = assert_matches_reference(
                problem, criterion, forced_first=first, max_terms=6,
                stop=criterion is Criterion.ERR,
            )
            assert len(set(path.term_indices) & {2, 5}) == 1

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_every_forced_first_on_binary_prbs(self, criterion):
        # with u in {0, 1}, u(t-k)^2 equals u(t-k): PRESS and ERR scores of
        # such twins differ only in the last bits, which the order of every
        # sum decides
        problem = binary_prbs_problem()
        for first in range(problem.phi.shape[1]):
            assert_matches_reference(problem, criterion, forced_first=first)

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_equal_columns_break_toward_the_lowest_index(self, criterion):
        # the twins' scores differ in the last bits, which depend on where
        # each column sits in phi, so without the tie-break the higher
        # index wins on some paths
        problem = binary_prbs_problem()
        lowest = lowest_equal_columns(problem.phi)
        assert (lowest != np.arange(len(lowest))).sum() == 2
        for first in range(problem.phi.shape[1]):
            path = ofr_select(problem, criterion, forced_first=first)
            assert all(lowest[c] == c for c in path.term_indices[1:])
        assert_array_equal(problem.first_twins, lowest)

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_near_parallel_columns_reorthogonalize(self, criterion):
        # column 0 keeps ~3e-5 of its norm against column 1: the
        # re-orthogonalization branch
        rng = np.random.default_rng(1)
        base = rng.normal(size=50)
        pert = rng.normal(size=50)
        pert -= (pert @ base) / (base @ base) * base
        pert *= 3e-5 * np.linalg.norm(base) / np.linalg.norm(pert)
        phi = np.column_stack([base, base + pert, rng.normal(size=(50, 4))])
        target = phi[:, 0] + 4e4 * pert + 0.7 * phi[:, 2]
        for first in (0, 1):
            path = assert_matches_reference(
                fake_problem(phi, target), criterion, forced_first=first, max_terms=3,
                stop=criterion is Criterion.ERR,
            )
            W = orthogonal_columns(path, phi)
            kept = np.einsum("ij,ij->j", W, W) / np.einsum("ij,ij->j", phi, phi)[list(path.term_indices)]
            assert kept.min() * _REORTH_RATIO**2 < 1.0

    def test_interpolating_fit_trips_leverage_guard(self):
        rng = np.random.default_rng(41)
        phi = rng.normal(size=(8, 12))
        target = rng.normal(size=8)
        path = assert_matches_reference(
            fake_problem(phi, target), Criterion.PRESS, max_terms=8, stop=False,
        )
        # bounded, this stop is reached only when the lowest-bound candidate
        # is rejected and every column is then scored
        assert path.stop_reason == "all candidates leverage-rejected"

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_max_terms_cap(self, criterion):
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(80, 20))
        target = phi[:, :6] @ rng.normal(size=6) + 0.3 * rng.normal(size=80)
        for cap in (1, 4):
            path = assert_matches_reference(fake_problem(phi, target), criterion, max_terms=cap)
            assert path.stop_reason == "max_terms" and len(path.steps) == cap

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_max_terms_beyond_the_column_count(self, criterion):
        # a path selects each column at most once, so a cap past the column
        # count changes nothing and allocates no more than the count does
        problem = noise_free_cubic_problem()
        n_cols = problem.phi.shape[1]
        for first in (None, *range(n_cols)):
            path = ofr_select(problem, criterion, forced_first=first, max_terms=10**15)
            assert path_bits(path) == path_bits(
                ofr_select(problem, criterion, forced_first=first, max_terms=n_cols)
            )

    @pytest.mark.parametrize("criterion", [Criterion.PRESS, Criterion.ERR])
    def test_capped_path_is_the_uncapped_path_cut_short(self, criterion):
        # the search's BIC bound runs paths under a lower max_terms and
        # scores those that end before it as the uncapped paths; the step
        # that fills max_terms skips the candidate update
        problem = noise_free_cubic_problem()
        for first in range(problem.phi.shape[1]):
            full = ofr_select(problem, criterion, forced_first=first)
            steps, _, triangular = path_bits(full)[:3]
            k = len(full.steps)
            for cap in range(1, k + 1):
                capped = path_bits(
                    ofr_select(problem, criterion, forced_first=first, max_terms=cap)
                )
                assert capped[0] == steps[:cap]
                assert capped[2] == [row[:cap] for row in triangular[:cap]]

    @pytest.mark.parametrize("seed", range(4))
    def test_press_without_first_increase_stop(self, seed):
        rng = np.random.default_rng(50 + seed)
        phi = rng.normal(size=(70, 24))
        target = phi[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=70)
        path = assert_matches_reference(
            fake_problem(phi, target), Criterion.PRESS, stop=False,
        )
        assert path.stop_reason == "max_terms"
        assert len(path.steps) == default_max_terms(24, 70)

    def test_bound_slack_past_the_cancellation(self):
        # case C at white-noise seed 5, forced first terms 107 and 158: at
        # the 30th step the best fits are exact, so rr - p^2 / ss cancels to
        # rounding noise, and p and ss, downdated on the target's and phi's
        # scale, are off by more than that.  A threshold without the
        # downdate term (k = -1 drops it) ruled out column 20, which scoring
        # every candidate takes, and took 23.
        u = generate_signal(WhiteNoise(length=500, seed=5))
        d = expand_dictionary(build_linear_dictionary(LagSpec(4, 4)), 3, include_constant=True)
        problem = build_problem(IoData(u, dc_motor_reference(u)), d)
        n_rows, n_cols = problem.phi.shape
        assert n_rows * (n_cols - 30) >= _BOUND_MIN_BLOCK  # every step is bounded

        def without_downdate(n_rows, k, press, rr, yy, gphi):
            return _bound_threshold(n_rows, -1, press, rr, yy, gphi)

        paths = {}
        for first in (107, 158):
            path = paths[first] = ofr_select(problem, Criterion.PRESS, forced_first=first)
            score_all = score_all_ofr_select(problem, Criterion.PRESS, forced_first=first)
            assert path_bits(path) == path_bits(score_all)
            assert len(path.steps) == 30 and path.term_indices[-1] == 20
            with mock.patch("narxid.ofr._bound_threshold", without_downdate):
                cut = ofr_select(problem, Criterion.PRESS, forced_first=first)
            assert cut.term_indices[-1] == 23
        # every PRESS at that step is rounding noise in the reference kernel
        # too, which from 158 takes 20 and from 107 takes 23 after the same
        # 29 terms
        assert_matches_reference(problem, Criterion.PRESS, forced_first=158)
        ref = reference_ofr_select(problem, Criterion.PRESS, forced_first=107)
        assert ref.term_indices == paths[107].term_indices[:29] + (23,)


def gram_schmidt(w, columns):
    """``w`` orthogonalized against the mutually orthogonal ``columns``."""
    w = w.copy()
    for q in columns:
        w -= (float(q @ w) / float(q @ q)) * q
    return w


class TestResidualBound:
    """Every ``1 - h(t)`` is at most 1, so n times a candidate's PRESS is at
    least its residual sum of squares, ``rr - (r.w)^2 / (w.w)``: the bound
    the PRESS kernel rules candidates out by, checked against ``press_of``
    through the kernel's threshold, slack included."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(4, 60),
        n_cols=st.integers(2, 10),
        exact=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        data=st.data(),
    )
    def test_n_press_is_at_least_the_residual_bound(self, seed, n_rows, n_cols, exact, scale, data):
        rng = np.random.default_rng(seed)
        phi = scale * rng.normal(size=(n_rows, n_cols))
        # a path state: a random ordered subset of the columns, selected;
        # the next candidate in the order completes an exact fit, where the
        # bound cancels to rounding noise
        order = rng.permutation(n_cols)
        k = data.draw(st.integers(0, n_cols - 1), label="selected")
        target = phi[:, order[: k + 1]] @ rng.normal(size=k + 1)
        if not exact:
            target += 0.1 * scale * rng.normal(size=n_rows)
        selected = []
        for c in order[:k]:
            w = gram_schmidt(phi[:, c], selected)
            if w @ w > RANK_TOL * (phi[:, c] @ phi[:, c]):
                selected.append(w)
        resid = target.copy()
        for q in selected:  # press_of's own residual, step by step
            resid = resid - (float(resid @ q) / float(q @ q)) * q
        rr = float(resid @ resid)
        for c in order[k:]:
            w = gram_schmidt(phi[:, c], selected)
            ss = float(w @ w)
            if ss <= RANK_TOL * (phi[:, c] @ phi[:, c]):
                continue
            try:
                press = press_of(selected, w, target)
            except LeverageError:
                continue
            proj = float(resid @ w)
            g = proj / ss
            bound = rr - proj * g
            gphi = abs(g) * np.sqrt(phi[:, c] @ phi[:, c])
            yy = float(target @ target)
            assert bound <= _bound_threshold(n_rows, len(selected), press, rr, yy, gphi)


def evaluations_per_step(kernel, problem, forced_first, criterion=Criterion.ERR):
    """How many candidates pass the rank test at each step of an unstopped
    path, read off the evaluation counts of paths capped one step apart (a
    forced first step evaluates none)."""
    counts, total = [], 0
    for cap in range(1, problem.phi.shape[1] + 1):
        path = kernel(problem, criterion, forced_first=forced_first, max_terms=cap, stop=False)
        if len(path.steps) < cap:
            break
        counts.append(path.n_evaluated - total)
        total = path.n_evaluated
    return counts


def ill_conditioned_cubic_problem():
    """A degree-3 dictionary with a constant (LagSpec(2, 2), 35 candidates)
    over an input that swings 0.1 about 10: the powers of u are nearly
    parallel (condition number about 1e21) and several fall below the rank
    tolerance along every path."""
    u = 10.0 + 0.1 * generate_signal(WhiteNoise(length=120, seed=5))
    u1 = np.roll(u, 1)
    y = 0.5 * u1 + 0.2 * u1**3 + 0.01 * np.random.default_rng(5).normal(size=120)
    d = expand_dictionary(build_linear_dictionary(LagSpec(2, 2)), 3, include_constant=True)
    return build_problem(IoData(u, y), d)


def near_threshold_problem():
    """Two near copies of random columns: column 5 keeps 3e-10 of its
    squared norm against column 0 (above ``RANK_TOL``), column 6 keeps
    3e-11 against column 1 (below it)."""
    rng = np.random.default_rng(60)
    phi = rng.normal(size=(60, 7))
    for copy, source, kept in ((5, 0, 3e-10), (6, 1, 3e-11)):
        pert = rng.normal(size=60)
        pert -= (pert @ phi[:, source]) / (phi[:, source] @ phi[:, source]) * phi[:, source]
        pert *= np.sqrt(kept) * np.linalg.norm(phi[:, source]) / np.linalg.norm(pert)
        phi[:, copy] = phi[:, source] + pert
    target = phi[:, :5] @ rng.normal(size=5) + 0.1 * rng.normal(size=60)
    return fake_problem(phi, target)


class TestErrKernelNumerics:
    """The ERR kernel scores candidates on squared norms and projections
    downdated step by step, never on orthogonalized columns: its rank
    decisions and coefficients must hold where cancellation is large."""

    @pytest.mark.parametrize("make_problem", [ill_conditioned_cubic_problem, near_threshold_problem])
    def test_rank_drops_match_the_reference(self, make_problem):
        problem = make_problem()
        n_cols = problem.phi.shape[1]
        dropped = 0
        for first in (None, 0, 1, 5, n_cols - 1):
            ours = evaluations_per_step(ofr_select, problem, first)
            assert ours == evaluations_per_step(reference_ofr_select, problem, first)
            # without a drop each step evaluates one candidate fewer
            dropped += sum(a - b > 1 for a, b in zip(ours[1:], ours[2:]))
        assert dropped

    def test_near_threshold_copies(self):
        problem = near_threshold_problem()
        for first in (None, *range(7)):
            path = assert_matches_reference(problem, Criterion.ERR, forced_first=first, stop=False)
            # column 6 and its source are dependent; column 5 and its source are not
            assert len({1, 6} & set(path.term_indices)) == 1
            assert {0, 5} <= set(path.term_indices)
            assert path.stop_reason == "no usable candidates (rank tolerance)"

    @pytest.mark.parametrize("make_problem", [ill_conditioned_cubic_problem, near_threshold_problem])
    def test_coefficients_match_least_squares(self, make_problem):
        # measured: 1.1e-9 relative in the coefficients and 4e-15 of the
        # output's scale in the fit on the cubic problem, as the reference
        # kernel's 1.4e-9 and 3e-15
        problem = make_problem()
        scale = np.max(np.abs(problem.target))
        for first in (None, *range(problem.phi.shape[1])):
            for stop in (True, False):
                path = assert_matches_reference(problem, Criterion.ERR, forced_first=first, stop=stop)
                cols = problem.phi[:, list(path.term_indices)]
                theta = back_substitute(path)
                direct = least_squares(problem, path.term_indices)
                assert_allclose(theta, direct, rtol=0, atol=1e-7 * np.max(np.abs(direct)))
                assert np.max(np.abs(cols @ (theta - direct))) <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(12, 60),
        n_cols=st.integers(2, 10),
        near_copy=st.sampled_from([0.0, 1e-3, 1e-6]),
        stop=st.booleans(),
    )
    def test_every_step_err_is_err_of_its_orthogonal_column(
        self, seed, n_rows, n_cols, near_copy, stop,
    ):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(n_rows, n_cols))
        if near_copy:
            phi[:, -1] = phi[:, 0] + near_copy * rng.normal(size=n_rows)
        target = rng.normal(size=n_rows)
        path = ofr_select(fake_problem(phi, target), Criterion.ERR, stop=stop)
        W = orthogonal_columns(path, phi)
        for j, step in enumerate(path.steps):
            assert step.err == pytest.approx(err_of(W[:, j], target), rel=1e-9, abs=1e-12)


class TestPressKernelNumerics:
    """The PRESS kernel scores on the same downdated norms and projections
    as ERR and forms explicit columns only for the candidates it scores in
    full: its rank decisions, coefficients, recorded PRESS and bound must
    hold where cancellation is large."""

    @pytest.mark.parametrize("make_problem", [ill_conditioned_cubic_problem, near_threshold_problem])
    def test_rank_drops_match_the_reference(self, make_problem):
        problem = make_problem()
        n_cols = problem.phi.shape[1]
        dropped = 0
        for first in (None, 0, 1, 5, n_cols - 1):
            ours = evaluations_per_step(ofr_select, problem, first, Criterion.PRESS)
            assert ours == evaluations_per_step(reference_ofr_select, problem, first, Criterion.PRESS)
            # without a drop each step evaluates one candidate fewer
            dropped += sum(a - b > 1 for a, b in zip(ours[1:], ours[2:]))
        assert dropped

    @pytest.mark.parametrize("make_problem", [ill_conditioned_cubic_problem, near_threshold_problem])
    def test_coefficients_match_least_squares(self, make_problem):
        problem = make_problem()
        scale = np.max(np.abs(problem.target))
        for first in (None, *range(problem.phi.shape[1])):
            for stop in (True, False):
                path = assert_matches_reference(problem, Criterion.PRESS, forced_first=first, stop=stop)
                cols = problem.phi[:, list(path.term_indices)]
                theta = back_substitute(path)
                direct = least_squares(problem, path.term_indices)
                assert_allclose(theta, direct, rtol=0, atol=1e-7 * np.max(np.abs(direct)))
                assert np.max(np.abs(cols @ (theta - direct))) <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(12, 60),
        n_cols=st.integers(2, 10),
        near_copy=st.sampled_from([0.0, 1e-3, 1e-6]),
        stop=st.booleans(),
    )
    def test_every_step_press_is_press_of_its_orthogonal_columns(
        self, seed, n_rows, n_cols, near_copy, stop,
    ):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(n_rows, n_cols))
        if near_copy:
            phi[:, -1] = phi[:, 0] + near_copy * rng.normal(size=n_rows)
        target = rng.normal(size=n_rows)
        path = ofr_select(fake_problem(phi, target), Criterion.PRESS, stop=stop)
        W = orthogonal_columns(path, phi)
        for j, step in enumerate(path.steps):
            expected = press_of(list(W[:, :j].T), W[:, j], target)
            assert step.ms_press == pytest.approx(expected, rel=1e-9, abs=noise_floor(target))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(8, 80),
        n_cols=st.integers(2, 14),
        n_true=st.integers(1, 6),
        noise=st.sampled_from([0.0, 1e-6, 0.1]),
        near_copy=st.sampled_from([0.0, 1e-4]),
        last=st.sampled_from([1.0, 1e-4]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        stop=st.booleans(),
    )
    def test_bound_holds_on_the_downdated_state(
        self, seed, n_rows, n_cols, n_true, noise, near_copy, last, scale, stop,
    ):
        # every candidate the kernel would score, scored in full: its
        # residual bound from the downdated norm and projection is within
        # the threshold of its own PRESS, so ruling candidates out never
        # changes a path.  A small last true term leaves the step that
        # completes an exact fit with rr far below the target's energy,
        # where the downdates' error dominates the bound.
        rng = np.random.default_rng(seed)
        phi = scale * rng.normal(size=(n_rows, n_cols))
        if near_copy:
            phi[:, -1] = phi[:, 0] + near_copy * scale * rng.normal(size=n_rows)
        n_true = min(n_true, n_cols)
        coeffs = rng.normal(size=n_true)
        coeffs[-1] *= last
        target = phi[:, :n_true] @ coeffs + noise * scale * rng.normal(size=n_rows)
        problem = fake_problem(phi, target)
        n_scored = 0

        def check_and_score(path, idx, ss, proj):
            nonlocal n_scored
            g = proj / ss
            press = _score_press(path, idx, g, ss)
            rr = float(np.einsum("i,i->", path.resid, path.resid))
            gphi = np.abs(g) * problem.col_norm[idx]
            finite = np.isfinite(press)
            threshold = _bound_threshold(
                n_rows, len(path.steps), press[finite], rr, problem.target_ss, gphi[finite]
            )
            assert np.all((rr - proj * g)[finite] <= threshold)
            n_scored += int(finite.sum())
            return press

        with mock.patch("narxid.ofr._press_scores", check_and_score):
            scored_all = ofr_select(problem, Criterion.PRESS, stop=stop)
        assert n_scored or not scored_all.n_evaluated
        assert path_bits(bounded_ofr_select(problem, Criterion.PRESS, stop=stop)) == path_bits(scored_all)


def float_bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


class TestPositionIndependence:
    """The residual bound scores a candidate alone, a few together or the
    whole block, so ``_score_press`` must give each candidate's PRESS the
    same bits wherever it sits in the call, and the path must read the same
    per-problem constants the per-path formulas gave."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(4, 80),
        n_cols=st.integers(2, 16),
        exact=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        data=st.data(),
    )
    def test_press_alone_equals_its_entry_in_the_block_and_in_a_subset(
        self, seed, n_rows, n_cols, exact, scale, data
    ):
        # every step of a random path is a path state: the candidates are
        # scored in full, one at a time, and in a random subset in random
        # order before the kernel's own scoring goes on
        rng = np.random.default_rng(seed)
        phi = scale * rng.normal(size=(n_rows, n_cols))
        target = phi[:, : max(1, n_cols // 2)] @ rng.normal(size=max(1, n_cols // 2))
        if not exact:
            target += 0.1 * scale * rng.normal(size=n_rows)
        problem = fake_problem(phi, target)
        forced = data.draw(st.none() | st.integers(0, n_cols - 1), label="forced_first")
        n_checked = 0

        def check_then_score(path, idx, ss, proj):
            nonlocal n_checked
            g = proj / ss
            block = _score_press(path, idx, g, ss)
            for j in range(idx.size):
                alone = _score_press(path, idx[j : j + 1], g[j : j + 1], ss[j : j + 1])
                assert float_bits(alone) == float_bits(block[j : j + 1])
            pick = rng.permutation(idx.size)[: rng.integers(1, idx.size + 1)]
            subset = _score_press(path, idx[pick], g[pick], ss[pick])
            assert float_bits(subset) == float_bits(block[pick])
            n_checked += idx.size
            return _press_scores(path, idx, ss, proj)

        with mock.patch("narxid.ofr._press_scores", check_then_score):
            path = ofr_select(problem, Criterion.PRESS, forced_first=forced, stop=False)
        assert n_checked == path.n_evaluated

    @pytest.mark.parametrize(
        "make_problem",
        [binary_prbs_problem, noise_free_cubic_problem, ill_conditioned_cubic_problem],
    )
    def test_per_problem_constants_are_read_only_and_equal_the_per_path_formulas(
        self, make_problem
    ):
        problem = make_problem()
        phi, target = problem.phi, problem.target
        col_ss = np.einsum("ij,ij->j", phi, phi)
        expected = {
            "col_ss": col_ss,
            "col_norm": np.sqrt(col_ss),
            "rank_floor": RANK_TOL * col_ss,
            "target_proj": target @ phi,
        }
        for name, value in expected.items():
            constant = getattr(problem, name)
            assert getattr(problem, name) is constant  # computed once
            assert float_bits(constant) == float_bits(value), name
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 1.0
        assert float_bits(problem.target_ss) == float_bits(float(target @ target))
        floor = problem.msse_floor
        assert problem.msse_floor is floor  # computed once
        assert float_bits(floor) == float_bits(noise_floor(target))
        assert path_bits(ofr_select(problem, Criterion.PRESS)) == path_bits(
            ofr_select(make_problem(), Criterion.PRESS)
        )
