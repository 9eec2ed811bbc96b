"""Regression matrix assembly and the reference least-squares solver."""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from narxid import (
    DataError,
    InsufficientDataError,
    IoData,
    LagSpec,
    SingularityError,
    build_linear_dictionary,
    build_problem,
    dc_motor_reference,
    dc_motor_terms,
    expand_dictionary,
    least_squares,
    RegressionProblem,
    parse_term,
)
from narxid.regression import term_columns
from narxid.terms import Dictionary, Signal


def small_dictionary(*term_strings):
    return Dictionary(tuple(parse_term(s) for s in term_strings))


def reference_term_columns(terms, u, y, offset):
    """The column loop ``term_columns`` must match bit for bit: each column
    is ``1 * f1 * f2 * ...``, every factor power computed again per column."""
    rows = np.arange(offset, len(y))
    cols = []
    for term in terms:
        c = np.ones(len(rows))
        for f in term.factors:
            x = y if f.signal is Signal.OUTPUT else u
            c = c * x[rows - f.lag] ** f.exponent
        cols.append(c)
    return np.column_stack(cols) if cols else np.empty((len(rows), 0))


@st.composite
def column_inputs(draw):
    """Terms, a record and an offset: a whole expanded dictionary, shuffled
    or in order, or a few of its terms as a model passes them (prefixes
    absent, possibly none at all), over white, 0/1, negative or huge
    samples, whose powers can overflow to inf and whose products to nan."""
    n_a = draw(st.integers(0, 4))
    spec = LagSpec(
        n_a, draw(st.integers(0 if n_a else 1, 4)), draw(st.integers(1, 4)), draw(st.booleans())
    )
    terms = list(expand_dictionary(
        build_linear_dictionary(spec), spec.degree, spec.include_constant
    ))
    order = draw(st.sampled_from(["dictionary", "shuffled", "model"]))
    if order == "shuffled":
        terms = draw(st.permutations(terms))
    elif order == "model":
        terms = draw(st.lists(st.sampled_from(terms), unique=True, max_size=8))
    offset = draw(st.integers(max((t.max_lag for t in terms), default=0), 4))
    length = offset + draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["white", "prbs", "negative", "huge"]))
    if kind == "white":
        u, y = rng.normal(size=(2, length))
    elif kind == "prbs":
        u, y = rng.integers(0, 2, size=(2, length)).astype(float)
    elif kind == "negative":
        u, y = -rng.exponential(size=(2, length))
    else:
        u, y = rng.choice([0.0, 1.0, -1e120, 1e120, 3e-200], size=(2, length))
    return terms, u, y, offset


class TestTermColumns:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(column_inputs())
    def test_matches_the_reference_loop_bit_for_bit(self, inputs):
        terms, u, y, offset = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            phi = term_columns(terms, u, y, offset)
            ref = reference_term_columns(terms, u, y, offset)
        assert phi.shape == ref.shape
        assert phi.flags.c_contiguous
        assert phi.tobytes() == ref.tobytes()

    def test_matrix_is_freed_with_its_last_reference(self):
        # no reference cycle holds phi until the cyclic collector runs (one
        # did, through a recursive closure over the memo of columns)
        u, y = np.random.default_rng(1).normal(size=(2, 200))
        gc.disable()
        try:
            phi = term_columns(dc_motor_terms()[0], u, y, 2)
            freed = weakref.ref(phi)
            del phi
            assert freed() is None
        finally:
            gc.enable()

    def test_empty_term_list(self):
        u, y = np.random.default_rng(0).normal(size=(2, 9))
        phi = term_columns((), u, y, 3)
        assert phi.shape == (6, 0)
        assert phi.flags.c_contiguous


class TestIoData:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DataError):
            IoData(np.zeros(3), np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            IoData(np.array([1.0, np.nan]), np.zeros(2))

    def test_rejects_two_dimensional(self):
        with pytest.raises(DataError, match="one-dimensional"):
            IoData(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_slice_bounds(self):
        data = IoData(np.arange(5.0), np.arange(5.0))
        assert len(data.slice(1, 4)) == 3
        with pytest.raises(DataError):
            data.slice(2, 9)

    def test_keeps_read_only_copies(self):
        rng = np.random.default_rng(34)
        u, y = rng.normal(size=200), rng.normal(size=200)
        d = build_linear_dictionary(LagSpec(2, 2))
        data = IoData(u, y)
        problem = build_problem(data, d)
        u0, y0, fingerprint = u.copy(), y.copy(), data.fingerprint
        phi, target = problem.phi.copy(), problem.target.copy()
        u[3] = y[10] = 99.0
        assert_array_equal(data.u, u0)
        assert_array_equal(data.y, y0)
        assert data.fingerprint == fingerprint == IoData(u0, y0).fingerprint
        assert build_problem(data, d) is problem
        assert_array_equal(problem.phi, phi)
        assert_array_equal(problem.target, target)
        with pytest.raises(ValueError):
            data.y[0] = 1.0
        part = data.slice(5, 50)
        assert_array_equal(part.y, y0[5:50])
        assert not part.y.flags.writeable

    @pytest.mark.parametrize(
        "data",
        [
            IoData(np.arange(5), [0.5, -1.0, 2.0, 0.0, 3.25]),
            IoData(np.linspace(-1.0, 1.0, 300), np.sin(np.arange(300.0))).slice(7, 211),
        ],
    )
    def test_fingerprint_is_the_sha256_prefix_of_u_then_y_computed_once(self, data):
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(data.u).tobytes())
        digest.update(np.ascontiguousarray(data.y).tobytes())
        fingerprint = data.fingerprint
        assert fingerprint == digest.hexdigest()[:16]
        assert data.fingerprint is fingerprint


class TestBuildProblem:
    def test_row_count(self):
        rng = np.random.default_rng(0)
        data = IoData(rng.normal(size=1000), rng.normal(size=1000))
        d = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        problem = build_problem(data, d)
        assert problem.n_rows == 998
        assert problem.offset == 2

    def test_shift_register_example(self):
        data = IoData(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        problem = build_problem(data, small_dictionary("y(t-1)"))
        assert_array_equal(problem.phi[:, 0], [1.0, 2.0])
        assert_array_equal(problem.target, [2.0, 3.0])

    def test_product_column_is_elementwise_product(self):
        u = np.random.default_rng(7).normal(size=200)
        data = IoData(u, dc_motor_reference(u))
        d = small_dictionary("y(t-1)", "u(t-1)", "y(t-1)*u(t-1)")
        problem = build_problem(data, d)
        assert_allclose(
            problem.phi[:, 2], problem.phi[:, 0] * problem.phi[:, 1], rtol=0, atol=0
        )

    def test_insufficient_data(self):
        data = IoData(np.zeros(2), np.zeros(2))
        d = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        with pytest.raises(InsufficientDataError):
            build_problem(data, d)

    def test_output_without_energy_rejected(self):
        # y(0) is only ever a regressor; the fitted rows start at the lag
        y = np.zeros(30)
        y[0] = 1.0
        u = np.random.default_rng(4).normal(size=30)
        d = build_linear_dictionary(LagSpec(1, 1, include_constant=True))
        with pytest.raises(DataError, match="output has zero energy on the fitted rows"):
            build_problem(IoData(u, y), d)
        y[29] = 1e-170  # its square underflows to zero
        with pytest.raises(DataError, match="zero energy"):
            build_problem(IoData(u, y), d)
        y[29] = 1e-150
        assert build_problem(IoData(u, y), d).target[-1] == 1e-150

    def test_warns_when_underdetermined(self):
        data = IoData(np.arange(6.0), np.arange(6.0))
        d = expand_dictionary(
            build_linear_dictionary(LagSpec(2, 2, include_constant=False)), 2
        )
        with pytest.warns(UserWarning, match="usable rows"):
            build_problem(data, d)

    def test_keeps_one_problem_per_record(self):
        rng = np.random.default_rng(3)
        data = IoData(rng.normal(size=50), rng.normal(size=50))
        spec = LagSpec(2, 1, 2, include_constant=False)
        d = expand_dictionary(build_linear_dictionary(spec), 2)
        problem = build_problem(data, d)
        # the same problem for the same dictionary or one equal in value
        assert build_problem(data, d) is problem
        assert build_problem(data, expand_dictionary(build_linear_dictionary(spec), 2)) is problem
        # a different dictionary replaces it, and the first is built again
        linear = build_linear_dictionary(spec)
        assert build_problem(data, linear).dictionary is linear
        again = build_problem(data, d)
        assert again is not problem
        assert again.phi.tobytes() == problem.phi.tobytes()
        # another record gets its own, even an equal copy or a slice of this one
        for other in (IoData(data.u, data.y), data.slice(0, 50), data.slice(1, 50)):
            built = build_problem(other, d)
            assert built is not again
            assert built is build_problem(other, d)
        assert build_problem(data, d) is again

    def test_pure_function(self):
        rng = np.random.default_rng(3)
        data = IoData(rng.normal(size=50), rng.normal(size=50))
        d = build_linear_dictionary(LagSpec(2, 1, include_constant=False))
        a = build_problem(data, d)
        b = build_problem(data, d)
        assert_array_equal(a.phi, b.phi)
        assert_array_equal(a.target, b.target)


class TestLeastSquares:
    def test_single_column_equal_to_target(self):
        # constant record: the y(t-1) column equals the target exactly
        const = IoData(np.zeros(10), np.full(10, 3.0))
        p = build_problem(const, small_dictionary("y(t-1)"))
        theta = least_squares(p)
        assert_allclose(theta, [1.0], atol=1e-12)
        assert_allclose(p.target - p.phi @ theta, 0, atol=1e-12)

    def test_orthonormal_columns_give_inner_products(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(30, 2)))
        target = rng.normal(size=30)
        d = small_dictionary("u(t-1)", "u(t-2)")
        problem = RegressionProblem(q, target, d, 2)
        theta = least_squares(problem)
        assert_allclose(theta, q.T @ target, atol=1e-12)
        # no columns selected: no coefficients
        assert_array_equal(least_squares(problem, []), np.empty(0))

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(20, 4))
        target = rng.normal(size=20)
        d = small_dictionary("y(t-1)", "y(t-2)", "u(t-1)", "u(t-2)")
        problem = RegressionProblem(phi, target, d, 2)
        theta = least_squares(problem)
        expected = np.linalg.solve(phi.T @ phi, phi.T @ target)
        assert_allclose(theta, expected, rtol=1e-10)

    def test_beats_arbitrary_coefficients(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(40, 3))
        target = rng.normal(size=40)
        d = small_dictionary("y(t-1)", "u(t-1)", "u(t-2)")
        problem = RegressionProblem(phi, target, d, 2)
        theta = least_squares(problem)
        best = np.sum((target - phi @ theta) ** 2)
        for _ in range(20):
            other = theta + rng.normal(scale=0.1, size=3)
            assert best <= np.sum((target - phi @ other) ** 2) + 1e-12

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=30)
        phi = np.column_stack([col, 2.0 * col])
        d = small_dictionary("u(t-1)", "u(t-2)")
        problem = RegressionProblem(phi, rng.normal(size=30), d, 2)
        with pytest.raises(SingularityError) as exc_info:
            least_squares(problem)
        assert exc_info.value.column == "u(t-2)"
