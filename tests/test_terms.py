"""Term algebra: canonical monomials and dictionary construction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narxid import (
    CONSTANT,
    ConfigError,
    Dictionary,
    Factor,
    LagSpec,
    Signal,
    Term,
    build_linear_dictionary,
    expand_dictionary,
    parse_term,
    reduce_dictionary,
)


def multiset_count(v: int, degree: int) -> int:
    """Monomials of degree 1..degree over v variables: C(v+degree, degree) - 1."""
    return math.comb(v + degree, degree) - 1


class TestTerm:
    def test_merges_duplicate_factors(self):
        t = Term.of(Factor(Signal.OUTPUT, 2), Factor(Signal.OUTPUT, 2))
        assert t.factors == (Factor(Signal.OUTPUT, 2, 2),)
        assert t.degree == 2

    def test_sorting_output_before_input(self):
        t = Term.of(Factor(Signal.INPUT, 1, 3), Factor(Signal.OUTPUT, 2, 2))
        assert str(t) == "y(t-2)^2*u(t-1)^3"

    def test_constant(self):
        assert CONSTANT.is_constant
        assert CONSTANT.degree == 0
        assert str(CONSTANT) == "1"

    def test_rejects_bad_lag_and_exponent(self):
        with pytest.raises(ConfigError):
            Term.of(Factor(Signal.OUTPUT, 0))
        with pytest.raises(ConfigError):
            Term.of(Factor(Signal.OUTPUT, 1, 0))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([Signal.OUTPUT, Signal.INPUT]),
                st.integers(1, 5),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_canonicalization_idempotent(self, raw):
        factors = [Factor(s, l, e) for s, l, e in raw]
        once = Term.of(*factors)
        twice = Term.of(*once.factors)
        assert once == twice
        assert once.degree == sum(e for _, _, e in raw)

    def test_parse_round_trip(self):
        for text in ["1", "y(t-1)", "u(t-3)^2", "y(t-2)^2*u(t-1)^3"]:
            assert str(parse_term(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_term("z(t-1)")


class TestLagSpec:
    def test_validates(self):
        with pytest.raises(ConfigError):
            LagSpec(0, 0)
        with pytest.raises(ConfigError):
            LagSpec(2, 2, degree=0)
        with pytest.raises(ConfigError):
            LagSpec(-1, 2)

    @pytest.mark.parametrize("kwargs", [
        {"n_a": 2.5}, {"n_b": "2"}, {"n_b": True}, {"degree": True}, {"degree": 2.0},
        {"include_constant": "no"}, {"include_constant": 1},
    ])
    def test_rejects_wrong_types(self, kwargs):
        values = dict({"n_a": 2, "n_b": 2, "degree": 2, "include_constant": False}, **kwargs)
        (name,) = kwargs
        with pytest.raises(ConfigError, match=name):
            LagSpec(**values)

    def test_max_lag(self):
        assert LagSpec(2, 3).max_lag == 3


class TestLinearDictionary:
    def test_2_2_no_constant(self):
        d = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        assert d.strings() == ("y(t-1)", "y(t-2)", "u(t-1)", "u(t-2)")

    def test_1_0(self):
        d = build_linear_dictionary(LagSpec(1, 0, include_constant=False))
        assert d.strings() == ("y(t-1)",)

    def test_with_constant(self):
        d = build_linear_dictionary(LagSpec(2, 2, include_constant=True))
        assert len(d) == 5
        assert d.strings()[-1] == "1"

    def test_no_duplicates_enforced(self):
        t = Term.of(Factor(Signal.OUTPUT, 1))
        with pytest.raises(ConfigError):
            Dictionary((t, t))


class TestExpandDictionary:
    def test_counts_examples(self):
        base = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        assert len(expand_dictionary(base, 2)) == 14  # C(6,2)-1
        assert len(expand_dictionary(base, 3)) == 34  # C(7,3)-1

    def test_single_variable_identity(self):
        base = build_linear_dictionary(LagSpec(1, 0, include_constant=False))
        d = expand_dictionary(base, 1)
        assert d.strings() == ("y(t-1)",)

    @pytest.mark.parametrize("v", range(1, 9))
    @pytest.mark.parametrize("degree", range(1, 6))
    def test_size_matches_closed_form(self, v, degree):
        n_a = v // 2
        n_b = v - n_a
        base = build_linear_dictionary(LagSpec(n_a, n_b, include_constant=False))
        assert len(expand_dictionary(base, degree)) == multiset_count(v, degree)

    def test_rejects_nonlinear_base(self):
        quad = Term.of(Factor(Signal.OUTPUT, 1, 2))
        with pytest.raises(ConfigError):
            expand_dictionary([quad], 2)

    def test_rejects_degree_zero_and_a_base_without_variables(self):
        base = build_linear_dictionary(LagSpec(2, 2))
        with pytest.raises(ConfigError, match="degree must be >= 1"):
            expand_dictionary(base, 0)
        with pytest.raises(ConfigError, match="no variables"):
            expand_dictionary([CONSTANT], 2)

    def test_deterministic_ordering(self):
        spec = LagSpec(3, 2, include_constant=False)
        a = expand_dictionary(build_linear_dictionary(spec), 3)
        b = expand_dictionary(build_linear_dictionary(spec), 3)
        assert a.strings() == b.strings()

    def test_table_layout_order(self):
        # degree-2 block over (y1, y2, u1, u2) in report order: the
        # quadratic y(t-2)^2 sits between y(t-1)u(t-2) and y(t-2)u(t-1)
        base = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        strings = expand_dictionary(base, 2).strings()
        block = strings[4:]
        assert block == (
            "y(t-1)^2", "y(t-1)*y(t-2)", "y(t-1)*u(t-1)", "y(t-1)*u(t-2)",
            "y(t-2)^2", "y(t-2)*u(t-1)", "y(t-2)*u(t-2)",
            "u(t-1)^2", "u(t-1)*u(t-2)", "u(t-2)^2",
        )


class TestReduceDictionary:
    def test_two_terms_degree_2(self):
        terms = [
            Term.of(Factor(Signal.OUTPUT, 1)),
            Term.of(Factor(Signal.INPUT, 1)),
        ]
        assert len(reduce_dictionary(terms, 2)) == 5  # C(4,2)-1

    def test_full_base_equals_full_expansion(self):
        base = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        full = expand_dictionary(base, 2)
        reduced = reduce_dictionary(list(base), 2)
        assert reduced.strings() == full.strings()

    def test_3_of_6_degree_3_counts(self):
        base = build_linear_dictionary(LagSpec(3, 3, include_constant=False))
        full = expand_dictionary(base, 3)
        subset = [base[0], base[2], base[4]]
        reduced = reduce_dictionary(subset, 3)
        assert len(reduced) == multiset_count(3, 3) == 19
        assert len(full) == multiset_count(6, 3) == 83
        assert set(reduced.strings()) <= set(full.strings())

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            reduce_dictionary([], 2)
        with pytest.raises(ConfigError):
            reduce_dictionary([CONSTANT], 2)

    @settings(max_examples=30)
    @given(st.data())
    def test_random_subsets_contained_in_full(self, data):
        base = build_linear_dictionary(LagSpec(3, 3, include_constant=False))
        subset = data.draw(
            st.lists(st.sampled_from(list(base)), min_size=1, max_size=6, unique=True)
        )
        degree = data.draw(st.integers(1, 3))
        reduced = reduce_dictionary(subset, degree)
        full = expand_dictionary(base, degree)
        assert set(reduced.strings()) <= set(full.strings())
