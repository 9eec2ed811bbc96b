"""Monomial model terms and candidate-term dictionaries.

A polynomial ARX/NARX model is a weighted sum of monomials over lagged
outputs ``y(t-i)`` and lagged inputs ``u(t-j)``.  :class:`Term` is one such
monomial, stored as a canonical exponent map; :class:`Dictionary` is an
ordered, duplicate-free set of candidate terms.

Rendering follows the usual notation, e.g. ``y(t-2)^2*u(t-1)^3`` (exponent 1
omitted, constant rendered as ``1``).  That string is the stable identifier
used in reports and serialized models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError, check_integer

__all__ = [
    "Signal",
    "Factor",
    "Term",
    "CONSTANT",
    "LagSpec",
    "Dictionary",
    "build_linear_dictionary",
    "expand_dictionary",
    "reduce_dictionary",
    "parse_term",
]


class Signal(IntEnum):
    """Which recorded signal a factor refers to; OUTPUT sorts before INPUT."""

    OUTPUT = 0
    INPUT = 1


@dataclass(frozen=True, order=True)
class Factor:
    """One ``signal(t-lag)^exponent`` factor of a monomial."""

    signal: Signal
    lag: int
    exponent: int = 1


@dataclass(frozen=True)
class Term:
    """A monomial over lagged signals, canonical and immutable.

    ``factors`` is sorted by (signal, lag) with duplicate (signal, lag) pairs
    merged into a single factor by summing exponents.  An empty factor tuple
    is the constant (bias) term of degree 0.  Build instances through
    :meth:`of` unless the factors are already canonical.
    """

    factors: tuple[Factor, ...] = ()

    @classmethod
    def of(cls, *factors: Factor) -> "Term":
        merged: dict[tuple[Signal, int], int] = {}
        for f in factors:
            if f.lag < 1:
                raise ConfigError(f"factor lag must be >= 1, got {f.lag}")
            if f.exponent < 1:
                raise ConfigError(f"factor exponent must be >= 1, got {f.exponent}")
            key = (f.signal, f.lag)
            merged[key] = merged.get(key, 0) + f.exponent
        canon = tuple(
            Factor(sig, lag, exp) for (sig, lag), exp in sorted(merged.items())
        )
        return cls(canon)

    @property
    def is_constant(self) -> bool:
        return not self.factors

    @property
    def degree(self) -> int:
        return sum(f.exponent for f in self.factors)

    @property
    def max_output_lag(self) -> int:
        return max((f.lag for f in self.factors if f.signal is Signal.OUTPUT), default=0)

    @property
    def max_input_lag(self) -> int:
        return max((f.lag for f in self.factors if f.signal is Signal.INPUT), default=0)

    @property
    def max_lag(self) -> int:
        return max(self.max_output_lag, self.max_input_lag)

    def sort_key(self) -> tuple:
        """Dictionary ordering: degree, then the expanded variable sequence.

        Exponents are expanded into repeated (signal, lag) entries so that
        e.g. ``y(t-2)^2`` sorts as (y2, y2), before ``y(t-2)*u(t-1)``.
        """
        expanded = tuple(
            (f.signal, f.lag) for f in self.factors for _ in range(f.exponent)
        )
        return (self.degree, expanded)

    def __str__(self) -> str:
        if self.is_constant:
            return "1"
        parts = []
        for f in self.factors:
            name = "y" if f.signal is Signal.OUTPUT else "u"
            s = f"{name}(t-{f.lag})"
            if f.exponent > 1:
                s += f"^{f.exponent}"
            parts.append(s)
        return "*".join(parts)


CONSTANT = Term()

_FACTOR_RE = re.compile(r"^([yu])\(t-(\d+)\)(?:\^(\d+))?$")


def parse_term(text: str) -> Term:
    """Parse a rendered term string back into a :class:`Term`."""
    text = text.strip()
    if text == "1":
        return CONSTANT
    factors = []
    for part in text.split("*"):
        m = _FACTOR_RE.match(part.strip())
        if m is None:
            raise ConfigError(f"cannot parse term factor {part!r}")
        sig = Signal.OUTPUT if m.group(1) == "y" else Signal.INPUT
        factors.append(Factor(sig, int(m.group(2)), int(m.group(3) or 1)))
    return Term.of(*factors)


@dataclass(frozen=True)
class LagSpec:
    """Lag and degree bounds defining the candidate space.

    ``n_a``: maximum output lag; ``n_b``: maximum input lag; ``degree``:
    maximum monomial degree; ``include_constant``: whether the bias term is a
    candidate.  The three bounds must be ``int`` (not ``bool``) and
    ``include_constant`` a ``bool``; any other type is a :class:`ConfigError`.
    """

    n_a: int
    n_b: int
    degree: int = 1
    include_constant: bool = True

    def __post_init__(self):
        for name in ("n_a", "n_b", "degree"):
            check_integer(name, getattr(self, name))
        if not isinstance(self.include_constant, bool):
            raise ConfigError(f"include_constant must be a bool, got {self.include_constant!r}")
        if self.n_a < 0 or self.n_b < 0:
            raise ConfigError("lag bounds must be non-negative")
        if self.n_a + self.n_b < 1:
            raise ConfigError("at least one lagged signal is required (n_a + n_b >= 1)")
        if self.degree < 1:
            raise ConfigError(f"polynomial degree must be >= 1, got {self.degree}")

    @property
    def max_lag(self) -> int:
        return max(self.n_a, self.n_b)


@dataclass(frozen=True)
class Dictionary:
    """Ordered, duplicate-free collection of candidate terms.

    Ordering is ascending degree, then lexicographic on the expanded variable
    sequence (output lags before input lags); a constant term, when included,
    is appended last.  Two dictionaries built from the same settings are
    element-wise equal.
    """

    terms: tuple[Term, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for i, t in enumerate(self.terms):
            if t in index:
                raise ConfigError(f"duplicate term in dictionary: {t}")
            index[t] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __getitem__(self, i: int) -> Term:
        return self.terms[i]

    def index(self, term: Term) -> int:
        try:
            return self._index[term]
        except KeyError:
            raise KeyError(f"term {term} not in dictionary") from None

    @cached_property
    def max_lag(self) -> int:
        return max((t.max_lag for t in self.terms), default=0)

    def strings(self) -> tuple[str, ...]:
        return tuple(str(t) for t in self.terms)


def _linear_terms(n_a: int, n_b: int) -> list[Term]:
    out = [Term.of(Factor(Signal.OUTPUT, lag)) for lag in range(1, n_a + 1)]
    out += [Term.of(Factor(Signal.INPUT, lag)) for lag in range(1, n_b + 1)]
    return out


def build_linear_dictionary(spec: LagSpec) -> Dictionary:
    """All degree-1 candidates ``y(t-1)..y(t-n_a), u(t-1)..u(t-n_b)``.

    The constant term is appended when ``spec.include_constant`` is set.
    """
    terms = _linear_terms(spec.n_a, spec.n_b)
    if spec.include_constant:
        terms.append(CONSTANT)
    return Dictionary(tuple(terms))


def expand_dictionary(
    base: Dictionary | Iterable[Term], degree: int, include_constant: bool = False
) -> Dictionary:
    """All monomials of degree 1..``degree`` over the variables of ``base``.

    ``base`` must contain only degree-1 terms (a constant member is ignored
    as a variable but re-appended when ``include_constant`` is set).  The
    non-constant count is ``C(v + degree, degree) - 1`` for ``v`` variables.
    """
    if degree < 1:
        raise ConfigError(f"polynomial degree must be >= 1, got {degree}")
    variables = [t for t in base if not t.is_constant]
    if any(t.degree != 1 for t in variables):
        raise ConfigError("expansion base must contain only degree-1 terms")
    if not variables:
        raise ConfigError("expansion base has no variables")
    variables = sorted(variables, key=Term.sort_key)
    # monomials are generated degree by degree in combinations_with_replacement
    # order, which matches sort_key order.
    terms: list[Term] = []
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(variables, d):
            factors = [f for t in combo for f in t.factors]
            terms.append(Term.of(*factors))
    if include_constant:
        terms.append(CONSTANT)
    return Dictionary(tuple(terms))


def reduce_dictionary(
    arx_terms: Sequence[Term], degree: int, include_constant: bool = False
) -> Dictionary:
    """Expansion restricted to the variables of an identified linear model.

    Produces a subset of the full expansion whenever ``arx_terms`` is a
    subset of the linear dictionary.  Raises if no degree-1 terms are given
    (a linear stage that selected nothing cannot seed a reduction).
    """
    variables = {t for t in arx_terms if not t.is_constant}
    if not variables:
        raise ConfigError("cannot reduce dictionary: linear model has no lagged terms")
    return expand_dictionary(variables, degree, include_constant)
