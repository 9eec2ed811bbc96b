"""Model container, free-run simulation, one-step prediction, stability probe.

Free-run (model-predicted-output) simulation feeds the model's own past
outputs back into the recursion; one-step-ahead prediction uses the measured
history.  The stability probe drives a candidate model with constant inputs
(all zeros, all ones) and checks that the response settles around a mean with
small variance instead of growing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .regression import IoData, term_columns
from .terms import LagSpec, Term

__all__ = [
    "Model",
    "FreeRunResult",
    "StabilityVerdict",
    "simulate_free_run",
    "predict_one_step",
    "stability_probe",
    "DIVERGENCE_LIMIT",
]

# Any simulated magnitude beyond this (or non-finite) counts as divergence.
DIVERGENCE_LIMIT = 1e12

PROBE_SAMPLES = 1000
PROBE_SETTLE = 200
# default post-settle variance threshold, absolute, in output units
PROBE_EPSILON = 1e-2


@dataclass(frozen=True)
class Model:
    """A selected polynomial model: terms, coefficients and bias.

    The bias (DC offset) is kept separate from the term list; selections
    that include the constant candidate fold its coefficient into ``bias``.
    ``provenance`` carries selection metadata (criterion, per-step metrics,
    data hash) and does not affect behaviour.
    """

    terms: tuple[Term, ...]
    coefficients: tuple[float, ...]
    bias: float = 0.0
    lag_spec: LagSpec | None = None
    provenance: Mapping | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.terms) != len(self.coefficients):
            raise ConfigError(
                f"{len(self.terms)} terms but {len(self.coefficients)} coefficients"
            )
        if any(t.is_constant for t in self.terms):
            raise ConfigError("constant term belongs in the bias field")
        values = tuple(float(c) for c in self.coefficients)
        if not all(math.isfinite(c) for c in values) or not math.isfinite(self.bias):
            raise ConfigError("model coefficients must be finite")
        object.__setattr__(self, "coefficients", values)
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.lag_spec is not None:
            if self.max_output_lag > self.lag_spec.n_a or self.max_input_lag > self.lag_spec.n_b:
                raise ConfigError("model terms exceed the declared lag bounds")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def max_output_lag(self) -> int:
        return max((t.max_output_lag for t in self.terms), default=0)

    @property
    def max_input_lag(self) -> int:
        return max((t.max_input_lag for t in self.terms), default=0)

    @property
    def max_lag(self) -> int:
        return max(self.max_output_lag, self.max_input_lag)

    def term_strings(self) -> tuple[str, ...]:
        return tuple(str(t) for t in self.terms)


@dataclass(frozen=True)
class FreeRunResult:
    """Free-run output plus the divergence verdict.

    ``diverged_at`` is the first sample index at which the guard tripped
    (output is NaN from there on), or None for a clean run.
    """

    output: np.ndarray
    diverged_at: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the constant-input stability probe.

    ``mean0``/``var0`` describe the post-settle response to an all-zero
    input, ``mean1``/``var1`` the response to an all-ones input.
    ``bias_mean_ok`` records whether the zero-input mean matched the model
    bias within ``sqrt(epsilon)``; a bounded response with an unexpected
    fixed point is still reported stable.
    """

    stable: bool
    mean0: float
    var0: float
    mean1: float
    var1: float
    diverged: bool
    bias_mean_ok: bool = True


def _constant_tail_start(u: np.ndarray) -> int:
    """Index from which ``u`` repeats its last value bit for bit (0 if empty)."""
    bits = u.view(np.int64)
    changes = np.flatnonzero(bits[1:] != bits[:-1])
    return int(changes[-1]) + 1 if changes.size else 0


def _is_fixed_point(y: list, n: int) -> bool:
    """True when the last ``n + 1`` values of ``y`` are one float, bit for bit."""
    window = y[-n - 1:]
    v = window[-1]
    if any(x != v for x in window):
        return False
    # 0.0 == -0.0, but the sign of a zero can reach later samples
    return v != 0.0 or all(math.copysign(1.0, x) == math.copysign(1.0, v) for x in window)


def simulate_free_run(model: Model, u, y_init=()) -> FreeRunResult:
    """Recursively simulate ``model`` along the input record ``u``.

    The first ``model.max_output_lag`` output samples are copied from
    ``y_init``; every later sample is computed from the model's own past
    outputs and the supplied inputs.  Divergence (non-finite value or
    magnitude beyond ``DIVERGENCE_LIMIT``) stops the recursion and is
    reported in the result rather than raised.

    Once every input lag reads the constant tail of ``u`` and the newest
    sample equals the ``model.max_output_lag`` before it bit for bit, each
    later step would compute the same value from the same operands, so the
    rest of the output is filled with it.
    """
    u = np.asarray(u, dtype=float)
    n_init, n_in = model.max_output_lag, model.max_input_lag
    y_init = np.asarray(y_init, dtype=float)
    if len(y_init) != n_init:
        raise InsufficientDataError(
            f"model needs {n_init} initial output samples, got {len(y_init)}"
        )
    if len(u) < max(n_init, n_in):
        raise InsufficientDataError("input record shorter than the model's lags")

    # The recursion runs on Python floats: same IEEE arithmetic as numpy
    # scalars (and ** calls the same libm pow), at a fraction of the cost.
    us = u.tolist()
    start = max(n_init, n_in)
    y = y_init.tolist() + [0.0] * (start - n_init)
    # per term: its coefficient and its factors' reads (y grows in place)
    terms = [(coef, term.reads(y, us)) for coef, term in zip(model.coefficients, model.terms)]
    bias = float(model.bias)
    settle = max(start, _constant_tail_start(u) + n_in)  # inputs all in the tail
    fill = math.nan
    try:
        for t in range(start, len(us)):
            v = bias
            for coef, factors in terms:
                p = 1.0
                for samples, lag, exp in factors:
                    x = samples[t - lag]
                    p *= x**exp if exp > 1 else x
                v += coef * p
            if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
                break
            y.append(v)
            if t >= settle and v == y[t - 1] and _is_fixed_point(y, n_init):
                fill = v
                break
    except OverflowError:
        pass  # float ** overflowed: that sample is infinite, a divergence
    out = np.full(len(us), fill)
    out[: len(y)] = y
    diverged_at = len(y) if len(y) < len(us) and math.isnan(fill) else None
    return FreeRunResult(out, diverged_at=diverged_at)


def predict_one_step(model: Model, data: IoData) -> np.ndarray:
    """One-step-ahead predictions from measured history.

    Defined for ``t >= model.max_lag``; earlier entries are copied from the
    measured output so the returned array aligns with ``data.y``.
    """
    offset = model.max_lag
    if len(data) <= offset:
        raise InsufficientDataError("record shorter than the model's maximum lag")
    out = data.y.astype(float, copy=True)
    if model.terms:
        phi = term_columns(model.terms, data.u, data.y, offset)
        out[offset:] = phi @ np.asarray(model.coefficients) + model.bias
    else:
        out[offset:] = model.bias
    return out


def stability_probe(model: Model, epsilon: float = PROBE_EPSILON) -> StabilityVerdict:
    """Constant-input probe: the model must settle, not grow.

    Simulates from zero initial conditions under ``u == 0`` and ``u == 1``
    for ``PROBE_SAMPLES`` samples; the first ``PROBE_SETTLE`` are discarded
    as transient.  Stable means both runs stay finite and the post-settle
    variance of each is at most ``epsilon``.  Divergence is a verdict, not
    an error.
    """
    if PROBE_SETTLE < model.max_lag:
        raise ConfigError(f"model lag {model.max_lag} exceeds the probe's settle window")
    stats = []
    diverged = False
    for level in (0.0, 1.0):
        u = np.full(PROBE_SAMPLES, level)
        run = simulate_free_run(model, u, np.zeros(model.max_output_lag))
        if run.diverged:
            diverged = True
            stats.append((float("nan"), float("nan")))
            continue
        tail = run.output[PROBE_SETTLE:]
        stats.append((float(np.mean(tail)), float(np.var(tail))))
    (mean0, var0), (mean1, var1) = stats
    stable = (
        not diverged
        and var0 <= epsilon
        and var1 <= epsilon
    )
    bias_mean_ok = (not diverged) and abs(mean0 - model.bias) <= math.sqrt(epsilon)
    return StabilityVerdict(stable, mean0, var0, mean1, var1, diverged, bias_mean_ok)
