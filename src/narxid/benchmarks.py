"""Synthetic benchmark systems and excitation signals.

The reference system is a second-order polynomial model of a DC motor with
bilinear input-output cross terms and a quadratic output term, simulated
recursively from zero initial conditions.  Excitations cover seeded Gaussian
white noise, a multi-tone sinusoid, and a seeded pseudo-random binary
sequence, all pure functions of their settings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DivergenceError, InsufficientDataError
from .simulation import DIVERGENCE_LIMIT
from .terms import Factor, Signal, Term

__all__ = [
    "WhiteNoise",
    "Multitone",
    "Prbs",
    "SignalSpec",
    "generate_signal",
    "dc_motor_reference",
    "dc_motor_terms",
    "DC_MOTOR_COEFFICIENTS",
]

# y(t) = 1.7813 y(t-1) - 0.7962 y(t-2) + 0.0339 u(t-1) + 0.0338 u(t-2)
#        - 0.1597 y(t-1)u(t-1) - 0.1396 y(t-1)u(t-2)
#        + 0.1297 y(t-2)u(t-1) + 0.1086 y(t-2)u(t-2) + 0.0085 y(t-2)^2
DC_MOTOR_COEFFICIENTS = (
    1.7813, -0.7962, 0.0339, 0.0338, -0.1597, -0.1396, 0.1297, 0.1086, 0.0085
)


def dc_motor_terms() -> tuple[tuple[Term, ...], tuple[float, ...]]:
    """The benchmark system's nine terms and coefficients."""
    Y, U = Signal.OUTPUT, Signal.INPUT
    terms = (
        Term.of(Factor(Y, 1)),
        Term.of(Factor(Y, 2)),
        Term.of(Factor(U, 1)),
        Term.of(Factor(U, 2)),
        Term.of(Factor(Y, 1), Factor(U, 1)),
        Term.of(Factor(Y, 1), Factor(U, 2)),
        Term.of(Factor(Y, 2), Factor(U, 1)),
        Term.of(Factor(Y, 2), Factor(U, 2)),
        Term.of(Factor(Y, 2, 2)),
    )
    return terms, DC_MOTOR_COEFFICIENTS


def dc_motor_reference(u) -> np.ndarray:
    """Reference output of the DC-motor benchmark for input ``u``.

    Hard-coded recursion, independent of the generic simulator, so the two
    implementations can cross-check each other.  Zero initial conditions
    (y(1) = y(2) = 0 in 1-based time).  Raises :class:`DivergenceError` at
    the first sample whose magnitude passes the divergence guard.
    """
    u = np.asarray(u, dtype=float)
    if len(u) < 3:
        raise InsufficientDataError("need at least 3 input samples")
    c = DC_MOTOR_COEFFICIENTS
    y = np.zeros(len(u))
    for t in range(2, len(u)):
        y1, y2, u1, u2 = y[t - 1], y[t - 2], u[t - 1], u[t - 2]
        v = (
            c[0] * y1 + c[1] * y2 + c[2] * u1 + c[3] * u2
            + c[4] * y1 * u1 + c[5] * y1 * u2
            + c[6] * y2 * u1 + c[7] * y2 * u2
            + c[8] * y2 * y2
        )
        if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"benchmark recursion diverged at sample {t} "
                "(the system is not stable under this input)",
                index=t,
            )
        y[t] = v
    return y


@dataclass(frozen=True)
class WhiteNoise:
    """Seeded standard Gaussian white noise (mean 0, std 1)."""

    length: int
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("signal length must be >= 1")


# the multitone's (amplitude, angular frequency in rad/s) pairs, summed in
# this order and then scaled
MULTITONE_TONES = ((4.0, math.pi), (1.2, 4 * math.pi), (1.5, 8 * math.pi), (0.5, 6 * math.pi))
MULTITONE_SCALE = 0.2


@dataclass(frozen=True)
class Multitone:
    """The sum of :data:`MULTITONE_TONES`, scaled by :data:`MULTITONE_SCALE`
    and sampled at ``k * sample_period`` for k = 1..length.

    An integer sample period makes every tone at a multiple of pi vanish
    identically; the generator warns when the produced signal is
    numerically zero.
    """

    length: int
    sample_period: float = 0.01

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("signal length must be >= 1")
        if self.sample_period <= 0:
            raise ConfigError("sample_period must be positive")


@dataclass(frozen=True)
class Prbs:
    """Seeded two-level sequence holding each level for ``hold`` samples."""

    length: int
    levels: tuple[float, float] = (-1.0, 1.0)
    hold: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("signal length must be >= 1")
        if self.hold < 1:
            raise ConfigError("hold must be >= 1")


SignalSpec = Union[WhiteNoise, Multitone, Prbs]


def generate_signal(spec: SignalSpec) -> np.ndarray:
    """Deterministic excitation signal for ``spec``."""
    if isinstance(spec, WhiteNoise):
        rng = np.random.default_rng(spec.seed)
        return rng.normal(0.0, 1.0, spec.length)
    if isinstance(spec, Multitone):
        t = np.arange(1, spec.length + 1) * spec.sample_period
        u = np.zeros(spec.length)
        for a, w in MULTITONE_TONES:
            u += a * np.sin(w * t)
        u *= MULTITONE_SCALE
        if np.max(np.abs(u)) < 1e-12:
            warnings.warn(
                "multitone signal is numerically zero; with an integer "
                "sample period every tone at a multiple of pi degenerates",
                stacklevel=2,
            )
        return u
    if isinstance(spec, Prbs):
        rng = np.random.default_rng(spec.seed)
        n_blocks = -(-spec.length // spec.hold)
        bits = rng.integers(0, 2, n_blocks)
        levels = np.where(bits == 1, spec.levels[1], spec.levels[0])
        return np.repeat(levels, spec.hold)[: spec.length].astype(float)
    raise ConfigError(f"unknown signal spec {type(spec).__name__}")
