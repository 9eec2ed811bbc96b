"""Benchmark system and excitation generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxid import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    Model,
    Multitone,
    Prbs,
    WhiteNoise,
    dc_motor_reference,
    dc_motor_terms,
    generate_signal,
    simulate_free_run,
)


class TestDcMotorReference:
    def test_zero_input_zero_output(self):
        assert_array_equal(dc_motor_reference(np.zeros(100)), np.zeros(100))

    def test_impulse_response_start(self):
        u = np.zeros(10)
        u[2] = 1.0  # unit impulse at t=3, 1-based
        y = dc_motor_reference(u)
        assert y[2] == 0.0
        assert y[3] == pytest.approx(0.0339)

    def test_needs_three_samples(self):
        with pytest.raises(InsufficientDataError):
            dc_motor_reference(np.zeros(2))

    @pytest.mark.parametrize("seed", [332, 361, 3])
    def test_dual_route_agreement(self, seed):
        # the hard-coded recursion and the generic simulator are independent
        # code paths; they must agree to machine precision
        u = np.random.default_rng(seed).normal(size=1000)
        y = dc_motor_reference(u)
        terms, coefficients = dc_motor_terms()
        run = simulate_free_run(Model(terms, coefficients), u, np.zeros(2))
        assert not run.diverged
        assert np.max(np.abs(run.output - y)) <= 1e-12

    def test_divergent_input_raises_with_index(self):
        # sustained negative drive pushes the bilinear terms unstable
        u = np.full(400, -1.2)
        with pytest.raises(DivergenceError) as exc_info:
            dc_motor_reference(u)
        assert 2 < exc_info.value.index < 400

    def test_default_multitone_drives_system_unstable(self):
        # the 0.01-sampled multitone dwells near its negative peak long
        # enough for the locally unstable dynamics to take over; this
        # documents why the multitone benchmark needs a coarser sampling
        u = generate_signal(Multitone(length=1000))
        with pytest.raises(DivergenceError) as exc_info:
            dc_motor_reference(u)
        assert exc_info.value.index < 200


class TestWhiteNoise:
    def test_deterministic_given_seed(self):
        a = generate_signal(WhiteNoise(length=500, seed=7))
        b = generate_signal(WhiteNoise(length=500, seed=7))
        assert_array_equal(a, b)

    def test_mean_and_std(self):
        # standard normal: mean 0, std 1
        u = generate_signal(WhiteNoise(length=20000, seed=0))
        assert np.mean(u) == pytest.approx(0.0, abs=0.02)
        assert np.std(u) == pytest.approx(1.0, abs=0.02)


class TestMultitone:
    def test_integer_sample_period_warns_all_zero(self):
        with pytest.warns(UserWarning, match="numerically zero"):
            u = generate_signal(Multitone(length=100, sample_period=1.0))
        assert np.max(np.abs(u)) < 1e-9

    def test_waveform_values(self):
        spec = Multitone(length=3, sample_period=0.01)
        u = generate_signal(spec)
        t = np.array([0.01, 0.02, 0.03])
        expected = 0.2 * (
            4 * np.sin(np.pi * t)
            + 1.2 * np.sin(4 * np.pi * t)
            + 1.5 * np.sin(8 * np.pi * t)
            + 0.5 * np.sin(6 * np.pi * t)
        )
        assert_allclose(u, expected, rtol=1e-12)

    def test_stable_sampling_keeps_system_bounded(self):
        u = generate_signal(Multitone(length=1000, sample_period=0.1))
        y = dc_motor_reference(u)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 10


class TestPrbs:
    def test_two_levels_only(self):
        u = generate_signal(Prbs(length=300, seed=3))
        assert set(np.unique(u)) <= {-1.0, 1.0}

    def test_hold_runs_are_multiples(self):
        u = generate_signal(Prbs(length=1000, hold=5, seed=11))
        changes = np.where(np.diff(u) != 0)[0] + 1
        runs = np.diff(np.r_[0, changes])
        assert all(r % 5 == 0 for r in runs)

    def test_deterministic(self):
        a = generate_signal(Prbs(length=200, hold=3, seed=5))
        b = generate_signal(Prbs(length=200, hold=3, seed=5))
        assert_array_equal(a, b)

    def test_custom_levels(self):
        u = generate_signal(Prbs(length=50, levels=(0.0, 2.0), seed=1))
        assert set(np.unique(u)) <= {0.0, 2.0}


@pytest.mark.parametrize("make, message", [
    (lambda: WhiteNoise(0), "length must be >= 1"),
    (lambda: Multitone(0), "length must be >= 1"),
    (lambda: Multitone(10, sample_period=0), "sample_period must be positive"),
    (lambda: Prbs(0), "length must be >= 1"),
    (lambda: Prbs(10, hold=0), "hold must be >= 1"),
    (lambda: generate_signal(object()), "unknown signal spec"),
], ids=["white-0", "multitone-0", "multitone-period-0", "prbs-0", "prbs-hold-0", "unknown-spec"])
def test_bad_signal_spec_raises_config_error(make, message):
    with pytest.raises(ConfigError, match=message):
        make()
