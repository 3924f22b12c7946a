"""Tests for configuration handling, derived scales and pulse spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim.core_model import (
    PhysicalConfig,
    derive_scales,
    gaussian_pulse_spectrum,
    trapezoid_weights,
)
from polsim.errors import GridError


def make_config(**overrides):
    base = dict(
        G=3.0, Omega=0.5, OmegaS=2.0, gamma=1.0, phi=0.0,
        c=1.0, C6=4.0, L=30.0, x_gate=15.0,
    )
    base.update(overrides)
    return PhysicalConfig(**base)


class TestPhysicalConfig:
    def test_phase_stored_modulo_two_pi(self):
        cfg = make_config(phi=2.0 * math.pi + 0.25)
        assert cfg.phi == pytest.approx(0.25, abs=1e-12)
        cfg = make_config(phi=-0.25)
        assert cfg.phi == pytest.approx(2.0 * math.pi - 0.25, abs=1e-12)

    @pytest.mark.parametrize("field", ["G", "Omega", "OmegaS", "gamma", "c", "C6", "L"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            make_config(**{field: 0.0})
        with pytest.raises(ValueError):
            make_config(**{field: -1.0})

    def test_gate_must_sit_inside_medium(self):
        with pytest.raises(ValueError):
            make_config(x_gate=-1.0)
        with pytest.raises(ValueError):
            make_config(x_gate=31.0)


class TestDeriveScales:
    def test_unit_blockade_radius(self):
        # C6 = OmegaS**2 / gamma makes the blockade condition hold at unit
        # separation exactly.
        cfg = make_config()
        scales = derive_scales(cfg)
        assert scales.z_b == pytest.approx(1.0, rel=1e-14)
        assert scales.l_abs == pytest.approx(cfg.c * cfg.gamma / cfg.G**2, rel=1e-14)
        assert scales.d_b == pytest.approx(scales.z_b / scales.l_abs, rel=1e-14)
        assert scales.d == pytest.approx(cfg.L / scales.l_abs, rel=1e-14)

    def test_realistic_rydberg_parameters_si(self):
        # 100S-class van der Waals coefficient with MHz-scale beams puts the
        # blockade radius near nine microns.
        cfg = PhysicalConfig(
            G=2.0 * math.pi * 9.1e9,
            Omega=2.0 * math.pi * 5e6,
            OmegaS=2.0 * math.pi * 20e6,
            gamma=2.0 * math.pi * 3.05e6,
            phi=0.0,
            c=2.998e8,
            C6=3.573e-22,
            L=50e-6,
            x_gate=25e-6,
        )
        scales = derive_scales(cfg)
        assert abs(scales.z_b - 8.7e-6) < 0.05e-6

    def test_transparency_width_never_exceeds_single_leg_width(self):
        for ratio in (0.2, 1.0, 5.0):
            cfg = make_config(OmegaS=ratio * 0.5)
            scales = derive_scales(cfg)
            assert scales.delta_omega0 <= scales.gamma_eit * (1 + 1e-15)

    def test_transparency_width_strong_second_leg_limit(self):
        # With OmegaS >> Omega and shallow medium the bracket collapses to 1.
        cfg = make_config(Omega=0.01, OmegaS=10.0, L=2.0, x_gate=1.0)
        scales = derive_scales(cfg)
        assert scales.delta_omega0 == pytest.approx(scales.gamma_eit, rel=1e-5)

    def test_oversized_blockade_is_computed(self):
        # a blockade radius longer than the medium is returned, not refused
        cfg = make_config(L=0.5, x_gate=0.25)
        assert derive_scales(cfg).z_b > cfg.L

    @pytest.mark.parametrize("overrides, match", [
        ({"OmegaS": 1e-200}, r"cannot be computed .*\(ZeroDivisionError\)"),
        ({"G": 1e200}, r"cannot be computed .*\(OverflowError\)"),
        ({"Omega": 1e200}, r"cannot be computed .*\(OverflowError\)"),
        # C6 * gamma underflows to 0.0 or overflows to inf without raising
        ({"C6": 5e-324, "gamma": 1e-10}, r"positive and finite, got z_b=0\.0, d_b=0\.0"),
        ({"C6": 1e300, "gamma": 1e10}, r"positive and finite, got z_b=inf, d_b=inf"),
    ])
    def test_scales_out_of_float_range_raise(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            derive_scales(make_config(**overrides))

    @given(
        s=st.floats(min_value=0.01, max_value=100.0),
        ell=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_rescaling_covariance(self, s, ell):
        # Scaling every rate by s and every length by ell (hence c by ell*s
        # and C6 by s*ell**6) must scale z_b and l_abs by ell, leave the
        # optical depths alone, and scale the widths by s.
        cfg = make_config()
        scaled = PhysicalConfig(
            G=cfg.G * s, Omega=cfg.Omega * s, OmegaS=cfg.OmegaS * s,
            gamma=cfg.gamma * s, phi=cfg.phi, c=cfg.c * ell * s,
            C6=cfg.C6 * s * ell**6, L=cfg.L * ell, x_gate=cfg.x_gate * ell,
        )
        a = derive_scales(cfg)
        b = derive_scales(scaled)
        assert b.z_b == pytest.approx(a.z_b * ell, rel=1e-10)
        assert b.l_abs == pytest.approx(a.l_abs * ell, rel=1e-10)
        assert b.d_b == pytest.approx(a.d_b, rel=1e-10)
        assert b.d == pytest.approx(a.d, rel=1e-10)
        assert b.gamma_eit == pytest.approx(a.gamma_eit * s, rel=1e-10)
        assert b.delta_omega0 == pytest.approx(a.delta_omega0 * s, rel=1e-10)


class TestTrapezoidWeights:
    def test_weights_sum_to_span(self):
        grid = np.array([0.0, 0.5, 2.0, 3.0])
        w = trapezoid_weights(grid)
        assert w.sum() == pytest.approx(3.0, rel=1e-14)
        assert np.allclose(w, [0.25, 1.0, 1.25, 0.5])

    def test_rejects_bad_grids(self):
        with pytest.raises(GridError):
            trapezoid_weights(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(GridError):
            trapezoid_weights(np.array([1.0]))


class TestGaussianPulseSpectrum:
    # Oracle: for intensity FWHM tau the amplitude spectrum is a Gaussian
    # whose intensity distribution has zero mean and variance 2 ln 2 / tau**2.
    def test_discrete_normalization(self):
        grid = np.linspace(-1e7, 1e7, 2001)
        pulse = gaussian_pulse_spectrum(1e-6, grid)
        w = pulse.weights()
        assert np.sum(w * np.abs(pulse.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_moments_match_gaussian_oracle(self):
        tau = 1e-6
        grid = np.linspace(-1e7, 1e7, 2001)
        pulse = gaussian_pulse_spectrum(tau, grid)
        p = pulse.weights() * np.abs(pulse.amplitudes) ** 2
        mean = np.sum(p * grid)
        var = np.sum(p * grid**2)
        assert abs(mean) < 1e-6 * math.sqrt(var)
        assert var == pytest.approx(2.0 * math.log(2.0) / tau**2, rel=1e-9)

    def test_long_pulse_concentrates_at_zero_frequency(self):
        grid = np.linspace(-1e5, 1e5, 8001)
        pulse = gaussian_pulse_spectrum(1e-3, grid)
        p = pulse.weights() * np.abs(pulse.amplitudes) ** 2
        inside = np.abs(grid) < 5e3
        assert np.sum(p[inside]) > 0.999

    def test_rejects_bad_inputs(self):
        grid = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            gaussian_pulse_spectrum(0.0, grid)
        with pytest.raises(GridError):
            gaussian_pulse_spectrum(1.0, grid[::-1])

