"""Tests for the application figures of merit.

The switch numbers are pinned against the frozen CW coefficient table, the
pulse overlap against an independently computed constant-spectrum identity
and the closed CW reflection, and the timing estimates against hand
arithmetic on the published operating point.
"""

import numpy as np
import pytest

from polsim.core_model import PhysicalConfig, derive_scales, gaussian_pulse_spectrum
from polsim.errors import GridError
from polsim.fidelity import (
    PI_PHASE_MIN_DB,
    FidelityReport,
    blockade_gate_baseline,
    fidelity_report,
    pulse_router_fidelity,
    reflection_spectrum,
    switch_fidelities,
    timing_estimates,
    transistor_fidelity,
)
from polsim.propagation import cw_bulk_coefficients


def physical_config():
    """Realistic operating point: d = 25, d_b = 5, MHz-scale couplings."""
    twopi = 2.0 * np.pi
    gamma = twopi * 3.05e6
    omega = twopi * 5e6
    omega_s = twopi * 20e6
    c = 3e8
    c6 = 3.573e-22
    z_b = (c6 * gamma / omega_s**2) ** (1.0 / 6.0)
    l_abs = z_b / 5.0
    g = np.sqrt(c * gamma / l_abs)
    length = 25.0 * l_abs
    return PhysicalConfig(G=g, Omega=omega, OmegaS=omega_s, gamma=gamma,
                          phi=0.0, c=c, C6=c6, L=length, x_gate=length / 2.0)


@pytest.fixture(scope="module")
def shared_r1():
    cfg = physical_config()
    grid = np.linspace(-2.5e7, 2.5e7, 201)
    return cfg, grid, reflection_spectrum(grid, cfg)


class TestSwitchFidelities:
    def test_frozen_operating_point(self):
        f = switch_fidelities(5.0)
        assert f.classical == pytest.approx(0.978676, abs=1e-6)
        assert f.quantum == pytest.approx(0.736565, abs=1e-6)
        assert f.gate == f.quantum

    def test_zero_depth(self):
        assert switch_fidelities(0.0) == (0.0, 0.0, 0.0)

    def test_array_matches_scalar_calls_bit_for_bit(self):
        d_b = np.r_[0.0, np.geomspace(1e-3, 1e3, 61), 5.0, 6.0]
        arrays = switch_fidelities(d_b)
        assert all(a.shape == d_b.shape for a in arrays)
        scalars = np.array([switch_fidelities(v) for v in d_b.tolist()]).T
        for a, s in zip(arrays, scalars):
            assert a.tobytes() == s.tobytes()
        assert [a[0] for a in arrays] == [0.0, 0.0, 0.0]
        assert all(type(f) is float for f in switch_fidelities(5.0))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            switch_fidelities(-1.0)

    def test_phase_independence(self):
        # the control phase rotates arg R1 only: |t|, |r| and A do not move
        for d_b in (0.7, 5.0, 12.0):
            t_a, r_a, loss_a = cw_bulk_coefficients(d_b, 0.0)
            t_b, r_b, loss_b = cw_bulk_coefficients(d_b, 2.1)
            assert abs(t_a) == pytest.approx(abs(t_b), rel=1e-14)
            assert abs(r_a) == pytest.approx(abs(r_b), rel=1e-14)
            assert loss_a == pytest.approx(loss_b, rel=1e-14)

    def test_loss_identity(self):
        # blocked minus rerouted power is exactly the scattered power
        for d_b in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            f = switch_fidelities(d_b)
            loss = cw_bulk_coefficients(d_b)[2]
            assert f.classical - f.quantum == pytest.approx(loss, abs=1e-12)
            assert 0.0 <= f.quantum <= f.classical <= 1.0


class TestBlockadeGateBaseline:
    def test_frozen_value(self):
        assert blockade_gate_baseline(5.0) == pytest.approx(
            0.45593812776599624, rel=1e-12
        )

    def test_limits_and_validation(self):
        assert blockade_gate_baseline(1e12) == pytest.approx(1.0, abs=1e-11)
        with pytest.raises(ValueError):
            blockade_gate_baseline(0.0)
        assert PI_PHASE_MIN_DB == 6.0

    def test_router_beats_baseline_at_moderate_depth(self):
        for d_b in np.linspace(1.0, 10.0, 19):
            gain = switch_fidelities(float(d_b)).gate - blockade_gate_baseline(float(d_b))
            assert gain > 0.0


class TestPulseRouterFidelity:
    def test_constant_spectrum_identity(self):
        grid = np.linspace(-1e7, 1e7, 101)
        pulse = gaussian_pulse_spectrum(1e-6, grid)
        r1 = np.full(grid.shape, 0.3 + 0.4j)
        assert pulse_router_fidelity(pulse, r1) == pytest.approx(0.5, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        grid = np.linspace(-1e7, 1e7, 101)
        pulse = gaussian_pulse_spectrum(1e-6, grid)
        with pytest.raises(GridError):
            pulse_router_fidelity(pulse, np.ones(100, dtype=complex))

    def test_duration_sweep_on_physical_point(self, shared_r1):
        cfg, grid, r1 = shared_r1
        expected = {
            0.25e-6: 0.535353,
            0.5e-6: 0.731319,
            1e-6: 0.819314,
            2e-6: 0.847746,
            4e-6: 0.855421,
        }
        values = []
        for duration, want in expected.items():
            pulse = gaussian_pulse_spectrum(duration, grid)
            f = pulse_router_fidelity(pulse, r1)
            values.append(f)
            assert f == pytest.approx(want, abs=5e-4)
        assert all(b >= a for a, b in zip(values, values[1:]))
        ideal = abs(r1[grid.size // 2])
        assert ideal == pytest.approx(0.858029, abs=1e-4)
        assert abs(values[-1] - ideal) / ideal < 0.03

    def test_spectrum_validation(self):
        with pytest.raises(GridError):
            reflection_spectrum(np.array([]), physical_config())


class TestTransistorFidelity:
    def test_monotone_in_depth(self):
        geo = PhysicalConfig(G=1.0, Omega=1.0, OmegaS=1.0, gamma=1.0, phi=0.0,
                             c=1.0, C6=1.0, L=5.0, x_gate=2.5)
        f5 = transistor_fidelity(5.0, geo)
        f10 = transistor_fidelity(10.0, geo)
        assert f5 == pytest.approx(0.660559, abs=1e-3)
        assert f10 == pytest.approx(0.801883, abs=1e-3)
        assert f10 > f5

    def test_validation(self):
        geo = PhysicalConfig(G=1.0, Omega=1.0, OmegaS=1.0, gamma=1.0, phi=0.0,
                             c=1.0, C6=1.0, L=5.0, x_gate=2.5)
        with pytest.raises(ValueError):
            transistor_fidelity(0.0, geo)


class TestTimingEstimates:
    def test_physical_operating_point(self):
        timing = timing_estimates(physical_config())
        assert timing.tau_spread == pytest.approx(5.157615e-7, rel=1e-6)
        assert timing.reconversion_efficiency == pytest.approx(625.0 / 676.0, rel=1e-12)

    def test_deep_medium_reconversion_limit(self):
        cfg = PhysicalConfig(G=1.0, Omega=1.0, OmegaS=1.0, gamma=1.0, phi=0.0,
                             c=1.0, C6=1.0, L=1e6, x_gate=5e5)
        timing = timing_estimates(cfg)
        assert timing.reconversion_efficiency > 0.99999
        assert timing.reconversion_efficiency < 1.0


class TestFidelityReport:
    def test_masked_baseline_below_feasibility(self):
        geo = PhysicalConfig(G=np.sqrt(5.0), Omega=1.0, OmegaS=1.0, gamma=1.0,
                             phi=0.0, c=1.0, C6=1.0, L=5.0, x_gate=2.5)
        report = fidelity_report(geo)
        assert report.d_b == pytest.approx(5.0, rel=1e-12)
        assert report.f_gate_blockade_baseline is None
        assert report.f_transistor == pytest.approx(
            report.eta_retrieval_estimate * report.f_quantum_switch, rel=1e-12
        )
        assert report.f_pulse == {}

    def test_baseline_present_at_feasible_depth(self):
        geo = PhysicalConfig(G=np.sqrt(6.5), Omega=1.0, OmegaS=1.0, gamma=1.0,
                             phi=0.0, c=1.0, C6=1.0, L=5.0, x_gate=2.5)
        report = fidelity_report(geo)
        assert report.f_gate_blockade_baseline == pytest.approx(
            blockade_gate_baseline(6.5), rel=1e-12
        )

    def test_out_of_range_fidelity_rejected(self):
        with pytest.raises(ValueError):
            FidelityReport(
                d_b=5.0, f_classical_switch=0.9, f_quantum_switch=0.7,
                f_gate=1.2, f_gate_blockade_baseline=None,
                eta_retrieval_estimate=0.9, f_transistor=0.6,
                tau_spread=1e-7, reconversion_efficiency=0.9,
            )

    def test_one_eigensolve(self, monkeypatch):
        # the PSD check of evolve_cw and retrieval_eta share the evolved
        # state's cached spectrum
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        geo = PhysicalConfig(G=np.sqrt(5.0), Omega=1.0, OmegaS=1.0, gamma=1.0,
                             phi=0.0, c=1.0, C6=1.0, L=5.0, x_gate=2.5)
        fidelity_report(geo)
        assert calls == [(64, 64)]

    def test_durations_require_grid(self):
        geo = PhysicalConfig(G=np.sqrt(5.0), Omega=1.0, OmegaS=1.0, gamma=1.0,
                             phi=0.0, c=1.0, C6=1.0, L=5.0, x_gate=2.5)
        with pytest.raises(GridError):
            fidelity_report(geo, durations=(1e-6,))
