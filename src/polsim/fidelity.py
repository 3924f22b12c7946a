"""Operational figures of merit for the photon router.

Everything here reduces to two ingredients computed elsewhere: the CW
scattering coefficients (transmission, reflection, loss) and the stored
excitation's mode weight after scattering.  The classical switch only needs
the target beam blocked, the quantum switch needs it coherently reflected,
and the transistor additionally needs the gate excitation to survive for
retrieval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core_model import (
    PhysicalConfig,
    PulseSpec,
    _check_grid,
    _check_values,
    _numbers,
    derive_scales,
    gaussian_pulse_spectrum,
)
from .errors import GridError
from .propagation import _magnitude, cw_analytic, cw_bulk_coefficients, solve_bvp
from .spinwave import evolve_cw, initial_sine_mode, retrieval_eta

__all__ = [
    "PI_PHASE_MIN_DB",
    "SwitchFidelities",
    "TimingEstimates",
    "FidelityReport",
    "switch_fidelities",
    "blockade_gate_baseline",
    "reflection_spectrum",
    "pulse_router_fidelity",
    "transistor_fidelity",
    "timing_estimates",
    "fidelity_report",
]

# below this depth-per-radius a pi phase shift is out of reach for the
# dispersive alternative, so its gate baseline is reported as masked
PI_PHASE_MIN_DB = 6.0


class SwitchFidelities(NamedTuple):
    classical: float
    quantum: float
    gate: float


class TimingEstimates(NamedTuple):
    tau_spread: float
    reconversion_efficiency: float


def switch_fidelities(d_b) -> SwitchFidelities:
    """Bulk-geometry switching fidelities at a given depth per radius.

    classical = 1 - |T1|**2 (beam blocked), quantum = gate = |R1|**2 (beam
    coherently rerouted).  The control phase rotates arg R1 only, so none
    of the three depends on it.  ``d_b``, as for ``cw_bulk_coefficients``, which
    gives T1 and R1, is >= 0, a scalar or an array; the fidelities match its
    shape, rounded as Python's ``abs(.) ** 2`` either way.
    """
    t, r, _ = cw_bulk_coefficients(d_b)
    quantum = _magnitude(r)[1]
    fidelities = (1.0 - _magnitude(t)[1], quantum, quantum)
    return SwitchFidelities._make(_numbers(fidelities, np.ndim(d_b) == 0))


def blockade_gate_baseline(d_b: float) -> float:
    """Phase-gate fidelity of the dispersive-shift alternative.

    exp(-5 pi / (4 d_b)) once the detuning is tuned for a pi shift; only
    meaningful at all for d_b above PI_PHASE_MIN_DB.
    """
    _check_values("d_b", d_b, "positive")
    return math.exp(-5.0 * math.pi / (4.0 * d_b))


def _masked_gate_baseline(d_b: float) -> float | None:
    """``blockade_gate_baseline(d_b)`` from PI_PHASE_MIN_DB up; None (masked) below."""
    return blockade_gate_baseline(d_b) if d_b >= PI_PHASE_MIN_DB else None


def reflection_spectrum(omega_grid: np.ndarray, config: PhysicalConfig) -> np.ndarray:
    """Gate-present reflection coefficient R1(omega) on a frequency grid.

    omega = 0 is evaluated through the closed CW form; finite detunings run
    the two-mode boundary-value solver with the gate at ``config.x_gate``.
    """
    omega_grid = _check_grid("omega_grid", omega_grid)
    out = np.empty(omega_grid.size, dtype=complex)
    for i, omega in enumerate(omega_grid):
        if omega == 0.0:
            out[i] = cw_analytic(config.x_gate, config).reflection
        else:
            out[i] = solve_bvp(float(omega), config.x_gate, config).reflection
    return out


def pulse_router_fidelity(pulse: PulseSpec, r1_spectrum: np.ndarray) -> float:
    """Routing fidelity of a finite-bandwidth pulse.

    Magnitude of the spectral overlap sum_i w_i R1(omega_i) |E0(omega_i)|**2
    with trapezoid weights w on the pulse grid; the unit-norm spectrum makes
    this the phase-coherent average of R1 over the pulse.
    """
    r1 = np.asarray(r1_spectrum, dtype=complex)
    if r1.shape != pulse.omega_grid.shape:
        raise GridError(
            f"reflection spectrum shape {r1.shape} does not match the "
            f"pulse grid shape {pulse.omega_grid.shape}"
        )
    w = pulse.weights()
    return float(abs(np.sum(w * r1 * np.abs(pulse.amplitudes) ** 2)))


def _config_at_db(d_b: float, config: PhysicalConfig) -> PhysicalConfig:
    # move the operating point by rescaling the collective coupling at fixed
    # interaction radius: d_b = z_b G**2 / (c gamma)
    scales = derive_scales(config)
    g_new = math.sqrt(d_b * config.c * config.gamma / scales.z_b)
    return replace(config, G=g_new)


def transistor_fidelity(d_b: float, config: PhysicalConfig) -> float:
    """Quantum-transistor fidelity: retrievable mode weight times |R1|**2.

    ``fidelity_report``'s ``f_transistor`` at the operating point where
    ``config``'s coupling strength is rescaled so the depth per radius
    equals ``d_b``; ``config`` fixes the geometry.  The stored excitation
    starts in the half-sine mode of the medium, scatters the CW target, and
    keeps eta of its weight in the best retrievable mode (dominant-eigenvalue
    estimate on 64 samples, 2.5e-8 off the 256-sample estimate at d_b = 5,
    L = 5 blockade radii).
    """
    _check_values("d_b", d_b, "positive")
    return fidelity_report(_config_at_db(d_b, config)).f_transistor


def timing_estimates(config: PhysicalConfig) -> TimingEstimates:
    """Reflection-time spread and mode-reconversion efficiency.

    tau = d (gamma/Omega**2 + gamma/OmegaS**2) bounds the gate-position
    dependence of the reflection delay; pulses much longer than tau avoid
    which-position entanglement.  Reconversion through an auxiliary medium
    of the same depth succeeds with d**2/(1+d)**2.
    """
    scales = derive_scales(config)
    tau = scales.d * (
        config.gamma / config.Omega**2 + config.gamma / config.OmegaS**2
    )
    reconversion = scales.d**2 / (1.0 + scales.d) ** 2
    return TimingEstimates(tau, reconversion)


@dataclass(frozen=True)
class FidelityReport:
    """Single operating point, ready for JSON serialization."""

    d_b: float
    f_classical_switch: float
    f_quantum_switch: float
    f_gate: float
    f_gate_blockade_baseline: float | None
    eta_retrieval_estimate: float
    f_transistor: float
    tau_spread: float
    reconversion_efficiency: float
    f_pulse: dict[float, float] = field(default_factory=dict)

    def __post_init__(self):
        values = [
            self.f_classical_switch, self.f_quantum_switch, self.f_gate,
            self.eta_retrieval_estimate, self.f_transistor,
            self.reconversion_efficiency, *self.f_pulse.values(), self.f_gate_blockade_baseline,
        ]
        for v in values:
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"fidelity {v!r} outside [0, 1]")


def fidelity_report(
    config: PhysicalConfig,
    durations: tuple[float, ...] = (),
    *,
    omega_grid: np.ndarray | None = None,
    n_samples: int = 64,
) -> FidelityReport:
    """Assemble every figure of merit at one operating point.

    When ``durations`` is nonempty, a shared reflection spectrum is computed
    on ``omega_grid`` (required in that case) and overlapped with a Gaussian
    pulse per duration.  The dispersive gate baseline is reported only at
    feasible depths (d_b >= PI_PHASE_MIN_DB), None otherwise.
    """
    d_b = derive_scales(config).d_b
    switches = switch_fidelities(d_b)
    baseline = _masked_gate_baseline(d_b)

    # the half-sine stored mode after CW scattering, in its best retrievable mode
    eta = retrieval_eta(evolve_cw(initial_sine_mode(config.L, n_samples), config))

    pulse_f: dict[float, float] = {}
    if durations:
        if omega_grid is None:
            raise GridError("omega_grid is required when durations are given")
        r1 = reflection_spectrum(omega_grid, config)
        for duration in durations:
            pulse = gaussian_pulse_spectrum(duration, omega_grid)
            pulse_f[duration] = pulse_router_fidelity(pulse, r1)

    timing = timing_estimates(config)
    return FidelityReport(
        d_b=d_b,
        f_classical_switch=switches.classical,
        f_quantum_switch=switches.quantum,
        f_gate=switches.gate,
        f_gate_blockade_baseline=baseline,
        eta_retrieval_estimate=eta,
        f_transistor=eta * switches.quantum,
        tau_spread=timing.tau_spread,
        reconversion_efficiency=timing.reconversion_efficiency,
        f_pulse=pulse_f,
    )
