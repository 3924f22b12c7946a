"""Coherent polariton switching in an interacting stationary-light medium.

Simulation library for a single stored excitation acting as a mirror for a
propagating probe photon: polariton band structures, two-mode scattering
spectra, stored-excitation decoherence, and operational fidelities, plus a
batch CLI that writes CSV/JSON artifacts.
"""

from .core_model import (
    DerivedScales,
    PhysicalConfig,
    PulseSpec,
    derive_scales,
    gaussian_pulse_spectrum,
    trapezoid_weights,
)
from .errors import (
    FitWindowError,
    FitWindowWarning,
    GridError,
    IllConditionedError,
    PolsimError,
    PositivityWarning,
    QuadratureError,
    SchemaError,
    SingularFrequencyError,
    SusceptibilityPoleError,
)
from .fidelity import (
    PI_PHASE_MIN_DB,
    FidelityReport,
    SwitchFidelities,
    TimingEstimates,
    blockade_gate_baseline,
    fidelity_report,
    pulse_router_fidelity,
    reflection_spectrum,
    switch_fidelities,
    timing_estimates,
    transistor_fidelity,
)
from .polariton_spectrum import (
    REGIMES,
    DispersionFit,
    PolaritonBranch,
    build_bloch_matrix,
    composition,
    dark_polariton_vectors,
    default_k_grid,
    fit_dispersion,
    spectrum,
)
from .propagation import (
    ScatterResult,
    T0Spectrum,
    TwoModeField,
    WidthFit,
    cw_analytic,
    cw_bulk_coefficients,
    fitted_transparency_width,
    propagation_matrix,
    solve_bvp,
    t0_spectrum,
    transparency_width_study,
)
from .spinwave import (
    SpinWaveDensityMatrix,
    blockade_loss_baseline,
    coherence_factor,
    evolve_cw,
    initial_sine_mode,
    retrieval_eta,
)
from .susceptibility import (
    NU_INFINITY,
    free_susceptibilities,
    nu,
    susceptibilities,
    xi,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core model
    "PhysicalConfig", "DerivedScales", "PulseSpec", "derive_scales",
    "gaussian_pulse_spectrum", "trapezoid_weights",
    # susceptibility
    "susceptibilities", "free_susceptibilities", "xi", "nu", "NU_INFINITY",
    # polariton spectrum
    "REGIMES", "PolaritonBranch", "DispersionFit",
    "build_bloch_matrix", "dark_polariton_vectors", "default_k_grid",
    "spectrum", "composition", "fit_dispersion",
    # propagation
    "TwoModeField", "ScatterResult", "T0Spectrum", "WidthFit",
    "propagation_matrix", "solve_bvp", "cw_analytic", "cw_bulk_coefficients",
    "t0_spectrum", "fitted_transparency_width", "transparency_width_study",
    # spinwave
    "SpinWaveDensityMatrix", "initial_sine_mode", "coherence_factor",
    "evolve_cw", "blockade_loss_baseline", "retrieval_eta",
    # fidelity
    "PI_PHASE_MIN_DB", "SwitchFidelities", "TimingEstimates", "FidelityReport",
    "switch_fidelities", "blockade_gate_baseline", "reflection_spectrum",
    "pulse_router_fidelity", "transistor_fidelity", "timing_estimates",
    "fidelity_report",
    # errors
    "PolsimError", "SingularFrequencyError", "SusceptibilityPoleError",
    "QuadratureError", "IllConditionedError", "FitWindowError", "GridError",
    "SchemaError",
    "FitWindowWarning", "PositivityWarning",
]
