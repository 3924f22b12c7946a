"""Physical configuration and derived scales for the switching medium.

A single stationary Rydberg excitation (the gate) sits at position ``x_gate``
inside a one-dimensional atomic medium of length ``L``.  Probe photons are
coupled to two counterpropagating quantum fields by classical control beams
with Rabi frequencies ``Omega`` (both directions) and ``OmegaS`` (the second
Rydberg leg), with collective atom-photon coupling ``G`` and polarization
decay half-width ``gamma`` (the scattering rate off the intermediate state is
``2 * gamma``).  The gate excitation shifts the second Rydberg level of nearby
atoms through a van der Waals potential ``C6 / dz**6``.

All quantities are plain floats in any consistent unit system; the command
line layer uses SI (rad/s for rates, meters for lengths).  Internally the
numerical modules rescale lengths by the blockade radius ``z_b`` and rates by
``gamma``.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = [
    "PhysicalConfig",
    "DerivedScales",
    "PulseSpec",
    "derive_scales",
    "gaussian_pulse_spectrum",
    "trapezoid_weights",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConfig:
    """Static parameters of medium, control fields and gate.

    Parameters
    ----------
    G:
        Collective atom-photon coupling (rate units).
    Omega:
        Control Rabi frequency driving both propagation directions.
    OmegaS:
        Control Rabi frequency of the second (gate-sensitive) Rydberg leg.
    gamma:
        Polarization decay half-width; photons are scattered at rate
        ``2 * gamma``.
    phi:
        Relative phase between the two control beams, stored modulo 2*pi.
        Physical transmission and loss do not depend on it; the reflected
        amplitude picks up ``exp(-1j * phi)``.
    c:
        Speed of light in the chosen units.
    C6:
        Van der Waals coefficient of the gate-probe Rydberg interaction.
    L:
        Medium length.
    x_gate:
        Gate position, ``0 <= x_gate <= L``.
    """

    G: float
    Omega: float
    OmegaS: float
    gamma: float
    phi: float
    c: float
    C6: float
    L: float
    x_gate: float

    def __post_init__(self):
        for name in ("G", "Omega", "OmegaS", "gamma", "c", "C6", "L"):
            _check_values(name, getattr(self, name), "positive")
        _check_values("phi", self.phi)
        _check_in_medium("x_gate", self.x_gate, self.L)
        # Normalize the control phase; it only ever appears as exp(+-1j*phi).
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


@dataclass(frozen=True)
class DerivedScales:
    """Characteristic scales computed once per configuration.

    Attributes
    ----------
    z_b:
        Blockade radius: separation at which the van der Waals shift equals
        the decoherence-broadened control linewidth ``OmegaS**2 / gamma``.
    l_abs:
        Resonant absorption length ``c * gamma / G**2`` of the bare medium.
    d_b:
        Optical depth per blockade radius, ``z_b / l_abs``.
    d:
        Half the total optical depth of the medium, ``L / l_abs`` (the full
        depth seen by a resonant photon with controls off is ``2 * d``).
    gamma_eit:
        Transparency-window rate ``Omega**2 / (gamma * sqrt(d))`` of the
        equivalent single-leg slow-light medium.
    delta_omega0:
        Transparency width of the full two-mode medium; never exceeds
        ``gamma_eit``.
    """

    z_b: float
    l_abs: float
    d_b: float
    d: float
    gamma_eit: float
    delta_omega0: float


def derive_scales(config: PhysicalConfig) -> DerivedScales:
    """Compute the derived scales of a configuration.

    A blockade radius longer than the medium (``z_b > L``) is returned as
    is: every solver computes such a medium, and the command line records
    the condition as a warning in the run manifest.

    Raises ValueError when the config's values, each finite and positive,
    are so extreme that a scale overflows, underflows to zero or divides by
    zero in floating point: every scale must come out positive and finite.
    """
    try:
        z_b = (config.C6 * config.gamma / config.OmegaS**2) ** (1.0 / 6.0)
        l_abs = config.c * config.gamma / config.G**2
        d_b = z_b / l_abs
        d = config.L / l_abs
        gamma_eit = config.Omega**2 / (config.gamma * math.sqrt(d))
        r2 = (config.Omega / config.OmegaS) ** 2
        bracket = (1.0 + 2.0 * r2 + 2.0 * r2**2) + 0.5 * d * r2**2
        delta_omega0 = gamma_eit / math.sqrt(bracket)
    except ArithmeticError as exc:  # OverflowError of **, ZeroDivisionError
        raise ValueError(
            f"derived scales cannot be computed in floating point ({type(exc).__name__})"
        ) from exc
    scales = DerivedScales(
        z_b=z_b,
        l_abs=l_abs,
        d_b=d_b,
        d=d,
        gamma_eit=gamma_eit,
        delta_omega0=delta_omega0,
    )
    bad = [f"{k}={v!r}" for k, v in vars(scales).items() if not 0.0 < v < math.inf]
    if bad:
        raise ValueError(f"derived scales must be positive and finite, got {', '.join(bad)}")
    return scales


@dataclass(frozen=True)
class PulseSpec:
    """Discretized single-photon amplitude spectrum.

    ``amplitudes[i]`` is the amplitude density at ``omega_grid[i]``; the
    discrete norm ``sum_i w_i |amplitudes[i]|**2`` equals one with trapezoid
    weights ``w``.
    """

    omega_grid: np.ndarray
    amplitudes: np.ndarray

    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.omega_grid)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a finite, strictly increasing 1-d grid."""
    grid = _check_grid("grid", grid, min_size=2, increasing=True)
    dx = np.diff(grid)
    w = np.zeros_like(grid)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def gaussian_pulse_spectrum(duration: float, omega_grid: np.ndarray) -> PulseSpec:
    """Spectrum of a transform-limited Gaussian probe pulse.

    ``duration`` is the full width at half maximum of the temporal intensity
    profile, the number quoted by pulse generators.  The amplitude spectrum is
    the real Gaussian ``exp(-omega**2 * duration**2 / (8 ln 2))``, normalized
    so that ``sum w_i |E0(omega_i)|**2 = 1`` on the supplied grid.

    The grid should be symmetric about zero and wide enough to hold the
    spectral support; truncation silently reduces accuracy of downstream
    overlap integrals, so tests pin the discrete moments instead.
    """
    _check_values("duration", duration, "positive")
    omega_grid = _check_grid("omega_grid", omega_grid, min_size=2, increasing=True)
    w = trapezoid_weights(omega_grid)
    amp = np.exp(-(omega_grid**2) * duration**2 / (8.0 * math.log(2.0)))
    norm = np.sum(w * amp**2)
    if norm <= 0.0:
        raise GridError("pulse spectrum vanishes on the supplied grid")
    amp = amp / math.sqrt(norm)
    return PulseSpec(omega_grid=omega_grid, amplitudes=amp)


# the sign rules of ``_check_values``, each true where an entry obeys it
_SIGNS = {"": lambda v: True, "positive": lambda v: v > 0.0, "nonnegative": lambda v: v >= 0.0}


def _check_values(name: str, value, sign: str = "", error=ValueError, array=False) -> None:
    """Raise ``error`` unless ``value``, a real number (or, where ``array``, an
    array of them), is finite and obeys ``sign``.

    ``sign`` is "", "positive" or "nonnegative".  A valid Python float takes
    ``math.isfinite`` and one comparison, no numpy.
    """
    if isinstance(value, float) and math.isfinite(value) and _SIGNS[sign](value):
        return
    value = _real_array(name, value, error, array)
    ok = np.isfinite(value) & _SIGNS[sign](value)
    _refuse(name, f"{sign} and finite" if sign else "finite", value, ok, error)


def _check_in_medium(name: str, value, length: float, error=ValueError, array=False) -> None:
    """Raise ``error`` naming the first entry of ``value`` outside the medium [0, ``length``].

    nan lies outside.  A valid Python float takes two comparisons, no numpy.
    """
    if isinstance(value, float) and 0.0 <= value <= length:
        return
    value = _real_array(name, value, error, array)
    ok = (value >= 0.0) & (value <= length)
    _refuse(name, f"in the medium [0, {float(length)!r}]", value, ok, error)


def _real_array(name: str, value, error, array: bool) -> np.ndarray:
    """``value`` as a float array of real numbers, 0-d unless ``array``, or raise ``error``.

    A Python integer beyond the float range becomes an infinity of its sign.
    """
    if isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    values = np.asarray(value)
    if values.dtype.kind not in "biuf":
        raise error(f"{name} must be real, got {reprlib.repr(value)}")
    if values.ndim and not array:
        raise error(f"{name} must be one number, got an array of shape {values.shape}")
    return values.astype(float, copy=False)


def _numbers(values: tuple, scalar: bool) -> tuple:
    """``values``, or where ``scalar`` each array's one element as a Python number of its bits."""
    return tuple(np.ravel(v)[0].item() for v in values) if scalar else values


def _check_grid(name: str, grid, min_size: int = 1, increasing: bool = False) -> np.ndarray:
    """``grid`` as a float array, checked to be 1-d with ``min_size`` or more points.

    Raises GridError unless every point is finite and, where ``increasing``,
    above the one before.
    """
    grid = _real_array(name, grid, GridError, array=True)
    if grid.ndim != 1 or grid.size < min_size:
        rule = f"one-dimensional with {min_size} or more points, got shape {grid.shape}"
        raise GridError(f"{name} must be {rule}")
    _check_values(name, grid, error=GridError, array=True)
    if increasing:
        _refuse(name, "strictly increasing", grid, np.r_[True, np.diff(grid) > 0.0], GridError)
    return grid


def _refuse(name: str, rule: str, values: np.ndarray, ok: np.ndarray, error) -> None:
    """Raise ``error`` naming ``rule`` and the first entry of ``values`` where ``ok`` fails."""
    if not ok.all():
        at = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        index = f" at index {at[0] if len(at) == 1 else at}" if at else ""
        raise error(f"{name} must be {rule}, got {float(values[at])!r}{index}")
