"""Frequency-domain susceptibilities of the gated two-mode medium.

The coupled right/left-moving probe amplitudes obey
``1j * d/dz E = M(z - x, omega) E`` with a 2x2 matrix built from three
susceptibilities: ``chi_r`` (forward), ``chi_l`` (backward) and ``chi_c``
(cross coupling).  All three share the denominator of the atomic response,
which contains the gate's van der Waals shift ``V(dz)`` through the detuned
second control leg.

Two conventions hold throughout the package:

* returned susceptibilities are rescaled by the blockade radius ``z_b``,
  so integrating them over ``z`` measured in units of ``z_b`` gives the
  dimensionless accumulated phase/absorption;
* ``omega = 0`` is served by the dedicated continuous-wave kernel
  ``chi0_cw`` (a single complex Lorentzian of the scaled separation), never
  by the finite-frequency formulas, which are singular there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import DerivedScales, PhysicalConfig, derive_scales
from .errors import SingularFrequencyError, SusceptibilityPoleError

__all__ = [
    "SusceptibilityTriple",
    "xi",
    "susceptibilities",
    "free_susceptibilities",
    "chi0_cw",
    "nu",
    "NU_INFINITY",
]

# Above this multiple of the local rate scale the van der Waals shift is
# treated as infinite (fully blockaded leg); keeps float overflow out of the
# formulas without changing results at double precision.
_V_HUGE_FACTOR = 1e18

# Relative floor for the shared denominator before declaring a pole.
_POLE_REL_TOL = 1e-13


@dataclass(frozen=True)
class SusceptibilityTriple:
    """The three rescaled susceptibilities at one (dz, omega) point."""

    chi_r: complex
    chi_l: complex
    chi_c: complex


def xi(omega, config: PhysicalConfig):
    """Single-pole response ``omega + 1j*gamma - Omega**2 / omega``.

    ``omega`` may be a scalar or an array.  Diverges as omega -> 0: resonant
    probe light is pushed into the dark state and the perturbative inversion
    of the atomic response fails, which is why the CW limit has its own
    closed form.
    """
    if np.any(np.equal(omega, 0.0)):
        raise SingularFrequencyError("xi is singular at omega = 0; use the CW path")
    return omega + 1j * config.gamma - config.Omega**2 / omega


def _chi_arrays(V, omega, config, scales):
    """Vectorized rescaled susceptibility triple.

    ``V`` (van der Waals shifts, which may contain ``inf`` at fully
    blockaded points) and ``omega`` are scalars or arrays that broadcast.
    The formulas are multiplied through by ``omega - V`` so that the
    crossing ``V == omega`` (where the bare detuned-leg term has a pole that
    cancels) stays finite.
    """
    if np.any(np.equal(omega, 0.0)):
        raise SingularFrequencyError(
            "finite-frequency susceptibilities are singular at omega = 0; "
            "use chi0_cw for the CW limit"
        )
    V = np.asarray(V, dtype=float)
    x = xi(omega, config)
    om2 = config.Omega**2
    om4_w2 = om2**2 / omega**2
    g2_c = config.G**2 / config.c

    huge = ~np.isfinite(V) | (V > _V_HUGE_FACTOR * np.maximum(np.abs(omega), config.gamma))
    w = np.where(huge, 0.0, omega - V)

    def first(mask, values):
        return np.broadcast_to(values, mask.shape).flat[int(np.argmax(mask))].item()

    # Denominator and numerators of the w-scaled form; on fully blockaded
    # points this reduces to w = 0 only accidentally, so they get the exact
    # V -> inf limit afterwards.
    num_r = x * w - config.OmegaS**2
    denom = x * num_r - w * om4_w2
    scale = np.abs(x) * (np.abs(x * w) + config.OmegaS**2) + np.abs(w) * om4_w2
    pole = (np.abs(denom) <= _POLE_REL_TOL * scale) & ~huge
    if np.any(pole):
        V_at, omega_at = first(pole, V), first(pole, omega)
        raise SusceptibilityPoleError(dz=None, omega=omega_at,
                                      message=f"susceptibility pole at V={V_at!r}, "
                                              f"omega={omega_at!r}")

    with np.errstate(invalid="ignore", divide="ignore"):
        chi_r = -omega / config.c + g2_c * num_r / denom
        chi_l = omega / config.c - g2_c * x * w / denom
        chi_c = g2_c * (om2 / omega) * w / denom

    if np.any(huge):
        # V -> inf: the detuned leg is frozen out and the medium responds as
        # a plain two-photon ladder.
        d0 = x * x - om4_w2
        pole = huge & (np.abs(d0) <= _POLE_REL_TOL * (np.abs(x) ** 2 + om4_w2))
        if np.any(pole):
            raise SusceptibilityPoleError(dz=0.0, omega=first(pole, omega))
        chi_r = np.where(huge, -omega / config.c + g2_c * x / d0, chi_r)
        chi_l = np.where(huge, omega / config.c - g2_c * x / d0, chi_l)
        chi_c = np.where(huge, g2_c * (om2 / omega) / d0, chi_c)

    z_b = scales.z_b
    return z_b * chi_r, z_b * chi_l, z_b * chi_c


def _sixth_power(u):
    """``u**6`` by three multiplications, about 20x cheaper than numpy's pow.

    Three roundings: at most 2.5 eps relative from the exact power wherever
    the result is a normal float.
    """
    u2 = u * u
    return u2 * u2 * u2


def _vdw_or_inf(dz, config):
    """C6/dz**6 with the dz = 0 point mapped to +inf instead of raising."""
    dz = np.asarray(dz, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        sep6 = _sixth_power(dz)
        V = np.where(sep6 > 0.0, config.C6 / np.where(sep6 > 0.0, sep6, 1.0), np.inf)
    return V


def susceptibilities(
    dz: float,
    omega: float,
    config: PhysicalConfig,
    scales: DerivedScales | None = None,
) -> SusceptibilityTriple:
    """Rescaled (chi_r, chi_l, chi_c) at separation ``dz`` from the gate.

    ``dz`` may be a scalar or array of real separations, including 0 (taken
    as the fully blockaded limit of the potential); the triple components
    match its shape.  ``omega`` must be nonzero; the CW response is
    ``chi0_cw``.

    Raises
    ------
    SusceptibilityPoleError
        If the shared denominator vanishes at this (dz, omega).
    """
    if scales is None:
        scales = derive_scales(config, allow_oversized_blockade=True)
    V = _vdw_or_inf(dz, config)
    try:
        chi_r, chi_l, chi_c = _chi_arrays(V, omega, config, scales)
    except SusceptibilityPoleError as err:
        err.dz = dz
        raise
    if np.ndim(dz) == 0:
        return SusceptibilityTriple(complex(chi_r), complex(chi_l), complex(chi_c))
    return SusceptibilityTriple(chi_r, chi_l, chi_c)


def free_susceptibilities(
    omega,
    config: PhysicalConfig,
    scales: DerivedScales | None = None,
) -> SusceptibilityTriple:
    """Susceptibilities of the gate-free medium (V identically zero).

    ``omega`` may be a scalar or an array of nonzero frequencies; the triple
    components match its shape.
    """
    if scales is None:
        scales = derive_scales(config, allow_oversized_blockade=True)
    chi_r, chi_l, chi_c = _chi_arrays(0.0, omega, config, scales)
    if np.ndim(omega) == 0:
        return SusceptibilityTriple(complex(chi_r), complex(chi_l), complex(chi_c))
    return SusceptibilityTriple(chi_r, chi_l, chi_c)


def chi0_cw(dz, scales: DerivedScales):
    """CW kernel ``d_b / ((dz/z_b)**6 + 2j)``; accepts scalars or arrays.

    This is the rescaled forward susceptibility of a resonant probe, and
    simultaneously ``-chi_l`` and ``-chi_c``: on resonance the three collapse
    onto a single function of the scaled separation.  At the gate point it
    equals ``-1j * d_b / 2``.
    """
    u = np.asarray(dz, dtype=float) / scales.z_b
    out = scales.d_b / (_sixth_power(u) + 2j)
    if np.ndim(dz) == 0:
        return complex(out)
    return out


# The six roots r of r**6 = -2j and the partial-fraction weights of the CW
# kernel 1/(u**6 + 2j), 1/(6 r**5) = r/(6 r**6) = 1j r / 12.
_KERNEL_ROOTS = 2.0 ** (1.0 / 6.0) * np.exp(1j * np.pi * (4 * np.arange(6) - 1) / 12.0)
_KERNEL_WEIGHTS = 1j * _KERNEL_ROOTS / 12.0


def nu(z, x, scales: DerivedScales):
    """Accumulated CW response ``1j * integral_0^z chi0(z' - x) dz'``.

    ``z`` and ``x`` are physical lengths, scalars or arrays that broadcast.
    The integral is exact: in blockade-radius units the kernel is
    ``d_b / (u**6 + 2j)`` over ``u`` from ``a = -x / z_b`` to
    ``b = (z - x) / z_b``, and its partial fractions over the six roots r of
    ``r**6 = -2j`` integrate to ``sum [log(b - r) - log(a - r)] / (6 r**5)``.
    No root is real, so each principal log is continuous along the real
    axis.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError(f"z must be nonnegative, got {z!r}")
    lo = -np.asarray(x, dtype=float)[..., None] / scales.z_b
    hi = z_arr[..., None] / scales.z_b + lo
    logs = np.log(hi - _KERNEL_ROOTS) - np.log(lo - _KERNEL_ROOTS)
    val = 1j * scales.d_b * np.sum(_KERNEL_WEIGHTS * logs, axis=-1)
    if np.ndim(val) == 0:
        return complex(val)
    return val


NU_INFINITY = (math.pi / 3.0) * (1.0 + 1.0j) ** (1.0 / 3.0)
"""Bulk constant ``pi/3 * (1+1j)**(1/3)`` (principal branch).

Equals the infinite-medium limit of ``nu(L, x) / d_b`` when the gate sits
many blockade radii from both boundaries; approximately 1.1354 + 0.3042j.
"""
