"""Frequency-domain susceptibilities of the gated two-mode medium.

The coupled right/left-moving probe amplitudes obey
``1j * d/dz E = M(z - x, omega) E`` with a 2x2 matrix built from three
susceptibilities: ``chi_r`` (forward), ``chi_l`` (backward) and ``chi_c``
(cross coupling).  All three share the denominator of the atomic response,
which contains the gate's van der Waals shift ``V(dz)`` through the detuned
second control leg.  One formula, scaled by ``1 / (V + |omega| + gamma)``,
covers every shift from the gate point (``V = inf``, the leg blockaded) to
the free medium (``V = 0``).

Two conventions hold throughout the package:

* returned susceptibilities are rescaled by the blockade radius ``z_b``,
  so integrating them over ``z`` measured in units of ``z_b`` gives the
  dimensionless accumulated phase/absorption;
* the finite-frequency formulas are singular at ``omega = 0`` and raise
  ``SingularFrequencyError`` there; zero-frequency scattering is the closed
  form ``propagation.cw_analytic``, built from ``nu``, the integral of the
  continuous-wave kernel (a single complex Lorentzian of the scaled
  separation's sixth power).
"""

from __future__ import annotations

import math

import numpy as np

from .core_model import DerivedScales, PhysicalConfig, _check_values, _numbers, derive_scales
from .errors import SingularFrequencyError, SusceptibilityPoleError

__all__ = [
    "xi",
    "susceptibilities",
    "free_susceptibilities",
    "nu",
    "NU_INFINITY",
]

# Relative floor for the shared denominator before declaring a pole.
_POLE_REL_TOL = 1e-13


def xi(omega, config: PhysicalConfig):
    """Single-pole response ``omega + 1j*gamma - Omega**2 / omega``.

    ``omega`` may be a scalar or an array.  Diverges as omega -> 0: resonant
    probe light is pushed into the dark state and the perturbative inversion
    of the atomic response fails, which is why the CW limit has its own
    closed form.
    """
    if np.equal(omega, 0.0).any():
        raise SingularFrequencyError(
            "the finite-frequency response is singular at omega = 0; "
            "use cw_analytic for the CW limit"
        )
    return omega + 1j * config.gamma - config.Omega**2 / omega


def _chi_arrays(dz, omega, config, scales):
    """Vectorized rescaled susceptibility triple.

    ``dz`` (separations from the gate; 0 is the gate point, ``inf`` the
    gate-free medium) and ``omega`` are scalars or arrays that broadcast.
    One formula serves every van der Waals shift ``V`` in ``[0, inf]``:
    numerators and denominator are multiplied through by ``p * (omega - V)``
    with ``p = 1 / (V + a)`` and ``a = |omega| + gamma``.  The scaled
    detuning ``w = p * (omega - V)`` stays in ``[-1, 1]``; it is ``-1`` (and
    ``p = 0``) at the gate, where the detuned leg is frozen out and the
    medium is a plain two-photon ladder, ``omega / a`` in the free medium,
    and 0 at the crossing ``V == omega``, where the bare detuned-leg term
    has a pole that cancels.  The pole check is the unscaled one with both
    sides multiplied by ``p``.
    """
    x = xi(omega, config)
    om2 = config.Omega**2
    om4_w2 = om2**2 / omega**2
    g2_c = config.G**2 / config.c

    V = _vdw_or_inf(dz, config)
    a = np.abs(omega) + config.gamma
    p = 1.0 / (V + a)
    with np.errstate(divide="ignore"):
        w = omega * p - 1.0 / (1.0 + a / V)
    s2 = config.OmegaS**2 * p
    x_w = x * w
    num_r = x_w - s2
    denom = x * num_r - w * om4_w2
    scale = np.abs(x) * (np.abs(x_w) + s2) + np.abs(w) * om4_w2
    pole = np.abs(denom) <= _POLE_REL_TOL * scale
    if pole.any():
        at = int(np.argmax(pole))
        raise SusceptibilityPoleError(
            dz=np.broadcast_to(dz, pole.shape).flat[at].item(),
            omega=np.broadcast_to(omega, pole.shape).flat[at].item(),
        )
    # rescaled by z_b, the three share one reciprocal of the denominator
    inv = scales.z_b * g2_c / denom
    free = scales.z_b * omega / config.c
    chi_r = num_r * inv - free
    chi_l = free - x_w * inv
    chi_c = (om2 / omega) * w * inv
    return chi_r, chi_l, chi_c


def _sixth_power(u):
    """``u**6`` by three multiplications, about 20x cheaper than numpy's pow.

    Three roundings: at most 2.5 eps relative from the exact power wherever
    the result is a normal float.
    """
    u2 = u * u
    return u2 * u2 * u2


def _vdw_or_inf(dz, config):
    """C6/dz**6, with dz = 0 mapped to +inf and dz = +-inf to 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return config.C6 / _sixth_power(np.asarray(dz, dtype=float))


def susceptibilities(dz, omega: float, config: PhysicalConfig):
    """Rescaled ``(chi_r, chi_l, chi_c)`` at separation ``dz`` from the gate.

    ``dz`` may be a scalar or array of real separations, including 0 (taken
    as the fully blockaded limit of the potential); the three arrays match
    its shape, and a scalar gives three Python ``complex`` with the bits of
    the matching array element.  ``omega`` must be nonzero; zero-frequency
    scattering is ``cw_analytic``.

    Raises
    ------
    SusceptibilityPoleError
        If the shared denominator vanishes; it names the first offending dz.
    """
    chi = _chi_arrays(np.atleast_1d(dz), omega, config, derive_scales(config))
    return _numbers(chi, np.ndim(dz) == 0)


def free_susceptibilities(omega, config: PhysicalConfig):
    """``(chi_r, chi_l, chi_c)`` of the gate-free medium (V identically zero).

    ``omega`` may be a scalar or an array of nonzero frequencies; the three
    arrays match its shape, and a scalar gives three Python ``complex`` with
    the bits of the matching array element.
    """
    chi = _chi_arrays(np.inf, np.atleast_1d(omega), config, derive_scales(config))
    return _numbers(chi, np.ndim(omega) == 0)


# The six roots r of r**6 = -2j and the partial-fraction weights of the CW
# kernel 1/(u**6 + 2j), 1/(6 r**5) = r/(6 r**6) = 1j r / 12.
_KERNEL_ROOTS = 2.0 ** (1.0 / 6.0) * np.exp(1j * np.pi * (4 * np.arange(6) - 1) / 12.0)
_KERNEL_WEIGHTS = 1j * _KERNEL_ROOTS / 12.0


def nu(z, x, scales: DerivedScales):
    """Accumulated CW response ``1j * integral_0^z chi0(z' - x) dz'``.

    The CW kernel ``chi0`` is the rescaled forward susceptibility of a
    resonant probe, and simultaneously ``-chi_l`` and ``-chi_c``: on
    resonance the three collapse onto it.  ``z`` (nonnegative) and ``x`` are
    finite physical lengths, scalars (giving a Python ``complex``) or arrays
    that broadcast.  The integral is exact: in blockade-radius units the
    kernel is ``d_b / (u**6 + 2j)``, integrated over ``u`` from
    ``a = -x / z_b`` to ``b = (z - x) / z_b``, and its partial fractions over
    the six roots r of ``r**6 = -2j`` integrate to
    ``sum [log(b - r) - log(a - r)] / (6 r**5)``.  No root is real, so each
    principal log is continuous along the real axis.
    """
    _check_values("z", z, "nonnegative", array=True)
    _check_values("x", x, array=True)
    lo = -np.asarray(x, dtype=float)[..., None] / scales.z_b
    hi = np.asarray(z, dtype=float)[..., None] / scales.z_b + lo
    logs = np.log(hi - _KERNEL_ROOTS) - np.log(lo - _KERNEL_ROOTS)
    val = 1j * scales.d_b * np.sum(_KERNEL_WEIGHTS * logs, axis=-1)
    return _numbers((val,), np.ndim(val) == 0)[0]


NU_INFINITY = (math.pi / 3.0) * (1.0 + 1.0j) ** (1.0 / 3.0)
"""Bulk constant ``pi/3 * (1+1j)**(1/3)`` (principal branch).

Equals the infinite-medium limit of ``nu(L, x) / d_b`` when the gate sits
many blockade radii from both boundaries; approximately 1.1354 + 0.3042j.
"""
