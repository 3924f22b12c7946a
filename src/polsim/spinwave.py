"""Decoherence of a stored collective excitation under steady target scattering.

A gate photon stored as a delocalized spin wave is described by a density
matrix on positions in the medium.  When a CW target beam scatters off the
blockade region each coherence element rho(x, y) acquires a multiplicative
factor built from the same kernel that fixes the CW transmission: the
diagonal is exactly unaffected, while well separated points are damped by
the bulk power loss 1 - A.  That far limit pins the normalization of the
factor, which is otherwise convention sensitive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_model import (
    PhysicalConfig, _check_count, _check_finite, _check_in_medium, _check_values, _numbers,
    _real_array, derive_scales, trapezoid_weights,
)
from .errors import GridError, PositivityWarning, QuadratureError
from .propagation import _cw_coefficients
from .susceptibility import _sixth_power, nu

__all__ = [
    "SpinWaveDensityMatrix",
    "initial_sine_mode",
    "coherence_factor",
    "evolve_cw",
    "blockade_loss_baseline",
    "retrieval_eta",
]

# eigenvalues of the weighted matrix below -PSD_SLACK * trace trigger a
# PositivityWarning; finite grids legitimately wobble at the 1e-8 level
PSD_SLACK = 1e-8

# fewest samples that resolve the half-sine mode of ``initial_sine_mode``
_MIN_SAMPLES = 64

# grid pairs per quad_vec call: quad_vec keeps every subinterval's vector,
# so one call over all pairs of a 256-point map held 141 MB more at peak
_PAIR_BLOCK = 2048


@dataclass(frozen=True)
class SpinWaveDensityMatrix:
    """Position-basis density matrix of the stored excitation.

    ``grid`` holds N sample positions in [0, L]; ``rho[i, j]`` is the finite
    coherence between ``grid[i]`` and ``grid[j]``.  Traces and purities are
    discrete integrals with trapezoid weights, so a normalized state has
    ``trace() == 1`` regardless of N.
    """

    grid: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", _real_array("grid", self.grid, GridError, array=True))
        # trapezoid_weights checks the grid
        n = self.weights.size
        rho = _check_finite("rho", self.rho, GridError)
        if rho.shape != (n, n):
            raise GridError(f"rho must have the grid's shape {(n, n)}, got shape {rho.shape}")
        object.__setattr__(self, "rho", rho)

    @cached_property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``weighted()`` in ascending order, from one eigensolve."""
        return np.linalg.eigvalsh(self.weighted())

    def weighted(self) -> np.ndarray:
        """Similarity-transformed matrix sqrt(W) rho sqrt(W).

        Hermitian whenever rho is, with the same spectrum as the integral
        operator discretized on the grid; all spectral quantities (trace,
        purity, mode weights) are computed from it.
        """
        root = np.sqrt(self.weights)
        return root[:, None] * self.rho * root[None, :]

    def trace(self) -> float:
        return float(np.real(np.sum(self.weights * np.diag(self.rho))))

    def purity(self) -> float:
        m = self.weighted()
        return float(np.real(np.trace(m @ m)))


def initial_sine_mode(L: float, N: int = 256) -> SpinWaveDensityMatrix:
    """Pure half-sine spin-wave mode on [0, L], trace-normalized.

    The lowest box mode is the standard stored-excitation profile; it peaks
    at the medium center and vanishes at the walls, which keeps the state
    clear of boundary effects for L of a few blockade radii.
    """
    N = _check_count("N", N, _MIN_SAMPLES, GridError)
    _check_values("L", L, "positive")
    grid = np.linspace(0.0, L, N)
    psi = np.sin(np.pi * grid / L).astype(complex)
    w = trapezoid_weights(grid)
    psi /= np.sqrt(np.sum(w * np.abs(psi) ** 2))
    return SpinWaveDensityMatrix(grid=grid, rho=np.outer(psi, psi.conj()))


def _kernel_parts(z, xr, yr):
    """Real parts, then imaginary parts, of the kernel at z for pair arrays.

    The kernel is (u - v)/((u + 2i)(v - 2i)) with u = (z - x)**6 and
    v = (z - y)**6, split over |den|**2 = (u**2 + 4)(v**2 + 4) into the
    real part (u - v)(uv + 4)/|den|**2 and the imaginary part
    2 (u - v)**2/|den|**2.  Each sixth power is formed once per node.
    """
    u = _sixth_power(z - xr)
    v = _sixth_power(z - yr)
    d = u - v
    den = (u * u + 4.0) * (v * v + 4.0)
    return np.concatenate((d * (u * v + 4.0) / den, 2.0 * d * d / den))


def _factor_matrix(grid: np.ndarray, config: PhysicalConfig) -> np.ndarray:
    """Coherence factors F = 1 + 1j d_b (t t^H) o K for every pair of ``grid``.

    t = 1 / (1 + nu(L, x)) is ``cw_analytic``'s gate transmission and K the
    kernel integral.  Only the strict upper triangle is computed; F is that
    triangle plus its conjugate transpose, so the diagonal is exactly 1 and
    F exactly Hermitian.  The kernels of up to _PAIR_BLOCK pairs are one
    vector integrand of scipy's adaptive ``quad_vec``, so every pair of a
    block shares one partition of [0, L].  scipy is imported here, not at
    module top, so that importing polsim and every task without a spin-wave
    map loads numpy alone.
    """
    from scipy.integrate import quad_vec

    scales = derive_scales(config)
    nu_l = nu(config.L, grid, config)
    t = _cw_coefficients(nu_l.real, nu_l.imag, 0.0)[0]
    # z, x, y in blockade-radius units
    length_r = config.L / scales.z_b
    points = grid / scales.z_b

    n = grid.size
    rows, cols = np.triu_indices(n, 1)
    kernel = np.zeros((n, n), dtype=complex)
    for start in range(0, rows.size, _PAIR_BLOCK):
        i = rows[start:start + _PAIR_BLOCK]
        j = cols[start:start + _PAIR_BLOCK]
        parts, err, info = quad_vec(
            _kernel_parts, 0.0, length_r, args=(points[i], points[j]),
            epsabs=1e-10, epsrel=1e-10, norm="max", full_output=True,
        )
        block = parts[:i.size] + 1j * parts[i.size:]
        if info.status != 0 or err > max(1e-9, 1e-8 * np.max(np.abs(block))):
            raise QuadratureError(
                f"coherence kernel quadrature did not converge on the "
                f"{n}-point grid over L = {length_r:.6g} blockade radii "
                f"(status {info.status}, error estimate {err:.3g})",
                achieved=err,
            )
        kernel[i, j] = block
    upper = 1j * scales.d_b * np.outer(t, t.conj()) * kernel
    return 1.0 + upper + upper.conj().T


def coherence_factor(x: float, y: float, config: PhysicalConfig) -> complex:
    """Multiplier applied to rho0(x, y) by CW target scattering.

    Equals 1 exactly on the diagonal.  For |x - y| many blockade radii and
    both points deep inside the medium it approaches 1 - A, the bulk power
    loss, tying coherence decay directly to the scattering loss channel.
    ``x`` and ``y`` are physical positions in [0, L]; the value comes from
    the same factor matrix that ``evolve_cw`` applies.
    """
    _check_in_medium("x", x, config.L)
    _check_in_medium("y", y, config.L)
    if x == y:
        return 1.0 + 0.0j
    return complex(_factor_matrix(np.array([x, y], dtype=float), config)[0, 1])


def evolve_cw(rho0: SpinWaveDensityMatrix, config: PhysicalConfig) -> SpinWaveDensityMatrix:
    """Apply the CW scattering map element-wise to an initial density matrix.

    Multiplies rho0 by the coherence factor of every grid pair, leaving the
    diagonal untouched.  ``rho0``'s grid, checked finite and strictly
    increasing when it was built, must be in the medium [0, L] of ``config``.
    Raises QuadratureError naming the grid size and the medium length if a
    block of the kernel quadrature fails to converge, and emits a
    PositivityWarning if discretization pushes the result out of the PSD
    cone by more than PSD_SLACK times the trace.
    """
    grid = rho0.grid
    _check_in_medium("rho0.grid", grid, config.L, GridError, array=True)
    evolved = SpinWaveDensityMatrix(grid=grid, rho=_factor_matrix(grid, config) * rho0.rho)

    low = evolved.eigenvalues[0]
    if low < -PSD_SLACK * max(evolved.trace(), 1.0):
        warnings.warn(
            f"evolved density matrix has eigenvalue {low:.3e} below the "
            f"PSD slack; refine the grid if this matters",
            PositivityWarning,
            stacklevel=2,
        )
    return evolved


def blockade_loss_baseline(d_b):
    """Scattering loss of the fully dissipative two-level mechanism.

    ``1 - exp(-4 d_b)``: essentially complete extinction beyond d_b of a
    few, the benchmark the coherent-switching loss A is compared against.
    ``d_b`` may be a scalar or an array; the result matches its shape.
    """
    loss = -np.expm1(-4.0 * _check_values("d_b", d_b, "nonnegative", array=True))
    return _numbers((loss,), d_b)[0]


def retrieval_eta(dm: SpinWaveDensityMatrix) -> float:
    """Weight of the dominant retrievable mode.

    Largest eigenvalue of the trace-normalized weighted density matrix: the
    fraction of the stored excitation recoverable into the best single mode.
    This is a simplified, retrieval-only proxy; mode-shaping optimizations
    can do no worse than it.
    """
    tr = dm.trace()
    if tr <= 0.0:
        raise ValueError(f"density matrix trace must be positive, got {tr!r}")
    return float(dm.eigenvalues[-1] / tr)
