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

import numpy as np
from scipy.integrate import quad

from .core_model import (
    DerivedScales,
    PhysicalConfig,
    derive_scales,
    trapezoid_weights,
)
from .errors import GridError, PositivityWarning, QuadratureError
from .susceptibility import nu

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


@dataclass(frozen=True)
class SpinWaveDensityMatrix:
    """Position-basis density matrix of the stored excitation.

    ``grid`` holds N sample positions in [0, L]; ``rho[i, j]`` is the
    coherence between ``grid[i]`` and ``grid[j]``.  Traces and purities are
    discrete integrals with trapezoid weights, so a normalized state has
    ``trace() == 1`` regardless of N.
    """

    grid: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        rho = np.asarray(self.rho, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise GridError("position grid must be 1-d with at least two samples")
        if rho.shape != (grid.size, grid.size):
            raise GridError(
                f"density matrix shape {rho.shape} does not match grid size {grid.size}"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rho", rho)

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

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
    if N < 64:
        raise GridError(f"need at least 64 samples to resolve the mode, got {N}")
    if not L > 0.0:
        raise ValueError(f"medium length must be positive, got {L!r}")
    grid = np.linspace(0.0, L, N)
    psi = np.sin(np.pi * grid / L).astype(complex)
    w = trapezoid_weights(grid)
    psi /= np.sqrt(np.sum(w * np.abs(psi) ** 2))
    return SpinWaveDensityMatrix(grid=grid, rho=np.outer(psi, psi.conj()))


def _kernel_integral(xr: float, yr: float, length_r: float) -> complex:
    # z, x, y in blockade-radius units; narrow features of unit width sit at
    # z = x and z = y, so both are quadrature break points
    def integrand(z):
        u = (z - xr) ** 6
        v = (z - yr) ** 6
        return (u - v) / ((u + 2j) * (v - 2j))

    pts = sorted({p for p in (xr, yr) if 0.0 < p < length_r})
    epsabs = 1e-10
    val, err = quad(
        integrand,
        0.0,
        length_r,
        points=pts or None,
        limit=400,
        epsabs=epsabs,
        epsrel=1e-10,
        complex_func=True,
    )
    err_total = abs(complex(err).real) + abs(complex(err).imag)
    if err_total > max(10.0 * epsabs, 1e-8 * abs(val)):
        raise QuadratureError(
            f"coherence kernel quadrature did not converge at "
            f"(x, y) = ({xr:.6g}, {yr:.6g}) blockade radii "
            f"(error estimate {err_total:.3g})",
            achieved=err_total,
        )
    return complex(val)


def coherence_factor(
    x: float,
    y: float,
    config: PhysicalConfig,
    scales: DerivedScales | None = None,
) -> complex:
    """Multiplier applied to rho0(x, y) by CW target scattering.

    Equals 1 exactly on the diagonal.  For |x - y| many blockade radii and
    both points deep inside the medium it approaches 1 - A, the bulk power
    loss, tying coherence decay directly to the scattering loss channel.
    ``x`` and ``y`` are physical positions in [0, L].
    """
    scales = scales or derive_scales(config)
    for name, value in (("x", x), ("y", y)):
        if not 0.0 <= value <= config.L:
            raise ValueError(f"{name} must lie in [0, L], got {value!r}")
    if x == y:
        return 1.0 + 0.0j
    t_x = 1.0 / (1.0 + nu(config.L, x, scales))
    t_y = 1.0 / (1.0 + nu(config.L, y, scales))
    integral = _kernel_integral(x / scales.z_b, y / scales.z_b, config.L / scales.z_b)
    return 1.0 + 1j * scales.d_b * t_x * np.conj(t_y) * integral


def evolve_cw(
    rho0: SpinWaveDensityMatrix,
    config: PhysicalConfig,
    scales: DerivedScales | None = None,
) -> SpinWaveDensityMatrix:
    """Apply the CW scattering map element-wise to an initial density matrix.

    Evaluates the coherence factor for every grid pair (upper triangle, then
    Hermitian mirror), leaving the diagonal untouched.  The kernel integral
    is unchanged by the reflection z -> L - z, so on a grid symmetric about
    L/2 (``initial_sine_mode``'s) only pairs (i, j) with i + j <= N - 1 are
    integrated and the rest read their mirror image.  The grid must lie
    within [0, L] of ``config``.  Raises QuadratureError naming the offending
    pair if an element integral fails to converge, and emits a
    PositivityWarning if discretization pushes the result out of the PSD
    cone by more than PSD_SLACK times the trace.
    """
    scales = scales or derive_scales(config)
    grid = rho0.grid
    if grid[0] < 0.0 or grid[-1] > config.L:
        raise GridError("spin-wave grid extends outside the medium [0, L]")

    zb = scales.z_b
    length_r = config.L / zb
    d_b = scales.d_b
    # boundary transmission prefactors
    t = 1.0 / (1.0 + nu(config.L, grid, scales))

    n = grid.size
    # K(x, y) = K(L - x, L - y) and K(y, x) = -conj(K(x, y)), so past the
    # anti-diagonal K[i, j] = -conj(K[n-1-j, n-1-i]), from an earlier row
    mirrored = bool(np.all(np.abs(grid + grid[::-1] - config.L) <= 1e-12 * config.L))
    kernel = np.zeros((n, n), dtype=complex)
    factor = np.ones((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if mirrored and i + j > n - 1:
                integral = -np.conj(kernel[n - 1 - j, n - 1 - i])
            else:
                integral = _kernel_integral(grid[i] / zb, grid[j] / zb, length_r)
            kernel[i, j] = integral
            f = 1.0 + 1j * d_b * t[i] * np.conj(t[j]) * integral
            factor[i, j] = f
            factor[j, i] = np.conj(f)

    evolved = SpinWaveDensityMatrix(grid=grid, rho=factor * rho0.rho)

    eigs = np.linalg.eigvalsh(evolved.weighted())
    tr = evolved.trace()
    if eigs.min() < -PSD_SLACK * max(tr, 1.0):
        warnings.warn(
            f"evolved density matrix has eigenvalue {eigs.min():.3e} below the "
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
    d_b = np.asarray(d_b, dtype=float)
    if np.any(d_b < 0.0):
        raise ValueError(f"d_b must be nonnegative, got {float(d_b.min())!r}")
    loss = -np.expm1(-4.0 * d_b)
    return float(loss) if loss.ndim == 0 else loss


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
    eigs = np.linalg.eigvalsh(dm.weighted())
    return float(eigs[-1] / tr)
