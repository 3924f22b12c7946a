"""Momentum-space polariton spectrum of the two-mode medium.

The single-excitation Bloch matrix couples the six amplitudes
(E_right, E_left, P_right, P_left, D, S): two counterpropagating photons,
two polarizations, the shared Rydberg state D and the gate-sensitive Rydberg
state S.  Inside the blockade sphere the S level is shifted out of reach and
the dynamics restrict to the first five amplitudes ("blockaded" regime);
outside it all six participate ("free" regime).

The matrix convention is chosen so that the zero-momentum dark polaritons
are literal null vectors of the matrix (their coefficient vectors, not the
conjugates).  Loss enters only through ``-1j * gamma`` on the polarization
diagonal, so every eigenvalue satisfies Im(omega) <= 0.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core_model import PhysicalConfig, derive_scales
from .errors import FitWindowError, FitWindowWarning, GridError

__all__ = [
    "BlochMatrix",
    "PolaritonBranch",
    "DispersionFit",
    "build_bloch_matrix",
    "dark_polariton_vectors",
    "spectrum",
    "composition",
    "fit_dispersion",
    "default_k_grid",
]

REGIMES = ("free", "blockaded")

# Two tracking overlaps closer than this are reported as ambiguous.
_AMBIGUITY_TOL = 1e-6

# Dark classification: |omega(k=0)| below this many gamma.
_DARK_TOL = 1e-12

# Dispersion fits use samples with |k| * l_abs below this.
_FIT_WINDOW = 0.01


@dataclass(frozen=True)
class BlochMatrix:
    """Single-excitation Bloch matrix at one momentum."""

    k: float
    regime: str
    gate_shift: float
    entries: np.ndarray


def build_bloch_matrix(
    k: float,
    regime: str,
    config: PhysicalConfig,
    gate_shift: float = 0.0,
) -> BlochMatrix:
    """Bloch matrix at momentum ``k`` (inverse-length units of the config).

    ``regime="free"`` returns the 6x6 matrix over
    (E_right, E_left, P_right, P_left, D, S); ``regime="blockaded"`` deletes
    the S row and column (the exact infinite-shift limit).  A finite local
    van der Waals shift can be placed on the S diagonal with ``gate_shift``
    (free regime only), which is how the blockaded limit is cross-checked.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if not np.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    if gate_shift != 0.0 and regime != "free":
        raise ValueError("gate_shift only applies to the free (six-state) basis")

    G, Om, OmS = config.G, config.Omega, config.OmegaS
    ck = config.c * k
    ephi = cmath.exp(1j * config.phi)
    m = np.zeros((6, 6), dtype=np.complex128)
    m[0, 0] = ck
    m[1, 1] = -ck
    m[2, 2] = m[3, 3] = -1j * config.gamma
    m[0, 2] = m[2, 0] = G
    m[1, 3] = m[3, 1] = G
    m[2, 4] = m[4, 2] = Om
    m[3, 4] = Om * ephi
    m[4, 3] = Om * ephi.conjugate()
    m[3, 5] = m[5, 3] = OmS
    m[5, 5] = gate_shift
    if regime == "blockaded":
        m = m[:5, :5]
    return BlochMatrix(k=k, regime=regime, gate_shift=gate_shift, entries=m)


def dark_polariton_vectors(regime: str, config: PhysicalConfig) -> list[np.ndarray]:
    """Normalized zero-momentum dark polaritons annihilated by the matrix.

    Free regime: the forward slow-light combination (photon, D and S) and the
    backward combination (photon and S only).  Blockaded regime: the single
    stationary-light combination of both photons with D.
    """
    G, Om, OmS = config.G, config.Omega, config.OmegaS
    ephi = cmath.exp(1j * config.phi)
    if regime == "free":
        right = np.array([Om * OmS, 0.0, 0.0, 0.0, -G * OmS, G * Om * ephi],
                         dtype=np.complex128)
        left = np.array([0.0, OmS, 0.0, 0.0, 0.0, -G], dtype=np.complex128)
        vecs = [right, left]
    elif regime == "blockaded":
        vecs = [np.array([Om, Om * ephi, 0.0, 0.0, -G], dtype=np.complex128)]
    else:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    return [v / np.linalg.norm(v) for v in vecs]


@dataclass(frozen=True)
class PolaritonBranch:
    """One continuously tracked eigenbranch.

    ``k_samples`` holds the dimensionless momenta ``k * l_abs`` and ``omega``
    the eigenvalues in units of ``gamma``; ``vectors[i]`` is the unit
    eigenvector at ``k_samples[i]``.
    """

    branch_id: int
    regime: str
    kind: str
    k_samples: np.ndarray
    omega: np.ndarray
    vectors: np.ndarray


def default_k_grid(config: PhysicalConfig, kmax_labs: float = 2.0, n: int = 401) -> np.ndarray:
    """Symmetric momentum grid spanning ``k * l_abs`` in [-kmax, kmax]."""
    scales = derive_scales(config, allow_oversized_blockade=True)
    return np.linspace(-kmax_labs, kmax_labs, n) / scales.l_abs


def _validate_k_grid(k_grid: np.ndarray) -> int:
    if k_grid.ndim != 1 or k_grid.size < 3:
        raise GridError("k_grid must be one-dimensional with at least three points")
    if np.any(np.diff(k_grid) <= 0.0):
        raise GridError("k_grid must be strictly increasing")
    kmax = float(np.max(np.abs(k_grid)))
    if not np.allclose(k_grid, -k_grid[::-1], atol=1e-12 * max(kmax, 1e-300)):
        raise GridError("k_grid must be symmetric about zero")
    i0 = int(np.argmin(np.abs(k_grid)))
    if abs(k_grid[i0]) > 1e-12 * max(kmax, 1e-300):
        raise GridError("k_grid must contain k = 0 for dark-branch classification")
    return i0


def spectrum(
    k_grid: np.ndarray,
    regime: str,
    config: PhysicalConfig,
) -> list[PolaritonBranch]:
    """Eigenbranches over a symmetric momentum grid, tracked by eigenvectors.

    Branches are followed outward from k = 0 by maximum-overlap assignment of
    consecutive eigenvector frames (never by eigenvalue sorting, which swaps
    branches at crossings).  Near-ties between overlaps are reported as
    warnings carrying the offending momentum.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    i0 = _validate_k_grid(k_grid)
    scales = derive_scales(config, allow_oversized_blockade=True)
    gamma = config.gamma
    dim = 6 if regime == "free" else 5

    n_k = k_grid.size
    omegas = np.empty((n_k, dim), dtype=np.complex128)
    vectors = np.empty((n_k, dim, dim), dtype=np.complex128)

    vals, vecs = np.linalg.eig(build_bloch_matrix(k_grid[i0], regime, config).entries)
    order = np.lexsort((vals.real, np.abs(vals)))
    omegas[i0] = vals[order] / gamma
    vectors[i0] = (vecs[:, order] / np.linalg.norm(vecs[:, order], axis=0)).T

    def step(i_prev, i):
        vals, vecs = np.linalg.eig(build_bloch_matrix(k_grid[i], regime, config).entries)
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        overlap = np.abs(vectors[i_prev].conj() @ vecs)
        row, col = linear_sum_assignment(-overlap)
        perm = np.empty(dim, dtype=int)
        perm[row] = col
        top = np.sort(overlap, axis=1)
        if np.any(top[:, -1] - top[:, -2] < _AMBIGUITY_TOL):
            warnings.warn(
                "branch tracking ambiguous at k*l_abs = "
                f"{k_grid[i] * scales.l_abs:.6g}",
                stacklevel=2,
            )
        for b in range(dim):
            v = vecs[:, perm[b]]
            phase = vectors[i_prev][b].conj() @ v
            if phase != 0.0:
                v = v * (phase.conjugate() / abs(phase))
            vectors[i][b] = v
            omegas[i][b] = vals[perm[b]] / gamma

    for i in range(i0 + 1, n_k):
        step(i - 1, i)
    for i in range(i0 - 1, -1, -1):
        step(i + 1, i)

    k_labs = k_grid * scales.l_abs
    branches = []
    for b in range(dim):
        kind = "dark" if abs(omegas[i0, b]) < _DARK_TOL else "bright"
        branches.append(
            PolaritonBranch(
                branch_id=b,
                regime=regime,
                kind=kind,
                k_samples=k_labs.copy(),
                omega=omegas[:, b].copy(),
                vectors=vectors[:, b, :].copy(),
            )
        )
    return branches


def composition(eigenvector: np.ndarray):
    """Weight fractions (photon_right, photon_left, atomic) of a polariton.

    ``eigenvector`` is one vector or a stack of them along the last axis;
    for a stack each fraction is an array over the leading axes.
    """
    v = np.asarray(eigenvector, dtype=np.complex128)
    # sum of |v|**2 by the BLAS dot product that np.vdot(v, v) uses
    norm2 = (v.conj()[..., None, :] @ v[..., :, None])[..., 0, 0].real
    if np.any(norm2 == 0.0):
        raise ValueError("eigenvector must be nonzero")
    p = np.abs(v) ** 2 / norm2[..., None]
    fractions = p[..., 0], p[..., 1], np.sum(p[..., 2:], axis=-1)
    if v.ndim == 1:
        return tuple(float(f) for f in fractions)
    return fractions


@dataclass(frozen=True)
class DispersionFit:
    """Small-momentum fit of one dark branch.

    ``model`` is "linear" (free regime, fitted group velocity) or
    "quadratic" (blockaded regime, fitted complex diffusion coefficient);
    ``value`` and ``reference`` are in physical units of the configuration.
    ``residual`` is the relative rms misfit inside the window.
    """

    model: str
    value: complex
    reference: complex
    rel_error: float
    residual: float


def fit_dispersion(branch: PolaritonBranch, config: PhysicalConfig) -> DispersionFit:
    """Fit the small-k dispersion of a dark branch and compare to closed form.

    Free regime: least-squares line through the origin on Re(omega) inside
    ``|k| * l_abs <= 0.01``; the sign of the fitted velocity selects the
    forward or backward slow-light reference.  Blockaded regime: quadratic
    fit of the complex eigenvalue, compared against the stationary-light
    diffusion coefficient ``-2j * l_abs * c * Omega**2 / (G**2 + 2 Omega**2)``.
    """
    if branch.kind != "dark":
        raise ValueError("dispersion fits are defined for dark branches only")
    scales = derive_scales(config, allow_oversized_blockade=True)
    window = np.abs(branch.k_samples) <= _FIT_WINDOW
    window &= branch.k_samples != 0.0
    if np.count_nonzero(window) < 5:
        raise FitWindowError(
            "need at least 5 nonzero samples with |k|*l_abs <= "
            f"{_FIT_WINDOW}, got {np.count_nonzero(window)}"
        )
    kk = branch.k_samples[window]
    ww = branch.omega[window]

    if branch.regime == "free":
        y = ww.real
        slope = float(np.sum(kk * y) / np.sum(kk * kk))
        fitted = slope * kk
        scale = max(float(np.max(np.abs(y))), 1e-300)
        residual = float(np.sqrt(np.mean((y - fitted) ** 2))) / scale
        v = slope * config.gamma * scales.l_abs
        if v >= 0.0:
            reference = config.c * config.Omega**2 / (config.G**2 + config.Omega**2)
        else:
            reference = -config.c * config.OmegaS**2 / (config.G**2 + config.OmegaS**2)
        value = complex(v)
        model = "linear"
    else:
        k2 = kk * kk
        coeff = complex(np.sum(k2 * ww) / np.sum(k2 * k2))
        fitted = coeff * k2
        scale = max(float(np.max(np.abs(ww))), 1e-300)
        residual = float(np.sqrt(np.mean(np.abs(ww - fitted) ** 2))) / scale
        value = coeff * config.gamma * scales.l_abs**2
        reference = -2j * scales.l_abs * config.c * config.Omega**2 / (
            config.G**2 + 2.0 * config.Omega**2
        )
        model = "quadratic"

    if residual > 1e-3:
        warnings.warn(
            FitWindowWarning(
                f"{model} fit residual {residual:.3g} exceeds 1e-3; "
                "the fit window is too wide for this branch"
            ),
            stacklevel=2,
        )
    rel_error = abs(value - reference) / abs(reference)
    return DispersionFit(
        model=model,
        value=value,
        reference=complex(reference),
        rel_error=float(rel_error),
        residual=residual,
    )
