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
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core_model import PhysicalConfig, _check_grid, _check_values, _numbers, derive_scales
from .errors import FitWindowError, FitWindowWarning, GridError

__all__ = [
    "REGIMES",
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
_FIT_K_MAX = 0.01


def build_bloch_matrix(k, regime: str, config: PhysicalConfig) -> np.ndarray:
    """Bloch matrix at momentum ``k`` (inverse-length units of the config).

    ``regime="free"`` returns the 6x6 matrix over
    (E_right, E_left, P_right, P_left, D, S); ``regime="blockaded"`` deletes
    the S row and column (the exact infinite-shift limit).  ``k`` may be a
    scalar or an array; the result has shape ``k.shape + (dim, dim)``.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    _check_values("k", k, array=True)
    k = np.asarray(k, dtype=float)

    G, Om, OmS = config.G, config.Omega, config.OmegaS
    ck = config.c * k
    ephi = cmath.exp(1j * config.phi)
    m = np.zeros(k.shape + (6, 6), dtype=np.complex128)
    m[..., 0, 0] = ck
    m[..., 1, 1] = -ck
    m[..., 2, 2] = m[..., 3, 3] = -1j * config.gamma
    m[..., 0, 2] = m[..., 2, 0] = G
    m[..., 1, 3] = m[..., 3, 1] = G
    m[..., 2, 4] = m[..., 4, 2] = Om
    m[..., 3, 4] = Om * ephi
    m[..., 4, 3] = Om * ephi.conjugate()
    m[..., 3, 5] = m[..., 5, 3] = OmS
    if regime == "blockaded":
        m = m[..., :5, :5]
    return m


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
    eigenvector at ``k_samples[i]``, whose overall phase is arbitrary at
    each ``k`` (the eigensolver's choice); ``|vectors|**2`` is phase-free.
    """

    branch_id: int
    regime: str
    kind: str
    k_samples: np.ndarray
    omega: np.ndarray
    vectors: np.ndarray


def default_k_grid(config: PhysicalConfig, kmax_labs: float = 2.0, n: int = 401) -> np.ndarray:
    """Symmetric momentum grid spanning ``k * l_abs`` in [-kmax, kmax]."""
    scales = derive_scales(config)
    return np.linspace(-kmax_labs, kmax_labs, n) / scales.l_abs


def _validate_k_grid(k_grid: np.ndarray) -> int:
    _check_grid("k_grid", k_grid, min_size=3, increasing=True)
    kmax = float(np.max(np.abs(k_grid)))
    if not np.allclose(k_grid, -k_grid[::-1], atol=1e-12 * max(kmax, 1e-300)):
        raise GridError("k_grid must be symmetric about zero")
    i0 = int(np.argmin(np.abs(k_grid)))
    if abs(k_grid[i0]) > 1e-12 * max(kmax, 1e-300):
        raise GridError("k_grid must contain k = 0 for dark-branch classification")
    return i0


def _assignment(overlap: np.ndarray):
    """Per step, the permutation with the largest summed overlap.

    ``overlap`` has shape (n_steps, dim, dim); ``moves[s, a]`` is the column
    taken by row ``a`` at step ``s``, ``ambiguous[s]`` whether some row's
    two largest overlaps lie within ``_AMBIGUITY_TOL``.  Where the row
    maxima sit in distinct columns and no row is ambiguous, taking them
    reaches the bound sum of row maxima, which every other permutation
    misses by at least ``_AMBIGUITY_TOL``, so it is the argmax.  Only the
    remaining steps score all dim! permutations (720 in the free regime);
    a tie there goes to the first permutation in lexicographic order.
    """
    dim = overlap.shape[-1]
    top = np.sort(overlap, axis=2)
    ambiguous = np.any(top[..., -1] - top[..., -2] < _AMBIGUITY_TOL, axis=1)
    moves = np.argmax(overlap, axis=2)
    hard = ambiguous | np.any(np.sort(moves, axis=1) != np.arange(dim), axis=1)
    if np.any(hard):
        perms = np.array(list(itertools.permutations(range(dim))))
        rest = overlap[hard]
        score = sum(rest[:, a, perms[:, a]] for a in range(dim))
        moves[hard] = perms[np.argmax(score, axis=1)]
    return moves, ambiguous


def spectrum(
    k_grid: np.ndarray,
    regime: str,
    config: PhysicalConfig,
) -> list[PolaritonBranch]:
    """Eigenbranches over a symmetric momentum grid, tracked by eigenvectors.

    Branches are followed outward from k = 0, never by eigenvalue sorting,
    which swaps branches at crossings.  Each step from a grid point to its
    outward neighbour scores the overlaps |<previous|next>| of their unit
    eigenvectors and takes the assignment with the largest summed overlap,
    found exactly (see ``_assignment``).
    Near-ties between overlaps are reported as warnings carrying the
    offending momentum, the k > 0 side first, each side from k = 0 outward.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    i0 = _validate_k_grid(k_grid)
    scales = derive_scales(config)
    vals, vecs = np.linalg.eig(build_bloch_matrix(k_grid, regime, config))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    n_k, dim = vals.shape

    # step s goes from grid point prev[s] to its outward neighbour cur[s]
    cur = np.r_[i0 + 1 : n_k, i0 - 1 : -1 : -1]
    prev = cur - np.sign(cur - i0)
    overlap = np.abs(vecs[prev].conj().transpose(0, 2, 1) @ vecs[cur])
    moves, ambiguous = _assignment(overlap)

    # order[i, b] is the eigenvalue index of branch b at grid point i
    order = np.empty((n_k, dim), dtype=int)
    order[i0] = np.lexsort((vals[i0].real, np.abs(vals[i0])))
    for s, i in enumerate(cur):
        order[i] = moves[s, order[prev[s]]]
        if ambiguous[s]:
            warnings.warn(
                "branch tracking ambiguous at k*l_abs = "
                f"{k_grid[i] * scales.l_abs:.6g}",
                stacklevel=2,
            )
    omegas = np.take_along_axis(vals, order, axis=1) / config.gamma
    tracked = np.take_along_axis(vecs, order[:, None, :], axis=2)

    k_labs = k_grid * scales.l_abs
    return [
        PolaritonBranch(
            branch_id=b,
            regime=regime,
            kind="dark" if abs(omegas[i0, b]) < _DARK_TOL else "bright",
            k_samples=k_labs.copy(),
            omega=omegas[:, b].copy(),
            vectors=tracked[:, :, b].copy(),
        )
        for b in range(dim)
    ]


def composition(eigenvector: np.ndarray):
    """Weight fractions (photon_right, photon_left, atomic) of a polariton.

    ``eigenvector`` is one vector, giving three Python floats, or a stack of
    them along the last axis, giving arrays over the leading axes.
    """
    v = np.asarray(eigenvector, dtype=np.complex128)
    # sum of |v|**2 by the BLAS dot product that np.vdot(v, v) uses
    norm2 = (v.conj()[..., None, :] @ v[..., :, None])[..., 0, 0].real
    if np.any(norm2 == 0.0):
        raise ValueError("eigenvector must be nonzero")
    p = np.abs(v) ** 2 / norm2[..., None]
    fractions = p[..., 0], p[..., 1], np.sum(p[..., 2:], axis=-1)
    return _numbers(fractions, v.ndim == 1)


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
    scales = derive_scales(config)
    window = np.abs(branch.k_samples) <= _FIT_K_MAX
    window &= branch.k_samples != 0.0
    if np.count_nonzero(window) < 5:
        raise FitWindowError(
            "need at least 5 nonzero samples with |k|*l_abs <= "
            f"{_FIT_K_MAX}, got {np.count_nonzero(window)}"
        )
    kk = branch.k_samples[window]
    # y = coeff * k**power through the origin: Re(omega) linear in k, or the
    # complex omega quadratic in k
    if branch.regime == "free":
        model, power, x, y = "linear", 1, kk, branch.omega[window].real
    else:
        model, power, x, y = "quadratic", 2, kk * kk, branch.omega[window]
    coeff = np.sum(x * y) / np.sum(x * x)
    scale = max(float(np.max(np.abs(y))), 1e-300)
    residual = float(np.sqrt(np.mean(np.abs(y - coeff * x) ** 2))) / scale
    value = complex(coeff) * config.gamma * scales.l_abs**power

    if model == "quadratic":
        reference = -2j * scales.l_abs * config.c * config.Omega**2 / (
            config.G**2 + 2.0 * config.Omega**2
        )
    elif value.real >= 0.0:
        reference = config.c * config.Omega**2 / (config.G**2 + config.Omega**2)
    else:
        reference = -config.c * config.OmegaS**2 / (config.G**2 + config.OmegaS**2)

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
