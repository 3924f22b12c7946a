"""Two-mode field propagation past a stored gate excitation.

The steady-state envelopes (E_right, E_left) obey a linear z-dependent
2x2 ODE whose coefficients are the local susceptibilities of the medium.
This module integrates that ODE as a boundary value problem (probe
entering from the left, nothing entering from the right), both at finite
probe frequency and in the exact zero-frequency (cw) limit, where the
closed-form solution is also provided for cross-checking.

The integrator works on the dimensionless coordinate zeta = z / z_b in
which the rescaled susceptibilities are per-unit-length.  Fields of 2x2
matrices are held as four component arrays, so every matrix product is
elementwise arithmetic over the steps.  It builds one fourth-order update
matrix per step, multiplies them with a pairwise tree reduction, and
accepts the result only after a step-halving comparison; a halved grid
reuses every coefficient of the coarser one, so each point is evaluated
once.  The base grid has 200 steps per blockade radius within three radii
of the gate and 25 elsewhere; up to four halvings follow, and the grid
accepted is the finer one of the first pair that agrees, so it has
between 400 and 3200 steps per radius near the gate.  Every scattering
quantity is then a ratio of products, so none comes from a cancelling
sum however deep the medium: with Phi the accepted
fundamental matrix, R = -Phi10 / Phi11 and T = det Phi / Phi11, where
det Phi is the product of the step determinants.  The field at node k
follows from the suffix product S_k of the steps beyond it, which maps
the field there to (T, 0): E_right = T S_k[1,1] / det S_k and
E_left = -T S_k[1,0] / det S_k.  The suffix products are built by
doubling, and only when the field is first read: R and T need none of
them.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property, partial

import numpy as np

from .core_model import derive_scales
from .errors import (
    FitWindowError,
    GridError,
    IllConditionedError,
    QuadratureError,
    SingularFrequencyError,
)
from .susceptibility import (
    NU_INFINITY,
    chi0_cw,
    free_susceptibilities,
    nu,
    susceptibilities,
)

__all__ = [
    "TwoModeField",
    "ScatterResult",
    "T0Spectrum",
    "WidthFit",
    "propagation_matrix",
    "solve_bvp",
    "cw_analytic",
    "cw_bulk_coefficients",
    "t0_spectrum",
    "fitted_transparency_width",
    "transparency_width_study",
]

# Step policy of the boundary-value integrator, in blockade radii: the base
# grid has fine steps within _WINDOW of the gate (200 per blockade radius
# resolve the blockade sphere) and coarse steps (25 per radius) elsewhere.
_FINE_STEP = 1.0 / 200.0
_COARSE_STEP = 1.0 / 25.0
_WINDOW = 3.0
# A solve is accepted once halving every step changes the fundamental matrix
# by less than _RICHARDSON_TOL (relative Frobenius), with at most
# _MAX_REFINEMENTS halvings.  The accepted grid is the finer one of the
# passing pair: 400 to 3200 steps per blockade radius near the gate.
_RICHARDSON_TOL = 1e-8
_MAX_REFINEMENTS = 4


@dataclass(frozen=True)
class TwoModeField:
    """Complex field envelopes sampled on integration nodes (physical z)."""

    z: np.ndarray
    e_right: np.ndarray
    e_left: np.ndarray


@dataclass(frozen=True)
class ScatterResult:
    """Scattering solution for a unit-amplitude probe entering at z = 0.

    ``transmission`` is E_right(L), ``reflection`` is E_left(0) and
    ``absorption`` the power unaccounted for by either.  ``refinements``
    counts the step halvings of the accepted grid (1 to ``_MAX_REFINEMENTS``
    for a numerical solve) and ``segments`` is 1 for a numerical solve; both
    are 0 for closed-form results.  ``field`` (a
    ``TwoModeField``, or None where none was asked for) is built by
    ``_build_field`` on first read and kept, so a caller that needs only
    the coefficients never pays for it.
    """

    omega: float
    x: float
    transmission: complex
    reflection: complex
    absorption: float
    richardson_error: float
    refinements: int
    segments: int
    _build_field: Callable[[], TwoModeField | None] = dataclass_field(
        repr=False, compare=False
    )

    @cached_property
    def field(self) -> TwoModeField | None:
        return self._build_field()


def propagation_matrix(z, x, omega, config, scales=None, cw=False):
    """Coefficient matrix M with i d(E_right, E_left)/d zeta = M (E_right, E_left).

    Structure ``[[chi_r, chi_c e^{i phi}], [-chi_c e^{-i phi}, chi_l]]``,
    per unit zeta = z / z_b.  ``z`` may be a scalar or array of physical
    positions; the returned array has shape ``z.shape + (2, 2)``.  With
    ``cw=True`` the exact zero-frequency kernel is used (the three
    susceptibilities collapse to chi_r = -chi_l = -chi_c) and ``omega`` is
    ignored.
    """
    if scales is None:
        scales = derive_scales(config)
    dz = np.asarray(z, dtype=float) - x
    if cw:
        k = chi0_cw(dz, scales)
        return _coefficient_matrix(k, -k, -k, config.phi)
    chi = susceptibilities(dz, omega, config, scales)
    return _coefficient_matrix(chi.chi_r, chi.chi_l, chi.chi_c, config.phi)


def _coefficient_matrix(chi_r, chi_l, chi_c, phi):
    """``[[chi_r, chi_c e^{i phi}], [-chi_c e^{-i phi}, chi_l]]``, shape ``(..., 2, 2)``."""
    ephi = cmath.exp(1j * phi)
    chi_r, chi_l, chi_c = np.broadcast_arrays(chi_r, chi_l, chi_c)
    m = np.empty(chi_r.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = chi_r
    m[..., 0, 1] = chi_c * ephi
    m[..., 1, 0] = -chi_c * ephi.conjugate()
    m[..., 1, 1] = chi_l
    return m


def _build_nodes(length_zb: float, x_zb: float) -> np.ndarray:
    lo = min(max(x_zb - _WINDOW, 0.0), length_zb)
    hi = min(max(x_zb + _WINDOW, 0.0), length_zb)
    pieces = []
    for a, b, step in (
        (0.0, lo, _COARSE_STEP),
        (lo, hi, _FINE_STEP),
        (hi, length_zb, _COARSE_STEP),
    ):
        if b - a > 1e-12 * max(length_zb, 1.0):
            n = max(1, math.ceil((b - a) / step))
            pieces.append(np.linspace(a, b, n + 1))
    return np.unique(np.concatenate(pieces))


def _mul(p, q):
    """Elementwise 2x2 products p @ q of component stacks, shape (4, ...).

    A component stack holds the entries (m00, m01, m10, m11) of a field of
    2x2 matrices as four arrays.
    """
    out = np.empty(p.shape, dtype=np.complex128)
    out[0] = p[0] * q[0] + p[1] * q[2]
    out[1] = p[0] * q[1] + p[1] * q[3]
    out[2] = p[2] * q[0] + p[3] * q[2]
    out[3] = p[2] * q[1] + p[3] * q[3]
    return out


def _interleave(nodes, mid):
    """Nodes (last axis) with the step midpoints between them."""
    out = np.empty(nodes.shape[:-1] + (2 * nodes.shape[-1] - 1,), dtype=nodes.dtype)
    out[..., 0::2] = nodes
    out[..., 1::2] = mid
    return out


def _rk4_updates(nodes_zb, a_nodes, a_mid):
    """Fourth-order update matrix of every step, as a component stack.

    The ODE integrated is d psi / d zeta = A psi with A = -1j M, sampled at
    the nodes (``a_nodes``) and the step midpoints (``a_mid``).
    """
    h = np.diff(nodes_zb)
    a1 = a_nodes[:, :-1]
    a3 = a_nodes[:, 1:]

    def shifted(k, f, out):
        # identity + f * k, written into out
        np.multiply(k, f, out=out)
        out[0] += 1.0
        out[3] += 1.0
        return out

    # the three shifted operands share one scratch stack
    scratch = np.empty_like(a_mid)
    k2 = _mul(a_mid, shifted(a1, 0.5 * h, scratch))
    k3 = _mul(a_mid, shifted(k2, 0.5 * h, scratch))
    k4 = _mul(a3, shifted(k3, h, scratch))
    # k1 + 2 k2 + 2 k3 + k4, summed left to right into k2
    k2 *= 2.0
    k2 += a1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    return shifted(k2, h / 6.0, k2)


def _tree_product(updates):
    """Product updates[-1] @ ... @ updates[0] by pairwise tree reduction."""
    p = updates
    while p.shape[1] > 1:
        n = p.shape[1] // 2
        q = _mul(p[:, 1 : 2 * n : 2], p[:, 0 : 2 * n : 2])
        if p.shape[1] % 2:
            q = np.concatenate([q, p[:, -1:]], axis=1)
        p = q
    return p[:, 0]


def _suffix_products(updates):
    """Suffix products S_k = updates[-1] @ ... @ updates[k], by doubling."""
    p = updates.copy()
    shift = 1
    while shift < p.shape[1]:
        p[:, :-shift] = _mul(p[:, shift:], p[:, :-shift])
        shift *= 2
    return p


def solve_bvp(omega, x, config, cw=False, scales=None):
    """Scattering of a unit probe at frequency ``omega`` off a gate at ``x``.

    Boundary conditions: E_right(0) = 1 and E_left(L) = 0.  ``omega = 0``
    is refused unless ``cw=True``, which solves the regular zero-frequency
    problem instead (and demands ``omega = 0`` for honesty in the result).
    """
    if scales is None:
        scales = derive_scales(config)
    if not 0.0 <= x <= config.L:
        raise ValueError(f"gate position {x!r} outside the medium [0, {config.L}]")
    if cw:
        if omega != 0.0:
            raise ValueError("cw=True solves omega = 0; pass omega=0.0")
    elif omega == 0.0:
        raise SingularFrequencyError(
            "omega = 0 is a removable singularity of the finite-frequency "
            "response; request the cw solution with cw=True"
        )

    def coefficients(points):
        # -1j M as a C-ordered component stack, one evaluation per point
        m = propagation_matrix(points * scales.z_b, x, omega, config, scales, cw)
        return np.multiply(-1j, m.reshape(-1, 4).T, order="C")

    def product(level, nodes, a_nodes, a_mid):
        updates = _rk4_updates(nodes, a_nodes, a_mid)
        with np.errstate(over="ignore", invalid="ignore"):
            phi = _tree_product(updates)
        if not np.all(np.isfinite(phi)):
            raise IllConditionedError(
                f"fundamental matrix overflows at refinement level {level} "
                f"({updates.shape[1]} steps)"
            )
        return updates, phi

    # each level's nodes are the previous level's nodes and step midpoints,
    # so only the new midpoints are evaluated
    nodes = _build_nodes(config.L / scales.z_b, x / scales.z_b)
    a_nodes = coefficients(nodes)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    a_mid = coefficients(mid)
    updates, phi = product(0, nodes, a_nodes, a_mid)
    err = math.inf
    for level in range(1, _MAX_REFINEMENTS + 1):
        nodes = _interleave(nodes, mid)
        a_nodes = _interleave(a_nodes, a_mid)
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        a_mid = coefficients(mid)
        updates, phi_f = product(level, nodes, a_nodes, a_mid)
        err = float(
            np.linalg.norm(phi_f - phi) / max(1.0, np.linalg.norm(phi_f))
        )
        phi = phi_f
        if err <= _RICHARDSON_TOL:
            break
    else:
        raise QuadratureError(
            f"step halving stalled at relative change {err:.3g} "
            f"(tolerance {_RICHARDSON_TOL:.3g})",
            achieved=err,
        )

    if phi[3] == 0.0:
        raise IllConditionedError("boundary solve hit a vanishing pivot")
    r = -phi[2] / phi[3]
    # det Phi = det S_0, multiplied from the last step down in the same
    # order as the field's det S_k
    det_u = updates[0] * updates[3] - updates[1] * updates[2]
    t = np.prod(det_u[::-1]) / phi[3]
    if not (np.isfinite(r) and np.isfinite(t)):
        raise IllConditionedError("boundary solve produced a non-finite coefficient")
    return ScatterResult(
        omega=float(omega),
        x=float(x),
        transmission=complex(t),
        reflection=complex(r),
        absorption=1.0 - abs(t) ** 2 - abs(r) ** 2,
        richardson_error=err,
        refinements=level,
        segments=1,
        _build_field=partial(_field, nodes * scales.z_b, updates, det_u, r, t),
    )


def _field(z, updates, det_u, r, t):
    """Field on the nodes ``z`` of the accepted steps, from their suffix products.

    S_k maps the field at node k to (t, 0) at z = L, so psi_k = S_k^{-1} (t, 0).
    """
    s = _suffix_products(updates)
    det_s = np.cumprod(det_u[::-1])[::-1]
    psi = np.empty((z.size, 2), dtype=np.complex128)
    psi[0] = (1.0, r)
    psi[1:-1, 0] = t * s[3, 1:] / det_s[1:]
    psi[1:-1, 1] = -t * s[2, 1:] / det_s[1:]
    psi[-1] = (t, 0.0)
    return TwoModeField(z=z, e_right=psi[:, 0], e_left=psi[:, 1])


def cw_analytic(x, config, z=None, scales=None):
    """Closed-form zero-frequency scattering off a gate at ``x``.

    The cw coefficient matrix is nilpotent, so the fundamental matrix
    truncates after the linear term and everything is expressed through
    the running kernel integral.  ``z`` (optional array of physical
    positions) selects where the fields are evaluated.
    """
    if scales is None:
        scales = derive_scales(config)
    if not 0.0 <= x <= config.L:
        raise ValueError(f"gate position {x!r} outside the medium [0, {config.L}]")
    nu_total = nu(config.L, x, scales)
    denom = 1.0 + nu_total
    t = 1.0 / denom
    r = cmath.exp(-1j * config.phi) * nu_total / denom
    field = None
    if z is not None:
        z = np.asarray(z, dtype=float)
        nu_run = nu(z, x, scales)
        e_right = 1.0 - nu_run / denom
        e_left = cmath.exp(-1j * config.phi) * (nu_total - nu_run) / denom
        field = TwoModeField(z=z, e_right=e_right, e_left=e_left)
    return ScatterResult(
        omega=0.0,
        x=float(x),
        transmission=complex(t),
        reflection=complex(r),
        absorption=1.0 - abs(t) ** 2 - abs(r) ** 2,
        richardson_error=0.0,
        refinements=0,
        segments=0,
        _build_field=lambda: field,
    )


def cw_bulk_coefficients(d_b, phi=0.0):
    """Deep-medium limit of the cw coefficients for blockade depth ``d_b``.

    Returns ``(transmission, reflection, absorption)`` with the kernel
    integral saturated at its infinite-medium value.  ``d_b`` may be a
    scalar or an array; the results match its shape.
    """
    d_b = np.asarray(d_b, dtype=float)
    if np.any(d_b <= 0.0):
        raise ValueError("d_b must be positive")
    # With nu = NU_INFINITY d_b: t = 1 / (1 + nu), r = e^{-i phi} nu / (1 + nu),
    # in real arithmetic rounded as Python's complex product and quotient
    # (Smith's method; |Re(1 + nu)| > |Im(1 + nu)| since NU_INFINITY.real >
    # NU_INFINITY.imag > 0), so array and scalar d_b give the same bits
    nu_re = NU_INFINITY.real * d_b
    nu_im = NU_INFINITY.imag * d_b
    ratio = nu_im / (1.0 + nu_re)
    denom = (1.0 + nu_re) + nu_im * ratio
    e = cmath.exp(-1j * phi)
    a_re = e.real * nu_re - e.imag * nu_im
    a_im = e.real * nu_im + e.imag * nu_re
    t = 1.0 / denom + 1j * (-ratio / denom)
    r = (a_re + a_im * ratio) / denom + 1j * ((a_im - a_re * ratio) / denom)
    loss = 1.0 - _abs2(t) - _abs2(r)
    if d_b.ndim == 0:
        return complex(t), complex(r), float(loss)
    return t, r, loss


def _abs2(z):
    """``abs(z) ** 2`` rounded as Python computes it for a complex scalar."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


@dataclass(frozen=True)
class T0Spectrum:
    """Gate-free transmission/reflection spectrum of the bare medium."""

    omega: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray


def t0_spectrum(omega_grid, config, scales=None) -> T0Spectrum:
    """Scattering spectrum of the uniform medium with no stored gate.

    The coefficients are z-independent, so the fundamental matrix is
    ``Phi = exp(A)`` with ``A = -1j M L`` (L in blockade radii), and a 2x2
    exponential has a closed form.  With ``m = tr A / 2``,
    ``d = (a00 - a11) / 2`` and ``s = sqrt(d**2 + a01 a10)`` (principal
    root, Re s >= 0), ``Phi = e^m [cosh s + sinh(s) / s (A - m)]``.  The
    boundary solve gives ``r = -Phi10 / Phi11`` and
    ``t = det Phi / Phi11 = e^{2m} / Phi11``, evaluated as::

        t = 2 s e^{m - s} / D,   r = a10 expm1(-2 s) / D,
        D = (s - d) + (s + d) e^{-2 s} = 2 s + (s + d) expm1(-2 s)

    for all frequencies at once.  Nothing overflows on deep media, and
    nothing cancels: ``s - d`` is taken as ``a01 a10 / (s + d)`` when
    ``|s + d| >= |s - d|``, and the expm1 form of D serves ``|s| < 1``.
    The medium is exactly transparent at zero frequency, which is inserted
    directly rather than taken as a limit.
    """
    if scales is None:
        scales = derive_scales(config)
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise GridError("omega_grid must be a nonempty one-dimensional array")
    live = omega_grid != 0.0
    chi = free_susceptibilities(omega_grid[live], config, scales)
    a = (-1j * config.L / scales.z_b) * _coefficient_matrix(
        chi.chi_r, chi.chi_l, chi.chi_c, config.phi
    )
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    m = 0.5 * (a00 + a11)
    d = 0.5 * (a00 - a11)
    a01_a10 = a01 * a10
    s = np.sqrt(d * d + a01_a10)
    s_plus_d = s + d
    s_minus_d = s - d
    aligned = np.abs(s_plus_d) >= np.abs(s_minus_d)
    s_minus_d[aligned] = a01_a10[aligned] / s_plus_d[aligned]
    em1 = np.expm1(-2.0 * s)
    denom = np.where(
        np.abs(s) < 1.0,
        2.0 * s + s_plus_d * em1,
        s_minus_d + s_plus_d * np.exp(-2.0 * s),
    )
    if np.any(denom == 0.0):
        w = omega_grid[live][np.argmax(denom == 0.0)]
        raise IllConditionedError(
            f"gate-free boundary solve hit a vanishing pivot at omega={w!r}"
        )
    t = np.ones(omega_grid.size, dtype=np.complex128)
    r = np.zeros(omega_grid.size, dtype=np.complex128)
    t[live] = 2.0 * s * np.exp(m - s) / denom
    r[live] = a10 * em1 / denom
    return T0Spectrum(omega=omega_grid.copy(), transmission=t, reflection=r)


@dataclass(frozen=True)
class WidthFit:
    """Quadratic fit of the gate-free transparency dip against prediction."""

    fitted: float
    predicted: float
    rel_error: float
    n_used: int


def fitted_transparency_width(t0_results: T0Spectrum) -> float:
    """Transparency width from a quadratic fit of 1 - |T0| against omega**2.

    Uses the samples with ``|T0| > 0.9`` (at least five required) and
    returns ``1 / sqrt(a)`` for the least-squares coefficient of
    ``1 - |T0| = a * omega**2``.  The quadratic coefficient acquires a
    depth-dependent mode-mixing contribution only asymptotically close to
    resonance, so extracting the closed-form width requires sampling well
    inside the transparency window (see ``transparency_width_study``).
    """
    mag = np.abs(t0_results.transmission)
    mask = mag > 0.9
    n_used = int(np.count_nonzero(mask))
    if n_used < 5:
        raise FitWindowError(
            f"only {n_used} samples with |T0| > 0.9; sample closer to resonance"
        )
    w2 = t0_results.omega[mask] ** 2
    y = 1.0 - mag[mask]
    a = float(np.sum(w2 * y) / np.sum(w2 * w2))
    if a <= 0.0:
        raise FitWindowError("transparency dip has no positive curvature")
    return 1.0 / math.sqrt(a)


def transparency_width_study(config, scales=None, rel_window=1e-3, n=21) -> WidthFit:
    """Fitted transparency width next to its closed-form prediction.

    Samples the gate-free transmission across ``rel_window`` times the
    predicted width.  The default window is deliberately deep inside the
    transparency dip: the omega -> 0 curvature includes an interference
    term between the two photon modes that dephases at larger detunings,
    and the closed-form width only captures the true zero-frequency limit.
    """
    if scales is None:
        scales = derive_scales(config, allow_oversized_blockade=True)
    if not 0.0 < rel_window <= 1.0:
        raise ValueError("rel_window must be in (0, 1]")
    if n < 7:
        raise ValueError("need at least 7 samples")
    predicted = scales.delta_omega0
    grid = np.linspace(-rel_window * predicted, rel_window * predicted, n)
    spec = t0_spectrum(grid, config, scales)
    fitted = fitted_transparency_width(spec)
    return WidthFit(
        fitted=fitted,
        predicted=predicted,
        rel_error=abs(fitted - predicted) / predicted,
        n_used=int(np.count_nonzero(np.abs(spec.transmission) > 0.9)),
    )
