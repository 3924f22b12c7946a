"""Two-mode field propagation past a stored gate excitation.

The steady-state envelopes (E_right, E_left) obey a linear z-dependent
2x2 ODE whose coefficients are the local susceptibilities of the medium.
This module integrates that ODE as a boundary value problem (probe
entering from the left, nothing entering from the right) at finite probe
frequency.  At zero frequency the coefficient matrix is nilpotent and the
solution has a closed form, ``cw_analytic``, which is the only route there.

The integrator works on the dimensionless coordinate zeta = z / z_b in
which the rescaled susceptibilities are per-unit-length.  Fields of 2x2
matrices are held as four component arrays, so every matrix product is
elementwise arithmetic over the steps.  Each step is the exact exponential
of its sixth-order Magnus exponent, built from the coefficients at the
step's three Gauss-Legendre points (Blanes, Casas & Ros, BIT 40, 434
(2000); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  Its error
depends on how the coefficients vary along the step, not on their size,
so deep media need no finer steps.  A 2x2 exponential is
e^m [cosh s + sinh(s)/s (Omega - m)], and cosh s and sinh(s)/s are entire
functions of q = s**2: where |q| <= 1/4 (every step of a typical solve)
they are short power series in q, and only wider steps take cosh and sinh
of s = sqrt(q).  The base grid is uniform; up to six halvings follow, and
the finer grid of the first pair that agrees is accepted.  The Gauss
points of a grid and of its halving do not nest, so the base grid and its
first halving are built together: one coefficient evaluation on both
grids' points, one step build, and one stacked tree product of the base
steps with the first halving's pair products gives both fundamental
matrices.  Each further halving evaluates only its own points and reduces
its pair products together with the coarser grid's steps, carried from the
pass before.  Every scattering quantity is then a ratio of products,
so none comes from a cancelling sum however deep the medium:
with Phi the accepted fundamental matrix, R = -Phi10 / Phi11 and
T = det Phi / Phi11, where det Phi is the exponential of the summed step
traces.  The field at node k follows from the suffix product S_k of the
steps beyond it, which maps the field there to (T, 0), and is built by
doubling only when the field is first read: R and T need none of it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property, partial

import numpy as np

from .core_model import _check_grid, _check_in_medium, _check_values, _numbers, derive_scales
from .errors import FitWindowError, IllConditionedError, QuadratureError
from .susceptibility import (
    NU_INFINITY,
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

# Step policy of the boundary-value integrator: the base grid has uniform
# steps of _STEP blockade radii.  A solve is accepted once halving every step
# changes the fundamental matrix by less than _RICHARDSON_TOL (relative
# Frobenius), with at most _MAX_REFINEMENTS halvings.  The accepted grid is
# the finer one of the passing pair: 40 to 1280 steps per blockade radius.
_STEP = 1.0 / 20.0
_RICHARDSON_TOL = 1e-8
_MAX_REFINEMENTS = 6

# Gauss-Legendre points of a step, as fractions of its width: 1/2 -+ sqrt(15)/10
# and 1/2, the nodes of the sixth-order Magnus exponent in ``_magnus_steps``
_GAUSS_POINTS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])

# Step exponentials: cosh s and sinh(s)/s are summed as Taylor series in
# q = s**2 wherever |q| <= _SERIES_MAX_Q.  Row k of _SERIES_COEFFS holds
# 1/(2k)! and 1/(2k+1)!, and n terms serve |q| < _SERIES_Q_BOUNDS[n - 1],
# where the first omitted term, |q|**n / (2n)!, is below 1e-17; eight terms
# reach |q| = 0.35.
_SERIES_MAX_Q = 0.25
_SERIES_COEFFS = np.array(
    [[[1.0 / math.factorial(2 * k)], [1.0 / math.factorial(2 * k + 1)]] for k in range(8)]
)
_SERIES_Q_BOUNDS = tuple(
    (1e-17 * math.factorial(2 * n)) ** (1.0 / n) for n in range(1, len(_SERIES_COEFFS) + 1)
)


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
    for a numerical solve: the field sits on the base grid of ``_STEP``
    halved that many times) and ``richardson_error`` is the relative change
    of the fundamental matrix at the last halving; ``segments`` is 1 for a
    numerical solve.  All three are 0 for closed-form results, whose field
    sits on the grid of one halving.  ``field`` is built by ``_build_field``
    on first read and kept, so a caller that needs only the coefficients
    never pays for it.
    """

    omega: float
    transmission: complex
    reflection: complex
    absorption: float
    richardson_error: float
    refinements: int
    segments: int
    _build_field: Callable[[], TwoModeField] = dataclass_field(repr=False, compare=False)

    @cached_property
    def field(self) -> TwoModeField:
        return self._build_field()


def propagation_matrix(z, x, omega, config):
    """Coefficient matrix M with i d(E_right, E_left)/d zeta = M (E_right, E_left).

    Structure ``[[chi_r, chi_c e^{i phi}], [-chi_c e^{-i phi}, chi_l]]``,
    per unit zeta = z / z_b.  ``z`` may be a scalar or array of physical
    positions; the returned array has shape ``z.shape + (2, 2)``, and a
    scalar ``z`` gives the bits of the matching array element.  ``omega``
    must be nonzero: ``omega == 0`` raises ``SingularFrequencyError``, and
    the zero-frequency scattering is ``cw_analytic``.
    """
    dz = np.atleast_1d(np.asarray(z, dtype=float)) - x
    chi = susceptibilities(dz, omega, config)
    m = np.empty(dz.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = _matrix_entries(*chi, config.phi)
    return m[0] if np.ndim(z) == 0 else m


def _matrix_entries(chi_r, chi_l, chi_c, phi):
    """Entries (m00, m01, m10, m11) of M in ``propagation_matrix``; m00, m11 are chi_r, chi_l."""
    ephi = cmath.exp(1j * phi)
    return chi_r, chi_c * ephi, -chi_c * ephi.conjugate(), chi_l


def _build_nodes(length_zb: float) -> np.ndarray:
    return np.linspace(0.0, length_zb, max(1, math.ceil(length_zb / _STEP)) + 1)


def _halved(nodes):
    """``nodes`` with the midpoint of every step between them: the next level's grid."""
    out = np.empty(2 * nodes.size - 1)
    out[0::2] = nodes
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return out


def _mul(p, q):
    """Elementwise 2x2 products p @ q of component stacks, shape (4, ...).

    A component stack holds the entries (m00, m01, m10, m11) of a field of
    2x2 matrices as four arrays; on its (2, 2, ...) view the product is
    p[i, 0] q[0, k] + p[i, 1] q[1, k] for all i, k at once.
    """
    a = p.reshape((2, 2) + p.shape[1:])
    b = q.reshape((2, 2) + q.shape[1:])
    out = a[:, :1] * b[:1]
    out += a[:, 1:] * b[1:]
    return out.reshape(p.shape)


def _magnus_steps(h, a1, a2, a3):
    """Step matrices exp(Omega) as a component stack, and their traces tr Omega.

    The ODE integrated is d psi / d zeta = A psi with A = -1j M, sampled at
    the three Gauss-Legendre points ``_GAUSS_POINTS`` of each step of width
    ``h`` (``a1``, ``a2``, ``a3``).  Each step's sixth-order Magnus exponent
    (Blanes, Casas & Ros, BIT 40, 434 (2000)) is
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240
    with alpha1 = h A2, alpha2 = sqrt(15) h/3 (A3 - A1),
    alpha3 = 10 h/3 (A3 - 2 A2 + A1), C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1]/60, and its exponential is
    e^m [cosh s + sinh(s)/s (Omega - m)] with m, d and q = s**2 from
    ``_invariants``.  Both functions of s are taken as series in q where
    |q| <= ``_SERIES_MAX_Q``, so no root is needed and a nilpotent step
    (q = 0) is no special case.
    """
    alpha1 = h * a2
    alpha2 = (math.sqrt(15.0) / 3.0 * h) * (a3 - a1)
    alpha3 = (10.0 / 3.0 * h) * (a3 - 2.0 * a2 + a1)
    c1 = _commutator(alpha1, alpha2)
    c2 = _commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
    exponent = alpha1 + alpha3 / 12.0
    exponent += _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
    m, d, q, _ = _invariants(*exponent)
    abs_q = np.abs(q)
    q_max = float(np.max(abs_q))
    terms = next(
        (n for n, bound in enumerate(_SERIES_Q_BOUNDS, 1) if q_max < bound),
        len(_SERIES_COEFFS),
    )
    # rows: cosh s and sinh(s)/s, by Horner's rule in q
    series = _SERIES_COEFFS[terms - 1]
    for coeff in _SERIES_COEFFS[: terms - 1][::-1]:
        series = series * q + coeff
    if q_max > _SERIES_MAX_Q:
        wide = abs_q > _SERIES_MAX_Q
        s = np.sqrt(q[wide])
        series[0, wide] = np.cosh(s)
        series[1, wide] = np.sinh(s) / s
    cosh, sinhc = series * np.exp(m)
    steps = exponent * sinhc
    sinhc_d = sinhc * d
    np.add(cosh, sinhc_d, out=steps[0])
    np.subtract(cosh, sinhc_d, out=steps[3])
    return steps, 2.0 * m


def _commutator(a, b):
    """[a, b] = a @ b - b @ a of component stacks, in closed form.

    The commutator of 2x2 matrices is traceless: with da = a00 - a11 and
    db = b00 - b11 its entries are c00 = a01 b10 - a10 b01 = -c11,
    c01 = da b01 - db a01 and c10 = db a10 - da b10.
    """
    da = a[0] - a[3]
    db = b[0] - b[3]
    c = np.empty(a.shape, dtype=np.complex128)
    c[0] = a[1] * b[2] - a[2] * b[1]
    c[1] = da * b[1] - db * a[1]
    c[2] = db * a[2] - da * b[2]
    np.negative(c[0], out=c[3])
    return c


def _invariants(a00, a01, a10, a11):
    """``(m, d, q, a01 a10)`` of exp(A) = e^m [cosh s + sinh(s)/s (A - m)].

    For the 2x2 matrix A with entries ``a00 .. a11``: m = tr A / 2,
    d = (a00 - a11) / 2 and q = s**2 = d**2 + a01 a10.
    """
    m = 0.5 * (a00 + a11)
    d = 0.5 * (a00 - a11)
    a01_a10 = a01 * a10
    return m, d, d * d + a01_a10, a01_a10


def _tree_product(steps):
    """Product steps[..., -1] @ ... @ steps[..., 0] by pairwise tree reduction.

    The last axis is reduced; axes between the component axis and the last
    are batch axes, each row reduced with the pairing of an unbatched call.
    """
    p = steps
    while p.shape[-1] > 1:
        n = p.shape[-1] // 2
        q = _mul(p[..., 1 : 2 * n : 2], p[..., 0 : 2 * n : 2])
        if p.shape[-1] % 2:
            q = np.concatenate([q, p[..., -1:]], axis=-1)
        p = q
    return p[..., 0]


def _suffix_products(steps):
    """Suffix products S_k = steps[-1] @ ... @ steps[k], by doubling."""
    p = steps.copy()
    shift = 1
    while shift < p.shape[1]:
        p[:, :-shift] = _mul(p[:, shift:], p[:, :-shift])
        shift *= 2
    return p


def solve_bvp(omega, x, config):
    """Scattering of a unit probe at frequency ``omega`` off a gate at ``x``.

    Boundary conditions: E_right(0) = 1 and E_left(L) = 0.  ``omega`` must
    be finite and nonzero: ``omega == 0`` raises ``SingularFrequencyError``,
    and the zero-frequency scattering is ``cw_analytic``.
    """
    _check_values("omega", omega)
    _check_in_medium("x", x, config.L)
    scales = derive_scales(config)

    def level_steps(*grids):
        # the steps between each grid's nodes from one coefficient evaluation
        # on their Gauss points, in grid order
        h = np.concatenate([np.diff(g) for g in grids])
        left = np.concatenate([g[:-1] for g in grids])
        points = left + _GAUSS_POINTS[:, None] * h
        # -1j M as a C-ordered component stack, one evaluation per point
        m = propagation_matrix(points.ravel() * scales.z_b, x, omega, config)
        a = np.multiply(-1j, m.reshape(-1, 4).T, order="C").reshape(4, 3, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            return _magnus_steps(h, a[:, 0], a[:, 1], a[:, 2])

    # the Gauss points of two grids do not nest, so levels 0 and 1 share one
    # evaluation and one step build, and each further level builds its own
    base = _build_nodes(config.L / scales.z_b)
    nodes = _halved(base)
    steps, traces = level_steps(base, nodes)
    n = base.size - 1
    coarse, steps, traces = steps[:, :n], steps[:, n:], traces[n:]
    for level in range(1, _MAX_REFINEMENTS + 1):
        if level > 1:
            coarse = steps
            nodes = _halved(nodes)
            steps, traces = level_steps(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            # the pair products are the first round of this level's tree, so
            # one reduction of both stacks gives both fundamental matrices
            pairs = _mul(steps[:, 1::2], steps[:, 0::2])
            phis = _tree_product(np.stack([coarse, pairs], axis=1))
            # a modulus beyond the float range overflows too, finite parts or not
            finite = np.isfinite(np.abs(phis))
        if not finite.all():
            k = int(finite[:, 0].all())  # the coarser level first
            raise IllConditionedError(
                f"fundamental matrix overflows at refinement level {level - 1 + k} "
                f"({(coarse, steps)[k].shape[1]} steps)"
            )
        err = _relative_change(phis[:, 1], phis[:, 0])
        if not err > _RICHARDSON_TOL:  # a NaN change is accepted too
            break
    else:
        raise QuadratureError(
            f"step halving stalled at relative change {err:.3g} "
            f"(tolerance {_RICHARDSON_TOL:.3g})",
            achieved=err,
        )

    phi = phis[:, 1]
    if phi[3] == 0.0:
        raise IllConditionedError("boundary solve hit a vanishing pivot")
    r = -phi[2] / phi[3]
    # det Phi = exp(tr Omega summed over the steps)
    t = np.exp(np.sum(traces)) / phi[3]
    if not (np.isfinite(r) and np.isfinite(t)):
        raise IllConditionedError("boundary solve produced a non-finite coefficient")
    return ScatterResult(
        omega=float(omega),
        transmission=complex(t),
        reflection=complex(r),
        absorption=1.0 - abs(t) ** 2 - abs(r) ** 2,
        richardson_error=err,
        refinements=level,
        segments=1,
        _build_field=partial(_field, nodes * scales.z_b, steps, traces, r, t, phi[3]),
    )


def _relative_change(phi_f, phi):
    """Relative Frobenius change from ``phi`` to the finer ``phi_f``.

    Both norms are divided by max|phi_f|, so that no square overflows.
    """
    scale = max(1.0, float(np.max(np.abs(phi_f))))
    return float(
        np.linalg.norm(phi_f / scale - phi / scale)
        / max(1.0 / scale, np.linalg.norm(phi_f / scale))
    )


def _field(z, steps, traces, r, t, phi11):
    """Field on the nodes ``z`` of the accepted steps, from their suffix products.

    S_k maps the field at node k to (t, 0) at z = L, so psi_k = S_k^{-1} (t, 0),
    and t / det S_k = det P_k / phi11 with P_k the product of the steps before
    node k.
    """
    s = _suffix_products(steps)
    ratio = np.exp(np.cumsum(traces[:-1])) / phi11
    psi = np.empty((z.size, 2), dtype=np.complex128)
    psi[0] = (1.0, r)
    psi[1:-1, 0] = s[3, 1:] * ratio
    psi[1:-1, 1] = -s[2, 1:] * ratio
    psi[-1] = (t, 0.0)
    return TwoModeField(z=z, e_right=psi[:, 0], e_left=psi[:, 1])


def cw_analytic(x, config):
    """Closed-form zero-frequency scattering off a gate at ``x``.

    The cw coefficient matrix is nilpotent, so the fundamental matrix
    truncates after the linear term and everything is expressed through
    the running kernel integral nu(z): R = e^{-i phi} nu(L) / (1 + nu(L)).
    The field is built on first read, on the nodes ``solve_bvp`` accepts
    after one halving (40 steps per blockade radius).
    """
    _check_in_medium("x", x, config.L)
    scales = derive_scales(config)
    nu_total = nu(config.L, x, scales)
    t, r, loss = _cw_coefficients(nu_total.real, nu_total.imag, config.phi)
    return ScatterResult(
        omega=0.0,
        transmission=t,
        reflection=r,
        absorption=loss,
        richardson_error=0.0,
        refinements=0,
        segments=0,
        _build_field=partial(_cw_field, x, config, scales, nu_total, r, t),
    )


def _cw_field(x, config, scales, nu_total, r, t):
    """Closed-form cw field with end rows (1, r) and (t, 0), as in ``_field``.

    E_right = (1 + nu(L) - nu(z)) / (1 + nu(L)) and
    E_left = e^{-i phi} (nu(L) - nu(z)) / (1 + nu(L)), on the base grid
    halved once: the grid of ``solve_bvp`` at level 1.
    """
    z = _halved(_build_nodes(config.L / scales.z_b)) * scales.z_b
    rest = nu_total - nu(z[1:-1], x, scales)
    denom = 1.0 + nu_total
    psi = np.empty((z.size, 2), dtype=np.complex128)
    psi[0] = (1.0, r)
    psi[1:-1, 0] = (1.0 + rest) / denom
    psi[1:-1, 1] = cmath.exp(-1j * config.phi) * rest / denom
    psi[-1] = (t, 0.0)
    return TwoModeField(z=z, e_right=psi[:, 0], e_left=psi[:, 1])


def cw_bulk_coefficients(d_b, phi=0.0):
    """Deep-medium limit of the cw coefficients for blockade depth ``d_b``.

    Returns ``(transmission, reflection, absorption)`` with the kernel
    integral saturated at its infinite-medium value.  ``d_b >= 0`` may be a
    scalar or an array; the results match its shape (exactly (1, 0, 0) at 0).
    """
    _check_values("d_b", d_b, "nonnegative", array=True)
    _check_values("phi", phi)
    d_b = np.asarray(d_b, dtype=float)
    return _cw_coefficients(NU_INFINITY.real * d_b, NU_INFINITY.imag * d_b, phi)


def _cw_coefficients(nu_re, nu_im, phi):
    """``(t, r, A)`` of a gate whose kernel integral is ``nu = nu_re + 1j nu_im``.

    t = 1 / (1 + nu), r = e^{-i phi} nu / (1 + nu) and A = 1 - |t|**2 - |r|**2,
    in real arithmetic rounded as Python's complex product, quotient and
    ``abs`` (Smith's method on its ``|Re| >= |Im|`` branch: Re nu >= Im nu >= 0
    for a gate inside the medium), so array and scalar nu give the same bits.
    Scalar parts give Python ``complex``, ``complex`` and ``float``.
    """
    ratio = nu_im / (1.0 + nu_re)
    denom = (1.0 + nu_re) + nu_im * ratio
    e = cmath.exp(-1j * phi)
    a_re = e.real * nu_re - e.imag * nu_im
    a_im = e.real * nu_im + e.imag * nu_re
    t = 1.0 / denom + 1j * (-ratio / denom)
    r = (a_re + a_im * ratio) / denom + 1j * ((a_im - a_re * ratio) / denom)
    loss = 1.0 - _magnitude(t)[1] - _magnitude(r)[1]
    return _numbers((t, r, loss), np.ndim(loss) == 0)


def _magnitude(z):
    """``abs(z)`` and ``abs(z) ** 2`` of a complex array, rounded as Python does.

    ``np.hypot`` is the ``hypot`` that ``abs(complex)`` calls, and
    ``np.float_power`` calls ``pow`` as ``float ** 2`` does.
    """
    a = np.hypot(z.real, z.imag)
    return a, np.float_power(a, 2.0)


@dataclass(frozen=True)
class T0Spectrum:
    """Gate-free transmission/reflection spectrum of the bare medium."""

    omega: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray


def t0_spectrum(omega_grid, config) -> T0Spectrum:
    """Scattering spectrum of the uniform medium with no stored gate.

    The coefficients are z-independent, so the fundamental matrix is
    ``Phi = exp(A)`` with ``A = -1j M L`` (L in blockade radii), and a 2x2
    exponential has a closed form: with m, d and q from ``_invariants`` and
    s = sqrt(q) (principal root, Re s >= 0),
    ``Phi = e^m [cosh s + sinh(s) / s (A - m)]``.  The boundary solve gives
    ``r = -Phi10 / Phi11`` and
    ``t = det Phi / Phi11 = e^{2m} / Phi11``, evaluated as::

        t = 2 s e^{m - s} / D,   r = a10 expm1(-2 s) / D,
        D = (s - d) + (s + d) e^{-2 s} = 2 s + (s + d) expm1(-2 s)

    for all frequencies at once.  Nothing overflows on deep media, and
    nothing cancels: ``s - d`` is taken as ``a01 a10 / (s + d)`` when
    ``|s + d| >= |s - d|``, and the expm1 form of D serves ``|s| < 1``.
    The medium is exactly transparent at zero frequency, which is inserted
    directly rather than taken as a limit.
    """
    omega_grid = _check_grid("omega_grid", omega_grid)
    scales = derive_scales(config)
    live = omega_grid != 0.0
    # A = -1j M L by components, each input dropped once used to bound the peak memory
    factor = -1j * config.L / scales.z_b
    chi = free_susceptibilities(omega_grid[live], config)
    a00, a01, a10, a11 = (factor * entry for entry in _matrix_entries(*chi, config.phi))
    del chi
    m, d, q, a01_a10 = _invariants(a00, a01, a10, a11)
    del a00, a01, a11
    s = np.sqrt(q)
    del q
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


def transparency_width_study(config, rel_window=1e-3, n=21) -> WidthFit:
    """Fitted transparency width next to its closed-form prediction.

    Samples the gate-free transmission across ``rel_window`` times the
    predicted width.  The default window is deliberately deep inside the
    transparency dip: the omega -> 0 curvature includes an interference
    term between the two photon modes that dephases at larger detunings,
    and the closed-form width only captures the true zero-frequency limit.
    """
    if not 0.0 < rel_window <= 1.0:
        raise ValueError("rel_window must be in (0, 1]")
    if n < 7:
        raise ValueError("need at least 7 samples")
    predicted = derive_scales(config).delta_omega0
    grid = np.linspace(-rel_window * predicted, rel_window * predicted, n)
    return _width_fit(t0_spectrum(grid, config), predicted)


def _width_fit(t0_results: T0Spectrum, predicted: float) -> WidthFit:
    """The width fitted to ``t0_results`` next to ``predicted``, and their relative error."""
    fitted = fitted_transparency_width(t0_results)
    return WidthFit(fitted, predicted, abs(fitted - predicted) / predicted)
