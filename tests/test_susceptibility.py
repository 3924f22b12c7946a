"""Tests for the gated two-mode susceptibilities and the CW kernel.

The finite-frequency formulas are checked against an independently coded
symbolic route (sympy, 30-digit evaluation), and the accumulated CW response
nu against a dense-grid trapezoid oracle and 30-digit mpmath quadrature.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim.core_model import PhysicalConfig, derive_scales
from polsim.errors import SingularFrequencyError, SusceptibilityPoleError
from polsim.susceptibility import (
    NU_INFINITY,
    _sixth_power,
    _vdw_or_inf,
    free_susceptibilities,
    nu,
    susceptibilities,
    xi,
)


def make_config(**overrides):
    base = dict(
        G=3.0, Omega=0.5, OmegaS=2.0, gamma=1.0, phi=0.0,
        c=1.0, C6=4.0, L=30.0, x_gate=15.0,
    )
    base.update(overrides)
    return PhysicalConfig(**base)


CFG = make_config()
SCALES = derive_scales(CFG)  # z_b = 1, l_abs = 1/9, d_b = 9


class TestXi:
    def test_on_resonance_with_matched_rabi(self):
        cfg = make_config(Omega=1.0)
        assert xi(1.0, cfg) == pytest.approx(1j, abs=1e-15)

    def test_divergence_toward_zero_frequency(self):
        cfg = make_config()
        for omega in (1e-3, 1e-6):
            val = xi(omega, cfg)
            assert val.real == pytest.approx(-cfg.Omega**2 / omega + omega, rel=1e-12)
            assert val.imag == cfg.gamma

    def test_zero_frequency_raises(self):
        with pytest.raises(SingularFrequencyError, match="cw_analytic"):
            xi(0.0, make_config())


def _symbolic_triple(dz, omega, cfg, crossing=False):
    """Independent route: literal formulas via sympy in exact rationals.

    The inputs enter as the exact values of their doubles and the result is
    evaluated to 30 digits.  Where the literal formulas are singular, the
    value is a limit in ``V``: ``V -> oo`` at the gate point ``dz = 0``, and
    ``V -> omega`` at the crossing (``crossing=True``, ``dz`` ignored).
    """
    w, g, Om, OmS, G, c, V = sympy.symbols("w g Om OmS G c V")
    xi_s = w + sympy.I * g - Om**2 / w
    s = OmS**2 / (w - V)
    D = xi_s * (xi_s - s) - Om**4 / w**2
    chi_r = -w / c + (G**2 / c) * (xi_s - s) / D
    chi_l = w / c - (G**2 / c) * xi_s / D
    chi_c = (G**2 / c) * (Om**2 / w) / D
    subs = {
        sym: sympy.Rational(value)
        for sym, value in (
            (w, omega), (g, cfg.gamma), (Om, cfg.Omega), (OmS, cfg.OmegaS),
            (G, cfg.G), (c, cfg.c),
        )
    }
    if crossing:
        at = subs[w]
    elif dz == 0.0:
        at = sympy.oo
    else:
        at = sympy.Rational(cfg.C6) / sympy.Rational(dz) ** 6
    z_b = derive_scales(cfg).z_b
    out = []
    for expr in (chi_r, chi_l, chi_c):
        expr = expr.subs(subs)
        val = sympy.limit(expr, V, at) if crossing or dz == 0.0 else expr.subs(V, at)
        out.append(complex(z_b * val.evalf(30)))
    return tuple(out)


class TestSusceptibilities:
    def _assert_matches_oracle(self, dz, omega, crossing=False):
        got = susceptibilities(dz, omega, CFG)
        want = _symbolic_triple(dz, omega, CFG, crossing=crossing)
        for g, wv in zip(got, want):
            assert abs(g - wv) <= 1e-12 * max(1.0, abs(wv))

    def test_matches_symbolic_oracle_at_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            dz = float(rng.uniform(0.3, 4.0))
            omega = float(rng.uniform(0.05, 2.0) * (1 if rng.random() < 0.5 else -1))
            self._assert_matches_oracle(dz, omega)
        for omega in (-1.3, 0.05, 0.7):
            # gate point (V = oo), V = 4e18, nearly free medium
            for dz in (0.0, 1e-3, 50.0):
                self._assert_matches_oracle(dz, omega)
        # the crossing V == omega, where the bare detuned-leg term has a
        # cancelling pole
        for omega in (0.05, 0.7, 3.0):
            dz = (CFG.C6 / omega) ** (1.0 / 6.0)
            self._assert_matches_oracle(dz, omega, crossing=True)

    def test_blockaded_point_tends_to_cw_kernel(self):
        # At the gate point the leg is fully blockaded; as omega -> 0+ the
        # forward susceptibility approaches -1j * d_b / 2 and the three
        # susceptibilities collapse onto a single function.
        want = -0.5j * SCALES.d_b
        err_prev = None
        for omega in (1e-3, 1e-5):
            chi_r, chi_l, chi_c = susceptibilities(0.0, omega, CFG)
            err = abs(chi_r - want)
            assert abs(chi_l + chi_r) < 1e-2 * abs(chi_r) * omega / CFG.gamma * 1e3 + 1e-9
            assert abs(chi_c + chi_r) < 1e-2 * abs(chi_r) * omega / CFG.gamma * 1e3 + 1e-9
            if err_prev is not None:
                assert err < err_prev
            err_prev = err
        assert err_prev < 1e-4 * SCALES.d_b

    def test_far_from_gate_reduces_to_free_response(self):
        omega = 0.3
        far = susceptibilities(50.0, omega, CFG)
        free = free_susceptibilities(omega, CFG)
        for a, b in zip(far, free):
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_free_medium_transparent_at_zero_detuning(self):
        # V = 0: all three susceptibilities vanish linearly as omega -> 0+.
        t1 = free_susceptibilities(1e-4, CFG)
        t2 = free_susceptibilities(1e-6, CFG)
        for a, b in zip(t1, t2):
            assert abs(b) < abs(a)
        assert abs(t2[0]) < 1e-4 * SCALES.d_b

    def test_free_susceptibilities_broadcast_over_omega(self):
        # a scalar gives the bits of the matching array element
        rng = np.random.default_rng(11)
        omegas = np.concatenate(
            [[-3.0, -0.3, 1e-6, 0.5, 7.0], rng.uniform(-5.0, 5.0, 200)]
        )
        arrays = free_susceptibilities(omegas, CFG)
        for i, omega in enumerate(omegas):
            scalar = free_susceptibilities(float(omega), CFG)
            for a, b in zip(arrays, scalar, strict=True):
                assert type(b) is complex
                assert a[i] == b
        with pytest.raises(SingularFrequencyError):
            free_susceptibilities(np.array([0.5, 0.0]), CFG)

    def test_susceptibilities_broadcast_over_dz(self):
        # a scalar gives the bits of the matching array element
        rng = np.random.default_rng(12)
        dz = np.concatenate([[0.0, -1.3, 1e-3, 50.0], rng.uniform(-5.0, 5.0, 200)])
        arrays = susceptibilities(dz, 0.7, CFG)
        scalars = [susceptibilities(float(d), 0.7, CFG) for d in dz]
        assert all(type(c) is complex for triple in scalars for c in triple)
        for array, column in zip(arrays, zip(*scalars), strict=True):
            assert np.array(column).tobytes() == array.tobytes()

    def test_cross_coupling_alive_at_finite_detuning_without_gate(self):
        _, _, chi_c = free_susceptibilities(0.5, CFG)
        assert abs(chi_c) > 1e-3

    def test_zero_frequency_refused(self):
        with pytest.raises(SingularFrequencyError, match="cw_analytic"):
            susceptibilities(1.0, 0.0, CFG)

    def test_pole_error_names_the_offending_point(self):
        # With gamma > 0 the denominator never vanishes exactly; the check
        # fires only when omega comes within about 1e-13 * Omega**2 / gamma of
        # the removable singularity at omega = 0, and there only where V is
        # large (the gate point, or dz = 1e-3 with V = 1e18).
        unit = make_config(G=math.sqrt(5.0), Omega=1.0, OmegaS=1.0, C6=1.0)
        with pytest.raises(SusceptibilityPoleError) as info:
            susceptibilities(np.array([3.0, 1e-3, 5.0]), 1e-14, unit)
        assert info.value.dz == 1e-3
        assert info.value.omega == 1e-14
        with pytest.raises(SusceptibilityPoleError) as info:
            susceptibilities(0.0, 1e-14, unit)
        assert info.value.dz == 0.0
        chi_r, _, _ = susceptibilities(np.array([3.0, 1e-3, 5.0]), 1e-12, unit)
        assert np.all(np.isfinite(chi_r))


def chi0_cw(dz, scales):
    """CW kernel ``d_b / ((dz/z_b)**6 + 2j)``; accepts scalars or arrays.

    The integrand of ``nu``, kept here as the trapezoid oracle's kernel.  It
    is the rescaled forward susceptibility of a resonant probe and equals
    ``-1j * d_b / 2`` at the gate point.
    """
    u = np.asarray(dz, dtype=float) / scales.z_b
    out = scales.d_b / (_sixth_power(u) + 2j)
    if np.ndim(dz) == 0:
        return complex(out)
    return out


class TestChi0Cw:
    def test_gate_point_value(self):
        assert chi0_cw(0.0, SCALES) == pytest.approx(-0.5j * SCALES.d_b, abs=1e-15)

    def test_three_blockade_radii(self):
        cfg = make_config(G=math.sqrt(5.0))  # d_b = 5 with z_b = 1, c = gamma = 1
        scales = derive_scales(cfg)
        assert scales.d_b == pytest.approx(5.0, rel=1e-12)
        got = chi0_cw(3.0 * scales.z_b, scales)
        want = 5.0 / (729.0 + 2j)
        assert got == pytest.approx(want, rel=1e-14)

    @given(dz=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_even_bounded_and_lossy(self, dz):
        val_p = chi0_cw(dz, SCALES)
        val_m = chi0_cw(-dz, SCALES)
        assert val_p == val_m
        assert abs(val_p) <= 0.5 * SCALES.d_b * (1 + 1e-12)
        assert val_p.imag < 0.0

    def test_vectorized_matches_scalar(self):
        dz = np.linspace(-4.0, 4.0, 17)
        arr = chi0_cw(dz, SCALES)
        assert np.allclose(arr, [chi0_cw(float(u), SCALES) for u in dz])


EPS = np.finfo(float).eps


class TestSixthPower:
    """``_sixth_power`` takes dz**6 by multiplication, in ``_vdw_or_inf`` and
    in the test kernel ``chi0_cw``."""

    def test_vdw_matches_pow_within_4_ulp(self):
        # three roundings in the product and one in the quotient: at most
        # 3.5 eps relative from numpy's pow route
        rng = np.random.default_rng(7)
        dz = rng.uniform(-5.0, 5.0, 4000) * 10.0 ** rng.uniform(-3.0, 3.0, 4000)
        want = CFG.C6 / dz**6
        got = _vdw_or_inf(dz, CFG)
        assert np.all(np.abs(got - want) <= 4.0 * EPS * want)
        # even in dz, bit for bit
        assert np.array_equal(_vdw_or_inf(-dz, CFG), got)

    def test_vdw_extremes_raise_no_warning(self):
        dz = np.array([0.0, 1e-60, -1e-60, 1e60, -1e60])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _vdw_or_inf(dz, CFG)
        assert np.array_equal(got, [np.inf, np.inf, np.inf, 0.0, 0.0])
        assert _vdw_or_inf(0.0, CFG) == np.inf

    def test_cw_kernel_matches_pow(self):
        rng = np.random.default_rng(8)
        dz = rng.uniform(-5.0, 5.0, 4000)
        want = SCALES.d_b / ((dz / SCALES.z_b) ** 6 + 2j)
        got = chi0_cw(dz, SCALES)
        assert np.all(np.abs(got - want) <= 8.0 * EPS * np.abs(want))


class TestNu:
    def test_zero_interval(self):
        assert nu(0.0, 0.3, SCALES) == 0.0

    def test_matches_dense_trapezoid_oracle(self):
        # Independent route: brute-force trapezoid on a very fine grid.
        rng = np.random.default_rng(3)
        for _ in range(4):
            z = float(rng.uniform(2.0, 12.0))
            x = float(rng.uniform(0.0, z))
            zs = np.linspace(0.0, z, 400001)
            f = chi0_cw(zs - x, SCALES)
            brute = 1j * np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(zs))
            assert nu(z, x, SCALES) == pytest.approx(brute, abs=5e-8 * SCALES.d_b)

    def test_bulk_limit_when_gate_is_deep(self):
        val = nu(40.0, 20.0, SCALES)
        assert abs(val - SCALES.d_b * NU_INFINITY) < 1e-4 * abs(SCALES.d_b * NU_INFINITY)

    def test_half_bulk_at_the_gate_point(self):
        val = nu(20.0, 20.0, SCALES)  # integrate only the left half of the kernel
        assert val == pytest.approx(0.5 * SCALES.d_b * NU_INFINITY, rel=1e-4)

    def test_real_part_grows_monotonically_through_the_sphere(self):
        x = 6.0
        vals = [nu(z, x, SCALES).real for z in np.linspace(0.5, 12.0, 24)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            nu(-1.0, 0.0, SCALES)
        with pytest.raises(ValueError):
            nu(np.array([1.0, -1.0]), 0.0, SCALES)

    def test_matches_mpmath_oracle_on_long_media(self):
        # 30-digit quadrature split at the kernel's shoulders; media up to
        # 1e5 blockade radii, where adaptive double quadrature drifts
        mpmath.mp.dps = 30
        try:
            for z, x in ((3.0, 1.0), (40.0, 20.0), (1e4, 0.0), (1e4, 1e4),
                         (1e5, 0.0), (1e5, 5e4), (1e5, 99990.5)):
                zr, xr = mpmath.mpf(z), mpmath.mpf(x)
                cuts = [p for p in (xr - 3, xr - 1, xr, xr + 1, xr + 3) if 0 < p < zr]
                ref = 1j * mpmath.quad(
                    lambda u: SCALES.d_b / ((u - xr) ** 6 + 2j), [0, *cuts, zr]
                )
                assert abs(nu(z, x, SCALES) - complex(ref)) <= 1e-13 * SCALES.d_b
        finally:
            mpmath.mp.dps = 15

    def test_array_input_matches_scalars(self):
        zs = np.array([0.0, 0.7, 5.0, 30.0])
        xs = np.array([[0.0], [15.0]])
        arr = nu(zs, xs, SCALES)
        assert arr.shape == (2, 4)
        for i, x in enumerate(xs[:, 0]):
            for j, z in enumerate(zs):
                # a Python complex with the bits of the array element
                scalar = nu(float(z), float(x), SCALES)
                assert type(scalar) is complex
                assert np.complex128(scalar).tobytes() == arr[i, j].tobytes()


class TestNuInfinity:
    def test_analytic_value_against_quadrature(self):
        from scipy.integrate import quad

        val, _ = quad(
            lambda z: 1.0 / (z**6 + 2j),
            -1e4,
            1e4,
            points=[-3.0, -1.0, 0.0, 1.0, 3.0],
            limit=400,
            epsabs=1e-13,
            epsrel=1e-12,
            complex_func=True,
        )
        assert abs(1j * val - NU_INFINITY) < 1e-10

    def test_printed_constant(self):
        assert NU_INFINITY.real == pytest.approx(1.13538738, abs=1e-8)
        assert NU_INFINITY.imag == pytest.approx(0.30422613, abs=1e-8)
