"""Tests for the two-mode boundary-value solver and its closed forms.

The central check is dual-route: the numerical integrator against the
exact zero-frequency solution built from the kernel integral, pointwise
along the medium, over a sweep of depths and gate positions.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from polsim import propagation
from polsim.core_model import PhysicalConfig, derive_scales
from polsim.errors import (
    FitWindowError,
    GridError,
    IllConditionedError,
    PolsimError,
    QuadratureError,
    SingularFrequencyError,
)
from polsim.propagation import (
    _build_nodes,
    T0Spectrum,
    cw_analytic,
    cw_bulk_coefficients,
    fitted_transparency_width,
    propagation_matrix,
    solve_bvp,
    t0_spectrum,
    transparency_width_study,
)
from polsim.fidelity import reflection_spectrum
from polsim.susceptibility import free_susceptibilities


def make_config(d_b, L=24.0, **overrides):
    """Unit blockade radius (z_b = 1); G sets the depth per radius."""
    base = dict(
        G=float(np.sqrt(d_b)), Omega=1.0, OmegaS=1.0, gamma=1.0, phi=0.0,
        c=1.0, C6=1.0, L=L, x_gate=L / 2.0,
    )
    base.update(overrides)
    return PhysicalConfig(**base)


class TestPropagationMatrix:
    def test_cw_matrix_at_gate_point(self):
        cfg = make_config(5.0)
        m = propagation_matrix(12.0, 12.0, 0.0, cfg, cw=True)
        want = (-2.5j) * np.array([[1.0, -1.0], [1.0, -1.0]])
        assert np.allclose(m, want, atol=1e-14)

    def test_cw_matrix_vanishes_far_from_gate(self):
        cfg = make_config(5.0)
        m = propagation_matrix(22.0, 12.0, 0.0, cfg, cw=True)
        assert np.max(np.abs(m)) < 1e-4

    def test_determinant_is_phase_free(self):
        from polsim.susceptibility import susceptibilities

        omega = 0.37
        cfg0 = make_config(5.0)
        cfg1 = make_config(5.0, phi=1.3)
        scales = derive_scales(cfg0)
        for z in (11.5, 12.0, 14.0):
            m0 = propagation_matrix(z, 12.0, omega, cfg0)
            m1 = propagation_matrix(z, 12.0, omega, cfg1)
            d0 = np.linalg.det(m0)
            d1 = np.linalg.det(m1)
            assert d0 == pytest.approx(d1, rel=1e-12)
            # det = chi_r chi_l + chi_c**2; off-diagonal phases cancel
            chi = susceptibilities((z - 12.0) * scales.z_b, omega, cfg0, scales)
            want = chi.chi_r * chi.chi_l + chi.chi_c**2
            assert d0 == pytest.approx(want, rel=1e-12)

    def test_array_input_matches_scalars(self):
        cfg = make_config(2.0)
        zs = np.array([10.0, 12.0, 13.7])
        stacked = propagation_matrix(zs, 12.0, 0.25, cfg)
        assert stacked.shape == (3, 2, 2)
        for i, z in enumerate(zs):
            assert np.array_equal(stacked[i], propagation_matrix(z, 12.0, 0.25, cfg))


class TestSolveBvpCw:
    def test_numeric_matches_closed_form_pointwise(self):
        for d_b in (0.5, 1.0, 2.0, 5.0, 10.0):
            cfg = make_config(d_b)
            for x in (8.0, 12.0, 16.0):
                res = solve_bvp(0.0, x, cfg, cw=True)
                assert res.segments == 1
                stride = max(1, res.field.z.size // 20)
                sample = res.field.z[::stride]
                ana = cw_analytic(x, cfg, z=sample)
                assert res.transmission == pytest.approx(
                    ana.transmission, rel=1e-6
                )
                assert res.reflection == pytest.approx(ana.reflection, rel=1e-6)
                idx = np.searchsorted(res.field.z, sample)
                assert np.max(np.abs(res.field.e_right[idx] - ana.field.e_right)) < 1e-6
                assert np.max(np.abs(res.field.e_left[idx] - ana.field.e_left)) < 1e-6
                # boundary conditions and passivity
                assert res.field.e_right[0] == 1.0
                assert abs(res.field.e_left[-1]) < 1e-8
                assert -1e-10 <= res.absorption <= 1.0

    def test_finite_frequency_limit_reaches_cw(self):
        cfg = make_config(5.0)
        ana = cw_analytic(12.0, cfg)
        rp = solve_bvp(+1e-6, 12.0, cfg)
        rm = solve_bvp(-1e-6, 12.0, cfg)
        tavg = 0.5 * (rp.transmission + rm.transmission)
        ravg = 0.5 * (rp.reflection + rm.reflection)
        assert tavg == pytest.approx(ana.transmission, rel=1e-6)
        assert ravg == pytest.approx(ana.reflection, rel=1e-6)

    def test_input_validation(self):
        cfg = make_config(1.0)
        with pytest.raises(SingularFrequencyError):
            solve_bvp(0.0, 12.0, cfg)
        with pytest.raises(ValueError):
            solve_bvp(0.3, 12.0, cfg, cw=True)
        with pytest.raises(ValueError):
            solve_bvp(0.3, -1.0, cfg)
        with pytest.raises(ValueError):
            cw_analytic(25.0, cfg)

    def test_unreachable_tolerance_is_reported(self):
        # a deep, short medium with the gate on its edge: step halving
        # stalls just above the tolerance
        cfg = make_config(6.0, L=6.0)
        with pytest.raises(QuadratureError) as exc:
            solve_bvp(-1.0, 0.0, cfg)
        assert math.isfinite(exc.value.achieved)
        assert exc.value.achieved > propagation._RICHARDSON_TOL

    def test_overflowing_product_is_ill_conditioned(self):
        # d_b = 30 over 48 blockade radii at omega = gamma: the product of the
        # first level's steps overflows, which is no stalled halving
        cfg = make_config(30.0, L=48.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match=r"level 0 \(2250 steps\)"):
                solve_bvp(1.0, 24.0, cfg)


class TestSolveBvpFiniteFrequency:
    def test_phase_covariance(self):
        base = solve_bvp(0.3, 12.0, make_config(5.0))
        turned = solve_bvp(0.3, 12.0, make_config(5.0, phi=1.234))
        assert abs(turned.transmission - base.transmission) < 1e-10
        assert abs(turned.reflection - np.exp(-1.234j) * base.reflection) < 1e-10

    def test_reflection_spectrum_asymmetry(self):
        cfg = make_config(5.0)
        rp = solve_bvp(+0.1, 12.0, cfg)
        rm = solve_bvp(-0.1, 12.0, cfg)
        assert abs(rp.reflection) == pytest.approx(0.274720, abs=1e-3)
        assert abs(rm.reflection) == pytest.approx(0.306616, abs=1e-3)
        assert abs(abs(rp.reflection) - abs(rm.reflection)) > 0.02

    def test_forced_domain_splitting_is_equivalent(self):
        cfg = make_config(5.0)
        res = solve_bvp(0.3, 12.0, cfg)
        t, r, _, _ = reference_solve(0.3, 12.0, cfg, shoot=True)
        assert abs(res.transmission - t) < 1e-10
        assert abs(res.reflection - r) < 1e-10
        assert res.field.e_right[0] == 1.0
        assert res.field.e_left[-1] == 0.0

    def test_transmission_matches_mpmath_product(self):
        # cond(Phi) = 1.3e11 and |T| = 1.4e-8: in double precision the sum
        # T = Phi00 + Phi01 r is off by 5e-7 relative here, so the oracle
        # multiplies the accepted steps at 50 digits and takes T = det / Phi11
        cfg = make_config(3.0, L=12.0)
        res = solve_bvp(0.45, 6.3, cfg)
        _, steps = reference_steps(0.45, 6.3, cfg)
        with mpmath.workdps(50):
            p00, p01, p10, p11 = (mpmath.mpc(v) for v in (1, 0, 0, 1))
            for u in steps:
                u00, u01, u10, u11 = (mpmath.mpc(complex(v)) for v in u.ravel())
                p00, p01, p10, p11 = (
                    u00 * p00 + u01 * p10, u00 * p01 + u01 * p11,
                    u10 * p00 + u11 * p10, u10 * p01 + u11 * p11,
                )
            t = complex((p00 * p11 - p01 * p10) / p11)
        assert abs(res.transmission - t) <= 1e-11 * abs(t)


# Multiple shooting of the oracle: segment count, and the condition number of
# the fundamental matrix above which ``reference_solve`` shoots.
_REF_SEGMENTS = 32
_REF_COND_LIMIT = 1e12


def tree(u):
    """Product u[-1] @ ... @ u[0] of (n, 2, 2) steps by pairwise reduction."""
    while u.shape[0] > 1:
        n = u.shape[0] // 2
        q = u[1 : 2 * n : 2] @ u[0 : 2 * n : 2]
        u = np.concatenate([q, u[-1:]]) if u.shape[0] % 2 else q
    return u[0]


def halved(nodes):
    """Nodes (in blockade radii) with every step split at its midpoint."""
    return np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))


def rk4_steps(nodes, omega, x, config, cw=False):
    """(n, 2, 2) RK4 steps between ``nodes``, each coefficient evaluated afresh."""
    scales = derive_scales(config)
    eye = np.eye(2, dtype=complex)
    z = nodes * scales.z_b
    a1, a2, a3 = (
        -1j * propagation_matrix(pts, x, omega, config, scales, cw)
        for pts in (z[:-1], 0.5 * (z[:-1] + z[1:]), z[1:])
    )
    h = np.diff(nodes)[:, None, None]
    k1 = a1
    k2 = a2 @ (eye + 0.5 * h * k1)
    k3 = a2 @ (eye + 0.5 * h * k2)
    k4 = a3 @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_steps(omega, x, config, cw=False):
    """Nodes (in blockade radii) and (n, 2, 2) RK4 steps of the accepted level.

    Same nodes, RK4 scheme and Richardson test as ``solve_bvp``, but each
    level evaluates its three coefficient stacks afresh and the steps are
    multiplied with ``np.matmul``.
    """
    scales = derive_scales(config)
    nodes = _build_nodes(config.L / scales.z_b, x / scales.z_b)
    phi = tree(rk4_steps(nodes, omega, x, config, cw))
    for _ in range(propagation._MAX_REFINEMENTS):
        nodes = halved(nodes)
        u = rk4_steps(nodes, omega, x, config, cw)
        phi_f = tree(u)
        err = np.linalg.norm(phi_f - phi) / max(1.0, np.linalg.norm(phi_f))
        phi = phi_f
        if err <= propagation._RICHARDSON_TOL:
            break
    else:
        raise AssertionError("reference solve did not converge")
    return nodes, u


def reference_solve(omega, x, config, cw=False, shoot=False):
    """Straightforward solver the ratio-of-products kernel must reproduce.

    On the steps of ``reference_steps`` it takes T = Phi00 + Phi01 r and
    accumulates the field one step at a time, or, when cond(Phi) exceeds
    ``_REF_COND_LIMIT`` or ``shoot`` is set, splits the domain into
    ``_REF_SEGMENTS`` segments and solves one block system for the
    interface values (multiple shooting).  Returns (t, r, z, psi).
    """
    nodes, u = reference_steps(omega, x, config, cw)
    z = nodes * derive_scales(config).z_b

    def accumulate(u, psi0):
        out = [psi0]
        for step in u:
            out.append(step @ out[-1])
        return np.array(out)

    phi = tree(u)
    if not shoot and np.linalg.cond(phi) <= _REF_COND_LIMIT:
        r = -phi[1, 0] / phi[1, 1]
        psi = accumulate(u, np.array([1.0, r]))
        return psi[-1, 0], r, z, psi
    bounds = np.unique(np.linspace(0, len(u), _REF_SEGMENTS + 1).astype(int))
    m = bounds.size - 1
    size = 2 * (m + 1)
    block = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        block[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = tree(u[a:b])
        block[2 * j, 2 * j + 2] = block[2 * j + 1, 2 * j + 3] = -1.0
    block[size - 2, 0] = rhs[size - 2] = block[size - 1, size - 1] = 1.0
    sol = np.linalg.solve(block, rhs)
    psi = np.empty((len(z), 2), dtype=complex)
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        psi[a : b + 1] = accumulate(u[a:b], sol[2 * j : 2 * j + 2])
    return sol[size - 2], sol[1], z, psi


def criterion_10_config():
    twopi = 2.0 * np.pi
    gamma, c6, omega_s = twopi * 3.05e6, 3.573e-22, twopi * 20e6
    z_b = (c6 * gamma / omega_s**2) ** (1.0 / 6.0)
    l_abs = z_b / 5.0
    return PhysicalConfig(
        G=float(np.sqrt(3e8 * gamma / l_abs)), Omega=twopi * 5e6, OmegaS=omega_s,
        gamma=gamma, phi=0.0, c=3e8, C6=c6, L=25.0 * l_abs, x_gate=12.5 * l_abs,
    )


class TestKernelAgainstStackedReference:
    """The ratio-of-products kernel against ``reference_solve``."""

    @staticmethod
    def assert_same(omega, x, cfg, cw=False, shoot=False):
        res = solve_bvp(omega, x, cfg, cw=cw)
        t, r, z, psi = reference_solve(omega, x, cfg, cw, shoot)
        assert abs(res.transmission - t) <= 1e-12
        assert abs(res.reflection - r) <= 1e-12
        assert np.array_equal(res.field.z, z)
        assert np.max(np.abs(res.field.e_right - psi[:, 0])) <= 1e-10
        assert np.max(np.abs(res.field.e_left - psi[:, 1])) <= 1e-10

    def test_criterion_10_medium(self):
        cfg = criterion_10_config()
        for omega in (-2.5e7, -1.25e5, 3.0e6, 2.5e7):
            self.assert_same(omega, cfg.x_gate, cfg)

    def test_deep_unit_medium_matches_shooting(self):
        # cond(Phi) exceeds the oracle's limit here, so the oracle shoots
        self.assert_same(0.45, 12.3, make_config(5.0))

    def test_forced_domain_splitting(self):
        self.assert_same(0.3, 12.0, make_config(5.0), shoot=True)

    def test_cw_kernel(self):
        self.assert_same(0.0, 8.0, make_config(2.0), cw=True)


class TestAcceptedGridAgainstFinestGrid:
    """Accepted solves against a plain RK4 product on the finest grid.

    The oracle multiplies the steps of ``_build_nodes`` halved
    ``_MAX_REFINEMENTS`` times (3200 per blockade radius near the gate) and
    applies no Richardson test, so it bounds what accepting the first
    agreeing pair of grids costs in R and T.
    """

    @pytest.mark.parametrize(
        "omega, x, cfg, cw, refinements",
        [
            *(
                (omega, criterion_10_config().x_gate, criterion_10_config(), False, 1)
                for omega in (-2.5e7, -2.5e6, -2.5e5, 2.5e5, 2.5e6, 2.5e7)
            ),
            (0.0, 12.0, make_config(5.0), True, 1),
            (0.45, 12.0, make_config(5.0), False, 4),
        ],
    )
    def test_matches_finest_grid(self, omega, x, cfg, cw, refinements):
        res = solve_bvp(omega, x, cfg, cw=cw)
        assert res.refinements == refinements
        z_b = derive_scales(cfg).z_b
        nodes = _build_nodes(cfg.L / z_b, x / z_b)
        for _ in range(propagation._MAX_REFINEMENTS):
            nodes = halved(nodes)
        u = rk4_steps(nodes, omega, x, cfg, cw)
        phi = tree(u)
        r = -phi[1, 0] / phi[1, 1]
        t = np.prod(np.linalg.det(u)) / phi[1, 1]
        assert abs(res.reflection - r) <= 1e-9 * abs(r)
        assert abs(res.transmission - t) <= 1e-9 * abs(t)
        # the accepted grid is no coarser than the base grid halved once
        zeta = res.field.z / z_b
        steps = np.diff(zeta)
        near = np.abs(0.5 * (zeta[:-1] + zeta[1:]) - x / z_b) < propagation._WINDOW
        assert np.max(steps[near]) <= (1.0 + 1e-9) / 400.0
        assert np.max(steps[~near], initial=0.0) <= (1.0 + 1e-9) / 50.0

    def test_closed_form_has_no_refinements(self):
        assert cw_analytic(12.0, make_config(5.0)).refinements == 0


class TestFieldOnFirstRead:
    def test_reflection_spectrum_builds_no_field(self, monkeypatch):
        def never(updates):
            raise AssertionError("the field was built")

        monkeypatch.setattr(propagation, "_suffix_products", never)
        cfg = criterion_10_config()
        omegas = np.array([-2.5e7, -1.25e5, 3.0e6, 2.5e7])
        r1 = reflection_spectrum(omegas, cfg)
        for omega, r in zip(omegas, r1):
            assert r == solve_bvp(omega, cfg.x_gate, cfg).reflection
        monkeypatch.undo()
        res = solve_bvp(omegas[0], cfg.x_gate, cfg)
        assert res.field is res.field


class TestSolveBvpProperties:
    @given(
        d_b=st.floats(min_value=0.2, max_value=5.0),
        x_frac=st.floats(min_value=0.0, max_value=1.0),
        omega=st.floats(min_value=0.02, max_value=0.5),
        sign=st.sampled_from([-1.0, 1.0]),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=15, deadline=None)
    def test_passive_and_phase_covariant(self, d_b, x_frac, omega, sign, phi):
        length = 6.0
        x = x_frac * length
        base = solve_bvp(sign * omega, x, make_config(d_b, L=length))
        turned = solve_bvp(sign * omega, x, make_config(d_b, L=length, phi=phi))
        for res in (base, turned):
            assert res.absorption >= -1e-12
        assert abs(turned.transmission - base.transmission) <= 1e-10
        assert abs(turned.reflection - np.exp(-1j * phi) * base.reflection) <= 1e-10

    @given(
        d_b=st.floats(min_value=0.5, max_value=8.0),
        length=st.floats(min_value=2.0, max_value=8.0),
        x_frac=st.floats(min_value=0.0, max_value=1.0),
        omega=st.floats(min_value=1e-3, max_value=1.0),
        sign=st.sampled_from([-1.0, 1.0]),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=25, deadline=None)
    def test_shallow_media_are_passive_and_phase_covariant(
        self, d_b, length, x_frac, omega, sign, phi
    ):
        # inputs the solver refuses (a stalled halving, an overflow, a pole)
        # are skipped and named in the hypothesis statistics
        x = x_frac * length
        try:
            base = solve_bvp(sign * omega, x, make_config(d_b, L=length))
            turned = solve_bvp(sign * omega, x, make_config(d_b, L=length, phi=phi))
        except PolsimError as exc:
            event(f"skipped: {type(exc).__name__}")
            assume(False)
        for res in (base, turned):
            assert res.absorption >= -1e-10
        assert abs(turned.reflection - np.exp(-1j * phi) * base.reflection) <= 1e-10

    @given(
        d_b=st.floats(min_value=0.2, max_value=5.0),
        x_frac=st.floats(min_value=1.0 / 3.0, max_value=2.0 / 3.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=6, deadline=None)
    def test_tends_to_cw_closed_form(self, d_b, x_frac, sign):
        # the gap is linear in omega: |dR| grows to ~22 |omega| at d_b = 5 with
        # the gate at 2L/3, and |dT| stays near 6 |omega| at every d_b, about
        # the free phase omega L / c of this L = 6 z_b medium
        omega = sign * 1e-3
        length = 6.0
        config = make_config(d_b, L=length)
        x = x_frac * length
        res = solve_bvp(omega, x, config)
        closed = cw_analytic(x, config)
        bound = 5.0 * abs(omega) * (2.0 + d_b)
        assert abs(res.reflection - closed.reflection) <= bound
        assert abs(res.transmission - closed.transmission) <= bound


class TestBulkCoefficients:
    def test_frozen_depth_table(self):
        table = {
            0.5: (0.634898, 0.373142, 0.457670),
            1.0: (0.463618, 0.544954, 0.488083),
            2.0: (0.300581, 0.706630, 0.410325),
            5.0: (0.146028, 0.858234, 0.242111),
            10.0: (0.078598, 0.923873, 0.140281),
        }
        for d_b, (t_mag, r_mag, loss) in table.items():
            t, r, a = cw_bulk_coefficients(d_b)
            assert abs(t) == pytest.approx(t_mag, abs=1e-6)
            assert abs(r) == pytest.approx(r_mag, abs=1e-6)
            assert a == pytest.approx(loss, abs=1e-6)

    def test_deep_medium_example(self):
        t, r, a = cw_bulk_coefficients(20.0)
        assert abs(r) ** 2 == pytest.approx(0.922522, abs=1e-5)
        assert a == pytest.approx(0.075809, abs=1e-5)
        assert a < cw_bulk_coefficients(5.0)[2]

    def test_shallow_limit_and_phase(self):
        t, r, a = cw_bulk_coefficients(1e-12)
        assert t == pytest.approx(1.0, abs=1e-11)
        assert abs(r) < 1e-11
        _, r5, _ = cw_bulk_coefficients(5.0, phi=0.9)
        _, r0, _ = cw_bulk_coefficients(5.0, phi=0.0)
        assert r5 == pytest.approx(np.exp(-0.9j) * r0, rel=1e-12)

    def test_array_input_matches_scalars(self):
        d_b = np.linspace(0.01, 100.0, 501)
        t, r, a = cw_bulk_coefficients(d_b, phi=0.9)
        scalars = [cw_bulk_coefficients(float(d), phi=0.9) for d in d_b]
        assert list(zip(t.tolist(), r.tolist(), a.tolist())) == scalars

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            cw_bulk_coefficients(0.0)
        with pytest.raises(ValueError):
            cw_bulk_coefficients(np.array([1.0, -1.0]))


class TestT0Spectrum:
    def test_resonance_is_exactly_transparent(self):
        spec = t0_spectrum(np.array([-0.1, 0.0, 0.1]), make_config(5.0))
        assert spec.transmission[1] == 1.0 + 0.0j
        assert spec.reflection[1] == 0.0 + 0.0j

    def test_transmission_magnitude_is_even(self):
        cfg = make_config(5.0)
        spec = t0_spectrum(np.linspace(-0.5, 0.5, 21), cfg)
        mags = np.abs(spec.transmission)
        assert np.max(np.abs(mags - mags[::-1])) < 1e-8

    def test_passivity(self):
        # the unit medium is 24 blockade radii deep: |T0| falls to 3e-39 near
        # omega = gamma, where T0 must not come from a cancelling sum
        cfg = make_config(5.0)
        for grid in (np.linspace(-0.5, 0.5, 21), np.linspace(-2.0, 2.0, 2001)):
            spec = t0_spectrum(grid, cfg)
            power = np.abs(spec.transmission) ** 2 + np.abs(spec.reflection) ** 2
            assert np.all(power <= 1.0 + 1e-10)

    def test_single_ladder_limit_when_second_leg_dominates(self):
        # huge OmegaS freezes out the backward mode; |T| follows the
        # scalar ladder attenuation and the reflection dies
        cfg = PhysicalConfig(G=1.0, Omega=1.0, OmegaS=1e6, gamma=1.0,
                             phi=0.0, c=1.0, C6=1.0, L=30.0, x_gate=15.0)
        scales = derive_scales(cfg, allow_oversized_blockade=True)
        ws = np.array([0.05, 0.1, 0.2])
        spec = t0_spectrum(ws, cfg, scales)
        for w, t, r in zip(ws, spec.transmission, spec.reflection):
            xi = w + 1j * cfg.gamma - cfg.Omega**2 / w
            scalar = np.exp(-cfg.L * cfg.G**2 * cfg.gamma / (cfg.c * abs(xi) ** 2))
            assert abs(t) == pytest.approx(scalar, rel=1e-6)
            assert abs(r) < 1e-10

    def test_matches_independent_integrator(self):
        cfg = make_config(5.0)
        scales = derive_scales(cfg)
        ws = [0.05, 0.2]
        spec = t0_spectrum(np.array(ws), cfg, scales)
        for w, t_ref, r_ref in zip(ws, spec.transmission, spec.reflection):
            chi = free_susceptibilities(w, cfg, scales)
            m = np.array([
                [chi.chi_r, chi.chi_c],
                [-chi.chi_c, chi.chi_l],
            ])

            def rhs(_, y):
                return (-1j * m @ y.reshape(2, 2)).ravel()

            sol = solve_ivp(rhs, (0.0, cfg.L / scales.z_b),
                            np.eye(2, dtype=complex).ravel(),
                            rtol=1e-11, atol=1e-12)
            phi = sol.y[:, -1].reshape(2, 2)
            r = -phi[1, 0] / phi[1, 1]
            t = phi[0, 0] + phi[0, 1] * r
            assert t == pytest.approx(t_ref, rel=1e-8)
            assert r == pytest.approx(r_ref, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("omega", [0.05, 0.3, 1.0, 2.0])
    def test_matches_mpmath_oracle_on_deep_medium(self, omega):
        # exp(A L) in 160 digits: T = Phi00 + Phi01 r cancels by up to ~95
        # digits on this medium, so the oracle carries enough to spare
        cfg = make_config(5.0)
        scales = derive_scales(cfg)
        spec = t0_spectrum(np.array([omega]), cfg, scales)
        chi = free_susceptibilities(omega, cfg, scales)
        with mpmath.workdps(160):
            a = -1j * mpmath.matrix([
                [mpmath.mpc(chi.chi_r), mpmath.mpc(chi.chi_c)],
                [-mpmath.mpc(chi.chi_c), mpmath.mpc(chi.chi_l)],
            ])
            phi = mpmath.expm(a * mpmath.mpf(cfg.L / scales.z_b))
            r = -phi[1, 0] / phi[1, 1]
            t = complex(phi[0, 0] + phi[0, 1] * r)
            r = complex(r)
        assert abs(spec.transmission[0] - t) <= 1e-12 * abs(t)
        assert abs(spec.reflection[0] - r) <= 1e-14

    def test_matches_expm_on_shallow_medium(self):
        # optical depth low enough for T = Phi00 + Phi01 r in double precision
        cfg = make_config(1.0, L=6.0, phi=0.4)
        scales = derive_scales(cfg)
        ws = np.array([-1.0, -0.2, 0.05, 0.3, 1.5])
        spec = t0_spectrum(ws, cfg, scales)
        ephi = np.exp(1j * cfg.phi)
        for w, t_ref, r_ref in zip(ws, spec.transmission, spec.reflection):
            chi = free_susceptibilities(w, cfg, scales)
            m = np.array([
                [chi.chi_r, chi.chi_c * ephi],
                [-chi.chi_c * np.conj(ephi), chi.chi_l],
            ])
            phi = scipy.linalg.expm(-1j * m * cfg.L / scales.z_b)
            r = -phi[1, 0] / phi[1, 1]
            t = phi[0, 0] + phi[0, 1] * r
            assert abs(t_ref - t) <= 1e-12 * abs(t)
            assert abs(r_ref - r) <= 1e-12 * abs(r)

    def test_grid_validation(self):
        with pytest.raises(GridError):
            t0_spectrum(np.zeros((2, 2)), make_config(1.0))
        with pytest.raises(GridError):
            t0_spectrum(np.array([]), make_config(1.0))


def width_config(ratio):
    return PhysicalConfig(G=0.1, Omega=1.0, OmegaS=ratio, gamma=0.5, phi=0.0,
                          c=1.0, C6=1.0, L=1250.0, x_gate=625.0)


class TestTransparencyWidth:
    def test_fit_matches_closed_form_at_all_leg_ratios(self):
        for ratio in (1.0, 2.0, 4.0):
            fit = transparency_width_study(width_config(ratio))
            assert fit.rel_error < 0.01
            assert fit.fitted <= derive_scales(
                width_config(ratio), allow_oversized_blockade=True
            ).gamma_eit * 1.001

    def test_width_grows_with_second_leg(self):
        fits = [transparency_width_study(width_config(r)).fitted for r in (1.0, 4.0)]
        assert fits[1] > fits[0]

    def test_width_shrinks_with_depth(self):
        shallow = derive_scales(width_config(2.0), allow_oversized_blockade=True)
        cfg_deep = PhysicalConfig(G=0.1, Omega=1.0, OmegaS=2.0, gamma=0.5,
                                  phi=0.0, c=1.0, C6=1.0, L=2500.0, x_gate=625.0)
        deep = derive_scales(cfg_deep, allow_oversized_blockade=True)
        assert deep.delta_omega0 < shallow.delta_omega0

    def test_too_wide_sampling_is_rejected(self):
        cfg = width_config(1.0)
        scales = derive_scales(cfg, allow_oversized_blockade=True)
        wide = t0_spectrum(
            np.linspace(-5.0, 5.0, 9) * scales.delta_omega0, cfg, scales
        )
        with pytest.raises(FitWindowError):
            fitted_transparency_width(wide)

    def test_flat_spectrum_has_no_width(self):
        grid = np.linspace(-1.0, 1.0, 11)
        flat = T0Spectrum(
            omega=grid,
            transmission=np.ones(11, dtype=complex),
            reflection=np.zeros(11, dtype=complex),
        )
        with pytest.raises(FitWindowError):
            fitted_transparency_width(flat)
