"""Tests for the two-mode boundary-value solver and its closed forms.

The solver runs at finite frequency only; zero frequency is the closed form
``cw_analytic``.  Both are checked against slow oracles built here: Magnus
steps from ``scipy.linalg.expm`` and a plain RK4 product, on the solver's
coefficient matrix or, at zero frequency, on the cw kernel
d_b / ((dz/z_b)**6 + 2j).
"""

import inspect
import itertools
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
    def test_zero_frequency_raises(self):
        # zero frequency is the closed form's alone
        cfg = make_config(5.0)
        for omega in (0.0, -0.0):
            for z in (12.0, np.array([0.0, 12.0, 24.0])):
                with pytest.raises(SingularFrequencyError, match="cw_analytic"):
                    propagation_matrix(z, 12.0, omega, cfg)

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
            chi_r, chi_l, chi_c = susceptibilities((z - 12.0) * scales.z_b, omega, cfg0)
            want = chi_r * chi_l + chi_c**2
            assert d0 == pytest.approx(want, rel=1e-12)

    def test_array_input_matches_scalars(self):
        # a scalar z gives the bits of the matching array element
        rng = np.random.default_rng(5)
        zs = np.concatenate([[10.0, 12.0, 13.7], rng.uniform(0.0, 24.0, 200)])
        for phi in (0.0, 1.3):
            cfg = make_config(2.0, phi=phi)
            stacked = propagation_matrix(zs, 12.0, 0.25, cfg)
            assert stacked.shape == (zs.size, 2, 2)
            for i, z in enumerate(zs):
                scalar = propagation_matrix(float(z), 12.0, 0.25, cfg)
                assert np.array_equal(stacked[i], scalar)

    def test_gate_position_and_frequency_broadcast(self):
        # every input broadcasts: an array of gate positions or of
        # frequencies gives one matrix per entry, with the bits of a scalar
        # call, never the first entry's matrix alone
        cfg = make_config(2.0, phi=1.3)
        xs = np.array([1.0, 2.0, 12.0, 20.5])
        omegas = np.array([-3.0, 0.25, 0.3, 7.0])
        by_x = propagation_matrix(12.5, xs, 0.3, cfg)
        by_omega = propagation_matrix(12.5, 12.0, omegas, cfg)
        assert by_x.shape == by_omega.shape == (4, 2, 2)
        for i in range(4):
            assert by_x[i].tobytes() == propagation_matrix(12.5, float(xs[i]), 0.3, cfg).tobytes()
            assert by_omega[i].tobytes() == propagation_matrix(
                12.5, 12.0, float(omegas[i]), cfg).tobytes()

    def test_solve_bvp_route_gives_the_bits_of_a_frequency_array(self):
        # solve_bvp takes one omega and an array of positions; its matrices
        # are the bits of the same positions on an omega array.  For 0.135476
        # and 0.1588, Python's omega**2 is one ulp off omega * omega, which
        # numpy takes for an array's square, so the rescaled Omega**4 /
        # omega**2 term must be formed as a product on both routes.
        cfg = make_config(2.0, phi=1.3)
        omegas = np.array([-3.0, 0.135476, 0.1588, 0.25, 7.0])
        assert any(w**2 != w * w for w in omegas.tolist())
        zs = np.linspace(0.0, 24.0, 97)
        stacked = propagation_matrix(zs[:, None], 12.0, omegas, cfg)
        for j, omega in enumerate(omegas.tolist()):
            assert stacked[:, j].tobytes() == propagation_matrix(zs, 12.0, omega, cfg).tobytes()


class TestSolveBvpCw:
    def test_zero_frequency_raises(self):
        # the numerical solve has no cw branch: it points at the closed form
        cfg = make_config(5.0)
        for omega in (0.0, -0.0):
            with pytest.raises(SingularFrequencyError, match="cw_analytic"):
                solve_bvp(omega, 12.0, cfg)

    def test_closed_form_takes_no_grid(self):
        # the gate position and the config fix the closed form and its nodes
        assert list(inspect.signature(cw_analytic).parameters) == ["x", "config"]

    def test_numeric_matches_closed_form_pointwise(self):
        for d_b in (0.5, 1.0, 2.0, 5.0, 10.0):
            cfg = make_config(d_b)
            for x in (8.0, 12.0, 16.0):
                ana = cw_analytic(x, cfg)
                assert ana.segments == 0
                assert_matches_cw_oracle(ana, x, cfg, 1e-9)
                # boundary conditions and passivity
                assert ana.field.e_right[0] == 1.0
                assert ana.field.e_left[-1] == 0.0
                assert -1e-10 <= ana.absorption <= 1.0

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
        with pytest.raises(ValueError):
            solve_bvp(0.3, -1.0, cfg)
        with pytest.raises(ValueError):
            cw_analytic(25.0, cfg)

    @pytest.mark.parametrize(
        "d_b, length, x, omega",
        [
            # a deep, short medium with the gate on its edge
            (6.0, 6.0, 0.0, -1.0),
            # |Phi| reaches 1.7e165 here: the squares of a plain Frobenius
            # norm overflow, which must not stall the halving
            (30.0, 24.0, 12.0, 1.0),
        ],
    )
    def test_deep_inputs_match_rk4_product(self, d_b, length, x, omega):
        cfg = make_config(d_b, L=length)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_bvp(omega, x, cfg)
        r, t = rk4_reference(omega, x, cfg, 12800)
        assert abs(res.reflection - r) <= 1e-9 * abs(r)
        assert abs(res.transmission - t) <= 1e-9 * abs(t)

    def test_unreachable_tolerance_is_reported(self):
        # a shallow, short medium far above the transparency window: step
        # halving stalls just above the tolerance
        cfg = make_config(1.0, L=2.0)
        with pytest.raises(QuadratureError) as exc:
            solve_bvp(30.0, 0.0, cfg)
        assert math.isfinite(exc.value.achieved)
        assert exc.value.achieved > propagation._RICHARDSON_TOL

    def test_overflowing_product_is_ill_conditioned(self):
        # d_b = 30 over 48 blockade radii at omega = gamma: the product of the
        # first level's steps overflows, which is no stalled halving
        cfg = make_config(30.0, L=48.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match=r"level 0 \(960 steps\)"):
                solve_bvp(1.0, 24.0, cfg)

    @pytest.mark.parametrize(
        "d_b, omega", [(56.1657, 1.0), (54.5254, -1.0), (188.17505, 3.0)]
    )
    def test_overflowing_modulus_is_ill_conditioned(self, d_b, omega):
        # every entry of the level-0 product has finite real and imaginary
        # parts, but a modulus beyond the float range: no Richardson test can
        # read it, so it is no accepted result
        cfg = make_config(d_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match=r"level 0 \(480 steps\)"):
                solve_bvp(omega, 12.0, cfg)

    def test_deep_scan_is_solved_or_ill_conditioned(self):
        # optical depth per blockade radius from 5 to 100: every input is
        # accepted or overflows, and no halving stalls
        accepted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d_b in (5.0, 10.0, 30.0, 100.0):
                for length in (12.0, 24.0, 48.0):
                    cfg = make_config(d_b, L=length)
                    for omega in (0.45, 1.0, 3.0):
                        try:
                            res = solve_bvp(omega, length / 2.0, cfg)
                        except IllConditionedError:
                            continue
                        assert res.richardson_error <= propagation._RICHARDSON_TOL
                        assert res.absorption >= -1e-10
                        accepted += 1
        assert accepted >= 32


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


def coefficient_matrix(z, x, omega, config):
    """``propagation_matrix``, and at ``omega == 0`` the cw matrix it no longer serves.

    On resonance the three susceptibilities collapse onto the cw kernel
    k = d_b / (((z - x)/z_b)**6 + 2j): chi_r = k and chi_l = chi_c = -k, so
    the matrix is ``[[k, -k e^{i phi}], [k e^{-i phi}, -k]]``.
    """
    if omega != 0.0:
        return propagation_matrix(z, x, omega, config)
    scales = derive_scales(config)
    u = (np.asarray(z, dtype=float) - x) / scales.z_b
    k = (scales.d_b / (u**6 + 2j))[..., None, None]
    ephi = np.exp(1j * config.phi)
    return k * np.array([[1.0, -ephi], [np.conj(ephi), -1.0]])


# Gauss-Legendre points of a step, as fractions of its width
GAUSS_POINTS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


def magnus_exponent(h, a1, a2, a3):
    """Sixth-order Magnus exponents from (n, 2, 2) coefficients at the Gauss points.

    Blanes, Casas & Ros, BIT 40, 434 (2000), with commutators by ``np.matmul``.
    """

    def comm(a, b):
        return a @ b - b @ a

    alpha1 = h * a2
    alpha2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
    alpha3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = comm(alpha1, alpha2)
    c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
    return alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0


def magnus_steps(nodes, omega, x, config):
    """(n, 2, 2) sixth-order Magnus steps between ``nodes``, by ``scipy.linalg.expm``.

    Each coefficient is evaluated afresh at the step's three Gauss-Legendre
    points, and each step is the exponential of ``magnus_exponent``.
    """
    z_b = derive_scales(config).z_b
    h = np.diff(nodes)
    a1, a2, a3 = (
        -1j * coefficient_matrix((nodes[:-1] + c * h) * z_b, x, omega, config)
        for c in GAUSS_POINTS
    )
    return scipy.linalg.expm(magnus_exponent(h[:, None, None], a1, a2, a3))


def rk4_reference(omega, x, config, per_zb):
    """(r, t) from a plain RK4 product on a uniform grid of ``per_zb`` steps per z_b.

    No Richardson test and no step exponential: each step is the classical
    RK4 update, r = -Phi10 / Phi11 and t is the product of the step
    determinants over Phi11.
    """
    z_b = derive_scales(config).z_b
    nodes = np.linspace(0.0, config.L / z_b, round(config.L / z_b * per_zb) + 1)
    z = nodes * z_b
    a1, a2, a3 = (
        -1j * coefficient_matrix(pts, x, omega, config)
        for pts in (z[:-1], 0.5 * (z[:-1] + z[1:]), z[1:])
    )
    eye = np.eye(2, dtype=complex)
    h = np.diff(nodes)[:, None, None]
    k2 = a2 @ (eye + 0.5 * h * a1)
    k3 = a2 @ (eye + 0.5 * h * k2)
    k4 = a3 @ (eye + h * k3)
    u = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
    phi = tree(u)
    return -phi[1, 0] / phi[1, 1], np.prod(np.linalg.det(u)) / phi[1, 1]


def reference_steps(omega, x, config):
    """Nodes (in blockade radii) and (n, 2, 2) Magnus steps of the accepted level.

    Same nodes, step and Richardson test as ``solve_bvp``, but each level
    evaluates its three coefficient stacks afresh, the steps come from
    ``scipy.linalg.expm`` and they are multiplied with ``np.matmul``.
    """
    scales = derive_scales(config)
    nodes = _build_nodes(config.L / scales.z_b)
    phi = tree(magnus_steps(nodes, omega, x, config))
    for _ in range(propagation._MAX_REFINEMENTS):
        nodes = halved(nodes)
        u = magnus_steps(nodes, omega, x, config)
        phi_f = tree(u)
        err = np.linalg.norm(phi_f - phi) / max(1.0, np.linalg.norm(phi_f))
        phi = phi_f
        if err <= propagation._RICHARDSON_TOL:
            break
    else:
        raise AssertionError("reference solve did not converge")
    return nodes, u


def reference_solve(omega, x, config, shoot=False):
    """Straightforward solver the ratio-of-products kernel must reproduce.

    On the steps of ``reference_steps`` it takes T = Phi00 + Phi01 r and
    accumulates the field one step at a time, or, when cond(Phi) exceeds
    ``_REF_COND_LIMIT`` or ``shoot`` is set, splits the domain into
    ``_REF_SEGMENTS`` segments and solves one block system for the
    interface values (multiple shooting).  Returns (t, r, z, psi).
    """
    nodes, u = reference_steps(omega, x, config)
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


def cw_oracle(x, config):
    """Nodes (physical z), r, t and the (n, 2) field of the numerical cw solve.

    The Magnus steps of the cw matrix on the base grid halved once, multiplied
    with ``np.matmul``, and the field accumulated one step at a time.
    """
    z_b = derive_scales(config).z_b
    nodes = halved(_build_nodes(config.L / z_b))
    u = magnus_steps(nodes, 0.0, x, config)
    phi = tree(u)
    r = -phi[1, 0] / phi[1, 1]
    psi = [np.array([1.0, r])]
    for step in u:
        psi.append(step @ psi[-1])
    psi = np.array(psi)
    return nodes * z_b, r, psi[-1, 0], psi


def assert_matches_cw_oracle(res, x, config, rel):
    """R, T and the field of ``cw_analytic`` against ``cw_oracle``, to ``rel`` relative."""
    z, r, t, psi = cw_oracle(x, config)
    assert np.array_equal(res.field.z, z)
    assert abs(res.reflection - r) <= rel * abs(r)
    assert abs(res.transmission - t) <= rel * abs(t)
    got = np.stack([res.field.e_right, res.field.e_left], axis=1)
    assert np.max(np.abs(got - psi)) <= rel * np.max(np.abs(psi))


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
    def assert_same(omega, x, cfg, shoot=False):
        res = solve_bvp(omega, x, cfg)
        t, r, z, psi = reference_solve(omega, x, cfg, shoot)
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


class TestAcceptedGridAgainstFinestGrid:
    """Accepted solves against a plain RK4 product on a fine uniform grid.

    The oracle multiplies RK4 steps at 6400 per blockade radius, 64 times
    finer than the base grid, and applies no Richardson test, so it bounds
    what accepting the first agreeing pair of grids costs in R and T.
    """

    @pytest.mark.parametrize(
        "omega, x, cfg",
        [
            *(
                (omega, criterion_10_config().x_gate, criterion_10_config())
                for omega in (-2.5e7, -2.5e6, -2.5e5, 2.5e5, 2.5e6, 2.5e7)
            ),
            (0.45, 12.0, make_config(5.0)),
        ],
    )
    def test_matches_finest_grid(self, omega, x, cfg):
        res = solve_bvp(omega, x, cfg)
        assert res.refinements == 1
        r, t = rk4_reference(omega, x, cfg, 6400)
        assert abs(res.reflection - r) <= 1e-9 * abs(r)
        assert abs(res.transmission - t) <= 1e-9 * abs(t)
        # the accepted grid is the base grid halved at least once
        steps = np.diff(res.field.z / derive_scales(cfg).z_b)
        assert np.max(steps) <= (1.0 + 1e-9) / 40.0

    @pytest.mark.parametrize(
        "d_b, x, omega, refinements",
        [(1.0, 1.0, 1.0, 2), (1.0, 0.0, 3.0, 5), (10.0, 1.0, 3.0, 6)],
    )
    def test_solves_accepted_after_further_halvings(
        self, monkeypatch, d_b, x, omega, refinements
    ):
        # short media above the transparency window: the first pair of grids
        # disagrees, so the halvings after it decide what is accepted
        cfg = make_config(d_b, L=2.0)
        calls = []

        def counted(*args):
            calls.append(args[0].size)
            return propagation_matrix(*args)

        monkeypatch.setattr(propagation, "propagation_matrix", counted)
        res = solve_bvp(omega, x, cfg)
        monkeypatch.undo()
        assert res.refinements == refinements
        # one evaluation serves the three Gauss points of every step of the
        # base grid and its first halving, and each further halving
        # evaluates only its own steps' points
        base = _build_nodes(cfg.L / derive_scales(cfg).z_b).size - 1
        assert calls == [9 * base] + [3 * base * 2**k for k in range(2, refinements + 1)]
        r, t = rk4_reference(omega, x, cfg, 12800)
        assert abs(res.reflection - r) <= 1e-9 * abs(r)
        assert abs(res.transmission - t) <= 1e-9 * abs(t)

    def test_closed_form_has_no_refinements(self):
        assert cw_analytic(12.0, make_config(5.0)).refinements == 0

    def test_closed_form_writes_the_level_one_grid(self):
        # the closed-form field sits on the nodes of a solve accepted after
        # one halving, bit for bit, here with z_b = 2
        cfg = make_config(5.0, L=48.0, C6=64.0, x_gate=24.7)
        res = solve_bvp(0.2, cfg.x_gate, cfg)
        assert res.refinements == 1
        assert np.array_equal(cw_analytic(cfg.x_gate, cfg).field.z, res.field.z)

    def test_closed_form_matches_finest_grid(self):
        cfg = make_config(5.0)
        res = cw_analytic(12.0, cfg)
        r, t = rk4_reference(0.0, 12.0, cfg, 6400)
        assert abs(res.reflection - r) <= 1e-9 * abs(r)
        assert abs(res.transmission - t) <= 1e-9 * abs(t)


class TestAcceptanceRatchet:
    """What the solver accepts on a fixed 360-input grid, so no change loses it.

    Unit media (z_b = 1) of depth d_b per radius and length L, the gate at
    x, probed at omega.  Today 318 inputs are accepted; the others raise 36
    ``QuadratureError`` (all at omega = +30, where V(z) = omega puts a narrow
    resonance in the medium) and 6 ``IllConditionedError`` (d_b = 60, L =
    24, omega = +-1).
    """

    # centred gates on the shortest media, with the RK4 oracle's steps per
    # z_b: on each input it agrees with itself to 1e-10 against half as many
    # steps.  At d_b = 60, omega = +-1, |T| ~ 3e-38, and T moves by 1.5e-9
    # from 6400 to 12800 steps per z_b but by 6e-12 from 25600 to 51200.
    ORACLE_INPUTS = [
        (d_b, 2.0, omega, 1.0, per_zb)
        for d_b, omegas, per_zb in (
            (1.0, (1.0, -0.45, 0.03), 12800),
            (5.0, (1.0, -0.45, 0.03), 12800),
            (20.0, (1.0, -0.45, 0.03), 12800),
            (60.0, (0.03,), 12800),
            (60.0, (1.0, -1.0), 51200),
        )
        for omega in omegas
    ]

    def test_accepted_inputs_are_passive_and_match_the_oracle(self):
        grid = itertools.product(
            (1.0, 5.0, 20.0, 60.0),
            (2.0, 6.0, 24.0),
            (1e3, 30.0, 1.0, 0.45, 0.03, -0.03, -0.45, -1.0, -30.0, -1e3),
            (0.0, 0.3, 0.5),
        )
        accepted = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d_b, length, omega, x_frac in grid:
                x = x_frac * length
                try:
                    res = solve_bvp(omega, x, make_config(d_b, L=length))
                except (QuadratureError, IllConditionedError):
                    continue
                assert res.absorption >= -1e-10
                accepted[d_b, length, omega, x] = res
        assert len(accepted) >= 318
        for d_b, length, omega, x, per_zb in self.ORACLE_INPUTS:
            cfg = make_config(d_b, L=length)
            res = accepted[d_b, length, omega, x]
            r, t = rk4_reference(omega, x, cfg, per_zb)
            r_half, t_half = rk4_reference(omega, x, cfg, per_zb // 2)
            assert abs(r_half - r) <= 1e-10 * abs(r)
            assert abs(t_half - t) <= 1e-10 * abs(t)
            assert abs(res.reflection - r) <= 1e-9 * abs(r)
            assert abs(res.transmission - t) <= 1e-9 * abs(t)


def component_stack(mats):
    """(4, n) component stack of an (n, 2, 2) array of matrices."""
    return np.ascontiguousarray(mats.reshape(-1, 4).T)


def random_matrices(rng, n, scale=1.0):
    return scale * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))


def with_invariant(rng, n, q):
    """(n, 2, 2) random complex matrices scaled so that d**2 + a01 a10 = q in size."""
    mats = random_matrices(rng, n)
    d = 0.5 * (mats[:, 0, 0] - mats[:, 1, 1])
    own = d * d + mats[:, 0, 1] * mats[:, 1, 0]
    return mats * np.sqrt(abs(q) / np.abs(own))[:, None, None]


def run_magnus_steps(a1, a2, a3, h=None):
    """``_magnus_steps`` on (n, 2, 2) coefficients at the Gauss points of n steps.

    Returns the (n, 2, 2) steps, the traces, and the (n, 2, 2) exponents
    formed independently by ``magnus_exponent``.  Steps are of unit width
    unless ``h`` gives their widths.
    """
    h = np.ones(len(a1)) if h is None else h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps, traces = propagation._magnus_steps(
            h, component_stack(a1), component_stack(a2), component_stack(a3)
        )
    exponent = magnus_exponent(h[:, None, None], a1, a2, a3)
    return steps.T.reshape(-1, 2, 2), traces, exponent


def exponents_only(omegas):
    """Gauss-point coefficients whose unit steps have the exponents ``omegas``.

    Constant coefficients make alpha2, alpha3 and every commutator exactly
    zero, so Omega = alpha1 = ``omegas`` bit for bit.
    """
    return omegas, omegas, omegas


class TestStepExponential:
    """``_magnus_steps`` against ``scipy.linalg.expm`` of the same exponent."""

    @staticmethod
    def assert_exponentials(a1, a2, a3, h=None):
        steps, traces, exponent = run_magnus_steps(a1, a2, a3, h)
        want = scipy.linalg.expm(exponent)
        size = np.max(np.abs(want), axis=(1, 2))
        assert np.all(np.max(np.abs(steps - want), axis=(1, 2)) <= 1e-13 * size)
        tr = np.trace(exponent, axis1=1, axis2=2)
        assert np.allclose(traces, tr, rtol=1e-14, atol=1e-300)
        # det(step) = exp(tr Omega), to round-off on the two products it cancels
        prods = steps[:, 0, 0] * steps[:, 1, 1], steps[:, 0, 1] * steps[:, 1, 0]
        cancel = np.abs(prods[0]) + np.abs(prods[1])
        assert np.all(np.abs(prods[0] - prods[1] - np.exp(tr)) <= 1e-13 * cancel)
        return steps, exponent

    def test_nilpotent_steps(self):
        # every cw exponent is a multiple of [[1, -1], [1, -1]], so q = 0
        # exactly and exp(Omega) = 1 + Omega
        nilpotent = np.array([[1.0, -1.0], [1.0, -1.0]])
        scale = np.array([0.0, 1e-3, 0.7 - 0.2j, 2.0j])
        steps, exponent = self.assert_exponentials(
            *exponents_only(scale[:, None, None] * nilpotent)
        )
        _, _, q, _ = propagation._invariants(*component_stack(exponent))
        assert np.all(q == 0.0)
        assert np.array_equal(steps, np.eye(2) + exponent)
        # expm's squaring loses 1e-9 relative on large nilpotent exponents,
        # so there the exact 1 + Omega is the oracle
        scale = np.array([30.0j, 1e3])
        steps, _, exponent = run_magnus_steps(
            *exponents_only(scale[:, None, None] * nilpotent)
        )
        assert np.array_equal(steps, np.eye(2) + exponent)

    def test_nilpotent_coefficients_varying_along_the_step(self):
        # cw coefficients are multiples of one nilpotent matrix, so they
        # commute: every commutator vanishes and the step is 1 + Omega
        rng = np.random.default_rng(3)
        nilpotent = np.array([[1.0, -1.0], [1.0, -1.0]])
        a1, a2, a3 = (
            (rng.normal(size=8) + 1j * rng.normal(size=8))[:, None, None] * nilpotent
            for _ in range(3)
        )
        h = rng.uniform(0.01, 0.5, 8)
        steps, exponent = self.assert_exponentials(a1, a2, a3, h)
        _, _, q, _ = propagation._invariants(*component_stack(exponent))
        assert np.all(q == 0.0)
        assert np.allclose(steps, np.eye(2) + exponent, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-14])
    def test_near_exceptional_steps(self, eps):
        rng = np.random.default_rng(7)
        nilpotent = np.array([[1.0, -1.0], [1.0, -1.0]])
        scale = rng.uniform(0.1, 3.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
        omegas = scale[:, None, None] * nilpotent + eps * random_matrices(rng, 6)
        _, _, q, _ = propagation._invariants(*component_stack(omegas))
        assert np.all(np.abs(q) <= 1e-4 * np.abs(scale) ** 2)
        self.assert_exponentials(*exponents_only(omegas))

    @pytest.mark.parametrize(
        "q", [1e-12, 1e-7, 1e-5, 5e-4, 5e-3, 0.03, 0.1, 0.2499, 0.2501, 0.5, 3.0, 1e2]
    )
    def test_invariant_sizes_on_both_sides_of_the_switch(self, q):
        # the series serves |q| <= 1/4 with as many terms as the largest |q|
        # needs; wider steps take cosh and sinh of sqrt(q), up to deep media
        rng = np.random.default_rng(11)
        omegas = with_invariant(rng, 16, q)
        _, _, got, _ = propagation._invariants(*component_stack(omegas))
        assert np.allclose(np.abs(got), q, rtol=1e-12)
        self.assert_exponentials(*exponents_only(omegas))

    def test_mixed_stack_with_commutators(self):
        # one call with steps on every route, from coefficients that vary
        # along the step, so every commutator term is in play
        rng = np.random.default_rng(5)
        sizes = [0.0, 1e-9, 1e-4, 0.2, 0.26, 4.0, 1e2]
        a2 = np.concatenate([with_invariant(rng, 4, q) for q in sizes])
        a1, a3 = (a2 + random_matrices(rng, len(a2), 0.3) for _ in range(2))
        h = rng.uniform(0.5, 1.5, len(a2))
        self.assert_exponentials(a1, a2, a3, h)

    def test_random_and_wide_steps(self):
        # unrelated coefficients at the three points, on steps from narrow
        # to far past the series switch
        rng = np.random.default_rng(17)
        a1, a2, a3 = (random_matrices(rng, 40) for _ in range(3))
        h = np.geomspace(1e-4, 3.0, 40)
        steps, exponent = self.assert_exponentials(a1, a2, a3, h)
        _, _, q, _ = propagation._invariants(*component_stack(exponent))
        assert np.max(np.abs(q)) > 1.0 > 1e-6 > np.min(np.abs(q))

    def test_step_change_falls_at_sixth_order(self, monkeypatch):
        # a deep, short medium at omega = gamma halves five times, and each
        # halving shrinks the change of Phi by about 2**6 (50x to 64x here)
        changes = []
        relative_change = propagation._relative_change

        def recorded(phi_f, phi):
            changes.append(relative_change(phi_f, phi))
            return changes[-1]

        monkeypatch.setattr(propagation, "_relative_change", recorded)
        res = solve_bvp(1.0, 1.0, make_config(60.0, L=2.0))
        assert res.refinements >= 3
        assert len(changes) == res.refinements
        for coarse, fine in itertools.pairwise(changes):
            assert fine * 40.0 <= coarse

    def test_widths_carry_the_minus_i(self):
        # the solver passes M with widths -1j h; (-1j h) M rounds as h (-1j M)
        rng = np.random.default_rng(5)
        m1, m2, m3 = (component_stack(random_matrices(rng, 300)) for _ in range(3))
        h = np.geomspace(1e-3, 2.0, 300)
        folded = propagation._magnus_steps(np.multiply(-1j, h), m1, m2, m3)
        rotated = propagation._magnus_steps(h, -1j * m1, -1j * m2, -1j * m3)
        for got, want in zip(folded, rotated):
            assert np.array_equal(got, want)


class TestComponentProducts:
    """``_mul``, ``_tree_product`` and ``_suffix_products`` against matmul."""

    @staticmethod
    def entrywise(p, q):
        return np.stack([
            p[0] * q[0] + p[1] * q[2],
            p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2],
            p[2] * q[1] + p[3] * q[3],
        ])

    @pytest.mark.parametrize("n", [1, 2, 7, 500, 1001])
    def test_mul_is_the_entrywise_product(self, n):
        rng = np.random.default_rng(n)
        x = component_stack(random_matrices(rng, n))
        y = component_stack(random_matrices(rng, n))
        assert np.array_equal(propagation._mul(x, y), self.entrywise(x, y))
        # the strided odd and even halves that one tree level multiplies
        half = n // 2
        odd, even = x[:, 1 : 2 * half : 2], x[:, 0 : 2 * half : 2]
        assert np.array_equal(propagation._mul(odd, even), self.entrywise(odd, even))
        # a stack with the odd tail appended, as the next level gets it
        tail = np.concatenate([propagation._mul(odd, even), x[:, -1:]], axis=1)
        assert np.array_equal(propagation._mul(tail, tail), self.entrywise(tail, tail))
        # more than one trailing axis
        x2, y2 = x[:, : 2 * half].reshape(4, 2, half), y[:, : 2 * half].reshape(4, 2, half)
        assert np.array_equal(propagation._mul(x2, y2), self.entrywise(x2, y2))

    @staticmethod
    def near_identity_steps(n):
        rng = np.random.default_rng(n)
        return np.eye(2) + random_matrices(rng, n, 0.05)

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 500, 1001])
    def test_tree_product_matches_sequential_product(self, n):
        mats = self.near_identity_steps(n)
        want = np.eye(2, dtype=complex)
        for u in mats:
            want = u @ want
        got = propagation._tree_product(component_stack(mats))
        assert np.allclose(got.reshape(2, 2), want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))

    @staticmethod
    def random_steps(rng, *shape):
        """Near-identity steps as a component stack of shape ``(4,) + shape``."""
        mats = np.eye(2) + random_matrices(rng, math.prod(shape), 0.05)
        return component_stack(mats).reshape((4,) + shape)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 501])
    def test_batched_tree_product_reduces_each_row_alone(self, n):
        rng = np.random.default_rng(n)
        for batch in (1, 2, 5):
            stack = self.random_steps(rng, batch, n)
            got = propagation._tree_product(stack)
            assert got.shape == (4, batch)
            for b in range(batch):
                assert np.array_equal(got[:, b], propagation._tree_product(stack[:, b].copy()))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 501])
    def test_stacked_first_pair_keeps_both_products(self, n):
        # the solver reduces the base steps together with the first
        # halving's pair products, which are the first round of its tree
        rng = np.random.default_rng(n)
        coarse = self.random_steps(rng, n)
        fine = self.random_steps(rng, 2 * n)
        pair = np.empty((4, 2, n), dtype=complex)
        pair[:, 0] = coarse
        propagation._mul(fine[:, 1::2], fine[:, 0::2], out=pair[:, 1])
        assert np.array_equal(pair[:, 1], propagation._mul(fine[:, 1::2], fine[:, 0::2]))
        phis = propagation._tree_product(pair)
        assert np.array_equal(phis[:, 0], propagation._tree_product(coarse))
        assert np.array_equal(phis[:, 1], propagation._tree_product(fine))

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    def test_suffix_products_match_sequential_products(self, n):
        mats = self.near_identity_steps(n)
        want = np.empty_like(mats)
        acc = np.eye(2, dtype=complex)
        for k in range(n - 1, -1, -1):
            acc = acc @ mats[k]
            want[k] = acc
        got = propagation._suffix_products(component_stack(mats)).T.reshape(-1, 2, 2)
        assert np.allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


class TestFieldOnFirstRead:
    def test_reflection_spectrum_builds_no_field(self, monkeypatch):
        def never(steps):
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

    def test_closed_form_builds_no_field_until_read(self, monkeypatch):
        def never(*args):
            raise AssertionError("the field was built")

        monkeypatch.setattr(propagation, "_cw_field", never)
        cfg = criterion_10_config()
        res = cw_analytic(cfg.x_gate, cfg)
        assert reflection_spectrum(np.array([0.0]), cfg)[0] == res.reflection
        monkeypatch.undo()
        res = cw_analytic(cfg.x_gate, cfg)
        assert isinstance(res.field, propagation.TwoModeField)
        assert res.field is res.field


class TestGridCache:
    """The grids ``solve_bvp`` and ``cw_analytic`` share per medium length and level."""

    @staticmethod
    def bits(res):
        f = res.field
        return (repr(res.reflection), repr(res.transmission), repr(res.richardson_error),
                res.refinements, f.z.tobytes(), f.e_right.tobytes(), f.e_left.tobytes())

    @pytest.mark.parametrize(
        "d_b, L, omega, x, refinements", [(5.0, 24.0, 0.45, 12.0, 1), (1.0, 2.0, 3.0, 0.0, 5)]
    )
    def test_cold_cache_gives_the_warm_bits(self, d_b, L, omega, x, refinements):
        cfg = make_config(d_b, L=L)
        warm = solve_bvp(omega, x, cfg)
        assert warm.refinements == refinements
        propagation._level_grid.cache_clear()
        cold = solve_bvp(omega, x, cfg)
        assert self.bits(cold) == self.bits(warm)

    def test_grids_are_read_only_and_never_handed_out(self):
        cfg = make_config(1.0, L=2.0)
        res = solve_bvp(3.0, 0.0, cfg)
        grids = [propagation._level_grid(2.0, level) for level in range(1, res.refinements + 1)]
        for grid in grids:
            for array in grid:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
        for field in (res.field, cw_analytic(1.0, cfg).field):
            assert field.z.flags.writeable
            assert not any(np.shares_memory(field.z, a) for grid in grids for a in grid)

    def test_level_one_grid_holds_the_base_steps_first(self):
        widths, points, nodes = propagation._level_grid(2.0, 1)
        base = _build_nodes(2.0)
        n = base.size - 1
        assert np.array_equal(nodes, halved(base))
        assert widths.size == 3 * n and points.shape == (3 * widths.size,)
        assert np.array_equal(widths, -1j * np.concatenate([np.diff(base), np.diff(nodes)]))

    def test_cache_stays_bounded(self):
        size = propagation._GRID_CACHE_SIZE
        for k in range(size + 3):
            cfg = make_config(1.0, L=2.0 + 0.05 * k, x_gate=1.0)
            solve_bvp(0.45, 1.0, cfg)
        assert propagation._level_grid.cache_info().currsize == size
        assert propagation._level_grid.cache_info().maxsize == size


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


class TestCwClosedFormProperties:
    @given(
        d_b=st.floats(min_value=0.2, max_value=20.0),
        length=st.floats(min_value=1.0, max_value=24.0),
        x_frac=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_passive_and_phase_covariant(self, d_b, length, x_frac, phi):
        x = x_frac * length
        base = cw_analytic(x, make_config(d_b, L=length))
        turned_cfg = make_config(d_b, L=length, phi=phi)
        turned = cw_analytic(x, turned_cfg)
        assert_matches_cw_oracle(turned, x, turned_cfg, 1e-8)
        for res in (base, turned):
            assert res.absorption >= -1e-12
            assert res.field.e_right[0] == 1.0
            assert res.field.e_left[-1] == 0.0
        # the control phase turns R and the backward field, and nothing else
        assert abs(turned.reflection - np.exp(-1j * phi) * base.reflection) <= (
            1e-14 * abs(base.reflection)
        )
        assert turned.transmission == base.transmission
        assert np.array_equal(turned.field.e_right, base.field.e_right)
        assert np.allclose(
            np.abs(turned.field.e_left), np.abs(base.field.e_left), rtol=1e-14, atol=0.0
        )


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
        # a scalar gives Python numbers with the bits of the array elements
        d_b = np.r_[0.0, np.linspace(0.01, 100.0, 501)]
        arrays = cw_bulk_coefficients(d_b, phi=0.9)
        scalars = [cw_bulk_coefficients(float(d), phi=0.9) for d in d_b]
        assert all(list(map(type, s)) == [complex, complex, float] for s in scalars)
        for array, column in zip(arrays, zip(*scalars), strict=True):
            assert np.array(column).tobytes() == array.tobytes()

    def test_nonpositive_depth_rejected(self):
        # d_b = 0 is the empty medium: the closed form gives exactly (1, 0, 0)
        assert cw_bulk_coefficients(0.0) == (1 + 0j, 0j, 0.0)
        with pytest.raises(ValueError):
            cw_bulk_coefficients(-1.0)
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
        scales = derive_scales(cfg)
        ws = np.array([0.05, 0.1, 0.2])
        spec = t0_spectrum(ws, cfg)
        for w, t, r in zip(ws, spec.transmission, spec.reflection):
            xi = w + 1j * cfg.gamma - cfg.Omega**2 / w
            scalar = np.exp(-cfg.L * cfg.G**2 * cfg.gamma / (cfg.c * abs(xi) ** 2))
            assert abs(t) == pytest.approx(scalar, rel=1e-6)
            assert abs(r) < 1e-10

    def test_matches_independent_integrator(self):
        cfg = make_config(5.0)
        scales = derive_scales(cfg)
        ws = [0.05, 0.2]
        spec = t0_spectrum(np.array(ws), cfg)
        for w, t_ref, r_ref in zip(ws, spec.transmission, spec.reflection):
            chi_r, chi_l, chi_c = free_susceptibilities(w, cfg)
            m = np.array([
                [chi_r, chi_c],
                [-chi_c, chi_l],
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
        spec = t0_spectrum(np.array([omega]), cfg)
        chi_r, chi_l, chi_c = free_susceptibilities(omega, cfg)
        with mpmath.workdps(160):
            a = -1j * mpmath.matrix([
                [mpmath.mpc(chi_r), mpmath.mpc(chi_c)],
                [-mpmath.mpc(chi_c), mpmath.mpc(chi_l)],
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
        spec = t0_spectrum(ws, cfg)
        ephi = np.exp(1j * cfg.phi)
        for w, t_ref, r_ref in zip(ws, spec.transmission, spec.reflection):
            chi_r, chi_l, chi_c = free_susceptibilities(w, cfg)
            m = np.array([
                [chi_r, chi_c * ephi],
                [-chi_c * np.conj(ephi), chi_l],
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
            assert fit.fitted <= derive_scales(width_config(ratio)).gamma_eit * 1.001

    def test_width_grows_with_second_leg(self):
        fits = [transparency_width_study(width_config(r)).fitted for r in (1.0, 4.0)]
        assert fits[1] > fits[0]

    def test_width_shrinks_with_depth(self):
        shallow = derive_scales(width_config(2.0))
        cfg_deep = PhysicalConfig(G=0.1, Omega=1.0, OmegaS=2.0, gamma=0.5,
                                  phi=0.0, c=1.0, C6=1.0, L=2500.0, x_gate=625.0)
        deep = derive_scales(cfg_deep)
        assert deep.delta_omega0 < shallow.delta_omega0

    def test_too_wide_sampling_is_rejected(self):
        cfg = width_config(1.0)
        scales = derive_scales(cfg)
        wide = t0_spectrum(np.linspace(-5.0, 5.0, 9) * scales.delta_omega0, cfg)
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
