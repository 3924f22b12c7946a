"""Tests for the stored-excitation decoherence map.

Oracle strategy: the evolution factor has an exact partial-fraction
decomposition into two boundary transmission integrals plus a cross term,
so every direct kernel evaluation can be cross-checked through a second,
independently assembled route.  The factor matrix, one vector adaptive
quadrature of the closed-form real and imaginary parts over many grid pairs,
is also checked against one scalar complex quad run per pair on the complex
integrand.  The far-separation plateau is pinned to the bulk loss
coefficient from the propagation module.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import polsim.spinwave
from polsim.core_model import PhysicalConfig, derive_scales
from polsim.errors import GridError, PositivityWarning, QuadratureError
from polsim.propagation import cw_bulk_coefficients
from polsim.spinwave import (
    SpinWaveDensityMatrix,
    _kernel_parts,
    blockade_loss_baseline,
    coherence_factor,
    evolve_cw,
    initial_sine_mode,
    retrieval_eta,
)
from polsim.susceptibility import _sixth_power, nu

EPS = np.finfo(float).eps


def make_config(d_b, L, phi=0.0):
    """Unit blockade radius; G sets the depth per radius."""
    return PhysicalConfig(G=float(np.sqrt(d_b)), Omega=1.0, OmegaS=1.0,
                          gamma=1.0, phi=phi, c=1.0, C6=1.0, L=L, x_gate=L / 2.0)


def complex_kernel_integral(xr, yr, length_r):
    """The kernel integral as one complex quad run on the complex integrand."""

    def integrand(z):
        u = (z - xr) ** 6
        v = (z - yr) ** 6
        return (u - v) / ((u + 2j) * (v - 2j))

    pts = sorted({p for p in (xr, yr) if 0.0 < p < length_r})
    val, _ = quad(integrand, 0.0, length_r, points=pts or None, limit=400,
                  epsabs=1e-10, epsrel=1e-10, complex_func=True)
    return val


class TestInitialSineMode:
    def test_normalization_and_purity(self):
        dm = initial_sine_mode(5.0, 64)
        assert dm.trace() == pytest.approx(1.0, abs=1e-12)
        assert dm.purity() == pytest.approx(1.0, abs=1e-10)

    def test_rank_one(self):
        dm = initial_sine_mode(5.0, 64)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 64, size=(20, 2))
        for (i, j), (k, l) in zip(idx[:10], idx[10:]):
            minor = dm.rho[i, k] * dm.rho[j, l] - dm.rho[i, l] * dm.rho[j, k]
            assert abs(minor) < 1e-12

    def test_peak_at_center(self):
        dm = initial_sine_mode(8.0, 65)
        diag = np.real(np.diag(dm.rho))
        assert np.argmax(diag) == 32

    def test_validation(self):
        with pytest.raises(GridError):
            initial_sine_mode(5.0, 32)
        with pytest.raises(ValueError):
            initial_sine_mode(0.0, 64)
        with pytest.raises(GridError):
            SpinWaveDensityMatrix(grid=np.linspace(0, 1, 4), rho=np.eye(3))

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 2.0], [1.0, 0.5, 2.0]],
                             ids=["nan", "unsorted"])
    def test_bad_grid_fails_at_construction(self, grid):
        # trapezoid_weights checks every density matrix's grid, so evolve_cw
        # never starts its quadrature on one
        with pytest.raises(GridError):
            SpinWaveDensityMatrix(grid=np.array(grid), rho=np.eye(3))


def oracle_factor(x, y, cfg):
    """F(x, y) from 1/(1 + nu) and one complex quad run of the kernel."""
    scales = derive_scales(cfg)
    t_x = 1.0 / (1.0 + nu(cfg.L, x, scales))
    t_y = 1.0 / (1.0 + nu(cfg.L, y, scales))
    kernel = complex_kernel_integral(x / scales.z_b, y / scales.z_b, cfg.L / scales.z_b)
    return 1.0 + 1j * scales.d_b * t_x * np.conj(t_y) * kernel


def factor_matrix(grid, cfg):
    """evolve_cw's factors on ``grid``: a rho0 of ones makes rho the factors."""
    ones = SpinWaveDensityMatrix(grid=grid, rho=np.ones((grid.size, grid.size)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PositivityWarning)
        return evolve_cw(ones, cfg).rho


class TestKernelIntegral:
    def test_real_integrands_split_the_complex_kernel(self):
        # same sixth powers on both sides, so only the split into real and
        # imaginary parts over |den|^2 = (u^2 + 4)(v^2 + 4) is compared
        rng = np.random.default_rng(29)
        x = rng.uniform(-1e3, 1e3, size=400)
        y = x + rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-3.0, 3.0, 400)
        z = rng.uniform(-1e3, 1e3, size=400)
        z[:100] = x[:100]
        z[100:200] = y[100:200]
        z[200:300] = 0.5 * (x[200:300] + y[200:300])
        u = _sixth_power(z - x)
        v = _sixth_power(z - y)
        ref = (u - v) / ((u + 2j) * (v - 2j))
        real, imag = np.split(_kernel_parts(z, x, y), 2)
        assert np.all(np.abs(real - ref.real) <= 4 * EPS * np.abs(ref))
        assert np.all(np.abs(imag - ref.imag) <= 4 * EPS * np.abs(ref))

    def test_matches_one_complex_quad_run(self):
        rng = np.random.default_rng(41)
        for length in (2.0, 5.0, 20.0):
            cfg = make_config(5.0, length)
            inner = rng.uniform(0.0, length, size=4)
            pairs = [(0.0, length), (0.0, inner[0]), (inner[1], length),
                     (length, inner[2]), (inner[2], inner[3]), (inner[3], 0.0),
                     (inner[0], inner[0] + 1e-3)]
            grid = np.unique(pairs)
            factor = factor_matrix(grid, cfg)
            for x, y in pairs:
                ref = oracle_factor(x, y, cfg)
                i, j = np.searchsorted(grid, (x, y))
                assert abs(factor[i, j] - ref) <= 1e-12
                assert abs(coherence_factor(x, y, cfg) - ref) <= 1e-12

    def test_points_next_to_the_wall_are_the_wall(self):
        # no grid point is a quadrature break point, so a point within a
        # rounding of the wall z = 0 gets the wall's factors
        cfg = make_config(5.0, 3.0)
        near = [6.675221575521604e-308, 1e-305, 1e-300, 1e-16]
        grid = np.array([0.0, *near, 1.5, 3.0])
        factor = factor_matrix(grid, cfg)
        wall = factor[0, -2:]
        assert abs(wall[0] - oracle_factor(0.0, 1.5, cfg)) <= 1e-12
        assert np.max(np.abs(factor[1:-2, -2:] - wall)) <= 1e-15
        for x in near:
            assert abs(coherence_factor(x, 1.5, cfg) - wall[0]) <= 1e-15

    def test_unconverged_quadrature_names_the_grid(self, monkeypatch):
        # a block fails on a non-zero status or on too large an error
        # estimate; the message names the grid, since one estimate covers
        # every pair of the block
        def unconverged(status, err):
            def quad_vec(f, a, b, args, **kwargs):
                return np.zeros(2 * args[0].size), err, SimpleNamespace(status=status)
            return quad_vec

        cfg = make_config(5.0, 20.0)
        for status, err in ((0, 1.0), (2, 1e-12)):
            monkeypatch.setattr(scipy.integrate, "quad_vec", unconverged(status, err))
            with pytest.raises(QuadratureError,
                               match=r"2-point grid over L = 20 blockade radii") as info:
                coherence_factor(7.3, 11.1, cfg)
            assert info.value.achieved == err
        with pytest.raises(QuadratureError, match=r"64-point grid over L = 20 "):
            evolve_cw(initial_sine_mode(20.0, 64), cfg)


class TestCoherenceFactor:
    def test_diagonal_is_exactly_one(self):
        cfg = make_config(5.0, 20.0)
        assert coherence_factor(7.0, 7.0, cfg) == 1.0 + 0.0j

    def test_far_separation_reaches_bulk_loss(self):
        for d_b in (2.0, 5.0, 10.0):
            cfg = make_config(d_b, 20.0)
            f = coherence_factor(5.0, 15.0, cfg)
            plateau = 1.0 - cw_bulk_coefficients(d_b)[2]
            assert abs(f) == pytest.approx(plateau, rel=1e-4)

    def test_swap_conjugates(self):
        # F(x, y) of 20 random pairs from one factor matrix on all 40 points
        cfg = make_config(5.0, 20.0)
        rng = np.random.default_rng(17)
        pairs = rng.uniform(0.0, 20.0, size=(20, 2))
        grid = np.sort(pairs.ravel())
        factor = factor_matrix(grid, cfg)
        for x, y in pairs:
            i, j = np.searchsorted(grid, (x, y))
            assert abs(coherence_factor(y, x, cfg) - np.conj(factor[i, j])) < 1e-12

    def test_partial_fraction_route_agrees(self):
        # (u - v)/((u + 2i)(v - 2i)) = 1/(v - 2i) - 1/(u + 2i) - 4i/((u + 2i)(v - 2i))
        # turns the factor into boundary transmissions plus a cross integral
        cfg = make_config(5.0, 20.0)
        scales = derive_scales(cfg)
        x, y = 7.3, 11.1
        direct = coherence_factor(x, y, cfg)

        t_x = 1.0 / (1.0 + nu(cfg.L, x, scales))
        t_y = 1.0 / (1.0 + nu(cfg.L, y, scales))

        def cross(z):
            return 1.0 / (((z - x) ** 6 + 2j) * ((z - y) ** 6 - 2j))

        c_val, _ = quad(cross, 0.0, cfg.L, points=[x, y], limit=400,
                        epsabs=1e-12, complex_func=True)
        alt = (
            1.0
            - t_x * np.conj(t_y) * (nu(cfg.L, x, scales) + np.conj(nu(cfg.L, y, scales)))
            + 4.0 * scales.d_b * t_x * np.conj(t_y) * c_val
        )
        assert abs(direct - alt) < 1e-12
        assert abs(direct) == pytest.approx(0.758392, abs=1e-5)

    def test_monotone_in_separation(self):
        cfg = make_config(5.0, 20.0)
        seps = np.linspace(0.0, 12.0, 25)
        vals = [abs(coherence_factor(10.0 - s / 2, 10.0 + s / 2, cfg))
                for s in seps]
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 1e-12)

    def test_deeper_blockade_preserves_more_coherence(self):
        vals = [abs(coherence_factor(5.0, 15.0, make_config(d_b, 20.0)))
                for d_b in (2.0, 5.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_positions_outside_medium_rejected(self):
        cfg = make_config(5.0, 20.0)
        with pytest.raises(ValueError):
            coherence_factor(-0.1, 5.0, cfg)
        with pytest.raises(ValueError):
            coherence_factor(5.0, 20.5, cfg)


@pytest.fixture(scope="module")
def evolved_pair():
    cfg = make_config(5.0, 5.0)
    rho0 = initial_sine_mode(5.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PositivityWarning)
        out = evolve_cw(rho0, cfg)
    return rho0, out


class TestEvolveCw:
    def test_diagonal_untouched_and_trace_preserved(self, evolved_pair):
        rho0, out = evolved_pair
        assert np.array_equal(np.diag(out.rho), np.diag(rho0.rho))
        assert out.trace() == pytest.approx(rho0.trace(), abs=1e-10)

    def test_hermitian(self, evolved_pair):
        _, out = evolved_pair
        assert np.max(np.abs(out.rho - out.rho.conj().T)) < 1e-12

    def test_purity_bounded_and_reduced(self, evolved_pair):
        rho0, out = evolved_pair
        assert out.purity() <= 1.0 + 1e-10
        assert out.purity() == pytest.approx(0.808338, abs=5e-4)
        assert out.purity() < rho0.purity()

    def test_coherence_floor_in_the_interior(self):
        # boundary pairs dip below the plateau because the interaction
        # sphere is truncated there; the bound applies away from the walls
        cfg = make_config(5.0, 20.0)
        rho0 = initial_sine_mode(20.0, 64)
        out = evolve_cw(rho0, cfg)
        supported = np.abs(rho0.rho) > 0  # sine mode vanishes at the walls
        ratio = np.ones_like(rho0.rho, dtype=float)
        ratio[supported] = np.abs(out.rho[supported] / rho0.rho[supported])
        inner = (out.grid >= 2.0) & (out.grid <= 18.0)
        floor = ratio[np.ix_(inner, inner)].min()
        plateau = 1.0 - cw_bulk_coefficients(5.0)[2]
        assert floor >= plateau * 0.98
        assert np.all(ratio <= 1.0 + 1e-12)

    def test_grid_outside_medium_rejected(self):
        cfg = make_config(5.0, 5.0)
        rho0 = initial_sine_mode(6.0, 64)
        with pytest.raises(GridError):
            evolve_cw(rho0, cfg)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 5.0, 9),          # symmetric about L/2
        np.linspace(0.0, 4.6, 9) ** 1.05,  # asymmetric
    ], ids=["symmetric", "asymmetric"])
    def test_factor_matrix_matches_every_pair(self, grid):
        # each pair of the map, integrated alone by coherence_factor, agrees
        # with the map's element; the lower triangle is the conjugate
        cfg = make_config(5.0, 5.0)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        outer = np.outer(psi, psi.conj())
        rho0 = SpinWaveDensityMatrix(grid=grid, rho=0.5 * (outer + outer.conj().T))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityWarning)
            out = evolve_cw(rho0, cfg)
        expected = np.ones((grid.size, grid.size), dtype=complex)
        for i, j in zip(*np.triu_indices(grid.size, 1)):
            expected[i, j] = coherence_factor(grid[i], grid[j], cfg)
            expected[j, i] = np.conj(expected[i, j])
        assert np.max(np.abs(out.rho - expected * rho0.rho)) <= 1e-10 * np.max(np.abs(rho0.rho))
        assert np.array_equal(out.rho, out.rho.conj().T)

    def test_coherence_factor_is_the_evolved_element(self):
        # coherence_factor integrates its pair alone and evolve_cw all pairs
        # of the grid at once, so the adaptive partitions differ and the two
        # agree to round-off, not bit for bit: EPS is the largest deviation
        # over all 276 pairs of this grid, with or without FMA; the pairs
        # of every fourth point are checked
        cfg = make_config(5.0, 5.0)
        grid = np.linspace(0.0, cfg.L, 24)
        factor = factor_matrix(grid, cfg)
        assert np.all(np.diag(factor) == 1.0)
        assert np.array_equal(factor, factor.conj().T)
        sample = [*range(0, grid.size, 4), grid.size - 1]
        worst = max(abs(coherence_factor(grid[i], grid[j], cfg) - factor[i, j])
                    for i in sample for j in sample if i < j)
        assert worst <= EPS

    def test_pair_blocks_do_not_change_the_map(self, monkeypatch):
        # the 66 pairs of a 12-point grid in blocks of 8, the last one
        # partial, against one block of all 66
        cfg = make_config(5.0, 5.0)
        grid = np.linspace(0.0, cfg.L, 12)
        whole = factor_matrix(grid, cfg)
        monkeypatch.setattr(polsim.spinwave, "_PAIR_BLOCK", 8)
        blocked = factor_matrix(grid, cfg)
        assert np.max(np.abs(blocked - whole)) <= EPS

    @given(
        d_b=st.floats(min_value=0.5, max_value=20.0),
        length=st.floats(min_value=2.0, max_value=12.0),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        fracs=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=9, max_size=16, unique=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_media_keep_a_hermitian_contraction(self, d_b, length, phi, fracs, seed):
        grid = np.sort(np.array(fracs)) * length
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(grid.size, 2)) + 1j * rng.normal(size=(grid.size, 2))
        outer = psi @ psi.conj().T  # rank 2
        rho0 = SpinWaveDensityMatrix(grid=grid, rho=0.5 * (outer + outer.conj().T))
        with warnings.catch_warnings():
            warnings.simplefilter("error", PositivityWarning)
            out = evolve_cw(rho0, make_config(d_b, length, phi))
        assert np.array_equal(out.rho, out.rho.conj().T)
        assert np.array_equal(np.diag(out.rho), np.diag(rho0.rho))
        assert np.all(np.abs(out.rho) <= (1.0 + 1e-12) * np.abs(rho0.rho))


class TestBlockadeLossBaseline:
    def test_frozen_values(self):
        assert blockade_loss_baseline(0.0) == 0.0
        assert blockade_loss_baseline(1.0) == pytest.approx(1.0 - np.exp(-4.0), rel=1e-12)

    def test_dominates_switching_loss(self):
        loss = cw_bulk_coefficients(5.0)[2]
        assert blockade_loss_baseline(5.0) > 0.999 > loss

    def test_bounded_in_unit_interval(self):
        # 1 - exp(-4 d_b) saturates to 1.0 exactly in floats by d_b ~ 10
        for d_b in np.linspace(0.0, 100.0, 37):
            val = blockade_loss_baseline(float(d_b))
            assert 0.0 <= val <= 1.0
        assert blockade_loss_baseline(5.0) < 1.0
        # a scalar gives a Python float with the bits of the array element
        grid = np.linspace(0.0, 100.0, 37)
        scalars = [blockade_loss_baseline(float(d_b)) for d_b in grid]
        assert all(type(s) is float for s in scalars)
        assert np.array(scalars).tobytes() == blockade_loss_baseline(grid).tobytes()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            blockade_loss_baseline(-0.5)
        with pytest.raises(ValueError):
            blockade_loss_baseline(np.array([1.0, -0.5]))


class TestRetrievalEta:
    def test_pure_state_has_unit_weight(self):
        dm = initial_sine_mode(5.0, 64)
        assert retrieval_eta(dm) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_damping_bound(self):
        # off-diagonal scaled by the plateau, diagonal untouched: the top
        # mode keeps at least the plateau weight
        dm = initial_sine_mode(5.0, 64)
        plateau = 1.0 - cw_bulk_coefficients(5.0)[2]
        damped = plateau * dm.rho + (1.0 - plateau) * np.diag(np.diag(dm.rho))
        eta = retrieval_eta(SpinWaveDensityMatrix(grid=dm.grid, rho=damped))
        assert eta >= plateau - 1e-12

    def test_evolution_reduces_mode_weight(self):
        cfg = make_config(5.0, 5.0)
        rho0 = initial_sine_mode(5.0, 64)
        out = evolve_cw(rho0, cfg)
        eta = retrieval_eta(out)
        assert eta == pytest.approx(0.896810, abs=1e-3)
        assert eta < retrieval_eta(rho0)

    def test_zero_trace_rejected(self):
        dm = SpinWaveDensityMatrix(grid=np.linspace(0, 1, 4), rho=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            retrieval_eta(dm)
