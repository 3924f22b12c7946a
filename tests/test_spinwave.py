"""Tests for the stored-excitation decoherence map.

Oracle strategy: the evolution factor has an exact partial-fraction
decomposition into two boundary transmission integrals plus a cross term,
so every direct kernel evaluation can be cross-checked through a second,
independently assembled route.  The far-separation plateau is pinned to the
bulk loss coefficient from the propagation module.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import polsim.spinwave
from polsim.core_model import PhysicalConfig, derive_scales
from polsim.errors import GridError, PositivityWarning
from polsim.propagation import cw_bulk_coefficients
from polsim.spinwave import (
    SpinWaveDensityMatrix,
    blockade_loss_baseline,
    coherence_factor,
    evolve_cw,
    initial_sine_mode,
    retrieval_eta,
)
from polsim.susceptibility import nu


def make_config(d_b, L):
    """Unit blockade radius; G sets the depth per radius."""
    return PhysicalConfig(G=float(np.sqrt(d_b)), Omega=1.0, OmegaS=1.0,
                          gamma=1.0, phi=0.0, c=1.0, C6=1.0, L=L, x_gate=L / 2.0)


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
        cfg = make_config(5.0, 20.0)
        scales = derive_scales(cfg)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x, y = rng.uniform(0.0, 20.0, size=2)
            f_xy = coherence_factor(x, y, cfg, scales)
            f_yx = coherence_factor(y, x, cfg, scales)
            assert abs(f_yx - np.conj(f_xy)) < 1e-12

    def test_partial_fraction_route_agrees(self):
        # (u - v)/((u + 2i)(v - 2i)) = 1/(v - 2i) - 1/(u + 2i) - 4i/((u + 2i)(v - 2i))
        # turns the factor into boundary transmissions plus a cross integral
        cfg = make_config(5.0, 20.0)
        scales = derive_scales(cfg)
        x, y = 7.3, 11.1
        direct = coherence_factor(x, y, cfg, scales)

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
        scales = derive_scales(cfg)
        seps = np.linspace(0.0, 12.0, 25)
        vals = [abs(coherence_factor(10.0 - s / 2, 10.0 + s / 2, cfg, scales))
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

    @pytest.mark.parametrize("grid, integrals", [
        (np.linspace(0.0, 5.0, 9), 20),        # mirrored: i + j <= 8 only
        (np.linspace(0.0, 4.6, 9) ** 1.05, 36),  # asymmetric: every pair
    ])
    def test_mirror_reuse_matches_every_pair(self, grid, integrals, monkeypatch):
        # the mirrored half of the map equals direct evaluation pair by pair
        cfg = make_config(5.0, 5.0)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        outer = np.outer(psi, psi.conj())
        rho0 = SpinWaveDensityMatrix(grid=grid, rho=0.5 * (outer + outer.conj().T))
        calls = []
        kernel = polsim.spinwave._kernel_integral
        monkeypatch.setattr(polsim.spinwave, "_kernel_integral",
                            lambda *a: calls.append(a) or kernel(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityWarning)
            out = evolve_cw(rho0, cfg)
        assert len(calls) == integrals
        expected = np.array([[coherence_factor(x, y, cfg) for y in grid] for x in grid])
        assert np.max(np.abs(out.rho - expected * rho0.rho)) <= 1e-10 * np.max(np.abs(rho0.rho))
        assert np.array_equal(out.rho, out.rho.conj().T)


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
        grid = np.linspace(0.0, 100.0, 37)
        assert blockade_loss_baseline(grid).tolist() == [
            blockade_loss_baseline(float(d_b)) for d_b in grid
        ]

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
