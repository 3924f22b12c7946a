"""Tests for Bloch matrices, branch tracking and dispersion fits.

Eigenvalues are cross-checked against an independently coded route:
characteristic-polynomial coefficients assembled with the Faddeev-LeVerrier
recursion (traces only, no eigensolver) and rooted with numpy's polynomial
companion solve.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from polsim.core_model import PhysicalConfig, derive_scales
from polsim.errors import FitWindowError, GridError
from polsim.polariton_spectrum import (
    build_bloch_matrix,
    composition,
    dark_polariton_vectors,
    default_k_grid,
    fit_dispersion,
    spectrum,
)


def make_config(**overrides):
    base = dict(
        G=2.0, Omega=1.0, OmegaS=2.0, gamma=1.0, phi=0.0,
        c=1.0, C6=4.0, L=30.0, x_gate=15.0,
    )
    base.update(overrides)
    return PhysicalConfig(**base)


def charpoly_coefficients(a):
    """Faddeev-LeVerrier recursion: monic characteristic polynomial of a."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = a.copy()
    for k in range(1, n + 1):
        ck = -np.trace(m) / k
        coeffs.append(ck)
        m = a @ (m + ck * np.eye(n))
    return np.array(coeffs)


def assert_same_multiset(a, b, tol):
    cost = np.abs(a[:, None] - b[None, :])
    row, col = linear_sum_assignment(cost)
    assert cost[row, col].max() < tol


class TestBuildBlochMatrix:
    def test_dimensions_and_basis_deletion(self):
        cfg = make_config()
        assert build_bloch_matrix(0.1, "free", cfg).entries.shape == (6, 6)
        blocked = build_bloch_matrix(0.1, "blockaded", cfg).entries
        assert blocked.shape == (5, 5)
        free = build_bloch_matrix(0.1, "free", cfg).entries
        assert np.array_equal(blocked, free[:5, :5])

    def test_loss_only_on_polarization_diagonal(self):
        cfg = make_config(phi=1.1)
        m = build_bloch_matrix(0.37, "free", cfg).entries
        anti = m - m.conj().T
        want = np.zeros((6, 6), dtype=complex)
        want[2, 2] = want[3, 3] = -2j * cfg.gamma
        assert np.allclose(anti, want, atol=1e-15)

    def test_zero_momentum_dark_vectors_are_annihilated(self):
        cfg = make_config(phi=0.7)
        for regime, count in (("free", 2), ("blockaded", 1)):
            m = build_bloch_matrix(0.0, regime, cfg).entries
            vecs = dark_polariton_vectors(regime, cfg)
            assert len(vecs) == count
            for v in vecs:
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
                assert np.linalg.norm(m @ v) < 1e-12 * np.linalg.norm(m)

    def test_input_validation(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            build_bloch_matrix(0.0, "both", cfg)
        with pytest.raises(ValueError):
            build_bloch_matrix(np.inf, "free", cfg)
        with pytest.raises(ValueError):
            build_bloch_matrix(0.0, "blockaded", cfg, gate_shift=1e5)

    def test_eigenvalues_match_characteristic_polynomial_roots(self):
        cfg = make_config(phi=0.4)
        rng = np.random.default_rng(11)
        for regime in ("free", "blockaded"):
            for k in rng.uniform(-3.0, 3.0, size=10):
                m = build_bloch_matrix(float(k), regime, cfg).entries
                direct = np.linalg.eigvals(m)
                oracle = np.roots(charpoly_coefficients(m))
                scale = max(1.0, np.abs(direct).max())
                assert_same_multiset(direct, oracle, 1e-8 * scale)


class TestSpectrum:
    def test_free_regime_has_two_dark_branches(self):
        cfg = make_config()  # OmS/G = 1, Om/G = 0.5, gamma/Om = 1
        branches = spectrum(default_k_grid(cfg), "free", cfg)
        assert len(branches) == 6
        assert sum(b.kind == "dark" for b in branches) == 2

    def test_blockaded_regime_has_one_dark_branch(self):
        cfg = make_config(G=1.0)  # G/Om = 1, gamma/Om = 1
        branches = spectrum(default_k_grid(cfg), "blockaded", cfg)
        assert len(branches) == 5
        assert sum(b.kind == "dark" for b in branches) == 1

    def test_no_gain_anywhere(self):
        cfg = make_config()
        for regime in ("free", "blockaded"):
            for b in spectrum(default_k_grid(cfg), regime, cfg):
                assert np.all(b.omega.imag <= 1e-12)

    def test_branches_partition_the_eigenvalue_multiset(self):
        cfg = make_config(phi=0.9)
        grid = default_k_grid(cfg, 2.0, 201)
        branches = spectrum(grid, "free", cfg)
        rng = np.random.default_rng(5)
        for i in rng.integers(0, grid.size, size=10):
            tracked = np.array([b.omega[i] for b in branches])
            fresh = np.linalg.eigvals(
                build_bloch_matrix(grid[i], "free", cfg).entries
            ) / cfg.gamma
            assert_same_multiset(tracked, fresh, 1e-9 * max(1.0, np.abs(fresh).max()))

    def test_control_phase_is_a_gauge_for_the_spectrum(self):
        grid_labs = np.linspace(-1.0, 1.0, 41)
        base = make_config(phi=0.0)
        turned = make_config(phi=2.2)
        scales = derive_scales(base)
        grid = grid_labs / scales.l_abs
        for regime in ("free", "blockaded"):
            a = spectrum(grid, regime, base)
            b = spectrum(grid, regime, turned)
            for i in range(grid.size):
                wa = np.sort_complex(np.array([br.omega[i] for br in a]))
                wb = np.sort_complex(np.array([br.omega[i] for br in b]))
                assert np.allclose(wa, wb, atol=1e-10)

    def test_dark_branches_are_odd_in_momentum_at_small_k(self):
        cfg = make_config(G=10.0, OmegaS=40.0)
        scales = derive_scales(cfg, allow_oversized_blockade=True)
        grid = np.linspace(-0.01, 0.01, 41) / scales.l_abs
        for b in spectrum(grid, "free", cfg):
            if b.kind != "dark":
                continue
            re = b.omega.real
            assert np.max(np.abs(re + re[::-1])) < 1e-10 * np.max(np.abs(re))

    def test_blockaded_bright_branches_come_in_mirrored_pairs(self):
        cfg = make_config(G=1.0)
        branches = spectrum(default_k_grid(cfg), "blockaded", cfg)
        i0 = np.argmin(np.abs(branches[0].k_samples))
        bright = sorted(
            (b.omega[i0] for b in branches if b.kind == "bright"),
            key=lambda w: w.real,
        )
        lo, hi = bright[:2], bright[2:][::-1]
        for a, b in zip(lo, hi):
            assert a.real == pytest.approx(-b.real, abs=1e-9)
            assert a.imag == pytest.approx(b.imag, abs=1e-9)

    def test_grid_validation(self):
        cfg = make_config()
        with pytest.raises(GridError):
            spectrum(np.linspace(-1.0, 2.0, 31), "free", cfg)
        with pytest.raises(GridError):
            spectrum(np.linspace(-1.0, 1.0, 40), "free", cfg)  # misses k = 0
        with pytest.raises(GridError):
            spectrum(np.zeros(5), "free", cfg)


class TestComposition:
    def test_backward_dark_polariton_weights(self):
        cfg = make_config(G=1.0, OmegaS=2.0)
        right, left = dark_polariton_vectors("free", cfg)
        fr, fl, fa = composition(left)
        assert fr == pytest.approx(0.0, abs=1e-15)
        assert fl == pytest.approx(cfg.OmegaS**2 / (cfg.OmegaS**2 + cfg.G**2), rel=1e-12)
        assert fa == pytest.approx(cfg.G**2 / (cfg.OmegaS**2 + cfg.G**2), rel=1e-12)

    def test_stationary_polariton_splits_equally_between_photons(self):
        cfg = make_config(G=1.0, Omega=1.0, phi=0.3)
        (vec,) = dark_polariton_vectors("blockaded", cfg)
        fr, fl, fa = composition(vec)
        assert fr == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert fl == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert fa == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_forward_dark_polariton_with_matched_couplings(self):
        cfg = make_config(G=1.0, Omega=1.0, OmegaS=1.0)
        right, _ = dark_polariton_vectors("free", cfg)
        assert composition(right) == pytest.approx((1 / 3, 0.0, 2 / 3), rel=1e-12)

    def test_fractions_sum_to_one_on_tracked_branches(self):
        cfg = make_config(phi=1.7)
        branches = spectrum(default_k_grid(cfg, 2.0, 81), "free", cfg)
        for b in branches:
            fracs = np.array([composition(v) for v in b.vectors])
            assert np.allclose(fracs.sum(axis=1), 1.0, atol=1e-12)
            assert np.array_equal(np.column_stack(composition(b.vectors)), fracs)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            composition(np.zeros(6))


def exact_dark_velocities(cfg):
    """Independent k -> 0 group-velocity oracle for the free dark branches.

    First-order degenerate perturbation in k of M(k) = M0 + k * diag(c, -c,
    0, ...).  M0 is complex symmetric at phi = 0, so left null vectors are
    the transposes of the right ones and the two slopes are the generalized
    eigenvalues of (V, S) with V_ij = r_i M1 r_j and S_ij = r_i . r_j over
    the unnormalized dark vectors (which are not orthogonal under this
    bilinear form, hence the metric).
    """
    G, Om, OmS, c = cfg.G, cfg.Omega, cfg.OmegaS, cfg.c
    basis = [
        np.array([Om * OmS, 0.0, 0.0, 0.0, -G * OmS, G * Om]),
        np.array([0.0, OmS, 0.0, 0.0, 0.0, -G]),
    ]
    m1 = np.diag([c, -c, 0.0, 0.0, 0.0, 0.0])
    s = np.array([[a @ b for b in basis] for a in basis])
    v = np.array([[a @ m1 @ b for b in basis] for a in basis])
    return np.sort(scipy.linalg.eigvals(v, s).real)


class TestFitDispersion:
    def test_slow_light_group_velocities(self):
        cfg = make_config(G=10.0, Omega=1.0, OmegaS=40.0)
        scales = derive_scales(cfg, allow_oversized_blockade=True)
        grid = np.linspace(-0.01, 0.01, 41) / scales.l_abs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            darks = [b for b in spectrum(grid, "free", cfg) if b.kind == "dark"]
            fits = sorted(
                (fit_dispersion(b, cfg) for b in darks),
                key=lambda f: f.value.real,
            )
        fitted = np.array([f.value.real for f in fits])
        assert fitted[0] < 0.0 < fitted[1]
        for f in fits:
            assert f.model == "linear"
            assert f.rel_error < 0.01  # against the two-level closed forms
            assert f.residual < 1e-3
        assert fitted[1] / cfg.c == pytest.approx(1.0 / 101.0, rel=0.01)
        exact = exact_dark_velocities(cfg)
        assert np.all(np.abs(fitted - exact) < 1e-3 * np.abs(exact))

    def test_fitted_slopes_match_perturbation_oracle(self):
        cfg = make_config(G=300.0, Omega=1.0, OmegaS=10.0)
        scales = derive_scales(cfg, allow_oversized_blockade=True)
        grid = np.linspace(-0.0004, 0.0004, 41) / scales.l_abs
        darks = [b for b in spectrum(grid, "free", cfg) if b.kind == "dark"]
        fitted = np.sort([fit_dispersion(b, cfg).value.real for b in darks])
        exact = exact_dark_velocities(cfg)
        assert np.all(np.abs(fitted - exact) < 1e-4 * np.abs(exact))

    def test_velocity_ratio_in_strong_coupling_limit(self):
        # v_right -> -(Om/OmS)**2 * v_left when G >> OmS >> Om
        cfg = make_config(G=1000.0, Omega=1.0, OmegaS=30.0)
        scales = derive_scales(cfg, allow_oversized_blockade=True)
        grid = np.linspace(-0.0002, 0.0002, 41) / scales.l_abs
        darks = [b for b in spectrum(grid, "free", cfg) if b.kind == "dark"]
        v_left, v_right = np.sort([fit_dispersion(b, cfg).value.real for b in darks])
        assert v_right == pytest.approx(
            -(cfg.Omega**2 / cfg.OmegaS**2) * v_left, rel=5e-3
        )

    def test_stationary_light_diffusion_coefficient(self):
        cfg = make_config(G=1.0, Omega=1.0, OmegaS=2.0)
        grid = np.linspace(-0.01, 0.01, 41)  # l_abs = 1 here
        dark = [b for b in spectrum(grid, "blockaded", cfg) if b.kind == "dark"][0]
        fit = fit_dispersion(dark, cfg)
        assert fit.model == "quadratic"
        assert fit.reference == pytest.approx(-2j / 3.0, rel=1e-12)
        assert fit.rel_error < 0.01
        assert abs(fit.value.real) < 1e-3 * abs(fit.value.imag)

    def test_wide_grid_has_no_usable_window(self):
        cfg = make_config(G=1.0)
        dark = [b for b in spectrum(default_k_grid(cfg), "blockaded", cfg)
                if b.kind == "dark"][0]
        # default grid spacing leaves fewer than five samples in the window
        with pytest.raises(FitWindowError):
            fit_dispersion(dark, cfg)

    def test_bright_branch_rejected(self):
        cfg = make_config(G=1.0)
        bright = [b for b in spectrum(default_k_grid(cfg), "blockaded", cfg)
                  if b.kind == "bright"][0]
        with pytest.raises(ValueError):
            fit_dispersion(bright, cfg)


class TestFiniteShiftConvergence:
    def test_large_gate_shift_approaches_basis_deletion(self):
        cfg = make_config()
        k = 0.3 / derive_scales(cfg).l_abs
        target = np.sort_complex(
            np.linalg.eigvals(build_bloch_matrix(k, "blockaded", cfg).entries)
        )
        errors = []
        for shift in (1e4, 1e6):
            w = np.linalg.eigvals(
                build_bloch_matrix(k, "free", cfg, gate_shift=shift).entries
            )
            kept = np.sort_complex(w[np.abs(w) < shift / 2.0])
            assert kept.size == 5
            errors.append(np.max(np.abs(kept - target)))
        assert errors[0] < 1e-3
        assert errors[1] < 1e-5
        assert errors[1] < errors[0] / 10.0
