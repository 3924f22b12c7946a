"""Tests for Bloch matrices, branch tracking and dispersion fits.

Eigenvalues are cross-checked against an independently coded route:
characteristic-polynomial coefficients assembled with the Faddeev-LeVerrier
recursion (traces only, no eigensolver) and rooted with numpy's polynomial
companion solve.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from polsim.core_model import PhysicalConfig, derive_scales
from polsim.errors import FitWindowError, FitWindowWarning, GridError
from polsim.polariton_spectrum import (
    _assignment,
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


def sequential_tracker(k_grid, regime, cfg):
    """Branch tracking one step at a time with ``linear_sum_assignment``.

    Each step outward from k = 0 assigns the unit eigenvectors of the next
    grid point to the branches by the largest summed overlap with the
    branch vectors of the previous point.  Returns the branch eigenvalues in
    units of gamma, shape (n_k, dim).
    """
    vals, vecs = np.linalg.eig(build_bloch_matrix(k_grid, regime, cfg))
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    n_k, dim = vals.shape
    i0 = n_k // 2
    order = np.empty((n_k, dim), dtype=int)
    order[i0] = np.lexsort((vals[i0].real, np.abs(vals[i0])))
    for i_prev, i in [(i - 1, i) for i in range(i0 + 1, n_k)] + [
        (i + 1, i) for i in range(i0 - 1, -1, -1)
    ]:
        overlap = np.abs(vecs[i_prev][:, order[i_prev]].conj().T @ vecs[i])
        row, col = linear_sum_assignment(-overlap)
        order[i, row] = col
    return np.take_along_axis(vals, order, axis=1) / cfg.gamma


def exhaustive_moves(overlap):
    """Per step, the first permutation in lexicographic order with the
    largest summed overlap, scored one permutation at a time."""
    dim = overlap.shape[-1]
    perms = list(itertools.permutations(range(dim)))
    return np.array([
        max(perms, key=lambda p: sum(step[a, p[a]] for a in range(dim)))
        for step in overlap
    ])


def assert_same_multiset(a, b, tol):
    cost = np.abs(a[:, None] - b[None, :])
    row, col = linear_sum_assignment(cost)
    assert cost[row, col].max() < tol


class TestBuildBlochMatrix:
    def test_dimensions_and_basis_deletion(self):
        cfg = make_config()
        assert build_bloch_matrix(0.1, "free", cfg).shape == (6, 6)
        blocked = build_bloch_matrix(0.1, "blockaded", cfg)
        assert blocked.shape == (5, 5)
        free = build_bloch_matrix(0.1, "free", cfg)
        assert np.array_equal(blocked, free[:5, :5])

    def test_loss_only_on_polarization_diagonal(self):
        cfg = make_config(phi=1.1)
        m = build_bloch_matrix(0.37, "free", cfg)
        anti = m - m.conj().T
        want = np.zeros((6, 6), dtype=complex)
        want[2, 2] = want[3, 3] = -2j * cfg.gamma
        assert np.allclose(anti, want, atol=1e-15)

    def test_zero_momentum_dark_vectors_are_annihilated(self):
        cfg = make_config(phi=0.7)
        for regime, count in (("free", 2), ("blockaded", 1)):
            m = build_bloch_matrix(0.0, regime, cfg)
            vecs = dark_polariton_vectors(regime, cfg)
            assert len(vecs) == count
            for v in vecs:
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
                assert np.linalg.norm(m @ v) < 1e-12 * np.linalg.norm(m)

    def test_input_validation(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            build_bloch_matrix(0.0, "both", cfg)

    def test_array_k_stacks_per_k_builds(self):
        cfg = make_config(phi=0.6)
        ks = np.linspace(-2.0, 2.0, 9)
        for regime, dim in (("free", 6), ("blockaded", 5)):
            stack = build_bloch_matrix(ks, regime, cfg)
            assert stack.shape == (ks.size, dim, dim)
            for k, m in zip(ks, stack):
                assert np.array_equal(m, build_bloch_matrix(k, regime, cfg))

    def test_eigenvalues_match_characteristic_polynomial_roots(self):
        cfg = make_config(phi=0.4)
        rng = np.random.default_rng(11)
        for regime in ("free", "blockaded"):
            for k in rng.uniform(-3.0, 3.0, size=10):
                m = build_bloch_matrix(float(k), regime, cfg)
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
                build_bloch_matrix(grid[i], "free", cfg)
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
        scales = derive_scales(cfg)
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

    def test_permutation_search_matches_sequential_assignment(self):
        # where no overlap is ambiguous the exact permutation argmax and the
        # sequential linear_sum_assignment tracker pick the same branches
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(60):
            cfg = make_config(
                G=float(10.0 ** rng.uniform(-0.7, 0.7)),
                Omega=float(10.0 ** rng.uniform(-0.7, 0.7)),
                OmegaS=float(10.0 ** rng.uniform(-0.7, 0.7)),
                gamma=float(10.0 ** rng.uniform(-0.5, 0.5)),
                phi=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            n_k = 2 * int(rng.integers(10, 100)) + 1
            grid = default_k_grid(cfg, float(rng.uniform(0.5, 4.0)), n_k)
            for regime in ("free", "blockaded"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    branches = spectrum(grid, regime, cfg)
                if caught:
                    continue
                tracked = np.column_stack([b.omega for b in branches])
                assert np.array_equal(tracked, sequential_tracker(grid, regime, cfg))
                compared += 1
        assert compared >= 90  # 98 of the 120 runs raise no warning

    @pytest.mark.parametrize("dim", [3, 5, 6])
    def test_assignment_matches_exhaustive_argmax(self, dim):
        rng = np.random.default_rng(dim)
        n = 40
        random = rng.uniform(size=(n, dim, dim))
        # near-permutations: a permuted identity under noise of random size;
        # in every fourth step one row's runner-up sits 5e-7 below its
        # maximum, an ambiguous step
        perms = np.array([rng.permutation(dim) for _ in range(n)])
        near = np.eye(dim)[perms] + rng.uniform(size=(n, 1, 1)) ** 4 * rng.uniform(
            size=(n, dim, dim)
        )
        steps = np.arange(0, n, 4)
        near[steps, 0, perms[steps, 1]] = near[steps, 0, perms[steps, 0]] - 5e-7
        # two rows share their argmax column, so the row maxima are no
        # permutation and the runner-up of one row decides
        shared = rng.uniform(0.0, 0.5, size=(n, dim, dim))
        shared[:, 0, 0] = shared[:, 1, 0] = 1.0
        shared[:, 1, 1] = rng.uniform(0.5, 1.0, size=n)
        # exact ties between whole permutations: dyadic entries sum exactly
        ties = rng.integers(0, 3, size=(n, dim, dim)) / 4.0
        ties[:5] = 0.5
        for overlap in (random, near, shared, ties):
            moves, ambiguous = _assignment(overlap)
            assert np.array_equal(moves, exhaustive_moves(overlap))
            top = np.sort(overlap, axis=2)
            assert np.array_equal(
                ambiguous, np.any(top[..., -1] - top[..., -2] < 1e-6, axis=1)
            )
        assert ambiguous[:5].all()

    def test_memory_does_not_grow_with_the_permutation_count(self):
        # every step of this grid is certain (row maxima in distinct columns,
        # none ambiguous), so none scores the 720 permutations of the free
        # regime (scoring them on every step peaks at 24 MB here)
        cfg = make_config()
        grid = default_k_grid(cfg, 2.0, 2001)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spectrum(grid, "free", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_ambiguous_overlaps_warn_outward_from_zero(self):
        cfg = make_config(G=0.5, Omega=0.5, OmegaS=1.0)
        grid = default_k_grid(cfg, 2.0, 41)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spectrum(grid, "blockaded", cfg)
        assert [str(w.message) for w in caught] == [
            "branch tracking ambiguous at k*l_abs = 0.8",
            "branch tracking ambiguous at k*l_abs = -0.8",
        ]

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
            singles = [composition(v) for v in b.vectors]
            assert all(type(f) is float for triple in singles for f in triple)
            fracs = np.array(singles)
            assert np.allclose(fracs.sum(axis=1), 1.0, atol=1e-12)
            # one vector gives the bits of the stacked call
            assert np.column_stack(composition(b.vectors)).tobytes() == fracs.tobytes()

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
        scales = derive_scales(cfg)
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
        scales = derive_scales(cfg)
        grid = np.linspace(-0.0004, 0.0004, 41) / scales.l_abs
        darks = [b for b in spectrum(grid, "free", cfg) if b.kind == "dark"]
        fitted = np.sort([fit_dispersion(b, cfg).value.real for b in darks])
        exact = exact_dark_velocities(cfg)
        assert np.all(np.abs(fitted - exact) < 1e-4 * np.abs(exact))

    def test_velocity_ratio_in_strong_coupling_limit(self):
        # v_right -> -(Om/OmS)**2 * v_left when G >> OmS >> Om
        cfg = make_config(G=1000.0, Omega=1.0, OmegaS=30.0)
        scales = derive_scales(cfg)
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

    @pytest.mark.parametrize(
        "regime, G, Omega, OmegaS, model, residual",
        [
            ("free", 3.0, 3.0, 0.1, "linear", 2.5e-3),
            ("blockaded", 30.0, 30.0, 1.0, "quadratic", 6.2e-3),
        ],
    )
    def test_curved_window_warns(self, regime, G, Omega, OmegaS, model, residual):
        # criterion 6's window on the unit medium: the dark branch bends
        # inside it, and the fit says so while still returning its result
        cfg = make_config(G=G, Omega=Omega, OmegaS=OmegaS, C6=1.0, L=24.0, x_gate=12.0)
        grid = np.linspace(-0.01, 0.01, 41) / derive_scales(cfg).l_abs
        darks = [b for b in spectrum(grid, regime, cfg) if b.kind == "dark"]
        assert darks
        for dark in darks:
            with pytest.warns(FitWindowWarning, match=f"{model} fit residual"):
                fit = fit_dispersion(dark, cfg)
            assert fit.model == model
            assert fit.residual == pytest.approx(residual, rel=0.05)
            assert np.isfinite(fit.value) and fit.rel_error > 0.0

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
            np.linalg.eigvals(build_bloch_matrix(k, "blockaded", cfg))
        )
        errors = []
        for shift in (1e4, 1e6):
            # a finite van der Waals shift on the gate-sensitive level S
            m = build_bloch_matrix(k, "free", cfg)
            m[5, 5] = shift
            w = np.linalg.eigvals(m)
            kept = np.sort_complex(w[np.abs(w) < shift / 2.0])
            assert kept.size == 5
            errors.append(np.max(np.abs(kept - target)))
        assert errors[0] < 1e-3
        assert errors[1] < 1e-5
        assert errors[1] < errors[0] / 10.0
