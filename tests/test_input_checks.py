"""Tables of public inputs: a bad value is refused by name.

Every grid and parameter value the library accepts goes through the
checks in ``core_model``.  Each row of the first table feeds nan, +inf and
-inf to one input and expects the error type, a message that starts with
the input's name, says "finite", and names the bad entry, with its index
inside an array.  The second table feeds values that are no real number,
and the third positions outside the medium to each input that takes one.
The fourth feeds a two-element array to each input documented as one
number, and a 0-d array and a numpy scalar, which count as one number.
"""

import dataclasses
import math

import numpy as np
import pytest

from polsim.core_model import (
    PhysicalConfig,
    derive_scales,
    gaussian_pulse_spectrum,
    trapezoid_weights,
)
from polsim.errors import GridError
from polsim.fidelity import (
    blockade_gate_baseline,
    reflection_spectrum,
    switch_fidelities,
    transistor_fidelity,
)
from polsim.polariton_spectrum import build_bloch_matrix, spectrum
from polsim.propagation import cw_analytic, cw_bulk_coefficients, solve_bvp, t0_spectrum
from polsim.spinwave import blockade_loss_baseline, coherence_factor, evolve_cw, initial_sine_mode
from polsim.susceptibility import nu

CFG = PhysicalConfig(G=1.0, Omega=1.0, OmegaS=1.0, gamma=1.0, phi=0.0,
                     c=1.0, C6=1.0, L=5.0, x_gate=2.5)
SCALES = derive_scales(CFG)


def entry(values, index, bad):
    """``values`` as a float array with ``bad`` at ``index``."""
    out = np.array(values, dtype=float)
    out[index] = bad
    return out


def row(id, call, error, name, index=None):
    """A table row: the call on the bad value, the error type, the input's
    name and the bad entry's index inside an array (None for a scalar)."""
    return pytest.param(call, error, name, index, id=id)


ROWS = [
    *[
        row(f"PhysicalConfig-{field}",
            lambda b, field=field: dataclasses.replace(CFG, **{field: b}), ValueError, field)
        for field in ("G", "Omega", "OmegaS", "gamma", "phi", "c", "C6", "L")
    ],
    row("trapezoid_weights",
        lambda b: trapezoid_weights(entry([0.0, 1.0, 2.0], 1, b)), GridError, "grid", 1),
    row("gaussian_pulse_spectrum-duration",
        lambda b: gaussian_pulse_spectrum(b, np.linspace(-1.0, 1.0, 11)), ValueError, "duration"),
    row("gaussian_pulse_spectrum-grid",
        lambda b: gaussian_pulse_spectrum(1.0, entry([-1.0, 0.0, 1.0], 1, b)),
        GridError, "omega_grid", 1),
    row("reflection_spectrum",
        lambda b: reflection_spectrum([1.0, b], CFG), GridError, "omega_grid", 1),
    row("t0_spectrum", lambda b: t0_spectrum([0.1, b], CFG), GridError, "omega_grid", 1),
    # a NaN passes an increasing-grid test, so finiteness is checked first
    row("spectrum",
        lambda b: spectrum(entry(np.linspace(-1.0, 1.0, 5), 3, b), "free", CFG),
        GridError, "k_grid", 3),
    row("build_bloch_matrix", lambda b: build_bloch_matrix(b, "free", CFG), ValueError, "k"),
    row("build_bloch_matrix-array",
        lambda b: build_bloch_matrix(entry([0.0, 0.5, 1.0, 1.5], 2, b), "free", CFG),
        ValueError, "k", 2),
    row("switch_fidelities", switch_fidelities, ValueError, "d_b"),
    row("blockade_gate_baseline", blockade_gate_baseline, ValueError, "d_b"),
    row("transistor_fidelity", lambda b: transistor_fidelity(b, CFG), ValueError, "d_b"),
    row("cw_bulk_coefficients", cw_bulk_coefficients, ValueError, "d_b"),
    row("cw_bulk_coefficients-array",
        lambda b: cw_bulk_coefficients(entry([1.0, 2.0], 1, b)), ValueError, "d_b", 1),
    row("cw_bulk_coefficients-phi", lambda b: cw_bulk_coefficients(1.0, b), ValueError, "phi"),
    row("blockade_loss_baseline", blockade_loss_baseline, ValueError, "d_b"),
    row("blockade_loss_baseline-array",
        lambda b: blockade_loss_baseline(entry([1.0, 2.0], 1, b)), ValueError, "d_b", 1),
    row("initial_sine_mode", lambda b: initial_sine_mode(b, 64), ValueError, "L"),
    row("solve_bvp", lambda b: solve_bvp(b, 2.5, CFG), ValueError, "omega"),
    row("nu-z", lambda b: nu(b, 2.5, SCALES), ValueError, "z"),
    row("nu-z-array", lambda b: nu(entry([1.0, 2.0, 3.0], 2, b), 2.5, SCALES), ValueError, "z", 2),
    row("nu-x", lambda b: nu(5.0, b, SCALES), ValueError, "x"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, error, name, index", ROWS)
def test_non_finite_input_is_refused_by_name(call, error, name, index, bad):
    with pytest.raises(error) as info:
        call(bad)
    message = str(info.value)
    at = "" if index is None else f" at index {index}"
    assert message.startswith(f"{name} must be ")
    assert message.endswith(f"finite, got {bad!r}{at}")


def case(id, call, error, name, bad, tail):
    """A row of the non-real table: the message ends ``tail``."""
    return pytest.param(call, error, name, bad, tail, id=id)


def with_g(b):
    return dataclasses.replace(CFG, G=b)


# an integer beyond the float range counts as an infinity of its sign; any
# other non-real value is refused as such, never converted
NON_REAL = [
    case("PhysicalConfig-G-huge-int", with_g, ValueError, "G", 10**400,
         "positive and finite, got inf"),
    case("PhysicalConfig-G-huge-negative-int", with_g, ValueError, "G", -(10**400),
         "positive and finite, got -inf"),
    case("blockade_loss_baseline-huge-int", blockade_loss_baseline, ValueError, "d_b", 10**400,
         "nonnegative and finite, got inf"),
    case("PhysicalConfig-G-str", with_g, ValueError, "G", "1", "real, got '1'"),
    case("PhysicalConfig-x_gate-str", lambda b: dataclasses.replace(CFG, x_gate=b),
         ValueError, "x_gate", "1", "real, got '1'"),
    case("blockade_loss_baseline-str", blockade_loss_baseline, ValueError, "d_b", "1",
         "real, got '1'"),
    case("cw_bulk_coefficients-complex", cw_bulk_coefficients, ValueError, "d_b", 1.0 + 0.5j,
         "real, got (1+0.5j)"),
    case("trapezoid_weights-str", lambda b: trapezoid_weights(["0", b]), GridError, "grid", "1",
         "real, got ['0', '1']"),
]


@pytest.mark.parametrize("call, error, name, bad, tail", NON_REAL)
def test_non_real_input_is_refused_by_name(call, error, name, bad, tail):
    with pytest.raises(error) as info:
        call(bad)
    assert str(info.value) == f"{name} must be {tail}"


def planted(bad):
    """The half-sine matrix of CFG with ``bad`` planted as its first grid point.

    Planted after construction: the matrix refuses a nan grid itself, so
    only a grid it never checked can carry one to ``evolve_cw``.
    """
    rho0 = initial_sine_mode(CFG.L, 64)
    object.__setattr__(rho0, "grid", entry(rho0.grid, 0, bad))
    return rho0


IN_MEDIUM = [
    row("PhysicalConfig-x_gate",
        lambda b: dataclasses.replace(CFG, x_gate=b), ValueError, "x_gate"),
    row("solve_bvp", lambda b: solve_bvp(1.0, b, CFG), ValueError, "x"),
    row("cw_analytic", lambda b: cw_analytic(b, CFG), ValueError, "x"),
    row("coherence_factor-x", lambda b: coherence_factor(b, 1.0, CFG), ValueError, "x"),
    row("coherence_factor-y", lambda b: coherence_factor(1.0, b, CFG), ValueError, "y"),
    row("evolve_cw", lambda b: evolve_cw(planted(b), CFG), GridError, "rho0.grid", 0),
]


@pytest.mark.parametrize("bad", [math.nan, -0.5, CFG.L + 0.5])
@pytest.mark.parametrize("call, error, name, index", IN_MEDIUM)
def test_position_outside_the_medium_is_refused_by_name(call, error, name, index, bad):
    with pytest.raises(error) as info:
        call(bad)
    at = "" if index is None else f" at index {index}"
    assert str(info.value) == f"{name} must be in the medium [0, {CFG.L!r}], got {bad!r}{at}"


def one(id, call, name, good=1.5):
    """A row of the one-number table: ``call`` on the value, the input's name
    and a valid value of that input."""
    return pytest.param(call, name, good, id=id)


# inputs documented as one number; the array inputs (k, the d_b sweeps,
# nu's z and x, and grids) are in the tables above
ONE_NUMBER = [
    *[
        one(f"PhysicalConfig-{field}",
            lambda v, field=field: dataclasses.replace(CFG, **{field: v}), field,
            6.0 if field == "L" else 1.5)
        for field in ("G", "Omega", "OmegaS", "gamma", "phi", "c", "C6", "L", "x_gate")
    ],
    one("solve_bvp-omega", lambda v: solve_bvp(v, 2.5, CFG), "omega"),
    one("solve_bvp-x", lambda v: solve_bvp(1.0, v, CFG), "x"),
    one("cw_analytic-x", lambda v: cw_analytic(v, CFG), "x"),
    one("coherence_factor-x", lambda v: coherence_factor(v, 1.0, CFG), "x"),
    one("coherence_factor-y", lambda v: coherence_factor(1.0, v, CFG), "y"),
    one("transistor_fidelity-d_b", lambda v: transistor_fidelity(v, CFG), "d_b"),
    one("blockade_gate_baseline-d_b", blockade_gate_baseline, "d_b"),
    one("gaussian_pulse_spectrum-duration",
        lambda v: gaussian_pulse_spectrum(v, np.linspace(-1.0, 1.0, 11)), "duration"),
    one("initial_sine_mode-L", lambda v: initial_sine_mode(v, 64), "L"),
    one("cw_bulk_coefficients-phi", lambda v: cw_bulk_coefficients(1.0, v), "phi"),
]


@pytest.mark.parametrize("call, name, good", ONE_NUMBER)
def test_array_for_one_number_is_refused_by_name(call, name, good):
    with pytest.raises(ValueError) as info:
        call(np.array([good, good]))
    assert str(info.value) == f"{name} must be one number, got an array of shape (2,)"


@pytest.mark.parametrize("call, name, good", ONE_NUMBER)
def test_zero_dimensional_numbers_are_accepted(call, name, good):
    call(np.array(good))
    call(np.float64(good))
