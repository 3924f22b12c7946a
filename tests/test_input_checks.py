"""One table of public inputs: every number broadcasts or is refused by name.

Each row of ``ROWS`` is one numeric parameter of one callable in
``polsim.__all__``, called with every other argument valid.  Its kind says
what the parameter accepts:

* ``broadcast``: an array gives, element by element, the bits of a loop of
  scalar calls, and a scalar call returns no numpy scalar or 0-d array;
* ``one``: one number; an array is refused by name, a 0-d array and a numpy
  scalar count as one number;
* ``grid``: a one-dimensional array, every point checked;
* ``count``: an integer (no bool) not below a minimum;
* ``shape``: an array of finite complex entries whose shape is fixed by
  the other arguments.

Every row refuses a bad value with an error that starts with the
parameter's name and names the rule and the bad entry, with its index
inside an array: non-finite values and values outside the rule, a bool,
a string and a complex number for a number, a scalar for an array.
``test_every_numeric_parameter_has_a_row`` fails when a public callable
gains a numeric parameter that has no row here.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import polsim
from polsim.core_model import PhysicalConfig, gaussian_pulse_spectrum, trapezoid_weights
from polsim.errors import GridError, PolsimError
from polsim.fidelity import (
    blockade_gate_baseline,
    fidelity_report,
    pulse_router_fidelity,
    reflection_spectrum,
    switch_fidelities,
    transistor_fidelity,
)
from polsim.polariton_spectrum import build_bloch_matrix, composition, default_k_grid, spectrum
from polsim.propagation import (
    cw_analytic,
    cw_bulk_coefficients,
    propagation_matrix,
    solve_bvp,
    t0_spectrum,
    transparency_width_study,
)
from polsim.spinwave import (
    SpinWaveDensityMatrix,
    blockade_loss_baseline,
    coherence_factor,
    evolve_cw,
    initial_sine_mode,
)
from polsim.susceptibility import free_susceptibilities, nu, susceptibilities, xi

CFG = PhysicalConfig(G=1.0, Omega=1.0, OmegaS=1.0, gamma=1.0, phi=0.3,
                     c=1.0, C6=1.0, L=5.0, x_gate=2.5)
GRID = np.linspace(-1.0, 1.0, 11)
MEDIUM = f"in the medium [0, {CFG.L!r}]"

# parameters that take no number: configurations, choices and results
NOT_NUMBERS = {"config", "regime", "branch", "t0_results", "rho0", "dm", "pulse"}
# public classes that hold results the library computes, not inputs it checks
RESULTS = {
    "DerivedScales", "PulseSpec", "PolaritonBranch", "DispersionFit", "TwoModeField",
    "ScatterResult", "T0Spectrum", "WidthFit", "SwitchFidelities", "TimingEstimates",
    "FidelityReport",
}


@dataclasses.dataclass(frozen=True)
class Row:
    """One numeric parameter: ``call(value)`` calls ``owner`` with ``value``
    for ``param``; ``goods`` are valid values, ``bads`` invalid ones (or
    entries, for a grid) beyond the non-finite three, ``rule`` what the
    refusal says a value must be, and ``size`` a grid's fewest points."""

    owner: str
    param: str
    kind: str
    call: object
    goods: tuple
    rule: str = "finite"
    bads: tuple = ()
    error: type = ValueError
    size: int = 1


def config_row(field, rule="positive and finite", bads=(0.0, -1.0), goods=(1.5, 2.0)):
    return Row("PhysicalConfig", field, "one",
               lambda v: dataclasses.replace(CFG, **{field: v}), goods, rule, bads)


def grid_row(owner, param, call, size):
    return Row(owner, param, "grid", call, (GRID,), error=GridError, size=size)


SINE = initial_sine_mode(CFG.L, 64)

ROWS = [
    *[config_row(f) for f in ("G", "Omega", "OmegaS", "gamma", "c", "C6")],
    config_row("L", goods=(5.0, 6.0)),
    config_row("phi", rule="finite", bads=()),
    config_row("x_gate", rule=MEDIUM, bads=(-0.5, 5.5)),
    Row("gaussian_pulse_spectrum", "duration", "one",
        lambda v: gaussian_pulse_spectrum(v, GRID), (1.0, 2.0), "positive and finite", (0.0,)),
    grid_row("gaussian_pulse_spectrum", "omega_grid",
             lambda v: gaussian_pulse_spectrum(1.0, v), 2),
    grid_row("trapezoid_weights", "grid", trapezoid_weights, 2),
    Row("xi", "omega", "broadcast", lambda v: xi(v, CFG), (-3.0, -0.3, 0.5, 7.0)),
    Row("susceptibilities", "dz", "broadcast",
        lambda v: susceptibilities(v, 0.7, CFG), (0.0, -1.3, 1e-3, 2.0)),
    Row("susceptibilities", "omega", "broadcast",
        lambda v: susceptibilities(0.5, v, CFG), (-2.0, 0.3, 0.7, 5.0)),
    Row("free_susceptibilities", "omega", "broadcast",
        lambda v: free_susceptibilities(v, CFG), (-2.0, 1e-6, 0.7, 5.0)),
    Row("nu", "z", "broadcast", lambda v: nu(v, 2.5, CFG), (0.0, 1.0, 2.5, 5.0),
        "nonnegative and finite", (-1.0,)),
    Row("nu", "x", "broadcast", lambda v: nu(5.0, v, CFG), (-1.0, 0.0, 2.5, 6.0)),
    Row("build_bloch_matrix", "k", "broadcast",
        lambda v: build_bloch_matrix(v, "free", CFG), (-1.0, 0.0, 0.5, 2.0)),
    grid_row("spectrum", "k_grid", lambda v: spectrum(v, "free", CFG), 3),
    Row("composition", "eigenvector", "shape", composition, (np.eye(6)[:3] + 0.5j,),
        "eigenvector must be a vector or a stack of them"),
    Row("default_k_grid", "kmax_labs", "one", lambda v: default_k_grid(CFG, kmax_labs=v),
        (0.5, 2.0), "positive and finite", (0.0, -2.0)),
    Row("default_k_grid", "n", "count", lambda v: default_k_grid(CFG, n=v), (3, 41),
        "an odd integer of 3 or more", (1, 4, 40, 41.0)),
    Row("propagation_matrix", "z", "broadcast",
        lambda v: propagation_matrix(v, 2.5, 0.4, CFG), (0.0, 1.0, 2.5, 5.0)),
    Row("propagation_matrix", "x", "broadcast",
        lambda v: propagation_matrix(1.0, v, 0.4, CFG), (0.0, 1.0, 2.0, 5.0)),
    Row("propagation_matrix", "omega", "broadcast",
        lambda v: propagation_matrix(1.0, 2.5, v, CFG), (-0.7, 0.3, 2.0, 40.0)),
    Row("solve_bvp", "omega", "one", lambda v: solve_bvp(v, 2.5, CFG), (1.0, -0.5)),
    Row("solve_bvp", "x", "one", lambda v: solve_bvp(1.0, v, CFG), (1.5, 2.5), MEDIUM,
        (-0.5, 5.5)),
    Row("cw_analytic", "x", "one", lambda v: cw_analytic(v, CFG), (1.5, 2.5), MEDIUM,
        (-0.5, 5.5)),
    Row("cw_bulk_coefficients", "d_b", "broadcast", cw_bulk_coefficients,
        (0.0, 0.5, 5.0, 30.0), "nonnegative and finite", (-1.0,)),
    Row("cw_bulk_coefficients", "phi", "one", lambda v: cw_bulk_coefficients(1.0, v),
        (0.0, 1.5)),
    grid_row("t0_spectrum", "omega_grid", lambda v: t0_spectrum(v, CFG), 1),
    Row("transparency_width_study", "rel_window", "one",
        lambda v: transparency_width_study(CFG, rel_window=v), (1e-3, 1.0),
        "in (0, 1] and finite", (0.0, -1e-3, 2.0)),
    Row("transparency_width_study", "n", "count", lambda v: transparency_width_study(CFG, n=v),
        (7, 21), "an integer of 7 or more", (6, 7.5, -7)),
    grid_row("SpinWaveDensityMatrix", "grid",
             lambda v: SpinWaveDensityMatrix(v, np.eye(np.size(v))), 2),
    Row("SpinWaveDensityMatrix", "rho", "shape",
        lambda v: SpinWaveDensityMatrix(SINE.grid, v), (SINE.rho,),
        "rho must have the grid's shape (64, 64)", error=GridError),
    Row("initial_sine_mode", "L", "one", lambda v: initial_sine_mode(v, 64), (5.0, 8.0),
        "positive and finite", (0.0,)),
    Row("initial_sine_mode", "N", "count", lambda v: initial_sine_mode(5.0, v), (64, 65),
        "an integer of 64 or more", (32, 64.5), GridError),
    Row("coherence_factor", "x", "one", lambda v: coherence_factor(v, 1.0, CFG), (1.0, 2.5),
        MEDIUM, (-0.5, 5.5)),
    Row("coherence_factor", "y", "one", lambda v: coherence_factor(1.0, v, CFG), (1.0, 2.5),
        MEDIUM, (-0.5, 5.5)),
    Row("blockade_loss_baseline", "d_b", "broadcast", blockade_loss_baseline,
        (0.0, 0.5, 5.0, 30.0), "nonnegative and finite", (-1.0,)),
    Row("switch_fidelities", "d_b", "broadcast", switch_fidelities, (0.0, 0.5, 5.0, 30.0),
        "nonnegative and finite", (-1.0,)),
    Row("blockade_gate_baseline", "d_b", "one", blockade_gate_baseline, (1.0, 6.0),
        "positive and finite", (0.0, -1.0)),
    grid_row("reflection_spectrum", "omega_grid", lambda v: reflection_spectrum(v, CFG), 1),
    Row("pulse_router_fidelity", "r1_spectrum", "shape",
        lambda v: pulse_router_fidelity(gaussian_pulse_spectrum(1.0, GRID), v),
        (np.full(GRID.shape, 0.3 + 0.4j),), "r1_spectrum must have the pulse grid's shape (11,)",
        error=GridError),
    Row("transistor_fidelity", "d_b", "one", lambda v: transistor_fidelity(v, CFG), (5.0,),
        "positive and finite", (0.0, -1.0)),
    Row("fidelity_report", "durations", "grid",
        lambda v: fidelity_report(CFG, v, omega_grid=GRID), ((1.0, 2.0),),
        "positive and finite", (-1.0, 0.0), size=0),
    grid_row("fidelity_report", "omega_grid",
             lambda v: fidelity_report(CFG, (1.0,), omega_grid=v), 2),
    Row("fidelity_report", "n_samples", "count", lambda v: fidelity_report(CFG, n_samples=v),
        (64,), "an integer of 64 or more", (63, 64.0), GridError),
]


def rows(*kinds):
    """The rows of ``kinds`` as test parameters."""
    return [pytest.param(r, id=f"{r.owner}-{r.param}") for r in ROWS if r.kind in kinds]


def test_every_numeric_parameter_has_a_row():
    covered = {(r.owner, r.param) for r in ROWS}
    missing = []
    for name in polsim.__all__:
        obj = getattr(polsim, name)
        if not callable(obj) or name in RESULTS:
            continue
        if isinstance(obj, type) and issubclass(obj, (BaseException, Warning)):
            continue
        for param in inspect.signature(obj).parameters:
            if param not in NOT_NUMBERS and (name, param) not in covered:
                missing.append(f"{name}({param})")
    assert not missing, f"numeric parameters with no row: {missing}"
    assert len(covered) == len(ROWS)


def first(result, i):
    """The ``i``-th element of a result computed on an array."""
    if isinstance(result, tuple):
        return tuple(first(r, i) for r in result)
    return np.asarray(result)[i]


def same_bits(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def numpy_scalars(result):
    """Whether ``result`` holds a numpy scalar or a 0-d array."""
    if isinstance(result, tuple):
        return any(map(numpy_scalars, result))
    return isinstance(result, np.generic) or (isinstance(result, np.ndarray) and not result.ndim)


@pytest.mark.parametrize("row", rows("broadcast"))
def test_array_gives_the_bits_of_a_loop_of_scalar_calls(row):
    arrays = row.call(np.array(row.goods))
    for i, value in enumerate(row.goods):
        scalar = row.call(value)
        assert not numpy_scalars(scalar)
        assert same_bits(first(arrays, i), scalar), (i, value)


@pytest.mark.parametrize("row", rows("broadcast"))
def test_array_shape_is_kept(row):
    values = np.array(row.goods).reshape(2, 2)
    flat = row.call(values.ravel())
    result = row.call(values)
    for got, want in zip(*(r if isinstance(r, tuple) else (r,) for r in (result, flat))):
        assert got.shape[:2] == (2, 2)
        assert got.tobytes() == np.asarray(want).tobytes()


def test_two_parameters_broadcast_together():
    dz = np.array([[0.0], [1.0], [-2.0]])
    omega = np.array([-0.7, 0.3, 2.0, 40.0])
    chi = susceptibilities(dz, omega, CFG)
    m = propagation_matrix(dz + 2.5, 2.5, omega, CFG)
    assert m.shape == (3, 4, 2, 2)
    for i in range(3):
        for j in range(4):
            one = susceptibilities(float(dz[i, 0]), float(omega[j]), CFG)
            assert same_bits(tuple(c[i, j] for c in chi), one)
            assert same_bits(m[i, j], propagation_matrix(float(dz[i, 0] + 2.5), 2.5,
                                                         float(omega[j]), CFG))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "bads"])
@pytest.mark.parametrize("row", rows("broadcast", "one"))
def test_bad_number_is_refused_by_name(row, bad):
    for value in row.bads if bad == "bads" else (bad,):
        with pytest.raises(row.error) as info:
            row.call(value)
        assert str(info.value) == f"{row.param} must be {row.rule}, got {float(value)!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "bads"])
@pytest.mark.parametrize("row", rows("broadcast"))
def test_bad_entry_of_an_array_is_refused_by_name_and_index(row, bad):
    for value in row.bads if bad == "bads" else (bad,):
        with pytest.raises(row.error) as info:
            row.call(np.array([row.goods[0], value, row.goods[1]]))
        assert str(info.value) == (
            f"{row.param} must be {row.rule}, got {float(value)!r} at index 1"
        )


@pytest.mark.parametrize("bad, shown", [
    (True, "True"), (np.True_, "np.True_"), ("1", "'1'"), (1.0 + 0.5j, "(1+0.5j)"),
    ([1.0, True], "[1.0, True]"), (None, "None"),
])
@pytest.mark.parametrize("row", rows("broadcast", "one"))
def test_value_that_is_no_real_number_is_refused_by_name(row, bad, shown):
    with pytest.raises(row.error) as info:
        row.call(bad)
    assert str(info.value) == f"{row.param} must be real, got {shown}"


@pytest.mark.parametrize("row", rows("one"))
def test_array_for_one_number_is_refused_by_name(row):
    with pytest.raises(row.error) as info:
        row.call(np.array(row.goods[:1] * 2))
    assert str(info.value) == f"{row.param} must be one number, got an array of shape (2,)"


@pytest.mark.parametrize("row", rows("one"))
def test_zero_dimensional_numbers_are_accepted(row):
    want = row.call(row.goods[0])
    for value in (np.array(row.goods[0]), np.float64(row.goods[0]), int(row.goods[0])):
        if value == row.goods[0]:
            assert repr(row.call(value)) == repr(want)


@pytest.mark.parametrize("row", rows("broadcast", "one"))
def test_integer_beyond_the_float_range_is_an_infinity(row):
    for huge, shown in ((10**400, "inf"), (-(10**400), "-inf")):
        with pytest.raises(row.error) as info:
            row.call(huge)
        assert str(info.value) == f"{row.param} must be {row.rule}, got {shown}"


@pytest.mark.parametrize("row", rows("grid"))
def test_bad_grid_entry_is_refused_by_name_and_index(row):
    for bad in (math.nan, math.inf, -math.inf, *row.bads):
        values = np.array(row.goods[0], dtype=float)
        values[1] = bad
        with pytest.raises(row.error) as info:
            row.call(values)
        assert str(info.value) == f"{row.param} must be {row.rule}, got {bad!r} at index 1"


@pytest.mark.parametrize("row", rows("grid"))
def test_grid_of_no_real_numbers_is_refused_by_name(row):
    for bad, shown in ((["0", "1"], "['0', '1']"), ([1.0, True], "[1.0, True]")):
        with pytest.raises(row.error) as info:
            row.call(bad)
        assert str(info.value) == f"{row.param} must be real, got {shown}"


@pytest.mark.parametrize("row", rows("grid"))
def test_scalar_for_a_grid_is_refused_by_name(row):
    with pytest.raises(row.error) as info:
        row.call(1.0)
    assert str(info.value) == (
        f"{row.param} must be one-dimensional with {row.size} or more points, got shape ()"
    )


@pytest.mark.parametrize("row", rows("count"))
def test_bad_count_is_refused_by_name(row):
    for bad in (*row.bads, True, "a", math.nan):
        with pytest.raises(row.error) as info:
            row.call(bad)
        assert str(info.value) == f"{row.param} must be {row.rule}, got {bad!r}"


@pytest.mark.parametrize("row", rows("count"))
def test_numpy_integer_counts_are_accepted(row):
    assert repr(row.call(np.int64(row.goods[0]))) == repr(row.call(row.goods[0]))


@pytest.mark.parametrize("row", rows("shape"))
def test_scalar_for_a_shaped_array_is_refused_by_name(row):
    row.call(row.goods[0])
    with pytest.raises(row.error) as info:
        row.call(5.0)
    assert str(info.value) == f"{row.rule}, got shape ()"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.3, math.nan)])
@pytest.mark.parametrize("row", rows("shape"))
def test_non_finite_entry_of_a_shaped_array_is_refused_by_name_and_index(row, bad):
    values = np.array(row.goods[0], dtype=complex)
    at = tuple(int(i) for i in np.unravel_index(3, values.shape))
    values[at] = bad
    with pytest.raises(row.error) as info:
        row.call(values)
    index = at[0] if len(at) == 1 else at
    assert str(info.value) == f"{row.param} must be finite, got {complex(bad)!r} at index {index}"


def planted(bad):
    """The half-sine matrix of CFG with ``bad`` planted as its first grid point.

    Planted after construction: the matrix refuses a nan grid itself, so
    only a grid it never checked can carry one to ``evolve_cw``.
    """
    rho0 = initial_sine_mode(CFG.L, 64)
    values = rho0.grid.copy()
    values[0] = bad
    object.__setattr__(rho0, "grid", values)
    return rho0


@pytest.mark.parametrize("bad", [math.nan, -0.5, CFG.L + 0.5])
def test_grid_outside_the_medium_is_refused_by_evolve_cw(bad):
    with pytest.raises(GridError) as info:
        evolve_cw(planted(bad), CFG)
    assert str(info.value) == f"rho0.grid must be {MEDIUM}, got {bad!r} at index 0"


@pytest.mark.parametrize("kwargs", [
    {"durations": (1.0, math.nan), "omega_grid": GRID},
    {"durations": (-1.0,), "omega_grid": GRID},
    {"durations": 5.0, "omega_grid": GRID},
    {"durations": (1.0,)},
    {"durations": (1.0,), "omega_grid": GRID[::-1]},
    {"n_samples": 63},
    {"n_samples": 64.0},
])
def test_fidelity_report_checks_its_inputs_before_the_spin_wave_map(monkeypatch, kwargs):
    def never(*args, **kw):
        raise AssertionError("evolve_cw ran before the inputs were checked")

    monkeypatch.setattr(polsim.fidelity, "evolve_cw", never)
    with pytest.raises((ValueError, PolsimError)) as info:
        fidelity_report(CFG, **kwargs)
    assert str(info.value).split(" ")[0] in ("durations", "omega_grid", "n_samples")


def test_missing_omega_grid_is_refused_by_name():
    with pytest.raises(GridError, match="^omega_grid is required when durations are given$"):
        fidelity_report(CFG, (1.0,))


def test_zero_frequency_is_singular_for_each_broadcast_frequency():
    for call in (lambda w: xi(w, CFG), lambda w: susceptibilities(0.5, w, CFG),
                 lambda w: free_susceptibilities(w, CFG),
                 lambda w: propagation_matrix(1.0, 2.5, w, CFG)):
        for omega in (0.0, np.array([0.5, 0.0])):
            with pytest.raises(polsim.SingularFrequencyError, match="cw_analytic"):
                call(omega)


def test_physical_config_stores_python_floats():
    cfg = PhysicalConfig(G=1, Omega=np.float64(1.0), OmegaS=np.array(1.0), gamma=1.0, phi=7,
                         c=1.0, C6=np.int64(1), L=5, x_gate=np.float32(2.5))
    for field in dataclasses.fields(cfg):
        assert type(getattr(cfg, field.name)) is float, field.name
    assert cfg == dataclasses.replace(CFG, phi=7.0)
