"""Batch front-end: JSON experiment configs in, CSV/JSON artifacts out.

Every run resolves one config file against a strict schema, computes all
of its numbers and JSON text in memory, and only then writes its artifacts,
under names carrying the run id, followed by ``manifest.json`` with the
resolved parameters, derived scales, collected warnings, software versions
and artifact list.  CSV text is rendered block by block as it is written,
so no artifact is ever held whole as text.  The manifest comes last, so its
presence certifies a complete run; a write that fails for any reason
removes what the run had written.  CSV bodies are deterministic for
identical configs; only filenames and the manifest timestamp vary.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core_model import PhysicalConfig, derive_scales
from .errors import PolsimError, SchemaError
from .fidelity import _masked_gate_baseline, fidelity_report, switch_fidelities
from .polariton_spectrum import REGIMES, composition, default_k_grid, spectrum
from .propagation import (
    _magnitude,
    _width_fit,
    cw_analytic,
    cw_bulk_coefficients,
    solve_bvp,
    t0_spectrum,
    transparency_width_study,
)
from .spinwave import blockade_loss_baseline, evolve_cw, initial_sine_mode, retrieval_eta

__all__ = ["TASKS", "run", "main"]

_PHYSICAL_KEYS = ("G", "Omega", "OmegaS", "gamma", "phi", "c", "C6", "L", "x_gate")

_SCAN_OBSERVABLES = ("transparency_width", "cw_point")

# tasks whose numbers come from scipy's adaptive quad_vec (the spin-wave
# map); the others never load scipy
_QUADRATURE_TASKS = ("spinwave", "fidelity")


# ---------------------------------------------------------------------------
# schema helpers

def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, required, optional, where: str) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise SchemaError(f"missing required key(s) in {where}: {', '.join(missing)}")


def _finite(value) -> bool:
    """Whether a JSON value is a finite number (JSON reads 1e400 as inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if not _finite(value):
        raise SchemaError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(params: dict, key: str, minimum: int = 1) -> int:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"task_params.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise SchemaError(f"task_params.{key} must be >= {minimum}, got {value}")
    return value


def _number_list(params: dict, key: str) -> list[float]:
    values = params[key]
    if not isinstance(values, list) or not values or not all(map(_finite, values)):
        raise SchemaError(f"task_params.{key} must be a nonempty list of finite numbers")
    return sorted(float(v) for v in values)


def _grid(params: dict, name: str, n_key: str, positive: bool = False) -> np.ndarray:
    lo = _number(params, f"{name}_min", "task_params")
    hi = _number(params, f"{name}_max", "task_params")
    n = _integer(params, n_key, minimum=2)
    if not lo < hi or (positive and lo <= 0.0):
        bound = "0 < " if positive else ""
        raise SchemaError(f"task_params must satisfy {bound}{name}_min < {name}_max")
    return np.linspace(lo, hi, n)


def _resolve_params(task: str, raw: dict) -> dict:
    _, required, optional = _TASKS[task]
    _check_keys(raw, required, optional, f"task_params ({task})")
    params = dict(optional)
    params.update(raw)
    return params


def _apply_override(raw: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise SchemaError(f"--set expects key=value, got {assignment!r}")
    path, _, text = assignment.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    keys = path.split(".")
    if keys[0] not in ("physical", "task_params", "task", "output_dir"):
        raise SchemaError(f"--set cannot touch {keys[0]!r}")
    if len(keys) == 1:
        if keys[0] in ("physical", "task_params"):
            raise SchemaError(f"--set {keys[0]} needs a subkey, e.g. {keys[0]}.name=value")
        raw[keys[0]] = value
    elif len(keys) == 2:
        section = raw.setdefault(keys[0], {})
        _require_mapping(section, keys[0])
        section[keys[1]] = value
    else:
        raise SchemaError(f"--set path too deep: {path!r}")


# ---------------------------------------------------------------------------
# artifact helpers

def _atomic_write(path: Path, chunks) -> None:
    """Write the text chunks to a temporary file as they come, then rename it to ``path``.

    The temporary file is created as ``open(path, "w")`` would create
    ``path``, so the artifact gets that mode under the process umask.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


# rows rendered per "%" operation; bounds the memory of a table's text
_CSV_BLOCK_ROWS = 4096


def _csv_text(header: list[str], columns):
    """CSV text of a table given as equal-length columns, as chunks.

    Yields the header line, then the text of each block of up to
    ``_CSV_BLOCK_ROWS`` rows, rendered by one ``%`` operation.  A numeric
    array column is written with ``%.17g``, which renders each value as
    ``format(float(v), ".17g")`` does and round-trips doubles.  Any other
    column is a sequence of ``str`` labels, numbers (written the same way)
    and ``None`` (an empty cell).
    """
    numeric = [isinstance(c, np.ndarray) and c.dtype.kind in "biuf" for c in columns]
    row = ",".join("%.17g" if num else "%s" for num in numeric)
    yield ",".join(header) + "\n"
    n_rows = len(columns[0])
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n_rows)
        block = np.empty((stop - start, len(columns)), dtype=object)
        for j, (column, num) in enumerate(zip(columns, numeric)):
            if num:
                block[:, j] = column[start:stop].astype(float)
            else:
                block[:, j] = [
                    "" if v is None else v if isinstance(v, str) else format(float(v), ".17g")
                    for v in column[start:stop]
                ]
        yield "\n".join([row] * len(block)) % tuple(block.ravel().tolist()) + "\n"


def _json_text(payload) -> str:
    # a non-finite number is no JSON: it raises ValueError, a numerical failure
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _commit(outdir: Path, run_id: str, artifacts: dict, manifest: dict) -> None:
    """Write each artifact ``stem.ext`` as ``stem_<run_id>.ext``, then the manifest.

    Each artifact is an iterable of text chunks, written as they come.  A
    write that fails for any reason, a chunk that raises included, removes
    what this call published or created, so no partial set survives.  An
    OSError is raised as a SchemaError (unusable output directory); any
    other exception propagates unchanged.
    """
    names = []
    for name in artifacts:
        stem, _, ext = name.rpartition(".")
        names.append(f"{stem}_{run_id}.{ext}")
    manifest_text = _json_text(dict(manifest, artifacts=names))
    created = [p for p in (outdir, *outdir.parents) if not p.exists()]
    published = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, chunks in zip(names, artifacts.values()):
            _atomic_write(outdir / name, chunks)
            published.append(outdir / name)
        _atomic_write(outdir / "manifest.json", [manifest_text])
    except BaseException as exc:
        for path in published:
            path.unlink(missing_ok=True)
        for path in created:  # innermost first; a directory in use stays
            with contextlib.suppress(OSError):
                path.rmdir()
        if isinstance(exc, OSError):
            raise SchemaError(f"cannot write output directory {outdir}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# task implementations; each returns ({artifact name: text chunks},
# manifest_extras) and touches no file

def _run_spectrum(cfg, scales, params):
    regime = params["regime"]
    if regime not in REGIMES:
        raise SchemaError(f"task_params.regime must be one of {REGIMES}, got {regime!r}")
    kmax = _number(params, "kmax_labs", "task_params")
    if kmax <= 0.0:
        raise SchemaError(f"task_params.kmax_labs must be positive, got {kmax!r}")
    n_k = _integer(params, "n_k", minimum=3)
    if n_k % 2 == 0:
        raise SchemaError(f"task_params.n_k must be odd so the grid holds k = 0, got {n_k}")
    branches = spectrum(default_k_grid(cfg, kmax_labs=kmax, n=n_k), regime, cfg)
    sizes = [branch.k_samples.size for branch in branches]
    omega = np.concatenate([branch.omega for branch in branches])
    columns = [
        np.repeat([branch.branch_id for branch in branches], sizes),
        np.repeat([branch.kind for branch in branches], sizes),
        np.concatenate([branch.k_samples for branch in branches]),
        omega.real,
        omega.imag,
        *composition(np.concatenate([branch.vectors for branch in branches])),
    ]
    header = [
        "branch_id (index)", "kind (dark|bright)", "k_labs (1/l_abs)",
        "re_omega (gamma)", "im_omega (gamma)",
        "weight_forward (fraction)", "weight_backward (fraction)",
        "weight_matter (fraction)",
    ]
    n_dark = sum(1 for b in branches if b.kind == "dark")
    extras = {"regime": regime, "n_branches": len(branches), "n_dark": n_dark}
    return {"spectrum.csv": _csv_text(header, columns)}, extras


def _run_t0(cfg, scales, params):
    fit_width = params["fit_width"]
    if not isinstance(fit_width, bool):
        raise SchemaError(f"task_params.fit_width must be true or false, got {fit_width!r}")
    result = t0_spectrum(_grid(params, "omega", "n_omega"), cfg)
    t, r = result.transmission, result.reflection
    columns = [result.omega, t.real, t.imag, r.real, r.imag]
    header = [
        "omega (rad/s)",
        "re_T0 (amplitude)", "im_T0 (amplitude)",
        "re_R0 (amplitude)", "im_R0 (amplitude)",
    ]
    extras = {}
    if fit_width:
        fit = _width_fit(result, scales.delta_omega0)
        extras["width_fit"] = {"fitted (rad/s)": fit.fitted, "predicted (rad/s)": fit.predicted,
                               "rel_error": fit.rel_error}
    return {"t0.csv": _csv_text(header, columns)}, extras


def _run_propagate(cfg, scales, params):
    omega = _number(params, "omega", "task_params")
    if omega == 0.0:
        result = cw_analytic(cfg.x_gate, cfg)
    else:
        result = solve_bvp(omega, cfg.x_gate, cfg)
    er, el = result.field.e_right, result.field.e_left
    columns = [result.field.z, er.real, er.imag, el.real, el.imag]
    header = [
        "z (m)",
        "re_E_fwd (amplitude)", "im_E_fwd (amplitude)",
        "re_E_bwd (amplitude)", "im_E_bwd (amplitude)",
    ]
    extras = {
        "omega (rad/s)": omega,
        "transmission": {"re": result.transmission.real, "im": result.transmission.imag,
                         "abs": abs(result.transmission)},
        "reflection": {"re": result.reflection.real, "im": result.reflection.imag,
                       "abs": abs(result.reflection)},
        "absorption": result.absorption,
        "richardson_error": result.richardson_error,
        "refinements": result.refinements,
    }
    return {"propagate.csv": _csv_text(header, columns)}, extras


def _run_cw(cfg, scales, params):
    dbs = _grid(params, "d_b", "n_db", positive=True)
    t, r, loss = cw_bulk_coefficients(dbs, cfg.phi)
    columns = [
        dbs, *_magnitude(t), *_magnitude(r),
        # math.atan2, as cmath.phase: the SIMD loops of np.arctan2 round
        # some values differently
        np.frompyfunc(math.atan2, 2, 1)(r.imag, r.real).astype(float),
        loss, blockade_loss_baseline(dbs),
    ]
    header = [
        "d_b (dimensionless)",
        "abs_T1 (amplitude)", "abs_T1_sq (power)",
        "abs_R1 (amplitude)", "abs_R1_sq (power)", "arg_R1 (rad)",
        "loss_A (fraction)", "blockade_loss_baseline (fraction)",
    ]
    return {"cw.csv": _csv_text(header, columns)}, {}


def _run_spinwave(cfg, scales, params):
    n = _integer(params, "n_samples", minimum=64)
    rho0 = initial_sine_mode(cfg.L, n)
    evolved = evolve_cw(rho0, cfg)

    def matrix_csv(matrix):
        header = ["x\\y (m)"] + [format(y, ".17g") for y in evolved.grid.tolist()]
        return _csv_text(header, [evolved.grid, *matrix.T])

    supported = np.abs(rho0.rho) > 0
    ratio = np.ones_like(rho0.rho, dtype=float)
    ratio[supported] = np.abs(evolved.rho[supported] / rho0.rho[supported])
    summary = {
        "n_samples": n,
        "trace": evolved.trace(),
        "purity": evolved.purity(),
        "min_coherence_ratio": float(ratio.min()),
        "eta_retrieval_estimate": retrieval_eta(evolved),
    }
    artifacts = {
        "spinwave_re.csv": matrix_csv(evolved.rho.real),
        "spinwave_im.csv": matrix_csv(evolved.rho.imag),
        "spinwave_summary.json": [_json_text(summary)],
    }
    return artifacts, {"spinwave_summary": summary}


def _run_fidelity(cfg, scales, params):
    dbs = _grid(params, "d_b", "n_db", positive=True)
    n_samples = _integer(params, "n_samples", minimum=64)
    durations = ()
    omega_grid = None
    if params["durations"] is not None:
        durations = tuple(_number_list(params, "durations"))
        if not all(d > 0.0 for d in durations):
            raise SchemaError("task_params.durations must be positive")
        for key in ("omega_min", "omega_max", "n_omega"):
            if params[key] is None:
                raise SchemaError(f"task_params.{key} is required when durations are given")
        omega_grid = _grid(params, "omega", "n_omega")
    columns = [
        dbs,
        *switch_fidelities(dbs),
        list(map(_masked_gate_baseline, dbs.tolist())),
        blockade_loss_baseline(dbs),
    ]
    header = [
        "d_b (dimensionless)",
        "f_classical_switch (fidelity)", "f_quantum_switch (fidelity)",
        "f_gate (fidelity)",
        "f_gate_blockade_baseline (fidelity, masked below d_b=6)",
        "f_classical_blockade_baseline (fidelity)",
    ]
    report = fidelity_report(
        cfg, durations=durations, omega_grid=omega_grid, n_samples=n_samples
    )
    payload = dataclasses.asdict(report)
    payload["f_pulse"] = {format(k, ".17g"): v for k, v in report.f_pulse.items()}
    artifacts = {
        "fidelity.csv": _csv_text(header, columns),
        "fidelity_report.json": [_json_text(payload)],
    }
    if durations:
        artifacts["fidelity_pulse.csv"] = _csv_text(
            ["duration (s)", "fidelity (dimensionless)"],
            list(np.array(sorted(report.f_pulse.items())).T),
        )
    return artifacts, {"operating_point_d_b": scales.d_b}


def _run_scan(cfg, scales, params):
    parameter = params["parameter"]
    if parameter not in _PHYSICAL_KEYS:
        raise SchemaError(
            f"task_params.parameter must be one of {_PHYSICAL_KEYS}, got {parameter!r}"
        )
    observable = params["observable"]
    if observable not in _SCAN_OBSERVABLES:
        raise SchemaError(
            f"task_params.observable must be one of {_SCAN_OBSERVABLES}, got {observable!r}"
        )
    values = _number_list(params, "values")
    rel_window = _number(params, "rel_window", "task_params")
    if not 0.0 < rel_window <= 1.0:
        raise SchemaError(f"task_params.rel_window must be in (0, 1], got {rel_window!r}")
    n_omega = _integer(params, "n_omega", minimum=7)

    if observable == "transparency_width":
        def one(value):
            sub = dataclasses.replace(cfg, **{parameter: value})
            fit = transparency_width_study(sub, rel_window=rel_window, n=n_omega)
            return (value, fit.fitted, fit.predicted, fit.rel_error)

        header = [
            f"{parameter} (config units)", "fitted_width (rad/s)",
            "predicted_width (rad/s)", "rel_error (dimensionless)",
        ]
    else:
        def one(value):
            sub = dataclasses.replace(cfg, **{parameter: value})
            res = cw_analytic(sub.x_gate, sub)
            return value, *_magnitude(res.transmission), *_magnitude(res.reflection), res.absorption

        header = [
            f"{parameter} (config units)",
            "abs_T1 (amplitude)", "abs_T1_sq (power)",
            "abs_R1 (amplitude)", "abs_R1_sq (power)", "loss_A (fraction)",
        ]

    columns = [np.array(c) for c in zip(*map(one, values))]
    extras = {"parameter": parameter, "observable": observable}
    return {"scan.csv": _csv_text(header, columns)}, extras


# runner, required keys and optional-with-default keys per task
_TASKS = {
    "spectrum": (_run_spectrum, {"regime"}, {"kmax_labs": 2.0, "n_k": 401}),
    "t0": (_run_t0, {"omega_min", "omega_max", "n_omega"}, {"fit_width": False}),
    "propagate": (_run_propagate, {"omega"}, {}),
    "cw": (_run_cw, {"d_b_min", "d_b_max", "n_db"}, {}),
    "spinwave": (_run_spinwave, set(), {"n_samples": 256}),
    "fidelity": (
        _run_fidelity,
        {"d_b_min", "d_b_max", "n_db"},
        {"durations": None, "omega_min": None, "omega_max": None, "n_omega": None,
         "n_samples": 64},
    ),
    "scan": (
        _run_scan,
        {"parameter", "values", "observable"},
        {"rel_window": 1e-3, "n_omega": 21},
    ),
}
TASKS = tuple(_TASKS)


def _versions(task: str) -> dict:
    """Versions of the software behind a task's numbers.

    ``numpy_simd`` holds the SIMD levels numpy was built for (``baseline``)
    and dispatches to at run time (``found``): numpy's complex products
    round differently with and without FMA, so bits hold per level.
    scipy is listed for the tasks that ran its quadrature, read from the
    module those tasks loaded, so the keys depend on the task alone.
    """
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    versions = {
        "polsim": __version__,
        "numpy": np.__version__,
        "numpy_simd": {"baseline": simd["baseline"], "found": simd.get("found", [])},
        "python": platform.python_version(),
    }
    if task in _QUADRATURE_TASKS:
        versions["scipy"] = sys.modules["scipy"].__version__
    return versions


# ---------------------------------------------------------------------------
# entry points

def run(config_path, cli_task: str | None = None, overrides=(), out_override=None) -> int:
    """Execute one experiment config and write its artifacts.

    Raises SchemaError for input problems (an unwritable output directory
    too) and lets numerical failures propagate; ``main`` maps these onto
    exit codes 2 and 3.
    """
    path = Path(config_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"config file {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from exc
    _require_mapping(raw, "config")

    for assignment in overrides:
        _apply_override(raw, assignment)

    _check_keys(raw, {"physical"}, {"task", "task_params", "output_dir"}, "config")
    task = raw.get("task", cli_task)
    if task is None:
        raise SchemaError("no task given (config 'task' key or CLI argument)")
    if cli_task is not None and task != cli_task:
        raise SchemaError(
            f"config task {task!r} conflicts with command-line task {cli_task!r}"
        )
    if task not in TASKS:
        raise SchemaError(f"task must be one of {TASKS}, got {task!r}")

    physical = _require_mapping(raw["physical"], "physical")
    _check_keys(physical, set(_PHYSICAL_KEYS), set(), "physical")
    numbers = {key: _number(physical, key, "physical") for key in _PHYSICAL_KEYS}
    try:
        cfg = PhysicalConfig(**numbers)
        scales = derive_scales(cfg)
    except ValueError as exc:
        raise SchemaError(f"physical: {exc}") from exc

    params = _resolve_params(task, _require_mapping(raw.get("task_params", {}), "task_params"))

    outdir = out_override or raw.get("output_dir", ".")
    if not isinstance(outdir, (str, os.PathLike)):
        raise SchemaError(f"output_dir must be a path string, got {outdir!r}")
    outdir = Path(outdir)

    soft_warnings = []
    if scales.z_b > cfg.L:
        soft_warnings.append(
            f"blockade radius {scales.z_b:.6g} exceeds medium length {cfg.L:.6g}; "
            "the medium is computed, but the bulk deep-medium formulas of the "
            "cw and fidelity sweeps do not describe it"
        )

    # run id = timestamp to the microsecond + pid, unique per run
    timestamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        artifacts, extras = _TASKS[task][0](cfg, scales, params)

    manifest = {
        "task": task,
        "timestamp": timestamp,
        "config": {
            "physical": numbers,
            "task": task,
            "task_params": params,
            "output_dir": str(outdir),
        },
        "derived_scales": dataclasses.asdict(scales),
        "warnings": soft_warnings + [str(w.message) for w in caught],
        "versions": _versions(task),
    }
    manifest.update(extras)
    _commit(outdir, f"{timestamp}-{os.getpid()}", artifacts, manifest)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polsim",
        description="Batch runner for polariton switching simulations.",
    )
    parser.add_argument("task", choices=TASKS, help="compute task to run")
    parser.add_argument("--config", required=True, help="JSON experiment config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a config entry, e.g. physical.OmegaS=2e8",
    )
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        return run(args.config, cli_task=args.task, overrides=args.overrides,
                   out_override=args.out)
    except SchemaError as exc:
        print(f"polsim: config error: {exc}", file=sys.stderr)
        return 2
    except (PolsimError, ValueError) as exc:
        print(f"polsim: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
