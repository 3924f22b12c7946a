"""Batch front-end: JSON experiment configs in, CSV/JSON artifacts out.

Every run resolves one config file against a strict schema, computes all
of its artifacts in memory, and only then writes them, under names carrying
the run id, followed by ``manifest.json`` with the resolved parameters,
derived scales, collected warnings, and artifact list.  The manifest comes
last, so its presence certifies a complete run.  CSV bodies are deterministic
for identical configs; only filenames and the manifest timestamp vary.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core_model import PhysicalConfig, derive_scales
from .errors import PolsimError, SchemaError
from .fidelity import (
    PI_PHASE_MIN_DB,
    blockade_gate_baseline,
    fidelity_report,
    switch_fidelities,
)
from .polariton_spectrum import REGIMES, composition, default_k_grid, spectrum
from .propagation import (
    cw_analytic,
    cw_bulk_coefficients,
    fitted_transparency_width,
    solve_bvp,
    t0_spectrum,
    transparency_width_study,
)
from .spinwave import blockade_loss_baseline, evolve_cw, initial_sine_mode, retrieval_eta

__all__ = ["TASKS", "run", "main"]

TASKS = ("spectrum", "t0", "propagate", "cw", "spinwave", "fidelity", "scan")

_PHYSICAL_KEYS = ("G", "Omega", "OmegaS", "gamma", "phi", "c", "C6", "L", "x_gate")

# required keys and optional-with-default keys per task
_TASK_PARAMS: dict[str, tuple[set, dict]] = {
    "spectrum": ({"regime"}, {"kmax_labs": 2.0, "n_k": 401}),
    "t0": ({"omega_min", "omega_max", "n_omega"}, {"fit_width": False}),
    "propagate": ({"omega"}, {}),
    "cw": ({"d_b_min", "d_b_max", "n_db"}, {}),
    "spinwave": (set(), {"n_samples": 256}),
    "fidelity": (
        {"d_b_min", "d_b_max", "n_db"},
        {
            "durations": None,
            "omega_min": None,
            "omega_max": None,
            "n_omega": None,
            "n_samples": 64,
        },
    ),
    "scan": (
        {"parameter", "values", "observable"},
        {"rel_window": 1e-3, "n_omega": 21},
    ),
}

_SCAN_OBSERVABLES = ("transparency_width", "cw_point")


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


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}.{key} must be a number, got {value!r}")
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
    if (not isinstance(values, list) or not values
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values)):
        raise SchemaError(f"task_params.{key} must be a nonempty list of numbers")
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
    required, optional = _TASK_PARAMS[task]
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

def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# rows rendered per "%" operation; bounds the temporaries of a large table
_CSV_BLOCK_ROWS = 4096


def _csv_text(header: list[str], columns) -> str:
    """CSV text of a table given as equal-length columns.

    A numeric array column is written with ``%.17g``, which renders each
    value as ``format(float(v), ".17g")`` does and round-trips doubles.  Any
    other column is a sequence of ``str`` labels, numbers (written the same
    way) and ``None`` (an empty cell).  Each block of rows is rendered by one
    ``%`` operation.
    """
    specs = []
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
            specs.append("%.17g")
            table[:, j] = column.astype(float)
        else:
            specs.append("%s")
            table[:, j] = [
                "" if v is None else v if isinstance(v, str) else format(float(v), ".17g")
                for v in column
            ]
    row = ",".join(specs)
    parts = [",".join(header) + "\n"]
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        parts.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()) + "\n")
    return "".join(parts)


def _magnitude(z):
    """``abs(z)`` and ``abs(z) ** 2`` of a complex array, rounded as Python does.

    ``np.hypot`` is the ``hypot`` that ``abs(complex)`` calls, and
    ``np.float_power`` calls ``pow`` as ``float ** 2`` does.
    """
    a = np.hypot(z.real, z.imag)
    return a, np.float_power(a, 2.0)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _commit(outdir: Path, run_id: str, artifacts: dict, manifest: dict) -> None:
    """Write each artifact ``stem.ext`` as ``stem_<run_id>.ext``, then the manifest.

    A failed write removes what this call published or created, so no partial
    set survives, and is raised as a SchemaError (unusable output directory).
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
        for name, text in zip(names, artifacts.values()):
            _atomic_write(outdir / name, text)
            published.append(outdir / name)
        _atomic_write(outdir / "manifest.json", manifest_text)
    except OSError as exc:
        for path in published:
            path.unlink(missing_ok=True)
        for path in created:  # innermost first; a directory in use stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise SchemaError(f"cannot write output directory {outdir}: {exc}") from exc


# ---------------------------------------------------------------------------
# task implementations; each returns ({artifact name: text}, manifest_extras)
# and touches no file

def _run_spectrum(cfg, scales, params):
    regime = params["regime"]
    if regime not in REGIMES:
        raise SchemaError(f"task_params.regime must be one of {REGIMES}, got {regime!r}")
    kmax = _number(params, "kmax_labs", "task_params")
    n_k = _integer(params, "n_k", minimum=3)
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
    result = t0_spectrum(_grid(params, "omega", "n_omega"), cfg, scales)
    t, r = result.transmission, result.reflection
    columns = [result.omega, t.real, t.imag, *_magnitude(t), r.real, r.imag, *_magnitude(r)]
    header = [
        "omega (rad/s)",
        "re_T0 (amplitude)", "im_T0 (amplitude)", "abs_T0 (amplitude)",
        "abs_T0_sq (power)",
        "re_R0 (amplitude)", "im_R0 (amplitude)", "abs_R0 (amplitude)",
        "abs_R0_sq (power)",
    ]
    extras = {}
    if params["fit_width"]:
        fitted = fitted_transparency_width(result)
        extras["width_fit"] = {
            "fitted (rad/s)": fitted,
            "predicted (rad/s)": scales.delta_omega0,
            "rel_error": abs(fitted - scales.delta_omega0) / scales.delta_omega0,
        }
    return {"t0.csv": _csv_text(header, columns)}, extras


def _run_propagate(cfg, scales, params):
    omega = _number(params, "omega", "task_params")
    result = solve_bvp(omega, cfg.x_gate, cfg, scales=scales, cw=(omega == 0.0))
    er, el = result.field.e_right, result.field.e_left
    columns = [
        result.field.z,
        er.real, er.imag, *_magnitude(er),
        el.real, el.imag, *_magnitude(el),
    ]
    header = [
        "z (m)",
        "re_E_fwd (amplitude)", "im_E_fwd (amplitude)", "abs_E_fwd (amplitude)",
        "abs_E_fwd_sq (power)",
        "re_E_bwd (amplitude)", "im_E_bwd (amplitude)", "abs_E_bwd (amplitude)",
        "abs_E_bwd_sq (power)",
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
        "segments": result.segments,
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
    evolved = evolve_cw(rho0, cfg, scales)

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
        "spinwave_summary.json": _json_text(summary),
    }
    return artifacts, {"spinwave_summary": summary}


def _run_fidelity(cfg, scales, params):
    dbs = _grid(params, "d_b", "n_db", positive=True)
    n_samples = _integer(params, "n_samples", minimum=64)
    durations = ()
    omega_grid = None
    if params["durations"] is not None:
        durations = tuple(_number_list(params, "durations"))
        if not all(math.isfinite(d) and d > 0.0 for d in durations):
            raise SchemaError("task_params.durations must be positive and finite")
        for key in ("omega_min", "omega_max", "n_omega"):
            if params[key] is None:
                raise SchemaError(f"task_params.{key} is required when durations are given")
        omega_grid = _grid(params, "omega", "n_omega")
    columns = [
        dbs,
        *np.array([switch_fidelities(d_b, cfg.phi) for d_b in dbs.tolist()]).T,
        [blockade_gate_baseline(d_b) if d_b >= PI_PHASE_MIN_DB else None
         for d_b in dbs.tolist()],
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
        "fidelity_report.json": _json_text(payload),
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
            sub_scales = derive_scales(sub, allow_oversized_blockade=True)
            res = cw_analytic(sub.x_gate, sub, scales=sub_scales)
            return (
                value, abs(res.transmission), abs(res.transmission) ** 2,
                abs(res.reflection), abs(res.reflection) ** 2, res.absorption,
            )

        header = [
            f"{parameter} (config units)",
            "abs_T1 (amplitude)", "abs_T1_sq (power)",
            "abs_R1 (amplitude)", "abs_R1_sq (power)", "loss_A (fraction)",
        ]

    columns = [np.array(c) for c in zip(*map(one, values))]
    extras = {"parameter": parameter, "observable": observable}
    return {"scan.csv": _csv_text(header, columns)}, extras


_RUNNERS = {
    "spectrum": _run_spectrum,
    "t0": _run_t0,
    "propagate": _run_propagate,
    "cw": _run_cw,
    "spinwave": _run_spinwave,
    "fidelity": _run_fidelity,
    "scan": _run_scan,
}


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
    except ValueError as exc:
        raise SchemaError(f"physical: {exc}") from exc

    params = _resolve_params(task, _require_mapping(raw.get("task_params", {}), "task_params"))

    outdir = out_override or raw.get("output_dir", ".")
    if not isinstance(outdir, (str, os.PathLike)):
        raise SchemaError(f"output_dir must be a path string, got {outdir!r}")
    outdir = Path(outdir)

    soft_warnings = []
    scales = derive_scales(cfg, allow_oversized_blockade=True)
    if scales.z_b > cfg.L:
        soft_warnings.append(
            f"blockade radius {scales.z_b:.6g} exceeds medium length {cfg.L:.6g}; "
            "continuing with the oversized-blockade override"
        )

    # run id = timestamp to the microsecond + pid, unique per run
    timestamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        artifacts, extras = _RUNNERS[task](cfg, scales, params)

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
