"""End-to-end tests of the batch runner: schema, artifacts, determinism."""

import csv
import dataclasses
import errno
import itertools
import json
import math
import os
import platform
import stat
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy

import polsim.cli
import polsim.fidelity
from polsim.cli import TASKS, main, run
from polsim.core_model import PhysicalConfig
from polsim.errors import QuadratureError, SchemaError
from polsim.propagation import (
    _magnitude,
    cw_analytic,
    cw_bulk_coefficients,
    solve_bvp,
    t0_spectrum,
)

PHYSICAL = {
    "G": 2.2360679774997896, "Omega": 1.0, "OmegaS": 1.0, "gamma": 1.0,
    "phi": 0.0, "c": 1.0, "C6": 1.0, "L": 24.0, "x_gate": 12.0,
}
WIDTH = dict(PHYSICAL, G=0.1, gamma=0.5, L=1250.0, x_gate=625.0)


def write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return path


def cw_config(tmp_path, out="out", **params):
    merged = {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4}
    merged.update(params)
    return write_config(
        tmp_path, physical=PHYSICAL, task="cw", task_params=merged,
        output_dir=str(tmp_path / out),
    )


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


def csv_rows(path: Path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def column(rows, name):
    """The float values of the column whose header cell is ``name (unit)``."""
    [j] = [j for j, cell in enumerate(rows[0]) if cell.partition(" (")[0] == name]
    return np.array([float(row[j]) for row in rows[1:]])


def per_cell_csv(header, rows):
    """The per-cell CSV writer that ``_csv_text`` replaced, as its reference."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        return format(float(value), ".17g")

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestCsvText:
    def test_matches_per_cell_formatting(self):
        rng = np.random.default_rng(7)
        n = 5000  # more than one block of rows
        special = [
            np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-320, 1e-310, 1e308,
            -1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1e16, 123456789.0,
        ]
        floats = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        floats[: len(special)] = special
        ids = rng.integers(-(2**40), 2**40, n)
        labels = rng.choice(["dark", "bright", "x\\y"], n)
        maybe = [None if i % 3 == 0 else v for i, v in enumerate(rng.uniform(-1, 1, n).tolist())]
        maybe[1] = 7  # an int among the floats
        columns = [floats, ids, labels, list(labels), maybe, rng.uniform(size=n)]
        header = ["f (x)", "id", "kind", "kind again", "masked", "u"]
        rows = list(zip(*(list(c) for c in columns)))
        text = "".join(polsim.cli._csv_text(header, columns))
        assert text == per_cell_csv(header, rows)
        empty = [np.zeros(0), []]
        assert "".join(polsim.cli._csv_text(["a", "b"], empty)) == per_cell_csv(["a", "b"], [])

    def test_memory_does_not_grow_with_the_row_count(self):
        # 100000 rows of 8 doubles are 15 MB of text; one block of rows is
        # held at a time (the whole table as objects and text peaks at 55 MB)
        columns = list(np.random.default_rng(3).standard_normal((8, 100_000)))
        header = [f"c{j}" for j in range(8)]
        tracemalloc.start()
        try:
            size = sum(map(len, polsim.cli._csv_text(header, columns)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 15e6
        assert peak < 8e6


class TestCwTask:
    def test_artifacts_and_values(self, tmp_path):
        cfg = cw_config(tmp_path)
        assert main(["cw", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out"
        manifest = read_manifest(outdir)
        assert manifest["task"] == "cw"
        assert manifest["warnings"] == []
        assert manifest["derived_scales"]["d_b"] == pytest.approx(5.0, rel=1e-12)
        # no quadrature ran, so no scipy version; a baseline-only run (no
        # SIMD level found above the build's baseline) records found = []
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert manifest["versions"] == {
            "polsim": polsim.__version__,
            "numpy": np.__version__,
            "numpy_simd": {"baseline": simd["baseline"], "found": simd.get("found", [])},
            "python": platform.python_version(),
        }
        for name in manifest["artifacts"]:
            assert (outdir / name).exists()

        rows = csv_rows(outdir / manifest["artifacts"][0])
        assert rows[0][0] == "d_b (dimensionless)"
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            d_b = float(row[0])
            t, r, loss = cw_bulk_coefficients(d_b)
            # .17g serialization round-trips doubles exactly
            assert float(row[1]) == abs(t)
            assert float(row[3]) == abs(r)
            assert float(row[6]) == loss
        dbs = [float(row[0]) for row in rows[1:]]
        assert dbs == sorted(dbs)

    def test_runs_in_one_second_keep_their_artifacts(self, tmp_path, monkeypatch):
        class OneSecond(datetime):
            ticks = itertools.count()

            @classmethod
            def now(cls, tz=None):
                return cls(2026, 1, 1, 12, 0, 0, next(cls.ticks), tzinfo=tz)

        monkeypatch.setattr(polsim.cli, "datetime", OneSecond)
        cfg = cw_config(tmp_path)
        assert main(["cw", "--config", str(cfg)]) == 0
        assert main(["cw", "--config", str(cfg), "--set", "task_params.n_db=5"]) == 0
        outdir = tmp_path / "out"
        bodies = {p.name: csv_rows(p) for p in outdir.glob("cw_*.csv")}
        assert sorted(len(rows) for rows in bodies.values()) == [1 + 4, 1 + 5]
        [latest] = read_manifest(outdir)["artifacts"]
        assert len(bodies[latest]) == 1 + 5


class TestSpectrumTask:
    def test_blockaded_regime_has_single_dark_branch(self, tmp_path):
        cfg = write_config(
            tmp_path, physical=PHYSICAL, task="spectrum",
            task_params={"regime": "blockaded", "n_k": 41, "kmax_labs": 0.5},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["spectrum", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert manifest["n_dark"] == 1
        assert manifest["n_branches"] == 5
        rows = csv_rows(tmp_path / "out" / manifest["artifacts"][0])
        dark_ids = {row[0] for row in rows[1:] if row[1] == "dark"}
        assert len(dark_ids) == 1
        assert len(rows) == 1 + 5 * 41

    def test_ambiguous_tracking_is_listed_in_the_manifest(self, tmp_path):
        physical = dict(PHYSICAL, G=0.5, Omega=0.5)
        cfg = write_config(
            tmp_path, physical=physical, task="spectrum",
            task_params={"regime": "blockaded", "n_k": 41, "kmax_labs": 2.0},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["spectrum", "--config", str(cfg)]) == 0
        assert read_manifest(tmp_path / "out")["warnings"] == [
            "branch tracking ambiguous at k*l_abs = 0.8",
            "branch tracking ambiguous at k*l_abs = -0.8",
        ]


class TestT0Task:
    def test_width_fit_recorded(self, tmp_path):
        physical = dict(PHYSICAL, G=0.1, gamma=0.5, L=1250.0, x_gate=625.0)
        cfg = write_config(
            tmp_path, physical=physical, task="t0",
            task_params={"omega_min": -1e-4, "omega_max": 1e-4, "n_omega": 21,
                         "fit_width": True},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["t0", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert manifest["width_fit"]["rel_error"] < 0.05
        rows = csv_rows(tmp_path / "out" / manifest["artifacts"][0])
        assert all(np.hypot(column(rows, "re_T0"), column(rows, "im_T0")) > 0.9)


class TestPropagateTask:
    def test_resonant_run_uses_closed_form(self, tmp_path, monkeypatch):
        calls = []
        closed_form = polsim.cli.cw_analytic

        def spy(*args, **kwargs):
            calls.append(args)
            return closed_form(*args, **kwargs)

        def never(*args, **kwargs):
            raise AssertionError("propagate must take the cw closed form")

        monkeypatch.setattr(polsim.cli, "cw_analytic", spy)
        monkeypatch.setattr(polsim.cli, "solve_bvp", never)
        closed = cw_analytic(PHYSICAL["x_gate"], PhysicalConfig(**PHYSICAL))
        for k, omega in enumerate((0.0, -0.0)):
            out = tmp_path / f"out{k}"
            cfg = write_config(
                tmp_path, physical=PHYSICAL, task="propagate",
                task_params={"omega": omega}, output_dir=str(out),
            )
            assert main(["propagate", "--config", str(cfg)]) == 0
            assert len(calls) == k + 1
            manifest = read_manifest(out)
            for key, value in (("reflection", closed.reflection),
                               ("transmission", closed.transmission)):
                assert manifest[key] == {"re": value.real, "im": value.imag, "abs": abs(value)}
            assert manifest["absorption"] == closed.absorption
            rows = csv_rows(out / manifest["artifacts"][0])
            assert column(rows, "re_E_fwd")[0] == 1.0  # unit forward amplitude at entry
            assert column(rows, "re_E_bwd")[-1] == 0.0  # no backward input at exit

    @pytest.mark.parametrize(
        "physical, omega, refinements, rows",
        [
            (PHYSICAL, 0.0, 0, 961),
            (PHYSICAL, 0.45, 1, 961),
            # a short medium above the transparency window halves three times
            (dict(PHYSICAL, G=math.sqrt(20.0), L=2.0, x_gate=1.0), 1.0, 3, 321),
        ],
        ids=["0.0-0-961", "0.45-1-961", "1.0-3-321"],
    )
    def test_one_row_per_node_of_the_accepted_grid(
        self, tmp_path, physical, omega, refinements, rows
    ):
        # L z_b at 20 * 2**k steps per radius after k refinements; the
        # closed form at omega = 0 writes the grid of one refinement
        cfg = write_config(
            tmp_path, physical=physical, task="propagate",
            task_params={"omega": omega}, output_dir=str(tmp_path / "out"),
        )
        assert main(["propagate", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert manifest["refinements"] == refinements
        if refinements:
            assert 0.0 <= manifest["richardson_error"] <= 1e-8
        else:
            assert manifest["richardson_error"] == 0.0
        assert len(csv_rows(tmp_path / "out" / manifest["artifacts"][0])) == 1 + rows

    # at omega = 0.45 this medium is accepted after two refinements
    @pytest.mark.parametrize(
        "omega, nodes", [(0.0, 961), (0.45, 1921)], ids=["0.0", "0.45"]
    )
    def test_z_column_is_in_metres(self, tmp_path, omega, nodes):
        # C6 = 64 makes z_b = 2, so a column scaled by z_b twice ends at 2 L
        physical = dict(PHYSICAL, C6=64.0, L=48.0, x_gate=24.0)
        cfg = write_config(
            tmp_path, physical=physical, task="propagate",
            task_params={"omega": omega}, output_dir=str(tmp_path / "out"),
        )
        assert main(["propagate", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert manifest["derived_scales"]["z_b"] == pytest.approx(2.0, rel=1e-12)
        rows = csv_rows(tmp_path / "out" / manifest["artifacts"][0])
        assert len(rows) == 1 + nodes
        assert rows[0][0] == "z (m)"
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(48.0, rel=1e-12)


class TestComplexColumns:
    """``t0`` and ``propagate`` write each amplitude as its re/im pair alone.

    A magnitude is ``hypot(re, im)`` and a power its square, recovered
    exactly from the two columns, so the CSVs do not repeat them.
    """

    @staticmethod
    def written(tmp_path, physical, task, params):
        cfg = write_config(
            tmp_path, physical=physical, task=task, task_params=params,
            output_dir=str(tmp_path / "out"),
        )
        assert main([task, "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        return csv_rows(tmp_path / "out" / manifest["artifacts"][0])

    @staticmethod
    def assert_columns(rows, expected):
        assert rows[0] == list(expected)
        assert all(len(row) == len(expected) for row in rows)
        for j, values in enumerate(expected.values()):
            read = np.array([float(row[j]) for row in rows[1:]])
            # bit for bit, the sign of a zero included
            assert read.tobytes() == np.asarray(values, dtype=float).tobytes()

    @staticmethod
    def assert_magnitudes_recoverable(rows, name, values):
        recovered = np.hypot(column(rows, f"re_{name}"), column(rows, f"im_{name}"))
        assert recovered.tobytes() == _magnitude(values)[0].tobytes()

    def test_t0_columns(self, tmp_path):
        params = {"omega_min": -1e-4, "omega_max": 1e-4, "n_omega": 21}
        rows = self.written(tmp_path, WIDTH, "t0", params)
        result = t0_spectrum(np.linspace(-1e-4, 1e-4, 21), PhysicalConfig(**WIDTH))
        t, r = result.transmission, result.reflection
        self.assert_columns(rows, {
            "omega (rad/s)": result.omega,
            "re_T0 (amplitude)": t.real, "im_T0 (amplitude)": t.imag,
            "re_R0 (amplitude)": r.real, "im_R0 (amplitude)": r.imag,
        })
        self.assert_magnitudes_recoverable(rows, "T0", t)
        self.assert_magnitudes_recoverable(rows, "R0", r)

    @pytest.mark.parametrize("omega", [0.0, 0.45])
    def test_propagate_columns(self, tmp_path, omega):
        rows = self.written(tmp_path, PHYSICAL, "propagate", {"omega": omega})
        cfg = PhysicalConfig(**PHYSICAL)
        if omega == 0.0:
            field = cw_analytic(cfg.x_gate, cfg).field
        else:
            field = solve_bvp(omega, cfg.x_gate, cfg).field
        er, el = field.e_right, field.e_left
        self.assert_columns(rows, {
            "z (m)": field.z,
            "re_E_fwd (amplitude)": er.real, "im_E_fwd (amplitude)": er.imag,
            "re_E_bwd (amplitude)": el.real, "im_E_bwd (amplitude)": el.imag,
        })
        self.assert_magnitudes_recoverable(rows, "E_fwd", er)
        self.assert_magnitudes_recoverable(rows, "E_bwd", el)


class TestSpinwaveTask:
    def test_summary_and_matrices(self, tmp_path):
        physical = dict(PHYSICAL, L=5.0, x_gate=2.5)
        cfg = write_config(
            tmp_path, physical=physical, task="spinwave",
            task_params={"n_samples": 64}, output_dir=str(tmp_path / "out"),
        )
        assert main(["spinwave", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert manifest["versions"]["scipy"] == scipy.__version__
        summary = manifest["spinwave_summary"]
        assert summary["trace"] == pytest.approx(1.0, abs=1e-10)
        assert summary["purity"] == pytest.approx(0.808338, abs=1e-3)
        assert summary["min_coherence_ratio"] == pytest.approx(0.634689, abs=1e-3)
        assert summary["eta_retrieval_estimate"] == pytest.approx(0.896810, abs=1e-3)
        re_csv = next((tmp_path / "out").glob("spinwave_re_*.csv"))
        rows = csv_rows(re_csv)
        assert len(rows) == 65 and len(rows[1]) == 65


class TestFidelityTask:
    def test_sweep_masks_infeasible_baseline(self, tmp_path):
        physical = dict(PHYSICAL, L=5.0, x_gate=2.5)
        cfg = write_config(
            tmp_path, physical=physical, task="fidelity",
            task_params={"d_b_min": 1.0, "d_b_max": 10.0, "n_db": 10},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["fidelity", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        rows = csv_rows(tmp_path / "out" / manifest["artifacts"][0])
        for row in rows[1:]:
            if float(row[0]) < 6.0:
                assert row[4] == ""
            else:
                assert float(row[4]) > 0.0
        report = json.loads(
            next((tmp_path / "out").glob("fidelity_report_*.json")).read_text()
        )
        assert report["d_b"] == pytest.approx(5.0, rel=1e-12)
        assert report["f_gate_blockade_baseline"] is None
        assert report["f_pulse"] == {}


class TestScanTask:
    def test_width_scan_matches_prediction(self, tmp_path):
        physical = dict(PHYSICAL, G=0.1, gamma=0.5, L=1250.0, x_gate=625.0)
        cfg = write_config(
            tmp_path, physical=physical, task="scan",
            task_params={"parameter": "OmegaS", "values": [4.0, 1.0, 2.0],
                         "observable": "transparency_width"},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["scan", "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        rows = csv_rows(tmp_path / "out" / manifest["artifacts"][0])
        values = [float(r[0]) for r in rows[1:]]
        assert values == [1.0, 2.0, 4.0]  # sorted by sweep key, not input order
        assert all(float(r[3]) < 0.05 for r in rows[1:])


# config errors whose stderr changed when the CLI began to check its numbers
# through the library's rules: (task, section, key, JSON literal, the old
# message, the new one); every other field is valid
MESSAGES = [
    ("cw", "physical", "G", "NaN",
     "physical.G must be a finite number, got nan",
     "physical: G must be positive and finite, got nan"),
    ("cw", "physical", "G", "true",
     "physical.G must be a finite number, got True", "physical: G must be real, got True"),
    ("cw", "physical", "G", '"1"',
     "physical.G must be a finite number, got '1'", "physical: G must be real, got '1'"),
    ("cw", "physical", "G", "[1, 2]",
     "physical.G must be a finite number, got [1, 2]",
     "physical: G must be one number, got an array of shape (2,)"),
    ("cw", "physical", "G", "1" + "0" * 400,
     "physical.G must be a finite number, got 1000...",
     "physical: G must be positive and finite, got inf"),
    ("cw", "physical", "phi", "1e400",
     "physical.phi must be a finite number, got inf", "physical: phi must be finite, got inf"),
    ("propagate", "task_params", "omega", "NaN",
     "task_params.omega must be a finite number, got nan",
     "task_params.omega must be finite, got nan"),
    ("propagate", "task_params", "omega", "false",
     "task_params.omega must be a finite number, got False",
     "task_params.omega must be real, got False"),
    ("cw", "task_params", "d_b_max", "1" + "0" * 400,
     "task_params.d_b_max must be a finite number, got 1000...",
     "task_params.d_b_max must be finite, got inf"),
    ("cw", "task_params", "d_b_min", "0.0",
     "task_params must satisfy 0 < d_b_min < d_b_max",
     "task_params.d_b_min must be positive and finite, got 0.0"),
    ("cw", "task_params", "d_b_min", "20.0",
     "task_params must satisfy 0 < d_b_min < d_b_max",
     "task_params must satisfy d_b_min < d_b_max, got 20.0, 10.0"),
    ("cw", "task_params", "n_db", "1",
     "task_params.n_db must be >= 2, got 1",
     "task_params.n_db must be an integer of 2 or more, got 1"),
    ("cw", "task_params", "n_db", "2.5",
     "task_params.n_db must be an integer, got 2.5",
     "task_params.n_db must be an integer of 2 or more, got 2.5"),
    ("spectrum", "task_params", "kmax_labs", "0",
     "task_params.kmax_labs must be positive, got 0.0",
     "task_params.kmax_labs must be positive and finite, got 0.0"),
    ("spectrum", "task_params", "kmax_labs", "Infinity",
     "task_params.kmax_labs must be a finite number, got inf",
     "task_params.kmax_labs must be positive and finite, got inf"),
    ("spectrum", "task_params", "n_k", "400",
     "task_params.n_k must be odd so the grid holds k = 0, got 400",
     "task_params.n_k must be an odd integer of 3 or more, got 400"),
    ("spinwave", "task_params", "n_samples", "10",
     "task_params.n_samples must be >= 64, got 10",
     "task_params.n_samples must be an integer of 64 or more, got 10"),
    ("fidelity", "task_params", "n_samples", "true",
     "task_params.n_samples must be an integer, got True",
     "task_params.n_samples must be an integer of 64 or more, got True"),
    ("scan", "task_params", "rel_window", "2.0",
     "task_params.rel_window must be in (0, 1], got 2.0",
     "task_params.rel_window must be in (0, 1] and finite, got 2.0"),
    ("scan", "task_params", "rel_window", '"a"',
     "task_params.rel_window must be a finite number, got 'a'",
     "task_params.rel_window must be real, got 'a'"),
    ("scan", "task_params", "n_omega", "6",
     "task_params.n_omega must be >= 7, got 6",
     "task_params.n_omega must be an integer of 7 or more, got 6"),
    ("scan", "task_params", "values", "[4.0, 1e400]",
     "task_params.values must be a nonempty list of finite numbers",
     "task_params.values must be finite, got inf at index 1"),
    ("scan", "task_params", "values", "[1.0, true]",
     "task_params.values must be a nonempty list of finite numbers",
     "task_params.values must be real, got [1.0, True]"),
    ("fidelity", "task_params", "durations", "[-1.0, 5.0]",
     "task_params.durations must be positive",
     "task_params.durations must be positive and finite, got -1.0 at index 0"),
    ("fidelity", "task_params", "durations", "[5.0, NaN]",
     "task_params.durations must be a nonempty list of finite numbers",
     "task_params.durations must be positive and finite, got nan at index 1"),
    ("fidelity", "task_params", "durations", "[]",
     "task_params.durations must be a nonempty list of finite numbers",
     "task_params.durations must be nonempty, or null for no pulses"),
]


class TestConfigErrorMessages:
    @pytest.mark.parametrize("task, section, key, literal, old, new", MESSAGES,
                             ids=[f"{m[0]}-{m[2]}={m[3][:12]}" for m in MESSAGES])
    def test_refusal_names_the_key_and_the_library_rule(
        self, tmp_path, capsys, task, section, key, literal, old, new,
    ):
        params = {
            "cw": {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4},
            "propagate": {"omega": 0.45},
            "spectrum": {"regime": "free", "n_k": 41},
            "spinwave": {"n_samples": 64},
            "fidelity": {"d_b_min": 1.0, "d_b_max": 10.0, "n_db": 10, "durations": [1.0],
                         "omega_min": -1.0, "omega_max": 1.0, "n_omega": 5},
            "scan": {"parameter": "OmegaS", "values": [1.0, 2.0],
                     "observable": "transparency_width"},
        }[task]
        config = {"physical": dict(PHYSICAL, L=5.0, x_gate=2.5), "task": task,
                  "task_params": params}
        config[section][key] = "@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"@"', literal))
        out = tmp_path / "out"
        assert main([task, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"polsim: config error: {new}\n" != f"polsim: config error: {old}\n"
        assert not out.exists()


class TestSchemaAndExitCodes:
    def test_malformed_json_exits_2_without_artifacts(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"physical": {')
        out = tmp_path / "out"
        assert main(["cw", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["cw", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, physical=dict(PHYSICAL, bogus=1.0), task="cw",
            task_params={"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4},
        )
        assert main(["cw", "--config", str(cfg)]) == 2
        cfg2 = cw_config(tmp_path, extra_key=7)
        assert main(["cw", "--config", str(cfg2)]) == 2

    def test_missing_required_params(self, tmp_path):
        cfg = write_config(tmp_path, physical=PHYSICAL, task="cw", task_params={})
        assert main(["cw", "--config", str(cfg)]) == 2

    def test_conflicting_task_names(self, tmp_path):
        cfg = cw_config(tmp_path)
        assert main(["t0", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value", [("OmegaS", 1e-200), ("G", 1e200), ("Omega", 1e200)])
    def test_scales_out_of_float_range_exit_2(self, tmp_path, capsys, key, value):
        # each value is finite, but z_b divides by OmegaS**2 == 0.0, or
        # G**2 and Omega**2 overflow
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=dict(PHYSICAL, **{key: value}), task="cw",
            task_params={"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4},
        )
        assert main(["cw", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "derived scales" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_physical_value_is_schema_error(self, tmp_path):
        cfg = write_config(
            tmp_path, physical=dict(PHYSICAL, gamma=-1.0), task="cw",
            task_params={"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4},
        )
        assert main(["cw", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "parameter, values, message",
        [
            ("G", [0.1, -1.0], "task_params.values: G must be positive and finite, got -1.0"),
            ("x_gate", [1.0, 30.0], "x_gate must be in the medium [0, 24.0], got 30.0"),
            ("OmegaS", [1.0, 1e-200], "task_params.values: derived scales"),
        ],
        ids=["G", "x_gate", "OmegaS"],
    )
    def test_scan_value_refused_like_a_config_value(
        self, tmp_path, capsys, parameter, values, message
    ):
        # each swept config is built before any computation, so a value the
        # config refuses exits 2 with nothing written, as in "physical"
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=PHYSICAL, task="scan",
            task_params={"parameter": parameter, "values": values,
                         "observable": "cw_point"},
            output_dir=str(out),
        )
        assert main(["scan", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_solve_exits_3_without_artifacts(self, tmp_path, capsys):
        # d_b = 30 over 48 blockade radii at omega = gamma: the step product
        # overflows, and nothing is written
        out = tmp_path / "out"
        physical = dict(PHYSICAL, G=math.sqrt(30.0), L=48.0, x_gate=24.0)
        cfg = write_config(
            tmp_path, physical=physical, task="propagate",
            task_params={"omega": 1.0}, output_dir=str(out),
        )
        assert main(["propagate", "--config", str(cfg)]) == 3
        assert "overflows at refinement level 0" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_overflowing_modulus_exits_3_without_artifacts(self, tmp_path, capsys):
        # finite parts but a modulus beyond the float range: no field of
        # zeros and no NaN Richardson error is written
        out = tmp_path / "out"
        physical = dict(PHYSICAL, G=math.sqrt(56.1657))
        cfg = write_config(
            tmp_path, physical=physical, task="propagate",
            task_params={"omega": 1.0}, output_dir=str(out),
        )
        assert main(["propagate", "--config", str(cfg)]) == 3
        assert "overflows at refinement level 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_json_value_exits_3_without_artifacts(self, tmp_path, monkeypatch):
        # a NaN is no JSON number, so it never reaches the manifest
        def nan_error(*args):
            return dataclasses.replace(solve_bvp(*args), richardson_error=math.nan)

        monkeypatch.setattr(polsim.cli, "solve_bvp", nan_error)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=PHYSICAL, task="propagate",
            task_params={"omega": 1.0}, output_dir=str(out),
        )
        assert main(["propagate", "--config", str(cfg)]) == 3
        assert not out.exists()

    def test_runner_validation_exits_2_without_output_dir(self, tmp_path):
        out = tmp_path / "out"
        cfg = cw_config(tmp_path, d_b_min=10.0, d_b_max=0.5)
        assert main(["cw", "--config", str(cfg)]) == 2
        assert not out.exists()
        physical = dict(PHYSICAL, L=5.0, x_gate=2.5)
        for extra in (
            {"durations": "oops"},
            {"durations": [1.0], "omega_min": 1.0, "omega_max": -1.0, "n_omega": 5},
        ):
            cfg = write_config(
                tmp_path, physical=physical, task="fidelity",
                task_params={"d_b_min": 1.0, "d_b_max": 10.0, "n_db": 10, **extra},
                output_dir=str(out),
            )
            assert main(["fidelity", "--config", str(cfg)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("task, physical, params, key", [
        ("cw", PHYSICAL, {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4}, "d_b_min"),
        ("cw", PHYSICAL, {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4}, "d_b_max"),
        ("t0", PHYSICAL, {"omega_min": -1.0, "omega_max": 1.0, "n_omega": 5}, "omega_min"),
        ("t0", PHYSICAL, {"omega_min": -1.0, "omega_max": 1.0, "n_omega": 5}, "omega_max"),
        ("spectrum", PHYSICAL, {"regime": "free", "n_k": 5}, "kmax_labs"),
        ("propagate", PHYSICAL, {"omega": 0.0}, "omega"),
        ("scan", WIDTH, {"parameter": "OmegaS", "values": [1.0],
                         "observable": "transparency_width"}, "rel_window"),
        ("scan", WIDTH, {"parameter": "OmegaS", "values": [1.0],
                         "observable": "transparency_width"}, "n_omega"),
    ])
    def test_non_numeric_task_param_exits_2(self, tmp_path, task, physical, params, key):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=physical, task=task,
            task_params={**params, key: "abc"}, output_dir=str(out),
        )
        assert main([task, "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_unknown_regime_exits_2_in_the_library_wording(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=PHYSICAL, task="spectrum",
            task_params={"regime": "both", "n_k": 5}, output_dir=str(out),
        )
        assert main(["spectrum", "--config", str(cfg)]) == 2
        wording = "task_params.regime must be one of ('free', 'blockaded'), got 'both'"
        assert wording in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, section, key, literal", [
        ("cw", "task_params", "d_b_max", "1e400"),
        pytest.param("cw", "task_params", "d_b_max", "1" + "0" * 400, id="cw-int-overflow"),
        ("cw", "physical", "phi", "NaN"),
        ("cw", "physical", "phi", "-Infinity"),
        ("fidelity", "task_params", "d_b_max", "1e400"),
        ("t0", "task_params", "omega_min", "-1e400"),
        ("scan", "task_params", "values", "[4.0, 1e400]"),
        ("spectrum", "task_params", "kmax_labs", "Infinity"),
        ("spectrum", "task_params", "kmax_labs", "0"),
        ("spectrum", "task_params", "kmax_labs", "-2.0"),
        ("spectrum", "task_params", "n_k", "400"),
        # fit_width must be a JSON boolean; --set passes False and no as strings
        ("t0", "task_params", "fit_width", '"False"'),
        ("t0", "task_params", "fit_width", '"no"'),
        ("t0", "task_params", "fit_width", "0"),
        ("t0", "task_params", "fit_width", "1"),
        ("t0", "task_params", "fit_width", "null"),
    ])
    def test_non_finite_or_out_of_range_value_exits_2(self, tmp_path, task, section, key, literal):
        # JSON reads 1e400 as inf and accepts NaN and Infinity
        params = {
            "cw": {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4},
            "fidelity": {"d_b_min": 1.0, "d_b_max": 10.0, "n_db": 10},
            "t0": {"omega_min": -1.0, "omega_max": 1.0, "n_omega": 5},
            "scan": {"parameter": "x_gate", "values": [4.0], "observable": "cw_point"},
            "spectrum": {"regime": "free", "n_k": 41},
        }[task]
        config = {"physical": dict(PHYSICAL, L=5.0, x_gate=2.5), "task": task,
                  "task_params": params}
        config[section][key] = "@"
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"@"', literal))
        assert main([task, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("durations", [[-1.0, 5.0], [0.0, 1.0], [1.0, math.inf], [math.nan]])
    def test_fidelity_rejects_bad_durations_up_front(self, tmp_path, monkeypatch, durations):
        def never(*args, **kwargs):
            raise AssertionError("evolve_cw ran before durations were checked")

        monkeypatch.setattr(polsim.fidelity, "evolve_cw", never)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=dict(PHYSICAL, L=5.0, x_gate=2.5), task="fidelity",
            task_params={"d_b_min": 1.0, "d_b_max": 10.0, "n_db": 10, "durations": durations,
                         "omega_min": -1.0, "omega_max": 1.0, "n_omega": 5},
            output_dir=str(out),
        )
        assert main(["fidelity", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("rel_window", 0.0), ("rel_window", -1e-3), ("rel_window", 2.0),
        ("rel_window", math.nan), ("n_omega", 3), ("n_omega", 6),
    ])
    def test_scan_rejects_out_of_range_window_up_front(self, tmp_path, monkeypatch, key, value):
        def never(*args, **kwargs):
            raise AssertionError("transparency_width_study ran before the range check")

        monkeypatch.setattr(polsim.cli, "transparency_width_study", never)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=WIDTH, task="scan",
            task_params={"parameter": "OmegaS", "values": [1.0, 2.0],
                         "observable": "transparency_width", key: value},
            output_dir=str(out),
        )
        assert main(["scan", "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_fidelity_report_failure_exits_3_without_artifacts(self, tmp_path, monkeypatch):
        def stalls(*args, **kwargs):
            raise QuadratureError("step halving stalled", achieved=1e-6)

        monkeypatch.setattr(polsim.cli, "fidelity_report", stalls)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, physical=PHYSICAL, task="fidelity",
            task_params={"d_b_min": 1.0, "d_b_max": 10.0, "n_db": 10},
            output_dir=str(out),
        )
        assert main(["fidelity", "--config", str(cfg)]) == 3
        assert not out.exists()

    def test_unusable_output_dir_exits_2(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        cfg = cw_config(tmp_path)
        for args in (
            ["--out", str(afile)],
            ["--set", f"output_dir={afile}"],
            ["--out", str(afile / "sub")],
            ["--set", "output_dir=5"],
        ):
            assert main(["cw", "--config", str(cfg), *args]) == 2
            err = capsys.readouterr().err
            assert err.startswith("polsim: ") and "Traceback" not in err
        assert afile.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_failed_write_removes_the_partial_set(self, tmp_path, monkeypatch):
        write = polsim.cli._atomic_write
        calls = itertools.count()

        def fails_second(path, text):
            if next(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            write(path, text)

        monkeypatch.setattr(polsim.cli, "_atomic_write", fails_second)
        out = tmp_path / "new" / "out"
        cfg = cw_config(tmp_path)
        assert main(["cw", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("mid_file", [False, True])
    def test_any_failed_write_removes_the_partial_set(self, tmp_path, monkeypatch, mid_file):
        # the second artifact's write fails with a non-OSError, at its start
        # or after its header line: the error propagates as it is, and the
        # first artifact, the second's temporary file and the directories
        # the run created are all gone
        write = polsim.cli._atomic_write
        calls = itertools.count()

        def breaks_second(path, chunks):
            if next(calls) != 1:
                return write(path, chunks)
            if not mid_file:
                raise RuntimeError("write failed")

            def broken(chunks=iter(chunks)):
                yield next(chunks)
                raise RuntimeError("write failed")

            write(path, broken())

        monkeypatch.setattr(polsim.cli, "_atomic_write", breaks_second)
        out = tmp_path / "new" / "out"
        cfg = write_config(
            tmp_path, physical=dict(PHYSICAL, L=2.0, x_gate=1.0), task="spinwave",
            task_params={"n_samples": 64},
        )
        with pytest.raises(RuntimeError, match="write failed"):
            main(["spinwave", "--config", str(cfg), "--out", str(out)])
        assert next(calls) == 2  # the manifest was never reached
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_artifacts_get_the_mode_of_a_plain_open(self, tmp_path, umask, mode):
        # each artifact and the manifest get the mode open(path, "w") would
        # give under the process umask, not a temporary file's owner-only 0600
        out = tmp_path / "out"
        cfg = cw_config(tmp_path)
        old = os.umask(umask)
        try:
            assert main(["cw", "--config", str(cfg), "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert len(modes) == 2 and "manifest.json" in modes
        assert set(modes.values()) == {mode}

    def test_set_overrides(self, tmp_path):
        cfg = cw_config(tmp_path)
        code = main([
            "cw", "--config", str(cfg),
            "--set", "task_params.n_db=7",
            "--set", "physical.G=3.0",
            "--out", str(tmp_path / "out_set"),
        ])
        assert code == 0
        manifest = read_manifest(tmp_path / "out_set")
        assert manifest["config"]["physical"]["G"] == 3.0
        assert manifest["config"]["task_params"]["n_db"] == 7
        rows = csv_rows(tmp_path / "out_set" / manifest["artifacts"][0])
        assert len(rows) == 1 + 7

    def test_bad_set_syntax(self, tmp_path):
        cfg = cw_config(tmp_path)
        assert main(["cw", "--config", str(cfg), "--set", "nonsense"]) == 2
        assert main(["cw", "--config", str(cfg), "--set", "a.b.c.d=1"]) == 2
        assert main(["cw", "--config", str(cfg), "--set", "physical=3"]) == 2

    @pytest.mark.parametrize("task", TASKS)
    def test_oversized_blockade_is_soft_warning(self, tmp_path, task):
        # z_b = 1 over a medium of 0.5: every task computes and warns
        params = {
            "spectrum": {"regime": "blockaded", "n_k": 41},
            "t0": {"omega_min": -1.0, "omega_max": 1.0, "n_omega": 5},
            "propagate": {"omega": 0.3},
            "cw": {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4},
            "spinwave": {"n_samples": 64},
            "fidelity": {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4, "n_samples": 64},
            "scan": {"parameter": "x_gate", "values": [0.1, 0.25], "observable": "cw_point"},
        }[task]
        physical = dict(PHYSICAL, L=0.5, x_gate=0.25)
        cfg = write_config(
            tmp_path, physical=physical, task=task, task_params=params,
            output_dir=str(tmp_path / "out"),
        )
        assert main([task, "--config", str(cfg)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert any("blockade radius" in w for w in manifest["warnings"])

    def test_run_rejects_non_object_config(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            run(path)
