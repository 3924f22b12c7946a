"""polsim benchmark: run one workload (or all) and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pulse_routing --seed 7 --seconds 34 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, 34 s each

Each workload runs in its own worker process (``worker.py``) with BLAS and
OpenMP threads pinned to 1 and ``POLSIM_THREADS`` unset; the worker makes one
call after another (closed loop, one client).  End-to-end times are in
seconds on a reference CPU: CPU time scaled by the CPU speed measured during
it (see ``worker.py``), so that a host which slows the CPU for a while moves
them little.  The measured CPU and wall times are printed and kept in the
run record.  With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  A full record
of each run, with its environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("pulse_routing", "spinwave_map", "cli_batch")
PINNED = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}
# fresh processes timed for setup_s; the reported value is their median
SETUP_SAMPLES = 5
# a run must end within 180 s; leave room for start-up and the report
RUN_DEADLINE_S = 170.0

# probe-loop speed of the reference CPU, iterations per second; about the
# median speed on the 2-CPU Xeon VM the benchmark was defined on
REFERENCE_ITER_PER_S = 10e6

E2E_UNITS = {"setup_s": "s", "pass_ref_s": "s", "items_per_ref_s": "1/s", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POLSIM_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args, deadline):
    """Start a worker; return its set-up time and its last line.

    The set-up time is the worker's timing of its set-up (CPU seconds and
    speed-probe summary) with the wall seconds from the start until the
    worker printed ``ready`` added as ``wall_s``.

    The worker is killed at ``deadline`` (a ``time.monotonic`` value) and
    always waited for.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    tag, _, setup = first.strip().partition(" ")
    if code != 0 or tag != "ready":
        raise RunError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return {**json.loads(setup), "wall_s": ready_s}, (lines[-1] if lines else "")


def reference_seconds(timing) -> float:
    """CPU seconds of ``timing``, less the probes', on the reference CPU."""
    if not timing["probes"]:
        raise RunError("no speed probe ran during a timed interval")
    own = timing["cpu_s"] - timing["probe_cpu_s"]
    return own * timing["probe_iter_per_s"] / REFERENCE_ITER_PER_S


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Hash of the library sources, identifying the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    """Run one workload in its own processes; return its full record."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    stem = f"{name}-seed{seed}-trace{trace}-{stamp}"
    workdir = OUT / f"work-{stem}"
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    spans = OUT / f"{stem}.spans.jsonl"
    try:
        ready, line = launch(
            [*common, "--seconds", str(seconds), "--trace", str(trace)]
            + (["--spans", str(spans)] if trace else []),
            deadline,
        )
        setup = [ready]
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(launch([*common, "--seconds", "0", "--setup-only"], deadline)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        worker = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RunError(f"worker for {name} printed no result") from exc

    passes = worker["passes"]
    cpu = [p["cpu_s"] for p in passes]
    wall = [p["wall_s"] for p in passes]
    items = worker["items_per_pass"]
    if trace:
        metrics = worker["layer"]
        ref = None
    else:
        ref = [reference_seconds(p) for p in passes]
        metrics = {
            "setup_s": statistics.median(reference_seconds(s) for s in setup),
            "pass_ref_s": statistics.median(ref),
            "items_per_ref_s": statistics.median(items / r for r in ref),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        }
    broken = worker.get("broken_expectations", [])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not worker["unexpected_failures"] and not broken,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "fail_frac": worker["failed"] / worker["attempted"],
        "metrics": metrics,
        "setup_samples": setup,
        "passes": passes,
        "pass_ref_s": ref,
        "cpu_s": statistics.median(cpu),
        "wall_s": statistics.median(wall),
        # share of the passes' wall time the worker was not on a CPU
        "steal_frac": 1.0 - sum(cpu) / sum(wall),
        "environment": {
            **worker["environment"],
            "git_sha": git_sha(),
            "source_sha256": source_sha256(),
            "seed": seed,
        },
        "failures": worker["failures"],
        "broken_expectations": broken,
    }
    for key in ("untraced_passes", "patched_namespaces"):
        if key in worker:
            record[key] = worker[key]
    if trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    record["result_file"] = str(path.relative_to(ROOT))
    return record


def print_record(record) -> None:
    units = dict(LAYER_METRICS) if record["trace"] else E2E_UNITS
    print(f"{record['workload']}: seed {record['seed']}, {len(record['passes'])} timed "
          f"passes, correct {record['correct']}")
    for name, value in record["metrics"].items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  {'pass time (record only)':44s} cpu {record['cpu_s']:.6g} s, "
          f"wall {record['wall_s']:.6g} s, steal_frac {record['steal_frac']:.3g}")
    print(f"  {'fail_frac':44s} {record['fail_frac']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for check, entry in sorted(record["failures"].items()):
        tag = "known defect" if entry["known"] else "UNEXPECTED"
        print(f"    {tag}: {check} x{entry['count']}: {entry['detail']}")
    for message in record["broken_expectations"]:
        print(f"    BROKEN EXPECTATION: {message}", file=sys.stderr)
    print(f"  record: {record['result_file']}")


def contract_line(record) -> str:
    units = dict(LAYER_METRICS) if record["trace"] else E2E_UNITS
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "polsim" / "__init__.py").is_file():
        print(f"run.py: no polsim sources under {ROOT / 'src'}; run from a polsim "
              "checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
            print_record(records[-1])
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(contract_line(records[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(contract_line(r)) for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
