"""Child process of the benchmark: runs one workload, reports on stdout.

``run.py`` starts it with BLAS/OpenMP threads pinned to 1, ``POLSIM_THREADS``
unset and ``PYTHONPATH`` pointing at the checkout's ``src``.  The worker
binds itself to the highest-numbered CPU it may use: CPU 0 takes most
interrupts, and staying on one CPU keeps its caches warm, so pass times
spread less.  It prints ``ready`` and a JSON timing of its set-up once
polsim is imported and the inputs are built (the end of set-up), then,
unless ``--setup-only``, runs passes back to back and prints one JSON object
as its last line.

Every pass is timed by the wall clock and by the process's CPU clock.  On
a virtual machine the CPU clock leaves out the time the host gives this CPU
to other guests (steal), which the wall clock counts.  The host can also
slow the CPU without taking it away (a busy sibling hyperthread, a lower
clock), by up to half for minutes at a time, and neither clock shows that.
So during set-up and during each pass of an untraced run a ``SpeedProbe``
samples the CPU's speed: every 20 ms of CPU time a signal handler runs a
fixed arithmetic loop, which does not touch polsim, and times it.
``run.py`` turns CPU time and the mean probe speed into seconds on a
reference CPU of fixed speed, which move far less with the host than
either clock.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, pass_metrics

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "POLSIM_THREADS",
)
# at least this many timed passes, whatever --seconds says
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class SpeedProbe:
    """Samples the CPU's speed from a signal handler while set-up or a pass runs.

    Each probe runs ``ITERATIONS`` turns of a fixed loop (about 0.6 ms on a
    2-CPU Xeon VM) every ``INTERVAL_S`` of the process's user CPU time, so
    the probes cover the interval evenly in CPU time and cost about 3 % of it.
    The handler runs between bytecodes of the main thread, which does all
    of polsim's work while ``POLSIM_THREADS`` is unset.
    """

    ITERATIONS = 6000
    INTERVAL_S = 0.02

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGVTALRM, self._probe)

    def _probe(self, signum, frame) -> None:
        # the thread clock: while a process timer is armed, the process
        # clock advances only at scheduler ticks
        t0 = time.thread_time()
        total = 0.0
        for i in range(self.ITERATIONS):
            total += (i % 7) * 0.5
        self.samples.append(time.thread_time() - t0)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_VIRTUAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> dict:
        """Disarm the timer; return the probes' count, CPU time and mean speed."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        speeds = [self.ITERATIONS / t for t in self.samples]
        return {
            "probes": len(speeds),
            "probe_cpu_s": sum(self.samples),
            "probe_iter_per_s": statistics.mean(speeds) if speeds else None,
        }


def timed_passes(workload, tally, seconds, min_passes, tracer=None, probe=None):
    """Run passes until the next one would end after ``seconds``.

    Returns one timing record per pass (wall and CPU seconds, and the
    ``probe`` summary when a probe is given) and, per pass, the counters
    ``check`` gave (merged with the pass's layer metrics when ``tracer`` is
    set).
    """
    timings, per_pass = [], []
    start = time.perf_counter()
    while True:
        first = len(tracer.spans) if tracer else 0
        if probe:
            probe.start()
        t0, c0 = time.perf_counter(), time.process_time()
        outputs = workload.run_pass()
        timing = {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}
        if probe:
            timing.update(probe.stop())
        timings.append(timing)
        counters = workload.check(outputs, tally)
        if tracer:
            counters = {**pass_metrics(tracer.spans, first), **counters}
        per_pass.append(counters)
        elapsed = time.perf_counter() - start
        median_wall = statistics.median(t["wall_s"] for t in timings)
        if len(timings) >= min_passes and elapsed + median_wall > seconds:
            return timings, per_pass


def layer_report(workload, untraced, traced, per_pass) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced passes, and broken expectations."""
    metrics = {}
    for name, _ in LAYER_METRICS:
        values = [p[name] for p in per_pass if name in p]
        metrics[name] = statistics.median(values) if values else 0
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]

    broken = [
        f"{name} = {value} on {workload.name}, predicted 0"
        for name, value in metrics.items()
        if name.startswith(workload.expect_zero) and value != 0
    ]
    broken += [
        f"{name} = 0 on {workload.name}; is a namespace unwrapped?"
        for name in workload.expect_nonzero if not metrics[name] > 0
    ]
    return metrics, broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    probe = SpeedProbe()
    probe.start()

    import numpy
    import scipy

    import polsim
    from workloads import WORKLOADS, Tally

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(polsim.__file__).resolve().parent != src / "polsim":
        print(f"worker: imported polsim from {polsim.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup = probe.stop()
    setup["cpu_s"] = time.process_time()
    print(f"ready {json.dumps(setup)}", flush=True)
    if args.setup_only:
        return 0

    workload.warmup()
    tally = Tally()
    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "polsim": polsim.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        },
        "items_per_pass": workload.items_per_pass,
    }
    if args.trace:
        untraced, _ = timed_passes(workload, tally, args.seconds / 2, MIN_TRACED_PASSES)
        tracer = Tracer()
        tracer.install()
        traced, per_pass = timed_passes(
            workload, tally, args.seconds / 2, MIN_TRACED_PASSES, tracer
        )
        metrics, broken = layer_report(
            workload, [t["wall_s"] for t in untraced], [t["wall_s"] for t in traced], per_pass
        )
        if args.spans:
            tracer.write(args.spans)
        result.update(passes=traced, untraced_passes=untraced, layer=metrics,
                      broken_expectations=broken, patched_namespaces=tracer.patched)
    else:
        timings, _ = timed_passes(
            workload, tally, args.seconds, MIN_PASSES, probe=probe
        )
        result.update(passes=timings)

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.by_check,
        unexpected_failures=tally.unexpected(),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
