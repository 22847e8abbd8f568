"""Measurement phases of the closed-loop replanning benchmark.

One invocation, for one workload and seed:

1. set-up samples (untraced runs only): fresh interpreters that import the
   package and build the workload's jobs, timed from launch to exit;
2. check pass 1, which also warms up: every scenario at seed 0, digested;
3. the timed phase: whole rounds of jobs (s1, s2, s3) back to back until
   ``seconds`` have passed and, untraced, at least ``min_cycles`` cycles
   are in, so that ten lie beyond p90;
4. traced runs only: the timed phase runs traced for half of ``seconds``,
   then the same jobs untraced, which gives the tracing overhead;
5. check pass 2, whose digest must equal that of pass 1.

Run times are scaled to a reference CPU speed. A shared 2-core x86_64 VM
(Intel Xeon, Python 3.11) ran the same 5-cycle baseline job in anything from
62 to 128 ms within one minute, in regimes lasting seconds, with CPU time equal to wall
time. A fixed kernel that does not touch ``frenetplan`` is timed between
consecutive jobs; each job's wall time is multiplied by
``REFERENCE_KERNEL_MS`` over the mean of the kernel times on either side of
it. In a 40 s trial this cut the swing of 25-run means from about 20% to 3%.
Set-up time is scaled the same way, but by a pure-Python kernel that the
set-up interpreter itself times just before and just after its imports, so
the factor comes from the core that did the work. Unscaled figures go to the
notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import CycleClock, Tracer, assert_pristine, layer_metrics, patched, percentile
from workloads import SCENARIO_KEYS, build_jobs, check, check_jobs, execute, run_dir

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CYCLES = 100
SETUP_SAMPLES = 10
REFERENCE = BENCH / "reference.json"
# Kernel times that define the reference speed; times are reported as if the
# kernel had taken this long.
REFERENCE_KERNEL_MS = 10.0
REFERENCE_SETUP_KERNEL_MS = 10.0

# A set-up sample: a fresh interpreter that imports the package and builds
# the jobs. It prints the seconds spent in its two kernel timings and the
# speed factor they give.
_SETUP_SNIPPET = f"""
import sys, time
def kernel():
    t0 = time.perf_counter()
    acc, table = 0, {{}}
    for i in range(40000):
        acc += (i * i) % 7
        table[str(i)] = acc
    return time.perf_counter() - t0
before = kernel()
sys.path[:0] = sys.argv[3:5]
import workloads
workloads.build_jobs(sys.argv[1], int(sys.argv[2]), sys.argv[5])
after = kernel()
print(before + after, {REFERENCE_SETUP_KERNEL_MS / 1e3} / ((before + after) / 2))
"""


def kernel_ms() -> float:
    """Wall time of a fixed mix of small numpy calls and Python bookkeeping,
    the same kind of work the planner does."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(400):
        y = np.gradient(np.sin(x * i), 0.1)
        acc += float(y @ y)
        acc += len({"k": i, "v": [float(i)] * 4}["v"])
    return (time.perf_counter() - t0) * 1e3


class SpeedGauge:
    """Speed factor for each stretch of work between two kernel timings."""

    def __init__(self):
        self.last = kernel_ms()

    def factor(self) -> float:
        now = kernel_ms()
        scale = REFERENCE_KERNEL_MS / ((self.last + now) / 2)
        self.last = now
        return scale


@dataclass
class Phase:
    """Tallies of one timed phase; ``busy_s`` and ``cycle_ms`` are scaled.

    ``failed`` counts every run that is not ok; ``wrong`` those of them whose
    outputs broke an invariant (the rest raised or exited non-zero).
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    factors: list = field(default_factory=list)
    candidates: int = 0
    cycle_ms: list = field(default_factory=list)
    output_bytes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok_runs(self) -> int:
        return self.attempted - self.failed

    @property
    def runs_per_s(self) -> float:
        return self.ok_runs / self.busy_s if self.busy_s else 0.0


def setup_seconds(workload: str, seed: int, samples: int):
    """Median scaled and unscaled time of a fresh interpreter importing the
    package and building the workload's jobs, launch to exit without its
    kernel timings."""
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, workload, str(seed),
           str(BENCH), str(ROOT / "src"), str(ROOT)]
    scaled, wall = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
        kernel_s, scale = map(float, proc.stdout.split())
        wall.append(time.perf_counter() - t0 - kernel_s)
        scaled.append(wall[-1] * scale)
    return statistics.median(scaled), statistics.median(wall)


def timed_phase(workload, jobs, seconds, min_cycles, hook, out_root, n_jobs=None) -> Phase:
    """Run jobs in a closed loop under ``hook``: exactly ``n_jobs`` of them if
    given, else until the phase has lasted ``seconds`` and holds ``min_cycles``."""
    assert_pristine()
    ph = Phase()
    gauge = SpeedGauge()
    start = time.perf_counter()
    with patched(hook.replacements()):
        while True:
            index = ph.attempted % len(jobs)
            job = jobs[index]
            with run_dir(out_root, workload) as out_dir:
                hook.begin_job(job)
                t0 = time.perf_counter()
                result = execute(workload, job, out_dir)
                wall = time.perf_counter() - t0
                cycles = hook.end_job()
                outcome = check(workload, job, result, out_dir)
            scale = gauge.factor()
            ph.attempted += 1
            ph.wall_s += wall
            ph.busy_s += wall * scale
            ph.factors.append(scale)
            if outcome.ok:
                ph.candidates += outcome.n_candidates
                ph.cycle_ms.extend(c * scale for c in cycles)
                ph.output_bytes.append(outcome.output_bytes)
            else:
                ph.failed += 1
                ph.wrong += not outcome.error
                ph.problems.append(f"{job.scenario} seed {job.seed}: {outcome.problem}")
            if ph.attempted % len(SCENARIO_KEYS):
                continue  # stop only after whole rounds: s1, s2 and s3 once each
            elapsed = time.perf_counter() - start
            if n_jobs is not None:
                if ph.attempted >= n_jobs:
                    break
            elif elapsed >= seconds and (
                len(ph.cycle_ms) >= min_cycles or elapsed >= 3 * seconds
            ):
                break
    assert_pristine()
    return ph


def check_pass(workload, jobs, out_root):
    """Digest, scaled per-scenario run ms, failures and wrong results of one
    untraced pass."""
    assert_pristine()
    digest = hashlib.sha256()
    run_ms, problems, wrong = {}, [], 0
    gauge = SpeedGauge()
    for job in jobs:
        with run_dir(out_root, workload) as out_dir:
            t0 = time.perf_counter()
            result = execute(workload, job, out_dir)
            wall_ms = (time.perf_counter() - t0) * 1e3
            outcome = check(workload, job, result, out_dir)
        run_ms[job.scenario] = wall_ms * gauge.factor()
        digest.update(outcome.digest.encode())
        if not outcome.ok:
            problems.append(f"check pass {job.scenario}: {outcome.problem}")
            wrong += not outcome.error
    return digest.hexdigest(), run_ms, problems, wrong


def environment() -> dict:
    """Interpreter, library versions and thread settings of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def reference_digest(workload: str):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get("digests", {}).get(workload)


def measure(workload, seed, seconds, trace, out_root,
            setup_samples=SETUP_SAMPLES, min_cycles=MIN_CYCLES):
    """Run one benchmark invocation; returns (result, note lines, problems)."""
    notes = [f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
             f"environment {json.dumps(environment(), sort_keys=True)}"]
    if not trace:
        setup_s, setup_wall_s = setup_seconds(workload, seed, setup_samples)
        notes.append(f"setup: median of {setup_samples} interpreters, "
                     f"unscaled {setup_wall_s:.4f} s")
    jobs = build_jobs(workload, seed, ROOT)
    reference = check_jobs(workload, ROOT)

    digest1, _, problems, wrong = check_pass(workload, reference, out_root)
    if trace:
        tracer = Tracer()
        main = timed_phase(workload, jobs, seconds / 2, 0, tracer, out_root)
        plain = timed_phase(workload, jobs, 0, 0, CycleClock(), out_root, main.attempted)
        phases = [main, plain]
    else:
        main = timed_phase(workload, jobs, seconds, min_cycles, CycleClock(), out_root)
        phases = [main]
    digest2, seed0_ms, problems2, wrong2 = check_pass(workload, reference, out_root)

    # every failed run, check pass or timed, left exactly one problem line
    problems += problems2 + [p for ph in phases for p in ph.problems]
    attempted = 2 * len(reference) + sum(ph.attempted for ph in phases)
    failed = len(problems)
    wrong += wrong2 + sum(ph.wrong for ph in phases)
    same = digest1 == digest2
    recorded = reference_digest(workload)
    notes.append(
        f"digest {workload} sha256={digest2} two passes "
        f"{'agree' if same else 'DIFFER (pass 1 ' + digest1 + ')'}; recorded: "
        + ("none" if recorded is None else "match" if recorded == digest2 else "differs")
    )
    n = len(main.cycle_ms)
    notes.append(
        f"timed{' (traced)' if trace else ''}: {main.attempted} runs ({main.failed} failed), "
        f"{n} cycles ({n - int(0.9 * n)} beyond p90), {main.candidates} candidates, "
        f"{len({(j.scenario, j.seed) for j in jobs[:main.attempted]})} distinct jobs; "
        f"unscaled: {main.wall_s:.3f} s busy, {main.ok_runs / main.wall_s:.4f} runs/s; "
        f"speed factor median {statistics.median(main.factors):.4f}"
    )

    if trace:
        m = layer_metrics(tracer.spans, main.factors, SCENARIO_KEYS)
        m["trace.untraced_cycle_ms_mean"] = (
            statistics.fmean(plain.cycle_ms) if plain.cycle_ms else 0.0
        )
        # The layer times partition the traced cycle; what they add up to
        # beyond the untraced cycle of the same jobs is the tracer's own cost.
        m["trace.excess_ms_per_cycle"] = (
            m["trace.cycle_ms_mean"] - m["trace.untraced_cycle_ms_mean"]
        )
        m["trace.overhead_ratio"] = main.busy_s / plain.busy_s
        m["cli.output_bytes_per_run"] = (
            statistics.fmean(main.output_bytes)
            if workload == "cli_run" and main.output_bytes else 0.0
        )
        for key in SCENARIO_KEYS:
            m[f"scenario.{key}.seed0_run_ms"] = seed0_ms[key]
        out_root.mkdir(parents=True, exist_ok=True)
        spans_file = out_root / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_file)
        notes.append(f"{len(tracer.spans)} spans written to {spans_file}")
    else:
        m = {
            "setup_s": setup_s,
            "runs_per_s": main.runs_per_s,
            "cycle_ms_p50": percentile(main.cycle_ms, 50),
            "cycle_ms_p90": percentile(main.cycle_ms, 90),
            "candidates_per_s": main.candidates / main.busy_s,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        # A run that raised or exited non-zero counts in ``failed``; only
        # outputs that break an invariant, or digests that differ, are wrong.
        "correct": wrong == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
    }
    return result, notes, problems
