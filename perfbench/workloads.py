"""Inputs, runners and output checks for the closed-loop replanning benchmark.

A workload is a list of jobs; one job is one closed-loop run. Every job runs
only when the previous one has returned, and inside a run each cycle consumes
the previous cycle's committed state, so the load is a single closed loop.

* ``replan_proposed`` / ``replan_baseline``: ``scenarios.BUILDERS`` s1-s3 at
  scenario seeds derived from the workload seed, 5 cycles each (the
  acceptance-batch shape), run through ``replanning_sim.run``.
* ``cli_run``: ``frenetplan.cli.main(["run", <bundled sN.json>, "--mode",
  "baseline", "--seed", k, "--out", <dir>])`` in process, 8 cycles as bundled.

The planner sees only the scenarios built here. The check pass always uses
scenario seed 0, so its digest can be compared across commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from frenetplan import cli, replanning_sim, scenarios
from frenetplan.errors import PlannerError

WORKLOADS = {
    "replan_proposed": "proposed",
    "replan_baseline": "baseline",
    "cli_run": "baseline",
}
SCENARIO_KEYS = tuple(scenarios.BUILDERS)
# Scenario seeds are drawn from [0, 2**31) by the workload seed, enough of
# them that a timed phase rarely runs a job twice. A rare variant has no
# feasible candidate in some cycle (s1 at seed 2041105244, proposed mode,
# cycle 3 raises NoFeasibleCandidate); such a run counts as failed.
N_SCENARIO_SEEDS = 128
SEED_RANGE = 2**31
REPLAN_CYCLES = 5
DATA_FILES = (
    "simlog.json",
    "profiles.csv",
    "jerk_stats.csv",
    "endpoint_nn.csv",
    "feasibility.csv",
)
ACCEL_GAP_TOL = 1e-9


@dataclass
class Job:
    """One closed-loop run: a scenario (built, or a bundled file) at a seed."""

    scenario: str
    seed: int
    n_cycles: int
    payload: object  # replanning_sim.Scenario, or the Path of a bundled file


@dataclass
class Outcome:
    """What the output check of one run found.

    A run that is not ``ok`` either raised a ``PlannerError`` or exited
    non-zero (``error``: the planner gave up, no output to judge) or
    produced outputs that break an invariant (a wrong result).
    """

    ok: bool
    n_candidates: int = 0
    digest: str = ""
    output_bytes: int = 0
    problem: str = ""
    error: bool = False


def derived_seeds(seed: int) -> list:
    """Distinct scenario seeds, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    seeds: dict = {}
    while len(seeds) < N_SCENARIO_SEEDS:
        seeds.setdefault(int(rng.integers(SEED_RANGE)))
    return list(seeds)


def build_jobs(workload: str, seed: int, root: Path, seeds: Optional[list] = None) -> list:
    """The workload's runs, round-robin over s1, s2, s3 at each derived seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seeds = derived_seeds(seed) if seeds is None else seeds
    if workload == "cli_run":
        files = {key: Path(root) / "scenarios" / f"{key}.json" for key in SCENARIO_KEYS}
        cycles = {
            key: int(json.loads(path.read_text())["sim"]["n_cycles"])
            for key, path in files.items()
        }
        return [
            Job(key, s, cycles[key], files[key]) for s in seeds for key in SCENARIO_KEYS
        ]
    return [
        Job(key, s, REPLAN_CYCLES, builder(seed=s, n_cycles=REPLAN_CYCLES))
        for s in seeds
        for key, builder in scenarios.BUILDERS.items()
    ]


def check_jobs(workload: str, root: Path) -> list:
    """The fixed reference input of the digest check: every scenario at seed 0."""
    return build_jobs(workload, 0, root, seeds=[0])


def execute(workload: str, job: Job, out_dir: Path):
    """Run one job; the only part of a run that the benchmark times.

    Returns the SimLog (replan workloads), the CLI exit code (cli_run), or
    the PlannerError a replan run raised.
    """
    if workload == "cli_run":
        argv = ["run", str(job.payload), "--mode", WORKLOADS[workload],
                "--seed", str(job.seed), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code if code == 0 else (code, err.getvalue().strip())
    try:
        return replanning_sim.run(job.payload, WORKLOADS[workload])
    except PlannerError as exc:
        return exc


def log_problems(log: dict, n_cycles: int) -> list:
    """Violations of the run invariants in a serialized simulation log."""
    problems = []
    if len(log["cycles"]) != n_cycles:
        problems.append(f"{len(log['cycles'])} cycles, expected {n_cycles}")
    if len(log["splices"]) != max(n_cycles - 1, 0):
        problems.append(f"{len(log['splices'])} splices for {n_cycles} cycles")
    for sp in log["splices"]:
        if sp["position_gap"] != 0 or sp["velocity_gap"] != 0:
            problems.append(f"cycle {sp['cycle']}: splice position/velocity gap not 0")
        if not sp["acceleration_gap"] <= ACCEL_GAP_TOL:
            problems.append(f"cycle {sp['cycle']}: acceleration gap {sp['acceleration_gap']}")
    for cyc in log["cycles"]:
        rows = cyc["candidates"]
        if not rows[cyc["selected_index"]]["feasible"]:
            problems.append(f"cycle {cyc['cycle']}: selected candidate infeasible")
        costs = [row["cost"] for row in rows] + [cyc["selected_cost"]]
        if not all(math.isfinite(c) for c in costs):
            problems.append(f"cycle {cyc['cycle']}: non-finite cost")
    return problems


def check(workload: str, job: Job, result, out_dir: Path) -> Outcome:
    """Check one run's outputs and digest them."""
    if isinstance(result, PlannerError):
        return Outcome(False, problem=f"{type(result).__name__}: {result}", error=True)
    if workload == "cli_run":
        if result != 0:
            code, message = result
            return Outcome(False, problem=f"exit code {code}: {message}", error=True)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if tuple(manifest["outputs"]) != DATA_FILES:
            return Outcome(False, problem=f"manifest lists {manifest['outputs']}")
        blobs = [(out_dir / name).read_bytes() for name in DATA_FILES]
        log = json.loads(blobs[0])
        size = sum(len(b) for b in blobs) + (out_dir / "manifest.json").stat().st_size
    else:
        log = result.to_dict()
        blobs = [json.dumps(log, sort_keys=True).encode()]
        size = len(blobs[0])
    problems = log_problems(log, job.n_cycles)
    digest = hashlib.sha256(b"".join(blobs)).hexdigest()
    return Outcome(
        not problems,
        n_candidates=sum(c["n_candidates"] for c in log["cycles"]),
        digest=digest,
        output_bytes=size,
        problem="; ".join(problems),
    )


@contextlib.contextmanager
def run_dir(out_root: Path, workload: str):
    """A fresh output directory for one run, removed afterwards."""
    if workload != "cli_run":
        yield None
        return
    out_root.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
