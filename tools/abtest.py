"""Interleaved in-process A/B timing of two checkouts.

    python tools/abtest.py A B [--mode proposed|baseline|cli] [--runs 240] [--seed 0]

Copies the ``src/frenetplan`` of checkouts ``A`` and ``B`` into one
temporary directory as the packages ``frenetplan_a`` and ``frenetplan_b``
and imports both into this process. Each job is one of s1-s3 at a scenario
seed drawn from ``--seed``; even jobs run A first, odd jobs B first.

- ``proposed``, ``baseline``: the scenario is built by each side's own
  ``scenarios.BUILDERS``, 5 cycles (the perfbench replan shape), and run by
  each side's ``run()`` in that mode. Both sides must give equal
  ``to_dict()`` (compared as ``json.dumps(..., sort_keys=True)``; a run
  that raises a ``PlannerError`` is compared by its error text).
- ``cli``: each side's ``cli.main`` runs ``run <its checkout's
  scenarios/sN.json> --mode baseline --seed <seed>`` (the perfbench
  ``cli_run`` shape, 8 cycles as bundled). Both sides must write the same
  five data files, byte for byte (the manifest, which holds a duration, is
  not compared; a nonzero exit is compared by its code and error output).

If the two sides differ on a job, the tool exits 1.

Prints each side's runs per second, the total-time ratio A/B (above 1 when
B is faster) and the median per-run ratio A/B with its quartiles. Timing
two sides in one process, one job apart, cancels the machine's drift that
separate benchmark processes see. The median resolves effects of 1-2%; the
total-time ratio also counts the occasional stalled run, so it is noisier
(a checkout against itself read 1.0045 in the median and 1.024 in total
over 240 proposed runs on a 2-core x86_64 VM).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

# one thread, as perfbench runs: set before numpy reads it on import
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

SIDES = ("a", "b")
N_CYCLES = 5
WARMUP_JOBS = 6
# what the cli mode compares: the run command's outputs but its manifest
DATA_FILES = ("simlog.json", "profiles.csv", "jerk_stats.csv", "endpoint_nn.csv",
              "feasibility.csv")


def load_sides(roots: dict, tmp: Path) -> dict:
    """Each side's package, copied into ``tmp`` under its own name."""
    sys.path.insert(0, str(tmp))
    packages = {}
    for side, root in roots.items():
        name = f"frenetplan_{side}"
        shutil.copytree(Path(root) / "src" / "frenetplan", tmp / name)
        packages[side] = importlib.import_module(name)
    return packages


def outcome(package, scenario, mode: str) -> tuple:
    """The wall time of one ``run`` and the text its result is compared by."""
    errors = importlib.import_module(f"{package.__name__}.errors")
    start = time.perf_counter()
    try:
        log = package.run(scenario, mode)
    except errors.PlannerError as err:
        return time.perf_counter() - start, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    return elapsed, json.dumps(log.to_dict(), sort_keys=True)


def cli_outcome(package, scenario_file: Path, seed: int, out: Path) -> tuple:
    """The wall time of one in-process ``run`` command in baseline mode and
    what its result is compared by: the data files it wrote, or its exit
    code and error output."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    argv = ["run", str(scenario_file), "--mode", "baseline", "--seed", str(seed),
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code:
        return elapsed, (code, err.getvalue())
    return elapsed, tuple((out / name).read_bytes() for name in DATA_FILES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the reference)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--mode", choices=("proposed", "baseline", "cli"), default="proposed")
    parser.add_argument("--runs", type=int, default=240, help="jobs timed on each side")
    parser.add_argument("--seed", type=int, default=0, help="draws the scenario seeds")
    args = parser.parse_args(argv)

    seeds = np.random.default_rng(args.seed).integers(2**31, size=args.runs).tolist()
    roots = {"a": args.a, "b": args.b}
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(roots, Path(tmp))
        builders = {
            side: importlib.import_module(f"{p.__name__}.scenarios").BUILDERS
            for side, p in packages.items()
        }
        keys = list(builders["a"])
        times = {side: [] for side in SIDES}
        for job in range(-WARMUP_JOBS, args.runs):
            key = keys[job % len(keys)]
            seed = seeds[job] if job >= 0 else job + WARMUP_JOBS
            order = SIDES if job % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                if args.mode == "cli":
                    scenario_file = roots[side] / "scenarios" / f"{key}.json"
                    out = Path(tmp) / f"out_{side}"
                    results[side] = cli_outcome(packages[side], scenario_file, seed, out)
                else:
                    scenario = builders[side][key](seed=seed, n_cycles=N_CYCLES)
                    results[side] = outcome(packages[side], scenario, args.mode)
            if results["a"][1] != results["b"][1]:
                print(f"error: {key} at seed {seed} differs between A and B", file=sys.stderr)
                return 1
            if job >= 0:
                for side in SIDES:
                    times[side].append(results[side][0])

    a, b = (np.array(times[side]) for side in SIDES)
    ratio = a / b
    q25, q50, q75 = np.percentile(ratio, [25, 50, 75])
    print(f"{args.mode}: {args.runs} jobs per side, outputs equal on every job")
    print(f"A: {args.runs / a.sum():.2f} runs/s   B: {args.runs / b.sum():.2f} runs/s")
    print(f"total-time ratio A/B: {a.sum() / b.sum():.4f}")
    print(f"per-run ratio A/B: median {q50:.4f} (quartiles {q25:.4f}, {q75:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
