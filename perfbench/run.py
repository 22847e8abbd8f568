"""Closed-loop replanning benchmark for frenetplan.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replan_proposed --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
prints its per-layer metrics, measured by wrapping the package's public calls.
Notes go to standard output, failed checks to standard error, and the last
line of standard output is the JSON result. Work files (CLI outputs, spans)
go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
# One process and one thread: BLAS must not add threads of its own.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def with_units(values: dict, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frenetplan" / "__init__.py").is_file():
        print(f"error: no frenetplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness  # after the thread settings, which numpy reads on import

    result, notes, problems = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_out"
    )
    result["metrics"] = with_units(result["metrics"], spec)
    for line in notes:
        print(f"# {line}")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
