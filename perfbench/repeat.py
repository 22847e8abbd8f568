"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload replan_baseline --seeds 0-9 [--json out.json]

Runs ``perfbench/run.py`` once per seed, one after another, untraced and for
``run_seconds`` from ``BENCHMARK.json``, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (interquartile distance over the median). For end-to-end metrics it
also prints the bound from ``BENCHMARK.json`` and whether the spread stays
below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        line = (f"{name:58s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        if name in bounds:
            ok = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            line += f"  bound {bounds[name]} {ok}"
        print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "metrics": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
