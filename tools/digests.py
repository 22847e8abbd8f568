"""Digests of the program's outputs, to show that a change keeps them
byte-identical.

    python tools/digests.py --write FILE
    python tools/digests.py --compare A B

``--write`` runs the checkout this file sits in (its ``src/``) and writes a
JSON file with one SHA-256 per case:

- ``run/<scenario>/<mode>/<seed>``: ``json.dumps(run(builder(seed=seed),
  mode).to_dict(), sort_keys=True)`` for s1-s3, both modes, seeds 0-127;
- ``files/<scenario>/<mode>/<seed>/<file>``: the five data files of
  ``frenetplan run scenarios/<scenario>.json --seed <seed> --mode <mode>``
  for seeds 0-49;
- ``cluster/<scenario>/<mode>/<dump>/<file>``: the files of ``frenetplan
  cluster scenarios/<scenario>.json --dump endpoints|full --mode <mode>``;
- ``clusters/<scenario>/<mode>/<seed>/<cycle>/<field>``: every field of
  the ``SampleRows`` that ``cycle_cluster`` lays out for each cycle of
  ``run(builder(seed=seed), mode)`` (its dtype, shape and bytes;
  ``grid_key`` as JSON with floats in hex), seeds 0-9, so a change that
  keeps the layouts byte-identical shows it directly;
- ``lib/<scenario>/<mode>/<seed>/<function>``: the one-candidate library
  calls on the cycle-0 cluster of ``builder(seed=seed)`` (``cycle_cluster``,
  its ``select_reference_candidate``, the cycle's weights and agents), seeds
  0-4: ``total_cost`` and ``check_candidate`` of every candidate, and
  ``optimize_trajectory`` and ``cost_gradient`` (every element, in hex) of
  every 10th, so the Jacobian branch of the force law is compared directly
  and not only through the descent;
- ``paths/<scenario>/<builder|file>/<field>``: the dtype, shape and bytes of
  the reference path's ``arc_length_knots``, ``_cx`` and ``_cy``, fitted to
  the waypoints of ``builder(seed=0)`` and of ``scenarios/<scenario>.json``,
  so the fit is compared directly.

A run that raises is digested as its error text plus its partial log, if it
carries one; a command that exits nonzero adds a ``.../exit`` case holding
its exit code and error output, and a ``lib`` case that raises is one
``.../error`` case. The file also records the commit and the
Python, numpy and scipy versions. Takes about 55 s on a 2-core x86_64 VM.

``--compare`` lists the cases that differ between two such files, grouped by
kind, scenario and mode, and exits 1 if any do. The cost path calls
``np.exp``, whose last bit may differ across CPUs and numpy builds, so only
files written in one environment are comparable; ``--compare`` warns when
the recorded versions differ.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from frenetplan import cli  # noqa: E402
from frenetplan.endpoint_regulation import select_reference_candidate  # noqa: E402
from frenetplan.errors import NoFeasibleCandidate  # noqa: E402
from frenetplan.evaluation import check_candidate  # noqa: E402
from frenetplan.frenet_geometry import FrenetState, build_reference_path  # noqa: E402
from frenetplan.momentum_optimizer import (  # noqa: E402
    OptimizerConfig,
    PlanningContext,
    cost_gradient,
    optimize_trajectory,
    total_cost,
)
from frenetplan.replanning_sim import MODES, cycle_cluster, run  # noqa: E402
from frenetplan.scenarios import BUILDERS  # noqa: E402

RUN_SEEDS = range(128)
FILE_SEEDS = range(50)
CLUSTER_SEEDS = range(10)
DUMPS = ("endpoints", "full")
LIB_SEEDS = range(5)
REFINE_EVERY = 10


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_digests() -> dict:
    out = {}
    for name, builder in BUILDERS.items():
        for mode in MODES:
            for seed in RUN_SEEDS:
                try:
                    text = json.dumps(run(builder(seed=seed), mode).to_dict(), sort_keys=True)
                except Exception as err:
                    partial = getattr(err, "partial_log", None)
                    text = f"{type(err).__name__}: {err}\n" + json.dumps(
                        None if partial is None else partial.to_dict(), sort_keys=True
                    )
                out[f"run/{name}/{mode}/{seed}"] = _sha(text.encode())
    return out


def _field_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    return json.dumps(
        [[p.hex() if isinstance(p, float) else p for p in key] for key in value]
    ).encode()


def cluster_digests() -> dict:
    out = {}
    for name, builder in BUILDERS.items():
        for mode, switches in MODES.items():
            for seed in CLUSTER_SEEDS:
                scenario = builder(seed=seed)
                try:
                    log = run(scenario, mode)
                except NoFeasibleCandidate as err:
                    # the cycle that raised starts at the partial log's end
                    log = err.partial_log
                # each cycle starts where the previous one's record ends
                states = [scenario.initial_state] + [
                    FrenetState.from_array(c.states[-1]) for c in log.cycles
                ]
                path = scenario.build_path()
                for k, state in enumerate(states[: scenario.sim.n_cycles]):
                    rows = cycle_cluster(scenario, path, state, k, switches.regulate).rows
                    for f in dataclasses.fields(rows):
                        case = f"clusters/{name}/{mode}/{seed}/{k}/{f.name}"
                        out[case] = _sha(_field_bytes(getattr(rows, f.name)))
    return out


def _lib_texts(scenario, switches) -> dict:
    """Per library function, the text of its results over the cycle-0
    cluster's candidates, in cluster order."""
    path = scenario.build_path()
    cluster = cycle_cluster(scenario, path, scenario.initial_state, 0, switches.regulate)
    reference = cluster.candidates[select_reference_candidate(cluster)]
    config = OptimizerConfig(**dataclasses.asdict(scenario.cost))
    if not switches.momentum_weights:
        config = dataclasses.replace(config, accel_weight=0.0, terminal_weight=0.0)
    ctx = PlanningContext(path, scenario.assistive, scenario.interaction,
                          tuple(scenario.agents), scenario.uncertainty.baseline_trace)
    costs, reports, refined, gradients = [], [], [], []
    for i, cand in enumerate(cluster.candidates):
        costs.append(total_cost(cand, ctx, reference, config).hex())
        r = check_candidate(cand, path, scenario.limits)
        margins = {str(c): float(m).hex() for c, m in r.worst_margins.items()}
        reports.append([r.feasible, sorted(map(str, r.violations)), margins, list(r.notes)])
        if i % REFINE_EVERY == 0:
            out = optimize_trajectory(cand, ctx, reference, config)
            samples = b"".join(a.tobytes() for a in (out.times, out.states, out.jerk_lon,
                                                     out.jerk_lat))
            refined.append([_sha(samples), [c.hex() for c in out.cost_history]])
            gradients.append([g.hex() for g in cost_gradient(cand, ctx, config).ravel().tolist()])
    return {"total_cost": costs, "check_candidate": reports, "optimize_trajectory": refined,
            "cost_gradient": gradients}


def lib_digests() -> dict:
    out = {}
    for name, builder in BUILDERS.items():
        for mode, switches in MODES.items():
            for seed in LIB_SEEDS:
                case = f"lib/{name}/{mode}/{seed}"
                try:
                    texts = _lib_texts(builder(seed=seed), switches)
                except Exception as err:
                    out[f"{case}/error"] = _sha(f"{type(err).__name__}: {err}".encode())
                    continue
                for function, text in texts.items():
                    out[f"{case}/{function}"] = _sha(json.dumps(text).encode())
    return out


def path_digests() -> dict:
    out = {}
    for name, builder in BUILDERS.items():
        text = (ROOT / "scenarios" / f"{name}.json").read_text()
        sources = {"builder": builder(seed=0).waypoints, "file": json.loads(text)["waypoints"]}
        for source, waypoints in sources.items():
            path = build_reference_path(waypoints)
            for field in ("arc_length_knots", "_cx", "_cy"):
                out[f"paths/{name}/{source}/{field}"] = _sha(_field_bytes(getattr(path, field)))
    return out


def _command_digests(case: str, argv: list, out_dir: Path) -> dict:
    """Digests of the files a CLI command writes to ``out_dir`` (all but the
    manifest, which holds a wall time), and of its exit if nonzero."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(out_dir)])
    out = {}
    if code != 0:
        text = f"{code}\n{err.getvalue()}".replace(str(out_dir), "OUT")
        out[f"{case}/exit"] = _sha(text.encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            if path.name != "manifest.json":
                out[f"{case}/{path.name}"] = _sha(path.read_bytes())
    return out


def cli_digests(tmp: Path) -> dict:
    out = {}
    for name in BUILDERS:
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        for mode in MODES:
            for seed in FILE_SEEDS:
                case = f"files/{name}/{mode}/{seed}"
                argv = ["run", scenario, "--seed", str(seed), "--mode", mode]
                out.update(_command_digests(case, argv, tmp / case))
            for dump in DUMPS:
                case = f"cluster/{name}/{mode}/{dump}"
                argv = ["cluster", scenario, "--dump", dump, "--mode", mode]
                out.update(_command_digests(case, argv, tmp / case))
    return out


def write(path: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            **run_digests(), **cli_digests(Path(tmp)), **cluster_digests(), **lib_digests(),
            **path_digests(),
        }
    payload = {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "digests": digests,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests of {payload['commit']} to {path}")
    return 0


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    print(f"A: {path_a} at {a['commit']}")
    print(f"B: {path_b} at {b['commit']}")
    for key in ("python", "numpy", "scipy"):
        if a[key] != b[key]:
            print(f"warning: {key} {a[key]} vs {b[key]}; digests may differ for that alone")
    da, db = a["digests"], b["digests"]
    groups = defaultdict(list)
    for case in sorted(da.keys() | db.keys()):
        if da.get(case) != db.get(case):
            side = " (only in B)" if case not in da else " (only in A)" if case not in db else ""
            groups["/".join(case.split("/")[:3])].append(case + side)
    for group, cases in sorted(groups.items()):
        print(f"{group}: {len(cases)} differ")
        for case in cases:
            print(f"  {case}")
    n_differ = sum(map(len, groups.values()))
    print(f"{len(da.keys() | db.keys())} cases compared, {n_differ} differ")
    return 1 if n_differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="FILE", type=Path)
    action.add_argument("--compare", metavar=("A", "B"), nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.write is not None:
        return write(args.write)
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
