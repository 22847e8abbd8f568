"""Command-line front end: scenario validation, closed-loop runs, and
cluster dumps with plot-ready CSV/JSON outputs.

Exit codes: 0 success, 1 domain failure (infeasible cycle, empty cluster),
2 usage or schema error, or an output directory that cannot be made. All
numeric output is locale-independent at nine significant digits; the run
manifest is written last so its presence marks a complete run, and a run
removes an earlier run's manifest before it writes its first file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import replace
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .endpoint_regulation import select_reference_candidate, terminal_deviation
from .errors import EmptyCluster, NoFeasibleCandidate, PlannerError, ScenarioInvalid
from .evaluation import CONSTRAINT_ORDER, abs_summary, nearest_distances
from .replanning_sim import (
    MODES,
    Scenario,
    SimLog,
    cycle_cluster,
    run,
    validate_scenario_dict,
)

_HIST_BIN = 0.05


def _float_texts(values) -> list:
    """Each value rounded to nine significant digits, spelled as
    ``json.dumps`` spells the rounded float; all formatted in one call."""
    texts = ("%.9g\0" * len(values) % tuple(values)).split("\0")
    texts.pop()
    # where %g writes a point and no exponent, its text is the shortest that
    # reads back as the rounded float, in the fixed notation repr uses there
    return [
        t if "." in t and "e" not in t else _NON_FINITE.get(t) or repr(float(t))
        for t in texts
    ]


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(value):
    """``value`` as the built-in type that ``_json_texts`` encodes it as:
    numpy scalars as Python ones, arrays and tuples as lists."""
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, np.ndarray):
        return list(value.tolist())
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_PLAIN = {float, int, bool, str, type(None), list, dict}


def _dict_format(keys: tuple, nl: str) -> str:
    """The %-format of a dict with these keys, to be filled with the texts
    of its values; the keys are spelled as ``json.dumps`` spells them
    (non-string keys unrounded)."""
    inner = nl + "  "
    items = []
    for key in keys:
        if not isinstance(key, str):
            if not (isinstance(key, (int, float)) or key is None):
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
            key = json.dumps(key)
        items.append(encode_basestring_ascii(key).replace("%", "%%") + ": %s")
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _json_texts(values: list, nl: str) -> list:
    """The text that ``json.dumps`` writes at an indent of 2 for each value,
    with its floats rounded to nine significant digits; ``nl`` is the line
    break and indent of the line that each value starts on.

    Values of one type are encoded together, and so are the items of a list
    of lists and each key's values in a list of dicts: the floats of a whole
    run log are formatted in a few batches.
    """
    if not values:
        return []
    kinds = set(map(type, values))
    if not kinds <= _PLAIN:
        values = [v if type(v) in _PLAIN else _plain(v) for v in values]
        kinds = set(map(type, values))
    if len(kinds) > 1:
        texts = [None] * len(values)
        for kind in kinds:
            at = [i for i, v in enumerate(values) if type(v) is kind]
            for i, text in zip(at, _json_texts([values[i] for i in at], nl)):
                texts[i] = text
        return texts
    kind = kinds.pop()
    if kind is float:
        return _float_texts(values)
    if kind is int:
        return list(map(str, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is bool:
        return ["true" if v else "false" for v in values]
    if kind is type(None):
        return ["null"] * len(values)
    inner = nl + "  "
    if kind is list:
        items = iter(_json_texts(list(chain.from_iterable(values)), inner))
        sep = "," + inner
        return [
            "[" + inner + sep.join(islice(items, len(v))) + nl + "]" if v else "[]"
            for v in values
        ]
    shapes = list(map(tuple, values))
    if shapes.count(shapes[0]) == len(shapes):
        return _dict_texts(values, shapes[0], nl)
    texts = [None] * len(values)
    groups = {}
    for i, keys in enumerate(shapes):
        groups.setdefault(keys, []).append(i)
    for keys, at in groups.items():
        for i, text in zip(at, _dict_texts([values[i] for i in at], keys, nl)):
            texts[i] = text
    return texts


def _dict_texts(rows: list, keys: tuple, nl: str) -> list:
    """``_json_texts`` of dicts that all have these keys, in this order."""
    if not keys:
        return ["{}"] * len(rows)
    inner = nl + "  "
    columns = [_json_texts(list(map(itemgetter(k), rows)), inner) for k in keys]
    if all(isinstance(k, str) for k in keys):
        fmt = _dict_format(keys, nl)
        return [fmt % cells for cells in zip(*columns)]
    # keys that compare equal, such as 1 and True, are spelled apart
    return [_dict_format(tuple(row), nl) % cells for row, cells in zip(rows, zip(*columns))]


def _json_text(obj) -> str:
    """The text that ``json.dumps`` writes at an indent of 2, with every
    float rounded to nine significant digits, and numpy scalars and arrays
    as Python ones."""
    return _json_texts([obj], "\n")[0]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_text(payload) + "\n")


def _row_format(types: tuple) -> str:
    """The CSV line format of a row whose cells have these types: ints and
    bools as integers, strings as they are, anything else as a float at
    nine significant digits."""
    return ",".join(
        "%d" if issubclass(t, (int, np.integer, np.bool_))
        else "%s" if issubclass(t, str)
        else "%.9g"
        for t in types
    )


def _write_csv(path: Path, header, rows) -> None:
    """The header and ``rows``, each run of rows whose cells share their
    types formatted in one ``%`` over the run's cells."""
    lines = [",".join(header)]
    formats = {}
    for types, run in groupby(rows, lambda row: tuple(map(type, row))):
        run = list(run)
        fmt = formats.get(types) or formats.setdefault(types, _row_format(types))
        lines.append("\n".join([fmt] * len(run)) % tuple(chain.from_iterable(run)))
    path.write_text("\n".join(lines) + "\n")


def _load_scenario(path_str: str):
    """The parsed JSON of a scenario file, which may be any JSON value, and
    its bytes; ValueError (exit 2) if the file is missing or not JSON."""
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"scenario file not found: {path}")
    raw = path.read_bytes()
    try:
        return json.loads(raw.decode("utf-8")), raw
    except json.JSONDecodeError as err:
        raise ValueError(
            f"malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None


def cmd_validate(args) -> int:
    data, _ = _load_scenario(args.scenario)
    violations = validate_scenario_dict(data)
    if violations:
        print(f"scenario invalid ({len(violations)} violation(s)):")
        for item in violations:
            print(f"  - {item}")
        return 2
    print(f"scenario ok: {data.get('name', 'unnamed')}")
    return 0


def _executed_series(log: SimLog):
    """Concatenated executed samples; drops the duplicated splice sample."""
    rows = []
    for rec in log.cycles:
        start = 1 if rec.cycle > 0 else 0
        samples = np.column_stack(
            (rec.times, rec.states[:, :3], rec.jerk_lon, rec.states[:, 3:], rec.jerk_lat)
        )
        rows.extend((rec.cycle, *sample) for sample in samples[start:].tolist())
    return rows


def _start_run_outputs(out_dir: Path) -> None:
    """Make ``out_dir`` and remove an earlier run's manifest there, which
    would mark this run's files, complete or not, a complete run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)


def write_run_outputs(log: SimLog, out_dir: Path) -> list:
    _start_run_outputs(out_dir)
    written = []

    _write_json(out_dir / "simlog.json", log.to_dict())
    written.append("simlog.json")

    _write_csv(
        out_dir / "profiles.csv",
        ("cycle", "t", "s", "s_dot", "s_ddot", "jerk_lon", "d", "d_dot", "d_ddot", "jerk_lat"),
        _executed_series(log),
    )
    written.append("profiles.csv")

    jerk_lon = np.concatenate([rec.jerk_lon for rec in log.cycles]) if log.cycles else np.array([])
    jerk_lat = np.concatenate([rec.jerk_lat for rec in log.cycles]) if log.cycles else np.array([])
    rows = []
    for axis, series in (("longitudinal", jerk_lon), ("lateral", jerk_lat)):
        rows.append((axis, *abs_summary(series)))
    _write_csv(out_dir / "jerk_stats.csv", ("axis", "median", "iqr", "rms", "peak"), rows)
    written.append("jerk_stats.csv")

    nn_rows = []
    for rec in log.cycles:
        if rec.nn_stats is None:
            continue
        nn = rec.nn_stats
        nn_rows.append((rec.cycle, nn.count, nn.nn_mean, nn.nn_std, nn.nn_min, nn.nn_max))
    _write_csv(
        out_dir / "endpoint_nn.csv",
        ("cycle", "count", "nn_mean", "nn_std", "nn_min", "nn_max"),
        nn_rows,
    )
    written.append("endpoint_nn.csv")

    margins = itemgetter(*CONSTRAINT_ORDER)
    feas_rows = [
        (
            rec.cycle,
            cand["index"],
            cand["feasible"],
            cand["cost"],
            ";".join(cand["violations"]),
            *margins(cand["margins"]),
        )
        for rec in log.cycles
        for cand in rec.candidates
    ]
    _write_csv(
        out_dir / "feasibility.csv",
        (
            "cycle",
            "candidate",
            "feasible",
            "cost",
            "violations",
            *(f"margin_{c}" for c in CONSTRAINT_ORDER),
        ),
        feas_rows,
    )
    written.append("feasibility.csv")
    return written


def cmd_run(args) -> int:
    data, raw = _load_scenario(args.scenario)
    scenario = Scenario.from_dict(data)
    if args.seed is not None:
        scenario.sim = replace(scenario.sim, seed=args.seed)

    out_dir = Path(args.out)
    started = time.perf_counter()
    try:
        log = run(scenario, mode=args.mode)
    except NoFeasibleCandidate as err:
        print(f"run failed: {err}", file=sys.stderr)
        if err.partial_log is not None:
            _start_run_outputs(out_dir)
            _write_json(out_dir / "simlog.json", err.partial_log.to_dict())
            print(f"partial log written to {out_dir / 'simlog.json'}", file=sys.stderr)
        return 1
    outputs = write_run_outputs(log, out_dir)

    manifest = {
        "tool": "frenetplan",
        "version": __version__,
        "scenario_path": str(args.scenario),
        "scenario_sha256": hashlib.sha256(raw).hexdigest(),
        "mode": log.mode,
        "seed": scenario.sim.seed,
        "outputs": outputs,
        "duration_s": time.perf_counter() - started,
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(outputs) + 1} files to {out_dir}")
    return 0


def _hist_edges(peak: float) -> np.ndarray:
    """Edges of ``_HIST_BIN``-wide bins from 0, the last one at least
    ``peak`` so that the histogram counts every value up to it."""
    edges = np.arange(0.0, peak + _HIST_BIN, _HIST_BIN)
    if len(edges) < 2:
        return np.array([0.0, _HIST_BIN])
    if edges[-1] < peak:  # the rounded stop fell short of one more edge
        edges = np.append(edges, len(edges) * _HIST_BIN)
    return edges


def cmd_cluster(args) -> int:
    data, _ = _load_scenario(args.scenario)
    scenario = Scenario.from_dict(data)
    switches = MODES[args.mode]
    try:
        cluster = cycle_cluster(
            scenario, scenario.build_path(), scenario.initial_state, 0, switches.regulate
        )
    except EmptyCluster as err:
        print(f"cluster generation failed: {err}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    terms = cluster.terminals

    if args.dump == "endpoints":
        # the terminal term the selection cost adds; without momentum weights none
        energy = [""] * len(cluster)
        if switches.momentum_weights:
            reference = cluster[select_reference_candidate(cluster)]
            energy = terminal_deviation(terms, reference, scenario.cost.terminal_weight)
        rows = []
        for i in range(len(cluster)):
            gap = 0.0 if i == 0 else float(np.linalg.norm(terms[i] - terms[i - 1]))
            rows.append((i, *terms[i], gap, energy[i]))
        _write_csv(
            out_dir / "endpoints.csv",
            ("index", "s", "s_dot", "s_ddot", "d", "d_dot", "d_ddot",
             "consecutive_gap", "regulation_energy"),
            rows,
        )
    else:
        # the cluster's blocks hold its rows back to back, in cluster order
        layout = cluster.rows
        candidate = np.repeat(np.arange(len(layout)), layout.ends - layout.starts)
        _write_csv(
            out_dir / "states.csv",
            ("candidate", "t", "s", "s_dot", "s_ddot", "d", "d_dot", "d_ddot",
             "jerk_lon", "jerk_lat"),
            zip(candidate.tolist(), layout.times.tolist(), *layout.states.T.tolist(),
                layout.jerk_lon.tolist(), layout.jerk_lat.tolist()),
        )

    if len(cluster) >= 2:
        nearest = nearest_distances(terms)
        counts, edges = np.histogram(nearest, bins=_hist_edges(nearest.max()))
        _write_csv(
            out_dir / "nn_hist.csv",
            ("bin_lo", "bin_hi", "count"),
            [(edges[i], edges[i + 1], int(counts[i])) for i in range(len(counts))],
        )
    print(f"cluster of {len(cluster)} candidates dumped to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frenetplan",
        description="Frenet-frame trajectory generation and replanning simulator",
    )
    parser.add_argument("--version", action="version", version=f"frenetplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario file against the schema")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="execute a closed-loop replanning run")
    p_run.add_argument("scenario")
    p_run.add_argument("--mode", choices=tuple(MODES), default="proposed")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cl = sub.add_parser("cluster", help="dump one planning cluster at the initial state")
    p_cl.add_argument("scenario")
    p_cl.add_argument("--dump", choices=("endpoints", "full"), default="endpoints")
    p_cl.add_argument("--mode", choices=tuple(MODES), default="proposed")
    p_cl.add_argument("--out", default="out", help="output directory")
    p_cl.set_defaults(func=cmd_cluster)
    return parser


# main's parser, built on its first call: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioInvalid as err:
        for item in err.violations:
            print(f"schema violation: {item}", file=sys.stderr)
        return 2
    except PlannerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:  # OSError: an output path that cannot be made
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
