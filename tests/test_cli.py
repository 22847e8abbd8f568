import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetplan import frenet_geometry, replanning_sim
from frenetplan.cli import _hist_edges, _json_text, main
from frenetplan.endpoint_regulation import select_reference_candidate, terminal_deviation
from frenetplan.errors import NoFeasibleCandidate
from frenetplan.momentum_optimizer import PlanningContext, cost_cluster
from frenetplan.replanning_sim import Scenario
from frenetplan.scenarios import BUILDERS, curved_bumps, straight_crossing
from frenetplan.schema import ListOf, problem

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "scenarios"


@pytest.fixture()
def scenario_file(tmp_path):
    def write(scenario, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(scenario.to_dict()) + "\n")
        return path
    return write


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def rounded(payload):
    """``payload`` read back from JSON with every float at nine significant
    digits, as the run outputs hold it."""
    return json.loads(json.dumps(payload), parse_float=lambda t: float(f"{float(t):.9g}"))


def test_bundled_scenarios_validate():
    for name in ("s1", "s2", "s3"):
        assert main(["validate", str(BUNDLED / f"{name}.json")]) == 0


def test_bundled_scenarios_match_builders():
    # byte for byte: the files are the builders' scenarios as the CLI writes JSON
    for name, builder in BUILDERS.items():
        on_disk = (BUNDLED / f"{name}.json").read_text()
        assert on_disk == _json_text(builder(seed=0, n_cycles=8).to_dict()) + "\n"


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_bundled_file_is_its_scenario_written_back(name):
    text = (BUNDLED / f"{name}.json").read_text()
    scenario = Scenario.from_dict(json.loads(text))
    assert json.dumps(scenario.to_dict(), indent=2) + "\n" == text


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_reading_a_bundled_file_builds_each_section_once(monkeypatch, name):
    # s3 holds two agents: two Neighbor sections, each built once
    data = json.loads((BUNDLED / f"{name}.json").read_text())
    built, want = Counter(), Counter()
    for f in fields(Scenario):
        shape = f.metadata["shape"]
        section = shape.item if isinstance(shape, ListOf) else shape
        if not isinstance(section, type):
            continue
        want[section] = len(data.get(f.name, ())) if section is not shape else int(f.name in data)

        def spy(self, *args, _init=section.__init__, _section=section, **kwargs):
            built[_section] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(section, "__init__", spy)
    Scenario.from_dict(data)
    assert built == want


def _declared_keys(cls, prefix=""):
    """The scenario file keys that dataclass ``cls`` declares under
    ``prefix``, as the README schema table names them."""
    for f in fields(cls):
        if not f.init:
            continue
        shape, key = f.metadata.get("shape", "finite"), prefix + f.name
        section = shape.item if isinstance(shape, ListOf) else shape
        if not isinstance(section, type):
            yield key
        elif section is shape:
            yield from _declared_keys(section, key + ".")
        else:
            yield key
            yield from _declared_keys(section, key + "[].")


def _readme_schema_keys():
    text = (REPO / "README.md").read_text().split("## Scenario schema", 1)[1]
    keys = set()
    for line in text.split("\n## ", 1)[0].splitlines():
        if not line.startswith("| `"):
            continue
        for key in re.findall(r"`([^`]+)`", line.split("|")[1]):
            group = re.fullmatch(r"(.*)\{(.*)\}", key)
            if group:
                keys |= {group[1] + name.strip() for name in group[2].split(",")}
            else:
                keys.add(key)
    return keys


def test_readme_schema_table_lists_the_declared_keys():
    assert _readme_schema_keys() == {"schema_version", *_declared_keys(Scenario)}


def test_validate_rejects_bad_spacing(tmp_path, capsys):
    data = straight_crossing(seed=0).to_dict()
    data["regulation"]["max_gap"] = 0.001
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert "regulation.max_gap" in capsys.readouterr().out


REMOVED = object()

# Single-field edits of s1.json that each once crashed a command, passed
# validate and then failed run, or ran on an invalid value.
MALFORMED = [
    (("limits", "v_max"), "fast"),
    (("initial_state", "s"), None),
    (("grid", "horizons"), 2.0),
    (("limits",), [1, 2]),
    (("grid", "horizons"), [1e308]),
    (("sim", "commit_horizon"), 1e308),
    (("assistive", "target_speed"), REMOVED),
    (("assistive", "speed_gain"), REMOVED),
    (("assistive", "centering_gain"), REMOVED),
    (("assistive", "damping_gain"), REMOVED),
    (("agents", 0, "velocity"), REMOVED),
    (("sim", "n_cycles"), 2.5),
    (("sim", "n_cycles"), math.nan),
    (("sim", "seed"), 1.5),
    (("cost", "unexpected"), 1.0),
    (("sim", "seed"), "x"),
    (("agents", 0, "position"), [6.0, -2.5, 0.0]),
    (("agents", 0, "covariance_trace"), -1),
    (("uncertainty", "baseline_trace"), math.nan),
    (("assistive", "max_force"), math.inf),
    (("interaction", "cutoff"), math.nan),
    (("cost", "terminal_weight"), math.nan),
    (("limits", "v_max"), True),
    (("unexpected",), 1.0),
    (("grid", "terminal_speeds"), [math.nan]),
    (("waypoints", 3, 1), 1e200),
    (("waypoints", 3, 1), 1e308),
    (("grid", "lateral_offsets", 0), 1e200),
    (("assistive", "bumps", 0, 1), 1e308),
    (("agents", 0, "velocity", 0), 1e308),
    (("waypoints",), [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
]

# The keys that schema 2 removed, at their schema 1 values in s1-s3; the
# first of the weights became schema 2's regulation.speed_weight.
SCHEMA_1_KEYS = {
    ("regulation", "weights"): [2.0, 0.5, 1.0, 0.5],
    ("cost", "dt"): 0.05,
    ("cost", "max_iters"): 16,
    ("cost", "armijo_c"): 0.0001,
    ("cost", "step_shrink"): 0.5,
    ("cost", "grad_tol"): 1e-06,
    ("sim", "cycle_period"): 1.0,
}


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _bundled(name):
    data = json.loads((BUNDLED / f"{name}.json").read_text())
    data["sim"]["n_cycles"] = 1
    return data


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _set(data, path, value):
    parent = _parent(data, path)
    if value is REMOVED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _commands(path, out):
    return (["validate", str(path)], ["run", str(path), "--out", str(out)],
            ["cluster", str(path), "--out", str(out)])


@pytest.mark.parametrize(
    "path,value", MALFORMED,
    ids=[f"{_dotted(p)}={'removed' if v is REMOVED else v!r}" for p, v in MALFORMED],
)
def test_malformed_field_exits_two_naming_it(tmp_path, capsys, path, value):
    data = _bundled("s1")
    _set(data, path, value)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(data))
    for argv in _commands(scenario, tmp_path / "out"):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert _dotted(path) in captured.out + captured.err, argv[0]


def test_waypoints_at_one_knot_exit_two_naming_the_pair(tmp_path, capsys):
    # 2e-12 apart, so not a duplicate, but 1e6 + 2e-12 rounds to 1e6
    data = _bundled("s1")
    data["waypoints"] = [[0, 0], [1e6, 0], [1e6, 2e-12], [1e6, 1], [1e6, 2]]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(data))
    for argv in _commands(scenario, tmp_path / "out"):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert "waypoints: waypoints 1 and 2 coincide" in captured.out + captured.err, argv[0]


def _entry_by_entry(item, values):
    """The first violation of ``values`` as a walk over its entries words it."""
    for i, value in enumerate(values):
        why = problem(item, value)
        if why:
            return f"[{i}]{why}"
    return None


def _replaced(values, index, value):
    values = [list(v) if isinstance(v, list) else v for v in values]
    if isinstance(index, tuple):
        values[index[0]][index[1]] = value
    else:
        values[index] = value
    return values


WAYPOINTS = _bundled("s1")["waypoints"]
MALFORMED_WAYPOINTS = {
    "string coordinate": _replaced(WAYPOINTS, (3, 1), "x"),
    "1e7": _replaced(WAYPOINTS, (5, 0), 1e7),
    "three-entry point": _replaced(WAYPOINTS, 2, [1.0, 2.0, 3.0]),
    "true coordinate": _replaced(WAYPOINTS, (4, 0), True),
    "true point": _replaced(WAYPOINTS, 4, True),
    "two violations": _replaced(_replaced(WAYPOINTS, (40, 1), -1e7), 7, [0.0]),
    "too few points": WAYPOINTS[:3],
}


@pytest.mark.parametrize("case", list(MALFORMED_WAYPOINTS))
def test_malformed_waypoints_are_worded_as_the_entry_walk_words_them(case):
    # valid waypoint lists are checked in one pass over their values; an
    # invalid one must still get the entry-by-entry walk's text
    values = MALFORMED_WAYPOINTS[case]
    shape = ListOf(("bounded", "bounded"), 4)
    want = (": must have at least 4 entries" if len(values) < 4
            else _entry_by_entry(shape.item, values))
    assert want is not None
    assert problem(shape, values) == want
    data = _bundled("s1")
    data["waypoints"] = values
    assert replanning_sim.validate_scenario_dict(data) == [f"waypoints{want}"]
    assert problem(shape, WAYPOINTS) is None


def _with_speed_weight(data):
    """s1-s3's schema 3 ``cost.terminal_weight`` of 8.0 split back into the
    schema 2 pair: terminal_weight 2.0 and regulation.speed_weight 2.0."""
    data["cost"]["terminal_weight"] = 2.0
    data["regulation"]["speed_weight"] = 2.0
    return data


def _schema_2(data):
    """The schema 2 file of a schema 3 scenario."""
    data = _with_speed_weight(data)
    data["schema_version"] = 2
    return data


def _schema_1(data):
    """The schema 1 file of a schema 3 scenario."""
    data = _schema_2(data)
    data["schema_version"] = 1
    for path, value in SCHEMA_1_KEYS.items():
        _set(data, path, value)
    del data["regulation"]["speed_weight"]
    data["optimizer"] = data.pop("cost")
    return data


def test_schema_1_file_exits_two(tmp_path, capsys):
    files = {
        "v1.json": (_schema_1, "schema_version: expected 3"),
        "v2.json": (_schema_2, "schema_version: expected 3"),
        "v3_speed_weight.json": (_with_speed_weight, "regulation.speed_weight: unknown key"),
    }
    for name, (make, message) in files.items():
        scenario = tmp_path / name
        scenario.write_text(json.dumps(make(_bundled("s1"))))
        for argv in _commands(scenario, tmp_path / "out"):
            assert main(argv) == 2, (name, argv[0])
            captured = capsys.readouterr()
            assert message in captured.out + captured.err, (name, argv[0])


@pytest.mark.parametrize(
    "path,value", list(SCHEMA_1_KEYS.items()), ids=[_dotted(p) for p in SCHEMA_1_KEYS]
)
def test_removed_key_is_unknown(tmp_path, capsys, path, value):
    data = _bundled("s1")
    _set(data, path, value)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(data))
    for argv in _commands(scenario, tmp_path / "out"):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert f"{_dotted(path)}: unknown key" in captured.out + captured.err, argv[0]


def _field_paths(node, prefix=()):
    """Every key of a scenario, at any depth, entering objects inside lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, dict):
                yield from _field_paths(value, prefix + (i,))


def _mutated(value, kind):
    if kind == "swap":
        return (value[0] if value else 0) if isinstance(value, list) else [value]
    return {
        "wrong type": 1.0 if isinstance(value, str) else "x",
        "null": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "1e308": 1e308, "0": 0, "-1": -1, "removed": REMOVED,
    }[kind]


ENTRY_MUTATIONS = ("wrong type", "null", "nan", "inf", "-inf", "1e308", "0", "-1",
                   "swap", "removed")
MUTATIONS = ENTRY_MUTATIONS + ("unknown key",)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_single_field_mutation_never_raises(tmp_path_factory, data):
    scenario = _bundled(data.draw(st.sampled_from(sorted(BUILDERS)), label="scenario"))
    path = data.draw(st.sampled_from(list(_field_paths(scenario))), label="field")
    value = _parent(scenario, path)[path[-1]]
    # a list entry, at any depth, in place of the whole key
    while isinstance(value, list) and value and data.draw(st.booleans(), label="entry"):
        i = data.draw(st.integers(0, len(value) - 1), label="index")
        path, value = path + (i,), value[i]
    menu = MUTATIONS if isinstance(path[-1], str) else ENTRY_MUTATIONS
    kind = data.draw(st.sampled_from(menu), label="mutation")
    if kind == "unknown key":
        _set(scenario, path[:-1] + ("unexpected",), 1.0)
    else:
        _set(scenario, path, _mutated(value, kind))
    tmp = tmp_path_factory.mktemp("mutation")
    (tmp / "s.json").write_text(json.dumps(scenario))
    validated, ran, dumped = (main(argv) for argv in _commands(tmp / "s.json", tmp / "out"))
    assert validated in (0, 2) and ran in (0, 1, 2) and dumped in (0, 1, 2)
    assert (validated == 2) == (ran == 2) == (dumped == 2)


def test_validate_reports_json_error_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "oops"\n}\n')
    assert main(["validate", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "cluster"])
def test_deeply_nested_json_is_malformed(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = [command, str(path)] + ([] if command == "validate" else ["--out", str(tmp_path)])
    assert main(argv) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["null", "[]", "0"])
@pytest.mark.parametrize("command", ["validate", "run", "cluster"])
def test_json_that_is_not_an_object_is_a_schema_error(tmp_path, capsys, command, text):
    path = tmp_path / "scenario.json"
    path.write_text(text + "\n")
    argv = [command, str(path)] + ([] if command == "validate" else ["--out", str(tmp_path)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "scenario: top level must be a JSON object" in captured.out + captured.err


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "no/such/file.json"]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "cluster"])
def test_command_fits_the_reference_path_once(tmp_path, command):
    # a fit is a miss of the process's path cache, counted from empty
    fits = frenet_geometry._cached_fit
    fits.cache_clear()
    out = tmp_path / "out"
    assert main([command, str(BUNDLED / "s1.json"), "--mode", "baseline", "--out", str(out)]) == 0
    assert fits.cache_info().misses == 1


# Runs the CLI with every scipy import refused, then checks none got in.
_WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} imported at run time")


sys.meta_path.insert(0, RefuseScipy())
from frenetplan.cli import main

scenario, out = sys.argv[1:]
assert main(["validate", scenario]) == 0
assert main(["run", scenario, "--mode", "baseline", "--out", out]) == 0
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
"""


def test_commands_run_without_scipy(tmp_path):
    data = json.loads((BUNDLED / "s1.json").read_text())
    data["sim"]["n_cycles"] = 2
    scenario = tmp_path / "s1.json"
    scenario.write_text(json.dumps(data))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(scenario), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "simlog.json").is_file()


def test_run_writes_all_outputs(tmp_path, scenario_file):
    scn = straight_crossing(seed=1, n_cycles=3)
    path = scenario_file(scn)
    out = tmp_path / "out"
    assert main(["run", str(path), "--mode", "proposed", "--out", str(out)]) == 0
    names = {"simlog.json", "profiles.csv", "jerk_stats.csv",
             "endpoint_nn.csv", "feasibility.csv", "manifest.json"}
    assert {p.name for p in out.iterdir()} == names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert set(manifest["outputs"]) == names - {"manifest.json"}
    log = json.loads((out / "simlog.json").read_text())
    assert log["n_cycles"] == 3 and log["mode"] == "proposed"


def test_run_outputs_are_deterministic(tmp_path, scenario_file):
    scn = curved_bumps(seed=2, n_cycles=2)
    path = scenario_file(scn)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    for name in ("simlog.json", "profiles.csv", "jerk_stats.csv",
                 "endpoint_nn.csv", "feasibility.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_modes_show_dispersion_trend(tmp_path):
    # endpoint_nn std column lower for proposed on the bundled curved scenario
    out_p, out_b = tmp_path / "p", tmp_path / "b"
    s2 = str(BUNDLED / "s2.json")
    assert main(["run", s2, "--mode", "proposed", "--out", str(out_p)]) == 0
    assert main(["run", s2, "--mode", "baseline", "--out", str(out_b)]) == 0
    std_p = np.mean([float(r["nn_std"]) for r in read_csv(out_p / "endpoint_nn.csv")])
    std_b = np.mean([float(r["nn_std"]) for r in read_csv(out_b / "endpoint_nn.csv")])
    assert std_p < std_b


def test_run_infeasible_scenario_exits_one(tmp_path, scenario_file, capsys):
    # infeasible from cycle 0, and from cycle 1 after one recorded cycle
    for seed, v_max, recorded in ((0, 0.05, 0), (2, 1.0, 1)):
        scn = straight_crossing(seed=seed, n_cycles=2)
        scn.limits = type(scn.limits)(v_max=v_max)
        path = scenario_file(scn, f"infeasible-{seed}.json")
        out = tmp_path / f"out-{seed}"
        assert main(["run", str(path), "--mode", "baseline", "--out", str(out)]) == 1
        assert not (out / "manifest.json").exists()
        with pytest.raises(NoFeasibleCandidate) as failed:
            replanning_sim.run(scn, "baseline")
        partial = failed.value.partial_log.to_dict()
        assert len(partial["cycles"]) == recorded
        assert json.loads((out / "simlog.json").read_text()) == rounded(partial)


def test_a_failed_run_leaves_no_manifest_of_an_earlier_run(tmp_path, scenario_file):
    # the earlier manifest would mark the failed run's files a complete run
    scn = straight_crossing(seed=0, n_cycles=2)
    out = tmp_path / "out"
    assert main(["run", str(scenario_file(scn)), "--mode", "baseline", "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()
    scn.limits = type(scn.limits)(v_max=1e-3)
    path = scenario_file(scn, "infeasible.json")
    assert main(["run", str(path), "--mode", "baseline", "--out", str(out)]) == 1
    assert json.loads((out / "simlog.json").read_text())["cycles"] == []
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run", "cluster"])
def test_an_out_path_that_cannot_be_made_exits_two(tmp_path, command):
    data = json.loads((BUNDLED / "s1.json").read_text())
    data["sim"]["n_cycles"] = 1
    scenario = tmp_path / "s1.json"
    scenario.write_text(json.dumps(data))
    out = scenario / "sub"  # below a regular file
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "frenetplan.cli", command, str(scenario), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and str(out) in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_run_non_finite_cost_exits_one(tmp_path, scenario_file, capsys):
    scn = straight_crossing(seed=0, n_cycles=2)
    scn.cost = replace(scn.cost, mass=1.3e308)
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["run", str(scenario_file(scn)), "--out", str(out)]) == 1
    assert "has non-finite cost" in capsys.readouterr().err
    assert not out.exists()


def test_run_seed_override(tmp_path, scenario_file):
    scn = straight_crossing(seed=1, n_cycles=1)
    path = scenario_file(scn)
    out = tmp_path / "out"
    assert main(["run", str(path), "--seed", "42", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


def _written(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_a_grid_whose_every_triple_is_discarded_exits_one(tmp_path, capsys):
    # from rest toward negative speeds, with no jitter to clamp them
    data = _bundled("s1")
    data["grid"].update(terminal_speeds=[-5.0], cycle_jitter=0.0)
    data["initial_state"]["s_dot"] = 0.0
    path = _written(tmp_path, data)
    assert main(["cluster", str(path), "--out", str(tmp_path / "cluster")]) == 1
    assert capsys.readouterr().err == (
        "cluster generation failed: all grid triples were discarded\n"
    )
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: all grid triples were discarded\n"


def test_a_one_candidate_grid_runs_with_no_neighbour_distances(tmp_path):
    data = _bundled("s1")
    data["grid"].update(terminal_speeds=[1.0], lateral_offsets=[0.0], horizons=[2.0])
    data["sim"]["n_cycles"] = 3
    out = tmp_path / "out"
    assert main(["run", str(_written(tmp_path, data)), "--out", str(out)]) == 0
    cycles = json.loads((out / "simlog.json").read_text())["cycles"]
    assert len(cycles) == 3
    assert all(c["n_candidates"] == 1 and c["nn_stats"] is None for c in cycles)
    assert (out / "endpoint_nn.csv").read_text() == "cycle,count,nn_mean,nn_std,nn_min,nn_max\n"


def test_an_initial_offset_outside_the_tube_validates_but_does_not_run(tmp_path, capsys):
    # today's behaviour: validation does not fit the initial state to the
    # path, so the run names the tube but not the key
    data = _bundled("s2")
    data["initial_state"].update(s=12.0, d=5.5)
    path = _written(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: initial state outside the path validity tube\n"


def test_cluster_single_cell(tmp_path, scenario_file):
    from frenetplan.quintic_sampling import SamplingGrid

    scn = straight_crossing(seed=0, n_cycles=2)
    scn.grid = SamplingGrid((1.0,), (0.0,), (2.0,), 0.05)
    path = scenario_file(scn)
    out = tmp_path / "out"
    assert main(["cluster", str(path), "--dump", "endpoints", "--out", str(out)]) == 0
    rows = read_csv(out / "endpoints.csv")
    assert len(rows) == 1


def test_cluster_gap_column_bounded(tmp_path):
    out = tmp_path / "out"
    assert main(["cluster", str(BUNDLED / "s1.json"), "--out", str(out)]) == 0
    rows = read_csv(out / "endpoints.csv")
    gaps = [float(r["consecutive_gap"]) for r in rows[1:]]
    assert max(gaps) <= 0.7 + 1e-9
    assert (out / "nn_hist.csv").exists()


def test_cluster_full_dump(tmp_path):
    out = tmp_path / "out"
    assert main(["cluster", str(BUNDLED / "s3.json"), "--dump", "full", "--out", str(out)]) == 0
    rows = read_csv(out / "states.csv")
    assert {"candidate", "t", "s", "d", "jerk_lon"} <= set(rows[0])
    assert len(rows) > 100


def test_cluster_column_is_the_terminal_term_the_cost_adds(tmp_path):
    scn = replanning_sim.Scenario.from_dict(_bundled("s1"))
    path = scn.build_path()
    cluster = replanning_sim.cycle_cluster(scn, path, scn.initial_state, 0, True)
    index = select_reference_candidate(cluster)
    reference = cluster[index]
    term = terminal_deviation(cluster.terminals, reference, scn.cost.terminal_weight)
    assert term[index] == 0.0 and np.any(term > 0.0)
    # the first cycle's costs, as run() takes them
    ctx = PlanningContext(path, scn.assistive, scn.interaction, tuple(scn.agents),
                          scn.uncertainty.baseline_trace)
    full = cost_cluster(cluster.rows, ctx, reference, scn.cost)
    zero = cost_cluster(cluster.rows, ctx, reference,
                        replace(scn.cost, terminal_weight=0.0))
    assert [c.hex() for c in full] == [float(z + t).hex() for z, t in zip(zero, term)]

    for mode, want in (("proposed", [f"{t:.9g}" for t in term]), ("baseline", None)):
        out = tmp_path / mode
        assert main(["cluster", str(BUNDLED / "s1.json"), "--mode", mode,
                     "--out", str(out)]) == 0
        column = [r["regulation_energy"] for r in read_csv(out / "endpoints.csv")]
        assert column == (want or [""] * len(column)), mode


@pytest.mark.parametrize("mode", ["proposed", "baseline"])
@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_cluster_dumps_the_first_cycle_of_run(tmp_path, name, mode):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_bundled(name)))
    run_out, cluster_out = tmp_path / "run", tmp_path / "cluster"
    seed = str(_bundled(name)["sim"]["seed"])
    assert main(["run", str(path), "--mode", mode, "--seed", seed, "--out", str(run_out)]) == 0
    assert main(["cluster", str(path), "--mode", mode, "--out", str(cluster_out)]) == 0
    planned = json.loads((run_out / "simlog.json").read_text())["cycles"][0]["candidates"]
    dumped = read_csv(cluster_out / "endpoints.csv")
    assert len(dumped) == len(planned)
    # a candidate's key holds its terminal speed and offset
    for column, at in (("s_dot", 1), ("d", 2)):
        assert [float(r[column]) for r in dumped] == pytest.approx(
            [c["key"][at] for c in planned], abs=1e-6
        ), column


def entropy_of_hist(path):
    counts = np.array([float(r["count"]) for r in read_csv(path)])
    p = counts[counts > 0]
    p = p / p.sum()
    return float(-(p * np.log(p)).sum())


def test_cluster_regulation_raises_histogram_entropy(tmp_path):
    out_p, out_b = tmp_path / "p", tmp_path / "b"
    s2 = str(BUNDLED / "s2.json")
    assert main(["cluster", s2, "--mode", "proposed", "--out", str(out_p)]) == 0
    assert main(["cluster", s2, "--mode", "baseline", "--out", str(out_b)]) == 0
    assert entropy_of_hist(out_p / "nn_hist.csv") > entropy_of_hist(out_b / "nn_hist.csv")


@pytest.mark.parametrize("peak", [0.05000000000000001, 0.4000000000000001])
def test_nn_histogram_counts_the_largest_distance(peak):
    nearest = np.array([0.01, peak])
    counts, _ = np.histogram(nearest, bins=_hist_edges(peak))
    assert counts.sum() == len(nearest)


def test_nn_histogram_edges_are_kept_where_they_reached_the_peak():
    rng = np.random.default_rng(7)
    peaks = np.concatenate([rng.uniform(0.0, 3.0, 500), np.arange(0, 61) * 0.05])
    for peak in peaks:
        edges = np.arange(0.0, peak + 0.05, 0.05)
        if len(edges) >= 2 and edges[-1] >= peak:
            assert np.array_equal(_hist_edges(peak), edges), peak
        assert _hist_edges(peak)[-1] >= peak


def test_numeric_formatting_is_nine_significant_digits(tmp_path, scenario_file):
    scn = straight_crossing(seed=1, n_cycles=1)
    path = scenario_file(scn)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    with open(out / "profiles.csv") as fh:
        next(fh)
        for line in fh:
            for field in line.strip().split(",")[1:]:
                if field and "." in field:
                    digits = field.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
                    assert len(digits) <= 9
