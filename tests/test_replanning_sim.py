import json
import re

import numpy as np
import pytest
from dataclasses import replace

from frenetplan.errors import NoFeasibleCandidate, PlannerError, ScenarioInvalid
from frenetplan import endpoint_regulation, quintic_sampling, replanning_sim
from frenetplan.evaluation import FeasibilityReport, KinematicLimits, check_candidate
from frenetplan.frenet_geometry import FrenetState, ReferencePath, build_reference_path
from frenetplan.quintic_sampling import SamplingGrid
from frenetplan.replanning_sim import (
    MODES,
    ModeSwitches,
    Scenario,
    plan_cycle,
    run,
    select_candidate,
    validate_scenario_dict,
)
from frenetplan.scenarios import BUILDERS, curved_bumps, narrow_oncoming, straight_crossing

from conftest import make_candidate


def pace_scenario(n_cycles=8):
    """Agent-free straight corridor with a symmetric fixed grid around the
    target pace."""
    scn = straight_crossing(seed=0, n_cycles=n_cycles)
    scn.agents = []
    scn.grid = SamplingGrid(
        terminal_speeds=(0.7, 1.0, 1.3),
        lateral_offsets=(-0.6, -0.2, 0.2, 0.6),
        horizons=(2.0, 3.0),
        dt=0.05,
        cycle_jitter=0.0,
    )
    scn.assistive = replace(scn.assistive, bumps=())
    return scn


def test_scenario_dict_roundtrip():
    scn = straight_crossing(seed=3)
    data = scn.to_dict()
    again = Scenario.from_dict(data).to_dict()
    assert json.dumps(data, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_build_path_reuses_the_validation_fit_while_waypoints_are_unchanged():
    data = straight_crossing(seed=0).to_dict()
    scn = Scenario.from_dict(data)
    path = scn.build_path()
    assert scn.build_path() is path
    s = np.linspace(0.0, path.total_length, 97)
    fresh = build_reference_path(data["waypoints"])
    assert np.array_equal(path.arc_length_knots, fresh.arc_length_knots)
    assert np.array_equal(path.position(s), fresh.position(s))
    # a changed waypoint, in place or by assignment, is fitted anew
    scn.waypoints[2, 1] += 0.3
    moved = scn.build_path()
    assert moved is not path
    assert np.array_equal(moved.position(s), build_reference_path(scn.waypoints).position(s))
    assert not np.array_equal(moved.position(s), path.position(s))
    scn.waypoints = np.asarray(data["waypoints"], dtype=float) * 2.0
    assert scn.build_path().total_length > 1.9 * path.total_length
    # and a scenario built directly fits on every call
    built = straight_crossing(seed=0)
    assert built.build_path() is not built.build_path()


def test_scenario_validation_catches_violations():
    data = straight_crossing(seed=0).to_dict()
    assert validate_scenario_dict(data) == []
    bad = json.loads(json.dumps(data))
    bad["regulation"]["max_gap"] = 0.01
    messages = validate_scenario_dict(bad)
    assert any("regulation.max_gap" in m for m in messages)
    bad = json.loads(json.dumps(data))
    bad["sim"]["commit_horizon"] = 5.0
    assert any("commit_horizon" in m for m in validate_scenario_dict(bad))
    with pytest.raises(ScenarioInvalid):
        Scenario.from_dict({"schema_version": 1})


def _fake_report(feasible):
    return FeasibilityReport(feasible=feasible, violations=frozenset(),
                             worst_margins={})


def test_select_candidate_rules():
    cands = [make_candidate() for _ in range(3)]
    for cand, cost in zip(cands, (3.0, 2.0, 4.0)):
        cand.cost = cost
    reports = [_fake_report(True)] * 3
    assert select_candidate(cands, reports) == 1
    cands[0].cost = 2.0  # exact tie with index 1 -> smaller index wins
    assert select_candidate(cands, reports) == 0
    assert select_candidate(cands[:1], reports[:1]) == 0
    with pytest.raises(NoFeasibleCandidate):
        select_candidate(cands, [_fake_report(False)] * 3)


def test_zero_cycles_echoes_initial_state():
    scn = straight_crossing(seed=1, n_cycles=0)
    log = run(scn, "proposed")
    assert log.cycles == [] and log.splices == []
    assert np.array_equal(log.final_state.as_array(), scn.initial_state.as_array())


def test_run_is_deterministic():
    scn = narrow_oncoming(seed=2, n_cycles=3)
    a = json.dumps(run(scn, "proposed").to_dict())
    b = json.dumps(run(scn, "proposed").to_dict())
    assert a == b


def test_splice_continuity():
    scn = straight_crossing(seed=4, n_cycles=5)
    log = run(scn, "proposed")
    assert len(log.splices) == 4
    for splice in log.splices:
        assert splice["position_gap"] == 0.0
        assert splice["velocity_gap"] == 0.0
        assert splice["acceleration_gap"] <= 1e-9


def test_splice_gap_measures_the_executed_trace(monkeypatch):
    # a sampler that moves every candidate's first sample off the cycle's
    # initial state must show up as a position gap at every splice
    build = quintic_sampling.build_rows

    def shifted(*args):
        rows, index = build(*args)
        rows.states[rows.starts, 0] += 1e-4
        return rows, index

    # the grid and the spacing-repair insertions each call the builder
    monkeypatch.setattr(quintic_sampling, "build_rows", shifted)
    monkeypatch.setattr(endpoint_regulation, "build_rows", shifted)
    log = run(straight_crossing(seed=4, n_cycles=3), "proposed")
    assert len(log.splices) == 2
    for splice in log.splices:
        assert splice["position_gap"] == pytest.approx(1e-4, rel=1e-6)


def test_run_rejects_a_commit_horizon_beyond_the_shortest_horizon():
    scn = straight_crossing(seed=0, n_cycles=2)
    assert min(scn.grid.horizons) == 2.0
    scn.sim = replace(scn.sim, commit_horizon=2.5)
    with pytest.raises(ScenarioInvalid) as err:
        run(scn, "proposed")
    assert err.value.violations == [
        "sim.commit_horizon: must not exceed the shortest grid horizon"
    ]


def test_agents_advance_exactly():
    scn = narrow_oncoming(seed=5, n_cycles=4)
    log = run(scn, "baseline")
    period = scn.sim.commit_horizon
    for rec in log.cycles:
        for agent, nb in zip(rec.agent_positions, scn.agents):
            expected = nb.position + rec.cycle * period * nb.velocity
            assert np.array_equal(np.asarray(agent), expected)


def test_progress_in_empty_straight_scenario():
    log = run(pace_scenario(), "proposed")
    s_values = np.concatenate([rec.states[:, 0] for rec in log.cycles])
    assert np.all(np.diff(s_values) >= -1e-12)
    assert log.cycles[-1].states[-1, 0] > log.cycles[0].states[0, 0]


def test_executed_pace_converges_to_target():
    # regulation pulls selection toward the grid median, anchored at the
    # assistive target pace
    log = run(pace_scenario(), "proposed")
    speeds = [float(np.mean(rec.states[:, 1])) for rec in log.cycles]
    assert abs(speeds[4] - 1.0) <= 0.05
    assert abs(speeds[-1] - 1.0) <= 0.05


def test_mode_contract_equalized_switches():
    scn = curved_bumps(seed=1, n_cycles=3)
    explicit = run(scn, ModeSwitches(regulate=False, momentum_weights=False))
    named = run(scn, "baseline")
    assert json.dumps(explicit.to_dict()) == json.dumps(named.to_dict())
    assert explicit.mode == "baseline"
    assert run(scn, MODES["proposed"]).mode == "proposed"
    assert ModeSwitches() == MODES["proposed"]
    assert ModeSwitches(regulate=True, momentum_weights=False).label == "custom(regulate)"


def test_proposed_mode_does_not_refine(monkeypatch):
    seen = []

    def spy(candidate, path, limits, peaks=None):
        seen.append(candidate)
        return check_candidate(candidate, path, limits, peaks)

    monkeypatch.setattr(replanning_sim, "check_candidate", spy)
    run(straight_crossing(seed=0, n_cycles=2), "proposed")
    assert seen and not any(c.optimized for c in seen)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("builder", [straight_crossing, curved_bumps], ids=["s1", "s2"])
def test_one_path_frame_per_cycle_and_one_check_per_candidate(monkeypatch, builder, mode):
    # costing (with agents, s1, or without, s2) and classification read one
    # frame of the cluster's samples; the per-candidate check divides by limits
    scn = builder(seed=3, n_cycles=3)
    assert bool(scn.agents) == (builder is straight_crossing)
    frames, checks = [], []
    frame = ReferencePath.frame
    monkeypatch.setattr(ReferencePath, "frame",
                        lambda path, s: frames.append(np.shape(s)) or frame(path, s))
    monkeypatch.setattr(replanning_sim, "check_candidate",
                        lambda *args: checks.append(args[0]) or check_candidate(*args))
    log = run(scn, mode)
    assert len(frames) == len(log.cycles) == 3
    assert len(checks) == sum(c.n_candidates for c in log.cycles)
    # each cycle's one frame covers the samples of all of its candidates
    bounds = np.cumsum([0] + [c.n_candidates for c in log.cycles]).tolist()
    samples = [sum(len(c.times) for c in checks[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert frames == [(n,) for n in samples]


# s1 variants on which refinement turned every candidate of a cycle infeasible
# (NoFeasibleCandidate at cycle 3 or 4); the unrefined pipeline completes them.
@pytest.mark.parametrize("seed", [2041105244, 1156579489, 263207427, 554293607])
def test_proposed_completes_found_refinement_failures(seed):
    log = run(straight_crossing(seed=seed, n_cycles=5), "proposed")
    assert len(log.cycles) == 5


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(BUILDERS))
def test_plan_cycle_replays_each_cycle_of_run(name, mode):
    for seed in (0, 1):
        scn = BUILDERS[name](seed=seed, n_cycles=3)
        path = scn.build_path()
        state = scn.initial_state
        cycles = run(scn, mode).cycles
        assert len(cycles) == 3
        for k, want in enumerate(cycles):
            record = plan_cycle(scn, path, MODES[mode], state, k)
            assert json.dumps(record.to_dict()) == json.dumps(want.to_dict())
            state = FrenetState.from_array(record.states[-1])


def test_plan_cycle_plans_from_a_hand_made_state():
    # a state off every run's trace, planned as the third cycle
    scn = narrow_oncoming(seed=0)
    state = FrenetState(3.217, 0.83, 0.11, -0.07, 0.04, -0.02)
    record = plan_cycle(scn, scn.build_path(), MODES["proposed"], state, 2)
    elapsed = 2 * scn.sim.commit_horizon
    assert record.cycle == 2
    assert record.states[0].tobytes() == state.as_array().tobytes()
    assert record.times[0] == elapsed
    assert len(record.agent_positions) == len(scn.agents) == 2
    for agent, nb in zip(record.agent_positions, scn.agents):
        assert np.array_equal(np.asarray(agent), nb.position + elapsed * nb.velocity)


def test_no_feasible_candidate_carries_partial_log():
    scn = straight_crossing(seed=0, n_cycles=3)
    scn.limits = KinematicLimits(v_max=0.05)
    with pytest.raises(NoFeasibleCandidate) as err:
        plan_cycle(scn, scn.build_path(), MODES["baseline"], scn.initial_state, 0)
    assert err.value.partial_log is None
    message = str(err.value)
    assert message.startswith("cycle 0: no feasible candidate (overall ratio ")
    # run() adds the log it had accumulated when the cycle failed
    with pytest.raises(NoFeasibleCandidate) as err:
        run(scn, "baseline")
    assert str(err.value) == message
    log = err.value.partial_log
    assert log is not None and log.cycles == []
    assert log.final_state.as_array().tobytes() == scn.initial_state.as_array().tobytes()


def test_non_finite_cost_is_an_error():
    # a mass that validates, but overflows the running cost of some candidates
    scn = straight_crossing(seed=0, n_cycles=2)
    scn.cost = replace(scn.cost, mass=1.3e308)
    for mode in MODES:
        with np.errstate(over="ignore"), pytest.raises(PlannerError) as err:
            run(scn, mode)
        assert type(err.value) is PlannerError
        assert re.fullmatch(
            r"cycle 0: candidate \d+ \(.+\) has non-finite cost (inf|-inf|nan)", str(err.value)
        )


def test_unknown_mode_rejected():
    scn = straight_crossing(seed=0, n_cycles=1)
    with pytest.raises(ValueError):
        run(scn, "turbo")
