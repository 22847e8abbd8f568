import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from frenetplan.errors import NoFeasibleCandidate, PlannerError, ScenarioInvalid
from frenetplan import endpoint_regulation, quintic_sampling, replanning_sim
from frenetplan.evaluation import FeasibilityReport, KinematicLimits, check_candidate
from frenetplan.frenet_geometry import FrenetState, ReferencePath, build_reference_path
from frenetplan.momentum_optimizer import Neighbor, cost_cluster
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


def test_build_path_shares_one_fit_while_waypoints_are_unchanged():
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
    # and a scenario built directly shares its route's fit
    built = straight_crossing(seed=0)
    assert built.build_path() is built.build_path()


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
    costs = [3.0, 2.0, 4.0]
    reports = [_fake_report(True)] * 3
    assert select_candidate(costs, reports) == 1
    costs[0] = 2.0  # exact tie with index 1 -> smaller index wins
    assert select_candidate(costs, reports) == 0
    assert select_candidate(costs[:1], reports[:1]) == 0
    with pytest.raises(NoFeasibleCandidate):
        select_candidate(costs, [_fake_report(False)] * 3)


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

    # the builder and the regulated cluster each lay out rows in one build
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
                        lambda path, s: frames.append(np.array(s)) or frame(path, s))
    monkeypatch.setattr(replanning_sim, "check_candidate",
                        lambda *args: checks.append(args[0]) or check_candidate(*args))
    log = run(scn, mode)
    assert len(frames) == len(log.cycles) == 3
    assert len(checks) == sum(c.n_candidates for c in log.cycles)
    # each cycle's one frame is at the distinct longitudinal samples of its
    # candidates: those of each distinct longitudinal quintic once, as the
    # candidates' rows hold them
    bounds = np.cumsum([0] + [c.n_candidates for c in log.cycles]).tolist()
    for s, (a, b) in zip(frames, zip(bounds, bounds[1:])):
        distinct = {(c.lon.tobytes(), c.horizon): c.states[:, 0] for c in checks[a:b]}
        assert len(distinct) < b - a
        want = np.concatenate(list(distinct.values()))
        assert np.sort(s).tobytes() == np.sort(want).tobytes()


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(BUILDERS))
def test_the_gathered_frame_is_the_frame_of_every_sample(monkeypatch, name, mode):
    # the frame of the distinct samples, gathered, is what one frame of the
    # cluster's every sample gives, in each component the kernels read
    frames = []
    for kernel in ("cost_cluster", "kinematic_peaks"):
        def spy(rows, *args, fn=getattr(replanning_sim, kernel)):
            frames.append((rows, args[-1]))
            return fn(rows, *args)
        monkeypatch.setattr(replanning_sim, kernel, spy)
    scn = BUILDERS[name](seed=0, n_cycles=3)
    path = scn.build_path()
    run(scn, mode)
    assert len(frames) == 2 * 3
    for rows, got in frames:
        (px, py), _, (tx, ty), (nx, ny), _ = path.frame(rows.s)
        (gx, gy), _, (gtx, gty), (gnx, gny), _ = got
        for a, b in ((gx, px), (gy, py), (gtx, tx), (gty, ty), (gnx, nx), (gny, ny)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("builder", [straight_crossing, curved_bumps], ids=["s1", "s2"])
def test_the_cycle_kernels_read_the_cycle_clusters_own_rows(monkeypatch, builder, mode):
    # costing (with agents, s1, or without, s2) and classification read the
    # cycle cluster's rows in place: no copy of its layout is made
    calls = {name: [] for name in ("cycle_cluster", "cost_cluster", "kinematic_peaks")}

    def spy(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name].append((args[0], out))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(replanning_sim, name, spy(name, getattr(replanning_sim, name)))
    scn = builder(seed=0, n_cycles=2)
    assert bool(scn.agents) == (builder is straight_crossing)
    run(scn, mode)
    clusters = [cluster for _, cluster in calls["cycle_cluster"]]
    assert len(clusters) == 2
    for kernel in ("cost_cluster", "kinematic_peaks"):
        rows = [arg for arg, _ in calls[kernel]]
        assert len(rows) == 2
        assert all(r is cluster.rows for r, cluster in zip(rows, clusters))


# --- metamorphic properties of the closed loop -----------------------------------

# a still agent far past the interaction cutoff, with no covariance
FAR_AGENT = Neighbor(np.array([1e4, 1e4]), np.array([0.0, 0.0]), 0.0)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(BUILDERS))
def test_an_agent_out_of_range_changes_no_record(name, mode):
    # it adds no force and no uncertainty: every record is bitwise that of
    # the scenario without agents, the agents' positions aside
    for seed in (0, 1, 2):
        scn = BUILDERS[name](seed=seed, n_cycles=3)
        scn.agents = []
        alone = run(scn, mode)
        scn.agents = [FAR_AGENT]
        far = run(scn, mode)
        assert len(far.cycles) == len(alone.cycles) == 3
        for a, b in zip(far.cycles, alone.cycles):
            a, b = a.to_dict(), b.to_dict()
            assert a.pop("agents") == [[1e4, 1e4]] and b.pop("agents") == []
            assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("mode", list(MODES))
def test_the_order_of_the_agents_keeps_every_selection(mode):
    # the force and the uncertainty sum over the agents: their order may
    # move the last bits of a cost, but no selection
    for seed in (0, 1, 2):
        scn = narrow_oncoming(seed=seed, n_cycles=3)
        assert len(scn.agents) == 2
        forward = run(scn, mode)
        scn.agents = scn.agents[::-1]
        backward = run(scn, mode)
        assert len(forward.cycles) == len(backward.cycles) == 3
        assert [(c.selected_index, c.selected_key) for c in backward.cycles] == [
            (c.selected_index, c.selected_key) for c in forward.cycles
        ]


# relative agreement asked of a rigidly moved scenario's costs and margins, and
# of the two best feasible costs for their selections to count as tied
RIGID_TOL = 1e-9


def rigidly_moved(scn, angle, shift):
    """``scn`` with its waypoints and agents rotated by ``angle`` about the
    origin, then shifted by ``shift``: the same scenario in another frame."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    scn.waypoints = scn.waypoints @ rot.T + shift
    scn.agents = [
        Neighbor(rot @ nb.position + shift, rot @ nb.velocity, nb.covariance_trace)
        for nb in scn.agents
    ]
    return scn


def best_two_tie(rows):
    """Whether the two best feasible costs of a cycle's candidates agree
    within ``RIGID_TOL``."""
    costs = sorted(r["cost"] for r in rows if r["feasible"])
    return len(costs) > 1 and math.isclose(costs[0], costs[1], rel_tol=RIGID_TOL)


def compare_rigidly_moved(seed, angle, shift, ties, margins):
    """Run s1-s3 at ``seed`` for 2 cycles in both modes, as built and
    rigidly moved, and assert that the moved runs keep every candidate's
    verdict and cost (and its margins, if ``margins``), the splices exactly,
    and each selection unless the best two feasible costs tie; ``ties`` gets
    (the best two tie, the selections differ) per compared cycle."""
    for name, builder in BUILDERS.items():
        for mode in MODES:
            here = run(builder(seed=seed, n_cycles=2), mode)
            there = run(rigidly_moved(builder(seed=seed, n_cycles=2), angle, shift), mode)
            assert len(here.cycles) == len(there.cycles) == 2
            for k, (a, b) in enumerate(zip(here.cycles, there.cycles)):
                assert len(a.candidates) == len(b.candidates)
                for x, y in zip(a.candidates, b.candidates):
                    assert x["key"] == y["key"] and x["feasible"] == y["feasible"]
                    assert math.isclose(x["cost"], y["cost"], rel_tol=RIGID_TOL)
                    for c, m in x["margins"].items() if margins else ():
                        assert math.isclose(m, y["margins"][c], rel_tol=RIGID_TOL), (
                            name, mode, k, x["index"], c.value, m, y["margins"][c])
                tie = best_two_tie(a.candidates)
                ties.append((tie, a.selected_index != b.selected_index))
                if a.selected_index != b.selected_index:
                    assert tie, (name, mode, k)
                    break  # the two runs go on from different states
                assert a.states.tobytes() == b.states.tobytes()
            else:
                assert here.splices == there.splices


RIGID_MOTIONS = dict(
    seed=st.integers(0, 2**31 - 1),
    angle=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
)


def test_a_rigid_motion_keeps_every_verdict_cost_and_selection():
    # the planner reads the scene through the path frame only: moved rigidly,
    # a scenario keeps its feasibility verdicts, its costs (to rounding) and
    # its splices exactly, and selects the same candidates unless the two
    # best feasible costs tie
    ties = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(**RIGID_MOTIONS)
    def kept(seed, angle, shift):
        compare_rigidly_moved(seed, angle, shift, ties, margins=False)

    kept()
    fired = [differ for tie, differ in ties if tie]
    print(f"rigid motion: {len(ties)} cycles compared; the best two costs tie in "
          f"{len(fired)}, and the selections differ in {sum(fired)}")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "classification takes finite differences of the absolute Cartesian trace, "
    "so its curvature-rate margins move by more than 1e-9 relative when the "
    "scene is shifted by tens of metres; classifying on exact kinematics "
    "would remove it"))
def test_a_rigid_motion_keeps_every_margin():
    # generated cases only: shrinking a known failure costs runs and shows
    # nothing new
    @settings(derandomize=True, database=None, deadline=None, max_examples=10,
              phases=[Phase.generate])
    @given(**RIGID_MOTIONS)
    def kept(seed, angle, shift):
        compare_rigidly_moved(seed, angle, shift, [], margins=True)

    kept()


# sample-length float arrays the cost stage may hold at once above what it is
# handed, with agents (s1, s3: their force) and without (s2); the heap the
# cost stage takes at its peak is what the allocator hands back and the next
# cycle faults in again
COST_ARRAYS = {"s1": 28, "s2": 15, "s3": 28}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_cost_stage_working_set(monkeypatch, name):
    peaks = []

    def traced(rows, *args):
        tracemalloc.start()
        try:
            return cost_cluster(rows, *args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * len(rows.times)))
            tracemalloc.stop()

    monkeypatch.setattr(replanning_sim, "cost_cluster", traced)
    for mode in MODES:
        for seed in range(3):
            scn = BUILDERS[name](seed=seed, n_cycles=5)
            assert bool(scn.agents) == (name != "s2")
            run(scn, mode)
    assert len(peaks) == len(MODES) * 3 * 5
    assert max(peaks) <= COST_ARRAYS[name], f"{max(peaks):.2f} arrays"


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
