"""Per-candidate stages outside refinement against the earlier implementations
kept in ``reference_kernels``: cluster costing and classification in one pass
over the candidates' samples laid back to back, sampling in one build of
two array solves and two passes over ragged sample axes (grid candidates
and spacing-repair insertions alike), the regulated cluster against the
library's sort and spacing repair of the generated one, the shared
gradient stencil and the finite-difference adjoints. Outputs and raised
exceptions must be bitwise identical, including on the branches the bundled
scenarios never reach (near-zero speed, dipping or ill-conditioned quintics, a
path too short, mixed horizons, the terminal regularizer, a coincident
neighbour, rows of every length and rows at rest at their ends).
"""

import dataclasses
import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
import schema2_regulation as schema2
from conftest import (
    active_context,
    circle_path,
    make_candidate,
    make_context,
    s_curve_path,
)
from frenetplan import endpoint_regulation, quintic_sampling
from frenetplan.endpoint_regulation import (
    RegulationConfig,
    enforce_spacing,
    regulated_cluster,
    select_reference_candidate,
    sort_by_terminal,
)
from frenetplan.errors import (
    CoincidentNeighbor,
    IllConditioned,
    PathTooShort,
    PlannerError,
)
from frenetplan.evaluation import (
    Constraint,
    KinematicLimits,
    check_candidate,
    kinematic_peaks,
)
from frenetplan.frenet_geometry import FrenetState
from frenetplan.momentum_optimizer import (
    Neighbor,
    OptimizerConfig,
    SampleRows,
    _fd_accel,
    _fd_accel_adjoint,
    _fd_velocity,
    _fd_velocity_adjoint,
    cost_cluster,
    fd_gradient,
    optimize_trajectory,
    total_cost,
)
from frenetplan.quintic_sampling import (
    CandidateSpec,
    RowEnds,
    SamplingGrid,
    TrajectoryCandidate,
    TrajectoryCluster,
    build_candidate,
    build_rows,
    eval_quintic,
    generate_cluster,
    solve_quintic,
)
from frenetplan.replanning_sim import MODES, cycle_cluster
from frenetplan.scenarios import BUILDERS

LIMITS = KinematicLimits()
TIGHT = KinematicLimits(v_max=0.9, a_max=0.4, j_max=0.8, kappa_max=0.3,
                        yaw_rate_max=0.3, kappa_rate_max=0.5)
REG = RegulationConfig(max_gap=0.5, min_gap=0.02)


def assert_identical(new, old):
    """Equal shapes, values and signs of zero."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def assert_same_report(new, old):
    assert new.feasible == old.feasible
    assert new.violations == old.violations
    assert new.notes == old.notes
    assert list(new.worst_margins) == list(old.worst_margins)
    for key, value in old.worst_margins.items():
        assert float(new.worst_margins[key]).hex() == float(value).hex(), key


def assert_same_candidate(new, old):
    assert new.grid_key == old.grid_key
    assert new.horizon == old.horizon
    assert new.lat_span == old.lat_span
    for field in ("times", "states", "jerk_lon", "jerk_lat"):
        assert_identical(getattr(new, field), getattr(old, field))
    assert_identical(new.lon, old.lon)
    assert_identical(new.lat, old.lat)


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except PlannerError as err:
        return type(err), str(err)


def random_initial(rng):
    return FrenetState(
        s=float(rng.uniform(1.0, 3.0)),
        s_dot=float(rng.uniform(0.0, 1.5)),
        s_ddot=float(rng.uniform(-0.6, 0.6)),
        d=float(rng.uniform(-0.5, 0.5)),
        d_dot=float(rng.uniform(-0.3, 0.3)),
        d_ddot=float(rng.uniform(-0.3, 0.3)),
    )


def trace_candidate(s, d, dt, rng):
    """Candidate straight from position traces, with random rates and jerks."""
    n = len(s)
    states = np.column_stack([s, rng.normal(size=n), rng.normal(size=n),
                              d, rng.normal(size=n), rng.normal(size=n)])
    zero = np.zeros(6)
    return TrajectoryCandidate(
        lon=zero, lat=zero, lat_span=1.0, horizon=dt * (n - 1),
        times=np.linspace(0.0, dt * (n - 1), n), states=states,
        jerk_lon=rng.normal(size=n), jerk_lat=rng.normal(size=n),
    )


# --- shared stencil and adjoints -----------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 17, 41])
@pytest.mark.parametrize("h", [0.05, 0.1, 0.3])
def test_fd_gradient_matches_numpy_gradient(n, h):
    rng = np.random.default_rng(n)
    one_row = RowEnds.of([h], [0], [n])
    f = rng.normal(size=n) * rng.uniform(0.1, 50.0)
    assert_identical(fd_gradient(f, one_row), np.gradient(f, h, edge_order=2))
    # a strided column, as the candidate rebuild passes them
    states = rng.normal(size=(n, 6))
    assert_identical(fd_gradient(states[:, 2], one_row),
                     np.gradient(states[:, 2], h, edge_order=2))
    # a (k, n) stack of rows, laid back to back: row by row
    rows = rng.normal(size=(5, n)) * rng.uniform(0.1, 50.0, size=(5, 1))
    stacked = RowEnds.of([h] * 5, np.arange(5) * n, np.arange(1, 6) * n)
    grouped = fd_gradient(rows.ravel(), stacked).reshape(5, n)
    assert_identical(grouped, np.gradient(rows, h, axis=-1, edge_order=2))
    for row, values in zip(grouped, rows):
        assert_identical(row, fd_gradient(values, one_row))


# rows of 3-61 samples at steps of horizons over their sample counts, with a
# horizon snapped from its grid sum (2.65 over 53 steps) among them
STENCIL_ROWS = st.lists(
    st.tuples(st.integers(3, 61), st.floats(0.1, 5.0)), min_size=1, max_size=8
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(STENCIL_ROWS, st.integers(0, 2**32 - 1))
@example([(54, 2.6500000000000004), (3, 0.15), (61, 2.5), (4, 2.6500000000000004)], 0)
def test_stencils_over_rows_laid_back_to_back_match_each_row_alone(rows, seed):
    rng = np.random.default_rng(seed)
    counts = np.array([n for n, _ in rows])
    steps = [horizon / (n - 1) for n, horizon in rows]
    ends = np.cumsum(counts)
    starts = ends - counts
    values = rng.normal(size=ends[-1]) * rng.uniform(0.1, 50.0, size=ends[-1])
    stencils = ((_fd_velocity, ref._fd_velocity), (_fd_accel, ref._fd_accel),
                (fd_gradient, ref.fd_gradient))
    laid = [new(values, RowEnds.of(steps, starts, ends)) for new, _ in stencils]
    for a, b, h in zip(starts.tolist(), ends.tolist(), steps):
        row = values[a:b]
        for out, (new, old) in zip(laid, stencils):
            assert_identical(out[a:b], new(row, RowEnds.of([h], [0], [b - a])))
            assert_identical(out[a:b], old(row, h))
        assert_identical(laid[2][a:b], np.gradient(row, h, edge_order=2))


@pytest.mark.parametrize("shape", [(3,), (4,), (5,), (41,), (7, 41), (2, 3, 25)])
def test_fd_adjoints_match_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for h in (0.05, 0.1, 0.25):
        y = rng.normal(size=shape) * rng.uniform(0.01, 100.0)
        assert_identical(_fd_velocity_adjoint(y, h), ref._fd_velocity_adjoint(y, h))
        assert_identical(_fd_accel_adjoint(y, h), ref._fd_accel_adjoint(y, h))


# --- classification -------------------------------------------------------------

@pytest.mark.parametrize("limits", [LIMITS, TIGHT])
def test_check_candidate_matches_reference(limits):
    rng = np.random.default_rng(11)
    for path in (s_curve_path(), circle_path(4.0), circle_path(3.0, ccw=False)):
        for _ in range(12):
            initial = random_initial(rng)
            speed = float(rng.uniform(0.3, 1.8))
            horizon = float(rng.choice([1.0, 2.0, 2.5, 3.0]))
            terminal_s = initial.s + 0.5 * (initial.s_dot + speed) * horizon
            cand = build_candidate(initial, terminal_s, speed,
                                   float(rng.uniform(-0.8, 0.8)), horizon, 0.05)
            if cand is None:
                continue
            assert_same_report(check_candidate(cand, path, limits),
                               ref.check_candidate(cand, path, limits))


def test_check_candidate_matches_reference_with_some_samples_at_rest():
    rng = np.random.default_rng(5)
    path = s_curve_path()
    dt = 0.05
    # at rest for the first nine samples, then moving along a gentle arc
    t = np.arange(40) * dt
    move = np.clip(t - 0.4, 0.0, None)
    cand = trace_candidate(2.0 + 0.8 * move**2, 0.2 * move**3, dt, rng)
    new = check_candidate(cand, path, LIMITS)
    assert new.notes and "near-zero-speed" in new.notes[0]
    assert_same_report(new, ref.check_candidate(cand, path, LIMITS))


def test_check_candidate_matches_reference_with_no_rate_estimate():
    rng = np.random.default_rng(6)
    path = s_curve_path()
    dt = 0.05
    # one step between rests: only the two samples beside it move, so every
    # curvature-rate estimate touches a skipped sample
    s = np.where(np.arange(30) < 15, 3.0, 3.02)
    cand = trace_candidate(s, np.zeros(30), dt, rng)
    new = check_candidate(cand, path, LIMITS)
    assert "28 near-zero-speed" in new.notes[0]
    assert new.worst_margins[Constraint.CURVATURE_RATE] == 0.0
    assert_same_report(new, ref.check_candidate(cand, path, LIMITS))


def test_check_candidate_matches_reference_with_every_sample_at_rest():
    rng = np.random.default_rng(7)
    cand = trace_candidate(np.full(25, 4.0), np.full(25, 0.3), 0.05, rng)
    new = check_candidate(cand, s_curve_path(), LIMITS)
    assert "25 near-zero-speed" in new.notes[0]
    assert_same_report(new, ref.check_candidate(cand, s_curve_path(), LIMITS))


PATHS = (s_curve_path(), circle_path(4.0), circle_path(3.0, ccw=False))


def rest_candidate(initial, horizon, rest, gain, bend, step, seed):
    """A candidate on the sample times of a built ``horizon`` candidate, at
    rest for the first ``rest`` share of them (all of them from 1 on), then
    moving along an arc; with ``step``, one 2 cm step between two rests."""
    n = int(round(horizon / 0.05)) + 1
    t = np.linspace(0.0, horizon, n)
    if step:
        s = np.where(np.arange(n) < n // 2, initial.s, initial.s + 0.02)
        d = np.full(n, initial.d)
    else:
        move = np.clip(t - rest * horizon, 0.0, None)
        s = initial.s + gain * move**2
        d = initial.d + bend * move**3
    cand = trace_candidate(s, d, 0.05, np.random.default_rng(seed))
    cand.times = t
    cand.horizon = horizon
    return cand


member = st.one_of(
    st.tuples(
        st.just("built"),
        st.floats(0.0, 1.8),  # terminal speed
        st.floats(-0.9, 0.9),  # lateral offset
        st.sampled_from((1.0, 1.35, 2.0, 2.35, 2.5, 3.0)),  # horizon
        st.booleans(),  # inserted
    ),
    st.tuples(
        st.just("rest"),
        st.sampled_from((1.0, 2.0, 2.35, 3.0)),  # horizon
        st.floats(0.0, 1.2),  # share of the horizon at rest
        st.floats(0.0, 1.5),  # gain of s after the rest
        st.floats(-0.5, 0.5),  # bend of d after the rest
        st.booleans(),  # one step between rests
        st.integers(0, 2**16),  # seed of the stored rates and jerks
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    path=st.sampled_from(PATHS),
    limits=st.sampled_from((LIMITS, TIGHT)),
    initial=st.builds(
        FrenetState, st.floats(1.0, 3.0), st.floats(0.0, 1.5), st.floats(-0.6, 0.6),
        st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    ),
    members=st.lists(member, min_size=1, max_size=10),
)
def test_cluster_peaks_classify_like_reference(path, limits, initial, members):
    # mixed and interleaved horizons, one-candidate groups, and rows at rest
    # (partly, wholly, or all but one step) inside a group of moving ones
    cands = []
    for kind, *args in members:
        if kind == "rest":
            cands.append(rest_candidate(initial, *args))
            continue
        speed, offset, horizon, inserted = args
        terminal_s = initial.s + 0.5 * (initial.s_dot + speed) * horizon
        # None for a dipping pair, a tuple for an ill-conditioned span
        cand = outcome(build_candidate, initial, terminal_s, speed, offset, horizon, 0.05)
        if isinstance(cand, TrajectoryCandidate):
            cand.grid_key += ("inserted",) * inserted
            cands.append(cand)
    peaks = kinematic_peaks(SampleRows.of(cands), path)
    assert len(peaks) == len(cands)
    for cand, p in zip(cands, peaks):
        old = ref.check_candidate(cand, path, limits)
        assert_same_report(check_candidate(cand, path, limits, p), old)
        assert_same_report(check_candidate(cand, path, limits), old)


def test_regulated_cluster_peaks_classify_like_reference():
    path = s_curve_path()
    for initial, grid in regulation_cases():
        cands = regulated_cluster(initial, path, grid, REG).candidates
        assert any("inserted" in c.grid_key for c in cands)
        for limits in (LIMITS, TIGHT):
            for cand, p in zip(cands, kinematic_peaks(SampleRows.of(cands), path)):
                assert_same_report(check_candidate(cand, path, limits, p),
                                   ref.check_candidate(cand, path, limits))


# --- sampling --------------------------------------------------------------------

def test_generate_cluster_matches_reference():
    rng = np.random.default_rng(21)
    path = s_curve_path()
    for _ in range(10):
        grid = SamplingGrid(
            terminal_speeds=tuple(rng.uniform(0.2, 1.6, 3)),
            lateral_offsets=tuple(rng.uniform(-0.8, 0.8, 5)),
            horizons=(1.0, 2.0, 3.0),
            dt=0.05,
        )
        initial = random_initial(rng)
        old = outcome(ref.generate_cluster, initial, path, grid)
        if isinstance(old, tuple):
            assert outcome(generate_cluster, initial, path, grid) == old
            continue
        old = old.candidates
        new = generate_cluster(initial, path, grid).candidates
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert_same_candidate(a, b)
        # candidates own their sample times and longitudinal jerk
        for a, b in zip(new[:-1], new[1:]):
            assert not np.shares_memory(a.times, b.times)
            assert not np.shares_memory(a.jerk_lon, b.jerk_lon)


def test_generate_cluster_drops_every_offset_of_a_dipping_pair():
    path = s_curve_path()
    # braking from a crawl: over 3 s, s(t) dips on its way to 0.3 m/s but
    # not on its way to 1.5 m/s; over 1 s neither dips
    initial = FrenetState(2.0, 0.15, -1.0, 0.1, 0.0, 0.0)
    grid = SamplingGrid(terminal_speeds=(0.3, 1.5), lateral_offsets=(-0.4, 0.0, 0.4),
                        horizons=(1.0, 3.0), dt=0.05)
    old = ref.generate_cluster(initial, path, grid).candidates
    assert [c.grid_key[:2] for c in old[::3]] == [(1.0, 0.3), (1.0, 1.5), (3.0, 1.5)]
    new = generate_cluster(initial, path, grid).candidates
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert_same_candidate(a, b)


def test_sampling_raises_like_reference():
    path = s_curve_path()
    # lateral spans of 1-3 mm are ill-conditioned
    initial = FrenetState(2.0, 0.0, 0.0, 0.1, 0.0, 0.0)
    grid = SamplingGrid(terminal_speeds=(0.002,), lateral_offsets=(0.0, 0.2),
                        horizons=(1.0, 3.0), dt=0.05)
    old = outcome(ref.generate_cluster, initial, path, grid)
    assert old[0] is IllConditioned
    assert outcome(generate_cluster, initial, path, grid) == old
    # this pair also dips, and the lateral solve still raises first
    dipping = FrenetState(2.0, 0.1, -1.0, 0.1, 0.0, 0.0)
    terminal_s = 2.0 + 0.5 * (0.1 - 0.098) * 3.0
    lon = solve_quintic((2.0, 0.1, -1.0), (terminal_s, -0.098, 0.0), 3.0)
    s = eval_quintic(lon, np.linspace(0.0, 3.0, 61))[0]
    assert np.any(np.diff(s) < -1e-10)
    args = (dipping, terminal_s, -0.098, 0.2, 3.0, 0.05)
    old = outcome(ref.build_candidate, *args)
    assert old[0] is IllConditioned
    assert outcome(build_candidate, *args) == old
    grid = SamplingGrid(terminal_speeds=(-0.098, 0.3), lateral_offsets=(0.0, 0.2),
                        horizons=(3.0,), dt=0.05)
    old = outcome(ref.generate_cluster, dipping, path, grid)
    assert old[0] is IllConditioned
    assert outcome(generate_cluster, dipping, path, grid) == old
    # past the end of the path
    grid = SamplingGrid(terminal_speeds=(1.0, 80.0), lateral_offsets=(0.0,),
                        horizons=(1.0,), dt=0.05)
    old = outcome(ref.generate_cluster, initial, path, grid)
    assert old[0] is PathTooShort
    assert outcome(generate_cluster, initial, path, grid) == old
    # an ill-conditioned pair sorted before one past the end raises first
    grid = SamplingGrid(terminal_speeds=(0.002, 80.0), lateral_offsets=(0.0,),
                        horizons=(1.0,), dt=0.05)
    old = outcome(ref.generate_cluster, initial, path, grid)
    assert old[0] is IllConditioned
    assert outcome(generate_cluster, initial, path, grid) == old


def test_build_candidate_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(30):
        initial = random_initial(rng)
        speed = float(rng.uniform(-0.5, 1.6))
        horizon = float(rng.choice([1.0, 1.5, 2.5, 3.0]))
        terminal_s = initial.s + 0.5 * (initial.s_dot + speed) * horizon
        args = (initial, terminal_s, speed, float(rng.uniform(-1, 1)), horizon, 0.05,
                (horizon, speed, "inserted"))
        old = ref.build_candidate(*args)
        new = build_candidate(*args)
        if old is None:
            assert new is None
        else:
            assert_same_candidate(new, old)


def built_alone(builder, initial, specs, dt):
    """Each spec built by its own ``builder`` call, in order."""
    return [builder(initial, t.terminal_s, t.terminal_speed, t.lateral_offset, t.horizon,
                    dt, t.grid_key) for t in specs]


def assert_rows_built_alone(rows, index, alone):
    """``build_rows``' rows and spec index: one row per spec built alone
    that is not None, in input order, each that candidate."""
    assert index == [i for i, c in enumerate(alone) if c is not None]
    assert len(rows) == len(index)
    for cand, i in zip(rows.views(), index):
        assert_same_candidate(cand, alone[i])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    initial=st.builds(
        FrenetState, st.floats(1.0, 3.0), st.floats(0.0, 1.5), st.floats(-1.2, 0.6),
        st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    ),
    targets=st.lists(
        st.tuples(
            st.floats(-0.6, 1.6),  # terminal speed
            st.floats(-1.0, 1.0),  # lateral offset
            st.sampled_from((1.0, 1.35, 2.0, 2.35, 2.5, 3.0)),  # horizon
            st.floats(-0.2, 1.3),  # share of the heuristic progress
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_batch_equals_each_built_alone(initial, targets):
    # nonpositive spans, dips and ill-conditioned spans all occur here
    specs = [
        CandidateSpec(initial.s + share * 0.5 * (initial.s_dot + speed) * horizon,
                      speed, offset, horizon, (horizon, speed, offset, i))
        for i, (speed, offset, horizon, share) in enumerate(targets)
    ]
    batch = outcome(build_rows, initial, specs, 0.05)
    for builder in (build_candidate, ref.build_candidate):
        alone = outcome(built_alone, builder, initial, specs, 0.05)
        if isinstance(alone, tuple):
            assert batch == alone
        else:
            assert_rows_built_alone(*batch, alone)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    initial=st.builds(
        FrenetState, st.floats(1.0, 3.0), st.floats(0.0, 1.5), st.floats(-1.2, 0.6),
        st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    ),
    targets=st.lists(
        st.tuples(
            st.floats(-0.6, 1.6),  # terminal speed
            st.floats(-1.0, 1.0),  # lateral offset
            st.sampled_from((1.0, 1.35, 2.0, 2.35, 2.5, 3.0)),  # horizon
            st.floats(-0.2, 1.3),  # share of the heuristic progress
        ),
        min_size=1,
        max_size=12,
    ),
    data=st.data(),
)
def test_a_build_in_order_gathers_the_build_in_input_order(initial, targets, data):
    # nonpositive spans and dips give specs with no row; order lists any
    # subset of the spec numbers, in any order
    specs = [
        CandidateSpec(initial.s + share * 0.5 * (initial.s_dot + speed) * horizon,
                      speed, offset, horizon, (horizon, speed, offset, i))
        for i, (speed, offset, horizon, share) in enumerate(targets)
    ]
    order = data.draw(st.lists(st.integers(0, len(specs) - 1), unique=True,
                               max_size=len(specs)))
    whole = outcome(build_rows, initial, specs, 0.05)
    new = outcome(build_rows, initial, specs, 0.05, order)
    if isinstance(whole[0], type):  # a span check raised
        assert new == whole
        return
    rows, index = whole
    assert new[1] == index
    # the rows of the specs order lists, skipping those with no row
    picks = [index.index(i) for i in order if i in index]
    assert_same_rows(new[0], SampleRows.of([rows.views()[r] for r in picks]))
    # the path frame's s at every sample, gathered as its row is
    s, take = rows.frame_samples
    frame = [s[take][a:b] for a, b in zip(rows.starts[picks], rows.ends[picks])]
    s, take = new[0].frame_samples
    assert s[take].tobytes() == np.concatenate([np.zeros(0), *frame]).tobytes()


def test_batch_raises_for_the_first_ill_conditioned_spec_in_input_order():
    initial = FrenetState(2.0, 0.5, 0.0, 0.1, 0.0, 0.0)
    # lateral spans of 2 mm and 1 mm, both ill-conditioned: solved in
    # horizon order, the 1 s spec would raise first
    specs = [CandidateSpec(2.3, 0.5, 0.0, 2.0), CandidateSpec(2.002, 0.5, 0.2, 3.0),
             CandidateSpec(2.001, 0.5, 0.2, 1.0)]
    old = outcome(built_alone, ref.build_candidate, initial, specs, 0.05)
    assert old[0] is IllConditioned and "span 0.00199" in old[1]
    assert outcome(build_rows, initial, specs, 0.05) == old


def test_a_build_makes_two_solves_and_two_evaluations(monkeypatch):
    # the closed form's two array calls, the two sampling passes, and one
    # span check per distinct span value
    calls = {"_solve": 0, "eval_quintic": 0, "_check_span": 0}
    for name in calls:
        def counted(*args, fn=getattr(quintic_sampling, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(quintic_sampling, name, counted)
    # a braking crawl: six horizons, two speeds, dipping and forward pairs,
    # and one spec behind the initial state
    initial = FrenetState(2.0, 0.15, -1.0, 0.1, 0.0, 0.0)
    horizons = (1.0, 1.35, 2.0, 2.35, 2.5, 3.0)
    specs = [
        CandidateSpec(2.0 + 0.5 * (0.15 + speed) * horizon, speed, offset, horizon)
        for horizon in horizons for speed in (0.3, 1.5) for offset in (-0.4, 0.4)
    ] + [CandidateSpec(1.9, 0.3, 0.0, 2.0)]
    rows, index = build_rows(initial, specs, 0.05)
    # 6 longitudinal spans (the horizons) and 12 lateral ones (horizon x
    # speed), each shared by two offsets
    assert calls == {"_solve": 2, "eval_quintic": 2, "_check_span": 6 + 12}
    assert set(rows.horizon.tolist()) == set(horizons)
    assert len(specs) - 1 not in index and len(index) < len(specs) - 1


def test_a_regulated_cluster_makes_one_lateral_pass(monkeypatch):
    # one build of the grid and its insertions, whose lateral pass lays out
    # the repaired chain: no sampled row is copied or dropped
    solves, calls = [], {"eval_quintic": 0, "of": 0, "build_rows": 0}
    solve = quintic_sampling._solve

    def counted_solve(*args):
        solves.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(quintic_sampling, "_solve", counted_solve)
    monkeypatch.setattr(quintic_sampling, "eval_quintic",
                        counted("eval_quintic", quintic_sampling.eval_quintic))
    monkeypatch.setattr(SampleRows, "of", staticmethod(counted("of", SampleRows.of)))
    monkeypatch.setattr(endpoint_regulation, "build_rows",
                        counted("build_rows", endpoint_regulation.build_rows))
    initial, grid = regulation_cases()[1]
    cluster = regulated_cluster(initial, s_curve_path(), grid, REG)
    assert any("inserted" in c.grid_key for c in cluster.candidates)
    assert solves == ["build_rows", "build_rows"]
    assert calls == {"eval_quintic": 2, "of": 0, "build_rows": 1}


def regulation_cases():
    """(initial, grid): random grids over three horizons, so the insertions
    snap to many horizons, and a braking crawl whose 2.35 s insertions
    partly dip."""
    rng = np.random.default_rng(41)
    cases = [(
        FrenetState(2.0, 0.13, -0.6, -0.08, 0.0, 0.0),
        SamplingGrid(terminal_speeds=(0.2, 1.5), lateral_offsets=(-0.4, 0.0, 0.4),
                     horizons=(1.0, 3.0), dt=0.05),
    )]
    for _ in range(8):
        grid = SamplingGrid(
            terminal_speeds=tuple(rng.uniform(0.2, 1.6, 3)),
            lateral_offsets=tuple(rng.uniform(-0.8, 0.8, 5)),
            horizons=(1.0, 2.0, 3.0),
            dt=0.05,
        )
        cases.append((random_initial(rng), grid))
    return cases


def test_spacing_insertions_match_reference_built_alone(monkeypatch):
    path = s_curve_path()
    built = []

    def each_alone(initial, specs, dt, order=None):
        # the build keeps the specs each built alone keeps, and every row of
        # the repaired chain is its spec built alone
        index = build_rows(initial, specs, dt, order)[1]
        out = built_alone(ref.build_candidate, initial, specs, dt)
        assert index == [i for i, c in enumerate(out) if c is not None]
        built.extend((initial, t, c) for t, c in zip(specs, out) if "inserted" in t.grid_key)
        order = range(len(specs)) if order is None else order
        return SampleRows.of([out[i] for i in order if out[i] is not None]), index

    tied_insertions = 0
    for initial, grid in regulation_cases():
        new = regulated_cluster(initial, path, grid, REG)
        with monkeypatch.context() as m:
            m.setattr(endpoint_regulation, "build_rows", each_alone)
            old = regulated_cluster(initial, path, grid, REG)
        assert select_reference_candidate(new) == select_reference_candidate(old)
        assert new.spacing_budget_exhausted == old.spacing_budget_exhausted
        assert len(new.candidates) == len(old.candidates)
        for a, b in zip(new.candidates, old.candidates):
            assert_same_candidate(a, b)
        # the insertions go back into the repaired chain in order: grid
        # candidates that differ only in horizon tie in (d, speed), and the
        # insertions between them keep the tie, ordered by terminal s
        for a, b in zip(new.candidates[:-1], new.candidates[1:]):
            if a.states[-1, 3] == b.states[-1, 3] and a.states[-1, 1] == b.states[-1, 1]:
                assert a.states[-1, 0] < b.states[-1, 0]
                tied_insertions += "inserted" in a.grid_key + b.grid_key
    assert tied_insertions
    # the cases reach what they are for: several snapped horizons, and a
    # horizon whose insertions are partly dropped as dipping and partly kept
    assert len({t.horizon for _, t, _ in built}) >= 5
    dropped = {(i, t.horizon) for i, t, c in built if c is None and t.terminal_s > i.s}
    kept = {(i, t.horizon) for i, t, c in built if c is not None}
    assert dropped & kept


def test_cluster_candidates_share_no_array_memory():
    path = s_curve_path()
    for initial, grid in regulation_cases()[:3]:
        for cluster in (generate_cluster(initial, path, grid),
                        regulated_cluster(initial, path, grid, REG)):
            arrays = [
                (i, getattr(cand, name))
                for i, cand in enumerate(cluster.candidates)
                for name in ("times", "states", "jerk_lon", "jerk_lat")
            ]
            for (i, x), (j, y) in itertools.combinations(arrays, 2):
                assert not np.shares_memory(x, y), (i, j)


def assert_one_layout(cluster):
    """The terminals are the candidates' last states, and candidate i views
    exactly row i of the shared blocks, the rows back to back in cluster
    order."""
    rows = cluster.rows
    last = np.stack([cand.states[-1] for cand in cluster.candidates])
    assert cluster.terminals.tobytes() == last.tobytes()
    assert rows.starts[0] == 0 and rows.ends[-1] == len(rows.times)
    assert np.array_equal(rows.starts[1:], rows.ends[:-1])
    for i, (a, b) in enumerate(zip(rows.starts.tolist(), rows.ends.tolist())):
        cand = cluster[i]
        assert cand is cluster.candidates[i]
        assert cand.grid_key == rows.grid_key[i]
        for name in ("times", "states", "jerk_lon", "jerk_lat"):
            view, block = getattr(cand, name), getattr(rows, name)
            assert np.shares_memory(view, block)
            row = block[a:b]
            assert view.shape == row.shape
            assert view.__array_interface__ == row.__array_interface__


@pytest.mark.parametrize("mode", ["proposed", "baseline"])
def test_a_cycle_cluster_is_one_layout_in_cluster_order(mode):
    # after spacing repair (proposed) or straight from the builder
    # (baseline), and a cluster made from a list of candidates that mixes
    # two cycles' builds: every field of each candidate round-trips through
    # its row bit for bit
    for builder in BUILDERS.values():
        scn = builder(seed=1)
        path = scn.build_path()
        clusters = [
            cycle_cluster(scn, path, scn.initial_state, k, MODES[mode].regulate)
            for k in range(3)
        ]
        for cluster in clusters:
            assert_one_layout(cluster)
        cands = [c for pair in zip(clusters[0].candidates[::2], clusters[1].candidates[1::3])
                 for c in pair]
        assert len({c.horizon for c in cands}) >= 2
        mixed = TrajectoryCluster(SampleRows.of(cands), scn.initial_state)
        assert_one_layout(mixed)
        rows = mixed.rows
        for i, cand in enumerate(cands):
            assert_same_candidate(mixed[i], cand)
            assert_identical(rows.lon[i], cand.lon)
            assert_identical(rows.lat[i], cand.lat)
            assert rows.lat_span[i].hex() == cand.lat_span.hex()
            assert rows.horizon[i].hex() == cand.horizon.hex()
            assert rows.grid_key[i] == cand.grid_key
            assert_identical(rows.terminals[i], cand.states[-1])


def test_terminal_gaps_in_one_call_equal_the_per_row_norm():
    # enforce_spacing measures every consecutive gap in one vecdot call; the
    # gaps must keep the bits of one np.linalg.norm call per row (a batched
    # np.linalg.norm(axis=1) does not)
    diff = np.random.default_rng(0).normal(size=(50_000, 6))
    assert_identical(np.sqrt(np.vecdot(diff, diff)),
                     np.array([np.linalg.norm(row) for row in diff]))


def test_spacing_measures_past_dropped_near_duplicates():
    path = s_curve_path()
    for initial, grid in regulation_cases()[:4]:
        cluster = sort_by_terminal(generate_cluster(initial, path, grid))
        # each candidate followed by exact copies, which are dropped; the gap
        # to the next one is then measured from the kept original
        doubled = replace(cluster, rows=SampleRows.of([
            c.copy() for i, cand in enumerate(cluster.candidates)
            for c in (cand,) * (1 + i % 3)
        ]))
        assert len(doubled.candidates) > len(cluster.candidates)
        new = enforce_spacing(doubled, REG, grid)
        old = enforce_spacing(cluster, REG, grid)
        assert select_reference_candidate(new) == select_reference_candidate(old)
        assert new.spacing_budget_exhausted == old.spacing_budget_exhausted
        assert len(new.candidates) == len(old.candidates)
        for a, b in zip(new.candidates, old.candidates):
            assert_same_candidate(a, b)
    # a one-candidate cluster has no gap to measure
    one = TrajectoryCluster(SampleRows.of(cluster.candidates[:1]), cluster.initial)
    assert len(enforce_spacing(one, REG, grid).candidates) == 1


def test_library_repair_copies_rows_no_build_reproduces():
    # sort and spacing repair of refined candidates, whose rows no quintic
    # build gives: each kept row is its input candidate's arrays, bit for
    # bit, and each insertion is its spec built alone
    path = s_curve_path()
    ctx = active_context(path)
    config = OptimizerConfig(max_iters=3)
    kept = inserted = 0
    for initial, grid in regulation_cases()[:3]:
        cands = generate_cluster(initial, path, grid).candidates
        refined = [optimize_trajectory(c, ctx, cands[0], config) for c in cands]
        assert any(not np.array_equal(r.states, c.states) for r, c in zip(refined, cands))
        by_key = {c.grid_key: c for c in refined}
        assert len(by_key) == len(refined)
        own = TrajectoryCluster(SampleRows.of(refined), initial)
        cluster = enforce_spacing(sort_by_terminal(own), REG, grid)
        assert_one_layout(cluster)
        for cand in cluster.candidates:
            if "inserted" in cand.grid_key:
                horizon, speed, offset, _ = cand.grid_key
                alone = build_candidate(initial, cand.states[-1, 0], speed, offset, horizon,
                                        grid.dt, cand.grid_key)
                inserted += 1
            else:
                alone = by_key[cand.grid_key]
                kept += 1
            assert_same_candidate(cand, alone)
    assert kept and inserted


def library_repair(initial, path, grid, config):
    return enforce_spacing(sort_by_terminal(generate_cluster(initial, path, grid)), config, grid)


def assert_same_cluster(new, old):
    """Every ``SampleRows`` field, bit for bit, and the budget flag."""
    assert new.spacing_budget_exhausted == old.spacing_budget_exhausted
    assert_same_rows(new.rows, old.rows)


def assert_same_rows(new, old):
    """Every ``SampleRows`` field, bit for bit."""
    for field in dataclasses.fields(SampleRows):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


# offsets and speeds on a 1 cm (cm/s) lattice: equal and adjacent values
# make near-duplicate terminals to drop
_LATTICE = st.integers(-80, 80).map(lambda i: i / 100)


def test_regulated_cluster_equals_the_library_repair(monkeypatch):
    # built once, from the grid's terminals, it is the library's sort and
    # repair of the generated cluster, bit for bit, or raises alike; a grid
    # spec that dips has the plan made again without it
    dips = []  # per build: whether a grid spec got no row

    def spied(initial, specs, dt, order=None):
        rows, index = build_rows(initial, specs, dt, order)
        grid = {i for i, x in enumerate(specs) if "inserted" not in x.grid_key}
        dips.append(not grid <= set(index))
        return rows, index

    monkeypatch.setattr(endpoint_regulation, "build_rows", spied)
    replans = []  # per case: (a grid spec dipped, the outcome is an error)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        initial=st.builds(
            FrenetState, st.floats(1.0, 3.0), st.floats(0.0, 1.5), st.floats(-1.2, 0.6),
            st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
        ),
        speeds=st.lists(_LATTICE.map(lambda v: v + 0.9), min_size=1, max_size=4),
        offsets=st.lists(_LATTICE, min_size=1, max_size=6),
        horizons=st.lists(st.sampled_from((1.0, 1.35, 2.0, 2.35, 2.5, 3.0)), min_size=1,
                          max_size=3, unique=True),
        gaps=st.tuples(st.floats(0.04, 1.0), st.floats(0.0, 0.03)),
    )
    @example(  # a braking crawl: the 2.35 s insertions partly dip
        initial=FrenetState(2.0, 0.13, -0.6, -0.08, 0.0, 0.0), speeds=[0.2, 1.5],
        offsets=[-0.4, 0.0, 0.4], horizons=[1.0, 3.0], gaps=(0.5, 0.02),
    )
    @example(  # exact and 1 cm duplicates, and a gap past the insertion budget
        initial=FrenetState(2.0, 1.0, 0.0, 0.0, 0.0, 0.0), speeds=[0.9],
        offsets=[-0.8, -0.8, -0.79, 0.8], horizons=[2.0], gaps=(0.1, 0.02),
    )
    @example(  # a braking start: two of the grid's eight specs dip
        initial=FrenetState(2.0, 0.1, -0.6, 0.0, 0.0, 0.0), speeds=[0.2, 1.5],
        offsets=[-0.4, 0.4], horizons=[1.0, 3.0], gaps=(0.5, 0.02),
    )
    @example(  # from rest, braking: every grid spec dips
        initial=FrenetState(2.0, 0.0, -0.6, 0.0, 0.0, 0.0), speeds=[0.2, 1.5],
        offsets=[-0.4, 0.4], horizons=[1.0, 3.0], gaps=(0.5, 0.02),
    )
    def equal(initial, speeds, offsets, horizons, gaps):
        path = s_curve_path()
        grid = SamplingGrid(tuple(speeds), tuple(offsets), tuple(horizons), dt=0.05)
        config = RegulationConfig(max_gap=gaps[0], min_gap=gaps[1])
        dips.clear()
        new = outcome(regulated_cluster, initial, path, grid, config)
        replans.append((any(dips), isinstance(new, tuple)))
        old = outcome(library_repair, initial, path, grid, config)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert_same_cluster(new, old)

    equal()
    # the cases reach a grid spec that dips, on clusters and on errors alike
    assert (True, False) in replans and (True, True) in replans


@pytest.mark.parametrize("initial, grid, error", [
    # a 1 mm lateral span in the grid
    (FrenetState(2.0, 0.0, 0.0, 0.1, 0.0, 0.0),
     SamplingGrid((0.002,), (0.0, 0.2), (1.0, 3.0), dt=0.05), IllConditioned),
    # insertion horizons snap to 251.3 s, past the conditioning limit
    (FrenetState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
     SamplingGrid((0.01,), (-2.0, 2.0), (251.1,), dt=0.7), IllConditioned),
    # an ill-conditioned pair sorted before one past the path's end
    (FrenetState(2.0, 0.0, 0.0, 0.1, 0.0, 0.0),
     SamplingGrid((0.002, 80.0), (0.0,), (1.0,), dt=0.05), IllConditioned),
    (FrenetState(2.0, 0.0, 0.0, 0.1, 0.0, 0.0),
     SamplingGrid((1.0, 80.0), (0.0,), (1.0,), dt=0.05), PathTooShort),
])
def test_regulated_cluster_raises_like_the_library_repair(initial, grid, error):
    path = s_curve_path()
    old = outcome(library_repair, initial, path, grid, REG)
    assert old[0] is error
    assert outcome(regulated_cluster, initial, path, grid, REG) == old


def test_an_insertion_beside_a_dipping_grid_spec_raises_nothing(monkeypatch):
    # the library plans no insertion beside a grid spec that dips, so a span
    # that only such an insertion has raises nothing, even ill-conditioned:
    # the plan is made again without the dipping specs
    initial = FrenetState(2.0, 0.1, -0.6, 0.0, 0.0, 0.0)
    grid = SamplingGrid((0.2, 1.5), (-0.4, 0.4), (1.0, 3.0), dt=0.05)
    config = RegulationConfig(max_gap=0.5, min_gap=0.02)
    path = s_curve_path()
    planned = []  # the specs of each build
    monkeypatch.setattr(endpoint_regulation, "build_rows",
                        lambda i, specs, dt, order=None:
                        planned.append(specs) or build_rows(i, specs, dt, order))
    regulated_cluster(initial, path, grid, config)
    assert len(planned) == 2  # two grid specs dip, so the plan is made twice
    first, again = ({x.terminal_s - initial.s for x in specs} for specs in planned)
    grid_spans = {x.terminal_s - initial.s for x in planned[0] if "inserted" not in x.grid_key}
    only = sorted(first - again - grid_spans)
    assert only
    check = quintic_sampling._check_span

    def ill_conditioned_at(span):
        def checked(t):
            if float(t) == span:
                raise IllConditioned(f"boundary system ill-conditioned for span {t}")
            check(t)
        return checked

    monkeypatch.setattr(quintic_sampling, "_check_span", ill_conditioned_at(only[0]))
    assert_same_cluster(regulated_cluster(initial, path, grid, config),
                        library_repair(initial, path, grid, config))
    # where the library plans the span, both raise
    monkeypatch.setattr(quintic_sampling, "_check_span",
                        ill_conditioned_at(max(again - grid_spans)))
    old = outcome(library_repair, initial, path, grid, config)
    assert old[0] is IllConditioned
    assert outcome(regulated_cluster, initial, path, grid, config) == old


# --- costing ---------------------------------------------------------------------

def mixed_cluster(rng):
    """Interleaved horizons, including an interpolated 2.5 s insertion."""
    initial = FrenetState(2.0, 1.0, 0.1, 0.1, 0.05, 0.0)
    out = []
    for horizon in (2.0, 3.0, 2.5, 2.0, 3.0, 2.5, 2.0):
        speed = float(rng.uniform(0.5, 1.4))
        key = ((horizon, speed, 0.0, "inserted") if horizon == 2.5 else (horizon, speed, 0.0))
        out.append(make_candidate(initial, speed, float(rng.uniform(-0.6, 0.6)), horizon))
        out[-1].grid_key = key
    return out


# (schema 2 terminal_weight, speed_weight); schema 3's one weight is
# terminal_weight * speed_weight**2, 8.0 for the bundled scenarios' (2.0, 2.0)
@pytest.mark.parametrize(
    "terminal_weight,speed_weight",
    [pytest.param(0.0, 1.0, id="0.0"), pytest.param(1.3, 1.0, id="1.3"),
     pytest.param(2.0, 2.0, id="2.0x2.0")],
)
def test_cost_cluster_matches_per_candidate_reference(terminal_weight, speed_weight):
    rng = np.random.default_rng(31)
    path = s_curve_path()
    # neighbours and bumps, then no neighbours (the force path without frames)
    for ctx in (active_context(path, rng), make_context(path, sigma=0.3)):
        cands = mixed_cluster(rng)
        # schema 2 also costed without its regulation section (no term); a zero
        # accel_weight skips the term that the reference multiplies by 0.0
        for accel_weight, reference, reg in itertools.product(
            (0.2, 0.0), (cands[3], None), (schema2.RegulationConfig(speed_weight), None)
        ):
            old_config = OptimizerConfig(terminal_weight=terminal_weight, accel_weight=accel_weight)
            weight = terminal_weight * speed_weight**2 if reg else 0.0
            config = replace(old_config, terminal_weight=weight)
            old = ref.cost_each(cands, ctx, reference, old_config, reg)
            new = cost_cluster(SampleRows.of(cands), ctx, reference, config)
            assert [c.hex() for c in new] == [c.hex() for c in old]
            for cand, want in zip(cands, old):
                got = total_cost(cand, ctx, reference, config)
                assert got.hex() == want.hex()


def test_cost_cluster_raises_like_reference_on_a_coincident_neighbour():
    path = s_curve_path()
    rng = np.random.default_rng(37)
    cands = mixed_cluster(rng)
    # a resting neighbour on the initial sample the candidates share
    target = cands[3]
    ctx = active_context(path)
    s0, d0 = target.states[0, 0], target.states[0, 3]
    (px, py), _, _, (nx, ny), _ = path.frame(np.array([s0]))
    ctx.neighbors = ctx.neighbors + (
        Neighbor(np.array([px[0] + d0 * nx[0], py[0] + d0 * ny[0]]), np.zeros(2)),
    )
    config = OptimizerConfig(terminal_weight=1.0)
    old = outcome(ref.cost_each, cands, ctx, target, config, schema2.RegulationConfig())
    assert old[0] is CoincidentNeighbor
    assert outcome(cost_cluster, SampleRows.of(cands), ctx, target, config) == old


# --- one pass over the candidates' samples laid back to back ----------------------

def assert_rows_like_reference(cands, path, ctx):
    """Costs and classification of a cluster, each candidate against its own
    reference cost and report."""
    config = OptimizerConfig(terminal_weight=1.3, accel_weight=0.2)
    reference = cands[len(cands) // 2]
    reg = schema2.RegulationConfig(1.0)
    old = ref.cost_each(cands, ctx, reference, config, reg)
    # as the simulator calls them, one layout and its path frame for both,
    # and without the frame, which each then evaluates itself
    rows = SampleRows.of(cands)
    frame = path.frame(rows.s)
    for new in (cost_cluster(rows, ctx, reference, config, frame),
                cost_cluster(rows, ctx, reference, config)):
        assert [c.hex() for c in new] == [c.hex() for c in old]
    assert kinematic_peaks(rows, path, frame) == kinematic_peaks(rows, path)
    for limits in (LIMITS, TIGHT):
        for cand, p in zip(cands, kinematic_peaks(rows, path, frame)):
            assert_same_report(check_candidate(cand, path, limits, p),
                               ref.check_candidate(cand, path, limits))


def test_empty_cluster_costs_and_classifies_to_nothing():
    path = s_curve_path()
    empty = SampleRows.of([])
    assert cost_cluster(empty, active_context(path), None, OptimizerConfig()) == []
    assert kinematic_peaks(empty, path) == []


def test_a_row_too_short_for_the_stencils_is_refused():
    # the reference raises too (np.gradient needs three samples); laid back to
    # back, a shorter row would read its neighbour's samples instead
    rng = np.random.default_rng(59)
    path = s_curve_path()
    t = np.arange(6) * 0.05
    long = trace_candidate(2.0 + 0.8 * t, 0.1 * t, 0.05, rng)
    short = trace_candidate(3.0 + 0.8 * t[:2], 0.1 * t[:2], 0.05, rng)
    with pytest.raises(ValueError):
        ref.check_candidate(short, path, LIMITS)
    for cands in ([short], [long, short, long]):
        with pytest.raises(ValueError, match="at least 3 samples"):
            SampleRows.of(cands)
    # the one-candidate library calls lay their candidate out the same way
    with pytest.raises(ValueError, match="at least 3 samples"):
        check_candidate(short, path, LIMITS)
    with pytest.raises(ValueError, match="at least 3 samples"):
        total_cost(short, make_context(path), None, OptimizerConfig())


def test_one_candidate_cluster_matches_reference():
    rng = np.random.default_rng(43)
    path = s_curve_path()
    for ctx in (active_context(path, rng), make_context(path, sigma=0.3)):
        for horizon in (1.0, 2.35, 3.0):
            cand = make_candidate(terminal_speed=float(rng.uniform(0.5, 1.4)),
                                  offset=float(rng.uniform(-0.6, 0.6)), horizon=horizon)
            assert_rows_like_reference([cand], path, ctx)


def test_rows_of_every_sample_count_in_one_cluster_match_reference():
    # every count from the fewest the stencils take (3) up to 41, each twice,
    # shuffled: one-row and two-row trapezoid blocks, ends next to all lengths
    rng = np.random.default_rng(47)
    path = s_curve_path()
    counts = rng.permutation(np.repeat(np.arange(3, 42), 2))
    cands = []
    for n in counts.tolist():
        t = np.arange(n) * 0.05
        s = 2.0 + rng.uniform(0.3, 1.2) * t + rng.uniform(-0.2, 0.2) * t**2
        d = rng.uniform(-0.4, 0.4) + rng.uniform(-0.3, 0.3) * t**3
        cands.append(trace_candidate(s, d, 0.05, rng))
    assert {len(c.times) for c in cands} == set(range(3, 42))
    for ctx in (active_context(path, rng), make_context(path, sigma=0.3)):
        assert_rows_like_reference(cands, path, ctx)


def test_near_zero_speed_at_row_ends_stays_in_its_row():
    # rows that start or end at rest, next to rows that move and bend hardest
    # at their own ends: a speed mask or a curvature-rate validity shift that
    # crossed a row boundary would zero a neighbour's end sample
    rng = np.random.default_rng(53)
    path = s_curve_path()
    n = 31
    t = np.arange(n) * 0.05
    tail = t[-1] - t
    rows = {
        "rest first": (3.0 + 0.6 * t**2, 0.1 + 0.2 * t**4),
        "rest last": (3.0 - 0.6 * tail**2, 0.1 - 0.2 * tail**4),
        "bend late": (2.0 + 0.3 * t, 0.01 * t**5),
        "bend early": (2.0 + 0.3 * t, 0.01 * tail**5),
    }
    order = ["bend late", "rest first", "rest last", "bend early", "rest last",
             "bend late", "rest first", "bend early", "rest first", "rest last"]
    cands = [trace_candidate(*rows[name], 0.05, rng) for name in order]
    peaks = kinematic_peaks(SampleRows.of(cands), path)
    notes = {name: p.notes for name, p in zip(order, peaks)}
    assert "near-zero-speed" in notes["rest first"][0] and "t=0.000" in notes["rest first"][0]
    assert "near-zero-speed" in notes["rest last"][0] and "t=1.500" in notes["rest last"][0]
    assert notes["bend late"] == notes["bend early"] == ()
    # the moving rows' largest curvature rate is at the end next to a rest
    for name, end in (("bend late", -1), ("bend early", 0)):
        alone = kinematic_peaks(SampleRows.of([cands[order.index(name)]]), path)[0]
        assert alone.curvature_rate == peaks[order.index(name)].curvature_rate
        cut = cands[order.index(name)].copy()
        cut.states = np.delete(cut.states, end, axis=0)
        cut.times = cut.times[:-1]
        cut.jerk_lon, cut.jerk_lat = cut.jerk_lon[:-1], cut.jerk_lat[:-1]
        assert kinematic_peaks(SampleRows.of([cut]), path)[0].curvature_rate < (
            0.9 * alone.curvature_rate
        )
    assert_rows_like_reference(cands, path, make_context(path, sigma=0.3))
