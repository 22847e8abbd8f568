import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frenetplan.errors import EmptyInput, TooFewEndpoints
from frenetplan.evaluation import (
    Constraint,
    FeasibilityReport,
    KinematicLimits,
    abs_summary,
    check_candidate,
    feasibility_breakdown,
    nearest_distances,
    nn_distance_stats,
)
from frenetplan.frenet_geometry import FrenetState
from frenetplan.quintic_sampling import (
    TrajectoryCandidate,
    TrajectoryCluster,
    build_candidate,
    eval_quintic,
    solve_quintic,
)

from conftest import circle_path, make_candidate, straight_path

LIMITS = KinematicLimits()


def manual_candidate(lon, lat, horizon, dt=0.05, s0=0.0):
    """Assemble a candidate straight from polynomial coefficients."""
    n = int(round(horizon / dt))
    times = np.linspace(0.0, horizon, n + 1)
    s, s_dot, s_ddot, s_jerk = eval_quintic(lon, times)
    d, dp, dpp, dppp = eval_quintic(lat, s - s0)
    d_dot = dp * s_dot
    d_ddot = dpp * s_dot**2 + dp * s_ddot
    d_jerk = dppp * s_dot**3 + 3 * dpp * s_dot * s_ddot + dp * s_jerk
    states = np.column_stack([s, s_dot, s_ddot, d, d_dot, d_ddot])
    return TrajectoryCandidate(
        lon=lon, lat=lat, lat_span=float(s[-1] - s0), horizon=horizon,
        times=times, states=states,
        jerk_lon=np.asarray(s_jerk, float), jerk_lat=np.asarray(d_jerk, float),
    )


def constant_speed_candidate(speed, horizon=2.0, s0=1.0):
    initial = FrenetState(s0, speed, 0.0, 0.0, 0.0, 0.0)
    return build_candidate(initial, s0 + speed * horizon, speed, 0.0, horizon, 0.05)


def test_straight_constant_speed_is_feasible():
    path = straight_path(20.0)
    cand = constant_speed_candidate(0.5 * LIMITS.v_max)
    report = check_candidate(cand, path, LIMITS)
    assert report.feasible and not report.violations
    assert all(m <= 1.0 for m in report.worst_margins.values())


def test_velocity_violation_margin():
    path = straight_path(20.0)
    cand = constant_speed_candidate(1.2 * LIMITS.v_max, horizon=2.0)
    report = check_candidate(cand, path, LIMITS)
    assert Constraint.VELOCITY in report.violations
    assert abs(report.worst_margins[Constraint.VELOCITY] - 1.2) <= 0.024


def test_yaw_rate_margin_on_circular_arc():
    radius, speed = 2.0, 0.9
    path = circle_path(radius, n=512)
    cand = constant_speed_candidate(speed, horizon=2.0, s0=1.0)
    report = check_candidate(cand, path, LIMITS)
    expected = (speed / radius) / LIMITS.yaw_rate_max
    assert abs(report.worst_margins[Constraint.YAW_RATE] - expected) <= 0.02 * max(1.0, expected)


def test_degenerate_samples_noted():
    path = straight_path(20.0)
    initial = FrenetState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cand = build_candidate(initial, 1.0 + 0.5, 0.5, 0.0, 2.0, 0.05)
    report = check_candidate(cand, path, LIMITS)
    assert report.notes and "skipped" in report.notes[0]


def _cluster_from_terminals(terminals):
    cands = []
    for term in terminals:
        cand = make_candidate()
        cand.states[-1] = term
        cands.append(cand)
    return TrajectoryCluster(candidates=cands, reference_index=0,
                             initial=cands[0].initial)


def test_nn_stats_two_points():
    cluster = _cluster_from_terminals([
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ])
    stats = nn_distance_stats(cluster)
    assert (stats.nn_mean, stats.nn_std, stats.nn_min, stats.nn_max) == (1, 0, 1, 1)


def test_nn_stats_collinear():
    cluster = _cluster_from_terminals([
        [0, 0, 0, 0, 0, 0],
        [0.5, 0, 0, 0, 0, 0],
        [1.0, 0, 0, 0, 0, 0],
    ])
    stats = nn_distance_stats(cluster)
    assert abs(stats.nn_mean - 0.5) <= 1e-12
    assert stats.nn_std <= 1e-12


def test_nn_min_is_global_min_for_pairs():
    rng = np.random.default_rng(3)
    terms = rng.uniform(-1, 1, size=(2, 6))
    cluster = _cluster_from_terminals(terms)
    stats = nn_distance_stats(cluster)
    assert abs(stats.nn_min - np.linalg.norm(terms[0] - terms[1])) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    points=st.integers(2, 40).flatmap(
        lambda n: arrays(float, (n, 6), elements=st.floats(-50.0, 50.0, width=64))
    ),
    duplicates=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=4),
)
def test_nearest_distances_equal_the_norm_of_the_difference_array(points, duplicates):
    # summed one coordinate at a time, the squares add in the order
    # np.linalg.norm adds them over the (n, n, 6) array, so every bit agrees
    n = len(points)
    for a, b in duplicates:
        points[a % n] = points[b % n]
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    want = dist.min(axis=1)
    got = nearest_distances(points)
    assert got.tobytes() == want.tobytes()


def test_nn_requires_two_endpoints():
    with pytest.raises(TooFewEndpoints):
        nn_distance_stats(_cluster_from_terminals([[0, 0, 0, 0, 0, 0]]))


def test_jerk_zero_for_constant_velocity():
    cand = constant_speed_candidate(1.0)
    _, _, rms_lon, peak_lon = abs_summary(cand.jerk_lon)
    _, _, rms_lat, _ = abs_summary(cand.jerk_lat)
    assert rms_lon <= 1e-9 and rms_lat <= 1e-9
    assert peak_lon <= 1e-9


def test_jerk_of_rest_to_rest_quintic():
    lon = solve_quintic((0, 0, 0), (1, 0, 0), 1.0)
    lat = np.zeros(6)
    cand = manual_candidate(lon, lat, horizon=1.0)
    peak = abs_summary(cand.jerk_lon)[3]
    # j(t) = 60 - 360 t + 360 t^2: 60 at both ends, -30 at the midpoint
    assert abs(cand.jerk_lon[0] - 60.0) <= 1e-9
    assert abs(peak - 60.0) <= 1e-9


def test_abs_summary_of_an_empty_series_is_zero():
    assert abs_summary(np.array([])) == (0.0, 0.0, 0.0, 0.0)


def test_profile_series_consistency():
    cand = make_candidate(terminal_speed=1.3, offset=0.5)
    dt = cand.dt
    fd_acc = np.gradient(cand.states[:, 1], dt, edge_order=2)
    assert np.max(np.abs(fd_acc - cand.states[:, 2])) <= 2 * dt * LIMITS.j_max


def _report(violations):
    margins = {c: (1.5 if c in violations else 0.5) for c in Constraint}
    return FeasibilityReport(feasible=not violations, violations=frozenset(violations),
                             worst_margins=margins)


def test_breakdown_all_feasible():
    result = feasibility_breakdown([_report(set()) for _ in range(4)])
    assert result.overall_ratio == 1.0
    assert all(rate == 0.0 for rate in result.violation_rates.values())


def test_breakdown_half_curvature():
    reports = [_report(set()), _report(set()),
               _report({Constraint.CURVATURE}), _report({Constraint.CURVATURE})]
    result = feasibility_breakdown(reports)
    assert result.overall_ratio == 0.5
    assert result.violation_rates[Constraint.CURVATURE] == 0.5
    assert result.violation_rates[Constraint.YAW_RATE] == 0.0


def test_breakdown_multi_label():
    reports = [
        _report({Constraint.VELOCITY}),
        _report({Constraint.VELOCITY, Constraint.YAW_RATE}),
        _report(set()),
        _report(set()),
    ]
    result = feasibility_breakdown(reports)
    assert result.violation_rates[Constraint.VELOCITY] == 0.5
    assert result.violation_rates[Constraint.YAW_RATE] == 0.25


def test_breakdown_empty_raises():
    with pytest.raises(EmptyInput):
        feasibility_breakdown([])


def test_margin_consistency_property():
    rng = np.random.default_rng(29)
    path = straight_path(30.0)
    for _ in range(20):
        speed = float(rng.uniform(0.4, 2.6))
        offset = float(rng.uniform(-1.2, 1.2))
        initial = FrenetState(1.0, speed, 0.0, 0.0, 0.0, 0.0)
        cand = build_candidate(initial, 1.0 + speed * 2.0, speed, offset, 2.0, 0.05)
        report = check_candidate(cand, path, LIMITS)
        assert report.feasible == all(m <= 1.0 for m in report.worst_margins.values())


def test_relaxing_limits_never_shrinks_feasible_set():
    rng = np.random.default_rng(33)
    path = straight_path(30.0)
    cands = []
    for _ in range(12):
        speed = float(rng.uniform(0.5, 2.4))
        offset = float(rng.uniform(-1.0, 1.0))
        initial = FrenetState(1.0, speed, 0.0, 0.0, 0.0, 0.0)
        cands.append(build_candidate(initial, 1.0 + speed * 2.0, speed, offset, 2.0, 0.05))
    base = [check_candidate(c, path, LIMITS).feasible for c in cands]
    for field in ("v_max", "a_max", "j_max", "kappa_max", "yaw_rate_max", "kappa_rate_max"):
        relaxed = KinematicLimits(**{**LIMITS.__dict__, field: 2 * getattr(LIMITS, field)})
        after = [check_candidate(c, path, relaxed).feasible for c in cands]
        assert all(b <= a for b, a in zip(base, after))


def test_limits_validation():
    with pytest.raises(ValueError):
        KinematicLimits(v_max=0.0)
