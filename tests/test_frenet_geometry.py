import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from frenetplan.errors import (
    DuplicateWaypoint,
    InvalidLateralOffset,
    OutOfRangeS,
    PlannerError,
    ProjectionAmbiguous,
    TooFewWaypoints,
)
from frenetplan.frenet_geometry import (
    _cached_fit,
    build_reference_path,
    cartesian_to_frenet,
    curvature_at,
    frenet_to_cartesian,
)
from frenetplan.scenarios import BUILDERS

from conftest import circle_path, s_curve_path, straight_path

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios"


def test_straight_path_total_length():
    path = build_reference_path([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert abs(path.total_length - 3.0) <= 1e-9


def test_unit_circle_quadrant_length():
    theta = np.linspace(0.0, np.pi / 2, 64)
    path = build_reference_path(np.column_stack([np.cos(theta), np.sin(theta)]))
    assert abs(path.total_length - np.pi / 2) <= 1e-4


def test_too_few_waypoints():
    with pytest.raises(TooFewWaypoints):
        build_reference_path([(0, 0), (1, 0), (2, 0)])


def test_non_finite_waypoint():
    with pytest.raises(TooFewWaypoints, match="waypoints must be finite"):
        build_reference_path([(0, 0), (1, 0), (2, float("nan")), (3, 0)])


def test_duplicate_waypoint():
    with pytest.raises(DuplicateWaypoint):
        build_reference_path([(0, 0), (1, 0), (1, 0), (2, 0)])
    # 2e-12 apart, but 1e6 + 2e-12 rounds to 1e6: both get the same knot
    with pytest.raises(DuplicateWaypoint, match="waypoints 1 and 2 coincide"):
        build_reference_path([(0, 0), (1e6, 0), (1e6, 2e-12), (1e6, 1), (1e6, 2)])


def test_path_length_that_overflows():
    with np.errstate(over="ignore"), pytest.raises(TooFewWaypoints, match="too long"):
        build_reference_path([(0, 0), (1e308, 0), (-1e308, 0), (0, 0)])


def test_derivative_orders():
    path = s_curve_path()
    with pytest.raises(ValueError, match="order"):
        path.derivative(1.0, 4)
    with pytest.raises(ValueError, match="order"):
        path.derivative(1.0, 0)


def test_frenet_to_cartesian_straight():
    path = straight_path(10.0)
    assert np.allclose(frenet_to_cartesian(path, 3.0, 1.0), [3.0, 1.0], atol=1e-9)
    assert np.allclose(frenet_to_cartesian(path, 3.0, 0.0), [3.0, 0.0], atol=1e-9)


def test_frenet_to_cartesian_circle():
    # CCW circle of radius 2 starting at (2, 0): s = pi is a quarter turn,
    # the left normal points at the center, so d = 0.5 lands at radius 1.5
    path = circle_path(2.0, ccw=True)
    point = frenet_to_cartesian(path, np.pi, 0.5)
    assert np.allclose(point, [0.0, 1.5], atol=1e-3)
    assert abs(np.linalg.norm(point) - 1.5) <= 1e-3


def test_frenet_to_cartesian_errors():
    path = straight_path(5.0)
    with pytest.raises(OutOfRangeS):
        frenet_to_cartesian(path, 7.0, 0.0)
    circle = circle_path(2.0)
    with pytest.raises(InvalidLateralOffset):
        frenet_to_cartesian(circle, 1.0, 2.5)


def test_cartesian_to_frenet_straight():
    path = straight_path(10.0)
    s, d = cartesian_to_frenet(path, (2.0, 0.7))
    assert abs(s - 2.0) <= 1e-9
    assert abs(d - 0.7) <= 1e-9


def test_cartesian_to_frenet_roundtrip():
    path = s_curve_path()
    point = frenet_to_cartesian(path, 1.2, -0.3)
    s, d = cartesian_to_frenet(path, point)
    assert abs(s - 1.2) <= 1e-6
    assert abs(d - (-0.3)) <= 1e-6


def test_circle_center_is_ambiguous():
    path = circle_path(2.0)
    with pytest.raises(ProjectionAmbiguous):
        cartesian_to_frenet(path, (0.0, 0.0))


def test_curvature_straight_zero():
    path = straight_path(10.0)
    for s in (0.0, 2.5, 7.0, 10.0):
        assert abs(curvature_at(path, s)) <= 1e-9


@pytest.mark.parametrize("radius", [0.5, 2.0, 10.0])
def test_curvature_matches_circle(radius):
    ccw = circle_path(radius, ccw=True)
    cw = circle_path(radius, ccw=False)
    for frac in (0.25, 0.5, 0.75):
        s = frac * ccw.total_length
        assert abs(curvature_at(ccw, s) - 1.0 / radius) <= 1e-3 / radius
        assert abs(curvature_at(cw, s) + 1.0 / radius) <= 1e-3 / radius


def test_roundtrip_property():
    rng = np.random.default_rng(3)
    paths = [straight_path(20.0), circle_path(2.0), s_curve_path()]
    for path in paths:
        for _ in range(60):
            s = float(rng.uniform(0.05, 0.95) * path.total_length)
            kappa = curvature_at(path, s)
            d_max = min(0.8, 0.8 / abs(kappa)) if kappa else 0.8
            d = float(rng.uniform(-d_max, d_max))
            point = frenet_to_cartesian(path, s, d)
            s2, d2 = cartesian_to_frenet(path, point)
            assert abs(s2 - s) <= 1e-6
            assert abs(d2 - d) <= 1e-6


def test_tangent_normal_frames():
    rng = np.random.default_rng(5)
    path = s_curve_path()
    s = rng.uniform(0.0, path.total_length, size=100)
    tan = path.tangent(s)
    nor = path.normal(s)
    assert np.all(np.abs(np.linalg.norm(tan, axis=1) - 1.0) <= 1e-6)
    assert np.all(np.abs(np.sum(tan * nor, axis=1)) <= 1e-9)


def test_chord_never_exceeds_arc():
    # chord <= arc for the true curve; the fitted parameterization is within
    # ~1e-5 of unit speed, hence the tiny relative slack
    rng = np.random.default_rng(11)
    for path in (circle_path(2.0), s_curve_path()):
        for _ in range(50):
            a, b = np.sort(rng.uniform(0.0, path.total_length, size=2))
            if b - a < 1e-6:
                continue
            chord = float(np.linalg.norm(path.position(b) - path.position(a)))
            assert chord <= (b - a) * (1.0 + 1e-4) + 1e-12


def _scipy_fit(pts):
    """The fit as SciPy's ``CubicSpline`` made it: the chord-knot spline,
    its arc lengths by 20-point Gauss-Legendre over ``spline(u, 1)``, and
    the refit at those knots."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    knots = np.concatenate([[0.0], np.cumsum(seg)])
    spline = CubicSpline(knots, pts, bc_type="natural")
    lo, hi = knots[:-1], knots[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    d1 = spline(mid[:, None] + half[:, None] * nodes[None, :], 1)
    lengths = half * (np.hypot(d1[..., 0], d1[..., 1]) @ weights)
    knots = np.concatenate([[0.0], np.cumsum(lengths)])
    return knots, CubicSpline(knots, pts, bc_type="natural")


def assert_scipys_fit(pts):
    """The path's knots and coefficients are SciPy's, bit for bit, and so
    is its third derivative, inside the knots and clamped outside them."""
    path = build_reference_path(pts)
    knots, spline = _scipy_fit(pts)
    assert path.arc_length_knots.tobytes() == knots.tobytes()
    coef = np.stack((path._cx, path._cy), axis=-1)
    assert coef.shape == spline.c.shape
    assert coef.tobytes() == np.ascontiguousarray(spline.c).tobytes()
    s = np.concatenate(([-1.0], knots, 0.5 * (knots[1:] + knots[:-1]), [knots[-1] + 1.0]))
    assert np.array_equal(path.derivative(s, 3), spline(s, 3))
    assert np.array_equal(path.derivative(float(s[2]), 3), spline(float(s[2]), 3))
    return path


@st.composite
def waypoint_sets(draw):
    """4-150 waypoints with consecutive gaps spread over e^-6 to e^4: turning
    paths, and paths along an axis whose other coordinate is +0.0 or -0.0."""
    n = draw(st.integers(4, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = np.exp(rng.uniform(-6.0, 4.0, n - 1))
    if draw(st.booleans()):
        along = draw(st.sampled_from((1.0, -1.0))) * np.concatenate([[0.0], np.cumsum(gaps)])
        zeros = rng.choice((0.0, -0.0), n)
        return np.column_stack((along, zeros) if draw(st.booleans()) else (zeros, along))
    turns = draw(st.floats(0.0, np.pi)) * rng.uniform(-1.0, 1.0, n - 1)
    heading = np.cumsum(turns)
    steps = gaps[:, None] * np.column_stack((np.cos(heading), np.sin(heading)))
    start = rng.uniform(-1e3, 1e3, 2)
    return start + np.vstack((np.zeros(2), np.cumsum(steps, axis=0)))


def test_fit_is_scipys_bit_for_bit():
    swapped = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(waypoint_sets())
    def equal(pts):
        gaps = np.diff(assert_scipys_fit(pts).arc_length_knots)
        # the refit's first elimination step interchanges rows 0 and 1
        # when |2 * gap 0| < |gap 1|
        swapped.append(2.0 * gaps[0] < gaps[1])

    equal()
    assert sum(swapped) >= 10, sum(swapped)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fit_is_scipys_on_the_scenarios(name):
    assert_scipys_fit(BUILDERS[name](seed=0).waypoints)
    bundled = json.loads((BUNDLED / f"{name}.json").read_text())["waypoints"]
    assert_scipys_fit(np.asarray(bundled, dtype=float))


def _fit_bits(pts):
    """The fit's knots and coefficients as bytes, or the error's type and text."""
    try:
        path = build_reference_path(pts)
    except PlannerError as err:
        return type(err), str(err)
    return tuple(a.tobytes() for a in (path.arc_length_knots, path._cx, path._cy))


@st.composite
def routes(draw):
    """4-40 waypoints in [-100, 100]^2, as an array or a list, and the same
    route with one coordinate one ulp up or of the other sign; in some draws
    one waypoint is collapsed onto the next, exactly or within 1e-13."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-100.0, 100.0, (n, 2))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        pts[i] = pts[i + 1] + draw(st.sampled_from((0.0, 1e-13)))
    near = pts.copy()
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
    near[i, j] = np.nextafter(near[i, j], np.inf) if draw(st.booleans()) else -near[i, j]
    if draw(st.booleans()):
        return pts.tolist(), near.tolist()
    return pts, near


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(routes())
def test_cached_fit_is_a_fresh_fit(route):
    pts, near = route
    _cached_fit.cache_clear()
    _fit_bits(near)
    cached = _fit_bits(pts)
    assert _fit_bits(pts) == cached
    _cached_fit.cache_clear()
    assert _fit_bits(pts) == cached


def test_equal_waypoints_share_one_fit():
    x = np.linspace(0.0, 9.0, 10)
    pts = np.column_stack([x, np.sin(x)])
    path = build_reference_path(pts)
    for same in (pts.tolist(), pts.copy(), np.asfortranarray(pts)):
        assert build_reference_path(same) is path
    # a changed waypoint is a new fit, and the first path keeps its own copy
    pts[3, 1] += 0.25
    moved = build_reference_path(pts)
    assert moved is not path
    assert not np.array_equal(path.waypoints, pts)
    bits = _fit_bits(pts)
    _cached_fit.cache_clear()
    assert _fit_bits(pts) == bits
    # the sign of a zero is part of the key
    axis = np.column_stack([x, np.zeros_like(x)])
    flipped = axis.copy()
    flipped[:, 1] = -0.0
    assert build_reference_path(axis) is not build_reference_path(flipped)


@pytest.mark.parametrize("name", ["waypoints", "arc_length_knots", "_cx", "_cy"])
def test_path_arrays_are_read_only(name):
    array = getattr(s_curve_path(), name)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1.0


def test_fit_cache_is_bounded():
    maxsize = _cached_fit.cache_parameters()["maxsize"]
    for n in range(4, maxsize + 5):
        build_reference_path(np.column_stack([np.arange(n), np.zeros(n)]))
    assert _cached_fit.cache_info().currsize <= maxsize


def test_bad_waypoints_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(DuplicateWaypoint, match="waypoints 1 and 2 coincide"):
            build_reference_path([(0, 0), (1, 0), (1, 0), (2, 0)])
        with np.errstate(over="ignore"), pytest.raises(TooFewWaypoints, match="too long"):
            build_reference_path([(0, 0), (1e308, 0), (-1e308, 0), (0, 0)])
