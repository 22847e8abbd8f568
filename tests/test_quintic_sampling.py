import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetplan.errors import (
    EmptyCluster,
    IllConditioned,
    NonPositiveSpan,
    PathTooShort,
)
from frenetplan.frenet_geometry import FrenetState
from frenetplan.schema import SPAN
from frenetplan.quintic_sampling import (
    SamplingGrid,
    eval_quintic,
    generate_cluster,
    solve_quintic,
)

import reference_kernels as ref
from conftest import straight_path


def oracle_solve(b0, bT, T):
    """Independent 6x6 linear solve for the boundary-value quintic."""
    rows = []
    rhs = []
    for x, (v, d1, d2) in ((0.0, b0), (T, bT)):
        rows.append([x**k for k in range(6)])
        rows.append([k * x ** (k - 1) if k >= 1 else 0.0 for k in range(6)])
        rows.append([k * (k - 1) * x ** (k - 2) if k >= 2 else 0.0 for k in range(6)])
        rhs.extend([v, d1, d2])
    return np.linalg.solve(np.array(rows), np.array(rhs))


def oracle_eval(coeffs, x):
    poly = np.polynomial.Polynomial(np.asarray(coeffs))
    return tuple(poly.deriv(k)(x) for k in range(4))


def test_rest_to_rest_unit_displacement():
    got = solve_quintic((0, 0, 0), (1, 0, 0), 1.0)
    expected = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    assert np.allclose(got, expected, atol=1e-9)
    assert np.allclose(oracle_solve((0, 0, 0), (1, 0, 0), 1.0), expected, atol=1e-9)


def test_zero_boundaries_give_zero_polynomial():
    got = solve_quintic((0, 0, 0), (0, 0, 0), 1.0)
    assert np.allclose(got, 0.0, atol=1e-12)


def test_constant_velocity_line():
    got = solve_quintic((0, 1, 0), (1, 1, 0), 1.0)
    assert np.allclose(got, [0, 1, 0, 0, 0, 0], atol=1e-9)


def test_random_boundaries_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        b0 = tuple(rng.uniform(-3, 3, size=3))
        bT = tuple(rng.uniform(-3, 3, size=3))
        T = float(rng.uniform(0.3, 5.0))
        got = solve_quintic(b0, bT, T)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (6,)
        assert np.allclose(got, oracle_solve(b0, bT, T), rtol=1e-8, atol=1e-9)
        for x, b in ((0.0, b0), (T, bT)):
            val = oracle_eval(got, x)
            assert abs(val[0] - b[0]) <= 1e-9
            assert abs(val[1] - b[1]) <= 1e-9
            assert abs(val[2] - b[2]) <= 1e-9


def test_span_errors():
    with pytest.raises(NonPositiveSpan):
        solve_quintic((0, 0, 0), (1, 0, 0), 0.0)
    with pytest.raises(NonPositiveSpan):
        solve_quintic((0, 0, 0), (1, 0, 0), -1.0)
    with pytest.raises(IllConditioned):
        solve_quintic((0, 0, 0), (1, 0, 0), 1e-7)


def test_array_solve_equals_each_span_solved_alone():
    # the (6, k) solve against the earlier scalar closed form, bit for bit:
    # NumPy's pow on the spans differs from a Python float power in the last
    # bit for a few percent of spans, so 10^4 of them would catch it
    rng = np.random.default_rng(8)
    k = 10_000
    spans = rng.uniform(0.01, 10.0, k)
    b0 = rng.uniform(-3, 3, size=(3, k))
    bT = rng.uniform(-3, 3, size=(3, k))
    got = solve_quintic(b0, bT, spans)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (6, k)
    want = np.stack([ref.solve_quintic(b0[:, i], bT[:, i], spans[i]) for i in range(k)], axis=1)
    assert got.tobytes() == want.tobytes()
    # scalar boundaries broadcast over the spans, as the builder passes them
    got = solve_quintic(b0[:, 0], (bT[0], 0.0, 0.0), spans)
    want = [ref.solve_quintic(b0[:, 0], (bT[0, i], 0.0, 0.0), spans[i]) for i in range(k)]
    assert got.tobytes() == np.stack(want, axis=1).tobytes()
    # a scalar span is the (6,) case of the same solve
    for i in range(0, k, 97):
        alone = solve_quintic(b0[:, i], bT[:, i], spans[i])
        assert alone.shape == (6,)
        assert alone.tobytes() == ref.solve_quintic(b0[:, i], bT[:, i], spans[i]).tobytes()


def test_array_solve_raises_for_the_first_bad_span():
    with pytest.raises(IllConditioned, match="span 1e-07"):
        solve_quintic((0, 0, 0), (1, 0, 0), [1.0, 1e-7, -1.0])
    with pytest.raises(NonPositiveSpan, match="got -1.0"):
        solve_quintic((0, 0, 0), (1, 0, 0), [1.0, -1.0, 1e-7])


def test_eval_quintic_examples():
    c = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    assert np.allclose(eval_quintic(c, 0.5), (0.5, 1.875, 0.0, -30.0), atol=1e-12)
    assert np.allclose(eval_quintic(c, 0.0), (0.0, 0.0, 0.0, 60.0), atol=1e-12)
    line = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(eval_quintic(line, 7.0), (7.0, 1.0, 0.0, 0.0), atol=1e-12)


def test_eval_quintic_against_symbolic_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = rng.uniform(-2, 2, size=6)
        x = float(rng.uniform(-2, 2))
        assert np.allclose(eval_quintic(c, x), oracle_eval(c, x), rtol=1e-10, atol=1e-10)
    # a (6, k, 1) batch over (k, n) abscissae: row i is quintic i alone
    rows = rng.uniform(-2, 2, size=(7, 6))
    x = rng.uniform(-2, 2, size=(7, 11))
    batch = eval_quintic(rows.T[:, :, None], x)
    for i, c in enumerate(rows):
        alone = eval_quintic(c, x[i])
        for got, want in zip(batch, alone):
            assert got[i].tobytes() == want.tobytes()
        assert np.allclose(alone, oracle_eval(c, x[i]), rtol=1e-10, atol=1e-10)


def test_quintic_minimizes_squared_jerk_among_septics():
    # rest-to-rest quintic vs random C^2 septics with the same boundaries:
    # q(t) = quintic(t) + t^3 (T-t)^3 (a + b t) keeps all six conditions
    rng = np.random.default_rng(6)
    T = 1.0
    quintic = solve_quintic((0, 0, 0), (1, 0, 0), T)
    # exact integral of the squared third derivative over [0, T]
    jerk = np.polynomial.Polynomial(quintic).deriv(3)
    base = float((jerk * jerk).integ()(T) - (jerk * jerk).integ()(0.0))
    bubble = np.polynomial.Polynomial([0, 0, 0, 1]) * np.polynomial.Polynomial(
        [T, -1]
    ) ** 3
    for _ in range(100):
        a, b = rng.uniform(-5, 5, size=2)
        septic = np.polynomial.Polynomial(quintic) + bubble * np.polynomial.Polynomial([a, b])
        jerk = septic.deriv(3)
        cost = float((jerk * jerk).integ()(T) - (jerk * jerk).integ()(0.0))
        assert cost >= base - 1e-9


def _grid(speeds, offsets, horizons, dt=0.05):
    return SamplingGrid(speeds, offsets, horizons, dt)


def test_single_cell_grid():
    path = straight_path(30.0)
    initial = FrenetState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cluster = generate_cluster(initial, path, _grid([1.0], [0.0], [2.0]))
    assert len(cluster.candidates) == 1
    terminal = cluster.candidates[0].terminal
    assert abs(terminal.s_dot - 1.0) <= 1e-9
    assert abs(terminal.d) <= 1e-9


def test_cluster_cardinality_and_boundaries():
    path = straight_path(40.0)
    initial = FrenetState(1.0, 0.9, 0.1, 0.1, 0.05, -0.02)
    grid = _grid([0.8, 1.0, 1.2], [-0.6, -0.3, 0.0, 0.3, 0.6], [2.0, 3.0])
    cluster = generate_cluster(initial, path, grid)
    assert len(cluster.candidates) <= 30
    init_arr = initial.as_array()
    for cand in cluster.candidates:
        assert np.array_equal(cand.states[0], init_arr)
        # boundary reproduction from the polynomials themselves
        s, sd, sdd, _ = eval_quintic(cand.lon, 0.0)
        assert max(abs(s - initial.s), abs(sd - initial.s_dot), abs(sdd - initial.s_ddot)) <= 1e-9
        sT, sdT, sddT, _ = eval_quintic(cand.lon, cand.horizon)
        horizon, speed, offset = cand.grid_key[:3]
        assert abs(sdT - speed) <= 1e-9
        assert abs(sddT) <= 1e-9
        dT, dpT, dppT, _ = eval_quintic(cand.lat, cand.lat_span)
        assert abs(dT - offset) <= 1e-9
        assert max(abs(dpT), abs(dppT)) <= 1e-9
        # terminal sample equals the polynomial evaluation within 1e-9
        assert abs(cand.states[-1, 0] - sT) <= 1e-9
        assert np.all(np.diff(cand.states[:, 0]) >= -1e-10)


def test_nonpositive_progress_discarded():
    path = straight_path(30.0)
    initial = FrenetState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    cluster = generate_cluster(initial, path, _grid([-1.0, 1.0], [0.0], [2.0]))
    assert len(cluster.candidates) == 1
    assert cluster.candidates[0].grid_key[1] == 1.0
    with pytest.raises(EmptyCluster):
        generate_cluster(initial, path, _grid([-1.0], [0.0], [2.0]))


def test_path_too_short():
    path = straight_path(3.0, step=0.5)
    initial = FrenetState(2.5, 2.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(PathTooShort):
        generate_cluster(initial, path, _grid([2.0], [0.0], [2.0]))


def test_chain_rule_consistency():
    path = straight_path(30.0)
    initial = FrenetState(1.0, 1.0, 0.2, 0.2, 0.1, -0.05)
    cluster = generate_cluster(initial, path, _grid([1.2], [0.5], [2.0]))
    cand = cluster.candidates[0]
    h = 1e-4
    t = np.arange(0.0, cand.horizon - h, h)
    s, s_dot, s_ddot, _ = eval_quintic(cand.lon, t)
    d, dp, dpp, _ = eval_quintic(cand.lat, s - initial.s)
    d_dot_chain = dp * s_dot
    d_ddot_chain = dpp * s_dot**2 + dp * s_ddot
    d_dot_fd = np.gradient(d, h)
    d_ddot_fd = np.gradient(d_dot_fd, h)
    inner = slice(2, -2)
    assert np.max(np.abs(d_dot_chain[inner] - d_dot_fd[inner])) <= 1e-4
    assert np.max(np.abs(d_ddot_chain[inner] - d_ddot_fd[inner])) <= 1e-4


def test_generation_is_deterministic():
    path = straight_path(30.0)
    initial = FrenetState(1.0, 0.9, 0.0, 0.1, 0.0, 0.0)
    grid = _grid([0.8, 1.1], [-0.4, 0.0, 0.4], [2.0, 3.0])
    a = generate_cluster(initial, path, grid)
    b = generate_cluster(initial, path, grid)
    assert len(a.candidates) == len(b.candidates)
    for ca, cb in zip(a.candidates, b.candidates):
        assert ca.grid_key == cb.grid_key
        assert np.array_equal(ca.states, cb.states)
        assert np.array_equal(ca.jerk_lon, cb.jerk_lon)


def test_grid_validation():
    with pytest.raises(ValueError):
        SamplingGrid((), (0.0,), (2.0,))
    with pytest.raises(ValueError):
        SamplingGrid((1.0,), (0.0,), (2.0,), dt=-0.1)
    with pytest.raises(ValueError):
        SamplingGrid((1.0,), (0.0,), (0.1,), dt=0.05)
    with pytest.raises(ValueError):
        SamplingGrid((1.0,), (0.0,), (2.0,), dt=0.05, cycle_jitter=-1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    speeds=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=12),
    offsets=st.lists(
        st.one_of(st.floats(-1.0, 1.0), st.floats(SPAN - 1.0, SPAN), st.floats(-SPAN, 1.0 - SPAN)),
        min_size=1,
        max_size=12,
    ),
    jitter=st.floats(0.0, 1.0),
)
def test_jitter_draws_each_list_at_once_like_one_draw_per_element(seed, speeds, offsets, jitter):
    # one uniform draw per list takes the same stream, and the same bits,
    # as one draw per speed and then one per offset; clamps included
    grid = SamplingGrid(tuple(speeds), tuple(offsets), (2.0,), dt=0.05, cycle_jitter=jitter)
    rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new, old = grid.jittered(rng), ref.jittered(grid, old_rng)
    for field in ("terminal_speeds", "lateral_offsets"):
        assert [v.hex() for v in getattr(new, field)] == [v.hex() for v in getattr(old, field)]
    assert rng.bit_generator.state == old_rng.bit_generator.state


# finite speeds (the rule), offsets and horizons at the edges of theirs
EDGE_SPEEDS = st.one_of(st.floats(-1.0, 2.0), st.floats(allow_nan=False, allow_infinity=False))
EDGE_OFFSETS = st.one_of(
    st.floats(-1.0, 1.0), st.floats(SPAN - 1.0, SPAN), st.floats(-SPAN, 1.0 - SPAN),
    st.sampled_from([SPAN, -SPAN, 0.0, -0.0]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    speeds=st.lists(EDGE_SPEEDS, min_size=1, max_size=12),
    offsets=st.lists(EDGE_OFFSETS, min_size=1, max_size=12),
    horizons=st.lists(st.floats(0.2, 8.0), min_size=1, max_size=4),
    jitter=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
)
def test_jittered_grid_equals_its_validated_replace(seed, speeds, offsets, horizons, jitter):
    # the variant skips validation: it must be the grid that replace(), which
    # validates, makes of the same lists, field for field and bit for bit
    grid = SamplingGrid(tuple(speeds), tuple(offsets), tuple(horizons), dt=0.05,
                        cycle_jitter=jitter)
    new = grid.jittered(np.random.default_rng(seed))
    checked = dataclasses.replace(
        grid, terminal_speeds=new.terminal_speeds, lateral_offsets=new.lateral_offsets
    )
    assert type(new) is SamplingGrid
    for field in dataclasses.fields(SamplingGrid):
        got, want = getattr(new, field.name), getattr(checked, field.name)
        if isinstance(want, tuple):
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in want], field.name
        else:
            assert type(got) is type(want) and got == want, field.name
