import numpy as np
import pytest
from dataclasses import replace

from frenetplan.endpoint_regulation import RegulationConfig
from frenetplan.errors import CoincidentNeighbor
from frenetplan.frenet_geometry import FrenetState
from frenetplan import momentum_optimizer
from frenetplan.momentum_optimizer import (
    AssistiveParams,
    InteractionParams,
    Neighbor,
    OptimizerConfig,
    PlanningContext,
    cost_gradient,
    optimize_cluster,
    optimize_trajectory,
    total_cost,
)
from frenetplan.quintic_sampling import build_candidate, SamplingGrid
from frenetplan.endpoint_regulation import (
    regulated_cluster,
    select_reference_candidate,
    terminal_deviation,
)

import reference_kernels
from conftest import active_context, make_candidate, make_context, random_candidate, straight_path


REG = RegulationConfig(max_gap=0.5, min_gap=0.02)


def rebuilt_positions_cost(candidate, positions, ctx, config):
    """Oracle objective: total_cost of the candidate at perturbed positions."""
    states = candidate.states.copy()
    states[:, 0] = positions[:, 0]
    states[:, 3] = positions[:, 1]
    return total_cost(replace(candidate, states=states), ctx, None, config)


def assistive(state, params):
    """Guidance force of ``_assistive_batch`` at one state, as (s, d)."""
    force, _ = momentum_optimizer._assistive_batch(
        np.array([state.s]), np.array([state.s_dot]), np.array([state.d]),
        np.array([state.d_dot]), params, want_jac=False,
    )
    return np.array([force[0][0], force[1][0]])


# Along this path Frenet (s, d) is Cartesian (x, y), so the batched kernel's
# (tangent, normal) force is the Cartesian repulsion.
X_AXIS = straight_path(20.0)


def interaction(pos, vel, neighbors, params):
    """Repulsion of ``_interaction_batch`` at one agent state, at time 0."""
    ctx = PlanningContext(path=X_AXIS, assistive=AssistiveParams(), interaction=params,
                          neighbors=tuple(neighbors))
    force, _ = momentum_optimizer._interaction_batch(
        np.zeros(1), np.array([pos[0]]), np.array([vel[0]]), np.array([pos[1]]),
        np.array([vel[1]]), ctx, want_jac=False,
    )
    return np.array([force[0][0], force[1][0]])


def test_assistive_equilibrium_is_zero():
    params = AssistiveParams(target_speed=1.0, speed_gain=0.5, centering_gain=1.0,
                             damping_gain=0.5, max_force=5.0)
    state = FrenetState(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(assistive(state, params), [0.0, 0.0])


def test_assistive_lateral_shaping():
    params = AssistiveParams(target_speed=1.0, speed_gain=0.5, centering_gain=1.0,
                             damping_gain=0.0, max_force=50.0)
    state = FrenetState(0.0, 1.0, 0.0, 0.5, 0.0, 0.0)
    assert np.allclose(assistive(state, params), [0.0, -0.5], atol=1e-12)


def test_assistive_saturation():
    params = AssistiveParams(target_speed=0.0, speed_gain=1.0, centering_gain=1.0,
                             damping_gain=0.0, max_force=1.0)
    # raw force norm is 10x the cap
    state = FrenetState(0.0, 10.0, 0.0, 0.0, 0.0, 0.0)
    force = assistive(state, params)
    assert abs(np.linalg.norm(force) - params.max_force) <= 1e-9


def test_assistive_force_always_bounded():
    rng = np.random.default_rng(13)
    params = AssistiveParams(target_speed=1.0, speed_gain=2.0, centering_gain=3.0,
                             damping_gain=1.0, max_force=2.0,
                             bumps=((1.0, 0.5, 0.8),))
    s, vs, d, vd = rng.uniform(-4, 4, size=(4, 200))
    (fs, fd), _ = momentum_optimizer._assistive_batch(s, vs, d, vd, params, want_jac=False)
    assert np.all(np.hypot(fs, fd) <= params.max_force + 1e-12)


def test_surface_irregularity_clipped():
    params = AssistiveParams(bumps=((0.0, 0.5, 0.9), (0.2, 0.5, 0.9)))
    s = np.linspace(-2, 2, 101)
    for want_jac in (False, True):
        beta, _ = momentum_optimizer._bumps(s, params, want_jac)
        assert np.all(beta >= 0.0) and np.all(beta <= 1.0)
        # overlapping bumps clip
        assert momentum_optimizer._bumps(0.1, params, want_jac)[0] == 1.0


def test_interaction_empty_and_cutoff():
    params = InteractionParams(max_intensity=2.0, range_scale=1.0, speed_scale=1.0, cutoff=3.0)
    assert np.allclose(interaction((2, 0), (1, 0), [], params), [0, 0])
    far = Neighbor(position=(12.0, 0.0), velocity=(0.0, 0.0))
    assert np.allclose(interaction((2, 0), (1, 0), [far], params), [0, 0])


def test_interaction_closed_form_at_range_scale():
    params = InteractionParams(max_intensity=2.0, range_scale=1.0, speed_scale=1.0, cutoff=5.0)
    neighbor = Neighbor(position=(1.0, 0.0), velocity=(0.0, 0.0))
    force = interaction((2.0, 0.0), (0.0, 0.0), [neighbor], params)
    assert np.allclose(force, [2.0 * np.exp(-1.0), 0.0], atol=1e-12)


def test_interaction_intensity_bounded():
    rng = np.random.default_rng(17)
    params = InteractionParams(max_intensity=2.0, range_scale=0.5, speed_scale=0.5, cutoff=10.0)
    for _ in range(200):
        neighbor = Neighbor(position=rng.uniform(2, 6, 2) - (0, 4), velocity=rng.uniform(-2, 2, 2))
        pos = rng.uniform(2, 6, 2) - (0, 4)
        if np.linalg.norm(pos - neighbor.position) < 1e-6:
            continue
        force = interaction(pos, rng.uniform(-2, 2, 2), [neighbor], params)
        assert np.linalg.norm(force) <= params.max_intensity + 1e-12


def test_interaction_coincident_raises():
    params = InteractionParams()
    neighbor = Neighbor(position=(2.0, 0.0), velocity=(0.0, 0.0))
    with pytest.raises(CoincidentNeighbor):
        interaction((2.0, 0.0), (1.0, 0.0), [neighbor], params)


def test_lagrangian_examples():
    integrand = momentum_optimizer._integrand
    ctx = make_context(X_AXIS, sigma=0.0)
    assert integrand(0.0, 0.0, 0.0, 0.0, (0.0, 0.0), ctx, OptimizerConfig()) == 0.0
    assert abs(integrand(1.0, 0.0, 0.0, 0.0, (0.0, 0.0), ctx, OptimizerConfig(mass=2.0))
               - 1.0) <= 1e-12
    cfg3 = OptimizerConfig(mass=1.0, accel_weight=0.5, uncertainty_weight=1.0)
    value = integrand(1.0, 0.0, 2.0, 0.0, (2.0, 0.0), make_context(X_AXIS, sigma=3.0), cfg3)
    assert abs(value - 3.5) <= 1e-12


def test_total_cost_zero_motion():
    path = straight_path(20.0)
    ctx = make_context(path, v_des=0.0, sigma=0.0)
    cand = make_candidate(initial=FrenetState(2.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                          terminal_speed=0.4, offset=0.0)
    # hold the zero-motion trace explicitly
    cand.states[:, :] = 0.0
    cand.states[:, 0] = 2.0
    cfg = OptimizerConfig(accel_weight=0.0, uncertainty_weight=0.0)
    assert abs(total_cost(cand, ctx, cand, cfg)) <= 1e-12


def test_total_cost_constant_velocity():
    path = straight_path(20.0)
    ctx = make_context(path, sigma=0.0)
    ctx = replace(ctx, assistive=AssistiveParams(target_speed=1.0, speed_gain=0.0,
                                                 centering_gain=0.0, damping_gain=0.0,
                                                 max_force=1.0))
    v, T = 1.1, 2.0
    initial = FrenetState(2.0, v, 0.0, 0.0, 0.0, 0.0)
    cand = build_candidate(initial, 2.0 + v * T, v, 0.0, T, 0.05)
    cfg = OptimizerConfig(mass=1.3, accel_weight=0.0, uncertainty_weight=0.0,
                          terminal_weight=0.0)
    expected = 0.5 * 1.3 * v * v * T
    assert abs(total_cost(cand, ctx, None, cfg) - expected) <= 1e-6


def test_total_cost_trapezoid_convergence():
    # halving the step shrinks the quadrature error roughly 4x on a smooth
    # kinetic-only candidate with a polynomial speed profile
    path = straight_path(30.0)
    ctx = make_context(path, sigma=0.0)
    ctx = replace(ctx, assistive=AssistiveParams(speed_gain=0.0, centering_gain=0.0,
                                                 damping_gain=0.0, max_force=1.0))
    cfg = OptimizerConfig(mass=1.0, accel_weight=0.0, uncertainty_weight=0.0,
                          terminal_weight=0.0)
    initial = FrenetState(1.0, 0.6, 0.2, 0.0, 0.0, 0.0)
    T, v_T = 2.0, 1.3
    errors = []
    for dt in (0.1, 0.05):
        cand = build_candidate(initial, 1.0 + 0.5 * (0.6 + v_T) * T, v_T, 0.0, T, dt)
        poly = np.polynomial.Polynomial(cand.lon)
        speed_sq = poly.deriv(1) ** 2
        exact = 0.5 * float(speed_sq.integ()(T) - speed_sq.integ()(0.0))
        errors.append(abs(total_cost(cand, ctx, None, cfg) - exact))
    assert errors[1] <= errors[0] / 3.0


def test_uncertainty_weight_monotonicity():
    rng = np.random.default_rng(23)
    path = straight_path(30.0)
    ctx = active_context(path, rng)
    for _ in range(10):
        cand = random_candidate(rng)
        if cand is None:
            continue
        low = total_cost(cand, ctx, None, OptimizerConfig(uncertainty_weight=0.01))
        high = total_cost(cand, ctx, None, OptimizerConfig(uncertainty_weight=0.5))
        assert high >= low


def test_gradient_stationary_at_constant_velocity():
    path = straight_path(30.0)
    v = 1.0
    ctx = make_context(path, v_des=v, sigma=0.0)
    initial = FrenetState(2.0, v, 0.0, 0.0, 0.0, 0.0)
    cand = build_candidate(initial, 2.0 + v * 2.0, v, 0.0, 2.0, 0.05)
    cfg = OptimizerConfig(mass=1.0, accel_weight=0.0, uncertainty_weight=0.0,
                          terminal_weight=0.0)
    grad = cost_gradient(cand, ctx, cfg)
    assert np.linalg.norm(grad) <= 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    path = straight_path(30.0)
    cfg = OptimizerConfig(mass=1.0, accel_weight=0.1, uncertainty_weight=0.05,
                          terminal_weight=0.0)
    checked = 0
    while checked < 10:
        cand = random_candidate(rng, dt=0.1, horizon=1.0)
        if cand is None:
            continue
        ctx = active_context(path, rng)
        positions = np.column_stack([cand.states[:, 0], cand.states[:, 3]])
        grad = cost_gradient(cand, ctx, cfg, positions=positions)
        h = 1e-6
        lo = 2
        for row in range(grad.shape[0]):
            for axis in (0, 1):
                plus = positions.copy()
                plus[lo + row, axis] += h
                minus = positions.copy()
                minus[lo + row, axis] -= h
                fd = (
                    rebuilt_positions_cost(cand, plus, ctx, cfg)
                    - rebuilt_positions_cost(cand, minus, ctx, cfg)
                ) / (2 * h)
                denom = max(abs(fd), 1e-6)
                assert abs(grad[row, axis] - fd) / denom <= 1e-4
        checked += 1


def test_gradient_linear_in_accel_weight():
    rng = np.random.default_rng(37)
    path = straight_path(30.0)
    ctx = active_context(path, rng)
    cand = random_candidate(rng, dt=0.1, horizon=1.5)
    base = cost_gradient(cand, ctx, OptimizerConfig(accel_weight=0.0))
    one = cost_gradient(cand, ctx, OptimizerConfig(accel_weight=0.2))
    two = cost_gradient(cand, ctx, OptimizerConfig(accel_weight=0.4))
    assert np.allclose(two - base, 2.0 * (one - base), rtol=1e-10, atol=1e-12)


def test_optimize_zero_iterations_returns_input():
    rng = np.random.default_rng(41)
    path = straight_path(30.0)
    ctx = active_context(path, rng)
    cand = random_candidate(rng)
    out = optimize_trajectory(cand, ctx, cand, OptimizerConfig(max_iters=0))
    assert np.array_equal(out.states, cand.states)
    assert out.cost is not None and len(out.cost_history) == 1


def test_optimize_descends_and_preserves_boundaries():
    rng = np.random.default_rng(43)
    path = straight_path(30.0)
    cfg = OptimizerConfig(max_iters=15)
    for _ in range(20):
        cand = random_candidate(rng)
        if cand is None:
            continue
        ctx = active_context(path, rng)
        before = total_cost(cand, ctx, cand, cfg)
        out = optimize_trajectory(cand, ctx, cand, cfg)
        after = total_cost(out, ctx, out, cfg)
        hist = out.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert after <= before + 1e-12
        assert np.array_equal(out.states[0], cand.states[0])
        assert np.array_equal(out.states[-1], cand.states[-1])


def test_descent_stops_on_the_gradient_tolerance():
    cand = make_candidate()
    ctx = active_context(straight_path(30.0))
    out = optimize_trajectory(cand, ctx, cand, OptimizerConfig(grad_tol=1e9))
    assert len(out.cost_history) == 1 and not out.optimized
    assert np.array_equal(out.states, cand.states)


def test_descent_stops_on_a_failed_line_search(monkeypatch):
    # every trial point costs more than the start, so no step meets Armijo
    evaluate = momentum_optimizer._cost_and_gradient
    costs = []

    def uphill(*args):
        cost, grad = evaluate(*args)
        costs.append(cost)
        return costs[0] + 1.0 if len(costs) > 1 else cost, grad

    monkeypatch.setattr(momentum_optimizer, "_cost_and_gradient", uphill)
    cand = make_candidate()
    out = optimize_trajectory(cand, active_context(straight_path(30.0)), cand, OptimizerConfig())
    assert len(costs) == 1 + momentum_optimizer._MAX_BACKTRACKS
    assert len(out.cost_history) == 1 and not out.optimized
    assert np.array_equal(out.states, cand.states)


def test_cluster_optimization_matches_reference_descent():
    # a mixed-horizon regulated cluster, spacing insertions included: each
    # refined candidate is the earlier lockstep descent's row, bit for bit
    path = straight_path(40.0)
    initial = FrenetState(1.0, 0.9, 0.0, 0.1, 0.0, 0.0)
    grid = SamplingGrid((0.8, 1.1), (-0.4, 0.0, 0.4), (2.0, 3.0), 0.05)
    cluster = regulated_cluster(initial, path, grid, REG)
    assert {2.0, 3.0} <= {c.horizon for c in cluster.candidates}
    assert any("inserted" in c.grid_key for c in cluster.candidates)
    ctx = active_context(path)
    ref = cluster[select_reference_candidate(cluster)]
    cfg = OptimizerConfig(max_iters=10)
    refined = optimize_cluster(cluster.candidates, ctx, ref, cfg)
    assert len(refined) == len(cluster.candidates)
    for cand, out in zip(cluster.candidates, refined):
        terminal = terminal_deviation(cand.states[-1:], ref, cfg.terminal_weight)
        ps, pd, cur, histories = reference_kernels._descend(
            cand.times, cand.states[None, :, 0].copy(), cand.states[None, :, 3].copy(),
            ctx, cfg, terminal,
        )
        assert np.array_equal(out.states[:, 0], ps[0])
        assert np.array_equal(out.states[:, 3], pd[0])
        assert out.cost == cur[0]
        assert out.cost_history == histories[0]


def test_fused_descent_matches_two_pass_reference_when_backtracking(monkeypatch):
    # With no acceleration penalty and a light mass the fixed step is large
    # (~0.67 at dt = 0.1), so the first Armijo trial is rejected and the line
    # search backtracks, which the bundled scenarios never do. The descent
    # that evaluates cost and gradient once per trial point must still match
    # the two-pass descent (cost at the trial, gradient again at the accepted
    # point) bit for bit.
    path = straight_path(30.0)
    ctx = active_context(path, np.random.default_rng(11))
    cfg = OptimizerConfig(mass=0.05, accel_weight=0.0, max_iters=12)
    batch = [
        make_candidate(terminal_speed=v, offset=o, dt=0.1)
        for v in (0.8, 1.2)
        for o in (-0.3, 0.0, 0.3)
    ]
    times = batch[0].times
    ps = np.stack([c.states[:, 0] for c in batch])
    pd = np.stack([c.states[:, 3] for c in batch])
    reg_terms = np.linspace(0.0, 0.5, len(batch))

    calls = {"cost": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(reference_kernels, "_running_cost",
                        counted("cost", reference_kernels._running_cost))
    monkeypatch.setattr(reference_kernels, "_running_gradient",
                        counted("gradient", reference_kernels._running_gradient))
    expected = reference_kernels._descend(
        times, ps.copy(), pd.copy(), ctx, cfg, reg_terms.copy()
    )
    # one cost evaluation per trial: more than one trial in some iteration
    assert calls["cost"] > 1 + calls["gradient"]

    for row in range(len(batch)):
        got = momentum_optimizer._descend(
            times, ps[row].copy(), pd[row].copy(), ctx, cfg, reg_terms[row]
        )
        assert np.array_equal(got[0], expected[0][row])
        assert np.array_equal(got[1], expected[1][row])
        assert got[2][-1] == expected[2][row]
        assert got[2] == expected[3][row]
        assert len(got[2]) > 1


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(mass=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(armijo_c=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(step_shrink=0.0)
    with pytest.raises(ValueError):
        AssistiveParams(max_force=-1.0)
    with pytest.raises(ValueError):
        AssistiveParams(bumps=((0.0, -1.0, 0.5),))
    with pytest.raises(ValueError):
        InteractionParams(cutoff=0.0)
