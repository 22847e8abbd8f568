"""The component-major force kernels and path frame against the earlier
trailing-axis implementations kept in ``reference_kernels``: forces,
Jacobians and frames must be bitwise identical, including on the branches the
bundled scenarios never reach (assistive saturation, zero relative speed,
neighbours beyond the cutoff, the intensity clamp, coincident neighbours).
"""

from dataclasses import replace

import numpy as np
import pytest

import reference_kernels as ref
from conftest import make_context, s_curve_path
from frenetplan.errors import CoincidentNeighbor
from frenetplan.momentum_optimizer import (
    AssistiveParams,
    Neighbor,
    _assistive_batch,
    _force_field,
    _interaction_batch,
)

SHAPE = (6, 25)
DT = 0.1


def assert_identical(new, old):
    """Equal values and equal signs of zero."""
    new = np.broadcast_to(new, np.shape(old))
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def assert_force_identical(new, old):
    force, jac = new
    force_ref, jac_ref = old
    for k in range(2):
        assert_identical(force[k], force_ref[..., k])
    if jac_ref is None:
        assert jac is None
        return
    for k in range(2):
        for z in range(4):
            assert_identical(jac[k][z], jac_ref[..., k, z])


def random_states(rng, path, shape=SHAPE):
    """Arc length along the path (some past either end), rates and offsets."""
    s = np.sort(rng.uniform(-0.5, path.total_length + 0.5, shape), axis=-1)
    vs = rng.uniform(-0.5, 2.5, shape)
    d = rng.uniform(-0.8, 0.8, shape)
    vd = rng.uniform(-0.6, 0.6, shape)
    return s, vs, d, vd


def neighbours_near(rng, path, count):
    """Neighbours a little off the path, within reach of some samples."""
    out = []
    for s_nb in rng.uniform(0.1, 0.9, count) * path.total_length:
        out.append(
            Neighbor(
                position=path.position(s_nb) + rng.uniform(-1.5, 1.5, 2),
                velocity=rng.uniform(-0.8, 0.8, 2),
                covariance_trace=0.1,
            )
        )
    return out


def both_interactions(times, states, ctx, want_jac):
    new = _interaction_batch(times, *states, ctx, want_jac)
    old = ref._interaction_batch(times, *states, ctx, want_jac)
    return new, old


def test_frame_matches_reference():
    rng = np.random.default_rng(101)
    path = s_curve_path()
    knots = path.arc_length_knots
    edges = [0.0, path.total_length, -1e-12, path.total_length + 1e-12]
    for s in (
        np.concatenate([rng.uniform(-1.0, path.total_length + 1.0, 200), knots, edges]),
        rng.uniform(-1.0, path.total_length + 1.0, (5, 40)),
    ):
        pos, gamma, tan, nor, kappa = path.frame(s)
        pos_ref, gamma_ref, tan_ref, nor_ref, kappa_ref = ref.frame(path, s)
        for pair, stacked in ((pos, pos_ref), (tan, tan_ref), (nor, nor_ref)):
            for k in range(2):
                assert_identical(pair[k], stacked[..., k])
        assert_identical(gamma, gamma_ref)
        assert_identical(kappa, kappa_ref)

        _, d1_ref, d2_ref = ref._eval_all(path, s)
        assert_identical(path.position(s), pos_ref)
        assert_identical(path.derivative(s, 1), d1_ref)
        assert_identical(path.derivative(s, 2), d2_ref)
        assert_identical(
            path.tangent(s), d1_ref / np.linalg.norm(d1_ref, axis=-1, keepdims=True)
        )
        cross = d1_ref[..., 0] * d2_ref[..., 1] - d1_ref[..., 1] * d2_ref[..., 0]
        assert_identical(path.curvature(s), cross / np.linalg.norm(d1_ref, axis=-1) ** 3)


@pytest.mark.parametrize("max_force", [3.0, 0.4])
@pytest.mark.parametrize("want_jac", [True, False])
def test_assistive_matches_reference(max_force, want_jac):
    rng = np.random.default_rng(103)
    path = s_curve_path()
    s, vs, d, vd = random_states(rng, path)
    params = AssistiveParams(
        target_speed=1.0,
        speed_gain=0.5,
        centering_gain=0.3,
        damping_gain=0.2,
        max_force=max_force,
        bumps=((3.0, 1.2, 0.7), (9.0, 0.8, 0.9)),
    )
    if max_force < 1.0:
        # part of the batch saturates, part does not
        raw, _ = ref._assistive_batch(s, vs, d, vd, replace(params, max_force=1e9), False)
        saturated = np.linalg.norm(raw, axis=-1) > max_force
        assert 0 < np.count_nonzero(saturated) < saturated.size
    old = ref._assistive_batch(s, vs, d, vd, params, want_jac)
    new = _assistive_batch(s, vs, d, vd, params, want_jac)
    assert_force_identical(new, old)


@pytest.mark.parametrize("n_neighbours", [0, 1, 3])
@pytest.mark.parametrize("want_jac", [True, False])
def test_interaction_matches_reference(n_neighbours, want_jac):
    rng = np.random.default_rng(107 + n_neighbours)
    path = s_curve_path()
    times = np.arange(SHAPE[-1]) * DT
    for _ in range(5):
        states = random_states(rng, path)
        ctx = make_context(path, neighbors=neighbours_near(rng, path, n_neighbours))
        assert_force_identical(*both_interactions(times, states, ctx, want_jac))


def test_force_field_matches_reference():
    rng = np.random.default_rng(109)
    path = s_curve_path()
    times = np.arange(SHAPE[-1]) * DT
    states = random_states(rng, path)
    ctx = make_context(
        path, neighbors=neighbours_near(rng, path, 2), bumps=((5.0, 1.0, 0.8),)
    )
    for want_jac in (True, False):
        new = _force_field(times, *states, ctx, want_jac)
        old = ref._force_field(times, *states, ctx, want_jac)
        assert_force_identical(new, old)


def test_interaction_edge_branches_match_reference():
    rng = np.random.default_rng(113)
    path = s_curve_path()
    times = np.arange(SHAPE[-1]) * DT
    s, vs, d, vd = random_states(rng, path)
    pos, _, tan, nor, _ = ref.frame(path, s)
    x = pos + d[..., None] * nor
    u = vs[..., None] * tan + vd[..., None] * nor
    i, j = 2, 7

    # moves exactly with the agent at sample (i, j): zero relative speed there
    matched = Neighbor(position=x[i, j] + [0.3, -0.2] - times[j] * u[i, j], velocity=u[i, j])
    # nearly so at sample (i + 1, j): relative speed nonzero but below 1e-12
    nearly = Neighbor(
        position=x[i + 1, j] + [-0.3, 0.2] - times[j] * u[i + 1, j],
        velocity=u[i + 1, j] + [1e-13, 0.0],
    )
    # close and fast relative to the agent: the intensity clamp base >= 1
    fast = Neighbor(position=x[i, j + 5] + [0.2, 0.1], velocity=u[i, j + 5] + [3.0, -2.0])
    # far from every sample: beyond the cutoff everywhere
    far = Neighbor(position=[500.0, -500.0], velocity=[0.0, 0.0])
    ctx = make_context(path, neighbors=(matched, nearly, fast, far))
    cutoff = ctx.interaction.cutoff

    reached = dict.fromkeys(["zero speed", "tiny speed", "clamp", "partly beyond cutoff"], False)
    for nb in ctx.neighbors:
        r = np.linalg.norm(x - (nb.position + times[..., None] * nb.velocity), axis=-1)
        dv = np.linalg.norm(u - nb.velocity, axis=-1)
        base = np.exp(-r / ctx.interaction.range_scale) * (1.0 + dv)
        active = r <= cutoff
        reached["zero speed"] |= bool(np.any((dv == 0.0) & active))
        reached["tiny speed"] |= bool(np.any((dv > 0.0) & (dv <= 1e-12) & active))
        reached["clamp"] |= bool(np.any((base >= 1.0) & active))
        reached["partly beyond cutoff"] |= bool(np.any(active) and not np.all(active))
    assert all(reached.values()), reached
    assert np.all(np.linalg.norm(x - far.position, axis=-1) > cutoff)

    for want_jac in (True, False):
        assert_force_identical(*both_interactions(times, (s, vs, d, vd), ctx, want_jac))


def test_coincident_neighbour_raises_in_both():
    rng = np.random.default_rng(127)
    path = s_curve_path()
    times = np.arange(SHAPE[-1]) * DT
    s, vs, d, vd = random_states(rng, path)
    pos, _, _, nor, _ = ref.frame(path, s)
    x = pos + d[..., None] * nor
    on_sample = Neighbor(position=x[1, 4], velocity=[0.0, 0.0])
    ctx = make_context(path, neighbors=neighbours_near(rng, path, 1) + [on_sample])
    for want_jac in (True, False):
        with pytest.raises(CoincidentNeighbor):
            _interaction_batch(times, s, vs, d, vd, ctx, want_jac)
        with pytest.raises(CoincidentNeighbor):
            ref._interaction_batch(times, s, vs, d, vd, ctx, want_jac)
