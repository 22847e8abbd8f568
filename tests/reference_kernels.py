"""Earlier implementations kept as references for the equivalence tests.

The force kernels, path frame and two-pass descent are as they were before
refinement moved to component-major arrays and one force-field evaluation per
iteration: 2-vectors on a trailing axis of length 2, Jacobians of shape
(..., 2, 4), and a descent that evaluates the cost at each trial point and
then the gradient at the accepted point. The finite-difference adjoints,
``check_candidate``, ``build_candidate``/``generate_cluster`` and the
per-candidate ``total_cost`` (with ``cost_each``, the simulator's loop over
it) are as they were before the cluster was costed per horizon group,
classification moved to component arrays and the longitudinal quintic was
shared across offsets. ``solve_quintic`` is the scalar closed form as it was
before the candidate builder solved its quintics in array calls;
``build_candidate`` calls it. ``jittered`` is ``SamplingGrid.jittered`` as
it was before it drew each list of perturbations in one call.
``select_reference_candidate`` and ``feasibility_breakdown`` are as they
were before the reference pick took its median from one sorted list and its
squared distances from two columns, and the breakdown counted its reports
in one pass. ``_bumps``
(which the force kernels here call) and the stencils ``_fd_velocity``,
``_fd_accel`` and ``fd_gradient`` are as they were before the bump
derivative was built only for the Jacobian and the stencils took their row
ends from a set-up made once per layout: a step ``h`` (a scalar or one per
sample) and the row ends ``first``/``last`` on the last axis.

Each function is a verbatim copy of the earlier implementation. Only the
names they call were rebound: ``frame`` and ``_eval_all`` take the path as an
argument, the per-segment coefficients of both coordinates are read from the
path's spline by ``_coef``, ``total_cost`` calls the ``_running_cost`` kept here (the package
now costs every candidate of a cluster in one pass over ``SampleRows``), and
``regulation_energy`` comes from the schema 2 adapter in
``schema2_regulation``.
"""

from dataclasses import replace
from typing import Optional

import numpy as np

from frenetplan.endpoint_regulation import _TIE_TOL
from frenetplan.errors import (
    CoincidentNeighbor,
    EmptyCluster,
    EmptyInput,
    IllConditioned,
    InvalidLateralOffset,
    NonPositiveSpan,
    PathTooShort,
)
from frenetplan.evaluation import (
    _DEGENERATE_SPEED,
    CONSTRAINT_ORDER,
    Constraint,
    FeasibilityBreakdown,
    FeasibilityReport,
    KinematicLimits,
)
from frenetplan.frenet_geometry import FrenetState, ReferencePath, _check_s
from frenetplan.momentum_optimizer import (
    _COINCIDENT_DIST,
    _FIXED_EDGE,
    _MAX_BACKTRACKS,
    AssistiveParams,
    OptimizerConfig,
    PlanningContext,
)
from frenetplan.quintic_sampling import (
    _COND_LIMIT,
    SampleRows,
    SamplingGrid,
    TrajectoryCandidate,
    TrajectoryCluster,
    _lateral_boundary_from_time,
    eval_quintic,
)
from frenetplan.schema import SPAN
from schema2_regulation import RegulationConfig, regulation_energy


def _coef(path):
    # per-segment cubic coefficients of both coordinates,
    # shape (4, n_segments, 2), highest power first
    return np.stack((path._cx, path._cy), axis=-1)


def _eval_all(path, s):
    """Position and first two derivatives in one pass (extrapolating)."""
    s = np.asarray(s, dtype=float)
    knots = path.arc_length_knots
    idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(knots) - 2)
    u = (s - knots[idx])[..., None]
    c = _coef(path)[:, idx]
    c0u = c[0] * u
    pos = ((c0u + c[1]) * u + c[2]) * u + c[3]
    d1 = (3.0 * c0u + 2.0 * c[1]) * u + c[2]
    d2 = 6.0 * c0u + 2.0 * c[1]
    return pos, d1, d2


def frame(path, s):
    """Position, parameter speed, unit tangent/normal, and curvature at s.

    Single batched evaluation used by force assembly and metrics; the
    parameter speed gamma = |r'(s)| is ~1 but kept exact so downstream
    Jacobians differentiate the implemented geometry, not the ideal one.
    """
    pos, d1, d2 = _eval_all(path, s)
    gamma = np.sqrt(d1[..., 0] ** 2 + d1[..., 1] ** 2)
    tan = d1 / gamma[..., None]
    nor = np.stack([-tan[..., 1], tan[..., 0]], axis=-1)
    cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    kappa = cross / gamma**3
    return pos, gamma, tan, nor, kappa


def _bumps(s, params: AssistiveParams):
    """Clipped Gaussian-bump sum beta(s) in [0, 1] and its derivative."""
    s = np.asarray(s, dtype=float)
    beta = np.zeros_like(s)
    dbeta = np.zeros_like(s)
    for center, width, amp in params.bumps:
        g = amp * np.exp(-0.5 * ((s - center) / width) ** 2)
        beta += g
        dbeta += g * (-(s - center) / width**2)
    over = beta > 1.0
    beta = np.where(over, 1.0, beta)
    dbeta = np.where(over, 0.0, dbeta)
    return beta, dbeta


def _fd_velocity(p, h, first=0, last=-1):
    h = np.broadcast_to(h, p.shape)
    v = np.empty_like(p)
    v[..., 1:-1] = (p[..., 2:] - p[..., :-2]) / (2.0 * h[..., 1:-1])
    v[..., first] = (p[..., first + 1] - p[..., first]) / h[..., first]
    v[..., last] = (p[..., last] - p[..., last - 1]) / h[..., last]
    return v


def _fd_accel(p, h, first=0, last=-1):
    h2 = np.broadcast_to(h * h, p.shape)
    a = np.empty_like(p)
    a[..., 1:-1] = (p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]) / h2[..., 1:-1]
    a[..., first] = (
        p[..., first] - 2.0 * p[..., first + 1] + p[..., first + 2]
    ) / h2[..., first]
    a[..., last] = (p[..., last] - 2.0 * p[..., last - 1] + p[..., last - 2]) / h2[..., last]
    return a


def fd_gradient(f, h, first=0, last=-1):
    """``np.gradient(f, h, axis=-1, edge_order=2)`` of each row, term for
    term: central differences inside, second-order one-sided differences at
    the row's ends, on uniform spacing ``h`` (each row of a 2-D array, and
    each row of a ``SampleRows`` axis, gets the bits of its own 1-D
    gradient)."""
    h = np.broadcast_to(h, f.shape)
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h[..., 1:-1])
    hf, hl = h[..., first], h[..., last]
    out[..., first] = (
        (-1.5 / hf) * f[..., first] + (2.0 / hf) * f[..., first + 1]
        + (-0.5 / hf) * f[..., first + 2]
    )
    out[..., last] = (
        (0.5 / hl) * f[..., last - 2] + (-2.0 / hl) * f[..., last - 1]
        + (1.5 / hl) * f[..., last]
    )
    return out


def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _assistive_batch(s, vs, d, vd, params: AssistiveParams, want_jac: bool):
    """Saturated guidance force per node; Jacobian columns are (s, vs, d, vd)."""
    beta, dbeta = _bumps(s, params)
    raw = np.stack(
        [
            -params.speed_gain * (vs - params.target_speed) * (1.0 + beta),
            -params.centering_gain * d - params.damping_gain * vd,
        ],
        axis=-1,
    )
    jac = None
    if want_jac:
        jac = np.zeros(raw.shape[:-1] + (2, 4))
        jac[..., 0, 0] = -params.speed_gain * (vs - params.target_speed) * dbeta
        jac[..., 0, 1] = -params.speed_gain * (1.0 + beta)
        jac[..., 1, 2] = -params.centering_gain
        jac[..., 1, 3] = -params.damping_gain

    norm = np.sqrt(_dot(raw, raw))
    sat = norm > params.max_force
    force = raw.copy()
    if np.any(sat):
        scale = params.max_force / norm[sat]
        force[sat] = raw[sat] * scale[:, None]
        if want_jac:
            rhat = raw[sat] / norm[sat, None]
            rj = np.einsum("nk,nkz->nz", rhat, jac[sat])
            jac[sat] = scale[:, None, None] * (
                jac[sat] - rhat[:, :, None] * rj[:, None, :]
            )
    return force, jac


def _interaction_batch(times, s, vs, d, vd, ctx: PlanningContext, want_jac: bool):
    """Repulsion projected on the local (tangent, normal) frame per node.

    The agent's Cartesian position is r(s) + d*n(s) and its velocity is
    approximated as vs*t(s) + vd*n(s); both are differentiated exactly
    against the implemented spline geometry (parameter speed included).
    """
    shape = np.shape(s)
    force_fren = np.zeros(shape + (2,))
    jac = np.zeros(shape + (2, 4)) if want_jac else None
    if not ctx.neighbors:
        return force_fren, jac

    pos, gamma, tan, nor, kappa = frame(ctx.path, s)
    x = pos + d[..., None] * nor
    u = vs[..., None] * tan + vd[..., None] * nor
    params = ctx.interaction

    f_cart = np.zeros(shape + (2,))
    jc = np.zeros(shape + (4, 2)) if want_jac else None
    if want_jac:
        dx_ds = (gamma * (1.0 - d * kappa))[..., None] * tan
        du_ds = (gamma * kappa)[..., None] * (vs[..., None] * nor - vd[..., None] * tan)

    for nb in ctx.neighbors:
        q = nb.position + times[..., None] * nb.velocity
        rvec = x - q
        r = np.sqrt(_dot(rvec, rvec))
        if np.any(r < _COINCIDENT_DIST):
            raise CoincidentNeighbor("neighbor coincides with a trajectory sample")
        active = r <= params.cutoff
        if not np.any(active):
            continue
        nhat = rvec / r[..., None]
        du = u - nb.velocity
        dv = np.sqrt(_dot(du, du))
        safe_dv = np.where(dv > 1e-12, dv, 1.0)
        dvhat = np.where((dv > 1e-12)[..., None], du / safe_dv[..., None], 0.0)
        decay = np.exp(-r / params.range_scale)
        base = decay * (1.0 + dv / params.speed_scale)
        alpha = params.max_intensity * np.minimum(base, 1.0)
        act = active.astype(float)
        f_cart += (act * alpha)[..., None] * nhat

        if want_jac:
            pref = params.max_intensity * decay * (base < 1.0) * act
            scale_r = -pref * (1.0 + dv / params.speed_scale) / params.range_scale
            scale_v = pref / params.speed_scale
            dalpha = np.empty(shape + (4,))
            dalpha[..., 0] = scale_r * _dot(nhat, dx_ds) + scale_v * _dot(dvhat, du_ds)
            dalpha[..., 1] = scale_v * _dot(dvhat, tan)
            dalpha[..., 2] = scale_r * _dot(nhat, nor)
            dalpha[..., 3] = scale_v * _dot(dvhat, nor)
            jc += dalpha[..., :, None] * nhat[..., None, :]
            # direction change: (alpha/r) (I - nhat nhat^T) dx/dz, z in {s, d}
            coef = (act * alpha / r)[..., None]
            for z, dx in ((0, dx_ds), (2, nor)):
                proj = dx - nhat * _dot(nhat, dx)[..., None]
                jc[..., z, :] += coef * proj

    force_fren[..., 0] = _dot(f_cart, tan)
    force_fren[..., 1] = _dot(f_cart, nor)
    if want_jac:
        jac[..., 0, :] = (
            jc[..., :, 0] * tan[..., None, 0] + jc[..., :, 1] * tan[..., None, 1]
        )
        jac[..., 1, :] = (
            jc[..., :, 0] * nor[..., None, 0] + jc[..., :, 1] * nor[..., None, 1]
        )
        # frame rotation along s: dt/ds = gamma*kappa*n, dn/ds = -gamma*kappa*t
        gk = gamma * kappa
        jac[..., 0, 0] += gk * _dot(f_cart, nor)
        jac[..., 1, 0] -= gk * _dot(f_cart, tan)
    return force_fren, jac


def _force_field(times, s, vs, d, vd, ctx: PlanningContext, want_jac: bool):
    """External modulation F_ext = -F_assistive + F_interaction per node."""
    f_asst, j_asst = _assistive_batch(s, vs, d, vd, ctx.assistive, want_jac)
    f_int, j_int = _interaction_batch(times, s, vs, d, vd, ctx, want_jac)
    force = f_int - f_asst
    jac = (j_int - j_asst) if want_jac else None
    return force, jac


def _running_cost(times, ps, pd, ctx, config):
    """Trapezoid of the running cost; broadcasts over leading batch axes."""
    h = float(times[1] - times[0])
    vs = _fd_velocity(ps, h)
    vd = _fd_velocity(pd, h)
    a_s = _fd_accel(ps, h)
    a_d = _fd_accel(pd, h)
    force, _ = _force_field(times, ps, vs, pd, vd, ctx, want_jac=False)
    integrand = (
        0.5 * config.mass * (vs * vs + vd * vd)
        - (force[..., 0] * vs + force[..., 1] * vd)
        + config.accel_weight * (a_s * a_s + a_d * a_d)
        + config.uncertainty_weight * ctx.sigma_trace()
    )
    return np.trapezoid(integrand, times, axis=-1)


def _running_gradient(times, ps, pd, ctx, config):
    """Gradient of the discretized running cost w.r.t. the free positions."""
    h = float(times[1] - times[0])
    vs = _fd_velocity(ps, h)
    vd = _fd_velocity(pd, h)
    a_s = _fd_accel(ps, h)
    a_d = _fd_accel(pd, h)
    force, jac = _force_field(times, ps, vs, pd, vd, ctx, want_jac=True)

    w = np.full(len(times), h)
    w[0] = w[-1] = 0.5 * h

    direct_s = -(jac[..., 0, 0] * vs + jac[..., 1, 0] * vd)
    direct_d = -(jac[..., 0, 2] * vs + jac[..., 1, 2] * vd)
    dv_s = config.mass * vs - force[..., 0] - (jac[..., 0, 1] * vs + jac[..., 1, 1] * vd)
    dv_d = config.mass * vd - force[..., 1] - (jac[..., 0, 3] * vs + jac[..., 1, 3] * vd)
    da_s = 2.0 * config.accel_weight * a_s
    da_d = 2.0 * config.accel_weight * a_d

    grad_s = w * direct_s + _fd_velocity_adjoint(w * dv_s, h) + _fd_accel_adjoint(w * da_s, h)
    grad_d = w * direct_d + _fd_velocity_adjoint(w * dv_d, h) + _fd_accel_adjoint(w * da_d, h)
    lo, hi = _FIXED_EDGE, len(times) - _FIXED_EDGE
    return np.stack([grad_s[..., lo:hi], grad_d[..., lo:hi]], axis=-1)


def _descend(times, ps, pd, ctx, config, reg_terms):
    """Lockstep Armijo descent over a batch of position traces.

    ``ps``/``pd`` have shape (batch, n_samples); each row carries its own
    constant regularizer term, cost history, and line-search step. Rows stop
    independently on the gradient tolerance or a failed line search.
    """
    n_batch, n_nodes = ps.shape
    cur = _running_cost(times, ps, pd, ctx, config) + reg_terms
    histories = [[float(c)] for c in cur]
    if config.max_iters == 0 or n_nodes <= 2 * _FIXED_EDGE:
        return ps, pd, cur, histories

    h = float(times[1] - times[0])
    # Fixed step at the curvature scale of the acceleration penalty
    # (second-difference stencil norm ~4/h^2). Growing the step beyond this
    # is Armijo-acceptable but amplifies the stiff modes and shows up as
    # acceleration noise, so the cap is kept every iteration.
    step0 = 1.0 / (1.0 + 32.0 * config.accel_weight / h**3 + config.mass / h)
    lo, hi = _FIXED_EDGE, n_nodes - _FIXED_EDGE

    alive = np.ones(n_batch, dtype=bool)
    for _ in range(config.max_iters):
        grad = _running_gradient(times, ps, pd, ctx, config)
        gnorm2 = np.sum(grad * grad, axis=(-2, -1))
        alive &= np.sqrt(gnorm2) > config.grad_tol
        if not np.any(alive):
            break
        alpha = np.full(n_batch, step0)
        trying = alive.copy()
        accepted = np.zeros(n_batch, dtype=bool)
        for _ in range(_MAX_BACKTRACKS):
            if not np.any(trying):
                break
            ps_try = ps.copy()
            pd_try = pd.copy()
            ps_try[:, lo:hi] -= alpha[:, None] * grad[..., 0]
            pd_try[:, lo:hi] -= alpha[:, None] * grad[..., 1]
            costs = _running_cost(times, ps_try, pd_try, ctx, config) + reg_terms
            ok = trying & (costs <= cur - config.armijo_c * alpha * gnorm2)
            if np.any(ok):
                ps[ok] = ps_try[ok]
                pd[ok] = pd_try[ok]
                cur[ok] = costs[ok]
                accepted |= ok
                for i in np.nonzero(ok)[0]:
                    histories[i].append(float(costs[i]))
            trying &= ~ok
            alpha[trying] *= config.step_shrink
        alive &= accepted
        if not np.any(alive):
            break
    return ps, pd, cur, histories


def _fd_velocity_adjoint(y, h):
    g = np.zeros_like(y)
    g[..., 2:] += y[..., 1:-1] / (2.0 * h)
    g[..., :-2] -= y[..., 1:-1] / (2.0 * h)
    g[..., 0] -= y[..., 0] / h
    g[..., 1] += y[..., 0] / h
    g[..., -1] += y[..., -1] / h
    g[..., -2] -= y[..., -1] / h
    return g


def _fd_accel_adjoint(y, h):
    h2 = h * h
    g = np.zeros_like(y)
    g[..., 2:] += y[..., 1:-1] / h2
    g[..., 1:-1] -= 2.0 * y[..., 1:-1] / h2
    g[..., :-2] += y[..., 1:-1] / h2
    g[..., 0] += y[..., 0] / h2
    g[..., 1] -= 2.0 * y[..., 0] / h2
    g[..., 2] += y[..., 0] / h2
    g[..., -1] += y[..., -1] / h2
    g[..., -2] -= 2.0 * y[..., -1] / h2
    g[..., -3] += y[..., -1] / h2
    return g


def total_cost(
    candidate: TrajectoryCandidate,
    ctx: PlanningContext,
    reference: TrajectoryCandidate | None,
    config: OptimizerConfig,
    reg: RegulationConfig | None = None,
) -> float:
    """Discretized objective: trapezoid of the running cost plus the weighted
    terminal deviation against ``reference``.

    Velocities and accelerations are re-derived from the sampled positions so
    the value is a pure function of the position trace (the optimizer's own
    discretization); that keeps descent comparisons exact.
    """
    cost = float(
        _running_cost(
            candidate.times, candidate.states[:, 0], candidate.states[:, 3], ctx, config
        )
    )
    if reference is not None and reg is not None and config.terminal_weight > 0:
        cost += config.terminal_weight * regulation_energy(candidate, reference, reg)
    return cost


def cost_each(candidates, ctx, reference, config, reg):
    """The simulator's one-shot costing loop over ``total_cost``."""
    return [total_cost(cand, ctx, reference, config, reg) for cand in candidates]


def check_candidate(
    candidate: TrajectoryCandidate, path: ReferencePath, limits: KinematicLimits
) -> FeasibilityReport:
    """Classify one candidate against the kinematic limits.

    Speed/acceleration come from finite differences of the Cartesian trace,
    curvature from first/second central differences (yaw rate = curvature *
    speed, curvature rate = d kappa / dt), and jerk from the per-axis stored
    series. A candidate may violate several constraints at once.
    """
    st = candidate.states
    dt = candidate.dt
    (px, py), _, _, (nx, ny), _ = path.frame(st[:, 0])
    d = st[:, 3]
    xy = np.stack([px + d * nx, py + d * ny], axis=-1)

    vel = np.gradient(xy, dt, axis=0, edge_order=2)
    acc = np.gradient(vel, dt, axis=0, edge_order=2)
    speed = np.linalg.norm(vel, axis=1)
    accel = np.linalg.norm(acc, axis=1)

    margins = {
        Constraint.VELOCITY: float(np.max(speed)) / limits.v_max,
        Constraint.ACCELERATION: float(np.max(accel)) / limits.a_max,
        Constraint.JERK: float(
            max(np.max(np.abs(candidate.jerk_lon)), np.max(np.abs(candidate.jerk_lat)))
        )
        / limits.j_max,
    }

    notes = []
    valid = speed > _DEGENERATE_SPEED
    if np.all(valid):
        cross = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
        kappa = cross / speed**3
        kappa_rate = np.gradient(kappa, dt, edge_order=2)
        margins[Constraint.CURVATURE] = float(np.max(np.abs(kappa))) / limits.kappa_max
        margins[Constraint.YAW_RATE] = (
            float(np.max(np.abs(kappa * speed))) / limits.yaw_rate_max
        )
        margins[Constraint.CURVATURE_RATE] = (
            float(np.max(np.abs(kappa_rate))) / limits.kappa_rate_max
        )
    else:
        degenerate = np.nonzero(~valid)[0]
        notes.append(
            f"curvature checks skipped at {degenerate.size} near-zero-speed "
            f"sample(s), first at t={candidate.times[degenerate[0]]:.3f}"
        )
        if np.any(valid):
            cross = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
            kappa = np.where(valid, cross / np.maximum(speed, _DEGENERATE_SPEED) ** 3, 0.0)
            margins[Constraint.CURVATURE] = (
                float(np.max(np.abs(kappa[valid]))) / limits.kappa_max
            )
            margins[Constraint.YAW_RATE] = (
                float(np.max(np.abs((kappa * speed)[valid]))) / limits.yaw_rate_max
            )
            kappa_rate = np.gradient(kappa, dt, edge_order=2)
            rate_valid = valid.copy()
            # a rate estimate touching a skipped sample is unreliable
            rate_valid[:-1] &= valid[1:]
            rate_valid[1:] &= valid[:-1]
            if np.any(rate_valid):
                margins[Constraint.CURVATURE_RATE] = (
                    float(np.max(np.abs(kappa_rate[rate_valid]))) / limits.kappa_rate_max
                )
            else:
                margins[Constraint.CURVATURE_RATE] = 0.0
        else:
            margins[Constraint.CURVATURE] = 0.0
            margins[Constraint.YAW_RATE] = 0.0
            margins[Constraint.CURVATURE_RATE] = 0.0

    violations = frozenset(c for c, m in margins.items() if m > 1.0)
    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        worst_margins=margins,
        notes=tuple(notes),
    )


def solve_quintic(b0, bT, span) -> np.ndarray:
    """Monomial coefficients c0..c5 of the unique quintic matching (value,
    d1, d2) at abscissa 0 and at ``span``, as a float (6,) array.

    Solved in closed form; the conditioning of the equivalent boundary system
    scales like max(span, 1/span)^5 and is rejected beyond 1e12.
    """
    T = float(span)
    if T <= 0.0:
        raise NonPositiveSpan(f"span must be positive, got {T}")
    if max(T, 1.0 / T) ** 5 > _COND_LIMIT:
        raise IllConditioned(f"boundary system ill-conditioned for span {T}")

    x0, v0, a0 = (float(v) for v in b0)
    x1, v1, a1 = (float(v) for v in bT)
    c0 = x0
    c1 = v0
    c2 = 0.5 * a0
    y1 = x1 - (c0 + c1 * T + c2 * T * T)
    y2 = v1 - (c1 + 2.0 * c2 * T)
    y3 = a1 - 2.0 * c2
    T2 = T * T
    c3 = (20.0 * y1 - 8.0 * y2 * T + y3 * T2) / (2.0 * T**3)
    c4 = (-30.0 * y1 + 14.0 * y2 * T - 2.0 * y3 * T2) / (2.0 * T**4)
    c5 = (12.0 * y1 - 6.0 * y2 * T + y3 * T2) / (2.0 * T**5)
    return np.array([c0, c1, c2, c3, c4, c5])


def build_candidate(
    initial: FrenetState,
    terminal_s: float,
    terminal_speed: float,
    lateral_offset: float,
    horizon: float,
    dt: float,
    grid_key: tuple = (),
) -> Optional[TrajectoryCandidate]:
    """Solve both quintics toward a steady terminal and sample the result.

    Terminal acceleration and lateral rates are zero (steady-terminal
    convention). Returns None for non-forward candidates: nonpositive
    longitudinal span or a sampled dip in s.
    """
    span = terminal_s - initial.s
    if span <= 0.0:
        return None
    lon = solve_quintic(
        (initial.s, initial.s_dot, initial.s_ddot),
        (terminal_s, terminal_speed, 0.0),
        horizon,
    )
    d0, dp0, dpp0 = _lateral_boundary_from_time(initial)
    lat = solve_quintic((d0, dp0, dpp0), (lateral_offset, 0.0, 0.0), span)

    n = max(4, int(round(horizon / dt)))
    times = np.linspace(0.0, horizon, n + 1)
    s, s_dot, s_ddot, s_jerk = eval_quintic(lon, times)
    if np.any(np.diff(s) < -1e-10):
        return None
    sigma = s - initial.s
    d, dp, dpp, dppp = eval_quintic(lat, sigma)
    d_dot = dp * s_dot
    d_ddot = dpp * s_dot**2 + dp * s_ddot
    d_jerk = dppp * s_dot**3 + 3.0 * dpp * s_dot * s_ddot + dp * s_jerk

    states = np.column_stack([s, s_dot, s_ddot, d, d_dot, d_ddot])
    states[0] = initial.as_array()  # shared initial state, exactly
    # Snap the terminal sample to the imposed boundary (solver residual is
    # ~1e-13); exact terminals keep sorting ties and de-duplication stable.
    states[-1] = (terminal_s, terminal_speed, 0.0, lateral_offset, 0.0, 0.0)
    return TrajectoryCandidate(
        lon=lon,
        lat=lat,
        lat_span=span,
        horizon=horizon,
        times=times,
        states=states,
        jerk_lon=np.asarray(s_jerk, dtype=float),
        jerk_lat=np.asarray(d_jerk, dtype=float),
        grid_key=grid_key,
    )


def generate_cluster(
    initial: FrenetState, path: ReferencePath, grid: SamplingGrid
) -> TrajectoryCluster:
    """One candidate per grid triple, ordered by (horizon, speed, offset).

    Terminal longitudinal position follows the trapezoidal progress
    heuristic s_T = s_0 + (s_dot_0 + v_T)/2 * horizon; triples with
    nonpositive progress are discarded.
    """
    _check_s(path, initial.s)
    kappa = float(path.curvature(initial.s))
    if kappa != 0.0 and abs(initial.d) * abs(kappa) >= 1.0:
        raise InvalidLateralOffset("initial state outside the path validity tube")

    candidates = []
    for horizon in sorted(grid.horizons):
        for speed in sorted(grid.terminal_speeds):
            terminal_s = initial.s + 0.5 * (initial.s_dot + speed) * horizon
            span = terminal_s - initial.s
            if span <= 0.0:
                continue
            if terminal_s > path.total_length:
                raise PathTooShort(
                    f"terminal s={terminal_s:.3f} beyond path end "
                    f"{path.total_length:.3f} (speed {speed}, horizon {horizon})"
                )
            for offset in sorted(grid.lateral_offsets):
                cand = build_candidate(
                    initial,
                    terminal_s,
                    speed,
                    offset,
                    horizon,
                    grid.dt,
                    grid_key=(horizon, speed, offset),
                )
                if cand is not None:
                    candidates.append(cand)
    if not candidates:
        raise EmptyCluster("all grid triples were discarded")
    return TrajectoryCluster(SampleRows.of(candidates), initial)


def jittered(self, rng) -> "SamplingGrid":
    """Seeded per-cycle variant; speeds stay positive and offsets within
    the coordinate bound."""
    if self.cycle_jitter == 0.0:
        return self
    j = self.cycle_jitter
    speeds = tuple(
        max(0.05, v + rng.uniform(-j, j)) for v in self.terminal_speeds
    )
    offsets = tuple(
        min(SPAN, max(-SPAN, o + rng.uniform(-j, j))) for o in self.lateral_offsets
    )
    return replace(self, terminal_speeds=speeds, lateral_offsets=offsets)


def select_reference_candidate(cluster: TrajectoryCluster) -> int:
    """Index of the candidate whose terminal (d, s_dot) is closest to
    (0, median terminal speed); ties go to the smaller index."""
    if not len(cluster):
        raise EmptyCluster("cannot select a reference in an empty cluster")
    terms = cluster.terminals
    target = np.array([0.0, float(np.median(terms[:, 1]))])
    dev = np.column_stack([terms[:, 3], terms[:, 1]]) - target
    # Python floats hold float64 exactly, and compare faster than numpy scalars
    dist2 = np.sum(dev * dev, axis=1).tolist()
    best = 0
    for i in range(1, len(dist2)):
        if dist2[i] < dist2[best] - _TIE_TOL:
            best = i
    return best


def feasibility_breakdown(reports) -> FeasibilityBreakdown:
    """Feasible fraction plus per-constraint violation fractions.

    A candidate violating several constraints counts once per constraint.
    """
    reports = list(reports)
    if not reports:
        raise EmptyInput("no feasibility reports given")
    n = len(reports)
    rates = {
        c: sum(1 for r in reports if c in r.violations) / n for c in CONSTRAINT_ORDER
    }
    overall = sum(1 for r in reports if r.feasible) / n
    return FeasibilityBreakdown(overall_ratio=overall, violation_rates=rates, count=n)
