"""Momentum-aware trajectory cost and refinement.

The running cost couples kinetic energy, an external momentum-modulation
force, an acceleration (momentum-change) penalty, and an uncertainty trace,
integrated by trapezoid over the sampled horizon, plus the weighted
terminal deviation from a reference candidate. Minimization is projected gradient descent with Armijo
backtracking over the free position samples; the boundary samples are never
touched, which is what carries momentum consistency across replanning
segments.

Velocities and accelerations entering the cost are derived from the position
samples by finite differences (central in the interior, one-sided at the
ends), so the cost is a pure function of the position trace and the descent
contract is exact. The cost and force kernels are elementwise along the
sample axis, so the simulator costs a whole cluster in one pass over the
cluster's own arrays, its candidates' samples back to back (``SampleRows``,
``cost_cluster``); the same layout and its one path-frame evaluation serve
classification. Refinement descends one candidate at a time
(``optimize_trajectory``); ``optimize_cluster`` maps it over a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .endpoint_regulation import terminal_deviation
from .errors import CoincidentNeighbor
from .frenet_geometry import ReferencePath
from .quintic_sampling import SampleRows, TrajectoryCandidate
from .schema import ListOf, check, spec

_COINCIDENT_DIST = 1e-9

# Nodes held fixed at each end of the horizon. Two nodes (not one) because
# the end-weighted trapezoid rows unbalance the adjoint of the one-sided
# difference stencils there: a single-node boundary lets the minimizer grow
# an acceleration kink at the first interior sample. With a two-node buffer
# every free node sees only interior-centered stencils with uniform weights,
# so smooth states have O(h) gradients and refinements stay smooth.
_FIXED_EDGE = 2

_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class CostWeights:
    """Weights of the momentum-aware selection cost (the scenario's ``cost``
    section).

    ``terminal_weight`` is the only weight of the terminal term,
    ``terminal_weight * (v_T - v_T,ref)**2`` against the reference candidate
    (``terminal_deviation``): every candidate ends in a steady terminal, so
    of the paper's terminal deviation only the speed term is live.
    """

    mass: float = spec(1.0, "positive")
    accel_weight: float = spec(0.1, "nonneg", optional=True)
    uncertainty_weight: float = spec(0.05, "nonneg", optional=True)
    terminal_weight: float = spec(1.0, "nonneg", optional=True)

    __post_init__ = check


@dataclass(frozen=True)
class OptimizerConfig(CostWeights):
    """Cost weights plus the controls of the refinement descent.

    Only ``optimize_trajectory``/``optimize_cluster`` read the controls, and
    the simulator does not refine, so a scenario file carries only the
    weights.
    """

    max_iters: int = spec(50, "count")
    armijo_c: float = spec(1e-4, "open_unit")
    step_shrink: float = spec(0.5, "open_unit")
    grad_tol: float = spec(1e-6, "nonneg", optional=True)


@dataclass(frozen=True)
class AssistiveParams:
    """Bounded guidance shaping: pace restoring plus lateral centering.

    ``bumps`` is a tuple of (center, width, amplitude) Gaussian bumps whose
    clipped sum is the surface-irregularity factor along arc length.
    """

    target_speed: float = spec(1.0, "nonneg")
    speed_gain: float = spec(0.4, "nonneg")
    centering_gain: float = spec(0.3, "nonneg")
    damping_gain: float = spec(0.2, "nonneg")
    max_force: float = spec(3.0, "positive")
    bumps: tuple = spec((), ListOf(("finite", "length", "unit")), optional=True)

    def __post_init__(self):
        object.__setattr__(
            self, "bumps", tuple((float(c), float(w), float(a)) for c, w, a in self.bumps)
        )
        check(self)


@dataclass(frozen=True)
class InteractionParams:
    """Bounded repulsion from surrounding agents."""

    max_intensity: float = spec(2.0, "positive")
    range_scale: float = spec(0.8, "positive")
    speed_scale: float = spec(1.0, "positive")
    cutoff: float = spec(4.0, "positive")

    __post_init__ = check


@dataclass
class Neighbor:
    """Surrounding agent: Cartesian position/velocity and uncertainty trace."""

    position: np.ndarray = spec(shape=("finite", "finite"))
    velocity: np.ndarray = spec(shape=("bounded", "bounded"))
    covariance_trace: float = spec(0.0, "nonneg", optional=True)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        check(self)


@dataclass
class PlanningContext:
    """Read-only environment for one planning cycle.

    Neighbors move at constant velocity within the horizon; the uncertainty
    trace is the scenario baseline plus the neighbor covariance traces.
    """

    path: ReferencePath
    assistive: AssistiveParams
    interaction: InteractionParams
    neighbors: tuple = ()
    sigma_baseline: float = 0.0

    def sigma_trace(self) -> float:
        return float(self.sigma_baseline) + sum(
            nb.covariance_trace for nb in self.neighbors
        )


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


# --- batched force field and its state Jacobian -------------------------------
# All helpers below treat the node axis as the last axis and broadcast over
# any leading batch axes. A 2-vector is an (x, y) or (s, d) pair of arrays and
# a Jacobian is two rows (force components) of four arrays (columns s, vs, d,
# vd), so every elementwise operation runs over whole contiguous arrays rather
# than over a trailing axis of length 2.

def _assistive_batch(s, vs, d, vd, params: AssistiveParams, want_jac: bool):
    """Saturated guidance force per node; Jacobian columns are (s, vs, d, vd)."""
    beta, dbeta = _bumps(s, params)
    force = (
        -params.speed_gain * (vs - params.target_speed) * (1.0 + beta),
        -params.centering_gain * d - params.damping_gain * vd,
    )
    jac = None
    if want_jac:
        shape = np.shape(force[0])
        jac = (
            [
                -params.speed_gain * (vs - params.target_speed) * dbeta,
                -params.speed_gain * (1.0 + beta),
                np.zeros(shape),
                np.zeros(shape),
            ],
            [
                np.zeros(shape),
                np.zeros(shape),
                np.full(shape, -params.centering_gain),
                np.full(shape, -params.damping_gain),
            ],
        )

    norm = np.sqrt(force[0] * force[0] + force[1] * force[1])
    sat = norm > params.max_force
    if np.any(sat):
        scale = params.max_force / norm[sat]
        if want_jac:
            rhat = [f[sat] / norm[sat] for f in force]
            j_sat = [[j[sat] for j in row] for row in jac]
            rj = [rhat[0] * j_sat[0][z] + rhat[1] * j_sat[1][z] for z in range(4)]
            for k in range(2):
                for z in range(4):
                    jac[k][z][sat] = scale * (j_sat[k][z] - rhat[k] * rj[z])
        for f in force:
            f[sat] = f[sat] * scale
    return force, jac


def _interaction_batch(times, s, vs, d, vd, ctx: PlanningContext, want_jac: bool,
                       frame=None):
    """Repulsion projected on the local (tangent, normal) frame per node.

    The agent's Cartesian position is r(s) + d*n(s) and its velocity is
    approximated as vs*t(s) + vd*n(s); both are differentiated exactly
    against the implemented spline geometry (parameter speed included).
    ``frame`` is ``ctx.path.frame(s)`` if the caller has it already.
    """
    shape = np.shape(s)
    if not ctx.neighbors:
        jac = tuple([np.zeros(shape) for _ in range(4)] for _ in range(2)) if want_jac else None
        return (np.zeros(shape), np.zeros(shape)), jac

    (px, py), gamma, (tx, ty), (nx, ny), kappa = frame or ctx.path.frame(s)
    ax = px + d * nx
    ay = py + d * ny
    ux = vs * tx + vd * nx
    uy = vs * ty + vd * ny
    params = ctx.interaction

    fx = np.zeros(shape)
    fy = np.zeros(shape)
    if want_jac:
        # jc[z] is the pair (x, y) of the Cartesian force's derivative along z
        jc = [[np.zeros(shape), np.zeros(shape)] for _ in range(4)]
        g1 = gamma * (1.0 - d * kappa)
        dx_ds = (g1 * tx, g1 * ty)
        gk = gamma * kappa
        du_ds = (gk * (vs * nx - vd * tx), gk * (vs * ny - vd * ty))

    for nb in ctx.neighbors:
        (qx, qy), (wx, wy) = nb.position, nb.velocity
        rx = ax - (qx + times * wx)
        ry = ay - (qy + times * wy)
        r = np.sqrt(rx * rx + ry * ry)
        if np.any(r < _COINCIDENT_DIST):
            raise CoincidentNeighbor("neighbor coincides with a trajectory sample")
        active = r <= params.cutoff
        if not np.any(active):
            continue
        nhx = rx / r
        nhy = ry / r
        dux = ux - wx
        duy = uy - wy
        dv = np.sqrt(dux * dux + duy * duy)
        moving = dv > 1e-12
        safe_dv = np.where(moving, dv, 1.0)
        dvx = np.where(moving, dux / safe_dv, 0.0)
        dvy = np.where(moving, duy / safe_dv, 0.0)
        decay = np.exp(-r / params.range_scale)
        base = decay * (1.0 + dv / params.speed_scale)
        alpha = params.max_intensity * np.minimum(base, 1.0)
        act = active.astype(float)
        act_alpha = act * alpha
        fx += act_alpha * nhx
        fy += act_alpha * nhy

        if want_jac:
            pref = params.max_intensity * decay * (base < 1.0) * act
            scale_r = -pref * (1.0 + dv / params.speed_scale) / params.range_scale
            scale_v = pref / params.speed_scale
            dalpha = (
                scale_r * (nhx * dx_ds[0] + nhy * dx_ds[1])
                + scale_v * (dvx * du_ds[0] + dvy * du_ds[1]),
                scale_v * (dvx * tx + dvy * ty),
                scale_r * (nhx * nx + nhy * ny),
                scale_v * (dvx * nx + dvy * ny),
            )
            for (jx, jy), da in zip(jc, dalpha):
                jx += da * nhx
                jy += da * nhy
            # direction change: (alpha/r) (I - nhat nhat^T) dx/dz, z in {s, d}
            coef = act_alpha / r
            for z, (ex, ey) in ((0, dx_ds), (2, (nx, ny))):
                proj = nhx * ex + nhy * ey
                jc[z][0] += coef * (ex - nhx * proj)
                jc[z][1] += coef * (ey - nhy * proj)

    force = (fx * tx + fy * ty, fx * nx + fy * ny)
    if not want_jac:
        return force, None
    jac = (
        [jx * tx + jy * ty for jx, jy in jc],
        [jx * nx + jy * ny for jx, jy in jc],
    )
    # frame rotation along s: dt/ds = gamma*kappa*n, dn/ds = -gamma*kappa*t
    jac[0][0] += gk * force[1]
    jac[1][0] -= gk * force[0]
    return force, jac


def _force_field(times, s, vs, d, vd, ctx: PlanningContext, want_jac: bool, frame=None):
    """External modulation F_ext = -F_assistive + F_interaction per node."""
    f_asst, j_asst = _assistive_batch(s, vs, d, vd, ctx.assistive, want_jac)
    f_int, j_int = _interaction_batch(times, s, vs, d, vd, ctx, want_jac, frame)
    force = (f_int[0] - f_asst[0], f_int[1] - f_asst[1])
    jac = None
    if want_jac:
        jac = tuple(
            [a - b for a, b in zip(row_int, row_asst)]
            for row_int, row_asst in zip(j_int, j_asst)
        )
    return force, jac


# --- finite-difference stencils over position traces ---------------------------
# Each stencil runs along the last axis. ``first``/``last`` index the first and
# last sample of every row on it (by default the whole axis is one row), and
# ``h`` is the sample step: a scalar, or one per sample. The central rows are
# written over the whole axis first and the one-sided rows over them at each
# row's ends, so rows laid back to back (``SampleRows``) get the bits each
# would get alone.

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


def _fd_velocity_adjoint(y, h):
    g = np.zeros_like(y)
    half = y[..., 1:-1] / (2.0 * h)
    first = y[..., 0] / h
    last = y[..., -1] / h
    g[..., 2:] += half
    g[..., :-2] -= half
    g[..., 0] -= first
    g[..., 1] += first
    g[..., -1] += last
    g[..., -2] -= last
    return g


def _fd_accel_adjoint(y, h):
    # 2.0 * (y / h2) equals (2.0 * y) / h2 bitwise: doubling is exact
    h2 = h * h
    g = np.zeros_like(y)
    inner = y[..., 1:-1] / h2
    first = y[..., 0] / h2
    last = y[..., -1] / h2
    g[..., 2:] += inner
    g[..., 1:-1] -= 2.0 * inner
    g[..., :-2] += inner
    g[..., 0] += first
    g[..., 1] -= 2.0 * first
    g[..., 2] += first
    g[..., -1] += last
    g[..., -2] -= 2.0 * last
    g[..., -3] += last
    return g


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


def _fd_terms(times, ps, pd):
    """Node spacing, then velocities and accelerations of both axes."""
    h = float(times[1] - times[0])
    return h, _fd_velocity(ps, h), _fd_velocity(pd, h), _fd_accel(ps, h), _fd_accel(pd, h)


def _integrand(vs, vd, a_s, a_d, force, ctx, config):
    """Running cost per node: kinetic - modulation + accel + uncertainty."""
    return (
        0.5 * config.mass * (vs * vs + vd * vd)
        - (force[0] * vs + force[1] * vd)
        + config.accel_weight * (a_s * a_s + a_d * a_d)
        + config.uncertainty_weight * ctx.sigma_trace()
    )


def _cost_and_gradient(times, ps, pd, ctx, config):
    """Running cost and its gradient w.r.t. the free positions, both from one
    evaluation of the force field and its Jacobian."""
    h, vs, vd, a_s, a_d = _fd_terms(times, ps, pd)
    force, jac = _force_field(times, ps, vs, pd, vd, ctx, want_jac=True)
    cost = np.trapezoid(_integrand(vs, vd, a_s, a_d, force, ctx, config), times, axis=-1)

    w = np.full(len(times), h)
    w[0] = w[-1] = 0.5 * h

    direct_s = -(jac[0][0] * vs + jac[1][0] * vd)
    direct_d = -(jac[0][2] * vs + jac[1][2] * vd)
    dv_s = config.mass * vs - force[0] - (jac[0][1] * vs + jac[1][1] * vd)
    dv_d = config.mass * vd - force[1] - (jac[0][3] * vs + jac[1][3] * vd)
    da_s = 2.0 * config.accel_weight * a_s
    da_d = 2.0 * config.accel_weight * a_d

    grad_s = w * direct_s + _fd_velocity_adjoint(w * dv_s, h) + _fd_accel_adjoint(w * da_s, h)
    grad_d = w * direct_d + _fd_velocity_adjoint(w * dv_d, h) + _fd_accel_adjoint(w * da_d, h)
    lo, hi = _FIXED_EDGE, len(times) - _FIXED_EDGE
    return cost, np.stack([grad_s[..., lo:hi], grad_d[..., lo:hi]], axis=-1)


def cost_cluster(
    rows: SampleRows,
    ctx: PlanningContext,
    reference: TrajectoryCandidate | None,
    config: CostWeights,
) -> list:
    """Discretized objective of every row of ``rows``, in order: trapezoid of
    the running cost plus the weighted terminal deviation against
    ``reference``, in one pass over the rows (their frame, if they have one,
    serves the agents' force, and their terminal matrix the terminal term).

    Velocities and accelerations are re-derived from the sampled positions so
    the value is a pure function of the position trace (the optimizer's own
    discretization); that keeps descent comparisons exact. Every step is
    elementwise along a row or a sum over it, so a candidate's cost does not
    depend on the rest of the cluster.
    """
    if not len(rows):
        return []
    ps, pd, h, first, last = rows.s, rows.d, rows.h, rows.starts, rows.last
    vs = _fd_velocity(ps, h, first, last)
    vd = _fd_velocity(pd, h, first, last)
    a_s = _fd_accel(ps, h, first, last)
    a_d = _fd_accel(pd, h, first, last)
    force, _ = _force_field(rows.times, ps, vs, pd, vd, ctx, False, rows.frame)
    running = rows.trapezoid(_integrand(vs, vd, a_s, a_d, force, ctx, config))
    terminal = terminal_deviation(rows.terminals, reference, config.terminal_weight)
    return (running + terminal).tolist()


def total_cost(
    candidate: TrajectoryCandidate,
    ctx: PlanningContext,
    reference: TrajectoryCandidate | None,
    config: CostWeights,
) -> float:
    """``cost_cluster`` of one candidate."""
    return cost_cluster(SampleRows.of([candidate]), ctx, reference, config)[0]


def cost_gradient(
    candidate: TrajectoryCandidate,
    ctx: PlanningContext,
    config: CostWeights,
    positions: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of the discretized cost w.r.t. free positions.

    Free positions are the samples between the fixed two-node boundary
    buffers; returns shape (n_samples - 4, 2) with columns (longitudinal,
    lateral). The terminal term depends only on the fixed endpoint
    and thus contributes nothing.
    """
    if positions is None:
        ps = candidate.states[:, 0].copy()
        pd = candidate.states[:, 3].copy()
    else:
        ps = positions[:, 0]
        pd = positions[:, 1]
    return _cost_and_gradient(candidate.times, ps, pd, ctx, config)[1]


def _descend(times, ps, pd, ctx, config, terminal):
    """Armijo descent of one position trace over its free samples.

    ``ps``/``pd`` have shape (n_samples,) and are not written; ``terminal``
    is the constant terminal term. Stops on the gradient tolerance, the iteration cap or a
    failed line search. Each trial point is evaluated once, for its cost and
    gradient together; an accepted point carries that gradient into the next
    iteration. Returns the positions and the cost history.
    """
    cur, grad = _cost_and_gradient(times, ps, pd, ctx, config)
    cur = cur + terminal
    history = [float(cur)]
    n_nodes = len(times)
    if config.max_iters == 0 or n_nodes <= 2 * _FIXED_EDGE:
        return ps, pd, history

    h = float(times[1] - times[0])
    # Fixed step at the curvature scale of the acceleration penalty
    # (second-difference stencil norm ~4/h^2). Growing the step beyond this
    # is Armijo-acceptable but amplifies the stiff modes and shows up as
    # acceleration noise, so the cap is kept every iteration.
    step0 = 1.0 / (1.0 + 32.0 * config.accel_weight / h**3 + config.mass / h)
    lo, hi = _FIXED_EDGE, n_nodes - _FIXED_EDGE

    for _ in range(config.max_iters):
        gnorm2 = np.sum(grad * grad)
        if not np.sqrt(gnorm2) > config.grad_tol:
            break
        alpha = step0
        for _ in range(_MAX_BACKTRACKS):
            ps_try = ps.copy()
            pd_try = pd.copy()
            ps_try[lo:hi] -= alpha * grad[:, 0]
            pd_try[lo:hi] -= alpha * grad[:, 1]
            cost, grad_try = _cost_and_gradient(times, ps_try, pd_try, ctx, config)
            cost = cost + terminal
            if cost <= cur - config.armijo_c * alpha * gnorm2:
                break
            alpha *= config.step_shrink
        else:
            break
        ps, pd, cur, grad = ps_try, pd_try, cost, grad_try
        history.append(float(cur))
    return ps, pd, history


def _rebuild_candidate(candidate, ps, pd, history) -> TrajectoryCandidate:
    """Candidate with refined positions; interior derivatives by central
    differences, endpoint rows kept at the original boundary values."""
    h = candidate.dt
    states = candidate.states.copy()
    states[:, 0] = ps
    states[:, 3] = pd
    states[1:-1, 1] = _fd_velocity(ps, h)[1:-1]
    states[1:-1, 2] = _fd_accel(ps, h)[1:-1]
    states[1:-1, 4] = _fd_velocity(pd, h)[1:-1]
    states[1:-1, 5] = _fd_accel(pd, h)[1:-1]
    states[0] = candidate.states[0]
    states[-1] = candidate.states[-1]
    return replace(
        candidate,
        states=states,
        jerk_lon=fd_gradient(states[:, 2], h),
        jerk_lat=fd_gradient(states[:, 5], h),
        cost=history[-1],
        cost_history=history,
        optimized=True,
    )


def optimize_trajectory(
    candidate: TrajectoryCandidate,
    ctx: PlanningContext,
    reference: TrajectoryCandidate | None,
    config: OptimizerConfig,
) -> TrajectoryCandidate:
    """Refine free position samples by Armijo-backtracked descent.

    Always returns a valid candidate annotated with ``cost`` and
    ``cost_history`` (actual objective values, non-increasing); terminates on
    the gradient tolerance, the iteration cap, or a failed line search.
    """
    terminal = terminal_deviation(candidate.states[-1:], reference, config.terminal_weight)[0]
    ps, pd, history = _descend(
        candidate.times, candidate.states[:, 0], candidate.states[:, 3], ctx, config, terminal
    )
    if len(history) > 1:
        return _rebuild_candidate(candidate, ps, pd, history)
    refined = candidate.copy()
    refined.cost = history[0]
    refined.cost_history = history
    return refined


def optimize_cluster(
    candidates,
    ctx: PlanningContext,
    reference: TrajectoryCandidate | None,
    config: OptimizerConfig,
):
    """``optimize_trajectory`` of each candidate, in input order."""
    return [optimize_trajectory(c, ctx, reference, config) for c in candidates]
