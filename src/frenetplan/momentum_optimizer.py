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
from .quintic_sampling import RowEnds, SampleRows, TrajectoryCandidate
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


def _bumps(s, params: AssistiveParams, want_jac: bool):
    """Clipped Gaussian-bump sum beta(s) in [0, 1] and, with ``want_jac``,
    its derivative (else None)."""
    s = np.asarray(s, dtype=float)
    beta = np.zeros_like(s)
    dbeta = np.zeros_like(s) if want_jac else None
    for center, width, amp in params.bumps:
        g = amp * np.exp(-0.5 * ((s - center) / width) ** 2)
        beta += g
        if want_jac:
            dbeta += g * (-(s - center) / width**2)
    over = beta > 1.0
    beta[over] = 1.0
    if want_jac:
        dbeta[over] = 0.0
    return beta, dbeta


# --- batched force field and its state Jacobian -------------------------------
# All helpers below treat the node axis as the last axis and broadcast over
# any leading batch axes. A 2-vector is an (x, y) or (s, d) pair of arrays and
# a Jacobian is two rows (force components) of four arrays (columns s, vs, d,
# vd), so every elementwise operation runs over whole contiguous arrays rather
# than over a trailing axis of length 2. There is one force law: without
# ``want_jac`` (the simulator's cost) no Jacobian term is built at all, and
# with it (refinement: ``cost_gradient``, ``optimize_*``) the Jacobian is
# assembled beside the same force.

def _assistive_batch(s, vs, d, vd, params: AssistiveParams, want_jac: bool):
    """Saturated guidance force per node; Jacobian columns are (s, vs, d, vd)."""
    beta, dbeta = _bumps(s, params, want_jac)
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
    ``frame`` is ``ctx.path.frame(s)`` if the caller has it already. Each
    neighbour's terms are written into one set of node arrays that every
    neighbour reuses.
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

    nhx, nhy, r, dv, decay, alpha = (np.empty(shape) for _ in range(6))
    for nb in ctx.neighbors:
        (qx, qy), (wx, wy) = nb.position, nb.velocity
        # the offset a - (q + times * w), normalized in place below
        for rel, a, q, w in ((nhx, ax, qx, wx), (nhy, ay, qy, wy)):
            np.multiply(times, w, out=rel)
            np.add(rel, q, out=rel)
            np.subtract(a, rel, out=rel)
        np.multiply(nhx, nhx, out=r)
        np.add(r, np.multiply(nhy, nhy, out=dv), out=r)
        np.sqrt(r, out=r)
        if np.any(r < _COINCIDENT_DIST):
            raise CoincidentNeighbor("neighbor coincides with a trajectory sample")
        active = r <= params.cutoff
        if not np.any(active):
            continue
        np.divide(nhx, r, out=nhx)
        np.divide(nhy, r, out=nhy)
        # dv = |u - w|, decay = exp(-r / range_scale)
        np.subtract(ux, wx, out=dv)
        np.multiply(dv, dv, out=dv)
        np.subtract(uy, wy, out=alpha)
        np.add(dv, np.multiply(alpha, alpha, out=alpha), out=dv)
        np.sqrt(dv, out=dv)
        np.exp(np.divide(np.negative(r, out=decay), params.range_scale, out=decay), out=decay)
        # alpha = max_intensity * min(base, 1), zero beyond the cutoff, over
        # base = decay * (1 + dv / speed_scale)
        np.add(np.divide(dv, params.speed_scale, out=alpha), 1.0, out=alpha)
        np.multiply(decay, alpha, out=alpha)
        if want_jac:
            unclamped = alpha < 1.0  # where alpha follows base
        np.multiply(params.max_intensity, np.minimum(alpha, 1.0, out=alpha), out=alpha)
        np.multiply(active, alpha, out=alpha)

        if want_jac:
            dux = ux - wx
            duy = uy - wy
            moving = dv > 1e-12
            safe_dv = np.where(moving, dv, 1.0)
            dvx = np.where(moving, dux / safe_dv, 0.0)
            dvy = np.where(moving, duy / safe_dv, 0.0)
            pref = params.max_intensity * decay * unclamped * active
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
            coef = alpha / r
            for z, (ex, ey) in ((0, dx_ds), (2, (nx, ny))):
                proj = nhx * ex + nhy * ey
                jc[z][0] += coef * (ex - nhx * proj)
                jc[z][1] += coef * (ey - nhy * proj)

        fx += np.multiply(alpha, nhx, out=nhx)
        fy += np.multiply(alpha, nhy, out=nhy)

    # the (tangent, normal) components, written over the buffers
    force = (
        np.add(np.multiply(fx, tx, out=r), np.multiply(fy, ty, out=dv), out=r),
        np.add(np.multiply(fx, nx, out=decay), np.multiply(fy, ny, out=alpha), out=decay),
    )
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
    # the interaction first: its per-node buffers are freed before the
    # assistive force is built, so the two never hold memory at once
    f_int, j_int = _interaction_batch(times, s, vs, d, vd, ctx, want_jac, frame)
    f_asst, j_asst = _assistive_batch(s, vs, d, vd, ctx.assistive, want_jac)
    # the interaction's arrays are its own: the difference overwrites them
    force = tuple(np.subtract(fi, fa, out=fi) for fi, fa in zip(f_int, f_asst))
    jac = None
    if want_jac:
        jac = tuple(
            [a - b for a, b in zip(row_int, row_asst)]
            for row_int, row_asst in zip(j_int, j_asst)
        )
    return force, jac


# --- finite-difference stencils over position traces ---------------------------
# Each stencil runs over a 1-D axis of rows laid back to back, given the
# rows' ``RowEnds``, set up once per layout: ``SampleRows.row_ends``, or
# ``RowEnds.of([h], [0], [n])`` for one trace of n samples at step h. The
# central rows are written over the whole axis first, in place, and the
# one-sided rows over them at every row end in one gather and one scatter,
# so rows laid back to back get the bits each would get alone.

def _fd_velocity(p, ends: RowEnds):
    v = np.empty_like(p)
    inner = v[1:-1]
    np.divide(np.subtract(p[2:], p[:-2], out=inner), ends.h2[1:-1], out=inner)
    x = p.take(ends.vel)
    v[ends.at] = (x[1] - x[0]) / ends.h_at
    return v


def _fd_accel(p, ends: RowEnds):
    a = np.empty_like(p)
    inner = a[1:-1]
    # (p[2:] - 2 p[1:-1] + p[:-2]) / h^2
    np.subtract(p[2:], np.multiply(p[1:-1], 2.0, out=inner), out=inner)
    np.divide(np.add(inner, p[:-2], out=inner), ends.hh[1:-1], out=inner)
    x = p.take(ends.acc)
    a[ends.at] = (x[0] - 2.0 * x[1] + x[2]) / ends.hh_at
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


def fd_gradient(f, ends: RowEnds):
    """``np.gradient(f, h, edge_order=2)`` of each row of the 1-D axis ``f``
    that ``ends`` sets up, term for term: central differences inside,
    second-order one-sided differences at the row's ends, on the row's
    uniform spacing ``h`` (each row gets the bits of its own 1-D
    gradient)."""
    out = np.empty_like(f)
    inner = out[1:-1]
    np.divide(np.subtract(f[2:], f[:-2], out=inner), ends.h2[1:-1], out=inner)
    x = f.take(ends.grad) * ends.grad_coef
    out[ends.at] = x[0] + x[1] + x[2]
    return out


def _integrand(vs, vd, a_s, a_d, force, ctx, config):
    """Running cost per node: kinetic - modulation + accel + uncertainty;
    ``a_s``/``a_d`` are read only for a nonzero ``accel_weight``: the sum
    before that term is never -0.0, so skipping it at 0.0 changes no bit."""
    run = 0.5 * config.mass * (vs * vs + vd * vd) - (force[0] * vs + force[1] * vd)
    if config.accel_weight:
        run = run + config.accel_weight * (a_s * a_s + a_d * a_d)
    return run + config.uncertainty_weight * ctx.sigma_trace()


def _cost_and_gradient(times, ps, pd, ctx, config, ends: RowEnds):
    """Running cost and its gradient w.r.t. the free positions, both from one
    evaluation of the force field and its Jacobian; ``ends`` is the trace's
    stencil set-up."""
    h = float(times[1] - times[0])
    vs = _fd_velocity(ps, ends)
    vd = _fd_velocity(pd, ends)
    a_s = _fd_accel(ps, ends)
    a_d = _fd_accel(pd, ends)
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
    frame: tuple | None = None,
) -> list:
    """Discretized objective of every row of ``rows``, in order: trapezoid of
    the running cost plus the weighted terminal deviation against
    ``reference``, in one pass over the rows (their terminal matrix serves
    the terminal term). ``frame`` is ``ctx.path.frame(rows.s)`` if the
    caller has it already; the agents' force reads its position, tangent
    and normal, and evaluates it itself otherwise.

    Velocities and accelerations are re-derived from the sampled positions so
    the value is a pure function of the position trace (the optimizer's own
    discretization); that keeps descent comparisons exact. Every step is
    elementwise along a row or a sum over it, so a candidate's cost does not
    depend on the rest of the cluster. The baseline's zero weights cost
    nothing to compute: a zero ``accel_weight`` takes no accelerations, and
    a ``reference`` of None gives zero terminal terms.
    """
    if not len(rows):
        return []
    ends, ps, pd = rows.row_ends, rows.s, rows.d
    vs = _fd_velocity(ps, ends)
    vd = _fd_velocity(pd, ends)
    force, _ = _force_field(rows.times, ps, vs, pd, vd, ctx, False, frame)
    a_s = a_d = None
    if config.accel_weight:
        a_s, a_d = _fd_accel(ps, ends), _fd_accel(pd, ends)
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
    ends = RowEnds.of([candidate.dt], [0], [len(ps)])
    return _cost_and_gradient(candidate.times, ps, pd, ctx, config, ends)[1]


def _descend(times, ps, pd, ctx, config, terminal):
    """Armijo descent of one position trace over its free samples.

    ``ps``/``pd`` have shape (n_samples,) and are not written; ``terminal``
    is the constant terminal term. Stops on the gradient tolerance, the iteration cap or a
    failed line search. Each trial point is evaluated once, for its cost and
    gradient together; an accepted point carries that gradient into the next
    iteration. Returns the positions and the cost history.
    """
    h = float(times[1] - times[0])
    n_nodes = len(times)
    ends = RowEnds.of([h], [0], [n_nodes])
    cur, grad = _cost_and_gradient(times, ps, pd, ctx, config, ends)
    cur = cur + terminal
    history = [float(cur)]
    if config.max_iters == 0 or n_nodes <= 2 * _FIXED_EDGE:
        return ps, pd, history

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
            cost, grad_try = _cost_and_gradient(times, ps_try, pd_try, ctx, config, ends)
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
    ends = RowEnds.of([candidate.dt], [0], [len(ps)])
    states = candidate.states.copy()
    states[:, 0] = ps
    states[:, 3] = pd
    states[1:-1, 1] = _fd_velocity(ps, ends)[1:-1]
    states[1:-1, 2] = _fd_accel(ps, ends)[1:-1]
    states[1:-1, 4] = _fd_velocity(pd, ends)[1:-1]
    states[1:-1, 5] = _fd_accel(pd, ends)[1:-1]
    states[0] = candidate.states[0]
    states[-1] = candidate.states[-1]
    return replace(
        candidate,
        states=states,
        jerk_lon=fd_gradient(states[:, 2], ends),
        jerk_lat=fd_gradient(states[:, 5], ends),
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
