"""Quintic boundary-value solutions and terminal-configuration sampling.

Longitudinal motion s(t) is a quintic in time; lateral motion d(sigma) is a
quintic in the longitudinal displacement sigma = s - s(0), converted to time
derivatives through the chain rule when sampling. A quintic is the float
(6,) array of its monomial coefficients c0..c5 over its native abscissa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EmptyCluster,
    IllConditioned,
    InvalidLateralOffset,
    NonPositiveSpan,
    PathTooShort,
)
from .frenet_geometry import FrenetState, ReferencePath, _check_s
from .schema import SPAN, ListOf, check, spec

# Below this longitudinal speed the lateral spatial derivatives of the initial
# state are taken as zero (the d(s) parameterization degenerates at rest).
_SLOW_SPEED = 1e-9

_COND_LIMIT = 1e12


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


def eval_quintic(c, x):
    """Value and first three derivatives of c0 + c1 x + ... + c5 x^5 (Horner).

    ``c`` holds one quintic's six coefficients, with a scalar or an array
    abscissa ``x``, or a (6, k, 1) batch of k quintics as columns over (k, n)
    abscissae; each element takes the same operations either way.
    Extrapolation is permitted.
    """
    c0, c1, c2, c3, c4, c5 = c
    value = ((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0
    d1 = (((5 * c5 * x + 4 * c4) * x + 3 * c3) * x + 2 * c2) * x + c1
    d2 = ((20 * c5 * x + 12 * c4) * x + 6 * c3) * x + 2 * c2
    d3 = (60 * c5 * x + 24 * c4) * x + 6 * c3
    return value, d1, d2, d3


@dataclass(frozen=True)
class SamplingGrid:
    """Terminal-configuration grid: speeds x lateral offsets x horizons.

    ``cycle_jitter`` is the half-width of a seeded uniform perturbation the
    simulator applies to speeds and offsets each replanning cycle, modeling
    independent terminal sampling per cycle; zero disables it. It is at
    most 1 (m/s, m): sampling noise on the grid, not a change of its scale.
    """

    terminal_speeds: tuple = spec(shape=ListOf("finite", 1))
    lateral_offsets: tuple = spec(shape=ListOf("bounded", 1))
    horizons: tuple = spec(shape=ListOf("positive", 1))
    dt: float = spec(0.05, "positive")
    cycle_jitter: float = spec(0.0, "unit", optional=True)

    def __post_init__(self):
        object.__setattr__(self, "terminal_speeds", tuple(float(v) for v in self.terminal_speeds))
        object.__setattr__(self, "lateral_offsets", tuple(float(v) for v in self.lateral_offsets))
        object.__setattr__(self, "horizons", tuple(float(v) for v in self.horizons))
        check(self)
        if min(self.horizons) < 4 * self.dt:
            raise ValueError("horizons: must be at least 4*dt")

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


@dataclass
class TrajectoryCandidate:
    """One sampled trajectory: paired quintics plus the discretized states.

    ``lon`` holds the coefficients c0..c5 of s(t) and ``lat`` those of
    d(sigma) over [0, ``lat_span``], each a float (6,) array that candidates
    sharing a solve share. ``states`` rows are [s, s_dot, s_ddot, d, d_dot,
    d_ddot] at ``times``; ``jerk_lon``/``jerk_lat`` hold the per-sample
    third time derivatives (polynomial-exact at generation,
    finite-difference after refinement).
    """

    lon: np.ndarray
    lat: np.ndarray
    lat_span: float
    horizon: float
    times: np.ndarray
    states: np.ndarray
    jerk_lon: np.ndarray
    jerk_lat: np.ndarray
    grid_key: tuple = ()
    cost: Optional[float] = None
    cost_history: Optional[list] = None
    optimized: bool = False

    @property
    def initial(self) -> FrenetState:
        return FrenetState.from_array(self.states[0])

    @property
    def terminal(self) -> FrenetState:
        return FrenetState.from_array(self.states[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def copy(self) -> "TrajectoryCandidate":
        return replace(
            self,
            times=self.times.copy(),
            states=self.states.copy(),
            jerk_lon=self.jerk_lon.copy(),
            jerk_lat=self.jerk_lat.copy(),
            cost_history=None if self.cost_history is None else list(self.cost_history),
        )


@dataclass
class TrajectoryCluster:
    """Candidate set sharing one initial state, with a designated reference."""

    candidates: list
    reference_index: int
    initial: FrenetState
    spacing_budget_exhausted: bool = False

    def terminal_matrix(self) -> np.ndarray:
        return np.stack([c.states[-1] for c in self.candidates])


def _lateral_boundary_from_time(initial: FrenetState):
    """Initial (d, d', d'') in the spatial parameterization."""
    s_dot = initial.s_dot
    if abs(s_dot) < _SLOW_SPEED:
        return initial.d, 0.0, 0.0
    dp = initial.d_dot / s_dot
    dpp = (initial.d_ddot - dp * initial.s_ddot) / (s_dot * s_dot)
    return initial.d, dp, dpp


class CandidateSpec(NamedTuple):
    """Steady terminal configuration of one candidate and its horizon."""

    terminal_s: float
    terminal_speed: float
    lateral_offset: float
    horizon: float
    grid_key: tuple = ()


def _sample(
    initial: FrenetState,
    horizon: float,
    dt: float,
    specs: Sequence[CandidateSpec],
    lon: Sequence[np.ndarray],
    lat: Sequence[np.ndarray],
    lat_spans: Sequence[float],
) -> list:
    """Sample candidates sharing one horizon as (k, n) arrays: spec i with
    the coefficient rows ``lon[i]`` and ``lat[i]`` over ``lat_spans[i]``.

    Returns one candidate per spec, in order, or None where the
    longitudinal samples dip. Each candidate's arrays are rows of blocks
    shared by the batch: disjoint memory, states a row of one (k, n, 6) block.
    """
    n = max(4, int(round(horizon / dt)))
    times = np.linspace(0.0, horizon, n + 1)
    s, s_dot, s_ddot, s_jerk = eval_quintic(np.array(lon).T[:, :, None], times)
    dips = np.any(np.diff(s, axis=1) < -1e-10, axis=1)
    d, dp, dpp, dppp = eval_quintic(np.array(lat).T[:, :, None], s - initial.s)
    d_dot = dp * s_dot
    d_ddot = dpp * s_dot**2 + dp * s_ddot
    d_jerk = dppp * s_dot**3 + 3.0 * dpp * s_dot * s_ddot + dp * s_jerk

    states = np.stack((s, s_dot, s_ddot, d, d_dot, d_ddot), axis=2)
    states[:, 0] = initial.as_array()  # shared initial state, exactly
    # Snap the terminal sample to the imposed boundary (solver residual is
    # ~1e-13); exact terminals keep sorting ties and de-duplication stable.
    states[:, -1] = [
        (x.terminal_s, x.terminal_speed, 0.0, x.lateral_offset, 0.0, 0.0) for x in specs
    ]
    times = np.tile(times, (len(specs), 1))
    return [
        None
        if dips[i]
        else TrajectoryCandidate(
            lon=lon[i],
            lat=lat[i],
            lat_span=lat_spans[i],
            horizon=horizon,
            times=times[i],
            states=states[i],
            jerk_lon=s_jerk[i],
            jerk_lat=d_jerk[i],
            grid_key=x.grid_key,
        )
        for i, x in enumerate(specs)
    ]


def build_candidates(
    initial: FrenetState, specs: Sequence[CandidateSpec], dt: float
) -> list:
    """Solve both quintics toward each spec's steady terminal and sample them.

    Terminal acceleration and lateral rates are zero (steady-terminal
    convention). Returns one entry per spec, in order: the candidate, or None
    for a non-forward one (nonpositive longitudinal span or a sampled dip in
    s). Every spec is solved first, in order, so the first ill-conditioned
    one raises; specs sharing (terminal s, terminal speed, horizon) share one
    longitudinal solve. Then each horizon's candidates are sampled in one
    batch.
    """
    boundary = _lateral_boundary_from_time(initial)
    lon_solves: dict = {}
    by_horizon: dict = {}
    for i, target in enumerate(specs):
        span = target.terminal_s - initial.s
        if span <= 0.0:
            continue
        key = (target.terminal_s, target.terminal_speed, target.horizon)
        lon = lon_solves.get(key)
        if lon is None:
            lon = lon_solves[key] = solve_quintic(
                (initial.s, initial.s_dot, initial.s_ddot),
                (target.terminal_s, target.terminal_speed, 0.0),
                target.horizon,
            )
        lat = solve_quintic(boundary, (target.lateral_offset, 0.0, 0.0), span)
        by_horizon.setdefault(target.horizon, []).append((i, target, lon, lat, span))
    out = [None] * len(specs)
    for horizon, group in by_horizon.items():
        index, group_specs, lon, lat, spans = zip(*group)
        for i, cand in zip(index, _sample(initial, horizon, dt, group_specs, lon, lat, spans)):
            out[i] = cand
    return out


def build_candidate(
    initial: FrenetState,
    terminal_s: float,
    terminal_speed: float,
    lateral_offset: float,
    horizon: float,
    dt: float,
    grid_key: tuple = (),
) -> Optional[TrajectoryCandidate]:
    """One candidate toward a steady terminal (``build_candidates``), or
    None if it is not forward."""
    target = CandidateSpec(terminal_s, terminal_speed, lateral_offset, horizon, grid_key)
    return build_candidates(initial, [target], dt)[0]


def generate_cluster(
    initial: FrenetState, path: ReferencePath, grid: SamplingGrid
) -> TrajectoryCluster:
    """One candidate per grid triple, ordered by (horizon, speed, offset),
    built by ``build_candidates``.

    Terminal longitudinal position follows the trapezoidal progress
    heuristic s_T = s_0 + (s_dot_0 + v_T)/2 * horizon; triples with
    nonpositive progress are discarded.
    """
    _check_s(path, initial.s)
    kappa = float(path.curvature(initial.s))
    if kappa != 0.0 and abs(initial.d) * abs(kappa) >= 1.0:
        raise InvalidLateralOffset("initial state outside the path validity tube")

    specs = []
    for horizon in sorted(grid.horizons):
        for speed in sorted(grid.terminal_speeds):
            terminal_s = initial.s + 0.5 * (initial.s_dot + speed) * horizon
            if terminal_s - initial.s <= 0.0:
                continue
            if terminal_s > path.total_length:
                # the triples before this pair are solved first, so an
                # ill-conditioned one among them raises instead
                build_candidates(initial, specs, grid.dt)
                raise PathTooShort(
                    f"terminal s={terminal_s:.3f} beyond path end "
                    f"{path.total_length:.3f} (speed {speed}, horizon {horizon})"
                )
            specs += [
                CandidateSpec(terminal_s, speed, offset, horizon, (horizon, speed, offset))
                for offset in sorted(grid.lateral_offsets)
            ]
    candidates = [c for c in build_candidates(initial, specs, grid.dt) if c is not None]
    if not candidates:
        raise EmptyCluster("all grid triples were discarded")
    return TrajectoryCluster(candidates=candidates, reference_index=0, initial=initial)


def integrated_squared_jerk(coeffs, span: float) -> float:
    """Exact integral of the squared third derivative over [0, span]."""
    poly = np.polynomial.Polynomial(coeffs)
    jerk = poly.deriv(3)
    return float((jerk * jerk).integ()(span) - (jerk * jerk).integ()(0.0))
