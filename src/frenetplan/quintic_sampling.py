"""Quintic boundary-value solutions and terminal-configuration sampling.

Longitudinal motion s(t) is a quintic in time; lateral motion d(sigma) is a
quintic in the longitudinal displacement sigma = s - s(0), converted to time
derivatives through the chain rule when sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple, Optional

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

if TYPE_CHECKING:  # pragma: no cover
    from .evaluation import FeasibilityReport

# Below this longitudinal speed the lateral spatial derivatives of the initial
# state are taken as zero (the d(s) parameterization degenerates at rest).
_SLOW_SPEED = 1e-9

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class QuinticCoeffs:
    """Monomial coefficients c0..c5 over the native abscissa."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))


def solve_quintic(b0, bT, span) -> QuinticCoeffs:
    """Unique quintic matching (value, d1, d2) at abscissa 0 and at ``span``.

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
    return QuinticCoeffs(np.array([c0, c1, c2, c3, c4, c5]))


def eval_quintic(coeffs: QuinticCoeffs, x):
    """Evaluate the polynomial and its first three derivatives (Horner).

    Accepts a scalar or an array abscissa; extrapolation is permitted.
    """
    c0, c1, c2, c3, c4, c5 = coeffs.c
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

    ``states`` rows are [s, s_dot, s_ddot, d, d_dot, d_ddot] at ``times``;
    ``jerk_lon``/``jerk_lat`` hold the per-sample third time derivatives
    (polynomial-exact at generation, finite-difference after refinement).
    """

    lon: QuinticCoeffs
    lat: QuinticCoeffs
    lat_span: float
    horizon: float
    times: np.ndarray
    states: np.ndarray
    jerk_lon: np.ndarray
    jerk_lat: np.ndarray
    grid_key: tuple = ()
    cost: Optional[float] = None
    feasibility: Optional["FeasibilityReport"] = None
    regulation_energy: Optional[float] = None
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


class _Longitudinal(NamedTuple):
    """Longitudinal quintic toward one steady terminal, sampled on the
    horizon grid; every lateral offset at this (horizon, speed) shares it."""

    lon: QuinticCoeffs
    terminal_s: float
    terminal_speed: float
    horizon: float
    times: np.ndarray
    s: np.ndarray
    s_dot: np.ndarray
    s_ddot: np.ndarray
    s_jerk: np.ndarray
    dips: bool


def _longitudinal(
    initial: FrenetState,
    terminal_s: float,
    terminal_speed: float,
    horizon: float,
    dt: float,
) -> _Longitudinal:
    lon = solve_quintic(
        (initial.s, initial.s_dot, initial.s_ddot),
        (terminal_s, terminal_speed, 0.0),
        horizon,
    )
    n = max(4, int(round(horizon / dt)))
    times = np.linspace(0.0, horizon, n + 1)
    s, s_dot, s_ddot, s_jerk = eval_quintic(lon, times)
    dips = bool(np.any(np.diff(s) < -1e-10))
    return _Longitudinal(
        lon, terminal_s, terminal_speed, horizon, times, s, s_dot, s_ddot, s_jerk, dips
    )


def _with_lateral(
    initial: FrenetState,
    lng: _Longitudinal,
    lateral_offset: float,
    grid_key: tuple,
) -> Optional[TrajectoryCandidate]:
    """Solve the lateral quintic over the longitudinal span and sample the
    candidate; None when the shared longitudinal samples dip."""
    span = lng.terminal_s - initial.s
    d0, dp0, dpp0 = _lateral_boundary_from_time(initial)
    lat = solve_quintic((d0, dp0, dpp0), (lateral_offset, 0.0, 0.0), span)
    # tested after the lateral solve, so an ill-conditioned span raises even
    # where s dips
    if lng.dips:
        return None
    s, s_dot, s_ddot, s_jerk = lng.s, lng.s_dot, lng.s_ddot, lng.s_jerk
    sigma = s - initial.s
    d, dp, dpp, dppp = eval_quintic(lat, sigma)
    d_dot = dp * s_dot
    d_ddot = dpp * s_dot**2 + dp * s_ddot
    d_jerk = dppp * s_dot**3 + 3.0 * dpp * s_dot * s_ddot + dp * s_jerk

    states = np.column_stack([s, s_dot, s_ddot, d, d_dot, d_ddot])
    states[0] = initial.as_array()  # shared initial state, exactly
    # Snap the terminal sample to the imposed boundary (solver residual is
    # ~1e-13); exact terminals keep sorting ties and de-duplication stable.
    states[-1] = (lng.terminal_s, lng.terminal_speed, 0.0, lateral_offset, 0.0, 0.0)
    return TrajectoryCandidate(
        lon=lng.lon,
        lat=lat,
        lat_span=span,
        horizon=lng.horizon,
        times=lng.times.copy(),
        states=states,
        jerk_lon=lng.s_jerk.copy(),
        jerk_lat=d_jerk,
        grid_key=grid_key,
    )


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
    if terminal_s - initial.s <= 0.0:
        return None
    lng = _longitudinal(initial, terminal_s, terminal_speed, horizon, dt)
    return _with_lateral(initial, lng, lateral_offset, grid_key)


def generate_cluster(
    initial: FrenetState, path: ReferencePath, grid: SamplingGrid
) -> TrajectoryCluster:
    """One candidate per grid triple, ordered by (horizon, speed, offset).

    Terminal longitudinal position follows the trapezoidal progress
    heuristic s_T = s_0 + (s_dot_0 + v_T)/2 * horizon; triples with
    nonpositive progress are discarded. The longitudinal quintic of each
    (horizon, speed) pair is solved and sampled once for all offsets.
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
            lng = _longitudinal(initial, terminal_s, speed, horizon, grid.dt)
            for offset in sorted(grid.lateral_offsets):
                cand = _with_lateral(initial, lng, offset, (horizon, speed, offset))
                if cand is not None:
                    candidates.append(cand)
    if not candidates:
        raise EmptyCluster("all grid triples were discarded")
    return TrajectoryCluster(candidates=candidates, reference_index=0, initial=initial)


def integrated_squared_jerk(coeffs: QuinticCoeffs, span: float) -> float:
    """Exact integral of the squared third derivative over [0, span]."""
    poly = np.polynomial.Polynomial(coeffs.c)
    jerk = poly.deriv(3)
    return float((jerk * jerk).integ()(span) - (jerk * jerk).integ()(0.0))
