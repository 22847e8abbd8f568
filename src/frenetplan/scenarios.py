"""Bundled synthetic scenarios.

Three desk-scale stand-ins for structured low-speed navigation: a straight
corridor with one crossing agent, a curved corridor with surface bumps, and
a narrow corridor with two oncoming agents. The seed jitters sampling grids,
agent placement, and the initial state so each scenario yields a family of
deterministic variants.
"""

from __future__ import annotations

import numpy as np

from .endpoint_regulation import RegulationConfig
from .evaluation import KinematicLimits
from .frenet_geometry import FrenetState
from .momentum_optimizer import AssistiveParams, CostWeights, InteractionParams, Neighbor
from .quintic_sampling import SamplingGrid
from .replanning_sim import Scenario, SimSettings, Uncertainty

_DT = 0.05
_HORIZONS = (2.0, 3.0)

# The pull toward the reference terminal speed has to outweigh the mild
# slow-speed bias of the running cost for pace holding; see
# test_executed_pace_converges_to_target.
_REGULATION = dict(max_gap=0.7, min_gap=0.2)
_TERMINAL_WEIGHT = 8.0


def _straight_waypoints(length: float, step: float = 0.5) -> np.ndarray:
    n = int(round(length / step))
    x = np.linspace(0.0, length, n + 1)
    return np.column_stack([x, np.zeros_like(x)])


def _curved_waypoints(lead: float = 6.0, radius: float = 5.0, tail: float = 6.0) -> np.ndarray:
    """Straight lead-in, quarter circle turning left, straight tail."""
    step = 0.4
    xs = np.arange(0.0, lead, step)
    pts = [np.column_stack([xs, np.zeros_like(xs)])]
    phi = np.linspace(-np.pi / 2, 0.0, int(round(radius * np.pi / 2 / step)) + 1)
    pts.append(np.column_stack([lead + radius * np.cos(phi), radius + radius * np.sin(phi)]))
    ys = np.arange(step, tail + step / 2, step)
    pts.append(np.column_stack([np.full_like(ys, lead + radius), radius + ys]))
    return np.vstack(pts)


def _common(
    name: str,
    waypoints: np.ndarray,
    initial_state: FrenetState,
    agents: list,
    grid: SamplingGrid,
    n_cycles: int,
    seed: int,
    bumps: tuple = (),
    baseline_trace: float = 0.05,
) -> Scenario:
    return Scenario(
        name=name,
        waypoints=waypoints,
        initial_state=initial_state,
        agents=agents,
        limits=KinematicLimits(v_max=1.2),
        grid=grid,
        regulation=RegulationConfig(**_REGULATION),
        cost=CostWeights(
            mass=1.0,
            accel_weight=0.25,
            uncertainty_weight=0.05,
            terminal_weight=_TERMINAL_WEIGHT,
        ),
        assistive=AssistiveParams(
            target_speed=1.0,
            speed_gain=0.5,
            centering_gain=0.3,
            damping_gain=0.2,
            max_force=3.0,
            bumps=bumps,
        ),
        interaction=InteractionParams(
            max_intensity=2.0, range_scale=0.8, speed_scale=1.0, cutoff=4.0
        ),
        uncertainty=Uncertainty(baseline_trace=baseline_trace),
        sim=SimSettings(commit_horizon=1.0, n_cycles=n_cycles, seed=seed),
    )


def _jittered_grid(rng: np.random.Generator, offset_half_width: float) -> SamplingGrid:
    speeds = (
        float(rng.uniform(0.7, 0.95)),
        float(rng.uniform(0.95, 1.15)),
        float(rng.uniform(1.15, 1.3)),
    )
    offsets = np.sort(rng.uniform(-offset_half_width, offset_half_width, size=5))
    return SamplingGrid(
        terminal_speeds=tuple(speeds),
        lateral_offsets=tuple(offsets),
        horizons=_HORIZONS,
        dt=_DT,
        cycle_jitter=0.12,
    )


def _jittered_initial(rng: np.random.Generator) -> FrenetState:
    return FrenetState(
        s=1.0,
        s_dot=float(rng.uniform(0.8, 1.1)),
        s_ddot=0.0,
        d=float(rng.uniform(-0.15, 0.15)),
        d_dot=0.0,
        d_ddot=0.0,
    )


def straight_crossing(seed: int = 0, n_cycles: int = 6) -> Scenario:
    """S1 stand-in: straight 40 m corridor, one agent crossing the path."""
    rng = np.random.default_rng([1, seed])
    cross_x = float(rng.uniform(5.0, 7.0))
    agent = Neighbor(
        position=np.array([cross_x, -2.5]),
        velocity=np.array([0.0, float(rng.uniform(0.4, 0.55))]),
        covariance_trace=0.05,
    )
    # ambient walkway texture; the curved corridor carries the heavy bumps
    bumps = ((float(rng.uniform(3.0, 9.0)), float(rng.uniform(1.4, 2.0)), float(rng.uniform(0.5, 0.8))),)
    return _common(
        name="s1-straight-crossing",
        waypoints=_straight_waypoints(40.0),
        initial_state=_jittered_initial(rng),
        agents=[agent],
        grid=_jittered_grid(rng, offset_half_width=0.8),
        n_cycles=n_cycles,
        seed=seed,
        bumps=bumps,
    )


def curved_bumps(seed: int = 0, n_cycles: int = 6) -> Scenario:
    """S2 stand-in: quarter-circle corridor with surface bumps, no agents."""
    rng = np.random.default_rng([2, seed])
    bumps = tuple(
        (float(rng.uniform(3.0, 14.0)), float(rng.uniform(1.2, 2.4)), float(rng.uniform(0.6, 0.95)))
        for _ in range(3)
    )
    return _common(
        name="s2-curved-bumps",
        waypoints=_curved_waypoints(),
        initial_state=_jittered_initial(rng),
        agents=[],
        grid=_jittered_grid(rng, offset_half_width=0.7),
        n_cycles=n_cycles,
        seed=seed,
        bumps=bumps,
        baseline_trace=0.1,
    )


def narrow_oncoming(seed: int = 0, n_cycles: int = 6) -> Scenario:
    """S3 stand-in: narrow straight corridor with two oncoming agents."""
    rng = np.random.default_rng([3, seed])
    x1 = float(rng.uniform(9.0, 11.0))
    x2 = x1 + float(rng.uniform(2.0, 4.0))
    agents = [
        Neighbor(
            position=np.array([x1, -0.3]),
            velocity=np.array([-float(rng.uniform(0.4, 0.6)), 0.0]),
            covariance_trace=0.08,
        ),
        Neighbor(
            position=np.array([x2, 0.35]),
            velocity=np.array([-float(rng.uniform(0.4, 0.6)), 0.0]),
            covariance_trace=0.08,
        ),
    ]
    bumps = ((float(rng.uniform(3.0, 9.0)), float(rng.uniform(1.4, 2.0)), float(rng.uniform(0.5, 0.8))),)
    return _common(
        name="s3-narrow-oncoming",
        waypoints=_straight_waypoints(40.0),
        initial_state=_jittered_initial(rng),
        agents=agents,
        grid=_jittered_grid(rng, offset_half_width=0.45),
        n_cycles=n_cycles,
        seed=seed,
        bumps=bumps,
    )


BUILDERS = {
    "s1": straight_crossing,
    "s2": curved_bumps,
    "s3": narrow_oncoming,
}
