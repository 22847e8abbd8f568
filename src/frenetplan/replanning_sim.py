"""Deterministic closed-loop replanning simulator.

Each cycle builds a cluster at the current state, costs and classifies the
candidates, executes the committed prefix of the best feasible one, advances
the agents, and hands the exact end state to the next cycle. Runs are fully
deterministic for a fixed scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .endpoint_regulation import (
    RegulationConfig,
    regulated_cluster,
    select_reference_candidate,
)
from .errors import NoFeasibleCandidate, ScenarioInvalid
from .evaluation import (
    CONSTRAINT_ORDER,
    FeasibilityBreakdown,
    KinematicLimits,
    check_candidate,
    feasibility_breakdown,
    nn_distance_stats,
)
from .frenet_geometry import FrenetState, ReferencePath, build_reference_path
from .momentum_optimizer import (
    AssistiveParams,
    InteractionParams,
    Neighbor,
    OptimizerConfig,
    PlanningContext,
    cost_cluster,
    optimize_cluster,  # noqa: F401 - perfbench's tracer wraps this name here
    total_cost,  # noqa: F401 - perfbench's tracer wraps this name here
)
from .quintic_sampling import SamplingGrid, generate_cluster

SCHEMA_VERSION = 1

_COST_TIE = 1e-12


@dataclass(frozen=True)
class SimSettings:
    cycle_period: float = 1.0
    commit_horizon: float = 1.0
    n_cycles: int = 8
    seed: int = 0


@dataclass(frozen=True)
class ModeSwitches:
    """Ablation switches distinguishing the proposed pipeline from the baseline.

    Proposed: regulated cluster and momentum-weighted selection cost.
    Baseline: raw cluster (no sorting/spacing repair) and the momentum-change
    and terminal weights zeroed in the selection cost. Neither refines the
    candidates; ``optimize_cluster`` is a library function, not a mode.
    """

    regulate: bool = True
    momentum_weights: bool = True

    @classmethod
    def proposed(cls) -> "ModeSwitches":
        return cls(True, True)

    @classmethod
    def baseline(cls) -> "ModeSwitches":
        return cls(False, False)

    @property
    def label(self) -> str:
        if self == ModeSwitches.proposed():
            return "proposed"
        if self == ModeSwitches.baseline():
            return "baseline"
        return "custom"


@dataclass
class Scenario:
    """Complete description of one closed-loop run."""

    name: str
    waypoints: np.ndarray
    initial: FrenetState
    agents: list
    limits: KinematicLimits
    grid: SamplingGrid
    regulation: RegulationConfig
    optimizer: OptimizerConfig
    assistive: AssistiveParams
    interaction: InteractionParams
    sim: SimSettings
    sigma_baseline: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def build_path(self) -> ReferencePath:
        return build_reference_path(self.waypoints)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "waypoints": [[float(x), float(y)] for x, y in np.asarray(self.waypoints)],
            "initial_state": {
                "s": self.initial.s,
                "s_dot": self.initial.s_dot,
                "s_ddot": self.initial.s_ddot,
                "d": self.initial.d,
                "d_dot": self.initial.d_dot,
                "d_ddot": self.initial.d_ddot,
            },
            "agents": [
                {
                    "position": [float(v) for v in nb.position],
                    "velocity": [float(v) for v in nb.velocity],
                    "covariance_trace": float(nb.covariance_trace),
                }
                for nb in self.agents
            ],
            "limits": {
                "v_max": self.limits.v_max,
                "a_max": self.limits.a_max,
                "j_max": self.limits.j_max,
                "kappa_max": self.limits.kappa_max,
                "yaw_rate_max": self.limits.yaw_rate_max,
                "kappa_rate_max": self.limits.kappa_rate_max,
            },
            "grid": {
                "terminal_speeds": list(self.grid.terminal_speeds),
                "lateral_offsets": list(self.grid.lateral_offsets),
                "horizons": list(self.grid.horizons),
                "dt": self.grid.dt,
                "cycle_jitter": self.grid.cycle_jitter,
            },
            "regulation": {
                "weights": list(self.regulation.weights),
                "max_gap": self.regulation.max_gap,
                "min_gap": self.regulation.min_gap,
            },
            "optimizer": {
                "mass": self.optimizer.mass,
                "accel_weight": self.optimizer.accel_weight,
                "uncertainty_weight": self.optimizer.uncertainty_weight,
                "terminal_weight": self.optimizer.terminal_weight,
                "dt": self.optimizer.dt,
                "max_iters": self.optimizer.max_iters,
                "armijo_c": self.optimizer.armijo_c,
                "step_shrink": self.optimizer.step_shrink,
                "grad_tol": self.optimizer.grad_tol,
            },
            "assistive": {
                "target_speed": self.assistive.target_speed,
                "speed_gain": self.assistive.speed_gain,
                "centering_gain": self.assistive.centering_gain,
                "damping_gain": self.assistive.damping_gain,
                "max_force": self.assistive.max_force,
                "bumps": [list(b) for b in self.assistive.bumps],
            },
            "interaction": {
                "max_intensity": self.interaction.max_intensity,
                "range_scale": self.interaction.range_scale,
                "speed_scale": self.interaction.speed_scale,
                "cutoff": self.interaction.cutoff,
            },
            "uncertainty": {"baseline_trace": self.sigma_baseline},
            "sim": {
                "cycle_period": self.sim.cycle_period,
                "commit_horizon": self.sim.commit_horizon,
                "n_cycles": self.sim.n_cycles,
                "seed": self.sim.seed,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        violations = validate_scenario_dict(data)
        if violations:
            raise ScenarioInvalid(violations)
        init = data["initial_state"]
        return cls(
            name=str(data.get("name", "unnamed")),
            waypoints=np.asarray(data["waypoints"], dtype=float),
            initial=FrenetState(
                init["s"], init["s_dot"], init["s_ddot"],
                init["d"], init["d_dot"], init["d_ddot"],
            ),
            agents=[
                Neighbor(a["position"], a["velocity"], a.get("covariance_trace", 0.0))
                for a in data.get("agents", [])
            ],
            limits=KinematicLimits(**data["limits"]),
            grid=SamplingGrid(
                terminal_speeds=data["grid"]["terminal_speeds"],
                lateral_offsets=data["grid"]["lateral_offsets"],
                horizons=data["grid"]["horizons"],
                dt=data["grid"]["dt"],
                cycle_jitter=data["grid"].get("cycle_jitter", 0.0),
            ),
            regulation=RegulationConfig(
                weights=data["regulation"]["weights"],
                max_gap=data["regulation"]["max_gap"],
                min_gap=data["regulation"]["min_gap"],
            ),
            optimizer=OptimizerConfig(**data["optimizer"]),
            assistive=AssistiveParams(
                target_speed=data["assistive"]["target_speed"],
                speed_gain=data["assistive"]["speed_gain"],
                centering_gain=data["assistive"]["centering_gain"],
                damping_gain=data["assistive"]["damping_gain"],
                max_force=data["assistive"]["max_force"],
                bumps=tuple(tuple(b) for b in data["assistive"].get("bumps", [])),
            ),
            interaction=InteractionParams(**data["interaction"]),
            sim=SimSettings(**data["sim"]),
            sigma_baseline=float(data.get("uncertainty", {}).get("baseline_trace", 0.0)),
        )


def _is_multiple(value: float, step: float) -> bool:
    return abs(value / step - round(value / step)) < 1e-9


def validate_scenario_dict(data: dict) -> list:
    """All schema and invariant violations, each naming the offending key."""
    v: list[str] = []
    if not isinstance(data, dict):
        return ["scenario: top level must be a JSON object"]
    if data.get("schema_version") != SCHEMA_VERSION:
        v.append(f"schema_version: expected {SCHEMA_VERSION}")

    for key in ("waypoints", "initial_state", "limits", "grid", "regulation",
                "optimizer", "assistive", "interaction", "sim"):
        if key not in data:
            v.append(f"{key}: missing section")
    if v:
        return v

    wps = data["waypoints"]
    if not isinstance(wps, list) or len(wps) < 4:
        v.append("waypoints: need at least 4 points")
    init = data["initial_state"]
    for key in ("s", "s_dot", "s_ddot", "d", "d_dot", "d_ddot"):
        if key not in init or not np.isfinite(init[key]):
            v.append(f"initial_state.{key}: missing or non-finite")

    lim = data["limits"]
    for key in ("v_max", "a_max", "j_max", "kappa_max", "yaw_rate_max", "kappa_rate_max"):
        if lim.get(key, 0) <= 0:
            v.append(f"limits.{key}: must be strictly positive")

    grid = data["grid"]
    dt = grid.get("dt", 0)
    if dt <= 0:
        v.append("grid.dt: must be positive")
    for key in ("terminal_speeds", "lateral_offsets", "horizons"):
        if not grid.get(key):
            v.append(f"grid.{key}: must be non-empty")
    if dt > 0 and grid.get("horizons"):
        if min(grid["horizons"]) < 4 * dt:
            v.append("grid.horizons: must be at least 4*dt")
        for hz in grid["horizons"]:
            if not _is_multiple(hz, dt):
                v.append(f"grid.horizons: {hz} is not a multiple of grid.dt")
    if grid.get("cycle_jitter", 0.0) < 0:
        v.append("grid.cycle_jitter: must be nonnegative")

    regd = data["regulation"]
    weights = regd.get("weights", [])
    if len(weights) != 4 or any(w < 0 for w in weights):
        v.append("regulation.weights: need 4 nonnegative values")
    if not regd.get("max_gap", 0) > regd.get("min_gap", -1) >= 0:
        v.append("regulation.max_gap: need max_gap > min_gap >= 0")

    opt = data["optimizer"]
    if opt.get("mass", 0) <= 0:
        v.append("optimizer.mass: must be positive")
    for key in ("accel_weight", "uncertainty_weight", "terminal_weight"):
        if opt.get(key, 0) < 0:
            v.append(f"optimizer.{key}: must be nonnegative")
    if not 0 < opt.get("armijo_c", 0) < 1:
        v.append("optimizer.armijo_c: must lie in (0, 1)")
    if not 0 < opt.get("step_shrink", 0) < 1:
        v.append("optimizer.step_shrink: must lie in (0, 1)")
    if opt.get("max_iters", -1) < 0:
        v.append("optimizer.max_iters: must be nonnegative")
    if dt > 0 and opt.get("dt") != dt:
        v.append("optimizer.dt: must equal grid.dt")

    asst = data["assistive"]
    if asst.get("max_force", 0) <= 0:
        v.append("assistive.max_force: must be positive")
    for bump in asst.get("bumps", []):
        if len(bump) != 3 or bump[1] <= 0 or not 0 <= bump[2] <= 1:
            v.append("assistive.bumps: entries are (center, width>0, amplitude in [0,1])")

    inter = data["interaction"]
    for key in ("max_intensity", "range_scale", "speed_scale", "cutoff"):
        if inter.get(key, 0) <= 0:
            v.append(f"interaction.{key}: must be positive")

    sim = data["sim"]
    commit = sim.get("commit_horizon", 0)
    if commit <= 0:
        v.append("sim.commit_horizon: must be positive")
    if sim.get("cycle_period") != commit:
        v.append("sim.cycle_period: must equal sim.commit_horizon")
    if sim.get("n_cycles", -1) < 0:
        v.append("sim.n_cycles: must be nonnegative")
    if grid.get("horizons") and commit > 0 and commit > min(grid["horizons"]):
        v.append("sim.commit_horizon: must not exceed the shortest grid horizon")
    if dt > 0 and commit > 0 and not _is_multiple(commit, dt):
        v.append("sim.commit_horizon: must be a multiple of grid.dt")

    uncertainty = data.get("uncertainty", {})
    if uncertainty.get("baseline_trace", 0.0) < 0:
        v.append("uncertainty.baseline_trace: must be nonnegative")
    return v


@dataclass
class CycleRecord:
    cycle: int
    n_candidates: int
    selected_index: int
    selected_key: tuple
    selected_cost: float
    breakdown: FeasibilityBreakdown
    nn_stats: Optional[object]
    budget_exhausted: bool
    times: np.ndarray
    states: np.ndarray
    jerk_lon: np.ndarray
    jerk_lat: np.ndarray
    candidates: list = field(default_factory=list)
    agent_positions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        nn = None
        if self.nn_stats is not None:
            nn = {
                "mean": self.nn_stats.nn_mean,
                "std": self.nn_stats.nn_std,
                "min": self.nn_stats.nn_min,
                "max": self.nn_stats.nn_max,
                "count": self.nn_stats.count,
            }
        return {
            "cycle": self.cycle,
            "n_candidates": self.n_candidates,
            "selected_index": self.selected_index,
            "selected_key": [
                p if isinstance(p, str) else float(p) for p in self.selected_key
            ],
            "selected_cost": self.selected_cost,
            "feasibility": {
                "overall_ratio": self.breakdown.overall_ratio,
                "violation_rates": {
                    c.value: self.breakdown.violation_rates[c] for c in CONSTRAINT_ORDER
                },
            },
            "nn_stats": nn,
            "budget_exhausted": self.budget_exhausted,
            "agents": self.agent_positions,
            "candidates": self.candidates,
            "executed": {
                "t": self.times.tolist(),
                "states": self.states.tolist(),
                "jerk_lon": self.jerk_lon.tolist(),
                "jerk_lat": self.jerk_lat.tolist(),
            },
        }


@dataclass
class SimLog:
    scenario_name: str
    mode: str
    seed: int
    cycles: list = field(default_factory=list)
    splices: list = field(default_factory=list)
    final_state: Optional[FrenetState] = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario_name,
            "mode": self.mode,
            "seed": self.seed,
            "n_cycles": len(self.cycles),
            "cycles": [c.to_dict() for c in self.cycles],
            "splices": list(self.splices),
            "final_state": None
            if self.final_state is None
            else self.final_state.as_array().tolist(),
        }


def select_candidate(candidates, reports) -> int:
    """Minimum-cost feasible candidate; near-equal costs go to the smaller index."""
    if not candidates:
        raise NoFeasibleCandidate("empty candidate list")
    best = -1
    best_cost = np.inf
    for i, (cand, report) in enumerate(zip(candidates, reports)):
        if not report.feasible:
            continue
        if cand.cost is None:
            raise ValueError(f"candidate {i} has no cost annotation")
        if cand.cost < best_cost - _COST_TIE:
            best = i
            best_cost = cand.cost
    if best < 0:
        raise NoFeasibleCandidate("no feasible candidate in cluster")
    return best


def run(scenario: Scenario, mode: Union[str, ModeSwitches] = "proposed") -> SimLog:
    """Execute the closed-loop replanning run.

    ``mode`` is "proposed", "baseline", or explicit ModeSwitches. Raises
    NoFeasibleCandidate (carrying the partial log) if a cycle has no
    feasible candidate.
    """
    if isinstance(mode, str):
        try:
            switches = {
                "proposed": ModeSwitches.proposed(),
                "baseline": ModeSwitches.baseline(),
            }[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}") from None
    else:
        switches = mode

    path = scenario.build_path()
    opt_cfg = scenario.optimizer
    if not switches.momentum_weights:
        opt_cfg = replace(opt_cfg, accel_weight=0.0, terminal_weight=0.0)

    log = SimLog(
        scenario_name=scenario.name, mode=switches.label, seed=scenario.sim.seed
    )
    state = scenario.initial
    prev_end: Optional[np.ndarray] = None

    for k in range(scenario.sim.n_cycles):
        elapsed = k * scenario.sim.cycle_period
        neighbors = tuple(
            Neighbor(
                nb.position + elapsed * nb.velocity, nb.velocity, nb.covariance_trace
            )
            for nb in scenario.agents
        )
        ctx = PlanningContext(
            path=path,
            assistive=scenario.assistive,
            interaction=scenario.interaction,
            neighbors=neighbors,
            sigma_baseline=scenario.sigma_baseline,
        )

        # independent terminal sampling per cycle, identical in both modes
        grid = scenario.grid.jittered(
            np.random.default_rng([scenario.sim.seed, k])
        )

        if switches.regulate:
            cluster = regulated_cluster(state, path, grid, scenario.regulation)
        else:
            cluster = generate_cluster(state, path, grid)
            cluster.reference_index = select_reference_candidate(cluster)
        reference = cluster.candidates[cluster.reference_index]

        costs = cost_cluster(
            cluster.candidates, ctx, reference, opt_cfg, scenario.regulation
        )
        for cand, cost in zip(cluster.candidates, costs):
            cand.cost = cost

        reports = [
            check_candidate(c, path, scenario.limits) for c in cluster.candidates
        ]
        for cand, report in zip(cluster.candidates, reports):
            cand.feasibility = report

        breakdown = feasibility_breakdown(reports)
        nn = nn_distance_stats(cluster) if len(cluster.candidates) >= 2 else None

        try:
            idx = select_candidate(cluster.candidates, reports)
        except NoFeasibleCandidate as err:
            log.final_state = state
            raise NoFeasibleCandidate(
                f"cycle {k}: no feasible candidate "
                f"(overall ratio {breakdown.overall_ratio:.3f})",
                partial_log=log,
            ) from err
        chosen = cluster.candidates[idx]

        commit_idx = int(round(scenario.sim.commit_horizon / chosen.dt))
        if abs(commit_idx * chosen.dt - scenario.sim.commit_horizon) > 1e-9:
            raise ScenarioInvalid(
                [f"sim.commit_horizon: not aligned with candidate sampling ({chosen.dt})"]
            )

        if prev_end is not None:
            gap = cluster.initial.as_array() - prev_end
            log.splices.append(
                {
                    "cycle": k,
                    "position_gap": float(np.linalg.norm(gap[[0, 3]])),
                    "velocity_gap": float(np.linalg.norm(gap[[1, 4]])),
                    "acceleration_gap": float(np.linalg.norm(gap[[2, 5]])),
                }
            )

        candidate_rows = [
            {
                "index": i,
                "key": [str(p) if isinstance(p, str) else float(p) for p in c.grid_key],
                "cost": float(c.cost),
                "feasible": bool(r.feasible),
                "violations": sorted(v.value for v in r.violations),
                "margins": {c2.value: r.worst_margins[c2] for c2 in CONSTRAINT_ORDER},
            }
            for i, (c, r) in enumerate(zip(cluster.candidates, reports))
        ]

        log.cycles.append(
            CycleRecord(
                cycle=k,
                n_candidates=len(cluster.candidates),
                selected_index=idx,
                selected_key=tuple(chosen.grid_key),
                selected_cost=float(chosen.cost),
                breakdown=breakdown,
                nn_stats=nn,
                budget_exhausted=cluster.spacing_budget_exhausted,
                times=elapsed + chosen.times[: commit_idx + 1],
                states=chosen.states[: commit_idx + 1].copy(),
                jerk_lon=chosen.jerk_lon[: commit_idx + 1].copy(),
                jerk_lat=chosen.jerk_lat[: commit_idx + 1].copy(),
                candidates=candidate_rows,
                agent_positions=[[float(v) for v in nb.position] for nb in neighbors],
            )
        )

        prev_end = chosen.states[commit_idx].copy()
        state = FrenetState.from_array(chosen.states[commit_idx])

    log.final_state = state
    return log
