"""Deterministic closed-loop replanning simulator.

One cycle is ``plan_cycle``: it advances the agents, builds a cluster at
the current state, costs and classifies the candidates, and returns the
record of the committed prefix of the best feasible one. ``run`` is the
loop: it splices each record onto the previous one and hands its exact end
state to the next cycle. Runs are fully deterministic for a fixed scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

import numpy as np

from .endpoint_regulation import (
    RegulationConfig,
    regulated_cluster,
    select_reference_candidate,
)
from .errors import NoFeasibleCandidate, PlannerError, ScenarioInvalid
from .evaluation import (
    CONSTRAINT_ORDER,
    FeasibilityBreakdown,
    KinematicLimits,
    check_candidate,
    feasibility_breakdown,
    kinematic_peaks,
    nn_distance_stats,
)
from .frenet_geometry import FrenetState, ReferencePath, build_reference_path
from .momentum_optimizer import (
    AssistiveParams,
    CostWeights,
    InteractionParams,
    Neighbor,
    PlanningContext,
    cost_cluster,
    optimize_cluster,  # noqa: F401 - perfbench's tracer wraps this name here
    total_cost,  # noqa: F401 - perfbench's tracer wraps this name here
)
from .quintic_sampling import SamplingGrid, TrajectoryCluster, generate_cluster
from .schema import ListOf, check, parse, plain_fields, spec

# Scenario files and simulation logs are versioned separately.
SCHEMA_VERSION = 3
SIMLOG_SCHEMA_VERSION = 1

_COST_TIE = 1e-12


@dataclass(frozen=True)
class SimSettings:
    """Run length and seed; each cycle executes ``commit_horizon`` seconds of
    the selected candidate, which is also the agents' clock step."""

    commit_horizon: float = spec(1.0, "positive")
    n_cycles: int = spec(8, "count")
    seed: int = spec(0, "count", optional=True)

    __post_init__ = check


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

    @property
    def label(self) -> str:
        for name, switches in MODES.items():
            if self == switches:
                return name
        on = [f.name for f in fields(self) if getattr(self, f.name)]
        return f"custom({','.join(on)})"


# The named modes: what ``run`` and the command line's ``--mode`` accept.
MODES = {
    "proposed": ModeSwitches(regulate=True, momentum_weights=True),
    "baseline": ModeSwitches(regulate=False, momentum_weights=False),
}


@dataclass(frozen=True)
class Uncertainty:
    """The ``uncertainty`` section: the scenario's baseline uncertainty
    trace, to which each cycle adds the agents' covariance traces."""

    baseline_trace: float = spec(0.0, "nonneg", optional=True)

    __post_init__ = check


@dataclass(kw_only=True)
class Scenario:
    """Complete description of one closed-loop run. Its fields are the
    scenario file's keys, in file order, each declared once with ``spec``:
    ``to_dict`` writes them, and ``from_dict`` and ``validate_scenario_dict``
    share one reader that checks and builds them in a single walk."""

    name: str = spec("unnamed", "string", optional=True)
    waypoints: np.ndarray = spec(shape=ListOf(("bounded", "bounded"), 4))
    initial_state: FrenetState = spec(shape=FrenetState)
    agents: list = spec((), ListOf(Neighbor), optional=True)
    limits: KinematicLimits = spec(shape=KinematicLimits)
    grid: SamplingGrid = spec(shape=SamplingGrid)
    regulation: RegulationConfig = spec(shape=RegulationConfig)
    cost: CostWeights = spec(shape=CostWeights)
    assistive: AssistiveParams = spec(shape=AssistiveParams)
    interaction: InteractionParams = spec(shape=InteractionParams)
    uncertainty: Uncertainty = spec(Uncertainty(), Uncertainty, optional=True)
    sim: SimSettings = spec(shape=SimSettings)

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        self.agents = list(self.agents)

    def build_path(self) -> ReferencePath:
        """The reference path through the waypoints: the one shared, read-only
        fit of this route, so a run reads the fit its validation made."""
        return build_reference_path(self.waypoints)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **plain_fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario in a file's JSON ``data``; ScenarioInvalid listing
        every violation if it is not one."""
        scenario, violations = _read(data)
        if violations:
            raise ScenarioInvalid(violations)
        return scenario


def _is_multiple(value: float, step: float) -> bool:
    ratio = value / step
    return math.isfinite(ratio) and abs(ratio - round(ratio)) < 1e-9


def validate_scenario_dict(data: dict) -> list:
    """All schema and invariant violations of a file's JSON ``data``, each
    naming the offending key; empty if ``Scenario.from_dict`` reads it."""
    return _read(data)[1]


def _read(data) -> tuple:
    """The scenario in ``data`` (None unless it is valid) and every
    violation: the version, then each key against the declaration, the fit
    of well-formed waypoints (the cache entry a run then reads), and last
    the rules across sections."""
    if not isinstance(data, dict):
        return None, ["scenario: top level must be a JSON object"]
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        # the version says how to read the rest, so nothing else is checked
        return None, [
            f"schema_version: expected {SCHEMA_VERSION} "
            "(the README lists the changes from schemas 1 and 2)"
        ]
    scenario, v = parse(Scenario, {k: x for k, x in data.items() if k != "schema_version"})
    if not any(x.startswith(("waypoints:", "waypoints[")) for x in v):
        try:
            build_reference_path(data["waypoints"])
        except PlannerError as err:
            v.append(f"waypoints: {err}")
    if not v:
        # on the file's own numbers, so each message quotes them as written
        grid, sim = data["grid"], data["sim"]
        v = _timing_problems(grid["horizons"], grid["dt"], sim["commit_horizon"])
    return (None if v else scenario), v


def _timing_problems(horizons, dt, commit) -> list:
    """The rules across ``grid`` and ``sim``: every horizon and the commit
    horizon are whole numbers of samples, and a cycle commits no more than
    its shortest candidate."""
    v = [
        f"grid.horizons: {hz} is not a multiple of grid.dt"
        for hz in horizons
        if not _is_multiple(hz, dt)
    ]
    if commit > min(horizons):
        v.append("sim.commit_horizon: must not exceed the shortest grid horizon")
    if not _is_multiple(commit, dt):
        v.append("sim.commit_horizon: must be a multiple of grid.dt")
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
                    c: self.breakdown.violation_rates[c] for c in CONSTRAINT_ORDER
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
            "schema_version": SIMLOG_SCHEMA_VERSION,
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


def select_candidate(costs, reports) -> int:
    """Index of the minimum-cost feasible candidate, given each candidate's
    cost and report; near-equal costs go to the smaller index."""
    if not costs:
        raise NoFeasibleCandidate("empty candidate list")
    best = -1
    best_cost = np.inf
    for i, (cost, report) in enumerate(zip(costs, reports)):
        if report.feasible and cost < best_cost - _COST_TIE:
            best = i
            best_cost = cost
    if best < 0:
        raise NoFeasibleCandidate("no feasible candidate in cluster")
    return best


def cycle_cluster(
    scenario: Scenario, path: ReferencePath, state: FrenetState, k: int, regulate: bool
) -> TrajectoryCluster:
    """Cycle ``k``'s cluster at ``state``. Its terminals are sampled
    independently per cycle, the same in both modes; it is regulated
    (sorted and spacing-repaired) if ``regulate``.

    The sampling functions are looked up as this module's globals at each
    call, where perfbench's tracer wraps them.
    """
    grid = scenario.grid.jittered(np.random.default_rng([scenario.sim.seed, k]))
    if regulate:
        return regulated_cluster(state, path, grid, scenario.regulation)
    return generate_cluster(state, path, grid)


def _sample_frame(path: ReferencePath, rows) -> tuple:
    """``path.frame(rows.s)``'s position, tangent and normal, which costing
    and classification read, from one ``path.frame`` call on the rows'
    ``frame_samples`` gathered to every sample, bit for bit (the frame is
    elementwise in s); the parameter speed and curvature, which neither
    reads, are None. Rows without an index take the frame of their ``s``."""
    s, index = rows.frame_samples
    frame = path.frame(s)
    if index is None:
        return frame
    (px, py), _, (tx, ty), (nx, _), _ = frame
    px, py, tx, ty, nx = np.stack((px, py, tx, ty, nx)).take(index, axis=1)
    return (px, py), None, (tx, ty), (nx, tx), None


def plan_cycle(
    scenario: Scenario, path: ReferencePath, switches: ModeSwitches,
    state: FrenetState, k: int,
) -> CycleRecord:
    """Cycle ``k`` from ``state``, the agents advanced to its start: sample
    the cluster, pick its reference candidate if the terminal term (its one
    reader) has a weight, which the baseline zeroes, cost and classify its
    rows (``TrajectoryCluster.rows``) in place in one pass each, over one
    path-frame evaluation on its distinct longitudinal samples, select the
    best feasible candidate, and return the record that commits its first
    ``commit_horizon`` seconds.
    Raises PlannerError for a non-finite cost, and NoFeasibleCandidate
    (without a partial log) if no candidate is feasible."""
    commit_idx = int(round(scenario.sim.commit_horizon / scenario.grid.dt))
    weights = scenario.cost
    if not switches.momentum_weights:
        weights = replace(weights, accel_weight=0.0, terminal_weight=0.0)

    elapsed = k * scenario.sim.commit_horizon
    neighbors = tuple(
        Neighbor(nb.position + elapsed * nb.velocity, nb.velocity, nb.covariance_trace)
        for nb in scenario.agents
    )
    ctx = PlanningContext(
        path=path,
        assistive=scenario.assistive,
        interaction=scenario.interaction,
        neighbors=neighbors,
        sigma_baseline=scenario.uncertainty.baseline_trace,
    )

    cluster = cycle_cluster(scenario, path, state, k, switches.regulate)
    candidates = cluster.candidates
    reference = candidates[select_reference_candidate(cluster)] if weights.terminal_weight else None

    # the cluster's own rows, read in place, and the one path-frame
    # evaluation that costing (the agents' force) and classification both read
    rows = cluster.rows
    frame = _sample_frame(path, rows)
    costs = cost_cluster(rows, ctx, reference, weights, frame)
    finite = np.isfinite(costs)
    if not finite.all():
        # selection would pass over it silently
        i = int(np.argmin(finite))
        raise PlannerError(
            f"cycle {k}: candidate {i} {rows.grid_key[i]} has non-finite cost {costs[i]}"
        )

    # one classification pass over the cluster's rows; the per-candidate
    # calls only divide by the limits, each on the candidate viewing its row
    # (perfbench's tracer wraps check_candidate and counts its calls)
    peaks = kinematic_peaks(rows, path, frame)
    reports = [
        check_candidate(c, path, scenario.limits, p) for c, p in zip(candidates, peaks)
    ]

    breakdown = feasibility_breakdown(reports)
    nn = nn_distance_stats(cluster) if len(cluster) >= 2 else None

    try:
        idx = select_candidate(costs, reports)
    except NoFeasibleCandidate as err:
        raise NoFeasibleCandidate(
            f"cycle {k}: no feasible candidate "
            f"(overall ratio {breakdown.overall_ratio:.3f})"
        ) from err
    chosen = candidates[idx]

    # the candidate records, from the cluster's columns: every cycle key is
    # Python floats and "inserted", and each row keeps its report's margins
    # (check_candidate keys them in CONSTRAINT_ORDER and makes them per call)
    candidate_rows = [
        {
            "index": i,
            "key": list(key),
            "cost": cost,
            "feasible": r.feasible,
            "violations": sorted(r.violations) if r.violations else [],
            "margins": r.worst_margins,
        }
        for i, (key, cost, r) in enumerate(zip(rows.grid_key, costs, reports))
    ]
    return CycleRecord(
        cycle=k,
        n_candidates=len(cluster),
        selected_index=idx,
        selected_key=tuple(chosen.grid_key),
        selected_cost=float(costs[idx]),
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


def run(scenario: Scenario, mode: Union[str, ModeSwitches] = "proposed") -> SimLog:
    """Execute the closed-loop replanning run: each cycle is ``plan_cycle``
    from the previous one's committed end state, spliced onto its record.

    ``mode`` is a name in ``MODES`` or explicit ModeSwitches. Raises
    ScenarioInvalid if the grid and sim timing disagree, PlannerError if a
    candidate's cost is not finite, and NoFeasibleCandidate (carrying the
    partial log) if a cycle has no feasible candidate.
    """
    if isinstance(mode, str):
        try:
            switches = MODES[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}") from None
    else:
        switches = mode
    grid, sim = scenario.grid, scenario.sim
    problems = _timing_problems(grid.horizons, grid.dt, sim.commit_horizon)
    if problems:
        raise ScenarioInvalid(problems)

    path = scenario.build_path()
    log = SimLog(scenario_name=scenario.name, mode=switches.label, seed=sim.seed)
    state = scenario.initial_state

    for k in range(sim.n_cycles):
        try:
            record = plan_cycle(scenario, path, switches, state, k)
        except NoFeasibleCandidate as err:
            log.final_state = state
            err.partial_log = log
            raise
        if log.cycles:
            # the executed first sample against the previous committed end
            gap = record.states[0] - log.cycles[-1].states[-1]
            log.splices.append(
                {
                    "cycle": k,
                    "position_gap": float(np.linalg.norm(gap[[0, 3]])),
                    "velocity_gap": float(np.linalg.norm(gap[[1, 4]])),
                    "acceleration_gap": float(np.linalg.norm(gap[[2, 5]])),
                }
            )
        log.cycles.append(record)
        state = FrenetState.from_array(record.states[-1])

    log.final_state = state
    return log
