"""Terminal-state regulation: spacing repair plus the terminal-deviation term.

The cluster's terminal states are de-duplicated below a spacing floor and
densified wherever consecutive terminal gaps exceed the spacing cap; the
selection cost compares each candidate's terminal state against a reference
candidate through ``terminal_deviation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCluster
from .frenet_geometry import FrenetState, ReferencePath
from .quintic_sampling import (
    CandidateSpec,
    SamplingGrid,
    TrajectoryCandidate,
    TrajectoryCluster,
    build_candidates,
    generate_cluster,
)
from .schema import check, spec

# Insertions allowed per oversized gap before the budget flag is raised.
_GAP_BUDGET = 8

# Treat deviations below this as exact ties when picking the reference.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RegulationConfig:
    """Spacing bounds of terminal-state regulation: consecutive terminal gaps
    are repaired into [min_gap, max_gap].

    The terminal-deviation weight is ``CostWeights.terminal_weight``, the only
    place it acts (see ``terminal_deviation``).
    """

    max_gap: float = spec(0.5, "positive")
    min_gap: float = spec(0.02, "nonneg")

    def __post_init__(self):
        check(self)
        if not self.max_gap > self.min_gap:
            raise ValueError("max_gap: need max_gap > min_gap >= 0")


def select_reference_candidate(cluster: TrajectoryCluster) -> int:
    """Index of the candidate whose terminal (d, s_dot) is closest to
    (0, median terminal speed); ties go to the smaller index."""
    if not cluster.candidates:
        raise EmptyCluster("cannot select a reference in an empty cluster")
    terms = cluster.terminal_matrix()
    target = np.array([0.0, float(np.median(terms[:, 1]))])
    dev = np.column_stack([terms[:, 3], terms[:, 1]]) - target
    # Python floats hold float64 exactly, and compare faster than numpy scalars
    dist2 = np.sum(dev * dev, axis=1).tolist()
    best = 0
    for i in range(1, len(dist2)):
        if dist2[i] < dist2[best] - _TIE_TOL:
            best = i
    return best


def terminal_deviation(
    candidates, reference: TrajectoryCandidate | None, weight: float
) -> np.ndarray:
    """``weight * (v_T - v_T,ref)**2`` per candidate, the terminal term of the
    selection cost; zeros without a reference.

    The paper penalises the terminal deviation [s_dot, s_ddot, d_dot, d_ddot]
    from a reference candidate. Every candidate here ends in a steady terminal
    (``build_candidates``: s_ddot = d_dot = d_ddot = 0, as in Werling et al.,
    ICRA 2010), so only the speed term can differ between two candidates. A
    sampler that ends candidates off the steady state must bring the other
    three terms back.
    """
    if reference is None:
        return np.zeros(len(candidates))
    dv = np.array([c.states[-1, 1] for c in candidates]) - reference.states[-1, 1]
    return weight * (dv * dv)


def sort_by_terminal(cluster: TrajectoryCluster) -> TrajectoryCluster:
    """Sort candidates by terminal lateral offset, then terminal speed."""
    order = sorted(
        range(len(cluster.candidates)),
        key=lambda i: (
            cluster.candidates[i].states[-1, 3],
            cluster.candidates[i].states[-1, 1],
        ),
    )
    return replace(
        cluster,
        candidates=[cluster.candidates[i] for i in order],
        reference_index=0,
    )


def _snap_to_grid(value: float, dt: float) -> float:
    return max(4 * dt, round(value / dt) * dt)


def enforce_spacing(
    cluster: TrajectoryCluster,
    config: RegulationConfig,
    grid: SamplingGrid,
) -> TrajectoryCluster:
    """Repair consecutive terminal gaps into [min_gap, max_gap].

    Near-duplicates (gap below the floor) are dropped keeping the earlier
    candidate; oversized gaps are filled by re-solving quintics toward
    linearly interpolated terminal configurations, up to 8 insertions per
    gap (beyond that the budget flag is set instead of failing). Insertion
    horizons snap to multiples of ``grid.dt``, the only grid field read, and
    the insertions are built in one batch per snapped horizon. The cluster's
    ``reference_index`` is not read; the repaired cluster selects its own.
    """
    if not cluster.candidates:
        raise EmptyCluster("cannot enforce spacing on an empty cluster")

    # every consecutive gap in one call: a row's np.linalg.norm is the square
    # root of its dot product, which vecdot gives bit for bit
    terms = cluster.terminal_matrix()
    diff = terms[1:] - terms[:-1]
    consecutive = np.sqrt(np.vecdot(diff, diff)).tolist()
    kept: list[TrajectoryCandidate] = [cluster.candidates[0]]
    gaps: list[float] = []  # terminal gap from each kept candidate to the next
    last = 0  # input index of kept[-1]
    for i, cand in enumerate(cluster.candidates[1:], 1):
        if last == i - 1:
            gap = consecutive[last]
        else:  # a near-duplicate was dropped since the last kept candidate
            gap = float(np.linalg.norm(terms[i] - terms[last]))
        if gap >= config.min_gap:
            kept.append(cand)
            gaps.append(gap)
            last = i

    budget_exhausted = False
    specs: list[CandidateSpec] = []
    after: list[int] = []  # index in ``kept`` of the candidate each insertion follows
    for k, (a, b, gap) in enumerate(zip(kept[:-1], kept[1:], gaps)):
        term_a = a.states[-1]
        term_b = b.states[-1]
        if gap <= config.max_gap:
            continue
        n_insert = math.ceil(gap / config.max_gap) - 1
        if n_insert > _GAP_BUDGET:
            n_insert = _GAP_BUDGET
            budget_exhausted = True
        for j in range(1, n_insert + 1):
            alpha = j / (n_insert + 1)
            # one-sided form: exact when components of a and b coincide,
            # so sorting ties stay ties and the repaired chain order holds
            target = term_a + alpha * (term_b - term_a)
            horizon = _snap_to_grid(a.horizon + alpha * (b.horizon - a.horizon), grid.dt)
            specs.append(
                CandidateSpec(
                    terminal_s=float(target[0]),
                    terminal_speed=float(target[1]),
                    lateral_offset=float(target[3]),
                    horizon=horizon,
                    grid_key=(horizon, float(target[1]), float(target[3]), "inserted"),
                )
            )
            after.append(k)

    # built per snapped horizon, then put back into the chain in order
    following: list[list] = [[] for _ in kept]
    for k, cand in zip(after, build_candidates(cluster.initial, specs, grid.dt)):
        if cand is not None:
            following[k].append(cand)
    out = [c for a, extra in zip(kept, following) for c in (a, *extra)]

    repaired = TrajectoryCluster(
        candidates=out,
        reference_index=0,
        initial=cluster.initial,
        spacing_budget_exhausted=budget_exhausted or cluster.spacing_budget_exhausted,
    )
    repaired = sort_by_terminal(repaired)
    repaired.reference_index = select_reference_candidate(repaired)
    return repaired


def regulated_cluster(
    initial: FrenetState,
    path: ReferencePath,
    grid: SamplingGrid,
    config: RegulationConfig,
) -> TrajectoryCluster:
    """Generate, sort, and spacing-repair a cluster; its ``reference_index``
    names the reference of the selection cost's terminal term."""
    cluster = sort_by_terminal(generate_cluster(initial, path, grid))
    return enforce_spacing(cluster, config, grid)
