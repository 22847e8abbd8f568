"""Terminal-state regulation: spacing repair plus the terminal-deviation term.

The cluster's terminal states are de-duplicated below a spacing floor and
densified wherever consecutive terminal gaps exceed the spacing cap; the
selection cost compares each candidate's terminal state against a reference
candidate through ``terminal_deviation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster
from .frenet_geometry import FrenetState, ReferencePath
from .quintic_sampling import (
    CandidateSpec,
    SamplingGrid,
    TrajectoryCandidate,
    TrajectoryCluster,
    build_rows,
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


def terminal_deviation(
    candidates, reference: TrajectoryCandidate | None, weight: float
) -> np.ndarray:
    """``weight * (v_T - v_T,ref)**2`` per candidate, the terminal term of the
    selection cost; zeros without a reference. ``candidates`` is a list of
    candidates, or their (n, 6) terminal states (a cluster's ``terminals``).

    The paper penalises the terminal deviation [s_dot, s_ddot, d_dot, d_ddot]
    from a reference candidate. Every candidate here ends in a steady terminal
    (``build_rows``: s_ddot = d_dot = d_ddot = 0, as in Werling et al.,
    ICRA 2010), so only the speed term can differ between two candidates. A
    sampler that ends candidates off the steady state must bring the other
    three terms back.
    """
    if reference is None:
        return np.zeros(len(candidates))
    if isinstance(candidates, np.ndarray):
        speeds = candidates[:, 1]
    else:
        speeds = np.array([c.states[-1, 1] for c in candidates])
    dv = speeds - reference.states[-1, 1]
    return weight * (dv * dv)


def _terminal_order(terms: np.ndarray) -> np.ndarray:
    """Stable order of terminal states by lateral offset, then speed: that of
    ``sorted()`` over the (d, s_dot) tuples, ties and -0.0 included."""
    return np.lexsort((terms[:, 1], terms[:, 3]))


def sort_by_terminal(cluster: TrajectoryCluster) -> TrajectoryCluster:
    """Sort candidates by terminal lateral offset, then terminal speed: one
    stable lexsort, and one gather of the rows into new blocks."""
    return TrajectoryCluster(
        candidates=None,
        reference_index=0,
        initial=cluster.initial,
        spacing_budget_exhausted=cluster.spacing_budget_exhausted,
        layout=cluster.rows.take(_terminal_order(cluster.terminals)),
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
    the insertions are built in one ``build_rows`` call. The repaired rows
    are sorted by terminal (``sort_by_terminal``) and gathered from the
    input's and the insertions' rows in one pass. The cluster's
    ``reference_index`` is not read; the repaired cluster selects its own.
    """
    if not len(cluster):
        raise EmptyCluster("cannot enforce spacing on an empty cluster")
    return _repair(cluster, np.arange(len(cluster)), config, grid)


def _repair(
    cluster: TrajectoryCluster,
    chain: np.ndarray,
    config: RegulationConfig,
    grid: SamplingGrid,
) -> TrajectoryCluster:
    """``enforce_spacing`` of the cluster's rows taken in the order ``chain``
    lists them, as if gathered in that order first."""
    # every consecutive gap in one call: a row's np.linalg.norm is the square
    # root of its dot product, which vecdot gives bit for bit
    rows = cluster.rows
    terms = rows.terminals[chain]
    diff = terms[1:] - terms[:-1]
    consecutive = np.sqrt(np.vecdot(diff, diff)).tolist()
    kept: list[int] = [0]  # chain position of each kept candidate
    gaps: list[float] = []  # terminal gap from each kept candidate to the next
    for i in range(1, len(terms)):
        last = kept[-1]
        if last == i - 1:
            gap = consecutive[last]
        else:  # a near-duplicate was dropped since the last kept candidate
            gap = float(np.linalg.norm(terms[i] - terms[last]))
        if gap >= config.min_gap:
            kept.append(i)
            gaps.append(gap)

    budget_exhausted = False
    after: list[int] = []  # index in ``kept`` of the candidate each insertion follows
    alphas: list[float] = []
    horizons: list[float] = []
    kept_rows = chain[kept].tolist()
    kept_horizons = rows.horizon[kept_rows].tolist()
    for k, gap in enumerate(gaps):
        if gap <= config.max_gap:
            continue
        n_insert = math.ceil(gap / config.max_gap) - 1
        if n_insert > _GAP_BUDGET:
            n_insert = _GAP_BUDGET
            budget_exhausted = True
        h_a, h_b = kept_horizons[k], kept_horizons[k + 1]
        for j in range(1, n_insert + 1):
            alpha = j / (n_insert + 1)
            after.append(k)
            alphas.append(alpha)
            horizons.append(_snap_to_grid(h_a + alpha * (h_b - h_a), grid.dt))

    # every insertion target in one expression; one-sided form: exact when
    # components of a and b coincide, so sorting ties stay ties and the
    # repaired chain order holds
    kept_terms = terms[kept]
    at = np.array(after, dtype=int)
    term_a, term_b = kept_terms[at], kept_terms[at + 1]
    targets = (term_a + np.array(alphas)[:, None] * (term_b - term_a)).tolist()
    specs = [
        CandidateSpec(
            terminal_s=s,
            terminal_speed=speed,
            lateral_offset=offset,
            horizon=horizon,
            grid_key=(horizon, speed, offset, "inserted"),
        )
        for (s, speed, _, offset, _, _), horizon in zip(targets, horizons)
    ]

    # built in one call; the chain is each kept row followed by its
    # insertions, as rows of the input's rows joined with the insertions',
    # and one gather lays it out sorted
    inserted, built = build_rows(cluster.initial, specs, grid.dt)
    following: list[list] = [[] for _ in kept_rows]
    for r, i in enumerate(built, len(rows)):
        following[after[i]].append(r)
    out = np.array([r for a, extra in zip(kept_rows, following) for r in (a, *extra)])
    joined = rows.join(inserted)
    order = out[_terminal_order(joined.terminals[out])]
    repaired = TrajectoryCluster(
        candidates=None,
        reference_index=0,
        initial=cluster.initial,
        spacing_budget_exhausted=budget_exhausted or cluster.spacing_budget_exhausted,
        layout=joined.take(order),
    )
    repaired.reference_index = select_reference_candidate(repaired)
    return repaired


def regulated_cluster(
    initial: FrenetState,
    path: ReferencePath,
    grid: SamplingGrid,
    config: RegulationConfig,
) -> TrajectoryCluster:
    """Generate, sort, and spacing-repair a cluster (``sort_by_terminal``,
    then ``enforce_spacing``, with the one gather of the repair); its
    ``reference_index`` names the reference of the selection cost's
    terminal term."""
    cluster = generate_cluster(initial, path, grid)
    return _repair(cluster, _terminal_order(cluster.terminals), config, grid)
