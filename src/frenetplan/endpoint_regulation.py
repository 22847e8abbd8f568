"""Terminal-state regulation: spacing repair plus the terminal-deviation term.

The cluster's terminal states are de-duplicated below a spacing floor and
densified wherever consecutive terminal gaps exceed the spacing cap, a plan
that reads terminal states and horizons alone, builds nothing and returns
the repaired chain's layout order, which one ``build_rows`` call then lays
out; the selection cost compares each candidate's terminal state against a
reference candidate through ``terminal_deviation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, IllConditioned, NonPositiveSpan
from .frenet_geometry import FrenetState, ReferencePath
from .quintic_sampling import (
    _NO_GRID_ROWS,
    CandidateSpec,
    SampleRows,
    SamplingGrid,
    TrajectoryCandidate,
    TrajectoryCluster,
    _steady_terminals,
    build_rows,
    generate_cluster,  # noqa: F401 - perfbench's tracer wraps this name here
    grid_specs,
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
    (0, median terminal speed); ties go to the smaller index. The median of
    one sorted list of the speeds is ``np.median``'s (``(a + b) / 2`` for an
    even count), and ``d*d + e*e`` is the sum of a two-column row."""
    if not len(cluster):
        raise EmptyCluster("cannot select a reference in an empty cluster")
    terms = cluster.terminals
    speeds = sorted(terms[:, 1].tolist())
    mid = len(speeds) // 2
    median = speeds[mid] if len(speeds) % 2 else (speeds[mid - 1] + speeds[mid]) / 2
    d, e = terms[:, 3], terms[:, 1] - median
    # Python floats hold float64 exactly, and compare faster than numpy scalars
    dist2 = (d * d + e * e).tolist()
    best = 0
    for i in range(1, len(dist2)):
        if dist2[i] < dist2[best] - _TIE_TOL:
            best = i
    return best


def terminal_deviation(
    terminals: np.ndarray, reference: TrajectoryCandidate | None, weight: float
) -> np.ndarray:
    """``weight * (v_T - v_T,ref)**2`` per row of the (n, 6) terminal states
    ``terminals`` (a cluster's, or its rows'), the terminal term of the
    selection cost; zeros without a reference.

    The paper penalises the terminal deviation [s_dot, s_ddot, d_dot, d_ddot]
    from a reference candidate. Every candidate here ends in a steady terminal
    (``build_rows``: s_ddot = d_dot = d_ddot = 0, as in Werling et al.,
    ICRA 2010), so only the speed term can differ between two candidates. A
    sampler that ends candidates off the steady state must bring the other
    three terms back.
    """
    if reference is None:
        return np.zeros(len(terminals))
    dv = terminals[:, 1] - reference.states[-1, 1]
    return weight * (dv * dv)


def _terminal_order(terms: np.ndarray) -> np.ndarray:
    """Stable order of terminal states by lateral offset, then speed: that of
    ``sorted()`` over the (d, s_dot) tuples, ties and -0.0 included."""
    return np.lexsort((terms[:, 1], terms[:, 3]))


def sort_by_terminal(cluster: TrajectoryCluster) -> TrajectoryCluster:
    """Sort candidates by terminal lateral offset, then terminal speed: one
    stable lexsort, and the candidates copied in that order
    (``SampleRows.of``)."""
    candidates = cluster.candidates
    return TrajectoryCluster(
        SampleRows.of([candidates[i] for i in _terminal_order(cluster.terminals).tolist()]),
        cluster.initial,
        cluster.spacing_budget_exhausted,
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
    horizons snap to multiples of ``grid.dt``, the only grid field read.
    The plan (``_repair``) reads the rows' terminals and horizons only and
    returns the repaired chain's layout order; ``regulated_cluster`` follows
    it too. Here the input's rows may come from anywhere, so the insertions
    are built on their own (one ``build_rows`` call, in chain order), and the
    chain is copied from the input's and the insertions' candidates in one
    ``SampleRows.of`` call.
    """
    if not len(cluster):
        raise EmptyCluster("cannot enforce spacing on an empty cluster")
    initial = cluster.initial
    n = len(cluster)
    order, specs, exhausted = _repair(
        cluster.terminals, cluster.rows.horizon, np.arange(n), config, grid.dt
    )
    order = order.tolist()
    inserted, built = build_rows(initial, specs, grid.dt, [i - n for i in order if i >= n])
    # the insertions' rows come in chain order; one that has none is skipped
    built = {n + j for j in built}
    rows = iter(inserted.views())
    candidates = cluster.candidates
    return TrajectoryCluster(
        SampleRows.of([candidates[i] if i < n else next(rows)
                       for i in order if i < n or i in built]),
        initial,
        exhausted or cluster.spacing_budget_exhausted,
    )


def _repair(
    terminals: np.ndarray,
    horizon: np.ndarray,
    chain: np.ndarray,
    config: RegulationConfig,
    dt: float,
) -> tuple:
    """The spacing plan of rows with these ``terminals`` and ``horizon``,
    taken in the order ``chain`` lists them. It builds nothing.

    Returns the repaired chain's layout order, over row numbers and
    insertion numbers ``n + j`` (``n`` rows): each kept row followed by the
    insertions after it, sorted by terminal (``_terminal_order``, on the
    rows' terminals and the insertions' targets); the ``CandidateSpec`` of
    each insertion ``j``; and whether an oversized gap ran out of
    insertions. The sort is stable, so an insertion that gets no row can be
    skipped after it as well as before it.
    """
    # every consecutive gap in one call: a row's np.linalg.norm is the square
    # root of its dot product, which vecdot gives bit for bit
    terms = terminals[chain]
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
    n = len(terminals)
    kept_rows = chain[kept].tolist()
    kept_horizons = horizon[kept_rows].tolist()
    order: list[int] = []  # the repaired chain, in chain order
    for k, gap in enumerate(gaps):
        order.append(kept_rows[k])
        if gap <= config.max_gap:
            continue
        n_insert = math.ceil(gap / config.max_gap) - 1
        if n_insert > _GAP_BUDGET:
            n_insert = _GAP_BUDGET
            budget_exhausted = True
        h_a, h_b = kept_horizons[k], kept_horizons[k + 1]
        for j in range(1, n_insert + 1):
            alpha = j / (n_insert + 1)
            order.append(n + len(after))
            after.append(k)
            alphas.append(alpha)
            horizons.append(_snap_to_grid(h_a + alpha * (h_b - h_a), dt))
    order.append(kept_rows[-1])

    # every insertion target in one expression; one-sided form: exact when
    # components of a and b coincide, so sorting ties stay ties and the
    # repaired chain order holds
    kept_terms = terms[kept]
    at = np.array(after, dtype=int)
    term_a, term_b = kept_terms[at], kept_terms[at + 1]
    targets = term_a + np.array(alphas)[:, None] * (term_b - term_a)
    specs = [
        CandidateSpec(
            terminal_s=s,
            terminal_speed=speed,
            lateral_offset=offset,
            horizon=horizon,
            grid_key=(horizon, speed, offset, "inserted"),
        )
        for (s, speed, _, offset, _, _), horizon in zip(targets.tolist(), horizons)
    ]
    # a build's terminal holds its target's speed and offset, the sort keys
    order = np.array(order)
    order = order[_terminal_order(np.concatenate((terminals, targets))[order])]
    return order, specs, budget_exhausted


def regulated_cluster(
    initial: FrenetState,
    path: ReferencePath,
    grid: SamplingGrid,
    config: RegulationConfig,
) -> TrajectoryCluster:
    """``enforce_spacing(sort_by_terminal(generate_cluster(...)))``, bit
    for bit, with each row built once.

    The spacing plan runs on the grid specs' (``grid_specs``) own terminals
    and horizons, which are those a build gives, in sorted order, and
    returns the repaired chain's layout order. Then one ``build_rows`` call
    takes the grid specs followed by the insertions and lays out the chain
    in that order.

    A grid spec whose s dips has no row, so the plan made with it is not the
    library's: it is dropped and the plan made again, by the same code. The
    build raises the library's error, if any: an insertion that only a plan
    with a dipping grid spec makes raises nothing.
    """
    specs = grid_specs(initial, path, grid)
    while True:
        if not specs:
            raise EmptyCluster(_NO_GRID_ROWS)
        n = len(specs)
        terminals = _steady_terminals(specs)
        order, inserted, exhausted = _repair(
            terminals, np.array([x.horizon for x in specs]), _terminal_order(terminals),
            config, grid.dt,
        )
        try:
            rows, index = build_rows(initial, specs + inserted, grid.dt, order)
        except (IllConditioned, NonPositiveSpan):  # a span check's errors
            # the grid specs raise the library's error here themselves
            index = build_rows(initial, specs, grid.dt)[1]
            if len(index) == n:
                raise
        else:
            # index lists the built specs in input order: the grid specs first
            if index[n - 1 : n] == [n - 1]:
                break
        specs = [specs[i] for i in index if i < n]
    return TrajectoryCluster(rows, initial, exhausted)
