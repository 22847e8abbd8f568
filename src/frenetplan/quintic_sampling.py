"""Quintic boundary-value solutions and terminal-configuration sampling.

Longitudinal motion s(t) is a quintic in time; lateral motion d(sigma) is a
quintic in the longitudinal displacement sigma = s - s(0), converted to time
derivatives through the chain rule when sampling. A quintic is the float
(6,) array of its monomial coefficients c0..c5 over its native abscissa.

``build_rows`` is the one builder: it solves a call's quintics in two
array calls of ``solve_quintic`` and samples them in two ``eval_quintic``
calls over ragged sample axes, whatever the mix of horizons, into the
``SampleRows`` that a ``TrajectoryCluster`` keeps; ``build_candidates``
hands its rows out as candidates.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
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


def _check_span(t: float) -> None:
    """Raise unless ``t`` is a positive span whose boundary system is
    well conditioned, in Python float arithmetic."""
    t = float(t)
    if t <= 0.0:
        raise NonPositiveSpan(f"span must be positive, got {t}")
    if max(t, 1.0 / t) ** 5 > _COND_LIMIT:
        raise IllConditioned(f"boundary system ill-conditioned for span {t}")


def solve_quintic(b0, bT, span) -> np.ndarray:
    """Monomial coefficients c0..c5 of the unique quintic matching (value,
    d1, d2) at abscissa 0 and at ``span``, as a float (6,) array; for a 1-D
    array of k spans, the (6, k) array of the k quintics as columns, each
    boundary entry a scalar or a (k,) array.

    Solved in closed form, every element with the float operations of a
    scalar solve. The conditioning of the equivalent boundary system scales
    like max(span, 1/span)^5 and is rejected beyond 1e12; spans are checked
    in order, so the first bad one raises.
    """
    span = np.asarray(span, dtype=float)
    T = span.reshape(-1)
    powers = []
    for t in T.tolist():
        _check_span(t)
        # Python float powers: NumPy's SIMD pow can differ from libm's in
        # the last bit
        powers += (t**3, t**4, t**5)
    T3, T4, T5 = np.array(powers).reshape(-1, 3).T

    x0, v0, a0, x1, v1, a1 = (
        float(v) if isinstance(v, (int, float)) else np.asarray(v, dtype=float)
        for v in (*b0, *bT)
    )
    c = np.empty((6, len(T)))
    # overflow to inf stays silent, as it is in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        c[0] = x0
        c[1] = v0
        c[2] = c2 = 0.5 * a0
        y1 = x1 - (x0 + v0 * T + c2 * T * T)
        y2 = v1 - (v0 + 2.0 * c2 * T)
        y3 = a1 - 2.0 * c2
        T2 = T * T
        c[3] = (20.0 * y1 - 8.0 * y2 * T + y3 * T2) / (2.0 * T3)
        c[4] = (-30.0 * y1 + 14.0 * y2 * T - 2.0 * y3 * T2) / (2.0 * T4)
        c[5] = (12.0 * y1 - 6.0 * y2 * T + y3 * T2) / (2.0 * T5)
    return c.reshape((6,) + span.shape)


def eval_quintic(c, x):
    """Value and first three derivatives of c0 + c1 x + ... + c5 x^5 (Horner).

    ``c`` holds one quintic's six coefficients, with a scalar or an array
    abscissa ``x``, or coefficients broadcasting against ``x``: a (6, k, 1)
    batch of k quintics as columns over (k, n) abscissae, or a (6, N) column
    per sample of N samples laid back to back. Each element takes the same
    operations either way. Extrapolation is permitted.
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


# a row's samples, and what a candidate holds per row besides them
_SAMPLE_FIELDS = ("times", "states", "jerk_lon", "jerk_lat")
_ROW_FIELDS = ("terminals", "lon", "lat", "lat_span", "horizon")


def _row_samples(starts, counts):
    """Starts and ends of rows of ``counts`` samples laid back to back, and
    the index of each of their samples in a layout where the rows start at
    ``starts``."""
    ends = np.cumsum(counts)
    new_starts = ends - counts
    index = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - new_starts, counts)
    return new_starts, ends, index


@dataclass(frozen=True, eq=False)
class SampleRows:
    """Candidates as arrays, one row each: the layout a build writes, a
    cluster keeps, and costing and classification read.

    Row ``r`` (candidate ``r``) is samples ``starts[r]:ends[r]`` of the
    blocks ``times``, ``states`` (rows [s, s_dot, s_ddot, d, d_dot, d_ddot])
    and ``jerk_lon``/``jerk_lat``, laid back to back; ``last`` is its last
    sample and ``terminals[r]`` that sample's state. Per row it also holds
    the rest of a candidate: the quintics' coefficients ``lon`` and ``lat``
    ((n, 6) arrays), ``lat_span``, ``horizon`` and ``grid_key``. Per sample
    it derives the step ``h`` (its row's ``times[1] - times[0]``) and the
    positions ``s`` and ``d``. ``frame`` is the path frame at ``s`` once a
    caller evaluated it, else None.
    """

    starts: np.ndarray
    ends: np.ndarray
    times: np.ndarray
    states: np.ndarray
    jerk_lon: np.ndarray
    jerk_lat: np.ndarray
    terminals: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    lat_span: np.ndarray
    horizon: np.ndarray
    grid_key: list
    frame: Optional[tuple] = None

    @classmethod
    def of(cls, candidates, path: ReferencePath | None = None) -> "SampleRows":
        """The candidates' rows copied back to back, in input order, with
        the path frame if ``path`` is given."""
        counts = np.array([len(c.times) for c in candidates], dtype=np.intp)
        if counts.min(initial=3) < 3:
            # the one-sided stencils would reach into the next row
            raise ValueError("every candidate needs at least 3 samples")
        ends = np.cumsum(counts)
        blocks = {
            name: np.concatenate([getattr(c, name) for c in candidates])
            if candidates else np.zeros((0, 6) if name == "states" else 0)
            for name in _SAMPLE_FIELDS
        }
        rows = cls(
            starts=ends - counts,
            ends=ends,
            **blocks,
            terminals=blocks["states"][ends - 1],
            lon=np.array([c.lon for c in candidates]).reshape(-1, 6),
            lat=np.array([c.lat for c in candidates]).reshape(-1, 6),
            lat_span=np.array([c.lat_span for c in candidates], dtype=float),
            horizon=np.array([c.horizon for c in candidates], dtype=float),
            grid_key=[c.grid_key for c in candidates],
        )
        return rows if path is None else replace(rows, frame=path.frame(rows.s))

    def __len__(self) -> int:
        return len(self.starts)

    @cached_property
    def last(self) -> np.ndarray:
        return self.ends - 1

    @cached_property
    def h(self) -> np.ndarray:
        t, starts = self.times, self.starts
        return np.repeat(t[starts + 1] - t[starts], self.ends - starts)

    @cached_property
    def s(self) -> np.ndarray:
        return np.ascontiguousarray(self.states[:, 0])

    @cached_property
    def d(self) -> np.ndarray:
        return np.ascontiguousarray(self.states[:, 3])

    def take(self, order) -> "SampleRows":
        """The rows ``order`` lists, in that order, in new blocks."""
        order = np.asarray(order, dtype=np.intp)
        starts, ends, samples = _row_samples(
            self.starts[order], (self.ends - self.starts)[order]
        )
        # ndarray.take: faster than fancy indexing on the (N, 6) blocks
        return SampleRows(
            starts=starts,
            ends=ends,
            **{name: getattr(self, name).take(samples, axis=0) for name in _SAMPLE_FIELDS},
            **{name: getattr(self, name).take(order, axis=0) for name in _ROW_FIELDS},
            grid_key=[self.grid_key[i] for i in order.tolist()],
        )

    def join(self, other: "SampleRows") -> "SampleRows":
        """These rows, then ``other``'s, in new blocks."""
        n = len(self.times)
        return SampleRows(
            starts=np.concatenate((self.starts, other.starts + n)),
            ends=np.concatenate((self.ends, other.ends + n)),
            **{
                name: np.concatenate((getattr(self, name), getattr(other, name)))
                for name in _SAMPLE_FIELDS + _ROW_FIELDS
            },
            grid_key=self.grid_key + other.grid_key,
        )

    def views(self) -> list:
        """One TrajectoryCandidate per row, its arrays views of the row."""
        t, x, jl, jd = self.times, self.states, self.jerk_lon, self.jerk_lat
        return [
            TrajectoryCandidate(
                lon=lon,
                lat=lat,
                lat_span=span,
                horizon=horizon,
                times=t[a:b],
                states=x[a:b],
                jerk_lon=jl[a:b],
                jerk_lat=jd[a:b],
                grid_key=key,
            )
            for lon, lat, span, horizon, key, a, b in zip(
                self.lon, self.lat, self.lat_span.tolist(), self.horizon.tolist(),
                self.grid_key, self.starts.tolist(), self.ends.tolist(),
            )
        ]

    def trapezoid(self, y) -> np.ndarray:
        """``np.trapezoid`` of each row of ``y`` over its ``times``, bit for
        bit: the terms over the whole axis, then each row's summed in a
        contiguous block with the rows of its sample count, so numpy's pairwise
        sum sees the row alone (a sequential ``np.add.reduceat`` does not)."""
        t = self.times
        terms = (t[1:] - t[:-1]) * (y[1:] + y[:-1]) / 2.0
        counts = self.ends - self.starts
        out = np.empty(len(counts))
        for n in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == n)
            out[rows] = terms[self.starts[rows, None] + np.arange(n - 1)].sum(axis=-1)
        return out


@dataclass
class TrajectoryCluster:
    """Candidates sharing one initial state, with a designated reference, as
    the arrays of one ``SampleRows`` (``rows``) in cluster order.

    ``cluster[i]`` is candidate ``i``, a TrajectoryCandidate whose arrays
    view its row, and ``candidates`` lists them, made on first use;
    ``terminals`` is the (n, 6) matrix of terminal states. The builder,
    sorting and spacing repair make a cluster from its rows (``layout``);
    made from ``candidates`` instead, a cluster copies their samples into
    new blocks and keeps candidates viewing them there.
    """

    candidates: Optional[list]
    reference_index: int
    initial: FrenetState
    spacing_budget_exhausted: bool = False
    layout: InitVar[Optional[SampleRows]] = None
    rows: SampleRows = field(init=False, repr=False, compare=False)

    def __post_init__(self, layout):
        if layout is not None:
            # made from the rows on first use: a regulated cycle reads only
            # its repaired cluster's candidates, never the grid cluster's
            del self.candidates
            self.rows = layout
            return
        self.rows = rows = SampleRows.of(self.candidates)
        self.candidates = [
            replace(c, **{name: getattr(rows, name)[a:b] for name in _SAMPLE_FIELDS})
            for c, a, b in zip(self.candidates, rows.starts.tolist(), rows.ends.tolist())
        ]

    def __getattr__(self, name):
        # only ``candidates`` of a cluster made from its rows is missing
        if name != "candidates":
            raise AttributeError(name)
        self.candidates = self.rows.views()
        return self.candidates

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i) -> TrajectoryCandidate:
        return self.candidates[i]

    @property
    def terminals(self) -> np.ndarray:
        return self.rows.terminals


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


def build_rows(initial: FrenetState, specs: Sequence[CandidateSpec], dt: float) -> tuple:
    """Solve both quintics toward each spec's steady terminal and sample them.

    Terminal acceleration and lateral rates are zero (steady-terminal
    convention). Returns the ``SampleRows`` of the forward specs, in input
    order, and the index in ``specs`` of each row; a spec with a nonpositive
    longitudinal span or a sampled dip in s has no row. Specs sharing
    (terminal s, terminal speed, horizon) share one longitudinal quintic. The
    distinct longitudinal quintics are solved in one array call and the
    lateral ones in another. The spans are checked first, in input order, so
    if a span is ill-posed the first spec whose solve would fail raises: its
    longitudinal span (if new) before its lateral one.

    Sampling takes two ``eval_quintic`` calls, each over samples laid back to
    back on one axis: every longitudinal quintic over its own horizon, which
    decides its dip once, then every kept spec's lateral quintic over the
    longitudinal row it gathers, which lays out the rows' blocks.
    """
    keys: dict = {}  # longitudinal key -> its column among the solves
    index, kept, columns, spans = [], [], [], []  # of the forward specs
    for i, x in enumerate(specs):
        span = x.terminal_s - initial.s
        if span > 0.0:
            index.append(i)
            kept.append(x)
            key = (x.terminal_s, x.terminal_speed, x.horizon)
            if key not in keys:
                _check_span(x.horizon)
            _check_span(span)
            columns.append(keys.setdefault(key, len(keys)))
            spans.append(span)
    if not kept:
        return SampleRows.of([]), []
    boundary = _lateral_boundary_from_time(initial)
    start = (initial.s, initial.s_dot, initial.s_ddot)
    ends_s, speeds, horizons = np.array(list(keys)).T
    lon = solve_quintic(start, (ends_s, speeds, 0.0), horizons)
    lat = solve_quintic(boundary, ([x.lateral_offset for x in kept], 0.0, 0.0), spans)

    # longitudinal pass: each quintic over its own horizon's samples, at
    # the times of np.linspace(0, horizon, count), bit for bit
    counts = np.array([max(4, int(round(h / dt))) + 1 for h in horizons.tolist()])
    ends = np.cumsum(counts)
    starts = ends - counts
    times = (np.arange(ends[-1]) - np.repeat(starts, counts)) * np.repeat(
        horizons / (counts - 1), counts
    )
    times[ends - 1] = horizons
    s, s_dot, s_ddot, s_jerk = eval_quintic(np.repeat(lon, counts, axis=1), times)
    drops = np.diff(s) < -1e-10
    drops[ends[:-1] - 1] = False  # a row's last sample to the next row's first
    dips = np.logical_or.reduceat(drops, starts)

    # lateral pass: each forward spec gathers its longitudinal row
    columns = np.array(columns)
    own = np.flatnonzero(~dips[columns])
    if not len(own):
        return SampleRows.of([]), []
    col = columns[own]
    n = counts[col]
    row_starts, row_ends, take = _row_samples(starts[col], n)
    s, s_dot, s_ddot, s_jerk = s[take], s_dot[take], s_ddot[take], s_jerk[take]
    d, dp, dpp, dppp = eval_quintic(np.repeat(lat[:, own], n, axis=1), s - initial.s)
    d_dot = dp * s_dot
    d_ddot = dpp * s_dot**2 + dp * s_ddot
    d_jerk = dppp * s_dot**3 + 3.0 * dpp * s_dot * s_ddot + dp * s_jerk

    states = np.stack((s, s_dot, s_ddot, d, d_dot, d_ddot), axis=1)
    states[row_starts] = initial.as_array()  # shared initial state, exactly
    # Snap the terminal sample to the imposed boundary (solver residual is
    # ~1e-13); exact terminals keep sorting ties and de-duplication stable.
    built = [kept[j] for j in own.tolist()]
    terminals = np.array(
        [(x.terminal_s, x.terminal_speed, 0.0, x.lateral_offset, 0.0, 0.0) for x in built]
    )
    states[row_ends - 1] = terminals
    rows = SampleRows(
        starts=row_starts,
        ends=row_ends,
        times=times[take],
        states=states,
        jerk_lon=s_jerk,
        jerk_lat=d_jerk,
        terminals=terminals,
        lon=lon.T[col],
        lat=lat.T[own],
        lat_span=np.array(spans)[own],
        horizon=horizons[col],
        grid_key=[x.grid_key for x in built],
    )
    return rows, [index[j] for j in own.tolist()]


def build_candidates(
    initial: FrenetState, specs: Sequence[CandidateSpec], dt: float
) -> list:
    """``build_rows`` as one entry per spec, in order: the candidate, whose
    arrays are disjoint slices of the build's shared blocks, or None for a
    non-forward one."""
    rows, index = build_rows(initial, specs, dt)
    out = [None] * len(specs)
    for i, cand in zip(index, rows.views()):
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
    built by ``build_rows``.

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
                build_rows(initial, specs, grid.dt)
                raise PathTooShort(
                    f"terminal s={terminal_s:.3f} beyond path end "
                    f"{path.total_length:.3f} (speed {speed}, horizon {horizon})"
                )
            specs += [
                CandidateSpec(terminal_s, speed, offset, horizon, (horizon, speed, offset))
                for offset in sorted(grid.lateral_offsets)
            ]
    rows = build_rows(initial, specs, grid.dt)[0]
    if not len(rows):
        raise EmptyCluster("all grid triples were discarded")
    return TrajectoryCluster(candidates=None, reference_index=0, initial=initial, layout=rows)

