"""Quintic boundary-value solutions and terminal-configuration sampling.

Longitudinal motion s(t) is a quintic in time; lateral motion d(sigma) is a
quintic in the longitudinal displacement sigma = s - s(0), converted to time
derivatives through the chain rule when sampling. A quintic is the float
(6,) array of its monomial coefficients c0..c5 over its native abscissa.

A build (``build_rows``) is one call of two passes, each one array call of
``solve_quintic``'s closed form and one ``eval_quintic`` call over samples
laid back to back, whatever the mix of horizons. The longitudinal pass
checks every span once, in input order, samples each distinct longitudinal
quintic and drops the specs whose s dips; the lateral pass solves and
samples the lateral quintics of the kept specs, in input order or in a given
order, into the ``SampleRows`` that a ``TrajectoryCluster`` is made from,
and notes the longitudinal samples they gather, where the path frame is
evaluated once per cycle; ``SampleRows.views`` hands its rows out as
candidates. Endpoint regulation plans its spacing repair on the grid specs'
terminals first, so that the grid and its insertions take one build, laid
out in the repaired chain's order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
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

_NO_GRID_ROWS = "all grid triples were discarded"


def _check_span(t: float) -> None:
    """Raise unless ``t`` is a positive span whose boundary system is
    well conditioned, in Python float arithmetic."""
    t = float(t)
    if t <= 0.0:
        raise NonPositiveSpan(f"span must be positive, got {t}")
    if max(t, 1.0 / t) ** 5 > _COND_LIMIT:
        raise IllConditioned(f"boundary system ill-conditioned for span {t}")


def _span_powers(t: float) -> tuple:
    """``t**3, t**4, t**5`` of a span that passes ``_check_span``, as Python
    float powers: NumPy's SIMD pow can differ from libm's in the last bit."""
    t = float(t)
    _check_span(t)
    return t**3, t**4, t**5


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
    c = _solve(b0, bT, T, [_span_powers(t) for t in T.tolist()])
    return c.reshape((6,) + span.shape)


def _solve(b0, bT, T: np.ndarray, powers: list) -> np.ndarray:
    """``solve_quintic`` over the 1-D spans ``T``, already checked, given
    each span's ``_span_powers``: the (6, k) quintics as columns."""
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
    return c


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
        the coordinate bound.

        The clamps keep every value within the rules ``__post_init__``
        checks, so the variant is this grid's copy with the two lists
        replaced, and is not validated again."""
        if self.cycle_jitter == 0.0:
            return self
        j = self.cycle_jitter
        # one draw per list: the stream and bits of one draw per element
        speed_noise = rng.uniform(-j, j, len(self.terminal_speeds)).tolist()
        offset_noise = rng.uniform(-j, j, len(self.lateral_offsets)).tolist()
        speeds = tuple(max(0.05, v + u) for v, u in zip(self.terminal_speeds, speed_noise))
        offsets = tuple(
            min(SPAN, max(-SPAN, o + u)) for o, u in zip(self.lateral_offsets, offset_noise)
        )
        variant = copy.copy(self)
        object.__setattr__(variant, "terminal_speeds", speeds)
        object.__setattr__(variant, "lateral_offsets", offsets)
        return variant


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


# the blocks that hold each row's samples
_SAMPLE_FIELDS = ("times", "states", "jerk_lon", "jerk_lat")


def _row_samples(starts, counts):
    """Starts and ends of rows of ``counts`` samples laid back to back, and
    the index of each of their samples in a layout where the rows start at
    ``starts``."""
    ends = np.cumsum(counts)
    new_starts = ends - counts
    index = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - new_starts, counts)
    return new_starts, ends, index


class RowEnds(NamedTuple):
    """The finite-difference set-up of rows laid back to back, made once per
    layout (``SampleRows.row_ends``) and read by ``momentum_optimizer``'s
    stencils (``_fd_velocity``, ``_fd_accel``, ``fd_gradient``).

    Per sample: ``h2`` (2 h) and ``hh`` (h h), the central stencils'
    divisors. Per row end (``at``: every row's first sample, then every
    row's last): its step ``h_at`` and ``hh_at``, and the samples each
    one-sided stencil reads there, one row per term in the order the stencil
    adds them: ``vel`` (first, first + 1 | last - 1, last), ``acc`` (first,
    first + 1, first + 2 | last, last - 1, last - 2) and ``grad`` (first,
    first + 1, first + 2 | last - 2, last - 1, last), whose coefficients are
    ``grad_coef``.
    """

    h2: np.ndarray
    hh: np.ndarray
    at: np.ndarray
    h_at: np.ndarray
    hh_at: np.ndarray
    vel: np.ndarray
    acc: np.ndarray
    grad: np.ndarray
    grad_coef: np.ndarray

    @classmethod
    def of(cls, step, starts, ends) -> "RowEnds":
        """Rows ``starts[r]:ends[r]`` (at least 3 samples each) at steps
        ``step[r]``; one row of ``n`` samples at step ``h`` is
        ``RowEnds.of([h], [0], [n])``."""
        step = np.asarray(step, dtype=float)
        first = np.asarray(starts, dtype=np.intp)
        last = np.asarray(ends, dtype=np.intp) - 1
        counts = last + 1 - first
        at = np.concatenate((first, last))
        h_at = np.concatenate((step, step))
        # each stencil term's column of _OFFSETS or _GRAD_COEF at every row end
        half = np.repeat(np.arange(2), len(first))
        return cls(
            h2=np.repeat(2.0 * step, counts),
            hh=np.repeat(step * step, counts),
            at=at,
            h_at=h_at,
            hh_at=h_at * h_at,
            vel=at + _OFFSETS["vel"][:, half],
            acc=at + _OFFSETS["acc"][:, half],
            grad=at + _OFFSETS["grad"][:, half],
            grad_coef=_GRAD_COEF[:, half] / h_at,
        )


# each one-sided stencil's terms, one row each, as offsets from the row end
# it is taken at: (from a row's first sample, from its last sample)
_OFFSETS = {
    "vel": np.array([(0, -1), (1, 0)], dtype=np.intp),
    "acc": np.array([(0, 0), (1, -1), (2, -2)], dtype=np.intp),
    "grad": np.array([(0, -2), (1, -1), (2, 0)], dtype=np.intp),
}
# the coefficients of the one-sided gradient's terms, times the step
_GRAD_COEF = np.array([(-1.5, 0.5), (2.0, -2.0), (-0.5, 1.5)])


@dataclass(frozen=True, eq=False)
class SampleRows:
    """Candidates as arrays, one row each: the layout a build writes
    (``build_rows``) or a list of candidates is copied into (``of``), a
    cluster keeps, and costing and classification read in place.

    Row ``r`` (candidate ``r``) is samples ``starts[r]:ends[r]`` of the
    blocks ``times``, ``states`` (rows [s, s_dot, s_ddot, d, d_dot, d_ddot])
    and ``jerk_lon``/``jerk_lat``, laid back to back; ``terminals[r]`` is the
    state at its last sample. Per row it also holds the rest of a candidate:
    the quintics' coefficients ``lon`` and ``lat`` ((n, 6) arrays),
    ``lat_span``, ``horizon`` and ``grid_key``. It derives, once per layout,
    the positions ``s`` and ``d`` and the stencils' set-up ``row_ends``
    (``RowEnds``: each row's step, its first and last samples and the
    samples its one-sided stencils read there), so a stencil call over the
    layout is its interior expression plus one gather and one scatter at
    the row ends.
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

    @classmethod
    def of(cls, candidates) -> "SampleRows":
        """The candidates' rows copied back to back, in input order."""
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
        return cls(
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

    def __len__(self) -> int:
        return len(self.starts)

    @cached_property
    def row_ends(self) -> RowEnds:
        t, starts = self.times, self.starts
        return RowEnds.of(t[starts + 1] - t[starts], starts, self.ends)

    @cached_property
    def s(self) -> np.ndarray:
        return np.ascontiguousarray(self.states[:, 0])

    @cached_property
    def frame_samples(self) -> tuple:
        """The s values at which the path frame of the rows' samples is
        evaluated, and the index of each sample among them (None: one value
        per sample, ``s`` itself). ``build_rows`` sets the samples of its
        longitudinal pass, which rows sharing a longitudinal quintic share
        (a quintic that no row reads, such as a dipping one, is among them);
        rows copied by ``of`` have their own ``s``. This is not a field, so
        it is no part of a layout's value."""
        return self.s, None

    @cached_property
    def d(self) -> np.ndarray:
        return np.ascontiguousarray(self.states[:, 3])

    def views(self) -> list:
        """One TrajectoryCandidate per row, its arrays views of the row (made
        from positional arguments: every cycle makes its cluster's)."""
        t, x, jl, jd = self.times, self.states, self.jerk_lon, self.jerk_lat
        return [
            TrajectoryCandidate(lon, lat, span, horizon, t[a:b], x[a:b], jl[a:b], jd[a:b], key)
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
    """Candidates sharing one initial state, as the arrays of one
    ``SampleRows`` (``rows``) in cluster order.

    ``cluster[i]`` is candidate ``i``, a TrajectoryCandidate whose arrays
    view its row, and ``candidates`` lists them, made on first use (a
    regulated cycle reads only its repaired cluster's candidates, never the
    grid cluster's); ``terminals`` is the (n, 6) matrix of terminal states.
    A list of candidates makes a cluster through ``SampleRows.of``, which
    copies it.
    """

    rows: SampleRows
    initial: FrenetState
    spacing_budget_exhausted: bool = False

    @cached_property
    def candidates(self) -> list:
        return self.rows.views()

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


class _SpanPowers(dict):
    """Each span's ``_span_powers``, checked and computed once per value."""

    def __missing__(self, t):
        self[t] = powers = _span_powers(t)
        return powers


def _steady_terminals(specs: Sequence[CandidateSpec]) -> np.ndarray:
    """The (n, 6) steady terminal states (s, speed, 0, offset, 0, 0) of
    ``specs``: those a build gives the rows it lays out."""
    return np.array(
        [(x.terminal_s, x.terminal_speed, 0.0, x.lateral_offset, 0.0, 0.0) for x in specs]
    ).reshape(-1, 6)


def build_rows(
    initial: FrenetState, specs: Sequence[CandidateSpec], dt: float, order=None
) -> tuple:
    """Solve both quintics toward each spec's steady terminal and sample them.

    Terminal acceleration and lateral rates are zero (steady-terminal
    convention). A spec with a nonpositive longitudinal span or a sampled dip
    in s has no row. Returns the ``SampleRows`` of the specs that have a row,
    in input order or in the order of the spec numbers ``order`` lists
    (specs with no row skipped), and the index in ``specs`` of every spec
    that has a row, in input order.

    Every span is checked first, in input order, so if a span is ill-posed
    the first spec whose solve would fail raises: its longitudinal span
    before its lateral one. A span value is checked once per call. Specs
    sharing (terminal s, terminal speed, horizon) share one longitudinal
    quintic; the distinct ones are solved in one array call and sampled in
    one ``eval_quintic`` call over samples laid back to back, which decides
    each quintic's dip once. The lateral quintics of the rows are then
    solved in one array call and sampled in one ``eval_quintic`` call over
    the longitudinal samples each row gathers, which lays out the blocks;
    the first and last samples are snapped to the shared initial state and
    the exact terminal. The layout's ``frame_samples`` are the longitudinal
    samples, each distinct longitudinal quintic's once, with the index of
    each layout sample among them.
    """
    powers = _SpanPowers()
    keys: dict = {}  # longitudinal key -> its column among the solves
    index, columns, spans = [], [], []  # of the forward specs
    for i, x in enumerate(specs):
        span = x.terminal_s - initial.s
        if span > 0.0:
            # looking a span up checks it: the horizon, then the lateral span
            powers[x.horizon]
            powers[span]
            index.append(i)
            columns.append(keys.setdefault((x.terminal_s, x.terminal_speed, x.horizon), len(keys)))
            spans.append(span)
    start = (initial.s, initial.s_dot, initial.s_ddot)
    ends_s, speeds, horizons = np.array(list(keys), dtype=float).reshape(-1, 3).T
    lon = _solve(start, (ends_s, speeds, 0.0), horizons, [powers[h] for h in horizons.tolist()])

    # each quintic over its own horizon's samples, at the times of
    # np.linspace(0, horizon, count), bit for bit
    counts = np.array([max(4, int(round(h / dt))) + 1 for h in horizons.tolist()], dtype=np.intp)
    ends = np.cumsum(counts)
    starts = ends - counts
    times = (np.arange(counts.sum()) - np.repeat(starts, counts)) * np.repeat(
        horizons / (counts - 1), counts
    )
    times[ends - 1] = horizons
    s, s_dot, s_ddot, s_jerk = eval_quintic(np.repeat(lon, counts, axis=1), times)
    samples = np.stack((times, s_jerk, s, s_dot, s_ddot))
    drops = np.diff(s) < -1e-10
    drops[ends[:-1] - 1] = False  # a row's last sample to the next row's first
    dips = np.logical_or.reduceat(drops, starts)

    # the rows, as positions among the forward specs, in layout order
    forward = np.array(index, dtype=np.intp)
    columns = np.array(columns, dtype=np.intp)
    rows = np.flatnonzero(~dips[columns])
    index = forward[rows]
    if order is not None:
        row_of = np.full(len(specs), -1, dtype=np.intp)
        row_of[index] = rows
        rows = row_of[np.asarray(order, dtype=np.intp)]
        rows = rows[rows >= 0]
    col = columns[rows]
    built = [specs[i] for i in forward[rows].tolist()]
    counts = counts[col]
    first = starts[col]
    row_starts, row_ends, take = _row_samples(first, counts)
    # times and s jerk become blocks of the layout, sharing one gather that
    # holds nothing else; s and its rates only feed the states
    times, s_jerk = samples[:2].take(take, axis=1)
    s, s_dot, s_ddot = samples[2:].take(take, axis=1)
    terminals = _steady_terminals(built)
    lat_spans = np.array(spans, dtype=float)[rows]
    boundary = _lateral_boundary_from_time(initial)
    lat_powers = [powers[spans[j]] for j in rows.tolist()]
    lat = _solve(boundary, (terminals[:, 3], 0.0, 0.0), lat_spans, lat_powers)
    d, dp, dpp, dppp = eval_quintic(np.repeat(lat, counts, axis=1), s - initial.s)
    d_dot = dp * s_dot
    d_ddot = dpp * s_dot**2 + dp * s_ddot
    d_jerk = dppp * s_dot**3 + 3.0 * dpp * s_dot * s_ddot + dp * s_jerk

    states = np.stack((s, s_dot, s_ddot, d, d_dot, d_ddot), axis=1)
    states[row_starts] = initial.as_array()  # shared initial state, exactly
    # Snap the terminal sample to the imposed boundary (solver residual is
    # ~1e-13); exact terminals keep sorting ties and de-duplication stable.
    states[row_ends - 1] = terminals
    out = SampleRows(
        starts=row_starts,
        ends=row_ends,
        times=times,
        states=states,
        jerk_lon=s_jerk,
        jerk_lat=d_jerk,
        terminals=terminals,
        lon=lon.T[col],
        lat=np.ascontiguousarray(lat.T),
        lat_span=lat_spans,
        horizon=horizons[col],
        grid_key=[x.grid_key for x in built],
    )
    # the longitudinal samples, which the layout gathers through take, with
    # s snapped at the row ends as the layout snaps it
    s = samples[2].copy()
    s[first] = initial.s
    s[first + counts - 1] = terminals[:, 0]
    object.__setattr__(out, "frame_samples", (s, take))
    return out, index.tolist()


def build_candidate(
    initial: FrenetState,
    terminal_s: float,
    terminal_speed: float,
    lateral_offset: float,
    horizon: float,
    dt: float,
    grid_key: tuple = (),
) -> Optional[TrajectoryCandidate]:
    """One candidate toward a steady terminal (``build_rows``), or None if
    it is not forward."""
    target = CandidateSpec(terminal_s, terminal_speed, lateral_offset, horizon, grid_key)
    rows, index = build_rows(initial, [target], dt)
    return rows.views()[0] if index else None


def grid_specs(
    initial: FrenetState, path: ReferencePath, grid: SamplingGrid
) -> list:
    """One ``CandidateSpec`` per grid triple, ordered by (horizon, speed,
    offset), keyed by the triple.

    Terminal longitudinal position follows the trapezoidal progress
    heuristic s_T = s_0 + (s_dot_0 + v_T)/2 * horizon; triples with
    nonpositive progress are discarded. A pair past the path's end raises
    PathTooShort once the spans of the specs before it are checked.
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
                # the triples before this pair are checked first, so an
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
    return specs


def generate_cluster(
    initial: FrenetState, path: ReferencePath, grid: SamplingGrid
) -> TrajectoryCluster:
    """One candidate per grid triple (``grid_specs``), built by
    ``build_rows``."""
    rows = build_rows(initial, grid_specs(initial, path, grid), grid.dt)[0]
    if not len(rows):
        raise EmptyCluster(_NO_GRID_ROWS)
    return TrajectoryCluster(rows, initial)
