"""Candidate feasibility classification and the metric families:
smoothness (jerk) statistics, endpoint nearest-neighbor density, and
feasibility/violation breakdowns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import starmap
from typing import NamedTuple, Optional

import numpy as np

from .errors import EmptyInput, TooFewEndpoints
from .frenet_geometry import ReferencePath
from .momentum_optimizer import fd_gradient
from .quintic_sampling import SampleRows, TrajectoryCandidate, TrajectoryCluster
from .schema import check, spec

# Below this Cartesian speed, curvature-family quantities are undefined and
# the corresponding checks are skipped at that sample.
_DEGENERATE_SPEED = 1e-3

# the largest value of each row of a ``SampleRows`` axis, given the rows'
# starts: max is exact in any order, so each row gets the bits of np.max
_row_max = np.maximum.reduceat


class Constraint(str, enum.Enum):
    """A kinematic constraint; each member is a ``str`` equal to its simlog
    and CSV name (``Constraint.YAW_RATE == "yaw_rate"``)."""

    VELOCITY = "velocity"
    ACCELERATION = "acceleration"
    JERK = "jerk"
    CURVATURE = "curvature"
    YAW_RATE = "yaw_rate"
    CURVATURE_RATE = "curvature_rate"

    # str() and f-strings give the name on every Python version; from 3.11
    # they would give "Constraint.YAW_RATE"
    __str__ = str.__str__


CONSTRAINT_ORDER = tuple(Constraint)


@dataclass(frozen=True)
class KinematicLimits:
    """Hard limits; walking-pace defaults for the bundled scenarios."""

    v_max: float = spec(2.0, "positive")
    a_max: float = spec(1.5, "positive")
    j_max: float = spec(4.0, "positive")
    kappa_max: float = spec(1.0, "positive")
    yaw_rate_max: float = spec(1.0, "positive")
    kappa_rate_max: float = spec(2.0, "positive")

    __post_init__ = check


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: frozenset
    worst_margins: dict
    notes: tuple = ()


@dataclass(frozen=True)
class ClusterStats:
    """Nearest-neighbor statistics over terminal states (population std)."""

    nn_mean: float
    nn_std: float
    nn_min: float
    nn_max: float
    count: int


class KinematicPeaks(NamedTuple):
    """One candidate's largest speed, acceleration, |jerk|, |kappa|,
    |kappa * speed| and |d kappa / dt|, in ``CONSTRAINT_ORDER`` and before
    division by the limits, plus the notes of its feasibility report."""

    velocity: float
    acceleration: float
    jerk: float
    curvature: float
    yaw_rate: float
    curvature_rate: float
    notes: tuple = ()


def kinematic_peaks(rows: SampleRows, path: ReferencePath, frame: tuple | None = None) -> list:
    """``KinematicPeaks`` of each row of ``rows``, in order, in one pass over
    their samples, their jerk blocks and one path-frame evaluation:
    ``frame``, which is ``path.frame(rows.s)`` if the caller has it already
    (only its position and normal are read), else evaluated here.

    Speed/acceleration come from finite differences of the Cartesian trace,
    curvature from first/second central differences (yaw rate = curvature *
    speed, curvature rate = d kappa / dt), and jerk from the per-axis stored
    series. Every step is elementwise along a row or a max over it, so a
    candidate's peaks do not depend on the rest of the cluster; the
    degenerate-speed masks and notes run only if some speed is degenerate.
    """
    if not len(rows):
        return []
    ends, first = rows.row_ends, rows.starts
    (px, py), _, _, (nx, ny), _ = frame or path.frame(rows.s)
    vx = fd_gradient(px + rows.d * nx, ends)
    vy = fd_gradient(py + rows.d * ny, ends)
    ax = fd_gradient(vx, ends)
    ay = fd_gradient(vy, ends)
    speed = np.sqrt(vx * vx + vy * vy)
    accel = np.sqrt(ax * ax + ay * ay)
    jerk_lon = _row_max(np.abs(rows.jerk_lon), first)
    jerk_lat = _row_max(np.abs(rows.jerk_lat), first)

    # where the speed is degenerate, kappa and every curvature rate whose
    # stencil touches such a sample of its own row are zeroed, so they never
    # exceed a margin and leave 0.0 when no sample of the row is left
    valid = speed > _DEGENERATE_SPEED
    degenerate = not valid.all()
    kappa = (vx * ay - vy * ax) / np.maximum(speed, _DEGENERATE_SPEED) ** 3
    if degenerate:
        kappa[~valid] = 0.0
    kappa_rate = fd_gradient(kappa, ends)
    if degenerate:
        rate_valid = valid.copy()
        rate_valid[:-1] &= valid[1:]
        rate_valid[1:] &= valid[:-1]
        # the shifts above cross row boundaries: redo each row's end samples
        # from the two samples its one-sided velocity stencil reads
        end_pair = valid.take(ends.vel)
        rate_valid[ends.at] = end_pair[0] & end_pair[1]
        kappa_rate[~rate_valid] = 0.0

    peaks = np.stack(
        [
            _row_max(speed, first),
            _row_max(accel, first),
            # Python's max(lon, lat), NaN included
            np.where(jerk_lat > jerk_lon, jerk_lat, jerk_lon),
            _row_max(np.abs(kappa), first),
            _row_max(np.abs(kappa * speed), first),
            _row_max(np.abs(kappa_rate), first),
        ],
        axis=1,
    ).tolist()
    out = list(starmap(KinematicPeaks, peaks))
    if not degenerate:
        return out
    # notes only for the rows with a degenerate-speed sample
    for r in np.flatnonzero(~np.logical_and.reduceat(valid, first)).tolist():
        start = first[r]
        skipped = np.flatnonzero(~valid[start : rows.ends[r]])
        out[r] = out[r]._replace(notes=(
            f"curvature checks skipped at {skipped.size} near-zero-speed "
            f"sample(s), first at t={rows.times[start + skipped[0]]:.3f}",
        ))
    return out


def check_candidate(
    candidate: TrajectoryCandidate,
    path: ReferencePath,
    limits: KinematicLimits,
    peaks: Optional[KinematicPeaks] = None,
) -> FeasibilityReport:
    """Classify one candidate against the kinematic limits: its
    ``kinematic_peaks`` divided by the limits. A candidate may violate
    several constraints at once.

    ``peaks`` is the candidate's entry of a ``kinematic_peaks`` call over
    its cluster's rows; without it the candidate is measured alone.
    """
    if peaks is None:
        peaks = kinematic_peaks(SampleRows.of([candidate]), path)[0]
    margins = dict(zip(CONSTRAINT_ORDER, (
        peaks.velocity / limits.v_max,
        peaks.acceleration / limits.a_max,
        peaks.jerk / limits.j_max,
        peaks.curvature / limits.kappa_max,
        peaks.yaw_rate / limits.yaw_rate_max,
        peaks.curvature_rate / limits.kappa_rate_max,
    )))
    violations = frozenset([c for c, m in margins.items() if m > 1.0])
    return FeasibilityReport(not violations, violations, margins, peaks.notes)


def nearest_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``points`` to its nearest other row.

    The squared differences are summed one coordinate at a time, in
    coordinate order: the additions ``np.linalg.norm(diff, axis=-1)`` makes
    over an (n, n, k) difference array, without building it. A coordinate
    zero in every row (a steady terminal's s_ddot, d_dot, d_ddot) adds only
    +0.0 and is skipped; sqrt, monotone and correctly rounded, is taken of
    each row's smallest sum alone, which gives the same bits.
    """
    dist2 = np.zeros((len(points), len(points)))
    for col in points.T[points.any(axis=0)]:
        diff = col[:, None] - col[None, :]
        dist2 += diff * diff
    np.fill_diagonal(dist2, np.inf)
    return np.sqrt(dist2.min(axis=1))


def nn_distance_stats(cluster: TrajectoryCluster) -> ClusterStats:
    """Nearest-neighbor distances between terminal 6-vectors (SI Euclidean)."""
    terms = cluster.terminals
    n = terms.shape[0]
    if n < 2:
        raise TooFewEndpoints("need at least 2 endpoints for nearest-neighbor stats")
    nearest = nearest_distances(terms)
    return ClusterStats(
        nn_mean=float(nearest.mean()),
        nn_std=float(nearest.std()),
        nn_min=float(nearest.min()),
        nn_max=float(nearest.max()),
        count=n,
    )


def abs_summary(values: np.ndarray) -> tuple:
    """(median, IQR, RMS, peak) of |values|; all zero for an empty array."""
    mags = np.abs(values)
    if mags.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    q25, q75 = np.percentile(mags, [25, 75])
    return (
        float(np.median(mags)),
        float(q75 - q25),
        float(np.sqrt(np.mean(mags**2))),
        float(mags.max()),
    )


@dataclass(frozen=True)
class FeasibilityBreakdown:
    overall_ratio: float
    violation_rates: dict
    count: int


def feasibility_breakdown(reports) -> FeasibilityBreakdown:
    """Feasible fraction plus per-constraint violation fractions, counted in
    one pass over the reports.

    A candidate violating several constraints counts once per constraint.
    """
    counts = dict.fromkeys(CONSTRAINT_ORDER, 0)
    feasible = n = 0
    for n, r in enumerate(reports, 1):
        if r.feasible:
            feasible += 1
        for c in r.violations:
            if c in counts:
                counts[c] += 1
    if not n:
        raise EmptyInput("no feasibility reports given")
    rates = {c: k / n for c, k in counts.items()}
    return FeasibilityBreakdown(overall_ratio=feasible / n, violation_rates=rates, count=n)
