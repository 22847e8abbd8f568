"""Candidate feasibility classification and the metric families:
smoothness (jerk) statistics, endpoint nearest-neighbor density, and
feasibility/violation breakdowns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    notes: tuple


def kinematic_peaks(
    candidates, path: ReferencePath, rows: Optional[SampleRows] = None
) -> list:
    """``KinematicPeaks`` of each candidate, in input order, in one pass over
    the candidates' ``SampleRows`` (``rows``, a cluster's own, or copied
    here if not given), its jerk blocks and its one path-frame evaluation.

    Speed/acceleration come from finite differences of the Cartesian trace,
    curvature from first/second central differences (yaw rate = curvature *
    speed, curvature rate = d kappa / dt), and jerk from the per-axis stored
    series. Every step is elementwise along a row or a max over it, so a
    candidate's peaks do not depend on the rest of the cluster.
    """
    if not candidates:
        return []
    if rows is None:
        rows = SampleRows.of(candidates, path)
    h, first, last = rows.h, rows.starts, rows.last
    (px, py), _, _, (nx, ny), _ = rows.frame or path.frame(rows.s)
    vx = fd_gradient(px + rows.d * nx, h, first, last)
    vy = fd_gradient(py + rows.d * ny, h, first, last)
    ax = fd_gradient(vx, h, first, last)
    ay = fd_gradient(vy, h, first, last)
    speed = np.sqrt(vx * vx + vy * vy)
    accel = np.sqrt(ax * ax + ay * ay)
    jerk_lon = _row_max(np.abs(rows.jerk_lon), first)
    jerk_lat = _row_max(np.abs(rows.jerk_lat), first)

    # where the speed is degenerate, kappa and every curvature rate whose
    # stencil touches such a sample of its own row are zeroed, so they never
    # exceed a margin and leave 0.0 when no sample of the row is left
    valid = speed > _DEGENERATE_SPEED
    kappa = (vx * ay - vy * ax) / np.maximum(speed, _DEGENERATE_SPEED) ** 3
    kappa[~valid] = 0.0
    kappa_rate = fd_gradient(kappa, h, first, last)
    rate_valid = valid.copy()
    rate_valid[:-1] &= valid[1:]
    rate_valid[1:] &= valid[:-1]
    # the shifts above cross row boundaries: redo each row's end samples
    rate_valid[first] = valid[first] & valid[first + 1]
    rate_valid[last] = valid[last] & valid[last - 1]
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
    degenerate = (~np.logical_and.reduceat(valid, first)).tolist()
    out = []
    for start, end, row, skips in zip(first.tolist(), rows.ends.tolist(), peaks, degenerate):
        notes = ()
        if skips:
            skipped = np.flatnonzero(~valid[start:end])
            notes = (
                f"curvature checks skipped at {skipped.size} near-zero-speed "
                f"sample(s), first at t={rows.times[start + skipped[0]]:.3f}",
            )
        out.append(KinematicPeaks(*row, notes))
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
    its whole cluster; without it the candidate is measured alone.
    """
    if peaks is None:
        peaks = kinematic_peaks([candidate], path)[0]
    margins = {
        Constraint.VELOCITY: peaks.velocity / limits.v_max,
        Constraint.ACCELERATION: peaks.acceleration / limits.a_max,
        Constraint.JERK: peaks.jerk / limits.j_max,
        Constraint.CURVATURE: peaks.curvature / limits.kappa_max,
        Constraint.YAW_RATE: peaks.yaw_rate / limits.yaw_rate_max,
        Constraint.CURVATURE_RATE: peaks.curvature_rate / limits.kappa_rate_max,
    }
    violations = frozenset(c for c, m in margins.items() if m > 1.0)
    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        worst_margins=margins,
        notes=peaks.notes,
    )


def nearest_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``points`` to its nearest other row.

    The squared differences are summed one coordinate at a time, in
    coordinate order: the additions ``np.linalg.norm(diff, axis=-1)`` makes
    over an (n, n, k) difference array, without building it.
    """
    dist2 = 0.0
    for col in points.T:
        diff = col[:, None] - col[None, :]
        dist2 = dist2 + diff * diff
    dist = np.sqrt(dist2)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


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
    """Feasible fraction plus per-constraint violation fractions.

    A candidate violating several constraints counts once per constraint.
    """
    reports = list(reports)
    if not reports:
        raise EmptyInput("no feasibility reports given")
    n = len(reports)
    rates = {
        c: sum(1 for r in reports if c in r.violations) / n for c in CONSTRAINT_ORDER
    }
    overall = sum(1 for r in reports if r.feasible) / n
    return FeasibilityBreakdown(overall_ratio=overall, violation_rates=rates, count=n)
