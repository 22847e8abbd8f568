"""Reference-path geometry: arc-length cubic splines and Frenet conversions.

The reference path is one natural cubic spline through both coordinates,
parameterized by arc length. The normal is the tangent rotated +90 degrees
(left of travel), so positive lateral offsets lie left of the path.

The spline's tridiagonal system is set up as SciPy's ``CubicSpline`` sets it
up and solved as LAPACK's ``dgtsv`` solves it, in Python floats, so the fit
is bit for bit SciPy's and its bits do not depend on the installed LAPACK.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateWaypoint,
    InvalidLateralOffset,
    OutOfRangeS,
    OutsideTube,
    ProjectionAmbiguous,
    TooFewWaypoints,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

# Distance gap (meters) under which two projection minima count as ambiguous.
_AMBIGUITY_TOL = 1e-3


@dataclass(frozen=True)
class FrenetState:
    """Path-relative state: arc length, lateral offset, and time derivatives."""

    s: float
    s_dot: float
    s_ddot: float
    d: float
    d_dot: float
    d_ddot: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.s, self.s_dot, self.s_ddot, self.d, self.d_dot, self.d_ddot]
        )

    @classmethod
    def from_array(cls, arr) -> "FrenetState":
        a = np.asarray(arr, dtype=float)
        return cls(a[0], a[1], a[2], a[3], a[4], a[5])


class ReferencePath:
    """Immutable planar curve with arc-length queries.

    Built and shared by :func:`build_reference_path`: its arrays are read-only.
    All queries accept scalars or arrays of arc length and are thread-safe.
    """

    def __init__(self, waypoints, knots, coef):
        self.waypoints = np.array(waypoints, dtype=float)
        self.arc_length_knots = knots
        # per-segment cubic coefficients of each coordinate, shape
        # (4, n_segments), highest power first
        self._cx, self._cy = np.moveaxis(coef, -1, 0)
        for array in (self.waypoints, knots, self._cx, self._cy):
            array.flags.writeable = False
        self.total_length = float(knots[-1])

    def _eval_all(self, s):
        """Position and first two derivatives in one pass (extrapolating).

        Each is an (x, y) pair of arrays shaped like ``s``.
        """
        s = np.asarray(s, dtype=float)
        knots = self.arc_length_knots
        # segment index, clamped to the first/last segment outside the knots
        idx = np.searchsorted(knots[1:-1], s, side="right")
        u = s - knots[idx]
        pos, d1, d2 = [], [], []
        for coef in (self._cx, self._cy):
            c = coef.take(idx, axis=1)
            c0u = c[0] * u
            pos.append(((c0u + c[1]) * u + c[2]) * u + c[3])
            d1.append((3.0 * c0u + 2.0 * c[1]) * u + c[2])
            d2.append(6.0 * c0u + 2.0 * c[1])
        return tuple(pos), tuple(d1), tuple(d2)

    def position(self, s):
        return np.stack(self._eval_all(s)[0], axis=-1)

    def derivative(self, s, order=1):
        if order in (1, 2):
            return np.stack(self._eval_all(s)[order], axis=-1)
        if order != 3:
            raise ValueError(f"order: need 1, 2 or 3, got {order!r}")
        # constant on each segment, clamped to the end segments as _eval_all is
        idx = np.searchsorted(self.arc_length_knots[1:-1], s, side="right")
        return 6.0 * np.stack((self._cx[0], self._cy[0]), axis=-1)[idx]

    def tangent(self, s):
        d1 = np.stack(self._eval_all(s)[1], axis=-1)
        return d1 / np.linalg.norm(d1, axis=-1, keepdims=True)

    def normal(self, s):
        t = self.tangent(s)
        return np.stack([-t[..., 1], t[..., 0]], axis=-1)

    def curvature(self, s):
        _, (d1x, d1y), (d2x, d2y) = self._eval_all(s)
        cross = d1x * d2y - d1y * d2x
        speed = np.sqrt(d1x * d1x + d1y * d1y)
        return cross / speed**3

    def frame(self, s):
        """Position, parameter speed, unit tangent/normal, and curvature at s.

        Single batched evaluation used by force assembly and metrics; the
        parameter speed gamma = |r'(s)| is ~1 but kept exact so downstream
        Jacobians differentiate the implemented geometry, not the ideal one.
        Position, tangent and normal come as (x, y) pairs of arrays shaped
        like ``s``.
        """
        pos, (d1x, d1y), (d2x, d2y) = self._eval_all(s)
        gamma = np.sqrt(d1x**2 + d1y**2)
        tx = d1x / gamma
        ty = d1y / gamma
        kappa = (d1x * d2y - d1y * d2x) / gamma**3
        return pos, gamma, (tx, ty), (-ty, tx), kappa


def _natural_spline(x, y):
    """Per-segment cubic coefficients of the natural spline through the
    points ``y`` (n, 2) at knots ``x``, shape (4, n - 1, 2), highest power
    first: those of ``CubicSpline(x, y, bc_type="natural").c``, bit for bit.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # the system for the knot slopes m, element for element as SciPy sets it
    # up; the natural ends' 0.0 terms decide the sign of a zero right side.
    # A zero past the last row lets one loop do the back substitution.
    d = np.concatenate(([2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]])).tolist()
    du = np.concatenate((dx[:1], dx[:-1], [0.0])).tolist()
    dl = np.concatenate((dx[1:], dx[-1:], [0.0])).tolist()
    bx, by = np.concatenate((
        [-0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])],
        3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:]),
        [0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])],
        np.zeros((2, 2)),
    )).T.tolist()
    # LAPACK dgtsv: elimination with partial pivoting, where a row
    # interchange leaves a second superdiagonal in dl
    n = len(x)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            bx[i + 1] = bx[i + 1] - fact * bx[i]
            by[i + 1] = by[i + 1] - fact * by[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            bx[i], bx[i + 1] = bx[i + 1], bx[i] - fact * bx[i + 1]
            by[i], by[i + 1] = by[i + 1], by[i] - fact * by[i + 1]
    # back substitution, keeping the dl term even where it is 0.0
    for i in range(n - 1, -1, -1):
        bx[i] = (bx[i] - du[i] * bx[i + 1] - dl[i] * bx[i + 2]) / d[i]
        by[i] = (by[i] - du[i] * by[i + 1] - dl[i] * by[i + 2]) / d[i]
    m = np.array((bx[:n], by[:n])).T
    # the Hermite form, as CubicHermiteSpline builds it
    t = (m[:-1] + m[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - m[:-1]) / dxr - t, m[:-1], y[:-1]))


def _segment_lengths(knots, coef):
    """Arc length of each spline segment by 20-point Gauss-Legendre."""
    lo = knots[:-1]
    hi = knots[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # (n_seg, n_nodes) evaluation points
    u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    # r'(u) as SciPy's PPoly evaluates it: on the segment holding u, in the
    # local coordinate, term by term
    idx = np.searchsorted(knots[1:-1], u, side="right")
    z = (u - knots[idx])[..., None]
    c = coef.take(idx, axis=1)
    d1 = c[2] + (c[1] * z) * 2.0 + (c[0] * (z * z)) * 3.0
    speed = np.hypot(d1[..., 0], d1[..., 1])
    return half * (speed @ _GL_WEIGHTS)


def _knots(lengths):
    """Knots at the cumulative segment lengths. DuplicateWaypoint names the
    first pair of waypoints under 1e-12 apart or at one knot."""
    knots = np.concatenate([[0.0], np.cumsum(lengths)])
    if not np.isfinite(knots[-1]):
        raise TooFewWaypoints("waypoints span a path too long to measure")
    flat = (lengths < 1e-12) | (np.diff(knots) <= 0.0)
    if flat.any():
        idx = int(np.argmax(flat))
        raise DuplicateWaypoint(
            f"waypoints {idx} and {idx + 1} coincide (at arc length {float(knots[idx])!r})"
        )
    return knots


def build_reference_path(waypoints) -> ReferencePath:
    """Fit an arc-length-parameterized cubic spline through the waypoints.

    Knots start from chord-length accumulation and are reparameterized once
    with quadrature arc lengths, which brings |r'(s)| to within ~1e-5 of 1
    on smooth paths.

    Each route is fitted once per process: the fits (not errors) of the last
    8 routes are cached on the waypoints' shape and bytes, and shared.
    """
    pts = np.asarray(waypoints, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise TooFewWaypoints(
            f"need at least 4 waypoints of shape (n, 2), got {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise TooFewWaypoints("waypoints must be finite")
    return _cached_fit(pts.shape, pts.tobytes())


@functools.lru_cache(maxsize=8)
def _cached_fit(shape: tuple, data: bytes) -> ReferencePath:
    """The fit of the waypoints of this shape and bytes, on a private copy."""
    pts = np.frombuffer(data).reshape(shape)
    knots = _knots(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    # One reparameterization pass: chord knots -> quadrature arc length -> refit.
    knots = _knots(_segment_lengths(knots, _natural_spline(knots, pts)))
    return ReferencePath(pts, knots, _natural_spline(knots, pts))


def _check_s(path: ReferencePath, s: float) -> float:
    tol = 1e-9 * max(1.0, path.total_length)
    if not np.isfinite(s) or s < -tol or s > path.total_length + tol:
        raise OutOfRangeS(f"s={s} outside [0, {path.total_length}]")
    return float(np.clip(s, 0.0, path.total_length))


def curvature_at(path: ReferencePath, s: float) -> float:
    """Signed curvature (positive = turning left) at arc length s."""
    s = _check_s(path, s)
    return float(path.curvature(s))


def frenet_to_cartesian(path: ReferencePath, s: float, d: float):
    """Map (s, d) to the Cartesian point r(s) + d * n(s)."""
    s = _check_s(path, s)
    kappa = path.curvature(s)
    if kappa != 0.0 and abs(d) * abs(kappa) >= 1.0:
        raise InvalidLateralOffset(
            f"|d|={abs(d)} reaches the curvature center (1/|kappa|={1 / abs(kappa)})"
        )
    return path.position(s) + d * path.normal(s)


def _refine_projection(path: ReferencePath, point, s0: float) -> float:
    """Newton iteration on the projection condition (p - r(s)) . r'(s) = 0."""
    length = path.total_length
    s = s0
    for _ in range(50):
        rel = point - path.position(s)
        d1 = path.derivative(s, 1)
        d2 = path.derivative(s, 2)
        g = float(rel @ d1)
        gp = float(-(d1 @ d1) + rel @ d2)
        if gp == 0.0:
            break
        step = g / gp
        s_new = float(np.clip(s - step, 0.0, length))
        if abs(s_new - s) < 1e-13 * max(1.0, length):
            return s_new
        s = s_new
    return s


def cartesian_to_frenet(path: ReferencePath, point):
    """Project a Cartesian point to (s, d).

    Coarse scan at total_length/512 resolution locates candidate minima,
    Newton refinement polishes each; two near-equal minima raise
    ProjectionAmbiguous, points at or beyond the curvature center raise
    OutsideTube.
    """
    p = np.asarray(point, dtype=float)
    grid = np.linspace(0.0, path.total_length, 513)
    dist = np.linalg.norm(path.position(grid) - p, axis=1)

    candidates = [0, len(grid) - 1]
    interior = np.nonzero(
        (dist[1:-1] <= dist[:-2]) & (dist[1:-1] <= dist[2:])
    )[0] + 1
    candidates.extend(interior.tolist())

    refined: list[tuple[float, float]] = []
    sep = 1e-6 * max(1.0, path.total_length)
    for idx in sorted(set(candidates)):
        s_star = _refine_projection(path, p, float(grid[idx]))
        d_star = float(np.linalg.norm(p - path.position(s_star)))
        if all(abs(s_star - s_prev) > sep for _, s_prev in refined):
            refined.append((d_star, s_star))

    refined.sort(key=lambda item: (item[0], item[1]))
    best_dist, best_s = refined[0]
    if len(refined) > 1 and refined[1][0] - best_dist <= _AMBIGUITY_TOL:
        raise ProjectionAmbiguous(
            f"projections at s={best_s:.6f} and s={refined[1][1]:.6f} are "
            f"equidistant within {_AMBIGUITY_TOL}"
        )

    d = float((p - path.position(best_s)) @ path.normal(best_s))
    kappa = path.curvature(best_s)
    if kappa != 0.0 and abs(d) * abs(kappa) >= 1.0:
        raise OutsideTube(
            f"point at |d|={abs(d):.4f} lies outside the validity tube "
            f"(1/|kappa|={1 / abs(kappa):.4f})"
        )
    return best_s, d
