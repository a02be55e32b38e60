"""Exact Beurling-type density scans over sliding cube windows.

The upper scan maximizes window mass over all placements of a closed cube
of side N; for that problem the optimum is attained with the window's
lower-left corner at a support point, so the scan over point anchors is
exact.  The lower scan minimizes over a continuum of placements inside the
origin-symmetric bounding box of the support, evaluating the piecewise
constant count once per cell between critical edge positions.

Finite truncations under-count the infinite expansion far from the origin.
A lower-scan window is therefore only *trusted* when the next level assigns
it the same count; untrusted entries are reported but carry trusted=False.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, UnsupportedDimension
from .pointset import WeightedPointSet, _interval_counts, _prefix_sums

#: Relative tolerance for closed-window boundary membership.
BOUNDARY_TOL = 1e-12

#: Number of window sizes in a natural (geometric, ratio 2) schedule.
NATURAL_SCHEDULE_LEN = 9


@dataclass(frozen=True)
class WindowSchedule:
    """Strictly increasing positive window side lengths."""

    sizes: tuple[float, ...]

    def __post_init__(self):
        if len(self.sizes) == 0:
            raise ValueError("schedule must contain at least one size")
        arr = np.asarray(self.sizes, dtype=float)
        if arr[0] <= 0 or np.any(np.diff(arr) <= 0):
            raise ValueError("window sizes must be positive and strictly increasing")
        object.__setattr__(self, "sizes", tuple(float(s) for s in arr))

    @classmethod
    def geometric(cls, start: float, stop: float, count: int) -> "WindowSchedule":
        if count < 1:
            raise ValueError("count must be at least 1")
        if count == 1:
            return cls((float(stop),))
        ratio = (stop / start) ** (1.0 / (count - 1))
        sizes = [start * ratio**i for i in range(count - 1)] + [float(stop)]
        return cls(tuple(sizes))

    @classmethod
    def linear(cls, start: float, stop: float, count: int) -> "WindowSchedule":
        if count < 1:
            raise ValueError("count must be at least 1")
        return cls(tuple(np.linspace(start, stop, count)))


@dataclass(frozen=True)
class WindowEntry:
    """Scan result at one window size; sup and inf halves fill independently."""

    size: float
    sup_count: int | None = None
    sup_value: float | None = None
    argmax_center: tuple[float, ...] | None = None
    inf_count: int | None = None
    inf_value: float | None = None
    argmin_center: tuple[float, ...] | None = None
    trusted: bool | None = None


@dataclass(frozen=True)
class DensityEstimate:
    dim: int
    entries: tuple[WindowEntry, ...]
    level: int | None
    max_multiplicity: int


@dataclass(frozen=True)
class MeasureResult:
    """A reciprocal-density measure estimate; zero when flagged divergent."""

    value: float
    divergent: bool


def _natural_ladder(pts: WeightedPointSet, count: int, top: float) -> tuple[float, ...]:
    """``count`` scales in ratio 2, the largest ``top`` times the widest axis span."""
    extent = float(np.max(pts.points.max(axis=0) - pts.points.min(axis=0)))
    if extent <= 0:
        raise ValueError("support extent is zero; no natural scale")
    return tuple(extent * top / 2 ** (count - 1 - i) for i in range(count))


def natural_schedule(pts: WeightedPointSet, count: int = NATURAL_SCHEDULE_LEN) -> WindowSchedule:
    """Geometric ratio-2 schedule whose largest size is half the support extent."""
    return WindowSchedule(_natural_ladder(pts, count, 0.5))


def _require_dim(pts: WeightedPointSet, op: str) -> int:
    if pts.dim not in (1, 2):
        raise UnsupportedDimension(f"{op} supports dimensions 1 and 2 only")
    return pts.dim


def _sorted_slab(points: np.ndarray, weights: np.ndarray, lo: int, hi: int):
    """Last coordinates of rows lo:hi in increasing order, with their prefix weights."""
    ys, ws = points[lo:hi, -1], weights[lo:hi]
    if points.shape[1] > 1:  # canonical order already sorts a 1-D set
        order = np.argsort(ys, kind="stable")
        ys, ws = ys[order], ws[order]
    return ys, _prefix_sums(ws)


def _sup_scan(pts: WeightedPointSet, size: float):
    """Largest weight of a window with its lower corner at a point, and the window centre.

    In 2-D each distinct corner x cuts the slab of points with x in
    [x, x + size], along which the window slides in y.  The first maximum
    in scan order wins ties.
    """
    tol = BOUNDARY_TOL * size
    xs = pts.points[:, 0]
    if pts.dim == 1:
        slabs = [(0, len(pts))]
    else:
        hi_x = np.searchsorted(xs, xs + (size + tol), side="right")
        slabs = [(i, hi_x[i]) for i in range(len(xs)) if i == 0 or xs[i] != xs[i - 1]]
    best = -1
    best_center = None
    for lo, hi in slabs:
        line, pref = _sorted_slab(pts.points, pts.weights, lo, hi)
        counts = pref[np.searchsorted(line, line + (size + tol), side="right")] - pref[:-1]
        j = int(np.argmax(counts))
        if counts[j] > best:
            best = int(counts[j])
            anchor = (float(xs[lo] + size / 2),) if pts.dim == 2 else ()
            best_center = anchor + (float(line[j] + size / 2),)
    return best, best_center


def upper_density_profile(
    pts: WeightedPointSet,
    schedule: WindowSchedule,
    level: int | None = None,
) -> DensityEstimate:
    """Exact sup of window mass / volume over all cube placements, per size.

    Ties in the argmax go to the lexicographically smallest window corner.
    """
    dim = _require_dim(pts, "upper_density_profile")
    entries = []
    for size in schedule.sizes:
        count, center = _sup_scan(pts, size)
        entries.append(
            WindowEntry(
                size=size,
                sup_count=count,
                sup_value=count / size**dim,
                argmax_center=center,
            )
        )
    return DensityEstimate(
        dim=dim,
        entries=tuple(entries),
        level=level,
        max_multiplicity=int(pts.weights.max()),
    )


def _candidate_centers(breaks: np.ndarray, zlo: float, zhi: float) -> np.ndarray:
    """Midpoints of the cells cut by ``breaks`` in [zlo, zhi], plus both ends."""
    inner = np.unique(breaks[(breaks > zlo) & (breaks < zhi)])
    grid = np.concatenate([[zlo], inner, [zhi]])
    return np.concatenate([[zlo], (grid[:-1] + grid[1:]) / 2.0, [zhi]])


def _inf_scan(pts, nxt, size, zlo, zhi):
    """Least window count over the candidate centres, preferring stable windows.

    The last axis is scanned along lines: the whole set in 1-D, and in 2-D
    the slab of points whose x lies in the window, for each candidate x.
    """
    sets = [pts] if nxt is None else [pts, nxt]
    centers = []
    for a in range(pts.dim):
        breaks = np.concatenate([q.points[:, a] + h for q in sets for h in (-size / 2, size / 2)])
        centers.append(_candidate_centers(breaks, zlo[a], zhi[a]))
    tol = BOUNDARY_TOL * size
    lows = [c - size / 2 - tol for c in centers]
    highs = [c + size / 2 + tol for c in centers]

    def line_counts(q, i):
        """Counts at (x centre i, each last-axis centre); i is None in 1-D."""
        lo, hi = 0, len(q)
        if i is not None:
            lo = np.searchsorted(q.points[:, 0], lows[0][i], side="left")
            hi = np.searchsorted(q.points[:, 0], highs[0][i], side="right")
        line, pref = _sorted_slab(q.points, q.weights, lo, hi)
        return _interval_counts(line, pref, lows[-1], highs[-1])

    # stable windows rank before unstable ones, then by count, then first in scan order
    unstable_offset = pts.total_mass + 1
    best = None
    for i in range(len(centers[0])) if pts.dim == 2 else [None]:
        counts = line_counts(pts, i)
        stable = np.zeros(len(counts), bool) if nxt is None else counts == line_counts(nxt, i)
        rank = np.where(stable, counts, counts + unstable_offset)
        j = int(np.argmin(rank))
        if best is None or rank[j] < best[0]:
            at = (j,) if i is None else (i, j)
            center = tuple(float(c[k]) for c, k in zip(centers, at))
            best = (rank[j], int(counts[j]), center, bool(stable[j]))
    return best[1:]


def lower_density_profile(
    pts: WeightedPointSet,
    schedule: WindowSchedule,
    next_level_pts: WeightedPointSet | None = None,
    level: int | None = None,
) -> DensityEstimate:
    """Exact inf of window mass / volume over placements in the symmetric box.

    Windows range over every position of the closed cube inside the
    origin-symmetric bounding box of the support (per-axis radius
    max |coordinate|); that family can see regions the expansion has not
    reached, which is exactly what distinguishes a one-sided support from a
    filled-out one.  With ``next_level_pts`` supplied, the infimum is taken
    over windows whose count agrees at both levels and the entry is marked
    trusted; with no stable window (or no next level) the raw infimum is
    reported untrusted.  Sizes exceeding the box are skipped.
    """
    dim = _require_dim(pts, "lower_density_profile")
    if next_level_pts is not None and next_level_pts.dim != dim:
        raise UnsupportedDimension("next_level_pts dimension differs")
    radius = np.max(np.abs(pts.points), axis=0)
    entries = []
    for size in schedule.sizes:
        if np.any(2 * radius < size):
            continue
        count, center, trusted = _inf_scan(
            pts, next_level_pts, size, -radius + size / 2, radius - size / 2
        )
        entries.append(
            WindowEntry(
                size=size,
                inf_count=count,
                inf_value=count / size**dim,
                argmin_center=center,
                trusted=trusted,
            )
        )
    return DensityEstimate(
        dim=dim,
        entries=tuple(entries),
        level=level,
        max_multiplicity=int(pts.weights.max()),
    )


def trend_divergent(values) -> bool:
    """Heuristic growth test: last three strictly increase and final > 10x first."""
    vals = list(values)
    if len(vals) < 3:
        return False
    return vals[-3] < vals[-2] < vals[-1] and vals[-1] > 10 * vals[0]


def _reciprocal_measure(values: list[float], max_multiplicity: int) -> MeasureResult:
    """Reciprocal of the last sup density value, or zero when flagged divergent.

    Divergence is certified by a collision in the underlying expansion (a
    point of multiplicity >= 2 doubles along its amplification sequence, so
    the true sup is infinite) or flagged when the sup values are still
    growing at the largest scales.
    """
    if not values:
        raise ValueError("profile has no sup entries")
    if max_multiplicity >= 2 or trend_divergent(values):
        return MeasureResult(value=0.0, divergent=True)
    return MeasureResult(value=1.0 / values[-1], divergent=False)


def lebesgue_from_density(profile: DensityEstimate) -> MeasureResult:
    """Reciprocal of the sup density at the largest window size.

    Returns zero with the divergent flag when the profile certifies an
    unbounded density (see ``_reciprocal_measure``).
    """
    values = [e.sup_value for e in profile.entries if e.sup_value is not None]
    return _reciprocal_measure(values, profile.max_multiplicity)


def rescale_points(pts: WeightedPointSet, matrix) -> WeightedPointSet:
    """Apply an invertible linear map to every point, keeping weights."""
    c = np.asarray(matrix, dtype=float)
    if c.ndim == 0:
        c = c.reshape(1, 1)
    if c.shape != (pts.dim, pts.dim):
        raise SingularMatrix(f"rescale matrix must be {pts.dim}x{pts.dim}")
    if float(np.linalg.det(c)) == 0.0:
        raise SingularMatrix("rescale matrix is singular")
    return WeightedPointSet(pts.points @ c.T, pts.weights)
