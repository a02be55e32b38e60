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

Both scans count a window's points in two steps.  In canonical
(lexicographic) order the points whose x lies in the window form a slab,
a contiguous run of rows, and as the window moves right both ends of the
run only advance.  One sliding-slab sweep therefore keeps each slab's
weight per distinct y value up to date from the points entering and
leaving, a block of slabs at a time, and a cumulative sum along y turns a
block into window counts.  Counts are integers throughout and every
boundary test is the float comparison a per-slab scan makes, so results,
ties included, are exactly those of scanning slab by slab.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, SingularMatrix, UnsupportedDimension
from .expansion import DEFAULT_CAP
from .pointset import WeightedPointSet, _prefix_sums

#: Relative tolerance for closed-window boundary membership.
BOUNDARY_TOL = 1e-12

#: Number of window sizes in a natural (geometric, ratio 2) schedule.
NATURAL_SCHEDULE_LEN = 9

#: Counts held at once by one block of a blocked scan, here and in ``sdensity``.
_SCAN_CELLS = 2**15


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
    return tuple(math.ldexp(extent * top, i + 1 - count) for i in range(count))


def natural_schedule(pts: WeightedPointSet, count: int = NATURAL_SCHEDULE_LEN) -> WindowSchedule:
    """Geometric ratio-2 schedule whose largest size is half the support extent."""
    return WindowSchedule(_natural_ladder(pts, count, 0.5))


def _require_dim(pts: WeightedPointSet, op: str) -> int:
    if pts.dim not in (1, 2):
        raise UnsupportedDimension(f"{op} supports dimensions 1 and 2 only")
    return pts.dim


def _y_ranks(q: WeightedPointSet):
    """Distinct last coordinates of a set in increasing order, and each point's index among them.

    A 1-D set's points are distinct and sorted, and its one slab needs no
    ranks, so it gets its coordinates and None.
    """
    if q.dim == 1:
        return q.points[:, 0], None
    return np.unique(q.points[:, -1], return_inverse=True)


def _slab_prefixes(q: WeightedPointSet, ranks, ny: int, lo, hi, rows: int):
    """Prefix weights along the last axis of the slabs of rows [lo[i], hi[i]), a block at a time.

    Both ends never decrease, so a slab's y-histogram is the previous one
    plus the points entering below hi and minus those leaving below lo.  A
    block of ``rows`` slabs is built from these events and a carried row.
    Yields (a, pref) per block, where pref[r, k] is the weight of slab
    a + r at y-ranks below k.  In 1-D the one slab [0, n) is the whole
    set, already sorted, so its prefix is the set's own and ``ranks`` is
    not needed.
    """
    if q.dim == 1:
        yield 0, _prefix_sums(q.weights)[None]
        return
    hist = np.zeros(ny, dtype=np.int64)
    prev_lo = prev_hi = 0
    for a in range(0, len(lo), rows):
        b = min(len(lo), a + rows)
        diff = np.zeros((b - a + 1, ny), dtype=np.int64)
        diff[0] = hist
        flat = diff.reshape(-1)
        for ends, prev, sign in ((hi[a:b], prev_hi, 1), (lo[a:b], prev_lo, -1)):
            row = np.repeat(np.arange(1, b - a + 1), np.diff(ends, prepend=prev))
            moved = slice(prev, ends[-1])
            np.add.at(flat, row * ny + ranks[moved], sign * q.weights[moved])
        np.cumsum(diff, axis=0, out=diff)
        hist = diff[-1]
        pref = np.zeros((b - a, ny + 1), dtype=np.int64)
        np.cumsum(diff[1:], axis=1, out=pref[:, 1:])
        prev_lo, prev_hi = lo[b - 1], hi[b - 1]
        yield a, pref


def _sup_scan(pts: WeightedPointSet, size: float, yu, ranks):
    """Largest weight of a window with its lower corner at a point, and the window centre.

    In 2-D each distinct corner x cuts the slab of points with x in
    [x, x + size]; in 1-D the one slab is the whole set.  The window slides
    along the last axis with its lower edge at each y of the slab, so the
    slabs' box counts are read off one blocked sweep (``_slab_prefixes``,
    at most ``_SCAN_CELLS`` counts per block beyond a single slab) at the
    y-ranks present in each slab.  Ties go to the first slab in increasing
    x, then to the smallest y.
    """
    tol = BOUNDARY_TOL * size
    xs = pts.points[:, 0]
    if pts.dim == 1:
        lo, hi = [0], [len(pts)]
    else:
        lo = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
        hi = np.searchsorted(xs, xs[lo] + (size + tol), side="right")
    top = np.searchsorted(yu, yu + (size + tol), side="right")
    ny = len(yu)
    best, at = -1, None
    for a, pref in _slab_prefixes(pts, ranks, ny, lo, hi, max(1, _SCAN_CELLS // (ny + 1))):
        counts = pref[:, top] - pref[:, :-1]
        # a y-rank absent from the slab is no corner there: it counts 0,
        # below every corner, which counts at least its own weight
        counts *= pref[:, 1:] != pref[:, :-1]
        k = int(np.argmax(counts))
        if counts.flat[k] > best:
            best = int(counts.flat[k])
            at = (a + k // ny, k % ny)
    i, r = at
    anchor = (float(xs[lo[i]] + size / 2),) if pts.dim == 2 else ()
    return best, anchor + (float(yu[r] + size / 2),)


def upper_density_profile(
    pts: WeightedPointSet,
    schedule: WindowSchedule,
    level: int | None = None,
) -> DensityEstimate:
    """Exact sup of window mass / volume over all cube placements, per size.

    Ties in the argmax go to the lexicographically smallest window corner.
    """
    dim = _require_dim(pts, "upper_density_profile")
    yu, ranks = _y_ranks(pts)
    entries = []
    for size in schedule.sizes:
        count, center = _sup_scan(pts, size, yu, ranks)
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


def _inf_scan(ranked, size, zlo, zhi, cap):
    """Least window count over the candidate centres, preferring stable windows.

    ``ranked`` holds (set, distinct y, y-ranks) for the level and, when
    given, for the next level.  The last axis is scanned along lines: the
    whole set in 1-D, and in 2-D the slab of points whose x lies in the
    window, one per candidate x.  Each set's slabs are read off one blocked
    sweep (``_slab_prefixes``), and the sweeps advance block by block over
    the same candidate x, at most ``_SCAN_CELLS`` counts per block beyond a
    single line.  Stable windows (same count at both levels) rank before
    unstable ones, then by count, then first in row-major order (x centre,
    then y centre).  In 2-D, more than ``cap`` candidate windows at this
    size raise ``BudgetExceeded`` before the sweep.
    """
    pts = ranked[0][0]
    # window edges that put a point on the boundary cut each axis into cells;
    # the edge arrays are freed axis by axis
    half = (-size / 2, size / 2)
    centers = [
        _candidate_centers(
            np.concatenate([q.points[:, a] + h for q, _, _ in ranked for h in half]), zlo[a], zhi[a]
        )
        for a in range(pts.dim)
    ]
    windows = math.prod(map(len, centers))
    if pts.dim == 2 and windows > cap:
        raise BudgetExceeded(f"{windows} candidate windows at size {size:g} exceed cap {cap}")
    tol = BOUNDARY_TOL * size

    def cut(values, c, side):
        """Per centre in c, the sorted values below its low edge (left) or up to its high edge."""
        edge = c - size / 2 - tol if side == "left" else c + size / 2 + tol
        return np.searchsorted(values, edge, side=side)

    ncol = len(centers[-1])
    rows = max(1, _SCAN_CELLS // max(ncol, *(len(yu) + 1 for _, yu, _ in ranked)))
    sweeps, edges = [], []
    for q, yu, ranks in ranked:
        if pts.dim == 1:
            lo, hi = [0], [len(q)]
        else:
            lo, hi = (cut(q.points[:, 0], centers[0], side) for side in ("left", "right"))
        sweeps.append(_slab_prefixes(q, ranks, len(yu), lo, hi, rows))
        edges.append([cut(yu, centers[-1], side) for side in ("left", "right")])

    unstable_offset = pts.total_mass + 1
    best = None
    for blocks in zip(*sweeps):
        counts = [pref[:, top] - pref[:, bottom] for (_, pref), (bottom, top) in zip(blocks, edges)]
        stable = counts[0] == counts[1] if len(counts) == 2 else np.zeros(counts[0].shape, bool)
        rank = np.where(stable, counts[0], counts[0] + unstable_offset)
        k = int(np.argmin(rank))
        if best is None or rank.flat[k] < best[0]:
            i, j = divmod(k, ncol)
            at = (j,) if pts.dim == 1 else (blocks[0][0] + i, j)
            center = tuple(float(c[t]) for c, t in zip(centers, at))
            best = (rank.flat[k], int(counts[0].flat[k]), center, bool(stable.flat[k]))
    return best[1:]


def lower_density_profile(
    pts: WeightedPointSet,
    schedule: WindowSchedule,
    next_level_pts: WeightedPointSet | None = None,
    level: int | None = None,
    cap: int = DEFAULT_CAP,
) -> DensityEstimate:
    """Exact inf of window mass / volume over placements in the symmetric box.

    Windows range over every position of the closed cube inside the
    origin-symmetric bounding box of the support (per-axis radius
    max |coordinate|); that family can see regions the expansion has not
    reached, which is exactly what distinguishes a one-sided support from a
    filled-out one.  With ``next_level_pts`` supplied, the infimum is taken
    over windows whose count agrees at both levels and the entry is marked
    trusted; with no stable window (or no next level) the raw infimum is
    reported untrusted.  Sizes exceeding the box are skipped.  In 2-D the
    candidate windows of one size grow with the square of the set (about
    6.7 n^2 on an irrational set), so a size with more than ``cap`` of them
    raises ``BudgetExceeded`` before its sweep; in 1-D they grow linearly.
    """
    dim = _require_dim(pts, "lower_density_profile")
    if next_level_pts is not None and next_level_pts.dim != dim:
        raise UnsupportedDimension("next_level_pts dimension differs")
    radius = np.max(np.abs(pts.points), axis=0)
    ranked = [(q, *_y_ranks(q)) for q in (pts, next_level_pts) if q is not None]
    entries = []
    for size in schedule.sizes:
        if np.any(2 * radius < size):
            continue
        count, center, trusted = _inf_scan(
            ranked, size, -radius + size / 2, radius - size / 2, cap
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
