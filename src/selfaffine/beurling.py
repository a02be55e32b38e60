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

All four scans, upper and lower in 1-D and 2-D, have one skeleton: each
size's candidate windows come in blocks, a block being a grid of windows
(their coordinates along each axis) with one rank per window, and one
selection rule (``_first_least``) takes the first window of least rank in
row-major order.  An upper window has its lower corner at a point and
ranks by its negated count.  A lower window is centred in a cell and ranks
by its count, raised above every count when the next level disagrees; its
scan stops at the first block that reaches the least rank any window can
have, since later windows could only tie it.

A 1-D window's count is a difference of prefix weights at its two edges,
each found by one search of the sorted coordinates (a rank-table read or a
binary search, see below); the lower scan searches the merged coordinates
of a level and its next level once for both, which are the next level's
own when they hold the level's.  In 2-D, with the points in their
canonical order of x, those whose x lies in the window form a slab, a
contiguous run of rows, and as the window moves right both ends of the run
only advance.  One sliding-slab sweep per set (``_slab_sweeps``) therefore
keeps each slab's weight per distinct y value up to date from the points
entering and leaving, a block of slabs at a time, and a cumulative sum
along y turns a block into window counts.  Counts are integers throughout
and every boundary test is the float comparison a per-slab scan makes, so
results, ties included, are exactly those of scanning slab by slab.

A 1-D scan whose sorted coordinates are integers, all below 2**52 in
magnitude, on a span of at most ``_TABLE_SPAN`` times their count (the
lattice of an integral tile, filled almost without gaps) reads its window
edges off a rank table, ``P[k] = #{v < v[0] + k}``, built once per
profile.  For integer v, v < e exactly when v < ceil(e), and v <= e
exactly when v < floor(e) + 1; ``ceil`` and ``floor`` of a double are
exact, and so is integer arithmetic below 2**53, so each lookup returns
what the binary search returns and every count, centre and tie is
unchanged.  Any other set, and every 2-D scan, keeps the binary search;
``_search`` alone chooses between the two.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, UnsupportedDimension, _enforce_budget
from .expansion import DEFAULT_CAP
from .pointset import _SCAN_CELLS, _TABLE_SPAN, WeightedPointSet, _prefix_sums

#: Relative tolerance for closed-window boundary membership.
BOUNDARY_TOL = 1e-12

#: Number of window sizes in a natural (geometric, ratio 2) schedule.
NATURAL_SCHEDULE_LEN = 9

#: Low breaks in the first block of a lower scan's centres on one axis
#: (``_center_blocks``); later blocks double up to ``_SCAN_CELLS``.
_FIRST_LINE_BLOCK = 2**10


@dataclass(frozen=True)
class WindowSchedule:
    """Strictly increasing positive window side lengths."""

    sizes: tuple[float, ...]

    def __post_init__(self):
        if len(self.sizes) == 0:
            raise ValueError("schedule must contain at least one size")
        arr = np.asarray(self.sizes, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("window sizes must be finite")
        if arr[0] <= 0 or np.any(np.diff(arr) <= 0):
            raise ValueError("window sizes must be positive and strictly increasing")
        object.__setattr__(self, "sizes", tuple(float(s) for s in arr))

    @classmethod
    def geometric(cls, start: float, stop: float, count: int) -> "WindowSchedule":
        if count < 1:
            raise ValueError("count must be at least 1")
        if not start > 0:
            raise ValueError("start must be positive")
        if count == 1:
            return cls((float(stop),))
        if not stop > 0:
            raise ValueError("stop must be positive")
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


def _rank_table(values: np.ndarray, limit: int | None = None):
    """``P[k] = #{v < values[0] + k}`` over sorted values, or None when they do not qualify.

    The values qualify when each is an integer below 2**52 in magnitude and
    their span ``values[-1] - values[0] + 1`` is at most ``limit``; the
    table then has span + 1 int32 entries.  The limit is the span a caller
    can afford to build, by default ``_TABLE_SPAN`` times the count, which
    the window scans' one lookup per point and window edge repays; a caller
    that makes more lookups may afford more.
    """
    if limit is None:
        limit = _TABLE_SPAN * len(values)
    v0, v1 = float(values[0]), float(values[-1])
    span = v1 - v0 + 1
    if not (-(2.0**52) < v0 and v1 < 2.0**52 and span <= limit):
        return None
    if not np.array_equal(np.floor(values), values):
        return None
    # P[k] = i for offset(i - 1) < k <= offset(i), so count i repeats as often as
    # the step between neighbouring offsets; the only span-sized array is the table
    offsets = (values - v0).astype(np.intp)
    steps = np.diff(offsets, prepend=-1, append=int(span))
    return np.repeat(np.arange(len(values) + 1, dtype=np.int32), steps)


def _search(values: np.ndarray, table, edges: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(values, edges, side=side)``, read off ``table`` when there is one.

    With a rank table (``_rank_table``) the count of values below e is
    ``P[ceil(e) - v0]`` and of values up to e ``P[floor(e) + 1 - v0]``,
    the index clipped to the table.  Both are exact for integer values.
    """
    if table is None:
        return np.searchsorted(values, edges, side=side)
    if side == "left":
        k = np.ceil(edges)
        k -= values[0]
    else:
        k = np.floor(edges)
        k -= values[0] - 1
    np.clip(k, 0, len(table) - 1, out=k)
    # numpy gathers faster with intp indices than with the table's int32
    return table[k.astype(np.intp)].astype(np.intp)


def _slab_prefixes(q: WeightedPointSet, ranks, ny: int, lo, hi, rows: int):
    """Prefix weights along y of the 2-D slabs of rows [lo[i], hi[i]), a block at a time.

    Both ends never decrease, so a slab's y-histogram is the previous one
    plus the points entering below hi and minus those leaving below lo.  A
    block of ``rows`` slabs is built from these events and a carried row.
    Yields (a, pref) per block, where pref[r, k] is the weight of slab
    a + r at y-ranks below k.
    """
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


def _slab_sweeps(ranked, cuts, ncol: int):
    """The slab sweeps (``_slab_prefixes``) of 2-D sets over the same slabs, a block at a time.

    ``ranked`` holds (set, distinct y, y-ranks) and ``cuts`` the (lo, hi)
    rows per slab of each set.  A block holds at most ``_SCAN_CELLS``
    counts beyond a single slab, of ``ncol`` counts or the widest y-prefix.
    Yields (a, prefs): the block's first slab and each set's prefixes.
    """
    rows = max(1, _SCAN_CELLS // max(ncol, *(len(yu) + 1 for _, yu, _ in ranked)))
    sweeps = [_slab_prefixes(q, ranks, len(yu), lo, hi, rows)
              for (q, yu, ranks), (lo, hi) in zip(ranked, cuts)]
    for blocks in zip(*sweeps):
        yield blocks[0][0], [pref for _, pref in blocks]


def _first_least(blocks, floor=None):
    """The least rank over blocks of candidate windows, and the first window that has it.

    A block is (axes, rank): the windows' coordinates along each axis and
    their ranks in an array shaped by the axes, in row-major scan order
    within and across blocks, so ties go to the earlier window.  ``floor``
    is a rank no window goes below: the scan stops at the first block that
    reaches it, as later windows could only tie, and with None never stops.
    """
    best = None
    for axes, rank in blocks:
        k = int(np.argmin(rank))
        if best is None or rank.flat[k] < best[0]:
            at = np.unravel_index(k, rank.shape)
            best = (int(rank.flat[k]), tuple(float(c[t]) for c, t in zip(axes, at)))
            if best[0] == floor:
                break
    return best


def _sup_blocks(pts: WeightedPointSet, levels, size: float):
    """Candidate windows of an upper scan, lower corners at the points, ranked by negated count.

    In 1-D ``levels`` is the rank table of the sorted coordinates or None
    (``_search``) and their prefix weights, and one block holds every
    corner.  In 2-D it is [(set, distinct y, y-ranks)]: each distinct
    corner x cuts the slab of points with x in [x, x + size], and the
    window slides along y with its lower edge at each distinct y.  The axes
    are the corners, so ties go to the smallest x, then the smallest y.
    """
    tol = BOUNDARY_TOL * size
    xs = pts.points[:, 0]
    if pts.dim == 1:
        table, pref = levels
        yield (xs,), pref[:-1] - pref[_search(xs, table, xs + (size + tol), "right")]
        return
    yu = levels[0][1]
    lo = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    corners = xs[lo]
    hi = np.searchsorted(xs, corners + (size + tol), side="right")
    top = np.searchsorted(yu, yu + (size + tol), side="right")
    for a, (pref,) in _slab_sweeps(levels, [(lo, hi)], len(yu)):
        rank = pref[:, :-1] - pref[:, top]
        # a y-rank absent from the slab is no corner there: it ranks 0,
        # above every corner, which counts at least its own weight
        rank *= pref[:, 1:] != pref[:, :-1]
        yield (corners[a : a + len(rank)], yu), rank


def _window_volumes(schedule: WindowSchedule, dim: int) -> list[float]:
    """Each window's volume size**dim; ``ValueError`` when one underflows to 0 or overflows."""
    volumes = []
    for size in schedule.sizes:
        try:
            volume = size**dim
        except OverflowError:
            raise ValueError(
                f"window size {size:g} is too large: its volume overflows in dimension {dim}"
            ) from None
        if volume == 0:
            raise ValueError(
                f"window size {size:g} is too small: its volume underflows to 0 in dimension {dim}"
            )
        volumes.append(volume)
    return volumes


def _profile(pts: WeightedPointSet, schedule: WindowSchedule, level, entry) -> DensityEstimate:
    """The profile of ``entry(size, volume)`` per size, skipping sizes for which it returns None.

    Every size's volume is checked (``_window_volumes``) before any scan.
    """
    entries = map(entry, schedule.sizes, _window_volumes(schedule, pts.dim))
    return DensityEstimate(dim=pts.dim, entries=tuple(e for e in entries if e is not None),
                           level=level, max_multiplicity=int(pts.weights.max()))


def upper_density_profile(
    pts: WeightedPointSet,
    schedule: WindowSchedule,
    level: int | None = None,
    cap: int = DEFAULT_CAP,
) -> DensityEstimate:
    """Exact sup of window mass / volume over all cube placements, per size.

    Ties in the argmax go to the lexicographically smallest window corner.
    A size whose volume underflows to 0 or overflows raises ``ValueError``.
    A 1-D set's rank table and prefix weights, and a 2-D set's distinct y
    values and y-ranks, are built once for all sizes.  In 2-D each size
    ranks (distinct corner x) x (distinct y) windows, a number that grows
    with the square of the set; the windows of the sizes scanned so far
    are counted against ``cap`` before each size's sweep
    (``_enforce_budget``).  In 1-D a size ranks one window per point.
    """
    dim = _require_dim(pts, "upper_density_profile")
    windows = 0
    if dim == 1:
        levels = (_rank_table(pts.points[:, 0]), _prefix_sums(pts.weights))
    else:
        levels = [(pts, *np.unique(pts.points[:, -1], return_inverse=True))]
        xs = pts.points[:, 0]
        windows = (1 + int(np.count_nonzero(xs[1:] != xs[:-1]))) * len(levels[0][1])
    scanned = 0

    def entry(size, volume):
        nonlocal scanned
        scanned += windows
        _enforce_budget("upper scan", scanned, cap)
        rank, corner = _first_least(_sup_blocks(pts, levels, size))
        return WindowEntry(size=size, sup_count=-rank, sup_value=-rank / volume,
                           argmax_center=tuple(x + size / 2 for x in corner))

    return _profile(pts, schedule, level, entry)


def _distinct(values):
    """Sorted distinct values; ``np.unique`` would import ``numpy.ma`` (numpy 2.3 and later)."""
    v = np.sort(values, kind="stable")  # merges sorted runs in linear time
    return v[np.concatenate([[True], v[1:] != v[:-1]])]


def _merged_line(sets):
    """The sorted distinct coordinates of 1-D sets, their rank table, and each set's prefix weights.

    Every coordinate of a set is on the line, so a set's weight below a
    position of the line is its weight below that value.  The sets are a
    level and, when given, its next level.  When every coordinate of the
    first set is one of the last set's, as a level's are of its next
    level's (0 is a digit), the line is the last set's coordinates: one
    search of the first set's, which places them on the line, tells.  Such
    a line differs from the merged one at most in the sign of a zero, which
    no centre or count depends on.  Otherwise the line merges the
    coordinates of all sets.  The rank table (``_rank_table``) is None when
    the line does not qualify for one.
    """
    xs = sets[0].points[:, 0]
    line = sets[-1].points[:, 0]
    table = _rank_table(line)
    at = _search(line, table, xs, "left")
    # nondecreasing: within the line when its last position is
    if at[-1] < len(line) and np.array_equal(line[at], xs):
        places = [at] + [None] * (len(sets) - 1)  # None: the set's points are the line
    else:
        line = _distinct(np.concatenate([q.points[:, 0] for q in sets]))
        table = _rank_table(line)
        places = [_search(line, table, q.points[:, 0], "left") for q in sets]
    prefs = []
    for q, place in zip(sets, places):
        w = q.weights
        if place is not None:
            w = np.zeros(len(line), dtype=np.int64)
            w[place] = q.weights
        prefs.append(_prefix_sums(w))
    return line, table, prefs


def _cut(values, table, centers, size):
    """Per centre, the sorted values below its window's low edge, and those up to its high edge.

    The edges are looked up in ``table``, the rank table of ``values``,
    when there is one, and binary-searched otherwise (``_search``).
    """
    tol = BOUNDARY_TOL * size
    return (_search(values, table, centers - size / 2 - tol, "left"),
            _search(values, table, centers + size / 2 + tol, "right"))


def _center_blocks(u, size, zlo, zhi):
    """Candidate centres on one axis of a lower scan, a block at a time in increasing order.

    The breaks are two sorted runs, the axis's distinct coordinates ``u``
    minus and plus size/2, each trimmed to (zlo, zhi).  A block takes the
    next slice of the low run and the part of the high run below the low
    break after it, so block after block the breaks come in sorted order.
    Each block is sorted and deduplicated on its own, against the last grid
    point carried from the block before, which starts at ``zlo``; the
    centres are the midpoints of that grid, after ``zlo`` itself in the
    first block, and the midpoint to ``zhi`` and ``zhi`` itself close the
    last.  Blocks take ``_FIRST_LINE_BLOCK`` low breaks at first and double
    up to ``_SCAN_CELLS``, so a scan that stops early builds little.

    A block computes only its own breaks.  The ends of each run, and each
    block's end in the high run, are bisections of ``u`` keyed by the
    break, which rounds as the array arithmetic does and never decreases
    along ``u``, so they find what searching the whole run would.
    """
    h = size / 2

    def low(x):
        return x - h

    def high(x):
        return x + h

    i, i_end = bisect.bisect_right(u, zlo, key=low), bisect.bisect_left(u, zhi, key=low)
    j, j_end = bisect.bisect_right(u, zlo, key=high), bisect.bisect_left(u, zhi, key=high)
    prev, head = zlo, [zlo]
    step = min(_FIRST_LINE_BLOCK, _SCAN_CELLS)
    while True:
        i1 = min(i_end, i + step)
        last = i1 == i_end
        j1 = j_end if last else bisect.bisect_left(u, low(u[i1]), j, j_end, key=high)
        grid = _distinct(np.concatenate([[prev], u[i:i1] - h, u[j:j1] + h]))
        prev = grid[-1]
        tail = [(prev + zhi) / 2.0, zhi] if last else []
        centers = np.concatenate([head, (grid[:-1] + grid[1:]) / 2.0, tail])
        if len(centers):  # a block whose breaks all round to the carried one adds none
            yield centers
        if tail:
            return
        i, j, head = i1, j1, []
        step = min(2 * step, _SCAN_CELLS)


def _inf_blocks(merged, levels, size, radius, cap, offset):
    """Candidate windows of a lower scan, ranked by count and stability.

    Window edges that put a point on the boundary cut each axis's range of
    centres, within radius - size/2 of 0, into cells, and a cell's midpoint
    is a candidate centre.  ``merged`` holds each axis's distinct
    coordinates over the level and, when given, its next level, from which
    ``_center_blocks`` builds the axis's centres.

    In 1-D ``levels`` is the rank table of the merged coordinates and each
    level's prefix weights over them (``_merged_line``).  The centres are
    counted block by block in scan order: each centre's window ends are
    one lookup into the merged coordinates (a rank-table read or a binary
    search, see ``_search``), and each level's count is read from its own
    prefix at those ends.

    In 2-D ``levels`` holds (set, distinct y, y-ranks) per level.  Every
    block of both axes is taken before the sweep, since the candidate
    windows at this size are counted against ``cap`` before it.  The
    last axis is scanned along the slab of points whose x lies in the
    window, one per candidate x, off one sweep per level (``_slab_sweeps``),
    as a merged sweep would widen each histogram to the y values of both.

    A window's rank is its count at the level, raised by ``offset``, more
    than any count, unless it is stable (the next level gives the same
    count); without a next level no window is stable.  So
    ``divmod(rank, offset)`` is (unstable, count).
    """
    centers = [_center_blocks(u, size, -r + size / 2, r - size / 2) for u, r in zip(merged, radius)]
    if len(merged) == 1:
        table, prefs = levels
        ends = ((c, _cut(merged[0], table, c, size)) for c in centers[0])
        blocks = (((c,), [pref[hi] - pref[lo] for pref in prefs]) for c, (lo, hi) in ends)
    else:
        centers = [np.concatenate(list(axis)) for axis in centers]
        _enforce_budget("lower scan", math.prod(map(len, centers)), cap)
        cuts = [_cut(q.points[:, 0], None, centers[0], size) for q, _, _ in levels]
        edges = [_cut(yu, None, centers[-1], size) for _, yu, _ in levels]
        sweeps = _slab_sweeps(levels, cuts, len(centers[-1]))
        blocks = (((centers[0][a : a + len(prefs[0])], centers[-1]),
                   [pref[:, hi] - pref[:, lo] for pref, (lo, hi) in zip(prefs, edges)])
                  for a, prefs in sweeps)
    for axes, counts in blocks:
        unstable = counts[0] != counts[1] if len(counts) == 2 else True
        yield axes, counts[0] + offset * unstable


def _lower_entry(pts, next_level_pts, cap):
    """The one-time setup of a lower scan, and its ``entry(size, volume)`` per window size.

    ``entry`` returns None for a size that exceeds the box.  See
    ``lower_density_profile``.
    """
    dim = _require_dim(pts, "lower_density_profile")
    if next_level_pts is not None and next_level_pts.dim != dim:
        raise UnsupportedDimension("next_level_pts dimension differs")
    radius = np.max(np.abs(pts.points), axis=0)
    sets = [q for q in (pts, next_level_pts) if q is not None]
    if dim == 1:
        line, table, prefs = _merged_line(sets)
        merged, levels = [line], (table, prefs)
    else:
        merged = [_distinct(np.concatenate([q.points[:, a] for q in sets])) for a in range(dim)]
        levels = [(q, *np.unique(q.points[:, -1], return_inverse=True)) for q in sets]
    offset = pts.total_mass + 1
    floor = 0 if next_level_pts is not None else offset

    def entry(size, volume):
        if np.any(2 * radius < size):
            return None
        rank, center = _first_least(_inf_blocks(merged, levels, size, radius, cap, offset), floor)
        unstable, count = divmod(rank, offset)
        return WindowEntry(size=size, inf_count=count, inf_value=count / volume,
                           argmin_center=center, trusted=not unstable)

    return entry


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
    reported untrusted.  Sizes exceeding the box are skipped, and a size
    whose volume underflows to 0 or overflows raises ``ValueError``.

    A one-time setup (``_lower_entry``) merges the distinct coordinates of
    both levels once per axis for all sizes, and each size builds its
    candidate centres from them block by block (``_center_blocks``).  In
    1-D both levels are scanned together over one sorted line
    (``_merged_line``), which is the next level's coordinates when they
    include the level's, as an expansion's do.  In 2-D the candidate
    windows of one size grow with the square of the set (about 6.7 n^2 on
    an irrational set), so a size with more than ``cap`` of them raises
    ``BudgetExceeded`` before its sweep; in 1-D they grow linearly.  No
    window ranks below 0 with a next level, or below the offset without one
    (``_inf_blocks``), so a one-sided support whose box starts with a
    stable empty window costs one small block per size.
    """
    return _profile(pts, schedule, level, _lower_entry(pts, next_level_pts, cap))


def last_trusted_lower_profile(
    pts: WeightedPointSet,
    schedule: WindowSchedule,
    next_level_pts: WeightedPointSet | None = None,
    level: int | None = None,
    cap: int = DEFAULT_CAP,
) -> DensityEstimate:
    """The lower profile (``lower_density_profile``) cut to its last trusted entry, or to none.

    The sizes are scanned from the largest down, after every volume is
    checked, and the scan stops at the first trusted entry, so a smaller
    size is never scanned, nor counted against ``cap``.  The entry is the
    one the full profile holds at its size.
    """
    entry = _lower_entry(pts, next_level_pts, cap)
    volumes = _window_volumes(schedule, pts.dim)
    found = (entry(size, volume) for size, volume in zip(schedule.sizes[::-1], volumes[::-1]))
    last = next((e for e in found if e is not None and e.trusted), None)
    return DensityEstimate(dim=pts.dim, entries=() if last is None else (last,),
                           level=level, max_multiplicity=int(pts.weights.max()))


def trend_divergent(values) -> bool:
    """Heuristic growth test: last three strictly increase and final > 10x first."""
    vals = list(values)
    if len(vals) < 3:
        return False
    return vals[-3] < vals[-2] < vals[-1] and vals[-1] > 10 * vals[0]


def trend_sizes(sizes: tuple[float, ...]) -> tuple[float, ...]:
    """The sizes whose values ``trend_divergent`` reads: the first and the last three.

    With 4 or fewer sizes that is all of them.  ``trend_divergent`` of the
    values at these sizes equals it of the values at all sizes, and so does
    the last value.
    """
    return sizes if len(sizes) <= 4 else (sizes[0], *sizes[-3:])


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
