"""Weighted point sets: finite discrete measures with integer multiplicities.

A :class:`WeightedPointSet` is the common currency of the package: digit
expansions produce them, density scans consume them.  Construction
canonicalizes, so two sets built from the same multiset of points compare
equal regardless of input order.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyPointSet, _enforce_budget

#: Two computed points closer than this (infinity norm) are the same point.
MERGE_TOL = 1e-9

# Quantized merge keys must stay inside int64.
_MAX_ABS_COORD = 4.0e9
_MERGE_SCALE_ERROR = f"coordinate magnitude exceeds supported merge scale ({_MAX_ABS_COORD:g})"

#: Anchors and right ends per side of a leaf tile of ``_tile_search``.
_LEAF = 8

#: Counts held at once by one block of a blocked scan, or one batch of tile-search leaves.
_SCAN_CELLS = 2**15

#: Largest span of integer coordinates, as a multiple of the rows they are read
#: for, that is held as a dense array: a 1-D scan's rank table
#: (``beurling._rank_table``) or an expansion level's lattice counts
#: (``expansion._lattice_next``).
_TABLE_SPAN = 8


def _canonicalize(points: np.ndarray, weights: np.ndarray):
    """Merge near-duplicate points and sort them into canonical order.

    Merging is grid-based at the MERGE_TOL scale: coordinates are quantized
    to multiples of the tolerance and equal keys collapse, summing weights.
    Exactly equal points always merge; points farther apart than twice the
    tolerance never do.  The representative of a merge group is its
    lexicographically smallest member, so coordinates of the inputs are
    preserved verbatim.

    Beyond 1-D the groups come out of one sort by key.  A stable sort by x
    then gives canonical order; it runs only when x decreases somewhere,
    which it can only between groups whose x values share a key.

    In 1-D the key round(x / MERGE_TOL) is monotone in x, so one stable
    sort by x gives the permutation of the sort by key, then by x: equal x
    means equal key, and both sorts keep input order among equals.  Its
    timsort merges presorted runs instead of sorting them again, so an input
    laid out as m sorted runs, as ``expansion._steps`` builds it, costs
    about one merge pass.  When no two sorted keys coincide, the points are
    the sorted column itself, with no gather by group starts.  The weights
    are returned as gathered or summed, with no further int64 copy.
    """
    if points.size and np.max(np.abs(points)) >= _MAX_ABS_COORD:
        raise ValueError(_MERGE_SCALE_ERROR)
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable")
        xs = points[:, 0][order]
        # kept as floats: integral values below 2**63 are equal exactly when their int64 casts are
        keys = np.round(xs / MERGE_TOL)
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        merged = xs.reshape(-1, 1) if len(starts) == len(xs) else xs[starts, None]
    else:
        keys = np.round(points / MERGE_TOL).astype(np.int64)
        # one sort by key, then by coordinates: each key group starts at its smallest member
        order = np.lexsort((*points.T[::-1], *keys.T[::-1]))
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate([[True], np.any(keys[1:] != keys[:-1], axis=1)]))
        merged = points[order[starts]]
    weights = weights[order]
    if len(starts) < len(weights):  # with nothing to merge, reduceat would only copy, group by group
        weights = np.add.reduceat(weights, starts)
    if points.shape[1] > 1 and np.any(merged[1:, 0] < merged[:-1, 0]):
        by_x = np.argsort(merged[:, 0], kind="stable")
        merged, weights = merged[by_x], weights[by_x]
    return merged, weights.astype(np.int64, copy=False)


def _merged(points: np.ndarray, weights: np.ndarray) -> "WeightedPointSet":
    """The set of computed points with int64 weights, merged (``_canonicalize``), unchecked."""
    return WeightedPointSet._from_canonical(*_canonicalize(points, weights))


def _from_counts(lo: int, counts: np.ndarray) -> "WeightedPointSet":
    """The 1-D set whose weight at lo + i is counts[i], where nonzero.

    The points come out sorted and distinct, so in canonical order, as
    float64 values: an integer point below 2**53 in magnitude is exact, and
    its zero is +0.0.  The weights are int64.
    """
    at = np.flatnonzero(counts != 0)  # numpy finds the nonzeros of a bool mask faster
    return WeightedPointSet._from_canonical((at + lo).astype(float)[:, None], counts[at].astype(np.int64))


class WeightedPointSet:
    """Distinct points with positive integer weights, kept in canonical order.

    Canonical order is by the first coordinate, ties in merge-key order
    (keys round(v / MERGE_TOL) per axis), so lexicographic in 1-D and 2-D.
    The arrays are read-only; every operation returns a new set.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights=None):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be a 1-D or 2-D array")
        if pts.shape[0] == 0:
            raise EmptyPointSet("a weighted point set needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        if weights is None:
            w = np.ones(len(pts), dtype=np.int64)
        else:
            w = np.asarray(weights)
            if w.shape != (len(pts),):
                raise ValueError("weights must match points one to one")
            if not np.issubdtype(w.dtype, np.integer):
                if not np.all(np.isfinite(w)):
                    raise ValueError("weights must be finite")
                wi = np.round(w).astype(np.int64)
                if np.max(np.abs(w - wi)) > 0:
                    raise ValueError("weights must be integers")
                w = wi
            if np.any(w < 1):
                raise ValueError("weights must be positive")
            w = w.astype(np.int64)
        pts, w = _canonicalize(pts, w)
        pts.flags.writeable = False
        w.flags.writeable = False
        self.points = pts
        self.weights = w

    @classmethod
    def _from_canonical(cls, points: np.ndarray, weights: np.ndarray) -> "WeightedPointSet":
        """Wrap arrays already in canonical merged order (internal fast path)."""
        obj = cls.__new__(cls)
        points = np.ascontiguousarray(points, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        points.flags.writeable = False
        weights.flags.writeable = False
        obj.points = points
        obj.weights = weights
        return obj

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> int:
        return int(self.weights.sum())

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedPointSet):
            return NotImplemented
        return (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return (
            f"WeightedPointSet(dim={self.dim}, points={len(self)}, "
            f"mass={self.total_mass})"
        )

    def coords(self) -> np.ndarray:
        """Sorted coordinate vector; only meaningful for dimension 1."""
        if self.dim != 1:
            raise DimensionMismatch("coords() is for 1-D point sets")
        return self.points[:, 0]

    def support_only(self) -> "WeightedPointSet":
        """Same points, all weights reset to one (the support as a set)."""
        return WeightedPointSet._from_canonical(
            self.points, np.ones(len(self), dtype=np.int64)
        )

    def weight_at(self, point, tol: float = MERGE_TOL) -> int:
        """Weight of the point within ``tol`` (infinity norm); 0 if absent."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (self.dim,):
            raise DimensionMismatch(
                f"point has dimension {p.shape[0]}, set has {self.dim}"
            )
        hit = np.max(np.abs(self.points - p), axis=1) <= tol
        return int(self.weights[hit].sum())


def _prefix_sums(counts: np.ndarray) -> np.ndarray:
    """Cumulative sums along every axis, with a leading zero on each."""
    s = np.zeros(tuple(n + 1 for n in counts.shape), dtype=np.int64)
    # cast once into the table, then sum in place: no int64 copy of the counts
    inner = s[(slice(1, None),) * counts.ndim]
    inner[...] = counts
    for axis in range(counts.ndim):
        np.cumsum(inner, axis=axis, out=inner)
    return s


def prefix_weights(ps: WeightedPointSet) -> np.ndarray:
    """Cumulative weights with a leading zero; pairs with canonical order."""
    return _prefix_sums(ps.weights)


def _interval_counts(xs: np.ndarray, pref: np.ndarray, lows, highs):
    """Weight in each closed [lows[i], highs[i]] of sorted points xs with prefix weights pref."""
    lo = np.searchsorted(xs, lows, side="left")
    hi = np.searchsorted(xs, highs, side="right")
    return pref[hi] - pref[lo]


def weight_in_interval(ps: WeightedPointSet, a: float, b: float, tol: float = MERGE_TOL) -> int:
    """Total weight in the closed interval [a, b] of a 1-D set."""
    return int(_interval_counts(ps.coords(), prefix_weights(ps), a - tol, b + tol))


def _tile_search(n: int, drop, leaves, cap: int, kernel: str) -> None:
    """Visit the cells (i, j), j >= i, of an n x n table that ``drop`` cannot rule out.

    A tile is anchors [a0, a1) by right ends [b0, b1), given as four index
    arrays.  The search starts from one tile over the table and halves both
    sides a level at a time.  ``drop(a0, a1, b0, b1)`` bounds a level's new
    tiles and returns a mask of those that hold no cell the kernel needs;
    leaf tiles, of side ``_LEAF``, go to ``leaves(a0, a1, b0, b1)``, which
    evaluates their cells (``_leaf_cells``).  Tiles go in batches of at
    most ``_SCAN_CELLS // _LEAF**2``, depth first and earliest anchors
    first, so a batch of leaves holds at most ``_SCAN_CELLS`` cells.  Each
    tile bound and leaf cell is one unit of ``kernel``'s budget at ``cap``
    (``_enforce_budget``), counted before it is done.
    """
    side = _LEAF
    while side < n:
        side *= 2
    stack = [(side, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))]
    work = 0
    while stack:
        side, p, q = stack.pop()
        split = side > _LEAF
        if split:
            side //= 2
            p = (2 * p[:, None] + [0, 0, 1, 1]).ravel()
            q = (2 * q[:, None] + [0, 1, 0, 1]).ravel()
            # a tile past the table's end, or wholly left of its diagonal, holds no cell
            inside = (q >= p) & (q * side < n)
            p, q = p[inside], q[inside]
        a0, b0 = p * side, q * side
        a1, b1 = np.minimum(a0 + side, n), np.minimum(b0 + side, n)
        work += len(p) if split else int(((a1 - a0) * (b1 - b0)).sum())
        _enforce_budget(kernel, work, cap)
        if not split:
            leaves(a0, a1, b0, b1)
            continue
        keep = ~drop(a0, a1, b0, b1)
        order = np.lexsort((q[keep], p[keep]))
        p, q = p[keep][order], q[keep][order]
        step = max(1, _SCAN_CELLS // _LEAF**2)
        stack.extend((side, p[k : k + step], q[k : k + step])
                     for k in reversed(range(0, len(p), step)))


def _leaf_cells(a0, a1, b0, b1):
    """Anchors (L, 1, k) and right ends (1, L, k) of the cells of k leaf tiles, L = ``_LEAF``.

    The tiles lie along the last axis, so each step runs over all of them.
    Past a1 or b1 a tile repeats its last anchor or right end, so every
    cell is one of the tile's own.
    """
    step = np.arange(_LEAF)[:, None]
    i, j = np.minimum(a0 + step, a1 - 1), np.minimum(b0 + step, b1 - 1)
    return i[:, None], j[None]
