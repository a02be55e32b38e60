"""Weighted point sets: finite discrete measures with integer multiplicities.

A :class:`WeightedPointSet` is the common currency of the package: digit
expansions produce them, density scans consume them.  Construction
canonicalizes, so two sets built from the same multiset of points compare
equal regardless of input order.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyPointSet

#: Two computed points closer than this (infinity norm) are the same point.
MERGE_TOL = 1e-9

# Quantized merge keys must stay inside int64.
_MAX_ABS_COORD = 4.0e9
_MERGE_SCALE_ERROR = f"coordinate magnitude exceeds supported merge scale ({_MAX_ABS_COORD:g})"


def _canonicalize(points: np.ndarray, weights: np.ndarray):
    """Merge near-duplicate points and sort lexicographically by coordinates.

    Merging is grid-based at the MERGE_TOL scale: coordinates are quantized
    to multiples of the tolerance and equal keys collapse, summing weights.
    Exactly equal points always merge; points farther apart than twice the
    tolerance never do.  The representative of a merge group is its
    lexicographically smallest member, so coordinates of the inputs are
    preserved verbatim.
    """
    if points.size and np.max(np.abs(points)) >= _MAX_ABS_COORD:
        raise ValueError(_MERGE_SCALE_ERROR)
    keys = np.round(points / MERGE_TOL).astype(np.int64)
    # one sort by key, then by coordinates: each key group starts at its smallest member
    order = np.lexsort((*points.T[::-1], *keys.T[::-1]))
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.flatnonzero(first)
    return points[order[starts]], np.add.reduceat(weights[order], starts).astype(np.int64)


class WeightedPointSet:
    """Distinct points with positive integer weights, kept in canonical order.

    Canonical order is lexicographic by coordinates.  The arrays are
    read-only; every operation returns a new set.
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
        if weights is None:
            w = np.ones(len(pts), dtype=np.int64)
        else:
            w = np.asarray(weights)
            if w.shape != (len(pts),):
                raise ValueError("weights must match points one to one")
            if not np.issubdtype(w.dtype, np.integer):
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

    def __hash__(self):  # mutable-array wrapper; identity hashing is intentional
        return id(self)

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
    inner = counts
    for axis in range(counts.ndim):
        inner = inner.cumsum(axis=axis)
    s[(slice(1, None),) * counts.ndim] = inner
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
