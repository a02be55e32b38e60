"""Earlier implementations, kept verbatim as oracles for their faster successors.

* ``raster_attractor_full_grid``: the raster fixpoint that re-tests every
  cell of the grid on every pass (``attractor.raster_attractor`` tests the
  live cells only).
* ``_prefix_sums``: prefix sums through ``cumsum`` copies (``pointset``
  sums in place).
* ``expand_level_afresh``: one level built from level 1
  (``expansion.expand_level`` is the last item of ``expand_levels``).
* ``rank_table_by_counting``: the rank table through an int64 count and
  cumulative sum (``beurling._rank_table`` repeats each count).

Only the names, and the wrapping of one signature, differ from the originals.
"""
from __future__ import annotations

import itertools

import numpy as np

from selfaffine.attractor import (
    DEFAULT_MAX_ITERS,
    MIN_RESOLUTION,
    LebesgueEstimate,
    RasterGrid,
    invariant_radius,
)
from selfaffine.beurling import _TABLE_SPAN
from selfaffine.errors import ResolutionTooSmall, UnsupportedDimension
from selfaffine.expansion import DEFAULT_CAP, _check_budget
from selfaffine.pairs import SelfAffinePair
from selfaffine.pointset import _MERGE_SCALE_ERROR, WeightedPointSet, _canonicalize


def raster_attractor_full_grid(
    pair: SelfAffinePair,
    resolution: int,
    max_iters: int = DEFAULT_MAX_ITERS,
):
    """Outer raster of the attractor; returns (RasterGrid, LebesgueEstimate).

    A cell survives an iteration when its image under the expanding map
    (minus some digit) meets an occupied cell; images are overestimated by
    their bounding box plus a one-cell dilation, so every cell meeting the
    true attractor survives forever and the fixed point is an outer cover.
    """
    if pair.dim not in (1, 2):
        raise UnsupportedDimension("raster supports dimensions 1 and 2 only")
    if resolution < MIN_RESOLUTION:
        raise ResolutionTooSmall(f"resolution must be at least {MIN_RESOLUTION}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    radius = invariant_radius(pair)
    lo = -radius
    h = 2.0 * radius / resolution
    b = pair.matrix.entries
    digits = pair.digits.vectors
    centers = lo + (np.arange(resolution) + 0.5) * h

    dim = pair.dim
    images = [
        sum(b[a, k] * centers.reshape((-1,) + (1,) * (dim - 1 - k)) for k in range(dim))
        for a in range(dim)
    ]
    # half-extent of a cell's image, dilated by one cell
    ext = np.abs(b) @ np.full(dim, h / 2) + h
    # Each digit's index box around every cell image, as flat indices of its
    # corners into the raveled prefix table: (+) corners and (-) corners of
    # the inclusion-exclusion.  They depend only on the pair and the grid.
    index_type = np.int32 if (resolution + 1) ** dim < 2**31 else np.int64
    boxes = []
    for d in digits:
        ends = []
        for a in range(dim):
            c = images[a] - d[a]
            stride = (resolution + 1) ** (dim - 1 - a)
            ends.append((
                np.clip(np.floor((c - ext[a] - lo) / h).astype(np.int64), 0, resolution) * stride,
                np.clip(np.ceil((c + ext[a] - lo) / h).astype(np.int64), 0, resolution) * stride,
            ))
        box = ([], [])
        for corner in itertools.product((1, 0), repeat=dim):
            flat = sum(ends[a][corner[a]] for a in range(dim)).astype(index_type)
            box[(sum(corner) - dim) % 2].append(flat)
        boxes.append(box)
    del images, ends, c
    occ = np.ones((resolution,) * dim, dtype=bool)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        s = _prefix_sums(occ).reshape(-1)
        new = np.zeros_like(occ)
        for plus, minus in boxes:
            # occupied cells in the index box, by inclusion-exclusion over its corners
            new |= sum(s[i] for i in plus) > sum(s[i] for i in minus)
        new &= occ
        if np.array_equal(new, occ):
            converged = True
            break
        occ = new

    occ.flags.writeable = False
    grid = RasterGrid(dim=pair.dim, radius=radius, resolution=resolution, cells=occ)
    estimate = LebesgueEstimate(
        outer=float(occ.sum()) * grid.cell_volume,
        iterations=iterations,
        resolution=resolution,
        converged=converged,
    )
    return grid, estimate


def _prefix_sums(counts: np.ndarray) -> np.ndarray:
    """Cumulative sums along every axis, with a leading zero on each."""
    s = np.zeros(tuple(n + 1 for n in counts.shape), dtype=np.int64)
    inner = counts
    for axis in range(counts.ndim):
        inner = inner.cumsum(axis=axis)
    s[(slice(1, None),) * counts.ndim] = inner
    return s


def expand_level_afresh(
    pair: SelfAffinePair, k: int, cap: int = DEFAULT_CAP
) -> WeightedPointSet:
    """Enumerate the level-k expansion measure of a pair.

    Builds incrementally: the level-j set is the level-(j-1) set translated
    by B^(j-1) d for every digit d, merging coincident sums so weights count
    representations.  Total mass is exactly m**k.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    m = pair.m
    _check_budget(m, k, cap)
    digits = pair.digits.vectors
    b = pair.matrix.entries
    # digit sets are stored sorted and distinct, so level 1 is already canonical
    pts = digits.copy()
    w = np.ones(len(digits), dtype=np.int64)
    power = np.eye(pair.dim)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(1, k):
                power = b @ power
                shifts = digits @ power.T
                new_pts = (pts[:, None, :] + shifts[None, :, :]).reshape(-1, pair.dim)
                new_w = np.repeat(w, m)
                pts, w = _canonicalize(new_pts, new_w)
    except FloatingPointError:
        # a sum past the float range lies far past the merge scale
        raise ValueError(_MERGE_SCALE_ERROR) from None
    return WeightedPointSet._from_canonical(pts, w)


def rank_table_by_counting(values: np.ndarray):
    """``P[k] = #{v < values[0] + k}`` over sorted values, or None when they do not qualify.

    The values qualify when each is an integer below 2**52 in magnitude and
    their span ``values[-1] - values[0] + 1`` is at most ``_TABLE_SPAN``
    times their count; the table then has span + 1 int32 entries.
    """
    v0, v1 = float(values[0]), float(values[-1])
    span = v1 - v0 + 1
    if not (-(2.0**52) < v0 and v1 < 2.0**52 and span <= _TABLE_SPAN * len(values)):
        return None
    if not np.array_equal(np.floor(values), values):
        return None
    table = np.zeros(int(span) + 1, dtype=np.int32)
    np.cumsum(np.bincount((values - v0).astype(np.intp), minlength=int(span)), out=table[1:])
    return table
