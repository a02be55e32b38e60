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
* ``chaos_game_1d_block_by_block``: the 1-D chaos game, one matrix-vector
  product per block (``sdensity._chaos_game_1d`` stacks them).
* ``chaos_game_nd_step_by_step``: the n-D chaos game, one matrix-vector
  product per step (``sdensity._chaos_game_nd`` takes blocks of steps in
  one product).
* ``check_renormalization_every_point``: the renormalization check that
  tests every sample against every expansion point
  (``sdensity.check_renormalization`` skips the points whose shifted sample
  bounds settle the test), with its box test ``_in_box`` (``sdensity._in_box``
  compares axis by axis).
* ``dominance_anchor_by_anchor``: the translation-dominance loop, one binary
  search per anchor (``cantor._dominance_scan`` searches tiles of cells).
* ``_candidate_centers``: a lower scan's candidate centres on one axis, all
  at once from every point's breaks (``beurling._center_blocks`` builds
  them block by block from the distinct coordinates).
* ``canonicalize_by_lexsort``: the merge that sorts by key, then by
  coordinates, in every dimension, and then stably by x
  (``pointset._canonicalize`` sorts 1-D input by its coordinate alone, and
  re-sorts by x only when x decreases somewhere).

Only the names, and the wrapping of two signatures, differ from the
originals: ``dominance_anchor_by_anchor`` takes the coordinates and prefix
weights that ``translation_dominance_check`` computed from its pair.
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
from selfaffine.errors import (
    DimensionMismatch,
    ResolutionTooSmall,
    UnsupportedDimension,
    _enforce_budget,
)
from selfaffine.expansion import DEFAULT_CAP, expand_level
from selfaffine.pairs import SelfAffinePair
from selfaffine.pointset import (
    _MAX_ABS_COORD,
    _MERGE_SCALE_ERROR,
    MERGE_TOL,
    WeightedPointSet,
    _canonicalize,
)
from selfaffine.sdensity import _BLOCK, MeasureSample, RenormCheck


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
    _enforce_budget("expansion", m**k, cap, f"{m}**{k}")
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


def chaos_game_1d_block_by_block(binv: float, digits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """All iterates of x -> binv * (x + d) from x0 = 0, evaluated blockwise.

    After t steps x_t = binv^t x_0 + sum_u binv^(t-u) d_u, so within a block
    of length L the iterates are one lower-triangular matrix-vector product
    plus a carry term from the incoming state.
    """
    steps = len(idx)
    t = np.arange(1, _BLOCK + 1)
    u = np.arange(_BLOCK)
    expo = t[:, None] - u[None, :]
    tri = np.where(expo >= 1, binv ** np.clip(expo, 1, None), 0.0)
    pows = binv**t
    out = np.empty(steps)
    x = 0.0
    d = digits[idx]
    for start in range(0, steps, _BLOCK):
        blk = d[start : start + _BLOCK]
        L = len(blk)
        vals = tri[:L, :L] @ blk + pows[:L] * x
        out[start : start + L] = vals
        x = vals[-1]
    return out


def chaos_game_nd_step_by_step(
    binv: np.ndarray, digits: np.ndarray, rng: np.random.Generator, steps: int
):
    """The iterates of x -> binv (x + d) from the origin, stepped one by one and
    yielded as ``_chaos_game_1d`` yields them, a square of ``_BLOCK**2`` rows at a time."""
    shifts = digits @ binv.T
    x = np.zeros(len(binv))
    for start in range(0, steps, _BLOCK**2):
        idx = rng.integers(0, len(digits), size=min(_BLOCK**2, steps - start))
        out = np.empty((len(idx), len(x)))
        for t, i in enumerate(idx.tolist()):
            x = binv @ x + shifts[i]
            out[t] = x
        yield out


def _in_box(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.all((points >= lo) & (points <= hi), axis=1)


def check_renormalization_every_point(
    pair: SelfAffinePair,
    window,
    n_steps: int,
    sample: MeasureSample,
    cap: int = DEFAULT_CAP,
) -> RenormCheck:
    """Monte Carlo check of the exact renormalization identity.

    The invariant measure sigma satisfies
    sigma(B^-N W) = m^-N * sum over level-N expansion points p of
    sigma(W - p), counted with multiplicity.  Both sides are estimated on
    the same sample; ``stderr`` is the paired standard error of their
    difference.  ``window`` is an axis box given as (lo, hi) vectors (plain
    floats in dimension 1).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample.dim != pair.dim:
        raise DimensionMismatch("sample dimension differs from pair dimension")
    _enforce_budget("expansion", pair.m**n_steps, cap, f"{pair.m}**{n_steps}")
    lo, hi = window
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(hi <= lo):
        raise ValueError("window must have positive extent on every axis")

    mu = expand_level(pair, n_steps, cap)
    x = sample.points
    bn = np.linalg.matrix_power(pair.matrix.entries, n_steps)
    lhs_ind = _in_box(x @ bn.T, lo, hi).astype(float)
    f = np.zeros(len(x))
    for p, w in zip(mu.points, mu.weights):
        f += w * _in_box(x + p, lo, hi)
    f /= float(pair.m**n_steps)
    diff = lhs_ind - f
    stderr = float(np.std(diff, ddof=1) / np.sqrt(len(x)))
    return RenormCheck(lhs=float(lhs_ind.mean()), rhs=float(f.mean()), stderr=stderr)


def dominance_anchor_by_anchor(xs: np.ndarray, pref: np.ndarray):
    """Verify no interval holds more level-k points than its translate at zero.

    Checks mu([a, b]) <= mu([0, b - a]) for every point-bounded interval;
    every interval's count equals that of its minimal point-bounded shrink,
    so this family is exhaustive.  Returns (True, None) or (False, (a, b))
    with the first counterexample in scan order.
    """
    for i in range(len(xs)):
        lengths = xs[i:] - xs[i]
        lhs = pref[i + 1 :] - pref[i]
        hi = np.searchsorted(xs, lengths + MERGE_TOL, side="right")
        rhs = pref[hi]
        bad = np.nonzero(lhs > rhs)[0]
        if len(bad):
            j = int(bad[0])
            return False, (float(xs[i]), float(xs[i + j]))
    return True, None


def _candidate_centers(breaks: np.ndarray, zlo: float, zhi: float) -> np.ndarray:
    """Midpoints of the cells cut by ``breaks`` in [zlo, zhi], plus both ends, for a 2-D scan.

    The breaks arrive as a few runs, each sorted when its coordinates are
    (x in canonical order), which a stable sort merges in linear time.
    """
    inner = np.sort(breaks[(breaks > zlo) & (breaks < zhi)], kind="stable")
    first = np.ones(len(inner), dtype=bool)
    first[1:] = inner[1:] != inner[:-1]
    grid = np.concatenate([[zlo], inner[first], [zhi]])
    return np.concatenate([[zlo], (grid[:-1] + grid[1:]) / 2.0, [zhi]])


def canonicalize_by_lexsort(points: np.ndarray, weights: np.ndarray):
    """Merge near-duplicate points and sort them by x, ties in merge-key order.

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
    merged, weights = points[order[starts]], np.add.reduceat(weights[order], starts)
    by_x = np.argsort(merged[:, 0], kind="stable")
    return merged[by_x], weights[by_x].astype(np.int64)
