"""Upper s-densities, discrete convolution, and invariant-measure sampling.

The s-density scan generalizes the window scan: it maximizes
mass / diameter^s over intervals with both endpoints at support points and
diameter at least a threshold r.  Its reciprocal at the largest threshold
estimates the s-dimensional Hausdorff measure of the attractor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beurling import _SCAN_CELLS, MeasureResult, _natural_ladder, _reciprocal_measure
from .errors import DimensionMismatch, UnsupportedDimension
from .expansion import DEFAULT_CAP, _check_budget, expand_level
from .pairs import SelfAffinePair
from .pointset import (
    _MIN_BUDGET,
    WeightedPointSet,
    _canonicalize,
    _leaf_cells,
    _tile_search,
    prefix_weights,
    weight_in_interval,
)

#: Relative tolerance admitting intervals whose diameter sits at a threshold.
THRESHOLD_TOL = 1e-12

#: Relative slack on the power of a tile bound, against rounding in ``**``.
_POW_SLACK = 1e-12


@dataclass(frozen=True)
class SDensityEntry:
    threshold: float
    sup_value: float
    sup_count: int
    argmax: tuple[float, float]


@dataclass(frozen=True)
class SDensityEstimate:
    s: float
    entries: tuple[SDensityEntry, ...]
    level: int | None
    max_multiplicity: int


@dataclass(frozen=True)
class MeasureSample:
    """Points drawn from the normalized invariant measure of a pair."""

    points: np.ndarray
    seed: int
    count: int

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class RenormCheck:
    lhs: float
    rhs: float
    stderr: float


def natural_thresholds(pts: WeightedPointSet, count: int = 9):
    """Geometric ratio-2 thresholds whose largest value is the support extent."""
    return _natural_ladder(pts, count, 1.0)


def interval_value(pts: WeightedPointSet, a: float, b: float, s: float) -> float:
    """Mass of [a, b] divided by (b - a)^s."""
    if b <= a:
        raise ValueError("interval must have positive length")
    return weight_in_interval(pts, a, b) / (b - a) ** s


def upper_s_density_profile(
    pts: WeightedPointSet,
    s: float,
    thresholds,
    level: int | None = None,
    cap: int = DEFAULT_CAP,
) -> SDensityEstimate:
    """Exact sup of mass / diameter^s over point-bounded intervals, per threshold.

    For each threshold r only intervals of diameter >= r compete, so the sup
    is nonincreasing in r.  Thresholds with no admissible interval (for
    instance r beyond the support extent) produce no entry; a threshold that
    is not positive, or so small that it admits an interval of length 0
    (some anchor plus r rounds back to the anchor), raises ``ValueError``.

    A tile search over (anchor, right end) cells finds the sup
    (``_tile_winners``).  It evaluates a cell with the float operations of
    the per-threshold anchor loop, and ties go to the earliest anchor and
    then to the earliest right end.  ``cap`` bounds its tile bounds and leaf
    cells, or ``_MIN_BUDGET`` if that is more; past the budget the profile
    raises ``BudgetExceeded``.
    """
    if pts.dim != 1:
        raise UnsupportedDimension("s-density scan supports dimension 1 only")
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    rs = sorted(float(t) for t in thresholds)
    if not all(r > 0 for r in rs):
        raise ValueError("thresholds must be positive")
    xs = pts.coords()
    pref = prefix_weights(pts)
    n = len(xs)
    # first admissible right end per threshold (rows) and anchor (columns)
    j0 = np.empty((len(rs), n), dtype=np.intp)
    for t, r in enumerate(rs):
        j0[t] = np.searchsorted(xs, xs + r * (1.0 - THRESHOLD_TOL), side="left")
    # a threshold below an anchor's float spacing admits the anchor itself;
    # anchor plus r only grows with r, so the smallest threshold shows it first
    if len(rs) and (j0[0] == np.arange(n)).any():
        raise ValueError(
            f"threshold {rs[0]:g} admits an interval of length 0:"
            " it is below the float spacing of the coordinates"
        )
    winner = _tile_winners(xs, pref, s, j0, max(cap, _MIN_BUDGET))
    entries = []
    for t in np.flatnonzero(winner < n):
        i, lo = winner[t], j0[t, winner[t]]
        counts = pref[lo + 1 :] - pref[i]
        values = counts / (xs[lo:] - xs[i]) ** s
        j = int(np.argmax(values))
        entries.append(
            SDensityEntry(
                threshold=rs[t],
                sup_value=float(values[j]),
                sup_count=int(counts[j]),
                argmax=(float(xs[i]), float(xs[lo + j])),
            )
        )
    return SDensityEstimate(
        s=s,
        entries=tuple(entries),
        level=level,
        max_multiplicity=int(pts.weights.max()),
    )


def _tile_winners(xs, pref, s, j0, limit):
    """Each threshold's winning anchor (n for none) by ``_tile_search``.

    A tile [a0, a1) x [b0, b1) is dead for threshold t when its last right
    end lies before j0[t, a0], the first admissible one of its first anchor.
    Otherwise no cell in it exceeds (pref[b1] - pref[a0]) / L^s, where L is
    the larger of x[b0] - x[a1 - 1] and the shortest admissible length at t;
    both round down from every cell's length.  The power takes a relative
    slack of ``_POW_SLACK``, and a tile goes only when its bound is strictly
    below the best value seen at every threshold, so tied cells reach the
    leaves.  Each level raises the best from the admissible corner cells
    (a0, b1 - 1), the tiles' largest intervals.

    A batch of leaves gives each threshold the largest value among its
    admissible cells.  A threshold that admits a leaf whole needs only the
    leaf's row maxima; only the leaves that some threshold admits in part
    take suffix maxima along their rows, since threshold t admits the right
    ends of row i from j0[t, i] on.  The earliest anchor that reaches the
    value is found only for the thresholds whose winner it may change.
    """
    n, T = len(xs), len(j0)
    # lengths grow along a row, so its first admissible cell is its shortest;
    # the anchors with an admissible cell come first
    shortest = np.full((T, 1), np.inf)
    for t, row in enumerate(j0):
        k = int(np.searchsorted(row, n))
        if k:
            shortest[t] = (xs[row[:k]] - xs[:k]).min()
    best = np.full(T, -np.inf)  # best value seen, corners included
    top = np.full(T, -np.inf)  # best leaf value
    winner = np.full(T, n)

    def drop(a0, a1, b0, b1):
        count = pref[b1] - pref[a0]
        live = b1 - 1 >= j0[:, a0]
        with np.errstate(divide="ignore", invalid="ignore"):
            corner = count / (xs[b1 - 1] - xs[a0]) ** s
        np.maximum(best, np.where(live, corner, -np.inf).max(axis=1), out=best)
        bound = count / (np.maximum(shortest, xs[b0] - xs[a1 - 1]) ** s * (1.0 - _POW_SLACK))
        return ~(live & (bound >= best[:, None])).any(axis=0)

    scratch = np.empty(0)

    def leaves(a0, a1, b0, b1):
        nonlocal scratch
        i, j = _leaf_cells(a0, a1, b0, b1)
        L = i.shape[0]
        # the batch's two tables are kept: tables freed per batch come back as
        # fresh pages, which made a near-tied scan 1.4-2.3 times as slow
        size = L * L * len(a0)
        if scratch.size < 2 * size:
            scratch = np.empty(2 * size)
        counts, values = scratch[: 2 * size].reshape(2, L, L, len(a0))
        # cells on or left of the diagonal hold garbage; no threshold reads them
        np.subtract(xs[j], xs[i], out=values)
        np.subtract(pref[j + 1], pref[i], out=counts)
        with np.errstate(divide="ignore", invalid="ignore"):
            values **= s
            np.divide(counts, values, out=values)
        head = values.max(axis=1)
        peak = head.max(axis=0)
        full = j0[:, a1 - 1] <= b0
        pair = np.where(full, peak, -np.inf)
        t, tile = np.nonzero(~full & (j0[:, a0] < b1))
        if len(t):
            some, inv = np.unique(tile, return_inverse=True)
            suffix = values[:, :, some]
            step = 1
            while step < L:
                np.maximum(suffix[:, :-step], suffix[:, step:], out=suffix[:, :-step])
                step *= 2
            # a row's suffix from its first admissible right end; a right end
            # past the tile's last, repeated or not, admits none of the row
            col = j0[t[:, None], i[:, 0, tile].T] - b0[tile, None]
            rows = suffix[np.arange(L), np.clip(col, 0, L - 1), inv[:, None]]
            rows[col >= (b1 - b0)[tile, None]] = -np.inf
            pair[t, tile] = rows.max(axis=1)
        m = pair.max(axis=1)
        np.maximum(best, m, out=best)
        # only a larger value, or a tie at an earlier anchor, changes a winner
        gain = (m > top) | ((m == top) & (winner > a0.min()))
        if not gain.any():
            return
        first = np.where(full, a0 + (head == peak).argmax(axis=0), n)
        if len(t):
            first[t, tile] = i[(rows == pair[t, tile][:, None]).argmax(axis=1), 0, tile]
        first = np.where(pair == m[:, None], first, n).min(axis=1)
        gain &= (m > top) | (first < winner)
        top[gain], winner[gain] = m[gain], first[gain]

    _tile_search(n, _SCAN_CELLS, drop, leaves, limit, "s-density scan")
    winner[top == -np.inf] = n
    return winner


def hausdorff_from_sdensity(profile: SDensityEstimate) -> MeasureResult:
    """Reciprocal of the sup s-density at the largest threshold.

    Divergence mirrors the window-density case: a collision certifies an
    infinite s-density (multiplicities amplify without bound), and a growing
    tail of sup values is flagged as well.
    """
    return _reciprocal_measure([e.sup_value for e in profile.entries], profile.max_multiplicity)


def discrete_convolve(a: WeightedPointSet, b: WeightedPointSet) -> WeightedPointSet:
    """Convolution of discrete measures: all pairwise sums, weights multiplied."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"operand dimensions {a.dim} and {b.dim} differ")
    pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dim)
    w = (a.weights[:, None] * b.weights[None, :]).reshape(-1)
    pts, w = _canonicalize(pts, w)
    return WeightedPointSet._from_canonical(pts, w)


_BLOCK = 128


def _chaos_game_1d(binv: float, digits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """All iterates of x -> binv * (x + d) from x0 = 0, evaluated blockwise.

    After t steps x_t = binv^t x_0 + sum_u binv^(t-u) d_u, so within a block
    of length L the iterates are one lower-triangular matrix-vector product
    plus a carry term from the incoming state.  The full blocks go a square
    of ``_BLOCK`` blocks at a time: one stacked ``matmul`` issues per block
    the gemv that a separate ``tri @ blk`` issues, so each product keeps its
    bits; the carries x_b = y_b[-1] + binv^L x_(b-1), a scalar recurrence,
    run in Python with the same two roundings as the block's last iterate;
    and the carry terms are added in place.  No digit array or temporary is
    longer than a square.  A shorter last block is one product of its own.
    """
    steps = len(idx)
    t = np.arange(1, _BLOCK + 1)
    tri = np.tril(binv ** np.maximum(np.subtract.outer(t, t - 1), 1))
    pows = binv**t
    grow = float(pows[-1])
    out = np.empty(steps)
    x = 0.0
    end = steps - steps % _BLOCK
    for start in range(0, end, _BLOCK**2):
        stop = min(start + _BLOCK**2, end)
        blocks = out[start:stop].reshape(-1, _BLOCK)
        d = digits[idx[start:stop]].reshape(-1, _BLOCK, 1)
        np.matmul(tri, d, out=blocks[:, :, None])
        carry = []
        for last in blocks[:, -1].tolist():
            carry.append(x)
            x = last + grow * x
        blocks += np.multiply.outer(carry, pows)
    if end < steps:
        L = steps - end
        out[end:] = tri[:L, :L] @ digits[idx[end:]] + pows[:L] * x
    return out


def sample_self_similar_measure(
    pair: SelfAffinePair,
    count: int,
    seed: int,
    burn_in: int = 64,
) -> MeasureSample:
    """Chaos-game sampler for the normalized invariant measure.

    Iterates x -> B^-1 (x + d) from the origin with digits drawn uniformly
    at random, discards ``burn_in`` iterates, and keeps the next ``count``.
    Randomness comes from numpy's PCG64 generator seeded explicitly, which
    produces identical streams across platforms, so identical
    (seed, count, burn_in) yield identical samples bit for bit.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    rng = np.random.default_rng(seed)
    steps = burn_in + count
    idx = rng.integers(0, pair.m, size=steps)
    if pair.dim == 1:
        binv = float(pair.matrix.inverse[0, 0])
        digits = pair.digits.vectors[:, 0]
        points = _chaos_game_1d(binv, digits, idx)[burn_in:, None]
    else:
        binv = pair.matrix.inverse
        shifts = pair.digits.vectors @ binv.T
        x = np.zeros(pair.dim)
        points = np.empty((count, pair.dim))
        for t in range(steps):
            x = binv @ x + shifts[idx[t]]
            if t >= burn_in:
                points[t - burn_in] = x
    points.flags.writeable = False
    return MeasureSample(points=points, seed=seed, count=count)


def _in_box(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.all((points >= lo) & (points <= hi), axis=1)


def check_renormalization(
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
    difference.  ``window`` is an axis box given as (lo, hi) vectors of
    finite bounds, one per axis (plain floats in dimension 1).

    For a fixed p, x -> fl(x + p) is monotone on each axis, so the shifted
    per-axis extremes of the sample bound every shifted sample.  A point
    whose bounds miss the window on some axis adds nothing and is skipped;
    one whose bounds lie inside the window on every axis adds its weight to
    every sample; only the points in between test each sample.  A NaN
    extreme passes neither test and falls through to the per-sample test.
    Each entry of the right-hand sum is a sum of integer weights below
    2**53, exact in any order, so the results are those of testing every
    point.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample.dim != pair.dim:
        raise DimensionMismatch("sample dimension differs from pair dimension")
    _check_budget(pair.m, n_steps, cap)
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise DimensionMismatch("window must be a (lo, hi) pair of bounds") from None
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != (pair.dim,) or hi.shape != (pair.dim,):
        raise DimensionMismatch(f"window bounds need one value per axis of the {pair.dim}-D pair")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("window bounds must be finite")
    if np.any(hi <= lo):
        raise ValueError("window must have positive extent on every axis")

    mu = expand_level(pair, n_steps, cap)
    x = sample.points
    bn = np.linalg.matrix_power(pair.matrix.entries, n_steps)
    lhs_ind = _in_box(x @ bn.T, lo, hi)
    f = np.zeros(len(x))
    xmin, xmax = x.min(axis=0), x.max(axis=0)
    for p, w in zip(mu.points, mu.weights):
        low, high = xmin + p, xmax + p
        if np.any((high < lo) | (low > hi)):
            continue
        if np.all((low >= lo) & (high <= hi)):
            f += w
        else:
            np.add(f, w, out=f, where=_in_box(x + p, lo, hi))
    f /= float(pair.m**n_steps)
    lhs, rhs = float(lhs_ind.mean()), float(f.mean())
    diff = np.subtract(lhs_ind, f, out=f)
    stderr = float(np.std(diff, ddof=1) / np.sqrt(len(x)))
    return RenormCheck(lhs=lhs, rhs=rhs, stderr=stderr)
