"""Upper s-densities, discrete convolution, and invariant-measure sampling.

The s-density scan generalizes the window scan: it maximizes
mass / diameter^s over intervals with both endpoints at support points and
diameter at least a threshold r.  Its reciprocal at the largest threshold
estimates the s-dimensional Hausdorff measure of the attractor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beurling import MeasureResult, _natural_ladder, _reciprocal_measure
from .errors import DimensionMismatch, UnsupportedDimension, _enforce_budget
from .expansion import DEFAULT_CAP, expand_level
from .pairs import SelfAffinePair
from .pointset import (
    WeightedPointSet,
    _leaf_cells,
    _merged,
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

    def __post_init__(self):
        if np.ndim(self.points) != 2 or len(self.points) != self.count:
            raise ValueError("points must be a 2-D array of count rows")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def blocks(self):
        """The points as consecutive slices of ``_BLOCK**2`` rows, as ``ChaosGame`` yields them."""
        return (self.points[a : a + _BLOCK**2] for a in range(0, len(self.points), _BLOCK**2))


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
    then to the earliest right end.  ``cap`` budgets its tile bounds and
    leaf cells (``_enforce_budget``).
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
    winner = _tile_winners(xs, pref, s, j0, cap)
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


def _tile_winners(xs, pref, s, j0, cap):
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

    _tile_search(n, drop, leaves, cap, "s-density scan")
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
    return _merged(pts, w)


_BLOCK = 128


def _chaos_game_1d(binv: float, digits: np.ndarray, rng: np.random.Generator, steps: int):
    """The iterates of x -> binv * (x + d) from x0 = 0, a square of ``_BLOCK**2`` at a time.

    Each square draws its digit indices as the game reaches it; PCG64 gives
    the same indices in such chunks as in one draw of all ``steps``.
    After t steps x_t = binv^t x_0 + sum_u binv^(t-u) d_u, so within a block
    of length L the iterates are one lower-triangular matrix-vector product
    plus a carry term from the incoming state.  A square's full blocks go
    at once: one stacked ``matmul`` issues per block the gemv that a
    separate ``tri @ blk`` issues, so each product keeps its bits; the
    carries x_b = y_b[-1] + binv^L x_(b-1), a scalar recurrence, run in
    Python with the same two roundings as the block's last iterate; and the
    carry terms are added in place.  A shorter last block, in the last
    square only, is one product of its own.
    """
    t = np.arange(1, _BLOCK + 1)
    tri = np.tril(binv ** np.maximum(np.subtract.outer(t, t - 1), 1))
    pows = binv**t
    grow = float(pows[-1])
    x = 0.0
    for start in range(0, steps, _BLOCK**2):
        size = min(_BLOCK**2, steps - start)
        d = digits[rng.integers(0, len(digits), size=size)]
        out = np.empty(size)
        end = size - size % _BLOCK
        if end:
            blocks = out[:end].reshape(-1, _BLOCK)
            np.matmul(tri, d[:end].reshape(-1, _BLOCK, 1), out=blocks[:, :, None])
            carry = []
            for last in blocks[:, -1].tolist():
                carry.append(x)
                x = last + grow * x
            blocks += np.multiply.outer(carry, pows)
        if end < size:
            L = size - end
            out[end:] = tri[:L, :L] @ d[end:] + pows[:L] * x
        yield out


def _block_steps(dim: int) -> int:
    """Steps per block of the n-D game: a power of 2 up to ``_BLOCK``, with at most
    ``2 * _BLOCK`` rows in its block matrix, so that its size stays bounded in dim."""
    return min(_BLOCK, 1 << (max(1, 2 * _BLOCK // dim).bit_length() - 1))


def _chaos_game_nd(binv: np.ndarray, digits: np.ndarray, rng: np.random.Generator, steps: int):
    """The iterates of x -> binv (x + d) from the origin, yielded as ``_chaos_game_1d``
    yields them, a square of ``_BLOCK**2`` rows at a time, by block products.

    Within a block of L = ``_block_steps(n)`` steps from the state x, the
    t-th iterate is sum_(u<=t) binv^(t-u+1) d_u + binv^(t+1) x (t from 0), so
    one block-Toeplitz matrix of the powers binv^1 ... binv^L times the
    block's stacked digit vectors gives its iterates less the carry term.
    A square's full blocks go in one stacked ``matmul``; the carries
    x_b = y_b[-1] + binv^L x_(b-1) run in Python, and the carry terms
    binv^(t+1) x are added in place.  L divides ``_BLOCK**2``, so only the
    last square can end in a shorter block, one product of its own.  The
    iterates round differently from a step-by-step loop, within a few ulp
    of the attractor's radius, and the same on every run of a platform.
    """
    n = len(binv)
    L = _block_steps(n)
    pows = np.empty((L + 1, n, n))
    pows[0] = binv
    for k in range(1, L):
        pows[k] = binv @ pows[k - 1]
    pows[L] = 0.0
    t = np.arange(L)
    lag = np.subtract.outer(t, t)
    toeplitz = pows[np.where(lag >= 0, lag, L)].transpose(0, 2, 1, 3).reshape(L * n, L * n)
    carry_pows = pows[:L].reshape(L * n, n)
    grow = pows[L - 1]
    x = np.zeros(n)
    for start in range(0, steps, _BLOCK**2):
        size = min(_BLOCK**2, steps - start)
        d = digits[rng.integers(0, len(digits), size=size)]
        out = np.empty((size, n))
        end = size - size % L
        if end:
            blocks = out[:end].reshape(-1, L * n)
            np.matmul(toeplitz, d[:end].reshape(-1, L * n, 1), out=blocks[:, :, None])
            carry = np.empty((len(blocks), n))
            for b, last in enumerate(blocks[:, -n:]):
                carry[b] = x
                x = last + grow @ x
            blocks += carry @ carry_pows.T
        if end < size:
            tail = (size - end) * n
            y = toeplitz[:tail, :tail] @ d[end:].reshape(-1) + carry_pows[:tail] @ x
            out[end:] = y.reshape(-1, n)
        yield out


@dataclass(frozen=True)
class ChaosGame:
    """A chaos-game sample of the normalized invariant measure, drawn as it is read.

    ``blocks`` runs the game afresh on each call and yields the kept
    iterates as (rows, dim) arrays, one square of ``_BLOCK**2`` steps at a
    time, so no array of the sample's length is made.  Every dimension
    computes blocks of steps by one product (``_chaos_game_1d``,
    ``_chaos_game_nd``); in dimension 2 and up the last bits can differ
    from a step-by-step loop's, and a given platform gives the same bits on
    every run.  ``sample_self_similar_measure`` stores the same iterates.
    """

    pair: SelfAffinePair
    count: int
    seed: int
    burn_in: int = 64

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @property
    def dim(self) -> int:
        return self.pair.dim

    def blocks(self):
        """The iterates past the burn-in, as (rows, dim) arrays of at most ``_BLOCK**2`` rows."""
        rng = np.random.default_rng(self.seed)
        steps = self.burn_in + self.count
        inv, digits = self.pair.matrix.inverse, self.pair.digits.vectors
        if self.dim == 1:
            game = _chaos_game_1d(float(inv[0, 0]), digits[:, 0], rng, steps)
            squares = (square[:, None] for square in game)
        else:
            squares = _chaos_game_nd(inv, digits, rng, steps)
        skip = self.burn_in
        for square in squares:
            if skip < len(square):
                yield square[skip:]
            skip = max(skip - len(square), 0)


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
    (seed, count, burn_in) yield identical samples bit for bit on a given
    platform.  The iterates come from block products; in dimension 2 and
    up their last bits can differ from those of a step-by-step loop, within
    a few ulp of the attractor's radius.

    The iterates are read from the stream of ``ChaosGame``, a square of
    ``_BLOCK**2`` steps at a time, into the output.  Each square draws its
    digit indices as the game reaches it.  Chunked ``rng.integers`` draws
    give the stream of one draw of all the steps, because PCG64 keeps the
    spare half of a 64-bit output in its state.  So the sample equals that
    of one draw, and no index array of the sample's length is made.
    """
    game = ChaosGame(pair, count, seed, burn_in)
    points = np.empty((count, pair.dim))
    start = 0
    for block in game.blocks():
        points[start : start + len(block)] = block
        start += len(block)
    points.flags.writeable = False
    return MeasureSample(points=points, seed=seed, count=count)


def _in_box(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each row lies in the box [lo, hi], one comparison per axis and bound ANDed in."""
    inside = points[:, 0] >= lo[0]
    inside &= points[:, 0] <= hi[0]
    for a in range(1, points.shape[1]):
        inside &= points[:, a] >= lo[a]
        inside &= points[:, a] <= hi[a]
    return inside


def _without_lone_rows(blocks):
    """The row blocks, each one-row block joined to a neighbour when there is one.

    numpy multiplies a one-row block by a matrix on its vector path, which
    can round a 2-D product differently from the same row inside a larger
    block; blocks of two rows and more agree with the whole product.
    """
    held = None
    for block in blocks:
        if held is None:
            held = block
        elif len(held) == 1 or len(block) == 1:
            held = np.concatenate([held, block])
        else:
            yield held
            held = block
    if held is not None:
        yield held


def _std_in_place(a: np.ndarray) -> np.floating:
    """``np.std(a, ddof=1)`` of a 1-D float array, with numpy's operations, in place on ``a``."""
    n = len(a)
    np.subtract(a, np.add.reduce(a) / n, out=a)
    np.square(a, out=a)
    return np.sqrt(np.add.reduce(a) / (n - 1))


def check_renormalization(
    pair: SelfAffinePair,
    window,
    n_steps: int,
    sample: MeasureSample | ChaosGame,
    cap: int = DEFAULT_CAP,
) -> RenormCheck:
    """Monte Carlo check of the exact renormalization identity.

    The invariant measure sigma satisfies
    sigma(B^-N W) = m^-N * sum over level-N expansion points p of
    sigma(W - p), counted with multiplicity.  Both sides are estimated on
    the same sample; ``stderr`` is the paired standard error of their
    difference, so the sample needs at least 2 points.  ``window`` is an
    axis box given as (lo, hi) vectors of finite bounds, one per axis
    (plain floats in dimension 1).

    The sample is read block by block: slices of ``_BLOCK**2`` rows of a
    ``MeasureSample``, or the squares of a ``ChaosGame`` as it is drawn, so
    that the check of a game never holds the sample.  A one-row block is
    joined to a neighbour (``_without_lone_rows``), so that each block's
    product with B^N has the bits of the whole sample's.  The left-hand
    indicator goes into one bool array, and the right-hand values into one
    float array.  Per block the check does elementwise work only, rounding
    as a product of the whole sample would: B^N x goes into one reusable
    (rows, dim) buffer, by a scalar multiply in dimension 1 (B^N is 1 x 1
    and the product rounds once either way) and by ``np.matmul`` otherwise;
    the same buffer then takes each straddling x + p.  ``_in_box`` ANDs
    per-axis comparisons, and the left-hand mean is the count of its hits
    over the sample's count.

    For a fixed p, x -> fl(x + p) is monotone on each axis, so the shifted
    per-axis extremes of a block bound every shifted sample in it.  Each
    block classifies every point p at once: one whose bounds miss the
    window on some axis adds nothing; the weights of those whose bounds lie
    inside the window on every axis are added to the block once; only the
    points in between test each sample.  A NaN extreme passes neither test
    and falls through to the per-sample test, where a straddling point adds
    its weight times the 0-1 outcome: adding 0.0 leaves a sum unchanged, and
    a NaN sample adds nothing.  Each entry of the right-hand sum is a sum of
    integer weights below 2**53, exact in any order, so the results are
    those of testing every point.  The standard deviation is
    ``np.std(diff, ddof=1)`` computed in place on the difference
    (``_std_in_place``), with the same bits.

    The box tests, one per point p and block plus one per straddling point
    and sample of the block, are counted against ``cap`` before each block
    runs them (``_enforce_budget``).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample.dim != pair.dim:
        raise DimensionMismatch("sample dimension differs from pair dimension")
    if sample.count < 2:
        raise ValueError("the paired standard error needs at least 2 samples")
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
    bn = np.linalg.matrix_power(pair.matrix.entries, n_steps)
    lhs_ind = np.empty(sample.count, dtype=bool)
    f = np.zeros(sample.count)
    buf = np.empty((0, pair.dim))
    tests = start = 0
    for x in _without_lone_rows(sample.blocks()):
        stop = start + len(x)
        low, high = x.min(axis=0) + mu.points, x.max(axis=0) + mu.points
        inside = np.all((low >= lo) & (high <= hi), axis=1)
        straddle = ~(inside | np.any((high < lo) | (low > hi), axis=1))
        tests += len(mu) + int(np.count_nonzero(straddle)) * len(x)
        _enforce_budget("renormalization check", tests, cap)
        if len(buf) < len(x):
            buf = np.empty((len(x), pair.dim))
        y = buf[: len(x)]
        if pair.dim == 1:
            np.multiply(x, bn[0, 0], out=y)
        else:
            np.matmul(x, bn.T, out=y)
        lhs_ind[start:stop] = _in_box(y, lo, hi)
        fx = f[start:stop]
        if inside.any():
            fx += mu.weights[inside].sum()
        for p, w in zip(mu.points[straddle], mu.weights[straddle]):
            np.add(x, p, out=y)
            fx += _in_box(y, lo, hi) * w
        start = stop
    f /= float(pair.m**n_steps)
    lhs, rhs = np.count_nonzero(lhs_ind) / sample.count, float(f.mean())
    diff = np.subtract(lhs_ind, f, out=f)
    stderr = float(_std_in_place(diff) / np.sqrt(sample.count))
    return RenormCheck(lhs=lhs, rhs=rhs, stderr=stderr)
