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
    WeightedPointSet,
    _canonicalize,
    prefix_weights,
    weight_in_interval,
)

#: Relative tolerance admitting intervals whose diameter sits at a threshold.
THRESHOLD_TOL = 1e-12


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
) -> SDensityEstimate:
    """Exact sup of mass / diameter^s over point-bounded intervals, per threshold.

    For each threshold r only intervals of diameter >= r compete, so the sup
    is nonincreasing in r.  Thresholds with no admissible interval (for
    instance r beyond the support extent) produce no entry; a threshold that
    is not positive raises ``ValueError``.

    One pass over the left endpoints (anchors) serves every threshold.  The
    anchors are taken in blocks of at most ``_SCAN_CELLS`` interval values,
    or of one anchor whose row alone is longer.  Each anchor's values are
    computed once, over the right ends admissible at the smallest threshold,
    and split into the runs of right ends that each larger threshold gives
    up, so a suffix maximum over the runs is every threshold's best for that
    anchor.  Anchor i and all later anchors are pruned for threshold r once
    (mass of the points from i on) / r^s is at most that threshold's best so
    far, since no interval starting there can exceed it; the scan ends when
    every threshold is pruned.  Ties go to the earliest anchor and then to
    the earliest right end.
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
    total = pref[-1]
    n, T = len(xs), len(rs)
    r_adm = [r * (1.0 - THRESHOLD_TOL) for r in rs]
    r_pow = np.array([r**s for r in r_adm])[:, None]
    # first admissible right end per threshold (rows) and anchor (columns)
    j0 = np.searchsorted(xs, xs + np.array(r_adm)[:, None], side="left")
    best = np.full(T, -np.inf)
    winner = np.zeros(T, dtype=np.int64)
    # anchors past n_live have no admissible right end at any threshold
    n_live = int(np.searchsorted(j0[0], n)) if T else 0
    a = 0
    while a < n_live:
        # a block is a rectangle of anchors [a, b) by right ends [c0, n)
        c0 = j0[0, a]
        width = n - c0
        b = min(n_live, a + max(1, _SCAN_CELLS // width))
        counts = pref[c0 + 1 :] - pref[a:b, None]
        values = xs[c0:] - xs[a:b, None]
        # counts / lengths**s in place; cells left of an anchor's own first
        # admissible right end are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            values **= s
            np.divide(counts, values, out=values)
        values = values.ravel()
        # run t of an anchor holds its right ends in [j0[t], j0[t + 1]) and
        # the last run ends at the row's end; each row closes with a dead run
        # over the next row's unread cells.  Runs that start at the block's
        # end are empty and stay out of reduceat, which cannot index there.
        edges = np.empty((b - a, T + 1), dtype=np.int64)
        edges[:, :T] = (j0[:, a:b] - c0).T
        edges[:, T] = width
        edges = (edges + width * np.arange(b - a)[:, None]).ravel()
        inside = int(np.searchsorted(edges, values.size))
        runs = np.full(edges.size, -np.inf)
        runs[:inside] = np.maximum.reduceat(values, edges[:inside])
        runs[:-1][edges[1:] == edges[:-1]] = -np.inf
        # threshold t admits runs t..T-1: a suffix maximum, per anchor
        runs = runs.reshape(b - a, T + 1)[:, T - 1 :: -1]
        row_best = np.maximum.accumulate(runs, axis=1)[:, ::-1].T
        # best[t] as it stood before each anchor; the bound only falls and
        # best only rises, so a threshold pruned once stays pruned
        before = np.maximum.accumulate(
            np.concatenate([best[:, None], row_best[:, :-1]], axis=1), axis=1
        )
        pruned = (total - pref[a:b]) / r_pow <= before
        done = pruned.any(axis=1)
        cut = np.where(done, pruned.argmax(axis=1), b - a)
        row_best[np.arange(b - a) >= cut[:, None]] = -np.inf
        top = row_best.max(axis=1)
        gain = top > best
        best[gain] = top[gain]
        winner[gain] = a + row_best.argmax(axis=1)[gain]
        if done.all():
            break
        a = b
    entries = []
    for t in np.flatnonzero(best > -np.inf):
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
        xs = _chaos_game_1d(binv, digits, idx)[burn_in:]
        points = xs[:, None].copy()
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
    difference.  ``window`` is an axis box given as (lo, hi) vectors (plain
    floats in dimension 1).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample.dim != pair.dim:
        raise DimensionMismatch("sample dimension differs from pair dimension")
    _check_budget(pair.m, n_steps, cap)
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
