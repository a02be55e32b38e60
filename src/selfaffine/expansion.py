"""Finite digit expansions and their collision structure.

Level-k expansions are all sums  l_0 + B l_1 + ... + B^(k-1) l_(k-1)  with
digits l_j.  The level-k measure places one unit of mass per digit string,
so a point's weight is its number of representations.  Everything here is
exact enumeration; the mass cap keeps it at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotACollision
from .pairs import SelfAffinePair
from .pointset import _MERGE_SCALE_ERROR, WeightedPointSet, _canonicalize

#: Default cap on total mass m**k of an enumeration.
DEFAULT_CAP = 2**24


@dataclass(frozen=True)
class ExpansionReport:
    level: int
    distinct_count: int
    has_collision: bool
    max_multiplicity: int
    min_separation: float


@dataclass(frozen=True)
class CollisionWitness:
    """An amplified collision: point with certified multiplicity >= 2**copies."""

    point: np.ndarray
    level: int
    copies: int
    bound: int
    verified: bool
    observed_multiplicity: int | None


def _check_budget(m: int, k: int, cap: int) -> None:
    if m**k > cap:
        raise BudgetExceeded(f"mass {m}**{k} exceeds cap {cap}")


def expand_level(pair: SelfAffinePair, k: int, cap: int = DEFAULT_CAP) -> WeightedPointSet:
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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of matching rows, summed axis by axis."""
    diff = a - b
    out = diff[:, 0] * diff[:, 0]
    for axis in range(1, diff.shape[1]):
        out = out + diff[:, axis] * diff[:, axis]
    return out


# Candidate pairs compared per batch, bounding memory on crowded cells.
_PAIR_BATCH = 1 << 20


def _min_over_pairs(pts, starts, a, b, counts):
    """Smallest squared distance between distinct points of cells a[i] and b[i]."""
    sizes = counts[a] * counts[b]
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    best = np.inf
    for lo in range(0, total, _PAIR_BATCH):
        k = np.arange(lo, min(lo + _PAIR_BATCH, total))
        r = np.searchsorted(ends, k, side="right")
        offset = k - (ends[r] - sizes[r])
        i = starts[a[r]] + offset // counts[b[r]]
        j = starts[b[r]] + offset % counts[b[r]]
        i, j = i[i != j], j[i != j]
        if len(i):
            best = min(best, float(_sq_dist(pts[i], pts[j]).min()))
    return best


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row in ``table`` (distinct rows in lexicographic order), -1 if absent.

    Entries must lie in [0, 2**34).  Rows are located one axis at a time:
    an axis's entry is searched among the table rows sharing the prefix
    found so far, keyed as prefix rank * 2**34 + entry.
    """
    rank_t = np.zeros(len(table), dtype=np.int64)
    rank_r = np.zeros(len(rows), dtype=np.int64)
    found = np.ones(len(rows), dtype=bool)
    for axis in range(table.shape[1]):
        key_t = (rank_t << 34) + table[:, axis]
        key_r = (rank_r << 34) + rows[:, axis]
        new = np.concatenate([[True], key_t[1:] != key_t[:-1]])
        uniq = key_t[new]
        rank_r = np.minimum(np.searchsorted(uniq, key_r), len(uniq) - 1)
        found &= uniq[rank_r] == key_r
        rank_t = np.cumsum(new) - 1
    return np.where(found, rank_r, -1)


def _min_separation(pts: WeightedPointSet) -> float:
    """Smallest Euclidean distance between two distinct points, exactly.

    Neighbours in each per-axis sort order give an upper bound delta on the
    minimum (in one dimension, the minimum itself).  Any closer pair lies in
    the same or in adjacent cells of a grid of side delta, so each cell is
    compared with itself and with half of its 3**dim - 1 neighbours.  A cell
    side is never below 2**-32 of its axis's span: cell indices then stay
    small enough that rounding cannot split a pair closer than delta across
    non-adjacent cells.  Sets spanning more than 2**32 times delta pay for
    that with crowded cells.
    """
    p = pts.points
    n, dim = p.shape
    if n < 2:
        return float("inf")
    best = np.inf
    for axis in range(dim):
        # canonical order is already sorted along the first axis
        q = p if axis == 0 else p[np.argsort(p[:, axis], kind="stable")]
        best = min(best, float(_sq_dist(q[1:], q[:-1]).min()))
    if dim == 1:
        return float(np.sqrt(best))

    lo = p.min(axis=0)
    # the 2**-16 margin over delta absorbs rounding in the cell indices
    side = np.maximum(np.sqrt(best) * (1 + 2.0**-16), (p.max(axis=0) - lo) * 2.0**-32)
    # shifted by one so that neighbouring cells have nonnegative indices too
    cells = np.floor((p - lo) / side).astype(np.int64) + 1
    order = np.lexsort(cells.T[::-1])
    p, cells = p[order], cells[order]
    first = np.concatenate([[True], np.any(cells[1:] != cells[:-1], axis=1)])
    starts = np.nonzero(first)[0]
    counts = np.diff(np.append(starts, n))
    occupied = cells[starts]

    for shift in itertools.product((-1, 0, 1), repeat=dim):
        if shift >= (0,) * dim:  # the mirror offset would visit the same cell pairs
            b = _row_index(occupied, occupied + np.array(shift))
            a = np.nonzero(b >= 0)[0]
            best = min(best, _min_over_pairs(p, starts, a, b[a], counts))
    return float(np.sqrt(best))


def analyze_expansion(pts: WeightedPointSet, m: int, k: int) -> ExpansionReport:
    """Summarize a level-k expansion: distinct count, collisions, min gap.

    ``min_separation`` is the smallest pairwise Euclidean distance between
    distinct points (infinite for a single point).
    """
    max_mult = int(pts.weights.max())
    return ExpansionReport(
        level=k,
        distinct_count=len(pts),
        has_collision=max_mult >= 2,
        max_multiplicity=max_mult,
        min_separation=_min_separation(pts),
    )


def collision_witness(
    pair: SelfAffinePair,
    point,
    k: int,
    copies: int,
    cap: int = DEFAULT_CAP,
) -> CollisionWitness:
    """Amplify a level-k collision into a point of multiplicity >= 2**copies.

    ``point`` must have multiplicity at least 2 in the level-k expansion.
    The witness is  sum_{j<copies} B^(k j) a ; concatenating either
    representation of ``point`` in each of the ``copies`` blocks yields
    2**copies distinct digit strings for it.  When the level copies*k
    enumeration fits the cap the bound is verified by direct lookup;
    otherwise the witness is returned unverified.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    a = np.atleast_1d(np.asarray(point, dtype=float))
    mu_k = expand_level(pair, k, cap)
    if mu_k.weight_at(a) < 2:
        raise NotACollision(f"point {a} has multiplicity < 2 at level {k}")

    b = pair.matrix.entries
    block = np.linalg.matrix_power(b, k)
    z = np.zeros(pair.dim)
    power = np.eye(pair.dim)
    for _ in range(copies):
        z = z + power @ a
        power = power @ block
    bound = 2**copies

    level = copies * k
    try:
        observed = expand_level(pair, level, cap).weight_at(z)
    except BudgetExceeded:
        observed = None
    return CollisionWitness(
        point=z,
        level=level,
        copies=copies,
        bound=bound,
        verified=observed is not None and observed >= bound,
        observed_multiplicity=observed,
    )
