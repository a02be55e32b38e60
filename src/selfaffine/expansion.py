"""Finite digit expansions and their collision structure.

Level-k expansions are all sums  l_0 + B l_1 + ... + B^(k-1) l_(k-1)  with
digits l_j.  The level-k measure places one unit of mass per digit string,
so a point's weight is its number of representations.  Everything here is
exact enumeration; the mass cap keeps it at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_CAP, BudgetExceeded, NotACollision
from .errors import _enforce_budget, _enforce_power_budget
from .pairs import SelfAffinePair, _is_integral
from .pointset import (
    _MAX_ABS_COORD,
    _MERGE_SCALE_ERROR,
    _SCAN_CELLS,
    _TABLE_SPAN,
    WeightedPointSet,
    _from_counts,
    _merged,
)


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


def _on_lattice(pair: SelfAffinePair) -> bool:
    """Whether a pair's levels may be held on the lattice (``_lattice_next``).

    It must be 1-D and integral (``pairs._is_integral``) with no digit -0.0.
    Every point of its levels is then an integer, exact while within the
    merge scale, and none is -0.0, as a sum is -0.0 only when both terms
    are, so the counts of a level on Z give its merged set bit for bit.
    """
    digits = pair.digits.vectors
    return pair.dim == 1 and _is_integral(pair) and not np.any(np.signbit(digits) & (digits == 0))


class _Lattice(NamedTuple):
    """A level on the lattice: its weight at lo + i is counts[i], where nonzero.

    lo is its first point, so counts starts and ends with a nonzero count.
    """

    lo: int
    counts: np.ndarray


def _lattice_next(level, shifts: np.ndarray, k: int) -> _Lattice | None:
    """Level k + 1 of a pair on the lattice, or None off its span rule.

    ``level`` is level k, a set or on the lattice, and ``shifts`` its
    translates B^k d, one per digit.  Level k + 1 is held on the lattice
    when it lies within the merge scale on a span of at most
    ``_TABLE_SPAN`` times its m n candidate rows.  A set is then scattered
    onto the lattice, and level k's counts are added at each of the m
    shifts, with no candidate row built, in int32 while the level's mass
    m**(k+1) stays below 2**31 and in int64 beyond.
    """
    if isinstance(level, WeightedPointSet):
        xs = level.points[:, 0]
        first, last, rows = xs[0], xs[-1], len(level)
    else:
        first, last = level.lo, level.lo + len(level.counts) - 1
        rows = np.count_nonzero(level.counts)
    m = len(shifts)
    lo, hi = first + shifts.min(), last + shifts.max()
    if max(-lo, hi) >= _MAX_ABS_COORD or hi - lo + 1 > _TABLE_SPAN * m * rows:
        return None
    dtype = np.int32 if m ** (k + 1) < 2**31 else np.int64
    if isinstance(level, WeightedPointSet):
        counts = np.zeros(int(last - first) + 1, dtype=dtype)
        counts[(xs - first).astype(np.intp)] = level.weights
    else:
        counts = level.counts
    out = np.zeros(int(hi - lo) + 1, dtype=dtype)
    for at in (shifts[:, 0] - (lo - first)).astype(np.intp).tolist():
        out[at : at + len(counts)] += counts
    return _Lattice(int(lo), out)


def _as_set(level) -> WeightedPointSet:
    """A level held as a set or on the lattice, as a set."""
    return level if isinstance(level, WeightedPointSet) else _from_counts(*level)


def _steps(pair: SelfAffinePair, level, k: int, cap: int):
    """Levels k + 1, k + 2, ... of a pair from its level k, each a set or on the lattice.

    Level j + 1 is level j translated by B^j d for every digit d, merging
    coincident sums so weights count representations; total mass is
    exactly m**(j+1).  Its budget is checked first.  B^j is the product of
    j left multiplications by B, the same sequence at every level; a
    product or sum past the float range is the merge scale error, as it
    lies far past the merge scale.  Integral 1-D levels go on the lattice
    where its span rule admits them (``_lattice_next``).  Otherwise the
    candidates go digit by digit: in 1-D, x -> fl(x + c) is monotone, so
    they are m sorted runs, which the merge (``pointset._merged``) takes in
    about one pass.
    """
    m, b = pair.m, pair.matrix.entries
    lattice = _on_lattice(pair)
    power, products = np.eye(pair.dim), k
    while True:
        _enforce_power_budget("expansion", m, k + 1, cap)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(products):
                    power = b @ power
                shifts = pair.digits.vectors @ power.T
                nxt = _lattice_next(level, shifts, k) if lattice else None
                if nxt is None:
                    pts = _as_set(level)
                    new_pts = (shifts[:, None, :] + pts.points[None]).reshape(-1, pair.dim)
                    nxt = _merged(new_pts, np.tile(pts.weights, m))
        except FloatingPointError:
            raise ValueError(_MERGE_SCALE_ERROR) from None
        level = nxt
        yield level
        k, products = k + 1, 1


def _levels(pair: SelfAffinePair, k: int, cap: int):
    """Levels 1, ..., k, each a set or on the lattice, each budget checked as it is reached.

    Level 1 is the digit set: on the lattice, level 0, the origin, placed
    at every digit; otherwise the merged digits themselves, whose zero
    keeps its sign.
    """
    _enforce_power_budget("expansion", pair.m, 1, cap)
    digits = pair.digits.vectors
    origin = _Lattice(0, np.ones(1, dtype=np.int32))
    level = _lattice_next(origin, digits, 0) if _on_lattice(pair) else None
    if level is None:
        level = _merged(digits, np.ones(pair.m, dtype=np.int64))
    yield level
    yield from itertools.islice(_steps(pair, level, 1, cap), k - 1)


def expand_levels(pair: SelfAffinePair, k: int, cap: int = DEFAULT_CAP):
    """Yield the level-j expansion measure of a pair for j = 1, ..., k.

    Level 1 is the digit set; each later level is built from the one
    before (``_steps``), a lattice level from its counts.  The budget is
    checked as each level is reached: BudgetExceeded names the first level
    whose mass exceeds ``cap``, after every level below it was yielded.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    for level in _levels(pair, k, cap):
        yield _as_set(level)


def _next_level(pair: SelfAffinePair, pts: WeightedPointSet, k: int, cap: int) -> WeightedPointSet:
    """The level-(k+1) expansion measure from the level-k one (``_steps``)."""
    return _as_set(next(_steps(pair, pts, k, cap)))


def expand_level(pair: SelfAffinePair, k: int, cap: int = DEFAULT_CAP) -> WeightedPointSet:
    """Enumerate the level-k expansion measure of a pair: the last level of ``expand_levels``.

    The budget of level k is checked before any level is built.  Levels
    below k on the lattice stay counts, never sets.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    _enforce_power_budget("expansion", pair.m, k, cap)
    for level in _levels(pair, k, cap):
        pass
    return _as_set(level)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of matching rows, summed axis by axis."""
    diff = a - b
    out = diff[:, 0] * diff[:, 0]
    for axis in range(1, diff.shape[1]):
        out = out + diff[:, axis] * diff[:, axis]
    return out


def _min_over_pairs(pts, starts, a, b, counts):
    """Smallest squared distance between distinct points of cells a[i] and b[i]."""
    sizes = counts[a] * counts[b]
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    best = np.inf
    for lo in range(0, total, _SCAN_CELLS):
        k = np.arange(lo, min(lo + _SCAN_CELLS, total))
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


def _min_separation(pts: WeightedPointSet, cap: int = DEFAULT_CAP) -> float:
    """Smallest Euclidean distance between two distinct points, exactly.

    Neighbours in each per-axis sort order give an upper bound delta on the
    minimum (in one dimension, the minimum itself).  When every coordinate
    is an integer and delta is 1, delta is the minimum too, since distinct
    integer points are at least 1 apart; no grid pass is needed.  Otherwise
    any closer pair lies in the same or in adjacent cells of a grid of side
    delta, so each cell is compared with itself and with half of its
    3**dim - 1 neighbours.  A cell side is never below 2**-32 of its axis's
    span: cell indices then stay small enough that rounding cannot split a
    pair closer than delta across non-adjacent cells.  Sets spanning more
    than 2**32 times delta pay for that with crowded cells, so the grid
    pass counts its cell pairs, the summed products of the compared cells'
    sizes, before it measures any of them, against ``_enforce_budget``.
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
    if best == 1.0 and np.array_equal(np.floor(p), p):
        # distinct integer points are at least 1 apart: the bound is the minimum
        return 1.0

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

    neighbours = []
    for shift in itertools.product((-1, 0, 1), repeat=dim):
        if shift >= (0,) * dim:  # the mirror offset would visit the same cell pairs
            b = _row_index(occupied, occupied + np.array(shift))
            a = np.nonzero(b >= 0)[0]
            neighbours.append((a, b[a]))
    total = sum(int((counts[a] * counts[b]).sum()) for a, b in neighbours)
    _enforce_budget("min separation", total, cap)
    for a, b in neighbours:
        best = min(best, _min_over_pairs(p, starts, a, b, counts))
    return float(np.sqrt(best))


def analyze_expansion(
    pts: WeightedPointSet, m: int, k: int, cap: int = DEFAULT_CAP
) -> ExpansionReport:
    """Summarize a level-k expansion: distinct count, collisions, min gap.

    ``min_separation`` is the smallest pairwise Euclidean distance between
    distinct points (infinite for a single point); ``cap`` bounds its cell
    pairs (``_min_separation``).
    """
    max_mult = int(pts.weights.max())
    return ExpansionReport(
        level=k,
        distinct_count=len(pts),
        has_collision=max_mult >= 2,
        max_multiplicity=max_mult,
        min_separation=_min_separation(pts, cap),
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
    enumeration fits the cap and the merge scale the bound is verified by
    direct lookup; otherwise the witness is returned unverified.
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
    except ValueError as err:  # a level past the merge scale is left unverified too
        if str(err) != _MERGE_SCALE_ERROR:
            raise
        observed = None
    return CollisionWitness(
        point=z,
        level=level,
        copies=copies,
        bound=bound,
        verified=observed is not None and observed >= bound,
        observed_multiplicity=observed,
    )
