"""Closed-form counting and measure formulas for the Cantor family.

These are the one-dimensional pairs (N, {0, d}) with N >= 3 and d > 0,
whose attractor K satisfies N K = K union (K + d).  The expansion points
are sums  sum_j N^j r_j  with r_j in {0, d}; counting them below a given
point has an exact digit formula, and the s-density sequence along the
extremal intervals has a closed form whose limit gives the Hausdorff
measure, with s = log 2 / log N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_CAP, InvalidCoefficient
from .expansion import expand_level
from .pairs import SelfAffinePair, validate_pair
from .pointset import (
    MERGE_TOL,
    _leaf_cells,
    _rank_table,
    _search,
    _tile_search,
    prefix_weights,
    weight_in_interval,
)


@dataclass(frozen=True)
class CantorPair:
    """Scaling factor N >= 3 and translation d > 0."""

    N: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.N) and math.isfinite(self.d)):
            raise ValueError("scaling factor and translation must be finite")
        if not self.N >= 3:
            raise ValueError("scaling factor must be at least 3")
        if not self.d > 0:
            raise ValueError("translation must be positive")

    @property
    def s(self) -> float:
        """Similarity dimension log 2 / log N."""
        return math.log(2.0) / math.log(self.N)

    def pair(self) -> SelfAffinePair:
        return validate_pair([[self.N]], [[0.0], [self.d]])


def count_upto(cp: CantorPair, coeffs) -> int:
    """Expansion points in [0, b] for b = sum_j N^j r_j, each r_j in {0, d}.

    The exact count is  sum_j 2^j (r_j / d) + 1 : each digit position where
    r_j = d contributes a full block of 2^j smaller expansions, plus one for
    b itself.
    """
    total = 1
    for j, r in enumerate(coeffs):
        if r == 0.0:
            continue
        if r == cp.d:
            total += 2**j
        else:
            raise InvalidCoefficient(
                f"coefficient {r} at position {j} is neither 0 nor {cp.d}"
            )
    return total


def interval_count(
    cp: CantorPair, k: int, a: float, b: float, cap: int = DEFAULT_CAP
) -> int:
    """Level-k expansion points in the closed interval [a, b], by enumeration."""
    if b < a:
        raise ValueError("interval endpoints must satisfy a <= b")
    pts = expand_level(cp.pair(), k, cap)
    return weight_in_interval(pts, a, b)


def translation_dominance_check(cp: CantorPair, k: int, cap: int = DEFAULT_CAP):
    """Verify no interval holds more level-k points than its translate at zero.

    Checks mu([a, b]) <= mu([0, b - a]) for every point-bounded interval;
    every interval's count equals that of its minimal point-bounded shrink,
    so this family is exhaustive.  Returns (True, None) or (False, (a, b))
    with the first counterexample in scan order (``_dominance_scan``).
    ``cap`` bounds the expansion's mass m**k and the scan's rank table and
    work (``_dominance_scan``).
    """
    pts = expand_level(cp.pair(), k, cap)
    return _dominance_scan(pts.coords(), prefix_weights(pts), cap)


def _dominance_scan(xs: np.ndarray, pref: np.ndarray, cap: int = DEFAULT_CAP):
    """First interval [xs[i], xs[j]] whose count exceeds that of [0, xs[j] - xs[i]].

    Scan order is by anchor i, then by right end j >= i, and the cells go
    through a tile search (``_tile_search``).  A tile of anchors [a0, a1)
    by right ends [b0, b1) holds at most pref[b1] - pref[a0] points in any
    cell, and every cell's translate holds at least as many as that of its
    shortest length xs[b0] - xs[a1 - 1], since the count grows with the
    length; a tile whose bound is within that is proven.  Tiles that come
    after the least failing cell found so far are dropped too.  A leaf cell
    left of its anchor (j < i) counts pref[j + 1] - pref[i] <= 0 points and
    never fails.  Translate
    counts come from ``_search`` over the lengths + ``MERGE_TOL`` that a
    per-anchor binary search would use; integer coordinates read them off
    a rank table, which may span up to the n(n + 1)/2 lookups of a full
    scan but not beyond ``cap``, and every other set searches.  Both give
    the binary search's counts exactly, so the verdict and the witness are
    those of scanning anchor by anchor.  ``cap`` budgets the search's tile
    bounds and leaf cells (``_enforce_budget``).
    """
    n = len(xs)
    table = _rank_table(xs, min(n * (n + 1) // 2, cap))
    least = n * n  # the least failing cell so far, as i * n + j

    def translate(lengths):
        lengths += MERGE_TOL
        return pref[_search(xs, table, lengths, "right")]

    def drop(a0, a1, b0, b1):
        later = a0 * n + b0 > least
        return later | (pref[b1] - pref[a0] <= translate(xs[b0] - xs[a1 - 1]))

    def leaves(a0, a1, b0, b1):
        nonlocal least
        i, j = _leaf_cells(a0, a1, b0, b1)
        bad = pref[j + 1] - pref[i] > translate(xs[j] - xs[i])
        if bad.any():
            least = min(least, int((i * n + j)[bad].min()))

    _tile_search(n, drop, leaves, cap, "dominance scan")
    if least == n * n:
        return True, None
    i, j = divmod(least, n)
    return False, (float(xs[i]), float(xs[j]))


def cantor_sdensity_sequence(cp: CantorPair, m_max: int):
    """The extremal s-density sequence v_m and its limit ((N-1)/d)^s.

    v_m is the s-density of the interval from 0 to the largest level-m
    point, which carries 2^m expansion points over diameter
    d (N^m - 1)/(N - 1).  The sequence decreases to the limit.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    s = cp.s
    values = []
    for m in range(1, m_max + 1):
        try:
            power = cp.N**m
        except OverflowError:
            raise ValueError(f"N**{m} overflows a float; lower m_max") from None
        diam = (power - 1.0) / (cp.N - 1.0) * cp.d
        values.append((m, 2.0**m / diam**s))
    limit = ((cp.N - 1.0) / cp.d) ** s
    return values, limit


def cantor_hausdorff(cp: CantorPair) -> float:
    """Exact s-dimensional Hausdorff measure of the attractor: ((N-1)/d)^-s."""
    return ((cp.N - 1.0) / cp.d) ** (-cp.s)
