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

from .errors import InvalidCoefficient
from .expansion import DEFAULT_CAP, expand_level
from .pairs import SelfAffinePair, validate_pair
from .pointset import prefix_weights, weight_in_interval

_COUNT_TOL = 1e-9


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
    return weight_in_interval(pts, a, b, tol=_COUNT_TOL)


def translation_dominance_check(cp: CantorPair, k: int, cap: int = DEFAULT_CAP):
    """Verify no interval holds more level-k points than its translate at zero.

    Checks mu([a, b]) <= mu([0, b - a]) for every point-bounded interval;
    every interval's count equals that of its minimal point-bounded shrink,
    so this family is exhaustive.  Returns (True, None) or (False, (a, b))
    with the first counterexample in scan order.
    """
    pts = expand_level(cp.pair(), k, cap)
    xs = pts.coords()
    pref = prefix_weights(pts)
    for i in range(len(xs)):
        lengths = xs[i:] - xs[i]
        lhs = pref[i + 1 :] - pref[i]
        hi = np.searchsorted(xs, lengths + _COUNT_TOL, side="right")
        rhs = pref[hi]
        bad = np.nonzero(lhs > rhs)[0]
        if len(bad):
            j = int(bad[0])
            return False, (float(xs[i]), float(xs[i + j]))
    return True, None


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
