"""Work counters, computed outside the package from traced calls.

Every count is derived from the arguments and return values the span
recorder kept, never from timing, so it must repeat exactly between passes
and between runs.  ``expansion.candidate_bytes`` is computed from array
shapes (float64 coordinates plus an int64 weight per pre-merge row), not
measured.
"""
from __future__ import annotations

import importlib
import inspect

import numpy as np

COUNTS = (
    "expansion.calls",
    "expansion.mass",
    "expansion.points",
    "expansion.candidate_bytes",
    "pointset.rows",
    "beurling.windows",
    "beurling.anchors",
    "sdensity.thresholds",
    "sdensity.scan_points",
    "sdensity.samples",
    "attractor.iterations",
    "attractor.cell_updates",
    "cantor.interval_pairs",
)


class LevelSizes:
    """Number of distinct points of each (pair, level) expansion, memoized."""

    def __init__(self):
        self._sizes: dict[tuple, int] = {}

    @staticmethod
    def _key(pair, level):
        return (pair.matrix.entries.tobytes(), pair.digits.vectors.tobytes(), level)

    def note(self, pair, level, pts) -> None:
        self._sizes[self._key(pair, level)] = len(pts)

    def __call__(self, pair, level) -> int:
        key = self._key(pair, level)
        if key not in self._sizes:
            from selfaffine.expansion import expand_level

            self._sizes[key] = len(expand_level(pair, level))
        return self._sizes[key]


# expand_level builds level j by translating level j-1 by B^(j-1) d for every
# digit d and merging the result.  The candidate counts and the
# canonicalization probe both describe that merge, through the two helpers
# below; an expansion backend that builds levels another way redefines them.


def candidate_rows(pair, level: int, sizes: LevelSizes) -> int:
    """Rows of the pre-merge multiset that the level-``level`` merge canonicalizes."""
    return pair.m * sizes(pair, level - 1)


def candidate(pair, level: int):
    """The pre-merge multiset (points, weights) of the level-``level`` merge."""
    from selfaffine.expansion import expand_level

    prev = expand_level(pair, level - 1)
    shifts = pair.digits.vectors @ np.linalg.matrix_power(pair.matrix.entries, level - 1).T
    points = (prev.points[:, None, :] + shifts[None, :, :]).reshape(-1, pair.dim)
    return points, np.repeat(prev.weights, pair.m)


def _bound(name, args, kwargs) -> dict:
    """Arguments of a call to the public function a span is named after."""
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"selfaffine.{module}"), attr)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def count_pass(calls, spans, sizes: LevelSizes):
    """Counters of one traced pass, and the largest pre-merge candidate.

    ``calls`` holds (span index, args, kwargs, result) for the recorder's
    KEEP names.  Returns (counts, largest) where ``largest`` is the
    (pair, level, result) of the expansion whose last merge had the most
    candidate rows.
    """
    c = dict.fromkeys(COUNTS, 0)
    lower_entries = trusted = 0
    largest = None
    for idx, args, kwargs, result in calls:
        name = spans[idx][0]
        a = _bound(name, args, kwargs)
        if name == "expansion.expand_level":
            pair, k = a["pair"], a["k"]
            sizes.note(pair, k, result)
            c["expansion.calls"] += 1
            c["expansion.mass"] += pair.m**k
            c["expansion.points"] += len(result)
            rows = [candidate_rows(pair, j, sizes) for j in range(2, k + 1)]
            c["expansion.candidate_bytes"] += sum(rows) * (pair.dim + 1) * 8
            if rows and rows[-1] > c["pointset.rows"]:
                c["pointset.rows"] = rows[-1]
                largest = (pair, k, result)
        elif name == "beurling.upper_density_profile":
            pts = a["pts"]
            anchors = len(pts) if pts.dim == 1 else len(np.unique(pts.points[:, 0]))
            c["beurling.windows"] += len(result.entries)
            c["beurling.anchors"] += anchors * len(result.entries)
        elif name == "beurling.lower_density_profile":
            c["beurling.windows"] += len(result.entries)
            lower_entries += len(result.entries)
            trusted += sum(bool(e.trusted) for e in result.entries)
        elif name == "sdensity.upper_s_density_profile":
            c["sdensity.thresholds"] += len(tuple(a["thresholds"]))
            c["sdensity.scan_points"] += len(a["pts"])
        elif name == "sdensity.sample_self_similar_measure":
            c["sdensity.samples"] += a["count"]
        elif name == "attractor.raster_attractor":
            grid, estimate = result
            c["attractor.iterations"] += estimate.iterations
            c["attractor.cell_updates"] += (
                grid.resolution**grid.dim * a["pair"].m * estimate.iterations
            )
        elif name == "cantor.translation_dominance_check":
            n = sizes(a["cp"].pair(), a["k"])
            c["cantor.interval_pairs"] += n * (n + 1) // 2
    c["expansion.merge_ratio"] = c["expansion.points"] / c["expansion.mass"]
    c["beurling.trusted_ratio"] = trusted / lower_entries if lower_entries else 0.0
    return c, largest
