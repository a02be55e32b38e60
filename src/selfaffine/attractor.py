"""Attractor rasterization and qualitative verdicts.

The raster estimate runs the set-valued update K -> union of B^-1(K + d)
downward from an everything-occupied bounding box.  Rasterization is
conservative (cell images are bounded by their axis box and dilated by one
cell), so occupancy always covers the true attractor and the occupied
volume decreases monotonically to a fixed point: an outer Lebesgue
estimate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .beurling import DensityEstimate, natural_schedule, trend_divergent, upper_density_profile
from .errors import (
    NoTrustedLowerEntry,
    NotATileCandidate,
    ResolutionTooSmall,
    SelfAffineError,
    UnsupportedDimension,
    UnsupportedRegime,
)
from .expansion import (
    DEFAULT_CAP,
    CollisionWitness,
    analyze_expansion,
    collision_witness,
    expand_level,
)
from .pairs import REGIME_FRACTAL, REGIME_TILE, SelfAffinePair, _inf_norm
from .pointset import _prefix_sums

MIN_RESOLUTION = 16
DEFAULT_MAX_ITERS = 256

#: Stabilization tolerance for the min-separation trend.
SEPARATION_TOL = 1e-9

VERDICT_CONSISTENT = "consistent-with-OSC"
VERDICT_FAILS = "OSC-fails"
VERDICT_UNDETERMINED = "undetermined"

LABEL_INTERIOR = "interior"
LABEL_BOUNDARY = "boundary"
LABEL_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RasterGrid:
    """Occupancy mask over a centered cube, cell (i, j) covering
    [lo + i h, lo + (i+1) h] x [lo + j h, lo + (j+1) h]."""

    dim: int
    radius: float
    resolution: int
    cells: np.ndarray

    @property
    def cell_size(self) -> float:
        return 2.0 * self.radius / self.resolution

    @property
    def cell_volume(self) -> float:
        return self.cell_size**self.dim


@dataclass(frozen=True)
class LebesgueEstimate:
    outer: float
    iterations: int
    resolution: int
    converged: bool


@dataclass(frozen=True)
class OriginReport:
    label: str
    trusted_value: float
    reference: float
    window_size: float
    level: int | None


@dataclass(frozen=True)
class OscReport:
    level: int
    collision_free: bool
    first_collision: tuple[int, float | tuple[float, ...], int] | None
    witness: CollisionWitness | None
    min_separation_by_level: tuple[tuple[int, float], ...]
    separation_stabilized: bool
    density_bounded: bool
    verdict: str


def invariant_radius(pair: SelfAffinePair) -> float:
    """Radius R with the attractor inside [-R, R]^n.

    Attractor points are sums over t >= 1 of B^-t d_t, and with the
    certified contraction power p the norms ||B^-t|| are bounded blockwise:
    sum_t ||B^-t|| <= (sum_{j<=p} ||B^-j||) / (1 - ||B^-p||).
    """
    inv = pair.matrix.inverse
    p = pair.matrix.contraction_power
    power = np.eye(pair.dim)
    norm_sum = 0.0
    for _ in range(p):
        power = power @ inv
        norm_sum += _inf_norm(power)
    gamma = pair.matrix.contraction_norm
    max_digit = float(np.max(np.abs(pair.digits.vectors)))
    if max_digit == 0.0:
        return 1.0
    return max_digit * norm_sum / (1.0 - gamma)


def raster_attractor(
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
    grids = np.meshgrid(*[centers] * dim, indexing="ij")
    images = [sum(b[a, k] * grids[k] for k in range(dim)) for a in range(dim)]
    # half-extent of a cell's image, dilated by one cell
    ext = np.abs(b) @ np.full(dim, h / 2) + h
    occ = np.ones((resolution,) * dim, dtype=bool)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        s = _prefix_sums(occ)
        new = np.zeros_like(occ)
        for d in digits:
            bounds = []
            for a in range(dim):
                c = images[a] - d[a]
                bounds.append((
                    np.clip(np.floor((c - ext[a] - lo) / h).astype(np.int64), 0, resolution),
                    np.clip(np.ceil((c + ext[a] - lo) / h).astype(np.int64), 0, resolution),
                ))
            # occupied cells in the index box, by inclusion-exclusion over its corners
            count = 0
            for corner in itertools.product((1, 0), repeat=dim):
                term = s[tuple(bounds[a][corner[a]] for a in range(dim))]
                count = count + term if sum(corner) % 2 == dim % 2 else count - term
            new |= count > 0
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


def render_raster(grid: RasterGrid, comments: tuple[str, ...] = ()) -> str:
    """Text dump of a raster: PBM (P1) in 2-D, cell CSV in 1-D.

    PBM rows run from the top of the picture, so the grid's second axis is
    emitted in decreasing order; 1 marks an occupied cell.
    """
    lines = []
    if grid.dim == 2:
        lines.append("P1")
        lines.extend(f"# {c}" for c in comments)
        lines.append(f"{grid.resolution} {grid.resolution}")
        for j in range(grid.resolution - 1, -1, -1):
            row = grid.cells[:, j]
            lines.append(" ".join("1" if v else "0" for v in row))
    else:
        lines.extend(f"# {c}" for c in comments)
        lines.append("cell_index,occupied")
        for i, v in enumerate(grid.cells):
            lines.append(f"{i},{1 if v else 0}")
    return "\n".join(lines) + "\n"


def classify_origin(
    pair: SelfAffinePair,
    upper: DensityEstimate,
    lower: DensityEstimate,
    lebesgue: float,
) -> OriginReport:
    """Decide whether the attractor covers a neighborhood of the origin.

    When it does, the support of the full expansion fills out and upper and
    lower densities agree at 1/|K|; when the origin sits on the boundary,
    trusted windows in never-reached regions stay empty.  The verdict reads
    the trusted lower entry at the largest window: within 10% of 1/|K| is
    interior, below 10% of it is boundary (evidence at this level, not a
    certificate), anything between is inconclusive.
    """
    if pair.regime != REGIME_TILE or not lebesgue > 0:
        raise NotATileCandidate(
            "origin classification needs a tile-candidate pair with positive measure"
        )
    trusted = [e for e in lower.entries if e.trusted]
    if not trusted:
        raise NoTrustedLowerEntry("no stabilized lower-density entry to classify with")
    entry = trusted[-1]
    reference = 1.0 / lebesgue
    value = entry.inf_value
    if abs(value - reference) <= 0.10 * reference:
        label = LABEL_INTERIOR
    elif value < 0.10 * reference:
        label = LABEL_BOUNDARY
    else:
        label = LABEL_INCONCLUSIVE
    return OriginReport(
        label=label,
        trusted_value=value,
        reference=reference,
        window_size=entry.size,
        level=lower.level,
    )


def osc_verdict(pair: SelfAffinePair, k: int, cap: int = DEFAULT_CAP) -> OscReport:
    """Evidence for or against the open set condition up to level k.

    A collision settles it: the verdict is OSC-fails with an amplification
    witness.  Otherwise the verdict is consistent-with-OSC when the minimum
    separation has stabilized (last three levels equal within tolerance)
    and the natural-scale density profile is bounded; undetermined when the
    evidence is mixed.
    """
    if pair.regime not in (REGIME_TILE, REGIME_FRACTAL):
        raise UnsupportedRegime(
            "separation verdicts apply to tile-candidate or fractal pairs"
        )
    if k < 1:
        raise ValueError("level must be at least 1")

    separations = []
    first_collision = None
    witness = None
    for level in range(1, k + 1):
        pts = expand_level(pair, level, cap)
        report = analyze_expansion(pts, pair.m, level)
        separations.append((level, report.min_separation))
        if report.has_collision:
            heavy = np.nonzero(pts.weights >= 2)[0][0]
            point = pts.points[heavy]
            mult = int(pts.weights[heavy])
            value = float(point[0]) if pair.dim == 1 else tuple(float(v) for v in point)
            first_collision = (level, value, mult)
            try:
                witness = collision_witness(pair, point, level, copies=2, cap=cap)
            except (SelfAffineError, ValueError):
                witness = None
            break

    if first_collision is not None:
        stabilized = bounded = False
        verdict = VERDICT_FAILS
    else:
        seps = [s for _, s in separations]
        stabilized = len(seps) >= 3 and max(seps[-3:]) - min(seps[-3:]) <= SEPARATION_TOL
        profile = upper_density_profile(pts, natural_schedule(pts), level=k)
        bounded = not trend_divergent([e.sup_value for e in profile.entries])
        if not bounded:
            verdict = VERDICT_FAILS
        elif stabilized:
            verdict = VERDICT_CONSISTENT
        else:
            verdict = VERDICT_UNDETERMINED
    return OscReport(
        level=k,
        collision_free=first_collision is None,
        first_collision=first_collision,
        witness=witness,
        min_separation_by_level=tuple(separations),
        separation_stabilized=stabilized,
        density_bounded=bounded,
        verdict=verdict,
    )
