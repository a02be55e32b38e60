"""Attractor rasterization and qualitative verdicts.

The raster estimate runs the set-valued update K -> union of B^-1(K + d)
downward from an everything-occupied bounding box.  Rasterization is
conservative (cell images are bounded by their axis box and dilated by one
cell), so occupancy always covers the true attractor and the occupied
volume decreases monotonically to a fixed point: an outer Lebesgue
estimate.  The first pass starts from every cell occupied, so it is decided
from the extents of each cell's index boxes alone.  Since cells only ever
leave the cover, each later pass re-tests just the cells still in it, and
sums its prefix table over their bounding box only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .beurling import (
    DensityEstimate,
    WindowSchedule,
    _require_dim,
    natural_schedule,
    trend_divergent,
    trend_sizes,
    upper_density_profile,
)
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
    expand_levels,
)
from .pairs import REGIME_FRACTAL, REGIME_TILE, SelfAffinePair, _inf_norm

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


def _fill_prefix_table(s: np.ndarray, occ: np.ndarray, live: np.ndarray) -> None:
    """Make ``s`` the prefix table of ``occ`` (as ``pointset._prefix_sums``), summed over a box.

    ``live`` holds the occupied cells' flat indices, in increasing order.
    The table is summed over their bounding box; before the box along an
    axis its entries are 0, and after it they repeat the box's last slice,
    as no cell outside the box adds to them.  So every entry is the one a
    sum over the whole grid gives.
    """
    if not len(live):
        return  # no cell is left to read the table
    n = occ.shape[0]
    first = n ** (occ.ndim - 1)
    box = [(int(live[0]) // first, int(live[-1]) // first + 1)]
    if occ.ndim == 2:
        column = live % n
        box.append((int(column.min()), int(column.max()) + 1))
    inner = s[tuple(slice(a + 1, b + 1) for a, b in box)]
    inner[...] = occ[tuple(slice(a, b) for a, b in box)]
    for axis in range(occ.ndim):
        np.cumsum(inner, axis=axis, dtype=s.dtype, out=inner)
    for axis, (a, _) in enumerate(box):
        s[(slice(None),) * axis + (slice(None, a + 1),)] = 0
    # the later axes first, so that each copied slice is already complete beyond the box
    for axis in reversed(range(occ.ndim)):
        head = tuple(slice(a + 1, b + 1) for a, b in box[:axis])
        tail = tuple(slice(a + 1, None) for a, _ in box[axis + 1 :])
        b = box[axis][1]
        s[head + (slice(b + 1, None),) + tail] = s[head + (slice(b, b + 1),) + tail]


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

    The first pass needs no table: with every cell occupied, a cell's count
    in a digit's index box is the product of the box's extents, so the cell
    survives when some digit's box has a positive extent on every axis.  A
    dead cell stays dead, so later passes test only the live cells: their
    flat indices and each digit's box corners are kept compressed to them,
    and the cells that fail are dropped from every array.  Each later pass
    sums the prefix table over the bounding box of the occupied cells only
    (``_fill_prefix_table``).  The iteration has converged when a pass
    drops no cell.
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
    shape = (resolution,) * dim
    images = [
        sum(b[a, k] * centers.reshape((-1,) + (1,) * (dim - 1 - k)) for k in range(dim))
        for a in range(dim)
    ]
    # half-extent of a cell's image, dilated by one cell
    ext = np.abs(b) @ np.full(dim, h / 2) + h
    # Each digit's index box around every cell image: per axis, its low and
    # high edges times the axis's stride in the raveled prefix table.  The
    # edges are clipped to the grid while still floats, so they fit the
    # index type, and the corners' flat sums stay below (resolution + 1)**dim.
    index_type = np.int32 if (resolution + 1) ** dim < 2**31 else np.int64
    buf = np.empty(shape)
    boxes = []
    for d in digits:
        edges = []
        for a in range(dim):
            for shift, rounding in ((-ext[a], np.floor), (ext[a], np.ceil)):
                np.subtract(images[a], d[a], out=buf)
                buf += shift
                buf -= lo
                buf /= h
                rounding(buf, out=buf)
                np.clip(buf, 0, resolution, out=buf)
                buf *= (resolution + 1) ** (dim - 1 - a)
                edges.append(buf.astype(index_type).reshape(-1))
        boxes.append(edges)
    del images, buf
    # pass 1: every cell is occupied, so a box holds cells when no extent is 0
    keep = np.zeros(resolution**dim, dtype=bool)
    for edges in boxes:
        filled = edges[1] > edges[0]
        for a in range(1, dim):
            filled &= edges[2 * a + 1] > edges[2 * a]
        keep |= filled
    occ = keep.reshape(shape)
    live = np.flatnonzero(keep).astype(index_type)
    converged = bool(keep.all())
    iterations = 1
    # the (+) and (-) corners of the inclusion-exclusion, in one order
    corners = list(itertools.product((1, 0), repeat=dim))
    adds = [(dim - sum(c)) % 2 == 0 for c in corners]
    for i, edges in enumerate(boxes):
        # the survivors' corners as flat indices into the raveled prefix table
        ends = [edges[k][keep] for k in range(2 * dim)]
        boxes[i] = [sum(ends[2 * a + c[a]] for a in range(dim)) for c in corners]
    del edges, ends, filled, keep
    s = np.zeros((resolution + 1,) * dim, dtype=index_type)
    flat = s.reshape(-1)
    while not converged and iterations < max_iters:
        iterations += 1
        _fill_prefix_table(s, occ, live)
        keep = np.zeros(len(live), dtype=bool)
        for box_corners in boxes:
            # occupied cells in the index box, by inclusion-exclusion over its
            # corners; in this order each partial sum lies within
            # +-resolution**dim, so it cannot overflow the table's type
            count = flat[box_corners[0]]
            for add, c in zip(adds[1:], box_corners[1:]):
                (np.add if add else np.subtract)(count, flat[c], out=count)
            keep |= count > 0
        if keep.all():
            converged = True
            break
        occ.reshape(-1)[live[~keep]] = False
        live = live[keep]
        for box_corners in boxes:
            # one array at a time, so that no more than one extra copy is alive
            for i, c in enumerate(box_corners):
                box_corners[i] = c[keep]

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
        # one byte buffer: each cell's digit, then a space, or a newline at a row's end
        body = np.full((grid.resolution, 2 * grid.resolution), ord(" "), dtype=np.uint8)
        body[:, 0::2] = grid.cells.T[::-1] + ord("0")
        body[:, -1] = ord("\n")
        return "\n".join(lines) + "\n" + body.tobytes().decode("ascii")
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
    evidence is mixed.  The profile is scanned at the natural sizes that
    ``trend_divergent`` reads (``trend_sizes``): the first and the last
    three.

    Levels 1..k come from one ``expand_levels`` stream, each built once
    from the one before.  Separations are exact; on integer points with two
    of them 1 apart the minimum is certified as 1 without a grid pass
    (``_min_separation``); ``cap`` bounds the mass of each level and the
    cell pairs of each grid pass.  In dimension 3 and up, where the density
    profile is refused, the levels are first scanned for a collision alone,
    so a collision-free pair fails before any separation is measured.
    """
    if pair.regime not in (REGIME_TILE, REGIME_FRACTAL):
        raise UnsupportedRegime(
            "separation verdicts apply to tile-candidate or fractal pairs"
        )
    if k < 1:
        raise ValueError("level must be at least 1")

    if pair.dim not in (1, 2):
        # A collision-free pair goes on to the density profile, which refuses
        # this dimension: refuse it before any separation is measured.
        for pts in expand_levels(pair, k, cap):
            if pts.weights.max() >= 2:
                break
        else:
            _require_dim(pts, "upper_density_profile")

    separations = []
    first_collision = None
    witness = None
    for level, pts in enumerate(expand_levels(pair, k, cap), start=1):
        report = analyze_expansion(pts, pair.m, level, cap)
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
        sizes = trend_sizes(natural_schedule(pts).sizes)
        profile = upper_density_profile(pts, WindowSchedule(sizes), level=k, cap=cap)
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
