"""Window-density scans against exhaustive point-anchored oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import _candidate_centers, rank_table_by_counting
from strategies import small_pairs

from selfaffine import (
    BudgetExceeded,
    DensityEstimate,
    EmptyPointSet,
    MeasureResult,
    SingularMatrix,
    UnsupportedDimension,
    WeightedPointSet,
    WindowEntry,
    WindowSchedule,
    expand_level,
    lebesgue_from_density,
    lower_density_profile,
    natural_schedule,
    rescale_points,
    trend_divergent,
    upper_density_profile,
    validate_pair,
)
from selfaffine import beurling, pointset
from selfaffine.beurling import BOUNDARY_TOL
from selfaffine.pointset import _prefix_sums

TOL = 1e-12  # closed-window boundary tolerance, relative to window size


def brute_sup_1d(pts, size):
    """Best weighted count over windows with the left edge at a point."""
    xs = pts.points[:, 0]
    inside = (xs[None, :] >= xs[:, None]) & (xs[None, :] <= xs[:, None] + size + TOL * size)
    return int((inside * pts.weights[None, :]).sum(axis=1).max())


def brute_sup_2d(pts, size):
    """Best count over windows anchored at every (x_i, y_j) corner pair."""
    xs = pts.points[:, 0]
    ys = pts.points[:, 1]
    pad = TOL * size
    best = 0
    for x in np.unique(xs):
        in_x = (xs >= x) & (xs <= x + size + pad)
        counts = (
            (ys[None, :] >= ys[:, None])
            & (ys[None, :] <= ys[:, None] + size + pad)
            & in_x[None, :]
        ) * pts.weights[None, :]
        best = max(best, int(counts.sum(axis=1).max()))
    return best


def test_example_integers_window_4():
    pts = WeightedPointSet(np.arange(8.0))
    prof = upper_density_profile(pts, WindowSchedule((4.0,)))
    assert prof.entries[0].sup_count == 5
    assert prof.entries[0].sup_value == pytest.approx(5 / 4)


def test_single_point_any_window():
    pts = WeightedPointSet([0.0])
    prof = upper_density_profile(pts, WindowSchedule((1.0, 8.0)))
    assert [e.sup_value for e in prof.entries] == [1.0, pytest.approx(1 / 8)]


def test_doubling_level_16_window_4096(doubling_pair):
    pts = expand_level(doubling_pair, 16)
    prof = upper_density_profile(pts, WindowSchedule((4096.0,)))
    assert prof.entries[0].sup_count == 4097
    assert prof.entries[0].sup_value == pytest.approx(4097 / 4096)


def test_upper_matches_brute_force_1d():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = rng.integers(1, 200)
        pts = WeightedPointSet(
            rng.uniform(-50, 50, size=n), rng.integers(1, 4, size=n)
        )
        for size in (1.0, 5.0, 20.0):
            prof = upper_density_profile(pts, WindowSchedule((size,)))
            assert prof.entries[0].sup_count == brute_sup_1d(pts, size)


def test_upper_matches_brute_force_2d():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = rng.integers(1, 200)
        pts = WeightedPointSet(
            rng.uniform(-20, 20, size=(n, 2)), rng.integers(1, 4, size=n)
        )
        for size in (2.0, 10.0):
            prof = upper_density_profile(pts, WindowSchedule((size,)))
            assert prof.entries[0].sup_count == brute_sup_2d(pts, size)


def test_argmax_window_recount_matches():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = rng.integers(2, 120)
        pts = WeightedPointSet(
            rng.uniform(0, 30, size=(n, 2)), rng.integers(1, 5, size=n)
        )
        prof = upper_density_profile(pts, WindowSchedule((4.0,)))
        entry = prof.entries[0]
        center = np.asarray(entry.argmax_center)
        pad = 4.0 / 2 + TOL * 4.0
        inside = np.all(np.abs(pts.points - center) <= pad, axis=1)
        assert int(pts.weights[inside].sum()) == entry.sup_count


def test_upper_translation_invariant():
    rng = np.random.default_rng(45)
    pts = WeightedPointSet(rng.uniform(0, 10, size=40))
    shifted = WeightedPointSet(pts.points + 123.456, pts.weights)
    sched = WindowSchedule((1.0, 3.0, 9.0))
    a = upper_density_profile(pts, sched)
    b = upper_density_profile(shifted, sched)
    assert [e.sup_count for e in a.entries] == [e.sup_count for e in b.entries]


def test_upper_requires_supported_dim():
    pts = WeightedPointSet(np.zeros((2, 3)) + np.arange(2)[:, None])
    with pytest.raises(UnsupportedDimension):
        upper_density_profile(pts, WindowSchedule((1.0,)))


def test_scaling_law_counts_exact():
    rng = np.random.default_rng(46)
    for _ in range(100):
        n = rng.integers(1, 200)
        pts = WeightedPointSet(
            rng.integers(-500, 500, size=n).astype(float),
            rng.integers(1, 4, size=n),
        )
        size = float(rng.integers(2, 40))
        base = upper_density_profile(pts, WindowSchedule((size,)))
        for c in (0.5, 2.0, 3.0):
            scaled = rescale_points(pts, [[c]])
            prof = upper_density_profile(scaled, WindowSchedule((c * size,)))
            assert prof.entries[0].sup_count == base.entries[0].sup_count
            assert c * prof.entries[0].sup_value == pytest.approx(
                base.entries[0].sup_value, rel=1e-12
            )


def test_rescale_identity_and_rotation():
    pts = WeightedPointSet([[0.0, 0.0], [1.0, 0.0]])
    same = rescale_points(pts, np.eye(2))
    assert same == pts
    rotated = rescale_points(pts, [[0.0, -1.0], [1.0, 0.0]])
    assert rotated.points.tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_rescale_scalar():
    pts = WeightedPointSet(np.arange(8.0))
    doubled = rescale_points(pts, [[2.0]])
    assert doubled.points.ravel().tolist() == [0, 2, 4, 6, 8, 10, 12, 14]


def test_rescale_singular_rejected():
    pts = WeightedPointSet([[0.0, 0.0]])
    with pytest.raises(SingularMatrix):
        rescale_points(pts, [[1.0, 1.0], [1.0, 1.0]])


def test_natural_schedule_geometry():
    pts = WeightedPointSet(np.arange(8.0))
    sched = natural_schedule(pts)
    assert len(sched.sizes) == 9
    assert sched.sizes[-1] == pytest.approx(3.5)  # half the extent
    ratios = np.diff(np.log2(sched.sizes))
    assert np.allclose(ratios, 1.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        WindowSchedule(())
    with pytest.raises(ValueError):
        WindowSchedule((2.0, 1.0))
    with pytest.raises(ValueError):
        WindowSchedule((-1.0, 1.0))


@pytest.mark.parametrize("sizes", [(math.nan,), (1.0, math.nan), (1.0, math.inf), (math.inf,)])
def test_schedule_refuses_non_finite_sizes(sizes):
    with pytest.raises(ValueError, match="window sizes must be finite"):
        WindowSchedule(sizes)


@pytest.mark.parametrize("start, stop, bad", [(0.0, 4.0, "start"), (-1.0, 4.0, "start"),
                                             (math.nan, 4.0, "start"), (1.0, -4.0, "stop")])
def test_geometric_schedule_refuses_bounds_that_are_not_positive(start, stop, bad):
    # the ratio would divide by zero, or be complex for a negative bound
    with pytest.raises(ValueError, match=f"{bad} must be positive"):
        WindowSchedule.geometric(start, stop, 3)


def test_lower_without_next_level_is_untrusted():
    pts = WeightedPointSet(np.arange(8.0))
    prof = lower_density_profile(pts, WindowSchedule((2.0,)))
    entry = prof.entries[0]
    assert entry.trusted is False
    # the symmetric box [-7, 7] sees the empty negative side
    assert entry.inf_count == 0


def test_lower_skips_oversized_windows():
    pts = WeightedPointSet([-1.0, 1.0])
    prof = lower_density_profile(pts, WindowSchedule((1.0, 50.0)))
    assert [e.size for e in prof.entries] == [1.0]


def test_lower_trusted_zero_for_one_sided_support(doubling_pair):
    pts = expand_level(doubling_pair, 6)
    nxt = expand_level(doubling_pair, 7)
    prof = lower_density_profile(pts, WindowSchedule((4.0,)), nxt)
    entry = prof.entries[0]
    # windows left of 0 stay empty at every level
    assert entry.trusted is True
    assert entry.inf_count == 0
    assert entry.argmin_center[0] < 0


def test_lower_trusted_near_one_for_two_sided_support(negative_doubling_pair):
    pts = expand_level(negative_doubling_pair, 12)
    nxt = expand_level(negative_doubling_pair, 13)
    prof = lower_density_profile(pts, WindowSchedule((64.0,)), nxt)
    entry = prof.entries[0]
    assert entry.trusted is True
    # consecutive integers: any length-64 window fully inside holds >= 64
    assert entry.inf_count == 64
    assert entry.inf_value == pytest.approx(1.0)


def test_lower_2d_runs_and_bounds_upper(twin_dragon_pair):
    pts = expand_level(twin_dragon_pair, 8)
    nxt = expand_level(twin_dragon_pair, 9)
    sched = WindowSchedule((2.0, 4.0))
    up = upper_density_profile(pts, sched)
    low = lower_density_profile(pts, sched, nxt)
    assert low.entries  # box is large enough for at least one size
    up_by_size = {e.size: e for e in up.entries}
    for le in low.entries:
        assert le.inf_value <= up_by_size[le.size].sup_value


def test_trend_divergent_rules():
    assert trend_divergent([1.0, 11.0, 12.0, 13.0])
    assert not trend_divergent([1.0, 2.0, 3.0])  # grows but below 10x
    assert not trend_divergent([13.0, 12.0, 11.0])
    assert not trend_divergent([1.0, 2.0])


@given(st.lists(st.floats(0, 100), max_size=12))
def test_trend_sizes_hold_what_trend_divergent_reads(values):
    sizes = tuple(float(i + 1) for i in range(len(values)))
    kept = beurling.trend_sizes(sizes)
    assert kept == (sizes if len(sizes) <= 4 else (sizes[0], *sizes[-3:]))
    read = [values[sizes.index(s)] for s in kept]
    assert trend_divergent(read) == trend_divergent(values)
    assert read[-1:] == values[-1:]


def test_lebesgue_reciprocal(doubling_pair):
    pts = expand_level(doubling_pair, 16)
    prof = upper_density_profile(pts, natural_schedule(pts), level=16)
    measure = lebesgue_from_density(prof)
    assert isinstance(measure, MeasureResult)
    assert not measure.divergent
    assert measure.value == pytest.approx(1.0, abs=2e-4)


def test_lebesgue_divergent_on_collision(collision_pair):
    pts = expand_level(collision_pair, 8)
    prof = upper_density_profile(pts, natural_schedule(pts), level=8)
    measure = lebesgue_from_density(prof)
    assert measure.divergent
    assert measure.value == 0.0


def test_empty_input_rejected():
    with pytest.raises(EmptyPointSet):
        WeightedPointSet([])


# The per-slab scans as they were before the blocked sweep, kept verbatim as
# the reference that the sweep must match exactly.


def _sorted_slab(points: np.ndarray, weights: np.ndarray, lo: int, hi: int):
    """Last coordinates of rows lo:hi in increasing order, with their prefix weights."""
    ys, ws = points[lo:hi, -1], weights[lo:hi]
    if points.shape[1] > 1:  # canonical order already sorts a 1-D set
        order = np.argsort(ys, kind="stable")
        ys, ws = ys[order], ws[order]
    return ys, _prefix_sums(ws)


def loop_sup_scan(pts, size: float):
    """Largest weight of a window with its lower corner at a point, and the window centre.

    In 2-D each distinct corner x cuts the slab of points with x in
    [x, x + size], along which the window slides in y.  The first maximum
    in scan order wins ties.
    """
    tol = BOUNDARY_TOL * size
    xs = pts.points[:, 0]
    if pts.dim == 1:
        slabs = [(0, len(pts))]
    else:
        hi_x = np.searchsorted(xs, xs + (size + tol), side="right")
        slabs = [(i, hi_x[i]) for i in range(len(xs)) if i == 0 or xs[i] != xs[i - 1]]
    best = -1
    best_center = None
    for lo, hi in slabs:
        line, pref = _sorted_slab(pts.points, pts.weights, lo, hi)
        counts = pref[np.searchsorted(line, line + (size + tol), side="right")] - pref[:-1]
        j = int(np.argmax(counts))
        if counts[j] > best:
            best = int(counts[j])
            anchor = (float(xs[lo] + size / 2),) if pts.dim == 2 else ()
            best_center = anchor + (float(line[j] + size / 2),)
    return best, best_center


def loop_inf_scan(pts, nxt, size, zlo, zhi):
    """Least window count over the candidate centres, preferring stable windows.

    The last axis is scanned along lines: the whole set in 1-D, and in 2-D
    the slab of points whose x lies in the window, for each candidate x.
    """
    sets = [pts] if nxt is None else [pts, nxt]
    centers = []
    for a in range(pts.dim):
        breaks = np.concatenate([q.points[:, a] + h for q in sets for h in (-size / 2, size / 2)])
        centers.append(_candidate_centers(breaks, zlo[a], zhi[a]))
    tol = BOUNDARY_TOL * size
    lows = [c - size / 2 - tol for c in centers]
    highs = [c + size / 2 + tol for c in centers]

    def line_counts(q, i):
        """Counts at (x centre i, each last-axis centre); i is None in 1-D."""
        lo, hi = 0, len(q)
        if i is not None:
            lo = np.searchsorted(q.points[:, 0], lows[0][i], side="left")
            hi = np.searchsorted(q.points[:, 0], highs[0][i], side="right")
        line, pref = _sorted_slab(q.points, q.weights, lo, hi)
        return (pref[np.searchsorted(line, highs[-1], side="right")]
                - pref[np.searchsorted(line, lows[-1], side="left")])

    # stable windows rank before unstable ones, then by count, then first in scan order
    unstable_offset = pts.total_mass + 1
    best = None
    for i in range(len(centers[0])) if pts.dim == 2 else [None]:
        counts = line_counts(pts, i)
        stable = np.zeros(len(counts), bool) if nxt is None else counts == line_counts(nxt, i)
        rank = np.where(stable, counts, counts + unstable_offset)
        j = int(np.argmin(rank))
        if best is None or rank[j] < best[0]:
            at = (j,) if i is None else (i, j)
            center = tuple(float(c[k]) for c, k in zip(centers, at))
            best = (rank[j], int(counts[j]), center, bool(stable[j]))
    return best[1:]


def loop_profiles(pts, schedule, nxt, level):
    """Upper and lower profiles built from the reference scans."""
    dim = pts.dim
    radius = np.max(np.abs(pts.points), axis=0)
    upper, lower = [], []
    for size in schedule.sizes:
        count, center = loop_sup_scan(pts, size)
        upper.append(WindowEntry(size, sup_count=count, sup_value=count / size**dim,
                                 argmax_center=center))
        if np.any(2 * radius < size):
            continue
        count, center, trusted = loop_inf_scan(pts, nxt, size, -radius + size / 2,
                                               radius - size / 2)
        lower.append(WindowEntry(size, inf_count=count, inf_value=count / size**dim,
                                 argmin_center=center, trusted=trusted))
    mult = int(pts.weights.max())
    return (DensityEstimate(dim, tuple(upper), level, mult),
            DensityEstimate(dim, tuple(lower), level, mult))


def sweep_profiles(pts, schedule, nxt, level):
    return (upper_density_profile(pts, schedule, level=level),
            lower_density_profile(pts, schedule, nxt, level=level))


@st.composite
def window_cases(draw):
    """A 1-D or 2-D weighted set, an optional next level and a schedule.

    Coordinates come from a lattice or from a small pool of floats, so x and
    y values repeat; some window sizes equal coordinate gaps, and some
    next-level points lie on window edges.
    """
    dim = draw(st.sampled_from([1, 2, 2]))
    lattice = draw(st.booleans())
    # some sets are one-sided, as the expansions of (2, {0, 1}) are
    low = draw(st.sampled_from([-1, 0]))
    if lattice:
        coord = st.integers(6 * low, 6).map(float)
    else:
        pool = draw(st.lists(st.floats(10 * low, 10, allow_subnormal=False), min_size=1,
                             max_size=12))
        coord = st.sampled_from(pool)
    rows = st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=30)
    points = draw(rows)
    pts = WeightedPointSet(np.array(points), draw(
        st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points))))
    coords = pts.points.ravel()
    gaps = np.unique(np.abs(coords[:, None] - coords[None, :]))
    size = st.floats(0.05, 30.0)
    gaps = [float(g) for g in gaps if g > 1e-6]  # a tiny size**dim would underflow to 0
    if gaps:
        size = st.one_of(size, st.sampled_from(gaps))
    sizes = sorted(set(draw(st.lists(size, min_size=1, max_size=5))))
    nxt = None
    if draw(st.booleans()):
        # the next level keeps this level's points and adds some, some heavier,
        # some on the window edges c - size/2 and c + size/2 of centres c; a
        # lattice keeps integer coordinates, so that its 1-D scans read a rank
        # table
        edges = [window_edges(pts.points[:, a].tolist(), sizes) for a in range(dim)]
        if lattice:
            edges = [edge.map(math.floor).map(float) for edge in edges]
        if dim == 2:
            edges = [st.one_of(coord, edge) for edge in edges]
        extra = draw(st.lists(st.tuples(*[coord] * dim), max_size=30))
        extra += draw(st.lists(st.tuples(*edges), min_size=1, max_size=6))
        n = len(pts) + len(extra)
        weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        if draw(st.booleans()):
            # most of this level's windows keep their counts
            weights[:len(pts)] = pts.weights + (weights[:len(pts)] == 3)
        nxt = WeightedPointSet(np.concatenate([pts.points, np.reshape(extra, (-1, dim))]), weights)
    return pts, nxt, WindowSchedule(tuple(sizes))


@st.composite
def window_edges(draw, coords, sizes):
    """An outer edge of the lower scan, or c - size/2 or c + size/2 for a coordinate c.

    The lower scan has a window at each end of its centre range; their
    outer edges are computed as the scan computes them.  The edges at
    coordinates carry the boundary tolerance or not.
    """
    radius = float(np.max(np.abs(coords)))
    size = draw(st.sampled_from([s for s in sizes if s <= 2 * radius] or sizes))
    tol = BOUNDARY_TOL * size
    if draw(st.integers(0, 2)):
        return draw(st.sampled_from([(-radius + size / 2) - size / 2 - tol,
                                     (radius - size / 2) + size / 2 + tol]))
    centre = draw(st.sampled_from(coords))
    pad = draw(st.sampled_from([0.0, tol]))
    return centre - size / 2 - pad if draw(st.booleans()) else centre + size / 2 + pad


@settings(max_examples=300, deadline=None)
@given(window_cases(), st.integers(1, 4), st.integers(1, 64))
def test_blocked_sweep_equals_slab_loops(case, first, cells):
    pts, nxt, schedule = case
    with pytest.MonkeyPatch.context() as mp:
        # a few centres and counts per block, so one scan spans many blocks
        mp.setattr(beurling, "_FIRST_LINE_BLOCK", first)
        mp.setattr(beurling, "_SCAN_CELLS", cells)
        got = sweep_profiles(pts, schedule, nxt, level=3)
    assert got == loop_profiles(pts, schedule, nxt, level=3)


@pytest.mark.parametrize("with_next", [False, True])
def test_scans_of_a_set_whose_x_decreases_in_canonical_order(with_next):
    # both x values round to merge key 0, so in merge-key order x would
    # decrease from (0, 0) to its neighbour; canonical order is x order
    pts = WeightedPointSet([[0, 0], [-4.2827122692175913e-10, 1], [1, 1]])
    assert pts.points.tolist() == [[-4.2827122692175913e-10, 1], [0, 0], [1, 1]]
    nxt = pts if with_next else None
    schedule = WindowSchedule((1.0,))
    upper, lower = sweep_profiles(pts, schedule, nxt, level=3)
    assert (upper, lower) == loop_profiles(pts, schedule, nxt, level=3)
    assert upper.entries[0].sup_count == brute_sup_2d(pts, 1.0) == 2
    # every window centred in [-1/2, 1/2]^2, the admissible range, holds (0, 0)
    entry = lower.entries[0]
    pad = 0.5 + TOL
    inside = np.all(np.abs(pts.points - entry.argmin_center) <= pad, axis=1)
    assert entry.inf_count == int(pts.weights[inside].sum()) == 1
    assert entry.trusted == with_next


SPIRAL = ([[1.9, -0.7], [0.7, 1.9]], [[0, 0], [1, 0], [0.37, 0.71]])


@pytest.mark.parametrize("cells", [1, 37, 2**16])
def test_blocked_sweep_equals_slab_loops_on_expansions(twin_dragon_pair, monkeypatch, cells):
    monkeypatch.setattr(beurling, "_SCAN_CELLS", cells)
    for pair, levels in ((twin_dragon_pair, range(1, 9)), (validate_pair(*SPIRAL), range(1, 5))):
        for k in levels:
            pts, nxt = expand_level(pair, k), expand_level(pair, k + 1)
            schedule = natural_schedule(pts, 5)
            assert sweep_profiles(pts, schedule, nxt, k) == loop_profiles(pts, schedule, nxt, k)


def test_lower_2d_candidate_windows_are_budgeted(twin_dragon_pair, doubling_pair):
    pts = expand_level(twin_dragon_pair, 6)
    schedule = WindowSchedule((2.0,))
    with pytest.raises(BudgetExceeded, match="^lower scan: 150 candidate windows exceed cap 10$"):
        lower_density_profile(pts, schedule, cap=10)
    assert lower_density_profile(pts, schedule, cap=10**6).entries
    # a 1-D scan's candidates grow only linearly with the set; it has no budget
    line = expand_level(doubling_pair, 6)
    assert lower_density_profile(line, schedule, cap=1).entries


# 1-D lower scans search the merged coordinates of both levels once
LINE_CASES = {
    # 4e-10 merges with 0 at MERGE_TOL but is a different float, so the merged
    # line holds both.  At size 1 the only stable windows hold 0 and 4e-10 and
    # no other point; the first of them starts at a break of the next level.
    "shifted-representative": ([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [1] * 7,
                               [-3.0, -2.0, -1.0, 4e-10, 1.0, 2.0, 3.0], [2, 2, 2, 1, 2, 2, 2]),
    "next-lacks-a-point": ([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [1, 1, 1, 2, 1, 1, 1],
                           [-3.0, -2.0, -1.0, 0.0, 2.0, 3.0, 4.0], [1, 1, 1, 2, 1, 1, 1]),
    "no-next-level": ([-3.0, -1.0, 0.0, 2.0, 7.0], [1, 1, 2, 1, 1], None, None),
    # a next-level point exactly on the low edge of the first size-2 window,
    # centred at -4 + 1: it is inside that window, so the window is unstable
    "next-point-on-low-edge": ([0.0, 1.0, 2.0, 3.0, 4.0], [1] * 5,
                               [-3.0 - 1.0 - BOUNDARY_TOL * 2.0, 0.0, 1.0, 2.0, 3.0, 4.0],
                               [1] * 6),
}


@pytest.mark.parametrize("case", LINE_CASES.values(), ids=LINE_CASES.keys())
def test_merged_line_scan_equals_slab_loops(case):
    x, w, nx, nw = case
    pts = WeightedPointSet(x, w)
    nxt = None if nx is None else WeightedPointSet(nx, nw)
    gaps = np.unique(np.abs(np.subtract.outer(pts.points[:, 0], pts.points[:, 0])))
    schedule = WindowSchedule(tuple(float(g) for g in gaps if g > 0) + (13.5,))
    got = sweep_profiles(pts, schedule, nxt, level=3)
    assert got == loop_profiles(pts, schedule, nxt, level=3)
    assert got[1].entries


def always_merged_line(sets):
    """``beurling._merged_line`` that merges the sets' coordinates even when one holds the other's."""
    line = beurling._distinct(np.concatenate([q.points[:, 0] for q in sets]))
    prefs = []
    for q in sets:
        w = np.zeros(len(line), dtype=np.int64)
        w[np.searchsorted(line, q.points[:, 0])] = q.weights
        prefs.append(_prefix_sums(w))
    return line, beurling._rank_table(line), prefs


# lines that are not the merged line: a next level that lacks a point of
# the level, and one that holds 0.0 where the level, and so the merged
# line, holds -0.0
NESTING_CASES = {
    "next-lacks-a-point": ([-3.0, -1.0, 0.0, 1.0, 2.0], [1, 1, 2, 1, 1],
                           [-3.0, -2.0, -1.0, 0.0, 2.0, 3.0], [1, 1, 1, 2, 1, 1]),
    "negative-zero": ([-2.0, -0.0, 1.0], [1, 1, 1], [-2.0, -1.0, 0.0, 1.0, 2.0], [1, 1, 2, 1, 1]),
}


@pytest.mark.parametrize("case", NESTING_CASES.values(), ids=NESTING_CASES.keys())
def test_lower_scan_equals_the_scan_over_the_merged_line(case, monkeypatch):
    x, w, nx, nw = case
    pts, nxt = WeightedPointSet(x, w), WeightedPointSet(nx, nw)
    # the smallest size's half rounds to 0, where the sign of a zero reaches the centres
    schedule = WindowSchedule((5e-324, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    got = lower_density_profile(pts, schedule, nxt, level=2)
    monkeypatch.setattr(beurling, "_merged_line", always_merged_line)
    assert repr(got) == repr(lower_density_profile(pts, schedule, nxt, level=2))


@settings(max_examples=100, deadline=None)
@given(small_pairs(), st.integers(1, 5),
       st.sets(st.sampled_from([0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.2]), min_size=1))
def test_last_trusted_lower_profile_is_the_last_trusted_entry_of_the_profile(pair, k, fractions):
    pts, nxt = expand_level(pair, k), expand_level(pair, k + 1)
    # up to past the box, where the next level often disagrees
    radius = float(np.max(np.abs(pts.points)))
    schedule = WindowSchedule(tuple(2 * radius * f for f in sorted(fractions)))
    try:
        full = lower_density_profile(pts, schedule, nxt, level=k, cap=2**20)
    except BudgetExceeded:
        return  # a 2-D size too large to scan in full
    got = beurling.last_trusted_lower_profile(pts, schedule, nxt, level=k, cap=2**20)
    assert got.entries == tuple(e for e in full.entries if e.trusted)[-1:]
    assert (got.dim, got.level, got.max_multiplicity) == (
        full.dim, full.level, full.max_multiplicity)


def test_lower_1d_scan_memory_is_bounded(doubling_pair):
    pts, nxt = expand_level(doubling_pair, 16), expand_level(doubling_pair, 17)
    schedule = natural_schedule(pts)
    tracemalloc.start()
    try:
        lower_density_profile(pts, schedule, nxt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 11.7 MiB with one search per level
    assert peak <= 13 * 2**20


# 1-D lower scans build their centres block by block and stop at the least possible rank


@st.composite
def block_cut_cases(draw):
    """An integer 1-D set of up to 60 points, integer and half-integer sizes, maybe a next level.

    Integer sizes put low breaks u - size/2 on high breaks u' + size/2, so
    with blocks of a few breaks such ties fall on block cuts.  Some cases
    scale everything by 2**25 and add next-level points within 2e-9 of 0:
    their breaks round onto those of 0 and onto each other, so a block can
    start on the break that ends the one before, or hold no new break.
    """
    scale = draw(st.sampled_from([1.0, 2.0**25]))
    x = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=60))
    pts = WeightedPointSet(scale * np.array(x, float), draw(
        st.lists(st.integers(1, 3), min_size=len(x), max_size=len(x))))
    sizes = draw(st.lists(st.integers(1, 48).map(lambda k: scale * k / 2), min_size=1, max_size=5))
    nxt = None
    if draw(st.booleans()):
        extra = scale * np.array(draw(st.lists(st.integers(-14, 14), max_size=20)), float)
        if scale > 1:
            near = draw(st.lists(st.sampled_from([-1e-9, 1e-9, 2e-9]), min_size=1, max_size=3))
            extra = np.concatenate([extra, near])
        n = len(pts) + len(extra)
        weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        if draw(st.booleans()):
            # most of this level's windows keep their counts
            weights[:len(pts)] = pts.weights
        nxt = WeightedPointSet(np.concatenate([pts.points[:, 0], extra]), weights)
    return pts, nxt, WindowSchedule(tuple(sorted(set(sizes))))


S25 = 2.0**25


@settings(max_examples=300, deadline=None)
@given(block_cut_cases(), st.integers(1, 4), st.integers(1, 8))
# 0 - S25 and 1e-9 - S25 round to one low break, -S25.  With one low break a
# block it makes up the whole second block, which adds no centre; a centre
# on -S25 itself would be the only stable window
@example((WeightedPointSet([-2 * S25, 0.0, 2 * S25, 4 * S25], [2, 1, 1, 1]),
          WeightedPointSet([-2 * S25, 0.0, 1e-9, 2 * S25, 4 * S25], [1, 1, 1, 2, 2]),
          WindowSchedule((2 * S25,))), 1, 1)
def test_line_blocks_equal_slab_loops_across_block_cuts(case, first, cells):
    pts, nxt, schedule = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beurling, "_FIRST_LINE_BLOCK", first)
        mp.setattr(beurling, "_SCAN_CELLS", cells)
        got = lower_density_profile(pts, schedule, nxt, level=3)
    assert got == loop_profiles(pts, schedule, nxt, level=3)[1]


def lower_scan_lookups(monkeypatch, pts, nxt):
    """Centres looked up per ``_search`` call of a natural-schedule lower profile's scans."""
    lookups = []
    search = beurling._search

    def recording(values, table, edges, side):
        lookups.append(len(edges))
        return search(values, table, edges, side)

    monkeypatch.setattr(beurling, "_search", recording)
    schedule = natural_schedule(pts)
    lower_density_profile(pts, schedule, nxt)
    # the line is the next level's points, or the level's own without one:
    # placing the level's points on it is the one search before the scans
    assert lookups[:1] == [len(pts)]
    return schedule, lookups[1:]


@pytest.mark.parametrize("pair, k, next_level", [
    ("doubling_pair", 16, True), ("collision_pair", 8, True), ("doubling_pair", 16, False)])
def test_lower_scan_stops_in_its_first_block(request, monkeypatch, pair, k, next_level):
    pair = request.getfixturevalue(pair)
    pts = expand_level(pair, k)
    nxt = expand_level(pair, k + 1) if next_level else None
    schedule, lookups = lower_scan_lookups(monkeypatch, pts, nxt)
    # a stable empty window, or without a next level an empty one, at the
    # first centre: one block per size, its low and high edges
    assert len(lookups) == 2 * len(schedule.sizes)
    assert max(lookups) <= 2 * beurling._FIRST_LINE_BLOCK + 3
    entries = lower_density_profile(pts, schedule, nxt).entries
    assert all(e.inf_count == 0 and e.trusted == next_level for e in entries)


def test_lower_scan_without_a_stable_empty_window_looks_up_every_centre(
    negative_doubling_pair, monkeypatch
):
    pts, nxt = expand_level(negative_doubling_pair, 14), expand_level(negative_doubling_pair, 15)
    schedule, lookups = lower_scan_lookups(monkeypatch, pts, nxt)
    u = np.unique(np.concatenate([pts.points[:, 0], nxt.points[:, 0]]))
    radius = float(np.max(np.abs(pts.points)))
    breaks = [(np.concatenate([u - s / 2, u + s / 2]), -radius + s / 2, radius - s / 2)
              for s in schedule.sizes]
    centres = sum(len(_candidate_centers(*b)) for b in breaks)
    assert len(lookups) > 2 * len(schedule.sizes)
    assert sum(lookups) == 2 * centres


def test_lower_1d_scan_that_stops_early_allocates_little(doubling_pair):
    pts, nxt = expand_level(doubling_pair, 16), expand_level(doubling_pair, 17)
    schedule = natural_schedule(pts)
    tracemalloc.start()
    try:
        lower_density_profile(pts, schedule, nxt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 6.0 MiB with the first block alone: the merged line, its rank table and prefixes
    assert peak <= 7 * 2**20


def test_lower_2d_scan_memory_is_bounded(twin_dragon_pair):
    pts, nxt = expand_level(twin_dragon_pair, 16), expand_level(twin_dragon_pair, 17)
    schedule = natural_schedule(pts)
    lower_density_profile(pts, schedule, nxt)  # warm-up: first-call allocations are not the scan's
    tracemalloc.start()
    try:
        lower_density_profile(pts, schedule, nxt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10.5 MiB when every size sorted the breaks of all points of both levels
    assert peak <= 7 * 2**20


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0, 1e-12]), min_size=1,
                max_size=40),
       st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]), st.floats(-3, 0), st.floats(0, 3),
       st.integers(1, 4))
def test_candidate_centers_dedupe_like_unique(coords, size, zlo, zhi, first):
    # the sizes put low breaks u - size/2 on high breaks u' + size/2, and
    # blocks of a few low breaks put such ties on block cuts
    u = np.unique(coords)
    breaks = np.concatenate([u - size / 2, u + size / 2])
    inner = np.unique(breaks[(breaks > zlo) & (breaks < zhi)])
    grid = np.concatenate([[zlo], inner, [zhi]])
    want = np.concatenate([[zlo], (grid[:-1] + grid[1:]) / 2.0, [zhi]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beurling, "_FIRST_LINE_BLOCK", first)
        got = np.concatenate(list(beurling._center_blocks(u, size, zlo, zhi)))
    assert np.array_equal(got, want)


def test_window_volume_out_of_float_range_is_refused():
    square = WeightedPointSet([[0.0, 0.0], [1.0, 1.0]])
    # 1e-200**2 is 0 in floating point, and 1e200**2 overflows
    cases = [((1e-200, 1.0), "window size 1e-200 is too small"),
             ((1.0, 1e200), "window size 1e[+]200 is too large")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sizes, message in cases:
            for profile in (upper_density_profile, lower_density_profile):
                with pytest.raises(ValueError, match=message):
                    profile(square, WindowSchedule(sizes))
    # a 1-D volume is the size itself, which is never 0
    line = WeightedPointSet([0.0, 1.0])
    assert upper_density_profile(line, WindowSchedule((5e-324, 1.0))).entries[0].sup_count == 1


# 1-D scans read window edges off a rank table when the coordinates qualify


@st.composite
def search_cases(draw):
    """Sorted integer values with repeats, spans either side of the table cutoff, and edges.

    The edges sit on every value, half a unit, one ulp and one boundary
    tolerance away from it, far outside the span, and at -0.0.
    """
    n = draw(st.integers(1, 40))
    span = draw(st.sampled_from([1, n, pointset._TABLE_SPAN * n, pointset._TABLE_SPAN * n + 1,
                                 10 * n + 3]))
    start = draw(st.one_of(st.integers(-50, 50), st.integers(-(2**51), 2**51)))
    inner = draw(st.lists(st.integers(0, span - 1), min_size=max(0, n - 2), max_size=max(0, n - 2)))
    values = np.sort(np.array([0, span - 1, *inner][:n], dtype=float) + start)
    tol = BOUNDARY_TOL * draw(st.floats(0.05, 30.0))
    offsets = [0.0, 0.5, -0.5, tol, -tol]
    edges = [v + d for v in values for d in offsets]
    edges += [x for v in values for x in (np.nextafter(v, np.inf), np.nextafter(v, -np.inf))]
    edges += [values[0] - 1e6, values[-1] + 1e6, -1e300, 1e300, -0.0]
    return values, np.array(edges)


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_rank_table_search_equals_binary_search(case):
    values, edges = case
    table = beurling._rank_table(values)
    assert (table is None) == (values[-1] - values[0] + 1 > pointset._TABLE_SPAN * len(values))
    for side in ("left", "right"):
        got = beurling._search(values, table, edges, side)
        assert np.array_equal(got, np.searchsorted(values, edges, side=side))


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_rank_table_equals_counting_formula(case):
    values, _ = case
    table, expected = beurling._rank_table(values), rank_table_by_counting(values)
    assert (table is None) == (expected is None)
    if table is not None:
        assert table.dtype == expected.dtype and np.array_equal(table, expected)


def test_rank_table_limit():
    values = np.array([-3.0, 7.0, 8.0, 29.0])
    # span 33, above the default limit of 8 * 4
    assert beurling._rank_table(values) is None
    assert beurling._rank_table(values, 32) is None
    table = beurling._rank_table(values, 33)
    assert table.dtype == np.int32
    assert np.array_equal(table, np.searchsorted(values, values[0] + np.arange(34)))


def test_rank_table_selection(doubling_pair, cantor_pair_32):
    line = expand_level(doubling_pair, 16).points[:, 0]
    assert beurling._rank_table(line) is not None
    sets = [expand_level(doubling_pair, k) for k in (16, 17)]
    u = np.unique(np.concatenate([q.points[:, 0] for q in sets]))
    _, table, _ = beurling._merged_line(sets)
    assert table is not None and len(table) == u[-1] - u[0] + 2
    # the Cantor set spans about 650 times its count
    assert beurling._rank_table(expand_level(cantor_pair_32, 8).points[:, 0]) is None
    one_off = np.arange(10.0)
    one_off[5] = 5.5
    assert beurling._rank_table(one_off) is None
