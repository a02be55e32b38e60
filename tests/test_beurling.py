"""Window-density scans against exhaustive point-anchored oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from selfaffine import beurling
from selfaffine.beurling import BOUNDARY_TOL, _candidate_centers
from selfaffine.pointset import _interval_counts, _prefix_sums

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
        return _interval_counts(line, pref, lows[-1], highs[-1])

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
    y values repeat; some window sizes equal coordinate gaps.
    """
    dim = draw(st.sampled_from([1, 2, 2]))
    if draw(st.booleans()):
        coord = st.integers(-6, 6).map(float)
    else:
        pool = draw(st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=1, max_size=12))
        coord = st.sampled_from(pool)
    rows = st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=30)
    points = draw(rows)
    pts = WeightedPointSet(np.array(points), draw(
        st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points))))
    nxt = None
    if draw(st.booleans()):
        # the next level keeps this level's points and adds some, some heavier
        extra = draw(st.lists(st.tuples(*[coord] * dim), max_size=30))
        nxt = WeightedPointSet(
            np.array(points + extra),
            draw(st.lists(st.integers(1, 3), min_size=len(points) + len(extra),
                          max_size=len(points) + len(extra))),
        )
    coords = pts.points.ravel()
    gaps = np.unique(np.abs(coords[:, None] - coords[None, :]))
    size = st.floats(0.05, 30.0)
    gaps = [float(g) for g in gaps if g > 1e-6]  # a tiny size**dim would underflow to 0
    if gaps:
        size = st.one_of(size, st.sampled_from(gaps))
    sizes = sorted(set(draw(st.lists(size, min_size=1, max_size=5))))
    return pts, nxt, WindowSchedule(tuple(sizes))


@settings(max_examples=300, deadline=None)
@given(window_cases(), st.integers(1, 64))
def test_blocked_sweep_equals_slab_loops(case, cells):
    pts, nxt, schedule = case
    with pytest.MonkeyPatch.context() as mp:
        # a few counts per block, so one scan spans many blocks
        mp.setattr(beurling, "_SCAN_CELLS", cells)
        got = sweep_profiles(pts, schedule, nxt, level=3)
    assert got == loop_profiles(pts, schedule, nxt, level=3)


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
    with pytest.raises(BudgetExceeded, match="candidate windows at size 2 exceed cap 10"):
        lower_density_profile(pts, schedule, cap=10)
    assert lower_density_profile(pts, schedule, cap=10**6).entries
    # a 1-D scan's candidates grow only linearly with the set; it has no budget
    line = expand_level(doubling_pair, 6)
    assert lower_density_profile(line, schedule, cap=1).entries
