"""Level-k expansion enumeration against independent brute-force oracles."""

import itertools
import re
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import canonicalize_by_lexsort, expand_level_afresh
from strategies import small_pairs

from selfaffine import (
    BudgetExceeded,
    NotACollision,
    WeightedPointSet,
    analyze_expansion,
    collision_witness,
    expand_level,
    expand_levels,
    osc_verdict,
    validate_pair,
)
from selfaffine import expansion
from selfaffine.expansion import DEFAULT_CAP, _min_separation, _next_level


def brute_expansions(matrix, digits, k):
    """All sums l_0 + B l_1 + ... + B^(k-1) l_(k-1) by direct product."""
    b = np.asarray(matrix, dtype=float)
    powers = [np.linalg.matrix_power(b, j) for j in range(k)]
    counter = Counter()
    for combo in itertools.product(digits, repeat=k):
        total = np.zeros(b.shape[0])
        for j, d in enumerate(combo):
            total = total + powers[j] @ np.asarray(d, dtype=float)
        counter[tuple(np.round(total, 9))] += 1
    return counter


def test_doubling_level_3_matches_oracle(doubling_pair):
    pts = expand_level(doubling_pair, 3)
    oracle = brute_expansions([[2.0]], [[0.0], [1.0]], 3)
    assert pts.points.ravel().tolist() == sorted(v[0] for v in oracle)
    assert pts.weights.tolist() == [oracle[(v,)] for v in pts.points.ravel()]
    assert pts.total_mass == 8


def test_collision_pair_level_2(collision_pair):
    pts = expand_level(collision_pair, 2)
    assert len(pts) == 15
    assert pts.total_mass == 16
    assert pts.weight_at([8.0]) == 2
    oracle = brute_expansions([[4.0]], [[0.0], [1.0], [2.0], [8.0]], 2)
    assert {p[0]: w for p, w in oracle.items()} == {
        float(x): int(w) for x, w in zip(pts.points.ravel(), pts.weights)
    }


def test_level_1_is_digit_set(collision_pair):
    pts = expand_level(collision_pair, 1)
    assert np.array_equal(pts.points, collision_pair.digits.vectors)
    assert pts.weights.tolist() == [1, 1, 1, 1]


def test_level_1_is_stored_as_the_set_of_its_digits():
    # x values 0 and 4e-10 share merge key 0: the digits' lexicographic order
    # and merge-key order differ, and level 1 takes the order of every set
    pair = validate_pair([[3, 0], [0, 3]], [[0, 0], [4e-10, 1], [0, 2]])
    assert expand_level(pair, 1) == WeightedPointSet(pair.digits.vectors)


def test_twin_dragon_level_4_matches_oracle(twin_dragon_pair):
    pts = expand_level(twin_dragon_pair, 4)
    oracle = brute_expansions(
        [[1.0, -1.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]], 4
    )
    assert pts.total_mass == 16
    assert len(pts) == len(oracle)
    for point, weight in zip(pts.points, pts.weights):
        assert oracle[tuple(np.round(point, 9))] == weight


def test_mass_conservation(doubling_pair, collision_pair):
    for pair in (doubling_pair, collision_pair):
        for k in range(1, 7):
            assert expand_level(pair, k).total_mass == pair.m**k


def test_support_nesting(negative_doubling_pair):
    prev = expand_level(negative_doubling_pair, 3)
    nxt = expand_level(negative_doubling_pair, 4)
    prev_pts = {tuple(p) for p in prev.points}
    nxt_pts = {tuple(p) for p in nxt.points}
    assert prev_pts <= nxt_pts


def test_pointwise_weight_monotonicity(collision_pair):
    prev = expand_level(collision_pair, 2)
    nxt = expand_level(collision_pair, 3)
    for point, weight in zip(prev.points, prev.weights):
        assert nxt.weight_at(point) >= weight


def test_budget_enforced(doubling_pair):
    with pytest.raises(BudgetExceeded):
        expand_level(doubling_pair, 30, cap=2**20)


def _bits(pts):
    return pts.points.dtype, pts.points.shape, pts.points.tobytes(), pts.weights.tobytes()


@settings(max_examples=100, deadline=None)
@given(small_pairs(), st.integers(1, 6))
def test_each_streamed_level_is_the_level_built_alone(pair, k):
    levels = list(expand_levels(pair, k))
    assert len(levels) == k
    for j, pts in enumerate(levels, start=1):
        expected = _bits(expand_level_afresh(pair, j))
        assert _bits(pts) == _bits(expand_level(pair, j)) == expected


@settings(max_examples=100, deadline=None)
@given(small_pairs(), st.integers(1, 6))
def test_next_level_is_the_point_major_candidate_merged(pair, k):
    pts = expand_level(pair, k)
    power = np.eye(pair.dim)
    for _ in range(k):
        power = pair.matrix.entries @ power
    shifts = pair.digits.vectors @ power.T
    # point by point: each point's m translates side by side
    candidate = (pts.points[:, None, :] + shifts[None, :, :]).reshape(-1, pair.dim)
    weights = np.repeat(pts.weights, pair.m)
    got = _bits(_next_level(pair, pts, k, 10**9))
    assert got == _bits(WeightedPointSet(candidate, weights))
    assert got == _bits(WeightedPointSet._from_canonical(*canonicalize_by_lexsort(candidate, weights)))


def test_stream_checks_the_budget_level_by_level(doubling_pair):
    levels = expand_levels(doubling_pair, 6, cap=8)
    assert [len(pts) for pts in itertools.islice(levels, 3)] == [2, 4, 8]
    with pytest.raises(BudgetExceeded, match=r"^expansion: 2\*\*4 digit strings exceed cap 8$"):
        next(levels)
    # a single level is refused before any is built
    with pytest.raises(BudgetExceeded, match=r"^expansion: 2\*\*6 digit strings exceed cap 8$"):
        expand_level(doubling_pair, 6, cap=8)


@pytest.mark.parametrize(
    "matrix,digits",
    [([[2.0]], [[0.0], [1e308]]), ([[1e300]], [[0.0], [1e9]]),
     ([[2.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 1e308]])],
    ids=["digit-near-float-limit", "matrix-near-float-limit", "2-d"],
)
def test_float_overflow_is_the_merge_scale_error(matrix, digits):
    pair = validate_pair(matrix, digits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="merge scale"):
            expand_level(pair, 3)


def _point_major_levels(pair, k):
    """Levels 1, ..., k, each the ``WeightedPointSet`` of the point-major candidates of the last.

    Returns the levels built and the error that stopped the build, if any.
    """
    levels = [WeightedPointSet(pair.digits.vectors)]
    power = np.eye(pair.dim)
    try:
        for _ in range(1, k):
            with np.errstate(over="raise", invalid="raise"):
                power = pair.matrix.entries @ power
                shifts = pair.digits.vectors @ power.T
                prev = levels[-1]
                candidate = (prev.points[:, None, :] + shifts[None, :, :]).reshape(-1, pair.dim)
            levels.append(WeightedPointSet(candidate, np.repeat(prev.weights, pair.m)))
    except FloatingPointError:
        return levels, ValueError(expansion._MERGE_SCALE_ERROR)
    except ValueError as exc:
        return levels, exc
    return levels, None


@st.composite
def integral_line_pairs(draw):
    """1-D integral pairs: b in +-2..+-6, a zero digit that may be -0.0, and up to three more.

    Small digits collide, far ones leave gaps, and digits of 10**9 pass the
    merge scale within a few levels.
    """
    b = draw(st.integers(2, 6)) * draw(st.sampled_from([-1, 1]))
    digit = st.one_of(st.integers(-9, 9), st.integers(-60, 60), st.sampled_from([10**9, -(10**9)]))
    digits = draw(st.lists(digit.filter(bool), min_size=1, max_size=3, unique=True))
    zero = draw(st.sampled_from([0.0, -0.0]))
    return validate_pair([[float(b)]], [[zero], *([float(d)] for d in digits)])


def _bits_and_dtypes(pts):
    return (*_bits(pts), pts.weights.dtype)


@settings(max_examples=200, deadline=None)
@given(integral_line_pairs(), st.integers(1, 6))
def test_integral_levels_are_the_point_major_candidates_merged(pair, k):
    # the lattice levels and the merged ones alike, bit for bit, and the same errors
    levels, error = _point_major_levels(pair, k)
    expected = [_bits_and_dtypes(pts) for pts in levels]
    streamed = []
    try:
        for pts in expand_levels(pair, k):
            streamed.append(_bits_and_dtypes(pts))
    except ValueError as exc:
        assert error is not None and str(exc) == str(error)
    assert streamed == expected
    for j, pts in enumerate(levels, start=1):
        assert _bits_and_dtypes(expand_level(pair, j)) == expected[j - 1]
        if j < len(levels):
            assert _bits_and_dtypes(_next_level(pair, pts, j, DEFAULT_CAP)) == expected[j]
    if error is not None:
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            expand_level(pair, len(levels) + 1)
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            _next_level(pair, levels[-1], len(levels), DEFAULT_CAP)


def test_a_minus_zero_digit_keeps_its_sign_at_level_1():
    pair = validate_pair([[2.0]], [[-0.0], [1.0]])
    for pts in (expand_level(pair, 1), next(expand_levels(pair, 1))):
        assert np.signbit(pts.points[0, 0]) and pts.points[0, 0] == 0


def test_an_integral_tile_builds_no_candidate_merge(doubling_pair):
    # the lattice path sorts nothing, at every level and in the step past the last
    with mock.patch.object(np, "argsort", side_effect=AssertionError("argsort called")):
        pts = expand_level(doubling_pair, 16)
        nxt = _next_level(doubling_pair, pts, 16, DEFAULT_CAP)
    assert pts.total_mass == 2**16 and nxt.total_mass == 2**17
    assert np.array_equal(nxt.coords(), np.arange(2**17))


def test_the_cantor_set_leaves_the_lattice_at_level_6(cantor_pair_32, monkeypatch):
    # span 3**k against 2**k rows: levels from 6 on are merged from sorted candidates
    built = []
    lattice_next = expansion._lattice_next

    def recording(level, shifts, k):
        lattice = lattice_next(level, shifts, k)
        if lattice is not None:
            built.append(k + 1)
            assert k + 1 < 6, "a level past the span rule was built on the lattice"
        return lattice

    monkeypatch.setattr(expansion, "_lattice_next", recording)
    pts = expand_level(cantor_pair_32, 16)
    assert built == [1, 2, 3, 4, 5]
    assert len(pts) == 2**16


def test_the_check_stream_sums_each_lattice_level_once(doubling_pair, monkeypatch):
    # each level's counts are summed as the level is built and read off as they were returned
    built, read = [], []
    lattice_next, from_counts = expansion._lattice_next, expansion._from_counts

    def building(level, shifts, k):
        lattice = lattice_next(level, shifts, k)
        built.append(lattice.counts)
        return lattice

    def reading(*args):
        read.append(args)
        return from_counts(*args)

    monkeypatch.setattr(expansion, "_lattice_next", building)
    monkeypatch.setattr(expansion, "_from_counts", reading)
    levels = list(expand_levels(doubling_pair, 12))
    assert [pts.total_mass for pts in levels] == [2**j for j in range(1, 13)]
    assert len(built) == len(read) == 12
    for counts, args in zip(built, read):
        assert len(args) == 2 and args[1] is counts


def test_lattice_counts_are_int32_below_2_to_the_31(monkeypatch):
    dtypes = []
    lattice_next = expansion._lattice_next

    def recording(level, shifts, k):
        lattice = lattice_next(level, shifts, k)
        dtypes.append((k + 1, lattice.counts.dtype))
        return lattice

    monkeypatch.setattr(expansion, "_lattice_next", recording)
    # m = 2**11 digits: level 3 has mass 2**33
    m = 2**11
    pair = validate_pair([[2.0]], [[float(d)] for d in range(m)])
    pts = expand_level(pair, 3, cap=2**33)
    assert dtypes == [(1, np.int32), (2, np.int32), (3, np.int64)]
    # the counts of level 3 are the convolution of the digits' indicators at scales 1, 2, 4
    counts = np.ones(1, dtype=np.int64)
    for j in range(3):
        indicator = np.zeros(2**j * (m - 1) + 1, dtype=np.int64)
        indicator[:: 2**j] = 1
        counts = np.convolve(counts, indicator)
    assert np.array_equal(pts.coords(), np.flatnonzero(counts))
    assert pts.weights.dtype == np.int64
    assert np.array_equal(pts.weights, counts[counts > 0])
    assert pts.total_mass == 2**33


def test_analyze_no_collision(doubling_pair):
    pts = expand_level(doubling_pair, 3)
    report = analyze_expansion(pts, 2, 3)
    assert not report.has_collision
    assert report.max_multiplicity == 1
    assert report.distinct_count == 8
    assert report.min_separation == pytest.approx(1.0)


def test_analyze_collision(collision_pair):
    pts = expand_level(collision_pair, 2)
    report = analyze_expansion(pts, 4, 2)
    assert report.has_collision
    assert report.max_multiplicity == 2
    assert report.distinct_count == 15


def test_min_separation_single_point():
    pair = validate_pair([[2.0]], [[0.0]])
    pts = expand_level(pair, 5)
    report = analyze_expansion(pts, 1, 5)
    assert report.min_separation == np.inf


def test_min_separation_2d(twin_dragon_pair):
    pts = expand_level(twin_dragon_pair, 3)
    report = analyze_expansion(pts, 2, 3)
    brute = min(
        np.linalg.norm(p - q)
        for i, p in enumerate(pts.points)
        for q in pts.points[i + 1 :]
    )
    assert report.min_separation == pytest.approx(brute)


def test_min_separation_nonincreasing(overfull_pair):
    seps = []
    for k in range(1, 12):
        pts = expand_level(overfull_pair, k)
        seps.append(analyze_expansion(pts, 2, k).min_separation)
    assert all(a >= b - 1e-12 for a, b in zip(seps, seps[1:]))


def test_witness_small(collision_pair):
    w = collision_witness(collision_pair, [8.0], 2, copies=2)
    assert w.point.ravel()[0] == pytest.approx(136.0)  # 8 + 16*8
    assert w.bound == 4
    assert w.verified
    assert w.observed_multiplicity >= 4


def test_witness_m1_is_collision_itself(collision_pair):
    w = collision_witness(collision_pair, [8.0], 2, copies=1)
    assert w.point.ravel()[0] == pytest.approx(8.0)
    assert w.bound == 2


def test_witness_oracle_check(collision_pair):
    # weight of z at level copies*k must match direct enumeration
    w = collision_witness(collision_pair, [8.0], 2, copies=2)
    oracle = brute_expansions([[4.0]], [[0.0], [1.0], [2.0], [8.0]], 4)
    assert oracle[(136.0,)] == w.observed_multiplicity


def test_witness_rejects_simple_point(collision_pair):
    with pytest.raises(NotACollision):
        collision_witness(collision_pair, [1.0], 2, copies=2)


def test_witness_unverified_when_over_budget(collision_pair):
    w = collision_witness(collision_pair, [8.0], 2, copies=12, cap=4**6)
    assert w.bound == 2**12
    assert not w.verified
    assert w.observed_multiplicity is None


def test_witness_unverified_past_the_merge_scale():
    # 300 = 300 + 300 * 0 = 0 + 300 * 1 collides at level 2; its witness lies at
    # level 4, whose points reach about 8.1e9, past the merge scale
    pair = validate_pair([[300]], [[0], [1], [300]])
    w = collision_witness(pair, [300.0], 2, copies=2)
    assert (float(w.point[0]), w.level, w.bound) == (27000300.0, 4, 4)
    assert not w.verified
    assert w.observed_multiplicity is None


def brute_min_separation(points):
    """O(n^2) minimum over all pairs, squared differences summed axis by axis."""
    i, j = np.triu_indices(len(points), 1)
    diff = points[i] - points[j]
    return float(np.sqrt(sum(diff[:, k] * diff[:, k] for k in range(points.shape[1])).min()))


@st.composite
def separation_rows(draw):
    """2-60 points in 1-3 dimensions: integer and float coordinates mixed, or
    integers spaced 1 or 2 apart, which the integer certificate settles when
    two of them are 1 apart and the grid pass otherwise."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        step = draw(st.sampled_from([1.0, 2.0]))
        coordinate = st.integers(-3, 3).map(lambda v: step * v)
    else:
        coordinate = st.one_of(st.integers(-6, 6).map(float), st.floats(-50, 50))
    row = st.lists(coordinate, min_size=dim, max_size=dim)
    return draw(st.lists(row, min_size=2, max_size=60))


@settings(max_examples=150, deadline=None)
@given(separation_rows())
def test_min_separation_matches_brute_force(rows):
    pts = WeightedPointSet(np.array(rows))
    expected = brute_min_separation(pts.points) if len(pts) > 1 else float("inf")
    assert _min_separation(pts) == expected


@pytest.mark.parametrize(
    "rows,expected",
    [
        # 0.85 apart, but side by side in neither axis order; a pair 1 apart sets the bound
        ([[0, 0], [0.6, 0.6], [0.3, 10], [10, 0.3], [20, 20], [21, 20]], 0.72**0.5),
        # the same on integers, with a bound of 2 above the minimum sqrt(2)
        ([[0, 0], [1, 1], [0, 10], [10, 0], [20, 20], [22, 20]], 2**0.5),
    ],
    ids=["non-integer", "integer-bound-2"],
)
def test_min_separation_certificate_needs_integers_and_a_unit_bound(rows, expected):
    pts = WeightedPointSet(np.array(rows, dtype=float))
    assert _min_separation(pts) == brute_min_separation(pts.points) == pytest.approx(expected)


def test_min_separation_collinear_vertical():
    # every point has x = 0, so a sweep along x alone would compare all pairs
    pair = validate_pair([[3.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [0.0, 1.0]])
    pts = expand_level(pair, 9)
    assert np.all(pts.points[:, 0] == 0.0)
    assert _min_separation(pts) == brute_min_separation(pts.points) == 1.0


@pytest.mark.parametrize("dim", [2, 3])
def test_min_separation_extreme_extent_ratio(dim):
    rng = np.random.default_rng(dim)
    near = rng.random((300, dim)) * 1e-3
    far = rng.random((300, dim)) * 2e9
    pts = WeightedPointSet(np.concatenate([near, far]))
    sep = _min_separation(pts)
    assert np.ptp(pts.points, axis=0).max() / sep >= 1e12
    assert sep == brute_min_separation(pts.points)


def test_min_separation_refuses_crowded_cells_before_measuring_them(monkeypatch):
    # 2,000 points within 1e-6 beside 2,000 over 3e9: the 2**-32 cell floor
    # puts the near ones in one cell of some four million pairs
    rng = np.random.default_rng(19)
    pts = WeightedPointSet(np.concatenate([rng.random((2000, 2)) * 1e-6, rng.random((2000, 2)) * 3e9]))
    measure = expansion._sq_dist
    calls = []

    def sq_dist(a, b):
        # the neighbour bound takes one call per axis; any later call measures cell pairs
        calls.append(len(a))
        if len(calls) > pts.dim:
            raise AssertionError("a cell pair was measured")
        return measure(a, b)

    monkeypatch.setattr(expansion, "_sq_dist", sq_dist)
    with pytest.raises(BudgetExceeded, match=r"min separation: \d{7} cell pairs exceed cap 32768"):
        _min_separation(pts, cap=1000)
    calls.clear()
    with pytest.raises(BudgetExceeded, match=r"cell pairs exceed cap 100000"):
        analyze_expansion(pts, 2, 1, cap=100_000)
    assert calls == [len(pts) - 1] * pts.dim


def test_min_separation_compares_crowded_cells_in_small_batches():
    # the set above within the default cap: its four million cell pairs are
    # compared _SCAN_CELLS at a time, not all at once
    rng = np.random.default_rng(19)
    pts = WeightedPointSet(np.concatenate([rng.random((2000, 2)) * 1e-6, rng.random((2000, 2)) * 3e9]))
    # the brute-force minimum, one point against all later ones at a time
    p = pts.points
    expected = min(float(((p[i + 1 :] - p[i]) ** 2).sum(axis=1).min()) for i in range(len(p) - 1))
    tracemalloc.start()
    try:
        sep = _min_separation(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sep == float(np.sqrt(expected))
    assert peak < 16 * 2**20


def test_osc_verdict_passes_its_cap_to_the_separation(monkeypatch, twin_dragon_pair):
    caps = []
    measure = expansion._min_separation

    def recording(pts, cap):
        caps.append(cap)
        return measure(pts, cap)

    monkeypatch.setattr(expansion, "_min_separation", recording)
    osc_verdict(twin_dragon_pair, 4, cap=777)
    assert caps == [777] * 4
