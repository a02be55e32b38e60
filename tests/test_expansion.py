"""Level-k expansion enumeration against independent brute-force oracles."""

import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfaffine import (
    BudgetExceeded,
    NotACollision,
    WeightedPointSet,
    analyze_expansion,
    collision_witness,
    expand_level,
    validate_pair,
)
from selfaffine.expansion import _min_separation


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


def brute_min_separation(points):
    """O(n^2) minimum over all pairs, squared differences summed axis by axis."""
    i, j = np.triu_indices(len(points), 1)
    diff = points[i] - points[j]
    return float(np.sqrt(sum(diff[:, k] * diff[:, k] for k in range(points.shape[1])).min()))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.lists(
            st.lists(
                st.one_of(st.integers(-6, 6).map(float), st.floats(-50, 50)),
                min_size=dim,
                max_size=dim,
            ),
            min_size=2,
            max_size=60,
        )
    )
)
def test_min_separation_matches_brute_force(rows):
    pts = WeightedPointSet(np.array(rows))
    expected = brute_min_separation(pts.points) if len(pts) > 1 else float("inf")
    assert _min_separation(pts) == expected


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
