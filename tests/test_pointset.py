"""Canonicalization and query behavior of weighted point sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import _prefix_sums as prefix_sums_by_copies
from oracles import canonicalize_by_lexsort
from strategies import small_pairs

from selfaffine import (
    EmptyPointSet,
    MERGE_TOL,
    WeightedPointSet,
    discrete_convolve,
    expand_level,
    expand_levels,
)
from selfaffine.pointset import _canonicalize, _prefix_sums, prefix_weights, weight_in_interval


def test_sorted_lexicographically():
    ps = WeightedPointSet([[3.0, 1.0], [1.0, 2.0], [1.0, 0.0]])
    assert ps.points.tolist() == [[1.0, 0.0], [1.0, 2.0], [3.0, 1.0]]


def test_duplicates_merge_and_sum_weights():
    ps = WeightedPointSet([2.0, 1.0, 2.0], [1, 5, 3])
    assert ps.points.ravel().tolist() == [1.0, 2.0]
    assert ps.weights.tolist() == [5, 4]
    assert ps.total_mass == 9


def test_near_duplicates_merge_within_tolerance():
    eps = MERGE_TOL / 10
    ps = WeightedPointSet([0.0, eps, 1.0])
    assert len(ps) == 2
    # representative keeps an input coordinate, the smaller one
    assert ps.points[0, 0] == 0.0


def test_distant_points_never_merge():
    ps = WeightedPointSet([0.0, 3 * MERGE_TOL])
    assert len(ps) == 2


def test_scalar_input_becomes_column():
    ps = WeightedPointSet([5.0, 4.0])
    assert ps.points.shape == (2, 1)
    assert ps.dim == 1


def test_empty_rejected():
    with pytest.raises(EmptyPointSet):
        WeightedPointSet(np.empty((0, 2)))


def test_nonpositive_weights_rejected():
    with pytest.raises(ValueError):
        WeightedPointSet([1.0, 2.0], [1, 0])


def test_fractional_weights_rejected():
    with pytest.raises(ValueError):
        WeightedPointSet([1.0], [1.5])


def test_float_integer_weights_accepted():
    ps = WeightedPointSet([1.0, 2.0], np.array([2.0, 3.0]))
    assert ps.weights.tolist() == [2, 3]


def test_arrays_read_only():
    ps = WeightedPointSet([1.0])
    with pytest.raises(ValueError):
        ps.points[0, 0] = 7.0


def test_equality_ignores_input_order():
    a = WeightedPointSet([3.0, 1.0, 2.0])
    b = WeightedPointSet([1.0, 2.0, 3.0])
    assert a == b


def test_sets_that_compare_equal_are_unhashable():
    a, b = WeightedPointSet([[0.0], [1.0]]), WeightedPointSet([[1.0], [0.0]])
    assert a == b
    # a hash by identity would keep two equal sets as two elements of a set
    with pytest.raises(TypeError, match="unhashable"):
        {a, b}


def test_weight_at():
    ps = WeightedPointSet([0.0, 1.0, 1.0], [1, 1, 4])
    assert ps.weight_at([1.0]) == 5
    assert ps.weight_at([0.5]) == 0


def test_support_only_resets_weights():
    ps = WeightedPointSet([0.0, 1.0], [3, 7])
    sup = ps.support_only()
    assert sup.weights.tolist() == [1, 1]
    assert np.array_equal(sup.points, ps.points)


def test_coords_requires_dim_one():
    ps = WeightedPointSet([[0.0, 0.0]])
    from selfaffine import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        ps.coords()


def test_prefix_weights():
    ps = WeightedPointSet([0.0, 1.0, 2.0], [2, 3, 4])
    assert prefix_weights(ps).tolist() == [0, 2, 5, 9]


@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
        elements=st.integers(0, 2**40),
    )
)
def test_prefix_sums_in_place_equal_cumsum_copies(weights):
    # weights, as for 1-D scans, and an occupancy mask, as for the raster
    for counts in (weights, weights % 2 == 1):
        got, expected = _prefix_sums(counts), prefix_sums_by_copies(counts)
        assert got.dtype == expected.dtype == np.int64
        assert np.array_equal(got, expected)


def test_weight_in_interval_closed_endpoints():
    ps = WeightedPointSet([0.0, 1.0, 2.0, 3.0], [1, 2, 4, 8])
    assert weight_in_interval(ps, 1.0, 2.0) == 6
    assert weight_in_interval(ps, 0.5, 0.75) == 0
    assert weight_in_interval(ps, -10.0, 10.0) == 15


def test_huge_coordinates_rejected():
    with pytest.raises(ValueError):
        WeightedPointSet([5.0e9])


@pytest.mark.parametrize("points", [[0.0, np.nan, 1.0], [[0.0, 1.0], [np.inf, 0.0]], [-np.inf]])
def test_non_finite_coordinates_rejected(points):
    # a NaN passes the merge-scale test, and its merge key would be garbage
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        WeightedPointSet(points)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(weight):
    # an invalid cast to int64 would warn before the weights are checked
    with pytest.raises(ValueError, match="weights must be finite"):
        WeightedPointSet([0.0, 1.0], [1, weight])


@given(
    st.lists(
        st.integers(min_value=-50, max_value=50), min_size=1, max_size=40
    )
)
def test_mass_is_input_count_for_unit_weights(values):
    ps = WeightedPointSet([float(v) for v in values])
    assert ps.total_mass == len(values)
    assert len(ps) == len(set(values))
    diffs = np.diff(ps.points[:, 0])
    assert np.all(diffs > 0)


_OFFSETS = (0.0, 1e-10, -1e-10, 4e-10, 5e-10, -5e-10, 1.5e-9)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.lists(
            st.tuples(
                st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                st.lists(st.sampled_from(_OFFSETS), min_size=dim, max_size=dim),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=40,
        )
    )
)
def test_merge_matches_grouping_by_key(rows):
    points = np.array([np.add(base, offset) for base, offset, _ in rows], dtype=float)
    weights = np.array([w for _, _, w in rows])
    groups = {}
    for p, w in zip(points, weights):
        key = tuple(np.round(p / MERGE_TOL).astype(np.int64))
        rep, total = groups.get(key, (tuple(p), 0))
        groups[key] = (min(rep, tuple(p)), total + w)
    # canonical order: by the representative's x, ties in key order
    expected = [groups[key] for key in sorted(groups, key=lambda key: (groups[key][0][0], key))]
    ps = WeightedPointSet(points, weights)
    assert [tuple(p) for p in ps.points] == [rep for rep, _ in expected]
    assert ps.weights.tolist() == [total for _, total in expected]


#: Offsets around the merge tolerance: inside it, at half of it, at it and past it.
_NEAR_TOL = (0.0, -0.0, 4e-10, -4e-10, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, 2e-9)

#: Coordinates in clusters near the merge tolerance, with +-0.0 and repeats.
_clustered = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10)),
        st.one_of(st.sampled_from(_NEAR_TOL), st.floats(-3e-9, 3e-9)),
    ).map(sum),
)


def _merged_bits(points, weights):
    return points.dtype, points.shape, points.tobytes(), weights.dtype, weights.tobytes()


def _near_tie_sets(dim):
    """Sets whose coordinates cluster within the merge tolerance, so keys tie between unequal values."""
    rows = st.lists(st.lists(_clustered, min_size=dim, max_size=dim), min_size=1, max_size=30)
    return rows.map(WeightedPointSet)


@settings(max_examples=100, deadline=None)
@given(small_pairs(dims=(1, 2, 3)), st.integers(1, 4), st.data())
def test_every_set_is_stored_by_x_then_by_merge_key(pair, k, data):
    levels = list(expand_levels(pair, k))
    assert levels[0] == WeightedPointSet(pair.digits.vectors)
    near = data.draw(_near_tie_sets(pair.dim))
    sets = [*levels, near, discrete_convolve(near, near), discrete_convolve(levels[-1], near)]
    for ps in sets:
        xs, keys = ps.points[:, 0], np.round(ps.points / MERGE_TOL).astype(np.int64).tolist()
        assert np.all(xs[1:] >= xs[:-1])
        assert all(keys[i] < keys[i + 1] for i in np.flatnonzero(xs[1:] == xs[:-1]))
        # rebuilding a set from its own arrays changes no bit
        again = WeightedPointSet(ps.points, ps.weights)
        assert _merged_bits(again.points, again.weights) == _merged_bits(ps.points, ps.weights)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_clustered, st.integers(1, 5)), min_size=1, max_size=30),
    st.lists(_clustered, min_size=1, max_size=4),
)
def test_1d_merge_equals_the_lexsort_merge_in_both_layouts(rows, shifts):
    # one level's points and weights as drawn, then shifted point by point and digit by digit
    xs = np.array([x for x, _ in rows])
    w = np.array([v for _, v in rows])
    c = np.array(shifts)
    level = np.argsort(xs, kind="stable")
    xs, w = xs[level], w[level]
    layouts = [
        (np.array([x for x, _ in rows]), np.array([v for _, v in rows])),
        ((xs[:, None] + c).ravel(), np.repeat(w, len(c))),
        ((c[:, None] + xs).ravel(), np.tile(w, len(c))),
    ]
    for points, weights in layouts:
        points = points[:, None]
        got = _canonicalize(points, weights)
        assert _merged_bits(*got) == _merged_bits(*canonicalize_by_lexsort(points, weights))


def test_1d_canonicalization_never_calls_lexsort(monkeypatch, doubling_pair, collision_pair):
    def lexsort(keys):
        raise AssertionError("np.lexsort was called")

    monkeypatch.setattr(np, "lexsort", lexsort)
    WeightedPointSet([3.0, -0.0, 0.0, 1.0, 1.0 + 4e-10], [1, 2, 3, 4, 5])
    expand_level(doubling_pair, 8)
    expand_level(collision_pair, 4)
    # the guard holds: a 2-D set still sorts by lexsort
    with pytest.raises(AssertionError, match="lexsort"):
        WeightedPointSet([[1.0, 0.0], [0.0, 1.0]])
