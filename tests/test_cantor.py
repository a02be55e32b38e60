"""Closed-form Cantor-family counting checked against brute enumeration."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dominance_anchor_by_anchor

from selfaffine import (
    REGIME_FRACTAL,
    BudgetExceeded,
    CantorPair,
    InvalidCoefficient,
    cantor_hausdorff,
    cantor_sdensity_sequence,
    count_upto,
    expand_level,
    interval_count,
    translation_dominance_check,
    upper_s_density_profile,
)
from selfaffine import cantor, pointset
from selfaffine.pointset import prefix_weights


def brute_points(N, d, m):
    """All length-m expansion sums, unsorted."""
    return [
        sum(r * N**j for j, r in enumerate(eps))
        for eps in itertools.product((0.0, d), repeat=m)
    ]


def brute_count_upto(N, d, coeffs):
    b = sum(r * N**j for j, r in enumerate(coeffs))
    return sum(1 for x in brute_points(N, d, len(coeffs)) if x <= b)


class TestCountUpto:
    def test_worked_example(self):
        cp = CantorPair(3, 2)
        # b = 2 + 0*3 + 2*9 = 20; points below: 0, 2, 6, 8, 18, 20
        assert count_upto(cp, (2.0, 0.0, 2.0)) == 6

    def test_zero_vector_counts_only_itself(self):
        cp = CantorPair(3, 2)
        assert count_upto(cp, (0.0,)) == 1
        assert count_upto(cp, (0.0, 0.0, 0.0)) == 1

    def test_single_digit(self):
        cp = CantorPair(3, 2)
        assert count_upto(cp, (2.0,)) == 2
        assert count_upto(cp, (2.0, 2.0)) == 4

    def test_trailing_zeros_do_not_change_the_count(self):
        # zero high-order coefficients add points above b only
        cp = CantorPair(3, 2)
        assert count_upto(cp, (2.0, 0.0, 2.0, 0.0, 0.0)) == 6

    def test_matches_enumeration(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            N = float(rng.choice([3, 4, 5]))
            d = float(rng.choice([0.5, 1.0, 2.0]))
            m = int(rng.integers(1, 11))
            coeffs = [float(rng.choice([0.0, d])) for _ in range(m)]
            cp = CantorPair(N, d)
            assert count_upto(cp, coeffs) == brute_count_upto(N, d, coeffs)

    def test_rejects_foreign_coefficient(self):
        cp = CantorPair(3, 2)
        with pytest.raises(InvalidCoefficient, match="position 1"):
            count_upto(cp, (2.0, 1.0))


class TestIntervalCount:
    def test_worked_example(self):
        cp = CantorPair(3, 2)
        assert interval_count(cp, 3, 0.0, 20.0) == 6

    def test_empty_gap(self):
        cp = CantorPair(3, 2)
        assert interval_count(cp, 3, 3.0, 5.0) == 0

    def test_full_support(self):
        cp = CantorPair(3, 2)
        assert interval_count(cp, 3, 0.0, 26.0) == 2**3

    def test_closed_endpoints(self):
        cp = CantorPair(3, 2)
        assert interval_count(cp, 3, 2.0, 8.0) == 3
        assert interval_count(cp, 3, 2.0, 2.0) == 1

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            interval_count(CantorPair(3, 2), 3, 5.0, 3.0)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            interval_count(CantorPair(3, 2), 20, 0.0, 1.0, cap=2**10)

    def test_matches_enumeration_on_random_intervals(self):
        cp = CantorPair(3, 0.5)
        pts = sorted(brute_points(3.0, 0.5, 5))
        rng = np.random.default_rng(62)
        for _ in range(20):
            a, b = sorted(rng.uniform(-5.0, 125.0, size=2))
            want = sum(1 for x in pts if a - 1e-9 <= x <= b + 1e-9)
            assert interval_count(cp, 5, a, b) == want


@st.composite
def dominance_sets(draw):
    """Sorted distinct integer or float coordinates, weights 1-3, as (xs, pref)."""
    if draw(st.booleans()):
        coordinate = st.integers(-30, 60).map(float)
    else:
        coordinate = st.floats(-30.0, 60.0)
    xs = np.array(sorted(draw(st.lists(coordinate, min_size=1, max_size=40, unique=True))))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(xs), max_size=len(xs)))
    return xs, np.concatenate([[0], np.cumsum(weights)])


class TestTranslationDominance:
    def test_holds_on_integer_grid(self):
        for N in (3, 4):
            for d in (1.0, 2.0):
                assert translation_dominance_check(CantorPair(N, d), 8) == (
                    True,
                    None,
                )

    def test_holds_at_every_small_level(self):
        cp = CantorPair(3, 1)
        for k in range(1, 9):
            holds, witness = translation_dominance_check(cp, k)
            assert holds and witness is None

    def test_counterexample_is_the_first_in_scan_order(self):
        xs = np.array([0.0, 4.0, 5.0, 9.0, 10.0])
        pref = np.arange(6)
        # [4, 5] holds 2 points and [0, 1] only 1; [9, 10] comes later
        assert cantor._dominance_scan(xs, pref) == (False, (4.0, 5.0))
        assert dominance_anchor_by_anchor(xs, pref) == (False, (4.0, 5.0))

    @settings(max_examples=300, deadline=None)
    # integer spans reach 91, so a cap up to 128 falls on either side of some
    @given(dominance_sets(), st.integers(1, 64), st.integers(1, 128))
    def test_blocked_scan_equals_anchor_loop(self, case, cells, cap):
        xs, pref = case
        with pytest.MonkeyPatch.context() as mp:
            # a few cells per block, so one scan spans many blocks
            mp.setattr(pointset, "_SCAN_CELLS", cells)
            got = cantor._dominance_scan(xs, pref, cap)
        assert got == dominance_anchor_by_anchor(xs, pref)

    @settings(max_examples=300, deadline=None)
    @given(dominance_sets(), st.integers(1, 64), st.integers(1, 128), st.sampled_from([1, 2, 4]))
    # the scan-order case: [4, 5] fails first, [9, 10] later
    @example((np.array([0.0, 4.0, 5.0, 9.0, 10.0]), np.arange(6)), 1, 1, 1)
    def test_tile_search_equals_anchor_loop(self, case, cells, cap, leaf):
        xs, pref = case
        with pytest.MonkeyPatch.context() as mp:
            # small leaves and batches, so one search spans many levels and batches
            mp.setattr(pointset, "_LEAF", leaf)
            mp.setattr(pointset, "_SCAN_CELLS", cells)
            got = cantor._dominance_scan(xs, pref, cap)
        assert got == dominance_anchor_by_anchor(xs, pref)

    @pytest.mark.parametrize("leaf", [1, 2, 8])
    def test_tile_search_proves_cantor_levels(self, monkeypatch, leaf):
        monkeypatch.setattr(pointset, "_LEAF", leaf)
        for N, d, k in [(3, 2, 9), (4, 3, 7), (3.5, 1, 7), (5, 1, 6)]:
            pts = expand_level(CantorPair(N, d).pair(), k)
            xs, pref = pts.coords(), prefix_weights(pts)
            assert cantor._dominance_scan(xs, pref) == dominance_anchor_by_anchor(xs, pref)

    def test_level_14_runs_within_the_default_cap(self, tile_work):
        runs = tile_work(cantor)
        assert translation_dominance_check(CantorPair(3, 2), 14) == (True, None)
        [(work, cap, finished)] = runs
        assert finished and work <= cap == 2**24

    def test_scan_past_the_cap_is_refused_before_the_work(self, tile_work):
        runs = tile_work(cantor)
        # mass 2**10 is within the cap; the scan's 144,213 units of work are not
        with pytest.raises(BudgetExceeded, match=r"dominance scan: \d+ tile bounds and leaf cells exceed cap 32768"):
            translation_dominance_check(CantorPair(3, 2), 10, cap=2**15)
        [(work, cap, finished)] = runs
        assert not finished and work <= cap == 2**15

    def test_integer_sets_read_a_rank_table_within_the_lookup_count(self, monkeypatch):
        tables = []
        search = cantor._search

        def recording(values, table, edges, side):
            tables.append(table is not None)
            return search(values, table, edges, side)

        monkeypatch.setattr(cantor, "_search", recording)
        # span 3**8 within 256 * 257 / 2 lookups; a non-integer set; span 4**8 beyond them
        for (N, d), table in [((3, 2), True), ((3.5, 1), False), ((4, 3), False)]:
            tables.clear()
            assert translation_dominance_check(CantorPair(N, d), 8) == (True, None)
            assert tables and set(tables) == {table}

    def test_rank_table_span_stays_within_cap(self, monkeypatch):
        spans = []
        rank_table = cantor._rank_table

        def recording(values, limit):
            table = rank_table(values, limit)
            spans.append(None if table is None else len(table) - 1)
            return table

        monkeypatch.setattr(cantor, "_rank_table", recording)
        cp = CantorPair(3, 2)
        pts = expand_level(cp.pair(), 8)
        expected = dominance_anchor_by_anchor(pts.coords(), prefix_weights(pts))
        # span 3**8 = 6561, within the 256 * 257 / 2 lookups: a cap below it
        # searches, and a cap of it builds the table
        for cap, span in [(256, None), (6560, None), (6561, 6561)]:
            spans.clear()
            assert translation_dominance_check(cp, 8, cap) == expected
            assert spans == [span]

    def test_memory_is_bounded(self):
        translation_dominance_check(CantorPair(3, 2), 6)  # first-call allocations stay out
        tracemalloc.start()
        try:
            translation_dominance_check(CantorPair(3, 2), 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks of _SCAN_CELLS cells and a rank table of 3**11 entries
        assert peak <= 4 * 2**20


class TestSdensitySequence:
    def test_middle_thirds_limit_is_one(self):
        values, limit = cantor_sdensity_sequence(CantorPair(3, 2), 12)
        assert limit == 1.0
        assert values[1][1] == pytest.approx(1.0771437066825633, rel=1e-12)

    def test_sequence_decreases_to_the_limit(self):
        # past m ~ 20 the terms fall within rounding of the limit, so keep
        # the strict-decrease check where doubles can still resolve it
        values, limit = cantor_sdensity_sequence(CantorPair(5, 2), 15)
        vs = [v for _, v in values]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        assert all(v > limit for v in vs)
        assert vs[-1] == pytest.approx(limit, rel=1e-5)

    def test_first_term(self):
        cp = CantorPair(3, 2)
        values, _ = cantor_sdensity_sequence(cp, 1)
        assert values == [(1, pytest.approx(2.0 / 2.0**cp.s, rel=1e-12))]

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            cantor_sdensity_sequence(CantorPair(3, 2), 0)

    def test_matches_interval_scan(self):
        # the scan over the level-8 expansion must find exactly the
        # extremal intervals [0, largest level-m point] at each threshold
        cp = CantorPair(3, 2)
        pts = expand_level(cp.pair(), 8)
        thresholds = [float(3**m - 1) for m in range(1, 9)]
        profile = upper_s_density_profile(pts, cp.s, thresholds)
        by_threshold = {e.threshold: e for e in profile.entries}
        values, _ = cantor_sdensity_sequence(cp, 8)
        for m, v in values:
            entry = by_threshold[float(3**m - 1)]
            assert entry.sup_value == pytest.approx(v, abs=1e-9)
            assert entry.argmax == pytest.approx((0.0, float(3**m - 1)))


class TestHausdorffMeasure:
    def test_middle_thirds_is_exactly_one(self):
        assert cantor_hausdorff(CantorPair(3, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_spread_copies_give_unit_measure(self):
        # d = N - 1 puts the two copies at the interval ends for any N
        assert cantor_hausdorff(CantorPair(4, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_family(self):
        assert cantor_hausdorff(CantorPair(4, 1)) == pytest.approx(
            3.0**-0.5, rel=1e-12
        )

    def test_wider_translation_raises_measure(self):
        assert cantor_hausdorff(CantorPair(3, 1)) < cantor_hausdorff(CantorPair(3, 2))

    def test_reciprocal_of_sequence_limit(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            cp = CantorPair(3.0 + 7.0 * rng.random(), 10.0 ** rng.uniform(-1, 1))
            _, limit = cantor_sdensity_sequence(cp, 1)
            assert cantor_hausdorff(cp) * limit == pytest.approx(1.0, abs=1e-12)


class TestCantorPair:
    def test_rejects_small_scaling(self):
        with pytest.raises(ValueError, match="at least 3"):
            CantorPair(2.5, 1.0)

    def test_rejects_nonpositive_translation(self):
        with pytest.raises(ValueError):
            CantorPair(3, 0.0)
        with pytest.raises(ValueError):
            CantorPair(3, -1.0)

    def test_similarity_dimension(self):
        assert CantorPair(4, 1).s == 0.5

    def test_pair_is_fractal_regime(self):
        pair = CantorPair(3, 2).pair()
        assert pair.dim == 1
        assert pair.m == 2
        assert pair.regime == REGIME_FRACTAL
        assert sorted(pair.digits.vectors[:, 0]) == [0.0, 2.0]
