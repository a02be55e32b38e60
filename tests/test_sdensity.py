"""Interval s-density scans, discrete convolution, sampling, renormalization."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    chaos_game_1d_block_by_block,
    chaos_game_nd_step_by_step,
    check_renormalization_every_point,
)
from strategies import small_pairs

from selfaffine import (
    DEFAULT_CAP,
    BudgetExceeded,
    DimensionMismatch,
    UnsupportedDimension,
    WeightedPointSet,
    check_renormalization,
    discrete_convolve,
    expand_level,
    hausdorff_from_sdensity,
    interval_value,
    natural_thresholds,
    sample_self_similar_measure,
    sdensity,
    upper_s_density_profile,
    validate_pair,
)
from selfaffine import pointset
from selfaffine.attractor import invariant_radius
from selfaffine.pointset import prefix_weights
from selfaffine.sdensity import ChaosGame, MeasureSample

S_CANTOR = math.log(2) / math.log(3)


def brute_sdensity(pts, s, r):
    """Exhaustive scan of all point-bounded intervals of diameter >= r."""
    xs = pts.points[:, 0]
    best = None
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            diam = xs[j] - xs[i]
            if diam < r * (1 - 1e-12):
                continue
            mass = int(pts.weights[i : j + 1].sum())
            value = mass / diam**s
            if best is None or value > best:
                best = value
    return best


def loop_sdensity(pts, s, thresholds, level=None):
    """The original per-threshold anchor loop, kept verbatim as the reference."""
    xs = pts.coords()
    pref = prefix_weights(pts)
    total = pref[-1]
    entries = []
    for r in sorted(float(t) for t in thresholds):
        r_adm = r * (1.0 - sdensity.THRESHOLD_TOL)
        best = -np.inf
        best_count = 0
        best_pair = None
        for i in range(len(xs)):
            # every admissible interval from i has value <= remaining / r_adm^s
            if (total - pref[i]) / r_adm**s <= best:
                break
            j0 = np.searchsorted(xs, xs[i] + r_adm, side="left")
            if j0 >= len(xs):
                continue
            counts = pref[j0 + 1 :] - pref[i]
            lengths = xs[j0:] - xs[i]
            values = counts / lengths**s
            j = int(np.argmax(values))
            if values[j] > best:
                best = float(values[j])
                best_count = int(counts[j])
                best_pair = (float(xs[i]), float(xs[j0 + j]))
        if best_pair is not None:
            entries.append(
                sdensity.SDensityEntry(
                    threshold=r,
                    sup_value=best,
                    sup_count=best_count,
                    argmax=best_pair,
                )
            )
    return sdensity.SDensityEstimate(
        s=s,
        entries=tuple(entries),
        level=level,
        max_multiplicity=int(pts.weights.max()),
    )


def test_cantor_level_2_example(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 2)
    assert pts.points.ravel().tolist() == [0.0, 2.0, 6.0, 8.0]
    prof = upper_s_density_profile(pts, S_CANTOR, [8.0])
    entry = prof.entries[0]
    assert entry.sup_count == 4
    assert entry.sup_value == pytest.approx(4 / 8**S_CANTOR)
    assert entry.argmax == (0.0, 8.0)
    assert entry.sup_value == pytest.approx(1.0771, abs=1e-4)


def test_single_point_has_no_entry():
    pts = WeightedPointSet([5.0])
    prof = upper_s_density_profile(pts, 0.5, [1.0])
    assert prof.entries == ()


def test_cantor_level_12_limit(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 12)
    prof = upper_s_density_profile(pts, S_CANTOR, [1000.0])
    assert 1.0 <= prof.entries[0].sup_value <= 1.01


def test_matches_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = rng.integers(2, 60)
        pts = WeightedPointSet(
            rng.uniform(0, 20, size=n), rng.integers(1, 4, size=n)
        )
        extent = float(pts.points[-1, 0] - pts.points[0, 0])
        if extent == 0:
            continue
        for r in (extent / 7, extent / 2, extent):
            expected = brute_sdensity(pts, 0.7, r)
            prof = upper_s_density_profile(pts, 0.7, [r])
            if expected is None:
                assert prof.entries == ()
            else:
                assert prof.entries[0].sup_value == pytest.approx(expected)


def test_sup_nonincreasing_in_threshold(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 8)
    prof = upper_s_density_profile(pts, S_CANTOR, natural_thresholds(pts))
    values = [e.sup_value for e in prof.entries]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_argmax_interval_is_admissible(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 8)
    prof = upper_s_density_profile(pts, S_CANTOR, natural_thresholds(pts))
    support = set(pts.points.ravel().tolist())
    for e in prof.entries:
        lo, hi = e.argmax
        assert lo in support and hi in support
        assert hi - lo >= e.threshold * (1 - 1e-9)


def test_s_validation(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 3)
    with pytest.raises(ValueError):
        upper_s_density_profile(pts, 0.0, [1.0])
    with pytest.raises(ValueError):
        upper_s_density_profile(pts, 1.5, [1.0])


def test_dimension_guard(twin_dragon_pair):
    pts = expand_level(twin_dragon_pair, 3)
    with pytest.raises(UnsupportedDimension):
        upper_s_density_profile(pts, 0.5, [1.0])


def test_s_equal_one_brackets_window_density():
    # at s=1 both scans optimize mass over length.  When the optimal window
    # is point-bounded it is itself an admissible interval, so the interval
    # sup dominates; covering any interval by ceil(diam/N) windows bounds it
    # above by twice the window sup.
    from selfaffine import WindowSchedule, upper_density_profile

    rng = np.random.default_rng(48)
    for _ in range(30):
        n = rng.integers(2, 100)
        pts = WeightedPointSet(
            rng.integers(0, 200, size=n).astype(float), rng.integers(1, 4, size=n)
        )
        extent = float(pts.points[-1, 0] - pts.points[0, 0])
        if extent < 4:
            continue
        size = float(rng.integers(2, int(extent)))
        window = upper_density_profile(pts, WindowSchedule((size,))).entries[0]
        interval = upper_s_density_profile(pts, 1.0, [size]).entries[0]
        assert interval.sup_value <= 2 * window.sup_value + 1e-12
        left_edge = window.argmax_center[0] - size / 2
        xs = pts.points[:, 0]
        if np.any(np.abs(xs - (left_edge + size)) < 1e-9):
            assert interval.sup_value >= window.sup_value - 1e-12


def test_hausdorff_from_profile(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 12)
    prof = upper_s_density_profile(pts, S_CANTOR, natural_thresholds(pts))
    measure = hausdorff_from_sdensity(prof)
    assert not measure.divergent
    assert 0.99 <= measure.value <= 1.0


def test_hausdorff_divergent_on_collision(collision_pair):
    pts = expand_level(collision_pair, 6)
    prof = upper_s_density_profile(pts, 1.0, natural_thresholds(pts))
    measure = hausdorff_from_sdensity(prof)
    assert measure.divergent and measure.value == 0.0


def test_interval_value(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 2)
    assert interval_value(pts, 0.0, 8.0, S_CANTOR) == pytest.approx(4 / 8**S_CANTOR)
    with pytest.raises(ValueError):
        interval_value(pts, 3.0, 3.0, S_CANTOR)


def test_convolve_dirac_identity():
    b = WeightedPointSet([0.0, 3.0, 7.0], [1, 2, 5])
    dirac = WeightedPointSet([0.0])
    assert discrete_convolve(dirac, b) == b
    assert discrete_convolve(b, dirac) == b


def test_convolve_example_no_merge():
    a = WeightedPointSet([0.0, 2.0])
    b = WeightedPointSet([0.0, 6.0])
    out = discrete_convolve(a, b)
    assert out.points.ravel().tolist() == [0.0, 2.0, 6.0, 8.0]
    assert out.weights.tolist() == [1, 1, 1, 1]


def test_convolve_binomial_merge():
    a = WeightedPointSet([0.0, 8.0])
    out = discrete_convolve(a, a)
    assert out.points.ravel().tolist() == [0.0, 8.0, 16.0]
    assert out.weights.tolist() == [1, 2, 1]


def test_convolve_dimension_mismatch():
    a = WeightedPointSet([0.0])
    b = WeightedPointSet([[0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        discrete_convolve(a, b)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
def test_convolve_commutes_and_multiplies_mass(xs, ys):
    a = WeightedPointSet([float(v) for v in xs])
    b = WeightedPointSet([float(v) for v in ys])
    ab = discrete_convolve(a, b)
    assert ab == discrete_convolve(b, a)
    assert ab.total_mass == a.total_mass * b.total_mass


def test_expansion_equals_convolution_fold(collision_pair):
    k = 3
    b = collision_pair.matrix.entries
    acc = WeightedPointSet(collision_pair.digits.vectors)
    for j in range(1, k):
        shifted = WeightedPointSet(
            collision_pair.digits.vectors @ np.linalg.matrix_power(b, j).T
        )
        acc = discrete_convolve(acc, shifted)
    assert acc == expand_level(collision_pair, k)


def test_sampler_deterministic(cantor_pair_32):
    a = sample_self_similar_measure(cantor_pair_32, 500, seed=9)
    b = sample_self_similar_measure(cantor_pair_32, 500, seed=9)
    assert np.array_equal(a.points, b.points)
    c = sample_self_similar_measure(cantor_pair_32, 500, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_sampler_single_step():
    pair = validate_pair([[3.0]], [[0.0], [2.0]])
    sample = sample_self_similar_measure(pair, 1, seed=0, burn_in=0)
    assert sample.points.shape == (1, 1)
    assert sample.points[0, 0] in (0.0, pytest.approx(2 / 3))


def test_sampler_stays_in_attractor_box(cantor_pair_32):
    sample = sample_self_similar_measure(cantor_pair_32, 5000, seed=4)
    xs = sample.points[:, 0]
    assert xs.min() >= 0.0 and xs.max() <= 1.0


def test_cylinder_masses(cantor_pair_32):
    n = 100_000
    sample = sample_self_similar_measure(cantor_pair_32, n, seed=7)
    xs = sample.points[:, 0]
    sigma = 3 * math.sqrt(0.25 / n)
    assert abs(np.mean(xs <= 2 / 3) - 0.5) <= sigma
    assert abs(np.mean(xs <= 2 / 9) - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n)


def test_uniform_sampler_mean(doubling_pair):
    sample = sample_self_similar_measure(doubling_pair, 100_000, seed=5)
    # sigma of the mean for Uniform[0,1] is 1/sqrt(12 n)
    assert abs(sample.points.mean() - 0.5) <= 3 / math.sqrt(12 * 100_000)


def test_sampler_2d_matches_direct_iteration(twin_dragon_pair):
    sample = sample_self_similar_measure(twin_dragon_pair, 50, seed=3, burn_in=0)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 2, size=50)
    binv = np.linalg.inv([[1.0, -1.0], [1.0, 1.0]])
    x = np.zeros(2)
    expected = []
    for t in range(50):
        x = binv @ (x + twin_dragon_pair.digits.vectors[idx[t]])
        expected.append(x.copy())
    assert np.allclose(sample.points, expected, atol=1e-12)


def test_sampler_1d_blocked_evaluation_matches_naive(cantor_pair_32):
    # spans several 128-step blocks to exercise the carry term
    sample = sample_self_similar_measure(cantor_pair_32, 300, seed=11, burn_in=5)
    rng = np.random.default_rng(11)
    idx = rng.integers(0, 2, size=305)
    x = 0.0
    expected = []
    for t in range(305):
        x = (x + [0.0, 2.0][idx[t]]) / 3.0
        expected.append(x)
    assert np.allclose(sample.points[:, 0], expected[5:], atol=1e-12)


def test_renorm_cantor_example(cantor_pair_32):
    sample = sample_self_similar_measure(cantor_pair_32, 100_000, seed=21)
    check = check_renormalization(cantor_pair_32, (0.0, 2.0), 1, sample)
    assert check.rhs == pytest.approx(0.5)  # (sigma([0,2]) + sigma([-2,0])) / 2
    assert abs(check.lhs - check.rhs) <= 3 * check.stderr


def test_renorm_uniform_example(doubling_pair):
    sample = sample_self_similar_measure(doubling_pair, 100_000, seed=22)
    check = check_renormalization(doubling_pair, (0.0, 1.0), 2, sample)
    assert check.rhs == pytest.approx(0.25, abs=1e-2)
    assert abs(check.lhs - check.rhs) <= 3 * check.stderr


def test_renorm_disjoint_window(cantor_pair_32):
    sample = sample_self_similar_measure(cantor_pair_32, 10_000, seed=23)
    check = check_renormalization(cantor_pair_32, (50.0, 51.0), 1, sample)
    assert check.lhs == 0.0 and check.rhs == 0.0


def test_renorm_2d(twin_dragon_pair):
    sample = sample_self_similar_measure(twin_dragon_pair, 50_000, seed=24)
    window = (np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    check = check_renormalization(twin_dragon_pair, window, 2, sample)
    assert abs(check.lhs - check.rhs) <= 3 * max(check.stderr, 1e-6)


@pytest.mark.parametrize("window", [(0.0, 0.5), ([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]),
                                    ([0.0, 0.0], 0.5), ([[0.0, 0.0]], [[0.5, 0.5]])])
def test_renorm_refuses_a_window_of_another_dimension(twin_dragon_pair, window):
    sample = sample_self_similar_measure(twin_dragon_pair, 100, seed=24)
    with pytest.raises(DimensionMismatch, match="one value per axis of the 2-D pair"):
        check_renormalization(twin_dragon_pair, window, 1, sample)


@pytest.mark.parametrize("window", [(0.0, 0.5, 1.0), 0.5, (0.5,)])
def test_renorm_refuses_a_window_that_is_not_a_pair(cantor_pair_32, window):
    sample = sample_self_similar_measure(cantor_pair_32, 100, seed=24)
    with pytest.raises(DimensionMismatch, match="window must be a"):
        check_renormalization(cantor_pair_32, window, 1, sample)


@pytest.mark.parametrize("window", [(math.nan, 0.5), (0.0, math.inf), (-math.inf, 0.5)])
def test_renorm_refuses_a_non_finite_window(cantor_pair_32, window):
    sample = sample_self_similar_measure(cantor_pair_32, 100, seed=24)
    with pytest.raises(ValueError, match="window bounds must be finite"):
        check_renormalization(cantor_pair_32, window, 1, sample)


def test_smoothing_changes_profile_little(cantor_pair_32):
    # statistical convolution-invariance: smooth mu_k by sigma samples and
    # compare the largest-threshold sup
    k = 6
    pts = expand_level(cantor_pair_32, k)
    thresholds = [float(pts.points[-1, 0] - pts.points[0, 0])]
    base = upper_s_density_profile(pts, S_CANTOR, thresholds).entries[0].sup_value
    sample = sample_self_similar_measure(cantor_pair_32, 200, seed=12)
    shifts = np.repeat(pts.points, len(sample.points), axis=0)
    noise = np.tile(sample.points, (len(pts.points), 1))
    weights = np.repeat(pts.weights, len(sample.points))
    smoothed = WeightedPointSet(shifts + noise, weights)
    value = (
        upper_s_density_profile(smoothed, S_CANTOR, thresholds).entries[0].sup_value
        / len(sample.points)
    )
    assert value == pytest.approx(base, rel=0.05)


@st.composite
def scan_cases(draw):
    """A weighted 1-D set, an exponent, and thresholds that hit its edge cases."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # integer lattice: many equal gaps, so exact ties between intervals
        coords = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    else:
        coords = draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n)
        )
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pts = WeightedPointSet([float(c) for c in coords], weights)
    xs = pts.coords()
    extent = float(xs[-1] - xs[0])
    gaps = sorted({float(b - a) for a in xs for b in xs if b > a}) or [1.0]
    thresholds = draw(
        st.lists(
            st.one_of(
                st.sampled_from(gaps),
                st.floats(1e-3, 1.2 * extent + 1.0),
                st.sampled_from([extent + 1.0, 2 * extent + 5.0]),
            ),
            max_size=8,
        )
    )
    if thresholds and draw(st.booleans()):
        thresholds.append(thresholds[0])
    s = draw(st.one_of(st.sampled_from([1.0, 0.5, S_CANTOR]), st.floats(0.05, 1.0)))
    return pts, s, thresholds


@settings(max_examples=300, deadline=None)
@given(case=scan_cases(), cells=st.integers(1, 64), leaf=st.sampled_from([1, 2, 4]))
def test_tile_search_equals_threshold_loop(case, cells, leaf):
    pts, s, thresholds = case
    with pytest.MonkeyPatch.context() as mp:
        # small leaves and batches, so one search spans many levels and batches
        mp.setattr(pointset, "_LEAF", leaf)
        mp.setattr(pointset, "_SCAN_CELLS", cells)
        got = upper_s_density_profile(pts, s, thresholds, level=3)
    assert got == loop_sdensity(pts, s, thresholds, level=3)


@pytest.mark.parametrize("cells", [1, 37, 2**16])
def test_search_batches_equal_threshold_loop_on_cantor(cantor_pair_32, monkeypatch, cells):
    monkeypatch.setattr(pointset, "_SCAN_CELLS", cells)
    for k in range(1, 10):
        pts = expand_level(cantor_pair_32, k)
        thresholds = [*natural_thresholds(pts), 2.0, 26.0, 3.0**k - 1]
        got = upper_s_density_profile(pts, S_CANTOR, thresholds, level=k)
        assert got == loop_sdensity(pts, S_CANTOR, thresholds, level=k)


@pytest.mark.parametrize("leaf", [1, 2, 8])
def test_tile_search_equals_threshold_loop_on_cantor(cantor_pair_32, monkeypatch, leaf):
    monkeypatch.setattr(pointset, "_LEAF", leaf)
    for k in range(1, 10):
        pts = expand_level(cantor_pair_32, k)
        thresholds = [*natural_thresholds(pts), 2.0, 26.0, 3.0**k - 1]
        got = upper_s_density_profile(pts, S_CANTOR, thresholds, level=k)
        assert got == loop_sdensity(pts, S_CANTOR, thresholds, level=k)


def _pass_cells(pts, thresholds):
    """Cells a pass over every interval visits: each right end admissible at the smallest threshold."""
    xs = pts.coords()
    r = min(thresholds) * (1.0 - sdensity.THRESHOLD_TOL)
    return int((len(xs) - np.searchsorted(xs, xs + r, side="left")).sum())


def test_cantor_search_evaluates_under_a_percent_of_the_pass(cantor_pair_32, tile_work):
    runs = tile_work(sdensity)
    pts = expand_level(cantor_pair_32, 14)
    thresholds = natural_thresholds(pts)
    upper_s_density_profile(pts, S_CANTOR, thresholds)
    [(work, _, finished)] = runs
    assert finished and work < 0.01 * _pass_cells(pts, thresholds)


def test_near_tied_search_finishes_at_level_12_under_the_default_cap(doubling_pair, tile_work):
    # at s = 1 every long interval of the doubling tile is within a point of
    # the best, so bounds prune almost nothing
    runs = tile_work(sdensity)
    pts = expand_level(doubling_pair, 12)
    thresholds = natural_thresholds(pts)
    got = upper_s_density_profile(pts, 1.0, thresholds)
    [(work, cap, finished)] = runs
    assert finished and work <= cap == DEFAULT_CAP
    assert got == loop_sdensity(pts, 1.0, thresholds)


def test_near_tied_search_past_the_cap_is_refused(doubling_pair, tile_work):
    runs = tile_work(sdensity)
    pts = expand_level(doubling_pair, 10)
    thresholds = natural_thresholds(pts)
    # a cap below the floor of 2**15 lets the search spend the floor and no more
    with pytest.raises(BudgetExceeded) as refused:
        upper_s_density_profile(pts, 1.0, thresholds, cap=2**10)
    [(work, cap, finished)] = runs
    assert not finished and cap == 2**10 and work <= 2**15
    spent = re.fullmatch(r"s-density scan: (\d+) tile bounds and leaf cells exceed cap 32768",
                         str(refused.value))
    assert spent and int(spent.group(1)) > 2**15


def test_search_runs_at_a_cap_equal_to_its_work(doubling_pair, tile_work):
    runs = tile_work(sdensity)
    pts = expand_level(doubling_pair, 10)
    thresholds = natural_thresholds(pts)
    upper_s_density_profile(pts, 1.0, thresholds)
    [(cap, _, _)] = runs
    assert cap > 2**15
    got = upper_s_density_profile(pts, 1.0, thresholds, cap=cap)
    assert got == loop_sdensity(pts, 1.0, thresholds)
    with pytest.raises(BudgetExceeded, match=rf"s-density scan: .* exceed cap {cap - 1}$"):
        upper_s_density_profile(pts, 1.0, thresholds, cap=cap - 1)


@pytest.mark.parametrize("bad", [[0.0], [-1.0], [math.nan], [4.0, 0.0, 2.0]])
def test_nonpositive_threshold_rejected(cantor_pair_32, bad):
    pts = expand_level(cantor_pair_32, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="thresholds must be positive"):
            upper_s_density_profile(pts, S_CANTOR, bad)


def test_level_12_scan_memory_is_bounded(cantor_pair_32):
    pts = expand_level(cantor_pair_32, 12)
    thresholds = natural_thresholds(pts)
    tracemalloc.start()
    try:
        upper_s_density_profile(pts, S_CANTOR, thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_refused_near_tied_scan_memory_is_bounded(doubling_pair):
    # the first right ends, one intp table of 9 x 2**16 entries (4.5 MiB), are
    # built a threshold at a time, with no table-sized float temporaries
    pts = expand_level(doubling_pair, 16)
    thresholds = natural_thresholds(pts)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="s-density scan"):
            upper_s_density_profile(pts, 1.0, thresholds, cap=2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_threshold_admitting_zero_length_interval_rejected():
    # 1e-6 + 1e-300 rounds back to 1e-6: the interval [1e-6, 1e-6] would be admitted
    pts = WeightedPointSet([0, 1e-6, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="threshold 1e-300 admits an interval of length 0"):
            upper_s_density_profile(pts, 0.5, [1e-300, 0.5])
    assert upper_s_density_profile(pts, 0.5, [1e-12]).entries[0].argmax == (0.0, 1e-6)


# |B| = 1.05 keeps binv**128 near 0.002, so the carry between blocks counts
@pytest.mark.parametrize(
    "b,digits", [(3, [0, 2]), (-2, [0, 1]), (2, [0, 1]), (4, [0, 1, 2, 8]), (-1.05, [0, 1])]
)
@pytest.mark.parametrize(
    "steps",
    # one step, one block and its neighbours, one square of 128 blocks, and a
    # run of several squares with a tail block
    [1, 127, 128, 129, 128 * 128, 128 * 300, 128 * 300 + 77],
)
def test_chaos_game_equals_block_by_block_loop(b, digits, steps):
    pair = validate_pair([[float(b)]], [[float(d)] for d in digits])
    binv = float(pair.matrix.inverse[0, 0])
    vectors = pair.digits.vectors[:, 0]
    idx = np.random.default_rng(steps).integers(0, pair.m, size=steps)
    # the stream draws its indices square by square from the same seed
    game = sdensity._chaos_game_1d(binv, vectors, np.random.default_rng(steps), steps)
    got = np.concatenate(list(game))
    # bit for bit, signed zeros included
    assert got.tobytes() == chaos_game_1d_block_by_block(binv, vectors, idx).tobytes()


class RecordingGenerator:
    """A numpy generator that keeps every array of digit indices it draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, *args, **kwargs):
        self.draws.append(self.rng.integers(*args, **kwargs))
        return self.draws[-1]


@settings(max_examples=60, deadline=None)
@given(
    small_pairs(dims=(2, 3)),
    st.sampled_from(["one", "block - 1", "block", "block + 1", "square + 3"]),
    st.integers(0, 2**32 - 1),
)
def test_blocked_chaos_game_equals_step_by_step_loop(pair, length, seed):
    block = sdensity._block_steps(pair.dim)
    steps = {"one": 1, "block - 1": block - 1, "block": block, "block + 1": block + 1,
             "square + 3": sdensity._BLOCK**2 + 3}[length]
    inv, digits = pair.matrix.inverse, pair.digits.vectors
    got_rng, loop_rng = RecordingGenerator(seed), RecordingGenerator(seed)
    got = list(sdensity._chaos_game_nd(inv, digits, got_rng, steps))
    expected = list(chaos_game_nd_step_by_step(inv, digits, loop_rng, steps))
    # the same squares, drawn from the same digit indices chunk by chunk
    assert [square.shape for square in got] == [square.shape for square in expected]
    assert len(got_rng.draws) == len(loop_rng.draws)
    for a, b in zip(got_rng.draws, loop_rng.draws):
        assert np.array_equal(a, b)
    # every iterate within a few ulp of the attractor's radius (at most 2.9
    # ulp over 1,900 drawn pairs)
    tol = 8 * np.finfo(float).eps * invariant_radius(pair)
    for a, b in zip(got, expected):
        assert np.abs(a - b).max() <= tol


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 9, 300])
def test_block_matrix_of_the_chaos_game_stays_bounded(dim):
    block = sdensity._block_steps(dim)
    # at most 2 * _BLOCK rows, or one step when the dimension alone exceeds that
    assert block * dim <= 2 * sdensity._BLOCK or block == 1
    # blocks tile a square, so that only the last square has a shorter block
    assert sdensity._BLOCK**2 % block == 0
    if dim <= 9:
        pair = validate_pair(2 * np.eye(dim), [np.zeros(dim), np.eye(dim)[0], np.ones(dim)])
        steps = 3 * block + 5
        got = sdensity._chaos_game_nd(pair.matrix.inverse, pair.digits.vectors,
                                      np.random.default_rng(dim), steps)
        loop = chaos_game_nd_step_by_step(pair.matrix.inverse, pair.digits.vectors,
                                          np.random.default_rng(dim), steps)
        tol = 8 * np.finfo(float).eps * invariant_radius(pair)
        assert np.abs(np.concatenate(list(got)) - np.concatenate(list(loop))).max() <= tol


@pytest.mark.parametrize("b,digits", [(3, [0, 2]), (-2, [0, 1])])
def test_renorm_equals_every_point_check_on_left_hand_edge_windows(b, digits):
    # edges on B^N x_i, and one ulp to either side of it, with B^N = 3, 27, -2
    # and -8; one sample is NaN
    pair = validate_pair([[float(b)]], [[float(d)] for d in digits])
    points = sample_self_similar_measure(pair, 3000, seed=37).points.copy()
    points[17, 0] = np.nan
    sample = MeasureSample(points=points, seed=37, count=3000)
    for steps in (1, 3):
        y = points[:, 0] * np.linalg.matrix_power(pair.matrix.entries, steps)[0, 0]
        order = np.argsort(y)  # the NaN sorts last
        for i in (order[0], order[1000], order[-2]):
            for edge in (np.nextafter(y[i], -np.inf), y[i], np.nextafter(y[i], np.inf)):
                for window in [(edge, edge + 1.0), (edge - 1.0, edge)]:
                    got = check_renormalization(pair, window, steps, sample)
                    assert got == check_renormalization_every_point(pair, window, steps, sample)


def test_renorm_equals_every_point_check_on_edge_windows(cantor_pair_32):
    sample = sample_self_similar_measure(cantor_pair_32, 2000, seed=31)
    x = sample.points[:, 0]
    p = expand_level(cantor_pair_32, 3).points[:, 0]
    lo, hi = x.min() + p, x.max() + p
    windows = [
        (50.0, 51.0),  # misses every shifted sample
        (-1.0, 30.0),  # holds every shifted sample
        (0.0, 0.5),
        (lo[1], hi[1]),  # edges on one point's shifted extremes
        (lo[1], hi[3]),
        (hi[1], lo[2]),
        (np.nextafter(hi[1], np.inf), np.nextafter(lo[2], -np.inf)),
        (np.nextafter(lo[1], np.inf), np.nextafter(hi[1], -np.inf)),
        (lo[1], np.nextafter(hi[1], -np.inf)),  # one sample past an edge
        (np.nextafter(lo[1], np.inf), hi[1]),
    ]
    for window in windows:
        for steps in (1, 3):
            got = check_renormalization(cantor_pair_32, window, steps, sample)
            assert got == check_renormalization_every_point(cantor_pair_32, window, steps, sample)


@settings(max_examples=100, deadline=None)
@given(small_pairs(), st.integers(1, 3), st.integers(0, 99), st.data())
def test_renorm_equals_every_point_check(pair, steps, seed, data):
    sample = sample_self_similar_measure(pair, 300, seed=seed)
    x = sample.points
    mu = expand_level(pair, steps)
    lo, hi = [], []
    for a in range(pair.dim):
        # edges drawn from the shifted sample extremes, or anywhere
        shifted = np.concatenate([x[:, a].min() + mu.points[:, a], x[:, a].max() + mu.points[:, a]])
        edge = st.one_of(st.sampled_from(shifted.tolist()), st.floats(-8.0, 8.0))
        ends = sorted(data.draw(st.lists(edge, min_size=2, max_size=2, unique=True)))
        lo.append(ends[0])
        hi.append(ends[1])
    window = (np.array(lo), np.array(hi))
    got = check_renormalization(pair, window, steps, sample)
    assert got == check_renormalization_every_point(pair, window, steps, sample)


@pytest.mark.parametrize("axis", [0, -1])
def test_renorm_with_a_nan_sample_equals_every_point_check(cantor_pair_32, twin_dragon_pair, axis):
    for pair, window in [
        (cantor_pair_32, (0.0, 0.5)),
        (twin_dragon_pair, (np.array([-0.3, -0.2]), np.array([0.4, 0.5]))),
    ]:
        points = sample_self_similar_measure(pair, 500, seed=5).points.copy()
        points[17, axis] = np.nan
        sample = MeasureSample(points=points, seed=5, count=500)
        got = check_renormalization(pair, window, 2, sample)
        assert got == check_renormalization_every_point(pair, window, 2, sample)


def test_renorm_tests_only_the_points_whose_shifted_sample_straddles_the_window(
    cantor_pair_32, monkeypatch
):
    calls = []
    in_box = sdensity._in_box

    def counting(points, lo, hi):
        calls.append(len(points))
        return in_box(points, lo, hi)

    monkeypatch.setattr(sdensity, "_in_box", counting)
    sample = sample_self_similar_measure(cantor_pair_32, 10_000, seed=3)
    check_renormalization(cantor_pair_32, (0.0, 0.5), 4, sample)
    # the left-hand side and p = 0: the other 15 level-4 points are at least 2
    # and shift the sample, which lies in [0, 1], past the window (17 calls
    # when every point was tested)
    assert calls == [10_000, 10_000]


def test_renorm_with_every_shifted_block_inside_makes_only_the_left_hand_test(
    cantor_pair_32, monkeypatch
):
    calls = []
    in_box = sdensity._in_box

    def counting(points, lo, hi):
        calls.append(len(points))
        return in_box(points, lo, hi)

    monkeypatch.setattr(sdensity, "_in_box", counting)
    sample = sample_self_similar_measure(cantor_pair_32, 10_000, seed=3)
    # the level-3 points lie in [0, 26], so every shifted sample lies in [0, 27]
    check = check_renormalization(cantor_pair_32, (-1.0, 30.0), 3, sample)
    assert calls == [10_000]
    assert check.lhs == check.rhs == 1.0


def test_renorm_refuses_box_tests_past_the_cap_before_running_them(doubling_pair, monkeypatch):
    sample = sample_self_similar_measure(doubling_pair, 20_000, seed=3)

    def refused(points, lo, hi):
        raise AssertionError("a box test ran")

    monkeypatch.setattr(sdensity, "_in_box", refused)
    # p = 0 and p = 1 both straddle the window: the first block's 2 + 2 * 16384
    # tests pass the 2**15 floor
    with pytest.raises(BudgetExceeded, match=r"^renormalization check: 32770 box tests exceed cap 32768$"):
        check_renormalization(doubling_pair, (0.5, 1.5), 1, sample, cap=2**10)
    monkeypatch.undo()
    # both blocks: 32770 + 2 + 2 * 3616 tests
    check_renormalization(doubling_pair, (0.5, 1.5), 1, sample, cap=40_004)
    with pytest.raises(BudgetExceeded, match="40004 box tests exceed cap 40003"):
        check_renormalization(doubling_pair, (0.5, 1.5), 1, sample, cap=40_003)


def test_renorm_of_one_sample_is_refused(cantor_pair_32):
    sample = sample_self_similar_measure(cantor_pair_32, 1, seed=0)
    for drawn in (sample, ChaosGame(cantor_pair_32, 1, seed=0)):
        with pytest.raises(ValueError, match="the paired standard error needs at least 2 samples"):
            check_renormalization(cantor_pair_32, (0.0, 0.5), 1, drawn)


def test_sample_of_another_count_than_its_points_is_refused():
    for points, count in [(np.zeros((3, 1)), 4), (np.zeros(3), 3)]:
        with pytest.raises(ValueError, match="points must be a 2-D array of count rows"):
            MeasureSample(points=points, seed=0, count=count)


def test_renorm_of_one_row_blocks_equals_every_point_check():
    # a non-integral B**2, whose one-row products can round apart from the whole
    # product's rows: burn-in 16384 leaves a one-row last block for slices and
    # for the stream, and burn-in 16383 a one-row first block for the stream
    pair = validate_pair([[1.3, -0.7], [0.6, 1.55]], [[0.0, 0.0], [1.0, 0.25], [-0.5, 0.75]])
    bn = np.linalg.matrix_power(pair.matrix.entries, 2)
    for burn_in, count in [(16384, 16385), (16383, 16386)]:
        sample = sample_self_similar_measure(pair, count, seed=19, burn_in=burn_in)
        game = ChaosGame(pair, count, seed=19, burn_in=burn_in)
        y = sample.points @ bn.T
        # window edges on the whole product's first and last rows
        for row in (y[0], y[-1]):
            for window in [(row, row + 1.0), (row - 1.0, row)]:
                expected = check_renormalization_every_point(pair, window, 2, sample)
                assert check_renormalization(pair, window, 2, sample) == expected
                assert check_renormalization(pair, window, 2, game) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 10**5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["normal", "indicator", "wide"]),
)
def test_std_in_place_equals_numpy_std(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        a = rng.normal(rng.uniform(-1e6, 1e6), rng.uniform(1e-6, 1e3), size=n)
    elif kind == "indicator":
        # as in the renormalization check: a 0-1 indicator minus weights over m**N
        a = rng.integers(0, 2, size=n) - rng.integers(0, 17, size=n) / 16.0
    else:
        a = rng.lognormal(0.0, 20.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    expected = np.std(a, ddof=1)
    got = sdensity._std_in_place(a.copy())
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def sampler_and_renorm_peaks(pair):
    """The 10**6-sample sample and the peaks of sampling it and of checking it, sample held."""
    sample_self_similar_measure(pair, 1000, seed=7)  # first-call allocations stay out
    tracemalloc.start()
    try:
        sample = sample_self_similar_measure(pair, 1_000_000, seed=7)
        sampled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        check_renormalization(pair, (0.0, 0.5), 4, sample)
        checked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sample, sampled, checked


def test_sampler_and_renorm_memory_is_bounded(cantor_pair_32):
    _, sampled, checked = sampler_and_renorm_peaks(cantor_pair_32)
    # the peaks of the block-by-block sampler (23.15 MiB) and of the check
    # that tested every point (38.16 MiB, the sample's 7.6 MiB included): an
    # added array of the sample's length would show
    assert sampled <= 23.15 * 2**20
    assert checked <= 38.16 * 2**20


def test_sampler_returns_a_read_only_array_and_renorm_keeps_a_bool_indicator(cantor_pair_32):
    sample, sampled, checked = sampler_and_renorm_peaks(cantor_pair_32)
    # a read-only array that the sampler fills block by block (8.4 MiB), and
    # a check whose left-hand side stays the 1-byte mask of the box test
    # (16.4 MiB, the sample's 7.6 MiB included): a copy of the sample, or a
    # float indicator, adds 7.6 MiB
    assert sample.points.flags.c_contiguous and not sample.points.flags.writeable
    assert sampled <= 16.5 * 2**20
    assert checked <= 27 * 2**20


def test_sampler_holds_its_output_and_one_square(cantor_pair_32):
    _, sampled, _ = sampler_and_renorm_peaks(cantor_pair_32)
    # the 7.6 MiB output and one square's indices, digits and iterates
    # (0.4 MiB); an index array of the sample's length adds 7.6 MiB
    assert sampled <= 9 * 2**20
