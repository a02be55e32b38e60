"""Raster covers, origin classification, and separation verdicts."""
import tracemalloc

import numpy as np
import pytest

from selfaffine import (
    LABEL_BOUNDARY,
    LABEL_INTERIOR,
    VERDICT_CONSISTENT,
    VERDICT_FAILS,
    VERDICT_UNDETERMINED,
    NoTrustedLowerEntry,
    NotATileCandidate,
    ResolutionTooSmall,
    UnsupportedDimension,
    UnsupportedRegime,
    classify_origin,
    expand_level,
    invariant_radius,
    lebesgue_from_density,
    lower_density_profile,
    natural_schedule,
    osc_verdict,
    raster_attractor,
    render_raster,
    sample_self_similar_measure,
    upper_density_profile,
    validate_pair,
)


class TestInvariantRadius:
    def test_unit_interval_pairs(self, doubling_pair, negative_doubling_pair):
        assert invariant_radius(doubling_pair) == pytest.approx(1.0)
        assert invariant_radius(negative_doubling_pair) == pytest.approx(1.0)

    def test_cantor(self, cantor_pair_32):
        assert invariant_radius(cantor_pair_32) == pytest.approx(1.0)

    def test_overfull(self, overfull_pair):
        assert invariant_radius(overfull_pair) == pytest.approx(2.0)

    def test_twin_dragon(self, twin_dragon_pair):
        # contraction certificate needs two steps, so the bound loosens
        assert invariant_radius(twin_dragon_pair) == pytest.approx(3.0)

    def test_zero_digits_fall_back_to_unit_box(self):
        pair = validate_pair([[2.0]], [[0.0]])
        assert invariant_radius(pair) == 1.0

    def test_contains_sampled_attractor_points(
        self, doubling_pair, cantor_pair_32, twin_dragon_pair
    ):
        for pair in (doubling_pair, cantor_pair_32, twin_dragon_pair):
            radius = invariant_radius(pair)
            sample = sample_self_similar_measure(pair, 500, seed=9)
            assert np.max(np.abs(sample.points)) <= radius + 1e-9


class TestRasterAttractor:
    def test_unit_interval_cover(self, doubling_pair):
        grid, est = raster_attractor(doubling_pair, 256)
        assert est.converged
        assert est.outer == pytest.approx(1.015625)
        # the attractor is [0, 1]; cover overshoots by one cell per side at most
        occupied = np.nonzero(grid.cells)[0]
        assert occupied.min() == 126 and occupied.max() == 255

    def test_every_cell_meeting_the_attractor_survives(self, doubling_pair):
        grid, _ = raster_attractor(doubling_pair, 64)
        # cells 31..63 of [-1, 1] all touch [0, 1]
        assert grid.cells[31:64].all()

    def test_coarse_grid_overshoots_more(self, doubling_pair):
        _, coarse = raster_attractor(doubling_pair, 16)
        _, fine = raster_attractor(doubling_pair, 256)
        assert coarse.outer == pytest.approx(1.25)
        assert coarse.outer > fine.outer >= 1.0

    def test_negative_determinant(self, negative_doubling_pair):
        # attractor is [-2/3, 1/3]
        grid, est = raster_attractor(negative_doubling_pair, 256)
        assert est.converged
        assert est.outer == pytest.approx(1.0234375)
        occupied = np.nonzero(grid.cells)[0] * grid.cell_size - grid.radius
        assert occupied.min() == pytest.approx(-2 / 3, abs=2 * grid.cell_size)
        assert occupied.max() == pytest.approx(1 / 3, abs=2 * grid.cell_size)

    def test_cantor_cover_shrinks_below_half(self, cantor_pair_32):
        _, est = raster_attractor(cantor_pair_32, 256)
        assert est.converged
        assert 0.2 < est.outer < 0.5
        assert est.outer == pytest.approx(0.453125)

    def test_overfull_interval(self, overfull_pair):
        # attractor is [0, 2]
        _, est = raster_attractor(overfull_pair, 256)
        assert est.converged
        assert 2.0 <= est.outer <= 2.0 + 5 * (4.0 / 256)
        assert est.outer == pytest.approx(2.0625)

    def test_twin_dragon_refines_toward_unit_area(self, twin_dragon_pair):
        _, coarse = raster_attractor(twin_dragon_pair, 64)
        _, fine = raster_attractor(twin_dragon_pair, 256)
        assert coarse.converged and fine.converged
        assert coarse.outer == pytest.approx(4.359375)
        assert fine.outer == pytest.approx(2.107177734375)
        assert coarse.outer > fine.outer > 1.0

    def test_twin_dragon_raster_memory_is_bounded(self, twin_dragon_pair):
        raster_attractor(twin_dragon_pair, 16)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            raster_attractor(twin_dragon_pair, 384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 17.0 MiB before the corner indices were hoisted out of the iteration
        assert peak <= 17.0 * 2**20

    def test_iteration_cap_reports_no_convergence(self, doubling_pair):
        _, capped = raster_attractor(doubling_pair, 256, max_iters=1)
        _, full = raster_attractor(doubling_pair, 256)
        assert not capped.converged
        assert capped.iterations == 1
        assert capped.outer > full.outer

    def test_grid_geometry(self, doubling_pair, twin_dragon_pair):
        grid, _ = raster_attractor(doubling_pair, 16)
        assert grid.cell_size == pytest.approx(0.125)
        assert grid.cell_volume == pytest.approx(0.125)
        grid2, _ = raster_attractor(twin_dragon_pair, 64)
        assert grid2.cell_size == pytest.approx(6.0 / 64)
        assert grid2.cell_volume == pytest.approx((6.0 / 64) ** 2)
        assert not grid2.cells.flags.writeable

    def test_rejects_tiny_resolution(self, doubling_pair):
        with pytest.raises(ResolutionTooSmall):
            raster_attractor(doubling_pair, 8)

    def test_rejects_high_dimension(self):
        pair = validate_pair(np.eye(3) * 2.0, [[0.0, 0.0, 0.0]])
        with pytest.raises(UnsupportedDimension):
            raster_attractor(pair, 32)

    def test_rejects_zero_iterations(self, doubling_pair):
        with pytest.raises(ValueError):
            raster_attractor(doubling_pair, 32, max_iters=0)


class TestRenderRaster:
    def test_pbm_layout(self, twin_dragon_pair):
        grid, _ = raster_attractor(twin_dragon_pair, 16)
        text = render_raster(grid, ("alpha", "beta"))
        lines = text.splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "# alpha"
        assert lines[2] == "# beta"
        assert lines[3] == "16 16"
        rows = lines[4:]
        assert len(rows) == 16
        assert all(len(row.split()) == 16 for row in rows)
        ones = sum(row.split().count("1") for row in rows)
        assert ones == int(grid.cells.sum())
        assert text.endswith("\n")

    def test_pbm_rows_run_top_down(self, twin_dragon_pair):
        grid, _ = raster_attractor(twin_dragon_pair, 16)
        lines = render_raster(grid).splitlines()
        top = [v == "1" for v in lines[2].split()]
        assert top == list(grid.cells[:, 15])

    def test_one_dimensional_csv(self, doubling_pair):
        grid, _ = raster_attractor(doubling_pair, 16)
        lines = render_raster(grid, ("note",)).splitlines()
        assert lines[0] == "# note"
        assert lines[1] == "cell_index,occupied"
        assert len(lines) == 2 + 16
        assert lines[2] == "0,0"
        assert lines[-1] == "15,1"


def _profiles(pair, k):
    pts = expand_level(pair, k)
    schedule = natural_schedule(pts)
    upper = upper_density_profile(pts, schedule, level=k)
    lower = lower_density_profile(pts, schedule, expand_level(pair, k + 1), level=k)
    return upper, lower


class TestClassifyOrigin:
    def test_one_sided_support_is_boundary(self, doubling_pair):
        upper, lower = _profiles(doubling_pair, 14)
        lebesgue = lebesgue_from_density(upper)
        report = classify_origin(doubling_pair, upper, lower, lebesgue.value)
        assert report.label == LABEL_BOUNDARY
        assert report.trusted_value == 0.0
        assert report.reference == pytest.approx(1.0000610388817677, rel=1e-12)
        assert report.window_size == pytest.approx(8191.5)
        assert report.level == 14

    def test_two_sided_support_is_interior(self, negative_doubling_pair):
        upper, lower = _profiles(negative_doubling_pair, 14)
        lebesgue = lebesgue_from_density(upper)
        report = classify_origin(negative_doubling_pair, upper, lower, lebesgue.value)
        assert report.label == LABEL_INTERIOR
        assert report.trusted_value == pytest.approx(0.9999389611182323, rel=1e-12)

    def test_rejects_fractal_regime(self, cantor_pair_32):
        upper, lower = _profiles(cantor_pair_32, 8)
        with pytest.raises(NotATileCandidate):
            classify_origin(cantor_pair_32, upper, lower, 1.0)

    def test_rejects_zero_measure(self, doubling_pair):
        upper, lower = _profiles(doubling_pair, 8)
        with pytest.raises(NotATileCandidate):
            classify_origin(doubling_pair, upper, lower, 0.0)

    def test_requires_a_trusted_entry(self, doubling_pair):
        pts = expand_level(doubling_pair, 8)
        schedule = natural_schedule(pts)
        upper = upper_density_profile(pts, schedule, level=8)
        untrusted = lower_density_profile(pts, schedule, level=8)
        with pytest.raises(NoTrustedLowerEntry):
            classify_origin(doubling_pair, upper, untrusted, 1.0)


class TestOscVerdict:
    def test_collision_fails_with_witness(self, collision_pair):
        report = osc_verdict(collision_pair, 4)
        assert report.verdict == VERDICT_FAILS
        assert not report.collision_free
        assert report.first_collision == (2, 8.0, 2)
        # expansion stops at the collision level
        assert report.min_separation_by_level == ((1, 1.0), (2, 1.0))
        assert report.witness is not None
        assert report.witness.verified
        assert report.witness.bound == 4
        assert report.witness.observed_multiplicity == 5

    def test_separated_fractal_is_consistent(self, cantor_pair_32):
        report = osc_verdict(cantor_pair_32, 10)
        assert report.verdict == VERDICT_CONSISTENT
        assert report.collision_free
        assert report.separation_stabilized
        assert report.density_bounded
        assert report.min_separation_by_level[-1] == (10, 2.0)

    def test_tile_candidate_is_consistent(self, doubling_pair):
        report = osc_verdict(doubling_pair, 12)
        assert report.verdict == VERDICT_CONSISTENT

    def test_shallow_expansion_is_undetermined(self, cantor_pair_32):
        report = osc_verdict(cantor_pair_32, 2)
        assert report.verdict == VERDICT_UNDETERMINED
        assert report.collision_free
        assert not report.separation_stabilized

    def test_rejects_overfull_regime(self, overfull_pair):
        with pytest.raises(UnsupportedRegime):
            osc_verdict(overfull_pair, 4)

    def test_rejects_zero_level(self, doubling_pair):
        with pytest.raises(ValueError):
            osc_verdict(doubling_pair, 0)
