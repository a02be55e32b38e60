"""The work budget behind every ``--cap``: each kernel's exact refusal point.

Every budgeted kernel counts its work through ``errors._enforce_budget``.  Each
case below runs a kernel whose whole work is ``units``: it must run at a cap
of ``units`` and refuse at ``units - 1`` with the one message template.  The
kernels with the 2**15 floor also run below the floor at the least cap
their inputs admit, and name the floor when a cap under it refuses them.
"""
import tracemalloc

import numpy as np
import pytest

from selfaffine import (
    BudgetExceeded,
    WeightedPointSet,
    WindowSchedule,
    check_renormalization,
    cli,
    expand_level,
    lower_density_profile,
    natural_schedule,
    natural_thresholds,
    sample_self_similar_measure,
    upper_density_profile,
    upper_s_density_profile,
    errors,
    validate_pair,
)
from selfaffine.cantor import CantorPair, _dominance_scan, translation_dominance_check
from selfaffine.expansion import _min_separation
from selfaffine.pointset import prefix_weights

DOUBLING = validate_pair([[2.0]], [[0.0], [1.0]])
TWIN_DRAGON = validate_pair([[1.0, -1.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
CANTOR = CantorPair(3, 2)


@pytest.fixture
def command(tmp_path):
    """``command(text, *argv)`` runs a CLI command on a pair file holding ``text``."""
    def run(text, *argv):
        path = tmp_path / "pair.txt"
        path.write_text(text, encoding="utf-8")
        args = cli.build_parser().parse_args([argv[0], "--pair", str(path), *argv[1:]])
        return args.func(args)

    return run


def _crowded():
    # 300 points within 1e-6 beside one 3e9 away: the 2**-32 cell floor puts
    # the near ones in one cell, 300**2 cell pairs
    near = np.random.default_rng(0).random((300, 2)) * 1e-6
    return WeightedPointSet(np.concatenate([near, [[3e9, 3e9]]]))


def _cases(command):
    """kernel: (its work in units, the refusal below it, a run at a cap)."""
    d10 = expand_level(DOUBLING, 10)
    crowded = _crowded()
    dragon6 = expand_level(TWIN_DRAGON, 6)
    dragon12 = expand_level(TWIN_DRAGON, 12)
    sample = sample_self_similar_measure(DOUBLING, 20_000, seed=3)
    dragon = "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n"
    cantor = "dim 1\nmatrix\n3\ndigits\n0\n2\n"
    game = ["--window", "0,2", "--steps", "1", "--samples", "100", "--seed", "7"]
    return {
        "expansion": (
            32, "expansion: 2**5 digit strings exceed cap 31",
            lambda cap: expand_level(DOUBLING, 5, cap),
        ),
        "min separation": (
            90_001, "min separation: 90001 cell pairs exceed cap 90000",
            lambda cap: _min_separation(crowded, cap),
        ),
        "upper scan": (
            81_090, "upper scan: 81090 candidate windows exceed cap 81089",
            lambda cap: upper_density_profile(dragon12, natural_schedule(dragon12), cap=cap),
        ),
        "lower scan": (
            150, "lower scan: 150 candidate windows exceed cap 149",
            lambda cap: lower_density_profile(dragon6, WindowSchedule((2.0,)), cap=cap),
        ),
        "s-density scan": (
            539_433, "s-density scan: 539433 tile bounds and leaf cells exceed cap 539432",
            lambda cap: upper_s_density_profile(d10, 1.0, natural_thresholds(d10), cap=cap),
        ),
        "dominance scan": (
            144_213, "dominance scan: 144213 tile bounds and leaf cells exceed cap 144212",
            lambda cap: translation_dominance_check(CANTOR, 10, cap),
        ),
        "renormalization check": (
            40_004, "renormalization check: 40004 box tests exceed cap 40003",
            lambda cap: check_renormalization(DOUBLING, (0.5, 1.5), 1, sample, cap),
        ),
        "raster": (
            256, "raster: 16**2 cells exceed cap 255",
            lambda cap: command(dragon, "raster", "--resolution", "16", "--cap", str(cap)),
        ),
        "chaos game": (
            164, "chaos game: 164 steps exceed cap 163",
            lambda cap: command(cantor, "renorm-check", *game, "--cap", str(cap)),
        ),
    }


KERNELS = [
    "expansion", "min separation", "upper scan", "lower scan", "s-density scan", "dominance scan",
    "renormalization check", "raster", "chaos game",
]


def test_every_budgeted_kernel_has_a_case():
    assert sorted(KERNELS) == sorted(errors._BUDGETS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_each_kernel_runs_at_its_work_and_refuses_one_below(kernel, command):
    units, message, run = _cases(command)[kernel]
    run(units)
    with pytest.raises(BudgetExceeded) as refused:
        run(units - 1)
    assert str(refused.value) == message


def _cantor_scan(k, cap):
    pts = expand_level(CANTOR.pair(), k)
    return _dominance_scan(pts.coords(), prefix_weights(pts), cap)


#: Floored kernel: a run below the floor at the least cap its inputs admit.
SMALL_RUNS = {
    "min separation": lambda: _min_separation(
        WeightedPointSet(np.random.default_rng(1).random((200, 2))), 1
    ),
    # 64 points: at most 64 corner x by 64 y per size
    "upper scan": lambda: upper_density_profile(
        expand_level(TWIN_DRAGON, 6), WindowSchedule((1.0, 2.0, 4.0)), cap=1
    ),
    "s-density scan": lambda: upper_s_density_profile(
        expand_level(CANTOR.pair(), 5), 1.0, [1.0, 4.0, 16.0, 64.0], cap=1
    ),
    "dominance scan": lambda: _cantor_scan(6, 1),
    # the level-1 expansion inside the check needs a cap of m = 2
    "renormalization check": lambda: check_renormalization(
        DOUBLING, (0.5, 1.5), 1, sample_self_similar_measure(DOUBLING, 1000, seed=3), 2
    ),
}

#: Floored kernel: a cap under the floor, and the refusal at the floor.
BELOW_FLOOR = {
    "min separation": (1, "min separation: 90001 cell pairs exceed cap 32768"),
    # 9010 windows per size: the fourth size passes the floor
    "upper scan": (1, "upper scan: 36040 candidate windows exceed cap 32768"),
    "s-density scan": (1, "s-density scan: 37541 tile bounds and leaf cells exceed cap 32768"),
    # the scan alone: the check's expansion of 2**10 points needs a cap of 1024
    "dominance scan": (1024, "dominance scan: 36176 tile bounds and leaf cells exceed cap 32768"),
    "renormalization check": (2, "renormalization check: 32770 box tests exceed cap 32768"),
}


def test_the_floored_kernels_are_those_with_cases():
    assert sorted(SMALL_RUNS) == sorted(BELOW_FLOOR) == sorted(
        kernel for kernel, (_, floored) in errors._BUDGETS.items() if floored
    )


@pytest.mark.parametrize("kernel", sorted(SMALL_RUNS))
def test_floored_kernels_run_below_the_floor_at_the_least_cap(kernel):
    SMALL_RUNS[kernel]()


@pytest.mark.parametrize("kernel", sorted(BELOW_FLOOR))
def test_a_cap_below_the_floor_refuses_at_the_floor(kernel, command):
    cap, message = BELOW_FLOOR[kernel]
    _, _, run = _cases(command)[kernel]
    with pytest.raises(BudgetExceeded) as refused:
        run(cap)
    assert str(refused.value) == message


def test_a_level_far_past_the_cap_is_refused_without_building_its_mass():
    # 2**100000000 alone takes 12.5 MB; the refusal needs only the exponent
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as refused:
            expand_level(DOUBLING, 100_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "expansion: 2**100000000 digit strings exceed cap 16777216"
    assert peak < 2**20
