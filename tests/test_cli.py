"""End-to-end command-line checks run through a real subprocess."""
import contextlib
import io
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import small_pairs

from selfaffine import WeightedPointSet, cli, expansion, parse_pair_spec, render_pair_spec
from selfaffine.cli import _cell, _expand_blocks, main

DOUBLING = "dim 1\nmatrix\n2\ndigits\n0\n1\n"
NEGATIVE = "dim 1\nmatrix\n-2\ndigits\n0\n1\n"
COLLIDER = "dim 1\nmatrix\n4\ndigits\n0\n1\n2\n8\n"
CANTOR = "dim 1\nmatrix\n3\ndigits\n0\n2\n"
DRAGON = "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n"
#: B = 2I in three dimensions with the eight corners of the unit cube: no collisions
CUBE = "dim 3\nmatrix\n2 0 0\n0 2 0\n0 0 2\ndigits\n" + "".join(
    f"{x} {y} {z}\n" for x in (0, 1) for y in (0, 1) for z in (0, 1)
)


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "selfaffine", *argv],
        capture_output=True,
        text=True,
    )


def run_bytes(*argv):
    return subprocess.run(
        [sys.executable, "-m", "selfaffine", *argv], capture_output=True
    )


@pytest.fixture
def pair_file(tmp_path):
    def write(text, name="pair.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_version():
    result = run("--version")
    assert result.returncode == 0
    assert result.stdout.strip() == "selfaffine 0.1.0"


def test_missing_command_is_usage_error():
    assert run().returncode == 2


def test_expand_lists_weighted_points(pair_file):
    path = pair_file(DOUBLING)
    result = run("expand", "--pair", path, "--level", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "# selfaffine 0.1.0"
    assert lines[1].startswith("# config: command=expand pair=")
    assert lines[1].endswith("level=2 cap=16777216")
    assert lines[2] == "# regime: tile-candidate m=2 |det|=2"
    assert lines[3:] == ["x_1,weight", "0,1", "1,1", "2,1", "3,1"]


def test_expand_two_dimensional_header(pair_file):
    path = pair_file(DRAGON)
    result = run("expand", "--pair", path, "--level", "1")
    lines = result.stdout.splitlines()
    assert lines[3:] == ["x_1,x_2,weight", "0,0,1", "1,0,1"]


def test_check_reports_collision(pair_file):
    path = pair_file(COLLIDER)
    result = run("check", "--pair", path, "--level", "4")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[2:] == [
        "# separation_stabilized: false",
        "# density_bounded: false",
        "# witness: point=136 copies=2 bound=4 verified=true observed=5",
        "OSC-fails: collision at point 8 (level 2)",
        "level,min_separation",
        "1,1",
        "2,1",
    ]


def test_check_prints_an_unverified_witness_past_the_merge_scale(pair_file):
    # the witness's level 4 reaches about 8.1e9, past the merge scale
    path = pair_file("dim 1\nmatrix\n300\ndigits\n0\n1\n300\n")
    result = run("check", "--pair", path, "--level", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[4:6] == [
        "# witness: point=27000300 copies=2 bound=4 verified=false",
        "OSC-fails: collision at point 300 (level 2)",
    ]


def test_check_separated_pair_is_consistent(pair_file):
    path = pair_file(CANTOR)
    result = run("check", "--pair", path, "--level", "6")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[2] == "# separation_stabilized: true"
    assert lines[3] == "# density_bounded: true"
    assert lines[4] == "consistent-with-OSC"
    assert lines[5] == "level,min_separation"
    assert lines[6:] == [f"{k},2" for k in range(1, 7)]


def test_check_refuses_a_collision_free_3d_pair_before_measuring(pair_file, monkeypatch, capsys):
    def measured(pts):
        raise AssertionError("a separation was measured")

    monkeypatch.setattr(expansion, "_min_separation", measured)
    assert main(["check", "--pair", pair_file(CUBE), "--level", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: upper_density_profile supports dimensions 1 and 2 only\n"


def test_density_table(pair_file):
    path = pair_file(DOUBLING)
    result = run(
        "density", "--pair", path, "--level", "8", "--windows", "geo:4,64,5"
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[2] == "# windows: 4,8,16,32,64"
    assert lines[3] == "# regime: tile-candidate m=2 |det|=2"
    assert lines[4] == "# lebesgue: 0.984615384615 divergent=false"
    assert lines[5] == (
        "N,sup_count,sup_value,argmax_center,inf_count,inf_value,argmin_center,trusted"
    )
    # support is one-sided, so trusted-empty windows pin the lower profile at 0
    assert lines[6] == "4,5,1.25,2,0,0,-253,true"
    assert len(lines) == 6 + 5


def test_density_skips_oversized_lower_windows(pair_file):
    path = pair_file(DOUBLING)
    result = run(
        "density", "--pair", path, "--level", "8", "--windows", "geo:300,600,2"
    )
    lines = result.stdout.splitlines()
    assert lines[-1] == "600,256,0.426666666667,300,,,,"


def test_density_2d_lower_windows_beyond_cap_are_domain_error(pair_file):
    path = pair_file(DRAGON)
    # the expansion fits the cap; the lower scan's candidate windows do not
    result = run("density", "--pair", path, "--level", "6", "--cap", "100")
    assert result.returncode == 1
    assert "exceed cap" in result.stderr
    assert run("density", "--pair", path, "--level", "6", "--cap", "1000").returncode == 0


def test_sdensity_uses_similarity_exponent(pair_file):
    path = pair_file(CANTOR)
    result = run("sdensity", "--pair", path, "--level", "10")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[3] == "# s: 0.630929753571 source=similarity"
    assert lines[4] == "# hausdorff: 0.999989315116 divergent=false"
    assert lines[5] == "r,sup_count,sup_value,argmax_lo,argmax_hi"
    assert len(lines) == 6 + 9


def test_sdensity_user_exponent_override(pair_file):
    path = pair_file(CANTOR)
    result = run("sdensity", "--pair", path, "--level", "6", "--s", "0.5")
    assert result.returncode == 0
    assert "# s: 0.5 source=user" in result.stdout.splitlines()


def test_sdensity_demands_exponent_without_similarity(pair_file):
    path = pair_file("dim 2\nmatrix\n2 0\n0 3\ndigits\n0 0\n")
    result = run("sdensity", "--pair", path, "--level", "4")
    assert result.returncode == 2
    assert "not a similarity" in result.stderr


def test_sdensity_rejects_dimension_before_expansion(pair_file):
    path = pair_file(DRAGON)
    # level 5 holds 32 points, over the cap of 16: the dimension is refused first
    result = run("sdensity", "--pair", path, "--level", "5", "--cap", "16")
    assert result.returncode == 1
    assert "dimension 1 only" in result.stderr
    assert "cap" not in result.stderr


def test_cantor_count():
    result = run("cantor", "--N", "3", "--d", "2", "--op", "count", "--coeffs", "2,0,2")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-2:] == ["b,count", "20,6"]


def test_cantor_hmeasure_fixed_point():
    result = run("cantor", "--N", "3", "--d", "2", "--op", "hmeasure")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[2] == "# s: 0.630929753571"
    assert lines[3] == "1.000000000000"


def test_cantor_sequence():
    result = run(
        "cantor", "--N", "3", "--d", "2", "--op", "sequence", "--m-max", "3"
    )
    lines = result.stdout.splitlines()
    assert lines[2] == "# s: 0.630929753571"
    assert lines[3] == "# limit: 1"
    assert lines[4] == "m,value"
    assert lines[5:] == ["1,1.29152023433", "2,1.07714370668", "3,1.0240972531"]


def test_cantor_dominance_past_the_cap_exits_1_within_seconds():
    # level 20 would take hours cell by cell; the scan's work budget refuses it
    result = subprocess.run(
        [sys.executable, "-m", "selfaffine", "cantor", "--N", "3", "--d", "2",
         "--op", "dominance", "--level", "20"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "dominance scan" in result.stderr and "exceed cap" in result.stderr
    assert "Traceback" not in result.stderr


def test_sdensity_of_a_near_tied_tile_past_the_cap_exits_1_within_seconds(pair_file):
    # at s = 1 the doubling tile prunes almost nothing; it holds 5e11 admissible intervals
    result = subprocess.run(
        [sys.executable, "-m", "selfaffine", "sdensity", "--pair", pair_file(DOUBLING),
         "--level", "20"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: s-density scan: ")
    assert result.stderr.endswith(" cells exceed cap 16777216\n")
    assert result.stdout == ""


def test_sdensity_of_a_near_tied_tile_at_level_12_runs_under_the_default_cap(pair_file):
    result = run("sdensity", "--pair", pair_file(DOUBLING), "--level", "12")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[1].endswith(" cap=16777216")
    assert lines[5] == "r,sup_count,sup_value,argmax_lo,argmax_hi"
    assert len(lines) == 6 + 9


def test_cantor_dominance():
    result = run("cantor", "--N", "3", "--d", "1", "--op", "dominance", "--level", "6")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-2:] == [
        "holds,counterexample_a,counterexample_b",
        "true,,",
    ]


def test_cantor_usage_errors():
    assert run("cantor", "--N", "2", "--d", "1", "--op", "hmeasure").returncode == 2
    assert run("cantor", "--N", "3", "--d", "1", "--op", "count").returncode == 2
    bad = run("cantor", "--N", "3", "--d", "1", "--op", "count", "--coeffs", "2,x")
    assert bad.returncode == 2


def test_cantor_foreign_coefficient_is_domain_error():
    result = run("cantor", "--N", "3", "--d", "2", "--op", "count", "--coeffs", "2,1")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "d,coeffs,message",
    [
        ("2", "2,0,nan", "coefficient nan at position 2 is neither 0 nor 2.0"),
        ("2", "2,0,inf", "coefficient inf at position 2 is neither 0 nor 2.0"),
        ("1e308", "0,1e308", "b = sum of r_j N**j overflows a float"),
    ],
    ids=["nan", "inf", "b-overflow"],
)
def test_cantor_count_names_a_bad_coefficient_before_summing_b(d, coeffs, message, capsys):
    assert main(["cantor", "--N", "3", "--d", d, "--op", "count", "--coeffs", coeffs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_raster_pbm(pair_file):
    path = pair_file(DRAGON)
    result = run("raster", "--pair", path, "--resolution", "16")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "# selfaffine 0.1.0"
    assert lines[3] == "# box: [-3,3]^2"
    assert lines[4].startswith("# outer: ")
    assert "converged=true" in lines[4]
    assert lines[5] == "16 16"
    rows = lines[6:]
    assert len(rows) == 16
    assert all(set(row.split()) <= {"0", "1"} and len(row.split()) == 16 for row in rows)


def test_raster_one_dimensional(pair_file):
    path = pair_file(DOUBLING)
    result = run("raster", "--pair", path, "--resolution", "16")
    lines = result.stdout.splitlines()
    assert lines[2] == "# box: [-1,1]^1"
    assert lines[3] == "# outer: 1.25 iterations=4 converged=true"
    assert lines[4] == "cell_index,occupied"
    assert lines[5] == "0,0"
    assert lines[-1] == "15,1"


def test_classify_origin_boundary(pair_file):
    path = pair_file(DOUBLING)
    result = run("classify-origin", "--pair", path, "--level", "12")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "boundary (evidence at level 12)" in lines
    assert lines[-1] == "boundary,0,1.00024420024,2047.5,12"


def test_classify_origin_interior(pair_file):
    path = pair_file(NEGATIVE)
    result = run("classify-origin", "--pair", path, "--level", "12")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "interior (evidence at level 12)" in lines
    assert lines[-1] == "interior,0.999755799756,1.00024420024,2047.5,12"


def test_classify_origin_rejects_fractal(pair_file):
    path = pair_file(CANTOR)
    result = run("classify-origin", "--pair", path, "--level", "8")
    assert result.returncode == 1


def test_classify_origin_without_a_trusted_entry_is_domain_error(pair_file):
    path = pair_file(DOUBLING)
    # level 9 exceeds the cap, so no lower window is trusted
    result = run("classify-origin", "--pair", path, "--level", "8", "--cap", "256")
    assert result.returncode == 1
    assert result.stderr == "error: no stabilized lower-density entry to classify with\n"


def test_classify_origin_budgets_only_the_lower_sizes_it_scans(pair_file):
    path = pair_file(DRAGON)
    # the largest size is trusted, so the smallest, with 9095 candidate
    # windows, is never scanned; density scans every size and refuses
    refused = run("density", "--pair", path, "--level", "10", "--cap", "4096")
    assert refused.returncode == 1
    assert refused.stderr == "error: lower scan: 9095 candidate windows exceed cap 4096\n"
    for cap in ("4096", "20000"):
        result = run("classify-origin", "--pair", path, "--level", "10", "--cap", cap)
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "boundary,0,0.781065088757,26,10"


def in_process(*argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


@settings(max_examples=60, deadline=None)
@given(small_pairs(), st.integers(1, 7), st.sampled_from(["natural:9", "natural:5", "natural:2"]))
def test_classify_origin_equals_the_verdict_of_full_profiles(spec_dir, pair, k, windows):
    path = spec_dir / "pair.txt"
    path.write_text(render_pair_spec(pair), encoding="utf-8")
    argv = ("classify-origin", "--pair", str(path), "--level", str(k), "--windows", windows,
            "--cap", "4096")
    got = in_process(*argv)

    def full_lower(pts, schedule, nxt, level, cap):
        # 2-D sizes that the verdict need not scan may hold more than 4096 windows
        return cli.lower_density_profile(pts, schedule, nxt, level=level, cap=2**20)

    # the reference scans every size of both profiles
    with mock.patch.object(cli, "trend_sizes", lambda sizes: sizes), \
         mock.patch.object(cli, "last_trusted_lower_profile", full_lower):
        ref = in_process(*argv)
    # a size beyond its budget stops either scan, but only once it is reached
    if "candidate windows" not in got[2] + ref[2]:
        assert got == ref


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_renorm_check(pair_file):
    path = pair_file(CANTOR)
    result = run(
        "renorm-check", "--pair", path, "--window", "0,2", "--steps", "1",
        "--samples", "20000", "--seed", "21",
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[2] == "lhs,rhs,stderr,abs_diff,within_3_stderr"
    assert lines[3] == "0.49715,0.5,0.00353556486094,0.00285,true"


def test_renorm_check_requires_seed(pair_file):
    path = pair_file(CANTOR)
    result = run(
        "renorm-check", "--pair", path, "--window", "0,2", "--steps", "1",
        "--samples", "1000",
    )
    assert result.returncode == 2


def test_renorm_check_window_arity(pair_file):
    path = pair_file(CANTOR)
    result = run(
        "renorm-check", "--pair", path, "--window", "0,2,3", "--steps", "1",
        "--samples", "1000", "--seed", "1",
    )
    assert result.returncode == 2
    assert "window needs 2 numbers" in result.stderr


def test_byte_identical_reruns(pair_file):
    path = pair_file(CANTOR)
    argv = ("density", "--pair", path, "--level", "8")
    assert run_bytes(*argv).stdout == run_bytes(*argv).stdout
    argv = (
        "renorm-check", "--pair", path, "--window", "0,2", "--steps", "1",
        "--samples", "5000", "--seed", "3",
    )
    assert run_bytes(*argv).stdout == run_bytes(*argv).stdout


def test_output_file_matches_stdout(pair_file, tmp_path):
    path = pair_file(DOUBLING)
    out = tmp_path / "table.csv"
    direct = run("expand", "--pair", path, "--level", "3")
    written = run("expand", "--pair", path, "--level", "3", "-o", str(out))
    assert written.returncode == 0
    assert written.stdout == ""
    assert out.read_text(encoding="utf-8") == direct.stdout


def test_expand_memory_is_bounded(pair_file, tmp_path):
    # in-process, so that tracemalloc sees the formatting
    argv = ["expand", "--pair", pair_file(DOUBLING), "--level", "16", "-o", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 7.6 MiB when each value was formatted by _cell one at a time, 4.8 in blocks
    assert peak <= 6 * 2**20


def test_density_of_the_collision_pair_holds_no_candidate_rows(pair_file, tmp_path):
    # levels 8 and 9 on the lattice: 7.6 MiB when each was merged from m n candidate rows
    argv = ["density", "--pair", pair_file(COLLIDER), "--level", "8", "-o", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_missing_pair_file_is_usage_error():
    result = run("expand", "--pair", "/no/such/file", "--level", "2")
    assert result.returncode == 2
    assert "cannot read pair file" in result.stderr


def test_parse_error_reports_line(pair_file):
    path = pair_file("dim 1\nmatrix\n2 2\ndigits\n0\n")
    result = run("expand", "--pair", path, "--level", "2")
    assert result.returncode == 1
    assert "error: line 3:" in result.stderr


def test_contracting_matrix_rejected(pair_file):
    path = pair_file("dim 1\nmatrix\n0.5\ndigits\n0\n")
    result = run("expand", "--pair", path, "--level", "2")
    assert result.returncode == 1
    assert "expanding" in result.stderr


def test_level_must_be_positive(pair_file):
    path = pair_file(DOUBLING)
    assert run("expand", "--pair", path, "--level", "0").returncode == 2


def test_bad_window_schedule(pair_file):
    path = pair_file(DOUBLING)
    result = run("density", "--pair", path, "--level", "4", "--windows", "foo:3")
    assert result.returncode == 2
    assert "bad schedule" in result.stderr


def test_pair_spec_round_trip():
    for text in (DOUBLING, NEGATIVE, CANTOR, DRAGON):
        pair = parse_pair_spec(text)
        again = parse_pair_spec(render_pair_spec(pair))
        assert np.array_equal(again.matrix.entries, pair.matrix.entries)
        assert np.array_equal(again.digits.vectors, pair.digits.vectors)
        assert again.regime == pair.regime


def test_pair_spec_comments_and_blank_lines():
    text = "# header\n\ndim 1  # ambient\nmatrix\n2\n\ndigits # two of them\n0\n1\n"
    pair = parse_pair_spec(text)
    assert pair.dim == 1
    assert pair.m == 2


def test_rendered_spec_runs_through_the_cli(pair_file):
    pair = parse_pair_spec(DRAGON)
    path = pair_file(render_pair_spec(pair), name="rendered.txt")
    assert run("expand", "--pair", path, "--level", "2").returncode == 0


def test_renorm_check_refuses_a_chaos_game_beyond_cap_before_sampling(pair_file, monkeypatch,
                                                                       capsys):
    def sampled(*args):
        raise AssertionError("the chaos game ran")

    monkeypatch.setattr(cli, "ChaosGame", sampled)
    path = pair_file(CANTOR)
    window = ["--pair", path, "--window", "0,2", "--steps", "1", "--seed", "7"]
    assert main(["renorm-check", *window, "--samples", "1000000000"]) == 1
    assert main(["renorm-check", *window, "--samples", "100", "--cap", "163"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: chaos game: 1000000064 steps exceed cap 16777216",
        "error: chaos game: 164 steps exceed cap 163",
    ]
    monkeypatch.undo()
    assert main(["renorm-check", *window, "--samples", "100", "--cap", "164"]) == 0


def test_renorm_check_refuses_a_negative_seed_as_a_usage_error(pair_file, capsys):
    argv = ["renorm-check", "--pair", pair_file(CANTOR), "--window", "0,2", "--steps", "1",
            "--samples", "100", "--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be nonnegative" in captured.err


def test_renorm_check_of_one_sample_is_a_domain_error(pair_file):
    for text, window in [(CANTOR, "0,2"), (DRAGON, "-0.3,0.4,-0.2,0.5")]:
        result = run("renorm-check", "--pair", pair_file(text), f"--window={window}",
                     "--steps", "1", "--samples", "1", "--seed", "7")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: the paired standard error needs at least 2 samples\n"


def test_renorm_check_holds_no_sample(pair_file, capsys):
    path = pair_file(CANTOR)
    argv = ["renorm-check", "--pair", path, "--window", "0,0.5", "--steps", "4", "--seed", "7"]
    assert main([*argv, "--samples", "1000"]) == 0  # first-call allocations stay out
    tracemalloc.start()
    try:
        assert main([*argv, "--samples", "1000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # the bool left-hand indicator and the float right-hand values (8.6 MiB)
    # and one square's temporaries; the 7.6 MiB sample, or a float copy of
    # it, would show
    assert peak <= 12 * 2**20


def test_raster_resolution_beyond_cap_is_domain_error(pair_file):
    path = pair_file(DOUBLING)
    # 10**8 cells would take minutes; the cap refuses them before any work
    result = run("raster", "--pair", path, "--resolution", "100000000")
    assert result.returncode == 1
    assert "exceed cap" in result.stderr
    assert run("raster", "--pair", path, "--resolution", "16", "--cap", "15").returncode == 1
    assert run("raster", "--pair", path, "--resolution", "16", "--cap", "16").returncode == 0


SINGLE_DIGIT = "dim 1\nmatrix\n2\ndigits\n0\n"


@pytest.mark.parametrize(
    "text,argv",
    [
        (CANTOR, ("sdensity", "--level", "4", "--s", "2")),
        (SINGLE_DIGIT, ("density", "--level", "3")),
        (SINGLE_DIGIT, ("sdensity", "--level", "3")),
        (SINGLE_DIGIT, ("check", "--level", "3")),
        (CANTOR, ("expand", "--level", "21")),
        ("dim 1\nmatrix\n2\ndigits\n0\n1e308\n", ("expand", "--level", "3")),
    ],
    ids=["sdensity-s2", "density-single", "sdensity-single", "check-single", "expand-scale",
         "expand-overflow"],
)
def test_library_value_errors_exit_1_without_traceback(pair_file, text, argv):
    path = pair_file(text)
    result = run(argv[0], "--pair", path, *argv[1:])
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_unwritable_output_is_usage_error(pair_file, tmp_path):
    path = pair_file(DOUBLING)
    result = run("expand", "--pair", path, "--level", "2", "-o", str(tmp_path / "no" / "x.csv"))
    assert result.returncode == 2
    assert result.stderr.startswith("usage error: cannot write output file")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("cantor", "--N", "3", "--d", "inf", "--op", "hmeasure"),
        ("cantor", "--N", "3", "--d", "2", "--op", "sequence", "--m-max", "647"),
        ("cantor", "--N", "3", "--d", "2", "--op", "count", "--coeffs", ",".join(["2"] * 800)),
        ("cantor", "--N", "3", "--d", "1e308", "--op", "count", "--coeffs", "0,1e308"),
    ],
    ids=["d-inf", "sequence-647", "count-800", "count-b-inf"],
)
def test_cantor_float_limits_are_domain_errors(argv):
    result = run(*argv)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "text",
    [
        "dim 1\nmatrix\ninf\ndigits\n0\n1\n",
        "dim 1\nmatrix\n2\ndigits\n0\nnan\n",
        # finite entries whose determinant overflows
        "dim 2\nmatrix\n1e308 0\n0 1e308\ndigits\n0 0\n1 0\n",
    ],
    ids=["matrix-inf", "digit-nan", "det-overflow"],
)
def test_non_finite_pair_is_domain_error(pair_file, text):
    result = run("expand", "--pair", pair_file(text), "--level", "2")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--level", "3", "--windows", "geo:1,inf,3"),
        ("density", "--level", "3", "--windows", "lin:1,nan,3"),
        ("sdensity", "--level", "3", "--thresholds", "geo:nan,2,3"),
        ("renorm-check", "--window", "0,nan", "--steps", "1", "--samples", "10", "--seed", "1"),
    ],
    ids=["geo-inf", "lin-nan", "thresholds-nan", "window-nan"],
)
def test_non_finite_schedule_or_window_is_usage_error(pair_file, argv):
    result = run(argv[0], "--pair", pair_file(CANTOR), *argv[1:])
    assert result.returncode == 2
    assert result.stderr.startswith("usage error:")
    assert result.stdout == ""


def test_natural_schedule_beyond_float_range_is_domain_error(pair_file):
    # 2**1099 has no float; the smallest sizes underflow to zero instead
    path = pair_file(DOUBLING)
    result = run("density", "--pair", path, "--level", "3", "--windows", "natural:1100")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "windows,size",
    [("geo:1e-200,1,3", "1e-200 is too small"), ("geo:1,1e200,3", "1e+200 is too large")],
    ids=["underflow", "overflow"],
)
def test_window_whose_volume_leaves_float_range_is_usage_error(pair_file, windows, size):
    # 1e-200**2 is 0 in floating point and 1e200**2 overflows; refused before any scan
    path = pair_file(DRAGON)
    result = run("density", "--pair", path, "--level", "4", "--windows", windows)
    assert result.returncode == 2
    assert result.stderr.startswith(f"usage error: window size {size}")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_threshold_admitting_zero_length_interval_is_domain_error(pair_file):
    path = pair_file(CANTOR)
    result = run("sdensity", "--pair", path, "--level", "4", "--thresholds", "geo:1e-300,1,3")
    assert result.returncode == 1
    # one line of ours and nothing from numpy
    assert result.stderr.startswith("error: threshold 1e-300 admits an interval of length 0")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


#: Values at the edges of the writer's integer spec, and subnormals.
_EDGES = (0.0, -0.0, 1e12 - 1, -(1e12 - 1), 1e12, -1e12, 1e16, 5e-324, -5e-324, 2.5e-310, 0.5)

_integral = st.integers(-(10**12 - 1), 10**12 - 1).map(float)
_column_values = st.sampled_from([
    _integral,
    st.one_of(_integral, st.sampled_from(_EDGES[:6])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(_integral, st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
])


@st.composite
def expand_tables(draw):
    """A 1-D or 2-D point set whose columns are integral, not integral, or mixed."""
    dim, rows = draw(st.integers(1, 2)), draw(st.integers(1, 10))
    columns = [draw(st.lists(draw(_column_values), min_size=rows, max_size=rows)) for _ in range(dim)]
    weights = draw(st.lists(st.integers(1, 2**40), min_size=rows, max_size=rows))
    # the writer reads the arrays alone, so any order and magnitude will do
    return WeightedPointSet._from_canonical(np.array(columns).T, np.array(weights))


@settings(max_examples=300, deadline=None)
@given(expand_tables(), st.integers(1, 3))
def test_expand_blocks_print_what_cell_prints(pts, block):
    expected = [
        ",".join(map(_cell, (*map(float, p), int(w)))) for p, w in zip(pts.points, pts.weights)
    ]
    with mock.patch.object(cli, "_SCAN_CELLS", block):
        blocks = list(_expand_blocks(pts))
    assert len(blocks) == -(-len(pts) // block)
    assert "\n".join(blocks).split("\n") == expected


_int64_values = st.one_of(
    st.integers(-(10**12 - 1), 10**12 - 1),
    st.sampled_from([0, 1, -1, 10**12 - 1, -(10**12 - 1), 9, 10, -9, -10]),
)


@st.composite
def integral_tables(draw):
    """Point sets whose 1 to 3 coordinate columns all print with %d, with weights up to 2**62."""
    dim, rows = draw(st.integers(1, 3)), draw(st.integers(1, 10))
    points = draw(st.lists(st.lists(_int64_values, min_size=dim, max_size=dim),
                           min_size=rows, max_size=rows))
    weights = draw(st.lists(st.one_of(st.integers(1, 2**62), st.sampled_from([1, 10, 2**62])),
                            min_size=rows, max_size=rows))
    return WeightedPointSet._from_canonical(np.array(points, dtype=float), np.array(weights))


@settings(max_examples=300, deadline=None)
@given(integral_tables(), st.integers(1, 3))
def test_integer_blocks_print_what_the_template_prints(pts, block):
    row = ",".join(["%d"] * (pts.dim + 1))
    values = [(*map(int, p), int(w)) for p, w in zip(pts.points, pts.weights)]
    expected = [
        "\n".join([row] * len(chunk)) % tuple(v for r in chunk for v in r)
        for chunk in (values[a : a + block] for a in range(0, len(values), block))
    ]
    with mock.patch.object(cli, "_SCAN_CELLS", block):
        assert list(_expand_blocks(pts)) == expected


def test_int_rows_print_every_int64():
    edges = np.array([0, 1, -1, 9, 10, -10, 2**63 - 1, -(2**63), 10**18, -(10**18) - 1])
    columns = [edges, edges[::-1], np.zeros_like(edges)]
    rows = [",".join(map(str, r)) for r in zip(*(c.tolist() for c in columns))]
    assert cli._int_rows(columns) == "\n".join(rows)
