"""End-to-end command-line checks run through a real subprocess."""
import subprocess
import sys

import numpy as np
import pytest

from selfaffine import parse_pair_spec, render_pair_spec

DOUBLING = "dim 1\nmatrix\n2\ndigits\n0\n1\n"
NEGATIVE = "dim 1\nmatrix\n-2\ndigits\n0\n1\n"
COLLIDER = "dim 1\nmatrix\n4\ndigits\n0\n1\n2\n8\n"
CANTOR = "dim 1\nmatrix\n3\ndigits\n0\n2\n"
DRAGON = "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n"


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
