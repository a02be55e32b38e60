"""Fuzz of the pair parser and of the command line, run in-process.

Every input must end in a result or a typed failure: the parser returns a
pair or raises SelfAffineError/ValueError, and ``main`` returns 0, 1 or 2 or
leaves through argparse's SystemExit with 0 or 2.  Sizes stay small (levels
up to 8, a 4096 mass cap, at most 1000 samples, resolution up to 64), so each
command runs in milliseconds.
"""
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfaffine import SelfAffineError, SelfAffinePair, parse_pair_spec
from selfaffine.cli import main

NUMBERS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "-0", "0", "0.5", "1", "2",
           "3", "-2", "4", "x", "")
number = st.one_of(st.sampled_from(NUMBERS), st.integers(-3, 9).map(str))
small_int = st.one_of(st.integers(-1, 8).map(str), st.sampled_from(("nan", "1e308", "-0", "x")))

PAIRS = {
    "doubling": "dim 1\nmatrix\n2\ndigits\n0\n1\n",
    "negabinary": "dim 1\nmatrix\n-2\ndigits\n0\n1\n",
    "collider": "dim 1\nmatrix\n4\ndigits\n0\n1\n2\n8\n",
    "cantor": "dim 1\nmatrix\n3\ndigits\n0\n2\n",
    "dragon": "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n",
    "spiral": "dim 2\nmatrix\n1.9 -0.7\n0.7 1.9\ndigits\n0 0\n1 0\n0.37 0.71\n",
    "collider3": "dim 3\nmatrix\n3 0 0\n0 3 0\n0 0 3\ndigits\n0 0 0\n1 0 0\n3 0 0\n",
    "huge-digit": "dim 1\nmatrix\n2\ndigits\n0\n1e308\n",
    "huge-matrix": "dim 2\nmatrix\n1e308 0\n0 1e308\ndigits\n0 0\n1 0\n",
    "inf-matrix": "dim 1\nmatrix\ninf\ndigits\n0\n1\n",
    "nan-digit": "dim 1\nmatrix\n2\ndigits\n0\nnan\n",
    "single": "dim 1\nmatrix\n2\ndigits\n0\n",
    "overfull": "dim 1\nmatrix\n2\ndigits\n0\n1\n2\n",
    "malformed": "dim 1\nmatrix\n",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {"missing": str(root / "missing.txt"), "directory": str(root)}
    for name, text in PAIRS.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
        out[name] = str(root / f"{name}.txt")
    return out


@st.composite
def pair_texts(draw):
    dim = draw(st.sampled_from(("1", "2", "3", "0", "-1", "x", "1.5", "1 2")))
    n = int(dim) if dim in ("1", "2", "3") else 1
    row = st.integers(n - 1, n + 1).flatmap(lambda k: st.lists(number, min_size=k, max_size=k))
    lines = [f"dim {dim}", "matrix", *map(" ".join, draw(st.lists(row, min_size=n, max_size=n)))]
    lines += ["digits", " ".join(["0"] * n), *map(" ".join, draw(st.lists(row, max_size=3)))]
    # drop, duplicate or comment out one line now and then
    edit = draw(st.sampled_from(("none", "drop", "dup", "comment")))
    at = draw(st.integers(0, len(lines) - 1))
    if edit == "drop":
        del lines[at]
    elif edit == "dup":
        lines.insert(at, lines[at])
    elif edit == "comment":
        lines[at] = "# " + lines[at]
    return "\n".join(lines) + "\n"


# 1e308 entries overflow numpy products on purpose; only exceptions matter here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(pair_texts())
def test_parse_pair_spec_fails_only_typed(text):
    try:
        pair = parse_pair_spec(text)
    except (SelfAffineError, ValueError):
        return
    assert isinstance(pair, SelfAffinePair)


def _schedule():
    spec = st.tuples(st.sampled_from(("geo", "lin")), number, number, small_int).map(
        lambda t: f"{t[0]}:{t[1]},{t[2]},{t[3]}"
    )
    natural = st.one_of(small_int, st.just("1100")).map(lambda c: f"natural:{c}")
    return st.one_of(spec, natural, st.sampled_from(("foo:3", "geo:1,2", "")))


OPTIONS = {
    "expand": {"--level": small_int},
    "check": {"--level": small_int},
    "density": {"--level": small_int, "--windows": _schedule()},
    "classify-origin": {"--level": small_int, "--windows": _schedule()},
    "sdensity": {"--level": small_int, "--thresholds": _schedule(), "--s": number},
    "raster": {
        "--resolution": st.one_of(st.integers(1, 64).map(str), small_int),
        "--max-iters": small_int,
    },
    "renorm-check": {
        "--window": st.lists(number, min_size=1, max_size=4).map(",".join),
        "--steps": small_int,
        "--samples": st.one_of(st.integers(1, 1000).map(str), small_int),
        "--seed": small_int,
        "--burn-in": small_int,
    },
    "cantor": {
        "--N": number,
        "--d": number,
        "--op": st.sampled_from(("count", "hmeasure", "sequence", "dominance", "bad")),
        "--coeffs": st.one_of(
            st.lists(number, min_size=1, max_size=5).map(",".join),
            st.integers(1, 800).map(lambda k: ",".join(["2"] * k)),
        ),
        "--m-max": st.one_of(small_int, st.integers(600, 700).map(str)),
        "--level": small_int,
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, "--cap", "4096"]
    if command != "cantor":
        argv += ["--pair", "@" + draw(st.sampled_from(sorted(PAIRS) + ["missing"]))]
    for flag, values in OPTIONS[command].items():
        # mostly present, sometimes left out to reach argparse's own errors
        if draw(st.integers(0, 5)):
            argv += [flag, draw(values)]
    if draw(st.integers(0, 9)) == 0:
        argv += ["-o", "@directory"]
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_main_exits_with_a_code_and_no_exception(paths, argv):
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2)
