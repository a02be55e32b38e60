"""Command-line front end: pair files in, deterministic CSV or PBM out.

Output rules, shared by every command through ``_report``: comment lines
prefixed '#' carry the toolkit version, the fully resolved configuration and
the command's ``key: value`` results, numbers print with 12 significant
digits (``_cell``), and identical invocations produce byte-identical bytes
(randomized commands demand an explicit --seed).  Exit codes: 0 success,
1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attractor import (
    VERDICT_FAILS,
    classify_origin,
    osc_verdict,
    raster_attractor,
    render_raster,
)
from .beurling import (
    WindowSchedule,
    _window_volumes,
    last_trusted_lower_profile,
    lebesgue_from_density,
    lower_density_profile,
    natural_schedule,
    trend_sizes,
    upper_density_profile,
)
from .cantor import (
    CantorPair,
    cantor_hausdorff,
    cantor_sdensity_sequence,
    count_upto,
    translation_dominance_check,
)
from .errors import BudgetExceeded, ParseError, SelfAffineError, UnsupportedDimension
from .errors import _enforce_budget, _enforce_power_budget
from .expansion import DEFAULT_CAP, _next_level, expand_level
from .pairs import REGIME_TILE, SelfAffinePair, detect_similarity, validate_pair
from .sdensity import (
    ChaosGame,
    check_renormalization,
    hausdorff_from_sdensity,
    natural_thresholds,
    upper_s_density_profile,
)


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


def parse_pair_spec(text: str) -> SelfAffinePair:
    """Parse the line-oriented pair format.

    Layout: ``dim n``, the literal line ``matrix``, n rows of n entries, the
    literal line ``digits``, then one row per digit vector.  ``#`` starts a
    comment anywhere on a line.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    pos = 0

    def take(what: str):
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] if rows else 1
            raise ParseError(f"unexpected end of file, expected {what}", line=last)
        item = rows[pos]
        pos += 1
        return item

    lineno, line = take("'dim n'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError("expected 'dim n'", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"dimension {parts[1]!r} is not an integer", line=lineno) from None
    if n < 1:
        raise ParseError("dimension must be positive", line=lineno)

    def vector(lineno: int, line: str, what: str) -> list[float]:
        vals = line.split()
        if len(vals) != n:
            raise ParseError(f"{what} needs {n} entries, got {len(vals)}", line=lineno)
        try:
            return [float(v) for v in vals]
        except ValueError:
            raise ParseError(f"{what} has a non-numeric entry", line=lineno) from None

    lineno, line = take("'matrix'")
    if line != "matrix":
        raise ParseError("expected literal 'matrix'", line=lineno)
    matrix = [vector(*take("a matrix row"), "matrix row") for _ in range(n)]
    lineno, line = take("'digits'")
    if line != "digits":
        raise ParseError("expected literal 'digits'", line=lineno)
    digits = []
    while pos < len(rows):
        digits.append(vector(*take("a digit row"), "digit row"))
    if not digits:
        raise ParseError("at least one digit row required", line=lineno)
    return validate_pair(matrix, digits)


def render_pair_spec(pair: SelfAffinePair) -> str:
    """Inverse of parse_pair_spec; repr-formatted entries round-trip exactly."""

    def rows(vectors) -> str:
        return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in vectors)

    return f"dim {pair.dim}\nmatrix\n{rows(pair.matrix.entries)}digits\n{rows(pair.digits.vectors)}"


def _load_pair(path: str) -> SelfAffinePair:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read pair file {path}: {exc}") from exc
    return parse_pair_spec(text)


def _resolve_sizes(spec: str, natural) -> tuple[float, ...]:
    """Window sizes or thresholds of a schedule spec; ``natural(count)`` builds natural:count."""
    kind, _, rest = spec.partition(":")
    try:
        if kind in ("geo", "lin"):
            a, b, c = rest.split(",")
            start, stop, count = float(a), float(b), int(c)
            finite = math.isfinite(start) and math.isfinite(stop)
            valid = finite and not (count < 1 or start <= 0 or (count > 1 and stop <= start))
        else:
            count = int(rest)
            valid = kind == "natural" and count >= 1
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise UsageError(
            f"bad schedule {spec!r}; use geo:start,stop,count, lin:start,stop,count"
            " with finite numbers, or natural:count"
        )
    if kind == "natural":
        return tuple(natural(count))
    build = WindowSchedule.geometric if kind == "geo" else WindowSchedule.linear
    return build(start, stop, count).sizes


#: The printed form of a number: 12 significant digits.
_g12 = "{:.12g}".format

#: Rows of ``expand`` output formatted together, one block at a time.
_EXPAND_BLOCK = 4096


def _cell(v) -> str:
    """One printed value: 12 significant digits, true/false, (a b) for a point, '' for None."""
    if isinstance(v, float):  # before bool and int; np.float64 is a float
        return _g12(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "(" + " ".join(map(_cell, v)) + ")"
    return "" if v is None else str(v)


def _comments(args, config, comments) -> list[str]:
    """Comment lines without '# ': version, resolved config of the named args, ``key: value``."""
    items = "".join(f" {k}={_cell(getattr(args, k))}" for k in config)
    lines = [f"selfaffine {__version__}", f"config: command={args.command}{items}"]
    return lines + [f"{k}: {_cell(v)}" for k, v in comments.items()]


def _report(args, config, comments, body) -> str:
    """Comments, then body rows: a str prints verbatim, a tuple as one CSV row of cells."""
    lines = [f"# {c}" for c in _comments(args, config, comments)]
    lines += [r if isinstance(r, str) else ",".join(map(_cell, r)) for r in body]
    return "\n".join(lines) + "\n"


def _regime(pair) -> str:
    return f"{pair.regime} m={pair.m} |det|={_cell(pair.matrix.det_abs)}"


def _cmd_expand(args) -> str:
    pair = _load_pair(args.pair)
    pts = expand_level(pair, args.level, args.cap)
    header = ",".join(f"x_{i + 1}" for i in range(pts.dim)) + ",weight"
    body = itertools.chain([header], _expand_blocks(pts))
    return _report(args, ("pair", "level", "cap"), {"regime": _regime(pair)}, body)


def _expand_blocks(pts):
    """The CSV rows of a point set as verbatim text, ``_EXPAND_BLOCK`` rows per string.

    A coordinate column prints with ``%d`` when every value in it is an
    integer below 1e12 in magnitude and none is -0.0, where ``%d`` prints
    what ``_cell`` prints, and with ``%.12g``, the rule of ``_cell``,
    otherwise; weights print with ``%d``.  When every column prints with
    ``%d``, a block is written by ``_int_rows``; otherwise it is one
    %-template, the row's specs repeated once per row, applied to the
    block's values laid out row by row.  No list of every row or of a whole
    column's strings is built.
    """
    p = pts.points
    width = p.shape[1] + 1
    integral = [
        bool(np.all((np.trunc(c) == c) & (np.abs(c) < 1e12) & ~((c == 0) & np.signbit(c))))
        for c in p.T
    ]
    row = ",".join(["%d" if i else "%.12g" for i in integral] + ["%d"])
    for a in range(0, len(pts), _EXPAND_BLOCK):
        b = a + _EXPAND_BLOCK
        block = p[a:b]
        if all(integral):
            yield _int_rows([*block.T.astype(np.int64), pts.weights[a:b]])
            continue
        values = [None] * (len(block) * width)
        for j, i in enumerate(integral):
            values[j::width] = (block[:, j].astype(np.int64) if i else block[:, j]).tolist()
        values[width - 1 :: width] = pts.weights[a:b].tolist()
        yield "\n".join([row] * len(block)) % tuple(values)


def _int_rows(columns) -> str:
    """Rows of equally long int64 columns as ``%d`` prints them, comma-separated, a row per line.

    The text is built as a byte matrix with a column per row of output:
    each value is written right-aligned, as wide as its column's longest
    value, one decimal digit at a time from the last, and followed by its
    separator.  A value's length is one digit more for each quotient still
    nonzero, and one more for a minus sign before its first digit.  A mask
    of each value's own characters, read row by row of output, selects the
    text.
    """
    chars, keep = [], []
    for j, v in enumerate(columns):
        neg = v < 0
        mag = np.abs(v).view(np.uint64)  # |v| even for -2**63, whose abs wraps to itself
        width = len(str(int(mag.max()))) + bool(neg.any())
        field = np.empty((width + 1, len(v)), dtype=np.uint8)
        length = neg.astype(np.intp) + 1
        for c in range(width - 1, -1, -1):
            quotient = mag // 10
            field[c] = mag - quotient * 10
            mag = quotient
            length += quotient != 0
        field[:width] += ord("0")
        field[width] = ord(",") if j + 1 < len(columns) else ord("\n")
        minus = np.flatnonzero(neg)
        field[width - length[minus], minus] = ord("-")
        chars.append(field)
        keep.append(np.arange(width + 1)[:, None] >= width - length)
    text = np.concatenate(chars).T.copy()[np.concatenate(keep).T.copy()]
    return text[:-1].tobytes().decode("ascii")


def _cmd_check(args) -> str:
    pair = _load_pair(args.pair)
    report = osc_verdict(pair, args.level, args.cap)
    comments = {
        "separation_stabilized": report.separation_stabilized,
        "density_bounded": report.density_bounded,
    }
    if report.witness is not None:
        w = report.witness
        point = tuple(float(v) for v in np.ravel(w.point))
        observed = "" if w.observed_multiplicity is None else f" observed={w.observed_multiplicity}"
        comments["witness"] = (
            f"point={_cell(point if pair.dim > 1 else point[0])} copies={w.copies}"
            f" bound={w.bound} verified={_cell(w.verified)}{observed}"
        )
    verdict = report.verdict
    if verdict == VERDICT_FAILS and report.first_collision is not None:
        level, value, _ = report.first_collision
        verdict = f"OSC-fails: collision at point {_cell(value)} (level {level})"
    elif verdict == VERDICT_FAILS:
        verdict = "OSC-fails: density profile diverges"
    body = [verdict, "level,min_separation", *report.min_separation_by_level]
    return _report(args, ("pair", "level", "cap"), comments, body)


def _profiles(pair, args, verdict=False):
    """Schedule plus upper/lower profiles of the expansion on it.

    Level k + 1 is one more step from level k; past the budget it is None.
    For a verdict the profiles hold only what ``classify_origin`` and
    ``lebesgue_from_density`` read: the upper one the sizes of
    ``trend_sizes``, the lower one its last trusted entry
    (``last_trusted_lower_profile``).
    """
    pts = expand_level(pair, args.level, args.cap)
    schedule = WindowSchedule(
        _resolve_sizes(args.windows, lambda count: natural_schedule(pts, count).sizes)
    )
    try:
        _window_volumes(schedule, pts.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    upper_schedule = WindowSchedule(trend_sizes(schedule.sizes)) if verdict else schedule
    upper = upper_density_profile(pts, upper_schedule, level=args.level, cap=args.cap)
    try:
        nxt = _next_level(pair, pts, args.level, args.cap)
    except BudgetExceeded:
        nxt = None
    lower_profile = last_trusted_lower_profile if verdict else lower_density_profile
    lower = lower_profile(pts, schedule, nxt, level=args.level, cap=args.cap)
    return schedule, upper, lower


def _cmd_density(args) -> str:
    pair = _load_pair(args.pair)
    schedule, upper, lower = _profiles(pair, args)
    comments = {"windows": ",".join(map(_cell, schedule.sizes)), "regime": _regime(pair)}
    if pair.regime == REGIME_TILE:
        measure = lebesgue_from_density(upper)
        comments["lebesgue"] = f"{_cell(measure.value)} divergent={_cell(measure.divergent)}"
    argmax, argmin = (
        c if pair.dim == 1 else f"{c}_x,{c}_y" for c in ("argmax_center", "argmin_center")
    )
    rows = [f"N,sup_count,sup_value,{argmax},inf_count,inf_value,{argmin},trusted"]
    by_size = {e.size: e for e in lower.entries}
    for e in upper.entries:
        low = by_size.get(e.size)
        if low is None:
            tail = (None,) * (pair.dim + 3)
        else:
            tail = (low.inf_count, low.inf_value, *low.argmin_center, low.trusted)
        rows.append((e.size, e.sup_count, e.sup_value, *e.argmax_center, *tail))
    return _report(args, ("pair", "level", "windows", "cap"), comments, rows)


def _cmd_sdensity(args) -> str:
    pair = _load_pair(args.pair)
    similarity = detect_similarity(pair)
    if args.s is not None:
        s, source = args.s, "user"
    elif similarity.is_similarity:
        s, source = similarity.sim_dimension, "similarity"
    else:
        raise UsageError("pair is not a similarity; supply --s explicitly")
    if pair.dim != 1:
        # refuse before the expansion, which can be the costliest step
        raise UnsupportedDimension("s-density scan supports dimension 1 only")
    pts = expand_level(pair, args.level, args.cap)
    thresholds = _resolve_sizes(args.thresholds, lambda count: natural_thresholds(pts, count))
    profile = upper_s_density_profile(pts, s, thresholds, level=args.level, cap=args.cap)
    measure = hausdorff_from_sdensity(profile)
    comments = {
        "thresholds": ",".join(map(_cell, thresholds)),
        "s": f"{_cell(s)} source={source}",
        "hausdorff": f"{_cell(measure.value)} divergent={_cell(measure.divergent)}",
    }
    rows = [(e.threshold, e.sup_count, e.sup_value, *e.argmax) for e in profile.entries]
    body = ["r,sup_count,sup_value,argmax_lo,argmax_hi", *rows]
    return _report(args, ("pair", "level", "thresholds", "cap"), comments, body)


def _cmd_cantor(args) -> str:
    if args.N < 3:
        raise UsageError("--N must be at least 3")
    if args.d <= 0:
        raise UsageError("--d must be positive")
    cp = CantorPair(N=args.N, d=args.d)
    config, comments = ("op", "N", "d"), {}
    if args.op == "count":
        if args.coeffs is None:
            raise UsageError("--coeffs is required for op count")
        try:
            coeffs = [float(v) for v in args.coeffs.split(",")]
        except ValueError:
            raise UsageError(f"bad coefficient list {args.coeffs!r}") from None
        config += ("coeffs",)
        count = count_upto(cp, coeffs)
        try:
            b = sum(r * args.N**j for j, r in enumerate(coeffs))
        except OverflowError:
            b = math.inf
        if not math.isfinite(b):
            raise ValueError("b = sum of r_j N**j overflows a float")
        body = ["b,count", (b, count)]
    elif args.op == "hmeasure":
        comments = {"s": cp.s}
        body = [f"{cantor_hausdorff(cp):.12f}"]
    elif args.op == "sequence":
        config += ("m_max",)
        values, limit = cantor_sdensity_sequence(cp, args.m_max)
        comments = {"s": cp.s, "limit": limit}
        body = ["m,value", *values]
    else:
        config += ("level", "cap")
        holds, counterexample = translation_dominance_check(cp, args.level, args.cap)
        row = (holds, *(counterexample or (None, None)))
        body = ["holds,counterexample_a,counterexample_b", row]
    return _report(args, config, comments, body)


def _cmd_raster(args) -> str:
    pair = _load_pair(args.pair)
    _enforce_power_budget("raster", args.resolution, pair.dim, args.cap)
    grid, estimate = raster_attractor(pair, args.resolution, args.max_iters)
    comments = {
        "box": f"[{_cell(-grid.radius)},{_cell(grid.radius)}]^{grid.dim}",
        "outer": f"{_cell(estimate.outer)} iterations={estimate.iterations}"
        f" converged={_cell(estimate.converged)}",
    }
    return render_raster(grid, _comments(args, ("pair", "resolution", "max_iters"), comments))


def _cmd_classify_origin(args) -> str:
    pair = _load_pair(args.pair)
    schedule, upper, lower = _profiles(pair, args, verdict=True)
    measure = lebesgue_from_density(upper) if pair.regime == REGIME_TILE else None
    lebesgue = 0.0 if measure is None or measure.divergent else measure.value
    report = classify_origin(pair, upper, lower, lebesgue)
    comments = {
        "windows": ",".join(map(_cell, schedule.sizes)),
        "calibration": "interior within 10% of 1/|K|, boundary below 10% of 1/|K|",
        "lebesgue": lebesgue,
    }
    body = [
        f"{report.label} (evidence at level {report.level})",
        "label,trusted_value,reference,window_size,level",
        (report.label, report.trusted_value, report.reference, report.window_size, report.level),
    ]
    return _report(args, ("pair", "level", "windows", "cap"), comments, body)


def _cmd_renorm_check(args) -> str:
    pair = _load_pair(args.pair)
    try:
        vals = [float(v) for v in args.window.split(",")]
    except ValueError:
        vals = [math.nan]
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"bad window {args.window!r}; use finite numbers")
    if len(vals) != 2 * pair.dim:
        raise UsageError(
            f"window needs {2 * pair.dim} numbers (lo,hi per axis), got {len(vals)}"
        )
    lo = np.array(vals[0::2])
    hi = np.array(vals[1::2])
    _enforce_budget("chaos game", args.samples + args.burn_in, args.cap)
    game = ChaosGame(pair, args.samples, args.seed, args.burn_in)
    check = check_renormalization(pair, (lo, hi), args.steps, game, args.cap)
    diff = abs(check.lhs - check.rhs)
    row = (check.lhs, check.rhs, check.stderr, diff, diff <= 3 * check.stderr)
    config = ("pair", "window", "steps", "samples", "seed", "burn_in", "cap")
    return _report(args, config, {}, ["lhs,rhs,stderr,abs_diff,within_3_stderr", row])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _add_common(sub, pair=True, level=True):
    if pair:
        sub.add_argument("--pair", required=True, help="pair-spec file")
    if level:
        sub.add_argument("--level", required=True, type=_positive_int, help="expansion level k")
    sub.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_CAP,
        help="work budget: expansion mass, separation cell pairs, 2-D upper- and lower-scan"
        " windows, tile-search cells, raster cells, chaos-game steps and renormalization box"
        " tests",
    )
    sub.add_argument("-o", "--output", help="output file (default: standard output)")


_SCHEDULE_HELP = "geo:a,b,c | lin:a,b,c | natural:c"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="selfaffine",
        description="Expansion, density, and attractor diagnostics for self-affine pairs.",
    )
    parser.add_argument("--version", action="version", version=f"selfaffine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="enumerate level-k expansions with multiplicity")
    _add_common(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("check", help="open-set-condition verdict up to level k")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("density", help="upper/lower window-density profiles")
    _add_common(p)
    p.add_argument("--windows", default="natural:9", help=_SCHEDULE_HELP)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("sdensity", help="upper s-density profile over intervals")
    _add_common(p)
    p.add_argument("--s", type=float, default=None, help="override exponent s")
    p.add_argument("--thresholds", default="natural:9", help=_SCHEDULE_HELP)
    p.set_defaults(func=_cmd_sdensity)

    p = sub.add_parser("cantor", help="closed forms for the two-digit family")
    p.add_argument("--N", required=True, type=float, help="dilation, at least 3")
    p.add_argument("--d", required=True, type=float, help="nonzero digit")
    p.add_argument(
        "--op", required=True, choices=("count", "hmeasure", "sequence", "dominance")
    )
    p.add_argument("--coeffs", help="comma-separated r_j in {0,d} (op count)")
    p.add_argument("--m-max", type=_positive_int, default=12, help="sequence length")
    p.add_argument("--level", type=_positive_int, default=8, help="level (op dominance)")
    _add_common(p, pair=False, level=False)
    p.set_defaults(func=_cmd_cantor)

    p = sub.add_parser("raster", help="outer raster of the attractor (PBM in 2-D)")
    _add_common(p, level=False)
    p.add_argument("--resolution", required=True, type=_positive_int, help="cells per axis")
    p.add_argument("--max-iters", type=_positive_int, default=256)
    p.set_defaults(func=_cmd_raster)

    p = sub.add_parser("classify-origin", help="interior/boundary verdict at the origin")
    _add_common(p)
    p.add_argument("--windows", default="natural:9", help=_SCHEDULE_HELP)
    p.set_defaults(func=_cmd_classify_origin)

    p = sub.add_parser("renorm-check", help="Monte Carlo renormalization identity check")
    _add_common(p, level=False)
    p.add_argument("--window", required=True, help="lo,hi per axis, comma-separated")
    p.add_argument("--steps", required=True, type=_positive_int, help="renormalization depth")
    p.add_argument("--samples", required=True, type=_positive_int)
    p.add_argument("--seed", required=True, type=_nonnegative_int, help="explicit sampler seed")
    p.add_argument("--burn-in", type=_nonnegative_int, default=64)
    p.set_defaults(func=_cmd_renorm_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SelfAffineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.output).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"usage error: cannot write output file {args.output}: {exc}", file=sys.stderr)
        return 2
    return 0
