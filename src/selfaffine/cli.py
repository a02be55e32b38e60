"""Command-line front end: pair files in, deterministic CSV or PBM out.

Output rules, shared by every command: comment lines prefixed '#' carry the
toolkit version and the fully resolved configuration, numbers print with 12
significant digits, and identical invocations produce byte-identical bytes
(randomized commands demand an explicit --seed).  Exit codes: 0 success,
1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
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
    lebesgue_from_density,
    lower_density_profile,
    natural_schedule,
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
from .expansion import DEFAULT_CAP, expand_level
from .pairs import REGIME_TILE, SelfAffinePair, detect_similarity, validate_pair
from .sdensity import (
    check_renormalization,
    hausdorff_from_sdensity,
    natural_thresholds,
    sample_self_similar_measure,
    upper_s_density_profile,
)


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _fmt_point(value) -> str:
    if isinstance(value, tuple):
        return "(" + " ".join(_fmt(v) for v in value) + ")"
    return _fmt(value)


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
    lines = [f"dim {pair.dim}", "matrix"]
    lines += [" ".join(repr(float(v)) for v in row) for row in pair.matrix.entries]
    lines.append("digits")
    lines += [" ".join(repr(float(v)) for v in row) for row in pair.digits.vectors]
    return "\n".join(lines) + "\n"


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
            valid = not (count < 1 or start <= 0 or (count > 1 and stop <= start))
        else:
            count = int(rest)
            valid = kind == "natural" and count >= 1
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise UsageError(
            f"bad schedule {spec!r}; use geo:start,stop,count, lin:start,stop,count,"
            " or natural:count"
        )
    if kind == "natural":
        return tuple(natural(count))
    build = WindowSchedule.geometric if kind == "geo" else WindowSchedule.linear
    return build(start, stop, count).sizes


def _preamble(command: str, resolved: dict) -> list[str]:
    items = " ".join(f"{k}={v}" for k, v in resolved.items())
    return [f"# selfaffine {__version__}", f"# config: command={command} {items}"]


def _cmd_expand(args) -> str:
    pair = _load_pair(args.pair)
    pts = expand_level(pair, args.level, args.cap)
    lines = _preamble("expand", {"pair": args.pair, "level": args.level, "cap": args.cap})
    lines.append(f"# regime: {pair.regime} m={pair.m} |det|={_fmt(pair.matrix.det_abs)}")
    lines.append(",".join(f"x_{i + 1}" for i in range(pts.dim)) + ",weight")
    for p, w in zip(pts.points, pts.weights):
        lines.append(",".join(_fmt(v) for v in p) + f",{w}")
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> str:
    pair = _load_pair(args.pair)
    report = osc_verdict(pair, args.level, args.cap)
    lines = _preamble("check", {"pair": args.pair, "level": args.level, "cap": args.cap})
    lines.append(f"# separation_stabilized: {_fmt_bool(report.separation_stabilized)}")
    lines.append(f"# density_bounded: {_fmt_bool(report.density_bounded)}")
    if report.witness is not None:
        w = report.witness
        point = _fmt_point(tuple(float(v) for v in np.ravel(w.point)) if pair.dim > 1 else float(np.ravel(w.point)[0]))
        observed = "" if w.observed_multiplicity is None else f" observed={w.observed_multiplicity}"
        lines.append(
            f"# witness: point={point} copies={w.copies} bound={w.bound}"
            f" verified={_fmt_bool(w.verified)}{observed}"
        )
    if report.verdict == VERDICT_FAILS:
        if report.first_collision is not None:
            level, value, _ = report.first_collision
            lines.append(f"OSC-fails: collision at point {_fmt_point(value)} (level {level})")
        else:
            lines.append("OSC-fails: density profile diverges")
    else:
        lines.append(report.verdict)
    lines.append("level,min_separation")
    for level, sep in report.min_separation_by_level:
        lines.append(f"{level},{_fmt(sep)}")
    return "\n".join(lines) + "\n"


def _density_rows(dim: int, upper, lower) -> list[str]:
    if dim == 1:
        header = "N,sup_count,sup_value,argmax_center,inf_count,inf_value,argmin_center,trusted"
    else:
        header = (
            "N,sup_count,sup_value,argmax_center_x,argmax_center_y,"
            "inf_count,inf_value,argmin_center_x,argmin_center_y,trusted"
        )
    by_size = {e.size: e for e in lower.entries}
    rows = [header]
    for e in upper.entries:
        cells = [_fmt(e.size), str(e.sup_count), _fmt(e.sup_value)]
        cells += [_fmt(c) for c in e.argmax_center]
        low = by_size.get(e.size)
        if low is None:
            cells += [""] * (dim + 3)
        else:
            cells += [str(low.inf_count), _fmt(low.inf_value)]
            cells += [_fmt(c) for c in low.argmin_center]
            cells.append(_fmt_bool(low.trusted))
        rows.append(",".join(cells))
    return rows


def _profiles(pair, args):
    """Expansion plus upper/lower profiles on the resolved schedule."""
    pts = expand_level(pair, args.level, args.cap)
    schedule = WindowSchedule(
        _resolve_sizes(args.windows, lambda count: natural_schedule(pts, count).sizes)
    )
    upper = upper_density_profile(pts, schedule, level=args.level)
    try:
        nxt = expand_level(pair, args.level + 1, args.cap)
    except BudgetExceeded:
        nxt = None
    lower = lower_density_profile(pts, schedule, nxt, level=args.level)
    return pts, schedule, upper, lower


def _cmd_density(args) -> str:
    pair = _load_pair(args.pair)
    pts, schedule, upper, lower = _profiles(pair, args)
    lines = _preamble(
        "density",
        {"pair": args.pair, "level": args.level, "windows": args.windows, "cap": args.cap},
    )
    lines.append("# windows: " + ",".join(_fmt(s) for s in schedule.sizes))
    lines.append(f"# regime: {pair.regime} m={pair.m} |det|={_fmt(pair.matrix.det_abs)}")
    if pair.regime == REGIME_TILE:
        measure = lebesgue_from_density(upper)
        lines.append(
            f"# lebesgue: {_fmt(measure.value)} divergent={_fmt_bool(measure.divergent)}"
        )
    lines += _density_rows(pair.dim, upper, lower)
    return "\n".join(lines) + "\n"


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
    profile = upper_s_density_profile(pts, s, thresholds, level=args.level)
    measure = hausdorff_from_sdensity(profile)
    lines = _preamble(
        "sdensity",
        {
            "pair": args.pair,
            "level": args.level,
            "thresholds": args.thresholds,
            "cap": args.cap,
        },
    )
    lines.append("# thresholds: " + ",".join(_fmt(t) for t in thresholds))
    lines.append(f"# s: {_fmt(s)} source={source}")
    lines.append(
        f"# hausdorff: {_fmt(measure.value)} divergent={_fmt_bool(measure.divergent)}"
    )
    lines.append("r,sup_count,sup_value,argmax_lo,argmax_hi")
    for e in profile.entries:
        lines.append(
            f"{_fmt(e.threshold)},{e.sup_count},{_fmt(e.sup_value)},"
            f"{_fmt(e.argmax[0])},{_fmt(e.argmax[1])}"
        )
    return "\n".join(lines) + "\n"


def _cmd_cantor(args) -> str:
    if args.N < 3:
        raise UsageError("--N must be at least 3")
    if args.d <= 0:
        raise UsageError("--d must be positive")
    cp = CantorPair(N=args.N, d=args.d)
    resolved = {"op": args.op, "N": _fmt(args.N), "d": _fmt(args.d)}
    if args.op == "count":
        if args.coeffs is None:
            raise UsageError("--coeffs is required for op count")
        try:
            coeffs = [float(v) for v in args.coeffs.split(",")]
        except ValueError:
            raise UsageError(f"bad coefficient list {args.coeffs!r}") from None
        resolved["coeffs"] = args.coeffs
        lines = _preamble("cantor", resolved)
        b = sum(r * args.N**j for j, r in enumerate(coeffs))
        lines.append("b,count")
        lines.append(f"{_fmt(b)},{count_upto(cp, coeffs)}")
    elif args.op == "hmeasure":
        lines = _preamble("cantor", resolved)
        lines.append(f"# s: {_fmt(cp.s)}")
        lines.append(f"{cantor_hausdorff(cp):.12f}")
    elif args.op == "sequence":
        resolved["m_max"] = args.m_max
        lines = _preamble("cantor", resolved)
        values, limit = cantor_sdensity_sequence(cp, args.m_max)
        lines.append(f"# s: {_fmt(cp.s)}")
        lines.append(f"# limit: {_fmt(limit)}")
        lines.append("m,value")
        lines += [f"{m},{_fmt(v)}" for m, v in values]
    else:
        resolved["level"] = args.level
        resolved["cap"] = args.cap
        lines = _preamble("cantor", resolved)
        holds, counterexample = translation_dominance_check(cp, args.level, args.cap)
        lines.append("holds,counterexample_a,counterexample_b")
        if holds:
            lines.append("true,,")
        else:
            a, b = counterexample
            lines.append(f"false,{_fmt(a)},{_fmt(b)}")
    return "\n".join(lines) + "\n"


def _cmd_raster(args) -> str:
    pair = _load_pair(args.pair)
    if args.resolution**pair.dim > args.cap:
        raise BudgetExceeded(f"raster {args.resolution}**{pair.dim} cells exceed cap {args.cap}")
    grid, estimate = raster_attractor(pair, args.resolution, args.max_iters)
    comments = (
        f"selfaffine {__version__}",
        f"config: command=raster pair={args.pair} resolution={args.resolution}"
        f" max_iters={args.max_iters}",
        f"box: [{_fmt(-grid.radius)},{_fmt(grid.radius)}]^{grid.dim}",
        f"outer: {_fmt(estimate.outer)} iterations={estimate.iterations}"
        f" converged={_fmt_bool(estimate.converged)}",
    )
    return render_raster(grid, comments)


def _cmd_classify_origin(args) -> str:
    pair = _load_pair(args.pair)
    pts, schedule, upper, lower = _profiles(pair, args)
    measure = lebesgue_from_density(upper) if pair.regime == REGIME_TILE else None
    lebesgue = 0.0 if measure is None or measure.divergent else measure.value
    report = classify_origin(pair, upper, lower, lebesgue)
    lines = _preamble(
        "classify-origin",
        {"pair": args.pair, "level": args.level, "windows": args.windows, "cap": args.cap},
    )
    lines.append("# windows: " + ",".join(_fmt(s) for s in schedule.sizes))
    lines.append("# calibration: interior within 10% of 1/|K|, boundary below 10% of 1/|K|")
    lines.append(f"# lebesgue: {_fmt(lebesgue)}")
    lines.append(f"{report.label} (evidence at level {report.level})")
    lines.append("label,trusted_value,reference,window_size,level")
    lines.append(
        f"{report.label},{_fmt(report.trusted_value)},{_fmt(report.reference)},"
        f"{_fmt(report.window_size)},{report.level}"
    )
    return "\n".join(lines) + "\n"


def _cmd_renorm_check(args) -> str:
    pair = _load_pair(args.pair)
    try:
        vals = [float(v) for v in args.window.split(",")]
    except ValueError:
        raise UsageError(f"bad window {args.window!r}") from None
    if len(vals) != 2 * pair.dim:
        raise UsageError(
            f"window needs {2 * pair.dim} numbers (lo,hi per axis), got {len(vals)}"
        )
    lo = np.array(vals[0::2])
    hi = np.array(vals[1::2])
    sample = sample_self_similar_measure(pair, args.samples, args.seed, args.burn_in)
    check = check_renormalization(pair, (lo, hi), args.steps, sample, args.cap)
    lines = _preamble(
        "renorm-check",
        {
            "pair": args.pair,
            "window": args.window,
            "steps": args.steps,
            "samples": args.samples,
            "seed": args.seed,
            "burn_in": args.burn_in,
            "cap": args.cap,
        },
    )
    lines.append("lhs,rhs,stderr,abs_diff,within_3_stderr")
    diff = abs(check.lhs - check.rhs)
    lines.append(
        f"{_fmt(check.lhs)},{_fmt(check.rhs)},{_fmt(check.stderr)},"
        f"{_fmt(diff)},{_fmt_bool(diff <= 3 * check.stderr)}"
    )
    return "\n".join(lines) + "\n"


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
    sub.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP, help="mass budget")
    sub.add_argument("-o", "--output", help="output file (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--windows", default="natural:9", help="geo:a,b,c | lin:a,b,c | natural:c")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("sdensity", help="upper s-density profile over intervals")
    _add_common(p)
    p.add_argument("--s", type=float, default=None, help="override exponent s")
    p.add_argument(
        "--thresholds", default="natural:9", help="geo:a,b,c | lin:a,b,c | natural:c"
    )
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
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cantor)

    p = sub.add_parser("raster", help="outer raster of the attractor (PBM in 2-D)")
    _add_common(p, level=False)
    p.add_argument("--resolution", required=True, type=_positive_int, help="cells per axis")
    p.add_argument("--max-iters", type=_positive_int, default=256)
    p.set_defaults(func=_cmd_raster)

    p = sub.add_parser("classify-origin", help="interior/boundary verdict at the origin")
    _add_common(p)
    p.add_argument("--windows", default="natural:9", help="geo:a,b,c | lin:a,b,c | natural:c")
    p.set_defaults(func=_cmd_classify_origin)

    p = sub.add_parser("renorm-check", help="Monte Carlo renormalization identity check")
    _add_common(p, level=False)
    p.add_argument("--window", required=True, help="lo,hi per axis, comma-separated")
    p.add_argument("--steps", required=True, type=_positive_int, help="renormalization depth")
    p.add_argument("--samples", required=True, type=_positive_int)
    p.add_argument("--seed", required=True, type=int, help="explicit sampler seed")
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
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0
