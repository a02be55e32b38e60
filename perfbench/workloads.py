"""The benchmark's workloads: pair files, CLI command lists and known answers.

Each workload is a fixed list of ``selfaffine`` commands run in order by one
client.  Why each workload exists, and which layers it loads, is written up
in README.md beside this file.  A command's ``answer`` reads its stdout and
raises ``AssertionError`` when a known answer is missed; commands whose
output depends on the seed carry ``seeded=True`` and have no recorded hash.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Pair files, written into the work directory before every run.
PAIRS = {
    "doubling.txt": "dim 1\nmatrix\n2\ndigits\n0\n1\n",
    "negabinary.txt": "dim 1\nmatrix\n-2\ndigits\n0\n1\n",
    "collision.txt": "dim 1\nmatrix\n4\ndigits\n0\n1\n2\n8\n",
    "twindragon.txt": "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n",
    "cantor.txt": "dim 1\nmatrix\n3\ndigits\n0\n2\n",
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    answer: Callable[[str], None] | None = None
    seeded: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _comment(text: str, key: str) -> list[str]:
    """Fields of the first '# key: ...' comment line."""
    prefix = f"# {key}: "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()
    raise AssertionError(f"no '# {key}:' line")


def _has_line(text: str, wanted: str) -> None:
    assert wanted in text.splitlines(), f"no line {wanted!r}"


def _lebesgue_one(text: str) -> None:
    value, flag = _comment(text, "lebesgue")
    assert abs(float(value) - 1.0) <= 1e-4 and flag == "divergent=false", (value, flag)


def _divergent(text: str) -> None:
    value, flag = _comment(text, "lebesgue")
    assert flag == "divergent=true", (value, flag)


def _interior(text: str) -> None:
    assert any(line.startswith("interior (") for line in text.splitlines()), "not interior"


def _osc(text: str) -> None:
    _has_line(text, "consistent-with-OSC")


def _raster_cover(text: str) -> None:
    outer, _, converged = _comment(text, "outer")
    # the twin dragon has area 1 and the raster is an outer cover
    assert converged == "converged=true" and float(outer) >= 1.0, (outer, converged)


def _cantor_hausdorff(text: str) -> None:
    from selfaffine import CantorPair, cantor_hausdorff

    value, flag = _comment(text, "hausdorff")
    exact = cantor_hausdorff(CantorPair(3, 2))
    assert abs(float(value) - exact) <= 1e-4 and flag == "divergent=false", (value, exact)


def _dominance(text: str) -> None:
    _has_line(text, "true,,")


#: sigma(B^-4 [0, 1/2]) for the Cantor measure sigma: sigma([0, x/3]) = sigma([0, x]) / 2
#: and sigma([0, 1/2]) = 1/2, so the left side of the renorm-check identity is 2^-5.
RENORM_LHS = 1 / 32
#: Tolerance of the renorm-check gate, in the standard errors the command prints.
#: Its stderr is too small by about 1.56x (see README.md); over seeds 0-399 and
#: 1000-1099 both |lhs - rhs| and |lhs - 2^-5| stayed below 4.5 of them.
RENORM_STDERRS = 7.0


def _renorm_row(text: str) -> None:
    lhs, rhs, stderr, _, _ = map(str.strip, text.splitlines()[-1].split(","))
    lhs, rhs, tol = float(lhs), float(rhs), RENORM_STDERRS * float(stderr)
    assert tol > 0 and abs(lhs - rhs) <= tol and abs(lhs - RENORM_LHS) <= tol, text


def renorm_within_3_stderr(text: str) -> bool:
    """The renorm-check verdict; counted, not gated (see README.md)."""
    return text.splitlines()[-1].rsplit(",", 1)[1] == "true"


def pair(filename: str) -> tuple[str, str]:
    return ("--pair", f"pairs/{filename}")


def workload(name: str, seed: int) -> list[Command]:
    """The command list of workload ``name``; ``seed`` feeds renorm-check."""
    if name == "tile-1d":
        return [
            Command(("density", *pair("doubling.txt"), "--level", "16"), _lebesgue_one),
            Command(("classify-origin", *pair("negabinary.txt"), "--level", "14"), _interior),
            Command(("density", *pair("collision.txt"), "--level", "8"), _divergent),
            Command(("expand", *pair("doubling.txt"), "--level", "16")),
        ]
    if name == "dragon-2d":
        return [
            Command(("density", *pair("twindragon.txt"), "--level", "12")),
            Command(("check", *pair("twindragon.txt"), "--level", "15"), _osc),
            Command(("raster", *pair("twindragon.txt"), "--resolution", "384"), _raster_cover),
        ]
    if name == "cantor-fractal":
        return [
            Command(("sdensity", *pair("cantor.txt"), "--level", "12"), _cantor_hausdorff),
            Command(("check", *pair("cantor.txt"), "--level", "16"), _osc),
            Command(
                ("renorm-check", *pair("cantor.txt"), "--window", "0,0.5", "--steps", "4",
                 "--samples", "1000000", "--seed", str(seed)),
                _renorm_row,
                seeded=True,
            ),
            Command(("cantor", "--N", "3", "--d", "2", "--op", "dominance", "--level", "11"),
                    _dominance),
        ]
    raise KeyError(name)


WORKLOADS = ("tile-1d", "dragon-2d", "cantor-fractal")
