"""Known answers: what the commands print, against closed forms and certified values.

The golden corpus pins the bytes a command prints; this table pins what
they should say.  Each row runs one command in process and reads one
printed value: the number of a ``# hausdorff:`` or ``# lebesgue:``
comment, which must lie in the row's closed range, or the label of a
``classify-origin`` verdict, which must be the row's label.

A row whose printed value is wrong today is a strict ``xfail`` naming the
ROADMAP item that fixes it.  When the fix lands the row passes, so its
strict xfail fails until the fix makes it a plain row.
"""
import pytest

from selfaffine import LABEL_BOUNDARY, LABEL_INTERIOR, CantorPair, cantor_hausdorff
from selfaffine.cli import main

PAIRS = {
    "doubling": "dim 1\nmatrix\n2\ndigits\n0\n1\n",
    "negabinary": "dim 1\nmatrix\n-2\ndigits\n0\n1\n",
    "dragon": "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n",
    "cantor": "dim 1\nmatrix\n3\ndigits\n0\n2\n",
    "fifths": "dim 1\nmatrix\n5\ndigits\n0\n1\n",
    "seven": "dim 1\nmatrix\n7\ndigits\n0\n1\n5\n",
    "ten": "dim 1\nmatrix\n10\ndigits\n0\n3\n9\n",
    "three": "dim 1\nmatrix\n3\ndigits\n0\n1\n5\n",
    "four": "dim 1\nmatrix\n4\ndigits\n0\n1\n6\n7\n",
}

#: The twin dragon, (3,{0,1,5}) and (4,{0,1,6,7}) tile by the integer lattice
#: (Lagarias-Wang 1996; ROADMAP item 2(c))
LATTICE_TILE = "|K| = 1 for a lattice tile"

ITEM_1 = "ROADMAP item 1: hausdorff_from_sdensity reads the largest threshold, diam(K)^s"
ITEMS_2C_5 = (
    "ROADMAP items 2(c) and 5: the Lebesgue estimate reads the largest window,"
    " where level k undercounts the tile"
)


def _near(value, tol):
    return (value - tol, value + tol)


def _row(command, pair, level, read, expected, source, wrong=None):
    marks = [pytest.mark.xfail(raises=AssertionError, strict=True, reason=wrong)] if wrong else []
    return pytest.param(command, pair, level, read, expected, source, marks=marks,
                        id=f"{command} {pair} {level} {read}")


ROWS = [
    # guards: right today
    _row("density", "doubling", 16, "lebesgue", _near(1, 1e-4), "K = [0, 1]"),
    _row("sdensity", "cantor", 12, "hausdorff", _near(cantor_hausdorff(CantorPair(3, 2)), 1e-5),
         "cantor_hausdorff"),
    _row("sdensity", "fifths", 8, "hausdorff", _near(cantor_hausdorff(CantorPair(5, 1)), 1e-5),
         "cantor_hausdorff"),
    _row("classify-origin", "negabinary", 14, "origin", LABEL_INTERIOR, "K = [-2/3, 1/3]"),
    _row("classify-origin", "doubling", 12, "origin", LABEL_BOUNDARY, "K = [0, 1]"),
    _row("classify-origin", "four", 8, "origin", LABEL_BOUNDARY,
         "K holds the integer 2 (ROADMAP item 2(d))"),
    # wrong today
    _row("sdensity", "seven", 8, "hausdorff", (0.683996, 0.684208),
         "certified level-6 enclosure (ROADMAP item 1)", wrong=ITEM_1),
    _row("sdensity", "ten", 6, "hausdorff", (0.968758, 0.968781),
         "certified level-5 enclosure (ROADMAP item 1)", wrong=ITEM_1),
    _row("density", "dragon", 12, "lebesgue", _near(1, 0.05), LATTICE_TILE, wrong=ITEMS_2C_5),
    _row("density", "three", 10, "lebesgue", _near(1, 1e-3), LATTICE_TILE, wrong=ITEMS_2C_5),
    _row("density", "four", 8, "lebesgue", _near(1, 1e-3), LATTICE_TILE, wrong=ITEMS_2C_5),
    _row("classify-origin", "dragon", 12, "lebesgue", _near(1, 0.05), LATTICE_TILE,
         wrong=ITEMS_2C_5),
]


@pytest.fixture(scope="module")
def pair_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("known")
    paths = {}
    for name, text in PAIRS.items():
        path = root / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _read(out: str, read: str):
    """A verdict's label ("origin"), or the number of the ``# <read>:`` comment."""
    lines = out.splitlines()
    if read == "origin":
        return next(line for line in lines if not line.startswith("#")).split()[0]
    prefix = f"# {read}: "
    return float(next(line for line in lines if line.startswith(prefix))[len(prefix):].split()[0])


@pytest.mark.parametrize("command,pair,level,read,expected,source", ROWS)
def test_known_answer(command, pair, level, read, expected, source, pair_paths, capsys):
    assert main([command, "--pair", pair_paths[pair], "--level", str(level)]) == 0
    got = _read(capsys.readouterr().out, read)
    if isinstance(expected, str):
        assert got == expected, source
    else:
        lo, hi = expected
        assert lo <= got <= hi, f"{got} outside [{lo}, {hi}]: {source}"
