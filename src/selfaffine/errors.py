"""Exception hierarchy shared across the package, and the one work budget rule and its default.

Everything derives from :class:`SelfAffineError` so callers (and the CLI,
which maps domain failures to exit code 1) can catch one base type.
"""


class SelfAffineError(Exception):
    """Base class for domain errors raised by this package."""


class DimensionMismatch(SelfAffineError):
    """Operands with incompatible ambient dimensions."""


class NotInvertible(SelfAffineError):
    """Matrix has zero determinant."""


class NotExpanding(SelfAffineError):
    """No power of the inverse matrix contracts; some eigenvalue is not outside the unit circle."""


class MissingZeroDigit(SelfAffineError):
    """Digit sets must contain the zero vector."""


class DuplicateDigit(SelfAffineError):
    """Two digits coincide (within the merge tolerance)."""


class BudgetExceeded(SelfAffineError):
    """A kernel's work would pass its budget (``_enforce_budget``)."""


class NotACollision(SelfAffineError):
    """Witness construction was asked for a point with multiplicity one."""


class EmptyPointSet(SelfAffineError):
    """An operation requires at least one point."""


class UnsupportedDimension(SelfAffineError):
    """Exact window scans are implemented for dimensions 1 and 2 only."""


class SingularMatrix(SelfAffineError):
    """Rescaling matrix is not invertible."""


class InvalidCoefficient(SelfAffineError):
    """Coefficient outside the two admissible values for a Cantor pair."""


class ResolutionTooSmall(SelfAffineError):
    """Raster grids need at least 16 cells per axis."""


class NotATileCandidate(SelfAffineError):
    """Operation requires a tile-candidate pair with positive measure estimate."""


class NoTrustedLowerEntry(SelfAffineError):
    """Origin classification found no stabilized lower-density entry."""


class UnsupportedRegime(SelfAffineError):
    """Operation does not apply to this pair's regime."""


class ParseError(SelfAffineError):
    """Malformed pair-file text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


#: Default ``cap`` of every budgeted kernel (``_enforce_budget``), and of the CLI's ``--cap``.
DEFAULT_CAP = 2**24

#: Work a kernel with the floor may always do: a cap that admits a small
#: level's mass, such as 2**8 at level 8, still admits that level's scans.
_MIN_BUDGET = 2**15

#: Each budgeted kernel: the units it counts, and whether it has the floor.
_BUDGETS = {
    "expansion": ("digit strings", False),
    "min separation": ("cell pairs", True),
    "upper scan": ("candidate windows", True),
    "lower scan": ("candidate windows", False),
    "s-density scan": ("tile bounds and leaf cells", True),
    "dominance scan": ("tile bounds and leaf cells", True),
    "renormalization check": ("box tests", True),
    "raster": ("cells", False),
    "chaos game": ("steps", False),
}


def _enforce_budget(kernel: str, units: int, cap: int, shown: str | None = None) -> None:
    """Refuse ``units`` of ``kernel``'s work past ``cap``, raised to ``_MIN_BUDGET`` by a floor.

    The message names the kernel, the units (as ``shown``, say ``2**40``, if given) and the limit.
    """
    noun, floored = _BUDGETS[kernel]
    limit = max(cap, _MIN_BUDGET) if floored else cap
    if units > limit:
        raise BudgetExceeded(f"{kernel}: {shown or units} {noun} exceed cap {limit}")


def _enforce_power_budget(kernel: str, base: int, exp: int, cap: int) -> None:
    """``_enforce_budget`` of base**exp units of an unfloored kernel, never built past the cap."""
    # for base >= 2, base**exp > cap once exp >= cap.bit_length()
    units = base**exp if base < 2 or exp < cap.bit_length() else cap + 1
    _enforce_budget(kernel, units, cap, f"{base}**{exp}")
