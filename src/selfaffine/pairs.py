"""Validation and characterization of self-affine pairs.

A pair is an expanding real matrix together with a finite digit set
containing zero.  Validation certifies expansivity constructively (some
power of the inverse contracts in the infinity norm) and classifies the
pair by comparing the digit count against the determinant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateDigit,
    MissingZeroDigit,
    NotExpanding,
    NotInvertible,
)
from .pointset import MERGE_TOL

SIMILARITY_TOL = 1e-9
DET_INTEGER_TOL = 1e-9
MAX_CONTRACTION_POWER = 64

REGIME_TILE = "tile-candidate"
REGIME_FRACTAL = "fractal"
REGIME_OVERFULL = "overfull"


@dataclass(frozen=True, eq=False)
class ExpandingMatrix:
    """A certified expanding matrix with its cached inverse.

    ``contraction_power`` is the smallest p with ||B^-p||_inf < 1 and
    ``contraction_norm`` that norm; together they witness expansivity.
    """

    entries: np.ndarray
    inverse: np.ndarray
    det_abs: float
    contraction_power: int
    contraction_norm: float

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DigitSet:
    """Finite set of distinct translation vectors including zero."""

    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def m(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class SelfAffinePair:
    matrix: ExpandingMatrix
    digits: DigitSet
    regime: str

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def m(self) -> int:
        return self.digits.m


@dataclass(frozen=True)
class SimilarityInfo:
    is_similarity: bool
    rho: float | None
    sim_dimension: float | None


def _inf_norm(mat: np.ndarray) -> float:
    return float(np.abs(mat).sum(axis=1).max())


def _certify_matrix(entries: np.ndarray) -> ExpandingMatrix:
    with np.errstate(over="ignore"):  # reported below as a ValueError
        det = float(np.linalg.det(entries))
    if det == 0.0:
        raise NotInvertible("matrix determinant is zero")
    if not math.isfinite(det):
        raise ValueError("matrix determinant overflows a float")
    inverse = np.linalg.inv(entries)
    power = np.eye(entries.shape[0])
    for p in range(1, MAX_CONTRACTION_POWER + 1):
        power = power @ inverse
        norm = _inf_norm(power)
        if norm < 1.0:
            entries.flags.writeable = False
            inverse.flags.writeable = False
            return ExpandingMatrix(
                entries=entries,
                inverse=inverse,
                det_abs=abs(det),
                contraction_power=p,
                contraction_norm=norm,
            )
    raise NotExpanding(
        f"no power of the inverse up to {MAX_CONTRACTION_POWER} contracts; "
        "matrix is not expanding"
    )


def _validate_digits(rows: np.ndarray, dim: int) -> DigitSet:
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("digit set must be a nonempty list of vectors")
    if rows.shape[1] != dim:
        raise DimensionMismatch(
            f"digits have dimension {rows.shape[1]}, matrix has {dim}"
        )
    order = np.lexsort(rows.T[::-1])
    rows = np.ascontiguousarray(rows[order])
    for i in range(1, len(rows)):
        if np.max(np.abs(rows[i] - rows[i - 1])) <= MERGE_TOL:
            raise DuplicateDigit(f"digits {rows[i - 1]} and {rows[i]} coincide")
    if not np.any(np.max(np.abs(rows), axis=1) <= MERGE_TOL):
        raise MissingZeroDigit("digit set must contain the zero vector")
    rows.flags.writeable = False
    return DigitSet(vectors=rows)


def validate_pair(matrix, digits) -> SelfAffinePair:
    """Certify a matrix/digit-set pair and classify its regime.

    The regime compares the digit count m against |det B|: equal (with the
    determinant within tolerance of an integer) means ``tile-candidate``,
    fewer digits means ``fractal``, more means ``overfull``.

    Raises NotInvertible, NotExpanding, MissingZeroDigit, DuplicateDigit,
    or DimensionMismatch; ValueError for a non-square matrix or an entry
    that is not finite.
    """
    entries = np.array(matrix, dtype=float)
    rows = np.array(digits, dtype=float)
    if not (np.isfinite(entries).all() and np.isfinite(rows).all()):
        raise ValueError("matrix and digit entries must be finite")
    if entries.ndim == 0:
        entries = entries.reshape(1, 1)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
        raise ValueError("matrix must be square")
    mat = _certify_matrix(entries)
    digit_set = _validate_digits(rows, mat.dim)

    nearest = round(mat.det_abs)
    if abs(mat.det_abs - nearest) <= DET_INTEGER_TOL and digit_set.m == nearest:
        regime = REGIME_TILE
    elif digit_set.m < mat.det_abs:
        regime = REGIME_FRACTAL
    else:
        regime = REGIME_OVERFULL
    return SelfAffinePair(matrix=mat, digits=digit_set, regime=regime)


def detect_similarity(pair: SelfAffinePair) -> SimilarityInfo:
    """Detect whether B is a similarity (B^T B proportional to the identity).

    When it is, returns the expansion ratio rho and the similarity dimension
    log(m) / log(rho).
    """
    b = pair.matrix.entries
    gram = b.T @ b
    n = pair.dim
    rho_sq = float(np.trace(gram)) / n
    deviation = float(np.max(np.abs(gram - rho_sq * np.eye(n))))
    if deviation > SIMILARITY_TOL:
        return SimilarityInfo(is_similarity=False, rho=None, sim_dimension=None)
    rho = math.sqrt(rho_sq)
    sim_dim = math.log(pair.m) / math.log(rho)
    return SimilarityInfo(is_similarity=True, rho=rho, sim_dimension=sim_dim)
