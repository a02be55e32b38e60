"""Pair validation: expansivity certificates, regimes, similarity detection."""

import math

import numpy as np
import pytest

from selfaffine import (
    DimensionMismatch,
    DuplicateDigit,
    MissingZeroDigit,
    NotExpanding,
    NotInvertible,
    REGIME_FRACTAL,
    REGIME_OVERFULL,
    REGIME_TILE,
    detect_similarity,
    validate_pair,
)


def test_doubling_pair_is_tile_candidate(doubling_pair):
    assert doubling_pair.regime == REGIME_TILE
    assert doubling_pair.m == 2
    assert doubling_pair.matrix.det_abs == pytest.approx(2.0)


def test_scalar_matrix_accepted():
    pair = validate_pair(2.0, [[0.0], [1.0]])
    assert pair.dim == 1


def test_fractal_regime(cantor_pair_32):
    assert cantor_pair_32.regime == REGIME_FRACTAL


def test_overfull_regime(overfull_pair):
    # m=2 exceeds |det|=1.5, so the pair cannot tile
    assert overfull_pair.regime == REGIME_OVERFULL


def test_non_integer_det_with_matching_m_is_not_tile():
    pair = validate_pair([[1.5]], [[0.0]])
    assert pair.regime == REGIME_FRACTAL


def test_singular_matrix_rejected():
    with pytest.raises(NotInvertible):
        validate_pair([[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]])


def test_unit_eigenvalue_rejected():
    with pytest.raises(NotExpanding):
        validate_pair([[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0]])


def test_strict_contraction_required():
    with pytest.raises(NotExpanding):
        validate_pair([[0.5]], [[0.0]])


def test_rotation_with_expansion_accepted():
    # eigenvalues are complex of modulus sqrt(2); first inverse power with
    # infinity norm below 1 comes after several steps
    pair = validate_pair([[1.0, -1.0], [1.0, 1.0]], [[0.0, 0.0]])
    assert pair.matrix.contraction_power >= 1
    assert pair.matrix.contraction_norm < 1.0


def test_missing_zero_digit():
    with pytest.raises(MissingZeroDigit):
        validate_pair([[2.0]], [[1.0], [2.0]])


def test_duplicate_digit():
    with pytest.raises(DuplicateDigit):
        validate_pair([[2.0]], [[0.0], [1.0], [1.0]])


def test_near_duplicate_digits_that_are_not_lexicographic_neighbours():
    # (1e-10, 5) sorts between (0, 0) and (2e-10, 0), which are 2e-10 apart
    with pytest.raises(DuplicateDigit, match=r"^digits \[0\. 0\.\] and \[2\.e-10 0\.e\+00\] coincide$"):
        validate_pair([[3, 0], [0, 3]], [[0, 0], [1e-10, 5], [2e-10, 0]])


def test_digit_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_pair([[2.0]], [[0.0, 0.0]])


def test_nonsquare_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        validate_pair([[2.0, 0.0]], [[0.0]])


def test_digits_sorted_canonically(collision_pair):
    assert collision_pair.digits.vectors.ravel().tolist() == [0.0, 1.0, 2.0, 8.0]


def test_regime_stable_under_digit_permutation():
    a = validate_pair([[4.0]], [[0.0], [1.0], [2.0], [8.0]])
    b = validate_pair([[4.0]], [[8.0], [2.0], [0.0], [1.0]])
    assert a.regime == b.regime
    assert np.array_equal(a.digits.vectors, b.digits.vectors)


def test_inverse_power_contracts_basis_vectors(twin_dragon_pair):
    mat = twin_dragon_pair.matrix
    minv_p = np.linalg.matrix_power(mat.inverse, mat.contraction_power)
    for v in np.eye(2):
        assert np.linalg.norm(minv_p @ v) < np.linalg.norm(v)


def test_similarity_twin_dragon(twin_dragon_pair):
    info = detect_similarity(twin_dragon_pair)
    assert info.is_similarity
    assert info.rho == pytest.approx(math.sqrt(2.0))
    assert info.sim_dimension == pytest.approx(2.0)


def test_similarity_scalar(cantor_pair_32):
    info = detect_similarity(cantor_pair_32)
    assert info.is_similarity
    assert info.rho == pytest.approx(3.0)
    assert info.sim_dimension == pytest.approx(0.6309297535714574)


def test_similarity_negative_scalar(negative_doubling_pair):
    info = detect_similarity(negative_doubling_pair)
    assert info.is_similarity
    assert info.rho == pytest.approx(2.0)


def test_diagonal_non_similarity():
    pair = validate_pair([[2.0, 0.0], [0.0, 3.0]], [[0.0, 0.0]])
    info = detect_similarity(pair)
    assert not info.is_similarity


def test_similarity_invariant_under_orthogonal_factor():
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    base = 1.9 * np.eye(2)
    a = validate_pair(base, [[0.0, 0.0], [1.0, 0.0]])
    b = validate_pair(rot @ base, [[0.0, 0.0], [1.0, 0.0]])
    ia, ib = detect_similarity(a), detect_similarity(b)
    assert ia.is_similarity and ib.is_similarity
    assert ia.rho == pytest.approx(ib.rho)
    assert ia.sim_dimension == pytest.approx(ib.sim_dimension)
