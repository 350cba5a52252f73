"""Bases, fixtures, and their validation rules."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import haar_unitary

from weakvalues import (
    BasisPair,
    check_distribution,
    check_hermitian,
    exclusive_pair,
    gauge_transform,
    gell_mann_matrices,
    inner_product,
    is_hermitian,
    pauli_matrices,
    rotated_basis,
    rotated_operator,
    rotated_pair,
    spin_one_matrices,
    standard_basis,
)

THETAS = np.linspace(0.05, np.pi - 0.05, 13)


def test_inner_product_conjugates_first_argument(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert inner_product(v, w) == pytest.approx(np.conj(inner_product(w, v)))
    # linear in the second slot, antilinear in the first
    assert inner_product(v, 2j * w) == pytest.approx(2j * inner_product(v, w))
    assert inner_product(2j * v, w) == pytest.approx(-2j * inner_product(v, w))


def test_inner_product_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        inner_product(np.ones(2), np.ones(3))


def test_hermitian_checks():
    sx, sy, sz = pauli_matrices()
    for op in (sx, sy, sz):
        assert is_hermitian(op)
        check_hermitian(op)
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        check_hermitian(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            check_hermitian(np.array([[bad, 1], [1, 0]]))
        assert not is_hermitian(np.array([[bad, 1], [1, 0]]))
        assert not is_hermitian(np.array([[bad, 0], [0, 0]]))


def test_check_distribution():
    p = check_distribution([0.25, 0.75])
    assert p.dtype == float
    with pytest.raises(ValueError):
        check_distribution([0.5, 0.6])
    with pytest.raises(ValueError):
        check_distribution([1.5, -0.5])
    with pytest.raises(ValueError):
        check_distribution([[0.5, 0.5]])


def test_check_distribution_rejects_non_finite():
    # NaN passes every "dev > tol" comparison, so it needs its own gate
    for bad in ([float("nan"), 1.0], [float("inf"), 0.0], [0.5, float("-inf")]):
        with pytest.raises(ValueError, match="finite"):
            check_distribution(bad)


def test_basis_pair_requires_orthonormal_columns():
    good = standard_basis(2)
    skew = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        BasisPair(skew, good)
    with pytest.raises(ValueError):
        BasisPair(good, skew / np.linalg.norm(skew, axis=0))
    with pytest.raises(ValueError):
        BasisPair(good, standard_basis(3))
    with pytest.raises(ValueError):
        BasisPair(np.full((2, 2), np.nan), good)


def test_basis_pair_is_immutable():
    pair = exclusive_pair()
    with pytest.raises(ValueError):
        pair.pre[0, 0] = 5.0


def test_overlap_matrix_of_two_unitaries_is_unitary(rng):
    for dim in (2, 3, 4):
        pair = BasisPair(haar_unitary(dim, rng), haar_unitary(dim, rng))
        g = pair.overlaps()
        assert np.allclose(g.conj().T @ g, np.eye(dim), atol=1e-12)


def test_admissibility_flags():
    pair = exclusive_pair()
    assert pair.admissible
    assert pair.min_overlap == pytest.approx(1 / np.sqrt(2))
    aligned = BasisPair(standard_basis(2), standard_basis(2))
    assert not aligned.admissible
    assert aligned.min_overlap == 0.0


def test_gauge_transform_changes_phases_only(rng):
    pair = rotated_pair(3, 0.9)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    twisted = gauge_transform(pair.post, phases)
    gram = twisted.conj().T @ twisted
    assert np.allclose(gram, np.eye(3), atol=1e-14)
    before = np.abs(pair.overlaps())
    after = np.abs(BasisPair(pair.pre, twisted).overlaps())
    assert np.allclose(before, after, atol=1e-14)
    with pytest.raises(ValueError):
        gauge_transform(pair.post, phases[:2])


def test_pauli_algebra():
    sx, sy, sz = pauli_matrices()
    eye = np.eye(2)
    for s in (sx, sy, sz):
        assert np.allclose(s @ s, eye)
        assert np.trace(s) == 0
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)


def test_spin_one_algebra():
    lx, ly, lz = spin_one_matrices()
    assert np.allclose(lx @ ly - ly @ lx, 1j * lz, atol=1e-15)
    assert np.allclose(ly @ lz - lz @ ly, 1j * lx, atol=1e-15)
    # total spin s(s+1) = 2 for s = 1
    assert np.allclose(lx @ lx + ly @ ly + lz @ lz, 2 * np.eye(3), atol=1e-15)


def test_gell_mann_orthogonality():
    gs = gell_mann_matrices()
    assert len(gs) == 8
    for a, ga in enumerate(gs):
        assert is_hermitian(ga)
        assert abs(np.trace(ga)) < 1e-15
        for b, gb in enumerate(gs):
            expected = 2.0 if a == b else 0.0
            assert np.trace(ga @ gb) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_rotated_basis_diagonalizes_rotated_operator(dim):
    eigenvalues = (1, -1) if dim == 2 else (1, 0, -1)
    for theta in THETAS:
        basis = rotated_basis(dim, theta)
        assert np.allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-14)
        op = rotated_operator(dim, theta)
        for k, lam in enumerate(eigenvalues):
            assert np.allclose(op @ basis[:, k], lam * basis[:, k], atol=1e-13)


def test_rotated_basis_columns_dim3():
    theta = 0.8
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    st, ct = np.sin(theta), np.cos(theta)
    basis = rotated_basis(3, theta)
    assert np.allclose(basis[:, 0], [c * c, st / np.sqrt(2), s * s])
    assert np.allclose(basis[:, 1], [-st / np.sqrt(2), ct, st / np.sqrt(2)])
    assert np.allclose(basis[:, 2], [s * s, -st / np.sqrt(2), c * c])


def test_rotated_basis_rejects_out_of_range_angles():
    with pytest.raises(ValueError):
        rotated_basis(2, -0.1)
    with pytest.raises(ValueError):
        rotated_basis(3, np.pi + 0.1)
    with pytest.raises(ValueError):
        rotated_basis(4, 0.5)
    with pytest.raises(ValueError):
        rotated_operator(5, 0.5)
    with pytest.raises(ValueError, match="finite"):
        rotated_operator(2, np.nan)


def test_exclusive_pair_is_mutually_unbiased():
    pair = exclusive_pair()
    mu = np.abs(pair.overlaps()) ** 2
    assert np.allclose(mu, 0.5, atol=1e-15)
