"""Recovering mixtures from outcome statistics, and when that must fail."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import haar_unitary
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakvalues import (
    BasisPair,
    SingularMeasurement,
    expressed_in_post,
    is_irreversible,
    overlap_matrix,
    project,
    reconstruct_diagonal,
    reconstruct_full,
    rotated_pair,
    standard_basis,
)

THETAS = np.linspace(0.05, np.pi - 0.05, 14)


def invertible_pair(dim, rng, floor=1e-6):
    for _ in range(100):
        pair = BasisPair(haar_unitary(dim, rng), haar_unitary(dim, rng))
        if abs(np.linalg.det(overlap_matrix(pair))) > floor:
            return pair
    raise RuntimeError("no invertible weight matrix sampled")


def closed_form_qubit(tau, theta):
    mean = (tau[0] + tau[1]) / 2
    half = (tau[0] - tau[1]) / 2
    rho = np.array([mean + half / np.cos(theta), mean - half / np.cos(theta)])
    off = -half * np.tan(theta)
    return rho, off


def test_qubit_closed_form():
    for theta in THETAS:
        for tau in ([0.75, 0.25], [0.5, 0.5], [0.1, 0.9]):
            sol = reconstruct_full(rotated_pair(2, theta), tau)
            rho, off = closed_form_qubit(tau, theta)
            assert np.allclose(sol.rho_psi, rho, atol=1e-10)
            assert sol.rho_phi_offdiag[0, 1] == pytest.approx(off, abs=1e-10)
            assert sol.rho_phi_offdiag[1, 0] == pytest.approx(off, abs=1e-10)
            assert np.allclose(np.diag(sol.rho_phi_offdiag), 0.0)
            assert sol.residual < 1e-12


def test_zero_angle_is_transparent():
    tau = [0.3, 0.7]
    assert np.allclose(reconstruct_diagonal(rotated_pair(2, 0.0), tau), tau)
    sol = reconstruct_full(rotated_pair(2, 0.0), tau)
    assert np.allclose(sol.rho_psi, tau, atol=1e-14)
    assert np.allclose(sol.rho_phi_offdiag, 0.0, atol=1e-14)


def test_orthogonal_measurement_is_irreversible():
    pair = rotated_pair(2, np.pi / 2)
    flag, det = is_irreversible(pair)
    assert flag and det < 1e-14
    with pytest.raises(SingularMeasurement) as info:
        reconstruct_diagonal(pair, [0.5, 0.5])
    assert info.value.det_magnitude < 1e-14
    with pytest.raises(SingularMeasurement):
        reconstruct_full(pair, [0.5, 0.5])
    # spin-1 degenerates at the same angle: two weight rows coincide
    assert is_irreversible(rotated_pair(3, np.pi / 2))[0]


def test_det_mu_is_the_irreversibility_determinant():
    for dim in (2, 3):
        for theta in THETAS:
            pair = rotated_pair(dim, theta)
            flag, det = is_irreversible(pair)
            assert not flag
            tau = project(np.full(dim, 1.0 / dim), pair)
            assert reconstruct_full(pair, tau).det_mu == det  # bit for bit


def test_fourier_pair_is_irreversible():
    # the flat weight matrix (all entries 1/3) has determinant zero
    w = np.exp(2j * np.pi / 3)
    post = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]]) / np.sqrt(3)
    pair = BasisPair(standard_basis(3), post)
    assert np.allclose(overlap_matrix(pair), 1 / 3, atol=1e-15)
    flag, det = is_irreversible(pair)
    assert flag and det < 1e-15
    with pytest.raises(SingularMeasurement):
        reconstruct_full(pair, [1 / 3, 1 / 3, 1 / 3])


def test_roundtrip_recovers_mixture(rng):
    for dim in (2, 3, 4):
        for _ in range(20):
            pair = invertible_pair(dim, rng)
            rho = rng.dirichlet(np.ones(dim))
            tau = project(rho, pair)
            assert np.allclose(np.sum(tau), 1.0, atol=1e-12)
            assert np.allclose(reconstruct_diagonal(pair, tau), rho, atol=1e-8)
            sol = reconstruct_full(pair, tau)
            assert np.allclose(sol.rho_psi, rho, atol=1e-8)
            full = expressed_in_post(rho, pair)
            off = full - np.diag(np.diag(full))
            assert np.allclose(sol.rho_phi_offdiag, off, atol=1e-8)
            assert sol.physical
            assert 0 < sol.condition <= 1


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from((2, 3)),
    st.floats(0.05, np.pi - 0.05),
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
)
def test_round_trip_on_rotated_pairs(dim, theta, weights):
    pair = rotated_pair(dim, theta)
    assume(is_irreversible(pair)[1] >= 1e-2)  # clear of det mu = 0
    rho = np.array(weights[:dim]) / sum(weights[:dim])
    got = reconstruct_full(pair, project(rho, pair)).rho_psi
    assert np.allclose(got, rho, rtol=0.0, atol=1e-10)


def test_expressed_in_post_diagonal_is_tau(rng):
    pair = invertible_pair(3, rng)
    rho = rng.dirichlet(np.ones(3))
    full = expressed_in_post(rho, pair)
    assert np.allclose(full, full.conj().T, atol=1e-13)
    assert np.allclose(np.diag(full).real, project(rho, pair), atol=1e-13)
    assert np.trace(full).real == pytest.approx(1.0, abs=1e-12)


def test_adversarial_statistics_flagged_unphysical():
    # tau inconsistent with any mixture of the pre vectors: the linear
    # solution exists but leaves the simplex
    sol = reconstruct_full(rotated_pair(2, 1.4), [0.999, 0.001])
    assert not sol.physical
    assert sol.rho_psi[0] > 1.5
    # the statistics it implies still project back to the given tau
    mu = overlap_matrix(rotated_pair(2, 1.4))
    assert np.allclose(mu @ sol.rho_psi, [0.999, 0.001], atol=1e-10)


def test_input_validation():
    pair = rotated_pair(2, 0.4)
    with pytest.raises(ValueError):
        reconstruct_diagonal(pair, [0.5, 0.6])
    with pytest.raises(ValueError):
        reconstruct_full(pair, [1.0])
    with pytest.raises(ValueError):
        project([0.2, 0.3, 0.5], pair)
    with pytest.raises(ValueError):
        project([-0.2, 1.2], pair)


def test_condition_number_tracks_degeneracy():
    healthy = reconstruct_full(rotated_pair(2, 0.3), [0.6, 0.4])
    strained = reconstruct_full(rotated_pair(2, 1.5), [0.6, 0.4])
    assert strained.condition < healthy.condition


def reference_full(pair, tau):
    """The joint n^2 x n^2 linear system, solved least-squares.

    One equation per (post outcome m, pre vector j):

        G[m, j] X[j, j] - sum_{l != m} G[l, j] X[m, l] = G[m, j] tau[m],

    with G the raw overlaps, X[j, j] = rho_psi[j] and X[m, l] (m != l) the
    post-basis off-diagonals.  Kept as an independent check on the closed
    form in reconstruct_full.
    """
    g = pair.overlaps()
    n = g.shape[0]

    def unknown(k, l):
        if k == l:
            return k
        return n + k * (n - 1) + (l if l < k else l - 1)

    system = np.zeros((n * n, n * n), dtype=complex)
    rhs = np.zeros(n * n, dtype=complex)
    for m in range(n):
        for j in range(n):
            row = m * n + j
            system[row, unknown(j, j)] += g[m, j]
            for l in range(n):
                if l != m:
                    system[row, unknown(m, l)] -= g[l, j]
            rhs[row] = g[m, j] * tau[m]
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    offdiag = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for l in range(n):
            if l != m:
                offdiag[m, l] = solution[unknown(m, l)]
    return solution[:n].real, offdiag


def test_closed_form_matches_joint_system(rng):
    # bound fixed before any run: 1e3 eps, scaled by the solution's size and
    # by the reciprocal condition number of mu
    eps = np.finfo(float).eps
    for dim in range(2, 9):
        for _ in range(30):
            pair = BasisPair(haar_unitary(dim, rng), haar_unitary(dim, rng))
            if is_irreversible(pair)[0]:
                continue
            tau = rng.dirichlet(np.ones(dim))
            sol = reconstruct_full(pair, tau)
            rho_ref, off_ref = reference_full(pair, tau)
            delta = max(
                np.max(np.abs(sol.rho_psi - rho_ref)),
                np.max(np.abs(sol.rho_phi_offdiag - off_ref)),
            )
            scale = max(1.0, np.max(np.abs(rho_ref)), np.max(np.abs(off_ref)))
            assert delta <= 1e3 * eps * scale / sol.condition, (dim, delta)
            mu = overlap_matrix(pair)
            assert sol.residual == np.linalg.norm(mu @ sol.rho_psi - tau)
