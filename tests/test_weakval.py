"""Weak-value tables, transition operators, and the expansion identity."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import haar_unitary, random_admissible_pair, random_hermitian
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakvalues import (
    BasisPair,
    OverlapTooSmall,
    amplified_entries,
    exclusive_pair,
    expand,
    fractional_decomposition,
    gauge_transform,
    hilbert,
    mixed_w_operator,
    mixed_weak_value,
    overlap_matrix,
    pauli_matrices,
    rotated_basis,
    rotated_operator,
    rotated_pair,
    spin_one_matrices,
    standard_basis,
    w_operator,
    w_operator_set,
    weak_value,
    weak_value_by_trace,
    weak_value_table,
)

# even count keeps pi/2 off the grid; the spin-1 rotated pair is genuinely
# inadmissible there (a post vector loses its middle component)
THETAS = np.linspace(0.05, np.pi - 0.05, 14)


# ---------------------------------------------------------------------------
# qubit closed forms


def test_exclusive_pair_pauli_tables():
    sx, sy, sz = pauli_matrices()
    pair = exclusive_pair()
    assert np.allclose(
        weak_value_table(sx, pair).values, [[1, 1], [-1, -1]], atol=1e-12
    )
    assert np.allclose(
        weak_value_table(sy, pair).values, [[1j, -1j], [-1j, 1j]], atol=1e-12
    )
    assert np.allclose(
        weak_value_table(sz, pair).values, [[1, -1], [1, -1]], atol=1e-12
    )
    assert np.allclose(overlap_matrix(pair), 0.5, atol=1e-15)


def test_exclusive_pair_rotated_operator_table():
    # weak values are linear in the operator, so this table must equal
    # cos(theta) * (sigma_z table) + sin(theta) * (sigma_x table)
    pair = exclusive_pair()
    for theta in THETAS:
        c, s = np.cos(theta), np.sin(theta)
        got = weak_value_table(rotated_operator(2, theta), pair).values
        assert np.allclose(got, [[c + s, s - c], [c - s, -c - s]], atol=1e-12)
        assert np.max(np.abs(got)) <= np.sqrt(2) + 1e-12


def qubit_w_expected(theta):
    t, ct = np.tan(theta / 2), 1 / np.tan(theta / 2)
    return {
        (0, 0): [[1, 0], [t, 0]],
        (0, 1): [[0, ct], [0, 1]],
        (1, 0): [[1, 0], [-ct, 0]],
        (1, 1): [[0, -t], [0, 1]],
    }


def test_rotated_pair_qubit_w_operators():
    for theta in THETAS:
        pair = rotated_pair(2, theta)
        wset = w_operator_set(pair)
        for (l, j), expected in qubit_w_expected(theta).items():
            assert np.allclose(wset[l, j], expected, atol=1e-10)
            assert np.allclose(w_operator(pair, l, j), expected, atol=1e-10)
            # rank one with unit trace
            assert np.linalg.matrix_rank(wset[l, j]) == 1
            assert np.trace(wset[l, j]) == pytest.approx(1.0, abs=1e-12)


def test_rotated_pair_qubit_tables():
    sx, sy, _ = pauli_matrices()
    for theta in THETAS:
        pair = rotated_pair(2, theta)
        t, ct = np.tan(theta / 2), 1 / np.tan(theta / 2)
        assert np.allclose(
            weak_value_table(sx, pair).values, [[t, ct], [-ct, -t]], atol=1e-10
        )
        assert np.allclose(
            weak_value_table(sy, pair).values,
            [[1j * t, -1j * ct], [-1j * ct, 1j * t]],
            atol=1e-10,
        )
        # the measured operator itself: +1 along the first post vector,
        # -1 along the second, independent of the pre index
        assert np.allclose(
            weak_value_table(rotated_operator(2, theta), pair).values,
            [[1, 1], [-1, -1]],
            atol=1e-10,
        )
        c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
        assert np.allclose(
            overlap_matrix(pair), [[c2, s2], [s2, c2]], atol=1e-12
        )


# ---------------------------------------------------------------------------
# spin-1 closed forms


def spin_one_mu_expected(theta):
    c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
    st2, ct2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    return np.array(
        [
            [c2 * c2, st2 / 2, s2 * s2],
            [st2 / 2, ct2, st2 / 2],
            [s2 * s2, st2 / 2, c2 * c2],
        ]
    )


def test_rotated_pair_spin_one_weights():
    for theta in THETAS:
        mu = overlap_matrix(rotated_pair(3, theta))
        assert np.allclose(mu, spin_one_mu_expected(theta), atol=1e-10)
        assert np.allclose(mu.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(mu.sum(axis=1), 1.0, atol=1e-12)


def test_rotated_pair_spin_one_tables():
    lx, ly, lz = spin_one_matrices()
    for theta in THETAS:
        pair = rotated_pair(3, theta)
        t, ct = np.tan(theta / 2), 1 / np.tan(theta / 2)
        tt, ctt = np.tan(theta), 1 / np.tan(theta)
        sec = 1 / np.sin(theta)
        assert np.allclose(
            weak_value_table(lz, pair).values,
            [[1, 0, -1], [1, 0, -1], [1, 0, -1]],
            atol=1e-10,
        )
        assert np.allclose(
            weak_value_table(lx, pair).values,
            [[t, sec, ct], [-ctt, 0, ctt], [-ct, -sec, -t]],
            atol=1e-10,
        )
        assert np.allclose(
            weak_value_table(ly, pair).values,
            1j * np.array([[t, -ctt, -ct], [-ctt, tt, -ctt], [-ct, -ctt, t]]),
            atol=1e-10,
        )
        assert np.allclose(
            weak_value_table(rotated_operator(3, theta), pair).values,
            [[1, 1, 1], [0, 0, 0], [-1, -1, -1]],
            atol=1e-10,
        )


def spin_one_w_expected(theta):
    """All nine transition operators in closed trig form.

    W[l, j] has a single nonzero column, the j-th, carrying the l-th post
    vector rescaled so its j-th component is 1.
    """
    t = np.tan(theta / 2)
    ct = 1 / t
    ctt = 1 / np.tan(theta)
    tt = np.tan(theta)
    r2 = np.sqrt(2)
    cols = {
        (0, 0): [1, r2 * t, t * t],
        (0, 1): [ct / r2, 1, t / r2],
        (0, 2): [ct * ct, r2 * ct, 1],
        (1, 0): [1, -r2 * ctt, -1],
        (1, 1): [-tt / r2, 1, tt / r2],
        (1, 2): [-1, r2 * ctt, 1],
        (2, 0): [1, -r2 * ct, ct * ct],
        (2, 1): [-t / r2, 1, -ct / r2],
        (2, 2): [t * t, -r2 * t, 1],
    }
    out = {}
    for (l, j), col in cols.items():
        mat = np.zeros((3, 3))
        mat[:, j] = col
        out[(l, j)] = mat
    return out


def test_rotated_pair_spin_one_w_operators():
    for theta in (0.3, 0.8, 1.2, 2.0, 2.7):
        wset = w_operator_set(rotated_pair(3, theta))
        for (l, j), expected in spin_one_w_expected(theta).items():
            assert np.allclose(wset[l, j], expected, atol=1e-10), (l, j)


# ---------------------------------------------------------------------------
# structural properties


def test_expansion_identity_random(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(12):
            pair = random_admissible_pair(dim, rng)
            a = random_hermitian(dim, rng)
            table = weak_value_table(a, pair)
            assert np.max(np.abs(expand(table) - a)) < 1e-10


def test_expansion_survives_small_overlaps(rng):
    # nearly aligned bases blow individual weak values up; the reassembled
    # operator must not care
    for _ in range(12):
        eps = 10.0 ** rng.uniform(-6, -3)
        pair = rotated_pair(2, eps)
        a = random_hermitian(2, rng)
        table = weak_value_table(a, pair)
        assert np.max(np.abs(table.values)) > 1 / (2 * eps) * 0.1
        assert np.max(np.abs(expand(table) - a)) < 1e-10


def test_trace_route_matches_direct_route(rng):
    for dim in (2, 3, 4):
        for _ in range(8):
            pair = random_admissible_pair(dim, rng)
            a = random_hermitian(dim, rng)
            table = weak_value_table(a, pair)
            wset = w_operator_set(pair)
            for l in range(dim):
                for j in range(dim):
                    got = weak_value_by_trace(a, wset, l, j)
                    assert abs(got - table.values[l, j]) < 1e-12


def test_orthogonality_relation(rng):
    for dim in (2, 3):
        pair = random_admissible_pair(dim, rng, min_overlap=0.1)
        wset = w_operator_set(pair)
        mu = overlap_matrix(pair)
        phi = pair.post
        for k in range(dim):
            for l in range(dim):
                for j in range(dim):
                    for lp in range(dim):
                        for jp in range(dim):
                            got = phi[:, k].conj() @ (
                                wset[l, j] @ wset[lp, jp].conj().T
                            ) @ phi[:, k]
                            want = 0.0
                            if j == jp and l == k and lp == k:
                                want = 1 / mu[k, j]
                            assert abs(got - want) < 1e-10


def test_single_weak_value_matches_table(rng):
    pair = random_admissible_pair(3, rng)
    a = random_hermitian(3, rng)
    table = weak_value_table(a, pair).values
    for l in range(3):
        for j in range(3):
            assert weak_value(a, pair, l, j) == pytest.approx(table[l, j], abs=1e-13)


def test_gauge_invariance(rng):
    for dim in (2, 3):
        pair = random_admissible_pair(dim, rng)
        a = random_hermitian(dim, rng)
        base = weak_value_table(a, pair)
        for _ in range(10):
            twisted = BasisPair(
                gauge_transform(pair.pre, rng.uniform(0, 2 * np.pi, dim)),
                gauge_transform(pair.post, rng.uniform(0, 2 * np.pi, dim)),
            )
            table = weak_value_table(a, twisted)
            assert np.max(np.abs(table.values - base.values)) < 1e-12
            assert np.max(np.abs(overlap_matrix(twisted) - overlap_matrix(pair))) < 1e-12
            assert np.max(np.abs(expand(table) - a)) < 1e-12


def test_eigenbasis_pre_gives_constant_columns(rng):
    # psi_j an eigenvector of A pins every weak value in column j to the
    # eigenvalue, whatever the post basis
    theta = 1.1
    pair = BasisPair(rotated_basis(3, theta), haar_unitary(3, rng))
    table = weak_value_table(rotated_operator(3, theta), pair).values
    for j, lam in enumerate((1, 0, -1)):
        assert np.allclose(table[:, j], lam, atol=1e-12)


def test_degenerate_pair_raises_with_indices():
    pair = BasisPair(standard_basis(2), standard_basis(2))
    sx, _, _ = pauli_matrices()
    with pytest.raises(OverlapTooSmall) as info:
        weak_value_table(sx, pair)
    err = info.value
    assert (err.l, err.j) in {(0, 1), (1, 0)}
    assert err.magnitude <= 1e-8
    with pytest.raises(OverlapTooSmall):
        w_operator_set(pair)
    with pytest.raises(OverlapTooSmall):
        w_operator(pair, 0, 1)


def test_mixed_weak_value_routes_agree(rng):
    for dim in (2, 3):
        pair = random_admissible_pair(dim, rng)
        a = random_hermitian(dim, rng)
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        direct = mixed_weak_value(a, pair, p, q)
        mixed_w = mixed_w_operator(pair, p, q)
        assert np.trace(mixed_w) == pytest.approx(1.0, abs=1e-12)
        assert direct == pytest.approx(np.trace(a @ mixed_w.conj().T), abs=1e-12)


def test_mixed_weak_value_point_masses_recover_table(rng):
    pair = random_admissible_pair(2, rng)
    a = random_hermitian(2, rng)
    table = weak_value_table(a, pair).values
    p = np.array([0.0, 1.0])
    q = np.array([1.0, 0.0])
    assert mixed_weak_value(a, pair, p, q) == pytest.approx(table[0, 1], abs=1e-13)


def test_mixtures_refuse_weights_of_the_wrong_length():
    pair = rotated_pair(2, 0.8)
    sx = pauli_matrices()[0]
    for p, q in (([1.0], [1.0]), ([1.0], [0.5, 0.5]), ([0.2, 0.3, 0.5], [0.5, 0.5])):
        with pytest.raises(ValueError, match="must both have the pair's dimension 2"):
            mixed_w_operator(pair, p, q)
        with pytest.raises(ValueError, match="must both have the pair's dimension 2"):
            mixed_weak_value(sx, pair, p, q)


def test_operators_must_be_finite_and_fit_the_pair():
    # numpy would return NaN tables for a NaN operator and a matmul error
    # for one of the wrong size; Hermiticity is not required
    pair = rotated_pair(2, 0.8)
    wset = w_operator_set(pair)
    calls = (
        lambda a: weak_value(a, pair, 0, 1),
        lambda a: weak_value_table(a, pair),
        lambda a: fractional_decomposition(a, pair, 0),
        lambda a: weak_value_by_trace(a, wset, 0, 1),
        lambda a: mixed_weak_value(a, pair, [0.5, 0.5], [0.5, 0.5]),
    )
    for call in calls:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="operator entries must be finite"):
                call(np.array([[0, 1], [bad, 0]]))
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not fit a dimension-2 pair"):
            call(np.eye(3))
        call(np.array([[0, 1], [0, 0]]))


def test_indices_outside_the_dimension_are_refused():
    # a negative index would wrap around to the last basis vector
    pair = rotated_pair(2, 0.8)
    sx = pauli_matrices()[0]
    wset = w_operator_set(pair)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"index l = {bad} is outside 0 .. 1"):
            weak_value(sx, pair, bad, 0)
        with pytest.raises(ValueError, match=f"index j = {bad} is outside 0 .. 1"):
            weak_value(sx, pair, 0, bad)
        with pytest.raises(ValueError, match=f"index l = {bad} is outside"):
            w_operator(pair, bad, 0)
        with pytest.raises(ValueError, match=f"index j = {bad} is outside"):
            w_operator(pair, 0, bad)
        with pytest.raises(ValueError, match=f"index l = {bad} is outside 0 .. 1"):
            weak_value_by_trace(sx, wset, bad, 0)
        with pytest.raises(ValueError, match=f"index j = {bad} is outside 0 .. 1"):
            weak_value_by_trace(sx, wset, 0, bad)
        for side in ("pre", "post"):
            with pytest.raises(ValueError, match=f"index k = {bad} is outside"):
                fractional_decomposition(sx, pair, bad, side=side)


def test_fractional_decomposition_sums_to_diagonal(rng):
    for dim in (2, 3):
        pair = random_admissible_pair(dim, rng)
        a = random_hermitian(dim, rng)
        for k in range(dim):
            pre_terms = fractional_decomposition(a, pair, k, side="pre")
            want = pair.pre[:, k].conj() @ a @ pair.pre[:, k]
            assert np.sum(pre_terms) == pytest.approx(want, abs=1e-12)
            post_terms = fractional_decomposition(a, pair, k, side="post")
            want = pair.post[:, k].conj() @ a @ pair.post[:, k]
            assert np.sum(post_terms) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        fractional_decomposition(a, pair, 0, side="sideways")


def test_fractional_decomposition_tolerates_zero_overlaps():
    # aligned bases are inadmissible for tables, but the division-free split
    # still works: zero overlaps contribute zero weight
    pair = BasisPair(standard_basis(2), standard_basis(2))
    sz = pauli_matrices()[2]
    terms = fractional_decomposition(sz, pair, 0, side="pre")
    assert np.allclose(terms, [1, 0], atol=1e-15)


def test_amplified_entries_rotated_operator():
    pair = exclusive_pair()
    table = weak_value_table(rotated_operator(2, np.pi / 4), pair)
    # entries are +-sqrt(2) and 0; the spectral radius is 1
    mask = amplified_entries(table)
    assert mask.tolist() == [[True, False], [False, True]]
    sz = pauli_matrices()[2]
    none = amplified_entries(weak_value_table(sz, pair))
    assert not none.any()


def test_amplified_entries_refuses_non_hermitian_operators():
    # the nilpotent pair has spectrum {0} either way round, yet eigvalsh reads
    # one triangle only and would bound the two differently
    pair = rotated_pair(2, 0.8)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    for op in (nilpotent, nilpotent.T):
        table = weak_value_table(op, pair)
        with pytest.raises(ValueError, match="not Hermitian"):
            amplified_entries(table)


# ---------------------------------------------------------------------------
# one owner of G, one admissibility test


def test_overlaps_are_formed_once_and_read_only():
    rng = np.random.default_rng(2020)
    pair = BasisPair(haar_unitary(4, rng), haar_unitary(4, rng))
    g = pair.overlaps()
    assert pair.overlaps() is g
    with pytest.raises(ValueError):
        g[0, 0] = 1.0
    # every reader gives the bits of G formed afresh from the two bases
    fresh = pair.post.conj().T @ pair.pre
    assert np.array_equal(g, fresh)
    assert np.array_equal(overlap_matrix(pair), np.abs(fresh) ** 2)
    outer = pair.post.T[:, None, :, None] * pair.pre.conj().T[None, :, None, :]
    assert np.array_equal(w_operator_set(pair), outer / fresh.conj()[:, :, None, None])
    a = random_hermitian(4, rng)
    table = weak_value_table(a, pair)
    assert np.array_equal(table.values, (pair.post.conj().T @ a @ pair.pre) / fresh)
    want = pair.post @ (table.values * fresh) @ pair.pre.conj().T
    assert np.array_equal(expand(table), want)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from((2, 3)),
    st.floats(0.05, np.pi - 0.05),
    st.floats(0.0, np.pi),
    st.data(),
)
def test_gauge_phases_leave_weak_values_unchanged(dim, theta, op_theta, data):
    pair = rotated_pair(dim, theta)
    assume(np.min(np.abs(pair.overlaps())) >= 1e-3)  # error grows as 1 / |g|
    phases = st.lists(st.floats(0.0, 2 * np.pi), min_size=dim, max_size=dim)
    gauged = BasisPair(
        gauge_transform(pair.pre, data.draw(phases)),
        gauge_transform(pair.post, data.draw(phases)),
    )
    a = rotated_operator(dim, op_theta)
    want = weak_value_table(a, pair).values
    got = weak_value_table(a, gauged).values
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


# angles at which some overlap of rotated_pair(dim, theta) vanishes
_VANISHING = {2: (0.0, np.pi), 3: (0.0, np.pi / 2, np.pi)}


@st.composite
def near_inadmissible_pairs(draw):
    """rotated_pair within 1e-6 of a vanishing overlap, both bases gauged by random phases."""
    dim = draw(st.sampled_from(sorted(_VANISHING)))
    center = draw(st.sampled_from(_VANISHING[dim]))
    theta = draw(st.floats(max(center - 1e-6, 0.0), min(center + 1e-6, np.pi)))
    phases = st.lists(st.floats(0.0, 2 * np.pi), min_size=dim, max_size=dim)
    pair = rotated_pair(dim, theta)
    return BasisPair(
        gauge_transform(pair.pre, draw(phases)), gauge_transform(pair.post, draw(phases))
    )


def _overlap_error(fn, *args):
    """The OverlapTooSmall that ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except OverlapTooSmall as err:
        return err
    return None


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(near_inadmissible_pairs())
def test_every_route_refuses_exactly_the_vanishing_overlaps(pair):
    a = rotated_operator(pair.dim, 0.3)
    small = np.abs(pair.overlaps()) <= hilbert.OVERLAP_TOL
    table_err = _overlap_error(weak_value_table, a, pair)
    set_err = _overlap_error(w_operator_set, pair)
    assert (table_err is None) == (set_err is None) == pair.admissible
    if table_err is not None:  # the first vanishing entry in row-major order
        first = tuple(np.argwhere(small)[0])
        assert (table_err.l, table_err.j) == (set_err.l, set_err.j) == first
    for l in range(pair.dim):
        for j in range(pair.dim):
            assert (_overlap_error(weak_value, a, pair, l, j) is not None) == small[l, j]
            assert (_overlap_error(w_operator, pair, l, j) is not None) == small[l, j]
