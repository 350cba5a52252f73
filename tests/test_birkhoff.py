"""Geometry of doubly stochastic matrices: corners, edges, and the
unistochastic region with its degenerate surface."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import haar_unitary

from weakvalues import (
    BasisPair,
    NotUnistochastic,
    SearchFailed,
    canonical_coefficients,
    chain_links,
    combine,
    degeneracy,
    distance,
    equality_defect,
    hypocycloid_boundary,
    is_bistochastic,
    is_unistochastic,
    overlap_matrix,
    permutation_corners,
    realize_unitary,
    sample_degenerate_surface,
    simplex_grid,
    triangle_condition,
    unistochastic_degenerate_intersection,
    unitary_phase_search,
)
from weakvalues import birkhoff
from weakvalues.birkhoff import (
    _SEARCH_ACCEPT,
    _SEARCH_PLATEAU,
    _SEARCH_TOL,
    TRIANGLE_TOL,
    _phase_polish,
)
from weakvalues.hilbert import _unitarity_deviation


def random_bistochastic(n, rng, terms=8):
    corners = permutation_corners(n)
    weights = rng.dirichlet(np.ones(len(corners)))
    return combine(weights, corners)


# ---------------------------------------------------------------------------
# corners and edges


def test_corner_census():
    for n in (2, 3, 4):
        corners = permutation_corners(n)
        assert len(corners) == [2, 6, 24][n - 2]
        for c in corners:
            assert is_bistochastic(c)
            assert set(np.unique(c)) == {0.0, 1.0}
    with pytest.raises(ValueError):
        permutation_corners(1)
    with pytest.raises(ValueError):
        permutation_corners(9)


def test_corner_order_is_lexicographic():
    corners = permutation_corners(3)
    perms = list(itertools.permutations(range(3)))
    for mat, perm in zip(corners, perms):
        expected = np.zeros((3, 3))
        for i, p in enumerate(perm):
            expected[i, p] = 1.0
        assert np.array_equal(mat, expected)


def _loop_corners(n):
    # reference: one permutation matrix at a time
    mats = []
    for perm in itertools.permutations(range(n)):
        m = np.zeros((n, n))
        m[np.arange(n), perm] = 1.0
        mats.append(m)
    return np.stack(mats)


def test_corners_are_one_array_matching_loop_reference():
    for n in range(2, 7):
        corners = permutation_corners(n)
        assert isinstance(corners, np.ndarray) and corners.dtype == float
        assert corners.shape == (math.factorial(n), n, n)
        assert np.array_equal(corners, _loop_corners(n))


def test_two_by_two_edge_length():
    a, b = permutation_corners(2)
    assert distance(a, b) == pytest.approx(2.0, abs=1e-15)


def test_three_by_three_edge_census():
    corners = permutation_corners(3)
    lengths = sorted(
        distance(corners[i], corners[j]) for i, j in itertools.combinations(range(6), 2)
    )
    short = [x for x in lengths if abs(x - 2.0) < 1e-12]
    long = [x for x in lengths if abs(x - np.sqrt(6)) < 1e-12]
    assert len(short) == 9
    assert len(long) == 6
    assert len(short) + len(long) == len(lengths)


def test_distance_broadcasts_over_leading_axes():
    stack = np.stack(permutation_corners(4))
    table = distance(stack[:, None], stack[None, :])
    assert table.shape == (24, 24)
    for i, j in itertools.product(range(24), repeat=2):
        assert table[i, j] == distance(stack[i], stack[j])
    assert type(distance(stack[0], stack[1])) is float


def test_affine_dimension_is_four():
    corners = permutation_corners(3)
    span = np.stack([(c - corners[0]).ravel() for c in corners[1:]])
    assert np.linalg.matrix_rank(span, tol=1e-10) == 4


def test_combine_validates_weights():
    corners = permutation_corners(3)
    mat = combine([0.5, 0.5, 0, 0, 0, 0], corners)
    assert is_bistochastic(mat)
    with pytest.raises(ValueError):
        combine([0.7, 0.7, 0, 0, 0, 0], corners)
    with pytest.raises(ValueError):
        combine([-0.5, 1.5, 0, 0, 0, 0], corners)
    with pytest.raises(ValueError):
        combine([1.0], corners)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            combine([bad, 1.0, 0, 0, 0, 0], corners)


def test_combine_checks_weights_as_a_distribution():
    corners = permutation_corners(3)
    for weights, reason in (
        ([0.7, 0.7, 0, 0, 0, 0], "must sum to 1, got 1.4"),
        ([-0.5, 1.5, 0, 0, 0, 0], "nonnegative"),
        ([np.nan, 1.0, 0, 0, 0, 0], "finite"),
        ([np.inf, 1.0, 0, 0, 0, 0], "finite"),
    ):
        with pytest.raises(ValueError, match=reason):
            combine(weights, corners)
    with pytest.raises(ValueError, match="one coefficient per corner"):
        combine([1.0], corners)
    with pytest.raises(ValueError, match="corners must be finite"):
        combine([1.0, 0.0], [np.eye(2), np.full((2, 2), np.inf)])


def test_random_combinations_are_bistochastic(rng):
    for n in (2, 3, 4):
        for _ in range(20):
            assert is_bistochastic(random_bistochastic(n, rng))


def test_is_bistochastic_rejects():
    assert not is_bistochastic(np.array([[0.6, 0.4], [0.5, 0.5]]))
    assert not is_bistochastic(np.array([[1.4, -0.4], [-0.4, 1.4]]))
    assert not is_bistochastic(np.ones((2, 3)))
    assert not is_bistochastic(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="not doubly stochastic"):
        is_unistochastic(np.zeros((0, 0)))


def test_canonical_coefficients_reproduce(rng):
    corners = permutation_corners(3)
    for _ in range(10):
        mat = random_bistochastic(3, rng)
        coeffs = canonical_coefficients(mat)
        back = np.einsum("m,mij->ij", coeffs, np.stack(corners))
        assert np.allclose(back, mat, atol=1e-10)


# ---------------------------------------------------------------------------
# unistochasticity


def _lstsq_coefficients(mu):
    # reference: the generic minimum-norm least-squares solve over the corners
    corners = permutation_corners(mu.shape[0])
    stack = corners.reshape(len(corners), -1).T
    return np.linalg.lstsq(stack, mu.ravel(), rcond=None)[0]


def test_canonical_coefficients_are_the_exact_minimum_norm_weights(rng):
    for n in range(2, 7):
        corners = permutation_corners(n)
        for _ in range(3):
            mat = random_bistochastic(n, rng)
            coeffs = canonical_coefficients(mat)
            assert np.max(np.abs(coeffs - _lstsq_coefficients(mat))) <= 1e-12
            back = np.einsum("m,mij->ij", coeffs, corners)
            assert np.max(np.abs(back - mat)) <= 1e-12
    with pytest.raises(ValueError, match="doubly stochastic"):
        canonical_coefficients(np.ones((3, 3)))


def test_chain_links_column_pair_is_immaterial(rng):
    # closure holds or fails independently of which column pair builds the
    # links
    for _ in range(200):
        mat = random_bistochastic(3, rng)
        verdicts = {
            triangle_condition(chain_links(mat, cols=pair))
            for pair in ((0, 1), (0, 2), (1, 2))
        }
        assert len(verdicts) == 1


def test_overlap_matrices_are_unistochastic(rng):
    for dim in (2, 3):
        for _ in range(50):
            pair = BasisPair(haar_unitary(dim, rng), haar_unitary(dim, rng))
            cert = is_unistochastic(overlap_matrix(pair))
            assert cert.verdict == "yes"


def test_flat_matrix_is_unistochastic_and_realized():
    flat = np.full((3, 3), 1 / 3)
    cert = is_unistochastic(flat)
    assert cert.verdict == "yes"
    assert cert.chain_links == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    u = cert.realizing_unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
    assert np.max(np.abs(np.abs(u) ** 2 - flat)) < 1e-9


def test_half_sum_of_cycles_is_not_unistochastic():
    corners = permutation_corners(3)
    mat = 0.5 * (corners[3] + corners[4])
    cert = is_unistochastic(mat)
    assert cert.verdict == "no"
    assert cert.realizing_unitary is None
    assert max(cert.chain_links) == pytest.approx(0.5)
    assert sorted(cert.chain_links)[:2] == pytest.approx([0.0, 0.0])
    with pytest.raises(NotUnistochastic):
        realize_unitary(mat)


def test_one_by_one_is_unistochastic():
    cert = is_unistochastic([[1.0]])
    assert cert.verdict == "yes" and cert.chain_links is None
    assert cert.realizing_unitary.tobytes() == np.ones((1, 1), dtype=complex).tobytes()
    assert realize_unitary([[1.0]]).tobytes() == cert.realizing_unitary.tobytes()


def test_closed_forms_absorb_tiny_negative_entries():
    # entries a hair below zero pass the doubly stochastic check; the
    # closed forms must still return a unitary, not NaN
    eps = 1e-13
    two = np.array([[1 + eps, -eps], [-eps, 1 + eps]])
    three = np.array(
        [[-eps, 0.5, 0.5 + eps], [0.5, 0.25 + eps, 0.25 - eps], [0.5 + eps, 0.25 - eps, 0.25]]
    )
    for mat in (two, three):
        cert = is_unistochastic(mat)
        assert cert.verdict == "yes"
        u = realize_unitary(mat)
        assert u.tobytes() == cert.realizing_unitary.tobytes()
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(mat)))) < 1e-9
        assert np.max(np.abs(np.abs(u) ** 2 - mat)) < 1e-9


def test_every_two_by_two_is_unistochastic(rng):
    for _ in range(20):
        mat = random_bistochastic(2, rng)
        cert = is_unistochastic(mat)
        assert cert.verdict == "yes"
        u = cert.realizing_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        assert np.max(np.abs(np.abs(u) ** 2 - mat)) < 1e-12


def test_realize_unitary_matches_triangle_verdict(rng):
    for _ in range(300):
        mat = random_bistochastic(3, rng)
        ok = triangle_condition(chain_links(mat))
        if ok:
            u = realize_unitary(mat)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
            assert np.max(np.abs(np.abs(u) ** 2 - mat)) < 1e-9
        else:
            with pytest.raises(NotUnistochastic):
                realize_unitary(mat)


def test_search_recovers_planted_four_by_four(rng):
    # n = 4 has no closed-form criterion; the phase search must still find
    # matrices that are unistochastic by construction
    for _ in range(10):
        target = np.abs(haar_unitary(4, rng)) ** 2
        u = realize_unitary(target)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9
        assert np.max(np.abs(np.abs(u) ** 2 - target)) < 1e-9
        assert is_unistochastic(target).verdict == "yes"


def test_search_rejects_blocked_obstruction():
    # embedding the 3 x 3 counterexample in a direct sum keeps it
    # non-unistochastic; the search must fail rather than fake success
    corners = permutation_corners(3)
    block = np.zeros((4, 4))
    block[:3, :3] = 0.5 * (corners[3] + corners[4])
    block[3, 3] = 1.0
    with pytest.raises(SearchFailed):
        realize_unitary(block)
    assert not unitary_phase_search(block, rng=0)[1]
    # the links of columns 0 and 1 are those of the 3 x 3 block: they cannot
    # close, so the polygon screen settles the verdict without a search
    assert is_unistochastic(block).verdict == "no"


def _polygon_overshoot(mu):
    """Largest link minus the sum of the others, maximized over row and column pairs."""
    n = mu.shape[0]
    worst = -math.inf
    for m in (mu, mu.T):
        for a, b in itertools.combinations(range(n), 2):
            links = [math.sqrt(max(m[a, k] * m[b, k], 0.0)) for k in range(n)]
            worst = max(worst, 2.0 * max(links) - sum(links))
    return worst


@pytest.fixture(scope="module")
def b4_certified():
    """200 Dirichlet(0.15) mixes of the 24 corners of B4 and their certificates.

    Certified once and shared by the polygon screen test and the B4 reference
    test.
    """
    corners = np.stack(permutation_corners(4))
    weights = np.random.default_rng(404).dirichlet(np.full(24, 0.15), size=200)
    targets = np.einsum("sm,mij->sij", weights, corners)
    return targets, [is_unistochastic(mu) for mu in targets]


def test_polygon_screen_refuses_only_open_polygons(b4_certified):
    # 200 Dirichlet(0.15) mixes of the 24 corners of B4: about half of them
    # have a row or column pair whose links cannot close
    targets, certs = b4_certified
    refused = []
    for mu, cert in zip(targets, certs):
        overshoot = _polygon_overshoot(mu)
        if cert.verdict == "no":
            assert overshoot > 0.0
            assert cert.chain_links is None and cert.realizing_unitary is None
            refused.append(mu)
        else:
            assert overshoot <= 1e-9
        if cert.verdict == "yes":
            assert np.max(np.abs(np.abs(cert.realizing_unitary) ** 2 - mu)) < 1e-9
    assert len(refused) > 0
    _, ok = unitary_phase_search(np.stack(refused), rng=0)
    assert not ok.any()


def test_unknown_verdict_names_the_search_budget(b4_certified):
    targets, certs = b4_certified
    mu = next(mu for mu, c in zip(targets, certs) if c.verdict == "unknown")
    budget = "from 5 starts and up to 4 basin restarts, each of up to 800 projection steps"
    with pytest.raises(SearchFailed, match=budget):
        realize_unitary(mu)


def test_a_realization_that_fails_verification_is_unknown(monkeypatch):
    # the verdict rests on checking the unitary returned, not on the search's
    # flag: all entries 0.5 carry the flat moduli but are far from unitary
    flat = np.full((4, 4), 0.25)
    monkeypatch.setattr(
        birkhoff, "unitary_phase_search", lambda mu: (np.full((4, 4), 0.5 + 0j), True)
    )
    cert = is_unistochastic(flat)
    assert cert.verdict == "unknown" and cert.realizing_unitary is None
    with pytest.raises(SearchFailed, match="^realization verification failed$"):
        realize_unitary(flat)


def test_realize_unitary_refuses_open_polygons_without_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the phase search ran on a refused target")

    monkeypatch.setattr(birkhoff, "unitary_phase_search", no_search)
    corners = permutation_corners(3)
    block = np.zeros((4, 4))
    block[:3, :3] = 0.5 * (corners[3] + corners[4])
    block[3, 3] = 1.0
    # rows 0 and 1 of the block have links (0, 0.5, 0, 0): no polygon
    with pytest.raises(SearchFailed, match="rows 0 and 1 cannot close into a polygon"):
        realize_unitary(block)
    # every row pair closes; columns 0 and 3 have links (0, 0, 0.3, 0.2)
    rows_close = np.array([[5, 3, 2, 0], [0, 2, 3, 5], [3, 2, 2, 3], [2, 3, 3, 2]]) / 10
    with pytest.raises(SearchFailed, match="columns 0 and 3 cannot close"):
        realize_unitary(rows_close)


def test_polygon_screen_passes_unitary_born_targets(rng):
    for n in (4, 5):
        for _ in range(100):
            assert _polygon_overshoot(np.abs(haar_unitary(n, rng)) ** 2) <= TRIANGLE_TOL


def test_phase_search_is_deterministic():
    # the flat 3 x 3, and a B4 mix whose zero-phase start fails, so that its
    # random starts run side by side
    weights = np.random.default_rng(404).dirichlet(np.full(24, 0.15), size=4)
    for target in (np.full((3, 3), 1 / 3), combine(weights[3], permutation_corners(4))):
        u1, ok1 = unitary_phase_search(target)
        u2, ok2 = unitary_phase_search(target)
        assert ok1 and ok2
        assert np.array_equal(u1, u2)


def test_search_stream_draws_the_doubles_of_numpy_pcg64():
    # integer seeds, one past 128 bits (SeedSequence's extra-entropy loop),
    # and a numpy integer; each stream drawn from three times in a row, as
    # rung 1 and rung 2 draw, with an empty draw between
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**200, np.int64(5)):
        ours, numpy_gen = birkhoff._Pcg64(seed), np.random.default_rng(seed)
        for shape in ((5, 4, 4), (0, 4, 4), (12, 3, 3)):
            got, want = ours.random(shape), numpy_gen.random(shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the search takes the same fields from a seed as from numpy's generator
    weights = np.random.default_rng(404).dirichlet(np.full(24, 0.15), size=4)
    targets = np.stack([combine(w, permutation_corners(4)) for w in weights])
    for seed in (None, 3, 2**40):
        want = unitary_phase_search(targets, rng=np.random.default_rng(0 if seed is None else seed))
        got = unitary_phase_search(targets, rng=seed)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_search_stream_holds_no_more_than_its_output():
    # each double is formed in Python integers and written into the output,
    # so a draw's traced peak is the output's 8 bytes a double, plus slack
    stream = birkhoff._Pcg64(7)
    tracemalloc.start()  # numpy reports its array buffers here too
    try:
        stream.random((20_000,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 20_000 + 64 * 1024


def test_phase_search_batched(rng):
    targets = np.stack([np.abs(haar_unitary(3, rng)) ** 2 for _ in range(32)])
    units, ok = unitary_phase_search(targets)
    assert ok.all()
    eye = np.eye(3)
    for u, t in zip(units, targets):
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-9
        assert np.max(np.abs(np.abs(u) ** 2 - t)) < 1e-9


def _ref_project_iterate(g, r, max_iter):
    # reference: the full arrays fancy-indexed by the live rows every step
    batch = g.shape[0]
    best = np.full(batch, np.inf)
    stall = np.zeros(batch, dtype=int)
    final_dev = np.full(batch, np.inf)
    alive = np.arange(batch)
    for _ in range(max_iter):
        if alive.size == 0:
            break
        ga = g[alive]
        u, _, vh = np.linalg.svd(ga)
        ga = r[alive] * np.exp(1j * np.angle(u @ vh))
        g[alive] = ga
        dev = _unitarity_deviation(ga)
        final_dev[alive] = dev
        improved = dev < best[alive] * (1.0 - 1e-9)
        best[alive] = np.minimum(best[alive], dev)
        stall[alive] = np.where(improved, 0, stall[alive] + 1)
        done = (dev <= _SEARCH_TOL) | (stall[alive] > _SEARCH_PLATEAU)
        alive = alive[~done]
    return g, final_dev


def _ref_unitary_phase_search(targets, rng=None, max_iter=800, restarts=4):
    # reference: one projection call per seed kind, the sign patterns one
    # after another
    targets = np.asarray(targets, dtype=float)
    single = targets.ndim == 2
    mus = targets.reshape((-1,) + targets.shape[-2:])
    batch, n, _ = mus.shape
    roots = np.sqrt(np.clip(mus, 0.0, None))
    out = roots.astype(complex)
    ok = np.zeros(batch, dtype=bool)
    gen = np.random.default_rng(0 if rng is None else rng)

    def seeds():
        yield "zero", None
        for _ in range(restarts):
            yield "random", None
        cells = [(i, j) for i in range(1, n) for j in range(1, n)][:4]
        for bits in itertools.product((0.0, np.pi), repeat=len(cells)):
            if any(bits):
                yield "pattern", (cells, bits)

    best_dev = np.full(batch, np.inf)
    for kind, data in seeds():
        todo = np.flatnonzero(~ok)
        if todo.size == 0:
            break
        if kind == "pattern":
            todo = todo[best_dev[todo] <= 1e-2]
            if todo.size == 0:
                continue
        r = roots[todo]
        if kind == "zero":
            g = r.astype(complex)
        elif kind == "random":
            g = r * np.exp(2j * np.pi * gen.random((todo.size, n, n)))
        else:
            cells, bits = data
            phases = np.zeros((todo.size, n, n))
            for (i, j), b in zip(cells, bits):
                phases[:, i, j] = b
            g = r * np.exp(1j * phases)
        g, final_dev = _ref_project_iterate(g, r, max_iter)
        best_dev[todo] = np.minimum(best_dev[todo], final_dev)
        good = final_dev <= _SEARCH_ACCEPT
        for b in np.flatnonzero(~good & (final_dev <= 1e-2)):
            polished, dev = _loop_phase_polish(g[b])
            if dev <= _SEARCH_ACCEPT:
                g[b] = polished
                good[b] = True
        ok[todo[good]] = True
        out[todo[good]] = g[good]

    if single:
        return out[0], bool(ok[0])
    return out.reshape(targets.shape).astype(complex), ok.reshape(targets.shape[:-2])


def _assert_valid_realizations(units, ok, targets):
    eye = np.eye(targets.shape[-1])
    for u, t in zip(units[ok], targets[ok]):
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-9
        assert np.max(np.abs(np.abs(u) ** 2 - t)) < 1e-9


def _assert_realizes_what_reference_does(targets, rng, **budget):
    """The search realizes every target the reference realizes, each validly,
    and none whose links of some row or column pair cannot close.  ``budget``
    goes to the reference; the search runs on the module's budget."""
    _, want_ok = _ref_unitary_phase_search(targets, rng=rng, **budget)
    got_u, got_ok = unitary_phase_search(targets, rng=rng)
    assert got_ok.shape == want_ok.shape and got_u.shape == targets.shape
    assert np.all(got_ok[want_ok])
    flat = targets.reshape((-1,) + targets.shape[-2:])
    _assert_valid_realizations(got_u.reshape(flat.shape), got_ok.ravel(), flat)
    refused = np.array([_polygon_overshoot(mu) > TRIANGLE_TOL for mu in flat])
    assert refused.any() and not np.any(got_ok.ravel()[refused])
    return got_ok


def test_phase_search_matches_reference_on_b4_verdicts(b4_certified, monkeypatch):
    # the 200 B4 targets of the polygon screen test, certified once by the
    # search and once by the reference: every "yes" of the reference stays a
    # "yes", and the screen's "no" verdicts are the same
    targets, got = b4_certified
    monkeypatch.setattr(birkhoff, "unitary_phase_search", _ref_unitary_phase_search)
    want = [is_unistochastic(mu) for mu in targets]
    assert {c.verdict for c in got} == {"yes", "no", "unknown"}
    for mu, g, w in zip(targets, got, want):
        assert (g.verdict == "no") == (w.verdict == "no")
        if w.verdict == "yes":
            assert g.verdict == "yes"
        if g.verdict == "yes":
            _assert_valid_realizations(g.realizing_unitary[None], np.array([True]), mu[None])
        else:
            assert g.realizing_unitary is None


def test_phase_search_matches_reference_on_batches(monkeypatch):
    # seeds fixed before the first run; the batches go through every stage
    rng = np.random.default_rng(505)
    corners3 = np.stack(permutation_corners(3))
    batch3 = np.einsum("sm,mij->sij", rng.dirichlet(np.ones(6), size=300), corners3)
    ok3 = _assert_realizes_what_reference_does(batch3, rng=7)
    assert ok3.any() and not ok3.all()
    corners4 = np.stack(permutation_corners(4))
    batch4 = np.einsum("sm,mij->sij", rng.dirichlet(np.full(24, 0.15), size=24), corners4)
    monkeypatch.setattr(birkhoff, "_SEARCH_RESTARTS", 2)
    ok4 = _assert_realizes_what_reference_does(batch4.reshape(2, 12, 4, 4), rng=3, restarts=2)
    assert ok4.any() and not ok4.all()


def test_phase_search_basin_restarts_realize_beyond_the_zero_stage(monkeypatch):
    # a short budget and no random restarts leave some unitary-born targets
    # to the basin restarts
    rng = np.random.default_rng(707)
    targets = np.stack([np.abs(haar_unitary(3, rng)) ** 2 for _ in range(200)])
    _, want_ok = _ref_unitary_phase_search(targets, rng=0, max_iter=12, restarts=0)
    monkeypatch.setattr(birkhoff, "_SEARCH_MAX_ITER", 12)
    monkeypatch.setattr(birkhoff, "_SEARCH_RESTARTS", 0)
    got_u, ok = unitary_phase_search(targets, rng=0)
    # what the reference's zero-phase stage alone realizes, projection then polish
    roots = np.sqrt(targets)
    g, dev = _ref_project_iterate(roots.astype(complex), roots, 12)
    zero_ok = dev <= _SEARCH_ACCEPT
    for b in np.flatnonzero(~zero_ok & (dev <= 1e-2)):
        zero_ok[b] = _loop_phase_polish(g[b])[1] <= _SEARCH_ACCEPT
    assert ok[zero_ok].all() and want_ok[zero_ok].all()
    assert np.any(ok & ~zero_ok)
    _assert_valid_realizations(got_u, ok, targets)


def _ladder_project_iterate(g, r, max_iter):
    # reference: the start runner of the stage-by-stage search, in which
    # every start runs to its own end
    lowest = np.full(g.shape[0], np.inf)
    alive = np.arange(g.shape[0])
    ga, ra = g, r
    best = np.full(alive.size, np.inf)
    stall = np.zeros(alive.size, dtype=int)
    for _ in range(max_iter):
        if alive.size == 0:
            break
        u, _, vh = np.linalg.svd(ga)
        ga = ra * np.exp(1j * np.angle(u @ vh))
        dev = _unitarity_deviation(ga)
        improved = dev < best * (1.0 - birkhoff._SEARCH_PROGRESS)
        fresh = (dev <= birkhoff._HANDOFF) & (best > birkhoff._HANDOFF)
        best = np.minimum(best, dev)
        stall = np.where(improved, 0, stall + 1)
        done = (dev <= _SEARCH_TOL) | (stall > _SEARCH_PLATEAU)
        if fresh.any():
            rows = np.flatnonzero(fresh & ~done)
            polished, polished_dev = _phase_polish(ga[rows])
            won = polished_dev <= _SEARCH_ACCEPT
            rows = rows[won]
            ga[rows], done[rows] = polished[won], True
        if done.any():
            g[alive[done]] = ga[done]
            lowest[alive[done]] = best[done]
            live = ~done
            alive, ga, ra, best, stall = (x[live] for x in (alive, ga, ra, best, stall))
    g[alive] = ga
    lowest[alive] = best
    final = _unitarity_deviation(g)
    floor = (final > _SEARCH_ACCEPT) & (final <= birkhoff._BASIN)
    if floor.any():
        g[floor] = _phase_polish(g[floor])[0]
        final[floor] = _unitarity_deviation(g[floor])
    return g, final <= _SEARCH_ACCEPT, np.minimum(lowest, final)


def _ladder_phase_search(mus, rng=None, max_iter=800, restarts=4):
    # reference: the stage-by-stage ladder, one start per unresolved target
    # in each stage, on a (B, n, n) stack; returns the unitaries, which
    # targets were realized, and the stage that realized each (-1 for none)
    batch, n, _ = mus.shape
    roots = np.sqrt(np.clip(mus, 0.0, None))
    out = roots.astype(complex)
    ok = np.zeros(batch, dtype=bool)
    stage_won = np.full(batch, -1)
    gen = np.random.default_rng(0 if rng is None else rng)
    basin = np.zeros(batch, dtype=bool)
    for stage in range(1 + restarts + birkhoff._BASIN_RESTARTS):
        todo = np.flatnonzero(~ok & (basin | (stage <= restarts)))
        if todo.size == 0:
            break
        r = roots[todo]
        turns = gen.random((todo.size, n, n)) if stage else 0.0
        g, won, lowest = _ladder_project_iterate(r * np.exp(2j * np.pi * turns), r, max_iter)
        basin[todo] |= lowest <= birkhoff._BASIN
        ok[todo[won]] = True
        out[todo[won]] = g[won]
        stage_won[todo[won]] = stage
    return out, ok, stage_won


# requests seed 20, 4x4 classify target 139: its five first starts stall
# near 1e-2, and the first basin restart realizes it
BASIN_WIN_COEFFS = [
    0.003793882495483673, 0.0023586649703680952, 3.838173377117061e-05,
    0.13304165413124477, 0.0007933018357883241, 0.009020273661315652,
    0.003868440362906849, 0.0004174974157361091, 0.052794506421643586,
    3.959186194906688e-08, 0.048993339063942744, 0.0007873847506027529,
    0.0023411193393730687, 0.0819922027737738, 0.020770061837400936,
    0.03924881066454657, 0.2532114304805709, 0.06645191620083715,
    2.445082428045539e-05, 0.005521237427788849, 0.05301292640712917,
    0.02085142483524209, 1.2578340742790368e-06, 0.20066579494031722,
]


def test_rungs_keep_the_verdicts_of_the_stage_ladder():
    # single 4 x 4 targets, each searched alone as is_unistochastic does:
    # Dirichlet(0.15) B4 mixes of seed 404 that the ladder realizes at stages
    # 0, 1, 2 and 3 or leaves unresolved, and the basin win above
    corners = permutation_corners(4)
    weights = np.random.default_rng(404).dirichlet(np.full(24, 0.15), size=30)
    targets = np.stack(
        [combine(weights[k], corners) for k in (1, 3, 22, 18, 28, 29)]
        + [combine(BASIN_WIN_COEFFS, corners)]
    )
    stages = []
    for mu in targets:
        _, want_ok, stage = _ladder_phase_search(mu[None])
        u, ok = unitary_phase_search(mu)
        assert ok == want_ok[0]
        if ok:
            assert birkhoff._verify_realization(u, mu)
        stages.append(int(stage[0]))
    assert stages == [0, 1, 2, 3, -1, -1, 5]


def _haar_born(n, k):
    # draw k (0-based) of a fixed sequence of Haar unitaries per n
    gen = np.random.default_rng(4242 + n)
    for _ in range(k):
        haar_unitary(n, gen)
    return np.abs(haar_unitary(n, gen)) ** 2


def test_floor_polish_and_basin_gate_realize_haar_born_targets():
    # n = 6, k = 5: every hand-off polish misses, and only the polish of a
    # start that ended within the basin lands.  n = 7, k = 58: no start ends
    # within the basin, but one dips into it before it stalls, so only a gate
    # that reads the lowest deviation a start reached gives the basin
    # restarts, and the first of them lands.
    for n, k in ((6, 5), (7, 58)):
        mu = _haar_born(n, k)
        cert = is_unistochastic(mu)
        assert cert.verdict == "yes", (n, k)
        _assert_valid_realizations(cert.realizing_unitary[None], np.array([True]), mu[None])


def test_search_exit_reads_the_returned_iterates(monkeypatch):
    # a start that is already unitary wins without a projection step
    corner = permutation_corners(4)[5]
    with monkeypatch.context() as patch:
        patch.setattr(birkhoff, "_SEARCH_MAX_ITER", 0)
        u, ok = unitary_phase_search(corner)
    assert ok and np.array_equal(u, corner)
    # so does a start within the basin, through the floor polish
    v = haar_unitary(4, np.random.default_rng(8))
    start = v * np.exp(1e-4j * np.random.default_rng(9).standard_normal((4, 4)))
    assert 1e-5 < _unitarity_deviation(start) < 1e-2
    assert birkhoff._project_iterate(start[None], np.abs(v)[None], 0, np.arange(1))[1][0]
    # on a mixed batch, won and lowest agree with the iterates returned
    rng = np.random.default_rng(17)
    corners = np.stack(permutation_corners(4))
    mixes = np.einsum("sm,mij->sij", rng.dirichlet(np.full(24, 0.15), size=8), corners)
    born = np.stack([np.abs(haar_unitary(4, rng)) ** 2 for _ in range(8)])
    r = np.sqrt(np.concatenate([corners[:4], mixes, born]))
    for max_iter in (0, 12, 800):
        for turns in (0.0, rng.random(r.shape)):
            g, won, lowest = birkhoff._project_iterate(
                r * np.exp(2j * np.pi * turns), r, max_iter, np.arange(len(r))
            )
            exit_dev = _unitarity_deviation(g)
            assert np.array_equal(won, exit_dev <= _SEARCH_ACCEPT)
            assert np.max(np.abs(np.abs(g) - r)) <= 1e-15
            # a polish that misses returns its start rebuilt from moduli and
            # phases, which moves the deviation by rounding only
            assert np.all(lowest <= exit_dev + 1e-15)
            assert won[:4].all() and not won.all()


def _loop_phase_polish(u, steps=40, target=1e-12):
    # reference: the Jacobian built entry by entry in a Python double loop
    n = u.shape[0]
    r = np.abs(u)
    phi = np.angle(u)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best_phi, best_dev = phi, float(_unitarity_deviation(u))
    for _ in range(steps):
        terms = {}
        f = np.empty(len(pairs), dtype=complex)
        for row, (i, j) in enumerate(pairs):
            t = r[:, i] * r[:, j] * np.exp(1j * (phi[:, j] - phi[:, i]))
            terms[(i, j)] = t
            f[row] = t.sum()
        jac = np.zeros((len(pairs), n * n), dtype=complex)
        for row, (i, j) in enumerate(pairs):
            t = terms[(i, j)]
            for k in range(n):
                jac[row, k * n + j] += 1j * t[k]
                jac[row, k * n + i] -= 1j * t[k]
        system = np.vstack([jac.real, jac.imag])
        rhs = -np.concatenate([f.real, f.imag])
        step, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        phi = phi + step.reshape(n, n)
        candidate = r * np.exp(1j * phi)
        dev = float(_unitarity_deviation(candidate))
        if dev < best_dev:
            best_dev, best_phi = dev, phi
        if dev <= target:
            break
    return r * np.exp(1j * best_phi), best_dev


def test_search_exit_lowest_is_at_most_the_returned_deviation():
    # the mixed batch of test_search_exit_reads_the_returned_iterates, drawn in
    # the same order: a floor polish that misses reports the deviation of the
    # iterate it returns, so no slack is needed
    rng = np.random.default_rng(17)
    corners = permutation_corners(4)
    mixes = np.einsum("sm,mij->sij", rng.dirichlet(np.full(24, 0.15), size=8), corners)
    born = np.stack([np.abs(haar_unitary(4, rng)) ** 2 for _ in range(8)])
    r = np.sqrt(np.concatenate([corners[:4], mixes, born]))
    for max_iter in (0, 12, 800):
        for turns in (0.0, rng.random(r.shape)):
            g, won, lowest = birkhoff._project_iterate(
                r * np.exp(2j * np.pi * turns), r, max_iter, np.arange(len(r))
            )
            assert np.all(lowest <= _unitarity_deviation(g))


def test_phase_polish_matches_loop_reference(rng):
    for n in (3, 4):
        corners = np.stack(permutation_corners(n))
        near, far = [], []
        for _ in range(20):
            # a unitary with jittered phases (inside the basin) and a corner
            # mix with random phases (mostly outside it)
            near.append(haar_unitary(n, rng) * np.exp(0.05j * rng.standard_normal((n, n))))
            mix = np.einsum("m,mij->ij", rng.dirichlet(np.ones(len(corners))), corners)
            far.append(np.sqrt(mix) * np.exp(2j * np.pi * rng.random((n, n))))
        for starts in (np.stack(near), np.stack(far)):
            want_u, want_dev = zip(*(_loop_phase_polish(u) for u in starts))
            want = np.array(want_dev) <= _SEARCH_ACCEPT
            got, got_dev = _phase_polish(starts)
            # the stack takes the loop's own least-squares steps
            assert got.tobytes() == np.stack(want_u).tobytes()
            assert np.array_equal(got_dev, want_dev)
            assert np.max(np.abs(np.abs(got) - np.abs(starts))) < 1e-15
            assert np.allclose(got_dev, _unitarity_deviation(got), rtol=0, atol=1e-15)
            assert np.all(got_dev <= _unitarity_deviation(starts) + 1e-15)
            assert np.all(got_dev[want] <= _SEARCH_ACCEPT)


def _corners_and_transposition_midpoints():
    corners = np.stack(permutation_corners(4))
    halves = [
        0.5 * (a + b)
        for a, b in itertools.combinations(corners, 2)
        if np.sum(a != b) == 4  # the two permutations differ by one transposition
    ]
    return corners, np.stack(halves)


def test_search_and_polish_handle_exact_zeros():
    # zero moduli zero whole columns of the polish Jacobian, and at a corner
    # J J^T = 0; the suite turns any RuntimeWarning into an error
    corners, halves = _corners_and_transposition_midpoints()
    assert len(corners) == 24 and len(halves) == 72
    rng = np.random.default_rng(3)
    for targets in (corners, halves):
        certs = [is_unistochastic(mu) for mu in targets]
        assert all(c.verdict == "yes" for c in certs)
        units = np.stack([c.realizing_unitary for c in certs])
        _assert_valid_realizations(units, np.ones(len(units), dtype=bool), targets)
        _, ok = unitary_phase_search(targets)
        assert ok.all()
        for starts in (units, units * np.exp(0.05j * rng.standard_normal(units.shape))):
            polished, dev = _phase_polish(starts)
            assert np.all(np.isfinite(polished)) and np.all(dev <= _SEARCH_ACCEPT)
            _assert_valid_realizations(polished, dev <= _SEARCH_ACCEPT, targets)
    # a corner whose last row is scaled down is off unitarity while J = 0:
    # the polish must leave it as it is
    scaled = corners[:1] * np.array([[1.0], [1.0], [1.0], [0.5]])
    polished, dev = _phase_polish(scaled.astype(complex))
    assert np.array_equal(polished, scaled) and dev[0] == 0.75


def test_phase_search_refuses_bad_targets_and_budgets(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran on refused input")

    monkeypatch.setattr(birkhoff, "_project_iterate", no_search)
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    for bad in (np.nan, np.inf, -np.inf):
        mu = np.full((4, 4), 0.25)
        mu[1, 2] = bad
        with pytest.raises(ValueError, match="targets must be finite"):
            unitary_phase_search(mu, rng=gen)
    for shape in ((4,), (2, 3, 4), (4, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(f"with n >= 1, got shape {shape}")):
            unitary_phase_search(np.full(shape, 0.25), rng=gen)
    assert gen.bit_generator.state == state
    # the budget is the module's: no call sets it
    flat = np.full((4, 4), 0.25)
    for name in ("max_iter", "restarts"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            unitary_phase_search(flat, **{name: 4})
    with pytest.raises(ValueError, match="rng seed must be a nonnegative integer, got -1"):
        unitary_phase_search(flat, rng=-1)


def test_unistochastic_fraction_of_b3_is_the_published_constant():
    """Under uniform measure on B3 the unistochastic fraction is 8 pi^2 / 105
    (Dunkl and Zyczkowski, arXiv:0909.0116); 500,000 points by rejection from
    the unit cube of (mu00, mu01, mu10, mu11), in blocks, must land within 4
    sigma of it.  The seed was fixed before the first run."""
    gen = np.random.default_rng(9090116)
    total, seen, passed = 500_000, 0, 0
    while seen < total:
        mu = np.empty((100_000, 3, 3))
        mu[:, :2, :2] = gen.random((len(mu), 2, 2))
        mu[:, :2, 2] = 1.0 - mu[:, :2, :2].sum(axis=2)
        mu[:, 2] = 1.0 - mu[:, :2].sum(axis=1)
        mu = mu[np.all(mu >= 0.0, axis=(1, 2))][: total - seen]
        links = chain_links(mu)
        ok = birkhoff._closure_slack(links) >= -TRIANGLE_TOL
        if seen == 0:  # the vectorized test is triangle_condition's
            assert [triangle_condition(x) for x in links[:2000]] == ok[:2000].tolist()
        seen, passed = seen + len(mu), passed + int(np.count_nonzero(ok))
    p = 8 * math.pi**2 / 105
    assert abs(passed / total - p) <= 4 * math.sqrt(p * (1 - p) / total)


def test_equality_defect_zero_means_boundary():
    links = (0.3, 0.2, 0.5)
    assert triangle_condition(links)
    assert equality_defect(links) == pytest.approx(0.0, abs=1e-15)
    assert equality_defect((0.3, 0.2, 0.4)) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# grids and surfaces


def test_simplex_grid_shape_and_order():
    grid = simplex_grid(3, 4)
    assert grid.shape == (15, 3)  # C(6, 2)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-15)
    assert grid.min() >= 0
    again = simplex_grid(3, 4)
    assert np.array_equal(grid, again)
    for args in (
        (0, 4),
        (3, 0),
        (3, 4.5),
        (3, 8.0),
        (3, math.inf),
        (3, math.nan),
        (3, True),
        (True, 4),
        (1, 131842),  # beyond the limit, though its one point is (1.0,)
        (3, 513),  # 132,355 points
        (131841, 1),  # 131,841 points of 131,841 coordinates each
        (10**6, 10**6),  # beyond the argument range
        (131841, 131841),  # its count is refused within ten terms
    ):
        with pytest.raises(ValueError):
            simplex_grid(*args)
    assert simplex_grid(3, 512).shape == (131841, 3)  # the cap is inclusive


def _loop_simplex_grid(num_corners, resolution):
    # reference: one Python step per grid point and cut
    edges = resolution + num_corners - 1
    points = []
    for cut in itertools.combinations(range(edges), num_corners - 1):
        prev = -1
        counts = []
        for c in cut:
            counts.append(c - prev - 1)
            prev = c
        counts.append(edges - 1 - prev)
        points.append(counts)
    return np.asarray(points, dtype=float) / resolution


def test_simplex_grid_matches_loop_reference():
    for m in range(1, 6):
        for resolution in range(1, 25):
            want = _loop_simplex_grid(m, resolution)
            got = simplex_grid(m, resolution)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _whole_grid_locus(resolution, corners):
    grid = simplex_grid(3, resolution)
    mats = np.einsum("pm,mij->pij", grid, permutation_corners(3)[list(corners)])
    return grid[equality_defect(chain_links(mats)) <= 2.0 / resolution]


def test_blockwise_locus_matches_the_whole_grid():
    """hypocycloid_boundary walks the grid in blocks, with the same bits."""
    for resolution in (3, 9, 24, 97):
        for corners in itertools.permutations(range(6), 3):
            want = _whole_grid_locus(resolution, corners)
            assert np.array_equal(hypocycloid_boundary(resolution, corners), want)
    for corners in ((0, 3, 4), (2, 3, 1), (0, 3, 2)):  # 65 blocks of the grid
        want = _whole_grid_locus(512, corners)
        assert np.array_equal(hypocycloid_boundary(512, corners), want)
    # simplex_grid itself is its blocks joined: 20,825 points, 11 blocks
    assert simplex_grid(4, 48).tobytes() == _loop_simplex_grid(4, 48).tobytes()


def test_blockwise_scan_matches_the_whole_grid():
    """sample_degenerate_surface classifies the grid in blocks, with the
    same bits as one pass over the whole grid."""
    for corners, resolution in (((2, 4, 0), 192), ((0, 3, 2, 1), 48)):
        grid = simplex_grid(len(corners), resolution)
        assert len(grid) > 4 * birkhoff._GRID_BLOCK  # several blocks, the last ragged
        assert len(grid) % birkhoff._GRID_BLOCK
        mats = np.einsum("pm,mij->pij", grid, permutation_corners(3)[list(corners)])
        dets = np.linalg.det(mats)
        want = {
            "coefficients": grid,
            "matrices": mats,
            "dets": dets,
            "degenerate": np.abs(dets) < 0.5 / resolution,
            "unistochastic": birkhoff._closure_slack(chain_links(mats)) >= -TRIANGLE_TOL,
        }
        scan = sample_degenerate_surface(corners, resolution)
        assert (scan.corner_indices, scan.resolution) == (corners, resolution)
        for name, value in want.items():
            got = getattr(scan, name)
            assert got.dtype == value.dtype and np.array_equal(got, value), name


def test_surface_scan_patch():
    scan = sample_degenerate_surface((0, 1, 2, 3), 16)
    assert len(scan) == scan.coefficients.shape[0]
    assert scan.matrices.shape == (len(scan), 3, 3)
    for mat in scan.matrices[:: max(1, len(scan) // 50)]:
        assert is_bistochastic(mat)
    # the barycenter of the patch sits on the grid and on both midpoint
    # segments: degenerate and unistochastic at once
    center = np.where(np.all(scan.coefficients == 0.25, axis=1))[0]
    assert center.size == 1
    assert scan.degenerate[center[0]]
    assert scan.unistochastic[center[0]]
    inter = unistochastic_degenerate_intersection((0, 1, 2, 3), 16)
    assert len(inter) >= 1
    assert inter.degenerate.all() and inter.unistochastic.all()


def test_patch_intersection_lies_on_midpoint_segments():
    corners = permutation_corners(3)
    stack = np.stack([corners[i] for i in (0, 1, 2, 3)])
    mid_a0 = 0.5 * (stack[0] + stack[2])
    mid_a1 = 0.5 * (stack[1] + stack[3])
    mid_b0 = 0.5 * (stack[2] + stack[3])
    mid_b1 = 0.5 * (stack[0] + stack[1])
    inter = unistochastic_degenerate_intersection((0, 1, 2, 3), 16)
    assert len(inter) > 0
    for mat in inter.matrices:
        d = min(
            _segment_distance(mat, mid_a0, mid_a1),
            _segment_distance(mat, mid_b0, mid_b1),
        )
        assert d <= 2.0 / 16


def _segment_distance(mat, end0, end1):
    direction = (end1 - end0).ravel()
    rel = (mat - end0).ravel()
    t = np.clip(rel @ direction / (direction @ direction), 0.0, 1.0)
    return float(np.linalg.norm(rel - t * direction))


def test_circulant_plane_boundary():
    res = 30
    pts = hypocycloid_boundary(res)
    assert pts.shape[1] == 3
    assert len(pts) > 0
    corners = permutation_corners(3)
    stack = np.stack([corners[i] for i in (0, 3, 4)])
    mats = np.einsum("pm,mij->pij", pts, stack)
    defect = np.abs(equality_defect(chain_links(mats)))
    assert np.max(defect) <= 2.0 / res + 1e-12
    # cusps: each generating corner itself satisfies closure with equality,
    # so the locus reaches all three corners exactly
    for k in range(3):
        corner_hit = np.all(np.abs(pts - np.eye(3)[k]) < 1e-12, axis=1)
        assert corner_hit.any()
    # the barycenter is strictly interior to the unistochastic region and
    # must stay out of the boundary band
    assert not np.any(np.all(pts == 1 / 3, axis=1))


def test_circulant_plane_median_crossings():
    # where the boundary crosses a median, the coefficients are of the
    # (1/9, 4/9, 4/9) type: closure is tight there exactly
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        coeffs = np.empty(3)
        coeffs[list(perm)] = (1 / 9, 4 / 9, 4 / 9)
        corners = permutation_corners(3)
        mat = combine(coeffs, [corners[i] for i in (0, 3, 4)])
        assert equality_defect(chain_links(mat)) == pytest.approx(0.0, abs=1e-12)
        assert is_unistochastic(mat).verdict == "yes"


def test_fig_two_plane_unistochastic_set_is_two_edges():
    # on the (1, 3, 4) plane the unistochastic points are exactly the two
    # edges through the transposition corner: no interior region survives
    scan = sample_degenerate_surface((1, 3, 4), 24)
    on_edges = (scan.coefficients[:, 1] == 0.0) | (scan.coefficients[:, 2] == 0.0)
    assert np.array_equal(scan.unistochastic, on_edges)


def test_edge_midpoint_of_circulant_plane_fails_closure():
    # midpoints of the triangle edges are far from unistochastic: their
    # largest link overshoots by 1/2
    corners = permutation_corners(3)
    mid = 0.5 * (corners[0] + corners[3])
    assert not triangle_condition(chain_links(mid))
    assert equality_defect(chain_links(mid)) == pytest.approx(0.5)


def test_degeneracy_values():
    corners = permutation_corners(3)
    assert degeneracy(corners[0]) == pytest.approx(1.0)
    assert abs(degeneracy(np.full((3, 3), 1 / 3))) < 1e-14
    # the spin-1 weight matrix at the right angle loses rank
    from weakvalues import rotated_pair

    mu = overlap_matrix(rotated_pair(3, np.pi / 2))
    assert abs(degeneracy(mu)) < 1e-14


def test_degeneracy_refuses_a_non_finite_determinant():
    big = np.array(
        [[1e200, -1e200, 1e200], [-1e200, 1e200, 1e200], [1e200, 1e200, -1e200]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat, reason in (
            (np.full((3, 3), np.nan), "invalid value"),
            (big, "overflow"),
            (np.diag([np.inf, 1.0]), "not finite"),
        ):
            with pytest.raises(ValueError, match="matrix: .*" + reason):
                degeneracy(mat)


def test_resolution_and_corner_validation():
    with pytest.raises(ValueError):
        sample_degenerate_surface((0, 1), 1)
    with pytest.raises(ValueError):
        sample_degenerate_surface((0, 1, 2, 3, 4), 8)
    with pytest.raises(ValueError):
        sample_degenerate_surface((0, 0, 1), 8)
    with pytest.raises(ValueError):
        sample_degenerate_surface((0, 1, 7), 8)
    with pytest.raises(ValueError):
        hypocycloid_boundary(2)
    with pytest.raises(ValueError):
        hypocycloid_boundary(16, corners=(0, 1, 2, 3))
    for bad in (4.5, 8.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            sample_degenerate_surface((0, 1, 2), bad)
        with pytest.raises(ValueError, match="integer"):
            hypocycloid_boundary(bad)
    with pytest.raises(ValueError, match="131841"):
        sample_degenerate_surface((0, 1, 2, 3), 91)  # 134,044 points
    with pytest.raises(ValueError, match="131841"):
        hypocycloid_boundary(513)


def test_corner_indices_must_be_integers():
    for bad in (0.5, np.nan, np.inf, True):
        with pytest.raises(ValueError, match="integers"):
            sample_degenerate_surface((bad, 1, 2), 4)
        with pytest.raises(ValueError, match="integers"):
            hypocycloid_boundary(8, corners=(bad, 1, 2))
    scan = sample_degenerate_surface((np.int64(3), 1, 2), 4)
    assert scan.corner_indices == (3, 1, 2)
    assert all(type(i) is int for i in scan.corner_indices)
