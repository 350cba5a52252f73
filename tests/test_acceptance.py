"""Acceptance gate: one test and one report line per shipped guarantee.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Each test collects every violation before failing, so a red run names all
of the broken sub-checks at once.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import random_admissible_pair, random_hermitian
from scipy.stats import unitary_group

from weakvalues import (
    BasisPair,
    NotUnistochastic,
    SingularMeasurement,
    birkhoff,
    chain_links,
    cli,
    degeneracy,
    distance,
    exclusive_pair,
    expand,
    expressed_in_post,
    gauge_transform,
    hypocycloid_boundary,
    is_unistochastic,
    overlap_matrix,
    pauli_matrices,
    permutation_corners,
    project,
    realize_unitary,
    reconstruct_full,
    rotated_operator,
    rotated_pair,
    sample_degenerate_surface,
    spin_one_matrices,
    unitary_phase_search,
    w_operator_set,
    weak_value_by_trace,
    weak_value_table,
)

# 50 points, even count: the midpoint pi/2 (where the dim-3 rotated pair
# degenerates and the dim-2 weight matrix is singular) is not on the grid
GRID = np.linspace(0.05, np.pi - 0.05, 50)


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:>2} [{status}] {label}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def test_criterion_01_exclusive_qubit_tables():
    failures = []
    pair = exclusive_pair()
    sx, sy, sz = pauli_matrices()
    expected = {
        "sigma_x": (sx, [[1, 1], [-1, -1]]),
        "sigma_y": (sy, [[1j, -1j], [-1j, 1j]]),
        "sigma_z": (sz, [[1, -1], [1, -1]]),
    }
    for name, (op, want) in expected.items():
        got = weak_value_table(op, pair).values
        err = np.max(np.abs(got - np.array(want)))
        _check(failures, err <= 1e-12, f"{name} table off by {err:.3e}")
    mu_err = np.max(np.abs(overlap_matrix(pair) - 0.5))
    _check(failures, mu_err <= 1e-15, f"weights deviate from 1/2 by {mu_err:.3e}")
    _report(1, "exclusive-basis qubit tables", failures)


def test_criterion_02_generic_angle_qubit_tables():
    failures = []
    sx, sy, sz = pauli_matrices()
    worst_table = 0.0
    worst_reassembly = 0.0
    for theta in GRID:
        pair = rotated_pair(2, theta)
        t, ct = np.tan(theta / 2), 1 / np.tan(theta / 2)
        c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
        tables = {
            "sigma_x": (sx, np.array([[t, ct], [-ct, -t]])),
            "sigma_y": (sy, np.array([[1j * t, -1j * ct], [-1j * ct, 1j * t]])),
            "sigma_z": (sz, np.array([[1, -1], [1, -1]], dtype=complex)),
        }
        mu = np.array([[c2, s2], [s2, c2]])
        worst_table = max(
            worst_table, float(np.max(np.abs(overlap_matrix(pair) - mu)))
        )
        w = {
            (0, 0): np.array([[1, 0], [t, 0]], dtype=complex),
            (0, 1): np.array([[0, ct], [0, 1]], dtype=complex),
            (1, 0): np.array([[1, 0], [-ct, 0]], dtype=complex),
            (1, 1): np.array([[0, -t], [0, 1]], dtype=complex),
        }
        for name, (op, want) in tables.items():
            got = weak_value_table(op, pair).values
            worst_table = max(worst_table, float(np.max(np.abs(got - want))))
            # reassemble the operator from the displayed closed forms alone
            rebuilt = sum(
                want[l, j] * w[(l, j)] * mu[l, j] for l in range(2) for j in range(2)
            )
            worst_reassembly = max(
                worst_reassembly, float(np.max(np.abs(rebuilt - op)))
            )
    _check(failures, worst_table <= 1e-10, f"closed-form tables off by {worst_table:.3e}")
    _check(
        failures,
        worst_reassembly <= 1e-10,
        f"displayed expansions reassemble operators off by {worst_reassembly:.3e}",
    )
    _report(2, "generic-angle qubit tables and expansions", failures)


def test_criterion_03_spin_one_tables():
    failures = []
    lx, ly, lz = spin_one_matrices()
    worst = {"weights": 0.0, "L_z": 0.0, "L_x": 0.0, "L_y": 0.0, "L_theta": 0.0}
    for theta in GRID:
        pair = rotated_pair(3, theta)
        t, ct = np.tan(theta / 2), 1 / np.tan(theta / 2)
        tt, ctt = np.tan(theta), 1 / np.tan(theta)
        sec = 1 / np.sin(theta)
        c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
        st2, ct2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        mu_want = np.array(
            [
                [c2 * c2, st2 / 2, s2 * s2],
                [st2 / 2, ct2, st2 / 2],
                [s2 * s2, st2 / 2, c2 * c2],
            ]
        )
        cases = {
            "weights": (overlap_matrix(pair), mu_want),
            "L_z": (
                weak_value_table(lz, pair).values,
                np.array([[1, 0, -1]] * 3, dtype=complex),
            ),
            "L_x": (
                weak_value_table(lx, pair).values,
                np.array([[t, sec, ct], [-ctt, 0, ctt], [-ct, -sec, -t]]),
            ),
            "L_y": (
                weak_value_table(ly, pair).values,
                1j * np.array([[t, -ctt, -ct], [-ctt, tt, -ctt], [-ct, -ctt, t]]),
            ),
            "L_theta": (
                weak_value_table(rotated_operator(3, theta), pair).values,
                np.array([[1, 1, 1], [0, 0, 0], [-1, -1, -1]], dtype=complex),
            ),
        }
        for name, (got, want) in cases.items():
            worst[name] = max(worst[name], float(np.max(np.abs(got - want))))
    for name, err in worst.items():
        _check(failures, err <= 1e-10, f"{name} off by {err:.3e}")
    # the middle diagonal entry grows as tan(theta): check it explicitly
    theta = GRID[-1]
    got = weak_value_table(ly, rotated_pair(3, theta)).values[1, 1]
    _check(
        failures,
        abs(got - 1j * np.tan(theta)) <= 1e-10,
        "middle L_y entry misses i*tan(theta)",
    )
    _report(3, "spin-1 closed-form tables", failures)


def test_criterion_04_expansion_property_suite():
    failures = []
    rng = np.random.default_rng(814)
    worst_expand = 0.0
    worst_trace = 0.0
    for dim in (2, 3, 4, 5):
        for _ in range(50):
            pair = random_admissible_pair(dim, rng)
            a = random_hermitian(dim, rng)
            table = weak_value_table(a, pair)
            worst_expand = max(
                worst_expand, float(np.max(np.abs(expand(table) - a)))
            )
            wset = w_operator_set(pair)
            for l in range(dim):
                for j in range(dim):
                    delta = abs(weak_value_by_trace(a, wset, l, j) - table.values[l, j])
                    worst_trace = max(worst_trace, delta)
    _check(
        failures,
        worst_expand <= 1e-10,
        f"expansion residual {worst_expand:.3e} over 200 operators",
    )
    _check(failures, worst_trace <= 1e-12, f"trace route off by {worst_trace:.3e}")
    worst_orth = 0.0
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
                            worst_orth = max(worst_orth, abs(got - want))
    _check(
        failures,
        worst_orth <= 1e-10,
        f"orthogonality relation off by {worst_orth:.3e}",
    )
    _report(4, "expansion identity property suite", failures)


def test_criterion_05_gauge_invariance():
    failures = []
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        dim = 2 + trial % 2
        pair = random_admissible_pair(dim, rng)
        a = random_hermitian(dim, rng)
        base = weak_value_table(a, pair)
        base_mu = overlap_matrix(pair)
        base_expansion = expand(base)
        gauged = BasisPair(
            gauge_transform(pair.pre, rng.uniform(0, 2 * np.pi, dim)),
            gauge_transform(pair.post, rng.uniform(0, 2 * np.pi, dim)),
        )
        table = weak_value_table(a, gauged)
        worst = max(
            worst,
            float(np.max(np.abs(table.values - base.values))),
            float(np.max(np.abs(overlap_matrix(gauged) - base_mu))),
            float(np.max(np.abs(expand(table) - base_expansion))),
        )
    _check(failures, worst <= 1e-12, f"gauge transforms shift outputs by {worst:.3e}")
    _report(5, "gauge invariance of tables, weights, expansion", failures)


def test_criterion_06_reconstruction():
    failures = []
    worst_closed = 0.0
    for theta in GRID:
        pair = rotated_pair(2, theta)
        for tau in ([0.75, 0.25], [0.5, 0.5], [0.1, 0.9]):
            sol = reconstruct_full(pair, tau)
            mean, half = (tau[0] + tau[1]) / 2, (tau[0] - tau[1]) / 2
            rho = np.array([mean + half / np.cos(theta), mean - half / np.cos(theta)])
            off = -half * np.tan(theta)
            worst_closed = max(
                worst_closed,
                float(np.max(np.abs(sol.rho_psi - rho))),
                abs(sol.rho_phi_offdiag[0, 1] - off),
            )
    _check(
        failures, worst_closed <= 1e-10, f"closed form off by {worst_closed:.3e}"
    )
    for dim in (2, 3):
        try:
            reconstruct_full(rotated_pair(dim, np.pi / 2), np.full(dim, 1.0 / dim))
            _check(failures, False, f"dim {dim} right-angle pair did not raise")
        except SingularMeasurement:
            pass
    rng = np.random.default_rng(2718)
    worst_diag = 0.0
    worst_off = 0.0
    done = 0
    while done < 500:
        dim = 2 + done % 3
        pair = random_admissible_pair(dim, rng)
        mu = overlap_matrix(pair)
        if abs(np.linalg.det(mu)) <= 1e-6:
            continue
        rho = rng.dirichlet(np.ones(dim))
        sol = reconstruct_full(pair, project(rho, pair))
        full = expressed_in_post(rho, pair)
        off = full - np.diag(np.diag(full))
        worst_diag = max(worst_diag, float(np.max(np.abs(sol.rho_psi - rho))))
        worst_off = max(worst_off, float(np.max(np.abs(sol.rho_phi_offdiag - off))))
        done += 1
    _check(
        failures, worst_diag <= 1e-8, f"roundtrip diagonal off by {worst_diag:.3e}"
    )
    _check(
        failures, worst_off <= 1e-8, f"roundtrip off-diagonals off by {worst_off:.3e}"
    )
    _report(6, "state reconstruction", failures)


def test_criterion_07_polytope_census():
    failures = []
    two = permutation_corners(2)
    _check(failures, distance(two[0], two[1]) == 2.0, "2x2 corner distance is not 2")
    corners = permutation_corners(3)
    dists = sorted(
        distance(corners[i], corners[j])
        for i in range(6)
        for j in range(i + 1, 6)
    )
    _check(
        failures,
        all(abs(d - 2.0) <= 1e-12 for d in dists[:9])
        and all(abs(d - math.sqrt(6.0)) <= 1e-12 for d in dists[9:]),
        "edge census is not 9 at 2 plus 6 at sqrt(6)",
    )
    rng = np.random.default_rng(31)
    weights = rng.dirichlet(np.ones(6), size=200)
    samples = np.einsum("sk,kij->sij", weights, np.stack(corners))
    rank = np.linalg.matrix_rank(
        (samples[1:] - samples[0]).reshape(199, 9), tol=1e-10
    )
    _check(failures, rank == 4, f"sampled affine dimension is {rank}, not 4")
    _report(7, "polytope corner census and dimension", failures)


def test_criterion_08_unistochastic_oracle():
    failures = []
    # squared moduli of unitaries must always close the chain triangle
    haar = unitary_group.rvs(3, size=10_000, random_state=np.random.default_rng(5))
    mus = np.abs(haar) ** 2
    links = chain_links(mus)
    slack = links.sum(axis=-1) - 2.0 * links.max(axis=-1)
    bad = int(np.sum(slack < -1e-12))
    _check(failures, bad == 0, f"{bad} unitary-born matrices failed the triangle test")

    corners = permutation_corners(3)
    blocked = 0.5 * (corners[3] + corners[4])
    _check(
        failures,
        is_unistochastic(blocked).verdict == "no",
        "half-sum of the two cycles passed",
    )
    try:
        realize_unitary(blocked)
        _check(failures, False, "half-sum of the two cycles was realized")
    except NotUnistochastic:
        pass

    flat = np.full((3, 3), 1.0 / 3.0)
    _check(failures, is_unistochastic(flat).verdict == "yes", "flat matrix rejected")
    u = realize_unitary(flat)
    res = max(
        float(np.max(np.abs(u.conj().T @ u - np.eye(3)))),
        float(np.max(np.abs(np.abs(u) ** 2 - flat))),
    )
    _check(failures, res <= 1e-9, f"flat realization residual {res:.3e}")

    # triangle verdict against the realization search, decisive cases only:
    # a 1e-9 slack band around the boundary is numerically indeterminate
    rng = np.random.default_rng(2024)
    coeffs = rng.dirichlet(np.ones(6), size=10_000)
    random_mus = np.einsum("sk,kij->sij", coeffs, np.stack(corners))
    rlinks = chain_links(random_mus)
    rslack = rlinks.sum(axis=-1) - 2.0 * rlinks.max(axis=-1)
    found, ok = unitary_phase_search(random_mus, rng=7)
    missed = np.flatnonzero((rslack >= 1e-9) & ~ok)
    for idx in missed:  # a longer search gets a last word before failing
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(birkhoff, "_SEARCH_MAX_ITER", 60_000)
            _, late = unitary_phase_search(random_mus[idx], rng=11)
        if not late:
            _check(
                failures,
                False,
                f"feasible sample {idx} (slack {rslack[idx]:.2e}) never realized",
            )
    false_pos = np.flatnonzero((rslack < -1e-9) & ok)
    _check(
        failures,
        false_pos.size == 0,
        f"{false_pos.size} infeasible samples were realized",
    )
    _report(8, "unistochasticity tests and realization oracle", failures)


def _segment_distance(mat, a, b):
    p, u = mat.ravel() - a.ravel(), (b - a).ravel()
    s = np.clip(np.real(np.dot(p, u)) / np.dot(u, u), 0.0, 1.0)
    return float(np.linalg.norm(p - s * u))


def _deltoid(t):
    third = 2.0 * np.pi / 3.0
    return (
        np.stack(
            [
                (1.0 + 2.0 * np.cos(t)) ** 2,
                (1.0 + 2.0 * np.cos(t - third)) ** 2,
                (1.0 + 2.0 * np.cos(t + third)) ** 2,
            ],
            axis=-1,
        )
        / 9.0
    )


def test_criterion_09_degeneracy_geometry():
    failures = []
    _check(
        failures,
        abs(degeneracy(np.full((3, 3), 1.0 / 3.0))) <= 1e-14,
        "flat matrix determinant is not 0",
    )
    _check(
        failures,
        abs(degeneracy(overlap_matrix(rotated_pair(2, np.pi / 2)))) <= 1e-14,
        "right-angle qubit weights are not singular",
    )

    # four-corner patch: the degenerate unistochastic set is the pair of
    # segments joining opposite edge midpoints
    corners = permutation_corners(3)
    scan = sample_degenerate_surface((0, 1, 2, 3), 64)
    both = scan.subset(scan.degenerate & scan.unistochastic)
    _check(failures, len(both) > 0, "no degenerate unistochastic samples found")
    segments = (
        (0.5 * (corners[0] + corners[2]), 0.5 * (corners[1] + corners[3])),
        (0.5 * (corners[2] + corners[3]), 0.5 * (corners[0] + corners[1])),
    )
    worst_line = max(
        (
            min(_segment_distance(mat, a, b) for a, b in segments)
            for mat in both.matrices
        ),
        default=0.0,
    )
    _check(
        failures,
        worst_line <= 2.0 / 64.0,
        f"intersection sample strays {worst_line:.3e} from the midpoint segments",
    )
    endpoints = [m for seg in segments for m in seg]
    crossing = 0.25 * (corners[0] + corners[1] + corners[2] + corners[3])
    for mat in endpoints + [crossing]:
        _check(
            failures,
            abs(degeneracy(mat)) <= 1e-14 and is_unistochastic(mat).verdict == "yes",
            "a midpoint-segment landmark fails to classify degenerate unistochastic",
        )

    # three-cycle triangle: the closure-equality locus is the deltoid whose
    # cusps are the corners themselves
    locus = hypocycloid_boundary(256)
    curve = _deltoid(np.linspace(0.0, 2.0 * np.pi, 8001))
    tol = 2.0 / 256.0
    forward = max(
        float(np.min(np.linalg.norm(curve - p, axis=1))) for p in locus
    )
    _check(
        failures,
        forward <= tol,
        f"locus point strays {forward:.3e} from the deltoid",
    )
    reverse = np.empty(len(curve))
    for i in range(0, len(curve), 512):
        block = curve[i : i + 512]
        dist = np.linalg.norm(block[:, None, :] - locus[None, :, :], axis=2)
        reverse[i : i + 512] = dist.min(axis=1)
    _check(
        failures,
        float(reverse.max()) <= tol,
        f"deltoid arc {float(reverse.max()):.3e} away from any locus sample",
    )
    # cusps: where all three parametric derivatives vanish, i.e. the corners
    basis = np.stack([corners[0], corners[3], corners[4]])
    for k, t in enumerate((0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0)):
        cusp = np.zeros(3)
        cusp[k] = 1.0
        _check(
            failures,
            float(np.max(np.abs(_deltoid(np.array(t)) - cusp))) <= 1e-15,
            f"parametric cusp {k} is not the corner",
        )
        _check(
            failures,
            float(np.min(np.linalg.norm(locus - cusp, axis=1))) == 0.0,
            f"cusp {k} missing from the sampled locus",
        )
        mu = np.einsum("k,kij->ij", cusp, basis)
        lk = chain_links(mu)
        _check(
            failures,
            abs(lk.sum() - 2.0 * lk.max()) <= 1e-12,
            f"cusp {k} violates closure equality",
        )
    _report(9, "degeneracy surfaces and boundary geometry", failures)


@pytest.mark.xfail(
    strict=True,
    reason="the closure-equality locus is a deltoid whose cusps sit at the "
    "triangle corners; the edge midpoints violate closure by exactly 0.5 "
    "(0.134 away from the locus), so they cannot host the cusps",
)
def test_criterion_09_cusps_at_edge_midpoints_as_stated():
    print("criterion 9x [XFAIL] cusps placed at edge midpoints")
    locus = hypocycloid_boundary(256)
    mids = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    for mid in mids:
        assert float(np.min(np.linalg.norm(locus - mid, axis=1))) <= 2.0 / 256.0


def test_criterion_10_cli_contract(tmp_path, capsys):
    failures = []
    documented = [
        ["weak-table", "sigma_x", "exclusive2"],
        ["reconstruct", "0.75,0.25", "--theta", "0.9"],
        ["birkhoff", "classify", "--coeffs", "0,0,0,0.5,0.5,0"],
    ]
    for k, argv in enumerate(documented):
        first, second = tmp_path / f"{k}a", tmp_path / f"{k}b"
        code_a = cli.main(argv + ["--out", str(first)])
        code_b = cli.main(argv + ["--out", str(second)])
        _check(failures, code_a == 0 and code_b == 0, f"{argv[0]} did not exit 0")
        _check(
            failures,
            first.read_bytes() == second.read_bytes(),
            f"{argv[0]} output is not byte-identical across runs",
        )
        json.loads(first.read_text())  # well-formed document
    cases = [
        (["weak-table", "sigma_x", "rotated2", "--theta", "0"], 2),
        (["reconstruct", "0.5,0.5", "--theta", repr(math.pi / 2)], 3),
        (["weak-table", "sigma_x", "no_such_basis"], 4),
        (["birkhoff", "classify", "--coeffs", "1,0", "--file", "x.json"], 4),
    ]
    for argv, want in cases:
        got = cli.main(argv)
        capsys.readouterr()
        _check(failures, got == want, f"{argv} exited {got}, wanted {want}")
    _report(10, "CLI determinism and exit codes", failures)
