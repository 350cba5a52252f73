"""Seeded inputs for the three workloads, built with numpy and the stdlib only.

Every workload is a list of *cycles*; a cycle is a list of jobs (plain JSON
data).  The worker runs whole cycles, so every run sees the same mix of job
kinds and sizes and only the seeded details change.  Nothing here imports
``weakvalues``: the inputs, the expected exit codes and the reference values
the checker uses are computed independently of the program under test.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

# Exit codes the command line documents.
EXIT_OK, EXIT_OVERLAP, EXIT_SINGULAR = 0, 2, 3
# Thresholds the program documents; inputs closer than a factor of two to one
# of them accept either answer.
OVERLAP_TOL = 1e-8
DET_TOL = 1e-10

# Slack bins used to stratify the search targets.  The search's cost is
# heavy-tailed and concentrated just inside and outside the feasibility
# boundary (slack near 0), so every seed gets the same number of targets per
# bin and only the targets themselves are drawn from the seed.
SLACK_EDGES = (-np.inf, -0.1, -0.02, -0.005, 0.0, 0.005, 0.02, 0.1, np.inf)

# Fifteen documents a cycle: an odd count puts the median call on one job
# size, not in the gap between two sizes.
MESH_SIZES = {
    False: {
        "sample4": (16, 24, 32, 40, 48),
        "sample3": (64, 96, 128, 160, 192),
        "hypocycloid": (256, 384, 512),
        "corners": (4, 5),
    },
    True: {"sample4": (4, 6), "sample3": (8,), "hypocycloid": (16,), "corners": (3,)},
}
ORACLE_BATCH = {False: (128, 32), True: (8, 4)}
ORACLE_CYCLES = {False: 48, True: 1}
REQUEST_CYCLES = {False: 300, True: 1}
HAAR_POOL = {False: 40, True: 5}


# ---------------------------------------------------------------------------
# reference objects, computed here and not by the program


def permutation_matrices(n):
    """The n! permutation matrices in lexicographic order of the permutation."""
    perms = list(itertools.permutations(range(n)))
    out = np.zeros((len(perms), n, n))
    for k, perm in enumerate(perms):
        out[k, np.arange(n), perm] = 1.0
    return out


def haar_unitary(rng, n):
    """Haar-random unitary: QR of a complex Gaussian with the phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def pauli():
    return {
        "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
        "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
    }


def spin_one():
    r = math.sqrt(2)
    return {
        "L_x": np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / r,
        "L_y": np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / r,
        "L_z": np.diag([1, 0, -1]).astype(complex),
    }


def gell_mann(k):
    g = np.zeros((3, 3), dtype=complex)
    pairs = {1: (0, 1), 2: (0, 1), 4: (0, 2), 5: (0, 2), 6: (1, 2), 7: (1, 2)}
    if k in (1, 4, 6):
        i, j = pairs[k]
        g[i, j] = g[j, i] = 1
    elif k in (2, 5, 7):
        i, j = pairs[k]
        g[i, j], g[j, i] = -1j, 1j
    elif k == 3:
        g[0, 0], g[1, 1] = 1, -1
    else:
        g[:] = np.diag([1, 1, -2]) / math.sqrt(3)
    return g


def rotated_basis(dim, theta):
    """Eigenvectors (columns) of the spin projection tilted by theta in x-z."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if dim == 2:
        return np.array([[c, -s], [s, c]], dtype=complex)
    st, ct, r = math.sin(theta), math.cos(theta), math.sqrt(2)
    return np.array(
        [[c * c, -st / r, s * s], [st / r, ct, -st / r], [s * s, st / r, c * c]],
        dtype=complex,
    )


def preset_operator(name, theta, dim):
    if name in ("sigma_x", "sigma_y", "sigma_z"):
        return pauli()[name]
    if name in ("L_x", "L_y", "L_z"):
        return spin_one()[name]
    if name == "sigma_theta":
        p = pauli()
        return p["sigma_z"] * math.cos(theta) + p["sigma_x"] * math.sin(theta)
    if name == "L_theta":
        s = spin_one()
        return s["L_z"] * math.cos(theta) + s["L_x"] * math.sin(theta)
    if name.startswith("gellmann_"):
        return gell_mann(int(name.split("_")[1]))
    if name == "identity":
        return np.eye(dim, dtype=complex)
    raise KeyError(name)


def preset_basis(name, theta):
    """(pre, post) with vectors as columns."""
    if name == "exclusive2":
        return np.eye(2, dtype=complex), np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    dim = int(name[-1])
    return np.eye(dim, dtype=complex), rotated_basis(dim, theta)


def closure_slack(mu):
    """Closure slack of the first two columns' chain links (3x3, batched)."""
    links = np.sqrt(np.clip(mu[..., :, 0] * mu[..., :, 1], 0.0, None))
    return links.sum(axis=-1) - 2.0 * links.max(axis=-1)


def polygon_slack(mu):
    """Smallest polygon slack over every row pair and every column pair.

    For a unistochastic matrix the links sqrt(mu[k, i] mu[k, j]) of every
    column pair (and likewise every row pair) close into a polygon, so a
    negative slack proves that no unitary has these moduli (any n).
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.shape[-1]
    worst = np.full(mu.shape[:-2], np.inf)
    for m in (mu, np.swapaxes(mu, -1, -2)):
        for i, j in itertools.combinations(range(n), 2):
            links = np.sqrt(np.clip(m[..., :, i] * m[..., :, j], 0.0, None))
            worst = np.minimum(worst, links.sum(axis=-1) - 2.0 * links.max(axis=-1))
    return worst


def target_slack(mu):
    return closure_slack(mu) if mu.shape[-1] == 3 else polygon_slack(mu)


# ---------------------------------------------------------------------------
# stratified Dirichlet mixtures of permutation corners


def _bin_of(slack):
    return np.searchsorted(np.asarray(SLACK_EDGES[1:-1]), slack, side="right")


def _bin_shares(n, conc):
    """Share of Dirichlet(conc) mixtures in each slack bin (fixed reference)."""
    rng = np.random.default_rng(20260101 + n)
    corners = permutation_matrices(n)
    weights = rng.dirichlet(np.full(len(corners), conc), 200_000)
    bins = _bin_of(target_slack(np.einsum("bm,mij->bij", weights, corners)))
    return np.bincount(bins, minlength=len(SLACK_EDGES) - 1) / bins.size


def _label_sequence(shares, total):
    """Bin labels for ``total`` draws, each bin spread evenly along the sequence."""
    raw = shares * total
    counts = np.floor(raw).astype(int)
    for b in np.argsort(counts - raw)[: total - counts.sum()]:
        counts[b] += 1
    pos = np.concatenate([(np.arange(c) + 0.5) / c for c in counts if c])
    lab = np.concatenate([np.full(c, b) for b, c in enumerate(counts) if c])
    return lab[np.argsort(pos, kind="stable")]


def stratified_mixtures(rng, n, conc, total):
    """``total`` Dirichlet(conc) weight vectors over the n! corners.

    The weights are drawn from the seed; how many fall in each slack bin is
    fixed by the reference shares, and every prefix of the sequence keeps
    those shares.  Returns (weights, matrices) in sequence order.
    """
    corners = permutation_matrices(n)
    labels = _label_sequence(_bin_shares(n, conc), total)
    need = np.bincount(labels, minlength=len(SLACK_EDGES) - 1)
    pools = [[] for _ in need]
    have = np.zeros_like(need)
    while np.any(have < need):
        w = rng.dirichlet(np.full(len(corners), conc), max(4 * total, 1024))
        bins = _bin_of(target_slack(np.einsum("bm,mij->bij", w, corners)))
        for b in np.flatnonzero(have < need):
            pools[b].extend(w[bins == b][: need[b] - have[b]])
            have[b] = len(pools[b])
    cursor = np.zeros_like(need)
    weights = np.empty((total, len(corners)))
    for k, b in enumerate(labels):
        weights[k] = pools[b][cursor[b]]
        cursor[b] += 1
    return weights, np.einsum("bm,mij->bij", weights, corners)


# ---------------------------------------------------------------------------
# workloads


def _num(x):
    return repr(float(x))


def mesh_cli(seed, quick):
    """``cli.main`` writing mesh documents: sample, hypocycloid and corners."""
    rng = np.random.default_rng([seed, 1])
    sizes = MESH_SIZES[quick]
    cycles = []
    for _ in range(64 if not quick else 1):
        jobs = []
        for kind, m in (("sample4", 4), ("sample3", 3)):
            for r in sizes[kind]:
                corners = [int(c) for c in rng.choice(6, m, replace=False)]
                jobs.append({"tag": kind, "corners": corners, "r": r,
                             "cost": math.comb(r + m - 1, m - 1)})
        for r in sizes["hypocycloid"]:
            corners = [int(c) for c in rng.choice(6, 3, replace=False)]
            jobs.append({"tag": "hypocycloid", "corners": corners, "r": r,
                         "cost": math.comb(r + 2, 2) // 40})
        for n in sizes["corners"]:
            jobs.append({"tag": "corners", "n": n, "cost": math.factorial(n) ** 2})
        # a third of the documents are CSV, spread over the size ranks; the
        # same ranks every cycle, so the largest document's format (and with
        # it the peak memory) does not depend on the seed
        for rank, job in enumerate(sorted(jobs, key=lambda j: j["cost"])):
            job["fmt"] = "csv" if rank % 3 == 1 else "json"
        for job in jobs:
            del job["cost"]
            if job["tag"] == "corners":
                argv = ["birkhoff", "corners", "--n", str(job["n"])]
            else:
                sub = "hypocycloid" if job["tag"] == "hypocycloid" else "sample"
                argv = ["birkhoff", sub, "--corners", ",".join(map(str, job["corners"])),
                        "--resolution", str(job["r"])]
            job.update(kind="cli", argv=argv + ["--format", job["fmt"]], expect=[EXIT_OK])
        cycles.append([jobs[k] for k in rng.permutation(len(jobs))])
    return {"cycles": cycles}, {}


def oracle_batch(seed, quick):
    """Batched ``unitary_phase_search``: one call is a round of two batches.

    A round is a batch of 3x3 targets (Dirichlet(1) mixes of the 6 corners)
    followed by a batch of 4x4 targets (Dirichlet(0.15) mixes of the 24
    corners), each with its own seeded ``rng``.
    """
    rng = np.random.default_rng([seed, 2])
    size3, size4 = ORACLE_BATCH[quick]
    rounds = ORACLE_CYCLES[quick]
    _, t3 = stratified_mixtures(rng, 3, 1.0, rounds * size3)
    _, t4 = stratified_mixtures(rng, 4, 0.15, rounds * size4)
    seeds = rng.integers(2**31, size=(rounds, 2))
    cycles = [
        [{"kind": "search", "tag": "round", "index": k, "rng": [int(s) for s in seeds[k]]}]
        for k in range(rounds)
    ]
    arrays = {"batch3": t3.reshape(rounds, size3, 3, 3), "batch4": t4.reshape(rounds, size4, 4, 4)}
    return {"cycles": cycles}, arrays


_PRESETS_2 = ("sigma_x", "sigma_y", "sigma_z", "sigma_theta", "identity")
_PRESETS_3 = ("L_x", "L_y", "L_z", "L_theta", "identity") + tuple(
    f"gellmann_{k}" for k in range(1, 9)
)
# The rotated bases lose an overlap at theta = 0, pi (both) and pi/2 (n = 3);
# regular angles stay clear of those points and of det(mu) = 0 at pi/2.
_THETA_BANDS = ((0.2, 1.3), (1.85, 2.95))


def _theta(rng):
    lo, hi = _THETA_BANDS[int(rng.integers(2))]
    return float(rng.uniform(lo, hi))


def _expect_overlap(pre, post):
    g = np.abs(post.conj().T @ pre).min()
    if g <= OVERLAP_TOL / 2:
        return [EXIT_OVERLAP]
    return [EXIT_OK] if g > 2 * OVERLAP_TOL else [EXIT_OK, EXIT_OVERLAP]


def _expect_det(mu, ok, singular):
    det = abs(float(np.linalg.det(mu)))
    if det <= DET_TOL / 2:
        return [singular]
    return [ok] if det > 2 * DET_TOL else [ok, singular]


def _matrix_json(m):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]


def requests(seed, quick, workdir):
    """A seeded stream of small CLI and library calls, one at a time."""
    rng = np.random.default_rng([seed, 3])
    pool = []
    for k in range(HAAR_POOL[quick]):
        n = 4 + k % 5
        pre, post, op = haar_unitary(rng, n), haar_unitary(rng, n), random_hermitian(rng, n)
        basis_path = os.path.join(workdir, f"pair-{k}.json")
        op_path = os.path.join(workdir, f"op-{k}.json")
        with open(basis_path, "w", encoding="utf-8") as fh:
            # one vector per row in the file
            json.dump({"pre": _matrix_json(pre.T), "post": _matrix_json(post.T)}, fh)
        with open(op_path, "w", encoding="utf-8") as fh:
            json.dump(_matrix_json(op), fh)
        pool.append({"basis": basis_path, "op": op_path, "n": n})
    cycles_n = REQUEST_CYCLES[quick]
    coeffs4, _ = stratified_mixtures(rng, 4, 0.15, 2 * cycles_n)
    half_sum = [0.0, 0.0, 0.0, 0.5, 0.5, 0.0]  # the two 3-cycles, blocked
    cycles = []
    for c in range(cycles_n):
        jobs = []
        for _ in range(4):
            basis = ("exclusive2", "rotated2", "rotated3")[int(rng.integers(3))]
            names = _PRESETS_3 if basis == "rotated3" else _PRESETS_2
            op = names[int(rng.integers(len(names)))]
            theta = _theta(rng)
            pre, post = preset_basis(basis, theta)
            argv = ["weak-table", op, basis, "--theta", _num(theta)]
            jobs.append({"kind": "cli", "tag": "weak-table", "argv": argv,
                         "op": op, "basis": basis, "theta": float(argv[-1]),
                         "expect": _expect_overlap(pre, post)})
        for _ in range(3):
            k = int(rng.integers(len(pool)))
            argv = ["weak-table", "file:" + pool[k]["op"], "file:" + pool[k]["basis"]]
            jobs.append({"kind": "cli", "tag": "weak-table", "argv": argv, "pool": k,
                         "expect": [EXIT_OK]})
        for singular in (True, False, False):
            dim = 2 + int(rng.integers(2))
            theta = math.pi / 2 if singular else _theta(rng)
            tau = rng.dirichlet(np.ones(dim))
            argv = ["reconstruct", ",".join(map(_num, tau)), "--theta", _num(theta)]
            mu = np.abs(rotated_basis(dim, theta)) ** 2
            jobs.append({"kind": "cli", "tag": "reconstruct", "argv": argv, "dim": dim,
                         "theta": float(_num(theta)), "tau": [float(_num(t)) for t in tau],
                         "expect": _expect_det(mu, EXIT_OK, EXIT_SINGULAR)})
        for w in [rng.dirichlet(np.ones(6)) for _ in range(3)] + [half_sum]:
            jobs.append({"kind": "cli", "tag": "classify3", "n": 3,
                         "argv": ["birkhoff", "classify", "--coeffs", ",".join(map(_num, w))],
                         "coeffs": [float(_num(x)) for x in w], "expect": [EXIT_OK]})
        for w in coeffs4[2 * c : 2 * c + 2]:
            jobs.append({"kind": "cli", "tag": "classify4", "n": 4,
                         "argv": ["birkhoff", "classify", "--coeffs", ",".join(map(_num, w))],
                         "coeffs": [float(_num(x)) for x in w], "expect": [EXIT_OK]})
        for tag in ("reconstruct_full", "reconstruct_full", "weak_expand", "weak_expand"):
            k = int(rng.integers(len(pool)))
            job = {"kind": tag, "tag": tag, "pool": k}
            if tag == "reconstruct_full":
                job["tau"] = rng.dirichlet(np.ones(pool[k]["n"])).tolist()
            jobs.append(job)
        cycles.append([jobs[k] for k in rng.permutation(len(jobs))])
    return {"cycles": cycles, "pool": pool}, {}


def _complex_rows(rows):
    return np.array([[complex(v["re"], v["im"]) for v in row] for row in rows])


def load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return _complex_rows(json.load(fh))


def load_pool(pool):
    """(pre, post, op) per pool entry, vectors as columns."""
    out = []
    for item in pool:
        with open(item["basis"], encoding="utf-8") as fh:
            data = json.load(fh)
        pre = _complex_rows(data["pre"]).T
        post = _complex_rows(data["post"]).T
        out.append((pre, post, load_matrix(item["op"])))
    return out


def expected_library(job, pool):
    """Documented outcome of a library job: 'ok' or the exception's name."""
    pre, post, _ = pool[job["pool"]]
    g = post.conj().T @ pre
    if job["kind"] == "weak_expand":
        low = np.abs(g).min()
        if low <= OVERLAP_TOL / 2:
            return ["OverlapTooSmall"]
        return ["ok"] if low > 2 * OVERLAP_TOL else ["ok", "OverlapTooSmall"]
    return _expect_det(np.abs(g) ** 2, "ok", "SingularMeasurement")


WORKLOADS = {
    "mesh-cli": mesh_cli,
    "oracle-batch": oracle_batch,
    "requests": requests,
}


def build(workload, seed, quick, workdir):
    """Write the workload's inputs under ``workdir``; return the job document."""
    maker = WORKLOADS[workload]
    if workload == "requests":
        jobs, arrays = maker(seed, quick, workdir)
    else:
        jobs, arrays = maker(seed, quick)
    if arrays:
        path = os.path.join(workdir, "targets.npz")
        np.savez(path, **arrays)
        jobs["arrays"] = path
    path = os.path.join(workdir, "jobs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    return jobs, arrays, path
