"""Geometry of doubly stochastic matrices seen as points of a polytope.

The polytope of n x n doubly stochastic matrices is the convex hull of the
n! permutation matrices.  This module classifies points of the n = 3
polytope (unistochastic or not, degenerate or not), realizes unitary
matrices behind unistochastic points, and samples the surfaces that organize
the polytope's interior.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import DET_TOL, _unitarity_deviation

# Classification thresholds.  DET_TOL (shared with reconstruct) flags a
# matrix as degenerate (information-destroying); TRIANGLE_TOL absorbs float
# noise in the closure condition; BISTOCHASTIC_TOL validates row/column sums
# of inputs.
BISTOCHASTIC_TOL = 1e-12
TRIANGLE_TOL = 1e-12

# Phase search budget: projection stops once an iterate is unitary to
# _SEARCH_TOL or its deviation has not improved for _SEARCH_PLATEAU steps;
# a target counts as realized at _SEARCH_ACCEPT.
_SEARCH_TOL = 1e-11
_SEARCH_ACCEPT = 1e-9
_SEARCH_PLATEAU = 60

__all__ = [
    "BISTOCHASTIC_TOL",
    "DET_TOL",
    "TRIANGLE_TOL",
    "NotUnistochastic",
    "SearchFailed",
    "SurfaceScan",
    "UnistochasticCertificate",
    "canonical_coefficients",
    "chain_links",
    "check_bistochastic",
    "combine",
    "degeneracy",
    "distance",
    "equality_defect",
    "hypocycloid_boundary",
    "is_bistochastic",
    "is_unistochastic",
    "permutation_corners",
    "realize_unitary",
    "sample_degenerate_surface",
    "simplex_grid",
    "triangle_condition",
    "unistochastic_degenerate_intersection",
    "unitary_phase_search",
]


class NotUnistochastic(ValueError):
    """No unitary has these squared moduli; carries the failing chain links."""

    def __init__(self, links):
        links = tuple(float(x) for x in links)
        super().__init__(
            f"chain links {links} cannot close into a triangle; "
            "no realizing unitary exists"
        )
        self.links = links


class SearchFailed(RuntimeError):
    """The numerical phase search did not converge within its budget."""


def permutation_corners(n):
    """The n! permutation matrices, in lexicographic order of the permutation.

    For n = 3 this yields the conventional corner numbering P0..P5 with the
    identity first.  Row i of corner P carries its 1 in column perm[i].
    """
    if not 2 <= n <= 8:
        raise ValueError(f"corner enumeration supported for 2 <= n <= 8, got {n!r}")
    corners = []
    for perm in itertools.permutations(range(n)):
        m = np.zeros((n, n))
        m[np.arange(n), perm] = 1.0
        corners.append(m)
    return corners


def is_bistochastic(mu, tol=BISTOCHASTIC_TOL):
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        return False
    if np.min(mu) < -tol:
        return False
    ones = np.ones(mu.shape[0])
    return bool(
        np.max(np.abs(mu.sum(axis=0) - ones)) <= tol
        and np.max(np.abs(mu.sum(axis=1) - ones)) <= tol
    )


def check_bistochastic(mu, tol=BISTOCHASTIC_TOL):
    """Return ``mu`` as a float ndarray, raising unless it is doubly stochastic."""
    mu = np.asarray(mu, dtype=float)
    if not is_bistochastic(mu, tol):
        raise ValueError("matrix is not doubly stochastic within tolerance")
    return mu


def combine(coeffs, corners):
    """Convex combination sum_i coeffs[i] * corners[i].

    ``coeffs`` must be barycentric: nonnegative and summing to one.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    corners = np.asarray(corners, dtype=float)
    if coeffs.ndim != 1 or len(coeffs) != len(corners):
        raise ValueError(
            f"need one coefficient per corner: {coeffs.shape} vs {len(corners)}"
        )
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(corners))):
        raise ValueError("coefficients and corners must be finite")
    if np.min(coeffs) < -BISTOCHASTIC_TOL:
        raise ValueError("barycentric coefficients must be nonnegative")
    if abs(float(np.sum(coeffs)) - 1.0) > BISTOCHASTIC_TOL:
        raise ValueError("barycentric coefficients must sum to 1")
    return np.einsum("m,mij->ij", coeffs, corners)


def distance(a, b):
    """Frobenius distance sqrt(tr[(A-B)(A-B)^dagger]) between two matrices.

    Broadcasts over leading axes; a single pair gives a Python float.
    """
    d = np.asarray(a) - np.asarray(b)
    dist = np.sqrt(np.sum(np.abs(d) ** 2, axis=(-2, -1)))
    return float(dist) if dist.ndim == 0 else dist


def chain_links(mu, cols=(0, 1)):
    """Row-wise links L[i] = sqrt(mu[i, c0] * mu[i, c1]) for a column pair.

    For a 3 x 3 doubly stochastic matrix these are the side lengths of the
    triangle that the phases of a realizing unitary's two columns must close.
    Which column pair is used does not change the closure verdict.
    """
    mu = np.asarray(mu, dtype=float)
    c0, c1 = cols
    return np.sqrt(np.clip(mu[..., :, c0] * mu[..., :, c1], 0.0, None))


def _closure_slack(links):
    """largest <= sum of others, as a signed slack (>= 0 means closable)."""
    links = np.asarray(links, dtype=float)
    total = links.sum(axis=-1)
    largest = links.max(axis=-1)
    return total - 2.0 * largest


def _pair_slacks(mu):
    """Closure slack of the links of every row pair and column pair.

    Two orthogonal columns i, j of a unitary give sum_k U[k,i] conj(U[k,j])
    = 0, a closed polygon with sides sqrt(mu[k,i] mu[k,j]); rows likewise.
    A negative slack therefore proves that no unitary has these moduli, for
    every n.  Returns ``(slack, i, j)``: ``slack[0, p]`` belongs to rows
    ``i[p]`` and ``j[p]``, ``slack[1, p]`` to those columns.
    """
    i, j = np.triu_indices(mu.shape[-1], 1)
    rows = np.stack([mu, mu.T])  # the rows of mu, then its columns
    links = np.sqrt(np.clip(rows[:, i] * rows[:, j], 0.0, None))
    return _closure_slack(links), i, j


def _polygon_slack(mu):
    """Smallest closure slack over the links of every row pair and column pair."""
    return float(np.min(_pair_slacks(mu)[0]))


def triangle_condition(links, tol=TRIANGLE_TOL):
    """True when three lengths close into a (possibly flat) triangle."""
    return bool(_closure_slack(links) >= -tol)


def equality_defect(links):
    """|slack| of the closure condition; zero exactly on the boundary locus.

    Batched like :func:`chain_links`: the last axis holds the links.
    """
    return np.abs(_closure_slack(links))


@dataclass(frozen=True, eq=False)
class UnistochasticCertificate:
    """Outcome of a unistochasticity test.

    verdict is "yes", "no" or "unknown".  For n >= 4, "no" means the links
    of some row pair or column pair fail to close into a polygon, and
    "unknown" means they all close but the phase search found no unitary.
    For n = 3 the chain links are attached; for "yes" verdicts a realizing
    unitary is attached, unitary to 1e-9 with |U|^2 matching the input.
    """

    verdict: str
    chain_links: tuple | None = None
    realizing_unitary: np.ndarray | None = None


def _realize_two(mu):
    r = np.sqrt(mu)
    return np.array(
        [[r[0, 0], r[0, 1]], [-r[1, 0], r[1, 1]]], dtype=complex
    )


def _realize_three(mu, links, tol=TRIANGLE_TOL):
    """Phase construction for n = 3: close the chain, cross for column three.

    The first column is taken real nonnegative; the second column's phases
    (beta_1, beta_2 on rows 1 and 2) solve
    L0 + L1 exp(i beta_1) + L2 exp(i beta_2) = 0 via the law of cosines.
    The third column is the conjugate cross product of the first two, which
    for a doubly stochastic target automatically carries the right moduli.
    """
    if _closure_slack(links) < -tol:
        raise NotUnistochastic(links)
    l0, l1, l2 = (float(x) for x in links)
    tiny = 1e-300
    if l0 > tiny and l1 > tiny:
        cos_b1 = (l2 * l2 - l0 * l0 - l1 * l1) / (2.0 * l0 * l1)
        b1 = float(np.arccos(np.clip(cos_b1, -1.0, 1.0)))
        rem = -l0 - l1 * np.exp(1j * b1)
        b2 = float(np.angle(rem)) if abs(rem) > tiny else 0.0
    else:
        # First or second link absent: the remaining two cancel head-on.
        b1, b2 = 0.0, np.pi
    roots = np.sqrt(mu)
    u = roots.astype(complex)
    u[1, 1] *= np.exp(1j * b1)
    u[2, 1] *= np.exp(1j * b2)
    # For unitary columns, conj(cross) spans the orthogonal complement with
    # unit norm and automatically the right moduli (unit rows).
    c2 = np.conj(np.cross(u[:, 0], u[:, 1]))
    norm = np.linalg.norm(c2)
    if norm > 1e-12:
        c2 = c2 / norm
        if abs(c2[0]) > 1e-12:
            c2 = c2 * np.exp(-1j * np.angle(c2[0]))
        u[:, 2] = c2
    return u


def _verify_realization(u, mu, tol=1e-9):
    gram_dev = float(_unitarity_deviation(u))
    mod_dev = float(np.max(np.abs(np.abs(u) ** 2 - mu)))
    return gram_dev <= tol and mod_dev <= tol


def _project_iterate(g, r, max_iter):
    """Alternate polar projection with modulus restoration, per batch entry.

    Entries leave the working set once unitary to _SEARCH_TOL or once the
    best deviation has not improved (relatively) for _SEARCH_PLATEAU steps;
    infeasible targets hit a positive floor and stall out quickly.  The live
    entries are carried as compact arrays and written back to ``g`` when they
    leave, or once after ``max_iter`` steps.
    """
    final_dev = np.full(g.shape[0], np.inf)
    alive = np.arange(g.shape[0])
    ga, ra = g, r
    dev = np.full(alive.size, np.inf)
    best = np.full(alive.size, np.inf)
    stall = np.zeros(alive.size, dtype=int)
    for _ in range(max_iter):
        if alive.size == 0:
            break
        u, _, vh = np.linalg.svd(ga)
        ga = ra * np.exp(1j * np.angle(u @ vh))
        dev = _unitarity_deviation(ga)
        improved = dev < best * (1.0 - 1e-9)
        best = np.minimum(best, dev)
        stall = np.where(improved, 0, stall + 1)
        done = (dev <= _SEARCH_TOL) | (stall > _SEARCH_PLATEAU)
        if done.any():
            g[alive[done]] = ga[done]
            final_dev[alive[done]] = dev[done]
            live = ~done
            alive, ga, ra, dev, best, stall = (
                x[live] for x in (alive, ga, ra, dev, best, stall)
            )
    g[alive] = ga
    final_dev[alive] = dev
    return g, final_dev


def _phase_polish(u, steps=40, target=1e-12):
    """Gauss-Newton on the phase field, holding the moduli fixed.

    Alternating projection crawls when the target sits near the boundary of
    feasibility (the constraint manifolds meet almost tangentially there);
    Newton steps on the off-diagonal Gram conditions finish the job at a
    quadratic rate.  Least-squares steps absorb the gauge freedom.
    """
    n = u.shape[0]
    r = np.abs(u)
    phi = np.angle(u)
    i, j = np.triu_indices(n, 1)
    rows = np.arange(i.size)[:, None]
    # flat index of phi[k, j] and phi[k, i] in row (i, j) of the Jacobian;
    # i != j, so the two never collide
    col_j, col_i = np.arange(n) * n + j[:, None], np.arange(n) * n + i[:, None]
    best_phi, best_dev = phi, float(_unitarity_deviation(u))
    for _ in range(steps):
        # t[p, k] = r[k, i] r[k, j] exp(i (phi[k, j] - phi[k, i])) for pair p
        t = r.T[i] * r.T[j] * np.exp(1j * (phi.T[j] - phi.T[i]))
        f = t.sum(axis=1)
        jac = np.zeros((i.size, n * n), dtype=complex)
        jac[rows, col_j] += 1j * t
        jac[rows, col_i] -= 1j * t
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


def _sign_patterns(n):
    """Phase fields of +-1 signs on up to four free entries, all-zero excluded."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)][:4]
    fields = []
    for bits in itertools.product((0.0, np.pi), repeat=len(cells)):
        if any(bits):  # the all-zero pattern is the first attempt
            phases = np.zeros((n, n))
            for (i, j), b in zip(cells, bits):
                phases[i, j] = b
            fields.append(phases)
    return np.stack(fields)


def unitary_phase_search(targets, rng=None, max_iter=800, restarts=4):
    """Find unitaries with prescribed squared moduli by alternating projection.

    ``targets`` may be a single (n, n) matrix or a batch (..., n, n).  Each
    iterate is projected to the nearest unitary (polar factor) and then back
    to the fixed-modulus set; an iterate that stalls inside the basin is
    finished by a Gauss-Newton polish of its phases.  Success means the
    fixed-modulus iterate is unitary to 1e-9.

    Unresolved targets go through the stages in order: zero phases, then
    ``restarts`` random phase fields (one stage each, drawn only for the
    targets still unresolved), then the pattern stage, which starts every
    target that has already come within 1e-2 of unitarity from each of the
    +-1 sign assignments of up to four free entries (15 for n >= 3), all in
    one batch.  Within a stage a target takes its first success in start
    order: a start that projects to 1e-9 wins outright, one that ends within
    1e-2 is polished and wins if the polish reaches 1e-9, and no start after
    the winner is polished.  The sign starts rescue targets near the boundary
    of feasibility, where the solution phases sit close to 0 or pi and random
    starts converge too slowly; gating them on basin entry keeps clearly
    infeasible targets from burning through the whole ladder.  Deterministic
    for a given ``rng`` seed.

    Returns ``(unitaries, ok)`` where ``ok`` marks converged entries.  The
    returned matrices carry the target moduli exactly.
    """
    targets = np.asarray(targets, dtype=float)
    single = targets.ndim == 2
    mus = targets.reshape((-1,) + targets.shape[-2:])
    batch, n, _ = mus.shape
    roots = np.sqrt(np.clip(mus, 0.0, None))
    out = roots.astype(complex)
    ok = np.zeros(batch, dtype=bool)
    gen = np.random.default_rng(0 if rng is None else rng)

    best_dev = np.full(batch, np.inf)
    for kind in ["zero"] + ["random"] * restarts + ["pattern"]:
        todo = np.flatnonzero(~ok)
        if kind == "pattern":
            todo = todo[best_dev[todo] <= 1e-2]
        if todo.size == 0:
            continue
        r = roots[todo]
        # starts (targets, starts per target, n, n), target-major
        if kind == "zero":
            g = r.astype(complex)[:, None]
        elif kind == "random":
            g = (r * np.exp(2j * np.pi * gen.random((todo.size, n, n))))[:, None]
        else:
            g = r[:, None] * np.exp(1j * _sign_patterns(n))
        starts = g.shape[1]
        g, final_dev = _project_iterate(
            g.reshape(-1, n, n), np.repeat(r, starts, axis=0), max_iter
        )
        g = g.reshape(todo.size, starts, n, n)
        final_dev = final_dev.reshape(todo.size, starts)
        best_dev[todo] = np.minimum(best_dev[todo], final_dev.min(axis=1))
        # projection alone crawls near the feasibility boundary; polish
        # whatever landed in the basin but short of acceptance
        basin = final_dev <= 1e-2
        for t in np.flatnonzero(basin.any(axis=1)):
            for s in np.flatnonzero(basin[t]):
                u = g[t, s]
                if final_dev[t, s] > _SEARCH_ACCEPT:
                    u, dev = _phase_polish(u)
                    if dev > _SEARCH_ACCEPT:
                        continue
                ok[todo[t]] = True
                out[todo[t]] = u
                break

    if single:
        return out[0], bool(ok[0])
    return out.reshape(targets.shape).astype(complex), ok.reshape(targets.shape[:-2])


def realize_unitary(mu, rng=None, max_iter=800, restarts=4):
    """A unitary whose squared moduli equal ``mu``, when one exists.

    n = 2 uses the closed rotation form, n = 3 the chain-closure phase
    construction, n >= 4 the iterative phase search (raising SearchFailed
    when it does not converge).  Raises NotUnistochastic for n <= 3 targets
    that fail the closure condition.  For n >= 4 a target whose links of
    some row pair or column pair fail the polygon closure by more than
    TRIANGLE_TOL raises SearchFailed at once, naming that pair, without a
    search.
    """
    mu = check_bistochastic(mu)
    n = mu.shape[0]
    if n == 2:
        u = _realize_two(mu)
    elif n == 3:
        u = _realize_three(mu, chain_links(mu))
    else:
        slack, i, j = _pair_slacks(mu)
        side, p = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[side, p] < -TRIANGLE_TOL:
            raise SearchFailed(
                f"the links of {('rows', 'columns')[side]} {i[p]} and {j[p]} "
                f"cannot close into a polygon (slack {slack[side, p]:.3e}); "
                "no unitary has these moduli"
            )
        u, converged = unitary_phase_search(
            mu, rng=rng, max_iter=max_iter, restarts=restarts
        )
        if not converged:
            raise SearchFailed(
                f"no unitary with the prescribed moduli found in "
                f"{restarts} x {max_iter} iterations"
            )
    if not _verify_realization(u, mu):
        raise SearchFailed("realization verification failed")
    return u


def is_unistochastic(mu, tol=TRIANGLE_TOL, rng=None):
    """Decide whether ``mu`` is |U|^2 for some unitary U.

    Decisive for n <= 3 (every 2 x 2 doubly stochastic matrix qualifies; for
    n = 3 the chain-closure condition settles it).  For n >= 4 the verdict is
    "no" when the links of some row pair or column pair fail the polygon
    closure by more than ``tol`` (a necessary condition for every n), "yes"
    when the numerical search finds a realization, and "unknown" when the
    polygons close but the search fails.
    """
    mu = check_bistochastic(mu)
    n = mu.shape[0]
    if n == 2:
        return UnistochasticCertificate("yes", None, _realize_two(mu))
    if n == 3:
        links = tuple(float(x) for x in chain_links(mu))
        if not triangle_condition(links, tol):
            return UnistochasticCertificate("no", links, None)
        return UnistochasticCertificate("yes", links, _realize_three(mu, links, tol))
    if _polygon_slack(mu) < -tol:
        return UnistochasticCertificate("no", None, None)
    u, converged = unitary_phase_search(mu, rng=rng)
    if converged:
        return UnistochasticCertificate("yes", None, u)
    return UnistochasticCertificate("unknown", None, None)


def degeneracy(mu):
    """det(mu): zero on the surface where mixing destroys invertibility."""
    return float(np.linalg.det(np.asarray(mu, dtype=float)))


def canonical_coefficients(mu, corners=None):
    """Minimum-norm barycentric-style coefficients reproducing ``mu``.

    Corner representations are not unique for n >= 3; the least-squares
    minimum-norm solution gives a canonical one for reporting.
    """
    mu = np.asarray(mu, dtype=float)
    if corners is None:
        corners = permutation_corners(mu.shape[0])
    stack = np.stack([c.ravel() for c in corners], axis=1)
    coeffs, *_ = np.linalg.lstsq(stack, mu.ravel(), rcond=None)
    return coeffs


def simplex_grid(num_corners, resolution):
    """All barycentric grid points with coordinates k/resolution, k integer.

    Returns an array of shape (count, num_corners); count grows as
    C(resolution + m - 1, m - 1) for m corners.
    """
    if num_corners < 1:
        raise ValueError("need at least one corner")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    # Stars and bars: num_corners - 1 cut positions among the edges slots
    # split the resolution units; each gap between cuts is one coordinate.
    edges = resolution + num_corners - 1
    shape = (math.comb(edges, num_corners - 1), num_corners - 1)
    cuts = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(edges), shape[1])),
        dtype=np.intp,
        count=shape[0] * shape[1],
    ).reshape(shape)
    bounds = np.pad(cuts, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, edges)))
    return (np.diff(bounds, axis=1) - 1) / resolution


@dataclass(frozen=True, eq=False)
class SurfaceScan:
    """A classified batch of polytope points from one sampling pass.

    Arrays share the leading axis: ``coefficients`` (points, corners) in the
    requested corner order, ``matrices`` (points, n, n), ``dets`` (points,),
    and the boolean ``degenerate`` / ``unistochastic`` flags.  Grid order is
    deterministic.
    """

    corner_indices: tuple
    resolution: int
    coefficients: np.ndarray
    matrices: np.ndarray
    dets: np.ndarray
    degenerate: np.ndarray
    unistochastic: np.ndarray

    def __len__(self):
        return self.coefficients.shape[0]

    def subset(self, mask):
        return SurfaceScan(
            self.corner_indices,
            self.resolution,
            self.coefficients[mask],
            self.matrices[mask],
            self.dets[mask],
            self.degenerate[mask],
            self.unistochastic[mask],
        )


def _corner_stack(corner_indices, n=3):
    corners = permutation_corners(n)
    idx = tuple(int(i) for i in corner_indices)
    if len(set(idx)) != len(idx):
        raise ValueError("corner indices must be distinct")
    if not all(0 <= i < len(corners) for i in idx):
        raise ValueError(f"corner indices must lie in [0, {len(corners)})")
    return idx, np.stack([corners[i] for i in idx])


def sample_degenerate_surface(corner_subset, resolution):
    """Grid-sample a patch of the n = 3 polytope and flag its structure.

    The patch is the convex hull of the named corners (at most 4, i.e. a
    tetrahedron).  A point is flagged degenerate when |det| falls below half
    a grid spacing, and unistochastic by the chain-closure condition.
    """
    idx, stack = _corner_stack(corner_subset)
    if len(idx) > 4:
        raise ValueError("patches above a tetrahedron (4 corners) are not supported")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    coeffs = simplex_grid(len(idx), resolution)
    mats = np.einsum("pm,mij->pij", coeffs, stack)
    dets = np.linalg.det(mats)
    links = chain_links(mats)
    uni = _closure_slack(links) >= -TRIANGLE_TOL
    degenerate = np.abs(dets) < 0.5 / resolution
    return SurfaceScan(idx, resolution, coeffs, mats, dets, degenerate, uni)


def unistochastic_degenerate_intersection(corner_subset, resolution):
    """The sampled points that are simultaneously degenerate and unistochastic."""
    scan = sample_degenerate_surface(corner_subset, resolution)
    return scan.subset(scan.degenerate & scan.unistochastic)


def hypocycloid_boundary(resolution, corners=(0, 3, 4)):
    """Points of a three-corner plane where the closure condition is tight.

    On the default plane (identity plus the two cyclic permutations, whose
    points are the circulant doubly stochastic matrices) the returned locus
    is the three-cusped hypocycloid bounding the unistochastic region; its
    cusps sit at the corner matrices themselves.  Equality is accepted within
    two grid spacings.  Returns the barycentric coefficients, in grid order.
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    idx, stack = _corner_stack(corners)
    if len(idx) != 3:
        raise ValueError("the boundary locus is sampled on a three-corner plane")
    coeffs = simplex_grid(3, resolution)
    mats = np.einsum("pm,mij->pij", coeffs, stack)
    defect = equality_defect(chain_links(mats))
    return coeffs[defect <= 2.0 / resolution]
