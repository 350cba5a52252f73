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

    verdict is "yes", "no", or (n >= 4 with a failed search) "unknown".
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
    infeasible targets hit a positive floor and stall out quickly.
    """
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


def unitary_phase_search(targets, rng=None, max_iter=800, restarts=4):
    """Find unitaries with prescribed squared moduli by alternating projection.

    ``targets`` may be a single (n, n) matrix or a batch (..., n, n).  Each
    iterate is projected to the nearest unitary (polar factor) and then back
    to the fixed-modulus set; an iterate that stalls inside the basin is
    finished by a Gauss-Newton polish of its phases.  Success means the
    fixed-modulus iterate is unitary to 1e-9.  Unresolved targets are
    retried: first from zero phases, then from ``restarts`` random phase
    fields, finally (only for targets that have already come within 1e-2 of
    unitarity) from the +-1 sign assignments of up to four free entries.
    The sign starts rescue targets near the boundary of feasibility, where
    the solution phases sit close to 0 or pi and random starts converge too
    slowly; gating them on basin entry keeps clearly infeasible targets from
    burning through the whole ladder.  Deterministic for a given ``rng`` seed.

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

    def seeds():
        yield "zero", None
        for _ in range(restarts):
            yield "random", None
        cells = [(i, j) for i in range(1, n) for j in range(1, n)][:4]
        for bits in itertools.product((0.0, np.pi), repeat=len(cells)):
            if any(bits):  # the all-zero pattern is the first attempt
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
        g, final_dev = _project_iterate(g, r, max_iter)
        best_dev[todo] = np.minimum(best_dev[todo], final_dev)
        good = final_dev <= _SEARCH_ACCEPT
        # projection alone crawls near the feasibility boundary; polish
        # whatever landed in the basin but short of acceptance
        for b in np.flatnonzero(~good & (final_dev <= 1e-2)):
            polished, dev = _phase_polish(g[b])
            if dev <= _SEARCH_ACCEPT:
                g[b] = polished
                good[b] = True
        ok[todo[good]] = True
        out[todo[good]] = g[good]

    if single:
        return out[0], bool(ok[0])
    return out.reshape(targets.shape).astype(complex), ok.reshape(targets.shape[:-2])


def realize_unitary(mu, rng=None, max_iter=800, restarts=4):
    """A unitary whose squared moduli equal ``mu``, when one exists.

    n = 2 uses the closed rotation form, n = 3 the chain-closure phase
    construction, n >= 4 the iterative phase search (raising SearchFailed
    when it does not converge).  Raises NotUnistochastic for n <= 3 targets
    that fail the closure condition.
    """
    mu = check_bistochastic(mu)
    n = mu.shape[0]
    if n == 2:
        u = _realize_two(mu)
    elif n == 3:
        u = _realize_three(mu, chain_links(mu))
    else:
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
    "yes" when the numerical search finds a realization and "unknown"
    otherwise.
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
