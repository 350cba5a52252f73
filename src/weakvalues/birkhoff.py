"""Geometry of doubly stochastic matrices seen as points of a polytope.

The polytope of n x n doubly stochastic matrices is the convex hull of the
n! permutation matrices.  This module decides which points are
unistochastic: by closed forms for n <= 3, and for n >= 4 by a polygon screen
on every row pair and column pair followed by a numerical phase search.  It
realizes unitary matrices behind unistochastic points, flags degenerate
ones, and samples the surfaces that organize the n = 3 polytope's interior.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hilbert import DET_TOL, _unitarity_deviation, check_distribution

# Classification thresholds.  DET_TOL (shared with reconstruct) flags a
# matrix as degenerate (information-destroying); TRIANGLE_TOL absorbs float
# noise in the closure condition; BISTOCHASTIC_TOL validates row/column sums
# of inputs.
BISTOCHASTIC_TOL = 1e-12
TRIANGLE_TOL = 1e-12

# Phase search: :func:`_project_iterate` runs one start per target, and
# :func:`unitary_phase_search` the ladder of starts.  Deviations are from
# unitarity, max |U^dagger U - 1|.  A start is handed to a Gauss-Newton
# polish of at most _POLISH_STEPS steps when its deviation first falls to
# _HANDOFF.  Projection and polish stop at convergence, _SEARCH_TOL.  The
# stall rule ends projection once _SEARCH_PLATEAU steps in a row have each
# cut the lowest deviation by less than the fraction _SEARCH_PROGRESS.  A
# start that ends within _BASIN is polished once more, and a start whose
# lowest deviation reached it earns its target up to _BASIN_RESTARTS more
# random starts.  Realizations are accepted and verified at _SEARCH_ACCEPT.
_SEARCH_TOL = 1e-12
_SEARCH_ACCEPT = 1e-9
_SEARCH_PLATEAU = 60
_SEARCH_PROGRESS = 1e-4
_HANDOFF = 3e-2
_BASIN = 1e-2
_BASIN_RESTARTS = 4
_POLISH_STEPS = 40
# The default search budget: projection steps per start, random restarts.
_SEARCH_MAX_ITER = 800
_SEARCH_RESTARTS = 4

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
    """The n! permutation matrices, in lexicographic order, as an (n!, n, n) array.

    For n = 3 this yields the conventional corner numbering P0..P5 with the
    identity first.  Row i of corner P carries its 1 in column perm[i].
    """
    if not 2 <= n <= 8:
        raise ValueError(f"corner enumeration supported for 2 <= n <= 8, got {n!r}")
    return np.eye(n)[list(itertools.permutations(range(n)))]


def is_bistochastic(mu):
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1] or mu.size == 0:
        return False
    if np.min(mu) < -BISTOCHASTIC_TOL:
        return False
    ones = np.ones(mu.shape[0])
    return bool(
        np.max(np.abs(mu.sum(axis=0) - ones)) <= BISTOCHASTIC_TOL
        and np.max(np.abs(mu.sum(axis=1) - ones)) <= BISTOCHASTIC_TOL
    )


def check_bistochastic(mu):
    """Return ``mu`` as a float ndarray, raising unless it is doubly stochastic."""
    mu = np.asarray(mu, dtype=float)
    if not is_bistochastic(mu):
        raise ValueError("matrix is not doubly stochastic within tolerance")
    return mu


def combine(coeffs, corners):
    """Convex combination sum_i coeffs[i] * corners[i].

    ``coeffs`` must be barycentric: a probability vector to BISTOCHASTIC_TOL.
    """
    coeffs = check_distribution(coeffs, tol=BISTOCHASTIC_TOL)
    corners = np.asarray(corners, dtype=float)
    if len(coeffs) != len(corners):
        raise ValueError(
            f"need one coefficient per corner: {coeffs.shape} vs {len(corners)}"
        )
    if not np.all(np.isfinite(corners)):
        raise ValueError("corners must be finite")
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


def triangle_condition(links):
    """True when three lengths close into a (possibly flat) triangle."""
    return bool(_closure_slack(links) >= -TRIANGLE_TOL)


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
    r = np.sqrt(np.clip(mu, 0.0, None))
    return np.array(
        [[r[0, 0], r[0, 1]], [-r[1, 0], r[1, 1]]], dtype=complex
    )


def _realize_three(mu, links):
    """Phase construction for n = 3: close the chain, cross for column three.

    The caller has checked that the links close.  The first column is taken
    real nonnegative; the second column's phases (beta_1, beta_2 on rows 1
    and 2) solve L0 + L1 exp(i beta_1) + L2 exp(i beta_2) = 0 via the law of
    cosines.  The third column is the conjugate cross product of the first
    two, which for a doubly stochastic target automatically carries the right
    moduli.
    """
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
    u = np.sqrt(np.clip(mu, 0.0, None)).astype(complex)
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


def _verify_realization(u, mu):
    gram_dev = float(_unitarity_deviation(u))
    mod_dev = float(np.max(np.abs(np.abs(u) ** 2 - mu)))
    return gram_dev <= _SEARCH_ACCEPT and mod_dev <= _SEARCH_ACCEPT


def _project_iterate(g, r, max_iter):
    """Run one start per batch entry, from its first projection step to its result.

    Each step projects the iterate to the nearest unitary (polar factor) and
    back to the moduli ``r``.  The first time an entry comes within _HANDOFF
    of unitarity, it is handed to :func:`_phase_polish`, in one call with
    every entry handed over at that step: a polish that reaches
    _SEARCH_ACCEPT wins the entry, and otherwise projection goes on from the
    unpolished iterate.  An entry also leaves at unitarity to _SEARCH_TOL, by
    the stall rule (_SEARCH_PLATEAU, _SEARCH_PROGRESS), or after ``max_iter``
    steps.  Live entries are carried as compact arrays.  Each entry's exit
    deviation is read once, from the iterates returned by the loop; with
    ``max_iter`` 0 that is the deviation of the start itself.  The entries
    that exit within _BASIN but short of acceptance are polished once more,
    in one call: Gauss-Newton from a floor near 1e-3 can land where it failed
    from the hand-off.

    Returns ``(g, won, lowest)``: the iterates, written into ``g``, which
    entries are unitary to _SEARCH_ACCEPT, and the lowest deviation each
    entry reached, its exit deviation included.
    """
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
        improved = dev < best * (1.0 - _SEARCH_PROGRESS)
        fresh = (dev <= _HANDOFF) & (best > _HANDOFF)
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
    floor = (final > _SEARCH_ACCEPT) & (final <= _BASIN)
    if floor.any():
        g[floor] = _phase_polish(g[floor])[0]
        final[floor] = _unitarity_deviation(g[floor])
    return g, final <= _SEARCH_ACCEPT, np.minimum(lowest, final)


def _phase_polish(u):
    """Gauss-Newton on the phases of a (B, n, n) stack, holding the moduli fixed.

    Alternating projection crawls when the target sits near the boundary of
    feasibility (the constraint manifolds meet almost tangentially there);
    Newton steps on the off-diagonal Gram conditions f = 0 finish the job at
    a quadratic rate.  The step is the minimum-norm least-squares one, with
    singular values below the LAPACK default cutoff dropped: phases on the
    rows of U leave f unchanged and phases on its columns leave f = 0
    unchanged, so J loses rank near a solution, and zero moduli zero whole
    columns of J.  The Jacobians and residuals of the stack are built at
    once; numpy has no stacked least-squares solver, so the solve is one
    LAPACK call per entry.  Each entry keeps its best iterate and leaves once
    unitary to _SEARCH_TOL, or after _POLISH_STEPS steps.  Returns the
    best iterates and their deviations from unitarity.
    """
    n = u.shape[-1]
    r = np.abs(u)
    best_phi, best_dev = np.angle(u), _unitarity_deviation(u)
    i, j = np.triu_indices(n, 1)
    eye = np.eye(n)
    d = eye[j] - eye[i]  # pair p = (i, j) reads the phases phi[k, j] - phi[k, i]
    live = np.flatnonzero(best_dev > _SEARCH_TOL)
    rl, pl = r[live], best_phi[live]
    for _ in range(_POLISH_STEPS):
        if live.size == 0:
            break
        # t[b, p, k] = r[k, i] r[k, j] exp(i (phi[k, j] - phi[k, i])) for
        # pair p = (i, j), so that f[b, p] = (U^dagger U)[i, j]
        rt, pt = np.swapaxes(rl, 1, 2), np.swapaxes(pl, 1, 2)
        t = rt[:, i] * rt[:, j] * np.exp(1j * (pt[:, j] - pt[:, i]))
        f = t.sum(axis=2)
        # df[b, p] / dphi[k, c] = 1j t[b, p, k] d[p, c]
        jac = (1j * t[..., None] * d[:, None, :]).reshape(live.size, i.size, n * n)
        system = np.concatenate([jac.real, jac.imag], axis=1)
        rhs = -np.concatenate([f.real, f.imag], axis=1)
        step = np.stack(
            [np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(system, rhs)]
        )
        pl = pl + step.reshape(pl.shape)
        dev = _unitarity_deviation(rl * np.exp(1j * pl))
        better = dev < best_dev[live]
        best_dev[live[better]] = dev[better]
        best_phi[live[better]] = pl[better]
        keep = dev > _SEARCH_TOL
        live, rl, pl = live[keep], rl[keep], pl[keep]
    return r * np.exp(1j * best_phi), best_dev


def unitary_phase_search(
    targets, rng=None, max_iter=_SEARCH_MAX_ITER, restarts=_SEARCH_RESTARTS
):
    """Find unitaries with prescribed squared moduli by alternating projection.

    ``targets`` may be a single (n, n) matrix or a batch (..., n, n) of
    finite entries.  Success means that an iterate carrying the target
    moduli is unitary to _SEARCH_ACCEPT (1e-9), read from the iterate a
    start exits with.  With ``max_iter`` 0 no projection step runs: a start
    that is already unitary wins, and one within _BASIN gets only the
    Gauss-Newton polish.

    Unresolved targets go through a ladder of stages, one start per target
    in each: zero phases, then ``restarts`` random phase fields, then up to
    _BASIN_RESTARTS (4) more random phase fields given only to the targets
    that some earlier start brought within _BASIN (1e-2) of unitarity, read
    from the lowest deviation the start reached.  Each stage is one call of
    :func:`_project_iterate`, which runs every start of the stage, up to
    ``max_iter`` projection steps each, with its Gauss-Newton polishes.  The
    basin restarts rescue targets on which the first starts stall at a
    local floor of about 1e-3 to 1e-2; gating them on basin entry keeps
    clearly infeasible targets from burning through the whole ladder.
    Random phases are drawn stage by stage, only for the targets still
    unresolved; the result is deterministic for a given ``rng`` seed.

    Returns ``(unitaries, ok)`` where ``ok`` marks converged entries.  The
    returned matrices carry the target moduli exactly.  Raises ValueError,
    before any search, for targets that are not finite square matrices and
    for a ``max_iter`` or ``restarts`` that is not a nonnegative integer.
    """
    targets = np.asarray(targets, dtype=float)
    shape = targets.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] == 0:
        raise ValueError(
            f"targets must be square matrices of shape (..., n, n) with n >= 1, "
            f"got shape {shape}"
        )
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    for name, value in (("max_iter", max_iter), ("restarts", restarts)):
        if not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    single = targets.ndim == 2
    mus = targets.reshape((-1,) + targets.shape[-2:])
    batch, n, _ = mus.shape
    roots = np.sqrt(np.clip(mus, 0.0, None))
    out = roots.astype(complex)
    ok = np.zeros(batch, dtype=bool)
    gen = np.random.default_rng(0 if rng is None else rng)

    basin = np.zeros(batch, dtype=bool)
    for stage in range(1 + restarts + _BASIN_RESTARTS):
        todo = np.flatnonzero(~ok & (basin | (stage <= restarts)))
        if todo.size == 0:
            break  # every later stage runs a subset of these targets
        r = roots[todo]
        turns = gen.random((todo.size, n, n)) if stage else 0.0
        g, won, lowest = _project_iterate(r * np.exp(2j * np.pi * turns), r, max_iter)
        basin[todo] |= lowest <= _BASIN
        ok[todo[won]] = True
        out[todo[won]] = g[won]

    if single:
        return out[0], bool(ok[0])
    return out.reshape(targets.shape).astype(complex), ok.reshape(targets.shape[:-2])


def _unistochastic_verdict(mu):
    """The one decision behind :func:`is_unistochastic` and :func:`realize_unitary`.

    Returns ``(certificate, error)``.  ``error`` is None for a "yes" and
    otherwise the exception :func:`realize_unitary` raises: NotUnistochastic
    for an n = 3 "no", SearchFailed naming the open pair for an n >= 4 "no",
    SearchFailed naming the budget for "unknown".  Every "yes" carries a
    unitary verified to _SEARCH_ACCEPT; one that misses it turns the verdict
    into "unknown".
    """
    mu = check_bistochastic(mu)
    n = mu.shape[0]
    links = None
    if n == 1:
        u = np.ones((1, 1), dtype=complex)
    elif n == 2:
        u = _realize_two(mu)
    elif n == 3:
        links = tuple(float(x) for x in chain_links(mu))
        if not triangle_condition(links):
            return UnistochasticCertificate("no", links), NotUnistochastic(links)
        u = _realize_three(mu, links)
    else:
        slack, i, j = _pair_slacks(mu)
        side, p = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[side, p] < -TRIANGLE_TOL:
            return UnistochasticCertificate("no"), SearchFailed(
                f"the links of {('rows', 'columns')[side]} {i[p]} and {j[p]} "
                f"cannot close into a polygon (slack {slack[side, p]:.3e}); "
                "no unitary has these moduli"
            )
        u, converged = unitary_phase_search(mu)
        if not converged:
            return UnistochasticCertificate("unknown"), SearchFailed(
                f"no unitary with the prescribed moduli found from "
                f"{1 + _SEARCH_RESTARTS} starts and up to {_BASIN_RESTARTS} basin "
                f"restarts, each of up to {_SEARCH_MAX_ITER} projection steps"
            )
    if not _verify_realization(u, mu):
        return UnistochasticCertificate("unknown", links), SearchFailed(
            "realization verification failed"
        )
    return UnistochasticCertificate("yes", links, u), None


def realize_unitary(mu):
    """A unitary whose squared moduli equal ``mu``, when one exists.

    n = 1 and 2 use closed forms, n = 3 the chain-closure phase
    construction, n >= 4 :func:`unitary_phase_search` with its default seed
    and budget (raising SearchFailed when it does not converge).  Raises
    NotUnistochastic for n = 3 targets that fail the closure condition.  For
    n >= 4 a target whose links of some row pair or column pair fail the
    polygon closure by more than TRIANGLE_TOL raises SearchFailed at once,
    naming that pair, without a search.
    """
    cert, error = _unistochastic_verdict(mu)
    if error is not None:
        raise error
    return cert.realizing_unitary


def is_unistochastic(mu):
    """Decide whether ``mu`` is |U|^2 for some unitary U.

    Decisive for n <= 3 (every 1 x 1 and 2 x 2 doubly stochastic matrix
    qualifies; for n = 3 the chain-closure condition settles it).  For n >= 4
    the verdict is "no" when the links of some row pair or column pair fail
    the polygon closure by more than TRIANGLE_TOL (a necessary condition for
    every n), "yes" when the numerical search finds a realization, and
    "unknown" when the polygons close but the search fails.  The search runs
    with its default seed and budget, so the verdict is deterministic.
    """
    return _unistochastic_verdict(mu)[0]


def degeneracy(mu):
    """det(mu): zero on the surface where mixing destroys invertibility.

    Raises ValueError for a non-finite determinant, overflow included.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            det = float(np.linalg.det(np.asarray(mu, dtype=float)))
    except FloatingPointError as err:
        raise ValueError(f"matrix: {err}") from None
    if not math.isfinite(det):
        raise ValueError(f"matrix: determinant {det} is not finite")
    return det


def canonical_coefficients(mu):
    """Minimum-norm barycentric-style coefficients reproducing ``mu``.

    Corner representations are not unique for n >= 3; the minimum-norm one,
    in :func:`permutation_corners` order, is canonical for reporting.  For
    doubly stochastic ``mu`` it is c_P = <P, mu> / (n (n-2)!) - (n-2) / n!,
    which reproduces ``mu`` from the row space of the corner coordinates.
    Raises ValueError unless ``mu`` is doubly stochastic.
    """
    mu = check_bistochastic(mu)
    n = mu.shape[0]
    overlaps = np.einsum("mij,ij->m", permutation_corners(n), mu)
    return overlaps / (n * math.factorial(n - 2)) - (n - 2) / math.factorial(n)


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


def _corner_stack(corner_indices):
    corners = permutation_corners(3)
    idx = tuple(corner_indices)
    if not all(isinstance(i, numbers.Integral) for i in idx):
        raise ValueError(f"corner indices must be integers, got {idx!r}")
    if len(set(idx)) != len(idx):
        raise ValueError("corner indices must be distinct")
    if not all(0 <= i < len(corners) for i in idx):
        raise ValueError(f"corner indices must lie in [0, {len(corners)})")
    return tuple(map(int, idx)), corners[list(idx)]


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
