"""Weak values, transition operators, and the operator expansion they induce.

For an admissible basis pair the weak value of an operator A at post index l
and pre index j is

    wv[l, j] = <phi_l|A|psi_j> / <phi_l|psi_j>,

and the rank-one transition operator attached to the same index pair is

    W[l, j] = |phi_l><psi_j| / <psi_j|phi_l>.

Weighting each W by its weak value and squared overlap reassembles A exactly:
A = sum_{l,j} wv[l, j] * W[l, j] * mu[l, j] with mu[l, j] = |<phi_l|psi_j>|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import OVERLAP_TOL, BasisPair, check_distribution, check_hermitian

# How far a weak value may exceed the spectral radius before it counts as
# amplified: absorbs float noise in the eigenvalues.
_AMPLIFIED_MARGIN = 1e-12

__all__ = [
    "OverlapTooSmall",
    "WeakValueTable",
    "amplified_entries",
    "expand",
    "fractional_decomposition",
    "mixed_w_operator",
    "mixed_weak_value",
    "overlap_matrix",
    "w_operator",
    "w_operator_set",
    "weak_value",
    "weak_value_by_trace",
    "weak_value_table",
]


class OverlapTooSmall(ValueError):
    """A post/pre overlap is too small to divide by.

    Attributes ``l``, ``j`` and ``magnitude`` identify the offending entry:
    |<phi_l|psi_j>| = magnitude <= OVERLAP_TOL.  Weak values diverge as the
    overlap vanishes, so no finite answer is meaningful past this point.
    """

    def __init__(self, l, j, magnitude):
        super().__init__(
            f"overlap |<phi_{l}|psi_{j}>| = {magnitude:.3e} is below "
            f"{OVERLAP_TOL:.0e}; the weak value there is unbounded"
        )
        self.l = int(l)
        self.j = int(j)
        self.magnitude = float(magnitude)


@dataclass(frozen=True, eq=False)
class WeakValueTable:
    """The full n x n grid of weak values for one operator and basis pair.

    ``values[l, j]`` has the post index l on rows and the pre index j on
    columns.  The operator and pair are kept so the table can be expanded
    back into the operator it came from.
    """

    values: np.ndarray
    operator: np.ndarray
    pair: BasisPair

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _overlap_or_raise(pair, l, j):
    g = complex(np.vdot(pair.post[:, l], pair.pre[:, j]))
    if abs(g) <= OVERLAP_TOL:
        raise OverlapTooSmall(l, j, abs(g))
    return g


def _check_indices(dim, **indices):
    """Refuse an index outside 0 .. dim - 1; numpy would wrap a negative one."""
    for name, value in indices.items():
        if not 0 <= value < dim:
            raise ValueError(
                f"index {name} = {value} is outside 0 .. {dim - 1} "
                f"for a dimension-{dim} pair"
            )


def _check_operator(a, dim):
    """``a`` as a complex ndarray, refusing all but a finite dim x dim matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (dim, dim):
        raise ValueError(f"operator of shape {a.shape} does not fit a dimension-{dim} pair")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def _check_mixture(pair, p, q):
    """Both weight vectors as probability vectors of the pair's dimension."""
    p, q = check_distribution(p), check_distribution(q)
    if not p.size == q.size == pair.dim:
        raise ValueError(
            f"weights p (length {p.size}) and q (length {q.size}) must both "
            f"have the pair's dimension {pair.dim}"
        )
    return p, q


def _admissible_overlaps(pair):
    """The overlap matrix G, raising OverlapTooSmall at the first vanishing entry."""
    g = pair.overlaps()
    small = np.abs(g) <= OVERLAP_TOL
    if np.any(small):
        l, j = np.argwhere(small)[0]
        raise OverlapTooSmall(l, j, abs(g[l, j]))
    return g


def weak_value(a, pair, l, j):
    """<phi_l|A|psi_j> / <phi_l|psi_j> for a single index pair."""
    _check_indices(pair.dim, l=l, j=j)
    a = _check_operator(a, pair.dim)
    g = _overlap_or_raise(pair, l, j)
    return complex(np.vdot(pair.post[:, l], a @ pair.pre[:, j]) / g)


def w_operator(pair, l, j):
    """The transition operator |phi_l><psi_j| / <psi_j|phi_l>.

    Rank one with unit trace for every admissible index pair.
    """
    _check_indices(pair.dim, l=l, j=j)
    g = _overlap_or_raise(pair, l, j)
    return np.outer(pair.post[:, l], pair.pre[:, j].conj()) / np.conj(g)


def w_operator_set(pair):
    """All transition operators as one array; ``wset[l, j]`` is W[l, j]."""
    g = _admissible_overlaps(pair)
    outer = pair.post.T[:, None, :, None] * pair.pre.conj().T[None, :, None, :]
    return outer / g.conj()[:, :, None, None]


def overlap_matrix(pair):
    """The doubly stochastic weight matrix mu[l, j] = |<phi_l|psi_j>|^2.

    Defined for any pair; zero entries are allowed here (they only forbid the
    corresponding weak values, not the weights).
    """
    g = pair.overlaps()
    return np.abs(g) ** 2


def weak_value_table(a, pair):
    """Compute every weak value of ``a`` over the pair at once.

    Raises OverlapTooSmall (with the first offending index pair) when the
    pair is not admissible.
    """
    a = _check_operator(a, pair.dim)
    g = _admissible_overlaps(pair)
    values = (pair.post.conj().T @ a @ pair.pre) / g
    return WeakValueTable(values=values, operator=a, pair=pair)


def expand(table):
    """Reassemble the operator from its weak values: sum wv * W * mu.

    Algebraically exact; numerically the residual stays at machine precision
    even for nearly orthogonal pairs because nothing is divided: the weight
    mu / conj(g) of each term is the overlap g itself.
    """
    pair = table.pair
    coeff = table.values * pair.overlaps()
    return pair.post @ coeff @ pair.pre.conj().T


def weak_value_by_trace(a, wset, l, j):
    """Recover wv[l, j] from the transition operators alone.

    Uses the dual-frame trace form tr(A W[l, j]^dagger); tracing against
    W[l, j] itself would give the complex conjugate instead.
    """
    _check_indices(wset.shape[0], l=l, j=j)
    a = _check_operator(a, wset.shape[0])
    return complex(np.trace(a @ wset[l, j].conj().T))


def mixed_w_operator(pair, p, q):
    """Transition operator of a statistical mixture: sum_lj q[l] p[j] W[l, j]."""
    p, q = _check_mixture(pair, p, q)
    g = _admissible_overlaps(pair)
    coeff = np.outer(q, p) / g.conj()
    return pair.post @ coeff @ pair.pre.conj().T


def mixed_weak_value(a, pair, p, q):
    """Weak value between mixtures: sum_lj q[l] p[j] wv[l, j].

    ``p`` weights the pre basis, ``q`` the post basis.  Equals
    tr(A . mixed_w_operator(pair, p, q)^dagger).
    """
    p, q = _check_mixture(pair, p, q)
    table = weak_value_table(a, pair)
    return complex(q @ table.values @ p)


def fractional_decomposition(a, pair, k, side="pre"):
    """Split one diagonal matrix element into weak-value fractions.

    side="pre":  terms[l] = wv[l, k] * mu[l, k], summing to <psi_k|A|psi_k>.
    side="post": terms[j] = wv[k, j] * mu[k, j], summing to <phi_k|A|phi_k>.

    Each term is computed as <phi|A|psi> * conj(<phi|psi>), so no division
    occurs and zero overlaps contribute zero instead of failing.
    """
    _check_indices(pair.dim, k=k)
    a = _check_operator(a, pair.dim)
    g = pair.overlaps()
    num = pair.post.conj().T @ a @ pair.pre
    if side == "pre":
        return num[:, k] * g[:, k].conj()
    if side == "post":
        return num[k, :] * g[k, :].conj()
    raise ValueError(f"side must be 'pre' or 'post', got {side!r}")


def amplified_entries(table):
    """Mask of weak values lying outside the operator's spectral range.

    True where |wv[l, j]| exceeds max |eigenvalue|: the signature of weak
    amplification, impossible for ordinary expectation values.  Raises
    ValueError for a non-Hermitian operator, whose spectrum does not bound
    its expectation values.
    """
    check_hermitian(table.operator)
    bound = float(np.max(np.abs(np.linalg.eigvalsh(table.operator))))
    return np.abs(table.values) > bound + _AMPLIFIED_MARGIN
