"""State vectors, orthonormal basis pairs, and concrete spin fixtures.

Vectors are plain 1-D complex ndarrays.  A basis is an (n, n) array whose
columns are the basis vectors, in presentation order.  Pre-selection vectors
are called psi and post-selection vectors phi throughout the package; the
overlap of interest is always <phi_l|psi_j>.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

# Validation tolerances: well above double-precision noise, well below any
# quantity of interest (all fixtures here are order one).
NORM_TOL = 1e-10
# Overlaps smaller than this make a weak value numerically meaningless.
OVERLAP_TOL = 1e-8
# |det mu| at or below this marks a weight matrix as singular: the
# measurement (or the polytope point) destroys the input's history.
DET_TOL = 1e-10

__all__ = [
    "NORM_TOL",
    "OVERLAP_TOL",
    "BasisPair",
    "check_distribution",
    "check_hermitian",
    "exclusive_pair",
    "gauge_transform",
    "gell_mann_matrices",
    "inner_product",
    "is_hermitian",
    "pauli_matrices",
    "rotated_basis",
    "rotated_operator",
    "rotated_pair",
    "spin_one_matrices",
    "standard_basis",
]


def inner_product(v, w):
    """<v|w> with the conjugate taken on the first argument."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError(f"dimension mismatch: {v.shape} vs {w.shape}")
    return complex(np.vdot(v, w))


def is_hermitian(mat, tol=NORM_TOL):
    mat = np.asarray(mat, dtype=complex)
    return mat.ndim == 2 and mat.shape[0] == mat.shape[1] and bool(
        np.max(np.abs(mat - mat.conj().T)) <= tol
    )


def check_hermitian(mat, tol=NORM_TOL):
    """Return ``mat`` as a complex ndarray, raising if it is not Hermitian."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator entries must be finite")
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > tol:
        raise ValueError(f"operator is not Hermitian (max deviation {dev:.3e})")
    return mat


def check_distribution(p, tol=NORM_TOL):
    """Return ``p`` as a float ndarray, raising unless it is a probability vector."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("probabilities must form a 1-D vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if p.size == 0 or np.min(p) < -tol:
        raise ValueError("probabilities must be nonnegative")
    total = float(np.sum(p))
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    return p


def _unitarity_deviation(u):
    """max |U^dagger U - 1| over the last two axes; batched over any leading ones."""
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return np.max(np.abs(gram - np.eye(u.shape[-1])), axis=(-2, -1))


def _check_orthonormal(mat, name):
    dev = float(_unitarity_deviation(mat))
    if dev > NORM_TOL:
        raise ValueError(f"{name} basis is not orthonormal (max deviation {dev:.3e})")


@dataclass(frozen=True, eq=False)
class BasisPair:
    """A pre-selection basis and a post-selection basis of the same dimension.

    ``pre[:, j]`` is the j-th pre-selection vector psi_j, ``post[:, l]`` the
    l-th post-selection vector phi_l.  Both matrices must be unitary (columns
    orthonormal).  The pair is *admissible* when every mutual overlap
    <phi_l|psi_j> is nonzero; only admissible pairs support a full table of
    weak values.
    """

    pre: np.ndarray
    post: np.ndarray

    def __post_init__(self):
        pre = np.array(self.pre, dtype=complex)
        post = np.array(self.post, dtype=complex)
        if pre.ndim != 2 or pre.shape[0] != pre.shape[1]:
            raise ValueError(f"pre basis must be square, got shape {pre.shape}")
        if post.shape != pre.shape:
            raise ValueError(
                f"basis shapes differ: pre {pre.shape}, post {post.shape}"
            )
        _check_orthonormal(pre, "pre")
        _check_orthonormal(post, "post")
        pre.setflags(write=False)
        post.setflags(write=False)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)

    @property
    def dim(self) -> int:
        return self.pre.shape[0]

    def overlaps(self) -> np.ndarray:
        """The overlap matrix G with G[l, j] = <phi_l|psi_j>."""
        return self.post.conj().T @ self.pre

    @property
    def min_overlap(self) -> float:
        return float(np.min(np.abs(self.overlaps())))

    @property
    def admissible(self) -> bool:
        return self.min_overlap > OVERLAP_TOL


def gauge_transform(basis, phases):
    """Multiply the j-th basis vector by exp(i*phases[j]).

    Orthonormality is preserved exactly.  Every quantity derived from a basis
    pair in this package (weak values, weights, expansion) is invariant under
    this transformation of either basis.
    """
    basis = np.asarray(basis, dtype=complex)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (basis.shape[1],):
        raise ValueError(f"expected {basis.shape[1]} phases, got shape {phases.shape}")
    return basis * np.exp(1j * phases)[np.newaxis, :]


def standard_basis(dim):
    return np.eye(dim, dtype=complex)


def pauli_matrices():
    """The three Pauli matrices (sigma_x, sigma_y, sigma_z)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def spin_one_matrices():
    """The spin-1 angular momentum matrices (L_x, L_y, L_z)."""
    lx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / sqrt(2)
    ly = 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex) / sqrt(2)
    lz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return lx, ly, lz


def gell_mann_matrices():
    """The eight Gell-Mann matrices, normalized so tr(g_a g_b) = 2 delta_ab."""
    g = np.zeros((8, 3, 3), dtype=complex)
    g[0, 0, 1] = g[0, 1, 0] = 1
    g[1, 0, 1] = -1j
    g[1, 1, 0] = 1j
    g[2, 0, 0] = 1
    g[2, 1, 1] = -1
    g[3, 0, 2] = g[3, 2, 0] = 1
    g[4, 0, 2] = -1j
    g[4, 2, 0] = 1j
    g[5, 1, 2] = g[5, 2, 1] = 1
    g[6, 1, 2] = -1j
    g[6, 2, 1] = 1j
    g[7] = np.diag([1, 1, -2]) / sqrt(3)
    return [g[a] for a in range(8)]


def rotated_basis(dim, theta):
    """Eigenbasis of the rotated spin projection, as columns, for dim 2 or 3.

    For dim 2 the columns are (cos t/2, sin t/2) and (-sin t/2, cos t/2); for
    dim 3 they are the +1, 0, -1 eigenvectors of the rotated spin-1 operator.
    At theta = pi/2, dim 2, the second column is (-1, 1)/sqrt(2); the fixed
    pair from :func:`exclusive_pair` uses (1, -1)/sqrt(2) instead, a pure
    gauge phase with no observable effect.
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    if dim == 2:
        c, s = cos(theta / 2), sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if dim == 3:
        c, s = cos(theta / 2), sin(theta / 2)
        st, ct = sin(theta), cos(theta)
        col0 = [c * c, st / sqrt(2), s * s]
        col1 = [-st / sqrt(2), ct, st / sqrt(2)]
        col2 = [s * s, -st / sqrt(2), c * c]
        return np.array([col0, col1, col2], dtype=complex).T
    raise ValueError(f"rotated basis exists for dim 2 or 3, got {dim!r}")


def rotated_operator(dim, theta):
    """Spin projection along the axis tilted by theta in the x-z plane.

    Its eigenvectors are the columns of :func:`rotated_basis`, with
    eigenvalues (+1, -1) for dim 2 and (+1, 0, -1) for dim 3.
    """
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if dim == 2:
        sx, _, sz = pauli_matrices()
        return sz * cos(theta) + sx * sin(theta)
    if dim == 3:
        lx, _, lz = spin_one_matrices()
        return lz * cos(theta) + lx * sin(theta)
    raise ValueError(f"rotated operator exists for dim 2 or 3, got {dim!r}")


def exclusive_pair():
    """The mutually unbiased qubit pair: standard pre basis, diagonal post basis.

    post columns are (1, 1)/sqrt(2) and (1, -1)/sqrt(2); every squared overlap
    equals 1/2.
    """
    post = np.array([[1, 1], [1, -1]], dtype=complex).T / sqrt(2)
    return BasisPair(standard_basis(2), post)


def rotated_pair(dim, theta):
    """Standard pre basis against the rotated eigenbasis as post basis."""
    return BasisPair(standard_basis(dim), rotated_basis(dim, theta))
