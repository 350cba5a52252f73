"""Recovering a pre-measurement mixture from post-measurement statistics.

Alice prepares a mixture of the pre basis vectors with weights rho_psi and
sends it through Bob's projective measurement in the post basis.  Bob sees
outcome frequencies tau[m] = sum_j mu[m, j] rho_psi[j].  As long as the
weight matrix mu is invertible, tau determines both rho_psi and the
off-diagonal matrix elements of the post-measurement state: the measurement
is reversible in principle.  When det(mu) = 0 the history is erased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import BISTOCHASTIC_TOL, DET_TOL, BasisPair, check_distribution
from .weakval import overlap_matrix

# Components of a recovered mixture may stray this far outside [0, 1] before
# the solution is flagged unphysical.
PHYSICAL_TOL = 1e-9

__all__ = [
    "DET_TOL",
    "PHYSICAL_TOL",
    "ReconstructionSolution",
    "SingularMeasurement",
    "expressed_in_post",
    "is_irreversible",
    "project",
    "reconstruct_diagonal",
    "reconstruct_full",
]


class SingularMeasurement(ValueError):
    """The measurement's weight matrix is singular; the input state is lost.

    ``det_magnitude`` carries |det(mu)| for diagnostics.
    """

    def __init__(self, det_magnitude):
        super().__init__(
            f"|det mu| = {det_magnitude:.3e} <= {DET_TOL:.0e}: the outcome "
            "statistics no longer determine the prepared state"
        )
        self.det_magnitude = float(det_magnitude)


@dataclass(frozen=True, eq=False)
class ReconstructionSolution:
    """Everything the outcome statistics determine about the prepared state.

    ``rho_psi`` are the recovered mixture weights on the pre basis.
    ``rho_phi_offdiag[m, k]`` (m != k) are the off-diagonal elements of the
    state written in the post basis; its diagonal is left zero (the diagonal
    there is the observed tau itself).  ``det_mu`` is |det mu|, the one
    number that decides reversibility.  ``condition`` is the reciprocal
    condition number of mu, ``residual`` the norm ||mu @ rho_psi - tau|| of
    the recovered weights against the observed statistics, and ``physical``
    is False when any recovered weight strays outside [0, 1] beyond
    tolerance.
    """

    rho_psi: np.ndarray
    rho_phi_offdiag: np.ndarray
    det_mu: float
    condition: float
    residual: float
    physical: bool


def project(rho_psi, pair):
    """Outcome distribution tau[m] = sum_j mu[m, j] rho_psi[j]."""
    rho_psi = check_distribution(rho_psi)
    mu = overlap_matrix(pair)
    if rho_psi.shape[0] != mu.shape[1]:
        raise ValueError("state weights do not match the basis dimension")
    return mu @ rho_psi


def expressed_in_post(rho_psi, pair):
    """The mixed state sum_j rho_psi[j] |psi_j><psi_j| in the post basis."""
    rho_psi = np.asarray(rho_psi, dtype=float)
    g = pair.overlaps()
    return g @ np.diag(rho_psi) @ g.conj().T


def is_irreversible(pair):
    """(flag, |det mu|): True when the measurement destroys the state's history."""
    det = abs(float(np.linalg.det(overlap_matrix(pair))))
    return det <= DET_TOL, det


def reconstruct_diagonal(pair, tau):
    """The mixture weights alone: the ``rho_psi`` of :func:`reconstruct_full`."""
    return reconstruct_full(pair, tau).rho_psi


def reconstruct_full(pair, tau):
    """Recover the mixture weights and the post-basis off-diagonals.

    The outcome statistics satisfy tau = mu @ rho_psi, so an invertible mu
    gives rho_psi = mu^-1 tau in closed form.  The state written in the post
    basis is then G diag(rho_psi) G^dagger (see :func:`expressed_in_post`),
    with G the raw overlaps; its off-diagonal elements are the ones the
    measurement erases and the statistics still determine.  ``residual`` is
    ||mu @ rho_psi - tau||, at machine level for an invertible mu.  Raises
    SingularMeasurement when |det mu| <= DET_TOL.
    """
    tau = check_distribution(tau, tol=BISTOCHASTIC_TOL)
    mu = overlap_matrix(pair)
    det = abs(float(np.linalg.det(mu)))
    if det <= DET_TOL:
        raise SingularMeasurement(det)
    if tau.shape[0] != mu.shape[0]:
        raise ValueError("tau does not match the basis dimension")
    rho_psi = np.linalg.solve(mu, tau)
    offdiag = expressed_in_post(rho_psi, pair)
    np.fill_diagonal(offdiag, 0.0)
    residual = float(np.linalg.norm(mu @ rho_psi - tau))

    smin, smax = np.linalg.svd(mu, compute_uv=False)[[-1, 0]]
    condition = float(smin / smax)  # smax > 0: |det mu| > DET_TOL held above
    physical = bool(
        np.min(rho_psi) >= -PHYSICAL_TOL and np.max(rho_psi) <= 1.0 + PHYSICAL_TOL
    )
    return ReconstructionSolution(
        rho_psi=rho_psi,
        rho_phi_offdiag=offdiag,
        det_mu=det,
        condition=condition,
        residual=residual,
        physical=physical,
    )
