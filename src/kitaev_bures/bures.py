"""Bures/Uhlmann machinery for small density matrices.

All functions accept stacked inputs: a density matrix argument may have shape
``(..., d, d)`` and the computation is vectorized over the leading axes.  The
metric convention throughout is the infinitesimal Bures line element

    ds^2 = 2 (1 - F(rho(l), rho(l + dl))) = sum_{mu,nu} g_{mu,nu} dl_mu dl_nu

with F the square-root fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).  The
metric splits into a classical part (Fisher information of the eigenvalue
distribution) and a nonclassical part (eigenvector rotation):

    g^c_{mu,nu}  = (1/4) sum_i  (d_mu p_i)(d_nu p_i) / p_i
    g^nc_{mu,nu} = (1/2) sum_{i != j} Re(<i|d_mu rho|j><j|d_nu rho|i>) / (p_i + p_j)

This real (polarised) pair weight is the Bures metric (Hubner, Phys. Lett. A
163, 239 (1992)); the finite-difference fidelity oracle in the test suite
confirms it entry by entry.  A product of moduli in its place agrees on the
diagonal only.

The rewritten pair weight uses <i|d rho|j> = (p_j - p_i) <i|d j>, so the sum
is finite at degenerate eigenvalue pairs without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DensityMatrixError",
    "EigenvalueFloorError",
    "SingularStateError",
    "SpectralDecomposition",
    "MetricDecomposition",
    "validate_density_matrix",
    "uhlmann_fidelity",
    "classical_fidelity",
    "spectral_decomposition",
    "analytic_metric",
    "finite_difference_metric",
    "finite_difference_metric_pairs",
    "optimal_observable",
]

HERMITICITY_TOL = 1e-12
PSD_TOL = -1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = 1e-14
DERIVATIVE_FLOOR = 1e-10


class DensityMatrixError(ValueError):
    """Input is not a valid density matrix (shape, hermiticity, PSD, trace)."""


class EigenvalueFloorError(ValueError):
    """A vanishing eigenvalue carries a non-vanishing derivative: the
    classical Fisher term would blow up.  Thermal states are strictly
    positive, so this indicates misuse rather than physics."""


class SingularStateError(ValueError):
    """Operation requires a strictly positive density matrix."""


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DensityMatrixError(f"{name} must have shape (..., d, d), got {a.shape}")
    return a


def validate_density_matrix(rho) -> np.ndarray:
    """Check hermiticity, positive semidefiniteness and unit trace.

    Returns the input as a complex ndarray; raises DensityMatrixError on any
    violation.  Tolerances: hermitian entrywise to 1e-12, smallest eigenvalue
    >= -1e-12, trace within 1e-12 of 1.
    """
    rho = _as_square(rho, "rho")
    herm = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
    if herm > HERMITICITY_TOL:
        raise DensityMatrixError(f"matrix not Hermitian (max deviation {herm:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    tr_err = np.max(np.abs(tr - 1.0))
    if tr_err > TRACE_TOL:
        raise DensityMatrixError(f"trace differs from 1 by {tr_err:.3e}")
    w = np.linalg.eigvalsh(rho)
    wmin = float(np.min(w))
    if wmin < PSD_TOL:
        raise DensityMatrixError(f"matrix not PSD (min eigenvalue {wmin:.3e})")
    return rho


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD Hermitian matrix via eigendecomposition.

    Eigenvalues in [PSD_TOL, 0) are treated as numerical noise and clipped
    to zero; anything below PSD_TOL raises.
    """
    w, v = np.linalg.eigh(rho)
    if float(np.min(w)) < PSD_TOL:
        raise DensityMatrixError(
            f"cannot take PSD square root: min eigenvalue {float(np.min(w)):.3e}"
        )
    w = np.sqrt(np.clip(w, 0.0, None))
    return np.einsum("...ik,...k,...jk->...ij", v, w, v.conj())


def uhlmann_fidelity(rho, sigma, *, validate: bool = True):
    """Square-root fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Both arguments may be stacked ``(..., d, d)``; the result is a float (or
    an array over the leading axes) in [0, 1].  F is symmetric in its
    arguments and equals 1 exactly when rho == sigma.

    Raises:
        DensityMatrixError: on dimension mismatch or (with validate=True)
            invalid inputs.
    """
    rho = _as_square(rho, "rho")
    sigma = _as_square(sigma, "sigma")
    if rho.shape[-1] != sigma.shape[-1]:
        raise DensityMatrixError(
            f"dimension mismatch: {rho.shape[-1]} vs {sigma.shape[-1]}"
        )
    if validate:
        validate_density_matrix(rho)
        validate_density_matrix(sigma)
    s = _psd_sqrt(rho)
    return _fidelity_from_sqrt(s, sigma)


def _fidelity_from_sqrt(sqrt_rho: np.ndarray, sigma: np.ndarray):
    """Fidelity given a precomputed sqrt(rho) (hot path for oracles)."""
    m = sqrt_rho @ sigma @ sqrt_rho
    w = np.linalg.eigvalsh(m)
    f = np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)
    f = np.minimum(f, 1.0)
    return float(f) if np.ndim(f) == 0 else f


def classical_fidelity(rho, sigma, *, validate: bool = False):
    """Bhattacharyya overlap sum_i sqrt(p_i q_i) of the eigenvalue spectra.

    Eigenvalues of both states are sorted descending and paired by rank,
    which follows the smooth branch as long as no crossing occurs between
    the two states.  This is the classical (commuting) reduction of
    uhlmann_fidelity and serves as the finite-difference oracle for the
    classical metric part.
    """
    rho = _as_square(rho, "rho")
    sigma = _as_square(sigma, "sigma")
    if validate:
        validate_density_matrix(rho)
        validate_density_matrix(sigma)
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)[..., ::-1]
    q = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)[..., ::-1]
    f = np.sqrt(p * q).sum(axis=-1)
    f = np.minimum(f, 1.0)
    return float(f) if np.ndim(f) == 0 else f


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a density matrix, eigenvalues sorted descending.

    ``eigenvalues`` has shape (..., d); ``eigenvectors`` (..., d, d) with
    orthonormal columns, so rho = V diag(p) V^dagger.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decomposition(rho, *, validate: bool = True) -> SpectralDecomposition:
    """Eigendecomposition with descending eigenvalues and a reconstruction check."""
    rho = _as_square(rho, "rho")
    if validate:
        validate_density_matrix(rho)
    w, v = np.linalg.eigh(rho)
    w = w[..., ::-1]
    v = v[..., ::-1]
    recon = np.einsum("...ik,...k,...jk->...ij", v, w, v.conj())
    err = float(np.max(np.abs(recon - rho)))
    if err > 1e-10:
        raise DensityMatrixError(f"eigendecomposition reconstruction error {err:.3e}")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class MetricDecomposition:
    """Classical and nonclassical parts of the Bures metric, each (..., k, k)."""

    classical: np.ndarray
    nonclassical: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.classical + self.nonclassical


def analytic_metric(
    decomp: SpectralDecomposition,
    drho: Sequence[np.ndarray],
    *,
    check_inputs: bool = True,
) -> MetricDecomposition:
    """Closed-form metric decomposition from an eigensystem and derivatives.

    Args:
        decomp: spectral decomposition of rho at the evaluation point.
        drho: sequence of k Hermitian, traceless parameter derivatives of
            rho, each possibly stacked ``(..., d, d)``.

    Eigenvalues below ``EIGENVALUE_FLOOR`` are admitted in the classical sum
    only when the matching derivative is below ``DERIVATIVE_FLOOR`` (the term
    is then a 0/0 limit and contributes 0); otherwise EigenvalueFloorError is
    raised.

    Returns a MetricDecomposition with parts shaped (..., k, k).
    """
    p = np.asarray(decomp.eigenvalues, dtype=float)
    v = np.asarray(decomp.eigenvectors, dtype=complex)
    k = len(drho)
    if k == 0:
        raise ValueError("drho must contain at least one direction")
    mats = []
    for mu, d in enumerate(drho):
        d = _as_square(d, f"drho[{mu}]")
        if check_inputs:
            herm = np.max(np.abs(d - d.conj().swapaxes(-1, -2)))
            if herm > 1e-10:
                raise ValueError(f"drho[{mu}] not Hermitian (max dev {herm:.3e})")
            tr = np.max(np.abs(np.trace(d, axis1=-2, axis2=-1)))
            if tr > 1e-10:
                raise ValueError(f"drho[{mu}] not traceless (max trace {tr:.3e})")
        mats.append(d)
    # A^mu = V^dagger (d_mu rho) V in the eigenbasis
    a = np.stack([v.conj().swapaxes(-1, -2) @ d @ v for d in mats])  # (k, ..., d, d)
    dp = np.einsum("m...ii->m...i", a).real  # eigenvalue derivatives (k, ..., d)

    small = p < EIGENVALUE_FLOOR
    if np.any(small):
        bad = small[None, ...] & (np.abs(dp) >= DERIVATIVE_FLOOR)
        if np.any(bad):
            raise EigenvalueFloorError(
                "eigenvalue below floor with non-vanishing derivative in a "
                "classical Fisher term"
            )
    inv_p = np.where(small, 0.0, 1.0 / np.where(small, 1.0, p))
    classical = 0.25 * np.einsum("m...i,n...i,...i->...mn", dp, dp, inv_p)

    d_dim = p.shape[-1]
    psum = p[..., :, None] + p[..., None, :]
    off = ~np.eye(d_dim, dtype=bool)
    psum_small = (psum < EIGENVALUE_FLOOR) & off
    if np.any(psum_small):
        # both eigenvalues at zero: the pair may only carry a vanishing
        # matrix element, otherwise the stable rewritten weight blows up
        for m in a:
            if np.any(np.abs(np.where(psum_small, m, 0.0)) >= DERIVATIVE_FLOOR):
                raise EigenvalueFloorError(
                    "vanishing eigenvalue pair with non-vanishing matrix element "
                    "in a nonclassical term"
                )
    safe = np.where(off & ~psum_small, psum, 1.0)
    weight = np.where(off & ~psum_small, 1.0 / safe, 0.0)
    prod = np.einsum("m...ij,n...ij->mn...ij", a, a.conj()).real
    nonclassical = 0.5 * np.einsum("mn...ij,...ij->...mn", prod, weight)
    # enforce exact symmetry against fp round-off
    classical = 0.5 * (classical + classical.swapaxes(-1, -2))
    nonclassical = 0.5 * (nonclassical + nonclassical.swapaxes(-1, -2))
    return MetricDecomposition(classical=classical, nonclassical=nonclassical)


def finite_difference_metric_pairs(
    pair_fidelity: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lambda0,
    step: float,
) -> np.ndarray:
    """Finite-difference Bures metric from a parameter-pair fidelity.

    ``pair_fidelity(lam_a, lam_b)`` returns the (possibly batched) fidelity
    between the states at two parameter vectors.  Diagonal entries come from
    g_uu = 2 (1 - F(l0, l0 + h e_u)) / h^2 symmetrized over +-h, with one
    Richardson level (steps h and h/2) for O(h^4) accuracy; off-diagonals
    use the polarization identity along e_mu + e_nu.  The result is
    ``(..., k, k)`` and symmetric by construction.

    Families whose matrix representation cannot hold the state accurately
    (e.g. nearly pure thermal modes, where the small eigenvalue falls below
    matrix round-off) should evaluate their fidelity in a stable closed form
    and use this entry point directly.
    """
    lambda0 = np.asarray(lambda0, dtype=float)
    if lambda0.ndim != 1:
        raise ValueError("lambda0 must be a 1-d parameter vector")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    k = lambda0.size

    def quad_form(direction: np.ndarray):
        estimates = []
        for h in (step, 0.5 * step):
            f_plus = np.asarray(pair_fidelity(lambda0, lambda0 + h * direction), dtype=float)
            f_minus = np.asarray(pair_fidelity(lambda0, lambda0 - h * direction), dtype=float)
            estimates.append(((1.0 - f_plus) + (1.0 - f_minus)) / (h * h))
        return (4.0 * estimates[1] - estimates[0]) / 3.0

    eye = np.eye(k)
    diag = [quad_form(eye[mu]) for mu in range(k)]
    g = np.zeros(np.shape(diag[0]) + (k, k), dtype=float)
    for mu in range(k):
        g[..., mu, mu] = diag[mu]
    for mu in range(k):
        for nu in range(mu + 1, k):
            cross = quad_form(eye[mu] + eye[nu])
            val = 0.5 * (cross - diag[mu] - diag[nu])
            g[..., mu, nu] = val
            g[..., nu, mu] = val
    return g


def finite_difference_metric(
    family: Callable[[np.ndarray], np.ndarray],
    lambda0,
    step: float,
    *,
    fidelity: Callable | None = None,
    validate: bool = False,
) -> np.ndarray:
    """Bures metric by central finite differences of the fidelity.

    The family maps a parameter vector of length k to a density matrix
    (optionally stacked ``(..., d, d)``); see finite_difference_metric_pairs
    for the difference scheme.  ``fidelity`` defaults to uhlmann_fidelity;
    passing classical_fidelity yields the finite-difference classical
    (Fisher) part instead.  This function is the independent oracle for
    analytic_metric: it never touches eigenbasis derivatives, only fidelity
    evaluations.
    """
    lambda0 = np.asarray(lambda0, dtype=float)
    rho0 = np.asarray(family(lambda0), dtype=complex)
    if validate:
        validate_density_matrix(rho0)
    if fidelity is None:
        sqrt0 = _psd_sqrt(rho0)

        def pair(lam_a, lam_b):
            return _fidelity_from_sqrt(sqrt0, np.asarray(family(lam_b), dtype=complex))

    else:

        def pair(lam_a, lam_b):
            return fidelity(rho0, family(lam_b))

    return finite_difference_metric_pairs(pair, lambda0, step)


def optimal_observable(rho, sigma) -> np.ndarray:
    """Hermitian observable whose statistics saturate the Bures distance.

    M = rho^{-1/2} sqrt(sqrt(rho) sigma sqrt(rho)) rho^{-1/2}.  Satisfies
    Tr(rho M) = uhlmann_fidelity(rho, sigma).  Requires rho strictly positive
    definite; raises SingularStateError otherwise.
    """
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    if rho.shape[-1] != sigma.shape[-1]:
        raise DensityMatrixError(
            f"dimension mismatch: {rho.shape[-1]} vs {sigma.shape[-1]}"
        )
    w, v = np.linalg.eigh(rho)
    if float(np.min(w)) <= 1e-12:
        raise SingularStateError(
            f"rho is singular (min eigenvalue {float(np.min(w)):.3e})"
        )
    sqrt_rho = np.einsum("...ik,...k,...jk->...ij", v, np.sqrt(w), v.conj())
    inv_sqrt = np.einsum("...ik,...k,...jk->...ij", v, 1.0 / np.sqrt(w), v.conj())
    core = _psd_sqrt(sqrt_rho @ sigma @ sqrt_rho)
    m = inv_sqrt @ core @ inv_sqrt
    return 0.5 * (m + m.conj().swapaxes(-1, -2))
