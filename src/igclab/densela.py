"""Dense complex linear-algebra kernels with residual diagnostics.

Everything downstream funnels its dense solves and eigenproblems through this
module.  The factorizations themselves are delegated to LAPACK (partial-pivot
LU via scipy, Hessenberg + implicitly shifted QR via numpy's eig); what this
module owns is the contract around them: singularity detection at a fixed
pivot threshold, per-pair eigen residuals, and a condition flag that marks
spectra whose eigenbasis cannot be trusted.  Skin-effect matrices under open
boundaries are expected to trip that flag at moderate sizes; callers must not
propagate with their eigenvectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

#: relative pivot magnitude below which a matrix counts as singular
PIVOT_RTOL = 1e-14

#: relative eigenpair residual above which the condition flag is set
RESIDUAL_RTOL = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when an LU pivot falls below the working-precision threshold."""


@dataclass
class Spectrum:
    """Eigenvalues of a dense complex matrix, optionally with diagnostics.

    `residuals` holds ||A v - lambda v|| / ||A|| per pair when eigenvectors
    were requested.  `condition_flag` is set when any residual exceeds the
    contract tolerance or the eigenvector basis is numerically rank deficient
    (defective or near-defective input).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    condition_flag: bool = False

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def lu_factor(A: np.ndarray):
    """Partial-pivot LU with a singularity check; returns a reusable factor."""
    A = np.ascontiguousarray(A, dtype=complex)
    scale = np.abs(A).max(initial=0.0)
    with warnings.catch_warnings():
        # scipy warns about exact zero pivots; the threshold check below
        # covers that case and raises instead
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if scale == 0.0 or pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is singular to working precision (min pivot "
            f"{pivots.min():.3e} vs scale {scale:.3e})")
    return lu, piv


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a square complex A by partial-pivot LU."""
    factor = lu_factor(A)
    return sla.lu_solve(factor, np.asarray(b, dtype=complex), check_finite=False)


def eigendecompose(A: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Full complex spectrum of a square matrix, sorted by (Re, Im).

    With `want_vectors`, right eigenvectors are returned column-aligned with
    the eigenvalues and every pair gets a relative residual.  The solver is
    treated as a black box; the residuals are the ground truth.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("eigendecompose needs a square matrix")
    if A.shape[0] == 0:
        raise ValueError("empty matrix")
    if not want_vectors:
        w = np.linalg.eigvals(A)
        order = np.lexsort((w.imag, w.real))
        return Spectrum(eigenvalues=w[order])
    w, V = np.linalg.eig(A)
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]
    norm_a = np.linalg.norm(A)
    if norm_a == 0.0:
        residuals = np.zeros(w.size)
    else:
        residuals = np.linalg.norm(A @ V - V * w, axis=0) / (np.linalg.norm(V, axis=0) * norm_a)
    flag = bool(np.any(residuals > RESIDUAL_RTOL))
    if not flag:
        # near-defective input: pairs can look accurate while the basis is rank
        # deficient, so probe the basis conditioning as well
        sv = np.linalg.svd(V, compute_uv=False)
        flag = sv[-1] <= np.finfo(float).eps / RESIDUAL_RTOL * sv[0]
    return Spectrum(eigenvalues=w, right_vectors=V, residuals=residuals,
                    condition_flag=flag)


def max_imag(spec: Spectrum) -> float:
    """Largest imaginary part in the spectrum (0 for Hermitian input)."""
    if spec.eigenvalues.size == 0:
        raise ValueError("empty spectrum")
    return float(spec.eigenvalues.imag.max())
