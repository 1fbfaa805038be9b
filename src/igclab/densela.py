"""Complex linear-algebra kernels with residual diagnostics.

Everything downstream funnels its linear solves and eigenproblems through
this module.  The factorizations themselves are delegated to LAPACK
(partial-pivot LU via scipy: dense, in band storage, or tridiagonal for a
stack of 2x2 blocks; Hessenberg + implicitly shifted QR via numpy's eig);
what this module owns is the contract around them: singularity detection at a
fixed pivot threshold, the same for dense, banded and stacked input, per-pair
eigen residuals, and a condition flag that marks spectra whose eigenbasis
cannot be trusted.  Skin-effect matrices under open boundaries are expected
to trip that flag at moderate sizes; callers must not propagate with their
eigenvectors.
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

    `eigenvalues` is (n,), or (m, n) for a stack of m blocks.  `residuals`
    holds ||A v - lambda v|| / ||A|| per pair when eigenvectors were
    requested.  `condition_flag` is set when any residual exceeds the
    contract tolerance or the eigenvector basis is numerically rank deficient
    (defective or near-defective input).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    condition_flag: bool = False


@dataclass(frozen=True)
class Banded:
    """A square matrix in band storage: A[i, j] = ab[ku + i - j, j].

    `ab` has kl + ku + 1 rows (the diagonal is row ku) and one column per
    matrix column; the entries outside the matrix are zero (LAPACK ignores
    them, `T` relies on it).
    """

    ab: np.ndarray
    kl: int
    ku: int

    @property
    def T(self) -> "Banded":
        """The transpose: its row r is row kl + ku - r shifted by kl - r columns."""
        w = self.kl + self.ku
        ab = np.array([np.roll(self.ab[w - r], self.kl - r) for r in range(w + 1)])
        return Banded(ab=ab, kl=self.ku, ku=self.kl)


def _check_pivots(pivots: np.ndarray, scale: float):
    # written so that a NaN pivot, a NaN scale (an overflowed elimination) or
    # an infinite entry fails too
    if not (0.0 < scale < np.inf and pivots.min() >= PIVOT_RTOL * scale):
        raise SingularMatrixError(
            f"matrix is singular to working precision (min pivot "
            f"{pivots.min():.3e} vs scale {scale:.3e})")


def _banded_solve(A: Banded, b: np.ndarray) -> np.ndarray:
    kl, ku = A.kl, A.ku
    # LAPACK's band LU needs kl extra rows on top for the pivoting fill-in
    work = np.zeros((2 * kl + ku + 1, A.ab.shape[1]), dtype=complex)
    work[kl:] = A.ab
    lu, piv, _ = sla.lapack.zgbtrf(work, kl, ku, overwrite_ab=1)
    # U's diagonal is row kl + ku; an exact zero pivot (info > 0) fails here too
    _check_pivots(np.abs(lu[kl + ku]), np.abs(A.ab).max(initial=0.0))
    x, _ = sla.lapack.zgbtrs(lu, kl, ku, b, piv)
    return x


def _stacked_2x2_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    # m 2x2 blocks are one block-diagonal tridiagonal matrix of order 2m, whose
    # partial-pivot LU (LAPACK `zgtsv`) pivots within each block and leaves U's
    # diagonal in place of the diagonal; the couplings between blocks are zero
    m = A.shape[0]
    work = np.zeros((4, m, 2), dtype=complex)     # dl, d, du, rhs
    work[0, :, 0] = A[:, 1, 0]
    work[1] = A.diagonal(0, 1, 2)
    work[2, :, 0] = A[:, 0, 1]
    work[3] = b
    flat = work.reshape(4, 2 * m)
    # positional: dl, d, du, b, then overwrite_dl, _d, _du, _b
    _, u, _, x, info = sla.lapack.zgtsv(flat[0, :-1], flat[1], flat[2, :-1],
                                        flat[3, :, None], 1, 1, 1, 1)
    # an exact zero pivot (info > 0) stops the elimination early
    _check_pivots(np.abs(u) if info == 0 else np.zeros(1), np.abs(A).max(initial=0.0))
    return x.reshape(m, 2)


def lu_solve(A: np.ndarray | Banded, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by partial-pivot LU, for a dense square array or a `Banded`.

    A stack of m 2x2 blocks, shape (m, 2, 2), is solved block by block
    against b of shape (m, 2), or against one (2,) right-hand side for all
    blocks, and gives x of shape (m, 2).  In every case the matrix counts as
    singular, and `SingularMatrixError` is raised, when a pivot of U falls
    below PIVOT_RTOL * max|A| (for a stack, the largest entry of any block);
    a NaN or infinite entry is refused the same way.
    """
    b = np.asarray(b, dtype=complex)
    if isinstance(A, Banded):
        return _banded_solve(A, b)
    A = np.asarray(A, dtype=complex)
    if A.ndim == 3:
        if A.shape[1:] != (2, 2):
            raise ValueError(f"a stack of blocks must be (m, 2, 2), got {A.shape}")
        return _stacked_2x2_solve(A, b)
    A = np.ascontiguousarray(A)
    with warnings.catch_warnings():
        # scipy warns about exact zero pivots; the threshold check below
        # covers that case and raises instead
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(A, check_finite=False)
    _check_pivots(np.abs(np.diagonal(lu)), np.abs(A).max(initial=0.0))
    return sla.lu_solve((lu, piv), b, check_finite=False)


def eigendecompose(A: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Full complex spectrum of a square matrix, sorted by (Re, Im).

    A stack of m square n x n blocks gives eigenvalues of shape (m, n), row i
    holding block i's, each row sorted by (Re, Im); eigenvectors are refused
    for a stack.  With `want_vectors`, right eigenvectors are returned
    column-aligned with the eigenvalues and every pair gets a relative
    residual.  The solver is treated as a black box; the residuals are the
    ground truth.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("eigendecompose needs a square matrix or a stack of square blocks")
    if A.size == 0:
        raise ValueError("empty matrix")
    if want_vectors and A.ndim == 3:
        raise ValueError("eigenvectors are not returned for a stack of blocks")
    if not want_vectors:
        w = np.linalg.eigvals(A)
        order = np.lexsort((w.imag, w.real))
        return Spectrum(eigenvalues=np.take_along_axis(w, order, axis=-1))
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

