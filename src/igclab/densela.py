"""Complex linear-algebra kernels behind one pivot contract.

Everything downstream funnels its linear solves and eigenproblems through
this module.  The factorizations themselves are delegated to LAPACK
(partial-pivot LU via scipy: in band storage, or tridiagonal for a band
with kl = ku = 1; Hessenberg + implicitly shifted QR via numpy's eig, in
real arithmetic for a float64 matrix); what this module owns is the contract
around them: singularity detection at a fixed pivot threshold, under any
diagonal shift.  A band checks its pivots first against a cheap upper bound
of the threshold's scale and works the exact scale out only where that check
does not pass, so a shifted band solve costs little more than its LAPACK
call and decides as the exact rule does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

#: relative pivot magnitude below which a matrix counts as singular
PIVOT_RTOL = 1e-14

_TINY = np.finfo(float).tiny


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when an LU pivot falls below the working-precision threshold."""


@dataclass(frozen=True)
class Banded:
    """A square matrix in band storage: A[i, j] = ab[ku + i - j, j].

    `ab` has kl + ku + 1 rows (the diagonal is row ku) and one column per
    matrix column; the entries outside the matrix are zero (LAPACK ignores
    them, `T` relies on it).  The band keeps its own read-only copy of `ab`,
    so the LU set-up it caches (`_lu_setup`) cannot go stale, and the one
    work buffer its solves factor in.
    """

    ab: np.ndarray
    kl: int
    ku: int

    def __post_init__(self):
        ab = np.array(self.ab, dtype=complex)
        ab.flags.writeable = False
        object.__setattr__(self, "ab", ab)

    @property
    def T(self) -> "Banded":
        """The transpose: its row r is row kl + ku - r shifted by kl - r columns."""
        w = self.kl + self.ku
        ab = np.array([np.roll(self.ab[w - r], self.kl - r) for r in range(w + 1)])
        return Banded(ab=ab, kl=self.ku, ku=self.kl)

    @cached_property
    def _lu_setup(self):
        # (tridiagonal, storage, diagonal row, largest off-diagonal |a|, largest
        # diagonal |a|, work buffer): the band LU (`zgbtrf`) needs kl spare rows
        # on top for the pivoting fill-in and column-major storage, the
        # tridiagonal solver (`zgtsv`) neither; each solve copies the storage
        # into the one work buffer and factors it there
        kl, ku = self.kl, self.ku
        tri = kl == ku == 1 and self.ab.shape[1] > 1
        spare = 0 if tri else kl
        setup = np.zeros((spare + kl + ku + 1, self.ab.shape[1]), dtype=complex,
                         order="C" if tri else "F")
        setup[spare:] = self.ab
        setup.flags.writeable = False
        off = float(np.abs(np.delete(self.ab, ku, axis=0)).max(initial=0.0))
        dmax = float(np.abs(self.ab[ku]).max(initial=0.0))
        return tri, setup, spare + ku, off, dmax, np.empty_like(setup)


def _check_pivots(pivot: float, scale: float):
    # pivot is the smallest |U_ii|; written so that a NaN pivot, a NaN scale
    # (an overflowed elimination), an infinite entry and an all-subnormal
    # matrix (it passes the relative test, and its solve overflows) fail too
    if not (_TINY <= scale < np.inf and pivot >= PIVOT_RTOL * scale):
        raise SingularMatrixError(
            f"matrix is singular to working precision (min pivot "
            f"{pivot:.3e} vs scale {scale:.3e})")


#: pads dmax + |shift| into an upper bound of the computed max|diag + shift|:
#: the shifted entries, their moduli, dmax, |shift| and the sum each round,
#: by about 5 eps together (measured excess: up to 3 eps)
_BOUND_PAD = 1.0 + 8.0 * np.finfo(float).eps


def lu_solve(A: Banded, b: np.ndarray, shift: complex = 0.0) -> np.ndarray:
    """Solve (A + shift I) x = b by partial-pivot LU, A a `Banded`.

    The band is factored by LAPACK's band LU, or by its tridiagonal solver
    when kl = ku = 1; what does not depend on `shift` is set up once per
    `Banded` (see `Banded._lu_setup`), so a sequence of shifts on one band
    pays for its LUs only.  The matrix counts as singular, and
    `SingularMatrixError` is raised, when a pivot of U falls below
    PIVOT_RTOL * max|A + shift I|; a NaN or infinite entry, or a subnormal
    max|A + shift I|, the same way.  Any other A raises `TypeError`.

    The smallest pivot is first compared with PIVOT_RTOL times the bound
    max(off, dmax + |shift|)(1 + 8 eps), off and dmax the largest
    off-diagonal and diagonal |a| recorded once per band; the bound is never
    below the computed max|A + shift I|, so a pivot that clears it passes the
    exact rule.  Only a pivot that does not, a subnormal off-diagonal part or
    a bound that is not finite take the exact scale, so every decision, and
    the error's pivot and scale, are the exact rule's.  Each solve factors a
    copy of the band's storage in one work buffer the band keeps, so one
    `Banded` must not be solved from two threads at once.
    """
    if not isinstance(A, Banded):
        raise TypeError(f"lu_solve needs a Banded matrix, got {type(A).__name__}")
    b = np.asarray(b, dtype=complex)
    tri, setup, d, off, dmax, work = A._lu_setup
    work[...] = setup
    diag = work[d]
    diag += shift
    if tri:
        # positional: dl, d, du, b, then overwrite_dl, _d, _du, _b; U's
        # diagonal comes back in place of d
        _, u, _, x, info = sla.lapack.zgtsv(work[2, :-1], diag, work[0, 1:],
                                            b.reshape(b.shape[0], -1), 1, 1, 1, 0)
        # an exact zero pivot (info > 0) stops the elimination early
        pivot = np.abs(u).min() if info == 0 else 0.0
    else:
        kl, ku = A.kl, A.ku
        lu, piv, _ = sla.lapack.zgbtrf(work, kl, ku, overwrite_ab=1)
        # U's diagonal is row kl + ku; an exact zero pivot (info > 0) fails here too
        pivot = np.abs(lu[kl + ku]).min()
    # max|A + shift I| <= max(off, dmax + |shift|) < bound, so a pivot that
    # clears the bound clears the exact scale; only a pivot that does not, a
    # subnormal off-diagonal part or a bound that is not finite (NaN included)
    # take the exact scale, from the storage, as the solve overwrote diag
    bound = dmax + abs(shift)
    bound = (off if off > bound else bound) * _BOUND_PAD
    if not (off >= _TINY and bound < np.inf and pivot >= PIVOT_RTOL * bound):
        _check_pivots(pivot, np.abs(setup[d] + shift).max(initial=off))
    if tri:
        return x.reshape(b.shape)
    x, _ = sla.lapack.zgbtrs(lu, kl, ku, b, piv)
    return x


def eigendecompose(A: np.ndarray) -> np.ndarray:
    """Full complex spectrum of a square matrix, sorted by (Re, Im).

    A float64 matrix takes real LAPACK (`dgeev`: about a third of `zgeev`'s
    work, conjugate pairs exact), any other input the complex solve; both
    return complex arrays.  A stack of m square n x n blocks gives shape
    (m, n), row i holding block i's eigenvalues, each row sorted by (Re, Im).
    """
    A = np.asarray(A)
    A = A if A.dtype == np.float64 else A.astype(complex, copy=False)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("eigendecompose needs a square matrix or a stack of square blocks")
    if A.size == 0:
        raise ValueError("empty matrix")
    w = np.linalg.eigvals(A).astype(complex, copy=False)
    return np.take_along_axis(w, np.lexsort((w.imag, w.real)), axis=-1)
