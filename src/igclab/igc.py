"""Roots of the coupling condition and the gap classification they imply.

A lossless plane wave on chain A survives the coupling to the lossy chain
exactly when F(k) = sum_m t_m cos(m k) vanishes.  Real roots of F mark the
momenta where the periodic-boundary spectrum touches the real axis; their
absence means the spectrum stays a finite distance below it.  Since
F(k) = P(cos k) with P the matching Chebyshev combination of the couplings,
all root finding happens on the degree-n polynomial P over u = cos k in
[-1, 1], which keeps every root real by construction and needs no filtering
of off-circle candidates.  The real roots of P' cut [-1, 1] into pieces on
which P is monotone, so each root is bracketed exactly, with no scan grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .model import h_y

IGC = "IGC"
GAPPED = "GAPPED"

#: target residual for accepted roots, |F(k)| below this times sum |t|
_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class IgcPoint:
    """A single momentum where the coupling condition holds.

    `marginal` marks roots where F touches zero without changing sign (two
    interior roots merged, or a tangency at k = 0 or pi).
    """

    k: float
    beta: complex
    energy: float
    marginal: bool = False


@dataclass(frozen=True)
class IgcSolution:
    """The roots of the coupling condition and what they imply.

    `classification` is IGC when the minimum of F reaches zero or below
    (within float noise at exact criticality), which is exactly when
    `points` holds a root, and GAPPED otherwise.
    """

    points: tuple
    f_min: float
    k_min: float
    classification: str


def _polish(coef, lo, hi, flo, fhi, tol):
    """The one root of P between lo and hi, where P(lo) and P(hi) differ in sign.

    Illinois regula falsi: every step keeps the bracket, and an end that
    survives two steps in a row has its value halved so that it moves too.
    """
    side = 0
    for _ in range(200):
        mid = lo + (hi - lo) * flo / (flo - fhi)
        fm = C.chebval(mid, coef)
        if abs(fm) < tol or not lo < mid < hi:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
            if side < 0:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = mid, fm
            if side > 0:
                flo *= 0.5
            side = 1
    return mid


def solve_connection(t, t_p: float, phi: float) -> IgcSolution:
    """All real momenta in [0, 2pi) where the coupling condition holds.

    P is monotone between consecutive real roots of P' (the eigenvalues of
    its colleague matrix), so these critical points and u = +/-1 split
    [-1, 1] into pieces that each hold at most one root.  A piece whose
    ends differ in sign holds a simple root, polished inside it; a critical
    point where P vanishes is a multiple root, reported once and flagged
    marginal when F keeps its sign across it (a tangency).  Roots at u = +/-1
    map to the single momenta k = 0 or pi, where F is even in k and
    therefore tangential as well.  Energies follow the chain-A dispersion
    t_p cos(k - phi).
    """
    coef = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(coef)):
        raise ValueError("couplings must be finite")
    if coef.sum() <= 0:
        raise ValueError("needs sum(t) = F(0) > 0; rescale or flip the couplings")
    near_zero = _ROOT_TOL * np.abs(coef).sum()

    crit = C.chebroots(C.chebder(coef))
    crit = crit[(crit.imag == 0) & (np.abs(crit.real) < 1.0)].real
    cand = np.concatenate(([-1.0], crit, [1.0]))
    cvals = C.chebval(cand, coef)
    small = np.abs(cvals) <= near_zero
    roots = [(u, True) for u, zero in ((-1.0, small[0]), (1.0, small[-1])) if zero]
    # P is monotone between neighbouring candidates: two non-small ones of
    # opposite sign bracket a simple root; the small ones between two non-small
    # ones (a double root of P' may give two) are one multiple root, and small
    # ones next to a small end belong to that end's root
    big = np.flatnonzero(~small)
    for i, j in zip(big[:-1], big[1:]):
        cross = (cvals[i] < 0) != (cvals[j] < 0)
        if j > i + 1:
            roots.append((cand[i + 1], not cross))
        elif cross:
            roots.append((_polish(coef, cand[i], cand[j], cvals[i], cvals[j],
                                  near_zero), False))

    # global minimum of F over k, i.e. of P over [-1, 1]
    jmin = int(np.argmin(cvals))
    f_min = float(cvals[jmin])
    k_min = float(np.arccos(cand[jmin]))

    points = []
    for u, marg in roots:
        u = float(np.clip(u, -1.0, 1.0))
        kk = float(np.arccos(u))
        if u in (-1.0, 1.0):
            ks, marg = [kk], True
        else:
            ks = [kk, 2.0 * np.pi - kk]
        for k in ks:
            points.append(IgcPoint(
                k=k,
                beta=complex(np.exp(1j * k)),
                energy=float(h_y(t_p, phi, k)),
                marginal=marg,
            ))
    points.sort(key=lambda pt: pt.k)
    return IgcSolution(points=tuple(points), f_min=f_min, k_min=k_min,
                       classification=IGC if f_min <= near_zero else GAPPED)
