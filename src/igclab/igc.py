"""Roots of the coupling condition and the gap classification they imply.

A lossless plane wave on chain A survives the coupling to the lossy chain
exactly when F(k) = sum_m t_m cos(m k) vanishes.  Real roots of F mark the
momenta where the periodic-boundary spectrum touches the real axis; their
absence means the spectrum stays a finite distance below it.  Since
F(k) = P(cos k) with P the matching Chebyshev combination of the couplings,
all root finding happens on the degree-n polynomial P over u = cos k in
[-1, 1], which keeps every root real by construction and needs no filtering
of off-circle candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as C

from .model import h_y

IGC = "IGC"
GAPPED = "GAPPED"

#: scan resolution over u = cos k
_SCAN_STEP = 1e-3
#: target residual for accepted roots, |F(k)| below this
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

    `gapped` means no real root; `classification` is IGC when the minimum
    of F reaches zero or below (within float noise at exact criticality),
    GAPPED otherwise.
    """

    points: tuple
    f_min: float
    k_min: float
    gapped: bool
    classification: str
    energies: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(p.energy for p in self.points))


def _bisect(coef, lo, hi, flo):
    # plain bisection on the sign of P; the bracket comes from the scan
    fhi = C.chebval(hi, coef)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = C.chebval(mid, coef)
        if abs(fm) < _ROOT_TOL or (hi - lo) < 1e-16:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _scan(coef):
    """The scan grid over u in [-1, 1] and P on it."""
    grid = np.arange(-1.0, 1.0 + _SCAN_STEP, _SCAN_STEP)
    grid[-1] = 1.0
    return grid, C.chebval(grid, coef)


def _sign_roots(coef, near_zero):
    """Roots of P on the scan: the on-grid ones (|P| <= near_zero) in grid
    order, then the bisected sign changes, in grid order."""
    grid, vals = _scan(coef)
    roots = []
    small = np.abs(vals) <= near_zero
    for i in np.flatnonzero(small):
        _add_root(roots, grid[i])
    # a bracket with a small end is already captured as an on-grid root
    bracket = ~small[:-1] & ~small[1:] & (vals[:-1] * vals[1:] < 0)
    for i in np.flatnonzero(bracket):
        _add_root(roots, _bisect(coef, grid[i], grid[i + 1], vals[i]))
    return roots


def _critical_points(coef):
    """Interior roots of P' in (-1, 1) by the same scan-and-bisect route."""
    dcoef = C.chebder(coef)
    if len(dcoef) == 0 or np.all(dcoef == 0.0):
        return []
    grid, vals = _scan(dcoef)
    sign = np.sign(vals)
    on_grid = sign == 0
    bracket = sign[:-1] * sign[1:] < 0
    # in grid order: an on-grid root, or the bisected root of a sign change
    crit = [grid[i] if on_grid[i] else _bisect(dcoef, grid[i], grid[i + 1], vals[i])
            for i in np.flatnonzero(on_grid[:-1] | bracket)]
    if on_grid[-1]:
        crit.append(grid[-1])
    return crit


def _add_root(roots, u, tol=1e-9):
    if not any(abs(u - r) < tol for r in roots):
        roots.append(float(u))


def solve_connection(t, t_p: float, phi: float) -> IgcSolution:
    """All real momenta in [0, 2pi) where the coupling condition holds.

    Sign changes of P(u) on a fixed-resolution scan are polished by bisection;
    a secondary pass over the critical points of P catches tangential roots,
    which are reported once each and flagged marginal.  Roots at u = +/-1 map
    to the single momenta k = 0 or pi, where F is even in k and therefore
    tangential as well.  Energies follow the chain-A dispersion
    t_p cos(k - phi).
    """
    coef = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(coef)):
        raise ValueError("couplings must be finite")
    if coef.sum() <= 0:
        raise ValueError("needs sum(t) = F(0) > 0; rescale or flip the couplings")
    scale = max(1.0, np.abs(coef).sum())
    near_zero = 1e-12 * scale

    sign_roots = _sign_roots(coef, near_zero)
    crit = _critical_points(coef)
    tangent_roots = []
    for u in crit:
        if abs(C.chebval(u, coef)) <= near_zero:
            known = any(abs(u - r) < 1e-9 for r in sign_roots)
            if not known:
                _add_root(tangent_roots, u)

    # global minimum of F over k, i.e. of P over [-1, 1]
    cand = np.array([-1.0, 1.0] + crit)
    cvals = C.chebval(cand, coef)
    jmin = int(np.argmin(cvals))
    f_min = float(cvals[jmin])
    k_min = float(np.arccos(np.clip(cand[jmin], -1.0, 1.0)))

    points = []
    for u, marg in [(u, False) for u in sign_roots] + \
                   [(u, True) for u in tangent_roots]:
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
                       gapped=(len(points) == 0),
                       classification=IGC if f_min <= near_zero else GAPPED)


def igc_energies_closed_form(t0: float, t1: float, t_p: float, phi: float):
    """Energies of the two nearest-coupling roots, (t_p/t1)(-t0 cos phi +/- sqrt(t1^2 - t0^2) sin phi).

    Empty when |t0| > t1 (no real root of t0 + t1 cos k).
    """
    if abs(t0) > t1:
        return []
    root = np.sqrt(t1**2 - t0**2)
    return [float(t_p / t1 * (-t0 * np.cos(phi) + s * root * np.sin(phi)))
            for s in (+1.0, -1.0)]

