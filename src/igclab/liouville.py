"""Damping-matrix view of the lossy ladder's correlation dynamics.

For a quadratic open chain with pure onsite loss, the deviation of the
single-particle correlation matrix from its steady value relaxes under

    d/dt C~ = X C~ + C~ X^dagger,   X = i (H0^T + i M) = i conj(H),

with H0 the Hermitian part of the lattice Hamiltonian and M the diagonal of
loss rates in the interleaved pattern {0, gamma_1, 0, gamma_2, ...}.  The
eigenvalues of X therefore mirror those of H (lambda = i conj(E)) and the
relaxation gap

    Delta = min 2 Re(-lambda)

vanishes exactly when the lattice spectrum touches the real axis.  A finite
gap means exponential approach to the steady state, a vanishing one algebraic
approach.

Everything here works at the level of X's spectrum
(`LadderOperator.eigenvalues`: a ring's Bloch blocks, else a dense solve) or
of its resolvent, never by propagating C~ in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import densela
from .model import LadderOperator, LadderParams, build_ladder, check_x0
from .quadrature import adaptive_quadrature
from .walk import LOSSLESS_DIAGNOSTICS, RESOLVENT_RTOL, resolvent_integrand, resolvent_result

GAPLESS_TOL = 1e-6


@dataclass
class LiouvilleReport:
    gap: float
    gapless: bool
    max_real: float
    note: str
    eigenvalues: np.ndarray = field(repr=False)   # the spectrum of X the gap is read from
    eigensolve: str                               # "bloch_blocks", "dense_real" or "dense"


def build_damping(p: LadderParams) -> LadderOperator:
    """X = i conj(H) as band data in H's site order, its two identities verified.

    H's loss diagonal M must follow the interleaved site ordering (zeros on
    the A slots); X must equal i (H0^T + i M) elementwise.  Both checks run
    on the band data and fail only if the model builder's conventions drift.
    """
    H = build_ladder(p)
    b, m = H.band, H.loss_diagonal()
    if np.any(m[0::2] != 0.0):
        raise AssertionError("loss found on A slots; site ordering broken")
    X = densela.Banded(1j * np.conj(b.ab), b.kl, b.ku)
    via_h0 = 1j * 0.5 * (b.T.ab + np.conj(b.ab))      # i H0^T, H0 = (H + H^dagger)/2
    via_h0[b.ku] -= m[H.order]
    if np.abs(via_h0 - X.ab).max() > 1e-14 * max(1.0, np.abs(b.ab).max()):
        raise AssertionError("X != i conj(H); damping-matrix identity broken")
    return LadderOperator(X, H.order, H.ring)


def liouvillian_gap(X: LadderOperator) -> LiouvilleReport:
    """Relaxation gap of X and the convergence class it implies, with X's spectrum."""
    w, how = X.eigenvalues()
    max_real = float(w.real.max())
    gap = -2.0 * max_real
    gapless = gap < GAPLESS_TOL
    note = ("vanishing gap: algebraic convergence towards the steady state"
            if gapless else
            f"finite gap {gap:.6g}: exponential convergence towards the steady state")
    return LiouvilleReport(gap=gap, gapless=gapless, max_real=max_real, note=note,
                           eigenvalues=w, eigensolve=how)


def steady_density(p: LadderParams, x0: int, max_panels: int = 4000):
    """B-site density fed by a source at (x0, A), from the resolvent of X.

        n_x^B = (gamma_x / pi) * integral |<x,B| (i omega - X)^{-1} |x0,A>|^2

    evaluated with the walk's frequency-domain integrand at s = i, so the
    window, panels and solves are those of the escape profile, applied to X.
    Its integrand is the escape profile's, so sum n <= 1 too, and
    `resolvent_result` reads the quadrature as it reads the profile's: a
    density it does not pass is reported unconverged.  `max_panels` counts
    panels of the full window, as the profile's does.  Returns
    (n, diagnostics).
    """
    check_x0(x0, p.L)
    gam = np.asarray(p.gamma)
    if np.all(gam == 0.0):
        return np.zeros(p.L), dict(LOSSLESS_DIAGNOSTICS)
    f, edges, omega_max, tail_bound, info = resolvent_integrand(p, x0, build_damping(p), 1j)
    quad = adaptive_quadrature(f, edges, rtol=RESOLVENT_RTOL, atol_frac=1e-16,
                               max_panels=max_panels // (2 if info["folded"] else 1))
    dens, ok, diag = resolvent_result(quad, gam, omega_max, tail_bound, info)
    diag["converged"] = ok
    return dens, diag
