"""Independent references the package's own paths are checked against.

Nothing in `igclab` calls these; each is a second, deliberately naive route
to a number the package computes another way:

* `build_bloch`: the closed-form 2x2 Bloch matrix, against the blocks
  `LadderOperator.blocks` reads off the band;
* `ladder_to_general`: a ladder in the split (A, B, C) form, so
  `build_general` meets `build_ladder`;
* `igc_energies_closed_form`: the nearest-coupling IGC energies, against
  `solve_connection` (C1, C7);
* `propagate_correlation`: dense correlation propagation, behind the
  convergence class `liouvillian_gap` reads off the gap (C8);
* `geometric_edges`: the resolvent tail split into panels of ratio 4 in
  omega, against the one compactified span `walk.resolvent_integrand`
  integrates (`quadrature.tail_map`);
* `full_grid_edges`: the resolvent integral's first edges with the whole
  band window [-W, W] in 48 equal panels, against the edges that keep that
  grid only within the pole bound;
* `eigenpairs`: a dense eigensolve with right vectors, residuals and a
  condition flag, behind the spectra C8b compares and the pairs
  `eigenpair_near` is pinned to;
* `eigenpair_near`: the eigenpair nearest a shift by inverse iteration on a
  band, the pairs C2 reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from igclab import GeneralModel, LadderParams, build_damping, build_ladder, lu_solve, site_index
from igclab.model import h_x, h_y


def build_bloch(p: LadderParams, k: float) -> np.ndarray:
    """Momentum-space 2x2 matrix of the ladder at momentum k, read-only.

    Requires a uniform loss profile; a site-dependent gamma_x breaks the
    discrete translational symmetry and has no Bloch form.
    """
    g = p.uniform_gamma
    if g is None:
        raise ValueError("Bloch form undefined: loss profile is not uniform")
    hx = float(h_x(p.t, k))
    hy = float(h_y(p.t_p, p.phi, k))
    m = np.array([[hy, hx],
                  [hx, -hy - 1j * g]], dtype=complex)
    m.setflags(write=False)
    return m


def ladder_to_general(p: LadderParams) -> GeneralModel:
    """Re-express a ladder (all gamma_x > 0) in the general split form.

    The blocks are the sublattice slices of `build_ladder`'s matrix (A sites
    on the even rows, B sites on the odd ones); B_herm drops the loss
    diagonal, which `build_general` adds back from gamma.
    """
    if min(p.gamma) <= 0:
        raise ValueError("the split form puts every B site in the lossy block; "
                         "all gamma_x must be > 0")
    H = build_ladder(p).matrix
    return GeneralModel(A=H[0::2, 0::2],
                        B_herm=H[1::2, 1::2] + 1j * np.diag(p.gamma),
                        C=H[1::2, 0::2], gamma=p.gamma)


def igc_energies_closed_form(t0: float, t1: float, t_p: float, phi: float):
    """Energies of the two nearest-coupling roots, (t_p/t1)(-t0 cos phi +/- sqrt(t1^2 - t0^2) sin phi).

    Empty when |t0| > t1 (no real root of t0 + t1 cos k).
    """
    if abs(t0) > t1:
        return []
    root = np.sqrt(t1**2 - t0**2)
    return [float(t_p / t1 * (-t0 * np.cos(phi) + s * root * np.sin(phi)))
            for s in (+1.0, -1.0)]


@dataclass
class CorrelationTrace:
    times: np.ndarray
    distances: np.ndarray         # Frobenius distance to the empty steady state


def propagate_correlation(p: LadderParams, x0: int, times) -> CorrelationTrace:
    """Reference propagation C~(t) = e^{Xt} C~(0) e^{X^dagger t}, small sizes only.

    The initial condition is a single particle on (x0, A).  Dense matrix
    exponentials make this cubic per sample, hence the size guard; the routine
    exists to confirm the convergence class implied by the gap, not to scale.
    """
    if p.L > 40:
        raise ValueError("reference propagation is limited to L <= 40")
    X = build_damping(p).matrix
    e0 = np.zeros(p.dim, dtype=complex)
    e0[site_index(x0, "A")] = 1.0
    c0 = np.outer(e0, e0.conj())
    times = np.asarray(sorted(float(t) for t in times))
    if times.size == 0 or times[0] < 0:
        raise ValueError("need non-negative sample times")
    dists = np.empty(times.size)
    for i, t in enumerate(times):
        prop = sla.expm(X * t)
        dists[i] = np.linalg.norm(prop @ c0 @ prop.conj().T)
    return CorrelationTrace(times=times, distances=dists)


#: ratio of successive `geometric_edges`
_EDGE_FACTOR = 4.0


def geometric_edges(start, stop):
    """Edges start, start*_EDGE_FACTOR, ... covering up to |stop| (same sign).

    Suitable for 1/omega^p tails: each panel's width stays comparable to its
    distance from the origin, which keeps all features visible to the rule.
    """
    if start == 0 or stop == 0 or np.sign(start) != np.sign(stop):
        raise ValueError("start and stop must be nonzero with the same sign")
    if abs(stop) <= abs(start):
        return [float(start), float(stop)]
    edges = [float(start)]
    v = abs(start)
    while v * _EDGE_FACTOR < abs(stop):
        v *= _EDGE_FACTOR
        edges.append(float(np.sign(start) * v))
    edges.append(float(stop))
    return edges


def full_grid_edges(width, omega_max, folded):
    """First edges of a resolvent integral with the band window [-W, W],
    W = `width`, in 48 equal panels wherever the poles are, each tail
    [W, Omega] one span in v (`quadrature.tail_map`), and only the edges
    above an edge at exactly 0 where the integral is `folded`; of two edges
    within 1e-9 relative the first is kept."""
    v_max = 2.0 * width - width ** 2 / omega_max
    cand = set(np.linspace(-width, width, 49)) | {v_max, -v_max}
    if folded:
        cand = {0.0} | {e for e in cand if e > 0}
    cand = sorted(cand)
    edges = [cand[0]]
    for e in cand[1:]:
        if e - edges[-1] > 1e-9 * max(1.0, abs(e)):
            edges.append(e)
    return np.array(edges)


#: relative eigenpair residual above which `eigenpairs` sets its flag
RESIDUAL_RTOL = 1e-8


def eigenpairs(A: np.ndarray):
    """(eigenvalues, right vectors, residuals, condition flag) of a square matrix.

    The eigenvalues are sorted by (Re, Im), a float64 matrix solved in real
    arithmetic as `densela.eigendecompose` does, and the vectors are the
    columns aligned with them.  Each pair gets its relative residual
    ||A v - lambda v|| / (||v|| ||A||); the solver is treated as a black box
    and the residuals are the ground truth.  The flag is set when a residual
    exceeds RESIDUAL_RTOL or the eigenvector basis is numerically rank
    deficient (defective or near-defective input).  Skin-effect matrices
    under open boundaries trip it at moderate sizes; callers must not
    propagate with their eigenvectors.
    """
    A = np.asarray(A)
    A = A if A.dtype == np.float64 else A.astype(complex, copy=False)
    w, V = (a.astype(complex, copy=False) for a in np.linalg.eig(A))
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
        flag = bool(sv[-1] <= np.finfo(float).eps / RESIDUAL_RTOL * sv[0])
    return w, V, residuals, flag


#: steps after which `eigenpair_near` gives up: a C2 pair takes 5, and a
#: shift 0.4 of the way between two eigenvalues up to 74
_MAX_ITERATIONS = 200


def eigenpair_near(band, sigma: complex):
    """(E, v): the eigenpair of a `Banded` matrix A nearest sigma, by
    fixed-shift inverse iteration, v of unit norm in the band's site order.

    Each step solves (A - sigma) y = x with `lu_solve(band, x, shift=-sigma)`
    and takes x = y / ||y||.  The shift never moves, so the iterate converges
    to the eigenvector of the eigenvalue nearest sigma, by the factor
    |E - sigma| / |E' - sigma| per step (E' the next nearest); a Rayleigh
    quotient shift converges faster but can reach another eigenvalue.  As
    (A - sigma) y = x, E = sigma + <y, x> / <y, y> is y's Rayleigh quotient
    and ||x - (E - sigma) y|| / ||y|| its residual ||A v - E v||, so no
    matvec is needed; the iteration stops once that is <= 1e-14 ||A||_F.  The
    start is a fixed random vector, since a structured one (all ones) is
    orthogonal to every plane wave of a ring but the uniform one.  A shift
    on an eigenvalue raises `SingularMatrixError` by the pivot rule.
    """
    rng = np.random.default_rng(0)
    x = rng.normal(size=band.ab.shape[1]) + 1j * rng.normal(size=band.ab.shape[1])
    x /= np.linalg.norm(x)
    tol = 1e-14 * np.linalg.norm(band.ab)
    for _ in range(_MAX_ITERATIONS):
        y = lu_solve(band, x, shift=-sigma)
        norm_y = np.linalg.norm(y)
        theta = np.vdot(y, x) / norm_y ** 2
        residual = np.linalg.norm(x - theta * y) / norm_y
        x = y / norm_y
        if residual <= tol:
            return sigma + theta, x
    raise RuntimeError(f"inverse iteration at {sigma} did not converge in "
                       f"{_MAX_ITERATIONS} steps (residual {residual:.2e})")
