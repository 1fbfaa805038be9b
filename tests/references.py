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
  integrates (`quadrature.tail_map`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from igclab import GeneralModel, LadderParams, build_damping, build_ladder, site_index
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
