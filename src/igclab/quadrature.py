"""Globally adaptive Gauss-Kronrod quadrature for vector-valued integrands.

The 7/15-point pair gives each panel an integral estimate and an embedded
error per component; the driver keeps splitting the panel that violates its
component-wise accuracy goal the worst, until every component meets
max(rtol * |I|, atol_frac * sum|I|) or the panel budget runs out.  The
absolute floor rides on the aggregate scale so that components orders of
magnitude below the dominant ones still converge in relative terms.

Frequency-response integrands in this package are expensive (one LU solve per
node), so the driver is written around batched evaluations: the integrand
receives all 15 panel nodes at once and returns an (n_nodes, n_components)
array.

An algebraically decaying tail is integrated in a compactified variable, as
QUADPACK's QAGI does for infinite ranges (Piessens et al., Springer 1983):
`tail_map` carries |omega| >= width onto |v| in [width, 2 width), where a
tail with no pole near it is smooth, and it starts as one panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights, with the
# embedded 7-point Gauss weights.  Values match the classical QUADPACK tables;
# the unit tests pin them down via polynomial exactness.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

#: all 15 nodes in ascending order
NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W15 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_POS = np.arange(1, 15, 2)          # Gauss nodes sit at the odd slots
_W7 = np.concatenate([_WG[:3], _WG[3:], _WG[2::-1]])


@dataclass
class QuadratureResult:
    value: np.ndarray
    error: np.ndarray
    n_panels: int
    n_evaluations: int
    converged: bool


def kronrod_panel(f, a, b):
    """One 15-point panel on [a, b]; returns (integral, error_estimate)."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fx = np.asarray(f(c + h * NODES), dtype=float)
    i15 = h * (_W15 @ fx)
    i7 = h * (_W7 @ fx[_GAUSS_POS])
    return i15, np.abs(i15 - i7)


def tail_map(v, width):
    """omega(v) and d omega/dv of the tail compactification beyond `width`.

    Exactly (v, 1) on |v| <= width; beyond it omega = sign(v) width^2 /
    (2 width - |v|) and d omega/dv = (omega/width)^2, both continuous at
    |v| = width, and |omega| = Omega at |v| = 2 width - width^2/Omega.
    """
    r = width / (2.0 * width - np.maximum(np.abs(v), width))
    return np.where(r > 1.0, np.copysign(width * r, v), v), r * r


def adaptive_quadrature(f, edges, rtol=1e-9, atol_frac=1e-16,
                        max_panels=4000) -> QuadratureResult:
    """Refine Gauss-Kronrod panels over the given edges to per-component goals.

    Parameters
    ----------
    f : callable
        Vectorized integrand: f(omegas) -> array (len(omegas), m).
    edges : sequence of float
        Ascending initial panel boundaries.
    rtol, atol_frac : float
        Per-component goal max(rtol*|I_j|, atol_frac*sum_j|I_j|), re-evaluated
        against the running totals as refinement proceeds.
    max_panels : int
        Hard budget; on exhaustion the achieved error is reported and the
        result is flagged unconverged.
    """
    edges = [float(e) for e in edges]
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    # panels as [a, b, value]; their error estimates live only in `errs`, one
    # row each in the order of `panels`, so the worst panel is found by one
    # array reduction per refinement
    panels, errs0 = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        val, e = kronrod_panel(f, a, b)
        panels.append([a, b, val])
        errs0.append(e)
    total = np.sum([p[2] for p in panels], axis=0)
    err = np.sum(errs0, axis=0)
    errs = np.empty((max(len(panels), max_panels) + 1,) + np.shape(err))
    errs[:len(panels)] = errs0
    del errs0
    evals = 15 * len(panels)
    while True:
        goal = np.maximum(rtol * np.abs(total), atol_frac * np.abs(total).sum())
        np.maximum(goal, 1e-300, out=goal)
        converged = bool(np.all(err <= goal))
        if converged or len(panels) >= max_panels:
            break
        # worst panel by its largest goal violation; leftmost wins ties
        n = len(panels)
        ratios = (errs[:n] / goal).reshape(n, -1).max(axis=1)
        j = int(np.argmax(ratios))
        m = 0.5 * (panels[j][0] + panels[j][1])
        if not (panels[j][0] < m < panels[j][1]):
            # interval exhausted at working precision; keep it as is
            break
        a, b, val_old = panels.pop(j)
        err_old = errs[j].copy()
        errs[j:n - 1] = errs[j + 1:n]
        left = kronrod_panel(f, a, m)
        right = kronrod_panel(f, m, b)
        panels.append([a, m, left[0]])
        panels.append([m, b, right[0]])
        errs[n - 1] = left[1]
        errs[n] = right[1]
        evals += 30
        total = total - val_old + left[0] + right[0]
        err = err - err_old + left[1] + right[1]
    return QuadratureResult(value=total, error=err, n_panels=len(panels),
                            n_evaluations=evals, converged=converged)
