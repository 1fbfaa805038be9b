"""Scaling laws and burst phenomenology extracted from escape profiles.

The bulk of an escape profile decays either as a power of the distance from
the release cell or exponentially in it; which one wins is decided by fitting
both models on log-transformed data over a fixed bulk window and comparing
their r^2.  The window excludes the near field around the release cell and a
boundary layer at the edges:

    left side:  x in [x0 - floor(0.6 x0), x0 - 15], clipped to x >= 11
    right side: mirrored with the distance to the right edge in place of x0

Burst metrics compare each edge value against the running minimum of its own
side of the profile; an edge counts as bursting when it exceeds that minimum
by the (configurable) factor 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LadderParams, bloch_bands, h_x, h_y

POWER = "POWER"
EXP = "EXP"

NONE = "NONE"
LEFT = "LEFT"
RIGHT = "RIGHT"
BIPOLAR = "BIPOLAR"

BURST_THRESHOLD = 10.0

#: bulk-window construction constants (near-field cut, edge layer, depth,
#: fewest positive points)
NEAR_FIELD = 15
EDGE_LAYER = 10
WINDOW_FRACTION = 0.6
MIN_POINTS = 20


class WindowError(ValueError):
    """The requested bulk window has too few usable points."""


@dataclass
class FitResult:
    kind: str
    exponent: float               # alpha for POWER, ln(lambda) per site for EXP
    r_squared: float
    window: tuple
    n_points: int
    power_r2: float = 0.0
    exp_r2: float = 0.0
    n_excluded: int = 0


def _linfit(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((A @ coef - y) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(coef[0]), float(coef[1]), r2


def _window(x0, L, side):
    if side == LEFT:
        lo = max(EDGE_LAYER + 1, x0 - int(np.floor(WINDOW_FRACTION * x0)))
        hi = x0 - NEAR_FIELD
    elif side == RIGHT:
        depth = L + 1 - x0
        lo = x0 + NEAR_FIELD
        hi = min(L - EDGE_LAYER, x0 + int(np.floor(WINDOW_FRACTION * depth)))
    else:
        raise ValueError("side must be LEFT or RIGHT")
    return lo, hi


def fit_bulk(P, x0: int, side: str = LEFT) -> FitResult:
    """Classify the bulk decay of a profile P as power law or exponential.

    Fits log P against log d and against d (d the distance from x0) over the
    bulk window and returns the better model by r^2, with both fits' r^2.
    Non-positive profile values inside the window are dropped and counted.
    """
    P = np.asarray(P, dtype=float)
    L = P.size
    lo, hi = _window(x0, L, side)
    xs = np.arange(lo, hi + 1)
    if xs.size < MIN_POINTS:
        raise WindowError(f"bulk window [{lo}, {hi}] has {xs.size} points, "
                          f"need >= {MIN_POINTS}")
    vals = P[xs - 1]
    keep = vals > 0.0
    n_excluded = int((~keep).sum())
    xs, vals = xs[keep], vals[keep]
    if xs.size < MIN_POINTS:
        raise WindowError(f"only {xs.size} positive points in window "
                          f"[{lo}, {hi}] after excluding {n_excluded}")
    d = np.abs(xs - x0).astype(float)
    logp = np.log(vals)
    p_slope, _, p_r2 = _linfit(np.log(d), logp)
    e_slope, _, e_r2 = _linfit(d, logp)
    if p_r2 >= e_r2:
        kind, exponent, r2 = POWER, -p_slope, p_r2
    else:
        kind, exponent, r2 = EXP, e_slope, e_r2
    return FitResult(kind=kind, exponent=exponent, r_squared=r2,
                     window=(lo, hi), n_points=int(xs.size),
                     power_r2=p_r2, exp_r2=e_r2, n_excluded=n_excluded)


@dataclass
class BurstMetrics:
    p_edge_left: float | None
    p_edge_right: float | None
    ratio_left: float | None
    ratio_right: float | None
    burst_type: str


def burst_metrics(P, x0: int, threshold: float = BURST_THRESHOLD) -> BurstMetrics:
    """Edge-to-minimum ratios of a profile P and the resulting burst label.

    The left minimum runs over cells 1..x0 and the right one over x0..L, edge
    values included, so a monotone profile scores ratio 1.  A release at an
    edge leaves that side undefined (reported as None).
    """
    P = np.asarray(P, dtype=float)
    L = P.size
    if not 1 <= x0 <= L:
        raise ValueError("x0 outside the chain")
    def _side(edge, pmin):
        if pmin > 0:
            return edge, edge / pmin
        # an underflowed side (both zero) carries no burst evidence
        return edge, (np.inf if edge > 0 else 1.0)

    left = right = (None, None)         # (edge value, ratio) of each side
    if x0 > 1:
        left = _side(float(P[0]), float(P[:x0].min()))
    if x0 < L:
        right = _side(float(P[-1]), float(P[x0 - 1:].min()))
    burst_l = left[1] is not None and left[1] > threshold
    burst_r = right[1] is not None and right[1] > threshold
    burst = {(False, False): NONE, (True, False): LEFT,
             (False, True): RIGHT, (True, True): BIPOLAR}[(burst_l, burst_r)]
    return BurstMetrics(p_edge_left=left[0], p_edge_right=right[0],
                        ratio_left=left[1], ratio_right=right[1], burst_type=burst)


def x0_slopes(x0s, ratios, p_edges):
    """The two release-position fits of a scan, with their r^2.

    Returns (ratio_slope, ratio_r2, p_edge_rate, p_edge_r2) from log(ratio)
    against log(x0) and log(P_edge) against x0, all NaN when there are fewer
    than two releases or a left-edge value is missing (release at x0 = 1) or
    not positive.
    """
    if len(x0s) < 2 or not all(v is not None and v > 0 for v in [*ratios, *p_edges]):
        return (np.nan,) * 4
    xs = np.asarray(x0s, dtype=float)
    rs, _, rr2 = _linfit(np.log(xs), np.log(np.asarray(ratios, dtype=float)))
    es, _, er2 = _linfit(xs, np.log(np.asarray(p_edges, dtype=float)))
    return rs, rr2, es, er2


# ---------------------------------------------------------------------------
# momentum-space self-intersections

#: fewest k samples of a self-intersection search
MIN_K_SAMPLES = 512
#: segment pairs tested at once, which bounds the block temporaries
_BLOCK_PAIRS = 1 << 14
#: a crossing's Newton polish: |E(k1) - E(k2)| goal and iteration cap
_REFINE_TOL = 1e-10
_MAX_NEWTON = 40


def _band_derivative(p, gam, k, energy):
    # implicit derivative through s^2 = hx^2 + (hy + i gam/2)^2 on the branch
    # pinned by the energy itself (s = E + i gam/2)
    s = energy + 0.5j * gam
    if abs(s) < 1e-12:
        return None
    hx = complex(h_x(p.t, k))
    hy = complex(h_y(p.t_p, p.phi, k))
    dhx = sum(-m * tm * np.sin(m * k) for m, tm in enumerate(p.t))
    dhy = -p.t_p * np.sin(k - p.phi)
    return (hx * dhx + (hy + 0.5j * gam) * dhy) / s


@dataclass
class SelfIntersection:
    k1: float
    k2: float
    energy: complex


def self_intersections(params: LadderParams, k_samples: int = 1024) -> list:
    """Transversal self-crossings of the momentum-space spectral curve.

    Both branches are sampled on a k grid and continued: the square root
    changes sign wherever it would otherwise jump, so the samples close as
    two loops of N points, or as one loop of 2N points when the branches
    swap over one period.  Every pair of non-adjacent segments of these
    polylines is tested for an exact crossing (open parameter intervals,
    |sin angle| <= 1e-6 counts as parallel), and each hit is polished once
    with a two-variable Newton iteration on E(k1) - E(k2) = 0, seeded by the
    interpolated (k, E), and accepted only if the two tangent directions are
    genuinely transversal.  The tangency test is what discards the mirrored
    k <-> -k coincidences of the time-reversal-symmetric case, where the
    curve retraces itself instead of crossing.
    """
    if k_samples < MIN_K_SAMPLES:
        raise ValueError(f"need k_samples >= {MIN_K_SAMPLES}")
    gam = params.uniform_gamma
    if gam is None:
        raise ValueError("momentum-space form needs a uniform loss profile")
    ks = np.linspace(0.0, 2.0 * np.pi, k_samples, endpoint=False)
    up, down = bloch_bands(params, ks)
    s = up - down                       # twice the square root
    nxt = np.roll(s, -1)
    flips = np.abs(nxt - s) > np.abs(nxt + s)      # flag j: step k_j -> k_j+1
    swapped = np.concatenate([[False], np.logical_xor.accumulate(flips[:-1])])
    first, second = np.where(swapped, down, up), np.where(swapped, up, down)
    one_loop = bool(swapped[-1] ^ flips[-1])
    loops = [np.concatenate([first, second])] if one_loop else [first, second]
    m = loops[0].size
    start = np.concatenate(loops)
    seg = np.concatenate([np.roll(lp, -1) for lp in loops]) - start
    seg_k = np.tile(ks, 2)              # segment i runs over [k_i, k_i + dk]
    dk = 2.0 * np.pi / k_samples
    n_seg = start.size
    rows = max(1, _BLOCK_PAIRS // n_seg)
    found = []
    for i0 in range(0, n_seg, rows):
        i = np.arange(i0, min(i0 + rows, n_seg))[:, None]
        j = np.arange(i0 + 1, n_seg)[None, :]
        r, v, w = seg[i], seg[j], start[j] - start[i]
        cross = (np.conj(r) * v).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.conj(w) * v).imag / cross
            u = (np.conj(w) * r).imag / cross
        gap = j - i
        adjacent = (i // m == j // m) & ((gap == 1) | (gap == m - 1))
        hit = ((gap > 0) & ~adjacent
               & (np.abs(cross) > 1e-6 * np.abs(r) * np.abs(v))
               & (t > 0) & (t < 1) & (u > 0) & (u < 1))
        for a, b in zip(*np.nonzero(hit)):
            i1, i2 = i0 + a, i0 + 1 + b
            E = start[i1] + t[a, b] * seg[i1]
            polished = _polish_crossing(params, gam, seg_k[i1] + t[a, b] * dk, E,
                                        seg_k[i2] + u[a, b] * dk, E)
            if polished is not None:
                k1, k2, E = polished
                found.append(SelfIntersection(k1=min(k1, k2), k2=max(k1, k2),
                                              energy=E))
    found.sort(key=lambda s: (s.energy.real, s.k1))
    return found


def _polish_crossing(p, gam, k1, e1, k2, e2):
    two_pi = 2.0 * np.pi
    for it in range(_MAX_NEWTON):
        b1, b2 = bloch_bands(p, [k1, k2]).T
        e1 = b1[np.argmin(np.abs(b1 - e1))]
        e2 = b2[np.argmin(np.abs(b2 - e2))]
        g = e1 - e2
        d1 = _band_derivative(p, gam, k1, e1)
        d2 = _band_derivative(p, gam, k2, e2)
        if d1 is None or d2 is None:
            return None
        J = np.array([[d1.real, -d2.real], [d1.imag, -d2.imag]])
        det = np.linalg.det(J)
        if abs(det) < 1e-14 * (abs(d1) * abs(d2) + 1e-300):
            return None
        step = np.linalg.solve(J, -np.array([g.real, g.imag]))
        if np.abs(step).max() > 0.5:
            step *= 0.5 / np.abs(step).max()
        k1 = (k1 + step[0]) % two_pi
        k2 = (k2 + step[1]) % two_pi
        # near a tangency (phi near 0 or pi) rounding in g can keep every step
        # above 1e-12: the last iteration settles for the residual alone
        if abs(g) < _REFINE_TOL and (np.abs(step).max() < 1e-12 or it == _MAX_NEWTON - 1):
            break
    else:
        return None
    dk = abs(k1 - k2)
    dk = min(dk, two_pi - dk)
    if dk < 1e-3:
        return None
    # the energy of the final iterate, not of the one before the last step
    b1, b2 = bloch_bands(p, [k1, k2]).T
    e1 = b1[np.argmin(np.abs(b1 - e1))]
    e2 = b2[np.argmin(np.abs(b2 - e2))]
    d1 = _band_derivative(p, gam, k1, e1)
    d2 = _band_derivative(p, gam, k2, e2)
    if d1 is None or d2 is None or not abs(e1 - e2) < _REFINE_TOL:
        return None
    cross = abs((np.conj(d1) * d2).imag)
    if cross <= 1e-6 * abs(d1) * abs(d2):
        return None  # tangential or retraced, not a transversal crossing
    return float(k1), float(k2), complex(0.5 * (e1 + e2))
