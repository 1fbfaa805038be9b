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

from .model import LadderParams, bloch_bands, check_x0, h_x, h_y

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
    check_x0(x0, L)
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
    check_x0(x0, L)
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
#: a crossing's Newton polish: |Q(k1) - Q(k2)| goal and iteration cap
_REFINE_TOL = 1e-10
_MAX_NEWTON = 40


@dataclass
class SelfIntersection:
    k1: float
    k2: float
    energy: complex


def _symbol(p, gam, k):
    # Q = hx^2 + hy^2 + i gam hy = E^2 + i gam E, and its k-derivative
    hx, hy = h_x(p.t, k), h_y(p.t_p, p.phi, k)
    dhx = sum(-m * tm * np.sin(m * k) for m, tm in enumerate(p.t))
    dhy = -p.t_p * np.sin(k - p.phi)
    return hx**2 + hy * (hy + 1j * gam), 2.0 * hx * dhx + (2.0 * hy + 1j * gam) * dhy


def self_intersections(params: LadderParams, k_samples: int = 1024) -> list:
    """Transversal self-crossings of the momentum-space spectral curve.

    Both bands solve E^2 + i gam E = Q(k), Q = h_x^2 + h_y^2 + i gam h_y, so
    E(k1) = E(k2) on some pair of branches exactly when Q(k1) = Q(k2), and
    the single-valued Q closes as one loop of N samples.  Every pair of
    non-adjacent segments of that polyline is tested for an exact crossing
    (open parameter intervals, |sin angle| <= 1e-6 counts as parallel); each
    hit is polished by a two-variable Newton iteration on Q(k1) - Q(k2) = 0,
    seeded by the interpolated k, and kept only if Q'(k1), Q'(k2) are
    transversal (the square root is conformal: E's tangents cross at the same
    angle), |k1 - k2| >= 1e-3, E is not the exceptional point -i gam / 2, and
    no kept crossing lies within one grid step of it in both momenta.  The
    tangency test discards the mirrored k <-> -k coincidences of the
    time-reversal-symmetric case, where the curve retraces itself.  Each
    crossing is reported at both its energies, E and -i gam - E.
    """
    if k_samples < MIN_K_SAMPLES:
        raise ValueError(f"need k_samples >= {MIN_K_SAMPLES}")
    gam = params.uniform_gamma
    if gam is None:
        raise ValueError("momentum-space form needs a uniform loss profile")
    ks = np.linspace(0.0, 2.0 * np.pi, k_samples, endpoint=False)
    start = _symbol(params, gam, ks)[0]
    seg = np.roll(start, -1) - start
    dk = 2.0 * np.pi / k_samples
    rows = max(1, _BLOCK_PAIRS // k_samples)
    pairs = []
    for i0 in range(0, k_samples, rows):
        i = np.arange(i0, min(i0 + rows, k_samples))[:, None]
        j = np.arange(i0 + 1, k_samples)[None, :]
        r, v, w = seg[i], seg[j], start[j] - start[i]
        cross = (np.conj(r) * v).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.conj(w) * v).imag / cross
            u = (np.conj(w) * r).imag / cross
        gap = j - i
        hit = ((gap > 1) & (gap < k_samples - 1)
               & (np.abs(cross) > 1e-6 * np.abs(r) * np.abs(v))
               & (t > 0) & (t < 1) & (u > 0) & (u < 1))
        for a, b in zip(*np.nonzero(hit)):
            k = _polish_crossing(params, gam, ks[i0 + a] + t[a, b] * dk,
                                 ks[i0 + 1 + b] + u[a, b] * dk)
            # a near-tangent crossing can cut the polyline more than once
            if k is not None and not any(
                    max(_circ(k[0], c), _circ(k[1], d)) < dk
                    or max(_circ(k[0], d), _circ(k[1], c)) < dk for c, d in pairs):
                pairs.append(k)
    return sorted((SelfIntersection(k1=k1, k2=k2, energy=complex(E))
                   for k1, k2 in pairs for E in bloch_bands(params, [k1])[:, 0]),
                  key=lambda s: (s.energy.real, s.k1))


def _circ(a, b):
    return np.pi - abs(np.pi - abs(a - b) % (2.0 * np.pi))


def _polish_crossing(p, gam, k1, k2):
    for it in range(_MAX_NEWTON):
        (q1, q2), (d1, d2) = _symbol(p, gam, np.array([k1, k2]))
        g = q1 - q2
        J = np.array([[d1.real, -d2.real], [d1.imag, -d2.imag]])
        if abs(np.linalg.det(J)) < 1e-14 * (abs(d1) * abs(d2) + 1e-300):
            return None
        step = np.linalg.solve(J, -np.array([g.real, g.imag]))
        step /= max(1.0, 2.0 * np.abs(step).max())      # at most 0.5 per step
        k1, k2 = (k1 + step[0]) % (2.0 * np.pi), (k2 + step[1]) % (2.0 * np.pi)
        # near a tangency (phi near 0 or pi) rounding in g can keep every step
        # above 1e-12: the last iteration settles for the residual alone
        if abs(g) < _REFINE_TOL and (np.abs(step).max() < 1e-12 or it == _MAX_NEWTON - 1):
            break
    else:
        return None
    # the final iterate: residual, exceptional point, tangent or retraced curve
    (q1, q2), (d1, d2) = _symbol(p, gam, np.array([k1, k2]))
    if (_circ(k1, k2) < 1e-3 or not abs(q1 - q2) < _REFINE_TOL
            or abs(q1 - 0.25 * gam**2) < 1e-24
            or abs((np.conj(d1) * d2).imag) <= 1e-6 * abs(d1) * abs(d2)):
        return None
    return float(min(k1, k2)), float(max(k1, k2))
