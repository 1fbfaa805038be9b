"""Dissipative quantum walks and their per-cell escape probabilities.

A walker released on one A site evolves under the non-Hermitian ladder
Hamiltonian; probability leaks out through the B sites only.  Two engines
compute the escape profile P_x and serve as mutual cross-checks:

* the time engine integrates the Schroedinger equation with the adaptive
  Runge-Kutta pair of `ode` and accumulates 2 gamma_x |psi_x^B|^2 as its
  rider integral, so the quadrature rides at the integrator's own order.
  The state is kept in `band_order`, so -i H psi is one BLAS band matvec
  (`gbmv`) on the band `build_ladder` writes (half-bandwidth 2n+1 under
  OBC, 4n+1 under folded PBC, no corner blocks), at O(n L) per stage
  instead of the dense O(L^2).  Where H has a real gauge form
  D^-1 H D = i R (cos(phi) = 0 or t_p = 0; see `LadderOperator.gauge_form`)
  the engine integrates phi = D^-1 psi, d phi/dt = R phi, in real
  arithmetic with `dgbmv`: the release state is real on an A site, and
  |psi| = |phi| entrywise, so the rider, the error rule and the stop test
  read phi as they would psi; every other ladder takes `zgbmv`, and
* the resolvent engine evaluates the frequency-domain formula
  P_x = (gamma_x / pi) * integral |<x,B| (omega - H)^{-1} |x0,A>|^2 d omega
  by adaptive Gauss-Kronrod panels, one shifted band solve per node: the
  band -M is laid out once per integral and each node solves it shifted by
  s*omega.  Past the band window each tail is one span in the v of
  `quadrature.tail_map`.  Within it, the grid of 48 equal panels is kept
  only where a pole can be: by Bendixson's theorem every pole has
  |Re omega| <= rho = ||Herm(M/s)||_inf, so past rho + one grid step each
  side is one panel (`resolvent_integrand`).  A periodic ring with
  uniform loss is block diagonal in momentum, so its band is the L 2x2
  Bloch blocks (`LadderOperator.blocks`) as one tridiagonal matrix, and an
  inverse FFT takes the response back to the cells; every other ladder
  solves its own band (natural site order under OBC, folded cells under
  PBC, so the half-bandwidth is 2n+1 or 4n+1 whatever L is).  The same integrand, with
  the damping matrix X = i conj(H) in place of H, gives the steady density
  in `liouville`, and `resolvent_result` reads both quadratures into values
  and a flag.  Where the operator has a real gauge form (c, R) with c/s =
  +-i (H at s = 1, X at s = i, both at cos(phi) = 0 or t_p = 0) the
  integrand is even in omega, so the integral is folded onto omega >= 0:
  half the solves, the values and error estimates doubled, and each folded
  panel counted twice against the caller's panel budget.

The two engines share only the operator build: the time engine's matvec and
the resolvent engine's solves are separate code, so that their agreement
stays an independent check.

Eigendecomposition is deliberately not used for propagation: the open-chain
eigenbasis of these skin-effect models is exponentially ill-conditioned and
its spectral expansion cannot be trusted at the sizes studied here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_blas_funcs

from . import densela
from .model import LadderOperator, LadderParams, build_ladder, check_x0, site_index
from .ode import PAIR, integrate
from .quadrature import adaptive_quadrature, tail_map

TIME = "TIME"
RESOLVENT = "RESOLVENT"

#: resolvent frequency window is chosen so this crude tail bound holds
TAIL_BOUND = 1e-8

#: relative quadrature goal of the resolvent integrals (profile and density)
RESOLVENT_RTOL = 1e-9


@dataclass(frozen=True)
class WalkConfig:
    """A walk experiment: model, release cell, and stopping/tolerance knobs."""

    params: LadderParams
    x0: int
    t_max: float = 20000.0
    norm_floor: float = 1e-10
    step_tol: float = 1e-8

    def __post_init__(self):
        check_x0(self.x0, self.params.L)
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not 0 < self.norm_floor < 1:
            raise ValueError("norm_floor must lie in (0, 1)")
        if not 0 < self.step_tol < 1e-2:
            raise ValueError("step_tol out of range")


@dataclass
class LossProfile:
    """Escape probability per unit cell, with provenance."""

    P: np.ndarray
    engine: str
    incomplete: bool = False
    diagnostics: dict = field(default_factory=dict)


def _initial_state(p: LadderParams, x0: int) -> np.ndarray:
    psi0 = np.zeros(2 * p.L, dtype=complex)
    psi0[site_index(x0, "A")] = 1.0
    return psi0


def _band_rhs(ab: np.ndarray, kl: int, ku: int, alpha):
    """The walk's rhs alpha A psi, A the band `ab` (kl, ku): one BLAS `gbmv`.

    The time engine passes (H, -1j) on psi or, in the real gauge, (R, 1.0)
    on phi; `ab`'s dtype picks `zgbmv` or `dgbmv`.  Every call writes into,
    and returns, the same buffer.
    """
    n = ab.shape[1]
    ab = np.asfortranarray(ab)
    gbmv = get_blas_funcs("gbmv", (ab,))
    # scipy's wrapper wants at least kl + ku + 1 rows, more than a short ring
    # with long couplings has; the extra rows read the zeros band storage
    # keeps outside the matrix, so they write zeros past psi
    m = max(n, kl + ku + 1)
    full = np.zeros(m, dtype=ab.dtype)
    out = full[:n]

    def rhs(_, psi):
        # positional: (m, n, kl, ku, alpha, a, x, incx, offx, beta, y, incy,
        # offy, trans, overwrite_y); keywords cost f2py a third of the call
        gbmv(m, n, kl, ku, alpha, ab, psi, 1, 0, 0.0, full, 1, 0, 0, 1)
        return out

    return rhs


def _loss_rates(op: LadderOperator, gamma: np.ndarray):
    """The walk's rider rates 2 gamma_x |psi_x^B|^2, for a stack of states.

    The states are in `op.order`, so the B sites are psi[:, 1::2], and there
    is one accumulator per cell in the order the cells' A-B pairs take there.
    A float64 stack (the real gauge) is squared directly: |x| is exact for a
    real x, so x*x is |x|^2 bit for bit; a complex one takes |x| first.
    """
    two_gam = 2.0 * gamma[op.order[0::2] // 2]
    mag = np.empty((6, two_gam.size))     # at most a step's six stage states

    def rates(psi, out):
        # |psi_B|^2 in a contiguous buffer: ufuncs on the strided `out` the
        # integrator hands over are twice as slow
        sq = mag[:psi.shape[0]]
        if psi.dtype == np.float64:
            np.square(psi[:, 1::2], out=sq)
        else:
            np.abs(psi[:, 1::2], out=sq)
            np.square(sq, out=sq)
        np.multiply(sq, two_gam, out=out)

    return rates


def loss_profile_time(cfg: WalkConfig) -> LossProfile:
    """Escape profile accumulated along the adaptive trajectory.

    The walker is propagated until the norm floor or the time ceiling.  The
    state is integrated in `band_order`, where H is the band of
    `build_ladder` (see `_band_rhs`), or as phi = D^-1 psi in real arithmetic
    where H has a real gauge form (module header; `arithmetic` in the
    diagnostics reads "real" or "complex").  The escaped probabilities are the
    integrator's rider (see `_loss_rates`), one accumulator per cell after
    psi in the state.  `ode.integrate`'s error rule, at `step_tol`, weighs
    psi against its largest entry and the accumulators against unit
    probability, and flushes psi's subnormal far tail; the walk adds only
    its norm-floor stop.

    The truncated remainder of the time integral is bounded by the residual
    norm (whatever probability is still in the system must eventually leave
    through some B site); the bound is reported, not folded into P.  In
    continuous time sum P + residual norm = 1 exactly, so the reported
    `conservation_defect` |1 - sum P - residual| is the accumulated
    integration error of the escape probabilities.
    """
    p = cfg.params
    op = build_ladder(p)
    order, b = op.order, op.band
    n = order.size
    form = op.gauge_form()
    real = form is not None and form[0] == 1j
    psi0 = _initial_state(p, cfg.x0)[order]
    if real:
        # the release site is an A site, where D = 1: phi0 = psi0
        rhs, psi0 = _band_rhs(form[1], b.kl, b.ku, 1.0), psi0.real
    else:
        rhs = _band_rhs(b.ab, b.kl, b.ku, -1j)
    y0 = np.concatenate([psi0, np.zeros(p.L)])
    res = integrate(rhs, y0, 0.0, cfg.t_max, rtol=cfg.step_tol,
                    stop_fn=lambda _, y: float(np.vdot(y[:n], y[:n]).real) < cfg.norm_floor,
                    rider=(_loss_rates(op, np.asarray(p.gamma)), p.L))
    norm_end = float(np.vdot(res.y[:n], res.y[:n]).real)
    escaped = np.empty(p.L)
    escaped[order[0::2] // 2] = res.y[n:].real
    P = np.maximum(escaped, 0.0)
    diag = {"n_steps": res.n_steps, "n_rejected": res.n_rejected,
            "n_rhs": res.n_rhs, "rk_pair": PAIR,
            "arithmetic": "real" if real else "complex", "residual_norm": norm_end,
            "t_end": res.t, "tail_bound": norm_end,
            "conservation_defect": abs(1.0 - float(P.sum()) - norm_end), "engine": TIME}
    # stopped early: the norm floor was reached before the time ceiling
    return LossProfile(P=P, engine=TIME, incomplete=not res.stopped_early,
                       diagnostics=diag)


def _resolvent_edges(width: float, rho: float, v_max: float,
                     folded: bool) -> np.ndarray:
    # the band window's grid of 48 equal panels, fine enough that no peak
    # hides between nodes, kept where |e| <= rho + one grid step: every pole
    # has |Re| <= rho (Bendixson), so each panel that can hold one is a grid
    # panel, and each side's pole-free rest up to W is one panel (on the C3
    # corner rho = 1.3 of W = 2.8, and 24 of the 48 grid panels stay), ahead
    # of the tail [W, Omega] as its one span in v (`tail_map`); a folded
    # integral keeps the edges above 0 and starts at exactly 0.  Edges can
    # still nearly coincide (the window's midpoint next to that 0, or v_max
    # next to W at a tiny gamma_max): keep the first
    grid = np.linspace(-width, width, 49)
    grid = grid[np.abs(grid) <= rho + (grid[1] - grid[0])]
    cand = set(grid) | {width, -width, v_max, -v_max}
    if folded:
        cand = {0.0} | {e for e in cand if e > 0}
    cand = sorted(cand)
    edges = [cand[0]]
    for e in cand[1:]:
        if e - edges[-1] > 1e-9 * max(1.0, abs(e)):
            edges.append(e)
    return np.array(edges)


def resolvent_integrand(p: LadderParams, x0: int, op: LadderOperator, s: complex):
    """Frequency-domain integrand of the B-site response to a source at (x0, A).

    Sets up the integral of |<x,B| (s*omega - M)^{-1} |x0,A>|^2 over omega,
    with s = 1 for the Hamiltonian and s = i for the damping matrix, M being
    `op` (`build_ladder(p)` or `build_damping(p)`).  The window
    [-Omega, Omega] is fixed by the crude operator-norm tail bound
    (gamma_max/pi) * 2 / (Omega - ||M||_inf) < TAIL_BOUND.  The integrand
    makes one `densela.lu_solve(neg, rhs, shift=s*omega)` call per node on a
    band `neg` built once: on a periodic ring with uniform loss (`op.ring`),
    the L 2x2 blocks -B_j, B = `op.blocks()`, as one tridiagonal band whose
    B components an inverse FFT over k takes to the cells; on any other
    ladder, -M in the sites' `band_order`.

    Edges and nodes are in v (`quadrature.tail_map`, W = ||M||_inf + 1):
    omega = v on the band window, each tail [W, Omega] is the span
    [W, 2W - W^2/Omega], and there the integrand carries d omega/dv.  A pole,
    an eigenvalue |E| <= W - 1 of M, maps to v = 2W - W^2/E, at least
    W/(W - 1) >= 1 from that span, so each tail starts as that one panel.
    Every pole omega = E/s of the integrand also has |Re omega| <= rho =
    ||Herm(M/s)||_inf, the largest row sum of |(M/s + (M/s)^dagger)/2|: by
    Bendixson's theorem (Acta Math. 25 (1902) 359) the eigenvalues of M/s
    have real parts within those of its Hermitian part, whose largest
    modulus the row sums bound (Gershgorin), and past that strip the
    resolvent's norm is at most 1/(|omega| - rho).  So the window [-W, W]
    starts as a grid of 48 equal panels only where |e| <= rho + one grid
    step: every panel that can hold a pole is a grid panel, and each side's
    pole-free rest, up to W, is one panel.  The Hermitian part of H (or of
    X/i = conj(H)) never reads gamma, so the initial edges read W, Omega and
    rho, no loss profile, and the adaptive split finds the peaks.

    With a `gauge_form` (c, R) of `op` and c/s purely imaginary (c = i for
    H at s = 1, c = 1 for X at s = i), D^-1 (s omega - M) D = s (omega -+ i R)
    with R real, so the response at -omega is minus the conjugate of the one
    at omega and |D| = 1 entrywise: the integrand is even.  Its edges are
    then the window's non-negative half, from an edge at exactly 0, and
    `folded` is true; `resolvent_result` doubles the integral, and the
    callers give the quadrature half their panel budget.  Every other
    ladder keeps the whole window.

    Returns (integrand, edges, Omega, tail_bound, info), info naming the
    `solver` ("bloch_blocks" or "banded"), for the banded one its
    `bandwidth` [kl, ku], whether the integral is `folded`, and rho as its
    `pole_bound`.  A lossless model (every gamma_x = 0) has no such window
    and raises ValueError, as does any window whose Omega does not exceed
    ||M||_inf or whose Omega, v_max or tail bound is not finite (a gamma_max
    near 1e-300 or below against ||M||_inf), before any solve.
    """
    gam = np.asarray(p.gamma)
    if not gam.any():
        raise ValueError("lossless model (every gamma_x = 0): the integrand "
                         "does not decay, so there is no frequency window")
    # the row sums of M are the column sums of its transpose; column i of
    # the transpose's band is row i of M, and column i of M's band, conjugated,
    # is row i of M^dagger, on the same offsets since kl = ku (each hop is
    # written with its Hermitian partner): rho (docstring) sums their mean
    ab_t = op.band.T.ab
    m_inf = float(np.abs(ab_t).sum(axis=0).max())
    rho = float(np.abs(0.5 * (ab_t / s + np.conj(op.band.ab / s))).sum(axis=0).max())
    g_max = float(gam.max())
    omega_max = m_inf + 2.0 * g_max / (np.pi * TAIL_BOUND)
    width = m_inf + 1.0
    v_max = 2.0 * width - width ** 2 / omega_max
    tail_bound = g_max / np.pi * 2.0 / (omega_max - m_inf) if omega_max > m_inf else np.inf
    if not np.isfinite([omega_max, v_max, tail_bound]).all():
        raise ValueError(f"no frequency window for gamma_max = {g_max:.3g} against "
                         f"||M||_inf = {m_inf:.3g}: Omega = {omega_max:.3g}, v_max = "
                         f"{v_max:.3g}, tail bound = {tail_bound:.3g}")
    # an even integrand (docstring) where c/s = +-i
    form = op.gauge_form()
    folded = form is not None and (form[0] / s).real == 0.0
    edges = _resolvent_edges(width, rho, v_max, folded)
    if op.ring:
        # s*omega - M is block diagonal in momentum: its L 2x2 blocks
        # s*omega - B_j are one tridiagonal band of order 2L (cells' (A, B)
        # pairs in turn, zero couplings between blocks), solved against the A
        # component of each; a panel's B components go to cell space in one
        # inverse FFT, where cell x reads the transform at (x - x0) mod L
        blocks = -op.blocks()
        ab = np.zeros((3, 2 * p.L), dtype=complex)
        ab[0, 1::2], ab[2, 0::2] = blocks[:, 0, 1], blocks[:, 1, 0]
        ab[1] = blocks.diagonal(0, 1, 2).ravel()
        neg, rhs = densela.Banded(ab, 1, 1), np.tile([1.0 + 0j, 0.0], p.L)
        cells = (np.arange(p.L) - (x0 - 1)) % p.L
        info = {"solver": "bloch_blocks", "folded": folded, "pole_bound": rho}
    else:
        # s*omega - M in the sites' band order, read at each cell's B site
        neg = densela.Banded(-op.band.ab, op.band.kl, op.band.ku)
        rhs = _initial_state(p, x0)[op.order]
        cells = np.argsort(op.order)[np.arange(p.L) * 2 + 1]
        info = {"solver": "banded", "bandwidth": [neg.kl, neg.ku], "folded": folded,
                "pole_bound": rho}

    def f(vs):
        omegas, jac = tail_map(vs, width)
        g = np.empty((omegas.size, rhs.size), dtype=complex)
        # the panel's shifts in one product; as Python complexes, each node's
        # pivot bound is Python float arithmetic
        for i, z in enumerate((s * omegas).tolist()):
            g[i] = densela.lu_solve(neg, rhs, shift=z)
        # the Kronrod sums round differently on C- and F-ordered values, so each
        # path keeps its layout, in place too: switching it moves P in the last bits
        resp = np.fft.ifft(g[:, 1::2], axis=1)[:, cells] if op.ring else g.take(cells, axis=1)
        out = np.abs(resp) ** 2
        return np.multiply(out, jac[:, None], out=out)

    return f, edges, omega_max, tail_bound, info


#: `resolvent_result`'s keys where every gamma_x = 0: no window, no solve, and
#: a total of 0 reads a conservation defect of 1 within a budget of 0
LOSSLESS_DIAGNOSTICS = {"note": "lossless model, nothing escapes", "n_nodes": 0,
                        "n_panels": 0, "n_solves": 0, "solver": None, "folded": False,
                        "pole_bound": None, "omega_max": None, "tail_bound": 0.0,
                        "quadrature_error": 0.0, "conservation_defect": 1.0,
                        "conservation_budget": 0.0, "converged": True}


def resolvent_result(quad, gam: np.ndarray, omega_max: float, tail_bound: float,
                     info: dict):
    """Values, flag and diagnostics of a finished resolvent quadrature.

    `quad` integrates `resolvent_integrand`'s integrand (window `omega_max`,
    truncation `tail_bound`, solver `info`); each cell's value is gamma_x/pi
    times its integral.  A `folded` integral covered omega >= 0 only, so its
    values and error estimates are doubled (exact in binary); the caller
    gave it half the full window's `max_panels`, each folded panel standing
    for two, so the fold grants no larger budget and changes no flag.  No
    ladder lets more than the released unit of probability escape (nor
    feeds more density than that), so a total above
    1 + `conservation_budget` means the quadrature missed or misjudged a
    feature its error estimate did not see.  The budget is the tail bound,
    plus the quadrature's error estimates summed over the cells, plus a
    rounding allowance of n_nodes eps: each cell's value is a sum of
    nonnegative Kronrod terms over at most n_nodes nodes, which rounds by at
    most that much of the total.  The flag is true when the quadrature
    converged and the total stays within the budget; `converged` in the
    diagnostics is the quadrature's own verdict.  Returns (values, flag,
    diagnostics).
    """
    values = gam / np.pi * quad.value
    err = gam / np.pi * quad.error
    if info["folded"]:
        values, err = 2.0 * values, 2.0 * err
    total = float(values.sum())
    budget = float(tail_bound + np.sum(err) + quad.n_evaluations * np.finfo(float).eps)
    diag = {
        "n_nodes": quad.n_evaluations,
        "n_panels": quad.n_panels,
        "n_solves": quad.n_evaluations,     # one solve call per node
        **info,
        "omega_max": omega_max,
        "tail_bound": tail_bound,
        "quadrature_error": float(err.max()),
        "conservation_defect": abs(1.0 - total),
        "conservation_budget": budget,
        "converged": quad.converged,
    }
    # `<=` so that a NaN total fails closed too
    return values, quad.converged and total <= 1.0 + budget, diag


def loss_profile_resolvent(cfg: WalkConfig, max_panels: int = 4000) -> LossProfile:
    """Escape profile from the frequency-domain resolvent formula.

    The integrand and its window come from `resolvent_integrand` with s = 1;
    the actual truncation error is far smaller than the reported tail bound
    because off-diagonal resolvent elements decay faster than 1/omega.
    Without any loss the integrand would not decay, so that limit is an
    exactly zero profile (`LOSSLESS_DIAGNOSTICS`).  Otherwise every released
    walker escapes, so `conservation_defect` |1 - sum P| measures truncation
    and quadrature error together (a dark mode keeps sum P below 1).
    A profile that `resolvent_result` does not pass (sum P above 1 by
    more than its `conservation_budget`, or an unconverged quadrature) is
    flagged incomplete.  `max_panels` is the full window's budget: a folded
    integral (`resolvent_integrand`) spends it two panels at a time.
    """
    p = cfg.params
    gam = np.asarray(p.gamma)
    if np.all(gam == 0.0):
        return LossProfile(P=np.zeros(p.L), engine=RESOLVENT,
                           diagnostics={"engine": RESOLVENT, **LOSSLESS_DIAGNOSTICS})
    f, edges, omega_max, tail_bound, info = resolvent_integrand(
        p, cfg.x0, build_ladder(p), 1.0)
    quad = adaptive_quadrature(f, edges, rtol=RESOLVENT_RTOL, atol_frac=1e-16,
                               max_panels=max_panels // (2 if info["folded"] else 1))
    P, ok, diag = resolvent_result(quad, gam, omega_max, tail_bound, info)
    return LossProfile(P=P, engine=RESOLVENT, incomplete=not ok,
                       diagnostics={"engine": RESOLVENT, **diag})
