"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The four checks named `*_as_stated` test their clause in the form
the finite L=200 matrix and a double-precision eigensolve can show it:

* The paper's surviving modes live on the periodic spectrum at a continuous
  momentum k*, a root of F(k) = sum_m t_m cos(m k).  At t = [0.3, 0.5],
  k* = arccos(-0.6) is an irrational multiple of pi, so it is never on the
  ring grid 2*pi*j/L.  Since Im E = -sum_x gamma_x |psi_Bx|^2 / |psi|^2, a
  real eigenvalue with every gamma_x > 0 needs an A-only eigenvector, which on
  the ring needs F = 0 at a grid momentum.  C1b, C2 and C8d therefore check
  the clause on the Bloch matrix at k*, on the plane wave at k* away from the
  ring's seam, and as bounds set by F at the nearest grid momentum.
* Under open boundaries the eigenvalue condition numbers reach 1e26 to 1e105,
  so two separate eigensolves of X and i conj(H) disagree far above 1e-9.
  C8b compares the spectra directly where the reference eigensolve
  (`references.eigenpairs`) leaves both unflagged, reading its condition
  flag, and compares power sums, which stay well conditioned, everywhere.

Each of them also has a companion test that carries the literal clause at
commensurate couplings or at a well-conditioned size.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import igclab as il
from igclab import OBC, PBC
from igclab.cli import execute, main as cli_main
from igclab.model import h_x, h_y
from references import (
    build_bloch, eigenpair_near, eigenpairs, igc_energies_closed_form, propagate_correlation,
)


def _report(tag, ok, detail=""):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def fig3(t0=0.3, gamma=0.5, bc=OBC, L=200, t2=None, phi=np.pi / 2):
    t = [t0, 0.5] if t2 is None else [t0, 0.5, t2]
    return il.LadderParams(L=L, t=t, t_p=0.5, phi=phi, gamma=gamma, bc=bc)


LINEAR = il.linear_gamma(200, 0.01, 0.20)
COMMENSURATE_T0 = 0.5 * np.cos(2 * np.pi / 5)
COMMENSURATE_E = 0.5 * np.sin(3 * np.pi / 5)
#: +/-COMMENSURATE_E are eigenvalues of the commensurate ring whatever its
#: loss, and a shift on an eigenvalue leaves the band singular to the pivot
#: rule; C2c's inverse iteration shifts this far off them instead, far
#: nearer its target than any other eigenvalue
_OFF_EIGENVALUE = 1e-9

CORNERS = [(0.3, "uniform"), (0.3, "linear"), (0.6, "uniform"), (0.6, "linear")]


def _corner_params(t0, profile):
    return fig3(t0=t0, gamma=(0.5 if profile == "uniform" else LINEAR))


@dataclass(frozen=True)
class GridRoot:
    """A root k* of F and the ring momentum k_j = 2*pi*j/L nearest to it."""

    k: float        # k*
    energy: float   # h_y(k*), the surviving-mode energy
    k_j: float
    dk: float       # |k_j - k*| on the circle
    F_j: float      # F(k_j)
    eps_j: float    # h_y(k_j), the chain-A energy at k_j


@dataclass(frozen=True)
class RingGrid:
    ks: np.ndarray     # 2*pi*j/L, j = 0..L-1
    f_L: float         # min_j |F(2*pi*j/L)|
    roots: tuple       # one GridRoot per solved k*
    on_grid: bool      # a root of F lies on the grid


def _ring_grid(p):
    """What the momentum grid of an L-cell ring makes of the roots of F.

    Built from the couplings (h_x, h_y and the solved k*) and L only, never
    from an eigenvalue: these are the a-priori numbers the finite-ring
    checks compare the spectrum with.
    """
    ks = 2 * np.pi * np.arange(p.L) / p.L
    F = h_x(p.t, ks)
    roots = []
    for pt in il.solve_connection(p.t, p.t_p, p.phi).points:
        d = np.abs((ks - pt.k + np.pi) % (2 * np.pi) - np.pi)
        j = int(d.argmin())
        roots.append(GridRoot(k=pt.k, energy=pt.energy, k_j=ks[j], dk=d[j],
                              F_j=F[j], eps_j=float(h_y(p.t_p, p.phi, ks[j]))))
    f_L = float(np.abs(F).min())
    return RingGrid(ks=ks, f_L=f_L, roots=tuple(roots),
                    on_grid=f_L <= 1e-12 * np.abs(p.t).sum())


def _a_plane_wave(k, L):
    """Unit plane wave e^{i k x} on the A sites (x = 1..L), zero on B."""
    v = np.zeros(2 * L, dtype=complex)
    v[0::2] = np.exp(1j * k * np.arange(1, L + 1)) / np.sqrt(L)
    return v


def _pair_near(op, sigma):
    """The eigenpair of ladder operator `op` nearest sigma by inverse iteration
    on its band (`references.eigenpair_near`), the vector in natural order."""
    E, v = eigenpair_near(op.band, sigma)
    natural = np.empty_like(v)
    natural[op.order] = v
    return E, natural


def _b_weight(v):
    return np.linalg.norm(v[1::2]) ** 2 / np.linalg.norm(v) ** 2


@pytest.fixture(scope="module")
def corner_profiles():
    """TIME and RESOLVENT profiles for the four corner configurations.

    The stopping floor is tightened to 1e-12 (the spec default is 1e-10):
    at 1e-10 the walk stops while slow skin modes still carry weight towards
    the left edge, which biases the left-edge cells.  Wall time per engine is
    recorded for criterion 3.
    """
    out = {}
    for t0, profile in CORNERS:
        cfg = il.WalkConfig(params=_corner_params(t0, profile), x0=150,
                            norm_floor=1e-12)
        t_start = time.perf_counter()
        pt = il.loss_profile_time(cfg)
        t_mid = time.perf_counter()
        pr = il.loss_profile_resolvent(cfg)
        out[(t0, profile)] = (pt, pr, t_mid - t_start,
                              time.perf_counter() - t_mid)
    return out


# --- criterion 1 --------------------------------------------------------------

def test_c1_connection_solver_and_closed_form():
    """Exactly two roots with energies +/-0.4, against the closed form."""
    t_start = time.perf_counter()
    sol = il.solve_connection([0.3, 0.5], 0.5, np.pi / 2)
    closed = igc_energies_closed_form(0.3, 0.5, 0.5, np.pi / 2)
    elapsed = time.perf_counter() - t_start
    ok = (len(sol.points) == 2
          and sorted(pt.energy for pt in sol.points) == pytest.approx([-0.4, 0.4], abs=1e-10)
          and sorted(closed) == pytest.approx([-0.4, 0.4], abs=1e-12)
          and elapsed < 5.0)
    assert _report("C1", ok, f"2 roots, energies +/-0.4, {elapsed:.2f}s")


def test_c1_finite_ring_real_eigenvalues_as_stated():
    """As stated: +/-0.4 are real eigenvalues of the L=200 periodic matrix
    within 1e-8.

    The ring matrix is block-circulant, so its spectrum is the Bloch spectrum
    at the L momenta k_j = 2*pi*j/L and nowhere else.  +/-0.4 are real
    eigenvalues of the Bloch matrix at the roots k* of F(k) = 0.3 + 0.5 cos k,
    and k* = arccos(-0.6) = 2.21430 is an irrational multiple of pi, so it is
    never on the grid.  With every gamma_x > 0,
    Im E = -sum_x gamma_x |psi_Bx|^2 / |psi|^2, so a real eigenvalue needs an
    A-only eigenvector, i.e. F(k_j) = 0 at some grid momentum.  The nearest
    grid point is k_70 at dk = 0.01518 with F(k_70) = 6.107e-3, so the literal
    clause cannot hold at L=200.  What it holds, each to 1e-8:

    * the Bloch matrix at each solved k* has the eigenvalue +/-0.4;
    * the ring spectrum equals `bloch_bands` on the grid as a multiset
      (measured 1.1e-14);
    * the ring eigenvalue nearest +/-0.4 is the Bloch value at the grid point
      nearest k* (0.404542 - 2.06e-5i for +0.4; measured 7e-16).
    """
    p = fig3(bc=PBC)
    grid = _ring_grid(p)
    w = il.eigendecompose(il.build_ladder(p).matrix)
    bands = il.bloch_bands(p, grid.ks).ravel()
    rows, cols = linear_sum_assignment(np.abs(w[:, None] - bands[None, :]))
    ring_vs_bands = np.abs(w[rows] - bands[cols]).max()
    at_root, near_real = [], []
    for target in (0.4, -0.4):
        root = min(grid.roots, key=lambda r: abs(r.energy - target))
        wb = il.eigendecompose(build_bloch(p, root.k))
        at_root.append(np.abs(wb - target).min())
        bj = il.bloch_bands(p, [root.k_j]).ravel()
        nearest = w[np.abs(w - target).argmin()]
        near_real.append(abs(nearest - bj[bj.imag.argmax()]))
    ok = (len(grid.roots) == 2 and max(at_root) < 1e-8
          and ring_vs_bands < 1e-8 and max(near_real) < 1e-8)
    assert _report(
        "C1b", ok,
        f"Bloch at k*: {max(at_root):.2e}; ring vs grid bands {ring_vs_bands:.2e}; "
        f"nearest to +/-0.4 vs Bloch at k_j: {max(near_real):.2e} "
        f"(F(k_j) = {grid.roots[0].F_j:.3e})")


def test_c1_commensurate_ring_counterpart():
    """Same physics where the ring hosts the mode: eigenvalue hit to 1e-8."""
    p = fig3(t0=COMMENSURATE_T0, bc=PBC)
    sol = il.solve_connection(p.t, p.t_p, p.phi)
    w = il.eigendecompose(il.build_ladder(p).matrix)
    dist = max(np.abs(w - COMMENSURATE_E).min(),
               np.abs(w + COMMENSURATE_E).min())
    ok = (len(sol.points) == 2
          and sorted(pt.energy for pt in sol.points) == pytest.approx(
              [-COMMENSURATE_E, COMMENSURATE_E], abs=1e-10)
          and dist < 1e-8)
    assert _report("C1c", ok, f"commensurate eigenvalue distance {dist:.2e}")


# --- criterion 2 --------------------------------------------------------------

def _profile_matrix(t0):
    profs = [np.full(200, 0.5), il.linear_gamma(200, 0.01, 0.20)]
    profs += [il.random_gamma(200, 0.4, 0.6, seed=s) for s in range(10)]
    return [fig3(t0=t0, gamma=g, bc=PBC) for g in profs]


def test_c2_gamma_independence_as_stated():
    """As stated: +/-0.4 persist as real eigenvalues within 1e-8 and dark-mode
    B-weight < 1e-8 across uniform, linear, and 10 random loss profiles.

    On the L=200 ring no profile with every gamma_x > 0 has a real eigenvalue
    (see C1b), so the clause is checked in the form the finite matrix has.

    * Exact, Hermitian part only: the A-only plane wave psi at each solved k*
      with E = +/-0.4 has (H - E) psi = F(k*) psi on the B rows, which is
      zero, and nothing from the loss, which sits on the B sites only.  The
      residual therefore vanishes to 1e-8 on every row outside the max(n, 1)
      cells at each end of the ring, where the incommensurate wave meets its
      own wrap (measured 2e-15, nonzero only on rows 0, 1, 398, 399), and it
      is the same vector for all 12 profiles to 1e-12 (measured 0).
    * The near-real eigenvalue E, the one nearest eps_j = t_p cos(k_j - phi)
      at the grid point k_j nearest k*, is the chain-A mode at k_j dressed by
      the leftover coupling F_j = F(k_j).  To leading order its shift is
      F_j^2 <u|(E - H_BB + i Gamma)^-1|u>, and that resolvent has norm at most
      1 / (gamma_min - |Im E|), so |E - eps_j| <= F_j^2 / (gamma_min - |Im E|)
      (worst measured: 53% of the bound).  Likewise its B-weight
      w_B <= F_j^2 / gamma_min^2 (worst: 28%).
    * The Im identity above gives gamma_min w_B <= -Im E <= gamma_max w_B,
      checked to 1e-8 relative.

    Each near-real pair is read by inverse iteration on the band at the fixed
    shift eps_j, which converges to the eigenvalue nearest eps_j (see
    `test_c2_inverse_iteration_matches_the_dense_pair` for the dense witness).
    """
    t_start = time.perf_counter()
    p0 = fig3(bc=PBC)
    grid = _ring_grid(p0)             # the couplings do not depend on the profile
    edge = 2 * max(p0.n, 1)           # rows of the end cells
    interior = slice(edge, p0.dim - edge)
    waves = [(r.energy, _a_plane_wave(r.k, p0.L)) for r in grid.roots]
    ref_residuals = None
    worst_res, worst_spread = 0.0, 0.0
    worst_shift, worst_weight, worst_identity = 0.0, 0.0, 0.0
    for p in _profile_matrix(0.3):
        op = il.build_ladder(p)
        H = op.matrix
        residuals = np.array([H @ v - E * v for E, v in waves])
        worst_res = max(worst_res, np.abs(residuals[:, interior]).max())
        if ref_residuals is None:
            ref_residuals = residuals
        worst_spread = max(worst_spread, np.abs(residuals - ref_residuals).max())

        g_min, g_max = min(p.gamma), max(p.gamma)
        for r in grid.roots:
            E, v = _pair_near(op, r.eps_j)
            w_b = _b_weight(v)
            worst_shift = max(worst_shift, abs(E - r.eps_j)
                              / (r.F_j ** 2 / (g_min - abs(E.imag))))
            worst_weight = max(worst_weight, w_b / (r.F_j ** 2 / g_min ** 2))
            worst_identity = max(worst_identity,
                                 (g_min * w_b + E.imag) / -E.imag,
                                 (-E.imag - g_max * w_b) / -E.imag)
    elapsed = time.perf_counter() - t_start
    ok = (len(grid.roots) == 2 and worst_res < 1e-8 and worst_spread < 1e-12
          and worst_shift <= 1.0 and worst_weight <= 1.0
          and worst_identity < 1e-8)
    assert _report(
        "C2", ok,
        f"plane-wave residual {worst_res:.2e} off the seam, spread over "
        f"profiles {worst_spread:.2e}; shift {worst_shift:.0%} and B-weight "
        f"{worst_weight:.0%} of their bounds; Im identity {worst_identity:.1e}; "
        f"{elapsed:.1f}s")


def test_c2_gamma_independence_commensurate():
    """Companion: at commensurate couplings every clause holds with margin."""
    t_start = time.perf_counter()
    E = COMMENSURATE_E
    worst_dist, worst_weight = 0.0, 0.0
    for p in _profile_matrix(COMMENSURATE_T0):
        op = il.build_ladder(p)
        for target in (E, -E):
            lam, v = _pair_near(op, target + _OFF_EIGENVALUE)
            worst_dist = max(worst_dist, abs(lam - target))
            worst_weight = max(worst_weight, _b_weight(v))
    elapsed = time.perf_counter() - t_start
    ok = worst_dist < 1e-8 and worst_weight < 1e-8
    assert _report("C2c", ok,
                   f"12 profiles: eigenvalue distance {worst_dist:.2e}, "
                   f"B-weight {worst_weight:.2e}, {elapsed:.1f}s")


def test_c2_inverse_iteration_matches_the_dense_pair():
    """Witness: on C2's and C2c's uniform profiles, the pair inverse
    iteration reads is the reference dense eigensolve's pair nearest the
    target, eigenvalue to 1e-12 and B-weight to 1e-10 relative (or both
    below 1e-20, where each is rounding on an A-only vector)."""
    for t0, targets, off in ((0.3, [r.eps_j for r in _ring_grid(fig3(bc=PBC)).roots], 0.0),
                             (COMMENSURATE_T0, [COMMENSURATE_E, -COMMENSURATE_E],
                              _OFF_EIGENVALUE)):
        op = il.build_ladder(fig3(t0=t0, bc=PBC))
        w, V, _, _ = eigenpairs(op.matrix)
        for target in targets:
            j = np.abs(w - target).argmin()
            E, v = _pair_near(op, target + off)
            assert abs(E - w[j]) < 1e-12
            assert _b_weight(v) == pytest.approx(_b_weight(V[:, j]), rel=1e-10, abs=1e-20)


# --- criterion 3 --------------------------------------------------------------

def test_c3_engine_equivalence(corner_profiles):
    """TIME and RESOLVENT agree to 1e-4 relative above a 1e-12 floor on all
    four corners; the time engine conserves total probability to 1e-6."""
    total_wall = 0.0
    worst_rel, worst_sum = 0.0, 0.0
    for key, (pt, pr, w1, w2) in corner_profiles.items():
        total_wall += w1 + w2
        assert not pt.incomplete and not pr.incomplete
        mask = pt.P > 1e-12
        rel = np.abs(pr.P[mask] - pt.P[mask]) / pt.P[mask]
        worst_rel = max(worst_rel, rel.max())
        worst_sum = max(worst_sum, abs(pt.P.sum() - 1.0))
    ok = worst_rel < 1e-4 and worst_sum < 1e-6 and total_wall < 600.0
    assert _report("C3", ok, f"max relative gap {worst_rel:.2e}, "
                             f"|sum P - 1| {worst_sum:.2e}, {total_wall:.0f}s")


# --- criterion 4 --------------------------------------------------------------

def test_c4_scaling_dichotomy(corner_profiles):
    """Power law exactly in the regimes with surviving real modes, and the
    fit classification always matches the coupling-based classification."""
    checks = []
    for (t0, profile), (pt, _, _, _) in corner_profiles.items():
        fit = il.fit_bulk(pt.P, 150, il.LEFT)
        p = _corner_params(t0, profile)
        cls = il.solve_connection(p.t, p.t_p, p.phi).classification
        expected = il.POWER if cls == il.IGC else il.EXP
        ordered = (fit.power_r2 > fit.exp_r2 if expected == il.POWER
                   else fit.exp_r2 > fit.power_r2)
        checks.append(fit.kind == expected and ordered)
    for t0 in (0.3, 0.4, 0.5):
        p = fig3(t0=t0, t2=0.1)
        prof = il.loss_profile_time(il.WalkConfig(params=p, x0=150))
        fit = il.fit_bulk(prof.P, 150, il.LEFT)
        cls = il.solve_connection(p.t, p.t_p, p.phi).classification
        checks.append((fit.kind == il.POWER) == (cls == il.IGC))
    ok = all(checks)
    assert _report("C4", ok, f"{len(checks)} configuration checks")


# --- criterion 5 --------------------------------------------------------------

def test_c5_edge_burst_scaling(tmp_path):
    """Relative height grows linearly with the release cell in the power-law
    regime; the edge value decays at the bulk exponential rate otherwise.

    The two release scans are the `fig3e` and `fig3f` presets, run through
    the CLI as the figures are drawn; the bulk rate is the left fit of
    `fig3d`, the gapped walk released at 150."""
    def preset(name):
        run, = execute({"command": "figure", "figure": name}, tmp_path)[1]["runs"]
        return run["config"], run["diagnostics"]

    cfg_igc, scan_igc = preset("fig3e")
    cfg_gap, scan_gap = preset("fig3f")
    for cfg in (cfg_igc, cfg_gap):
        assert cfg["sweep"] == {"vary": "x0", "values": list(range(40, 161, 20))}
    ok_igc = (abs(scan_igc["ratio_loglog_slope"] - 1.0) <= 0.15)
    _, walk_gap = preset("fig3d")
    bulk = walk_gap["TIME"]["fit_left"]
    rate, r2 = scan_gap["p_edge_loglinear_rate"], scan_gap["p_edge_loglinear_r2"]
    ok_gap = (r2 > 0.99
              and bulk["kind"] == il.EXP
              and abs(rate / bulk["exponent"] - 1.0) <= 0.10)
    ok = ok_igc and ok_gap
    assert _report(
        "C5", ok,
        f"ratio slope {scan_igc['ratio_loglog_slope']:.3f} (want 1.0 +/- 0.15); "
        f"edge rate {rate:.4f} vs bulk {bulk['exponent']:.4f}, r2 {r2:.4f}")


# --- criterion 6 --------------------------------------------------------------

def test_c6_bipolar_burst_and_self_intersections():
    results = {}
    for t2 in (0.2, 0.5):
        p = fig3(t2=t2)
        prof = il.loss_profile_time(il.WalkConfig(params=p, x0=150))
        m = il.burst_metrics(prof.P, 150)
        hits = il.self_intersections(fig3(t2=t2, bc=PBC), 1024)
        results[t2] = (m.burst_type, len(hits))
    ok = results[0.2] == (il.LEFT, 0) and \
        results[0.5][0] == il.BIPOLAR and results[0.5][1] >= 1
    assert _report("C6", ok, f"t2=0.2 -> {results[0.2]}, t2=0.5 -> {results[0.5]}")


# --- criterion 7 --------------------------------------------------------------

def test_c7_peierls_symmetry_and_energies():
    """Left-right symmetric escape at phi=0 on the ring, and closed-form
    energies on the momentum-space spectrum for all four phases.

    The symmetry clause runs under periodic boundaries (no skin effect at
    phi=0, exact reflection symmetry about the release cell); under open
    boundaries the unequal edge distances leave a real ~3e-3 asymmetry.  The
    energy clause is checked against the momentum-space spectrum at the
    solved momenta; the discrete L=200 ring cannot host them (see C1b).
    """
    p0 = fig3(phi=0.0, bc=PBC)
    prof = il.loss_profile_time(il.WalkConfig(params=p0, x0=100, t_max=1500.0))
    P = prof.P
    d = np.arange(1, 100)
    asym = np.abs(P[99 + d] - P[99 - d]).max() / P.max()
    ok_sym = asym < 1e-6

    worst = 0.0
    for phi in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
        p = fig3(phi=phi, bc=PBC)
        sol = il.solve_connection(p.t, p.t_p, p.phi)
        closed = sorted(igc_energies_closed_form(0.3, 0.5, 0.5, phi))
        assert sorted(pt.energy for pt in sol.points) == pytest.approx(closed, abs=1e-10)
        for pt in sol.points:
            w = il.eigendecompose(build_bloch(p, pt.k))
            worst = max(worst, np.abs(w - pt.energy).min())
    ok = ok_sym and worst < 1e-8
    assert _report("C7", ok, f"asymmetry {asym:.2e}; worst band distance {worst:.2e}")


# --- criterion 8 --------------------------------------------------------------

FIG8_CONFIGS = [(t0, bc) for t0 in (0.3, 0.6) for bc in (OBC, PBC)]


def _fig8_params(t0, bc, L=200, seed=1):
    return fig3(t0=t0, bc=bc, L=L, gamma=il.random_gamma(L, 0.4, 0.6, seed=seed))


def test_c8_damping_identity_everywhere():
    """X = i conj(H) holds elementwise at 1e-14 on every Fig-8 configuration;
    this is the exact content behind the spectral mapping."""
    worst = 0.0
    for t0, bc in FIG8_CONFIGS:
        p = _fig8_params(t0, bc)
        X = il.build_damping(p).matrix
        H = il.build_ladder(p).matrix
        worst = max(worst, np.abs(X - 1j * np.conj(H)).max())
    ok = worst < 1e-14
    assert _report("C8a", ok, f"elementwise identity, worst {worst:.2e}")


def test_c8_spectral_mapping_multiset_as_stated():
    """As stated: computed spec(X) matches {i conj(E)} to 1e-9 at L=200.

    X = i conj(H) holds elementwise (C8a), so the two spectra are equal
    exactly; the question is what two separate eigensolves can show.
    The reference eigensolve `references.eigenpairs` checks small residuals
    and sets a condition flag, i.e. each unflagged spectrum is exact for a
    matrix within rounding of its input; it does not promise forward
    accuracy.  The forward error is that backward error times the
    eigenvalue condition number, which is at most
    1.9 under PBC but 1e9 to 1e105 under OBC (skin effect; estimates from
    left and right eigenvectors), where the two solves differ by 8.4e-4
    (t0=0.3) and 9.6e-3 (t0=0.6).  So on all four Fig-8 configurations:

    * where the reference leaves both spectra unflagged, the multiset distance
      is < 1e-9; both PBC rows must be unflagged, so this always runs
      (measured 1.7e-14);
    * the power sums sum_j w_X^m and sum_j (i conj w_H)^m, m = 1..8, agree
      to 1e-9 relative to sum_j |w_X|^m.  They are traces of powers of the
      backward-perturbed matrices, so they stay well conditioned under OBC
      too (measured 6e-15).
    """
    worst_dist, worst_sums = 0.0, 0.0
    unflagged = set()
    for t0, bc in FIG8_CONFIGS:
        p = _fig8_params(t0, bc)
        w_h, _, _, flag_h = eigenpairs(il.build_ladder(p).matrix)
        w_x, _, _, flag_x = eigenpairs(il.build_damping(p).matrix)
        mapped = 1j * np.conj(w_h)
        if not (flag_h or flag_x):
            unflagged.add((t0, bc))
            dist = np.abs(mapped[:, None] - w_x[None, :])
            worst_dist = max(worst_dist, dist.min(axis=1).max(),
                             dist.min(axis=0).max())
        for m in range(1, 9):
            scale = (np.abs(w_x) ** m).sum()
            worst_sums = max(worst_sums,
                             abs((w_x ** m).sum() - (mapped ** m).sum()) / scale)
    pbc_rows = {(t0, PBC) for t0 in (0.3, 0.6)}
    ok = pbc_rows <= unflagged and worst_dist < 1e-9 and worst_sums < 1e-9
    assert _report(
        "C8b", ok,
        f"unflagged rows {sorted(unflagged)}: multiset distance "
        f"{worst_dist:.2e}; power sums m=1..8 on all rows: {worst_sums:.2e}")


def test_c8_spectral_mapping_multiset_reference_scale():
    """Companion: the multiset identity at a size where spectra are well
    conditioned (L=30), every boundary condition and coupling."""
    worst = 0.0
    for t0, bc in FIG8_CONFIGS:
        p = _fig8_params(t0, bc, L=30)
        w_h = il.eigendecompose(il.build_ladder(p).matrix)
        w_x = il.eigendecompose(il.build_damping(p).matrix)
        mapped = 1j * np.conj(w_h)
        dist = np.abs(mapped[:, None] - w_x[None, :])
        worst = max(worst, dist.min(axis=1).max(), dist.min(axis=0).max())
    ok = worst < 1e-9
    assert _report("C8c", ok, f"worst multiset distance {worst:.2e} at L=30")


def _gap_lower_bound(p, f_L):
    """A-priori lower bound on the PBC relaxation gap, from F on the grid.

    Take an eigenpair (a, b) of H.  Its B rows read
    C a = (E - H_BB + i Gamma) b, and on the ring the A-B coupling C is
    circulant with eigenvalues F(k_j), so |C a| >= f_L |a|, while
    |E - H_BB + i Gamma| <= |E| + t_p + gamma_max.  Hence |b| >= r_E |a|
    with r_E = f_L / (|E| + t_p + gamma_max), and the Im identity
    -Im E >= gamma_min w_B gives
    gap = 2 min_E (-Im E) >= min_E 2 gamma_min r_E^2 / (1 + r_E^2).
    r_E falls with |E|, and |E| <= |H| <= t_p + sum_m |t_m| + gamma_max.
    """
    g_min, g_max = min(p.gamma), max(p.gamma)
    e_max = p.t_p + np.abs(p.t).sum() + g_max
    r = f_L / (e_max + p.t_p + g_max)
    return 2.0 * g_min * r ** 2 / (1.0 + r ** 2)


def test_c8_gapless_iff_igc_as_stated():
    """As stated: PBC gapless (gap < 1e-6) exactly when the couplings are in
    the surviving-mode class, for uniform, linear, and random profiles.

    The infinite-L verdict is `solve_connection`'s classification.  The
    finite ring is gapless only if a root of F lies on its grid (see C1b),
    which at L=200 holds for neither class: in the IGC class (t0=0.3) the
    gap is 4.1e-5 / 3.9e-5 / 4.1e-5, not zero.  `liouvillian_gap` reports
    on the finite matrix, so per profile:

    * the classification gives IGC for t0=0.3 and GAPPED for t0=0.6;
    * gap >= `_gap_lower_bound` (set by f_L = min_j |F(2 pi j/L)|, t_p and
      the loss range) in both classes;
    * the IGC-class gap lies below the gapped-class bound for the same
      profile (1.0e-3 / 9.9e-5 / 7.4e-4): the two classes stay apart;
    * f_L <= |F(k_j)| <= max|F'| dk <= sum_m m|t_m| pi/L in the IGC class,
      since the nearest grid point k_j is at most dk <= pi/L from k*, and
      f_L >= f_min = t0 - t1 = 0.1 in the gapped class;
    * `rep.gapless` equals "a root of F lies on the grid" (False for both).
    """
    checks, detail = [], []
    for name, g in (("uniform", 0.5), ("linear", LINEAR),
                    ("random", il.random_gamma(200, 0.4, 0.6, seed=1))):
        gaps, bounds = {}, {}
        for t0, expect_igc in ((0.3, True), (0.6, False)):
            p = fig3(t0=t0, gamma=g, bc=PBC)
            grid = _ring_grid(p)
            rep = il.liouvillian_gap(il.build_damping(p))
            gaps[t0], bounds[t0] = rep.gap, _gap_lower_bound(p, grid.f_L)
            slope = sum(m * abs(tm) for m, tm in enumerate(p.t))
            f_ok = (grid.f_L <= slope * min(r.dk for r in grid.roots)
                    <= slope * np.pi / p.L if expect_igc
                    else grid.f_L >= p.t[0] - p.t[1])
            checks += [(il.solve_connection(p.t, p.t_p, p.phi).classification
                        == il.IGC) == expect_igc,
                       rep.gap >= bounds[t0], f_ok,
                       rep.gapless == grid.on_grid]
        checks.append(gaps[0.3] < bounds[0.6])
        detail.append(f"{name}: IGC gap {gaps[0.3]:.2e} (bound {bounds[0.3]:.1e}),"
                      f" gapped {gaps[0.6]:.2e} (bound {bounds[0.6]:.1e})")
    ok = all(checks)
    assert _report("C8d", ok, "; ".join(detail))


def test_c8_gapless_iff_igc_commensurate():
    """Companion: with the surviving-mode momentum on the grid, gapless holds
    exactly in the surviving class and fails in the gapped class."""
    ok = True
    for t0, expect_igc in ((COMMENSURATE_T0, True), (0.6, False)):
        for g in (0.5, LINEAR, il.random_gamma(200, 0.4, 0.6, seed=1)):
            p = fig3(t0=t0, gamma=g, bc=PBC)
            rep = il.liouvillian_gap(il.build_damping(p))
            cls = il.solve_connection(p.t, p.t_p, p.phi).classification == il.IGC
            ok = ok and cls == expect_igc and rep.gapless == expect_igc
    assert _report("C8e", ok, "gapless exactly in the surviving-mode class")


def test_c8_obc_always_gapped():
    worst = np.inf
    for t0 in (0.3, 0.6):
        rep = il.liouvillian_gap(il.build_damping(_fig8_params(t0, OBC)))
        worst = min(worst, rep.gap)
    ok = worst > 1e-3
    assert _report("C8f", ok, f"smallest OBC gap {worst:.3e}")


def test_c8_steady_density_equals_escape_profile():
    p = _fig8_params(0.3, OBC)
    dens, diag = il.steady_density(p, 150)
    prof = il.loss_profile_resolvent(il.WalkConfig(params=p, x0=150))
    mask = prof.P > 1e-12
    rel = (np.abs(dens[mask] - prof.P[mask]) / prof.P[mask]).max()
    ok = rel < 1e-6 and diag["converged"]
    assert _report("C8g", ok, f"max relative gap {rel:.2e}")


def test_c8_correlation_decay_slope():
    """At L=20 the reference propagation decays at the gap rate within 5%."""
    p = fig3(t0=0.6, bc=PBC, L=20)
    rep = il.liouvillian_gap(il.build_damping(p))
    horizon = np.log(1e10) / rep.gap
    times = np.linspace(0.5 * horizon, 1.4 * horizon, 12)
    tr = propagate_correlation(p, 10, times)
    slope = np.polyfit(tr.times, np.log(tr.distances), 1)[0]
    ok = rep.gap > 1e-3 and abs(slope / -rep.gap - 1.0) < 0.05
    assert _report("C8h", ok, f"slope {slope:.5f} vs -gap {-rep.gap:.5f}")


# --- criterion 9 --------------------------------------------------------------

def test_c9_count_bound_randomized():
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        t = rng.uniform(-1, 1, n + 1)
        if t.sum() <= 0:
            t[0] += abs(t.sum()) + 0.1
        sol = il.solve_connection(t, rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi))
        assert len(sol.points) <= 2 * n
        for pt in sol.points:
            worst_residual = max(worst_residual, abs(h_x(t, pt.k)))
    ok = worst_residual < 1e-10
    assert _report("C9", ok, f"200 draws, worst residual {worst_residual:.2e}")


# --- criterion 10 -------------------------------------------------------------

def test_c10_preset_determinism(tmp_path):
    cfg = tmp_path / "fig.json"
    cfg.write_text(json.dumps({"command": "figure", "figure": "fig3c"}))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "fig3c_0_profile.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert _report("C10", ok, f"{len(outs[0])} bytes, byte-identical rerun")
