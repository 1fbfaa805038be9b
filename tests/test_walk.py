import numpy as np
import pytest

from igclab import (
    OBC, LadderParams, PBC, RESOLVENT, TIME, WalkConfig, build_damping, build_ladder,
    linear_gamma, loss_profile_resolvent, loss_profile_time, random_gamma, steady_density,
)
from igclab.ode import integrate
from igclab.quadrature import adaptive_quadrature
from igclab.walk import RESOLVENT_RTOL, resolvent_integrand, resolvent_result
from references import full_grid_edges


def dimer(gamma=0.5, t0=0.3):
    return LadderParams(L=2, t=[t0], t_p=0.0, phi=0.0, gamma=gamma)


def test_config_validation():
    # 1.5 and 1.0 would index the state with a float, and True would run as cell 1
    for x0 in (3, 0, 1.5, np.float64(1.0), True):
        with pytest.raises(ValueError, match="x0"):
            WalkConfig(params=dimer(), x0=x0)
    with pytest.raises(ValueError, match="norm_floor"):
        WalkConfig(params=dimer(), x0=1, norm_floor=2.0)
    with pytest.raises(ValueError, match="t_max"):
        WalkConfig(params=dimer(), x0=1, t_max=-1.0)


def test_dimer_escapes_entirely_through_its_own_cell():
    cfg = WalkConfig(params=dimer(), x0=1)
    prof = loss_profile_time(cfg)
    assert prof.engine == TIME
    assert not prof.incomplete
    assert prof.P[0] == pytest.approx(1.0, abs=1e-7)
    assert prof.P[1] == pytest.approx(0.0, abs=1e-12)
    assert abs(prof.P.sum() - 1.0) < cfg.norm_floor + 1e-6


def test_dimer_resolvent_matches():
    prof = loss_profile_resolvent(WalkConfig(params=dimer(), x0=1))
    assert prof.engine == RESOLVENT
    assert prof.P[0] == pytest.approx(1.0, abs=1e-8)
    assert prof.diagnostics["tail_bound"] <= 1e-8


def test_lossless_walk_keeps_norm():
    p = LadderParams(L=30, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.0,
                     bc=PBC)
    cfg = WalkConfig(params=p, x0=15, t_max=100.0, step_tol=1e-11)
    prof = loss_profile_time(cfg)
    assert prof.incomplete                  # norm floor is unreachable
    assert prof.diagnostics["t_end"] == 100.0
    assert abs(prof.diagnostics["residual_norm"] - 1.0) < 1e-9
    assert np.allclose(prof.P, 0.0)


def test_resolvent_short_circuits_lossless_case():
    p = LadderParams(L=10, t=[0.3], t_p=0.2, phi=0.1, gamma=0.0)
    prof = loss_profile_resolvent(WalkConfig(params=p, x0=5))
    assert prof.P.sum() == 0.0
    assert np.all(prof.P == 0.0)


def test_norm_monotone_and_balance():
    # the lossy evolution contracts the norm: stopped at later and later
    # ceilings, the walk leaves no more behind
    p = LadderParams(L=24, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.4)
    norms = []
    for t_max in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 20000.0):
        prof = loss_profile_time(WalkConfig(params=p, x0=12, t_max=t_max))
        left = prof.diagnostics["residual_norm"]
        norms.append(left)
        # escaped probability plus what is left accounts for the initial unit norm
        assert prof.P.sum() + left == pytest.approx(1.0, abs=1e-6)
        assert np.all(prof.P >= 0.0)
        assert prof.P.sum() <= 1.0 + 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert not prof.incomplete


def test_incomplete_flag_when_ceiling_hits():
    p = LadderParams(L=16, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.3)
    prof = loss_profile_time(WalkConfig(params=p, x0=8, t_max=1.0))
    assert prof.incomplete
    assert prof.diagnostics["tail_bound"] > 1e-3   # plenty of norm remains


@pytest.mark.parametrize("phi", [0.7, np.pi / 2])
def test_an_overflowed_state_is_named_in_the_step_size_failure(phi):
    # loss of 1e300 overflows the stage states at once, in complex and in
    # real arithmetic: every error estimate is NaN, every step is rejected
    # until h underflows, and the failure says why
    p = LadderParams(L=4, t=[0.3, 0.5], t_p=0.5, phi=phi, gamma=[1e300] * 4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match=r"underflow at t=0; the last error "
                          r"estimate was not finite \(the state overflowed\)"):
        loss_profile_time(WalkConfig(params=p, x0=2))


def test_engines_agree_midsize():
    p = LadderParams(L=40, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5)
    cfg = WalkConfig(params=p, x0=28, norm_floor=1e-12)
    pt = loss_profile_time(cfg)
    pr = loss_profile_resolvent(cfg)
    assert not pt.incomplete and not pr.incomplete
    mask = pt.P > 1e-12
    rel = np.abs(pr.P[mask] - pt.P[mask]) / pt.P[mask]
    assert rel.max() < 1e-4
    assert abs(pt.P.sum() - 1.0) < 1e-6
    # sum P + residual = 1 for TIME, sum P = 1 for RESOLVENT, up to the error
    assert pt.diagnostics["conservation_defect"] < 1e-6
    assert pr.diagnostics["conservation_defect"] == abs(1.0 - pr.P.sum()) < 1e-6


def test_engines_agree_nonuniform_gamma():
    gam = np.linspace(0.25, 0.8, 36)
    p = LadderParams(L=36, t=[0.45, 0.5], t_p=0.5, phi=1.0, gamma=gam)
    cfg = WalkConfig(params=p, x0=24, norm_floor=1e-12)
    pt = loss_profile_time(cfg)
    pr = loss_profile_resolvent(cfg)
    mask = pt.P > 1e-12
    assert (np.abs(pr.P[mask] - pt.P[mask]) / pt.P[mask]).max() < 1e-4


def test_mass_above_one_is_flagged_on_both_resolvent_paths():
    # couplings of 7.8e-13 leave a peak no panel resolves, and the Kronrod
    # error estimate misses it: both quadratures report convergence on a
    # total mass near 5e5 (escape profile) and 2.6e5 (steady density), which
    # no ladder allows, so the conservation budget flags both
    p = LadderParams(L=6, t=[7.8378295179568e-13], t_p=-0.6468296463572445,
                     phi=5.811447501331059, gamma=0.43628553631671313, bc=PBC)
    prof = loss_profile_resolvent(WalkConfig(params=p, x0=5))
    dens, diag = steady_density(p, 5)
    assert prof.incomplete and not diag["converged"]
    for total, d in ((prof.P.sum(), prof.diagnostics), (dens.sum(), diag)):
        assert total > 1.0 + d["conservation_budget"]
        assert d["conservation_defect"] == abs(1.0 - total)
        assert 1e-8 <= d["conservation_budget"] < 1e-6
    # a resolved profile stays within its budget
    ok = loss_profile_resolvent(WalkConfig(params=p.replace(t=[0.6, 0.5]), x0=5))
    assert not ok.incomplete
    assert ok.diagnostics["conservation_defect"] <= ok.diagnostics["conservation_budget"]


def test_boundary_equivalence_before_and_after_arrival():
    # the open and the periodic ladder differ only by the hops across the
    # ends; released at x0 = 45 of 60, the packet needs a while to reach them
    p = LadderParams(L=60, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5)

    def gap(t_max):
        P_obc, P_pbc = (loss_profile_time(WalkConfig(params=p.replace(bc=bc), x0=45,
                                                     t_max=t_max)).P
                        for bc in (OBC, PBC))
        return np.abs(P_obc - P_pbc).max()

    assert gap(15.0) < 1e-6
    assert gap(160.0) > 1e-3


def _dense_walk(cfg):
    """The TIME walk as first written: dense -i H psi in natural site order.

    The reference for the banded engine: same state layout but unpermuted,
    the same error weights and stopping rule, new arrays at every call, and
    the accumulator 2 gamma_x |psi_x^B|^2 as a block of the rhs rather than
    a rider.
    """
    p = cfg.params
    H = build_ladder(p).matrix
    n = H.shape[0]
    two_gam = 2.0 * np.asarray(p.gamma)

    def rhs(_, y):
        out = np.empty_like(y)
        out[:n] = -1j * (H @ y[:n])
        out[n:] = two_gam * np.abs(y[1:n:2]) ** 2
        return out

    def scale(y_old, y_new):
        ao, an = np.abs(y_old), np.abs(y_new)
        amp = max(ao[:n].max(), an[:n].max(), 1e-300)
        sc = np.empty(y_old.size)
        sc[:n] = cfg.step_tol * (amp + np.maximum(ao[:n], an[:n]))
        sc[n:] = cfg.step_tol * (1.0 + np.maximum(ao[n:], an[n:]))
        return sc

    y0 = np.zeros(n + p.L, dtype=complex)
    y0[2 * (cfg.x0 - 1)] = 1.0
    return integrate(rhs, y0, 0.0, cfg.t_max, scale_fn=scale,
                     stop_fn=lambda t, y: np.linalg.norm(y[:n]) ** 2 < cfg.norm_floor)


@pytest.mark.parametrize("p, x0", [
    (LadderParams(L=40, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2,
                  gamma=linear_gamma(40, 0.01, 0.2)), 30),
    (LadderParams(L=40, t=[0.6, 0.5], t_p=0.5, phi=1.0, gamma=0.5, bc=PBC), 20),
    (LadderParams(L=30, t=[0.3, 0.5, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5), 20),
    # the folded PBC order with a loss profile that tells every cell apart
    (LadderParams(L=10, t=[0.3, 0.5], t_p=0.5, phi=0.7,
                  gamma=np.linspace(0.2, 0.6, 10), bc=PBC), 3),
    # the real gauge on a uniform ring, at the other gauge phase, and at
    # t_p = 0, where the gauge form holds at any phi
    (LadderParams(L=24, t=[0.6, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=PBC), 12),
    (LadderParams(L=24, t=[0.3, 0.5], t_p=0.5, phi=-np.pi / 2,
                  gamma=linear_gamma(24, 0.01, 0.3)), 16),
    (LadderParams(L=16, t=[0.6, 0.5], t_p=0.0, phi=0.7, gamma=0.5), 8),
], ids=["obc", "pbc", "t2", "pbc_nonuniform", "pbc_gauge", "obc_minus_pi_2", "t_p_0"])
def test_banded_walk_steps_like_the_dense_one(p, x0):
    cfg = WalkConfig(params=p, x0=x0, norm_floor=1e-12)
    prof = loss_profile_time(cfg)
    ref = _dense_walk(cfg)
    # cos(phi) = 0 or t_p = 0: the walk runs on phi = D^-1 psi in real arithmetic
    gauge = p.t_p == 0.0 or abs(np.cos(p.phi)) < 1e-15
    assert prof.diagnostics["arithmetic"] == ("real" if gauge else "complex")
    assert ref.stopped_early and not prof.incomplete
    # the rider sees the stage states the accumulator block saw, and its
    # error estimate enters the step control the same way
    assert (prof.diagnostics["n_steps"], prof.diagnostics["n_rejected"]) == \
        (ref.n_steps, ref.n_rejected)
    P = ref.y[p.dim:].real
    mask = P > 0
    assert (np.abs(prof.P - P)[mask] / P[mask]).max() < 1e-12
    assert prof.diagnostics["conservation_defect"] == \
        abs(1.0 - prof.P.sum() - prof.diagnostics["residual_norm"])


def test_time_engine_accuracy_on_the_t2_ladder():
    # the TIME-RESOLVENT gap measured 5.0e-8 with the Tsitouras pair (and
    # 1.5e-7 with the Dormand-Prince pair it replaced); the bound keeps a
    # later change from quietly giving that accuracy back
    p = LadderParams(L=30, t=[0.3, 0.5, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5)
    cfg = WalkConfig(params=p, x0=20, norm_floor=1e-12)
    pt, pr = loss_profile_time(cfg), loss_profile_resolvent(cfg)
    assert not pt.incomplete and not pr.incomplete
    mask = pt.P > 1e-12
    assert (np.abs(pr.P[mask] - pt.P[mask]) / pt.P[mask]).max() < 1.2e-7


def _c3_corner(t0, loss, L=100):
    gamma = 0.5 if loss == "uniform" else linear_gamma(L, 0.01, 0.20)
    return LadderParams(L=L, t=[t0, 0.5], t_p=0.5, phi=np.pi / 2, gamma=gamma, bc=OBC)


def _full_window(p, x0, op, s, max_panels):
    """The folded integrand integrated over the mirrored window [-Omega, Omega]
    at the engines' goal, read as an unfolded integral: (values, flag, diag)."""
    f, edges, omega_max, tail_bound, info = resolvent_integrand(p, x0, op, s)
    assert info["folded"] and edges[0] == 0.0
    full = np.concatenate([-edges[:0:-1], edges])
    quad = adaptive_quadrature(f, full, rtol=RESOLVENT_RTOL, atol_frac=1e-16,
                               max_panels=max_panels)
    return resolvent_result(quad, np.asarray(p.gamma), omega_max, tail_bound,
                            dict(info, folded=False))


@pytest.mark.parametrize("p, x0, side", [
    *[(_c3_corner(t0, loss), 75, "H") for t0 in (0.3, 0.6) for loss in ("uniform", "linear")],
    # a uniform ring solves its Bloch blocks
    (LadderParams(L=60, t=[0.6, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=PBC), 30, "H"),
    # a steady density: the damping matrix's integral
    (LadderParams(L=60, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2,
                  gamma=random_gamma(60, 0.4, 0.6, seed=3), bc=OBC), 45, "X"),
], ids=["0.3-uniform", "0.3-linear", "0.6-uniform", "0.6-linear", "ring", "density"])
def test_folded_integral_matches_the_full_window(p, x0, side):
    # the reference has the full panel budget of 4000 that the folded
    # integral spends two at a time
    if side == "H":
        prof = loss_profile_resolvent(WalkConfig(params=p, x0=x0))
        values, flag, diag = prof.P, not prof.incomplete, prof.diagnostics
        ref, ref_flag, ref_diag = _full_window(p, x0, build_ladder(p), 1.0, 4000)
    else:
        values, diag = steady_density(p, x0)
        flag = diag["converged"]
        ref, ref_flag, ref_diag = _full_window(p, x0, build_damping(p), 1j, 4000)
    assert diag["folded"]
    mask = ref > 1e-12
    assert (np.abs(values[mask] - ref[mask]) / ref[mask]).max() <= 1e-12
    assert flag == ref_flag
    assert diag["n_nodes"] <= ref_diag["n_nodes"] // 2 + 15


def _full_grid(p, x0, op, s):
    """The integrand integrated from the first edges it had before the pole
    bound, the whole band window in 48 equal panels (`full_grid_edges`), at
    the engines' goal and budget: (values, flag, diag).  Also checks that
    every first panel that can hold a pole, one reaching into
    |omega| < `pole_bound`, is a first panel of the full grid."""
    f, edges, omega_max, tail_bound, info = resolvent_integrand(p, x0, op, s)
    width = float(np.abs(op.band.T.ab).sum(axis=0).max()) + 1.0
    full = full_grid_edges(width, omega_max, info["folded"])
    rho = info["pole_bound"]
    near = {(a, b) for a, b in zip(full[:-1], full[1:]) if a < rho and b > -rho}
    assert near and near <= set(zip(edges[:-1], edges[1:]))
    quad = adaptive_quadrature(f, full, rtol=RESOLVENT_RTOL, atol_frac=1e-16,
                               max_panels=4000 // (2 if info["folded"] else 1))
    return resolvent_result(quad, np.asarray(p.gamma), omega_max, tail_bound, info)


@pytest.mark.parametrize("p, x0, side", [
    (_c3_corner(0.3, "uniform"), 75, "H"),
    (_c3_corner(0.6, "linear"), 75, "X"),
    # uniform rings solve their Bloch blocks, folded and not
    (LadderParams(L=60, t=[0.6, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=PBC), 30, "H"),
    (LadderParams(L=60, t=[0.6, 0.5], t_p=0.5, phi=0.7, gamma=0.5, bc=PBC), 30, "X"),
    # the band, unfolded, in natural and in folded site order
    (LadderParams(L=40, t=[0.3, 0.5], t_p=0.5, phi=0.7, gamma=0.5), 20, "H"),
    (LadderParams(L=40, t=[0.3, 0.5], t_p=0.5, phi=0.7,
                  gamma=np.linspace(0.2, 0.6, 40), bc=PBC), 10, "X"),
    (LadderParams(L=60, t=[0.3, 0.5, 0.2], t_p=0.5, phi=np.pi / 2,
                  gamma=random_gamma(60, 0.4, 0.6, seed=3)), 45, "H"),
], ids=["c3-profile", "c3-density", "ring", "ring-density", "obc-0.7", "pbc-density", "t2"])
def test_the_pole_bound_keeps_the_values_of_the_full_grid(p, x0, side):
    # every pole has |Re omega| <= pole_bound, and every panel that can hold
    # one is a panel of the full grid: the two integrals agree to rounding
    # and flag alike, and the coarse pole-free panels save solves
    if side == "H":
        prof = loss_profile_resolvent(WalkConfig(params=p, x0=x0))
        values, flag, diag = prof.P, not prof.incomplete, prof.diagnostics
        ref, ref_flag, ref_diag = _full_grid(p, x0, build_ladder(p), 1.0)
    else:
        values, diag = steady_density(p, x0)
        flag = diag["converged"]
        ref, ref_flag, ref_diag = _full_grid(p, x0, build_damping(p), 1j)
    mask = ref > 1e-12
    assert (np.abs(values[mask] - ref[mask]) / ref[mask]).max() <= 1e-13
    assert flag == ref_flag
    assert diag["n_nodes"] < ref_diag["n_nodes"]


def test_a_folded_panel_counts_twice_against_the_budget():
    # the C3 corner converges on 18 folded panels (36 over the full window):
    # a budget of 32 allows 16 folded panels, and both integrals stop short
    p = _c3_corner(0.3, "uniform")
    prof = loss_profile_resolvent(WalkConfig(params=p, x0=75), max_panels=32)
    d = prof.diagnostics
    assert d["folded"] and d["n_panels"] == 16
    assert prof.incomplete and not d["converged"]
    _, ref_flag, ref_diag = _full_window(p, 75, build_ladder(p), 1.0, 32)
    assert ref_diag["n_panels"] == 32 and not ref_flag
    assert loss_profile_resolvent(WalkConfig(params=p, x0=75), max_panels=36).diagnostics[
        "converged"]


@pytest.mark.parametrize("phi", [0.7, np.pi / 2])
def test_initial_edges_read_only_the_window(phi):
    # same gamma_max and ||H||_inf, different loss profiles: the first panels
    # come from the window W, Omega and the pole bound rho = ||Herm H||_inf
    # alone, not from the spectrum.  The grid of 48 panels over [-W, W] is kept
    # where |e| <= rho + one step, since every pole has |Re| <= rho
    # (Bendixson), and rho never reads gamma.  Here rho = 1.3 of W = 2.8:
    # 24 of the 48 grid panels stay, and [1.4, 2.8] is one panel a side
    spiked = np.full(20, 0.2)
    spiked[10] = 0.5
    runs = []
    for gamma in (0.5, spiked):
        p = LadderParams(L=20, t=[0.3, 0.5], t_p=0.5, phi=phi, gamma=gamma, bc=OBC)
        _, edges, omega_max, _, _ = resolvent_integrand(p, 10, build_ladder(p), 1.0)
        runs.append((edges, omega_max))
    (uniform, om_uniform), (spike, om_spike) = runs
    assert om_uniform == om_spike
    assert np.array_equal(uniform, spike)
