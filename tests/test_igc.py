import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from igclab import (
    GAPPED, IGC, LadderParams, build_ladder, eigendecompose, linear_gamma,
    random_gamma, solve_connection,
)
from igclab.model import h_x
from references import igc_energies_closed_form


def test_nearest_coupling_roots():
    sol = solve_connection([0.3, 0.5], 0.5, np.pi / 2)
    assert len(sol.points) == 2
    k = np.arccos(-0.6)
    assert sol.points[0].k == pytest.approx(k, abs=1e-9)
    assert sol.points[1].k == pytest.approx(2 * np.pi - k, abs=1e-9)
    assert sorted(pt.energy for pt in sol.points) == pytest.approx([-0.4, 0.4], abs=1e-12)
    assert sol.classification == IGC
    assert sol.f_min == pytest.approx(-0.2)
    assert all(not p.marginal for p in sol.points)


def test_gapped_couplings():
    sol = solve_connection([0.6, 0.5], 0.5, np.pi / 2)
    assert sol.classification == GAPPED and len(sol.points) == 0
    assert sol.f_min == pytest.approx(0.1)
    assert sol.k_min == pytest.approx(np.pi)


def test_second_neighbor_roots_bounded():
    sol = solve_connection([0.3, 0.5, 0.1], 0.5, np.pi / 2)
    assert 0 < len(sol.points) <= 4
    # cos k = -1/2 exactly for these couplings
    assert sorted(p.k for p in sol.points) == pytest.approx(
        [2 * np.pi / 3, 4 * np.pi / 3], abs=1e-9)


def test_endpoint_tangency_is_marginal():
    # F(pi) = 0.4 - 0.5 + 0.1 = 0 without a sign change in k
    sol = solve_connection([0.4, 0.5, 0.1], 0.5, np.pi / 2)
    assert len(sol.points) == 1
    assert sol.points[0].k == pytest.approx(np.pi)
    assert sol.points[0].marginal
    assert abs(sol.f_min) < 1e-12


def test_equal_couplings_marginal_root_at_pi():
    sol = solve_connection([0.5, 0.5], 0.5, np.pi / 2)
    assert len(sol.points) == 1
    assert sol.points[0].k == pytest.approx(np.pi)
    assert sol.points[0].marginal


def test_interior_tangency_reported_once_per_momentum():
    # double root of the u-polynomial at cos k = -0.625
    sol = solve_connection([0.35625, 0.5, 0.2], 0.5, np.pi / 2)
    ks = sorted(p.k for p in sol.points)
    k = np.arccos(-0.625)
    assert ks == pytest.approx([k, 2 * np.pi - k], abs=1e-6)
    assert abs(sol.f_min) < 1e-10
    assert all(p.marginal for p in sol.points)


def test_triple_root_reported_once_per_momentum():
    # P = (u - 0.3)^3 changes sign at u = 0.3; the double root of P' there may
    # come out of the eigensolve as two close critical points
    sol = solve_connection(C.poly2cheb([-0.027, 0.27, -0.9, 1.0]), 0.5, np.pi / 2)
    k = np.arccos(0.3)
    assert [p.k for p in sol.points] == pytest.approx([k, 2 * np.pi - k], abs=1e-6)
    assert not any(p.marginal for p in sol.points)


@pytest.mark.parametrize("t", [
    [0.5100600611, -0.2006, 0.5],                 # roots u = 0.10013 and 0.10047
    C.poly2cheb([0.2503 * 0.2509, -0.5012, 1.0]),  # roots u = 0.2503 and 0.2509
])
def test_roots_closer_than_any_grid_are_all_found(t):
    sol = solve_connection(t, 0.5, np.pi / 2)
    assert len(sol.points) == 4 and sol.classification == IGC
    for p in sol.points:
        assert abs(h_x(t, p.k)) < 1e-10 and not p.marginal


def test_zero_threshold_is_relative_to_tiny_couplings():
    # F = 3e-13 + 5e-13 cos k has two simple roots at cos k = -0.6; an
    # absolute 1e-12 threshold would read P = +/-2e-13 at k = 0, pi as roots
    t = [3e-13, 5e-13]
    sol = solve_connection(t, 0.5, np.pi / 2)
    assert len(sol.points) == 2 and sol.classification == IGC
    for p in sol.points:
        assert np.cos(p.k) == pytest.approx(-0.6, abs=1e-12)
        assert not p.marginal


def test_roots_satisfy_residual_and_unit_circle():
    sol = solve_connection([0.3, 0.5, 0.1], 0.5, 1.234)
    for p in sol.points:
        assert abs(h_x([0.3, 0.5, 0.1], p.k)) < 1e-10
        assert abs(abs(p.beta) - 1.0) < 1e-12
        assert p.energy == pytest.approx(0.5 * np.cos(p.k - 1.234), abs=1e-12)
    ks = [p.k for p in sol.points]
    assert ks == sorted(ks)


def test_rejects_nonpositive_coupling_sum():
    with pytest.raises(ValueError, match="F\\(0\\) > 0"):
        solve_connection([-0.3, 0.1], 0.5, 0.0)


def f_min_closed_form(t0: float, t1: float, t2: float):
    """Minimum of F(k) = t0 + t1 cos k + t2 cos 2k and its location.

    For t2 <= t1/4 the minimum sits at k = pi with value t0 - t1 + t2; beyond
    that the interior stationary point cos k = -t1/(4 t2) takes over and the
    value becomes t0 - t1^2/(8 t2) - t2.
    """
    if t1 <= 0 or t2 < 0:
        raise ValueError("need t1 > 0 and t2 >= 0")
    if t2 <= t1 / 4.0:
        return t0 - t1 + t2, float(np.pi)
    return t0 - t1**2 / (8.0 * t2) - t2, float(np.arccos(-t1 / (4.0 * t2)))


def test_f_min_closed_form_branches():
    v, k = f_min_closed_form(0.3, 0.5, 0.1)
    assert (v, k) == (pytest.approx(-0.1), pytest.approx(np.pi))
    v, k = f_min_closed_form(0.3, 0.5, 0.5)
    assert v == pytest.approx(0.3 - 0.0625 - 0.5)
    assert np.cos(k) == pytest.approx(-0.25)
    # continuity at the branch point t2 = t1/4
    lo, _ = f_min_closed_form(0.3, 0.5, 0.125 - 1e-12)
    hi, _ = f_min_closed_form(0.3, 0.5, 0.125 + 1e-12)
    assert lo == pytest.approx(hi, abs=1e-9)
    assert lo == pytest.approx(0.3 - 0.5 + 0.125, abs=1e-9)
    with pytest.raises(ValueError):
        f_min_closed_form(0.3, 0.0, 0.1)


def test_f_min_closed_form_matches_grid_minimum():
    rng = np.random.default_rng(11)
    ks = np.linspace(0, 2 * np.pi, 200001)
    for _ in range(20):
        t0, t1, t2 = rng.uniform(0, 1), rng.uniform(0.05, 1), rng.uniform(0, 1)
        v, k0 = f_min_closed_form(t0, t1, t2)
        grid = h_x([t0, t1, t2], ks)
        assert v == pytest.approx(grid.min(), abs=1e-8)
        assert h_x([t0, t1, t2], k0) == pytest.approx(v, abs=1e-12)
        # the oracle for the solver's global minimum (measured within 1.2e-16)
        assert solve_connection([t0, t1, t2], 0.5, 0.3).f_min == pytest.approx(v, abs=1e-12)


def test_energies_closed_form():
    assert sorted(igc_energies_closed_form(0.3, 0.5, 0.5, np.pi / 2)) == \
        pytest.approx([-0.4, 0.4])
    both = igc_energies_closed_form(0.3, 0.5, 0.5, 0.0)
    assert both == pytest.approx([-0.3, -0.3])
    assert sorted(igc_energies_closed_form(0.0, 0.5, 0.7, 0.3)) == \
        pytest.approx(sorted([0.7 * np.sin(0.3), -0.7 * np.sin(0.3)]))
    assert igc_energies_closed_form(0.6, 0.5, 0.5, 1.0) == []


def test_solver_matches_closed_form_energies():
    rng = np.random.default_rng(12)
    for _ in range(25):
        t1 = rng.uniform(0.1, 1.0)
        t0 = rng.uniform(0.0, t1)
        tp, phi = rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
        sol = solve_connection([t0, t1], tp, phi)
        closed = igc_energies_closed_form(t0, t1, tp, phi)
        assert sorted(pt.energy for pt in sol.points) == pytest.approx(sorted(closed), abs=1e-10)


def test_classify():
    def classify(t):
        p = LadderParams(L=20, t=t, t_p=0.5, phi=np.pi / 2, gamma=0.5)
        return solve_connection(p.t, p.t_p, p.phi).classification
    assert classify([0.3, 0.5]) == IGC
    assert classify([0.6, 0.5]) == GAPPED
    assert classify([0.5, 0.5]) == IGC          # marginal root at pi
    assert solve_connection([0.6, 0.5], 0.5, 0.0).classification == GAPPED
    assert solve_connection([0.5, 0.5], 0.5, 0.0).classification == IGC
    rng = np.random.default_rng(13)
    t1 = 0.5
    for _ in range(10):
        t2 = rng.uniform(0, 1.5)
        t0 = rng.uniform(0, t1 / np.sqrt(2))
        assert classify([t0, t1, t2]) == IGC


def test_count_bound_and_residuals_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        t = rng.uniform(-1, 1, n + 1)
        if t.sum() <= 0:
            t[0] += abs(t.sum()) + 0.1
        sol = solve_connection(t, rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi))
        assert len(sol.points) <= 2 * n
        for p in sol.points:
            assert abs(h_x(t, p.k)) < 1e-10
        assert (len(sol.points) == 0) == (sol.classification == GAPPED)


def test_quartic_cross_check_second_neighbor():
    # unit-circle roots of the coupling polynomial in the phase factor must
    # reproduce the solver's momenta
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(60):
        t0, t1, t2 = rng.uniform(-1, 1, 3)
        if t0 + t1 + t2 <= 0 or abs(t2) < 1e-3:
            continue
        sol = solve_connection([t0, t1, t2], 0.5, 1.0)
        roots = np.roots([t2 / 2, t1 / 2, t0, t1 / 2, t2 / 2])
        circle = roots[np.abs(np.abs(roots) - 1) < 1e-7]
        ks = sorted(np.mod(np.angle(circle), 2 * np.pi))
        ks_solver = sorted(p.k for p in sol.points)
        assert len(ks) == len(ks_solver)
        for a, b in zip(ks, ks_solver):
            assert a == pytest.approx(b, abs=1e-6)
        checked += 1
    assert checked > 30


def test_gamma_independence_on_commensurate_ring(commensurate_params):
    """The surviving real eigenvalues do not move when the loss profile does."""
    E = 0.5 * np.sin(3 * np.pi / 5)
    sol = solve_connection(commensurate_params().t, 0.5, np.pi / 2)
    assert sorted(pt.energy for pt in sol.points) == pytest.approx([-E, E], abs=1e-12)
    for gamma in (0.5, linear_gamma(200, 0.01, 0.20), random_gamma(200, seed=8)):
        p = commensurate_params(gamma=gamma)
        w = eigendecompose(build_ladder(p).matrix)
        for target in (E, -E):
            assert np.abs(w - target).min() < 1e-8
