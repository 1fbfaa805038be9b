import numpy as np
import pytest

from igclab import (
    LadderParams, OBC, PBC, WalkConfig, build_damping, build_ladder,
    eigendecompose, liouvillian_gap, loss_profile_resolvent, random_gamma,
    steady_density,
)
from igclab.analysis import EXP, fit_bulk
from references import propagate_correlation


def ladder(t0=0.3, L=30, bc=PBC, gamma=None, seed=1):
    if gamma is None:
        gamma = random_gamma(L, seed=seed)
    return LadderParams(L=L, t=[t0, 0.5], t_p=0.5, phi=np.pi / 2,
                        gamma=gamma, bc=bc)


def test_damping_identity_and_pattern():
    p = ladder()
    X = build_damping(p).matrix
    M = build_ladder(p).loss_diagonal()
    H = build_ladder(p).matrix
    assert np.abs(X - 1j * np.conj(H)).max() < 1e-14
    assert np.allclose(M[0::2], 0.0)
    assert np.allclose(M[1::2], p.gamma)
    H0 = 0.5 * (H + H.conj().T)                 # the Hermitian part of H
    assert np.abs(X - (1j * H0.T - np.diag(M))).max() < 1e-15


def test_lossless_damping_is_purely_rotational():
    p = ladder(gamma=np.zeros(30))
    X = build_damping(p)
    H0 = build_ladder(p).matrix                 # Hermitian without loss
    assert np.abs(H0 - H0.conj().T).max() < 1e-15
    assert np.allclose(X.matrix, 1j * H0.T)
    rep = liouvillian_gap(X)
    assert abs(rep.gap) < 1e-12
    assert rep.gapless


def test_spectral_mapping_multiset_small_sizes():
    # the computed-spectra comparison is only meaningful while eigenvalue
    # condition numbers stay modest; at L=30 both boundary conditions qualify
    for bc in (OBC, PBC):
        for t0 in (0.3, 0.6):
            p = ladder(t0=t0, bc=bc)
            w_h = eigendecompose(build_ladder(p).matrix)
            w_x = eigendecompose(build_damping(p).matrix)
            mapped = 1j * np.conj(w_h)
            dist = np.abs(mapped[:, None] - w_x[None, :])
            assert dist.min(axis=1).max() < 1e-9
            assert dist.min(axis=0).max() < 1e-9


def test_real_parts_never_positive():
    for t0 in (0.3, 0.6):
        w = eigendecompose(build_damping(ladder(t0=t0)).matrix)
        assert w.real.max() <= 1e-10


def test_gap_commensurate_ring_is_gapless(commensurate_params):
    for gamma in (0.5, random_gamma(200, seed=4)):
        rep = liouvillian_gap(build_damping(commensurate_params(gamma=gamma)))
        assert rep.gapless
        assert abs(rep.gap) < 1e-10
        assert "algebraic" in rep.note


def test_gap_gapped_and_obc():
    rep = liouvillian_gap(build_damping(ladder(t0=0.6, L=60, gamma=0.5)))
    assert not rep.gapless
    assert rep.gap > 1e-3
    assert "exponential" in rep.note
    rep_obc = liouvillian_gap(build_damping(ladder(t0=0.3, L=60, bc=OBC)))
    assert rep_obc.gap > 1e-3


def test_gap_report_carries_the_spectrum_it_read():
    # at phi = pi/2 the gap is read from X's real-arithmetic spectrum (exactly
    # closed under conjugation), and the report names that eigensolve; off
    # that phase it reads the complex eigensolve of X's dense matrix
    p = ladder(t0=0.6)
    X = build_damping(p)
    rep = liouvillian_gap(X)
    w, how = X.eigenvalues()
    assert rep.eigensolve == how == "dense_real"
    assert np.array_equal(rep.eigenvalues, w)
    assert np.array_equal(np.sort_complex(np.conj(w)), w)
    assert rep.max_real == rep.eigenvalues.real.max()
    # a ring's top eigenvalue is well conditioned: the complex solve agrees
    assert abs(rep.max_real - eigendecompose(X.matrix).real.max()) < 1e-14
    Y = build_damping(p.replace(phi=0.7))
    rep = liouvillian_gap(Y)
    assert rep.eigensolve == "dense"
    assert np.array_equal(rep.eigenvalues, eigendecompose(Y.matrix))


def test_steady_density_dimer():
    p = LadderParams(L=2, t=[0.3], t_p=0.0, phi=0.0, gamma=0.5)
    dens, diag = steady_density(p, 1)
    assert dens[0] == pytest.approx(1.0, abs=1e-8)
    assert dens[1] == pytest.approx(0.0, abs=1e-12)
    assert diag["converged"]


def test_steady_density_matches_escape_profile():
    p = ladder(t0=0.3, L=40, bc=OBC, seed=9)
    dens, diag = steady_density(p, 25)
    prof = loss_profile_resolvent(WalkConfig(params=p, x0=25))
    mask = prof.P > 1e-12
    rel = np.abs(dens[mask] - prof.P[mask]) / prof.P[mask]
    assert rel.max() < 1e-6
    # X has the sparsity of H, so both integrals solve the same band shape,
    # one solve per node
    assert diag["bandwidth"] == prof.diagnostics["bandwidth"] == [3, 3]
    assert diag["n_solves"] == diag["n_nodes"]


def test_steady_density_gapped_bulk_is_exponential():
    p = ladder(t0=0.6, L=120, bc=OBC, gamma=0.5)
    dens, _ = steady_density(p, 90)
    fit = fit_bulk(dens, 90)
    assert fit.kind == EXP


def test_steady_density_lossless_zeros():
    p = ladder(gamma=np.zeros(30))
    dens, diag = steady_density(p, 10)
    assert np.all(dens == 0.0)
    # with every key a converged density carries, read as it reads them
    lossy, full = steady_density(ladder(), 10)
    assert set(full) - {"bandwidth"} <= set(diag)
    assert (diag["n_solves"], diag["conservation_defect"], diag["converged"]) == (0, 1.0, True)


def test_propagation_size_guard():
    with pytest.raises(ValueError, match="L <= 40"):
        propagate_correlation(ladder(L=60), 10, [1.0])


def test_gapped_correlation_decays_at_the_gap_rate():
    p = ladder(t0=0.6, L=20, gamma=0.5)
    rep = liouvillian_gap(build_damping(p))
    assert rep.gap > 1e-3
    horizon = np.log(1e10) / rep.gap
    times = np.linspace(0.5 * horizon, 1.4 * horizon, 12)
    tr = propagate_correlation(p, 10, times)
    slope = np.polyfit(tr.times, np.log(tr.distances), 1)[0]
    assert slope == pytest.approx(-rep.gap, rel=0.05)


def test_gapless_correlation_plateaus():
    # commensurate small ring: an exact surviving mode retains occupation
    p = LadderParams(L=21, t=[0.25, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5,
                     bc=PBC)
    rep = liouvillian_gap(build_damping(p))
    assert rep.gapless
    tr = propagate_correlation(p, 11, np.linspace(50.0, 400.0, 8))
    assert tr.distances[-1] > 0.05
    drop = tr.distances[-1] / tr.distances[0]
    assert drop > 0.5          # nothing like exponential decay


@pytest.mark.parametrize("x0", [0, 31, 4.5, np.float64(4.0), True])
def test_steady_density_refuses_a_cell_that_is_not_one(x0):
    # 4.5 and 4.0 would index the state with a float, and True would run as cell 1
    with pytest.raises(ValueError, match="x0"):
        steady_density(ladder(), x0)
