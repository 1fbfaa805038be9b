from dataclasses import replace

import numpy as np
import pytest

from igclab import (
    OBC, PBC, GeneralModel, LadderParams, build_general, build_ladder,
    eigendecompose, linear_gamma, random_gamma, site_index,
)
from igclab.model import bloch_bands, h_x, h_y
from references import build_bloch, ladder_to_general


def test_dimer_is_block_diagonal():
    p = LadderParams(L=2, t=[0.3], t_p=0.0, phi=0.0, gamma=0.5)
    H = build_ladder(p).matrix
    expected_block = np.array([[0.0, 0.3], [0.3, -0.5j]])
    assert np.allclose(H[:2, :2], expected_block)
    assert np.allclose(H[2:, 2:], expected_block)
    assert np.allclose(H[:2, 2:], 0.0) and np.allclose(H[2:, :2], 0.0)


def test_site_index_interleaves():
    assert site_index(1, "A") == 0
    assert site_index(1, "B") == 1
    assert site_index(3, "A") == 4
    p = LadderParams(L=4, t=[0.2], t_p=0.1, phi=0.3, gamma=[0.1, 0.2, 0.3, 0.4])
    H = build_ladder(p).matrix
    assert np.allclose(-np.imag(np.diag(H)), [0, 0.1, 0, 0.2, 0, 0.3, 0, 0.4])


def test_antihermitian_part_is_loss_diagonal():
    rng = np.random.default_rng(0)
    p = LadderParams(L=11, t=[0.3, 0.5, 0.1], t_p=0.7, phi=0.4,
                     gamma=rng.uniform(0, 1, 11), bc=PBC)
    H = build_ladder(p).matrix
    anti = (H - H.conj().T) / 2
    assert np.allclose(anti - np.diag(np.diagonal(anti)), 0.0)
    diag = np.diagonal(anti)
    assert np.allclose(diag[0::2], 0.0)
    assert np.allclose(diag[1::2], -1j * np.asarray(p.gamma))


def test_dissipativity_random_models():
    rng = np.random.default_rng(1)
    for _ in range(5):
        L = int(rng.integers(4, 20))
        n = int(rng.integers(0, min(3, (L - 1) // 2)) )
        p = LadderParams(L=L, t=rng.uniform(-1, 1, n + 1), t_p=rng.uniform(-1, 1),
                         phi=rng.uniform(0, 2 * np.pi), gamma=rng.uniform(0, 1, L),
                         bc=PBC if rng.random() < 0.5 else OBC)
        H = build_ladder(p).matrix
        w = eigendecompose(H)
        assert w.imag.max() <= 1e-10 * np.linalg.norm(H)


def test_bloch_matrix_entries():
    p = LadderParams(L=10, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=PBC)
    m = build_bloch(p, 0.0)
    assert m[0, 1] == pytest.approx(0.8)         # h_x(0) = 0.3 + 0.5
    assert m[0, 0] == pytest.approx(0.0, abs=1e-15)  # h_y(0) = cos(-pi/2) = 0
    assert m[1, 1] == pytest.approx(-0.5j, abs=1e-15)
    p3 = LadderParams(L=10, t=[0.3, 0.5, 0.1], t_p=0.5, phi=np.pi / 2,
                      gamma=0.5, bc=PBC)
    m3 = build_bloch(p3, np.pi)
    assert m3[0, 1] == pytest.approx(0.3 - 0.5 + 0.1)
    assert np.trace(m3) == pytest.approx(-0.5j, abs=1e-14)


def test_bloch_blocks_refuse_what_has_no_bloch_form():
    ring = LadderParams(L=8, t=[0.3, 0.5], t_p=0.5, phi=0.3, gamma=0.5, bc=PBC)
    for p in (replace(ring, bc=OBC), replace(ring, gamma=linear_gamma(8, 0.01, 0.2))):
        with pytest.raises(ValueError, match="uniform loss"):
            build_ladder(p).blocks()


def test_bloch_eigenvalues_at_connection_root():
    # at a root of the coupling form factor the 2x2 closed form gives {E, -E - i g}
    p = LadderParams(L=10, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=PBC)
    k = np.arccos(-0.6)
    assert abs(h_x(p.t, k)) < 1e-15
    E = h_y(p.t_p, p.phi, k)
    w = eigendecompose(build_bloch(p, k))
    expected = np.array([E, -E - 0.5j])
    dist = np.abs(w[:, None] - expected[None, :])
    assert dist.min(axis=1).max() < 1e-12
    assert min(abs(v.imag) for v in w) < 1e-12   # one root is real


def test_bloch_rejects_nonuniform_gamma():
    p = LadderParams(L=4, t=[0.3], t_p=0.1, phi=0.0, gamma=[0.1, 0.2, 0.3, 0.4],
                     bc=PBC)
    with pytest.raises(ValueError, match="not uniform"):
        build_bloch(p, 0.5)
    with pytest.raises(ValueError):
        bloch_bands(p, [0.1, 0.2])


def test_plane_wave_is_eigenstate_on_commensurate_ring(commensurate_params):
    p = commensurate_params(gamma=list(linear_gamma(200, 0.01, 0.20)))
    H = build_ladder(p).matrix
    k = 3 * np.pi / 5
    x = np.arange(1, 201)
    psi = np.zeros(400, complex)
    psi[0::2] = np.exp(1j * k * x) / np.sqrt(200)
    E = h_y(p.t_p, p.phi, k)
    assert np.linalg.norm(H @ psi - E * psi) < 1e-9


def test_params_validation():
    with pytest.raises(ValueError, match="integer >= 2"):
        LadderParams(L=1, t=[0.3], t_p=0, phi=0, gamma=0.5)
    with pytest.raises(ValueError, match="n < L/2"):
        LadderParams(L=4, t=[0.3, 0.5, 0.1], t_p=0, phi=0, gamma=0.5)
    with pytest.raises(ValueError, match=">= 0"):
        LadderParams(L=4, t=[0.3], t_p=0, phi=0, gamma=-0.1)
    with pytest.raises(ValueError, match="one entry per cell"):
        LadderParams(L=4, t=[0.3], t_p=0, phi=0, gamma=[0.5, 0.5])
    with pytest.raises(ValueError, match="bc"):
        LadderParams(L=4, t=[0.3], t_p=0, phi=0, gamma=0.5, bc="torus")
    with pytest.raises(ValueError):
        LadderParams(L=4, t=[np.inf], t_p=0, phi=0, gamma=0.5)


def test_gamma_profiles():
    g = linear_gamma(5, 0.01, 0.2)
    assert np.allclose(g, [0.21, 0.22, 0.23, 0.24, 0.25])
    r1 = random_gamma(50, seed=9)
    r2 = random_gamma(50, seed=9)
    assert np.array_equal(r1, r2)
    assert np.all((r1 > 0.4) & (r1 < 0.6))
    with pytest.raises(ValueError):
        linear_gamma(5, -1.0, 0.2)


def test_general_model_block_diagonal_when_uncoupled():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = (A + A.conj().T) / 2
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = (B + B.conj().T) / 2
    g = GeneralModel(A=A, B_herm=B, C=np.zeros((3, 4)), gamma=[0.5, 1.0, 2.0])
    w = eigendecompose(build_general(g))
    wa = eigendecompose(A)
    wb = eigendecompose(B - 1j * np.diag([0.5, 1.0, 2.0]))
    expected = np.concatenate([wa, wb])
    dist = np.abs(w[:, None] - expected[None, :])
    assert dist.min(axis=1).max() < 1e-10


def test_general_model_rejects_nonhermitian_blocks():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    ok = np.eye(2)
    with pytest.raises(ValueError, match="A is not Hermitian"):
        GeneralModel(A=bad, B_herm=ok, C=np.zeros((2, 2)), gamma=[1, 1])
    with pytest.raises(ValueError, match="B_herm is not Hermitian"):
        GeneralModel(A=ok, B_herm=bad, C=np.zeros((2, 2)), gamma=[1, 1])
    with pytest.raises(ValueError, match="> 0"):
        GeneralModel(A=ok, B_herm=ok, C=np.zeros((2, 2)), gamma=[1, 0])


def test_random_six_site_model_is_dissipative():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    A = (A + A.conj().T) / 2
    C = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
    g = GeneralModel(A=A, B_herm=np.zeros((1, 1)), C=C, gamma=[1.0])
    w = eigendecompose(build_general(g))
    assert w.imag.max() <= 1e-12


def test_built_matrix_is_readonly():
    p = LadderParams(L=3, t=[0.3], t_p=0.1, phi=0.0, gamma=0.5)
    H = build_ladder(p)
    with pytest.raises(ValueError):
        H.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        build_bloch(p, 0.0)[0, 0] = 1.0
    with pytest.raises(ValueError):
        build_general(ladder_to_general(p))[0, 0] = 1.0
