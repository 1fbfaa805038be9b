import warnings

import numpy as np
import pytest

from igclab import (
    OBC, PBC, LadderParams, SingularMatrixError, build_ladder, eigendecompose,
    lu_solve,
)
from igclab.densela import PIVOT_RTOL, Banded


def test_lu_solve_identity():
    b = np.array([1.0, 2.0 + 1j, -3.0])
    assert np.allclose(lu_solve(np.eye(3), b), b)


def test_lu_solve_diagonal():
    A = np.diag([2.0, -1j])
    x = lu_solve(A, np.array([2.0, 1.0]))
    assert np.allclose(x, [1.0, 1j])


def test_lu_solve_residual_on_shifted_ladder(fig3_params):
    H = build_ladder(fig3_params())
    A = 0.1 * np.eye(H.order.size) - H.matrix
    b = np.zeros(H.order.size, complex)
    b[2 * 149] = 1.0
    x = lu_solve(A, b)
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(A) * np.linalg.norm(x)
    # open boundaries keep the natural order, so the band is A's own
    ab = -H.band.ab
    ab[H.band.ku] += 0.1
    band = Banded(ab, H.band.kl, H.band.ku)
    assert (band.kl, band.ku) == (3, 3)
    assert np.abs(lu_solve(band, b) - x).max() < 1e-12 * np.abs(x).max()


def test_lu_solve_singular_raises():
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
    for form in (rank_one, Banded(np.array([[0.0, 2.0], [1.0, 4.0], [2.0, 0.0]]), 1, 1),
                 np.zeros((2, 2)), Banded(np.zeros((1, 2)), 0, 0)):
        with pytest.raises(SingularMatrixError):
            lu_solve(form, np.array([1.0, 1.0]))


def _near_singular_block(ratio):
    # |c| > |a| makes partial pivoting swap the rows: U = [[1, 2 + e], [0, -e/2]],
    # and with max|A| = 2 + e the second pivot is ratio * PIVOT_RTOL * max|A|
    e = 4.0 * ratio * PIVOT_RTOL / (1.0 - 2.0 * ratio * PIVOT_RTOL)
    return np.exp(0.3j) * np.array([[0.5, 1.0], [1.0, 2.0 + e]])


def _block_band(blocks):
    # m 2x2 blocks on the diagonal of a tridiagonal band of order 2m, the
    # couplings between blocks zero
    ab = np.zeros((3, 2 * len(blocks)), dtype=complex)
    ab[0, 1::2] = blocks[:, 0, 1]
    ab[1] = blocks.diagonal(0, 1, 2).ravel()
    ab[2, 0::2] = blocks[:, 1, 0]
    return Banded(ab, 1, 1)


def test_lu_solve_stacked_blocks():
    rng = np.random.default_rng(7)
    # entries below 1 in modulus, so that the test block below sets max|A|
    A = rng.uniform(-0.7, 0.7, size=(9, 2, 2)) + 1j * rng.uniform(-0.7, 0.7, size=(9, 2, 2))
    b = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (0.0, 0.3 - 0.2j):         # the shift lands on every block
            ref = np.linalg.solve(A + z * np.eye(2), b[..., None])[..., 0]
            x = lu_solve(_block_band(A), b.ravel(), shift=z)
            assert np.abs(x.reshape(9, 2) - ref).max() <= 1e-13 * np.abs(ref).max()
        # just above the pivot threshold the block is solved, backward stably
        A[4] = _near_singular_block(1.1)
        x = lu_solve(_block_band(A), b.ravel()).reshape(9, 2)
        eps = np.finfo(float).eps
        norm_a = np.abs(A[4]).sum(axis=1).max()
        assert np.abs(A[4] @ x[4] - b[4]).max() <= 8 * eps * norm_a * np.abs(x[4]).max()
        A[4] = _near_singular_block(0.9)    # just below: refused
        with pytest.raises(SingularMatrixError):
            lu_solve(_block_band(A), b.ravel())
        A[4] = [[1.0, np.nan], [0.0, 1.0]]
        with pytest.raises(SingularMatrixError):
            lu_solve(_block_band(A), b.ravel())
        A[4] = 0.0
        with pytest.raises(SingularMatrixError):
            lu_solve(_block_band(A), b.ravel())
    with pytest.raises(ValueError, match="square"):
        lu_solve(np.ones((3, 3, 3)), np.ones(3))


def test_a_band_is_read_only():
    # the band caches its LU set-up, so its entries must not change under it
    ab = np.array([[0.0, 2.0], [1.0, 4.0], [3.0, 0.0]])
    band = Banded(ab, 1, 1)
    x = lu_solve(band, np.ones(2), shift=1.0)
    with pytest.raises(ValueError, match="read-only"):
        band.ab[1, 0] = 5.0
    ab[1, 0] = 5.0                      # the caller's array is not the band's
    assert np.array_equal(lu_solve(band, np.ones(2), shift=1.0), x)


def test_banded_transpose():
    A = np.array([[1, 2, 10, 0],
                  [3, 4, 5, 0],
                  [0, 6, 7, 8],
                  [0, 0, 9, 1j]])
    band = Banded(np.array([[0, 0, 10, 0], [0, 2, 5, 8], [1, 4, 7, 1j], [3, 6, 9, 0]]), 1, 2)
    t = band.T
    assert (t.kl, t.ku) == (2, 1)
    expected = np.zeros_like(t.ab)
    for i, j in zip(*np.nonzero(A.T)):
        expected[t.ku + i - j, j] = A.T[i, j]
    assert np.array_equal(t.ab, expected)


def test_lu_solve_overflowing_elimination_raises():
    # a subnormal coupling becomes the pivot and the elimination overflows
    # into NaN; a NaN pivot must count as singular, not slip past the test
    H = build_ladder(LadderParams(L=4, t=[2.2e-311], t_p=0.0, phi=0.0,
                                  gamma=1.0))
    b = np.eye(8)[0]
    for A in (-H.matrix, Banded(-H.band.ab, H.band.kl, H.band.ku)):
        with pytest.raises(SingularMatrixError):
            lu_solve(A, b)


def test_lu_solve_refuses_a_subnormal_matrix():
    # the pivot test is relative, so [[2.2e-311]] passes it and its solve
    # overflows to NaN: a largest entry below the smallest normal number is
    # refused on the dense and the band path, with or without a shift
    tiny = np.finfo(float).tiny
    b = np.ones(1)
    for form in (np.array([[2.2e-311]]), Banded(np.array([[2.2e-311]]), 0, 0)):
        with pytest.raises(SingularMatrixError):
            lu_solve(form, b)
    for form in (np.zeros((4, 4)), Banded(np.zeros((3, 4)), 1, 1),
                 Banded(np.zeros((5, 4)), 2, 2)):
        with pytest.raises(SingularMatrixError):
            lu_solve(form, np.ones(4), shift=2.2e-311)
    # the smallest normal scale still solves, to a finite x
    for form in (np.array([[tiny]]), Banded(np.array([[tiny]]), 0, 0)):
        assert lu_solve(form, b)[0] == pytest.approx(1.0 / tiny)


def test_lu_solve_ill_conditioned_backward_stable():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)))
    s = np.logspace(0, -8, 40)          # condition number 1e8
    A = (q * s) @ q.conj().T
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    x = lu_solve(A, b)
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(A) * np.linalg.norm(x)


def test_eigendecompose_symmetric_pair():
    spec = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_eigendecompose_solves_a_real_matrix_in_real_arithmetic(monkeypatch):
    rng = np.random.default_rng(9)
    A = rng.normal(size=(24, 24))
    seen = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: seen.append(M.dtype) or eigvals(M))
    spec = eigendecompose(A)
    Ac = A.astype(complex)
    ref = eigendecompose(Ac).eigenvalues
    assert seen == [np.float64, np.complex128]
    w = spec.eigenvalues
    # complex dtype, sorted by (Re, Im), and exactly closed under conjugation
    assert w.dtype == complex and np.iscomplex(w).any()
    assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(w.size))
    assert np.array_equal(np.sort_complex(np.conj(w)), w)
    # the complex solve pairs them only to rounding, so match nearest
    dist = np.abs(w[:, None] - ref[None, :])
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) < 1e-12 * np.linalg.norm(A, 2)
    # a complex matrix is today's complex eigensolve, bit for bit
    ref_w = eigvals(Ac)
    assert np.array_equal(ref, ref_w[np.lexsort((ref_w.imag, ref_w.real))])
    # all-real eigenvalues still come back complex
    assert eigendecompose(A + A.T).eigenvalues.dtype == complex
    # the vectors keep the residual and flag contract
    vec = eigendecompose(A, want_vectors=True)
    assert vec.right_vectors.dtype == complex
    assert np.array_equal(vec.eigenvalues, w)
    assert vec.residuals.max() < 1e-13 and not vec.condition_flag
    r = np.linalg.norm(A @ vec.right_vectors - vec.right_vectors * w, axis=0)
    assert np.allclose(r / (np.linalg.norm(vec.right_vectors, axis=0) * np.linalg.norm(A)),
                       vec.residuals, rtol=1e-6, atol=1e-16)


def test_eigendecompose_takes_a_stack_of_blocks():
    rng = np.random.default_rng(8)
    blocks = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    w = eigendecompose(blocks).eigenvalues
    assert w.shape == (7, 3)
    for block, row in zip(blocks, w):
        # each row is its block's spectrum, in the same (Re, Im) order
        assert np.allclose(row, eigendecompose(block).eigenvalues, rtol=0, atol=1e-13)
        assert np.array_equal(np.lexsort((row.imag, row.real)), np.arange(3))
    with pytest.raises(ValueError, match="stack"):
        eigendecompose(blocks, want_vectors=True)
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="empty"):
        eigendecompose(np.zeros((0, 2, 2)))


def test_eigendecompose_defective_sets_flag():
    spec = eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]), want_vectors=True)
    assert np.allclose(spec.eigenvalues, 0.0)
    assert spec.condition_flag


def test_eigendecompose_residual_contract():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    spec = eigendecompose(A, want_vectors=True)
    assert spec.residuals.max() < 1e-8
    assert not spec.condition_flag
    # residuals recomputed directly must match the reported ones
    for j in [0, 7, 29]:
        v = spec.right_vectors[:, j]
        r = np.linalg.norm(A @ v - spec.eigenvalues[j] * v)
        r /= np.linalg.norm(v) * np.linalg.norm(A)
        assert r == pytest.approx(spec.residuals[j], rel=1e-6, abs=1e-15)


def test_trace_and_determinant_invariants():
    rng = np.random.default_rng(7)
    for n in (3, 17, 64):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = eigendecompose(A).eigenvalues
        assert abs(w.sum() - np.trace(A)) < 1e-9 * np.linalg.norm(A)
        det = np.linalg.det(A)
        assert abs(np.prod(w) - det) < 1e-8 * abs(det)


def test_obc_skin_matrix_flags_conditioning(fig3_params):
    spec = eigendecompose(build_ladder(fig3_params(bc=OBC)).matrix,
                          want_vectors=True)
    assert spec.condition_flag


def test_max_imag_obc_strictly_gapped(fig3_params):
    w = eigendecompose(build_ladder(fig3_params(bc=OBC)).matrix).eigenvalues
    assert w.imag.max() < -1e-3


def test_max_imag_pbc_near_axis(fig3_params, commensurate_params):
    # the finite incommensurate ring only approaches the axis; the
    # commensurate one touches it to machine precision
    near = eigendecompose(build_ladder(fig3_params(bc=PBC)).matrix).eigenvalues.imag.max()
    assert -1e-4 < near <= 1e-12
    exact = eigendecompose(build_ladder(commensurate_params()).matrix).eigenvalues.imag.max()
    assert abs(exact) < 1e-12
