import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igclab import (
    OBC, PBC, LadderParams, SingularMatrixError, build_ladder, eigendecompose,
    lu_solve,
)
from igclab.densela import PIVOT_RTOL, Banded
from references import eigenpair_near, eigenpairs

EPS = np.finfo(float).eps


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
    # and with max|A| = 2 + e the second pivot is ratio * PIVOT_RTOL * max|A|,
    # to about 1e-3 relative: e rounds in 2 + e (`_threshold_block` is exact)
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


def _band_of(A, kl, ku):
    """A dense matrix, zero outside the band, in band storage."""
    n = A.shape[0]
    ab = np.zeros((kl + ku + 1, n), dtype=complex)
    for d in range(-kl, ku + 1):
        i = np.arange(max(-d, 0), n - max(d, 0))
        ab[ku - d, i + d] = A[i, i + d]
    return Banded(ab, kl, ku)


def _exact_rule(band, b, shift):
    """The pivot rule as stated, worked out in full for every solve.

    LAPACK's own factorization of the shifted storage (`zgtsv` for a
    tridiagonal band of order > 1, `zgbtrf` otherwise) gives the smallest
    |U_ii|, and the scale is max|A + shift I| over the matrix's entries.
    Returns (x, pivot, scale), x None where the rule refuses the matrix.
    """
    kl, ku, n = band.kl, band.ku, band.ab.shape[1]
    shifted = np.array(band.ab)
    shifted[ku] += shift
    A = np.zeros((n, n), dtype=complex)
    for d in range(-kl, ku + 1):
        i = np.arange(max(-d, 0), n - max(d, 0))
        A[i, i + d] = shifted[ku - d, i + d]
    scale = np.abs(A).max(initial=0.0)
    if kl == ku == 1 and n > 1:
        _, u, _, x, info = sla.lapack.zgtsv(shifted[2, :-1].copy(), shifted[1].copy(),
                                            shifted[0, 1:].copy(), b.reshape(n, 1).copy())
        pivot, x = (np.abs(u).min() if info == 0 else 0.0), x[:, 0]
    else:
        storage = np.zeros((2 * kl + ku + 1, n), dtype=complex, order="F")
        storage[kl:] = shifted
        lu, piv, _ = sla.lapack.zgbtrf(storage, kl, ku)
        pivot = np.abs(lu[kl + ku]).min()
        x = sla.lapack.zgbtrs(lu, kl, ku, b, piv)[0]
    ok = np.finfo(float).tiny <= scale < np.inf and pivot >= PIVOT_RTOL * scale
    return (x if ok else None), pivot, scale


def _threshold_block(k, omega, unit):
    """A 2x2 block whose second pivot, under the shift unit * omega, is
    (1 + k eps) PIVOT_RTOL times its scale, within two rounding units.

    Upper triangular (no row swap) with the coupling 0.5, its diagonal on the
    shift's ray: unit (a, q) with q + omega = 2^-44 exactly and a + omega the
    scale 2^-44 / (PIVOT_RTOL (1 + k eps)) to one rounding, unit being 1, i,
    -1 or -i (the X side's s = i is unit i), so |a + shift| = |a| + |shift|
    and the bound max(off, dmax + |shift|) is the scale itself.
    """
    pivot = 2.0 ** -44
    scale = pivot / (PIVOT_RTOL * (1.0 + k * EPS))
    return np.array([[unit * (scale - omega), 0.5], [0.0, unit * (pivot - omega)]])


@st.composite
def _pivot_cases(draw):
    """A band, a right-hand side and a shift near the edges of the pivot rule.

    Entries of modulus below 1 (or all scaled to subnormal or huge, or with a
    subnormal off-diagonal part), a diagonal that may share one phase with
    the shift, so that |a + shift| = |a| + |shift| and the cheap bound is
    tight; or a 2x2 block whose second pivot lies a few rounding units from
    the threshold (`_threshold_block`, under an aligned shift, or
    `_near_singular_block(1 + k eps)`, unshifted); or a NaN, an infinite
    entry or a zero column.
    """
    path = draw(st.sampled_from(["tridiagonal", "band"]))
    if path == "tridiagonal":
        kl = ku = 1
        n = draw(st.integers(2, 8))
    else:
        kl, ku = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2), (3, 1)]))
        n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.triu(np.tril(rng.uniform(-0.7, 0.7, (n, n)) + 1j * rng.uniform(-0.7, 0.7, (n, n)),
                        ku), -kl)
    unit = draw(st.sampled_from([None, 1.0, 1j, -1.0, -1j]))
    omega = draw(st.sampled_from([0.0, 1.0, 0.5, 3.5, 1e-3, 1e-310]))
    if unit is None:
        shift = omega * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    else:
        # the diagonal on the shift's ray
        shift = unit * omega
        A[np.diag_indices(n)] = unit * np.abs(np.diagonal(A))
    defect = draw(st.sampled_from(["none", "threshold", "near singular", "nan", "inf",
                                   "zero column"]))
    if defect in ("threshold", "near singular") and n >= 2 and ku >= 1:
        # decoupled from the rest of the matrix, whose entries it dominates
        j = draw(st.integers(0, n - 2))
        A[j:j + 2, :] = 0.0
        A[:, j:j + 2] = 0.0
        k = draw(st.integers(-12, 12))
        if defect == "threshold" and unit is not None and omega in (0.0, 0.5, 1.0, 3.5):
            A[j:j + 2, j:j + 2] = _threshold_block(k, omega, unit)
        elif kl >= 1:
            A[j:j + 2, j:j + 2] = _near_singular_block(1.0 + k * EPS)
            shift = 0.0
    elif defect in ("nan", "inf"):
        i = draw(st.integers(0, n - 1))
        j = min(max(i + draw(st.integers(-kl, ku)), 0), n - 1)
        A[i, j] = np.nan if defect == "nan" else np.inf
    elif defect == "zero column":
        A[:, draw(st.integers(0, n - 1))] = 0.0
    if defect not in ("threshold", "near singular"):
        diag_mag, off_mag = draw(st.sampled_from([(1.0, 1.0), (1e-310, 1e-310), (1.0, 1e-310),
                                                  (1e300, 1e300), (1.0, 0.0)]))
        off = ~np.eye(n, dtype=bool)
        with np.errstate(invalid="ignore"):
            A[off] *= off_mag
            A[~off] *= diag_mag
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return _band_of(A, kl, ku), b, complex(shift)


@settings(max_examples=400, deadline=None)
@given(case=_pivot_cases())
@example(case=(_band_of(_threshold_block(-1, 3.5, -1.0), 1, 2), np.ones(2), -3.5 + 0j))
@example(case=(_band_of(np.diag([1j, 2j, 1e-15j]), 1, 1), np.ones(3), 1e-300j))
def test_bounded_pivot_test_refuses_what_the_exact_rule_refuses(case):
    # lu_solve first checks the pivot against a cheap bound of the scale and
    # works the exact scale out only where that check does not pass; its
    # decisions, its solution bits and its message are the exact rule's
    band, b, shift = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # inf - inf in a NaN case
        x, pivot, scale = _exact_rule(band, b, shift)
        try:
            got = lu_solve(band, b, shift=shift)
        except SingularMatrixError as err:
            assert x is None, f"refused, but the exact rule passes: {err}"
            assert f"(min pivot {pivot:.3e} vs scale {scale:.3e})" in str(err)
            return
    assert x is not None, f"solved, but the exact rule refuses (pivot {pivot}, scale {scale})"
    assert np.array_equal(got, x)


@pytest.mark.parametrize("kl, ku", [(1, 1), (1, 2)])
@pytest.mark.parametrize("unit", [1.0, 1j])
def test_a_pivot_within_the_bounds_padding_is_decided_exactly(kl, ku, unit):
    # the scale sits on the diagonal, so the bound is that scale times about
    # 1 + 8 eps: a pivot 4 eps above the threshold fails the bound and is
    # passed on the exact scale; 4 eps below it, it is refused with that scale
    band = _band_of(_threshold_block(4, 1.0, unit), kl, ku)
    x, pivot, scale = _exact_rule(band, np.ones(2), unit)
    assert PIVOT_RTOL * scale <= pivot < PIVOT_RTOL * scale * (1 + 8 * EPS)
    assert np.array_equal(lu_solve(band, np.ones(2), shift=unit), x)
    band = _band_of(_threshold_block(-4, 1.0, unit), kl, ku)
    x, pivot, scale = _exact_rule(band, np.ones(2), unit)
    assert x is None and pivot == 2.0 ** -44
    with pytest.raises(SingularMatrixError, match=re.escape(f"vs scale {scale:.3e})")):
        lu_solve(band, np.ones(2), shift=unit)


def test_the_bound_is_padded_past_rounding():
    # here the computed |a + shift| exceeds fl(|a| + |shift|) by one rounding
    # unit, and the pivot 2^-44 lies between PIVOT_RTOL times the two: an
    # unpadded bound would pass what the exact rule refuses
    a, shift = -2.307765934463148 + 1.8276640587483926j, -2.1483769805711397 + 1.7014339844692183j
    band = _band_of(np.array([[a, 0.5], [0.0, 2.0 ** -44 - shift]]), 1, 1)
    x, pivot, scale = _exact_rule(band, np.ones(2), shift)
    assert pivot == 2.0 ** -44 and scale > abs(a) + abs(shift)
    assert PIVOT_RTOL * (abs(a) + abs(shift)) <= pivot < PIVOT_RTOL * scale
    with pytest.raises(SingularMatrixError, match=re.escape(f"vs scale {scale:.3e})")):
        lu_solve(band, np.ones(2), shift=shift)


def test_consecutive_shifts_share_no_state():
    # each solve copies the band's storage into one work buffer and factors it
    # there: a second shift, and a solve after a refused one, must read what a
    # fresh band of the same entries reads, bit for bit
    rng = np.random.default_rng(11)
    H = build_ladder(LadderParams(L=12, t=[0.3, 0.5], t_p=0.5, phi=0.7, gamma=0.5))
    tri = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
    tri[0, 0] = tri[2, -1] = 0.0
    for ab, kl, ku in ((-H.band.ab, H.band.kl, H.band.ku), (tri, 1, 1)):
        b = rng.normal(size=ab.shape[1]) + 1j * rng.normal(size=ab.shape[1])
        band = Banded(ab, kl, ku)
        first = lu_solve(band, b, shift=0.3 - 0.1j)
        second = lu_solve(band, b, shift=1.7j)
        assert np.array_equal(second, lu_solve(Banded(ab, kl, ku), b, shift=1.7j))
        assert np.array_equal(lu_solve(band, b, shift=0.3 - 0.1j), first)
        assert not np.array_equal(first, second)
        with pytest.raises(SingularMatrixError):
            lu_solve(band, b, shift=np.nan)
        assert np.array_equal(lu_solve(band, b, shift=1.7j), second)


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
    w = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert isinstance(w, np.ndarray) and np.allclose(w, [-1.0, 1.0])


def test_eigendecompose_solves_a_real_matrix_in_real_arithmetic(monkeypatch):
    rng = np.random.default_rng(9)
    A = rng.normal(size=(24, 24))
    seen = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: seen.append(M.dtype) or eigvals(M))
    w = eigendecompose(A)
    Ac = A.astype(complex)
    ref = eigendecompose(Ac)
    assert seen == [np.float64, np.complex128]
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
    assert eigendecompose(A + A.T).dtype == complex
    # the reference's vectors keep the residual and flag contract
    vec_w, V, residuals, flag = eigenpairs(A)
    assert V.dtype == complex
    assert np.array_equal(vec_w, w)
    assert residuals.max() < 1e-13 and not flag
    r = np.linalg.norm(A @ V - V * w, axis=0)
    assert np.allclose(r / (np.linalg.norm(V, axis=0) * np.linalg.norm(A)),
                       residuals, rtol=1e-6, atol=1e-16)


def test_eigendecompose_takes_a_stack_of_blocks():
    rng = np.random.default_rng(8)
    blocks = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    w = eigendecompose(blocks)
    assert w.shape == (7, 3)
    for block, row in zip(blocks, w):
        # each row is its block's spectrum, in the same (Re, Im) order
        assert np.allclose(row, eigendecompose(block), rtol=0, atol=1e-13)
        assert np.array_equal(np.lexsort((row.imag, row.real)), np.arange(3))
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="empty"):
        eigendecompose(np.zeros((0, 2, 2)))


def test_eigendecompose_defective_sets_flag():
    # the flag comes with the vectors, which the reference computes
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    w, _, _, flag = eigenpairs(A)
    assert np.allclose(w, 0.0)
    assert np.allclose(eigendecompose(A), 0.0)
    assert flag


def test_eigendecompose_residual_contract():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    w, V, residuals, flag = eigenpairs(A)
    # the residuals vouch for eigendecompose's eigenvalues, sorted alike
    assert np.allclose(eigendecompose(A), w, rtol=0, atol=1e-12 * np.linalg.norm(A))
    assert residuals.max() < 1e-8
    assert not flag
    # residuals recomputed directly must match the reported ones
    for j in [0, 7, 29]:
        v = V[:, j]
        r = np.linalg.norm(A @ v - w[j] * v)
        r /= np.linalg.norm(v) * np.linalg.norm(A)
        assert r == pytest.approx(residuals[j], rel=1e-6, abs=1e-15)


def test_inverse_iteration_converges_to_the_eigenvalue_nearest_the_shift():
    # tridiagonal Toeplitz (sub 1, super 1/4): eigenvalues cos(j pi / 9),
    # j = 1..8; diag(2^k) makes it symmetric, so an eigenvalue is good to its
    # residual times that scaling's condition number, 2^7
    n = 8
    lam = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:], ab[2, :-1] = 0.25, 1.0
    band = Banded(ab=ab, kl=1, ku=1)
    A = np.diag(np.full(n - 1, 0.25), 1) + np.diag(np.ones(n - 1), -1)
    for j in range(n - 1):
        for frac, want in ((0.4, j), (0.6, j + 1)):
            # the shift lies between two eigenvalues, nearer `want`
            E, v = eigenpair_near(band, lam[j] + frac * (lam[j + 1] - lam[j]))
            assert abs(E - lam[want]) < 1e-12
            assert np.linalg.norm(A @ v - E * v) < 1e-13


def test_trace_and_determinant_invariants():
    rng = np.random.default_rng(7)
    for n in (3, 17, 64):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = eigendecompose(A)
        assert abs(w.sum() - np.trace(A)) < 1e-9 * np.linalg.norm(A)
        det = np.linalg.det(A)
        assert abs(np.prod(w) - det) < 1e-8 * abs(det)


def test_obc_skin_matrix_flags_conditioning(fig3_params):
    assert eigenpairs(build_ladder(fig3_params(bc=OBC)).matrix)[3]


def test_max_imag_obc_strictly_gapped(fig3_params):
    w = eigendecompose(build_ladder(fig3_params(bc=OBC)).matrix)
    assert w.imag.max() < -1e-3


def test_max_imag_pbc_near_axis(fig3_params, commensurate_params):
    # the finite incommensurate ring only approaches the axis; the
    # commensurate one touches it to machine precision
    near = eigendecompose(build_ladder(fig3_params(bc=PBC)).matrix).imag.max()
    assert -1e-4 < near <= 1e-12
    exact = eigendecompose(build_ladder(commensurate_params()).matrix).imag.max()
    assert abs(exact) < 1e-12
