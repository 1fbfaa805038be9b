"""Property tests: the operator views derived from one band-built ladder agree.

Small ladders are drawn at random (L 4-24, or 2-24 where stated, every
coupling range n < L/2, uniform, linear or random loss, open and periodic
boundaries, t_p = 0 included).  The band and its dense view must equal a
ladder assembled entry by entry here, the periodic spectrum must be the Bloch
bands on the ring's momenta, and so must the eigenvalues of the ring's 2x2
Bloch blocks read off the band, the split form and the damping matrix must
reproduce the ladder matrix exactly, the banded solves of the resolvent
integrand, its Bloch-block solves on uniform rings and the TIME engine's
banded rhs and loss rates must reproduce the dense reference, and the two
resolvent integrals (of H and of X) must give the same profile, each the one
a dense solve gives over the geometric tail panels its mapped tail replaced,
and every eigenvalue of H and of X must lie within the integrands' pole
bound (Bendixson's strip, read off the band's Hermitian part).  At
cos(phi) = 0 the real eigensolve of the gauged operator must match the
complex dense one (backward error, and values where well conditioned) and be
exactly closed under its mirror; elsewhere the complex one must be
unchanged.  The self-crossings of the momentum-space spectrum must be points
where the Bloch bands meet, closed under the mirror E -> -i gamma - E, and
absent from the time-reversal-symmetric phases.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from igclab import (
    OBC, PBC, LadderParams, SingularMatrixError, WalkConfig, bloch_bands,
    build_damping, build_general, build_ladder, densela, eigendecompose,
    linear_gamma, liouvillian_gap, loss_profile_resolvent, random_gamma,
    self_intersections, steady_density,
)
from igclab.liouville import GAPLESS_TOL
from igclab.model import LadderOperator, band_order
from igclab.quadrature import adaptive_quadrature, tail_map
from igclab.walk import (
    RESOLVENT_RTOL, _band_rhs, _loss_rates, resolvent_integrand, resolvent_result,
)
from references import build_bloch, dense_solve, geometric_edges, ladder_to_general

_amplitude = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def ladders(draw, max_L=24, min_gamma=0.0, min_L=4, uniform=False, bc=None, max_n=None):
    L = draw(st.integers(min_L, max_L))
    n = draw(st.integers(0, (L - 1) // 2 if max_n is None else min(max_n, (L - 1) // 2)))
    t = draw(st.lists(_amplitude, min_size=n + 1, max_size=n + 1))
    t_p = draw(st.just(0.0) | _amplitude)
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    kind = "uniform" if uniform else draw(st.sampled_from(["uniform", "linear", "random"]))
    if kind == "uniform":
        gamma = draw(st.floats(min_gamma, 1.0))
    elif kind == "linear":
        gamma = linear_gamma(L, draw(st.floats(0.0, 0.1)),
                             draw(st.floats(min_gamma, 1.0)))
    else:
        low = draw(st.floats(min_gamma, 0.5))
        gamma = random_gamma(L, low, low + draw(st.floats(0.01, 0.5)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    return LadderParams(L=L, t=t, t_p=t_p, phi=phi, gamma=gamma,
                        bc=bc or draw(st.sampled_from([OBC, PBC])))


def _reference_ladder(p):
    """The ladder matrix entry by entry, from the conventions in `igclab.model`.

    Rows interleave (x, A) and (x, B).  The forward hop x -> x+1 carries
    (t_p/2) e^{i phi} on chain A and minus that on chain B, t_0 couples A and
    B in a cell and t_m/2 couples cells m apart both ways, and -i gamma_x sits
    on (x, B).  Hops wrap modulo L under PBC and are dropped at the ends under
    OBC; two hops on one entry add up.
    """
    L = p.L
    H = np.zeros((p.dim, p.dim), dtype=complex)

    def on(x):
        return p.bc == PBC or 0 <= x < L

    fwd = 0.5 * p.t_p * np.exp(1j * p.phi)
    for x in range(L):
        a, b = 2 * x, 2 * x + 1
        if on(x + 1):
            a1, b1 = 2 * ((x + 1) % L), 2 * ((x + 1) % L) + 1
            H[a1, a] += fwd
            H[a, a1] += np.conj(fwd)
            H[b1, b] += -fwd
            H[b, b1] += -np.conj(fwd)
        H[b, a] += p.t[0]
        H[a, b] += p.t[0]
        for m in range(1, p.n + 1):
            for y in (x + m, x - m):
                if on(y):
                    by = 2 * (y % L) + 1
                    H[by, a] += 0.5 * p.t[m]
                    H[a, by] += 0.5 * p.t[m]
        H[b, b] = -1j * p.gamma[x]
    return H


@settings(max_examples=150, deadline=None)
@given(p=ladders(min_L=2))
@example(p=LadderParams(L=2, t=[0.3], t_p=0.7, phi=0.0, gamma=[0.2, 0.9], bc=PBC))
@example(p=LadderParams(L=2, t=[0.3], t_p=0.7, phi=1.0, gamma=[0.2, 0.9], bc=PBC))
@example(p=LadderParams(L=9, t=[0.3, 0.5, 0.0, 0.0], t_p=0.0, phi=1.0,
                        gamma=np.linspace(0.1, 0.9, 9), bc=OBC))
@example(p=LadderParams(L=9, t=[0.3, 0.0, 0.2, 0.0], t_p=0.4, phi=2.0,
                        gamma=np.linspace(0.1, 0.9, 9), bc=PBC))
@example(p=LadderParams(L=4, t=[0.0], t_p=0.0, phi=0.0, gamma=0.5, bc=OBC))
def test_band_and_its_dense_view_are_the_ladder(p):
    H = build_ladder(p)
    ref = _reference_ladder(p)
    assert H.matrix.tobytes() == ref.tobytes()
    order = band_order(p)
    permuted = ref[np.ix_(order, order)]
    assert np.array_equal(_dense(H.band), permuted)
    # as narrow as the nonzero couplings allow
    i, j = np.nonzero(permuted)
    assert (H.band.kl, H.band.ku) == ((i - j).max(initial=0), (j - i).max(initial=0))


@settings(max_examples=60, deadline=None)
@given(p=ladders(uniform=True, bc=PBC))
@example(p=LadderParams(L=24, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=PBC))
@example(p=LadderParams(L=12, t=[0.5], t_p=0.0, phi=0.0, gamma=1.0, bc=PBC))
def test_pbc_spectrum_is_the_bloch_bands(p):
    # a uniform ring is the direct sum of the 2x2 Bloch matrices at
    # k = 2 pi j / L.  Where a block sits at an exceptional point (h_y = 0,
    # |h_x| = gamma/2; at every k in the second example) a backward error
    # delta moves its eigenvalues by ~sqrt(delta ||H||), so a backward-stable
    # eigensolve, delta ~ eps ||H||, agrees to ~sqrt(eps) ||H|| only.
    # Measured: 0.3-0.65 sqrt(eps) ||H|| at exact exceptional points, below
    # 1e-6 sqrt(eps) ||H|| on 3000 random rings.
    H = build_ladder(p).matrix
    w = eigendecompose(H)
    bands = bloch_bands(p, 2 * np.pi * np.arange(p.L) / p.L).ravel()
    rows, cols = linear_sum_assignment(np.abs(w[:, None] - bands[None, :]))
    scale = max(1.0, np.abs(H).sum(axis=1).max())
    assert np.abs(w[rows] - bands[cols]).max() < 8 * np.sqrt(np.finfo(float).eps) * scale


@settings(max_examples=80, deadline=None)
@given(p=ladders(min_L=2, uniform=True, bc=PBC))
@example(p=LadderParams(L=2, t=[0.3], t_p=0.7, phi=1.0, gamma=0.4, bc=PBC))
@example(p=LadderParams(L=3, t=[0.3, 0.5], t_p=0.7, phi=1.0, gamma=0.4, bc=PBC))
@example(p=LadderParams(L=5, t=[0.3, 0.5, 0.2], t_p=0.7, phi=2.0, gamma=0.4, bc=PBC))
@example(p=LadderParams(L=12, t=[0.5], t_p=0.0, phi=0.0, gamma=1.0, bc=PBC))
def test_bloch_blocks_are_the_ring(p):
    # block j, read off the assembled band, is the closed-form Bloch matrix at
    # k_j = 2 pi j / L (so a dropped wrap, a flipped transform sign or a
    # transposed read of the band shows at phi other than 0 and pi); its
    # eigenvalues are the two bands at k_j, and all L blocks together have
    # the dense ring's spectrum, which is what the ring's `eigenvalues` reads,
    # sorted by (Re, Im).  The examples are the shortest rings at
    # n = 0, 1, 2 (on L = 2 the +1 and -1 hops share an entry) and a ring
    # with every block at an exceptional point, where eigenvalues agree to
    # ~sqrt(eps) ||H|| only (see test_pbc_spectrum_is_the_bloch_bands).
    H = build_ladder(p)
    ks = 2 * np.pi * np.arange(p.L) / p.L
    blocks = H.blocks()
    scale = max(1.0, np.abs(H.matrix).sum(axis=1).max())
    closed_form = np.array([build_bloch(p, k) for k in ks])
    assert np.abs(blocks - closed_form).max() <= 1e-14 * scale
    tol = 8 * np.sqrt(np.finfo(float).eps) * scale
    w = eigendecompose(blocks)
    bands = bloch_bands(p, ks).T
    per_k = np.minimum(np.abs(w - bands).max(axis=1), np.abs(w - bands[:, ::-1]).max(axis=1))
    assert per_k.max() < tol
    dense = eigendecompose(H.matrix)
    rows, cols = linear_sum_assignment(np.abs(dense[:, None] - w.ravel()[None, :]))
    assert np.abs(dense[rows] - w.ravel()[cols]).max() < tol
    got, how = H.eigenvalues()
    assert how == "bloch_blocks"
    assert np.array_equal(got, np.sort_complex(w.ravel()))


@settings(max_examples=60, deadline=None)
@given(p=ladders(min_gamma=0.05))
@example(p=LadderParams(L=8, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 3,
                        gamma=np.linspace(0.2, 0.9, 8), bc=PBC))
def test_ladder_maps_to_general_form(p):
    H = build_ladder(p).matrix
    # blocked ordering: every A site first, then every B site
    perm = np.concatenate([np.arange(0, p.dim, 2), np.arange(1, p.dim, 2)])
    assert np.array_equal(build_general(ladder_to_general(p)),
                          H[np.ix_(perm, perm)])


@settings(max_examples=60, deadline=None)
@given(p=ladders())
def test_damping_matrix_is_i_conj_h(p):
    assert np.array_equal(build_damping(p).matrix, 1j * np.conj(build_ladder(p).matrix))


@settings(max_examples=30, deadline=None)
@given(p=ladders(max_L=12, min_gamma=0.05), data=st.data())
def test_steady_density_matches_escape_profile(p, data):
    x0 = data.draw(st.integers(1, p.L))
    try:
        prof = loss_profile_resolvent(WalkConfig(params=p, x0=x0))
    except SingularMatrixError:
        # a lossless mode sits on a quadrature node; X = i conj(H) has the
        # same pivots, so the damping side must refuse the same node
        with pytest.raises(SingularMatrixError):
            steady_density(p, x0)
        return
    dens, diag = steady_density(p, x0)
    if not prof.incomplete:
        assert diag["converged"]
    assert np.allclose(dens, prof.P, rtol=1e-6, atol=1e-12)


#: couplings of 1e-10 leave the A chain nearly decoupled from the lossy B
#: chain: its modes decay at ~1e-20, far below what a frequency grid resolves
WEAKLY_COUPLED = LadderParams(L=5, t=[1e-10, 1e-10, -3.8e-206], t_p=0.075,
                              phi=3.27, gamma=0.35, bc=OBC)


def test_both_paths_flag_an_unresolvable_mode():
    prof = loss_profile_resolvent(WalkConfig(params=WEAKLY_COUPLED, x0=4),
                                  max_panels=1000)
    assert prof.incomplete and not prof.diagnostics["converged"]
    # the flag is earned: almost none of the escaping weight was found
    assert prof.diagnostics["conservation_defect"] > 0.5
    _, diag = steady_density(WEAKLY_COUPLED, 4, max_panels=1000)
    assert not diag["converged"]


# --- the banded resolvent solves against the dense reference -----------------

#: the resolvent of H (s = 1) and of the damping matrix X (s = i)
_SIDES = {"H": 1.0, "X": 1j}

#: a ladder with a nearly lossless A-site mode: a quadrature node comes
#: within the pivot threshold of its energy
NEAR_LOSSLESS = LadderParams(L=4, t=[2.2e-16], t_p=0.0, phi=0.0, gamma=1.0, bc=OBC)


def _operator(p, side):
    """The dense natural-order matrix and the `LadderOperator` of H or of X."""
    if side == "H":
        H = build_ladder(p)
        return H.matrix, H
    X = build_damping(p)
    return X.matrix, X


def _dense(band):
    """The dense matrix behind a band-storage one."""
    n = band.ab.shape[1]
    A = np.zeros((n, n), dtype=complex)
    for d in range(-band.kl, band.ku + 1):
        i = np.arange(max(-d, 0), n - max(d, 0))
        A[i, i + d] = band.ab[band.ku - d, i + d]
    return A


def _max(v):
    return np.abs(v).max()


def _pole_bound(M, s):
    """||Herm(M/s)||_inf of a dense M, as `resolvent_integrand`'s `pole_bound`
    (its band sums each row in another order)."""
    A = M / s
    return pytest.approx(np.abs(0.5 * (A + A.conj().T)).sum(axis=1).max(), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(p=ladders(min_gamma=0.05), side=st.sampled_from(sorted(_SIDES)),
       data=st.data())
def test_banded_solve_matches_dense(p, side, data):
    s = _SIDES[side]
    M, op = _operator(p, side)
    m_band = op.band
    width = np.abs(M).sum(axis=1).max() + 1.0
    w = data.draw(st.floats(-width, width))
    x0 = data.draw(st.integers(1, p.L))
    A = s * w * np.eye(p.dim) - M
    b = np.zeros(p.dim, complex)
    b[2 * (x0 - 1)] = 1.0
    order = band_order(p)
    ab = -m_band.ab
    ab[m_band.ku] += s * w
    band = densela.Banded(ab, m_band.kl, m_band.ku)
    assert np.array_equal(_dense(band), A[np.ix_(order, order)])
    f, *_, info = resolvent_integrand(p, x0, op, s)
    # uniform rings take the Bloch blocks instead (test_bloch_integrand_matches_dense)
    banded = info["solver"] == "banded"
    try:
        x = dense_solve(A, b)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            densela.lu_solve(band, b[order])
        if banded:
            with pytest.raises(SingularMatrixError):
                f(np.array([w]))
        return
    xb = np.empty(p.dim, complex)
    xb[order] = densela.lu_solve(band, b[order])
    # both solves are backward stable, so they agree to 1e-12 relative up to
    # the condition number of the shift (measured: within 5 kappa eps)
    assert _max(A @ xb - b) <= 1e-12 * np.abs(A).sum(axis=1).max() * _max(xb)
    kappa = np.linalg.cond(A)
    assert _max(xb - x) <= max(1e-12, 100 * kappa * np.finfo(float).eps) * _max(x)
    if banded:
        # the integrand makes that same solve and un-permutes its B sites
        assert np.allclose(f(np.array([w]))[0], np.abs(xb[1::2]) ** 2, rtol=1e-13, atol=0)


@settings(max_examples=150, deadline=None)
@given(kl=st.integers(0, 5), ku=st.integers(0, 5), n=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1),
       shift=st.just(0j) | st.complex_numbers(max_magnitude=3.0),
       defect=st.sampled_from(["none", "zero column", "nan"]))
@example(kl=1, ku=1, n=6, seed=1, shift=0.5 - 0.25j, defect="none")
@example(kl=1, ku=1, n=6, seed=2, shift=0j, defect="zero column")
@example(kl=1, ku=1, n=6, seed=3, shift=1j, defect="nan")
@example(kl=0, ku=0, n=1, seed=0, shift=2.2e-311 + 0j, defect="zero column")
def test_shifted_band_solve_matches_dense(kl, ku, n, seed, shift, defect):
    # lu_solve(B, b, shift=z) solves (B + z I) x = b on B's cached LU set-up,
    # by the tridiagonal solver when kl = ku = 1 and the band LU otherwise;
    # the reference is the dense LU of the same matrix.  A zeroed column
    # (exactly singular without a shift), a NaN entry and a matrix whose
    # every entry is subnormal (the last example) must be refused by both
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(kl + ku + 1, n)) + 1j * rng.normal(size=(kl + ku + 1, n))
    i = np.arange(n) + np.arange(kl + ku + 1)[:, None] - ku   # row of each entry
    ab[(i < 0) | (i >= n)] = 0.0
    col = rng.integers(n)
    if defect == "zero column":
        ab[:, col] = 0.0
    elif defect == "nan":
        ab[ku, col] = np.nan
    band = densela.Banded(ab, kl, ku)
    A = _dense(band) + shift * np.eye(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    try:
        x = dense_solve(A, b)
    except SingularMatrixError:
        x = None
    try:
        xb = densela.lu_solve(band, b, shift=shift)
    except SingularMatrixError:
        xb = None
    if np.abs(A).max() < np.finfo(float).tiny:
        # the relative pivot test alone would pass it, and the solve overflow
        assert x is None and xb is None
        return
    if x is None or xb is None:
        # the same pivots against the same max|A|: only a matrix within
        # rounding of the threshold could be refused by one side alone
        assert x is None and xb is None or np.linalg.cond(A) > 0.01 / densela.PIVOT_RTOL
        if defect == "nan" or defect == "zero column" and shift == 0:
            assert x is None and xb is None
        return
    assert defect == "none" or defect == "zero column" and shift != 0
    # the bounds of test_banded_solve_matches_dense
    assert _max(A @ xb - b) <= 1e-12 * np.abs(A).sum(axis=1).max() * _max(xb)
    kappa = np.linalg.cond(A)
    assert _max(xb - x) <= max(1e-12, 100 * kappa * np.finfo(float).eps) * _max(x)
    # the dense reference shifts the same way
    assert np.array_equal(dense_solve(_dense(band), b, shift=shift), x)


@settings(max_examples=80, deadline=None)
@given(p=ladders(min_L=2, min_gamma=0.05, uniform=True, bc=PBC),
       side=st.sampled_from(sorted(_SIDES)), u=st.floats(-1.0, 1.0),
       cell=st.integers(0, 23))
@example(p=LadderParams(L=2, t=[0.3], t_p=0.7, phi=1.0, gamma=0.4, bc=PBC),
         side="H", u=0.1, cell=1)
@example(p=LadderParams(L=2, t=[0.3], t_p=0.7, phi=1.0, gamma=0.4, bc=PBC),
         side="X", u=-0.3, cell=0)
@example(p=LadderParams(L=5, t=[0.3, 0.2, 0.1], t_p=0.5, phi=0.3, gamma=0.6, bc=PBC),
         side="H", u=0.05, cell=3)
@example(p=LadderParams(L=5, t=[0.3, 0.2, 0.1], t_p=0.5, phi=0.3, gamma=0.6, bc=PBC),
         side="X", u=0.2, cell=4)
@example(p=LadderParams(L=12, t=[0.25], t_p=0.0, phi=0.0, gamma=0.5, bc=PBC),
         side="H", u=0.0, cell=7)
@example(p=LadderParams(L=12, t=[0.25], t_p=0.0, phi=0.0, gamma=0.5, bc=PBC),
         side="X", u=0.01, cell=2)
def test_bloch_integrand_matches_dense(p, side, u, cell):
    # a uniform ring's integrand solves the 2x2 Bloch blocks and goes back to
    # the cells by an inverse FFT; the reference is the dense solve of
    # s*omega - M.  The examples: L = 2, a band (kl + ku + 1 = 19) wider than
    # its matrix (10), and a ring whose every block is at an exceptional point
    # (t_p = 0 and t_0 = gamma/2: the Bloch matrix [[0, t_0], [t_0, -i gamma]]
    # has the double eigenvalue -i gamma/2).
    #
    # The bound: s*omega - M is unitarily block diagonal (the DFT over
    # cells), so every block's condition number is at most kappa, that of the
    # whole matrix.  The block LU is backward stable with pivot growth at most
    # 2, and the inverse FFT adds a normwise error of order log2(L) eps, so
    # the integrand's response g and the dense solve x (backward stable, order
    # 2L) each lie within a few kappa eps ||x||_2 of the exact response.  With
    # delta = 100 kappa eps ||x||_2 >= max_x |g_x - x_x|, the squared moduli
    # the integrand returns differ by at most delta (2 max|x_B| + delta)
    # (measured over 2000 draws: within 2 kappa eps ||x||_2 * 2 max|x_B|).
    s = _SIDES[side]
    M, op = _operator(p, side)
    width = np.abs(M).sum(axis=1).max() + 1.0
    w = u * width
    x0 = 1 + cell % p.L
    b = np.zeros(p.dim, complex)
    b[2 * (x0 - 1)] = 1.0
    f, *_, info = resolvent_integrand(p, x0, op, s)
    form = op.gauge_form()
    assert info == {"solver": "bloch_blocks", "folded": form is not None and form[0] != s,
                    "pole_bound": _pole_bound(M, s)}
    # a second node checks that each node keeps its own row through the FFT;
    # it may lie past the band window, where the integrand's node v stands for
    # omega(v) and carries the factor d omega/dv (`tail_map`)
    nodes = np.array([w, w + 0.5])
    omegas, jac = tail_map(nodes, width)
    shifts = [s * v * np.eye(p.dim) - M for v in omegas]
    refs = []
    for A in shifts:
        try:
            refs.append(dense_solve(A, b))
        except SingularMatrixError:
            refs.append(None)
    try:
        got = f(nodes)
    except SingularMatrixError:
        got = None
    if got is None or any(x is None for x in refs):
        # the dense LU and the blocks test their pivots against different
        # scales (max|A| of the matrix or of the blocks), so they may disagree,
        # or both refuse, only at a node within about PIVOT_RTOL of singular
        assert max(np.linalg.cond(A) for A in shifts) > 0.01 / densela.PIVOT_RTOL
        return
    for g, x, A, d in zip(got, refs, shifts, jac):
        delta = 100 * np.linalg.cond(A) * np.finfo(float).eps * np.linalg.norm(x)
        assert _max(g / d - np.abs(x[1::2]) ** 2) <= delta * (2 * _max(x[1::2]) + delta)


@settings(max_examples=60, deadline=None)
@given(p=ladders(min_L=2), seed=st.integers(0, 2**32 - 1))
@example(p=LadderParams(L=9, t=[0.3, 0.5, 0.0], t_p=0.0, phi=1.0,
                        gamma=np.linspace(0.1, 0.9, 9), bc=PBC), seed=1)
@example(p=LadderParams(L=9, t=[0.3, 0.0, 0.2, 0.0], t_p=0.4, phi=2.0,
                        gamma=np.linspace(0.1, 0.9, 9), bc=OBC), seed=2)
@example(p=LadderParams(L=5, t=[0.3, 0.2, 0.1], t_p=0.5, phi=0.3,
                        gamma=[0.1, 0.5, 0.2, 0.7, 0.3], bc=PBC), seed=3)
@example(p=LadderParams(L=2, t=[0.0], t_p=1.0, phi=0.0, gamma=0.0, bc=PBC), seed=0)
def test_banded_rhs_is_the_dense_one(p, seed):
    # the TIME engine's rhs is -i H psi on psi in band order, and its rider
    # rates are 2 gamma_x |psi_x^B|^2, one per cell in the order the cells'
    # A-B pairs take there, for a stack of states; the third example's band
    # (kl + ku + 1 = 19) is wider than its matrix (10)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    order = band_order(p)
    cells = order[0::2] // 2
    H = build_ladder(p)
    gam = np.asarray(p.gamma)
    b = H.band
    out = _band_rhs(b.ab, b.kl, b.ku, -1j)(0.0, psi[order])
    ref = -1j * (H.matrix @ psi)
    # zgbmv sums each row over the band only: same terms, another order
    tol = 1e-14 * max(1.0, np.abs(H.matrix).sum(axis=1).max()) * _max(psi)
    assert _max(out - ref[order]) <= tol
    rates = np.empty((2, p.L))
    _loss_rates(H, gam)(np.stack([psi[order], ref[order]]), rates)
    for got, state in zip(rates, (psi, ref)):
        assert np.allclose(got, 2.0 * gam[cells] * np.abs(state[1::2][cells]) ** 2,
                           rtol=1e-15, atol=0)
    # a float64 stack (the real gauge) is squared directly, bit for bit what
    # the same stack gives cast to complex
    real = np.stack([psi[order].real, ref[order].imag])
    got_real, got_cplx = np.empty((2, p.L)), np.empty((2, p.L))
    _loss_rates(H, gam)(real, got_real)
    _loss_rates(H, gam)(real.astype(complex), got_cplx)
    assert np.array_equal(got_real, got_cplx)
    # off the gauge phases a hop keeps both parts under the gauge: no real
    # form (a two-cell ring's two hops on one entry add up to a real t_p cos)
    if abs(p.t_p) > 1e-3 and not (p.L == 2 and p.bc == PBC):
        assert build_ladder(replace(p, phi=0.7)).gauge_form() is None
    for q in [replace(p, phi=v) for v in (np.pi / 2, -np.pi / 2, 1.5 * np.pi)] + \
            [replace(p, t_p=0.0)]:
        _check_real_gauge_rhs(q, rng)


def _check_real_gauge_rhs(p, rng):
    # with D = diag(1 on A, i on B), D^-1 H D = i R and the walk integrates
    # phi = D^-1 psi by d phi/dt = R phi: D R D^-1 is -i H up to the dropped
    # part, at most eps max|H|, and the real rhs on phi is the complex one on
    # psi = D phi.  A two-cell ring's hops can add up to a lone real
    # 6e-17 t_p, which leaves no form or (without couplings and loss) the
    # form with c = 1; the zero matrix is real with c = 1
    H = build_ladder(p)
    M, b = H.matrix, H.band
    form = H.gauge_form()
    if not M.any():
        assert form[0] == 1.0
        return
    if p.L == 2 and p.bc == PBC and (form is None or form[0] != 1j):
        return
    c, R = form
    assert c == 1j and R.dtype == np.float64 and R.shape == b.ab.shape
    d = np.where(np.arange(p.dim) % 2 == 0, 1.0, 1j)
    R_dense = LadderOperator(densela.Banded(R, b.kl, b.ku), H.order, ring=False).matrix
    assert _max(d[:, None] * R_dense * d.conj() + 1j * M) <= np.finfo(float).eps * _max(M)
    phi = rng.normal(size=p.dim)
    psi = d * phi
    order = H.order
    got = _band_rhs(R, b.kl, b.ku, 1.0)(0.0, phi[order])
    assert got.dtype == np.float64
    ref = _band_rhs(b.ab, b.kl, b.ku, -1j)(0.0, psi[order])
    tol = 1e-14 * max(1.0, np.abs(M).sum(axis=1).max()) * _max(psi)
    assert _max(d[order] * got - ref) <= tol
    assert _max(d * got[np.argsort(order)] + 1j * (M @ psi)) <= tol


@pytest.mark.parametrize("bc", [OBC, PBC])
@pytest.mark.parametrize("side", sorted(_SIDES))
def test_both_paths_refuse_an_exactly_singular_shift(bc, side):
    # without couplings every A site is an exact zero mode: at omega = 0 the
    # A rows of s*omega - M vanish, and so do the A rows of every Bloch block
    p = LadderParams(L=6, t=[0.0], t_p=0.0, phi=0.0, gamma=1.0, bc=bc)
    M, op = _operator(p, side)
    band = op.band
    b = np.ones(p.dim)
    with pytest.raises(SingularMatrixError):
        dense_solve(-M, b)
    with pytest.raises(SingularMatrixError):
        densela.lu_solve(densela.Banded(-band.ab, band.kl, band.ku), b)
    f, *_, info = resolvent_integrand(p, 1, op, _SIDES[side])
    assert info["solver"] == ("bloch_blocks" if bc == PBC else "banded")
    with pytest.raises(SingularMatrixError):
        f(np.array([0.0]))


@pytest.mark.parametrize("side", sorted(_SIDES))
def test_integrand_refuses_a_lossless_model(side):
    # no loss, no decay: the tail bound has no finite window to satisfy
    p = LadderParams(L=6, t=[0.3, 0.5], t_p=0.5, phi=0.0, gamma=0.0, bc=PBC)
    with pytest.raises(ValueError, match="lossless"):
        resolvent_integrand(p, 1, _operator(p, side)[1], _SIDES[side])


def test_both_paths_refuse_the_near_lossless_mode(monkeypatch):
    seen = []
    banded_solve = densela.lu_solve

    def recording(A, b, shift=0.0):
        seen.append((A, shift))
        return banded_solve(A, b, shift=shift)

    monkeypatch.setattr(densela, "lu_solve", recording)
    with pytest.raises(SingularMatrixError):
        loss_profile_resolvent(WalkConfig(params=NEAR_LOSSLESS, x0=1))
    refused, shift = seen[-1]
    assert isinstance(refused, densela.Banded)
    with pytest.raises(SingularMatrixError):
        steady_density(NEAR_LOSSLESS, 1)
    monkeypatch.undo()
    # the dense reference refuses the node the banded path refused
    with pytest.raises(SingularMatrixError):
        dense_solve(_dense(refused) + shift * np.eye(NEAR_LOSSLESS.dim),
                    np.eye(NEAR_LOSSLESS.dim)[0])


@settings(max_examples=40, deadline=None)
@given(p=ladders(min_gamma=0.05))
@example(p=LadderParams(L=200, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2,
                        gamma=0.5, bc=PBC))
@example(p=LadderParams(L=200, t=[0.3, 0.5, 0.1], t_p=0.5, phi=np.pi / 2,
                        gamma=0.5, bc=PBC))
def test_band_width_does_not_grow_with_L(p):
    # folded cells keep every wrap-around hop near the diagonal under PBC;
    # a full-width fallback would give 2L-1
    H = build_ladder(p)
    kl, ku = H.band.kl, H.band.ku
    n = p.n
    bound = max(4 * n + 1, 4) if p.bc == PBC else max(2 * n + 1, 2)
    assert kl == ku <= bound
    if n >= 1 and 0.5 * p.t[n] != 0.0:
        assert kl == bound
    # the banded resolvent solves on that band; a uniform ring takes its
    # Bloch blocks and reports no bandwidth; both fold where H = D (i R) D^-1
    info = resolvent_integrand(p, 1, H, 1.0)[4]
    form = H.gauge_form()
    folded = form is not None and form[0] == 1j
    rho = _pole_bound(H.matrix, 1.0)
    if p.bc == PBC and p.uniform_gamma is not None:
        assert info == {"solver": "bloch_blocks", "folded": folded, "pole_bound": rho}
    else:
        assert info == {"solver": "banded", "bandwidth": [kl, ku], "folded": folded,
                        "pole_bound": rho}


@settings(max_examples=25, deadline=None)
@given(t0=st.floats(0.0, 0.7), t2=st.floats(0.0, 0.7),
       phi=st.sampled_from([0.0, np.pi]) | st.floats(0.0, np.pi))
@example(t0=0.0, t2=0.5, phi=1.3)
@example(t0=0.5, t2=0.25, phi=1e-5)
@example(t0=0.575, t2=0.236, phi=0.0044)
def test_self_intersections_are_band_crossings(t0, t2, phi):
    # the second example crosses at an angle of 5e-4 degrees (phi near 0),
    # where rounding keeps the Newton polish from settling below its step goal;
    # the third is so near a tangency that the 512-point polyline cuts itself
    # three times around one crossing
    gamma = 0.5
    p = LadderParams(L=20, t=[t0, 0.5, t2], t_p=0.5, phi=phi, gamma=gamma, bc=PBC)
    hits = self_intersections(p, 512)
    if phi in (0.0, np.pi):
        # E(k) = E(-k): the curve retraces itself and never crosses
        assert hits == []
    for h in hits:
        b1, b2 = bloch_bands(p, [h.k1, h.k2]).T
        assert np.abs(b1[:, None] - b2[None, :]).min() < 1e-9
        # the energy is a band's at the polished momentum, to rounding
        assert np.abs(b1 - h.energy).min() < 1e-14
    # -i gamma - E is the other square-root branch at the same momenta
    energies = np.array([h.energy for h in hits])
    for e in energies:
        assert np.abs(energies - (-1j * gamma - e)).min() < 1e-9
    # each crossing is reported once
    gaps = np.abs(energies[:, None] - energies[None, :]) + np.eye(len(hits))
    assert gaps.size == 0 or gaps.min() >= 1e-9


# --- the real eigensolve at cos(phi) = 0 against the complex dense one -------

#: phases whose cosine is zero to rounding: fl(pi/2), fl(-pi/2), fl(3 pi/2)
_GAUGE_PHASES = (np.pi / 2, -np.pi / 2, 3 * np.pi / 2)


@st.composite
def gauge_ladders(draw, max_L=12):
    # L >= 3: on a two-cell ring the +1 and -1 hops share an entry, whose
    # imaginary parts cancel (see test_an_imaginary_part_above_one_rounding_unit_is_kept)
    n = draw(st.integers(0, 3))
    L = draw(st.integers(max(3, 2 * n + 1), max_L))
    t = draw(st.lists(_amplitude, min_size=n + 1, max_size=n + 1))
    t_p = draw(st.just(0.0) | _amplitude)
    gamma = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=L, max_size=L))
    return LadderParams(L=L, t=t, t_p=t_p, phi=draw(st.sampled_from(_GAUGE_PHASES)),
                        gamma=gamma, bc=draw(st.sampled_from([OBC, PBC])))


def _sorted(w):
    return w[np.lexsort((w.imag, w.real))]


@settings(max_examples=80, deadline=None)
@given(p=gauge_ladders(), side=st.sampled_from(sorted(_SIDES)))
@example(p=LadderParams(L=12, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2,
                        gamma=np.linspace(0.0, 0.9, 12), bc=OBC), side="H")
@example(p=LadderParams(L=7, t=[0.3, 0.5, 0.2, 0.1], t_p=0.5, phi=3 * np.pi / 2,
                        gamma=[0.0, 0.5, 0.0, 0.2, 0.7, 0.0, 0.4], bc=PBC), side="X")
@example(p=LadderParams(L=2, t=[0.5], t_p=0.0, phi=-np.pi / 2, gamma=1.0, bc=PBC),
         side="H")
@example(p=LadderParams(L=4, t=[0.0], t_p=0.0, phi=np.pi / 2, gamma=0.0, bc=OBC),
         side="X")
def test_real_eigensolve_at_cos_phi_zero(p, side):
    # under the gauge diag(1 on A, i on B), H is i times a real matrix and X
    # a real matrix, so the spectrum comes from a real eigensolve.  It is
    # exactly closed under the mirror its real form implies, every eigenvalue
    # is an eigenvalue of M to a backward error of a few eps ||M||, and where
    # the dense reference's eigenvalue is well conditioned the two agree.  The
    # third example is a ring of dimers at an exceptional point (t_0 = gamma/2,
    # t_p = 0), the fourth the zero matrix.
    M, op = _operator(p, side)
    # `ring=False`: a uniform ring's own spectrum comes from its Bloch blocks
    w, how = LadderOperator(op.band, op.order, ring=False).eigenvalues()
    assert how == "dense_real"
    assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(w.size))
    mirror = -np.conj(w) if side == "H" else np.conj(w)
    assert np.array_equal(_sorted(mirror), w)
    norm = np.linalg.norm(M, 2)
    for lam in w:
        sigma = np.linalg.svd(M - lam * np.eye(p.dim), compute_uv=False)[-1]
        assert sigma <= 1e-13 * norm
    if p.bc == PBC:
        ref, left, right = scipy.linalg.eig(M, left=True, right=True)
        rows, cols = linear_sum_assignment(np.abs(ref[:, None] - w[None, :]))
        # eigenvalue condition numbers: 1 for a normal matrix, unbounded at an
        # exceptional point, where both solves agree to ~sqrt(eps) ||M|| only
        kappa = (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
                 / np.maximum(np.abs(np.sum(left.conj() * right, axis=0)), 1e-300))
        assert np.all(np.abs(ref[rows] - w[cols]) <= 1e-10 * np.maximum(1.0, kappa[rows]))


@pytest.mark.parametrize("side", sorted(_SIDES))
@pytest.mark.parametrize("bc", [OBC, PBC])
def test_complex_eigensolve_is_unchanged_off_the_gauge_phase(bc, side):
    # at phi = 0.7 the hops keep both parts under the gauge: the operator's
    # spectrum is the complex eigensolve of its dense matrix, bit for bit as
    # numpy's eig sorted by (Re, Im); so is a general model's
    p = LadderParams(L=12, t=[0.3, 0.5, 0.2], t_p=0.5, phi=0.7,
                     gamma=random_gamma(12, seed=5), bc=bc)
    M, op = _operator(p, side)
    w, how = op.eigenvalues()
    assert how == "dense"
    assert np.array_equal(w, _sorted(np.linalg.eigvals(M)))
    G = build_general(ladder_to_general(p))
    assert np.array_equal(eigendecompose(G), _sorted(np.linalg.eigvals(G)))


@pytest.mark.parametrize("bc", [OBC, PBC])
def test_an_imaginary_part_above_one_rounding_unit_is_kept(bc):
    # the gauge test drops at most eps * max|G|: a part half that size on one
    # A-A hop leaves the real eigensolve, twice that size sends the operator
    # to the complex one.  The hop joins cells 1 and 2 (sites 0 and 2), which
    # the gauge leaves as they are; the dropped part is the real one for H and
    # the imaginary one for X.  The uniform ring takes the dense path
    # (`ring=False`), not its Bloch blocks
    p = LadderParams(L=8, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5, bc=bc)
    eps = np.finfo(float).eps
    for op, unit in ((build_ladder(p), 1.0), (build_damping(p), 1j)):
        b = op.band
        pos = np.argsort(op.order)
        entry = (b.ku + pos[0] - pos[2], pos[2])      # A[0, 2] in band storage
        for size, how in ((0.5, "dense_real"), (2.0, "dense")):
            ab = b.ab.copy()
            ab[entry] += size * eps * np.abs(b.ab).max() * unit
            moved = LadderOperator(densela.Banded(ab, b.kl, b.ku), op.order, ring=False)
            assert moved.eigenvalues()[1] == how
    # a phase 1e-14 off pi/2 leaves a real part above the threshold
    H = build_ladder(replace(p, phi=np.pi / 2 + 1e-14))
    assert LadderOperator(H.band, H.order, ring=False).eigenvalues()[1] == "dense"
    # on a two-cell ring the +1 and -1 hops add up to t_p cos(fl(pi/2)) =
    # 6.1e-17, a real part with no imaginary part beside it, above one
    # rounding unit of the largest entry (gamma = 0.25)
    ring = LadderParams(L=2, t=[0.0], t_p=1.0, phi=np.pi / 2, gamma=[0.0, 0.25], bc=PBC)
    assert build_ladder(ring).eigenvalues()[1] == "dense"


# --- the folded resolvent integral at cos(phi) = 0 -----------------------------

@settings(max_examples=60, deadline=None)
@given(p=ladders(min_gamma=0.05), where=st.sampled_from(["phi", "t_p", "off"]),
       phase=st.sampled_from(_GAUGE_PHASES), side=st.sampled_from(sorted(_SIDES)),
       u=st.floats(0.0, 1.0), cell=st.integers(0, 23))
@example(p=LadderParams(L=12, t=[0.3, 0.5], t_p=0.5, phi=0.0, gamma=0.5, bc=PBC),
         where="phi", phase=np.pi / 2, side="X", u=0.1, cell=4)
@example(p=LadderParams(L=9, t=[0.3, 0.5, 0.2], t_p=0.5, phi=0.0,
                        gamma=np.linspace(0.1, 0.9, 9), bc=OBC),
         where="off", phase=np.pi / 2, side="H", u=0.3, cell=6)
def test_fold_is_taken_on_the_gauge(p, where, phase, side, u, cell):
    # with a gauge form (c, R) and c/s = +-i, D^-1 (s omega - M) D =
    # s (omega -+ i R) with R real: the response at -omega is minus the
    # conjugate of the one at omega, entry by entry, so the integrand is even
    # and the integral runs over [0, Omega] only.  Off the gauge (phi = 0.7
    # with a hop) the window stays [-Omega, Omega].
    #
    # The bound: each node's computed response lies within
    # delta = 100 kappa eps ||x||_2 of the exact one (the bound of
    # test_bloch_integrand_matches_dense), and the gauge form drops at most
    # eps max|M|, which moves the exact response at -omega by less than
    # delta again; so the two squared moduli differ by at most
    # 3 delta (2 max|x_B| + 3 delta)
    q = {"phi": replace(p, phi=phase), "t_p": replace(p, t_p=0.0),
         "off": replace(p, phi=0.7)}[where]
    s = _SIDES[side]
    M, op = _operator(q, side)
    x0 = 1 + cell % q.L
    f, edges, omega_max, _, info = resolvent_integrand(q, x0, op, s)
    form = op.gauge_form()
    assert info["folded"] == (form is not None and form[0] != s)
    if where != "off":
        # a two-cell ring's hops may add up to a lone real part (see
        # test_an_imaginary_part_above_one_rounding_unit_is_kept)
        assert info["folded"] or q.L == 2 and q.bc == PBC
    elif abs(q.t_p) > 1e-3 and not (q.L == 2 and q.bc == PBC):
        assert not info["folded"]
    # the last edge is v(Omega) = 2 W - W^2/Omega, which ties omega to v to
    # about eps Omega/W relative (`tail_map`)
    width = np.abs(M).sum(axis=1).max() + 1.0
    ends = tail_map(edges[[0, -1]], width)[0]
    tol = 4 * np.finfo(float).eps * omega_max ** 2 / width
    assert abs(ends[1] - omega_max) <= tol
    if not info["folded"]:
        assert abs(ends[0] + omega_max) <= tol
        return
    assert edges[0] == 0.0
    w = u * (np.abs(M).sum(axis=1).max() + 1.0)
    b = np.zeros(q.dim, complex)
    b[2 * (x0 - 1)] = 1.0
    A = s * w * np.eye(q.dim) - M
    try:
        x = dense_solve(A, b)
        got = f(np.array([w, -w]))
    except SingularMatrixError:
        # only a node within about PIVOT_RTOL of singular is refused
        assert np.linalg.cond(A) > 0.01 / densela.PIVOT_RTOL
        return
    delta = 100 * np.linalg.cond(A) * np.finfo(float).eps * np.linalg.norm(x)
    assert _max(got[0] - got[1]) <= 3 * delta * (2 * _max(x[1::2]) + 3 * delta)


@settings(max_examples=60, deadline=None)
@given(p=ladders(min_L=2, max_L=40, min_gamma=0.05, max_n=2),
       side=st.sampled_from(sorted(_SIDES)))
@example(p=LadderParams(L=8, t=[0.0], t_p=1.0, phi=0.0, gamma=0.5, bc=PBC), side="H")
@example(p=LadderParams(L=8, t=[0.0], t_p=1.0, phi=0.0, gamma=0.5, bc=PBC), side="X")
def test_every_pole_lies_within_the_pole_bound(p, side):
    # Bendixson: every eigenvalue of M/s has |Re| at most the largest
    # eigenvalue of Herm(M/s) in modulus, and so at most its row-sum norm, the
    # `pole_bound` rho whose grid the resolvent edges keep.  The examples
    # reach it: decoupled A and B chains, whose k = 0 modes sit at E = +-t_p =
    # +-rho.  The dense eigensolve returns the eigenvalues of M + E, ||E|| a
    # few eps ||M||_F (measured at most 0.7 eps ||M||_F over 3000 draws, where
    # couplings of 1e-130 left rho near 1e-130), so that is allowed on top of
    # rho's own rounding.
    s = _SIDES[side]
    M, op = _operator(p, side)
    rho = resolvent_integrand(p, 1, op, s)[4]["pole_bound"]
    eps = np.finfo(float).eps
    lam = np.linalg.eigvals(M) / s
    assert np.abs(lam.real).max() <= rho * (1 + 8 * eps) + 8 * eps * np.linalg.norm(M)


# --- the compactified resolvent tail against the geometric one -----------------

def _geometric_reference(p, x0, side):
    """The resolvent integral the way it was taken before the tail was mapped:
    the same band-window edges, the tail |omega| in [W, Omega] split by
    `geometric_edges` in omega itself, and a dense solve of s*omega - M per
    node; read through `resolvent_result` at the engines' goal and budget."""
    s = _SIDES[side]
    M, op = _operator(p, side)
    _, edges, omega_max, tail_bound, info = resolvent_integrand(p, x0, op, s)
    width = float(np.abs(op.band.T.ab).sum(axis=0).max()) + 1.0
    tail = geometric_edges(width, omega_max)
    cand = {e for e in edges if abs(e) <= width} | set(tail) | {-e for e in tail}
    if info["folded"]:
        cand = {e for e in cand if e >= 0.0}
    b = np.zeros(p.dim, complex)
    b[2 * (x0 - 1)] = 1.0

    def f(omegas):
        return np.array([np.abs(dense_solve(s * w * np.eye(p.dim) - M, b)[1::2]) ** 2
                         for w in omegas])

    quad = adaptive_quadrature(f, sorted(cand), rtol=RESOLVENT_RTOL, atol_frac=1e-16,
                               max_panels=4000 // (2 if info["folded"] else 1))
    return resolvent_result(quad, np.asarray(p.gamma), omega_max, tail_bound, info)


@settings(max_examples=40, deadline=None)
@given(p=ladders(min_L=2, max_L=8, min_gamma=0.05), side=st.sampled_from(sorted(_SIDES)),
       phase=st.sampled_from([None, np.pi / 2]), cell=st.integers(0, 23))
@example(p=LadderParams(L=6, t=[0.3, 0.5], t_p=0.5, phi=0.7, gamma=0.5, bc=OBC),
         side="H", phase=np.pi / 2, cell=4)
@example(p=LadderParams(L=6, t=[0.341796875, 0.33984375, 0.4921875], t_p=0.0, phi=0.0,
                        gamma=1.0, bc=OBC),
         side="H", phase=None, cell=1)
@example(p=LadderParams(L=6, t=[0.3, 0.5], t_p=0.5, phi=0.7, gamma=0.5, bc=PBC),
         side="X", phase=None, cell=2)
@example(p=LadderParams(L=5, t=[0.6, 0.2], t_p=0.4, phi=1.1,
                        gamma=[0.1, 0.5, 0.2, 0.7, 0.3], bc=PBC),
         side="X", phase=np.pi / 2, cell=1)
@example(p=LadderParams(L=7, t=[0.3, 0.5, 0.2], t_p=0.5, phi=2.0,
                        gamma=np.linspace(0.1, 0.9, 7), bc=OBC),
         side="H", phase=None, cell=6)
def test_compact_tail_matches_the_geometric_tail(p, side, phase, cell):
    # the profile (H) and the steady density (X), OBC and PBC, folded (at
    # phi = pi/2) and unfolded, against the dense reference over geometric
    # tail panels.  Both integrate the same function to the same goal, so
    # they flag alike, and where both converge they agree within 1e-12
    # relative or within their two error estimates: at RESOLVENT_RTOL each
    # may stop a few 1e-12 from the exact integral (the second example
    # differs by 7e-12 relative, each side within 5.5e-12 of an integral
    # taken to 1e-14), far below its goal and far below the tail's share of
    # the total, which a wrong map or derivative would move.
    #
    # A mode that decays slower than the gapless threshold (a coupling of
    # 1e-10 leaves the A chain nearly dark) is a peak no frequency grid
    # resolves (test_both_paths_flag_an_unresolvable_mode): each quadrature
    # then misses it in its own way, and the two may disagree on values and
    # on the flag, so such ladders compare nothing here.
    q = p if phase is None else replace(p, phi=phase)
    assume(liouvillian_gap(build_damping(q)).gap >= GAPLESS_TOL)
    x0 = 1 + cell % q.L
    ref, ref_flag, ref_diag = _geometric_reference(q, x0, side)
    if side == "H":
        prof = loss_profile_resolvent(WalkConfig(params=q, x0=x0))
        values, flag, diag = prof.P, not prof.incomplete, prof.diagnostics
    else:
        values, diag = steady_density(q, x0)
        flag = diag["converged"]
    assert flag == ref_flag
    assert diag["folded"] == ref_diag["folded"]
    if diag["converged"] and ref_diag["converged"]:
        mask = ref > 1e-12
        bound = np.maximum(1e-12 * ref, diag["quadrature_error"] + ref_diag["quadrature_error"])
        assert np.all(np.abs(values - ref)[mask] <= bound[mask])
