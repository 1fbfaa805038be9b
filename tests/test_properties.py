"""Property tests: the operator views derived from one ladder matrix agree.

Small ladders are drawn at random (L 4-24, every coupling range n < L/2,
uniform, linear or random loss, open and periodic boundaries, t_p = 0
included).  The split form and the damping matrix must reproduce the ladder
matrix exactly, the banded solves of the resolvent integrand must reproduce
the dense reference, and the two resolvent integrals (of H and of X) must
give the same profile.  The self-crossings of the momentum-space spectrum
must be points where the Bloch bands meet, closed under the mirror
E -> -i gamma - E, and absent from the time-reversal-symmetric phases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igclab import (
    OBC, PBC, LadderParams, SingularMatrixError, WalkConfig, bloch_bands,
    build_damping, build_general, build_ladder, densela, ladder_to_general,
    linear_gamma, loss_profile_resolvent, random_gamma, self_intersections,
    steady_density,
)
from igclab.model import band_order
from igclab.walk import resolvent_integrand

_amplitude = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def ladders(draw, max_L=24, min_gamma=0.0):
    L = draw(st.integers(4, max_L))
    n = draw(st.integers(0, (L - 1) // 2))
    t = draw(st.lists(_amplitude, min_size=n + 1, max_size=n + 1))
    t_p = draw(st.just(0.0) | _amplitude)
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    kind = draw(st.sampled_from(["uniform", "linear", "random"]))
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
                        bc=draw(st.sampled_from([OBC, PBC])))


@settings(max_examples=60, deadline=None)
@given(p=ladders(min_gamma=0.05))
@example(p=LadderParams(L=8, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 3,
                        gamma=np.linspace(0.2, 0.9, 8), bc=PBC))
def test_ladder_maps_to_general_form(p):
    H = build_ladder(p).matrix
    # blocked ordering: every A site first, then every B site
    perm = np.concatenate([np.arange(0, p.dim, 2), np.arange(1, p.dim, 2)])
    assert np.array_equal(build_general(ladder_to_general(p)).matrix,
                          H[np.ix_(perm, perm)])


@settings(max_examples=60, deadline=None)
@given(p=ladders())
def test_damping_matrix_is_i_conj_h(p):
    assert np.array_equal(build_damping(p).X, 1j * np.conj(build_ladder(p).matrix))


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
    dens, _ = steady_density(p, x0)
    assert np.allclose(dens, prof.P, rtol=1e-6, atol=1e-12)


# --- the banded resolvent solves against the dense reference -----------------

#: the resolvent of H (s = 1) and of the damping matrix X (s = i)
_SIDES = {"H": 1.0, "X": 1j}

#: a ladder with a nearly lossless A-site mode: a quadrature node comes
#: within the pivot threshold of its energy
NEAR_LOSSLESS = LadderParams(L=4, t=[2.2e-16], t_p=0.0, phi=0.0, gamma=1.0, bc=OBC)


def _operator(p, side):
    return build_ladder(p).matrix if side == "H" else build_damping(p).X


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


@settings(max_examples=60, deadline=None)
@given(p=ladders(min_gamma=0.05), side=st.sampled_from(sorted(_SIDES)),
       data=st.data())
def test_banded_solve_matches_dense(p, side, data):
    s = _SIDES[side]
    M = _operator(p, side)
    width = np.abs(M).sum(axis=1).max() + 1.0
    w = data.draw(st.floats(-width, width))
    x0 = data.draw(st.integers(1, p.L))
    A = s * w * np.eye(p.dim) - M
    b = np.zeros(p.dim, complex)
    b[2 * (x0 - 1)] = 1.0
    order = band_order(p)
    band = densela.to_banded(A[np.ix_(order, order)])
    assert np.array_equal(_dense(band), A[np.ix_(order, order)])
    f = resolvent_integrand(p, x0, M, s)[0]
    try:
        x = densela.lu_solve(A, b)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            densela.lu_solve(band, b[order])
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
    # the integrand makes that same solve and un-permutes its B sites
    assert np.allclose(f(np.array([w]))[0], np.abs(xb[1::2]) ** 2, rtol=1e-13, atol=0)


@pytest.mark.parametrize("bc", [OBC, PBC])
@pytest.mark.parametrize("side", sorted(_SIDES))
def test_both_paths_refuse_an_exactly_singular_shift(bc, side):
    # without couplings every A site is an exact zero mode: at omega = 0 the
    # A rows of s*omega - M vanish
    p = LadderParams(L=6, t=[0.0], t_p=0.0, phi=0.0, gamma=1.0, bc=bc)
    M = _operator(p, side)
    order = band_order(p)
    b = np.ones(p.dim)
    with pytest.raises(SingularMatrixError):
        densela.lu_solve(-M, b)
    with pytest.raises(SingularMatrixError):
        densela.lu_solve(densela.to_banded(-M[np.ix_(order, order)]), b)
    with pytest.raises(SingularMatrixError):
        resolvent_integrand(p, 1, M, _SIDES[side])[0](np.array([0.0]))


@pytest.mark.parametrize("side", sorted(_SIDES))
def test_integrand_refuses_a_lossless_model(side):
    # no loss, no decay: the tail bound has no finite window to satisfy
    p = LadderParams(L=6, t=[0.3, 0.5], t_p=0.5, phi=0.0, gamma=0.0, bc=PBC)
    with pytest.raises(ValueError, match="lossless"):
        resolvent_integrand(p, 1, _operator(p, side), _SIDES[side])


def test_both_paths_refuse_the_near_lossless_mode(monkeypatch):
    seen = []
    banded_solve = densela.lu_solve

    def recording(A, b):
        seen.append(A)
        return banded_solve(A, b)

    monkeypatch.setattr(densela, "lu_solve", recording)
    with pytest.raises(SingularMatrixError):
        loss_profile_resolvent(WalkConfig(params=NEAR_LOSSLESS, x0=1))
    refused = seen[-1]
    assert isinstance(refused, densela.Banded)
    with pytest.raises(SingularMatrixError):
        steady_density(NEAR_LOSSLESS, 1)
    monkeypatch.undo()
    # the dense path refuses the node the banded path refused
    with pytest.raises(SingularMatrixError):
        densela.lu_solve(_dense(refused), np.eye(NEAR_LOSSLESS.dim)[0])


@settings(max_examples=40, deadline=None)
@given(p=ladders(min_gamma=0.05))
@example(p=LadderParams(L=200, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2,
                        gamma=0.5, bc=PBC))
@example(p=LadderParams(L=200, t=[0.3, 0.5, 0.1], t_p=0.5, phi=np.pi / 2,
                        gamma=0.5, bc=PBC))
def test_band_width_does_not_grow_with_L(p):
    # folded cells keep every wrap-around hop near the diagonal under PBC;
    # a full-width fallback would give 2L-1
    kl, ku = resolvent_integrand(p, 1, build_ladder(p).matrix, 1.0)[4]
    n = p.n
    bound = max(4 * n + 1, 4) if p.bc == PBC else max(2 * n + 1, 2)
    assert kl == ku <= bound
    if n >= 1 and 0.5 * p.t[n] != 0.0:
        assert kl == bound


@settings(max_examples=25, deadline=None)
@given(t0=st.floats(0.0, 0.7), t2=st.floats(0.0, 0.7),
       phi=st.sampled_from([0.0, np.pi]) | st.floats(0.0, np.pi))
def test_self_intersections_are_band_crossings(t0, t2, phi):
    gamma = 0.5
    p = LadderParams(L=20, t=[t0, 0.5, t2], t_p=0.5, phi=phi, gamma=gamma, bc=PBC)
    hits = self_intersections(p, 512)
    if phi in (0.0, np.pi):
        # E(k) = E(-k): the curve retraces itself and never crosses
        assert hits == []
    for h in hits:
        b1, b2 = bloch_bands(p, [h.k1, h.k2]).T
        assert np.abs(b1[:, None] - b2[None, :]).min() < 1e-9
    # -i gamma - E is the other square-root branch at the same momenta
    energies = np.array([h.energy for h in hits])
    for e in energies:
        assert np.abs(energies - (-1j * gamma - e)).min() < 1e-9
