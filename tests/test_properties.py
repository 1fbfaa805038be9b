"""Property tests: the operator views derived from one ladder matrix agree.

Small ladders are drawn at random (L 4-24, every coupling range n < L/2,
uniform, linear or random loss, open and periodic boundaries, t_p = 0
included).  The split form and the damping matrix must reproduce the ladder
matrix exactly, and the two resolvent integrals (of H and of X) must give the
same profile.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igclab import (
    OBC, PBC, LadderParams, SingularMatrixError, WalkConfig, build_damping,
    build_general, build_ladder, ladder_to_general, linear_gamma,
    loss_profile_resolvent, random_gamma, steady_density,
)

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


@settings(max_examples=6, deadline=None)
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
