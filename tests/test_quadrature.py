import numpy as np
import pytest

from igclab.quadrature import NODES, adaptive_quadrature, kronrod_panel, tail_map


def test_nodes_are_symmetric_and_sorted():
    assert NODES.size == 15
    assert np.allclose(NODES, -NODES[::-1])
    assert np.all(np.diff(NODES) > 0)


@pytest.mark.parametrize("degree", range(0, 23))
def test_panel_exact_on_polynomials(degree):
    # a 15-point Kronrod rule integrates polynomials up to degree 22 exactly;
    # this pins down every tabulated node and weight
    val, _ = kronrod_panel(lambda x: (x ** degree)[:, None], -1.0, 1.0)
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert val[0] == pytest.approx(exact, abs=2e-15)


@pytest.mark.parametrize("degree", range(0, 14))
def test_embedded_gauss_agrees_on_low_degree(degree):
    # the embedded 7-point rule is exact to degree 13, so the error estimate
    # must vanish there; this pins the Gauss weights too
    _, err = kronrod_panel(lambda x: (x ** degree)[:, None], -1.0, 1.0)
    assert err[0] < 3e-15


def test_lorentzian_against_arctan():
    w = 0.05

    def f(x):
        return (w / np.pi / (x ** 2 + w ** 2))[:, None]

    edges = [-50.0, -1.0, 0.0, 1.0, 50.0]
    res = adaptive_quadrature(f, edges, rtol=1e-12)
    exact = (np.arctan(50 / w) - np.arctan(-50 / w)) / np.pi
    assert res.converged
    assert res.value[0] == pytest.approx(exact, rel=1e-11)


def test_vector_components_converge_independently():
    # one broad and one narrow, far smaller component
    def f(x):
        broad = np.exp(-x ** 2)
        narrow = 1e-9 * 0.01 / np.pi / ((x - 3.0) ** 2 + 0.01 ** 2)
        return np.stack([broad, narrow], axis=1)

    res = adaptive_quadrature(f, [-20.0, 0.0, 20.0], rtol=1e-9, atol_frac=1e-16)
    assert res.converged
    assert res.value[0] == pytest.approx(np.sqrt(np.pi), rel=1e-9)
    assert res.value[1] == pytest.approx(1e-9, rel=1e-5)


def test_tail_map_is_the_identity_inside_and_odd():
    width = 2.5
    v = np.array([-width, -1.0, 0.0, 0.3, width])
    omega, jac = tail_map(v, width)
    assert np.array_equal(omega, v) and np.array_equal(jac, np.ones(5))
    v = np.array([1.0, 1.75, 1.99]) * width
    omega, jac = tail_map(v, width)
    assert np.allclose(omega, [width, 4 * width, 100 * width], rtol=1e-13)
    assert np.allclose(jac, (omega / width) ** 2, rtol=1e-15)
    neg, neg_jac = tail_map(-v, width)
    assert np.array_equal(neg, -omega) and np.array_equal(neg_jac, jac)


@pytest.mark.parametrize("power", [2, 4])
def test_one_mapped_span_integrates_an_algebraic_tail(power):
    # integral_W^Omega omega^-p d omega over the single span [W, v(Omega)]:
    # omega^-p (omega/W)^2 is a polynomial of degree p - 2 in v, so one
    # panel is exact and the driver stops there
    width, omega_max = 2.0, 3.2e7
    v_max = 2.0 * width - width ** 2 / omega_max

    def f(v):
        omega, jac = tail_map(v, width)
        return (omega ** -power * jac)[:, None]

    res = adaptive_quadrature(f, [width, v_max], rtol=1e-12)
    exact = (width ** (1 - power) - omega_max ** (1 - power)) / (power - 1)
    assert res.converged and res.n_panels == 1
    assert res.value[0] == pytest.approx(exact, rel=1e-12)


def test_budget_exhaustion_reports_unconverged():
    def f(x):
        return (1.0 / np.sqrt(np.abs(x) + 1e-300))[:, None]

    res = adaptive_quadrature(f, [0.0, 1.0], rtol=1e-13, max_panels=3)
    assert not res.converged
    assert res.error[0] > 0


def test_deterministic():
    def f(x):
        return np.stack([np.exp(-np.abs(x)), 1.0 / (1.0 + x ** 2)], axis=1)

    a = adaptive_quadrature(f, [-30.0, 0.5, 30.0], rtol=1e-10)
    b = adaptive_quadrature(f, [-30.0, 0.5, 30.0], rtol=1e-10)
    assert np.array_equal(a.value, b.value)
    assert a.n_panels == b.n_panels


def test_bad_edges_rejected():
    f = lambda x: x[:, None]  # noqa: E731
    with pytest.raises(ValueError):
        adaptive_quadrature(f, [1.0], rtol=1e-6)
    with pytest.raises(ValueError):
        adaptive_quadrature(f, [1.0, 0.5], rtol=1e-6)
