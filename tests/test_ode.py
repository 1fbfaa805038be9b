import numpy as np
import pytest

from igclab import ode
from igclab.ode import integrate


def _order_conditions(A, c, b, order):
    """(elementary weight, 1/gamma) of every rooted tree up to `order` nodes.

    The trees of Butcher's order conditions, as in Hairer, Norsett & Wanner,
    Solving ODEs I, Table II.2.1, under the row-sum assumption A 1 = c.
    """
    Ac, Ac2, Ac3 = A @ c, A @ c**2, A @ c**3
    AAc, AAc2, AcAc, AAAc = A @ Ac, A @ Ac2, A @ (c * Ac), A @ (A @ Ac)
    by_order = {
        1: [(b.sum(), 1)],
        2: [(b @ c, 2)],
        3: [(b @ c**2, 3), (b @ Ac, 6)],
        4: [(b @ c**3, 4), (b @ (c * Ac), 8), (b @ Ac2, 12), (b @ AAc, 24)],
        5: [(b @ c**4, 5), (b @ (c**2 * Ac), 10), (b @ Ac**2, 20),
            (b @ (c * Ac2), 15), (b @ (c * AAc), 30), (b @ Ac3, 20),
            (b @ AcAc, 40), (b @ AAc2, 60), (b @ AAAc, 120)],
    }
    return [(w, 1.0 / g) for k in range(1, order + 1) for w, g in by_order[k]]


def test_tableau_is_tsitouras_5_4_pair():
    # pins the transcription of Tsitouras' Table 1: the published 16-digit
    # coefficients meet every condition to a few 1e-16
    A, c, E = ode._A, ode._C, ode._E
    b = A[6]            # FSAL: the 7th stage's row is b, with b_7 = 0
    assert np.allclose(A.sum(axis=1), c, rtol=0, atol=1e-14)
    assert np.all(np.triu(A) == 0.0) and b[6] == 0.0 and c[6] == 1.0
    # the new state and the rider's increment use the FSAL row
    assert np.array_equal(ode._ROWS[5, 1:], b)
    assert abs(E.sum()) < 1e-14
    conditions = _order_conditions(A, c, b, 5)
    assert len(conditions) == 17
    for weight, target in conditions:
        assert weight == pytest.approx(target, rel=0, abs=1e-14)
    for weight, target in _order_conditions(A, c, b - E, 4):
        assert weight == pytest.approx(target, rel=0, abs=1e-14)
    # b - E is a different, fourth-order method: the pair's error estimate
    # is not identically zero
    assert max(abs(w - g) for w, g in _order_conditions(A, c, b - E, 5)) > 1e-6


def test_scalar_exponential_decay():
    # a single lossy site: amplitude e^{-g t}, population e^{-2 g t}
    g = 0.5
    for t in (1.0, 2.0, 5.0):
        res = integrate(lambda _, y: -g * y, np.array([1.0 + 0j]), 0.0, t,
                        rtol=1e-10, atol=1e-12)
        assert res.t == t                       # the last step lands on t_end
        assert abs(res.y[0]) ** 2 == pytest.approx(np.exp(-2 * g * t), abs=1e-8)


def test_phase_rotation_preserves_norm():
    w = 1.3
    res = integrate(lambda t, y: -1j * w * y, np.array([1.0 + 0j]), 0.0, 100.0,
                    rtol=1e-9, atol=1e-12)
    assert abs(abs(res.y[0]) - 1.0) < 5e-8
    assert res.y[0] == pytest.approx(np.exp(-1j * w * 100.0), abs=1e-6)


def test_stop_function_ends_early():
    res = integrate(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, 100.0,
                    rtol=1e-8, atol=1e-10,
                    stop_fn=lambda t, y: abs(y[0]) < 1e-3)
    assert res.stopped_early
    assert res.t < 100.0
    assert abs(res.y[0]) < 1e-3


def test_tolerance_controls_error():
    def rhs(t, y):
        return np.array([y[1], -y[0]], dtype=complex)  # harmonic oscillator

    errs = []
    for rtol in (1e-5, 1e-8):
        res = integrate(rhs, np.array([1.0, 0.0], dtype=complex), 0.0, 10.0,
                        rtol=rtol, atol=rtol)
        errs.append(abs(res.y[0] - np.cos(10.0)))
    assert errs[1] < errs[0] / 100


def test_linear_system_vs_expm():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    A = A - 2.5 * np.eye(6)          # push spectrum into the stable half plane
    y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    res = integrate(lambda t, y: A @ y, y0, 0.0, 2.0, rtol=1e-10, atol=1e-13)
    import scipy.linalg as sla
    exact = sla.expm(2.0 * A) @ y0
    assert np.linalg.norm(res.y - exact) < 1e-8 * np.linalg.norm(exact)


def test_rhs_may_return_one_buffer_and_results_are_copies():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) - 2.0 * np.eye(5)
    y0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    buf = np.empty(5, dtype=complex)
    seen = []

    def reused(t, y):
        seen.append(y)                 # the integrator's own state buffers
        np.dot(A, y, out=buf)
        return buf

    fresh = integrate(lambda t, y: A @ y, y0, 0.0, 2.0, rtol=1e-9, atol=1e-12)
    res = integrate(reused, y0, 0.0, 2.0, rtol=1e-9, atol=1e-12)
    assert (res.n_steps, res.n_rejected) == (fresh.n_steps, fresh.n_rejected)
    assert np.array_equal(res.y, fresh.y)
    # the state handed back is not, and is not later overwritten through, a
    # work buffer
    assert not any(np.shares_memory(res.y, b) for b in seen + [buf])


def test_real_state_integrates_in_real_arithmetic():
    # a float64 y0 keeps the table, stages and result real; the same real
    # system run from a complex y0 takes the same steps and lands on the
    # same state to rounding level, rider included
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 6)) - 2.5 * np.eye(6)
    y0 = np.concatenate([rng.normal(size=6), np.zeros(2)])

    def rates(ys, out):
        np.square(np.abs(ys[:, :2]), out=out)

    real, cplx = (integrate(lambda t, y: A @ y, y0.astype(dtype), 0.0, 5.0, rtol=1e-10,
                            atol=1e-13, rider=(rates, 2))
                  for dtype in (np.float64, complex))
    assert real.y.dtype == np.float64 and cplx.y.dtype == complex
    assert (real.n_steps, real.n_rejected) == (cplx.n_steps, cplx.n_rejected)
    assert real.n_steps > 100 and real.t == cplx.t == 5.0
    assert np.linalg.norm(real.y - cplx.y) <= 1e-13 * np.linalg.norm(cplx.y)
    # a complex rhs on a real state is refused, not truncated to its real part
    with pytest.raises(TypeError, match="returns reals"):
        integrate(lambda t, y: -1j * y, np.array([1.0]), 0.0, 1.0)


def test_rhs_calls_are_one_plus_six_per_attempted_step():
    # a stiff relaxation, y' = -1000 (y - cos t), rejects steps at the
    # stability limit; rejected steps cost their six stage calls too, and
    # the count the result reports is the calls the rhs saw
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -1000.0 * (y - np.cos(t))

    res = integrate(rhs, np.array([0.0]), 0.0, 10.0, rtol=1e-6, atol=1e-9)
    assert res.n_rejected > 0 and res.t == 10.0
    assert res.n_rhs == len(calls) == 1 + 6 * (res.n_steps + res.n_rejected)
