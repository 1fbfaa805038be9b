import numpy as np
import pytest

from igclab import (
    BIPOLAR, EXP, LEFT, LadderParams, NONE, POWER, RIGHT, WalkConfig,
    burst_metrics, fit_bulk, loss_profile_time, self_intersections,
)
from igclab.analysis import WindowError, _window, x0_slopes


def planted_power(L=200, x0=150, alpha=2.0, c=1.0):
    x = np.arange(1, L + 1)
    P = np.zeros(L)
    P[x != x0] = c * np.abs(x[x != x0] - x0, dtype=float) ** -alpha
    P[x0 - 1] = c
    return P


def planted_exp(L=200, x0=150, lam=0.8, c=1.0):
    x = np.arange(1, L + 1)
    return c * lam ** np.abs(x0 - x)


def test_fit_recovers_planted_power_law():
    fit = fit_bulk(planted_power(alpha=2.0), 150, LEFT)
    assert fit.kind == POWER
    assert fit.exponent == pytest.approx(2.0, abs=0.01)
    assert fit.r_squared > 0.999
    assert fit.window == (60, 135)
    assert fit.n_points == 76


def test_fit_recovers_planted_exponential():
    fit = fit_bulk(planted_exp(lam=0.8), 150, LEFT)
    assert fit.kind == EXP
    assert fit.exponent == pytest.approx(np.log(0.8), rel=0.01)
    assert fit.exp_r2 > fit.power_r2


def test_fit_right_side():
    P = planted_power(x0=50, alpha=1.5)
    fit = fit_bulk(P, 50, RIGHT)
    assert fit.kind == POWER
    assert fit.exponent == pytest.approx(1.5, abs=0.01)
    lo, hi = fit.window
    assert lo == 65 and hi <= 190


def test_fit_window_too_small():
    with pytest.raises(WindowError):
        fit_bulk(planted_power(), 30, LEFT)    # window [11, 15] is tiny


def test_fit_excludes_nonpositive_and_counts():
    P = planted_power()
    P[99] = 0.0
    P[100] = -1e-30
    fit = fit_bulk(P, 150, LEFT)
    assert fit.n_excluded == 2
    assert fit.kind == POWER


def test_window_layout():
    assert _window(150, 200, LEFT) == (60, 135)
    assert _window(30, 200, LEFT) == (12, 15)
    lo, hi = _window(100, 200, RIGHT)
    assert lo == 115 and hi == 160


def test_burst_metrics_monotone_profile_is_none():
    P = planted_exp(x0=100, lam=0.9)
    m = burst_metrics(P, 100)
    assert m.burst_type == NONE
    assert m.ratio_left == pytest.approx(1.0)
    assert m.ratio_right == pytest.approx(1.0)
    assert m.p_edge_left == pytest.approx(P[0])


def test_burst_metrics_detects_each_side():
    P = planted_exp(x0=100, lam=0.9)
    Pl = P.copy()
    Pl[0] = P.min() * 1000
    assert burst_metrics(Pl, 100).burst_type == LEFT
    Pr = P.copy()
    Pr[-1] = P.min() * 1000
    assert burst_metrics(Pr, 100).burst_type == RIGHT
    Pb = P.copy()
    Pb[0] = Pb[-1] = P.min() * 1000
    m = burst_metrics(Pb, 100)
    assert m.burst_type == BIPOLAR
    assert m.ratio_left > 10 and m.ratio_right > 10


def test_burst_metrics_underflowed_side_is_not_a_burst():
    # the far side of a strongly directional walk can underflow to exact
    # zeros; zero-over-zero must not read as an infinite-contrast burst
    P = np.zeros(100)
    P[:50] = np.exp(-np.arange(50, 0, -1.0))
    P[0] = 1.0
    m = burst_metrics(P, 40)
    assert m.ratio_right == 1.0
    assert m.burst_type == LEFT
    P[-1] = 0.5                      # a real edge value over a zero minimum
    assert burst_metrics(P, 40).ratio_right == np.inf


def test_burst_metrics_edge_release_undefined_side():
    P = planted_exp(x0=1, lam=0.9)
    m = burst_metrics(P, 1)
    assert m.p_edge_left is None and m.ratio_left is None
    assert m.ratio_right is not None
    with pytest.raises(ValueError):
        burst_metrics(P, 0)


@pytest.mark.parametrize("x0", [4.5, np.float64(3.0), True, 0, 201])
def test_burst_metrics_refuses_a_cell_that_is_not_one(x0):
    # 4.5 and 3.0 cannot slice the profile, and True would read as cell 1
    with pytest.raises(ValueError, match="integer cell"):
        burst_metrics(planted_exp(x0=100, lam=0.9), x0)


@pytest.mark.parametrize("x0", [4.5, np.float64(150.0), True, 0, 201])
def test_fit_bulk_refuses_a_cell_that_is_not_one(x0):
    # a refused cell, not a bulk window built from it ([11, -10.5] for 4.5)
    with pytest.raises(ValueError, match="integer cell") as err:
        fit_bulk(planted_power(), x0, LEFT)
    assert not isinstance(err.value, WindowError)


def test_an_integer_cell_of_any_integer_type_is_one():
    P = planted_power()
    assert fit_bulk(P, np.int64(150), LEFT) == fit_bulk(P, 150, LEFT)
    assert burst_metrics(P, np.int32(150)) == burst_metrics(P, 150)


def test_burst_threshold_configurable():
    P = planted_exp(x0=100, lam=0.9)
    P[0] = P.min() * 5
    assert burst_metrics(P, 100).burst_type == NONE
    assert burst_metrics(P, 100, threshold=3.0).burst_type == LEFT


def test_scan_single_row():
    # a scan of one release measures its left edge but fits no slope
    p = LadderParams(L=60, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5)
    prof = loss_profile_time(WalkConfig(params=p, x0=45))
    m = burst_metrics(prof.P, 45)
    assert not prof.incomplete
    assert m.ratio_left > 1.0
    slopes = x0_slopes([45], [m.ratio_left], [m.p_edge_left])
    assert all(np.isnan(v) for v in slopes)


def test_self_intersections_validation():
    p = LadderParams(L=20, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2, gamma=0.5,
                     bc="PBC")
    with pytest.raises(ValueError, match="512"):
        self_intersections(p, 100)
    pn = LadderParams(L=20, t=[0.3, 0.5], t_p=0.5, phi=np.pi / 2,
                      gamma=np.linspace(0.2, 0.4, 20), bc="PBC")
    with pytest.raises(ValueError, match="uniform"):
        self_intersections(pn, 512)


def bipolar_params(t2, phi=np.pi / 2):
    return LadderParams(L=20, t=[0.3, 0.5, t2], t_p=0.5, phi=phi, gamma=0.5,
                        bc="PBC")


def test_self_intersections_present_only_past_transition():
    assert self_intersections(bipolar_params(0.2), 512) == []
    hits = self_intersections(bipolar_params(0.5), 512)
    assert len(hits) >= 1
    for h in hits:
        assert abs(h.k1 - h.k2) > 1e-3


def test_self_intersections_stable_under_grid_refinement():
    # the second ring is near-tangent: at 512 samples its polyline cuts
    # itself three times around its one crossing, which must count once
    near_tangent = LadderParams(L=20, t=[0.575, 0.5, 0.236], t_p=0.5,
                                phi=0.0044, gamma=0.5, bc="PBC")
    for params in (bipolar_params(0.5), near_tangent):
        coarse = self_intersections(params, 512)
        fine = self_intersections(params, 2048)
        assert len(coarse) == len(fine)
        ec = sorted((round(h.energy.real, 6), round(h.energy.imag, 6)) for h in coarse)
        ef = sorted((round(h.energy.real, 6), round(h.energy.imag, 6)) for h in fine)
        for a, b in zip(ec, ef):
            assert abs(a[0] - b[0]) < 1e-6 and abs(a[1] - b[1]) < 1e-6


def test_time_reversal_symmetric_case_reports_nothing():
    # at phi=0 the curve retraces itself under k -> -k; the mirrored
    # coincidences must not count as crossings
    p = LadderParams(L=20, t=[0.3, 0.5], t_p=0.5, phi=0.0, gamma=0.5, bc="PBC")
    assert self_intersections(p, 512) == []
