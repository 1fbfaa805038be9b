"""Embedded adaptive Runge-Kutta integration for real or complex ODE systems.

A single Tsitouras 5(4) pair (Ch. Tsitouras, Comput. Math. Appl. 62 (2011)
770-775) drives every time-domain propagation in the package.  It has the
7-stage FSAL shape of Dormand & Prince's pair, six new rhs calls per
attempted step, with smaller error constants.  The controller measures the
embedded error estimate against a per-component scale supplied by the
caller, which lets the quantum-walk code tie the tolerance to the decaying
wave-function magnitude instead of an absolute floor.

A rider is an integral carried along the solution, q' = rates(y), that feeds
nothing back into the rhs (the walk's escaped probabilities).  Its rates at
the six new stage states come from one vectorised call per step; it is
advanced with the pair's weights and its error estimate enters the step
control like any other component.

A step allocates nothing.  The state and the seven stage derivatives are the
contiguous rows of one table [y; k0..k6], each row the rhs block followed by
the rider block.  Each stage state is one BLAS product of an h-scaled
coefficient row with the leading full rows of that table (on a strided
rhs-block view the products take about 1.5 times as long at walk sizes); the
rider columns of a stage state are never read.  The stage states are kept
for the rider's rates, and once those are in, the new state is the b row's
product with [y; k0..k5] again: its rhs block repeats the last stage state
bit for bit, its rider block is the rider's new value.  The rhs only has to
return an array; it may return the same buffer on every call, because its
value is copied into the table at once.  A float64 initial state keeps the
table, the stage states and the coefficient rows in real arithmetic (the
rhs must then return reals); any other is integrated in complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: name of the embedded pair, as reported in run diagnostics
PAIR = "Tsit5(4)"

# Tsitouras' Table 1.  FSAL: the 7th stage is the next step's first, and its
# row of _A is the fifth-order weights b, so the last stage state is the new
# state.  _E = b - b_hat, the fifth- minus the fourth-order weights.
_C = np.array([0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, :1] = [0.161]
_A[2, :2] = [-0.008480655492356989, 0.335480655492357]
_A[3, :3] = [2.897153057105493, -6.359448489975075, 4.3622954328695815]
_A[4, :4] = [5.325864828439257, -11.748883564062828, 7.4955393428898365,
             -0.09249506636175525]
_A[5, :5] = [5.86145544294642, -12.92096931784711, 8.159367898576159,
             -0.071584973281401, -0.028269050394068383]
_A[6, :6] = [0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742,
             -3.290069515436081, 2.324710524099774]
_E = np.array([0.001780011052225777, 0.0008164344596567469, -0.007880878010261995,
               0.1447110071732629, -0.5823571654525552, 0.45808210592918697,
               -1 / 66])

# the coefficient rows of one step, to be scaled by h: stages 1..6 act on
# [y; k0..k6] (unit weight on y), the error estimate on [k0..k6]
_ROWS = np.zeros((7, 8))
_ROWS[:6, 0] = 1.0
_ROWS[:6, 1:] = _A[1:]
_ROWS[6, 1:] = _E

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
#: accepted plus rejected steps before an integration is given up
_MAX_STEPS = 20_000_000


@dataclass
class OdeResult:
    t: float
    y: np.ndarray
    n_steps: int
    n_rejected: int
    n_rhs: int = 0                # rhs calls made
    stopped_early: bool = False


def _no_rates(ys, out):
    """The rates of an empty rider block."""


def _default_scale(rtol, atol):
    def scale(y_old, y_new):
        return atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return scale


def integrate(rhs, y0, t0, t_end, rtol=1e-8, atol=0.0, scale_fn=None,
              stop_fn=None, rider=None):
    """Integrate dy/dt = rhs(t, y) from t0 to t_end.

    Parameters
    ----------
    rhs : callable
        Right-hand side, returning an array like y (1-D, without the rider
        block); it may return one buffer of its own on every call.
    scale_fn : callable, optional
        Maps (y_old, y_new), rider block included, to the per-component error
        scale.  Defaults to the standard atol + rtol*|y| weighting.
    stop_fn : callable, optional
        Called after every accepted step with (t, y); returning True ends the
        integration early (flagged on the result).  y is the integrator's own
        state buffer, rider block included, overwritten by later steps: copy
        what is to be kept.  An in-place change to it (such as flushing
        underflowed entries) carries into the next step.
    rider : (rates, m), optional
        The last m entries of y0 are an integral q with dq/dt = rates(y),
        which the rhs never sees.  ``rates(ys, out)`` is handed an (s, n)
        stack of states (n = y0.size - m) and writes their (s, m) real rates
        into `out`: once for y0, then once per attempted step for its six new
        stage states.  Without a rider the same step runs with an empty
        rider block.

    The error norm is the max over components of |err_i| / scale_i; a step is
    accepted at norm <= 1 and the next h follows the standard fifth-order
    rescaling with safety 0.9.
    """
    y0 = np.asarray(y0)
    dtype = float if y0.dtype == np.float64 else complex
    y0 = y0.astype(dtype, copy=False)
    rates, m = rider if rider is not None else (_no_rates, 0)
    size = y0.size
    n = size - m
    t = float(t0)
    if scale_fn is None:
        scale_fn = _default_scale(rtol, atol)
    result = OdeResult(t=t, y=y0, n_steps=0, n_rejected=0)

    tab = np.zeros((8, size), dtype=dtype)       # [y; k0..k6]
    ys = np.zeros((6, size), dtype=dtype)        # stage states 1..6; ys[5] is y_new
    coef = _ROWS.astype(dtype)
    rows, hcoef = _ROWS[:, 1:], coef[:, 1:]      # hcoef = h * rows at every step
    err = np.empty(size, dtype=dtype)
    w = np.empty(size)                           # |err| / scale
    y, y_new = tab[0], ys[5]
    rhs_tab, rhs_ys = tab[:, :n], ys[:, :n]
    stage_rates = tab[2:, n:].real               # rider rates of k1..k6
    stages = [(_C[i], coef[i - 1, :i + 1], tab[:i + 1], ys[i - 1], rhs_ys[i - 1],
               rhs_tab[i + 1]) for i in range(1, 7)]
    b_row, b_tab = coef[5, :7], tab[:7]
    e_row, k_tab = coef[6, 1:], tab[1:]

    y[...] = y0
    k0 = rhs(t, y[:n])
    if dtype is float and np.iscomplexobj(k0):
        # storing it in the real table would drop its imaginary part
        raise TypeError("a float64 y0 needs an rhs that returns reals")
    rhs_tab[1] = k0
    n_rhs, n_steps, n_rejected = 1, 0, 0
    rates(rhs_tab[:1], tab[1:2, n:].real)
    # initial step heuristic (conservative power-of-tolerance scaling)
    sc = scale_fn(y, y)
    d0 = np.max(np.abs(y) / sc) if size else 1.0
    d1 = np.max(np.abs(tab[1]) / sc)
    h = min(t_end - t, 1e-2 * (d0 / d1 if d1 > 0 else 1.0) + 1e-6)

    while t < t_end:
        if n_steps + n_rejected > _MAX_STEPS:
            raise RuntimeError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t_end - t)
        end_hit = t + h >= t_end
        np.multiply(rows, h, out=hcoef)
        for c, row, table, y_i, psi_i, k_i in stages:
            np.dot(row, table, out=y_i)
            k_i[...] = rhs(t + c * h, psi_i)
        n_rhs += 6
        # the rider's rates at the six new stage states, then the new state
        # with the rider's new value
        rates(rhs_ys, stage_rates)
        np.dot(b_row, b_tab, out=y_new)
        np.dot(e_row, k_tab, out=err)
        sc = scale_fn(y, y_new)
        np.abs(err, out=w)
        w /= sc
        enorm = np.maximum.reduce(w)
        if enorm <= 1.0:
            t = t_end if end_hit else t + h
            y[...] = y_new
            tab[1] = tab[7]  # FSAL
            n_steps += 1
            if stop_fn is not None and stop_fn(t, y):
                result.stopped_early = True
                break
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2))
            h = h * factor
        else:
            n_rejected += 1
            h = h * max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
            if h <= 1e-15 * max(1.0, abs(t)):
                # a NaN or infinite estimate is rejected until h underflows
                cause = "" if np.isfinite(enorm) else \
                    "; the last error estimate was not finite (the state overflowed)"
                raise RuntimeError(f"step size underflow at t={t:.6g}{cause}")
    result.t = t
    result.y = y.copy()
    result.n_steps, result.n_rejected, result.n_rhs = n_steps, n_rejected, n_rhs
    return result
