"""Embedded adaptive Runge-Kutta integration for complex ODE systems.

A single Dormand-Prince 5(4) pair drives every time-domain propagation in the
package.  The controller measures the embedded error estimate against a
per-component scale supplied by the caller, which lets the quantum-walk code
tie the tolerance to the decaying wave-function magnitude instead of an
absolute floor.  Steps are clipped to land exactly on requested sample times,
so trajectories need no interpolant and two runs sampled on the same grid are
directly comparable.

A step allocates nothing: the seven stage derivatives, the stage state, the
error estimate and its weighted magnitude live in buffers made once per
integration, each stage sum is one BLAS product with a row of the
coefficient table, and the accepted state is swapped with the stage buffer
instead of copied.  The rhs only has to return an array; it may return the
same buffer on every call, because its value is copied into the stage table
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Dormand-Prince coefficients (FSAL: the 7th stage is next step's first, and
# its row of _A is the fifth-order solution's weights _B5, so the last stage
# state is the new state).  Complex, so a stage sum is one BLAS product
# written straight into its buffer.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 7), dtype=complex)
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = (_B5 - _B4).astype(complex)

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
    samples: list = field(default_factory=list)   # (t, y) pairs on request
    stopped_early: bool = False


def _default_scale(rtol, atol):
    def scale(y_old, y_new):
        return atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return scale


def integrate(rhs, y0, t0, t_end, rtol=1e-8, atol=0.0, scale_fn=None,
              stop_fn=None, sample_times=None):
    """Integrate dy/dt = rhs(t, y) from t0 to t_end.

    Parameters
    ----------
    rhs : callable
        Right-hand side, returning an array like y (1-D); it may return one
        buffer of its own on every call.
    scale_fn : callable, optional
        Maps (y_old, y_new) to the per-component error scale.  Defaults to
        the standard atol + rtol*|y| weighting.
    stop_fn : callable, optional
        Called after every accepted step with (t, y); returning True ends the
        integration early (flagged on the result).  y is the integrator's own
        state buffer, reused for later stages: copy what is to be kept.  An
        in-place change to it (such as flushing underflowed entries) carries
        into the next step.
    sample_times : sequence, optional
        Times to land on exactly; a copy of the state there is recorded on
        the result.

    The error norm is the max over components of |err_i| / scale_i; a step is
    accepted at norm <= 1 and the next h follows the standard fifth-order
    rescaling with safety 0.9.
    """
    y = np.asarray(y0, dtype=complex).copy()
    t = float(t0)
    if scale_fn is None:
        scale_fn = _default_scale(rtol, atol)
    if sample_times is None:
        sample_times = []
    pending = sorted(float(s) for s in sample_times if t0 < s <= t_end)
    result = OdeResult(t=t, y=y, n_steps=0, n_rejected=0)

    k = np.empty((7,) + y.shape, dtype=complex)
    ys = np.empty_like(y)                 # stage state; after stage 6, y_new
    err = np.empty_like(y)
    w = np.empty(y.shape)                 # |err| / scale
    stages = [(_C[i], _A[i, :i], k[:i], k[i]) for i in range(1, 7)]
    k[0] = rhs(t, y)
    # initial step heuristic (conservative power-of-tolerance scaling)
    sc = scale_fn(y, y)
    d0 = np.max(np.abs(y) / sc) if y.size else 1.0
    d1 = np.max(np.abs(k[0]) / sc)
    h = min(t_end - t, 1e-2 * (d0 / d1 if d1 > 0 else 1.0) + 1e-6)

    while t < t_end:
        if result.n_steps + result.n_rejected > _MAX_STEPS:
            raise RuntimeError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t_end - t)
        target = None
        end_hit = t + h >= t_end
        if pending and t + h >= pending[0] - 1e-14 * max(1.0, abs(pending[0])):
            target = pending[0]
            h = target - t
            end_hit = False
        for c, a, k_prev, k_i in stages:
            np.dot(a, k_prev, out=ys)
            ys *= h
            ys += y
            k_i[...] = rhs(t + c * h, ys)
        np.dot(_E, k, out=err)
        err *= h
        sc = scale_fn(y, ys)
        np.abs(err, out=w)
        w /= sc
        enorm = w.max()
        if enorm <= 1.0:
            t = target if target is not None else (t_end if end_hit else t + h)
            y, ys = ys, y
            k[0] = k[6]  # FSAL
            result.n_steps += 1
            if target is not None:
                pending.pop(0)
                result.samples.append((t, y.copy()))
            if stop_fn is not None and stop_fn(t, y):
                result.stopped_early = True
                break
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2))
            h = h * factor
        else:
            result.n_rejected += 1
            h = h * max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
            if h <= 1e-15 * max(1.0, abs(t)):
                raise RuntimeError(f"step size underflow at t={t:.6g}")
    result.t = t
    result.y = y.copy()
    return result
