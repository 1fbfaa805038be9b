"""Seeded inputs of the igclab benchmark: the ops of each workload as CLI configs.

Each workload loads mostly one layer of the package and leaves the others
nearly idle, so that every optimisation has one workload where it shows and
others where the prediction is "no change":

* ``walk_time``      -- TIME-engine walks: ``ode.integrate`` (rhs matvec plus
  step overhead), no LU and no eigensolve.
* ``walk_resolvent`` -- RESOLVENT-engine walks and the steady density: one
  dense LU per quadrature node, H side and X side.
* ``spectral``       -- dense eigensolves, the self-intersection search, the
  Liouvillian gap and the coupling-condition roots; no ODE and no LU.

The seed draws one release-cell offset in [-5, 5], applied to every release
of the workload (to the scan's with alternating sign), and the seed of every
random loss profile.  Everything else
mirrors the figure presets, scaled where a preset would not fit the run
budget (see README.md).  Walks stop at the norm floor 1e-12, as the
acceptance fixture does, so that the cross-engine check holds at the left
edge as well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("walk_time", "walk_resolvent", "spectral")

NORM_FLOOR = 1e-12


@dataclass
class Op:
    """One timed unit: the configs it hands to ``cli.execute``, in order."""

    name: str
    kind: str            # sweep | walk | liouville | spectrum | igc
    configs: list


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list          # untimed configs run once during set-up
    nonzero: tuple        # layer counters a traced pass must see > 0
    zero: tuple           # layer counters a traced pass must see == 0


def ladder(t0, t2=None, L=200, bc="OBC", gamma=0.5, phi=math.pi / 2):
    t = [t0, 0.5] if t2 is None else [t0, 0.5, t2]
    return {"kind": "ladder", "L": L, "t": t, "t_p": 0.5, "phi": phi,
            "gamma": gamma, "bc": bc}


def random_loss(seed):
    return {"kind": "random", "low": 0.4, "high": 0.6, "seed": seed}


def walk(model, x0, engine, command="walk"):
    return {"command": command, "model": model, "x0": x0, "engine": engine,
            "norm_floor": NORM_FLOOR}


def sweep(model, x0s):
    return {"command": "sweep", "model": model, "engine": "TIME",
            "norm_floor": NORM_FLOOR, "sweep": {"vary": "x0", "values": x0s}}


def _walk_time(off, smoke):
    L_scan, bases, L_long, x_long, L_ring = ((40, (15, 25), 24, 15, 40) if smoke else
                                             (60, range(15, 46, 5), 60, 45, 60))
    # a walk's length grows with the release's distance from the left edge
    # (about 20 steps per cell), so the scan's releases move by +off and -off
    # in turn: the inputs change with the seed, the total work hardly
    return [
        # fig3e: seven releases on one H, where operator reuse and batched
        # releases show
        Op("scan", "sweep", [sweep(ladder(0.3, L=L_scan),
                                   [x + (-1) ** i * off for i, x in enumerate(bases)])]),
        # fig5d: one long single-release trajectory, which batching bypasses
        Op("long_walk", "walk", [walk(ladder(0.3, t2=0.5, L=L_long), x_long + off,
                                      "TIME", "burst")]),
        # the ring: corner entries in the matvec, which an OBC-only banded
        # path would not serve
        Op("pbc_walk", "walk", [walk(ladder(0.6, L=L_ring, bc="PBC"), L_ring // 2 + off,
                                     "TIME")]),
    ]


def _walk_resolvent(off, gseed, smoke):
    L_obc, L_pbc = (40, 40) if smoke else (100, 60)
    return [
        # the C3 corner at half size: 1470 dense LUs at n=200
        Op("resolvent_obc", "walk", [walk(ladder(0.3, L=L_obc), 3 * L_obc // 4 + off,
                                          "RESOLVENT")]),
        # periodic corner blocks, 2790 LUs at n=120
        Op("resolvent_pbc", "walk", [walk(ladder(0.6, L=L_pbc, bc="PBC"), L_pbc // 2 + off,
                                          "RESOLVENT")]),
        # the same integral on the X side (C8g)
        Op("steady_density", "liouville",
           [{"command": "liouville", "model": ladder(0.3, L=L_pbc, gamma=random_loss(gseed)),
             "x0": 3 * L_pbc // 4 + off}]),
    ]


def _spectral(gseed, smoke):
    L, L_gap, phis = (40, 40, 4) if smoke else (200, 120, 64)
    return [
        # fig5b at t2=0.5: dense eig at n=2L plus the crossing search, which
        # polishes and de-duplicates its four crossings
        Op("spectrum_si", "spectrum",
           [{"command": "spectrum", "model": ladder(0.3, t2=0.5, L=L, bc="PBC"),
             "self_intersections": True, "k_samples": 512}]),
        # fig8b subset: the Liouvillian gap under both boundary conditions
        Op("damping_gap", "liouville",
           [{"command": "liouville", "model": ladder(0.3, L=L_gap, bc=bc,
                                                     gamma=random_loss(gseed))}
            for bc in ("OBC", "PBC")]),
        # fig6a over a finer phase grid, so that the igc layer is measurable
        Op("igc", "igc",
           [{"command": "igc", "model": ladder(0.3, bc="PBC",
                                               phi=math.pi / 2 * i / (phis - 1))}
            for i in range(phis)]),
    ]


_COMMON = ("cli.execute.calls", "model.build_ladder.calls")
_SPLIT = {
    "walk_time": (_COMMON + ("ode.integrate.calls", "ode.rhs.calls", "ode.steps",
                             "walk.loss_profile_time.calls",
                             "analysis.burst_metrics.calls", "analysis.fit_bulk.calls"),
                  ("densela.lu_solve.calls", "densela.eigendecompose.calls",
                   "quadrature.adaptive_quadrature.calls")),
    "walk_resolvent": (_COMMON + ("densela.lu_solve.calls",
                                  "quadrature.adaptive_quadrature.calls",
                                  "quadrature.integrand.calls", "quadrature.panels",
                                  "walk.loss_profile_resolvent.calls",
                                  "liouville.steady_density.calls",
                                  "liouville.build_damping.calls"),
                       ("ode.integrate.calls",)),
    "spectral": (_COMMON + ("densela.eigendecompose.calls",
                            "analysis.self_intersections.calls",
                            "liouville.liouvillian_gap.calls",
                            "igc.solve_connection.calls"),
                 ("ode.integrate.calls", "densela.lu_solve.calls")),
}


def build(name, seed, smoke=False):
    """The ops of workload `name` for `seed`; the same seed gives the same ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    off = rng.randint(-5, 5)
    gseed = rng.randrange(2 ** 31)
    if name == "walk_time":
        ops = _walk_time(off, smoke)
        warm = [sweep(ladder(0.3, L=40), [25])]
    elif name == "walk_resolvent":
        ops = _walk_resolvent(off, gseed, smoke)
        warm = [walk(ladder(0.3, L=40), 30, "RESOLVENT")]
    else:
        ops = _spectral(gseed, smoke)
        warm = [{"command": "spectrum", "model": ladder(0.3, t2=0.5, L=40, bc="PBC")}]
    nonzero, zero = _SPLIT[name]
    return Workload(name, ops, warm, nonzero, zero)
