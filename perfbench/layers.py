"""Per-layer tracing from outside the package: wrappers, spans and counters.

The package is left untouched.  `Tracer.install` replaces each public
function at every module attribute its callers look it up through (the
package imports functions by name, so e.g. ``build_ladder`` is looked up as
``igclab.walk.build_ladder`` by the walk engines and as
``igclab.liouville.build_ladder`` by the damping matrix).  The callables the
engines hand to the ODE and quadrature drivers (rhs, error scale, stop test
and integrand) are wrapped on the way in.

Every wrapped call is a span, timed in CPU seconds of the process like the
end-to-end figures.  A span's self time is its duration minus the part
covered by its child spans; spans nest strictly because the package is
single-threaded, so a stack of child-time accumulators is enough.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

#: (module, attribute, span name); one function may sit behind several aliases
ALIASES = (
    ("walk", "build_ladder", "model.build_ladder"),
    ("liouville", "build_ladder", "model.build_ladder"),
    ("cli", "build_ladder", "model.build_ladder"),
    ("walk", "integrate", "ode.integrate"),
    ("walk", "adaptive_quadrature", "quadrature.adaptive_quadrature"),
    ("liouville", "adaptive_quadrature", "quadrature.adaptive_quadrature"),
    ("quadrature", "kronrod_panel", "quadrature.kronrod_panel"),
    ("densela", "lu_solve", "densela.lu_solve"),
    ("densela", "eigendecompose", "densela.eigendecompose"),
    ("cli", "eigendecompose", "densela.eigendecompose"),
    ("walk", "loss_profile_time", "walk.loss_profile_time"),
    ("walk", "loss_profile_resolvent", "walk.loss_profile_resolvent"),
    ("analysis", "burst_metrics", "analysis.burst_metrics"),
    ("analysis", "fit_bulk", "analysis.fit_bulk"),
    ("analysis", "self_intersections", "analysis.self_intersections"),
    ("liouville", "build_damping", "liouville.build_damping"),
    ("liouville", "liouvillian_gap", "liouville.liouvillian_gap"),
    ("liouville", "steady_density", "liouville.steady_density"),
    ("igc", "solve_connection", "igc.solve_connection"),
)


class Tracer:
    """Aggregated spans (calls, seconds, self seconds) plus work counters."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = {}
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def reset(self):
        """Start a new pass; wrappers keep writing into the same containers."""
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, after=None):
        """`fn` recorded as span `name`; `after(result)` runs outside the span."""
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += dt
                span[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- wrappers that also count the drivers' own work -------------------

    def _integrate(self, fn):
        sig = inspect.signature(fn)
        counts = self.counts

        def done(res):
            counts["ode.steps"] += res.n_steps
            counts["ode.rejected"] += res.n_rejected
            # one rhs call to start, then six stages per attempted step (FSAL)
            counts["ode.rhs.expected"] += 1 + 6 * (res.n_steps + res.n_rejected)

        inner = self.wrap("ode.integrate", fn, after=done)

        def integrate(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            for key, span in (("rhs", "ode.rhs"), ("scale_fn", "ode.scale"),
                              ("stop_fn", "ode.stop")):
                if bound.arguments.get(key) is not None:
                    bound.arguments[key] = self.wrap(span, bound.arguments[key])
            return inner(*bound.args, **bound.kwargs)

        return integrate

    def _quadrature(self, fn):
        sig = inspect.signature(fn)
        counts = self.counts

        def done(res):
            counts["quadrature.panels"] += res.n_panels
            counts["quadrature.nodes"] += res.n_evaluations
            counts["quadrature.converged"] += int(res.converged)

        inner = self.wrap("quadrature.adaptive_quadrature", fn, after=done)

        def adaptive_quadrature(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["f"] = self.wrap("quadrature.integrand", bound.arguments["f"])
            return inner(*bound.args, **bound.kwargs)

        return adaptive_quadrature

    def _wrapper(self, name, fn):
        counts = self.counts
        if name == "ode.integrate":
            return self._integrate(fn)
        if name == "quadrature.adaptive_quadrature":
            return self._quadrature(fn)
        if name == "densela.lu_solve":
            def done(x):
                counts["densela.lu_solve.flop"] += 8.0 / 3.0 * x.shape[0] ** 3
            return self.wrap(name, fn, after=done)
        if name == "walk.loss_profile_time":
            def done(prof):
                counts["engine.n_steps"] += prof.diagnostics["n_steps"]
            return self.wrap(name, fn, after=done)
        if name == "walk.loss_profile_resolvent":
            def done(prof):
                counts["engine.n_solves"] += prof.diagnostics.get("n_solves", 0)
            return self.wrap(name, fn, after=done)
        if name == "liouville.steady_density":
            def done(result):
                counts["engine.n_solves"] += result[1].get("n_nodes", 0)
            return self.wrap(name, fn, after=done)
        if name == "analysis.self_intersections":
            def done(hits):
                counts["analysis.self_intersections.found"] += len(hits)
            return self.wrap(name, fn, after=done)
        return self.wrap(name, fn)

    def install(self, package):
        """Wrap every alias in ALIASES on the imported `package`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in ALIASES:
            mod = getattr(package, mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrapper(span, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []


def _span(spans, name):
    return spans.get(name, (0, 0.0, 0.0))


def layer_metrics(spans, counts, bytes_written):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    m = {}

    def add(name, key, calls=True, s=True, self_s=False):
        n, total, own = _span(spans, key)
        if calls:
            m[f"{name}.calls"] = (n, "count")
        if s:
            m[f"{name}.s"] = (total, "s")
        if self_s:
            m[f"{name}.self_s"] = (own, "s")

    def per_call_us(key):
        n, total, _ = _span(spans, key)
        return total / n * 1e6 if n else 0.0

    add("model.build_ladder", "model.build_ladder")
    add("ode.integrate", "ode.integrate", self_s=True)
    add("ode.rhs", "ode.rhs")
    m["ode.rhs.us_per_call"] = (per_call_us("ode.rhs"), "us")
    add("ode.scale", "ode.scale", calls=False)
    add("ode.stop", "ode.stop", calls=False)
    steps, rejected = counts["ode.steps"], counts["ode.rejected"]
    m["ode.steps"] = (steps, "count")
    m["ode.rejected"] = (rejected, "count")
    m["ode.accept_ratio"] = (steps / (steps + rejected) if steps + rejected else 0.0,
                             "ratio")
    add("densela.lu_solve", "densela.lu_solve")
    m["densela.lu_solve.us_per_call"] = (per_call_us("densela.lu_solve"), "us")
    m["densela.lu_solve.gflop_computed"] = (counts["densela.lu_solve.flop"] / 1e9,
                                            "GFLOP")
    add("densela.eigendecompose", "densela.eigendecompose")
    add("quadrature.adaptive_quadrature", "quadrature.adaptive_quadrature", self_s=True)
    add("quadrature.integrand", "quadrature.integrand")
    m["quadrature.panels"] = (counts["quadrature.panels"], "count")
    m["quadrature.nodes"] = (counts["quadrature.nodes"], "count")
    n_quad = _span(spans, "quadrature.adaptive_quadrature")[0]
    m["quadrature.converged_frac"] = (counts["quadrature.converged"] / n_quad
                                      if n_quad else 0.0, "ratio")
    add("walk.loss_profile_time", "walk.loss_profile_time", self_s=True)
    add("walk.loss_profile_resolvent", "walk.loss_profile_resolvent", self_s=True)
    add("analysis.self_intersections", "analysis.self_intersections")
    m["analysis.self_intersections.found"] = (counts["analysis.self_intersections.found"],
                                              "count")
    add("analysis.burst_metrics", "analysis.burst_metrics")
    add("analysis.fit_bulk", "analysis.fit_bulk")
    add("liouville.build_damping", "liouville.build_damping")
    add("liouville.liouvillian_gap", "liouville.liouvillian_gap")
    add("liouville.steady_density", "liouville.steady_density", self_s=True)
    add("igc.solve_connection", "igc.solve_connection")
    add("cli.execute", "cli.execute", self_s=True)
    m["cli.bytes_written"] = (bytes_written, "B")
    return m


def cross_check(spans, counts, metrics, nonzero, zero):
    """Failures of the trace's own consistency rules, as readable strings.

    A counter that should be busy but reads zero means an alias drifted and
    the layer went unmeasured; the work counts must equal the engines' own
    diagnostics.
    """
    val = {k: v[0] for k, v in metrics.items()}
    errors = [f"{k} is 0: alias drifted or layer bypassed" for k in nonzero if not val[k]]
    errors += [f"{k} is {val[k]}, expected 0 on this workload" for k in zero if val[k]]
    rules = (
        ("ode.steps", val["ode.steps"], "engines' n_steps", counts["engine.n_steps"]),
        ("ode.steps", val["ode.steps"], "ode.stop calls", _span(spans, "ode.stop")[0]),
        ("ode.rhs.calls", val["ode.rhs.calls"], "1 + 6 x attempted steps",
         counts["ode.rhs.expected"]),
        ("densela.lu_solve.calls", val["densela.lu_solve.calls"],
         "engines' n_solves + steady n_nodes", counts["engine.n_solves"]),
        ("densela.lu_solve.calls", val["densela.lu_solve.calls"], "quadrature.nodes",
         val["quadrature.nodes"]),
        ("quadrature.nodes", val["quadrature.nodes"], "15 x quadrature.integrand.calls",
         15 * val["quadrature.integrand.calls"]),
    )
    errors += [f"{a} = {x} but {b} = {y}" for a, x, b, y in rules if x != y]
    return errors

