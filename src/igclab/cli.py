"""Batch front end: validated JSON configs in, CSV/JSON (and SVG) files out.

One run executes one command (spectrum, igc, walk, burst, sweep, liouville,
or a named figure preset) against one model description.  Configs are
validated fail-closed before any output is written, and `validate_config`
returns the plan the commands run (defaults filled in, every release's
`WalkConfig` built), so what was checked is what runs.  Every run writes a
metadata record with the resolved config echo, so a result can always be
reproduced from its own output directory; identical config and seed give
byte-identical CSV files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, analysis, igc, liouville, walk
from .densela import eigendecompose
from .model import (OBC, PBC, LadderParams, GeneralModel, build_general,
                    build_ladder, linear_gamma, random_gamma)
from .svgplot import SvgPlot

_MODEL_KEYS = {"command", "model", "seed"}
_WALK_KEYS = _MODEL_KEYS | {"x0", "engine", "t_max", "norm_floor", "step_tol"}
#: the top-level keys each command reads
_TOP_KEYS = {
    "spectrum": _MODEL_KEYS | {"compare_bc", "self_intersections", "k_samples"},
    "igc": _MODEL_KEYS,
    "walk": _WALK_KEYS,
    "burst": _WALK_KEYS | {"threshold"},
    "sweep": _WALK_KEYS | {"threshold", "sweep"},
    "liouville": _MODEL_KEYS | {"x0"},
    "figure": {"command", "figure"},
}
_LADDER_KEYS = {"kind", "L", "t", "t_p", "phi", "gamma", "bc"}
_GENERAL_KEYS = {"kind", "A", "B_herm", "C", "gamma"}
_GAMMA_KEYS = {"uniform": {"kind", "value"},
               "linear": {"kind", "slope", "offset"},
               "random": {"kind", "low", "high", "seed"}}
_SWEEP_KEYS = {"vary", "values"}
#: the generator of `random_gamma`, recorded beside a random profile's echo
_PRNG = f"numpy PCG64 ({np.__version__})"
COMMANDS = tuple(_TOP_KEYS)


class ConfigError(ValueError):
    """Configuration failed schema validation."""


class RunFailure(RuntimeError):
    """A numerical stage failed; carries diagnostics."""


def _fail_unknown(given, allowed, where):
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object, got {given!r}")
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


def _need(cfg, key, where="config"):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}' in {where}")
    return cfg[key]


def _integer(value, where, what="an integer"):
    # 12.7 would run as 12 and be echoed as 12, and a bool is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return int(value)


def _number(value, where):
    # float() reads "12" and true, and JSON's NaN compares false with all
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _resolve_gamma(spec, L, default_seed):
    """Gamma field: scalar, explicit list, or a named profile description.

    Returns the loss rates and their echo, a gamma field that parses back to
    the same rates without --seed."""
    if isinstance(spec, list):
        values = [_number(v, "model.gamma") for v in spec]
        return values, values
    if isinstance(spec, dict):
        kind = _need(spec, "kind", "model.gamma")
        if kind not in _GAMMA_KEYS:
            raise ConfigError(f"unknown gamma profile kind {kind!r}")
        _fail_unknown(spec, _GAMMA_KEYS[kind], f"model.gamma ({kind})")
        if kind == "uniform":
            v = _number(_need(spec, "value", "model.gamma"), "model.gamma.value")
            return v, {"kind": "uniform", "value": v}
        if kind == "linear":
            slope = _number(_need(spec, "slope", "model.gamma"), "model.gamma.slope")
            offset = _number(_need(spec, "offset", "model.gamma"), "model.gamma.offset")
            return (linear_gamma(L, slope, offset),
                    {"kind": "linear", "slope": slope, "offset": offset})
        seed = spec.get("seed", default_seed)
        if seed is None:
            raise ConfigError("random gamma profile needs a seed "
                              "(in the config or via --seed)")
        seed = _integer(seed, "model.gamma.seed")
        low = _number(spec.get("low", 0.4), "model.gamma.low")
        high = _number(spec.get("high", 0.6), "model.gamma.high")
        return (random_gamma(L, low, high, seed),
                {"kind": "random", "low": low, "high": high, "seed": seed})
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return float(spec), {"kind": "uniform", "value": float(spec)}
    raise ConfigError("model.gamma must be a number, a list, or a profile object")


def _parse_ladder(m, default_seed):
    _fail_unknown(m, _LADDER_KEYS, "model")
    L = _integer(_need(m, "L", "model"), "model.L")
    t = _need(m, "t", "model")
    t = [_number(v, "model.t") for v in (t if isinstance(t, list) else [t])]
    try:
        gamma, gamma_echo = _resolve_gamma(_need(m, "gamma", "model"), L, default_seed)
        p = LadderParams(L=L, t=t,
                         t_p=_number(_need(m, "t_p", "model"), "model.t_p"),
                         phi=_number(_need(m, "phi", "model"), "model.phi"),
                         gamma=gamma, bc=m.get("bc", OBC))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad ladder model: {exc}") from exc
    echo = {"kind": "ladder", "L": p.L, "t": list(p.t), "t_p": p.t_p,
            "phi": p.phi, "gamma": gamma_echo, "bc": p.bc}
    return p, echo


def _complex_matrix(rows, where):
    try:
        return np.array([[complex(_number(c[0], where), _number(c[1], where))
                          for c in row] for row in rows])
    except (TypeError, IndexError, KeyError) as exc:
        raise ConfigError(f"{where} must be a matrix of [re, im] pairs") from exc


def _pairs(matrix):
    """A complex matrix as the [re, im] pairs `_complex_matrix` reads back."""
    return [[[float(c.real), float(c.imag)] for c in row] for row in matrix]


def _parse_model(cfg, default_seed):
    m = _need(cfg, "model")
    if not isinstance(m, dict):
        raise ConfigError("model must be an object")
    kind = m.get("kind", "ladder")
    if kind == "ladder":
        return _parse_ladder(m, default_seed)
    if kind == "general":
        _fail_unknown(m, _GENERAL_KEYS, "model")
        gamma = _need(m, "gamma", "model")
        try:
            g = GeneralModel(A=_complex_matrix(_need(m, "A", "model"), "model.A"),
                             B_herm=_complex_matrix(_need(m, "B_herm", "model"), "model.B_herm"),
                             C=_complex_matrix(_need(m, "C", "model"), "model.C"),
                             gamma=[_number(v, "model.gamma") for v in
                                    (gamma if isinstance(gamma, list) else [gamma])])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad general model: {exc}") from exc
        return g, {"kind": "general", "A": _pairs(g.A), "B_herm": _pairs(g.B_herm),
                   "C": _pairs(g.C), "gamma": list(g.gamma)}
    raise ConfigError(f"unknown model kind {kind!r}")


def _check_x0(value, L, where):
    # 4.5 would be released at cell 4 but reported and fitted as 4.5
    x0 = _integer(value, where, "an integer cell")
    if not 1 <= x0 <= L:
        raise ConfigError(f"{where} must lie in 1..{L}, got {value!r}")
    return x0


def _row_params(params, vary, value):
    """The ladder of one sweep row: `params` with t2 or phi set to `value`."""
    if vary == "t2":
        t = list(params.t) + [0.0] * (3 - len(params.t))
        t[2] = value
        return dataclasses.replace(params, t=tuple(t))
    if vary == "phi":
        return dataclasses.replace(params, phi=value)
    return params


def _plan_walks(cfg, model):
    """(row value, `WalkConfig`) of every release a walk, burst or sweep
    config runs: its one release, or one per sweep row on that row's ladder.
    A release that cannot be built is a config error."""
    kw = {key: _number(cfg[key], key) for key in ("t_max", "norm_floor", "step_tol")
          if key in cfg}
    if cfg["command"] != "sweep":
        vary, values, where = "x0", [_need(cfg, "x0")], "x0"
    else:
        if cfg["engine"] == "BOTH":
            raise ConfigError("sweep takes engine TIME or RESOLVENT, not BOTH")
        sw = _need(cfg, "sweep")
        _fail_unknown(sw, _SWEEP_KEYS, "sweep")
        vary = _need(sw, "vary", "sweep")
        if vary not in ("x0", "t2", "phi"):
            raise ConfigError("sweep.vary must be one of x0, t2, phi")
        values, where = _need(sw, "values", "sweep"), "sweep.values"
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        if vary != "x0" and "x0" not in cfg:
            raise ConfigError("parameter sweeps need a fixed x0")
    walks = []
    for v in values:
        v = _check_x0(v, model.L, where) if vary == "x0" else _number(v, where)
        try:
            walks.append((v, walk.WalkConfig(params=_row_params(model, vary, v),
                                             x0=v if vary == "x0" else cfg["x0"], **kw)))
        except ValueError as exc:
            raise ConfigError(f"bad walk at {where} {v!r}: {exc}") from exc
    return walks


def validate_config(cfg, default_seed=None):
    """Schema-check a raw config dict; returns (plan, model, echo).

    The plan is the config with `engine`, `threshold`, `k_samples` and `x0`
    typed and defaulted where its command reads them, plus `walks`, the
    `_plan_walks` list of a walk, burst or sweep."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    command = _need(cfg, "command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    _fail_unknown(cfg, _TOP_KEYS[command], f"{command} config")
    cfg, seed = dict(cfg), cfg.get("seed", default_seed)
    if command == "figure":
        name = _need(cfg, "figure")
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown figure preset {name!r}; "
                              f"known: {', '.join(sorted(PRESETS))}")
        return cfg, None, {"figure": name}
    model, echo = _parse_model(cfg, seed)
    if isinstance(model, GeneralModel):
        if command != "spectrum":
            raise ConfigError(f"command {command!r} needs a ladder model")
        _fail_unknown(cfg, _MODEL_KEYS, "spectrum config of a general model")
        return cfg, model, echo
    if command == "spectrum":
        k = cfg["k_samples"] = _integer(cfg.get("k_samples", 1024), "k_samples")
        if k < analysis.MIN_K_SAMPLES:
            raise ConfigError(f"k_samples must be >= {analysis.MIN_K_SAMPLES}, got {k}")
        for flag in ("compare_bc", "self_intersections"):   # "no" would read as true
            if not isinstance(cfg.get(flag, False), bool):
                raise ConfigError(f"{flag} must be true or false, got {cfg[flag]!r}")
        if cfg.get("self_intersections") and model.uniform_gamma is None:
            raise ConfigError("self_intersections needs a uniform loss profile")
    if command == "igc" and sum(model.t) <= 0:
        raise ConfigError("igc needs sum(t) = F(0) > 0; rescale or flip the couplings")
    if "x0" in cfg:
        cfg["x0"] = _check_x0(cfg["x0"], model.L, "x0")
    if command in ("walk", "burst", "sweep"):
        cfg["engine"] = cfg.get("engine", walk.TIME)
        if cfg["engine"] not in (walk.TIME, walk.RESOLVENT, "BOTH"):
            raise ConfigError("engine must be TIME, RESOLVENT, or BOTH")
        if command != "walk":
            th = cfg["threshold"] = _number(cfg.get("threshold", analysis.BURST_THRESHOLD),
                                            "threshold")
            if th < 1:      # every burst ratio is >= 1: all sides would burst
                raise ConfigError(f"threshold must be >= 1, got {th}")
        cfg["walks"] = _plan_walks(cfg, model)
    return cfg, model, echo


def _fmt(v) -> str:
    if v is None:       # a metric that does not exist (release at an edge)
        return "nan"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class _Outputs(dict):
    """The files of one run, path -> description: each CSV and plot is
    written under the run's directory, named with its tag, and listed here."""

    def __init__(self, out, tag):
        super().__init__()
        self.out, self.tag = out, tag

    def _path(self, name, what):
        path = self.out / f"{self.tag}{name}"
        self[str(path)] = what
        return path

    def csv(self, name, what, header, rows):
        write_csv(self._path(name, what), header, rows)

    def plot(self, name, what, series, mode="points", **axes):
        """An SVG of `series`, (label, xs, ys) each, on `SvgPlot(**axes)`."""
        pl = SvgPlot(**axes)
        for label, xs, ys in series:
            pl.add(xs, ys, label=label, mode=mode)
        pl.write(self._path(name, what))


def _profiles(engine, wc):
    """Escape profiles of the release `wc` on `engine` (TIME, RESOLVENT or
    BOTH): the one engine dispatch of walk, burst and every sweep row."""
    profs = []
    if engine in (walk.TIME, "BOTH"):
        profs.append(walk.loss_profile_time(wc))
    if engine in (walk.RESOLVENT, "BOTH"):
        profs.append(walk.loss_profile_resolvent(wc))
    return profs


# --- command implementations -------------------------------------------------
# each writes its files through `files` and returns its diagnostics

def _cmd_spectrum(cfg, model, files, plot, jobs):
    rows, diags = [], {}
    if isinstance(model, GeneralModel):
        variants = [("general", eigendecompose(build_general(model)), "dense")]
    else:
        bcs = (OBC, PBC) if cfg.get("compare_bc") else (model.bc,)
        variants = [(bc, *build_ladder(dataclasses.replace(model, bc=bc)).eigenvalues())
                    for bc in bcs]
    for label, w, how in variants:
        rows += [(e.real, e.imag, label) for e in w]
        diags[label] = {"dim": w.size, "max_imag": float(w.imag.max()),
                        "eigensolve": how}
    files.csv("spectrum.csv", "complex eigenvalues", ["re", "im", "label"], rows)
    if cfg.get("self_intersections"):
        hits = analysis.self_intersections(model, cfg["k_samples"])
        files.csv("self_intersections.csv", "spectral self-crossings",
                  ["k1", "k2", "re", "im"],
                  [(h.k1, h.k2, h.energy.real, h.energy.imag) for h in hits])
        diags["self_intersections"] = len(hits)
    if plot:
        files.plot("spectrum.svg", "spectrum plot",
                   [(label, w.real, w.imag) for label, w, _ in variants],
                   xlabel="Re E", ylabel="Im E", title="energy spectrum")
    return diags


def _cmd_igc(cfg, model, files, plot, jobs):
    sol = igc.solve_connection(model.t, model.t_p, model.phi)
    files.csv("igc.csv", "connection-condition roots",
              ["k", "beta_re", "beta_im", "energy", "marginal"],
              [(p.k, p.beta.real, p.beta.imag, p.energy, int(p.marginal))
               for p in sol.points])
    return {"f_min": sol.f_min, "k_min": sol.k_min,
            "classification": sol.classification, "n_points": len(sol.points)}


def _burst(P, x0, threshold):
    """The burst metrics of a profile and its bulk fit on each side."""
    m = analysis.burst_metrics(P, x0, threshold)
    entry = {"burst_type": m.burst_type, "ratio_left": m.ratio_left,
             "ratio_right": m.ratio_right, "p_edge_left": m.p_edge_left,
             "p_edge_right": m.p_edge_right}
    for side in (analysis.LEFT, analysis.RIGHT):
        try:
            fit = analysis.fit_bulk(P, x0, side)
            entry[f"fit_{side.lower()}"] = {
                "kind": fit.kind, "exponent": fit.exponent,
                "r_squared": fit.r_squared, "window": list(fit.window),
                "power_r2": fit.power_r2, "exp_r2": fit.exp_r2,
                "n_points": fit.n_points, "n_excluded": fit.n_excluded}
        except analysis.WindowError as exc:
            entry[f"fit_{side.lower()}"] = {"error": str(exc)}
    return entry


def _cmd_walk(cfg, model, files, plot, jobs):
    """The profiles of a walk or burst run, with their CSV, plot and
    diagnostics; a burst run adds each profile's `_burst` entry."""
    (_, wc), = cfg["walks"]
    profs = _profiles(cfg["engine"], wc)
    files.csv("profile.csv", "escape probabilities", ["x", "P_x", "engine"],
              [(x + 1, float(p), prof.engine) for prof in profs
               for x, p in enumerate(prof.P)])
    diags = {prof.engine: dict(prof.diagnostics, total=float(prof.P.sum()),
                               incomplete=prof.incomplete) for prof in profs}
    if cfg["command"] == "burst":
        for prof in profs:
            diags[prof.engine].update(_burst(prof.P, wc.x0, cfg["threshold"]))
    if plot:
        files.plot("profile.svg", "escape profile plot",
                   [(prof.engine, range(1, len(prof.P) + 1), prof.P) for prof in profs],
                   xlabel="x", ylabel="P_x", title="escape probability", ylog=True)
    return diags


#: each sweep row's diagnostics in `run.json`, by engine: no timings, so that
#: a rerun, or a run with more jobs, writes the same rows
_ROW_KEYS = {walk.TIME: ("conservation_defect", "n_steps"),
             walk.RESOLVENT: ("conservation_defect", "n_solves", "conservation_budget",
                              "converged", "folded")}


def _sweep_row(args):
    """One sweep row and its diagnostics; module-level so worker pools can
    pickle it."""
    engine, threshold, value, wc = args
    prof, = _profiles(engine, wc)
    m = analysis.burst_metrics(prof.P, wc.x0, threshold)
    diag = {"incomplete": prof.incomplete,
            **{key: prof.diagnostics[key] for key in _ROW_KEYS[engine]}}
    return (float(value), m.ratio_left, m.ratio_right,
            m.p_edge_left, m.p_edge_right, m.burst_type, prof.incomplete), diag


def _cmd_sweep(cfg, model, files, plot, jobs):
    vary = cfg["sweep"]["vary"]
    tasks = [(cfg["engine"], cfg["threshold"], v, wc) for v, wc in cfg["walks"]]
    # a fork pool starts all its workers at once: never more than rows or CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    results = [r for r, _ in rows]
    files.csv("sweep.csv", f"burst metrics against {vary}",
              [vary, "ratio_left", "ratio_right", "p_edge_left", "p_edge_right",
               "burst_type", "incomplete"],
              [(*r[:6], int(r[6])) for r in results])
    diags = {"n_rows": len(results), "n_incomplete": sum(r[6] for r in results),
             "rows": [{vary: v, **d} for (v, _), (_, d) in zip(cfg["walks"], rows)]}
    values = [r[0] for r in results]
    if vary == "x0":
        fits = analysis.x0_slopes(values, [r[1] for r in results], [r[3] for r in results])
        if not np.isnan(fits[0]):
            diags.update(zip(("ratio_loglog_slope", "ratio_loglog_r2",
                              "p_edge_loglinear_rate", "p_edge_loglinear_r2"), fits))
    if plot:
        files.plot("sweep.svg", "sweep plot",
                   [("left", values, [r[1] for r in results]),
                    ("right", values, [r[2] for r in results])], mode="line",
                   xlabel=vary, ylabel="P_edge/P_min", title=f"edge burst against {vary}",
                   xlog=(vary == "x0"), ylog=True)
    return diags


def _cmd_liouville(cfg, model, files, plot, jobs):
    rep = liouville.liouvillian_gap(liouville.build_damping(model))
    files.csv("liouville_spectrum.csv", "damping-matrix eigenvalues",
              ["re", "im", "label"], [(w.real, w.imag, model.bc) for w in rep.eigenvalues])
    diags = {"gap": rep.gap, "gapless": rep.gapless, "max_real": rep.max_real,
             "note": rep.note, "eigensolve": rep.eigensolve}
    if "x0" in cfg:
        dens, diags["steady_density"] = liouville.steady_density(model, cfg["x0"])
        files.csv("steady_density.csv", "steady B-site density", ["x", "n_B"],
                  list(enumerate(dens, start=1)))
    if plot:
        files.plot("liouville_spectrum.svg", "damping spectrum plot",
                   [(model.bc, rep.eigenvalues.real, rep.eigenvalues.imag)],
                   xlabel="Re lambda", ylabel="Im lambda", title="damping-matrix spectrum")
    return diags


def execute(cfg, out_dir, plot=False, jobs=1, seed=None, tag=""):
    """Validate and run one config; returns (files, diagnostics)."""
    cfg, model, echo = validate_config(cfg, default_seed=seed)
    command = cfg["command"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if command == "figure":
        return _run_figure(cfg, out, plot, jobs, seed)
    impl = {"spectrum": _cmd_spectrum, "igc": _cmd_igc, "walk": _cmd_walk,
            "burst": _cmd_walk, "sweep": _cmd_sweep, "liouville": _cmd_liouville}
    files = _Outputs(out, tag)
    diags = impl[command](cfg, model, files, plot, jobs)
    diags["model"] = echo
    if isinstance(echo["gamma"], dict) and echo["gamma"]["kind"] == "random":
        diags["prng"] = _PRNG
    return files, diags


def _run_figure(cfg, out, plot, jobs, seed):
    name = cfg["figure"]
    preset = PRESETS[name]
    files, diags = {}, {"preset": name, "description": preset["description"],
                        "runs": []}
    for i, sub in enumerate(preset["runs"]):
        sub = json.loads(json.dumps(sub))  # deep copy, keep presets pristine
        tag = f"{name}_{i}_"
        f, d = execute(sub, out, plot=plot, jobs=jobs, seed=seed, tag=tag)
        files.update(f)
        diags["runs"].append({"config": sub, "diagnostics": d})
    return files, diags


# --- presets: one per reproduced figure panel --------------------------------

_PI = math.pi


def _ladder(t0, t1=0.5, t2=None, tp=0.5, phi=_PI / 2, gamma=0.5, L=200, bc=OBC):
    t = [t0, t1] if t2 is None else [t0, t1, t2]
    return {"kind": "ladder", "L": L, "t": t, "t_p": tp, "phi": phi,
            "gamma": gamma, "bc": bc}


_LINEAR_GAMMA = {"kind": "linear", "slope": 0.01, "offset": 0.20}
_RANDOM_GAMMA = {"kind": "random", "low": 0.4, "high": 0.6, "seed": 1}

PRESETS = {
    "fig3a": {
        "description": "OBC vs PBC spectra, nearest coupling, t0=0.3",
        "runs": [{"command": "spectrum", "model": _ladder(0.3), "compare_bc": True}],
    },
    "fig3b": {
        "description": "bulk escape profile, t0=0.3, release at 150",
        "runs": [{"command": "walk", "model": _ladder(0.3), "x0": 150}],
    },
    "fig3c": {
        "description": "edge burst profile, t0=0.3, release at 150",
        "runs": [{"command": "burst", "model": _ladder(0.3), "x0": 150}],
    },
    "fig3d": {
        "description": "no burst in the gapped regime, t0=0.6",
        "runs": [{"command": "burst", "model": _ladder(0.6), "x0": 150}],
    },
    "fig3e": {
        "description": "relative burst height against release cell, t0=0.3",
        "runs": [{"command": "sweep", "model": _ladder(0.3),
                  "sweep": {"vary": "x0", "values": list(range(40, 161, 20))}}],
    },
    "fig3f": {
        "description": "edge escape against release cell, gapped t0=0.6",
        "runs": [{"command": "sweep", "model": _ladder(0.6),
                  "sweep": {"vary": "x0", "values": list(range(40, 161, 20))}}],
    },
    "fig4a": {
        "description": "PBC spectra with second-neighbor coupling t2=0.1",
        "runs": [{"command": "spectrum", "model": _ladder(t0, t2=0.1, bc=PBC)}
                 for t0 in (0.3, 0.4, 0.5)],
    },
    "fig4b": {
        "description": "OBC spectra with second-neighbor coupling t2=0.1",
        "runs": [{"command": "spectrum", "model": _ladder(t0, t2=0.1)}
                 for t0 in (0.3, 0.4, 0.5)],
    },
    "fig4c": {
        "description": "bulk profiles, t2=0.1, power-law regime check",
        "runs": [{"command": "burst", "model": _ladder(t0, t2=0.1), "x0": 150}
                 for t0 in (0.3, 0.4)],
    },
    "fig4d": {
        "description": "bulk profile, t2=0.1, gapped regime",
        "runs": [{"command": "burst", "model": _ladder(0.5, t2=0.1), "x0": 150}],
    },
    "fig5a": {
        "description": "burst ratios against the second-neighbor coupling",
        "runs": [{"command": "sweep", "model": _ladder(0.3, t2=0.0), "x0": 150,
                  "engine": walk.RESOLVENT,
                  "sweep": {"vary": "t2",
                            "values": [round(0.05 * i, 2) for i in range(13)]}}],
    },
    "fig5b": {
        "description": "PBC spectra near the self-crossing transition, L=500",
        "runs": [{"command": "spectrum", "model": _ladder(0.3, t2=t2, L=500, bc=PBC),
                  "self_intersections": True, "k_samples": 1024}
                 for t2 in (0.25, 0.33, 0.50)],
    },
    "fig5c": {
        "description": "single left burst at t2=0.2",
        "runs": [{"command": "burst", "model": _ladder(0.3, t2=0.2), "x0": 150}],
    },
    "fig5d": {
        "description": "bipolar burst at t2=0.5",
        "runs": [{"command": "burst", "model": _ladder(0.3, t2=0.5), "x0": 150}],
    },
    "fig6a": {
        "description": "PBC spectra for four hopping phases",
        "runs": [{"command": "spectrum", "model": _ladder(0.3, phi=f, bc=PBC)}
                 for f in (0.0, _PI / 6, _PI / 3, _PI / 2)] +
                [{"command": "igc", "model": _ladder(0.3, phi=f, bc=PBC)}
                 for f in (0.0, _PI / 6, _PI / 3, _PI / 2)],
    },
    "fig6b": {
        "description": "burst ratios against the hopping phase",
        "runs": [{"command": "sweep", "model": _ladder(0.3), "x0": 150,
                  "engine": walk.RESOLVENT,
                  "sweep": {"vary": "phi", "values": [_PI / 2 * i / 12 for i in range(13)]}}],
    },
    "fig7a": {
        "description": "PBC spectra with the linearly growing loss profile",
        "runs": [{"command": "spectrum",
                  "model": _ladder(t0, gamma=_LINEAR_GAMMA, bc=PBC)}
                 for t0 in (0.3, 0.5, 0.6)],
    },
    "fig7b": {
        "description": "burst profile with the linear loss profile, t0=0.3",
        "runs": [{"command": "burst", "model": _ladder(0.3, gamma=_LINEAR_GAMMA),
                  "x0": 150}],
    },
    "fig7c": {
        "description": "bulk profiles with linear loss, power-law regime",
        "runs": [{"command": "burst", "model": _ladder(t0, gamma=_LINEAR_GAMMA),
                  "x0": 150} for t0 in (0.3, 0.5)],
    },
    "fig7d": {
        "description": "bulk profile with linear loss, gapped regime",
        "runs": [{"command": "burst", "model": _ladder(0.6, gamma=_LINEAR_GAMMA),
                  "x0": 150}],
    },
    "fig8b": {
        "description": "damping-matrix spectra, random loss rates in (0.4, 0.6)",
        "runs": [{"command": "liouville",
                  "model": _ladder(t0, gamma=_RANDOM_GAMMA, bc=bc)}
                 for t0 in (0.3, 0.6) for bc in (OBC, PBC)],
    },
    "fig8c": {
        "description": "escape profile vs steady density, random loss rates",
        "runs": [{"command": "burst", "model": _ladder(0.3, gamma=_RANDOM_GAMMA),
                  "x0": 150},
                 {"command": "liouville", "model": _ladder(0.3, gamma=_RANDOM_GAMMA),
                  "x0": 150}],
    },
}


# --- entry point --------------------------------------------------------------

def _apply_override(cfg, key, value):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = parsed


def _error_record(status, kind, message):
    return json.dumps({"error": {"status": status, "kind": kind,
                                 "message": message}}, indent=2)


def _write_record(out, **record):
    """run.json of a run: its status and config, then its outputs or error."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"tool": "igclab", "version": __version__, **record}, fh,
                  indent=2, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="igclab",
        description="dissipative-lattice experiments from JSON configs")
    ap.add_argument("--config", help="path to a JSON experiment config")
    ap.add_argument("--out", default="igclab_out", help="output directory")
    ap.add_argument("--plot", action="store_true", help="also write SVG plots")
    ap.add_argument("--jobs", type=int, default=1,
                    help="sweep worker count, at least 1 (capped at rows and CPUs)")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for random loss profiles without one")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config field (dotted path, repeatable)")
    ap.add_argument("--list-presets", action="store_true",
                    help="print the built-in figure presets and exit")
    args = ap.parse_args(argv)

    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name:8s} {PRESETS[name]['description']}")
        return 0
    if not args.config:
        print(_error_record(2, "config", "--config is required"), file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(_error_record(2, "config", f"--jobs must be >= 1, got {args.jobs}"),
              file=sys.stderr)
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(_error_record(4, "io", f"cannot read config: {exc}"), file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(_error_record(2, "config", f"config is not valid JSON: {exc}"),
              file=sys.stderr)
        return 2
    try:
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            _apply_override(cfg, *item.split("=", 1))
        started = time.time()
        files, diags = execute(cfg, args.out, plot=args.plot, jobs=args.jobs,
                               seed=args.seed)
        missing = [f for f in files
                   if not Path(f).is_file() or Path(f).stat().st_size == 0]
        if missing:
            raise RunFailure(f"missing or empty outputs: {missing}")
        _write_record(args.out, status="ok", config=cfg, seed=args.seed,
                      wall_time_s=round(time.time() - started, 3),
                      diagnostics=diags, outputs=files)
    except ConfigError as exc:
        print(_error_record(2, "config", str(exc)), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_error_record(4, "io", str(exc)), file=sys.stderr)
        return 4
    except Exception as exc:  # numerical failures: report, do not traceback
        print(_error_record(3, "numerical", f"{type(exc).__name__}: {exc}"),
              file=sys.stderr)
        try:
            _write_record(args.out, status="failed",
                          command=cfg.get("command") if isinstance(cfg, dict) else None,
                          config=cfg, seed=args.seed,
                          error={"type": type(exc).__name__, "message": str(exc),
                                 "traceback": "".join(traceback.format_exception(exc))})
        except OSError:
            pass    # the stderr record still reports the failure
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
