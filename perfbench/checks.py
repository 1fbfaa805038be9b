"""Correctness gate of the benchmark: every op's outputs against a reference.

An op fails on an exception, on an ``incomplete`` or unconverged result, or
when its outputs miss the reference.  References come from the *other*
engine or from closed forms, never from the code path being timed:

* TIME profiles against the RESOLVENT engine and vice versa, 1e-4 relative
  above a 1e-12 floor (criterion C3), and |sum P - 1| < 1e-6;
* the steady density against the RESOLVENT profile, 1e-6 relative (C8g);
* PBC uniform-loss spectra against ``bloch_bands`` on k = 2 pi j / L, 1e-8;
* self-crossing counts against the fig5b values, the Liouvillian gap against
  -2 max Im E of the lattice spectrum, and the coupling-condition roots
  against cos k = -t0 / t1.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.linalg

from workloads import NORM_FLOOR

C3_RTOL = 1e-4
FLOOR = 1e-12
SUM_TOL = 1e-6
C8G_RTOL = 1e-6
BLOCH_TOL = 1e-8
GAP_TOL = 1e-10
#: relative gap tolerance where the top eigenvalue is ill-conditioned
GAP_RTOL_ILL = 1e-6
#: eigenvalue condition number above which GAP_RTOL_ILL applies
ILL_KAPPA = 1e6
ROOT_TOL = 1e-9
#: self-crossings of the PBC spectral curve at t0=0.3 by t2 (fig5b)
CROSSINGS = {0.25: 0, 0.33: 4, 0.5: 4}


def read_csv(data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], rows[1:]


def column(data, name):
    header, rows = read_csv(data)
    j = header.index(name)
    return [r[j] for r in rows]


def output(files, suffix):
    """Contents of the one output file whose name ends with `suffix`."""
    hits = [data for path, data in files.items() if path.endswith(suffix)]
    if len(hits) != 1:
        raise ValueError(f"expected one *{suffix} output, found {len(hits)}")
    return hits[0]


def rel_gap(measured, reference, floor=FLOOR):
    """Largest |m - r| / r over the cells where the reference exceeds `floor`."""
    m, r = np.asarray(measured, float), np.asarray(reference, float)
    if m.shape != r.shape:
        return math.inf
    mask = r > floor
    return float((np.abs(m[mask] - r[mask]) / r[mask]).max(initial=0.0))


def reference_configs(op):
    """The configs whose outputs the op is checked against (run untimed)."""
    refs = []
    for cfg in op.configs:
        if op.kind == "sweep":
            refs += [_other_engine(cfg, x0) for x0 in cfg["sweep"]["values"]]
        elif op.kind == "walk":
            refs.append(_other_engine(cfg, cfg["x0"]))
        elif op.kind == "liouville" and "x0" in cfg:
            refs.append({"command": "walk", "model": cfg["model"], "x0": cfg["x0"],
                         "engine": "RESOLVENT", "norm_floor": NORM_FLOOR})
    return refs


def _other_engine(cfg, x0):
    other = "RESOLVENT" if cfg.get("engine", "TIME") == "TIME" else "TIME"
    return {"command": "walk", "model": cfg["model"], "x0": x0, "engine": other,
            "norm_floor": cfg["norm_floor"]}


def profile(files):
    return np.array([float(v) for v in column(output(files, "profile.csv"), "P_x")])


def check_op(op, results, refs, igclab):
    """Failure reasons for one run of `op` (empty when it passed).

    `results` holds one (files, diagnostics) pair per config, `files` mapping
    output path to contents; `refs` holds the (files, diagnostics) of
    `reference_configs(op)`, in order.
    """
    kind = op.kind
    errors = []
    ref_profiles = iter(profile(files) for files, _ in refs)
    for i, (cfg, (files, diags)) in enumerate(zip(op.configs, results)):
        where = f"{op.name}[{i}]"
        if kind == "sweep":
            errors += _check_sweep(where, cfg, files, ref_profiles)
        elif kind == "walk":
            errors += _check_walk(where, cfg, files, diags, next(ref_profiles))
        elif kind == "liouville":
            errors += _check_gap(where, cfg, diags, igclab)
            if "x0" in cfg:
                errors += _check_steady(where, files, diags, next(ref_profiles))
        elif kind == "spectrum":
            errors += _check_spectrum(where, cfg, files, diags, igclab)
        elif kind == "igc":
            errors += _check_igc(where, cfg, files, diags)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return errors


def _check_sweep(where, cfg, files, ref_profiles):
    # the sweep writes the edge values and the edge-to-minimum ratios of each
    # release; compare those cells, and the side minima they imply, with the
    # other engine's profile
    header, rows = read_csv(output(files, "sweep.csv"))
    col = {name: j for j, name in enumerate(header)}
    errors = []
    for x0, row in zip(cfg["sweep"]["values"], rows):
        ref = next(ref_profiles)
        if int(row[col["incomplete"]]):
            errors.append(f"{where} x0={x0}: incomplete")
        pl, pr = float(row[col["p_edge_left"]]), float(row[col["p_edge_right"]])
        got = [pl, pr, pl / float(row[col["ratio_left"]]),
               pr / float(row[col["ratio_right"]])]
        want = [ref[0], ref[-1], ref[:x0].min(), ref[x0 - 1:].min()]
        gap = rel_gap(got, want)
        if not gap < C3_RTOL:
            errors.append(f"{where} x0={x0}: edge cells off the other engine by {gap:.2e}")
    if len(rows) != len(cfg["sweep"]["values"]):
        errors.append(f"{where}: {len(rows)} sweep rows for "
                      f"{len(cfg['sweep']['values'])} releases")
    return errors


def _check_walk(where, cfg, files, diags, ref):
    engine = cfg["engine"]
    d = diags[engine]
    errors = []
    if d["incomplete"]:
        errors.append(f"{where}: incomplete")
    if engine == "RESOLVENT" and not d["converged"]:
        errors.append(f"{where}: quadrature not converged")
    if not abs(d["total"] - 1.0) < SUM_TOL:
        errors.append(f"{where}: |sum P - 1| = {abs(d['total'] - 1.0):.2e}")
    P = profile(files)
    p_time, p_res = (P, ref) if engine == "TIME" else (ref, P)
    gap = rel_gap(p_res, p_time)
    if not gap < C3_RTOL:
        errors.append(f"{where}: profile off the other engine by {gap:.2e}")
    return errors


def _check_steady(where, files, diags, ref):
    errors = []
    if not diags["steady_density"]["converged"]:
        errors.append(f"{where}: steady-density quadrature not converged")
    dens = [float(v) for v in column(output(files, "steady_density.csv"), "n_B")]
    gap = rel_gap(dens, ref)
    if not gap < C8G_RTOL:
        errors.append(f"{where}: steady density off the RESOLVENT profile by {gap:.2e}")
    return errors


def _params(cfg, igclab):
    return igclab.cli.validate_config(cfg)[1]


def _check_gap(where, cfg, diags, igclab):
    # X = i conj(H), so Re(lambda) = Im(E) and the gap is -2 max Im E
    #
    # Under OBC the lattice matrix is far from normal (skin effect): the top
    # eigenvalue's condition number reaches 1e20-1e38, so two backward-stable
    # eigensolves of H and of X = i conj(H) agree only to rounding amplified
    # by it (up to 1e-9 seen at L=120).  There the gap is compared to
    # GAP_RTOL_ILL relative, which any error in the damping matrix or the gap
    # formula still exceeds by orders of magnitude; a well-conditioned top
    # eigenvalue (PBC) keeps the absolute GAP_TOL.
    p = _params(cfg, igclab)
    energies, left, right = scipy.linalg.eig(igclab.build_ladder(p).matrix,
                                             left=True, right=True)
    top = int(np.argmax(energies.imag))
    l, r = left[:, top], right[:, top]
    kappa = np.linalg.norm(l) * np.linalg.norm(r) / max(abs(np.vdot(l, r)), 1e-300)
    gap = -2.0 * float(energies[top].imag)
    tol = max(GAP_TOL, GAP_RTOL_ILL * abs(gap)) if kappa > ILL_KAPPA else GAP_TOL
    errors = []
    if not abs(diags["gap"] - gap) < tol:
        errors.append(f"{where}: gap {diags['gap']!r} vs {gap!r} from the lattice spectrum")
    if diags["gapless"] != (gap < igclab.liouville.GAPLESS_TOL):
        errors.append(f"{where}: gap classification differs from the lattice spectrum")
    return errors


def _check_spectrum(where, cfg, files, diags, igclab):
    p = _params(cfg, igclab)
    crossings = CROSSINGS[p.t[2]]
    data = output(files, "spectrum.csv")
    w = np.array([complex(float(a), float(b)) for a, b in
                  zip(column(data, "re"), column(data, "im"))])
    bands = igclab.bloch_bands(p, 2.0 * np.pi * np.arange(p.L) / p.L).ravel()
    dist = np.abs(w[:, None] - bands[None, :])
    errors = []
    worst = max(dist.min(axis=1).max(), dist.min(axis=0).max()) if w.size == bands.size \
        else math.inf
    if not worst < BLOCH_TOL:
        errors.append(f"{where}: spectrum off the Bloch bands by {worst:.2e}")
    if diags.get("self_intersections") != crossings:
        errors.append(f"{where}: {diags.get('self_intersections')} self-crossings, "
                      f"expected {crossings}")
    return errors


def _check_igc(where, cfg, files, diags):
    m = cfg["model"]
    t0, t1 = m["t"]
    k1 = math.acos(-t0 / t1)
    want = sorted((k, m["t_p"] * math.cos(k - m["phi"])) for k in (k1, 2 * math.pi - k1))
    data = output(files, "igc.csv")
    got = sorted(zip(map(float, column(data, "k")), map(float, column(data, "energy"))))
    if len(got) != len(want) or diags["classification"] != "IGC" or any(
            abs(a - c) > ROOT_TOL or abs(b - d) > ROOT_TOL
            for (a, b), (c, d) in zip(got, want)):
        return [f"{where}: roots {got} vs cos k = -t0/t1 roots {want}"]
    return []
