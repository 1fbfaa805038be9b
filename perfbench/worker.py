"""One workload in one fresh process; started by run.py, not by hand.

The process imports igclab from the checkout's ``src``, generates the
workload's configs from the seed and runs one untimed warm-up op, then
prints ``READY`` with its clock readings (set-up ends there) and the time of
the calibration rounds that follow (see `calibrate`).  Then it runs
passes over the ops, closed loop and one op at a time, through
``igclab.cli.execute`` only, until ``--seconds`` have elapsed (at least one
pass).  With ``--trace 1`` untraced and traced passes alternate; the untraced
ones are the base of the tracing overhead.  References are computed
afterwards, untimed (and cached, see `reference`), and every op is checked;
the last stdout line is a JSON record for the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
import scipy.linalg

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"


def import_package():
    """igclab from this checkout's src, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import igclab
    import igclab.cli  # noqa: F401  (the entry point; also loads every layer)
    if Path(igclab.__file__).resolve().parent != src / "igclab":
        raise ImportError(f"igclab imported from {igclab.__file__}, not from {src}")
    return igclab


#: fixed inputs of the calibration round (its own generator, not the benchmark seed)
_CAL = np.random.default_rng(0)
_CAL_MATVEC = (_CAL.random((120, 120)) + 0j, _CAL.random(120) + 0j)
_CAL_LU = _CAL.random((200, 200)) + 200.0 * np.eye(200)
_CAL_EIG = _CAL.random((160, 160))


def calibrate():
    """CPU seconds of one fixed calibration round, about 75 ms on the seed's host.

    The round mixes the kinds of work the package does, in about equal parts:
    an interpreter loop, small complex matvecs with array arithmetic (the ODE
    right-hand side), dense LU solves at n=200 and one nonsymmetric
    eigensolve at n=160.  It reads no igclab code, so a change to the package
    cannot move it; it moves only with the speed the host gives this process.
    """
    a, x = _CAL_MATVEC
    b = _CAL_LU[:, :1]
    c0 = time.process_time()
    s = 0
    for i in range(200_000):
        s += i * i
    for _ in range(1600):
        y = a @ x
        y = y * 0.5 + x
    for _ in range(30):
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(_CAL_LU), b)
    np.linalg.eigvals(_CAL_EIG)
    return time.process_time() - c0


class OpRun(NamedTuple):
    cpu_s: float          # CPU seconds of this process: time stolen by the host is not in it
    wall_s: float
    error: str | None
    results: list         # (files {path: contents}, diagnostics) per config


def run_op(op, execute, out_dir):
    """Run and time one op, then read its outputs back (untimed)."""
    op_dir = out_dir / op.name
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        raw = [execute(cfg, op_dir, tag=f"c{i}_") for i, cfg in enumerate(op.configs)]
        error = None
    except Exception:  # a failing op is counted, never dropped
        raw, error = [], traceback.format_exc(limit=3)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    results = [({path: Path(path).read_bytes() for path in files}, diags)
               for files, diags in raw]
    return OpRun(cpu, wall, error, results)


def digest(results):
    h = hashlib.sha256()
    for files, diags in results:
        for path in sorted(files):
            h.update(Path(path).name.encode() + files[path])
        h.update(json.dumps(diags, sort_keys=True, default=str).encode())
    return h.hexdigest()


def measure(wl, igclab, out_dir, seconds, trace):
    """Passes until `seconds` of wall time elapse; returns pass records and trace snaps.

    A calibration round runs before every op and after the last one; an op's
    ``cal_s`` is the mean of the rounds on either side of it.
    """
    passes, snaps = [], []
    tracer = layers.Tracer() if trace else None
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        execute = igclab.cli.execute
        if traced:
            tracer.reset()
            tracer.install(igclab)
            execute = tracer.wrap("cli.execute", execute)
        ops, cals = {}, []
        try:
            for op in wl.ops:
                cals.append(calibrate())
                ops[op.name] = run_op(op, execute, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        cals.append(calibrate())
        passes.append({"traced": traced, "ops": ops,
                       "cal_s": {op.name: (cals[i] + cals[i + 1]) / 2
                                 for i, op in enumerate(wl.ops)}})
        if traced:
            written = sum(len(data) for run in ops.values()
                          for files, _ in run.results for data in files.values())
            found = sum(d.get("self_intersections", 0) for run in ops.values()
                        for _, d in run.results)
            snaps.append((dict((k, list(v)) for k, v in tracer.spans.items()),
                          Counter(tracer.counts), written, found))
        if time.perf_counter() - started >= seconds and (snaps or not trace):
            return passes, snaps


def reference(cfg, igclab, out_dir):
    """Outputs of a reference config, cached in the checkout across runs.

    The key covers the package sources, so an edited package never reads a
    stale reference.  Only the output files are kept; checks read no
    reference diagnostics.
    """
    src = sorted((ROOT / "src" / "igclab").glob("*.py"))
    key = hashlib.sha256(b"".join(p.read_bytes() for p in src)
                         + json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    path = CACHE / f"{key}.json"
    if path.is_file():
        files = json.loads(path.read_text())
    else:
        out, _ = igclab.cli.execute(cfg, out_dir / key)
        files = {Path(p).name: Path(p).read_text() for p in out}
        CACHE.mkdir(exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(files))
        tmp.replace(path)
    return {name: text.encode() for name, text in files.items()}, {}


def verify(wl, passes, igclab, out_dir):
    """Check every op run; returns (attempted, failed, messages).

    A run fails on an exception, on outputs that differ from the op's first
    successful run, or when those outputs miss the reference.
    """
    attempted = failed = 0
    messages = []
    for op in wl.ops:
        runs = [p["ops"][op.name] for p in passes]
        attempted += len(runs)
        ok = [run.results for run in runs if run.error is None]
        messages += [f"{op.name}: {run.error}" for run in runs if run.error is not None]
        failed += len(runs) - len(ok)
        if not ok:
            continue
        first = digest(ok[0])
        same = sum(digest(results) == first for results in ok)
        if same < len(ok):
            messages.append(f"{op.name}: outputs differ between passes")
            failed += len(ok) - same
        try:
            refs = [reference(cfg, igclab, out_dir / "ref")
                    for cfg in checks.reference_configs(op)]
            errors = checks.check_op(op, ok[0], refs, igclab)
        except Exception:  # a check that cannot run fails the op
            errors = [f"{op.name}: check raised\n{traceback.format_exc(limit=3)}"]
        if errors:
            messages += errors
            failed += same
    return attempted, failed, messages


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    igclab = import_package()
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    out_dir = Path(args.out)
    try:
        for i, cfg in enumerate(wl.warmup):
            igclab.cli.execute(cfg, out_dir / "warmup", tag=f"w{i}_")
        stamp, cpu = time.monotonic(), time.process_time()
        cal = (calibrate() + calibrate()) / 2
        print(f"READY {stamp!r} {cpu!r} {cal!r}", flush=True)
        if args.setup_only:
            return 0
        passes, snaps = measure(wl, igclab, out_dir, args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, failures = verify(wl, passes, igclab, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    trace_errors, layer_passes = [], []
    for spans, counts, written, found in snaps:
        metrics = layers.layer_metrics(spans, counts, written)
        trace_errors += layers.cross_check(spans, counts, metrics, wl.nonzero, wl.zero)
        if metrics["analysis.self_intersections.found"][0] != found:
            trace_errors.append("analysis.self_intersections.found differs from the "
                                "self_intersections the CLI reported")
        layer_passes.append(metrics)
    counted = [{k: v for k, v in m.items() if v[1] == "count"} for m in layer_passes]
    if any(c != counted[0] for c in counted[1:]):
        trace_errors.append("work counts differ between traced passes")

    record = {
        "workload": wl.name,
        "ops": [op.name for op in wl.ops],
        "passes": [{"traced": p["traced"],
                    "op_s": {name: r.cpu_s for name, r in p["ops"].items()},
                    "cal_s": p["cal_s"],
                    "op_wall_s": {name: r.wall_s for name, r in p["ops"].items()}}
                   for p in passes],
        "layers": [{k: v[0] for k, v in m.items()} for m in layer_passes],
        "units": {k: v[1] for k, v in layer_passes[0].items()} if layer_passes else {},
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "trace_errors": trace_errors,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas()},
    }
    print(json.dumps(record), flush=True)
    return 0


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
