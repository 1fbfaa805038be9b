"""igclab benchmark: end-to-end and per-layer numbers of one workload.

    python3 perfbench/run.py --workload walk_time --seed 1 --seconds 15 --trace 0

Runs the workload in a fresh worker process (perfbench/worker.py) with the
BLAS pinned to one thread, plus further set-up-only processes for the
set-up time, and prints a JSON object as the last stdout line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``pass_s``, ``op1_s``..``op3_s`` for the
workload's ops in order, ``setup_s``, ``peak_rss_mb``), with ``--trace 1``
the per-layer ones.

End-to-end times are reference-speed seconds: CPU seconds of the
single-threaded worker, scaled by the time of a fixed calibration round run
beside them (see `summarize`).  On a shared virtual machine the host steals
a varying share of the wall clock, which CPU time leaves out, and the speed
it gives the process drifts, which the scaling takes out.  The log lines
give the raw CPU and wall-clock figures beside them.

``--workload all`` runs every workload, each in its own process, and prints
every op's time by name.  ``--smoke`` shrinks every op to a tiny lattice, for
testing the harness itself.

Exit status: 0 when every op passed its check, 1 when any failed (the result
line is still printed), 2 when the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up is timed in this many fresh processes (the measuring one included)
SETUP_SAMPLES = 5
#: every process of one workload must end within this budget
DEADLINE_S = 170.0
#: BLAS threads in the worker; one thread keeps the 2-vCPU figures steady
BLAS_THREADS = "1"
OP_SLOTS = 3
#: reference speed: the CPU seconds of one calibration round (worker.calibrate)
#: at which reported times equal CPU seconds; about the seed host's median
CAL_REF_S = 0.075


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args, deadline):
    """Run one worker; returns (set-up CPU seconds, set-up wall seconds,
    calibration round seconds, stdout lines).

    Set-up runs from process start to the worker's READY line, which carries
    the worker's CPU seconds so far and a timestamp on the system-wide
    monotonic clock (the wall figure then includes process creation).
    """
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise BenchError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    _, stamp, cpu, cal = ready[0].split()
    return float(cpu), float(stamp) - t0, float(cal), lines


def run_workload(name, seed, seconds, trace, smoke):
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)] + (["--smoke"] if smoke else [])
    *setup, lines = spawn(args, deadline)
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("worker printed no result") from None
    setups = [setup] + [spawn(args + ["--setup-only"], deadline)[:3]
                        for _ in range(SETUP_SAMPLES - 1)]
    rec["setup_s"] = [cpu for cpu, _, _ in setups]
    rec["setup_wall_s"] = [wall for _, wall, _ in setups]
    rec["setup_cal_s"] = [cal for _, _, cal in setups]
    return rec


def at_ref_speed(cpu_s, cal_s):
    """CPU seconds scaled to the speed at which a calibration round takes CAL_REF_S."""
    return cpu_s * CAL_REF_S / cal_s


def summarize(rec, trace):
    """(metrics for the result line, further figures for the log).

    Every time on the result line is in reference-speed seconds: CPU seconds
    scaled by CAL_REF_S over the calibration round measured beside them (see
    `worker.calibrate`).  The host's speed for this process drifts by tens of
    percent within seconds and over minutes; the scaling takes that out, and
    the median over the whole run averages out what is left.  An op's figure
    is the median of its untraced runs, `pass_s` the median of the pass
    totals, `setup_s` the median over the set-up processes.  Raw CPU and wall
    seconds go to the log.
    """
    untraced = [p for p in rec["passes"] if not p["traced"]]
    ops = rec["ops"]
    scaled = [{op: at_ref_speed(p["op_s"][op], p["cal_s"][op]) for op in ops}
              for p in untraced]
    cpu = [sum(p["op_s"].values()) for p in untraced]
    wall = [sum(p["op_wall_s"].values()) for p in untraced]
    log = {f"{op}_s": statistics.median(p[op] for p in scaled) for op in ops}
    log.update({f"{op}_cpu_median_s": statistics.median(p["op_s"][op] for p in untraced)
                for op in ops})
    log["ops_failed_frac"] = rec["failed"] / rec["attempted"]
    log["pass_cpu_median_s"] = statistics.median(cpu)
    log["pass_wall_median_s"] = statistics.median(wall)
    log["cal_median_s"] = statistics.median(c for p in untraced for c in p["cal_s"].values())
    log["stolen_frac"] = 1.0 - sum(cpu) / sum(wall)
    log["setup_cpu_median_s"] = statistics.median(rec["setup_s"])
    log["setup_wall_median_s"] = statistics.median(rec["setup_wall_s"])
    pass_s = statistics.median(sum(p.values()) for p in scaled)
    if trace:
        # the layers of the fastest traced pass (counts are equal in all); layer
        # times are raw CPU seconds
        traced = [p for p in rec["passes"] if p["traced"]]
        raw = [sum(p["op_s"].values()) for p in traced]
        fastest = rec["layers"][raw.index(min(raw))]
        metrics = {k: {"value": fastest[k], "unit": unit} for k, unit in rec["units"].items()}
        traced_s = statistics.median(sum(at_ref_speed(p["op_s"][op], p["cal_s"][op])
                                         for op in ops) for p in traced)
        metrics["trace.overhead_frac"] = {"value": traced_s / pass_s - 1.0, "unit": "ratio"}
        return metrics, log
    metrics = {"pass_s": {"value": pass_s, "unit": "s"}}
    for i in range(OP_SLOTS):
        metrics[f"op{i + 1}_s"] = {"value": log[f"{ops[i]}_s"], "unit": "s"}
    metrics["setup_s"] = {"value": statistics.median(
        at_ref_speed(c, k) for c, k in zip(rec["setup_s"], rec["setup_cal_s"])), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rec["peak_rss_mb"], "unit": "MB"}
    return metrics, log


def environment(rec):
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(" ".join((index / f).read_text().strip()
                                   for f in ("level", "type", "size")))
        except OSError:
            pass
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "caches": caches,
            "blas_threads": int(BLAS_THREADS), **rec["versions"]}


def report(rec, trace):
    metrics, log = summarize(rec, trace)
    n = sum(not p["traced"] for p in rec["passes"])
    print(f"# {rec['workload']}: {n} untraced pass(es), "
          f"{len(rec['passes']) - n} traced, {len(rec['setup_s'])} set-up samples")
    for key, value in log.items():
        print(f"#   {key:22s} {value:.6g} {'s' if key.endswith('_s') else ''}")
    for key, m in metrics.items():
        print(f"#   {key:40s} {m['value']:.6g} {m['unit']}")
    if trace and rec["layers"]:
        # where the first traced pass spent its time
        total = sum(next(p for p in rec["passes"] if p["traced"])["op_s"].values())
        for key in ("ode.integrate.s", "densela.lu_solve.s", "densela.eigendecompose.s",
                    "analysis.self_intersections.s"):
            print(f"#   share of traced pass  {key:32s} {rec['layers'][0][key] / total:.3f}")
    for msg in rec["failures"] + rec["trace_errors"]:
        print(f"# FAILED {msg}", file=sys.stderr)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "igclab").is_dir():
        print(f"no igclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        recs = [run_workload(w, args.seed, args.seconds, args.trace, args.smoke)
                for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(recs[0])))
    metrics = {}
    for rec in recs:
        m = report(rec, args.trace)
        metrics.update(m if len(recs) == 1 else
                       {f"{rec['workload']}.{k}": v for k, v in m.items()})
    correct = all(not r["failed"] and not r["trace_errors"] for r in recs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in recs),
                      "failed": sum(r["failed"] for r in recs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
