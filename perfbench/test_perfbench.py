"""Quick tests of the benchmark harness; they never start a full-size workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = layers.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 0.5

    leaf_w = tr.wrap("leaf", leaf)
    outer = tr.wrap("outer", tr.wrap("middle", middle))
    outer()
    assert tr.spans["leaf"] == [2, 4.0, 4.0]
    assert tr.spans["middle"] == [1, 5.5, 1.5]
    assert tr.spans["outer"] == [1, 5.5, 0.0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = layers.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("outer", tr.wrap("boom", boom))()
    assert tr.spans["boom"] == [1, 1.0, 1.0]
    assert tr.spans["outer"] == [1, 1.0, 0.0]
    assert tr._stack == []


def test_integrate_counts_match_the_driver():
    import numpy as np
    from igclab import ode

    tr = layers.Tracer()
    integrate = tr._wrapper("ode.integrate", ode.integrate)
    res = integrate(lambda t, y: -1j * y, np.ones(3, complex), 0.0, 5.0,
                    stop_fn=lambda t, y: False)
    assert tr.counts["ode.steps"] == res.n_steps > 0
    assert tr.spans["ode.rhs"][0] == tr.counts["ode.rhs.expected"]
    assert tr.spans["ode.stop"][0] == res.n_steps


IGC_CFG = {"command": "igc", "model": workloads.ladder(0.3, bc="PBC")}


def igc_results(shift=0.0):
    import math
    k = math.acos(-0.6)
    rows = "".join(f"{kk + shift},0,0,{0.5 * math.cos(kk - math.pi / 2)},0\n"
                   for kk in (k, 2 * math.pi - k))
    files = {"/out/c0_igc.csv": ("k,beta_re,beta_im,energy,marginal\n" + rows).encode()}
    return [(files, {"classification": "IGC"})]


def verify(runs, tmp_path):
    op = workloads.Op("igc", "igc", [IGC_CFG])
    wl = workloads.Workload("t", [op], [], (), ())
    passes = [{"traced": False, "ops": {"igc": run}} for run in runs]
    return worker.verify(wl, passes, None, tmp_path)


def test_failure_accounting(tmp_path):
    good = worker.OpRun(0.1, 0.1, None, igc_results())
    attempted, failed, msgs = verify([good, good], tmp_path)
    assert (attempted, failed, msgs) == (2, 0, [])
    # an exception and a run whose outputs differ both count, once each
    attempted, failed, msgs = verify(
        [good, worker.OpRun(0.1, 0.1, "Traceback: boom", []),
         worker.OpRun(0.1, 0.1, None, igc_results(1e-3))], tmp_path)
    assert (attempted, failed) == (3, 2)
    assert any("boom" in m for m in msgs) and any("differ" in m for m in msgs)
    # a wrong answer fails every run that produced it
    wrong = worker.OpRun(0.1, 0.1, None, igc_results(1e-3))
    attempted, failed, msgs = verify([wrong, wrong, wrong], tmp_path)
    assert (attempted, failed) == (3, 3)


def test_times_are_scaled_to_the_reference_speed():
    ref = run.CAL_REF_S
    # the second pass ran on a host twice as slow: its ops and its calibration
    # rounds took twice as long, so it scales to the same figures
    passes = [{"traced": False, "op_s": {"a": 1.0, "b": 3.0}, "op_wall_s": {"a": 1.0, "b": 3.0},
               "cal_s": {"a": ref * f, "b": ref * f / 2}} for f in (1, 2)]
    passes[1]["op_s"] = {"a": 2.0, "b": 6.0}
    rec = {"ops": ["a", "b", "c"], "passes": passes, "failed": 0, "attempted": 6,
           "setup_s": [0.5, 1.0, 3.0], "setup_wall_s": [1, 1, 1],
           "setup_cal_s": [ref, 2 * ref, ref], "peak_rss_mb": 1.0}
    for p in passes:
        p["op_s"]["c"], p["op_wall_s"]["c"], p["cal_s"]["c"] = 1.0, 1.0, ref
    metrics, log = run.summarize(rec, trace=False)
    assert metrics["op1_s"]["value"] == pytest.approx(1.0)
    assert metrics["op2_s"]["value"] == pytest.approx(6.0)
    assert metrics["pass_s"]["value"] == pytest.approx(8.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert log["pass_cpu_median_s"] == pytest.approx(7.0)


def test_seed_makes_the_inputs():
    a, b = workloads.build("spectral", 7), workloads.build("spectral", 7)
    assert [op.configs for op in a.ops] == [op.configs for op in b.ops]
    assert workloads.build("walk_time", 1).ops != workloads.build("walk_time", 2).ops


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_run_reports_every_end_to_end_metric():
    res = run_smoke("walk_resolvent", 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 3
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_trace_reports_every_layer_metric():
    res = run_smoke("walk_time", 1)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert res["metrics"]["densela.lu_solve.calls"]["value"] == 0
    assert res["metrics"]["ode.steps"]["value"] > 0
