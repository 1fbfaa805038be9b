"""Traced smoke runs of the benchmark's resolvent and spectral workloads.

A traced run checks the per-layer counts against the engines' own: one
`densela.lu_solve` per quadrature node, 15 nodes per integrand call,
`lu_solve` calls equal to the engines' `n_solves`, and no layer the workload
should keep busy reading zero (an alias that drifted).  `--smoke` shrinks
every op to a tiny lattice, and the run exits 1 when a check or a rule
fails.  The resolvent workload solves Bloch blocks (its ring) and bands (its
open walk and random-loss density); the spectral one must make no solve.
perfbench's own tests trace the walk_time workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["walk_resolvent", "spectral"])
def test_traced_smoke_run_keeps_the_layer_rules(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    solves = res["metrics"]["densela.lu_solve.calls"]["value"]
    assert (solves > 0) == (workload == "walk_resolvent")
