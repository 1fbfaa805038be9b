import json
import os
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from igclab import (
    LadderParams, WalkConfig, bloch_bands, build_ladder, cli, eigendecompose,
    fit_bulk, linear_gamma, loss_profile_time,
)
from igclab.cli import (
    ConfigError, PRESETS, execute, main, validate_config, write_csv,
)


def igc_config(**extra):
    cfg = {"command": "igc",
           "model": {"kind": "ladder", "L": 200, "t": [0.3, 0.5], "t_p": 0.5,
                     "phi": np.pi / 2, "gamma": 0.5, "bc": "PBC"}}
    cfg.update(extra)
    return cfg


def run_cli(tmp_path, cfg, *args):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return main(["--config", str(path), "--out", str(out), *args]), out


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError, match="unknown field"):
        validate_config(igc_config(bogus=1))


@pytest.mark.parametrize("key", ["engine", "norm_floor", "horizon"])
def test_a_key_the_command_does_not_read_is_rejected(key):
    cfg = igc_config(command="spectrum")
    cfg[key] = 1e-12
    with pytest.raises(ConfigError, match="unknown field"):
        validate_config(cfg)


def test_unknown_model_field_rejected():
    cfg = igc_config()
    cfg["model"]["coupling"] = 0.1
    with pytest.raises(ConfigError, match="unknown field"):
        validate_config(cfg)


def test_missing_fields_named():
    cfg = igc_config()
    del cfg["model"]["t_p"]
    with pytest.raises(ConfigError, match="t_p"):
        validate_config(cfg)
    with pytest.raises(ConfigError, match="command"):
        validate_config({"model": {}})


def test_gamma_profile_validation():
    cfg = igc_config()
    cfg["model"]["gamma"] = {"kind": "sinusoidal"}
    with pytest.raises(ConfigError, match="gamma profile kind"):
        validate_config(cfg)
    cfg["model"]["gamma"] = {"kind": "random", "low": 0.4, "high": 0.6}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(cfg)
    cfg2, model, _ = validate_config(cfg, default_seed=7)
    assert model.gamma[0] != model.gamma[1]


def test_walk_requires_x0():
    cfg = igc_config()
    cfg["command"] = "walk"
    with pytest.raises(ConfigError, match="x0"):
        validate_config(cfg)


def test_sweep_validation():
    cfg = igc_config(command="sweep", sweep={"vary": "t9", "values": [1]})
    with pytest.raises(ConfigError, match="sweep.vary"):
        validate_config(cfg)
    cfg = igc_config(command="sweep", sweep={"vary": "t2", "values": [0.1]})
    with pytest.raises(ConfigError, match="fixed x0"):
        validate_config(cfg)
    # a sweep row holds one profile, so it takes one engine
    cfg = dict(small_sweep([4, 6]), engine="BOTH")
    with pytest.raises(ConfigError, match="TIME or RESOLVENT"):
        validate_config(cfg)


def small_sweep(values):
    return {"command": "sweep", "engine": "TIME",
            "model": {"kind": "ladder", "L": 12, "t": [0.3, 0.5], "t_p": 0.5,
                      "phi": np.pi / 2, "gamma": 0.5, "bc": "OBC"},
            "sweep": {"vary": "x0", "values": values}}


def test_release_out_of_range_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="sweep.values"):
        validate_config(small_sweep([6, 40]))
    status, out = run_cli(tmp_path, small_sweep([6, 40]))
    assert status == 2
    assert "sweep.values" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not out.exists()        # rejected before any walk ran
    fixed = dict(small_sweep([0.1]), x0=13)
    fixed["sweep"]["vary"] = "t2"
    with pytest.raises(ConfigError, match="x0 must lie in 1..12"):
        validate_config(fixed)
    source = {"command": "liouville", "x0": 40, "model": fixed["model"]}
    with pytest.raises(ConfigError, match="x0 must lie in 1..12"):
        validate_config(source)


@pytest.mark.parametrize("bad", [4.5, 6.0, True])
def test_a_release_cell_must_be_an_integer(tmp_path, capsys, bad):
    # 4.5 would be released at cell 4 but written and fitted as 4.5
    walk = {"command": "walk", "x0": bad, "engine": "TIME",
            "model": small_sweep([6])["model"]}
    for cfg, where in ((walk, "x0"), (small_sweep([6, bad]), "sweep.values")):
        with pytest.raises(ConfigError, match=f"{where} must be an integer cell"):
            validate_config(cfg)
        status, out = run_cli(tmp_path / where, cfg)
        assert status == 2
        assert where in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()


def _probe(command="walk", model=None, **top):
    """A small valid config of `command` with model and top-level edits."""
    cfg = {"command": command, "x0": 6, "engine": "TIME",
           "model": dict(small_sweep([6])["model"], **(model or {}))}
    if command in ("spectrum", "igc"):
        del cfg["x0"], cfg["engine"]
    return dict(cfg, **top)


_GENERAL = {"kind": "general", "A": [[[0.0, 0.0]]], "B_herm": [[[0.0, 0.0]]],
            "C": [[[0.1, 0.0]]], "gamma": [0.7]}

#: configs the schema accepts but no run can honour as written
BAD_VALUES = {
    "t_max negative": _probe(t_max=-1),
    "t_max a string": _probe(t_max="abc"),
    "t2 row beyond L/2": dict(_probe("sweep", model={"L": 4}, x0=2),
                              sweep={"vary": "t2", "values": [0.1]}),
    "threshold a string": _probe("burst", threshold="abc"),
    "threshold not a number": _probe("burst", threshold=float("nan")),
    "threshold below one": _probe("burst", threshold=0.5),
    "L not whole": _probe(model={"L": 12.7}),
    "L a string": _probe(model={"L": "12"}),
    "gamma a bool": _probe(model={"gamma": True}),
    "t_p a bool": _probe(model={"t_p": True}),
    "t_max a bool": _probe(t_max=True),
    "phi row a string": dict(_probe("sweep"), sweep={"vary": "phi", "values": ["1"]}),
    "random seed not whole": _probe(model={"gamma": {"kind": "random", "seed": 1.5}}),
    "negative linear loss": _probe(model={"gamma": {"kind": "linear", "slope": -1.0,
                                                    "offset": 0.2}}),
    "k_samples not whole": _probe("spectrum", self_intersections=True,
                                  k_samples=1024.9),
    "k_samples too few": _probe("spectrum", self_intersections=True, k_samples=100),
    "igc on a general model": {"command": "igc", "model": _GENERAL},
    "igc with sum(t) <= 0": _probe("igc", model={"t": [-0.3, 0.1]}),
    "liouville on a general model": {"command": "liouville", "model": _GENERAL},
    "general gamma a bool": {"command": "spectrum", "model": dict(_GENERAL, gamma=[True])},
    "general entry a bool": {"command": "spectrum",
                             "model": dict(_GENERAL, C=[[[True, 0.0]]])},
    "general entry NaN": {"command": "spectrum",
                          "model": dict(_GENERAL, A=[[[float("nan"), 0.0]]])},
    "ladder option on a general model": {"command": "spectrum", "model": _GENERAL,
                                         "compare_bc": True},
    "self-crossings of a linear loss": _probe(
        "spectrum", model={"bc": "PBC", "gamma": {"kind": "linear", "slope": 0.01,
                                                  "offset": 0.2}},
        self_intersections=True),
    "compare_bc not a boolean": _probe("spectrum", compare_bc="no"),
    "self_intersections not a boolean": _probe("spectrum", self_intersections="false"),
    "sweep not an object": dict(_probe("sweep"), sweep=5),
    "figure name a list": {"command": "figure", "figure": ["fig3a"]},
}


@pytest.mark.parametrize("cfg", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_a_bad_value_is_a_config_error_before_any_output(tmp_path, capsys, cfg):
    status, out = run_cli(tmp_path, cfg)
    assert status == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not out.exists()


def test_the_plan_holds_one_walk_per_sweep_row():
    cfg = dict(_probe("sweep", t_max=500), sweep={"vary": "t2", "values": [0, 0.1, 0.25]})
    plan, model, _ = validate_config(cfg)
    assert [v for v, _ in plan["walks"]] == [0.0, 0.1, 0.25]
    for v, wc in plan["walks"]:
        assert isinstance(wc, WalkConfig)
        assert (wc.x0, wc.t_max, wc.params.t[2]) == (6, 500.0, v)
        assert wc.params == replace(model, t=(0.3, 0.5, v))


def test_the_plan_fills_in_the_defaults():
    burst = {k: v for k, v in _probe("burst").items() if k != "engine"}
    plan, model, _ = validate_config(burst)
    assert (plan["engine"], plan["threshold"]) == ("TIME", 10.0)
    (x0, wc), = plan["walks"]
    assert x0 == 6 and wc == WalkConfig(params=model, x0=6)
    spectrum = validate_config(_probe("spectrum"))[0]
    assert spectrum["k_samples"] == 1024 and "walks" not in spectrum


def test_sweep_with_an_edge_release_skips_the_slope_fits(tmp_path):
    # and so does a sweep of a single release
    status, out = run_cli(tmp_path / "one", small_sweep([9]))
    assert status == 0
    diags = json.loads((out / "run.json").read_text())["diagnostics"]
    assert diags["n_rows"] == 1 and "ratio_loglog_slope" not in diags
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == 9 and float(row[1]) > 1.0
    status, out = run_cli(tmp_path, small_sweep([1, 6]))
    assert status == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].startswith("1,")
    # a missing edge metric is written as nan, so every column but the
    # burst type reads as numbers
    header = rows[0].split(",")
    for row in rows[1:]:
        for name, cell in zip(header, row.split(","), strict=True):
            if name != "burst_type":
                float(cell)
    assert "nan" in rows[1].split(",")
    diags = json.loads((out / "run.json").read_text())["diagnostics"]
    assert diags["n_rows"] == 2
    assert "ratio_loglog_slope" not in diags


def test_sweep_counts_its_incomplete_rows(tmp_path):
    status, out = run_cli(tmp_path / "full", small_sweep([4, 6, 9]))
    assert status == 0
    diags = json.loads((out / "run.json").read_text())["diagnostics"]
    assert (diags["n_rows"], diags["n_incomplete"]) == (3, 0)
    # a ceiling far below any walk's escape time leaves every row short
    status, out = run_cli(tmp_path / "short", dict(small_sweep([4, 6, 9]), t_max=0.5))
    assert status == 0
    diags = json.loads((out / "run.json").read_text())["diagnostics"]
    assert (diags["n_rows"], diags["n_incomplete"]) == (3, 3)
    flags = [row.split(",")[-1] for row in
             (out / "sweep.csv").read_text().splitlines()[1:]]
    assert flags == ["1", "1", "1"]
    # each row's TIME diagnostics: its flag, its defect and its steps
    assert [sorted(r) for r in diags["rows"]] == \
        [["conservation_defect", "incomplete", "n_steps", "x0"]] * 3
    assert [r["x0"] for r in diags["rows"]] == [4, 6, 9]
    assert all(r["incomplete"] and r["n_steps"] > 0 for r in diags["rows"])


def test_resolvent_sweep_rows_report_their_quadrature(tmp_path):
    # the row at fl(pi/2) folds its integral onto omega >= 0, the row at 1.2
    # keeps the full window; both converge within their budgets
    cfg = dict(small_sweep([1.2, np.pi / 2]), x0=6, engine="RESOLVENT")
    cfg["sweep"]["vary"] = "phi"
    status, out = run_cli(tmp_path, cfg)
    assert status == 0
    rows = json.loads((out / "run.json").read_text())["diagnostics"]["rows"]
    assert [sorted(r) for r in rows] == [sorted(
        ["phi", "incomplete", "conservation_defect", "n_solves", "conservation_budget",
         "converged", "folded"])] * 2
    assert [(r["phi"], r["folded"]) for r in rows] == [(1.2, False), (np.pi / 2, True)]
    for r in rows:
        assert r["converged"] and not r["incomplete"] and r["n_solves"] > 0
        assert r["conservation_defect"] <= r["conservation_budget"]


def test_numerical_failure_leaves_a_run_record(tmp_path, capsys):
    # a nearly lossless A-site mode puts a quadrature node within the pivot
    # threshold of its energy, so the resolvent engine refuses the model
    cfg = {"command": "walk", "x0": 1, "engine": "RESOLVENT",
           "model": {"kind": "ladder", "L": 4, "t": [2.2e-16], "t_p": 0.0,
                     "phi": 0.0, "gamma": 1.0, "bc": "OBC"}}
    status, out = run_cli(tmp_path, cfg)
    assert status == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["status"] == 3 and "SingularMatrixError" in err["message"]
    record = json.loads((out / "run.json").read_text())
    assert record["status"] == "failed"
    assert record["command"] == "walk"
    assert record["error"]["type"] == "SingularMatrixError"
    assert "singular" in record["error"]["message"]
    assert "lu_solve" in record["error"]["traceback"]


def test_sweep_over_x0_reports_the_slope_fits(tmp_path):
    status, out = run_cli(tmp_path, small_sweep([4, 6]))
    assert status == 0
    diags = json.loads((out / "run.json").read_text())["diagnostics"]
    for key in ("ratio_loglog_slope", "ratio_loglog_r2",
                "p_edge_loglinear_rate", "p_edge_loglinear_r2"):
        assert np.isfinite(diags[key])


def test_sweep_workers_write_what_one_process_writes(tmp_path):
    cfg = dict(small_sweep([1.2, 1.3, 1.4, 1.5]), x0=6)
    cfg["sweep"]["vary"] = "phi"
    status, serial = run_cli(tmp_path / "serial", cfg, "--jobs", "1")
    assert status == 0
    status, pooled = run_cli(tmp_path / "pooled", cfg, "--jobs", "2")
    assert status == 0
    assert (pooled / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
    rows = [json.loads((out / "run.json").read_text())["diagnostics"]["rows"]
            for out in (serial, pooled)]
    assert rows[0] == rows[1] and len(rows[0]) == 4


def test_the_sweep_pool_never_outnumbers_its_rows(tmp_path, monkeypatch):
    # a fork pool starts every worker it is given at once; a fake records the
    # size asked for and maps in this process, so no worker is ever started
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    status, out = run_cli(tmp_path, small_sweep([4, 6]), "--jobs", "1000000")
    assert status == 0 and asked == [2]
    assert json.loads((out / "run.json").read_text())["diagnostics"]["n_rows"] == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_fewer_than_one_job_is_a_config_error(tmp_path, capsys, jobs):
    status, out = run_cli(tmp_path, small_sweep([4, 6]), "--jobs", jobs)
    assert status == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "--jobs" in err["message"]
    assert not out.exists()


def test_every_preset_validates():
    for name, preset in PRESETS.items():
        for sub in preset["runs"]:
            validate_config(sub, default_seed=1)


def test_igc_run_end_to_end(tmp_path):
    status, out = run_cli(tmp_path, igc_config())
    assert status == 0
    rows = (out / "igc.csv").read_text().strip().splitlines()
    assert rows[0] == "k,beta_re,beta_im,energy,marginal"
    energies = sorted(float(r.split(",")[3]) for r in rows[1:])
    assert energies == pytest.approx([-0.4, 0.4], abs=1e-10)
    record = json.loads((out / "run.json").read_text())
    assert record["tool"] == "igclab"
    assert record["diagnostics"]["classification"] == "IGC"
    assert all(json.loads(json.dumps(record)))  # metadata is valid JSON


def test_override_via_set(tmp_path):
    status, out = run_cli(tmp_path, igc_config(), "--set", "model.t=[0.6,0.5]")
    assert status == 0
    rows = (out / "igc.csv").read_text().strip().splitlines()
    assert len(rows) == 1          # header only: gapped couplings, no roots
    diags = json.loads((out / "run.json").read_text())["diagnostics"]
    assert (diags["classification"], diags["n_points"]) == ("GAPPED", 0)


def test_override_on_a_config_that_is_not_an_object(tmp_path, capsys):
    status, out = run_cli(tmp_path, [1], "--set", "a=1")
    assert status == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not out.exists()


def _ladder(**edits):
    """The small open ladder of the end-to-end table, with `edits`."""
    return dict({"kind": "ladder", "L": 20, "t": [0.3, 0.5], "t_p": 0.5,
                 "phi": np.pi / 2, "gamma": 0.5, "bc": "OBC"}, **edits)


def _within_budget(d):
    return (d["converged"] and not d["incomplete"]
            and d["conservation_defect"] <= d["conservation_budget"]
            and d["tail_bound"] <= 1e-8)


def _svgs(*names):
    """The outputs hold exactly these plots, by file name."""
    return lambda outputs: sorted(Path(p).name for p in outputs
                                  if p.endswith(".svg")) == sorted(names)


def _pole_bound(model):
    """||Herm H||_inf of a ladder config, from its dense matrix."""
    H = build_ladder(validate_config({"command": "spectrum", "model": model})[1]).matrix
    return pytest.approx(np.abs(0.5 * (H + H.conj().T)).sum(axis=1).max(), rel=1e-14)


def _walk(engine, x0=10, **edits):
    return {"command": "walk", "x0": x0, "engine": engine, "model": _ladder(**edits)}


#: one end-to-end run of main() per row: its config, its extra arguments, its
#: exit code, and facts of its run.json, by dotted path, each a value or a
#: predicate of the value
END_TO_END = {
    "fig5a, 13 folded converged rows": (
        {"command": "figure", "figure": "fig5a"}, [], 0,
        {"diagnostics.runs.0.diagnostics.n_rows": 13,
         "diagnostics.runs.0.diagnostics.n_incomplete": 0,
         "diagnostics.runs.0.diagnostics.rows":
             lambda rows: all(r["folded"] and r["converged"] for r in rows)}),
    "ring BOTH walk, Bloch blocks folded": (
        _walk("BOTH", t=[0.6, 0.5], bc="PBC"), [], 0,
        {"diagnostics.RESOLVENT.solver": "bloch_blocks",
         "diagnostics.RESOLVENT.folded": True}),
    "phi 0.7 walk within budget": (
        _walk("RESOLVENT", phi=0.7), [], 0,
        {"diagnostics.RESOLVENT.folded": False, "diagnostics.RESOLVENT": _within_budget,
         "diagnostics.RESOLVENT.pole_bound": _pole_bound(_ladder(phi=0.7))}),
    # nothing escapes: the log-scale plot has no point to show, and the
    # record has no pole bound
    "lossless walk plot": (
        _walk("RESOLVENT", x0=5, L=10, phi=0.7, gamma=0.0), ["--plot"], 0,
        {"diagnostics.RESOLVENT.pole_bound": None, "outputs": _svgs("profile.svg")}),
    "linear-loss walk within budget": (
        _walk("RESOLVENT", phi=0.7, gamma={"kind": "linear", "slope": 0.01, "offset": 0.2}),
        [], 0, {"diagnostics.RESOLVENT": _within_budget}),
    # one rhs call to start, then six per attempted step of the FSAL pair
    **{f"TIME walk, {how} arithmetic": (
        _walk("TIME", x0=8, L=16, phi=phi), [], 0,
        {"diagnostics.TIME.arithmetic": how,
         "diagnostics.TIME": lambda d: d["n_rhs"] == 1 + 6 * (d["n_steps"] + d["n_rejected"])})
       for phi, how in ((np.pi / 2, "real"), (0.7, "complex"))},
    # a nearly decoupled A site: the pivot bound fails, then the exact rule
    "decoupled ladder, exact pivot refusal": (
        _walk("RESOLVENT", x0=2, L=3, t=[1e-16], t_p=0.0, phi=0.7, gamma=[0.3, 0.3, 1e-9]),
        [], 3,
        {"error.type": "SingularMatrixError",
         "error.message": lambda m: "min pivot 1.684e-15 vs scale 3.000e-01" in m}),
    # a near-tangent ring: its 512-point curve cuts itself three times around
    # one crossing, reported once, with its partner at -i gamma - E
    "spectrum plot, both bcs and self-crossings": (
        {"command": "spectrum", "compare_bc": True, "self_intersections": True,
         "k_samples": 512, "model": _ladder(t=[0.575, 0.5, 0.236], phi=0.0044, bc="PBC")},
        ["--plot"], 0,
        {"diagnostics.self_intersections": 2, "diagnostics.OBC.eigensolve": "dense",
         "diagnostics.PBC.eigensolve": "bloch_blocks", "outputs": _svgs("spectrum.svg")}),
    "sweep plot": (
        small_sweep([4, 6]), ["--plot"], 0,
        {"diagnostics.n_rows": 2, "diagnostics.n_incomplete": 0,
         "outputs": _svgs("sweep.svg")}),
    # a release at an edge cell leaves that side's ratio undefined (None):
    # the plot drops the point, as the CSV writes nan
    "sweep plot, edge releases": (
        dict(small_sweep([1, 6, 12]), engine="RESOLVENT"), ["--plot"], 0,
        {"diagnostics.n_rows": 3, "diagnostics.n_incomplete": 0,
         "outputs": _svgs("sweep.svg")}),
    "damping plot with a steady density": (
        {"command": "liouville", "x0": 10,
         "model": _ladder(phi=0.7, gamma={"kind": "random", "low": 0.4, "high": 0.6,
                                          "seed": 1})},
        ["--plot"], 0,
        {"diagnostics.eigensolve": "dense", "diagnostics.steady_density.solver": "banded",
         # Herm(X/i) = conj(H0): the damping matrix has the ladder's bound
         "diagnostics.steady_density.pole_bound": _pole_bound(
             _ladder(phi=0.7, gamma={"kind": "random", "low": 0.4, "high": 0.6, "seed": 1})),
         "outputs": _svgs("liouville_spectrum.svg")}),
    # two of the four roots, u = cos k = 0.10013 and 0.10047, lie closer than 1e-3
    "igc close roots, no plot": (
        {"command": "igc", "model": _ladder(t=[0.5100600611, -0.2006, 0.5], bc="PBC")},
        ["--plot"], 0,
        {"diagnostics.n_points": 4, "diagnostics.classification": "IGC",
         "outputs": _svgs()}),
}


def _lookup(record, path):
    for key in path.split("."):
        record = record[int(key)] if isinstance(record, list) else record[key]
    return record


@pytest.mark.parametrize("cfg, argv, status, facts", END_TO_END.values(),
                         ids=END_TO_END.keys())
def test_end_to_end(tmp_path, cfg, argv, status, facts):
    got, out = run_cli(tmp_path, cfg, *argv)
    assert got == status
    record = json.loads((out / "run.json").read_text())
    assert record["status"] == ("ok" if status == 0 else "failed")
    for path, want in facts.items():
        value = _lookup(record, path)
        assert want(value) if callable(want) else value == want, f"{path}: {value!r}"
    for path in record.get("outputs", {}):
        if path.endswith(".svg"):
            assert Path(path).stat().st_size > 0
            assert ElementTree.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_walk_run_small(tmp_path):
    cfg = {"command": "walk", "x0": 10, "engine": "BOTH",
           "model": {"kind": "ladder", "L": 20, "t": [0.3, 0.5], "t_p": 0.5,
                     "phi": np.pi / 2, "gamma": 0.5, "bc": "OBC"}}
    status, out = run_cli(tmp_path, cfg, "--plot")
    assert status == 0
    body = (out / "profile.csv").read_text().splitlines()
    assert body[0] == "x,P_x,engine"
    assert len(body) == 1 + 2 * 20
    assert (out / "profile.svg").read_text().startswith("<svg")
    sums = {}
    for line in body[1:]:
        x, p, eng = line.split(",")
        sums[eng] = sums.get(eng, 0.0) + float(p)
    assert sums["TIME"] == pytest.approx(1.0, abs=1e-6)
    assert sums["RESOLVENT"] == pytest.approx(1.0, abs=1e-6)
    # the TIME record counts its rhs calls: one to start, then six per
    # attempted step of the FSAL pair
    time_diags = json.loads((out / "run.json").read_text())["diagnostics"]["TIME"]
    assert time_diags["rk_pair"] == "Tsit5(4)"
    assert time_diags["n_rhs"] == \
        1 + 6 * (time_diags["n_steps"] + time_diags["n_rejected"])


def test_run_record_names_the_resolvent_solver(tmp_path):
    # uniform rings solve their Bloch blocks, every other ladder its band,
    # and only the band has a bandwidth to report
    ring = dict(small_sweep([6])["model"], bc="PBC")
    random_loss = {"kind": "random", "low": 0.4, "high": 0.6, "seed": 3}
    runs = [("walk", ring, "bloch_blocks"),
            ("burst", small_sweep([6])["model"], "banded"),
            ("liouville", ring, "bloch_blocks"),
            ("liouville", dict(ring, gamma=random_loss), "banded")]
    for i, (command, model, solver) in enumerate(runs):
        cfg = {"command": command, "x0": 6, "model": model}
        if command != "liouville":
            cfg["engine"] = "RESOLVENT"
        status, out = run_cli(tmp_path / str(i), cfg)
        assert status == 0
        diags = json.loads((out / "run.json").read_text())["diagnostics"]
        diag = diags["steady_density" if command == "liouville" else "RESOLVENT"]
        assert diag["solver"] == solver
        assert ("bandwidth" in diag) == (solver == "banded")
        assert diag["n_solves"] == diag["n_nodes"]


def test_burst_run_reports_fits(tmp_path):
    cfg = {"command": "burst", "x0": 60,
           "model": {"kind": "ladder", "L": 80, "t": [0.3, 0.5], "t_p": 0.5,
                     "phi": np.pi / 2, "gamma": 0.5, "bc": "OBC"}}
    status, out = run_cli(tmp_path, cfg)
    assert status == 0
    record = json.loads((out / "run.json").read_text())
    entry = record["diagnostics"]["TIME"]
    assert entry["burst_type"] in ("LEFT", "NONE", "BIPOLAR", "RIGHT")
    assert "fit_left" in entry
    # and the profile's own diagnostics, as a walk run records them
    prof = loss_profile_time(WalkConfig(params=validate_config(cfg)[1], x0=60))
    for key in ("n_steps", "n_rejected", "residual_norm", "conservation_defect",
                "t_end", "tail_bound"):
        assert entry[key] == prof.diagnostics[key]
    assert entry["n_steps"] > 0 and entry["conservation_defect"] < 1e-6
    # and the bulk fit's count of dropped window points
    assert entry["fit_left"]["n_excluded"] == fit_bulk(prof.P, 60, "LEFT").n_excluded


def _spectrum_csv(path):
    rows = [r.split(",") for r in path.read_text().strip().splitlines()[1:]]
    return {label: np.array([complex(float(re), float(im)) for re, im, lab in rows
                             if lab == label]) for label in {r[2] for r in rows}}


def test_spectrum_takes_bloch_blocks_only_on_uniform_rings(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_ladder", lambda p: built.append(p) or build_ladder(p))
    uniform = {"kind": "ladder", "L": 30, "t": [0.3, 0.5, 0.2], "t_p": 0.5,
               "phi": 0.7, "gamma": 0.5, "bc": "OBC"}
    linear = dict(uniform, bc="PBC",
                  gamma={"kind": "linear", "slope": 0.01, "offset": 0.2})
    files, diags = execute({"command": "spectrum", "model": uniform, "compare_bc": True},
                           tmp_path / "u")
    got = _spectrum_csv(tmp_path / "u" / "spectrum.csv")
    files, lin_diags = execute({"command": "spectrum", "model": linear}, tmp_path / "l")
    got_lin = _spectrum_csv(tmp_path / "l" / "spectrum.csv")["PBC"]
    assert len(built) == 3           # one operator per spectrum, none rebuilt
    assert [diags["OBC"]["eigensolve"], diags["PBC"]["eigensolve"],
            lin_diags["PBC"]["eigensolve"]] == ["dense", "bloch_blocks", "dense"]
    # the open ladder and the non-uniform ring are the dense eigensolve, unchanged
    obc = LadderParams(L=30, t=[0.3, 0.5, 0.2], t_p=0.5, phi=0.7, gamma=0.5)
    ring_lin = replace(obc, bc="PBC", gamma=linear_gamma(30, 0.01, 0.2))
    assert np.array_equal(got["OBC"], eigendecompose(build_ladder(obc).matrix))
    assert np.array_equal(got_lin, eigendecompose(build_ladder(ring_lin).matrix))
    # the uniform ring: its Bloch-block spectrum, sorted as the dense one is
    ring = replace(obc, bc="PBC")
    w = got["PBC"]
    assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(w.size))
    dense = eigendecompose(build_ladder(ring).matrix)
    rows, cols = linear_sum_assignment(np.abs(dense[:, None] - w[None, :]))
    assert np.abs(dense[rows] - w[cols]).max() < 1e-13
    assert diags["PBC"]["max_imag"] == w.imag.max()


def test_spectrum_and_gap_name_their_eigensolve(tmp_path):
    # at phi = pi/2 the sublattice gauge makes H (up to i) and X real: an open
    # ladder's spectrum and every damping spectrum take the real eigensolve,
    # whose spectra are exactly closed under E -> -conj(E) (H) and
    # lambda -> conj(lambda) (X); at phi = 0.7 both take the complex one
    random_loss = {"kind": "random", "low": 0.4, "high": 0.6, "seed": 3}
    model = {"kind": "ladder", "L": 20, "t": [0.3, 0.5], "t_p": 0.5,
             "phi": np.pi / 2, "gamma": random_loss, "bc": "OBC"}
    for phi, how in ((np.pi / 2, "dense_real"), (0.7, "dense")):
        m = dict(model, phi=phi)
        _, diags = execute({"command": "spectrum", "model": m}, tmp_path / f"s{phi}")
        assert diags["OBC"]["eigensolve"] == how
        w = _spectrum_csv(tmp_path / f"s{phi}" / "spectrum.csv")["OBC"]
        for bc in ("OBC", "PBC"):
            out = tmp_path / f"l{phi}{bc}"
            _, diags = execute({"command": "liouville", "model": dict(m, bc=bc)}, out)
            assert diags["eigensolve"] == how
            lam = _spectrum_csv(out / "liouville_spectrum.csv")[bc]
            if how == "dense_real":
                assert np.array_equal(np.sort_complex(np.conj(lam)), lam)
        if how == "dense_real":
            assert np.array_equal(np.sort_complex(-np.conj(w)), w)


def test_a_uniform_ring_gap_reads_the_bloch_blocks(tmp_path):
    # X = i conj(H) of a uniform ring is block-circulant as H is, so the
    # liouville command reads its spectrum off X's Bloch blocks, on and off
    # the gauge phase: i conj of the spectrum command's as a multiset, and the
    # gap of X's dense eigensolve (the ring's top eigenvalue is well
    # conditioned)
    model = {"kind": "ladder", "L": 20, "t": [0.3, 0.5], "t_p": 0.5,
             "phi": 0.7, "gamma": 0.5, "bc": "PBC"}
    for phi in (0.7, np.pi / 2):
        m = dict(model, phi=phi)
        _, diags = execute({"command": "spectrum", "model": m}, tmp_path / f"s{phi}")
        assert diags["PBC"]["eigensolve"] == "bloch_blocks"
        w = 1j * np.conj(_spectrum_csv(tmp_path / f"s{phi}" / "spectrum.csv")["PBC"])
        _, diags = execute({"command": "liouville", "model": m}, tmp_path / f"l{phi}")
        assert diags["eigensolve"] == "bloch_blocks"
        lam = _spectrum_csv(tmp_path / f"l{phi}" / "liouville_spectrum.csv")["PBC"]
        H = build_ladder(validate_config({"command": "spectrum", "model": m})[1])
        scale = np.abs(H.matrix).sum(axis=1).max()
        rows, cols = linear_sum_assignment(np.abs(lam[:, None] - w[None, :]))
        assert lam.size == w.size == 40
        assert np.abs(lam[rows] - w[cols]).max() <= 1e-14 * scale
        dense = eigendecompose(1j * np.conj(H.matrix))
        assert abs(diags["gap"] + 2 * dense.real.max()) <= 1e-14


def test_a_lossless_resolvent_sweep_writes_its_rows(tmp_path):
    # nothing escapes a lossless ladder: the resolvent short-circuit carries
    # every diagnostic a sweep row reads, no solves and a conservation
    # defect |1 - sum P| of 1
    cfg = dict(small_sweep([4, 6]), engine="RESOLVENT")
    cfg["model"]["gamma"] = 0.0
    status, out = run_cli(tmp_path, cfg)
    assert status == 0
    assert len((out / "sweep.csv").read_text().strip().splitlines()) == 3
    rows = json.loads((out / "run.json").read_text())["diagnostics"]["rows"]
    assert [(r["x0"], r["n_solves"], r["conservation_defect"], r["converged"])
            for r in rows] == [(4, 0, 1.0, True), (6, 0, 1.0, True)]


def test_fig5b_preset_end_to_end(tmp_path):
    # three L = 500 rings near the self-crossing transition; their spectra are
    # the Bloch bands on the ring's momenta (no block is at an exceptional
    # point: h_y = 0 only at k = 0 and pi, where |h_x| differs from gamma/2)
    files, diags = execute({"command": "figure", "figure": "fig5b"}, tmp_path)
    crossings = []
    for i, run in enumerate(diags["runs"]):
        p = validate_config(run["config"])[1]
        w = _spectrum_csv(tmp_path / f"fig5b_{i}_spectrum.csv")["PBC"]
        bands = bloch_bands(p, 2 * np.pi * np.arange(p.L) / p.L).ravel()
        rows, cols = linear_sum_assignment(np.abs(w[:, None] - bands[None, :]))
        assert w.size == 1000 and np.abs(w[rows] - bands[cols]).max() < 1e-12
        assert run["diagnostics"]["PBC"]["eigensolve"] == "bloch_blocks"
        crossings.append((p.t[2], run["diagnostics"]["self_intersections"]))
    assert crossings == [(0.25, 0), (0.33, 4), (0.5, 4)]


def test_general_model_spectrum(tmp_path):
    cfg = {"command": "spectrum",
           "model": {"kind": "general",
                     "A": [[[0.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.0, 0.0]]],
                     "B_herm": [[[0.0, 0.0]]],
                     "C": [[[0.1, 0.0], [0.0, 0.0]]],
                     "gamma": [0.7]}}
    status, out = run_cli(tmp_path, cfg)
    assert status == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert all(float(r.split(",")[1]) <= 1e-12 for r in rows[1:])


def test_missing_config_file_is_io_error(tmp_path, capsys):
    status = main(["--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert status == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["status"] == 4


def test_schema_error_exit_code(tmp_path, capsys):
    status, _ = run_cli(tmp_path, {"command": "igc", "model": {}})
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert "missing required field" in err["error"]["message"]


def test_byte_identical_reruns(tmp_path):
    cfg = igc_config()
    cfg["model"]["gamma"] = {"kind": "random", "low": 0.4, "high": 0.6, "seed": 3}
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(p1)]) == 0
    assert main(["--config", str(path), "--out", str(p2)]) == 0
    assert (p1 / "igc.csv").read_bytes() == (p2 / "igc.csv").read_bytes()


def test_config_echo_reparses(tmp_path):
    # the resolved echo, diagnostics.model, parses back without --seed to
    # the ladder that ran; the generator of a random profile is named beside it
    forms = {"scalar": 0.5,
             "list": [0.4 + 0.001 * x for x in range(200)],
             "linear": {"kind": "linear", "slope": 0.001, "offset": 0.2},
             "random": {"kind": "random", "low": 0.4, "high": 0.6}}  # seeded by --seed
    for name, gamma in forms.items():
        cfg = igc_config()
        cfg["model"]["gamma"] = gamma
        status, out = run_cli(tmp_path / name, cfg, "--seed", "7")
        assert status == 0
        record = json.loads((out / "run.json").read_text())
        cfg2, model, _ = validate_config(record["config"], default_seed=record["seed"])
        assert cfg2["command"] == "igc"
        assert model.t == (0.3, 0.5)
        echo = record["diagnostics"]["model"]
        assert validate_config({"command": "igc", "model": echo})[1] == model, name
        assert ("prng" in record["diagnostics"]) == (name == "random")
    # a general model's echo carries its matrices as [re, im] pairs
    cfg = {"command": "spectrum",
           "model": dict(_GENERAL, A=[[[0.2, 0.0]]], C=[[[0.1, -0.3]]])}
    status, out = run_cli(tmp_path / "general", cfg)
    assert status == 0
    ran = validate_config(cfg)[1]
    echoed = validate_config({"command": "spectrum",
                              "model": json.loads((out / "run.json").read_text())
                              ["diagnostics"]["model"]})[1]
    for name in ("A", "B_herm", "C"):
        assert np.array_equal(getattr(echoed, name), getattr(ran, name)), name
    assert echoed.gamma == ran.gamma


def test_csv_full_precision(tmp_path):
    value = 0.1234567890123456789
    write_csv(tmp_path / "t.csv", ["v"], [(value,)])
    text = (tmp_path / "t.csv").read_text().splitlines()[1]
    assert float(text) == value


def test_list_presets_flag(capsys):
    assert main(["--list-presets"]) == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert lines == [[name, PRESETS[name]["description"]] for name in sorted(PRESETS)]
