import json

import numpy as np
import pytest

from igclab.cli import (
    ConfigError, PRESETS, main, presets, validate_config, write_csv,
)


def igc_config(**extra):
    cfg = {"command": "igc",
           "model": {"kind": "ladder", "L": 200, "t": [0.3, 0.5], "t_p": 0.5,
                     "phi": np.pi / 2, "gamma": 0.5, "bc": "PBC"}}
    cfg.update(extra)
    return cfg


def run_cli(tmp_path, cfg, *args):
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


def test_sweep_with_an_edge_release_skips_the_slope_fits(tmp_path):
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


def test_every_preset_validates():
    for name, preset in PRESETS.items():
        for sub in preset["runs"]:
            validate_config(sub, default_seed=1)
    assert set(presets()) == set(PRESETS)


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
    record = json.loads((out / "run.json").read_text())
    assert record["diagnostics"]["gapped"] is True


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
    status, out = run_cli(tmp_path, igc_config())
    assert status == 0
    record = json.loads((out / "run.json").read_text())
    cfg2, model, _ = validate_config(record["config"])
    assert cfg2["command"] == "igc"
    assert model.t == (0.3, 0.5)


def test_csv_full_precision(tmp_path):
    value = 0.1234567890123456789
    write_csv(tmp_path / "t.csv", ["v"], [(value,)])
    text = (tmp_path / "t.csv").read_text().splitlines()[1]
    assert float(text) == value


def test_list_presets_flag(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig3c" in out and "fig8b" in out
