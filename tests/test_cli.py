import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import qubitchaos
from qubitchaos import cli, experiments
from qubitchaos.basis import build_hamiltonian, enumerate_sector
from qubitchaos.cli import parse_config, run_command
from qubitchaos.errors import ConfigError
from qubitchaos.experiments import (default_n_d, find_critical, grid_for_delta,
                                    grid_for_n, sweep_j)
from qubitchaos.model import ModelParams, build_bonds, derive_seed, sample_disorder


BASE = {"lx": 3, "ly": 4, "delta": 1.0, "j_grid": [0.02, 0.48],
        "n_d": 100, "master_seed": 42}


def read_csv(path, reader=csv.reader):
    with open(path, newline="") as fh:
        return list(reader(fh))


def write_config(tmp_path, **overrides):
    doc = dict(BASE)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(json.dumps(BASE))
        assert cfg.lx * cfg.ly == 12
        assert cfg.master_seed == 42

    def test_defaults_filled(self):
        cfg = parse_config(json.dumps(BASE))
        assert cfg.window_fraction == 0.0625
        assert cfg.parity == "even"
        assert cfg.eta_target == 0.3
        assert cfg.sq_target == 1.0

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(BASE, delta=1.5)))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(BASE, coupling_grid=[0.1])))

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"delta": 1.0}))

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(BASE, j_grid=[0.3, 0.1])))
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(BASE, j_grid=[-0.1, 0.3])))

    @pytest.mark.parametrize("key, value", [
        ("s_max", 0), ("s_max", -1), ("bin_width", 10), ("bin_width", 0)])
    def test_histogram_without_a_bin_rejected(self, key, value):
        with pytest.raises(ConfigError, match="bin_width"):
            parse_config(json.dumps(dict(BASE, **{key: value})))


# n = 6 config under which every command succeeds
SMALL = {"lx": 2, "ly": 3, "delta": 1.0, "j": 0.3, "j_grid": [0.02, 0.08, 0.3, 0.9],
         "n_d": 40, "master_seed": 42, "n_energy_bins": 5,
         "scaling_mode": "delta", "delta_values": [0.5, 1.0]}
COMMAND_ARGS = {
    "estimate": ["--n", "6"],
    "spectrum": ["--dump-matrix"],
    "pss": [], "sweep": [], "critical": [], "scaling": [], "melt": [],
}
MANIFEST_KEYS = {"config", "master_seed", "version", "started_at", "elapsed_s",
                 "skipped_realizations"}


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, override", [
    ("sweep", {"lx": "3"}),
    ("sweep", {"n_d": 2.5}),
    ("sweep", {"n_energy_bins": "5"}),
    ("sweep", {"n_d": True}),
    ("pss", {"j": float("nan")}),
    ("pss", {"j": float("inf")}),
    ("sweep", {"j_grid": [0.05, float("nan"), 0.3]}),
], ids=["lx-str", "n_d-float", "n_energy_bins-str", "n_d-bool", "j-nan", "j-inf",
        "j_grid-nan"])
def test_mistyped_config_is_config_error(tmp_path, capsys, command, override):
    cfg = write_config(tmp_path, **dict(SMALL, output_dir=str(tmp_path / "out"),
                                        **override))
    with pytest.raises(ConfigError, match=f"config key '{next(iter(override))}'"):
        parse_config(cfg.read_text())
    assert run_command([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_threads_is_an_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, **dict(SMALL, threads=2, output_dir=str(tmp_path)))
    assert run_command(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown config keys: ['threads']")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_outputs_are_strict_json_with_one_manifest_schema(tmp_path, command):
    out = tmp_path / "out"
    if command == "estimate":
        source = ["--output-dir", str(out)]
    else:
        doc = dict(SMALL, output_dir=str(out), n_d=1 if command == "scaling" else 40)
        source = ["--config", str(write_config(tmp_path, **doc))]
    assert run_command([command, *COMMAND_ARGS[command], *source]) == 0
    for path in out.glob("*.json"):
        strict_json(path.read_text())
    manifest = strict_json((out / f"{command}_manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS


def test_python_m_qubitchaos(tmp_path):
    src = str(Path(qubitchaos.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def python_m(*args):
        return subprocess.run([sys.executable, "-m", *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    for module in ("qubitchaos", "qubitchaos.cli"):
        out = tmp_path / module
        ok = python_m(module, "estimate", "--n", "12", "--output-dir", str(out))
        assert ok.returncode == 0, ok.stderr
        assert "J_c" in ok.stdout and (out / "estimate.json").exists()
    config = str(write_config(tmp_path, lx="3"))
    for argv in (["sweep", "--config", config], ["estimate", "--n", "12", "--c", "-inf"],
                 [], ["bogus"], ["estimate", "--n", "twelve"]):
        bad = python_m("qubitchaos", *argv)
        assert bad.returncode == 1, argv
        assert bad.stderr.startswith("error: "), argv
        assert "usage:" not in bad.stderr and "Traceback" not in bad.stderr, argv
    helped = python_m("qubitchaos", "--help")
    assert helped.returncode == 0 and "usage:" in helped.stdout


class TestEstimateCommand:
    def test_n_1000(self, tmp_path, capsys):
        status = run_command(["estimate", "--n", "1000",
                              "--output-dir", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "-298" in out
        doc = json.loads((tmp_path / "estimate.json").read_text())
        assert doc["log10_multiqubit_spacing"] == pytest.approx(
            3 - 1000 * math.log10(2))
        assert doc["j_cs"] == pytest.approx(4e-4)
        assert (tmp_path / "estimate_manifest.json").exists()


    @pytest.mark.parametrize("flag, value, rule", [
        ("--delta0", "0", "delta0 must be > 0"), ("--delta0", "-1", "delta0 must be > 0"),
        ("--delta0", "nan", "--delta0 must be a finite number"),
        ("--delta", "nan", "--delta must be a finite number"),
        ("--delta", "inf", "--delta must be a finite number"),
        ("--c", "-inf", "--c must be a finite number"),
        ("--delta", "-0.5", "delta must be >= 0"),
        ("--delta", "5", "<= delta0 = 1.0")])
    def test_bad_flag_fails_before_output(self, tmp_path, capsys, flag, value, rule):
        status = run_command(["estimate", "--n", "12", f"{flag}={value}",
                              "--output-dir", str(tmp_path)])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and rule in captured.err
        assert not (tmp_path / "estimate.json").exists()


class TestSpectrumCommand:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, j=0.2,
                           output_dir=str(tmp_path), n_d=1)
        assert run_command(["spectrum", "--config", str(cfg), "--dump-matrix"]) == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[0] == ["index", "eigenvalue"]
        assert len(rows) == 1 + 32
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["passed"] is True
        assert (tmp_path / "matrix.txt").read_text().count("\n") > 32

    def test_dump_matrix_is_plain_triplets(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, j=0.2, output_dir=str(tmp_path))
        assert run_command(["spectrum", "--config", str(cfg), "--dump-matrix"]) == 0
        params = ModelParams(lx=2, ly=3, delta=1.0, j_bound=0.2)
        bonds = build_bonds(2, 3)
        h = build_hamiltonian(enumerate_sector(6, 0),
                              sample_disorder(params, derive_seed(42, 0), bonds), bonds)
        rebuilt = np.zeros_like(h.matrix)
        for line in (tmp_path / "matrix.txt").read_text().splitlines():
            r, c, v = line.split(" ")
            rebuilt[int(r), int(c)] = float(v)
        assert np.array_equal(rebuilt, h.matrix)


class TestPssCommand:
    def test_normal_run(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, j=0.3, n_d=20,
                           output_dir=str(tmp_path))
        assert run_command(["pss", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "pss.csv")
        assert rows[0] == ["s_bin_left", "s_bin_right", "density",
                           "pp_density", "pw_density"]
        doc = json.loads((tmp_path / "pss.json").read_text())
        assert doc["n_s"] > 0

    def test_undersized_sector_fails_with_diagnostic(self, tmp_path, capsys):
        # the n = 2 even sector has only 2 levels, below the minimum window
        cfg = write_config(tmp_path, lx=1, ly=2, j=0.1, n_d=3,
                           output_dir=str(tmp_path))
        assert run_command(["pss", "--config", str(cfg)]) == 1
        assert "skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("s_max", 0), ("s_max", -1), ("bin_width", 10)])
    def test_empty_histogram_fails_before_solve(self, tmp_path, capsys, monkeypatch,
                                                key, value):
        def no_solve(*args):
            raise AssertionError("run_ensemble called")
        monkeypatch.setattr(cli, "run_ensemble", no_solve)
        cfg = write_config(tmp_path, lx=2, ly=3, j=0.3, n_d=2,
                           output_dir=str(tmp_path), **{key: value})
        assert run_command(["pss", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "pss.csv").exists()


class TestSweepCommand:
    def test_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, j_grid=[0.05, 0.3], n_d=4,
                           output_dir=str(tmp_path))
        assert run_command(["sweep", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["j", "eta_mean", "eta_sem", "sq_mean", "sq_sem",
                           "n_s", "n_d"]
        assert len(rows) == 3
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert "elapsed_s" in manifest
        # manifest config round-trips through the parser
        cfg2 = parse_config(json.dumps(manifest["config"]))
        assert cfg2.j_grid == [0.05, 0.3]

    def test_rerun_is_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = write_config(tmp_path, lx=2, ly=3, j_grid=[0.05, 0.3], n_d=4,
                               output_dir=str(out))
            assert run_command(["sweep", "--config", str(cfg)]) == 0
        assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


class TestCriticalCommand:
    def test_blocked_at_delta_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, delta=0.0, output_dir=str(tmp_path))
        assert run_command(["critical", "--config", str(cfg)]) == 1
        assert "delta=0" in capsys.readouterr().err

    def test_extracts_both_targets(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, n_d=40,
                           j_grid=[0.02, 0.08, 0.3, 0.9],
                           output_dir=str(tmp_path))
        assert run_command(["critical", "--config", str(cfg)]) == 0
        records = json.loads((tmp_path / "critical.json").read_text())
        targets = {r["target"] for r in records}
        assert targets == {"eta=0.3", "sq=1"}
        for r in records:
            assert r["bracket_lo"] < r["j_crit"] < r["bracket_hi"]
            assert r["n"] == 6 and r["seed"] == 42


class TestMeltCommand:
    def test_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, j_grid=[0.0, 0.2, 0.4],
                           n_energy_bins=5, output_dir=str(tmp_path))
        assert run_command(["melt", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "melt.csv")
        assert rows[0] == ["j", "bin_left", "bin_right", "sq_mean", "count"]
        assert len(rows) == 1 + 3 * 5


# (key, value) pairs that make a scaling fit impossible; the values before the bad
# entry are valid, so a late check would run their sweeps first.
BAD_SCALING_LISTS = [("n_values", [6]), ("n_values", [6, 6]), ("n_values", [6, 1]),
                     ("n_values", [6, 2]), ("delta_values", [0.5]),
                     ("delta_values", [0.5, 0.5]), ("delta_values", [0.5, 0.0]),
                     ("delta_values", [0.5, 1.5])]


class TestScalingCommand:
    def test_delta_mode_small(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, scaling_mode="delta",
                           delta_values=[0.5, 1.0], n_d=1,
                           output_dir=str(tmp_path))
        assert run_command(["scaling", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert doc["mode"] == "delta"
        assert doc["j_cs_free"]["slope"] == pytest.approx(1.0, abs=0.5)

    def test_delta_mode_reads_targets_and_model_keys(self, tmp_path):
        cfg = write_config(tmp_path, lx=2, ly=3, scaling_mode="delta",
                           delta_values=[0.5, 1.0], n_d=1, sq_target=0.8,
                           window_fraction=0.25, parity="odd", output_dir=str(tmp_path))
        assert run_command(["scaling", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "scaling.csv", csv.DictReader)
        assert [float(r["delta"]) for r in rows] == [0.5, 1.0]
        for row in rows:
            delta = float(row["delta"])
            params = ModelParams(lx=2, ly=3, delta=delta, window_fraction=0.25,
                                 parity="odd")
            sweep = sweep_j(params, grid_for_delta(6, delta), default_n_d(6, 1), 42)
            assert float(row["j_cs"]) == find_critical(sweep, "sq", 0.8).j_crit

    # `sweep` never reads the lists, but the config check is the same for every command.
    @pytest.mark.parametrize("command", ["scaling", "sweep"])
    @pytest.mark.parametrize("key, value", BAD_SCALING_LISTS)
    def test_bad_list_fails_before_any_sweep(self, tmp_path, capsys, monkeypatch,
                                             command, key, value):
        def no_solve(*args):
            raise AssertionError("run_ensemble called")
        monkeypatch.setattr(experiments, "run_ensemble", no_solve)
        mode = "n" if key == "n_values" else "delta"
        cfg = write_config(tmp_path, lx=2, ly=3, n_d=1, j_grid=[0.05, 0.3],
                           scaling_mode=mode, output_dir=str(tmp_path), **{key: value})
        assert run_command([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_n_mode_reads_targets(self, tmp_path):
        cfg = write_config(tmp_path, scaling_mode="n", n_values=[6, 9], n_d=1,
                           eta_target=0.4, sq_target=0.8, output_dir=str(tmp_path))
        assert run_command(["scaling", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "scaling.csv", csv.DictReader)
        assert [int(r["n"]) for r in rows] == [6, 9]
        for row, (lx, ly) in zip(rows, [(2, 3), (3, 3)]):
            n = lx * ly
            sweep = sweep_j(ModelParams(lx=lx, ly=ly), grid_for_n(n, 1.0),
                            default_n_d(n, 1), 42)
            assert float(row["j_c"]) == find_critical(sweep, "eta", 0.4).j_crit
            assert float(row["j_cs"]) == find_critical(sweep, "sq", 0.8).j_crit


def test_unknown_command_exits_nonzero(capsys):
    assert run_command(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error: argument command: invalid choice")


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("QUBITCHAOS_OUTPUT_DIR", str(target))
    cfg = write_config(tmp_path, lx=2, ly=3, j=0.2, n_d=1,
                       output_dir=str(tmp_path / "ignored"))
    assert run_command(["spectrum", "--config", str(cfg)]) == 0
    assert (target / "spectrum.csv").exists()
