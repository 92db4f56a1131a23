"""Command line front end: presets, configs, output files, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wgqed import UnknownPresetError
from wgqed.cli import main, parse_config, preset, serialize_config


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def run_cli(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


CUSTOM_SCATTER = {
    "scenario": "custom",
    "mode": "scattering",
    "emitter": {
        "ground_energies": [0.0],
        "excited_energies": [1.0, 1.0],
        "dipoles": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]],
    },
    "waveguide": {"a": 1.0, "v_g": 0.1, "omega": 1.0,
                  "E_f": [[1, 0], [0, 0], [0, 0]]},
    "loss": {"isotropic": 0.0},
    "input": {"direction": "forward", "ground_index": 0, "photon_frequency": 1.0},
    "sweep": {"parameter": "theta", "start": 0.0, "stop": 0.02, "steps": 3},
}


class TestPresets:
    def test_ixi_dipoles(self):
        cfg = preset("ixi-scan")
        assert cfg.emitter["dipoles"][0][0] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert cfg.emitter["dipoles"][0][1] == [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        assert cfg.emitter["dipoles"][1][0] == cfg.emitter["dipoles"][0][1]
        assert cfg.loss == {"isotropic": 0.2}
        assert cfg.input["ground_index"] == 0

    def test_paradox_preset_is_lossless(self):
        cfg = preset("paradox-emission")
        assert cfg.loss == {"isotropic": 0.0}
        amps = [complex(re, im) for re, im in cfg.initial_state]
        norms = np.abs(amps) ** 2
        assert norms[0] == pytest.approx(0.2) and norms[1] == pytest.approx(0.8)

    def test_isotropic_scan_grid_hits_special_angles(self):
        cfg = preset("isotropic-scan")
        sweep = cfg.sweep
        thetas = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
        assert sweep["steps"] == 401
        assert 0.0 in thetas
        assert np.min(np.abs(thetas - np.pi / 4)) < 1e-15
        assert np.min(np.abs(thetas - 3 * np.pi / 4)) < 1e-15

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            preset("nonsense")


class TestConfigParsing:
    def test_round_trip_is_canonical_fixed_point(self):
        for name in ("paradox-emission", "isotropic-scan", "ixi-scan", "two-level"):
            text = serialize_config(preset(name))
            again = serialize_config(parse_config(json.loads(text)))
            assert text == again

    def test_custom_round_trip(self):
        text = serialize_config(parse_config(CUSTOM_SCATTER))
        assert serialize_config(parse_config(json.loads(text))) == text

    def test_unknown_top_level_field_named(self):
        bad = dict(CUSTOM_SCATTER, bogus=1)
        with pytest.raises(Exception) as exc:
            parse_config(bad)
        assert "bogus" in str(exc.value)

    def test_sweep_needs_two_steps(self):
        bad = dict(CUSTOM_SCATTER, sweep={"parameter": "theta", "start": 0.0,
                                          "stop": 1.0, "steps": 1})
        with pytest.raises(Exception) as exc:
            parse_config(bad)
        assert "steps" in str(exc.value)

    def test_ground_index_validated(self):
        bad = dict(CUSTOM_SCATTER,
                   input={"direction": "forward", "ground_index": 5,
                          "photon_frequency": 1.0})
        with pytest.raises(Exception) as exc:
            parse_config(bad)
        assert "ground_index" in str(exc.value)

    def test_preset_emitter_override_rejected(self):
        bad = {"scenario": "isotropic-scan",
               "emitter": preset("ixi-scan").emitter}
        with pytest.raises(Exception) as exc:
            parse_config(bad)
        assert "emitter" in str(exc.value)


class TestEmissionScenario:
    def test_paradox_emission_table(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "paradox-emission", "--out", "pe.csv")
        assert code == 0
        header, data = read_csv(tmp_path / "pe.csv")
        assert header == ["t", "pop_e1", "pop_e2", "p_forward", "p_backward",
                          "p_loss", "trace"]
        assert data[0, 0] == 0.0
        assert data[0, 1] == pytest.approx(0.2, abs=1e-12)
        assert data[0, 2] == pytest.approx(0.8, abs=1e-12)
        assert np.max(np.abs(data[:, 6] - 1.0)) < 1e-8
        # lossless run: loss column stays zero, directions absorb everything
        assert np.max(data[:, 5]) == 0.0
        pair = sorted([data[-1, 3], data[-1, 4]])
        assert pair[0] == pytest.approx(9 / 50, abs=1e-4)
        assert pair[1] == pytest.approx(41 / 50, abs=1e-4)


class TestScatteringScenarios:
    @pytest.mark.parametrize("strength", ["0.2", "0.003"])
    def test_isotropic_scan_circular_points_have_zero_reflection(
            self, monkeypatch, tmp_path, strength):
        code = run_cli(monkeypatch, tmp_path, "run", "isotropic-scan",
                       "--loss", strength, "--out", "iso.csv")
        assert code == 0
        header, data = read_csv(tmp_path / "iso.csv")
        assert header == ["theta", "re_t", "im_t", "re_r", "im_r", "p_loss"]
        assert data.shape == (401, 6)
        for target in (np.pi / 4, 3 * np.pi / 4):
            row = data[np.argmin(np.abs(data[:, 0] - target))]
            assert abs(complex(row[3], row[4])) < 1e-10

    def test_ixi_scan_circular_point_is_pure_flip_transmission(
            self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "ixi-scan", "--out", "ixi.csv")
        assert code == 0
        header, data = read_csv(tmp_path / "ixi.csv")
        assert header == ["theta", "re_f_g1", "im_f_g1", "re_f_g2", "im_f_g2",
                          "re_b_g1", "im_b_g1", "re_b_g2", "im_b_g2", "p_loss"]
        row = data[np.argmin(np.abs(data[:, 0] - np.pi / 4))]
        amps = {
            "f_g1": complex(row[1], row[2]), "f_g2": complex(row[3], row[4]),
            "b_g1": complex(row[5], row[6]), "b_g2": complex(row[7], row[8]),
        }
        assert abs(amps["b_g1"]) < 1e-10 and abs(amps["b_g2"]) < 1e-10
        assert abs(amps["f_g2"]) == pytest.approx(1 / 1.04, abs=1e-12)
        # dominant channel: everything else at least an order of magnitude down
        assert abs(amps["f_g1"]) < 0.1 * abs(amps["f_g2"])

    def test_steps_override(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "isotropic-scan",
                       "--steps", "11", "--out", "s.csv")
        assert code == 0
        _, data = read_csv(tmp_path / "s.csv")
        assert data.shape[0] == 11

    def test_single_point_custom_scattering(self, monkeypatch, tmp_path):
        cfg = dict(CUSTOM_SCATTER)
        del cfg["sweep"]
        cfg["loss"] = {"isotropic": 0.2}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        code = run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", "point.csv")
        assert code == 0
        header, data = read_csv(tmp_path / "point.csv")
        assert header == ["re_t", "im_t", "re_r", "im_r", "p_loss"]
        assert data[0, 2] == pytest.approx(-10 / 10.2, abs=1e-12)


class TestTwoLevelDiagnostic:
    @pytest.mark.parametrize("strength,expected", [("0.2", 10 / 10.2),
                                                   ("0.003", 10 / 10.003)])
    def test_guided_fraction_reported(self, monkeypatch, tmp_path, strength, expected):
        code = run_cli(monkeypatch, tmp_path, "run", "two-level",
                       "--loss", strength, "--out", "tl.csv")
        assert code == 0
        header, data = read_csv(tmp_path / "tl.csv")
        cols = dict(zip(header, data[0]))
        assert cols["rate_forward"] == pytest.approx(5.0, abs=1e-12)
        assert cols["rate_backward"] == pytest.approx(5.0, abs=1e-12)
        assert cols["rate_loss"] == pytest.approx(float(strength), abs=1e-12)
        assert cols["beta_rates"] == pytest.approx(expected, abs=1e-12)
        assert cols["beta_emission"] == pytest.approx(expected, abs=1e-9)


class TestOutputsAndExitCodes:
    def test_runs_are_deterministic(self, monkeypatch, tmp_path):
        run_cli(monkeypatch, tmp_path, "run", "ixi-scan", "--out", "a.csv")
        run_cli(monkeypatch, tmp_path, "run", "ixi-scan", "--out", "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_format(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "two-level",
                       "--format", "json", "--out", "tl.json")
        assert code == 0
        payload = json.loads((tmp_path / "tl.json").read_text())
        assert payload["scenario"] == "two-level"
        assert "beta_rates" in payload["columns"]
        assert len(payload["rows"]) == 1

    def test_default_output_path(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "two-level")
        assert code == 0
        assert (tmp_path / "two-level.csv").exists()

    def test_unknown_preset_exits_one(self, monkeypatch, tmp_path, capsys):
        assert run_cli(monkeypatch, tmp_path, "run", "nonsense") == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_invalid_schema_field_exits_one(self, monkeypatch, tmp_path, capsys):
        bad = dict(CUSTOM_SCATTER, bogus=1)
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        assert run_cli(monkeypatch, tmp_path, "run", "bad.json") == 1
        assert "bogus" in capsys.readouterr().err

    def test_unreadable_config_exits_one(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{not json")
        assert run_cli(monkeypatch, tmp_path, "run", "broken.json") == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,out,field", [
        ({}, "missing/x.csv", "output.path"),
        ({}, ".", "output.path"),
        ({"sweep": {"parameter": "theta", "start": 0.0, "stop": 4, "steps": 3}},
         "o.csv", "sweep.stop"),
        ({"sweep": {"parameter": "theta", "stop": 1.0, "steps": 3}}, "o.csv", "sweep.start"),
        ({"sweep": {"parameter": "theta", "start": "a", "stop": 1.0, "steps": 3}},
         "o.csv", "sweep.start"),
        ({"input": {"direction": "forward", "ground_index": 0, "photon_frequency": "x"}},
         "o.csv", "input.photon_frequency"),
        ({"dark_state_projection": "no"}, "o.csv", "dark_state_projection"),
        ({"dark_state_projection": 1}, "o.csv", "dark_state_projection"),
        ({"dark_state_projection": "true"}, "o.csv", "dark_state_projection"),
    ], ids=["out-in-missing-dir", "out-is-directory", "stop-above-pi", "no-start",
            "string-start", "string-photon-frequency", "projection-string-no",
            "projection-integer", "projection-string-true"])
    def test_invalid_sweep_input_or_output_exits_one(self, monkeypatch, tmp_path, capsys,
                                                     overrides, out, field):
        (tmp_path / "c.json").write_text(json.dumps({"scenario": "ixi-scan", **overrides}))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", out) == 1
        err = capsys.readouterr().err
        assert f"(field: {field})" in err
        assert "Traceback" not in err

    def test_dark_sweep_point_exits_two_and_flags_theta(
            self, monkeypatch, tmp_path, capsys):
        (tmp_path / "dark.json").write_text(json.dumps(CUSTOM_SCATTER))
        code = run_cli(monkeypatch, tmp_path, "run", "dark.json", "--out", "d.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "theta=0.0" in err
        header, rows = read_csv(tmp_path / "d.csv")
        assert np.isnan(rows[0, 1]) and not np.isnan(rows[1, 1])

    def test_dark_state_projection_flag_recovers_sweep(self, monkeypatch, tmp_path):
        (tmp_path / "dark.json").write_text(json.dumps(CUSTOM_SCATTER))
        code = run_cli(monkeypatch, tmp_path, "run", "dark.json",
                       "--dark-state-projection", "--out", "d.csv")
        assert code == 0
        _, rows = read_csv(tmp_path / "d.csv")
        assert abs(complex(rows[0, 3], rows[0, 4])) == pytest.approx(1.0)

    def test_module_entry_point(self, tmp_path):
        # the subprocess runs in tmp_path, where a relative PYTHONPATH entry
        # such as "src" would not resolve
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wgqed.cli", "run", "two-level", "--out", "tl.csv"],
            cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        assert proc.returncode == 0
        assert (tmp_path / "tl.csv").exists()


class TestCustomEmission:
    def test_custom_emission_scenario(self, monkeypatch, tmp_path):
        cfg = {
            "scenario": "custom",
            "mode": "emission",
            "emitter": {
                "ground_energies": [0.0],
                "excited_energies": [1.0],
                "dipoles": [[[[1, 0], [0, 0], [0, 0]]]],
            },
            "initial_state": [[1, 0]],
            "waveguide": {"a": 1.0, "v_g": 0.1, "omega": 1.0,
                          "E_f": [[1, 0], [0, 0], [0, 0]]},
            "loss": {"isotropic": 0.2},
            "input": {"direction": "forward", "ground_index": 0,
                      "photon_frequency": 1.0},
            "integrator": {"t_max": 2.0, "output_points": 41, "grid": "linear"},
        }
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        code = run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv")
        assert code == 0
        header, data = read_csv(tmp_path / "em.csv")
        assert header == ["t", "pop_e1", "p_forward", "p_backward", "p_loss", "trace"]
        assert np.allclose(data[:, 0], np.linspace(0, 2, 41))
        assert np.max(np.abs(data[:, 1] - np.exp(-10.2 * data[:, 0]))) < 1e-6
        assert data[-1, 4] == pytest.approx(0.2 / 10.2, abs=1e-6)

    @pytest.mark.parametrize("integrator,field", [
        ({"t_max": -1}, "integrator.t_max"),
        ({"t_max": "abc"}, "integrator.t_max"),
        ({"output_points": 1}, "integrator.output_points"),
        ({"output_points": 2.5}, "integrator.output_points"),
    ], ids=["negative-t_max", "string-t_max", "one-output-point", "fractional-output-points"])
    def test_invalid_integrator_exits_one(self, monkeypatch, tmp_path, capsys,
                                          integrator, field):
        cfg = {"scenario": "paradox-emission", "integrator": integrator}
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 1
        assert f"(field: {field})" in capsys.readouterr().err
        assert not (tmp_path / "em.csv").exists()

    @pytest.mark.parametrize("initial_state", [
        [[0.6, 0.0], [0.8000000001, 0.0]],
    ], ids=["norm-off-by-8e-11"])
    def test_invalid_initial_state_exits_one(self, monkeypatch, tmp_path, capsys,
                                             initial_state):
        # the config check and the propagator share one norm tolerance, so a
        # state the propagator would reject is a configuration error
        cfg = dict(preset("paradox-emission").to_dict(), scenario="custom",
                   initial_state=initial_state)
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 1
        err = capsys.readouterr().err
        assert "(field: initial_state)" in err
        assert "Traceback" not in err and "np.float64" not in err

    def test_emission_without_initial_state_rejected(self, monkeypatch, tmp_path, capsys):
        cfg = {
            "scenario": "custom",
            "mode": "emission",
            "emitter": CUSTOM_SCATTER["emitter"],
            "waveguide": CUSTOM_SCATTER["waveguide"],
            "loss": {"isotropic": 0.0},
            "input": CUSTOM_SCATTER["input"],
        }
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json") == 1
        assert "initial_state" in capsys.readouterr().err
