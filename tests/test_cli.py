"""Command line front end: presets, configs, output files, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wgqed
import wgqed.cli
import wgqed.emission
import wgqed.emitter
import wgqed.photonic
from wgqed import ConfigError, UnknownPresetError
from wgqed.cli import PRESET_NAMES, main, parse_config, preset, serialize_config


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def run_cli(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


def run_python(cwd, *argv):
    """Run a fresh interpreter in ``cwd`` that imports this tree's wgqed."""
    # a relative PYTHONPATH entry such as "src" would not resolve in cwd
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )


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

    def test_table_rows_are_the_state_methods(self, monkeypatch, tmp_path):
        # three ground states, so the per-state sums run over several terms
        dipoles = [[[[1, 0], [0, 0.3], [0, 0]], [[0, 0], [1, 0], [0.2, 0]]],
                   [[[0.5, 0], [0, 0], [0, 1]], [[0, 0.4], [0.3, 0], [0, 0]]],
                   [[[0.1, 0], [0.7, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]]
        cfg = {
            "scenario": "custom", "mode": "emission",
            "emitter": {"ground_energies": [0.0, 0.1, 0.2],
                        "excited_energies": [1.0, 1.1], "dipoles": dipoles},
            "waveguide": {"a": 1.0, "v_g": 0.1, "omega": 1.0,
                          "E_f": [[0.8, 0], [0, 0.6], [0, 0]]},
            "loss": {"isotropic": 0.1},
            "input": {"direction": "forward"},
            "initial_state": [[0.6, 0], [0, 0.8]],
            "integrator": {"t_max": 3.0, "output_points": 37, "grid": "linear"},
        }
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 0
        _, data = read_csv(tmp_path / "em.csv")
        model, env, loss, _, state = parse_config(cfg).built
        traj = wgqed.emission.evolve(model, env, loss, state, 3.0, output_points=37)
        expected = [[t, *st.excited_populations(), *st.channel_totals(), st.total_trace()]
                    for t, st in zip(traj.times, traj.states)]
        # 17 significant digits read back to the same doubles
        assert data.tolist() == np.array(expected).tolist()


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

    @pytest.mark.parametrize("cfg", [CUSTOM_SCATTER, {"scenario": "ixi-scan"}],
                             ids=["dark-points", "ixi-scan"])
    def test_table_rows_are_the_sweep_records(self, monkeypatch, tmp_path, cfg):
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        code = run_cli(monkeypatch, tmp_path, "run", "c.json", "--steps", "9", "--out", "s.csv")
        parsed = parse_config(cfg)
        model, env, loss, inp, _ = parsed.built
        thetas = np.linspace(parsed.sweep["start"], parsed.sweep["stop"], 9)
        points = wgqed.polarization_sweep(model, env, loss, inp, thetas)
        assert code == (2 if any(pt.failed for pt in points) else 0)
        expected = [
            [pt.theta] + [np.nan] * (4 * model.n_ground + 1) if pt.failed else
            [pt.theta, *np.stack((pt.result.amplitudes.real, pt.result.amplitudes.imag),
                                 axis=-1).ravel(), pt.result.p_loss]
            for pt in points
        ]
        _, data = read_csv(tmp_path / "s.csv")
        np.testing.assert_array_equal(data, np.array(expected))

    def test_steps_override_above_cap_exits_one(self, monkeypatch, tmp_path, capsys):
        code = run_cli(monkeypatch, tmp_path, "run", "isotropic-scan",
                       "--steps", "100001", "--out", "s.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "(field: sweep.steps)" in err and "[2, 100000]" in err
        assert not (tmp_path / "s.csv").exists()

    def test_grid_caps_are_inclusive(self):
        cfg = parse_config({"scenario": "isotropic-scan",
                            "sweep": dict(preset("isotropic-scan").sweep, steps=100_000)})
        assert cfg.sweep["steps"] == 100_000
        cfg = parse_config({"scenario": "paradox-emission",
                            "integrator": {"output_points": 100_000}})
        assert cfg.integrator["output_points"] == 100_000

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

    def test_dark_single_point_exits_two_without_a_file(self, monkeypatch, tmp_path, capsys):
        # E_f = x and no loss: the y level is dark on resonance
        cfg = dict(CUSTOM_SCATTER)
        del cfg["sweep"]
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", "point.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("wgqed: scattering failed: response matrix is singular")
        assert not (tmp_path / "point.csv").exists()


class TestTwoLevelDiagnostic:
    def test_diagnostic_needs_two_levels_at_parse(self, monkeypatch, tmp_path, capsys):
        # a V emitter has two excited states; the parse names the emitter
        cfg = dict(CUSTOM_SCATTER, mode="diagnostic")
        del cfg["sweep"]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "emitter"
        (tmp_path / "d.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "d.json", "--out", "d.csv") == 1
        assert "(field: emitter)" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

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

    def test_diagnostic_reads_the_outcome_forms(self, monkeypatch, tmp_path):
        # beta_emission is tr(Y rho0) of the one bundle: no time evolution
        calls = {"coupling_bundle": 0, "_propagate": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            for module in (wgqed, wgqed.photonic, wgqed.emission, wgqed.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert run_cli(monkeypatch, tmp_path, "run", "two-level", "--out", "tl.csv") == 0
        assert calls == {"coupling_bundle": 1, "_propagate": 0}


    def test_loss_too_weak_for_the_level_is_counted(self, monkeypatch, tmp_path):
        # a 1e-16 loss on a 1e5 dipole decays at 1e-6 next to the guided 10
        cfg = {"scenario": "custom", "mode": "diagnostic",
               "emitter": {"ground_energies": [0.0], "excited_energies": [1.0],
                           "dipoles": [[[[1e5, 0], [0, 0], [0, 0]]]]},
               "waveguide": dict(CUSTOM_SCATTER["waveguide"], E_f=[[1e-5, 0], [0, 0], [0, 0]]),
               "loss": {"isotropic": 1e-16}, "input": CUSTOM_SCATTER["input"]}
        (tmp_path / "d.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "d.json", "--out", "d.csv") == 0
        header, data = read_csv(tmp_path / "d.csv")
        cols = dict(zip(header, data[0]))
        assert cols["rate_loss"] == pytest.approx(1e-6, rel=1e-12)
        assert cols["beta_rates"] == pytest.approx(10 / (10 + 1e-6), rel=1e-12)
        assert cols["beta_emission"] == pytest.approx(10 / (10 + 1e-6), rel=1e-12)
        assert cols["beta_rates"] < 1.0


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

    def test_csv_values_are_17_significant_digits(self, tmp_path):
        row = [0.1, -0.0, 2.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308,
               float("nan"), float("inf"), -float("inf"), 3]
        columns = [f"c{k}" for k in range(len(row))]
        wgqed.cli._write_table(tmp_path / "t.csv", "csv", "x", columns, [row, row[::-1]])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines == [",".join(columns)] + [
            ",".join("nan" if v != v else format(float(v), ".17g") for v in r)
            for r in (row, row[::-1])
        ]
        wgqed.cli._write_table(tmp_path / "t.json", "json", "x", columns, [row])
        (read,) = json.loads((tmp_path / "t.json").read_text())["rows"]
        assert read[6] is None and read[:6] == row[:6]

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
        ({"input": {"direction": "forward", "ground_index": True, "photon_frequency": 1.0}},
         "o.csv", "input.ground_index"),
        ({"loss": 5}, "o.csv", "loss"),
        ({"output": [1]}, "o.csv", "output"),
        ({"sweep": "theta"}, "o.csv", "sweep"),
        ({"loss": {"isotropic": True}}, "o.csv", "loss.isotropic"),
        ({"loss": {"isotropic": "0.2"}}, "o.csv", "loss.isotropic"),
        ({"loss": {"isotropic": -0.1}}, "o.csv", "loss.isotropic"),
        ({"loss": {"isotropic": float("nan")}}, "o.csv", "loss.isotropic"),
        ({"scenario": []}, "o.csv", "scenario"),
        ({"scenario": 5}, "o.csv", "scenario"),
        ({"scenario": "nope"}, "o.csv", "scenario"),
        ({"sweep": {"parameter": "theta", "start": 0.0, "stop": 1.0, "steps": 100_001}},
         "o.csv", "sweep.steps"),
    ], ids=["out-in-missing-dir", "out-is-directory", "stop-above-pi", "no-start",
            "string-start", "string-photon-frequency", "projection-string-no",
            "projection-integer", "projection-string-true", "boolean-ground-index",
            "loss-not-an-object", "output-not-an-object", "sweep-not-an-object",
            "boolean-isotropic-loss", "string-isotropic-loss", "negative-isotropic-loss",
            "nan-isotropic-loss", "list-scenario", "number-scenario", "unknown-scenario",
            "too-many-steps"])
    def test_invalid_sweep_input_or_output_exits_one(self, monkeypatch, tmp_path, capsys,
                                                     overrides, out, field):
        (tmp_path / "c.json").write_text(json.dumps({"scenario": "ixi-scan", **overrides}))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", out) == 1
        err = capsys.readouterr().err
        assert f"(field: {field})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path,value,field", [
        (["emitter", "dipoles", 0, 0, 0], ["1", 0], "emitter.dipoles"),
        (["waveguide", "E_f", 0], [True, False], "waveguide.E_f"),
        (["loss"], {"tensor": [[["0.2", "0"]] * 3] * 3}, "loss.tensor"),
        (["waveguide", "a"], True, "waveguide.a"),
        (["waveguide", "v_g"], "0.1", "waveguide.v_g"),
        (["waveguide", "omega"], "1", "waveguide.omega"),
        (["emitter", "excited_energies", 1], "1", "emitter.excited_energies"),
        (["emitter", "ground_energies", 0], True, "emitter.ground_energies"),
        (["waveguide", "a"], 10 ** 400, "waveguide.a"),
        (["loss", "isotropic"], 10 ** 400, "loss.isotropic"),
    ], ids=["string-dipole-part", "boolean-field-parts", "string-loss-tensor",
            "boolean-a", "string-v_g", "string-omega", "string-excited-energy",
            "boolean-ground-energy", "integer-a-beyond-float-range",
            "integer-isotropic-loss-beyond-float-range"])
    def test_non_number_in_numeric_field_exits_one(self, monkeypatch, tmp_path, capsys,
                                                   path, value, field):
        # every number of a config is a finite JSON number: no string, bool
        # or integer beyond the float range is converted on the way
        (tmp_path / "c.json").write_text(json.dumps(_custom_sweep(path, value)))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", "o.csv") == 1
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("path", [True, 5, ["o.csv"]])
    def test_non_string_output_path_exits_one(self, monkeypatch, tmp_path, capsys, path):
        (tmp_path / "c.json").write_text(
            json.dumps({"scenario": "two-level", "output": {"path": path}}))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json") == 1
        err = capsys.readouterr().err
        assert "(field: output.path)" in err and "Traceback" not in err

    def test_missing_ground_index_defaults_to_zero(self, monkeypatch, tmp_path):
        inp = {"direction": "forward", "photon_frequency": 1.0}
        for name, given in (("implicit", inp), ("explicit", dict(inp, ground_index=0))):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"scenario": "ixi-scan", "input": given}))
            assert run_cli(monkeypatch, tmp_path, "run", f"{name}.json",
                           "--out", f"{name}.csv") == 0
        assert ((tmp_path / "implicit.csv").read_bytes()
                == (tmp_path / "explicit.csv").read_bytes())

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

    def test_far_detuned_level_is_named_not_dark(self, monkeypatch, tmp_path, capsys):
        # a level at 1e308 only stops taking part: the slices are singular
        # to working precision, but no excited direction is dark
        cfg = _custom_sweep(["emitter", "excited_energies"], [1e308, 1.0])
        (tmp_path / "far.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "far.json", "--out", "f.csv") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line in err:
            assert "condition number" in line and "exceeds 1e+15" in line
            assert "no excited direction is dark" in line and "couplings []" not in line
        _, rows = read_csv(tmp_path / "f.csv")
        assert np.isnan(rows[:, 1:]).all()
        assert run_cli(monkeypatch, tmp_path, "run", "far.json", "--dark-state-projection",
                       "--out", "p.csv") == 0

    def test_module_entry_point(self, tmp_path):
        proc = run_python(tmp_path, "-m", "wgqed.cli", "run", "two-level", "--out", "tl.csv")
        assert proc.returncode == 0
        assert (tmp_path / "tl.csv").exists()

    @pytest.mark.parametrize("scenario", PRESET_NAMES)
    def test_run_does_not_import_numpy_ma(self, tmp_path, scenario):
        # numpy.ma costs a run ~30 ms of imports; np.unique, for one, pulls it in
        script = (
            "import sys, wgqed.cli\n"
            f"code = wgqed.cli.main(['run', {scenario!r}, '--out', 'out.csv'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
            "sys.exit(code)\n"
        )
        proc = run_python(tmp_path, "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out.csv").exists()


class TestBundleReuse:
    @pytest.mark.parametrize("scenario", ["two-level", "paradox-emission"])
    def test_one_coupling_bundle_per_run(self, monkeypatch, tmp_path, scenario):
        # the rates or the default t_max and the propagation share one bundle
        original = wgqed.photonic.coupling_bundle
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (wgqed.photonic, wgqed.emission, wgqed.cli):
            if hasattr(module, "coupling_bundle"):
                monkeypatch.setattr(module, "coupling_bundle", counting)
        assert run_cli(monkeypatch, tmp_path, "run", scenario, "--out", "o.csv") == 0
        assert len(calls) == 1


class TestParseOnce:
    @pytest.mark.parametrize("scenario", PRESET_NAMES)
    def test_one_parse_and_one_model_check_per_run(self, monkeypatch, tmp_path, scenario):
        # flags are folded into the raw config, so one parse builds the model,
        # and the model checks itself once, when it is built; the solvers
        # read its checked dipole array
        calls = {"parse_config": 0, "model_check": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(wgqed.cli, "parse_config",
                            counting("parse_config", wgqed.cli.parse_config))
        monkeypatch.setattr(wgqed.EmitterModel, "__post_init__",
                            counting("model_check", wgqed.EmitterModel.__post_init__))
        assert run_cli(monkeypatch, tmp_path, "run", scenario, "--loss", "0.2",
                       "--out", "o.csv") == 0
        assert calls == {"parse_config": 1, "model_check": 1}


# Values of the wrong type for any field or section of a config.
_ODD_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 2.5, "x", "", [], [1], [[1, 0]], {}, {"a": 1}]
)

# Magnitudes from 1e-300 to 1e300, and the same with either sign.
_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDES).map(lambda p: p[0] * p[1])

# The numeric fields of each section, and those that must be positive.
_NUMERIC = {
    "emitter": ("ground_energies", "excited_energies", "dipoles"),
    "waveguide": ("a", "v_g", "omega", "E_f"),
    "loss": ("isotropic",),
    "input": ("photon_frequency",),
    "integrator": ("t_max",),
}
_POSITIVE = {"a", "omega", "isotropic", "t_max"}


def _draw_magnitudes(draw, value, positive):
    """``value`` with each number in it, or a null, replaced by a drawn
    magnitude or left as it is."""
    if isinstance(value, list):
        return [_draw_magnitudes(draw, v, positive) for v in value]
    if draw(st.booleans()):
        return draw(_MAGNITUDES if positive else _SIGNED)
    return value


@st.composite
def scaled_preset_configs(draw):
    """A preset's canonical JSON with a drawn subset of its numbers replaced
    by magnitudes from 1e-300 to 1e300; turned custom, it may scale the
    emitter and the waveguide too. Every such config is valid."""
    cfg = json.loads(serialize_config(preset(draw(st.sampled_from(PRESET_NAMES)))))
    sections = ["loss", "input", "integrator"]
    if draw(st.booleans()):
        cfg["scenario"] = "custom"
        sections += ["emitter", "waveguide"]
    for section in sections:
        for key in _NUMERIC[section]:
            cfg[section][key] = _draw_magnitudes(draw, cfg[section][key], key in _POSITIVE)
    return cfg


@st.composite
def mutated_preset_configs(draw):
    """A scaled preset config with a drawn sweep length and output grid and
    up to three fields or sections dropped or replaced by a value of
    another type."""
    cfg = draw(scaled_preset_configs())
    if cfg["sweep"] is not None:
        cfg["sweep"]["steps"] = draw(st.integers(-2, 1001))
    cfg["integrator"]["output_points"] = draw(st.integers(-2, 1001))
    for _ in range(draw(st.integers(0, 3))):
        target = cfg
        key = draw(st.sampled_from(sorted(cfg)))
        if draw(st.booleans()) and isinstance(cfg.get(key), dict) and cfg[key]:
            target = cfg[key]
            key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_ODD_VALUES)
    return cfg


def _with(cfg, path, value):
    """A deep copy of ``cfg`` with the field at ``path`` (keys and indices)
    set to ``value``."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = value
    return cfg


# CUSTOM_SCATTER with loss 0.2, so that it runs clean
_CLEAN_SWEEP = dict(CUSTOM_SCATTER, loss={"isotropic": 0.2})


def _custom_sweep(path, value):
    """_CLEAN_SWEEP with the field at ``path`` set to ``value``."""
    return _with(_CLEAN_SWEEP, path, value)


_CUSTOM_EMISSION = dict(
    {key: value for key, value in CUSTOM_SCATTER.items() if key != "sweep"},
    mode="emission", initial_state=[[1, 0], [0, 0]],
)
_LOSS_TENSOR = {"tensor": [[[0, 0.2 if i == j else 0] for j in range(3)] for i in range(3)]}
# every numeric field of a config, with a config that runs clean around it
_NUMERIC_FIELDS = [
    (_CLEAN_SWEEP, ["emitter", "ground_energies", 0]),
    (_CLEAN_SWEEP, ["emitter", "excited_energies", 1]),
    (_CLEAN_SWEEP, ["emitter", "dipoles", 0, 1, 1, 0]),
    (_CLEAN_SWEEP, ["emitter", "dipoles", 0, 0, 2, 1]),
    (_CLEAN_SWEEP, ["waveguide", "a"]),
    (_CLEAN_SWEEP, ["waveguide", "v_g"]),
    (_CLEAN_SWEEP, ["waveguide", "omega"]),
    (_CLEAN_SWEEP, ["waveguide", "E_f", 1, 1]),
    (_CLEAN_SWEEP, ["loss", "isotropic"]),
    (_custom_sweep(["loss"], _LOSS_TENSOR), ["loss", "tensor", 1, 1, 1]),
    (_CLEAN_SWEEP, ["input", "photon_frequency"]),
    (_CLEAN_SWEEP, ["sweep", "start"]),
    (_CLEAN_SWEEP, ["sweep", "stop"]),
    (dict(_CUSTOM_EMISSION, integrator={"t_max": 2.0}), ["integrator", "t_max"]),
    (_CUSTOM_EMISSION, ["initial_state", 0, 0]),
]
_HUGE_DIPOLE_EMITTER = _custom_sweep(["emitter", "dipoles", 0, 0, 0, 0], 1e200)["emitter"]


class TestExitCodeContract:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=mutated_preset_configs())
    def test_mutated_configs_exit_zero_one_or_two(self, tmp_path, cfg):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "fuzz.out")]) in (0, 1, 2)

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=scaled_preset_configs())
    def test_any_magnitude_exits_zero_or_two(self, tmp_path, cfg):
        # the parse accepts every finite number; what overflows is numerical
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "fuzz.out")]) in (0, 2)

    @pytest.mark.parametrize("argv,cfg,code,outcome", [
        (["c.json"], _custom_sweep(["emitter", "dipoles", 0, 0, 0, 0], 1e160), 2, 3),
        (["c.json"], _custom_sweep(["emitter", "dipoles", 0, 0, 0, 0], 1e200), 2, 3),
        (["c.json"], _custom_sweep(["emitter", "excited_energies"], [1e308, 1e308]), 0, 0),
        (["c.json"], _custom_sweep(["input", "photon_frequency"], 1e308), 0, 0),
        (["c.json"], _custom_sweep(["loss", "isotropic"], 1e308), 0, 0),
        (["c.json"], _custom_sweep(["waveguide", "v_g"], 1e-300), 2, 1),
        (["c.json"], dict(_CUSTOM_EMISSION, emitter=_HUGE_DIPOLE_EMITTER), 2,
         "the effective Hamiltonian overflows"),
        (["ixi-scan", "--loss", "1e308"], None, 2, 401),
        (["c.json"], _custom_sweep(["waveguide"], dict(CUSTOM_SCATTER["waveguide"],
                                                       a=1e-300, omega=1e-300)), 2,
         "density-of-states scale a w / (2 |v_g|) is 0.0"),
        (["c.json"], dict(_CUSTOM_EMISSION, integrator={"t_max": 1e300}, emitter=_custom_sweep(
            ["emitter", "excited_energies"], [1e10, 1e10])["emitter"]), 2,
         "H_eff t overflows at the output times"),
        (["c.json"], {"scenario": "custom", "mode": "diagnostic",
                      "emitter": {"ground_energies": [1e308], "excited_energies": [1.0],
                                  "dipoles": [[[[1, 0], [0, 0], [0, 0]]]]},
                      "waveguide": CUSTOM_SCATTER["waveguide"], "loss": {"isotropic": 0.2},
                      "input": dict(CUSTOM_SCATTER["input"], photon_frequency=1e308)}, 2,
         "two-level denominator overflows"),
    ], ids=["dipole-1e160", "dipole-1e200", "excited-energies-1e308",
            "photon-frequency-1e308", "isotropic-loss-1e308", "v_g-1e-300",
            "emission-dipole-1e200", "ixi-scan-loss-1e308", "a-omega-1e-300",
            "emission-t_max-1e300-energies-1e10", "diagnostic-input-energy-overflow"])
    def test_huge_finite_values_are_numerical_outcomes(
            self, monkeypatch, tmp_path, capsys, argv, cfg, code, outcome):
        # each finite value overflows some step of the engine: the run ends
        # in exit 0 or 2, with no traceback and no RuntimeWarning (an error
        # under the test settings). Far off resonance, or swamped by loss,
        # the photon passes. ``outcome`` is the number of failed sweep rows,
        # or the failure of a run that writes no file.
        if cfg is not None:
            (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", *argv, "--out", "o.csv") == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert all(line.startswith("wgqed: ") for line in err.splitlines())
        if isinstance(outcome, str):
            assert outcome in err
            assert not (tmp_path / "o.csv").exists()
            return
        header, data = read_csv(tmp_path / "o.csv")
        failed = np.isnan(data[:, 1:]).all(axis=1)
        assert failed.sum() == outcome and np.isfinite(data[~failed]).all()
        if code == 0:
            np.testing.assert_allclose(data[:, 1:3], [[1.0, 0.0]] * len(data), atol=1e-12)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("cfg,path", _NUMERIC_FIELDS,
                             ids=[".".join(map(str, path)) for _, path in _NUMERIC_FIELDS])
    def test_non_finite_json_number_exits_one(self, monkeypatch, tmp_path, capsys,
                                              cfg, path, value):
        # Python's json reads NaN, Infinity and -Infinity; each is a config
        # error wherever it stands, and no output is written
        text = json.dumps(_with(cfg, path, value))
        assert ("NaN" if value != value else "Infinity") in text
        (tmp_path / "c.json").write_text(text)
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", "o.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("wgqed: configuration error") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_clean_configs_around_numeric_fields_run(self, monkeypatch, tmp_path):
        # the configs the non-finite test starts from are valid as they are
        for k, (cfg, _) in enumerate(_NUMERIC_FIELDS):
            (tmp_path / f"{k}.json").write_text(json.dumps(cfg))
            assert run_cli(monkeypatch, tmp_path, "run", f"{k}.json", "--out", f"{k}.csv") == 0

    @pytest.mark.parametrize("cfg,mode", [
        (dict(_CUSTOM_EMISSION, emitter=_HUGE_DIPOLE_EMITTER), "emission"),
        ({key: value for key, value in CUSTOM_SCATTER.items() if key != "sweep"},
         "scattering"),
        (CUSTOM_SCATTER, "scattering"),
        ({"scenario": "custom", "mode": "diagnostic",
          "emitter": {"ground_energies": [0.0], "excited_energies": [1.0],
                      "dipoles": [[[[1e200, 0], [0, 0], [0, 0]]]]},
          "waveguide": CUSTOM_SCATTER["waveguide"], "loss": {"isotropic": 0.2},
          "input": CUSTOM_SCATTER["input"]}, "diagnostic"),
    ], ids=["emission", "single-point", "sweep", "diagnostic"])
    def test_run_returns_two_on_numerical_failure(self, tmp_path, capsys, cfg, mode):
        config = parse_config(dict(cfg, output={"path": str(tmp_path / "o.csv")}))
        assert wgqed.cli.run(config) == 2
        assert capsys.readouterr().err.startswith(f"wgqed: {mode} failed: ")


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
        ({"output_points": 100_001}, "integrator.output_points"),
        ({"output_points": 10**8}, "integrator.output_points"),
    ], ids=["negative-t_max", "string-t_max", "one-output-point", "fractional-output-points",
            "too-many-output-points", "1e8-output-points"])
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

    def test_huge_t_max_gives_exact_long_time_split(self, monkeypatch, tmp_path, capsys):
        # the last sample lies ~1e300 lifetimes out: the excited block has
        # fully decayed and the accumulators hold the exact totals
        cfg = {"scenario": "paradox-emission", "integrator": {"t_max": 1e300}}
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 0
        assert "Traceback" not in capsys.readouterr().err
        header, data = read_csv(tmp_path / "em.csv")
        last = dict(zip(header, data[-1]))
        assert last["p_forward"] == pytest.approx(9 / 50, abs=1e-12)
        assert last["p_backward"] == pytest.approx(41 / 50, abs=1e-12)
        assert last["trace"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("integrator", [
        {"t_max": 1e-320},
        {"t_max": 1e-321, "grid": "linear"},
    ], ids=["geometric-first-time-0", "linear-equal-times"])
    def test_subnormal_t_max_exits_two(self, monkeypatch, tmp_path, capsys, integrator):
        # the parse takes any finite positive t_max, but these round the
        # output grid to equal times: a numerical failure, not a traceback
        cfg = {"scenario": "paradox-emission", "integrator": integrator}
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("wgqed: emission failed: integrator.t_max ")
        assert "Traceback" not in err
        assert not (tmp_path / "em.csv").exists()

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
