"""Command line front end: presets, configs, output files, exit codes."""

import csv
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
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
from wgqed import ConfigError, UnknownPresetError, coupling_bundle
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


_THETA_SWEEP = {"parameter": "theta", "start": 0.0, "stop": 1.0, "steps": 3}

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

    def test_readme_field_table_is_the_schema(self):
        # the README's config table lists every field of the schema, in its order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| field | must be |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        names = [name for row in table.splitlines()
                 for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert names == list(wgqed.cli._FIELDS)

    def test_readme_quotes_every_public_name(self):
        # every name of wgqed.__all__ appears in backticks outside the code blocks
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        prose = re.sub(r"^```.*?^```", "", readme, flags=re.S | re.M)
        quoted = set(re.findall(r"`([^`]+)`", prose))
        public = set(wgqed.__all__) - {"__version__"}
        assert sorted(public - quoted) == []

    def test_readme_module_paths_resolve(self):
        # every `wgqed.<module>[.<name>]` the README quotes names what exists
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paths = set(re.findall(r"`wgqed\.(\w+)(?:\.(\w+))?`", readme))
        assert ("cli", "_FIELDS") in paths and ("scattering", "_scatter_fields") in paths
        for module, name in sorted(paths):
            owner = importlib.import_module(f"wgqed.{module}")
            if name:
                getattr(owner, name)

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

    def test_trace_column_is_the_checked_total(self, monkeypatch, tmp_path):
        # the table writes the total the propagator checked against
        # TRACE_DRIFT_TOL and computes no trace of its own
        totals = []
        original = wgqed.cli._propagate

        def keeping(*args, **kwargs):
            out = original(*args, **kwargs)
            totals.append(out[3])
            return out

        monkeypatch.setattr(wgqed.cli, "_propagate", keeping)
        assert run_cli(monkeypatch, tmp_path, "run", "paradox-emission", "--out", "pe.csv") == 0
        _, data = read_csv(tmp_path / "pe.csv")
        [total] = totals
        assert not total.flags.writeable
        assert data[:, -1].tolist() == total.tolist()

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
        expected = [[t, *st.excited_block.diagonal().real, *st.ground_mode_probs.sum(axis=0),
                     st.excited_block.trace().real + st.ground_mode_probs.sum()]
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

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("sweep", [
        None, {"parameter": "theta", "start": 0.0, "stop": 1.0, "steps": 3},
    ], ids=["single-point", "sweep"])
    def test_t_and_r_columns_follow_the_input_mode(self, monkeypatch, tmp_path,
                                                   direction, sweep):
        cfg = {"scenario": "isotropic-scan", "sweep": sweep,
               "input": {"direction": direction, "photon_frequency": 1.0}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", "o.csv") == 0
        header, data = read_csv(tmp_path / "o.csv")
        model, env, loss, inp, _ = parse_config(cfg).built
        if sweep is None:
            results = [wgqed.scatter(model, env, loss, inp)]
        else:
            points = wgqed.polarization_sweep(model, env, loss, inp, np.linspace(0, 1, 3))
            results = [pt.result for pt in points]
        for row, res in zip(data, results):
            cols = dict(zip(header, row))
            assert complex(cols["re_t"], cols["im_t"]) == res.transmission
            assert complex(cols["re_r"], cols["im_r"]) == res.reflection
            assert cols["p_loss"] == res.p_loss
        assert len(data) == len(results)

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

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_amplitudes_follow_the_input_direction(self, monkeypatch, tmp_path, direction):
        # a circular dipole in an elliptical field couples to the two
        # directions unequally; the rates stay those of the lab frame
        cfg = {"scenario": "custom", "mode": "diagnostic",
               "emitter": {"ground_energies": [0.0], "excited_energies": [1.0],
                           "dipoles": [[[[0.5 ** 0.5, 0], [0, 0.5 ** 0.5], [0, 0]]]]},
               "waveguide": dict(CUSTOM_SCATTER["waveguide"], E_f=[[0.6, 0], [0, 0.8], [0, 0]]),
               "loss": {"isotropic": 0.2},
               "input": {"direction": direction, "photon_frequency": 1.0}}
        (tmp_path / "d.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "d.json", "--out", "d.csv") == 0
        header, data = read_csv(tmp_path / "d.csv")
        cols = dict(zip(header, data[0]))
        model, env, loss, inp, _ = parse_config(cfg).built
        res = wgqed.scatter(model, env, loss, inp)
        assert complex(cols["re_t"], cols["im_t"]) == pytest.approx(res.transmission, abs=1e-12)
        assert complex(cols["re_r"], cols["im_r"]) == pytest.approx(res.reflection, abs=1e-12)
        assert cols["p_loss"] == pytest.approx(res.p_loss, abs=1e-12)
        rates = wgqed.coupling_bundle(model, env, loss).channel_decay_rates()
        assert (cols["rate_forward"], cols["rate_backward"]) == (rates["forward"][0],
                                                                  rates["backward"][0])
        assert cols["rate_forward"] > 10 * cols["rate_backward"]

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


    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("frequency", [1.0, 0.93], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("loss", ["lossless", "isotropic", "tensor"])
    def test_amplitude_columns_are_the_scattering_table(self, monkeypatch, tmp_path,
                                                        direction, frequency, loss):
        # the diagnostic's t, r and p_loss are the single-point scattering
        # table's columns, bit for bit
        rng = np.random.default_rng(
            [25, direction == "backward", int(frequency * 100), len(loss)])
        pairs = lambda n: rng.normal(size=(n, 2)).tolist()
        imag = rng.normal(size=(3, 3))
        tensor = rng.normal(size=(3, 3)) * 0.1 + 0j
        tensor = tensor + tensor.T + 0.1j * (imag @ imag.T)
        cfg = {"scenario": "custom", "mode": "diagnostic",
               "emitter": {"ground_energies": [0.0], "excited_energies": [1.0],
                           "dipoles": [[pairs(3)]]},
               "waveguide": dict(CUSTOM_SCATTER["waveguide"], E_f=pairs(3)),
               "loss": {"lossless": {"isotropic": 0.0},
                        "isotropic": {"isotropic": float(rng.uniform(0.01, 0.5))},
                        "tensor": {"tensor": np.stack((tensor.real, tensor.imag),
                                                      axis=-1).tolist()}}[loss],
               "input": {"direction": direction, "photon_frequency": frequency}}
        (tmp_path / "d.json").write_text(json.dumps(cfg))
        (tmp_path / "s.json").write_text(json.dumps(dict(cfg, mode="scattering")))
        assert run_cli(monkeypatch, tmp_path, "run", "d.json", "--out", "d.csv") == 0
        assert run_cli(monkeypatch, tmp_path, "run", "s.json", "--out", "s.csv") == 0
        diagnostic = (tmp_path / "d.csv").read_text().splitlines()
        scattering = (tmp_path / "s.csv").read_text().splitlines()
        assert [line.split(",")[:5] for line in diagnostic] == [
            line.split(",") for line in scattering]

    @pytest.mark.parametrize("projection", [False, True])
    def test_dark_state_projection_reaches_the_diagnostic(self, monkeypatch, tmp_path,
                                                          capsys, projection):
        # the coupling squares to 0 against a nonzero input: a dark level on
        # resonance, which only the projection solves
        cfg = {"scenario": "custom", "mode": "diagnostic",
               "emitter": {"ground_energies": [0.0], "excited_energies": [1.0],
                           "dipoles": [[[[1e-170, 0], [0, 0], [0, 0]]]]},
               "waveguide": CUSTOM_SCATTER["waveguide"], "loss": {"isotropic": 0.0},
               "input": CUSTOM_SCATTER["input"]}
        (tmp_path / "d.json").write_text(json.dumps(cfg))
        flags = ["--dark-state-projection"] if projection else []
        code = run_cli(monkeypatch, tmp_path, "run", "d.json", *flags, "--out", "d.csv")
        if not projection:
            assert code == 2
            assert "dark excited eigenvector" in capsys.readouterr().err
            assert not (tmp_path / "d.csv").exists()
            return
        assert code == 0
        _, data = read_csv(tmp_path / "d.csv")
        assert data[0, :4].tolist() == [1.0, 0.0, 0.0, 0.0]

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

    @pytest.mark.parametrize("kind,name", [("directory", "ixi-scan"), ("file", "two-level")])
    def test_preset_name_runs_the_preset(self, monkeypatch, tmp_path, capsys, kind, name):
        # a file or directory named after a preset does not shadow the
        # preset; a path to it is still read
        (tmp_path / "clean").mkdir()
        assert run_cli(monkeypatch, tmp_path / "clean", "run", name, "--out", "o.csv") == 0
        if kind == "directory":
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text("not json")
        assert run_cli(monkeypatch, tmp_path, "run", name, "--out", "o.csv") == 0
        assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "clean" / "o.csv").read_bytes()
        assert run_cli(monkeypatch, tmp_path, "run", f"./{name}", "--out", "p.csv") == 1
        err = capsys.readouterr().err
        assert ("cannot read config file" if kind == "directory" else "not valid JSON") in err
        assert not (tmp_path / "p.csv").exists()

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
        (dict(CUSTOM_SCATTER, initial_state=[[1, 0], [0, 0]]), "o.csv", "initial_state"),
    ], ids=["out-in-missing-dir", "out-is-directory", "stop-above-pi", "no-start",
            "string-start", "string-photon-frequency", "projection-string-no",
            "projection-integer", "projection-string-true", "boolean-ground-index",
            "loss-not-an-object", "output-not-an-object", "sweep-not-an-object",
            "boolean-isotropic-loss", "string-isotropic-loss", "negative-isotropic-loss",
            "nan-isotropic-loss", "list-scenario", "number-scenario", "unknown-scenario",
            "too-many-steps", "initial-state-in-scattering"])
    def test_invalid_sweep_input_or_output_exits_one(self, monkeypatch, tmp_path, capsys,
                                                     overrides, out, field):
        (tmp_path / "c.json").write_text(json.dumps({"scenario": "ixi-scan", **overrides}))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", out) == 1
        err = capsys.readouterr().err
        assert f"(field: {field})" in err
        assert "Traceback" not in err
        assert not (tmp_path / out).is_file()

    @pytest.mark.parametrize("argv,message", [
        (["run", "ixi-scan", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["run", "ixi-scan", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
        (["run", "ixi-scan", "--loss", "abc"], "argument --loss: invalid float value: 'abc'"),
        (["run"], "the following arguments are required: scenario"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-format", "steps-not-an-integer", "loss-not-a-number", "no-scenario",
            "no-command"])
    def test_command_line_fault_exits_one(self, monkeypatch, tmp_path, capsys, argv, message):
        # argparse's faults are configuration errors: main returns 1, and
        # exit 2 stays reserved for numerical failure
        assert run_cli(monkeypatch, tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("wgqed: configuration error: ") and message in err
        assert "usage:" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, monkeypatch, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(monkeypatch, tmp_path, *argv)
        assert exc.value.code == 0
        assert "usage: wgqed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["two-level", "--out", ""], ["c.json"]],
                             ids=["flag", "config"])
    def test_empty_output_path_exits_one(self, monkeypatch, tmp_path, capsys, argv):
        # only a null path takes the default <scenario>.<format>
        (tmp_path / "c.json").write_text(json.dumps(
            {"scenario": "two-level", "output": {"path": ""}}))
        assert run_cli(monkeypatch, tmp_path, "run", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("wgqed: configuration error (field: output.path)")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("source,argv,field", [
        (None, ["two-level", "--steps", "5"], "sweep"),
        ("[1, 2]", ["c.json"], None),
        ("directory", ["c.json"], None),
        # a diagnostic or an emission run would ignore a sweep
        *((json.dumps({"scenario": name, "sweep": _THETA_SWEEP}), ["c.json", *flags], "sweep")
          for name in ("two-level", "paradox-emission") for flags in ([], ["--steps", "7"])),
    ], ids=["steps-without-sweep", "config-not-an-object", "config-is-a-directory",
            "sweep-in-diagnostic", "sweep-and-steps-in-diagnostic", "sweep-in-emission",
            "sweep-and-steps-in-emission"])
    def test_unusable_config_source_exits_one(self, monkeypatch, tmp_path, capsys,
                                              source, argv, field):
        if source == "directory":
            (tmp_path / "c.json").mkdir()
        elif source is not None:
            (tmp_path / "c.json").write_text(source)
        assert run_cli(monkeypatch, tmp_path, "run", *argv, "--out", "o.csv") == 1
        err = capsys.readouterr().err
        assert (f"(field: {field})" in err) if field else "(field:" not in err
        assert "Traceback" not in err and "configuration error" in err
        assert not (tmp_path / "o.csv").exists()

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

    def test_isotropic_emitter_fails_every_point_or_projects_to_the_v_system(
            self, monkeypatch, tmp_path, capsys):
        # the J = 0 -> 1 emitter, lossless: its z level is dark at every theta
        v_system = _with(CUSTOM_SCATTER, ["sweep"],
                         {"parameter": "theta", "start": 0.0, "stop": np.pi, "steps": 41})
        isotropic = _with(v_system, ["emitter", "excited_energies"], [1.0, 1.0, 1.0])
        isotropic["emitter"]["dipoles"][0].append([[0, 0], [0, 0], [1, 0]])
        for name, cfg in (("iso", isotropic), ("v", v_system)):
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "iso.json", "--out", "i.csv") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 41
        assert all(line.startswith("wgqed: scattering failed: sweep point theta=")
                   for line in lines)
        # the couplings are .3e numbers, not numpy's array print
        assert ("dark excited eigenvector(s) with couplings [0.000e+00, 0.000e+00] "
                "decouple") in lines[0]
        number = r"-?\d\.\d{3}e[+-]\d{2}"
        assert all(re.search(rf"couplings \[{number}(, {number})*\] decouple", line)
                   for line in lines)
        _, rows = read_csv(tmp_path / "i.csv")
        assert len(rows) == 41 and np.isnan(rows[:, 1:]).all()
        for name in ("iso", "v"):
            assert run_cli(monkeypatch, tmp_path, "run", f"{name}.json",
                           "--dark-state-projection", "--out", f"{name}.csv") == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "iso.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()

    def test_warnings_are_the_runs_own_lines(self, tmp_path):
        # an ill-conditioned response warns; the run prints the warning as
        # its own line, not Python's, and -W error makes no traceback of it
        runs = [run_python(tmp_path, *filters, "-m", "wgqed.cli", "run", "isotropic-scan",
                           "--loss", "1e-13", "--out", f"{name}.csv")
                for name, filters in (("default", []), ("error", ["-W", "error"]))]
        for proc in runs:
            assert proc.returncode == 0
            lines = proc.stderr.splitlines()
            assert lines and all(line.startswith("wgqed: scattering warning: response "
                                                 "matrix condition number ") for line in lines)
            assert "Traceback" not in proc.stderr and "cli.py:" not in proc.stderr
        assert runs[0].stderr == runs[1].stderr
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "error.csv").read_bytes()

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

    @pytest.mark.parametrize("argv, size, code", [
        (["point.json"], 1, 0),
        (["point.json", "--loss", "0"], 1, 2),
        (["isotropic-scan"], 401, 0),
        (["isotropic-scan", "--loss", "0"], 401, 2),
        (["ixi-scan", "--steps", "33"], 33, 0),
        (["two-level"], 1, 0),
    ], ids=["point", "singular-point", "sweep", "failing-sweep", "ixi-sweep", "diagnostic"])
    def test_one_engine_call_per_scattering_run(self, monkeypatch, tmp_path, capsys,
                                                argv, size, code):
        # a single point is a stack of one: the table reads the engine's
        # arrays, and no record is built; the diagnostic's amplitudes come
        # from the engine, not from the closed form
        assert not hasattr(wgqed.cli, "scatter")
        assert not hasattr(wgqed.cli, "polarization_sweep")
        assert not hasattr(wgqed.cli, "two_level_closed_form")
        original = wgqed.cli._scatter_fields
        stacks = []

        def counting(*args):
            stacks.append(len(args[4]))
            return original(*args)

        monkeypatch.setattr(wgqed.cli, "_scatter_fields", counting)
        cfg = dict(CUSTOM_SCATTER, loss={"isotropic": 0.2})
        del cfg["sweep"]
        (tmp_path / "point.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", *argv, "--out", "o.csv") == code
        assert stacks == [size]
        # failed sweep points are named in grid order
        thetas = [float(m) for m in re.findall(r"theta=(\S+):", capsys.readouterr().err)]
        assert thetas == sorted(thetas) and len(thetas) == (3 if size == 401 and code else 0)


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
        monkeypatch.setattr(wgqed.EmitterModel, "__init__",
                            counting("model_check", wgqed.EmitterModel.__init__))
        assert run_cli(monkeypatch, tmp_path, "run", scenario, "--loss", "0.2",
                       "--out", "o.csv") == 0
        assert calls == {"parse_config": 1, "model_check": 1}

    @pytest.mark.parametrize("argv", [
        *([name] for name in PRESET_NAMES),
        ["preset.json"],
        ["custom.json"],
        ["two-level", "--loss", "0.1"],
        ["ixi-scan", "--steps", "9"],
        ["two-level", "--out", "o.csv"],
        ["two-level", "--format", "json"],
        ["isotropic-scan", "--dark-state-projection"],
    ], ids=[*PRESET_NAMES, "preset-file", "custom-file", "loss", "steps", "out", "format",
            "dark-state-projection"])
    def test_one_expansion_and_one_decomposition_per_run(self, monkeypatch, tmp_path, argv):
        # main hands the raw config and its flags to one parse, which expands
        # the preset once; the emission table decomposes H_eff once, for the
        # default horizon, the propagation and the outcome forms, and the
        # two-level diagnostic once, for its outcome forms, which take no
        # SVD: the one SVD of a run without a sweep is the scattering gate's
        calls = {"_expand": 0, "parse_config": 0, "eig": 0, "svd": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for module, name in ((wgqed.cli, "_expand"), (wgqed.cli, "parse_config"),
                             (np.linalg, "eig"), (np.linalg, "svd")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        (tmp_path / "preset.json").write_text(json.dumps(
            {"scenario": "paradox-emission", "integrator": {"grid": "linear"}}))
        (tmp_path / "custom.json").write_text(json.dumps(
            dict(CUSTOM_SCATTER, loss={"isotropic": 0.2})))
        assert run_cli(monkeypatch, tmp_path, "run", *argv) == 0
        emission = argv[0] in ("paradox-emission", "preset.json")
        single_point = argv[0] in ("two-level", "custom.json")    # no sweep
        assert calls == {"_expand": 1, "parse_config": 1,
                         "eig": int(emission or argv[0] == "two-level"),
                         "svd": int(single_point)}


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


_ROW = CUSTOM_SCATTER["emitter"]["dipoles"][0]
_TENSOR_SWEEP = _custom_sweep(["loss"], _LOSS_TENSOR)
# configs that each field's rule, or the constructor it feeds, rejects
_FAULTS = [
    (_custom_sweep(["waveguide", "a"], -1), "waveguide.a"),
    (_custom_sweep(["waveguide", "omega"], 0), "waveguide.omega"),
    (_custom_sweep(["waveguide", "v_g"], 0), "waveguide.v_g"),
    (_custom_sweep(["waveguide", "E_f"], [[1, 0], [0, 0], [0, 0], [0, 0]]), "waveguide.E_f"),
    (_custom_sweep(["waveguide", "E_f"], 5), "waveguide.E_f"),
    (_custom_sweep(["emitter", "ground_energies"], []), "emitter.ground_energies"),
    (_custom_sweep(["emitter", "excited_energies"], []), "emitter.excited_energies"),
    (_custom_sweep(["emitter", "dipoles"], [_ROW, _ROW]), "emitter.dipoles"),
    (_custom_sweep(["emitter", "dipoles"], [[5]]), "emitter.dipoles"),
    (_with(_TENSOR_SWEEP, ["loss", "tensor"], [[[0, 0.2], [0, 0]], [[0, 0], [0, 0.2]]]),
     "loss.tensor"),
    (_with(_TENSOR_SWEEP, ["loss", "tensor", 0, 1], [0.1, 0]), "loss.tensor"),
    (_with(_TENSOR_SWEEP, ["loss", "tensor", 2, 2], [0, -0.5]), "loss.tensor"),
    (_with(_TENSOR_SWEEP, ["loss", "tensor"], 5), "loss.tensor"),
    (dict(_CUSTOM_EMISSION, initial_state=5), "initial_state"),
]
_FAULT_IDS = ["negative-a", "zero-omega", "zero-v_g", "four-field-components",
              "field-not-an-array", "no-ground-energy", "no-excited-energy",
              "two-dipole-rows-for-one-ground-state", "dipole-row-of-a-number",
              "2x2-loss-tensor", "non-symmetric-loss-tensor", "non-passive-loss-tensor",
              "loss-tensor-not-an-array", "initial-state-not-an-array"]


class TestExitCodeContract:
    @pytest.mark.parametrize("cfg,field", _FAULTS, ids=_FAULT_IDS)
    def test_each_fault_is_named(self, monkeypatch, tmp_path, capsys, cfg, field):
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "c.json", "--out", "o.csv") == 1
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("files,argv", [
        ({"deep.json": b"[" * 100_000 + b"]" * 100_000}, ["deep.json"]),
        ({"big.json": b'{"scenario": "two-level", "loss": {"isotropic": 1'
                      + b"0" * 5000 + b"}}"}, ["big.json"]),
        ({"latin.json": '{"scenario": "two-l\xe9vel"}'.encode("latin-1")}, ["latin.json"]),
        ({}, ["x" * 300]),
        ({"nul.json": b'{"scenario": "two-level", "output": {"path": "o\\u0000.csv"}}'},
         ["nul.json"]),
        ({"dir.json/x": b""}, ["dir.json"]),
        ({"list.json": b"[1]"}, ["list.json"]),
        ({"ragged.json": json.dumps(dict(CUSTOM_SCATTER, emitter=dict(
            CUSTOM_SCATTER["emitter"], dipoles=[[[[1, 0], [0, 0], [0, 0]]]]))).encode()},
         ["ragged.json"]),
        ({}, ["two-level", "--steps", "5"]),
    ], ids=["json-deeper-than-the-recursion-limit", "integer-of-5000-digits", "not-utf-8",
            "name-longer-than-the-os-allows", "nul-in-output-path", "directory-as-config",
            "config-not-an-object", "ragged-custom-dipoles", "steps-without-a-sweep"])
    def test_bad_config_source_exits_one_without_a_traceback(self, tmp_path, files, argv):
        for name, content in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(content)
        before = sorted(tmp_path.rglob("*"))
        proc = run_python(tmp_path, "-m", "wgqed.cli", "run", *argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("wgqed: configuration error")
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.rglob("*")) == before    # no output file

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
         "response matrix overflows"),
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
        [[1.0, 0.0]],
    ], ids=["norm-off-by-8e-11", "one-amplitude-for-two-levels"])
    def test_invalid_initial_state_exits_one(self, monkeypatch, tmp_path, capsys,
                                             initial_state):
        # the config check and the propagator share one norm tolerance, so a
        # state the propagator would reject is a configuration error
        cfg = dict(asdict(preset("paradox-emission")), scenario="custom",
                   initial_state=initial_state)
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 1
        err = capsys.readouterr().err
        assert "(field: initial_state)" in err
        assert "Traceback" not in err and "np.float64" not in err

    def test_huge_initial_state_prints_only_the_configuration_error(self, tmp_path):
        # a fresh interpreter, with the default warning filters, would print
        # an overflow in the norm check before the error
        cfg = dict(asdict(preset("paradox-emission")), scenario="custom",
                   initial_state=[[1e308, 0], [0, 0]])
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        proc = run_python(tmp_path, "-m", "wgqed.cli", "run", "em.json", "--out", "em.csv")
        assert proc.returncode == 1
        assert proc.stderr == ("wgqed: configuration error (field: initial_state): "
                               "initial_state norm 1e+308 differs from 1 beyond 1e-12\n")
        assert not (tmp_path / "em.csv").exists()

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

    def test_two_point_geometric_grid_ends_at_the_horizon(self, monkeypatch, tmp_path):
        # the default grid is geometric: its two times are 0 and the default
        # horizon, 20 lifetimes of the rate 2, where the split is 9/50, 41/50
        cfg = {"scenario": "paradox-emission", "integrator": {"output_points": 2}}
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 0
        header, data = read_csv(tmp_path / "em.csv")
        assert data[:, 0].tolist() == [0.0, pytest.approx(10.0)]
        last = dict(zip(header, data[-1]))
        assert last["p_forward"] == pytest.approx(9 / 50, abs=1e-8)
        assert last["p_backward"] == pytest.approx(41 / 50, abs=1e-8)

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
        assert capsys.readouterr().err == (
            f"wgqed: emission failed: integrator.t_max {integrator['t_max']!r} is too small "
            "for 250 strictly increasing output times\n")
        assert not (tmp_path / "em.csv").exists()

    @pytest.mark.parametrize("n", [2, 37, 250])
    @pytest.mark.parametrize("t_max", [None, 3.0, 1e300, 1e-300])
    @pytest.mark.parametrize("grid", ["linear", "geometric"])
    def test_time_column_is_the_grid_to_the_bit(self, monkeypatch, tmp_path, grid, t_max, n):
        cfg = {"scenario": "paradox-emission",
               "integrator": {"t_max": t_max, "output_points": n, "grid": grid}}
        (tmp_path / "em.json").write_text(json.dumps(cfg))
        assert run_cli(monkeypatch, tmp_path, "run", "em.json", "--out", "em.csv") == 0
        if t_max is None:    # the default horizon, 20 lifetimes of the slowest mode
            model, env, loss, _, state = preset("paradox-emission").built
            t_max = wgqed.emission._propagate(coupling_bundle(model, env, loss), state)[0][-1]
        # a geometric grid of two times is 0 and t_max, as np.geomspace(a, b, 1) is [a]
        expected = (np.linspace(0.0, t_max, n) if grid == "linear" or n == 2 else
                    np.concatenate(([0.0], np.geomspace(t_max * 5e-5, t_max, n - 1))))
        _, data = read_csv(tmp_path / "em.csv")
        assert data[:, 0].tobytes() == expected.tobytes()

    def test_horizon_and_grid_live_in_the_propagator(self):
        for name in ("_modes", "_horizon", "default_t_max"):
            assert not hasattr(wgqed.cli, name)
            assert not hasattr(wgqed.emission, name)
        assert not hasattr(wgqed, "default_t_max")
        assert "default_t_max" not in wgqed.__all__

    @pytest.mark.parametrize("argv,source", [
        (["paradox-emission", "--dark-state-projection"], None),
        (["p.json"], {"scenario": "paradox-emission", "dark_state_projection": True}),
        (["c.json"], dict(asdict(preset("paradox-emission")), scenario="custom",
                          dark_state_projection=True)),
    ], ids=["flag", "preset-file", "custom-file"])
    def test_dark_state_projection_is_refused(self, monkeypatch, tmp_path, capsys,
                                              argv, source):
        # emission solves no response, so the flag would change nothing
        if source is not None:
            (tmp_path / argv[0]).write_text(json.dumps(source))
        assert run_cli(monkeypatch, tmp_path, "run", *argv, "--out", "em.csv") == 1
        assert capsys.readouterr().err == (
            "wgqed: configuration error (field: dark_state_projection): dark_state_projection "
            "is only valid for scattering and diagnostic scenarios\n")
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
