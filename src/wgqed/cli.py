"""Command line front end: scenario presets, JSON configs, sweep
orchestration, and deterministic CSV/JSON emission.

Usage::

    wgqed run <preset|config.json> [--loss X] [--out PATH]
              [--format csv|json] [--dark-state-projection] [--steps N]

Presets: ``paradox-emission`` (time-resolved decay of a V emitter prepared in
a direction-selective superposition), ``isotropic-scan`` and ``ixi-scan``
(polarization sweeps of the isotropically polarizable V system and of the
four-level crossed-dipole system), ``two-level`` (matched linear dipole
diagnostic with rate and guided-fraction summary).

Emission scenarios take an ``integrator`` block (``t_max``, ``output_points``,
``grid``) that only sets the output time grid: the propagation itself is
exact, with no step size or tolerance to choose.

Exit codes: 0 success, 1 configuration error (including an output path that
cannot be written), 2 numerical failure. A sweep is solved as one batch; a
point that fails is written as a row of ``nan`` and named on stderr, and the
run exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .emitter import EmitterModel, ExcitedSuperposition, validate
from .emission import INITIAL_NORM_TOL, default_t_max, evolve
from .errors import ConfigError, UnknownPresetError, WgqedError
from .photonic import LossModel, WaveguideEnv, coupling_bundle
from .scattering import (
    MODES,
    ScatterInput,
    polarization_sweep,
    scatter,
    two_level_closed_form,
)

PRESET_NAMES = ("paradox-emission", "isotropic-scan", "ixi-scan", "two-level")
MODES_OF_OPERATION = ("emission", "scattering", "diagnostic")
FLOAT_FMT = ".17g"

# Keys a preset-based config file may override; emitter structure stays owned
# by the preset (exactly one of preset or custom emitter).
_PRESET_OVERRIDABLE = {
    "loss", "input", "sweep", "integrator", "output", "dark_state_projection",
}

_INTEGRATOR_DEFAULTS = {"t_max": None, "output_points": 250, "grid": "geometric"}

_SCHEMA_KEYS = {
    "scenario", "mode", "emitter", "initial_state", "waveguide", "loss",
    "input", "sweep", "integrator", "output", "dark_state_projection",
}


def _complex_pair(value, fieldname: str) -> complex:
    try:
        re, im = value
        return complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"{fieldname}: expected a [re, im] pair, got {value!r}", field=fieldname
        ) from exc


def _finite_number(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(
                f"invalid schema field {context}{key!r}", field=f"{context}{key}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario description in canonical plain-data form."""

    scenario: str
    mode: str
    emitter: dict
    waveguide: dict
    loss: dict
    input: dict
    output: dict
    integrator: dict
    sweep: dict | None = None
    initial_state: list | None = None
    dark_state_projection: bool = False

    # -- construction of domain objects -----------------------------------

    def build_model(self) -> EmitterModel:
        em = self.emitter
        dipoles = [
            [[_complex_pair(c, "emitter.dipoles") for c in vec] for vec in row]
            for row in em["dipoles"]
        ]
        model = EmitterModel.from_arrays(
            em["ground_energies"], em["excited_energies"], dipoles
        )
        validate(model)
        return model

    def build_env(self) -> WaveguideEnv:
        wg = self.waveguide
        E_f = [_complex_pair(c, "waveguide.E_f") for c in wg["E_f"]]
        return WaveguideEnv(
            E_f=E_f, a=wg["a"], v_g=wg["v_g"], omega=wg["omega"],
        )

    def build_loss(self) -> LossModel:
        if "isotropic" in self.loss:
            return LossModel.isotropic(float(self.loss["isotropic"]))
        tensor = [
            [_complex_pair(c, "loss.tensor") for c in row]
            for row in self.loss["tensor"]
        ]
        return LossModel.from_array(tensor)

    def build_input(self) -> ScatterInput:
        return ScatterInput(
            direction=self.input["direction"],
            ground_index=int(self.input["ground_index"]),
            photon_frequency=self.input.get("photon_frequency"),
        )

    def build_initial(self, n_excited: int) -> ExcitedSuperposition:
        if self.initial_state is None:
            raise ConfigError(
                "emission scenarios need an initial_state", field="initial_state"
            )
        amps = [_complex_pair(c, "initial_state") for c in self.initial_state]
        if len(amps) != n_excited:
            raise ConfigError(
                f"initial_state has {len(amps)} amplitudes for {n_excited} excited states",
                field="initial_state",
            )
        state = ExcitedSuperposition.from_sequence(amps)
        norm = state.norm()
        if abs(norm - 1.0) > INITIAL_NORM_TOL:
            raise ConfigError(
                f"initial_state norm {norm:.17g} differs from 1 beyond {INITIAL_NORM_TOL}",
                field="initial_state",
            )
        return state

    # -- canonical serialization ------------------------------------------

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "emitter": self.emitter,
            "initial_state": self.initial_state,
            "waveguide": self.waveguide,
            "loss": self.loss,
            "input": self.input,
            "sweep": self.sweep,
            "integrator": self.integrator,
            "output": self.output,
            "dark_state_projection": self.dark_state_projection,
        }


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical JSON form; parse followed by serialize is idempotent."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw configuration dictionary.

    Preset scenarios are expanded first; the file may then override loss,
    input, sweep, integrator, output and the dark-state-projection flag, but
    not the emitter itself.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(data, _SCHEMA_KEYS, "")
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigError("missing required field 'scenario'", field="scenario")

    if scenario != "custom":
        base = preset(scenario).to_dict()
        for key, value in data.items():
            if key == "scenario":
                continue
            if key not in _PRESET_OVERRIDABLE and value != base.get(key):
                raise ConfigError(
                    f"field {key!r} cannot be overridden for preset scenarios; "
                    "exactly one of preset or custom emitter may be given",
                    field=key,
                )
            base[key] = value
        data = base

    merged: dict[str, Any] = {
        "initial_state": None, "sweep": None,
        "integrator": {}, "output": {}, "dark_state_projection": False,
    }
    merged.update(data)

    for name in ("emitter", "waveguide", "loss", "input"):
        if merged.get(name) is None:
            raise ConfigError(f"missing required field {name!r}", field=name)

    mode = merged.get("mode")
    if mode not in MODES_OF_OPERATION:
        raise ConfigError(
            f"mode must be one of {MODES_OF_OPERATION}, got {mode!r}", field="mode"
        )

    emitter = merged["emitter"]
    _check_keys(emitter, {"ground_energies", "excited_energies", "dipoles"}, "emitter.")
    for name in ("ground_energies", "excited_energies", "dipoles"):
        if name not in emitter:
            raise ConfigError(f"missing field emitter.{name}", field=f"emitter.{name}")

    waveguide = merged["waveguide"]
    _check_keys(waveguide, {"a", "v_g", "omega", "E_f"}, "waveguide.")
    for name in ("a", "v_g", "omega", "E_f"):
        if name not in waveguide:
            raise ConfigError(f"missing field waveguide.{name}", field=f"waveguide.{name}")

    loss = merged["loss"]
    _check_keys(loss, {"isotropic", "tensor"}, "loss.")
    if ("isotropic" in loss) == ("tensor" in loss):
        raise ConfigError(
            "loss needs exactly one of 'isotropic' or 'tensor'", field="loss"
        )

    inp = merged["input"]
    _check_keys(inp, {"direction", "ground_index", "photon_frequency"}, "input.")
    if inp.get("direction") not in MODES:
        raise ConfigError(
            f"input.direction must be one of {MODES}", field="input.direction"
        )
    n_ground = len(emitter["ground_energies"])
    gi = inp.get("ground_index", 0)
    if not isinstance(gi, int) or not 0 <= gi < n_ground:
        raise ConfigError(
            f"input.ground_index {gi!r} out of range for {n_ground} ground states",
            field="input.ground_index",
        )
    freq = inp.get("photon_frequency")
    if freq is not None and not _finite_number(freq):
        raise ConfigError(
            f"input.photon_frequency must be null or a finite number, got {freq!r}",
            field="input.photon_frequency",
        )

    sweep = merged.get("sweep")
    if sweep is not None:
        _check_keys(sweep, {"parameter", "start", "stop", "steps"}, "sweep.")
        if sweep.get("parameter") != "theta":
            raise ConfigError(
                "sweep.parameter must be 'theta'", field="sweep.parameter"
            )
        steps = sweep.get("steps")
        if not isinstance(steps, int) or steps < 2:
            raise ConfigError(
                f"sweep.steps must be an integer >= 2, got {steps!r}",
                field="sweep.steps",
            )
        for name in ("start", "stop"):
            value = sweep.get(name)
            if not (_finite_number(value) and 0.0 <= value <= math.pi):
                raise ConfigError(
                    f"sweep.{name} must be a number within [0, pi], got {value!r}",
                    field=f"sweep.{name}",
                )

    integrator = dict(merged.get("integrator") or {})
    _check_keys(integrator, set(_INTEGRATOR_DEFAULTS), "integrator.")
    integrator = {**_INTEGRATOR_DEFAULTS, **integrator}
    t_max = integrator["t_max"]
    if t_max is not None and not (_finite_number(t_max) and t_max > 0):
        raise ConfigError(
            f"integrator.t_max must be null or a positive finite number, got {t_max!r}",
            field="integrator.t_max",
        )
    points = integrator["output_points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ConfigError(
            f"integrator.output_points must be an integer >= 2, got {points!r}",
            field="integrator.output_points",
        )
    if integrator["grid"] not in ("geometric", "linear"):
        raise ConfigError(
            "integrator.grid must be 'geometric' or 'linear'", field="integrator.grid"
        )

    output = dict(merged.get("output") or {})
    _check_keys(output, {"path", "format"}, "output.")
    output.setdefault("path", None)
    output.setdefault("format", "csv")
    if output["format"] not in ("csv", "json"):
        raise ConfigError(
            f"output.format must be csv or json, got {output['format']!r}",
            field="output.format",
        )

    projection = merged["dark_state_projection"]
    if not isinstance(projection, bool):
        raise ConfigError(
            f"dark_state_projection must be true or false, got {projection!r}",
            field="dark_state_projection",
        )

    if mode == "emission" and merged.get("initial_state") is None:
        raise ConfigError(
            "emission scenarios need an initial_state", field="initial_state"
        )
    if mode != "emission" and merged.get("initial_state") is not None:
        raise ConfigError(
            "initial_state is only valid for emission scenarios",
            field="initial_state",
        )

    config = ScenarioConfig(
        scenario=scenario,
        mode=mode,
        emitter=emitter,
        initial_state=merged.get("initial_state"),
        waveguide=waveguide,
        loss=loss,
        input=inp,
        sweep=sweep,
        integrator=integrator,
        output=output,
        dark_state_projection=projection,
    )
    # Building the domain objects surfaces model-level problems at parse time.
    try:
        model = config.build_model()
        config.build_env()
        config.build_loss()
        config.build_input()
        if mode == "emission":
            config.build_initial(model.n_excited)
    except ConfigError:
        raise
    except (WgqedError, TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"configuration does not describe a valid model: {exc}") from exc
    return config


SQRT5 = float(np.sqrt(5.0))

_V_EMITTER = {
    "ground_energies": [0.0],
    "excited_energies": [1.0, 1.0],
    "dipoles": [[
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    ]],
}

_IXI_EMITTER = {
    "ground_energies": [0.0, 0.0],
    "excited_energies": [1.0, 1.0],
    "dipoles": [
        [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        ],
        [
            [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ],
    ],
}

_TWO_LEVEL_EMITTER = {
    "ground_energies": [0.0],
    "excited_energies": [1.0],
    "dipoles": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]],
}

_DEFAULT_WAVEGUIDE = {"a": 1.0, "v_g": 0.1, "omega": 1.0,
                      "E_f": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}

_DEFAULT_INPUT = {"direction": "forward", "ground_index": 0, "photon_frequency": 1.0}

_THETA_SWEEP = {"parameter": "theta", "start": 0.0, "stop": float(np.pi), "steps": 401}


def preset(name: str) -> ScenarioConfig:
    """Built-in scenario configurations."""
    if name == "paradox-emission":
        raw = {
            "scenario": name,
            "mode": "emission",
            "emitter": _V_EMITTER,
            "initial_state": [[0.0, 1.0 / SQRT5], [2.0 / SQRT5, 0.0]],
            "waveguide": {"a": 1.0, "v_g": 0.1, "omega": 1.0,
                          "E_f": [[2.0 / SQRT5, 0.0], [0.0, 1.0 / SQRT5], [0.0, 0.0]]},
            "loss": {"isotropic": 0.0},
            "input": dict(_DEFAULT_INPUT),
            "output": {"path": None, "format": "csv"},
        }
    elif name == "isotropic-scan":
        raw = {
            "scenario": name,
            "mode": "scattering",
            "emitter": _V_EMITTER,
            "waveguide": dict(_DEFAULT_WAVEGUIDE),
            "loss": {"isotropic": 0.2},
            "input": dict(_DEFAULT_INPUT),
            "sweep": dict(_THETA_SWEEP),
            "output": {"path": None, "format": "csv"},
        }
    elif name == "ixi-scan":
        raw = {
            "scenario": name,
            "mode": "scattering",
            "emitter": _IXI_EMITTER,
            "waveguide": dict(_DEFAULT_WAVEGUIDE),
            "loss": {"isotropic": 0.2},
            "input": dict(_DEFAULT_INPUT),
            "sweep": dict(_THETA_SWEEP),
            "output": {"path": None, "format": "csv"},
        }
    elif name == "two-level":
        raw = {
            "scenario": name,
            "mode": "diagnostic",
            "emitter": _TWO_LEVEL_EMITTER,
            "waveguide": dict(_DEFAULT_WAVEGUIDE),
            "loss": {"isotropic": 0.2},
            "input": dict(_DEFAULT_INPUT),
            "output": {"path": None, "format": "csv"},
        }
    else:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )

    merged: dict[str, Any] = {
        "initial_state": None, "sweep": None,
        "integrator": dict(_INTEGRATOR_DEFAULTS),
        "dark_state_projection": False,
    }
    merged.update(raw)
    return ScenarioConfig(**merged)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), FLOAT_FMT)


def _write_table(path: Path, fmt: str, scenario: str,
                 columns: list[str], rows: list[list[float]]) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join("nan" if np.isnan(v) else _fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "scenario": scenario,
            "columns": columns,
            "rows": [[None if np.isnan(v) else float(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(
            f"cannot write output file {str(path)!r}: {exc}", field="output.path"
        ) from exc


def _amplitude_columns(n_ground: int) -> list[str]:
    if n_ground == 1:
        return ["re_t", "im_t", "re_r", "im_r"]
    cols = []
    for mode_tag in ("f", "b"):
        for k in range(n_ground):
            cols += [f"re_{mode_tag}_g{k + 1}", f"im_{mode_tag}_g{k + 1}"]
    return cols


def _amplitude_row(result) -> list[float]:
    row: list[float] = []
    for m in range(2):
        for k in range(result.amplitudes.shape[1]):
            amp = result.amplitudes[m, k]
            row += [amp.real, amp.imag]
    return row


def _run_emission(config: ScenarioConfig, out_path: Path, fmt: str) -> int:
    model = config.build_model()
    env = config.build_env()
    loss = config.build_loss()
    state = config.build_initial(model.n_excited)
    integ = config.integrator

    t_max = integ["t_max"]
    if t_max is None:
        t_max = default_t_max(coupling_bundle(model, env, loss))
    n_pts = integ["output_points"]
    if integ["grid"] == "geometric":
        first = t_max * 5e-5
        times = np.concatenate(([0.0], np.geomspace(first, t_max, n_pts - 1)))
    else:
        times = np.linspace(0.0, t_max, n_pts)

    try:
        traj = evolve(model, env, loss, state, times=times)
    except WgqedError as exc:
        print(f"wgqed: emission propagation failed: {exc}", file=sys.stderr)
        return 2

    n_e = model.n_excited
    columns = (["t"] + [f"pop_e{i + 1}" for i in range(n_e)]
               + ["p_forward", "p_backward", "p_loss", "trace"])
    rows = []
    for t, st in zip(traj.times, traj.states):
        pf, pb, pl = st.channel_totals()
        rows.append([t, *st.excited_populations(), pf, pb, pl, st.total_trace()])
    _write_table(out_path, fmt, config.scenario, columns, rows)
    return 0


def _run_sweep(config: ScenarioConfig, out_path: Path, fmt: str) -> int:
    model = config.build_model()
    env = config.build_env()
    loss = config.build_loss()
    inp = config.build_input()
    sweep = config.sweep
    thetas = np.linspace(float(sweep["start"]), float(sweep["stop"]), int(sweep["steps"]))
    points = polarization_sweep(
        model, env, loss, inp, thetas,
        dark_state_projection=config.dark_state_projection,
    )

    columns = ["theta"] + _amplitude_columns(model.n_ground) + ["p_loss"]
    rows = []
    failed = 0
    for pt in points:
        if pt.failed:
            failed += 1
            print(
                f"wgqed: sweep point theta={pt.theta!r} failed: {pt.error}",
                file=sys.stderr,
            )
            rows.append([pt.theta] + [float("nan")] * (len(columns) - 1))
        else:
            rows.append([pt.theta, *_amplitude_row(pt.result), pt.result.p_loss])
    _write_table(out_path, fmt, config.scenario, columns, rows)
    return 2 if failed else 0


def _run_single_point(config: ScenarioConfig, out_path: Path, fmt: str) -> int:
    model = config.build_model()
    env = config.build_env()
    loss = config.build_loss()
    inp = config.build_input()
    try:
        result = scatter(
            model, env, loss, inp,
            dark_state_projection=config.dark_state_projection,
        )
    except WgqedError as exc:
        print(f"wgqed: scattering failed: {exc}", file=sys.stderr)
        return 2
    columns = _amplitude_columns(model.n_ground) + ["p_loss"]
    _write_table(out_path, fmt, config.scenario, columns,
                 [[*_amplitude_row(result), result.p_loss]])
    return 0


def _run_diagnostic(config: ScenarioConfig, out_path: Path, fmt: str) -> int:
    model = config.build_model()
    env = config.build_env()
    loss = config.build_loss()
    inp = config.build_input()
    if model.n_excited != 1 or model.n_ground != 1:
        raise ConfigError(
            "the two-level diagnostic needs exactly one ground and one excited state",
            field="emitter",
        )

    omega_f = inp.photon_frequency if inp.photon_frequency is not None else env.omega
    detuning = (model.excited_energies[0]
                - (model.ground_energies[0] + env.hbar * omega_f))
    try:
        t, r, p_loss = two_level_closed_form(model.dipoles[0][0], env, loss, detuning)
        rates = coupling_bundle(model, env, loss).channel_decay_rates()
        rate_f = float(rates.get("forward", np.zeros(1))[0])
        rate_b = float(rates.get("backward", np.zeros(1))[0])
        rate_l = float(rates.get("loss", np.zeros(1))[0])
        total = rate_f + rate_b + rate_l
        beta_rates = (rate_f + rate_b) / total if total > 0 else float("nan")

        traj = evolve(
            model, env, loss, ExcitedSuperposition.from_sequence([1.0]),
            t_max=30.0 / total if total > 0 else 1.0, output_points=11,
        )
        emitted = 1.0 - traj.final_totals.residual_excited
        beta_emission = (
            (traj.final_totals.p_forward + traj.final_totals.p_backward) / emitted
            if emitted > 0 else float("nan")
        )
    except WgqedError as exc:
        print(f"wgqed: two-level diagnostic failed: {exc}", file=sys.stderr)
        return 2

    columns = ["re_t", "im_t", "re_r", "im_r", "p_loss",
               "rate_forward", "rate_backward", "rate_loss",
               "beta_rates", "beta_emission"]
    rows = [[t.real, t.imag, r.real, r.imag, p_loss,
             rate_f, rate_b, rate_l, beta_rates, beta_emission]]
    _write_table(out_path, fmt, config.scenario, columns, rows)
    return 0


def run(config: ScenarioConfig) -> int:
    """Execute a validated scenario; writes the output file and returns the
    exit code (0 success, 2 numerical failure). Raises :class:`ConfigError`
    naming ``output.path`` when the output file cannot be written."""
    fmt = config.output["format"]
    path = config.output["path"] or f"{config.scenario}.{fmt}"
    out_path = Path(path)
    if config.mode == "emission":
        return _run_emission(config, out_path, fmt)
    if config.mode == "diagnostic":
        return _run_diagnostic(config, out_path, fmt)
    if config.sweep is not None:
        return _run_sweep(config, out_path, fmt)
    return _run_single_point(config, out_path, fmt)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _load_config_source(source: str) -> dict:
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source!r}: {exc}") from exc
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source!r} is not valid JSON: {exc}") from exc
    preset(source)  # fail fast on unknown names
    return {"scenario": source}


def _apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    data = dict(data)
    if args.loss is not None:
        data["loss"] = {"isotropic": args.loss}
    if args.steps is not None:
        if data.get("sweep") is None:
            raise ConfigError("--steps given but the scenario has no sweep",
                              field="sweep")
        data["sweep"] = dict(data["sweep"], steps=args.steps)
    if args.dark_state_projection:
        data["dark_state_projection"] = True
    output = dict(data.get("output") or {})
    if args.out is not None:
        output["path"] = args.out
    if args.format is not None:
        output["format"] = args.format
    if output:
        data["output"] = output
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgqed",
        description="Single-photon scattering and emission scenarios for a "
                    "multi-level emitter in a waveguide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a preset or a JSON config file")
    run_p.add_argument("scenario",
                       help=f"preset ({', '.join(PRESET_NAMES)}) or path to a JSON config")
    run_p.add_argument("--loss", type=float, default=None,
                       help="override with isotropic loss of this strength")
    run_p.add_argument("--out", default=None, help="output file path")
    run_p.add_argument("--format", choices=("csv", "json"), default=None)
    run_p.add_argument("--dark-state-projection", action="store_true",
                       help="solve in the coupled subspace when dark states "
                            "make the response singular")
    run_p.add_argument("--steps", type=int, default=None,
                       help="override the sweep point count")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = parse_config(_load_config_source(args.scenario)).to_dict()
        config = parse_config(_apply_overrides(data, args))
        return run(config)
    except ConfigError as exc:
        where = f" (field: {exc.field})" if getattr(exc, "field", None) else ""
        print(f"wgqed: configuration error{where}: {exc}", file=sys.stderr)
        return 1
    except WgqedError as exc:
        print(f"wgqed: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
