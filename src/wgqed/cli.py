"""Command line front end: scenario presets, JSON configs, sweep
orchestration, and deterministic CSV/JSON emission.

Usage::

    wgqed run <preset|config.json> [--loss X] [--out PATH]
              [--format csv|json] [--dark-state-projection] [--steps N]

Presets: ``paradox-emission`` (time-resolved decay of a V emitter prepared in
a direction-selective superposition), ``isotropic-scan`` and ``ixi-scan``
(polarization sweeps of the isotropically polarizable V system and of the
four-level crossed-dipole system), ``two-level`` (matched linear dipole
diagnostic; the guided fraction comes once from the channel rates and once
from emission's outcome forms).

Emission scenarios take an ``integrator`` block (``t_max``, ``output_points``,
``grid``) that only sets the output time grid: the propagation itself is
exact, with no step size or tolerance to choose.

Exit codes: 0 success, 1 configuration error (including an output path that
cannot be written), 2 numerical failure, named on stderr as ``wgqed: <mode>
failed: ...``. A failed run writes no file; a sweep, solved as one batch,
writes a point that fails as a row of ``nan``, names it and exits 2.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from .emitter import EmitterModel, ExcitedSuperposition
from .emission import INITIAL_NORM_TOL, _outcome_forms, _propagate, default_t_max
from .errors import ConfigError, UnknownPresetError, WgqedError
from .photonic import LossModel, WaveguideEnv, coupling_bundle
from .scattering import (
    MODES,
    ScatterInput,
    polarization_sweep,
    scatter,
    two_level_closed_form,
)

MODES_OF_OPERATION = ("emission", "scattering", "diagnostic")
FLOAT_FMT = ".17g"

_SQRT5 = math.sqrt(5.0)

# Unit vectors as [re, im] pairs per component: x, y and i*y.
_X = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
_Y = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
_IY = [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]

# Dipoles are indexed [ground][excited].
_V_EMITTER = {"ground_energies": [0.0], "excited_energies": [1.0, 1.0],
              "dipoles": [[_X, _Y]]}
_IXI_EMITTER = {"ground_energies": [0.0, 0.0], "excited_energies": [1.0, 1.0],
                "dipoles": [[_X, _IY], [_IY, _X]]}
_TWO_LEVEL_EMITTER = {"ground_energies": [0.0], "excited_energies": [1.0],
                      "dipoles": [[_X]]}

_THETA_SWEEP = {"parameter": "theta", "start": 0.0, "stop": math.pi, "steps": 401}

# What every preset shares: an x-polarized field, isotropic loss 0.2 and a
# forward photon on resonance from ground state 0.
_PRESET_BASE = {
    "waveguide": {"a": 1.0, "v_g": 0.1, "omega": 1.0, "E_f": _X},
    "loss": {"isotropic": 0.2},
    "input": {"direction": "forward", "ground_index": 0, "photon_frequency": 1.0},
}

# The fields each preset sets; parse_config fills in the defaults.
_PRESETS = {
    "paradox-emission": {
        **_PRESET_BASE,
        "mode": "emission",
        "emitter": _V_EMITTER,
        "initial_state": [[0.0, 1.0 / _SQRT5], [2.0 / _SQRT5, 0.0]],
        "waveguide": {"a": 1.0, "v_g": 0.1, "omega": 1.0,
                      "E_f": [[2.0 / _SQRT5, 0.0], [0.0, 1.0 / _SQRT5], [0.0, 0.0]]},
        "loss": {"isotropic": 0.0},
    },
    "isotropic-scan": {**_PRESET_BASE, "mode": "scattering", "emitter": _V_EMITTER,
                       "sweep": _THETA_SWEEP},
    "ixi-scan": {**_PRESET_BASE, "mode": "scattering", "emitter": _IXI_EMITTER,
                 "sweep": _THETA_SWEEP},
    "two-level": {**_PRESET_BASE, "mode": "diagnostic", "emitter": _TWO_LEVEL_EMITTER},
}
PRESET_NAMES = tuple(_PRESETS)

# Keys a preset-based config file may override; emitter structure stays owned
# by the preset (exactly one of preset or custom emitter).
_PRESET_OVERRIDABLE = {
    "loss", "input", "sweep", "integrator", "output", "dark_state_projection",
}

# The keys each section allows.
_KEYS = {
    "emitter": {"ground_energies", "excited_energies", "dipoles"},
    "waveguide": {"a", "v_g", "omega", "E_f"},
    "loss": {"isotropic", "tensor"},
    "input": {"direction", "ground_index", "photon_frequency"},
    "sweep": {"parameter", "start", "stop", "steps"},
    "integrator": {"t_max", "output_points", "grid"},
    "output": {"path", "format"},
}

# Fields that must be given and not null; those of a section only when the
# section is given as an object.
_REQUIRED = (
    "mode", "emitter", "waveguide", "loss", "input",
    "emitter.ground_energies", "emitter.excited_energies", "emitter.dipoles",
    "waveguide.a", "waveguide.v_g", "waveguide.omega", "waveguide.E_f",
    "input.direction",
    "sweep.parameter", "sweep.start", "sweep.stop", "sweep.steps",
)

# Defaults of each section, also of an integrator or output block that is
# absent or null; those of the top level are the ScenarioConfig defaults.
_DEFAULTS = {
    "input": {"ground_index": 0},
    "integrator": {"t_max": None, "output_points": 250, "grid": "geometric"},
    "output": {"path": None, "format": "csv"},
}


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # a JSON integer beyond the float range
        return False


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _object(value) -> bool:
    return value is None or isinstance(value, dict)


def _array(value) -> bool:
    return isinstance(value, (list, tuple))


def _finite_numbers(value) -> bool:
    return _array(value) and all(map(_finite_number, value))


def _angle(value) -> bool:
    return _finite_number(value) and 0.0 <= value <= math.pi


# Most points a sweep or an emission time grid may have: a config file alone
# must not make a run take minutes and allocate without bound.
_MAX_GRID_POINTS = 100_000


def _grid_points(value) -> bool:
    return _integer(value) and 2 <= value <= _MAX_GRID_POINTS


# field: (rule, what it must be). A rule sees a field only when it is given,
# and in this order; a check that needs two fields is made when the scenario
# is built.
_FIELD_RULES = {
    "mode": (lambda v: v in MODES_OF_OPERATION, f"one of {MODES_OF_OPERATION}"),
    "emitter": (_object, "an object"),
    "waveguide": (_object, "an object"),
    "loss": (lambda v: isinstance(v, dict) and ("isotropic" in v) != ("tensor" in v),
             "an object with exactly one of 'isotropic' or 'tensor'"),
    "input": (_object, "an object"),
    "sweep": (_object, "an object"),
    "integrator": (_object, "an object"),
    "output": (_object, "an object"),
    "dark_state_projection": (lambda v: isinstance(v, bool), "true or false"),
    "emitter.ground_energies": (_finite_numbers, "an array of finite numbers"),
    "emitter.excited_energies": (_finite_numbers, "an array of finite numbers"),
    "emitter.dipoles": (_array, "an array"),
    "waveguide.a": (_finite_number, "a finite number"),
    "waveguide.v_g": (_finite_number, "a finite number"),
    "waveguide.omega": (_finite_number, "a finite number"),
    "loss.isotropic": (lambda v: _finite_number(v) and v >= 0,
                       "a finite non-negative number"),
    "input.direction": (lambda v: v in MODES, f"one of {MODES}"),
    "input.ground_index": (lambda v: _integer(v) and v >= 0, "a non-negative integer"),
    "input.photon_frequency": (lambda v: v is None or _finite_number(v),
                               "null or a finite number"),
    "sweep.parameter": (lambda v: v == "theta", "'theta'"),
    "sweep.start": (_angle, "a number within [0, pi]"),
    "sweep.stop": (_angle, "a number within [0, pi]"),
    "sweep.steps": (_grid_points, f"an integer in [2, {_MAX_GRID_POINTS}]"),
    "integrator.t_max": (lambda v: v is None or _finite_number(v) and v > 0,
                         "null or a positive finite number"),
    "integrator.output_points": (_grid_points, f"an integer in [2, {_MAX_GRID_POINTS}]"),
    "integrator.grid": (lambda v: v in ("geometric", "linear"), "'geometric' or 'linear'"),
    "output.path": (lambda v: v is None or isinstance(v, str), "null or a string"),
    "output.format": (lambda v: v in ("csv", "json"), "csv or json"),
}


def _complex_pair(value, fieldname: str) -> complex:
    if not (_array(value) and len(value) == 2 and all(map(_finite_number, value))):
        raise ConfigError(
            f"{fieldname}: expected a [re, im] pair of finite numbers, got {value!r}",
            field=fieldname,
        )
    return complex(*value)


def _check_keys(d: dict, allowed, prefix: str) -> None:
    for key in d:
        if key not in allowed:
            name = f"{prefix}{key}"
            raise ConfigError(f"invalid schema field {name!r}", field=name)


class Built(NamedTuple):
    """The domain objects a scenario describes."""

    model: EmitterModel
    env: WaveguideEnv
    loss: LossModel
    input: ScatterInput
    initial: ExcitedSuperposition | None


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario description in canonical plain-data form.

    ``built`` holds the domain objects it describes, built once when the
    config is made; the checks that need two fields run there."""

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

    def __post_init__(self):
        object.__setattr__(self, "built", _build(self))

    def to_dict(self) -> dict:
        return asdict(self)


_SCHEMA_KEYS = {f.name for f in fields(ScenarioConfig)}


def _build(c: ScenarioConfig) -> Built:
    emission = c.mode == "emission"
    if emission != (c.initial_state is not None):
        raise ConfigError(
            "emission scenarios need an initial_state" if emission
            else "initial_state is only valid for emission scenarios",
            field="initial_state",
        )
    em = c.emitter
    n_ground = len(em["ground_energies"])
    if c.input["ground_index"] >= n_ground:
        raise ConfigError(
            f"input.ground_index must be an integer in [0, {n_ground}), "
            f"got {c.input['ground_index']!r}",
            field="input.ground_index",
        )
    dipoles = [
        [[_complex_pair(v, "emitter.dipoles") for v in vec] for vec in row]
        for row in em["dipoles"]
    ]
    model = EmitterModel.from_arrays(em["ground_energies"], em["excited_energies"], dipoles)
    if c.mode == "diagnostic" and (model.n_ground, model.n_excited) != (1, 1):
        raise ConfigError(
            "the two-level diagnostic needs exactly one ground and one excited state",
            field="emitter",
        )
    wg = c.waveguide
    env = WaveguideEnv(
        E_f=[_complex_pair(v, "waveguide.E_f") for v in wg["E_f"]],
        a=wg["a"], v_g=wg["v_g"], omega=wg["omega"],
    )
    if "isotropic" in c.loss:
        loss = LossModel.isotropic(float(c.loss["isotropic"]))
    else:
        loss = LossModel.from_array(
            [[_complex_pair(v, "loss.tensor") for v in row] for row in c.loss["tensor"]]
        )
    inp = ScatterInput(c.input["direction"], c.input["ground_index"],
                       c.input.get("photon_frequency"))
    initial = None
    if c.initial_state is not None:
        amps = [_complex_pair(v, "initial_state") for v in c.initial_state]
        if len(amps) != model.n_excited:
            raise ConfigError(
                f"initial_state has {len(amps)} amplitudes for "
                f"{model.n_excited} excited states",
                field="initial_state",
            )
        initial = ExcitedSuperposition.from_sequence(amps)
        norm = initial.norm()
        if not (abs(norm - 1.0) <= INITIAL_NORM_TOL):
            raise ConfigError(
                f"initial_state norm {norm:.17g} differs from 1 beyond {INITIAL_NORM_TOL}",
                field="initial_state",
            )
    return Built(model, env, loss, inp, initial)


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical JSON form; parse followed by serialize is idempotent."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def _expand(data) -> dict:
    """Check the top level of a raw config and fill a preset's fields in
    under the ones the file gives; a custom config is returned as it is."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(data, _SCHEMA_KEYS, "")
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigError("missing required field 'scenario'", field="scenario")
    if scenario == "custom":
        return data
    if scenario not in PRESET_NAMES:
        raise UnknownPresetError(
            f"unknown preset {scenario!r}; available: {', '.join(PRESET_NAMES)}",
            field="scenario",
        )
    # a copy, so that no caller can change the preset through its config
    base = dict(copy.deepcopy(_PRESETS[scenario]), scenario=scenario)
    for key, value in data.items():
        if key not in _PRESET_OVERRIDABLE and value != base.get(key):
            raise ConfigError(
                f"field {key!r} cannot be overridden for preset scenarios; "
                "exactly one of preset or custom emitter may be given",
                field=key,
            )
    return {**base, **data}


def _holder(cfg: dict, name: str) -> tuple[Any, str]:
    """The object that holds a dotted field name, and the field's key in it."""
    section, _, key = name.rpartition(".")
    return (cfg.get(section) if section else cfg), key


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw configuration dictionary and build the scenario.

    Preset scenarios are expanded first; the file may then override loss,
    input, sweep, integrator, output and the dark-state-projection flag, but
    not the emitter itself.
    """
    cfg = dict(_expand(data))
    for section, allowed in _KEYS.items():
        value = cfg.get(section)
        if value is None and section in _DEFAULTS:
            value = {}
        if isinstance(value, dict):
            _check_keys(value, allowed, f"{section}.")
            cfg[section] = {**_DEFAULTS.get(section, {}), **value}
    for name in _REQUIRED:
        holder, key = _holder(cfg, name)
        if isinstance(holder, dict) and holder.get(key) is None:
            raise ConfigError(f"missing required field {name!r}", field=name)
    for name, (rule, what) in _FIELD_RULES.items():
        holder, key = _holder(cfg, name)
        if isinstance(holder, dict) and key in holder and not rule(holder[key]):
            raise ConfigError(f"{name} must be {what}, got {holder[key]!r}", field=name)
    try:
        return ScenarioConfig(**cfg)
    except ConfigError:
        raise
    except (WgqedError, TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"configuration does not describe a valid model: {exc}") from exc


def preset(name: str) -> ScenarioConfig:
    """Built-in scenario configurations."""
    return parse_config({"scenario": name})


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _write_table(path: Path, fmt: str, scenario: str,
                 columns: list[str], rows: list[list[float]]) -> None:
    if fmt == "csv":
        # one %-format per row; it writes nan as "nan"
        row_fmt = ",".join([f"%{FLOAT_FMT}"] * len(columns))
        text = "\n".join([",".join(columns), *(row_fmt % tuple(row) for row in rows)]) + "\n"
    else:
        payload = {
            "scenario": scenario,
            "columns": columns,
            "rows": [[None if math.isnan(v) else float(v) for v in row] for row in rows],
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
    return [f"{part}_{mode_tag}_g{k + 1}"
            for mode_tag in ("f", "b") for k in range(n_ground) for part in ("re", "im")]


def _amplitude_parts(amplitudes: np.ndarray) -> np.ndarray:
    """Re and im of each amplitude of a (..., 2, n_ground) table, forward
    mode first, then by ground state: (..., 4 n_ground)."""
    parts = np.stack((amplitudes.real, amplitudes.imag), axis=-1)
    return parts.reshape(amplitudes.shape[:-2] + (-1,))


def _emission_table(config: ScenarioConfig):
    model, env, loss, _, state = config.built
    integ = config.integrator

    bundle = coupling_bundle(model, env, loss)
    t_max = integ["t_max"] or default_t_max(bundle)
    n_pts = integ["output_points"]
    if integ["grid"] == "linear":
        times = np.linspace(0.0, t_max, n_pts)
    elif t_max * 5e-5 > 0.0:
        times = np.concatenate(([0.0], np.geomspace(t_max * 5e-5, t_max, n_pts - 1)))
    else:    # a subnormal t_max rounds the first geometric time to 0
        times = np.zeros(n_pts)
    if (np.diff(times) <= 0.0).any():
        raise WgqedError(f"integrator.t_max {t_max!r} is too small for {n_pts} "
                         "strictly increasing output times")
    times, blocks, probs = _propagate(bundle, state, times=times)

    columns = (["t"] + [f"pop_e{i + 1}" for i in range(model.n_excited)]
               + ["p_forward", "p_backward", "p_loss", "trace"])
    # the columns are those of the per-state methods
    trace = blocks.trace(axis1=1, axis2=2).real + probs.reshape(len(probs), -1).sum(axis=1)
    table = np.column_stack((times, blocks.diagonal(axis1=1, axis2=2).real,
                             probs.sum(axis=1), trace))
    return columns, table.tolist(), []


def _scattering_table(config: ScenarioConfig):
    model, env, loss, inp, _ = config.built
    projection = config.dark_state_projection
    columns = _amplitude_columns(model.n_ground) + ["p_loss"]
    if config.sweep is None:
        result = scatter(model, env, loss, inp, dark_state_projection=projection)
        return columns, [[*_amplitude_parts(result.amplitudes).tolist(), result.p_loss]], []

    sweep = config.sweep
    thetas = np.linspace(float(sweep["start"]), float(sweep["stop"]), int(sweep["steps"]))
    points = polarization_sweep(model, env, loss, inp, thetas,
                                dark_state_projection=projection)
    failures = [f"sweep point theta={pt.theta!r}: {pt.error}" for pt in points if pt.failed]
    # a failed point is a row of nan after its theta
    blank = (np.full((2, model.n_ground), complex(math.nan, math.nan)), math.nan)
    amplitudes, p_loss = zip(*[
        blank if pt.failed else (pt.result.amplitudes, pt.result.p_loss) for pt in points
    ])
    table = np.column_stack((thetas, _amplitude_parts(np.stack(amplitudes)), p_loss))
    return ["theta"] + columns, table.tolist(), failures


def _diagnostic_table(config: ScenarioConfig):
    model, env, loss, inp, _ = config.built
    omega_f = inp.photon_frequency if inp.photon_frequency is not None else env.omega
    detuning = (model.excited_energies[0]
                - (model.ground_energies[0] + env.hbar * omega_f))
    t, r, p_loss = two_level_closed_form(model.dipoles[0][0], env, loss, detuning)
    bundle = coupling_bundle(model, env, loss)
    rates = bundle.channel_decay_rates()
    rate_f, rate_b, rate_l = (float(rates[channel][0])
                              for channel in ("forward", "backward", "loss"))
    total = rate_f + rate_b + rate_l
    beta_rates = (rate_f + rate_b) / total if total > 0 else float("nan")
    # tr(Y rho0) per channel at rho0 = |e><e|: from H_eff and the fluxes, not the rates
    p_f, p_b, p_l = _outcome_forms(bundle)[0, :, 0, 0].real.tolist()
    emitted = p_f + p_b + p_l
    beta_emission = (p_f + p_b) / emitted if emitted > 0 else float("nan")

    columns = ["re_t", "im_t", "re_r", "im_r", "p_loss",
               "rate_forward", "rate_backward", "rate_loss",
               "beta_rates", "beta_emission"]
    rows = [[t.real, t.imag, r.real, r.imag, p_loss,
             rate_f, rate_b, rate_l, beta_rates, beta_emission]]
    return columns, rows, []


# The table of each mode: config -> (columns, rows, failures named as nan rows)
_TABLES = {"emission": _emission_table, "scattering": _scattering_table,
           "diagnostic": _diagnostic_table}


def run(config: ScenarioConfig) -> int:
    """Execute a validated scenario; writes the output file, unless the run
    fails as a whole, and returns the exit code (0 success, 2 numerical
    failure). Raises :class:`ConfigError` naming ``output.path`` when the
    output file cannot be written."""
    try:
        columns, rows, failures = _TABLES[config.mode](config)
    except WgqedError as exc:
        print(f"wgqed: {config.mode} failed: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"wgqed: {config.mode} failed: {failure}", file=sys.stderr)
    fmt = config.output["format"]
    path = config.output["path"] or f"{config.scenario}.{fmt}"
    _write_table(Path(path), fmt, config.scenario, columns, rows)
    return 2 if failures else 0


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
    return {"scenario": source}


def _apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    """Fold the command-line flags into an expanded raw config. A section
    that is not an object is left as it is, for the parse to name."""
    data = dict(data)
    if args.loss is not None:
        data["loss"] = {"isotropic": args.loss}
    if args.steps is not None:
        if data.get("sweep") is None:
            raise ConfigError("--steps given but the scenario has no sweep",
                              field="sweep")
        if isinstance(data["sweep"], dict):
            data["sweep"] = dict(data["sweep"], steps=args.steps)
    if args.dark_state_projection:
        data["dark_state_projection"] = True
    flags = {key: value for key, value in (("path", args.out), ("format", args.format))
             if value is not None}
    output = data.get("output") or {}
    if flags and isinstance(output, dict):
        data["output"] = {**output, **flags}
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
    args = build_parser().parse_args(argv)
    try:
        data = _expand(_load_config_source(args.scenario))
        return run(parse_config(_apply_overrides(data, args)))
    except ConfigError as exc:
        where = f" (field: {exc.field})" if getattr(exc, "field", None) else ""
        print(f"wgqed: configuration error{where}: {exc}", file=sys.stderr)
        return 1
    except WgqedError as exc:
        print(f"wgqed: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
