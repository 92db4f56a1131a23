"""Command line front end: scenario presets, JSON configs, sweep
orchestration, and deterministic CSV/JSON emission.

Usage::

    wgqed run <preset|config.json> [--loss X] [--out PATH]
              [--format csv|json] [--dark-state-projection] [--steps N]

Presets: ``paradox-emission`` (time-resolved decay of a V emitter prepared in
a direction-selective superposition), ``isotropic-scan`` and ``ixi-scan``
(polarization sweeps of the isotropically polarizable V system and of the
four-level crossed-dipole system), ``two-level`` (matched linear dipole
diagnostic: the single-point scattering columns, then the guided fraction
once from the channel rates and once from emission's outcome forms).

Emission scenarios take an ``integrator`` block (``t_max``, ``output_points``,
``grid``) that only sets the output time grid: the propagation itself is
exact, with no step size or tolerance to choose.

Exit codes: 0 success, 1 configuration error (also a command-line fault and an
output path that is empty or cannot be written), 2 numerical failure, named on
stderr as ``wgqed: <mode> failed: ...``. A failed run writes no file; a sweep,
solved as one batch, writes a failed point as a ``nan`` row, names it and exits 2.
A solver's warning is a stderr line ``wgqed: <mode> warning: ...`` under any
warning filter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .emitter import EmitterModel, ExcitedSuperposition, _as_float, _Value
from .emission import INITIAL_NORM_TOL, _propagate, outcome_forms
from .errors import ConfigError, ModelValidationError, UnknownPresetError, WgqedError
from .photonic import LossModel, WaveguideEnv, coupling_bundle
from .scattering import MODES, ScatterInput, _scatter_fields, _theta_fields

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


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(_as_float(value))


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _object(value) -> bool:
    return value is None or isinstance(value, dict)


def _array(value) -> bool:
    return isinstance(value, (list, tuple))


def _positive(value) -> bool:
    return _finite_number(value) and value > 0


def _energies(value) -> bool:
    return _array(value) and len(value) > 0 and all(map(_finite_number, value))


def _angle(value) -> bool:
    return _finite_number(value) and 0.0 <= value <= math.pi


# Most points a sweep or an emission time grid may have: a config file alone
# must not make a run take minutes and allocate without bound.
_MAX_GRID_POINTS = 100_000


def _grid_points(value) -> bool:
    return _integer(value) and 2 <= value <= _MAX_GRID_POINTS


_GRID = f"an integer in [2, {_MAX_GRID_POINTS}]"

# Markers of a field with no default: one that must be given and not null,
# and one that may be left out.
_NEEDED, _OPTIONAL = object(), object()

# The config schema, one entry per dotted field: (rule, what it must be, its
# default or a marker). A section comes before its fields, which are the only
# keys it allows. A field that is absent, or a section that is null, takes
# its default; a rule sees every other value, in this order. A check that
# needs two fields is made when the scenario is built.
_FIELDS = {
    "mode": (lambda v: v in MODES_OF_OPERATION, f"one of {MODES_OF_OPERATION}", _NEEDED),
    "emitter": (_object, "an object", _NEEDED),
    "emitter.ground_energies": (_energies, "a nonempty array of finite numbers", _NEEDED),
    "emitter.excited_energies": (_energies, "a nonempty array of finite numbers", _NEEDED),
    "emitter.dipoles": (_array, "an array", _NEEDED),
    "waveguide": (_object, "an object", _NEEDED),
    "waveguide.a": (_positive, "a positive finite number", _NEEDED),
    "waveguide.v_g": (lambda v: _finite_number(v) and v != 0, "a nonzero finite number",
                      _NEEDED),
    "waveguide.omega": (_positive, "a positive finite number", _NEEDED),
    "waveguide.E_f": (_array, "an array", _NEEDED),
    "loss": (lambda v: isinstance(v, dict) and ("isotropic" in v) != ("tensor" in v),
             "an object with exactly one of 'isotropic' or 'tensor'", _NEEDED),
    "loss.isotropic": (lambda v: _finite_number(v) and v >= 0,
                       "a finite non-negative number", _OPTIONAL),
    "loss.tensor": (_array, "an array", _OPTIONAL),
    "input": (_object, "an object", _NEEDED),
    "input.direction": (lambda v: v in MODES, f"one of {MODES}", _NEEDED),
    "input.ground_index": (lambda v: _integer(v) and v >= 0, "a non-negative integer", 0),
    "input.photon_frequency": (lambda v: v is None or _finite_number(v),
                               "null or a finite number", _OPTIONAL),
    "sweep": (_object, "an object", None),
    "sweep.parameter": (lambda v: v == "theta", "'theta'", _NEEDED),
    "sweep.start": (_angle, "a number within [0, pi]", _NEEDED),
    "sweep.stop": (_angle, "a number within [0, pi]", _NEEDED),
    "sweep.steps": (_grid_points, _GRID, _NEEDED),
    "integrator": (_object, "an object", {}),
    "integrator.t_max": (lambda v: v is None or _positive(v),
                         "null or a positive finite number", None),
    "integrator.output_points": (_grid_points, _GRID, 250),
    "integrator.grid": (lambda v: v in ("geometric", "linear"), "'geometric' or 'linear'",
                        "geometric"),
    "output": (_object, "an object", {}),
    "output.path": (lambda v: v is None or isinstance(v, str) and v != "",
                    "null or a nonempty string", None),
    "output.format": (lambda v: v in ("csv", "json"), "csv or json", "csv"),
    "initial_state": (lambda v: v is None or _array(v), "null or an array", None),
    "dark_state_projection": (lambda v: isinstance(v, bool), "true or false", False),
}


def _complex_pairs(value, fieldname: str, depth: int):
    """``value`` with each [re, im] pair ``depth`` arrays deep made a complex
    number; a level above the pairs that is no array is left for the
    constructor to reject."""
    if depth:
        return [_complex_pairs(v, fieldname, depth - 1) for v in value] if _array(value) else value
    if not (_array(value) and len(value) == 2 and all(map(_finite_number, value))):
        raise ConfigError(
            f"{fieldname}: expected a [re, im] pair of finite numbers, got {value!r}",
            field=fieldname,
        )
    return complex(*value)


def _named(fieldname: str, build, *args):
    """``build(*args)``, with a constructor's check that fails named as a
    fault of ``fieldname``."""
    try:
        return build(*args)
    except ModelValidationError as exc:
        raise ConfigError(f"configuration does not describe a valid model: {exc}",
                          field=fieldname) from exc


def _check_keys(d: dict, allowed, prefix: str) -> None:
    for key in d:
        name = f"{prefix}{key}"
        if name not in allowed:
            raise ConfigError(f"invalid schema field {name!r}", field=name)


class Built(NamedTuple):
    """The domain objects a scenario describes."""

    model: EmitterModel
    env: WaveguideEnv
    loss: LossModel
    input: ScatterInput
    initial: ExcitedSuperposition | None


# The keys of a config's top level: the scenario, then those of _FIELDS
_SCHEMA_KEYS = ("scenario", *(name for name in _FIELDS if "." not in name))

# Each key's place in the schema, no two sections sharing a key name
_RANK = {name.rpartition(".")[2]: i for i, name in enumerate(("scenario", *_FIELDS))}


class ScenarioConfig(_Value):
    """A validated scenario: ``built``, the domain objects made from its values,
    and the canonical JSON text of those values, one key per ``_SCHEMA_KEYS``."""

    __slots__ = ("_text", "built")

    def __init__(self, *values, **named):
        given = dict(zip(_SCHEMA_KEYS, values), **named)
        if len(values) + len(named) != len(_SCHEMA_KEYS) or given.keys() != set(_SCHEMA_KEYS):
            raise TypeError(f"ScenarioConfig takes exactly the fields {_SCHEMA_KEYS}")
        object.__setattr__(self, "built", _build(given))
        object.__setattr__(self, "_text", json.dumps(given, indent=2, sort_keys=True,
                                                       allow_nan=False) + "\n")

    def __getattr__(self, name):    # a name that is no slot
        return self._args()[name] if name in _SCHEMA_KEYS else object.__getattribute__(self, name)

    def _args(self) -> dict:
        return json.loads(self._text, object_pairs_hook=lambda pairs: dict(
            sorted(pairs, key=lambda pair: _RANK.get(pair[0], len(_RANK)))))

    def _key(self) -> str:
        return self._text


def _build(c: dict) -> Built:
    emission = c["mode"] == "emission"
    if emission != (c["initial_state"] is not None):
        raise ConfigError(
            "emission scenarios need an initial_state" if emission
            else "initial_state is only valid for emission scenarios",
            field="initial_state",
        )
    if c["sweep"] is not None and c["mode"] != "scattering":
        raise ConfigError("sweep is only valid for scattering scenarios", field="sweep")
    if emission and c["dark_state_projection"]:
        raise ConfigError("dark_state_projection is only valid for scattering and "
                          "diagnostic scenarios", field="dark_state_projection")
    em = c["emitter"]
    n_ground = len(em["ground_energies"])
    if c["input"]["ground_index"] >= n_ground:
        raise ConfigError(
            f"input.ground_index must be an integer in [0, {n_ground}), "
            f"got {c['input']['ground_index']!r}",
            field="input.ground_index",
        )
    model = _named("emitter.dipoles", EmitterModel, em["ground_energies"],
                   em["excited_energies"], _complex_pairs(em["dipoles"], "emitter.dipoles", 3))
    if c["mode"] == "diagnostic" and (model.n_ground, model.n_excited) != (1, 1):
        raise ConfigError("the two-level diagnostic needs exactly one ground and one "
                          "excited state", field="emitter")
    wg = c["waveguide"]
    env = _named("waveguide.E_f", WaveguideEnv, _complex_pairs(wg["E_f"], "waveguide.E_f", 1),
                 wg["a"], wg["v_g"], wg["omega"])
    if "isotropic" in c["loss"]:
        loss = LossModel.isotropic(float(c["loss"]["isotropic"]))
    else:
        loss = _named("loss.tensor", LossModel,
                      _complex_pairs(c["loss"]["tensor"], "loss.tensor", 2))
    inp = ScatterInput(c["input"]["direction"], c["input"]["ground_index"],
                       c["input"].get("photon_frequency"))
    initial = None
    if c["initial_state"] is not None:
        amps = _complex_pairs(c["initial_state"], "initial_state", 1)
        if len(amps) != model.n_excited:
            raise ConfigError(f"initial_state has {len(amps)} amplitudes for "
                              f"{model.n_excited} excited states", field="initial_state")
        initial = ExcitedSuperposition.from_sequence(amps)
        norm = initial.norm()
        if not (abs(norm - 1.0) <= INITIAL_NORM_TOL):
            raise ConfigError(
                f"initial_state norm {norm:.17g} differs from 1 beyond {INITIAL_NORM_TOL}",
                field="initial_state",
            )
    return Built(model, env, loss, inp, initial)


def serialize_config(config: ScenarioConfig) -> str:
    """The canonical JSON text the config holds; parse and serialize are a fixed point."""
    return config._text


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
    base = dict(_PRESETS[scenario], scenario=scenario)
    for key, value in data.items():
        if key in _PRESET_OVERRIDABLE:
            continue
        for field, item in ({f"{key}.{name}": item for name, item in value.items()}
                            if isinstance(value, dict) else {key: value}).items():
            try:    # a value JSON cannot hold (an ndarray, say) is refused before `!=` meets it
                json.dumps(item)
            except (TypeError, ValueError) as exc:     # ValueError: a circular reference
                raise ConfigError(f"{field} must be a JSON value: {exc}", field=field) from None
        if value != base.get(key):
            raise ConfigError(
                f"field {key!r} cannot be overridden for preset scenarios; "
                "exactly one of preset or custom emitter may be given",
                field=key,
            )
    return {**base, **data}


def parse_config(data: dict, *, flags: argparse.Namespace | None = None) -> ScenarioConfig:
    """Validate a raw configuration dictionary and build the scenario.

    Preset scenarios are expanded first; the file may then override loss,
    input, sweep, integrator, output and the dark-state-projection flag, but
    not the emitter itself. The command-line ``flags``, if given, go last.
    """
    cfg = dict(_expand(data))
    if flags is not None:
        _apply_overrides(cfg, flags)
    for name, (rule, what, default) in _FIELDS.items():
        section, _, key = name.rpartition(".")
        holder = cfg.get(section) if section else cfg
        if not isinstance(holder, dict):    # a field of a section that is null or no object
            continue
        value = holder.get(key)
        if value is None and default is _NEEDED:
            raise ConfigError(f"missing required field {name!r}", field=name)
        if key not in holder or value is None and isinstance(default, dict):
            if default is _OPTIONAL:
                continue
            value = holder[key] = default
        if not rule(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}", field=name)
        if isinstance(value, dict):         # a section: only its fields, in a copy to fill in
            _check_keys(value, _FIELDS, f"{name}.")
            holder[key] = dict(value)
    return ScenarioConfig(**cfg)


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
        rows = [[None if math.isnan(v) else float(v) for v in row] for row in rows]
        text = json.dumps({"scenario": scenario, "columns": columns, "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    try:
        path.write_text(text)
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot write output file {str(path)!r}: {exc}",
                          field="output.path") from exc


def _amplitude_columns(n_ground: int) -> list[str]:
    if n_ground == 1:
        return ["re_t", "im_t", "re_r", "im_r"]
    return [f"{part}_{mode_tag}_g{k + 1}"
            for mode_tag in ("f", "b") for k in range(n_ground) for part in ("re", "im")]


def _amplitude_parts(amplitudes: np.ndarray, backward_first: bool) -> np.ndarray:
    """Re and im of each amplitude of a (..., 2, n_ground) table by mode, the
    forward one first unless ``backward_first``, then by ground state:
    (..., 4 n_ground)."""
    amplitudes = amplitudes[..., ::-1, :] if backward_first else amplitudes
    parts = np.stack((amplitudes.real, amplitudes.imag), axis=-1)
    return parts.reshape(amplitudes.shape[:-2] + (-1,))


def _emission_table(built: Built, data: dict):
    model, env, loss, _, state = built
    integ = data["integrator"]
    try:
        times, blocks, probs, trace = _propagate(
            coupling_bundle(model, env, loss), state, integ["t_max"],
            output_points=integ["output_points"], geometric=integ["grid"] == "geometric")
    except ValueError as exc:    # it names t_max: the grid over it does not rise
        raise WgqedError(f"integrator.{exc}") from exc

    columns = (["t"] + [f"pop_e{i + 1}" for i in range(model.n_excited)]
               + ["p_forward", "p_backward", "p_loss", "trace"])
    table = np.column_stack((times, blocks.diagonal(axis1=1, axis2=2).real,
                             probs.sum(axis=1), trace))
    return columns, table.tolist(), []


def _scattering_table(built: Built, data: dict):
    model, env, loss, inp, _ = built
    columns = _amplitude_columns(model.n_ground) + ["p_loss"]
    sweep = data["sweep"]
    if sweep is None:    # a single point is a sweep of one
        fields = env.E_f.as_array()[None]
    else:
        thetas = np.linspace(float(sweep["start"]), float(sweep["stop"]), int(sweep["steps"]))
        fields = _theta_fields(thetas)
    amplitudes, p_loss, _, errors = _scatter_fields(model, env, loss, inp, fields,
                                                    data["dark_state_projection"])
    # with one ground state the columns are t and r, which follow the input mode
    flip = model.n_ground == 1 and inp.direction == "backward"
    table = np.column_stack((_amplitude_parts(amplitudes, flip), p_loss))
    if sweep is None:
        if errors:
            raise errors[0]
        return columns, table.tolist(), []
    # a failed point is a row of nan after its theta
    failures = [f"sweep point theta={float(thetas[t])!r}: {errors[t]}" for t in sorted(errors)]
    return ["theta"] + columns, np.column_stack((thetas, table)).tolist(), failures


def _diagnostic_table(built: Built, data: dict):
    # t, r and p_loss are the single-point scattering columns
    columns, rows, _ = _scattering_table(built, data)
    model, env, loss, _, _ = built
    bundle = coupling_bundle(model, env, loss)
    rates = bundle.channel_decay_rates()
    rate_f, rate_b, rate_l = (float(rates[channel][0])
                              for channel in ("forward", "backward", "loss"))
    total = rate_f + rate_b + rate_l
    beta_rates = (rate_f + rate_b) / total if total > 0 else float("nan")
    # tr(Y rho0) per channel at rho0 = |e><e|: from H_eff and the fluxes, not the rates
    p_f, p_b, p_l = outcome_forms(bundle)[0, :, 0, 0].real.tolist()
    emitted = p_f + p_b + p_l
    beta_emission = (p_f + p_b) / emitted if emitted > 0 else float("nan")

    columns += ["rate_forward", "rate_backward", "rate_loss", "beta_rates", "beta_emission"]
    rows[0] += [rate_f, rate_b, rate_l, beta_rates, beta_emission]
    return columns, rows, []


# The table of each mode: (built, data) -> (columns, rows, failures as nan rows)
_TABLES = {"emission": _emission_table, "scattering": _scattering_table,
           "diagnostic": _diagnostic_table}


def run(config: ScenarioConfig) -> int:
    """Execute a validated scenario; writes the output file, unless the run
    fails as a whole, and returns the exit code (0 success, 2 numerical
    failure). Raises :class:`ConfigError` naming ``output.path`` when the
    output file cannot be written."""
    data = json.loads(config._text)     # the run's one parse of the config text
    mode, scenario = data["mode"], data["scenario"]
    # the library's warnings are the run's to print, whatever the filters say
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            columns, rows, failures = _TABLES[mode](config.built, data)
        except WgqedError as exc:
            rows, failures = None, [exc]
    for warning in caught:
        print(f"wgqed: {mode} warning: {warning.message}", file=sys.stderr)
    for failure in failures:
        print(f"wgqed: {mode} failed: {failure}", file=sys.stderr)
    if rows is None:
        return 2
    fmt, path = data["output"]["format"], data["output"]["path"]
    path = f"{scenario}.{fmt}" if path is None else path
    _write_table(Path(path), fmt, scenario, columns, rows)
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _load_config_source(source: str) -> dict:
    if source in PRESET_NAMES:    # a file of that name does not shadow the preset
        return {"scenario": source}
    path = Path(source)
    try:    # exists() too raises for a name the OS cannot take
        data = path.read_bytes() if path.suffix == ".json" or path.exists() else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {source!r}: {exc}") from exc
    if data is None:
        return {"scenario": source}
    try:    # bytes that are not UTF-8 and over-long integers are ValueErrors
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {source!r} is not valid JSON: {exc}") from exc


def _apply_overrides(data: dict, args: argparse.Namespace) -> None:
    """Fold the command-line flags into an expanded raw config, in place. A
    section that is not an object is left as it is, for the parse to name."""
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):    # not argparse's exit 2: here 2 is a numerical failure
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return run(parse_config(_load_config_source(args.scenario), flags=args))
    except ConfigError as exc:
        where = f" (field: {exc.field})" if getattr(exc, "field", None) else ""
        print(f"wgqed: configuration error{where}: {exc}", file=sys.stderr)
        return 1
    except WgqedError as exc:
        print(f"wgqed: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
