"""Output drift between this tree of wgqed and another: whether each output
keeps the other tree's bytes, and the largest absolute move of each.

    python tests/output_drift.py OTHER_TREE [--seeds 0 1 2]

``OTHER_TREE`` is a checkout of the other tree, for instance the parent
commit unpacked by ``git archive``. For each tree a child interpreter that
imports that tree's ``src`` writes the four presets' tables (CSV and JSON,
through ``wgqed.cli.main``) and the results of the first pass of the
benchmark's ``sweep`` workload and of its ``scatter-batch`` and ``emission``
workloads at each seed. ``perfbench/workloads.py`` is imported by path, as
``tests/test_benchmark_contract.py`` imports it, and nothing is written
under either tree. A fixed edge set then takes the scattering engine's
fallback paths through the public API: the lossless ``isotropic-scan``
sweep with and without dark-state projection, a point that warns, one
whose field no dipole absorbs and one whose response overflows; each
failure is kept by error type and message, as is each warning. One line
per output says ``same`` where the bytes match, else ``moved``, with the
largest absolute move (``inf`` where a value turns non-finite, a shape
changes or a failure or warning differs). The exit status is 0 either way.
The name has no ``test_`` prefix, so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("paradox-emission", "isotropic-scan", "ixi-scan", "two-level")
FORMATS = ("csv", "json")


def load_workloads(tree: Path):
    """``perfbench/workloads.py`` of ``tree``, imported by path without
    bytecode caching."""
    sys.path.insert(0, str(tree / "perfbench"))     # workloads.py imports reference.py
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_arrays(workloads, seeds) -> dict[str, np.ndarray]:
    """The first-pass results of ``sweep`` (its four cases; the seed only
    orders later passes) and of ``scatter-batch`` and ``emission`` at each
    seed, as named flat arrays, nan where a sweep point failed."""
    arrays = {}
    for i, call in enumerate(workloads.WORKLOADS["sweep"](seeds[0]).first_pass()):
        points = call.fn()
        arrays[f"sweep/case{i}/amplitudes"] = np.array([
            np.full(2, math.nan) if p.failed else p.result.amplitudes.ravel() for p in points])
        arrays[f"sweep/case{i}/p_loss"] = np.array(
            [math.nan if p.failed else p.result.p_loss for p in points])
    for seed in seeds:
        results = [call.fn() for call in workloads.WORKLOADS["scatter-batch"](seed).first_pass()]
        arrays[f"scatter-batch/seed{seed}/amplitudes"] = np.concatenate(
            [res.amplitudes.ravel() for res in results])
        arrays[f"scatter-batch/seed{seed}/p_loss"] = np.array([res.p_loss for res in results])
        trajectories = [call.fn() for call in workloads.WORKLOADS["emission"](seed).first_pass()]
        arrays[f"emission/seed{seed}/times"] = np.concatenate(
            [traj.times for traj in trajectories])
        for field in ("excited_block", "ground_mode_probs"):
            arrays[f"emission/seed{seed}/{field}"] = np.concatenate(
                [getattr(st, field).ravel() for traj in trajectories for st in traj.states])
    return arrays


def edge_outcomes() -> tuple[dict[str, np.ndarray], list[str]]:
    """The edge set on the ``isotropic-scan`` V system, through the public
    API: named arrays of amplitudes and ``p_loss`` (nan where a point
    failed), and one line per failure (error type and message) and per
    warning, in call order."""
    from wgqed import (EmitterModel, LossModel, ScatterInput, WaveguideEnv, WgqedError,
                       polarization_sweep, scatter)

    model = EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0], [0, 1, 0]]])
    inp = ScatterInput("forward", 0, 1.0)
    thetas = np.linspace(0.0, math.pi, 401)
    # (name, field, loss, dark-state projection of a sweep, or None for one point)
    cases = [(f"lossless-sweep-{kind}", [1, 0, 0], LossModel.none(), projection)
             for kind, projection in (("plain", False), ("projected", True))]
    cases += [("warning", [1, 0, 0], LossModel.isotropic(1e-13), None),
              ("input-free", [0, 0, 1], LossModel.none(), None),
              ("overflow", [1e200, 0, 0], LossModel.isotropic(0.2), None)]
    arrays, lines = {}, []
    for name, field, loss, projection in cases:
        env = WaveguideEnv(field, a=1.0, v_g=0.1, omega=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if projection is not None:
                outcomes = [(p.result, p.error) for p in polarization_sweep(
                    model, env, loss, inp, thetas, dark_state_projection=projection)]
            else:
                try:
                    outcomes = [(scatter(model, env, loss, inp), None)]
                except WgqedError as error:
                    outcomes = [(None, error)]
        arrays[f"edges/{name}/amplitudes"] = np.array([
            np.full(2, complex(math.nan, math.nan)) if res is None else res.amplitudes.ravel()
            for res, _ in outcomes])
        arrays[f"edges/{name}/p_loss"] = np.array(
            [math.nan if res is None else res.p_loss for res, _ in outcomes])
        lines += [f"{name} point {k}: {type(error).__name__}: {error}"
                  for k, (_, error) in enumerate(outcomes) if error is not None]
        lines += [f"{name} warning: {w.category.__name__}: {w.message}" for w in caught]
    return arrays, lines


def dump(tree: Path, out: Path, seeds) -> None:
    """Write every output of the wgqed this interpreter imports into ``out``."""
    import wgqed.cli

    if not Path(wgqed.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported {wgqed.__file__}, not the tree {tree}")
    for name in PRESETS:
        for fmt in FORMATS:
            code = wgqed.cli.main(["run", name, "--out", str(out / f"{name}.{fmt}"),
                                   "--format", fmt])
            if code != 0:
                raise SystemExit(f"wgqed run {name} --format {fmt} exited {code}")
    arrays = workload_arrays(load_workloads(tree), seeds)
    edges, lines = edge_outcomes()
    arrays.update(edges)
    (out / "edges__failures_and_warnings.txt").write_text("\n".join(lines) + "\n")
    for key, array in arrays.items():
        np.save(out / (key.replace("/", "__") + ".npy"), array)


def table(path: Path) -> np.ndarray:
    """The rows of a preset table, CSV or JSON, as floats (nan for null)."""
    if path.suffix == ".csv":
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    else:
        rows = json.loads(path.read_text())["rows"]
    return np.array([[math.nan if v is None else float(v) for v in row] for row in rows])


def largest_move(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute difference of two arrays; a nan in the same place
    counts 0, anywhere else inf, and so does a change of shape."""
    if a.shape != b.shape:
        return math.inf
    both = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        move = np.where(both, 0.0, np.abs(a - b))
    return float(np.nan_to_num(move, nan=math.inf).max(initial=0.0))


def run_tree(tree: Path, out: Path, seeds) -> None:
    """``dump`` in a child interpreter that imports ``tree``'s ``src``."""
    pythonpath = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, str(tree), "--dump", str(out),
                    "--seeds", *map(str, seeds)], env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="checkout of the tree to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--dump", type=Path, metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        dump(args.other, args.dump, args.seeds)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        outs = []
        for tree, label in ((ROOT, "this"), (args.other, "other")):
            out = Path(scratch) / label
            out.mkdir()
            run_tree(tree, out, args.seeds)
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        if names != sorted(p.name for p in outs[1].iterdir()):
            raise SystemExit("the two trees wrote different outputs")
        print(f"{'output':44} {'bytes':6} max |move|")
        for name in names:
            here, there = outs[0] / name, outs[1] / name
            same = here.read_bytes() == there.read_bytes()
            if same or name.endswith(".txt"):
                move = 0.0 if same else math.inf
            else:
                load = np.load if name.endswith(".npy") else table
                move = largest_move(load(here), load(there))
            label = name.removesuffix(".npy").replace("__", "/")
            print(f"{label:44} {'same' if same else 'moved':6} {move:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
