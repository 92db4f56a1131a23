"""Seeded workloads. Each one builds the inputs of its first pass from the
seed in its constructor (the set-up that ``setup_s`` times), then hands out
passes: lists of calls into wgqed's public API or CLI, each with the number
of items it completes and a check against the references in
``reference.py``.

Every pass builds fresh wgqed input objects before its first call, so no
call gets an object an earlier call has seen; ``scatter-batch`` and
``emission`` also draw new random instances for every pass. Every pass of a
workload has the same mix of calls. ``first_pass`` rebuilds the fixed pass
the traced run repeats, so its per-item counts repeat exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wgqed
from wgqed import (
    EmitterModel,
    ExcitedSuperposition,
    LossModel,
    PolarizationVector,
    ScatterInput,
    WaveguideEnv,
)

import reference as ref

HERE = Path(__file__).resolve().parent
THETAS = np.linspace(0.0, np.pi, 401)
X, Y, IY = [1, 0, 0], [0, 1, 0], [0, 1j, 0]
V_DIPOLES = np.array([[X, Y]], dtype=complex)
IXI_DIPOLES = np.array([[X, IY], [IY, X]], dtype=complex)
NO_LOSS = np.zeros((3, 3), dtype=complex)


def iso(strength: float) -> np.ndarray:
    return 1j * strength * np.eye(3)


def sweep_field(theta: float) -> np.ndarray:
    return np.array([np.cos(theta), 1j * np.sin(theta), 0.0])


class Call:
    """One call into the workload's entry point."""

    __slots__ = ("fn", "items", "check")

    def __init__(self, fn, items, check):
        self.fn = fn
        self.items = items
        self.check = check      # result -> (max error, failed items)


def _max_err(*pairs) -> float:
    """Largest absolute difference over all pairs; NaN anywhere reads inf."""
    return ref.worst(*(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0)
                       for a, b in pairs))


class Scenario:
    """Raw inputs of one scattering instance and a lazily computed
    reference; ``objects`` builds the wgqed inputs from them."""

    def __init__(self, ground, excited, D, E_f, loss_tensor, direction="forward",
                 ground_index=0, photon_frequency=1.0):
        self.raw = dict(ground=np.asarray(ground, float), excited=np.asarray(excited, float),
                        D=np.asarray(D, complex), E_f=np.asarray(E_f, complex),
                        loss_tensor=np.asarray(loss_tensor, complex))
        self.kw = dict(direction=direction, ground_index=ground_index,
                       photon_frequency=photon_frequency)
        self.lossless = not np.any(self.raw["loss_tensor"].imag)
        self._ref = None

    def objects(self):
        """Fresh (model, env, loss, input) built from the raw arrays."""
        r, kw = self.raw, self.kw
        return (EmitterModel.from_arrays(r["ground"], r["excited"], r["D"]),
                WaveguideEnv(E_f=PolarizationVector(r["E_f"])),
                LossModel.from_array(r["loss_tensor"]),
                ScatterInput(kw["direction"], kw["ground_index"], kw["photon_frequency"]))

    def reference(self, E_f=None):
        if E_f is not None:
            r = self.raw
            return ref.scatter_reference(r["ground"], r["excited"], r["D"], E_f,
                                         r["loss_tensor"], **self.kw)
        if self._ref is None:
            self._ref = ref.scatter_reference(**self.raw, **self.kw)
        return self._ref

    def error(self, amplitudes, p_loss, reference) -> float:
        """Largest deviation from the reference solve, from the loss flux
        and, lossless, from unitarity."""
        amps_ref, p_ref = reference
        err = _max_err((amplitudes, amps_ref), (p_loss, p_ref))
        if self.lossless:
            err = ref.worst(err, abs(float(np.sum(np.abs(amplitudes) ** 2)) - 1.0))
        return err


# ---------------------------------------------------------------------------


class Sweep:
    """polarization_sweep over the 401-point theta grid: the V system at loss
    0.2, the V system lossless with dark-state projection (theta = 0, pi/2
    and pi take the projection path), the crossed-dipole system at loss 0.2
    and lossless. The seed orders the four sweeps within each pass."""

    name = "sweep"
    in_process = True
    tail_pct = 90.0
    tolerance = 1e-10

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.thetas = THETAS.copy()
        v = dict(ground=[0.0], excited=[1.0, 1.0], D=V_DIPOLES, E_f=X)
        ixi = dict(ground=[0.0, 0.0], excited=[1.0, 1.0], D=IXI_DIPOLES, E_f=X)
        self.cases = [
            (Scenario(**v, loss_tensor=iso(0.2)), False),
            (Scenario(**v, loss_tensor=NO_LOSS), True),
            (Scenario(**ixi, loss_tensor=iso(0.2)), False),
            (Scenario(**ixi, loss_tensor=NO_LOSS), False),
        ]
        self._refs: dict[int, list] = {}
        self._setup = self._pass(self.rng.permutation(len(self.cases)))

    def _pass(self, order):
        return [self._call(i) for i in order]

    def _call(self, i):
        sc, projection = self.cases[i]
        model, env, loss, inp = sc.objects()
        thetas = self.thetas.copy()

        def fn():
            return wgqed.polarization_sweep(model, env, loss, inp, thetas,
                                            dark_state_projection=projection)

        def check(points):
            if i not in self._refs:
                self._refs[i] = [sc.reference(sweep_field(t)) for t in thetas]
            if len(points) != len(thetas):
                return float("inf"), len(thetas)
            err, failed = 0.0, 0
            for p, t, r in zip(points, thetas, self._refs[i]):
                if p.failed:
                    failed += 1
                    continue
                res = p.result
                err = ref.worst(err, abs(p.theta - t), sc.error(res.amplitudes, res.p_loss, r))
            return err, failed

        return Call(fn, len(thetas), check)

    def first_pass(self):
        return self._pass(range(len(self.cases)))

    def passes(self):
        yield self._setup
        while True:
            yield self._pass(self.rng.permutation(len(self.cases)))


# ---------------------------------------------------------------------------


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_levels(rng, n_g: int, n_e: int):
    ground = rng.uniform(-0.3, 0.3, n_g)
    excited = 1.0 + rng.uniform(-0.4, 0.4, n_e)
    D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
    return ground, excited, D / np.linalg.norm(D, axis=2, keepdims=True)


def random_loss_tensor(rng, scale: float = 0.3) -> np.ndarray:
    """Symmetric tensor with a reactive part and a passive dissipative part."""
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    J = B @ B.T
    J /= max(1.0, float(np.max(np.abs(J))))
    return scale * (0.5 * (A + A.T) + 1j * J)


class ScatterBatch:
    """Independent scatter calls on seeded random instances: 1-3 ground and
    1-3 excited states, random field, frequency and direction;
    even-numbered instances lossless, the rest isotropic or random reactive
    loss tensors. A pass is ``per_pass`` new instances."""

    name = "scatter-batch"
    in_process = True
    tail_pct = 90.0
    tolerance = 1e-9
    per_pass = 1000

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._first = self._draw()
        self._setup = self._pass(self._first)

    def _draw(self):
        return [self._instance(self.rng, i) for i in range(self.per_pass)]

    def _pass(self, cases):
        return [self._call(sc) for sc in cases]

    @staticmethod
    def _instance(rng, i):
        n_g, n_e = (int(k) for k in rng.integers(1, 4, size=2))
        ground, excited, D = random_levels(rng, n_g, n_e)
        E_f = random_unit(rng)
        if i % 2 == 0:
            loss = NO_LOSS
        elif rng.random() < 0.5:
            loss = iso(float(rng.uniform(0.01, 0.5)))
        else:
            loss = random_loss_tensor(rng)
        return Scenario(ground, excited, D, E_f, loss,
                        direction="forward" if rng.random() < 0.5 else "backward",
                        ground_index=int(rng.integers(0, n_g)),
                        photon_frequency=float(rng.uniform(0.5, 1.5)))

    def _call(self, sc):
        model, env, loss, inp = sc.objects()

        def fn():
            return wgqed.scatter(model, env, loss, inp)

        def check(res):
            err = sc.error(res.amplitudes, res.p_loss, sc.reference())
            if sc.raw["D"].shape[:2] == (1, 1):
                err = ref.worst(err, self._two_level_error(sc, res))
            return err, 0

        return Call(fn, 1, check)

    @staticmethod
    def _two_level_error(sc, res):
        """Scalar closed form; a backward input is the forward problem in the
        time-reversed field."""
        r, kw = sc.raw, sc.kw
        E_in = r["E_f"] if kw["direction"] == "forward" else np.conj(r["E_f"])
        detuning = r["excited"][0] - (r["ground"][0] + kw["photon_frequency"])
        t, rr, p_loss = wgqed.two_level_closed_form(
            PolarizationVector(r["D"][0, 0]), WaveguideEnv(E_f=PolarizationVector(E_in)),
            LossModel.from_array(r["loss_tensor"]), detuning)
        return _max_err((t, res.transmission), (rr, res.reflection), (p_loss, res.p_loss))

    def first_pass(self):
        return self._pass(self._first)

    def passes(self):
        yield self._setup
        while True:
            yield self._pass(self._draw())


# ---------------------------------------------------------------------------

PARADOX_FIELD = np.array([2.0, 1.0j, 0.0]) / np.sqrt(5.0)
PARADOX_STATE = np.array([1.0j, 2.0]) / np.sqrt(5.0)


class Emission:
    """Seeded random evolve runs (n_e, n_g in 1..2, isotropic loss in
    [0, 0.5), 4 lifetimes of the slowest decay, 7 output points, default
    tolerances), plus the paradox decay on the preset's 250-point geometric
    grid. A pass is ``per_pass`` new instances with one paradox decay at a
    seeded place."""

    name = "emission"
    in_process = True
    tail_pct = 97.0
    tolerance = 1e-6
    per_pass = 24

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        t_max = 10.0    # 20 lifetimes of the slower decay rate, 2
        self.paradox_times = np.concatenate(([0.0], np.geomspace(t_max * 5e-5, t_max, 249)))
        self._first = self._draw()
        self._setup = self._pass(*self._first)

    def _draw(self):
        cases = [self._instance(self.rng) for _ in range(self.per_pass)]
        return cases, int(self.rng.integers(0, self.per_pass + 1))

    @staticmethod
    def _instance(rng):
        n_g, n_e = (int(k) for k in rng.integers(1, 3, size=2))
        ground, excited, D = random_levels(rng, n_g, n_e)
        E_f = random_unit(rng)
        s = float(rng.uniform(0.0, 0.5))
        psi = rng.normal(size=n_e) + 1j * rng.normal(size=n_e)
        psi /= np.linalg.norm(psi)
        rates = ref.total_decay_rates(D, E_f, s)
        t_max = 4.0 / float(np.min(rates[rates > 1e-12]))
        return dict(ground=ground, excited=excited, D=D, E_f=E_f, s=s, psi=psi,
                    times=np.linspace(0.0, t_max, 7))

    @staticmethod
    def _arrays(traj):
        rho = np.array([st.excited_block for st in traj.states])
        probs = np.array([st.ground_mode_probs for st in traj.states])
        trace = np.einsum("txx->t", rho).real + probs.sum(axis=(1, 2))
        return np.asarray(traj.times), rho, probs, trace

    def _call(self, c):
        model = EmitterModel.from_arrays(c["ground"], c["excited"], c["D"])
        env = WaveguideEnv(E_f=PolarizationVector(c["E_f"]))
        loss = LossModel.isotropic(c["s"])
        state = ExcitedSuperposition.from_sequence(c["psi"])

        def fn():
            return wgqed.evolve(model, env, loss, state,
                                t_max=float(c["times"][-1]), output_points=7)

        def check(traj):
            if "ref" not in c:
                c["ref"] = ref.emission_reference(c["excited"], c["D"], c["E_f"], c["s"],
                                                  c["psi"], c["times"])
            times, rho, probs, trace = self._arrays(traj)
            rho_ref, probs_ref = c["ref"]
            return _max_err((times, c["times"]), (rho, rho_ref), (probs, probs_ref),
                            (trace, 1.0)), 0

        return Call(fn, 1, check)

    def _paradox_call(self):
        model = EmitterModel.from_arrays([0.0], [1.0, 1.0], V_DIPOLES)
        env = WaveguideEnv(E_f=PolarizationVector(PARADOX_FIELD))
        loss = LossModel.none()
        state = ExcitedSuperposition.from_sequence(PARADOX_STATE)
        grid = self.paradox_times.copy()

        def fn():
            return wgqed.evolve(model, env, loss, state, times=grid)

        def check(traj):
            times, rho, probs, trace = self._arrays(traj)
            pop1, pop2, low, high = ref.paradox_closed_form(self.paradox_times)
            pair = np.sort(probs[:, 0, :2], axis=1)
            return _max_err((times, self.paradox_times), (rho[:, 0, 0].real, pop1),
                            (rho[:, 1, 1].real, pop2), (pair[-1], [low[-1], high[-1]]),
                            (probs[:, 0, 2], 0.0), (trace, 1.0)), 0

        return Call(fn, 1, check)

    def _pass(self, cases, paradox_at):
        calls = [self._call(c) for c in cases]
        calls.insert(paradox_at, self._paradox_call())
        return calls

    def first_pass(self):
        return self._pass(*self._first)

    def passes(self):
        yield self._setup
        while True:
            yield self._pass(*self._draw())


# ---------------------------------------------------------------------------

PRESETS = ("paradox-emission", "isotropic-scan", "ixi-scan", "two-level")


def run_child(cmd, env):
    """Run a child process to completion; returns (exit code, stderr text,
    peak RSS in MB of that child alone)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss / 1024.0


class Cli:
    """``python -m wgqed.cli run <preset> --out <file>``, one preset at a
    time, round-robin over the four presets in a seeded order per round. The
    traced run starts the same ``main`` through ``cli_shim.py``."""

    name = "cli"
    in_process = False
    tail_pct = 80.0
    tolerance = 1e-6

    def __init__(self, seed: int, env: dict, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.env = env                  # for the children: PYTHONPATH holds src/
        self.workdir = workdir
        self.spans_dir: Path | None = None   # set while tracing: children write spans here
        self.peak_rss_mb = 0.0
        self.span_files: list[Path] = []
        self._refs: dict[str, np.ndarray] = {}
        self._first = self._order()

    def _order(self):
        return [PRESETS[i] for i in self.rng.permutation(len(PRESETS))]

    def _call(self, name):
        out = self.workdir / f"{name}.csv"

        def fn():
            args = ["run", name, "--out", str(out)]
            if self.spans_dir is None:
                cmd = [sys.executable, "-m", "wgqed.cli", *args]
            else:
                spans = self.spans_dir / f"spans-{len(self.span_files)}.json"
                self.span_files.append(spans)
                cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans), *args]
            code, err, rss = run_child(cmd, self.env)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            return code, err

        def check(result):
            code, err = result
            if code != 0:
                sys.stderr.write(f"perfbench: {name} exited {code}: {err[-500:]}\n")
                return 0.0, 1
            table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            if name == "paradox-emission":
                # which direction is "forward" is a convention: compare the pair
                table[:, 3:5] = np.sort(table[:, 3:5], axis=1)
            expected = self._reference(name)
            if table.shape != expected.shape or np.isnan(table).any():
                return float("inf"), 1
            return _max_err((table, expected)), 0

        return Call(fn, 1, check)

    def _reference(self, name):
        if name not in self._refs:
            self._refs[name] = self._expected_table(name)
        return self._refs[name]

    @staticmethod
    def _expected_table(name):
        if name == "paradox-emission":
            t = np.concatenate(([0.0], np.geomspace(5e-4, 10.0, 249)))
            pop1, pop2, low, high = ref.paradox_closed_form(t)
            return np.column_stack([t, pop1, pop2, low, high, 0 * t, 1 + 0 * t])
        if name == "two-level":
            amps, p_loss = ref.scatter_reference([0.0], [1.0], [[X]], X, iso(0.2),
                                                 direction="forward", ground_index=0,
                                                 photon_frequency=1.0)
            rf, rb, rl = ref.two_level_rates(X, X, 0.2)
            beta = (rf + rb) / (rf + rb + rl)
            t, r = amps[0, 0], amps[1, 0]
            return np.array([[t.real, t.imag, r.real, r.imag, p_loss, rf, rb, rl, beta, beta]])
        D = V_DIPOLES if name == "isotropic-scan" else IXI_DIPOLES
        rows = []
        for theta in THETAS:
            amps, p_loss = ref.scatter_reference(np.zeros(D.shape[0]), [1.0, 1.0], D,
                                                 sweep_field(theta), iso(0.2),
                                                 direction="forward", ground_index=0,
                                                 photon_frequency=1.0)
            flat = np.column_stack([amps.real.ravel(), amps.imag.ravel()]).ravel()
            rows.append([theta, *flat, p_loss])
        return np.array(rows)

    def first_pass(self):
        return [self._call(p) for p in self._first]

    def passes(self):
        yield self.first_pass()
        while True:
            yield [self._call(p) for p in self._order()]


WORKLOADS = {w.name: w for w in (Sweep, ScatterBatch, Emission, Cli)}
