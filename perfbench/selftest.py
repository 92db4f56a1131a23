"""The benchmark's own tests.

    python3 perfbench/selftest.py

Takes about a minute: two short traced runs of every workload with one seed,
whose per-item counts must agree exactly; the references checked against
closed forms that do not involve wgqed; NaN results, which must fail the
correctness gate; and a run in a directory without the sources, which must
fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS, Tally  # noqa: E402


def run(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class TracedCountsRepeat(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for _ in range(2):
                    proc = run(workload, 7, 1, 1)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    results.append({k: v["value"] for k, v in result["metrics"].items()
                                    if k.endswith("_calls") or k in ("rk.rhs_evals",
                                                                     "trace.absent_targets")})
                self.assertEqual(results[0], results[1])


class References(unittest.TestCase):
    def test_lossless_reference_is_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_g, n_e = rng.integers(1, 4, size=2)
            D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
            E = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps, p_loss = ref.scatter_reference(
                rng.uniform(-0.3, 0.3, n_g), 1 + rng.uniform(-0.4, 0.4, n_e), D,
                E / np.linalg.norm(E), np.zeros((3, 3)), direction="backward",
                ground_index=int(rng.integers(0, n_g)), photon_frequency=rng.uniform(0.5, 1.5))
            self.assertAlmostEqual(float(np.sum(np.abs(amps) ** 2)), 1.0, delta=1e-10)
            self.assertEqual(p_loss, 0.0)

    def test_two_level_on_resonance(self):
        # matched linear dipole: t = 1 - G_wg / (G_wg + G_loss), r = t - 1
        for loss in (0.0, 0.2, 3.0):
            amps, p_loss = ref.scatter_reference(
                [0.0], [1.0], [[[1, 0, 0]]], [1, 0, 0], 1j * loss * np.eye(3),
                direction="forward", ground_index=0, photon_frequency=1.0)
            t = 1.0 - 10.0 / (10.0 + loss)
            self.assertAlmostEqual(amps[0, 0], t, delta=1e-14)
            self.assertAlmostEqual(amps[1, 0], t - 1.0, delta=1e-14)
            self.assertAlmostEqual(p_loss, 1.0 - t ** 2 - (1.0 - t) ** 2, delta=1e-14)

    def test_emission_reference_matches_paradox_closed_form(self):
        field = np.array([2.0, 1.0j, 0.0]) / np.sqrt(5.0)
        psi = np.array([1.0j, 2.0]) / np.sqrt(5.0)
        times = np.linspace(0.0, 3.0, 31)
        rho, probs = ref.emission_reference([1.0, 1.0], [[[1, 0, 0], [0, 1, 0]]], field, 0.0,
                                            psi, times)
        pop1, pop2, low, high = ref.paradox_closed_form(times)
        np.testing.assert_allclose(rho[:, 0, 0].real, pop1, atol=1e-12)
        np.testing.assert_allclose(rho[:, 1, 1].real, pop2, atol=1e-12)
        np.testing.assert_allclose(np.sort(probs[:, 0, :2], axis=1),
                                   np.column_stack([low, high]), atol=1e-12)
        self.assertAlmostEqual(high[-1] + low[-1] + pop1[-1] + pop2[-1], 1.0, delta=1e-12)


def nan_like(a):
    return np.full_like(np.asarray(a), np.nan)


class NanFailsTheGate(unittest.TestCase):
    """A NaN in any checked output must fail the run, wherever it sits."""

    def gate(self, call, result):
        tally = Tally(capacity=1)
        tally.run_pass([workloads.Call(lambda: result, call.items, call.check)])
        self.assertEqual(tally.max_err, float("inf"))
        self.assertEqual(ref.digits(tally.max_err), 0.0)
        self.assertFalse(tally.max_err <= 1.0)

    def test_scatter(self):
        call = workloads.ScatterBatch(1).first_pass()[0]
        res = call.fn()
        self.gate(call, SimpleNamespace(amplitudes=nan_like(res.amplitudes), p_loss=res.p_loss,
                                        transmission=res.transmission,
                                        reflection=res.reflection))

    def test_sweep_point(self):
        call = workloads.Sweep(1).first_pass()[0]
        points = [SimpleNamespace(theta=p.theta, failed=p.failed, result=p.result)
                  for p in call.fn()]
        bad = points[5].result
        points[5].result = SimpleNamespace(amplitudes=bad.amplitudes, p_loss=float("nan"))
        self.gate(call, points)

    def test_emission_state(self):
        call = workloads.Emission(1).first_pass()[1]
        traj = call.fn()
        states = [SimpleNamespace(excited_block=st.excited_block,
                                  ground_mode_probs=st.ground_mode_probs)
                  for st in traj.states]
        states[3].excited_block = nan_like(states[3].excited_block)
        self.gate(call, SimpleNamespace(times=traj.times, states=states))


class Contract(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_tmp" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("sweep", 1, 1, 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
