"""Acceptance suite: every shipped criterion checked at its stated tolerance,
one PASS/FAIL line printed per criterion (run with ``pytest -s`` to see them).

One check asserts an idealized rounded target that the exact solution of the
model provably misses, and it fails by design:

* criterion 1 (long-time pair): the direction split of the showcase emission
  run is exactly (41/50, 9/50) = (0.82, 0.18); the asserted {0.8, 0.2} within
  1e-3 matches those numbers only after rounding to one decimal. The exact
  split is pinned in ``test_emission.py`` and ``test_cli.py``.

Criterion 3 (elastic suppression) asserts the exact value of the model in
place of the idealized limit it approaches: with the shipped loss 0.2 the
elastic forward amplitude at circular polarization is 1 - 10/10.4 ~ 0.0385,
checked within 1e-10 in the ``ixi-scan`` table. The idealized < 1e-10 holds in
the lossless limit, which a separate check runs at decreasing loss down to 0.
"""

import time

import numpy as np
import pytest

from wgqed import (
    EmitterModel,
    ExcitedSuperposition,
    LossModel,
    PolarizationVector,
    ScatterInput,
    evolve,
    rotate_excited_basis,
    scatter,
    two_level_closed_form,
)
from wgqed.cli import main as cli_main
from wgqed.emission import DEFAULT_LIFETIMES

from conftest import (
    make_env,
    oracle_loss_probability,
    oracle_scatter,
    paradox_model,
    random_model,
    random_state,
    random_unit_vector,
    random_unitary,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def read_table(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def ixi_model(phase=1j) -> EmitterModel:
    off = [0, phase, 0]
    return EmitterModel.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [[[1, 0, 0], off], [off, [1, 0, 0]]]
    )


# ---------------------------------------------------------------------------
# criterion 1: showcase emission run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def paradox_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc1") / "pe.csv"
    start = time.perf_counter()
    code = cli_main(["run", "paradox-emission", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    header, data = read_table(out)
    return header, data, elapsed


def test_criterion_1_emission_dynamics(paradox_table):
    header, data, elapsed = paradox_table
    t = data[:, 0]
    pop1, pop2 = data[:, 1], data[:, 2]
    p_fwd, p_bwd = data[:, 3], data[:, 4]

    ok_pops = abs(pop1[0] - 0.2) < 1e-12 and abs(pop2[0] - 0.8) < 1e-12

    early = (t > 0) & (t < 0.05)
    rate1 = -np.polyfit(t[early], np.log(pop1[early]), 1)[0]
    rate2 = -np.polyfit(t[early], np.log(pop2[early]), 1)[0]
    ratio = rate1 / rate2
    ok_ratio = abs(ratio - 4.00) <= 0.01

    # suppressed direction: zero initial slope, probability growing only
    # through the quadratically rising flux (hence cubically in time)
    sup, dom = (p_fwd, p_bwd) if p_fwd[-1] < p_bwd[-1] else (p_bwd, p_fwd)
    t1 = t[1]
    linear_coeff = sup[1] / t1
    quad_scale = dom[1] / t1          # initial rate feeding the quadratic flux
    ok_linear = linear_coeff < 1e-6 * quad_scale
    i10 = int(np.argmin(np.abs(t - 10.0 * t1)))
    cubic_ratio = sup[i10] / sup[1]
    ok_cubic = abs(cubic_ratio / (t[i10] / t1) ** 3 - 1.0) < 0.15

    ok_runtime = elapsed < 1.0
    ok = ok_pops and ok_ratio and ok_linear and ok_cubic and ok_runtime
    report(
        "1 (emission dynamics)", ok,
        f"pops ({pop1[0]:.3f}, {pop2[0]:.3f}), rate ratio {ratio:.4f}, "
        f"suppressed linear coeff {linear_coeff:.2e} vs scale {quad_scale:.2f}, "
        f"cubic growth ratio {cubic_ratio:.1f}, runtime {elapsed:.2f} s",
    )
    assert ok_pops, "initial populations must be (0.2, 0.8)"
    assert ok_ratio, f"early decay-rate ratio {ratio} outside 4.00 +- 0.01"
    assert ok_linear, "suppressed direction has a linear growth component"
    assert ok_cubic, "suppressed direction probability is not cubic in time"
    assert ok_runtime, f"runtime {elapsed:.2f} s exceeds 1 s"


def test_criterion_1_long_time_pair(paradox_table):
    """Asserts the idealized split {0.8, 0.2} +- 1e-3; the exact model value
    is {41/50, 9/50}, so this check fails by design (see module docstring)."""
    header, data, _ = paradox_table
    pair = sorted([data[-1, 3], data[-1, 4]])
    ok = abs(pair[0] - 0.2) <= 1e-3 and abs(pair[1] - 0.8) <= 1e-3
    report("1 (long-time pair)", ok,
           f"directional pair ({pair[1]:.4f}, {pair[0]:.4f}) vs target (0.8, 0.2) +- 1e-3")
    assert ok, f"long-time pair {pair} differs from (0.2, 0.8) beyond 1e-3"


# ---------------------------------------------------------------------------
# criterion 2: isotropic polarization scan
# ---------------------------------------------------------------------------


def _half_max_width(thetas, refl):
    peak = refl[0]
    below = np.nonzero(refl < peak / 2.0)[0]
    i = below[0]
    # linear interpolation of the crossing
    frac = (peak / 2.0 - refl[i - 1]) / (refl[i] - refl[i - 1])
    crossing = thetas[i - 1] + frac * (thetas[i] - thetas[i - 1])
    return 2.0 * crossing  # symmetric peak centered at theta = 0


def test_criterion_2_isotropic_scan(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert cli_main(["run", "isotropic-scan", "--loss", "0.2", "--out", "a.csv"]) == 0
    assert cli_main(["run", "isotropic-scan", "--loss", "0.003", "--out", "b.csv"]) == 0
    elapsed = time.perf_counter() - start

    widths = {}
    ok_circ = True
    for name, strength in (("a.csv", 0.2), ("b.csv", 0.003)):
        header, data = read_table(tmp_path / name)
        thetas = data[:, 0]
        r = data[:, 3] + 1j * data[:, 4]
        for target in (np.pi / 4, 3 * np.pi / 4):
            idx = int(np.argmin(np.abs(thetas - target)))
            ok_circ = ok_circ and abs(r[idx]) < 1e-10
        widths[strength] = _half_max_width(thetas, np.abs(r))
        if strength == 0.2:
            t0 = complex(data[0, 1], data[0, 2])
            r0 = r[0]
            ok_reflective = abs(r0) > abs(t0) and abs(r0) > 0.9

    ratio = widths[0.2] / widths[0.003]
    ok_width = ratio > 5.0

    env = make_env([np.cos(0.01), 1j * np.sin(0.01), 0])
    res = scatter(paradox_model(), env, LossModel.none(), ScatterInput(),
                  dark_state_projection=True)
    ok_near = abs(res.transmission - (-1.0)) <= 1e-6
    res0 = scatter(paradox_model(), make_env([1, 0, 0]), LossModel.none(),
                   ScatterInput(), dark_state_projection=True)
    ok_exact = abs(abs(res0.reflection) - 1.0) < 1e-12 and abs(res0.transmission) < 1e-12

    ok_runtime = elapsed < 5.0
    ok = ok_circ and ok_reflective and ok_width and ok_near and ok_exact and ok_runtime
    report(
        "2 (isotropic scan)", ok,
        f"|r| at circular < 1e-10: {ok_circ}, reflective at linear: {ok_reflective}, "
        f"width ratio {ratio:.2f} > 5, lossless limit t(0.01)={res.transmission:.6f}, "
        f"|r(0)|={abs(res0.reflection):.3f}, runtime {elapsed:.2f} s",
    )
    assert ok_circ and ok_reflective and ok_width and ok_near and ok_exact and ok_runtime


# ---------------------------------------------------------------------------
# criterion 3: crossed-dipole scan (parity toggle)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ixi_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc3") / "ixi.csv"
    assert cli_main(["run", "ixi-scan", "--out", str(out)]) == 0
    return read_table(out)


def _ixi_row_amplitudes(data, target):
    thetas = data[:, 0]
    row = data[int(np.argmin(np.abs(thetas - target)))]
    return {
        "f_g1": complex(row[1], row[2]), "f_g2": complex(row[3], row[4]),
        "b_g1": complex(row[5], row[6]), "b_g2": complex(row[7], row[8]),
    }


def test_criterion_3_parity_toggle(ixi_table):
    header, data = ixi_table
    circ = _ixi_row_amplitudes(data, np.pi / 4)
    lin = _ixi_row_amplitudes(data, 0.0)

    ok_backward = abs(circ["b_g1"]) < 1e-10 and abs(circ["b_g2"]) < 1e-10

    # flip transmission probability equals the scattered-channel probability
    # of the two-level closed form at the same rate multiset (5, 5, loss 0.4)
    _, r2, _ = two_level_closed_form(
        PolarizationVector([1, 0, 0]), make_env([1, 0, 0]), LossModel.isotropic(0.4)
    )
    ok_flip = abs(abs(circ["f_g2"]) ** 2 - abs(r2) ** 2) < 1e-8

    ok_linear = (abs(lin["f_g2"]) < 1e-10 and abs(lin["b_g2"]) < 1e-10
                 and abs(lin["b_g1"]) > max(abs(lin["f_g1"]), 0.9))

    variant = scatter(ixi_model(phase=1.0), make_env(np.array([1, 1j, 0]) / np.sqrt(2)),
                      LossModel.isotropic(0.2), ScatterInput("forward", 0))
    ok_variant = (abs(variant.amplitude("backward", 1)) > 0.9
                  and abs(variant.amplitude("forward", 1)) < 1e-10)

    ok = ok_backward and ok_flip and ok_linear and ok_variant
    report(
        "3 (parity toggle)", ok,
        f"backward amps {abs(circ['b_g1']):.1e}/{abs(circ['b_g2']):.1e}, "
        f"|flip|^2 - |r_2L|^2 = {abs(circ['f_g2'])**2 - abs(r2)**2:.2e}, "
        f"linear reflects: {ok_linear}, real-dipole variant reflects+flips: {ok_variant}",
    )
    assert ok_backward and ok_flip and ok_linear and ok_variant


def test_criterion_3_elastic_forward_suppression(ixi_table):
    """The elastic forward amplitude at circular polarization is suppressed to
    the loss fraction s_tot / (Gamma + s_tot) = 1 - 10/10.4 within 1e-10.

    At E_f = (1, i, 0)/sqrt(2) each unit transition emits at rate 2.5 per
    direction; each excited state carries two, so Gamma = 2 * 2 * 2.5 = 10.
    The shipped isotropic loss 0.2 per unit transition gives s_tot = 0.4. The
    forward g1 channel carries Gamma / 2, so on resonance
    gamma(f, g1) = 1 - 2 (Gamma / 2) / (Gamma + s_tot), which is 0 only in the
    lossless limit.
    """
    header, data = ixi_table
    circ = _ixi_row_amplitudes(data, np.pi / 4)
    guided, loss_rate = 2 * 2 * 2.5, 2 * 0.2
    target = 1.0 - guided / (guided + loss_rate)
    deviation = abs(circ["f_g1"] - target)
    ok = deviation < 1e-10
    report("3 (elastic suppression)", ok,
           f"gamma(f, g1) = {circ['f_g1']:.6f} vs exact 1 - 10/10.4 = "
           f"{target:.6f}, deviation {deviation:.1e} (tolerance 1e-10)")
    assert ok, f"elastic forward amplitude {circ['f_g1']} differs from {target} beyond 1e-10"


def test_criterion_3_elastic_suppression_lossless_limit(tmp_path, monkeypatch):
    """The elastic forward amplitude at circular polarization follows the loss
    fraction s_tot / (Gamma + s_tot) within 1e-10 as the loss decreases, and
    drops below 1e-10 (complete switching) at zero loss.

    Gamma = 10 as in the shipped case; s_tot = 2 * loss for two unit
    transitions per excited state.
    """
    monkeypatch.chdir(tmp_path)
    guided = 2 * 2 * 2.5
    rows = []
    for strength in (0.2, 0.02, 0.002, 0.0):
        assert cli_main(["run", "ixi-scan", "--loss", str(strength),
                         "--out", "ixi.csv"]) == 0
        _, data = read_table(tmp_path / "ixi.csv")
        amp = _ixi_row_amplitudes(data, np.pi / 4)["f_g1"]
        loss_rate = 2 * strength
        rows.append((strength, amp, loss_rate / (guided + loss_rate)))

    ok_fraction = all(abs(amp - target) < 1e-10 for _, amp, target in rows)
    ok_lossless = abs(rows[-1][1]) < 1e-10
    ok = ok_fraction and ok_lossless
    report("3 (elastic suppression, lossless limit)", ok,
           ", ".join(f"loss {s}: |gamma(f, g1)| {abs(a):.2e} vs {t:.2e}"
                     for s, a, t in rows))
    assert ok_fraction, f"gamma(f, g1) departs from s_tot / (Gamma + s_tot): {rows}"
    assert ok_lossless, f"|gamma(f, g1)| = {abs(rows[-1][1]):.2e} not < 1e-10 at zero loss"


# ---------------------------------------------------------------------------
# criterion 4: guided-fraction arithmetic
# ---------------------------------------------------------------------------


def test_criterion_4_guided_fraction():
    model = EmitterModel.from_arrays([0.0], [1.0], [[[1, 0, 0]]])
    env = make_env([1, 0, 0])
    results = {}
    ok = True
    for strength in (0.2, 0.003):
        traj = evolve(model, env, LossModel.isotropic(strength),
                      ExcitedSuperposition.from_sequence([1.0]),
                      t_max=3.5, output_points=9)
        pf, pb, _ = traj.final_totals[:3]
        beta = (pf + pb) / (1.0 - traj.final_totals.residual_excited)
        expected = 10.0 / (10.0 + strength)
        results[strength] = (beta, expected)
        ok = ok and abs(beta - expected) < 1e-9
    report(
        "4 (guided fraction)", ok,
        ", ".join(f"loss {s}: beta {b:.12f} vs {e:.12f}"
                  for s, (b, e) in results.items()),
    )
    for strength, (beta, expected) in results.items():
        assert abs(beta - expected) < 1e-9


# ---------------------------------------------------------------------------
# criterion 5: oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(501)
    worst_closed = 0.0
    for _ in range(1000):
        model = random_model(rng, 1, 1)
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(float(rng.uniform(0, 0.5)))
        omega_f = float(rng.uniform(0.5, 1.5))
        res = scatter(model, env, loss, ScatterInput(photon_frequency=omega_f))
        detuning = model.excited_energies[0] - model.ground_energies[0] - omega_f
        t, r, _ = two_level_closed_form(model.dipole_array()[0, 0], env, loss, detuning)
        worst_closed = max(worst_closed,
                           abs(res.transmission - t), abs(res.reflection - r))

    worst_forms = 0.0
    for _ in range(1000):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(float(rng.uniform(0, 0.5)))
        inp = ScatterInput(ground_index=int(rng.integers(0, model.n_ground)),
                           photon_frequency=float(rng.uniform(0.5, 1.5)))
        a = scatter(model, env, loss, inp).amplitudes
        b = oracle_scatter(model, env, loss, inp)
        worst_forms = max(worst_forms, float(np.max(np.abs(a - b))))

    ok = worst_closed < 1e-12 and worst_forms < 1e-12
    report("5 (oracle equivalence)", ok,
           f"closed-form deviation {worst_closed:.2e}, form deviation {worst_forms:.2e}, "
           "2 x 1000 instances")
    assert worst_closed < 1e-12
    assert worst_forms < 1e-12


# ---------------------------------------------------------------------------
# criterion 6: conservation suite
# ---------------------------------------------------------------------------


def test_criterion_6_conservation():
    rng = np.random.default_rng(601)
    worst_unitarity = 0.0
    worst_balance = 0.0
    worst_passivity = 0.0
    for i in range(1000):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        env = make_env(random_unit_vector(rng))
        lossless = i % 2 == 0
        loss = LossModel.isotropic(0.0 if lossless else float(rng.uniform(0.01, 0.5)))
        inp = ScatterInput(
            direction="forward" if rng.random() < 0.5 else "backward",
            ground_index=int(rng.integers(0, model.n_ground)),
            photon_frequency=float(rng.uniform(0.5, 1.5)),
        )
        res = scatter(model, env, loss, inp)
        if lossless:
            worst_unitarity = max(
                worst_unitarity, abs(float(np.sum(np.abs(res.amplitudes) ** 2)) - 1.0)
            )
        else:
            # p_loss = 1 - sum |gamma|^2 by construction: balance it against
            # the loss flux of the oracle response
            p_flux = oracle_loss_probability(model, env, loss, inp)
            worst_balance = max(worst_balance, abs(res.p_loss - p_flux))
            worst_passivity = max(worst_passivity, -res.p_loss)

    worst_trace = 0.0
    worst_monotone = 0.0
    trace_bound = 1e-7
    for _ in range(1000):
        model = random_model(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(float(rng.uniform(0, 0.5)))
        state = ExcitedSuperposition.from_sequence(random_state(rng, model.n_excited))
        # four lifetimes of the slowest mode: the default horizon is twenty
        horizon = evolve(model, env, loss, state, output_points=2).times[-1]
        traj = evolve(model, env, loss, state, t_max=horizon * (4.0 / DEFAULT_LIFETIMES),
                      output_points=7)
        traces = np.array([s.excited_block.trace().real + s.ground_mode_probs.sum()
                           for s in traj.states])
        worst_trace = max(worst_trace, float(np.max(np.abs(traces - 1.0))))
        exc = np.array([float(np.trace(s.excited_block).real) for s in traj.states])
        worst_monotone = max(worst_monotone, float(np.max(np.diff(exc))))

    ok = (worst_unitarity < 1e-10 and worst_balance < 1e-9
          and worst_passivity < 1e-9 and worst_trace < trace_bound
          and worst_monotone <= 1e-10)
    report(
        "6 (conservation)", ok,
        f"unitarity {worst_unitarity:.2e}, balance {worst_balance:.2e}, "
        f"passivity {worst_passivity:.2e}, trace {worst_trace:.2e}, "
        f"monotone {worst_monotone:.2e}, 2 x 1000 instances",
    )
    assert worst_unitarity < 1e-10
    assert worst_balance < 1e-9
    assert worst_passivity < 1e-9
    assert worst_trace < trace_bound
    assert worst_monotone <= 1e-10


# ---------------------------------------------------------------------------
# criterion 7: basis symmetry
# ---------------------------------------------------------------------------


def test_criterion_7_basis_symmetry():
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(100):
        n_e = int(rng.integers(2, 4))
        model = random_model(rng, int(rng.integers(1, 3)), n_e, degenerate=True)
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(float(rng.uniform(0, 0.3)))
        inp = ScatterInput(ground_index=int(rng.integers(0, model.n_ground)),
                           photon_frequency=float(rng.uniform(0.8, 1.2)))
        rotated = rotate_excited_basis(model, random_unitary(rng, n_e))
        a = scatter(model, env, loss, inp).amplitudes
        b = scatter(rotated, env, loss, inp).amplitudes
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-10
    report("7 (basis symmetry)", ok,
           f"worst amplitude deviation {worst:.2e} over 100 random rotations")
    assert worst < 1e-10
