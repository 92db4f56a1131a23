"""wgqed benchmark.

    python3 perfbench/run.py --workload {sweep,scatter-batch,emission,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance and sample counts, and the same record is written to
``.perfbench_out/``.

``--trace 0`` reports the end-to-end metrics. Whole passes of calls repeat
for ``--seconds``. Only the calls into wgqed are timed, and each time is
scaled by the machine's slowdown at that moment (see ``Tally``); the
correctness checks run between calls.
``setup_s`` is the median over fresh interpreters, spread over the run, of
the time to start, import wgqed and build the workload's inputs.

``--trace 1`` reports the per-layer metrics, per item. Untraced and traced
passes of the workload's fixed first pass alternate (see ``tracing.py``);
the difference is the tracing overhead. The engine is single-threaded and
has no queues, so no layer has a waiting time to report.

The benchmark pins no CPU and fixes no clock frequency, which a shared host
does not allow; every timing carries the noise of a shared machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS_SEEN = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:   # one thread, set before numpy loads BLAS
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "scatter-batch", "emission", "cli")
SETUP_REPEATS = 7
CAPACITY = 1 << 18       # calls one run can record
PROBE_INTERVAL_S = 0.1
PROBE_SAMPLES = 5
PROBE_REF_S = 1.45e-4    # median speed_probe unloaded: 2-core x86-64, Python 3.11, numpy 2.4
IMPORT_REPEATS = 5
HOST_NOTE = ("a shared host allows no CPU pinning or frequency control; "
             "timings include load from other tenants of the machine")

# per-layer metric -> (span or counter name, statistic)
LAYER_METRICS = {
    "cli.parse_config_calls": ("cli.parse_config", "calls"),
    "cli.parse_config_ms": ("cli.parse_config", "total_ms"),
    "cli.run_self_ms": ("cli.run", "self_ms"),
    "photonic.coupling_bundle_calls": ("photonic.coupling_bundle", "calls"),
    "photonic.coupling_bundle_self_ms": ("photonic.coupling_bundle", "self_ms"),
    "emitter.validate_calls": ("emitter.validate", "calls"),
    "scattering.scatter_calls": ("scattering.scatter", "calls"),
    "scattering.scatter_self_ms": ("scattering.scatter", "self_ms"),
    "scattering.polarization_sweep_self_ms": ("scattering.polarization_sweep", "self_ms"),
    "linalg.solve_calls": ("linalg.solve", "calls"),
    "linalg.cond_calls": ("linalg.cond", "calls"),
    "linalg.eigh_calls": ("linalg.eigh", "calls"),
    "linalg.eig_calls": ("linalg.eig", "calls"),
    "emission.evolve_calls": ("emission.evolve", "calls"),
    "emission.evolve_self_ms": ("emission.evolve", "self_ms"),
    "rk.integrate_adaptive_ms": ("rk.integrate_adaptive", "total_ms"),
    "rk.rhs_evals": ("rk.rhs", "count"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed_setup(args) -> float:
    """Wall time from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return elapsed


def import_times() -> tuple[list[float], list[float]]:
    code = ("import time; t0 = time.perf_counter(); import numpy; "
            "t1 = time.perf_counter(); import wgqed.cli; t2 = time.perf_counter(); "
            "print(t1 - t0, t2 - t1)")
    numpy_s, wgqed_s = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout
        a, b = (float(v) for v in out.split())
        numpy_s.append(a)
        wgqed_s.append(b)
    return numpy_s, wgqed_s


def build(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        tmp = ROOT / ".perfbench_tmp"
        tmp.mkdir(exist_ok=True)
        return cls(args.seed, child_env(), tmp)
    return cls(args.seed)


_PROBE_RNG = np.random.default_rng(0)
_PROBE_D = _PROBE_RNG.normal(size=(1, 2, 3)) + 1j * _PROBE_RNG.normal(size=(1, 2, 3))
_PROBE_E = _PROBE_RNG.normal(size=3) + 0j
_PROBE_LOSS = 0.2j * np.eye(3)


def speed_probe() -> float:
    """Seconds for three small dense scattering solves from ``reference.py``:
    numpy work of the kind wgqed does that runs no wgqed code and nothing the
    tracer wraps, so neither a change to wgqed nor tracing moves it."""
    t0 = time.perf_counter()
    for i in range(3):
        ref.scatter_reference([0.0], [1.0, 1.0 + 0.01 * i], _PROBE_D, _PROBE_E, _PROBE_LOSS,
                              direction="forward", ground_index=0, photon_frequency=1.0)
    return time.perf_counter() - t0


class Tally:
    """Executed calls of a phase with their times, the machine-speed probes
    taken between them, and the correctness gate.

    Load from other tenants of a shared machine comes in phases of seconds
    and slows work by up to a factor of two. A speed probe, the median of
    ``PROBE_SAMPLES`` runs of ``speed_probe``, runs between calls at least
    every ``PROBE_INTERVAL_S``; each call's time is divided by the probe's
    slowdown at that moment, interpolated, against its unloaded time
    ``PROBE_REF_S``. Times are thus in ms of an unloaded machine, as far as
    a call slows like the probe; the raw wall times are kept too.

    Call times go into arrays that are allocated and written through up
    front, so the harness's own memory does not grow with the number of
    calls; a run that fills them ends early."""

    def __init__(self, capacity: int = CAPACITY):
        self.raw = np.full(capacity, np.nan)
        self.mids = np.full(capacity, np.nan)    # midpoint of each call
        self.calls = 0
        self.items = 0
        self.probe_t: list[float] = []
        self.probe_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0

    @property
    def full(self) -> bool:
        return self.calls == len(self.raw)

    def probe(self) -> None:
        self.probe_t.append(time.perf_counter())
        self.probe_s.append(statistics.median(speed_probe() for _ in range(PROBE_SAMPLES)))

    def slowdown(self, t):
        return np.interp(t, self.probe_t, self.probe_s) / PROBE_REF_S

    def run_pass(self, calls, tracer=None) -> None:
        for call in calls:
            if self.full:
                break
            if not self.probe_t or time.perf_counter() - self.probe_t[-1] >= PROBE_INTERVAL_S:
                self.probe()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = call.fn()
            except Exception as exc:  # a failed operation: count it, keep going
                result, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            self.raw[self.calls] = elapsed
            self.mids[self.calls] = t0 + elapsed / 2
            self.calls += 1
            self.items += call.items
            self.attempted += call.items
            if error is None:
                try:
                    err, failed = call.check(result)
                except Exception as exc:  # a result the check cannot read
                    error = exc
            if error is not None:
                print(f"perfbench: call failed: {error!r}", file=sys.stderr)
                err, failed = math.inf, call.items
            self.failed += failed
            self.max_err = ref.worst(self.max_err, err)
        self.probe()

    def times(self):
        """Call times in seconds of an unloaded machine."""
        return self.raw[:self.calls] / self.slowdown(self.mids[:self.calls])

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_err = ref.worst(self.max_err, other.max_err)


def provenance(args) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "blas_threads_seen": BLAS_THREADS_SEEN,
        "blas_threads_used": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "note": HOST_NOTE,
    }


def peak_rss_mb(workload) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload.peak_rss_mb


def end_to_end(args, workload) -> tuple[Tally, dict, dict]:
    # Set-ups are spread over the run so that they sample the same machine
    # load as the calls; they happen between passes, outside every timed call.
    marks = [args.seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    setups: list[float] = []
    setups_raw: list[float] = []

    def setup():
        tally.probe()
        t0 = time.perf_counter()
        raw = timed_setup(args)
        tally.probe()
        setups_raw.append(raw)
        setups.append(raw / float(tally.slowdown(t0 + raw / 2)))

    tally = Tally()
    start = time.perf_counter()
    for calls in workload.passes():
        if marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            setup()
        tally.run_pass(calls)
        if tally.full or time.perf_counter() - start >= args.seconds:
            break
    rss_mb = peak_rss_mb(workload)
    for _ in marks:
        setup()

    ms = tally.times() * 1e3
    tail = float(np.percentile(ms, workload.tail_pct))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (tally.items / (ms.sum() / 1e3), "1/s"),
        "call_p50_ms": (float(np.median(ms)), "ms"),
        "call_tail_ms": (tail, "ms"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "digits": (ref.digits(tally.max_err), "digits"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    raw = tally.raw[:tally.calls] * 1e3
    detail = {
        "calls": tally.calls, "items": tally.items, "tail_pct": workload.tail_pct,
        "calls_at_or_beyond_tail": int(np.sum(ms >= tail)),
        "wall_items_per_s": tally.items / (raw.sum() / 1e3),
        "wall_call_p50_ms": float(np.median(raw)),
        "wall_call_tail_ms": float(np.percentile(raw, workload.tail_pct)),
        "wall_setup_s": statistics.median(setups_raw),
        "slowdown_median": float(np.median(tally.slowdown(tally.mids[:tally.calls]))),
        "max_err": tally.max_err, "tolerance": workload.tolerance,
        "setup_samples_s": setups,
    }
    return tally, metrics, detail


def per_layer(args, workload) -> tuple[Tally, dict, dict]:
    from tracing import Tracer, merge

    numpy_s, wgqed_s = import_times()
    # Untraced and traced passes alternate, so both see the same machine;
    # each is built afresh. Span times are scaled by each traced pass's
    # slowdown, like call times.
    tally = Tally(capacity=0)
    plain_ms, traced_ms, n = 0.0, 0.0, 0
    spans_dir = OUT / f"spans-{args.workload}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    state = {"agg": {}, "counts": {}, "absent": []}
    start = time.perf_counter()
    while True:
        calls = workload.first_pass()
        plain = Tally(capacity=len(calls))
        plain.run_pass(calls)
        calls = workload.first_pass()
        traced = Tally(capacity=len(calls))
        if workload.in_process:
            tracer = Tracer().install()
            traced.run_pass(calls, tracer)
            tracer.uninstall()
            one = tracer.state()
        else:
            workload.spans_dir, workload.span_files = spans_dir, []
            traced.run_pass(calls)
            workload.spans_dir = None
            states = [json.loads(p.read_text()) for p in workload.span_files]
            for p in workload.span_files:
                p.unlink()
            one = merge(states)
            one["spans"] = [st["spans"] for st in states]
        scale = traced.times().sum() / traced.raw.sum()
        for acc in one["agg"].values():
            acc[1:] = [int(v * scale) for v in acc[1:]]
        spans = one.pop("spans")
        state = merge([state, one])
        plain_ms += plain.times().sum() * 1e3
        traced_ms += traced.times().sum() * 1e3
        n += traced.items
        tally.add(plain)
        tally.add(traced)
        if time.perf_counter() - start >= args.seconds:
            break
    state["spans"] = spans                   # the last traced pass
    for name, _ in LAYER_METRICS.values():
        if name not in state["agg"] and name not in state["counts"]:
            state["absent"].append(name)

    metrics = {
        "import.numpy_ms": (statistics.median(numpy_s) * 1e3, "ms"),
        "import.wgqed_ms": (statistics.median(wgqed_s) * 1e3, "ms"),
    }
    for metric, (name, stat) in LAYER_METRICS.items():
        if stat == "count":
            value, unit = state["counts"].get(name, 0) / n, "count"
        else:
            calls_, total_ns, self_ns = state["agg"].get(name, (0, 0, 0))
            value, unit = {"calls": (calls_ / n, "count"),
                           "total_ms": (total_ns / 1e6 / n, "ms"),
                           "self_ms": (self_ns / 1e6 / n, "ms")}[stat]
        metrics[metric] = (value, unit)
    metrics["trace.overhead_ms"] = ((traced_ms - plain_ms) / n, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    metrics["trace.absent_targets"] = (len(state["absent"]), "count")

    trace_file = OUT / f"trace-{args.workload}.json"
    with open(trace_file, "w") as fh:
        json.dump({"seed": args.seed, "items": n, **state}, fh, separators=(",", ":"))
    detail = {"traced_items": n, "untraced_ms_per_item": plain_ms / n,
              "traced_ms_per_item": traced_ms / n, "absent": state["absent"],
              "max_err": tally.max_err, "tolerance": workload.tolerance,
              "trace_file": str(trace_file.relative_to(ROOT))}
    return tally, metrics, detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wgqed" / "__init__.py").is_file():
        print(f"perfbench: no wgqed sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = build(args)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    tally, metrics, detail = measure(args, workload)
    correct = tally.failed == 0 and tally.max_err <= workload.tolerance
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args), "detail": detail, **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "provenance", "detail")}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
