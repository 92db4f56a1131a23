"""Span tracing installed from outside the program.

Wrappers replace the module attributes that callers look up at call time:
every public function defined in the wgqed modules (``cli``, ``photonic``,
``scattering``, ``emission``, ``rk``, ``emitter``) wherever one of those
namespaces, or the package itself, binds it, plus ``numpy.linalg.solve``,
``cond``, ``eigh`` and ``eig``. The ``rhs`` that ``integrate_adaptive``
receives is wrapped too, to count right-hand-side evaluations. Nothing in
``src/`` changes. A module or function that no longer exists is recorded as
absent and its metrics read 0.

Spans (id, name, start_ns, end_ns, parent id) are kept in memory and written
once, by :meth:`Tracer.dump`. Aggregates (calls, inclusive and self time)
are kept exactly for every call; stored spans stop at ``SPAN_CAP``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter_ns

MODULES = ("emitter", "photonic", "scattering", "emission", "rk", "cli")
LINALG = ("solve", "cond", "eigh", "eig")
RHS_COUNTER = "rk.rhs"
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.agg: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []          # [span id, child_ns]
        self._next_id = 0
        self._patches: list[tuple] = []       # (namespace, attr, original)

    def wrap(self, name, fn):
        self.agg.setdefault(name, [0, 0, 0])
        stack, spans, agg = self._stack, self.spans, self.agg[name]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, t0, t1, parent))

        return traced

    def count(self, name, fn):
        """Wrap ``fn`` so that each call while active bumps ``counts[name]``."""
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap the wgqed modules and numpy.linalg; returns self."""
        import numpy.linalg
        import wgqed

        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"wgqed.{short}")
            except ImportError:
                self.absent.append(f"wgqed.{short}")
        namespaces = [wgqed, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, obj)
                if name == "rk.integrate_adaptive":
                    wrapped = self._count_rhs(wrapped)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._patch(ns, attr, wrapped)
        for attr in LINALG:
            self._patch(numpy.linalg, attr,
                        self.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr)))
        return self

    def _patch(self, ns, attr, value):
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self):
        """Put every wrapped attribute back."""
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _count_rhs(self, integrate):
        self.counts.setdefault(RHS_COUNTER, 0)

        def integrate_counting(rhs, *args, **kwargs):
            return integrate(self.count(RHS_COUNTER, rhs), *args, **kwargs)

        return integrate_counting

    def state(self) -> dict:
        return {"agg": self.agg, "counts": self.counts, "absent": self.absent,
                "spans": self.spans}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.state(), fh, separators=(",", ":"))


def merge(states) -> dict:
    """Sum the aggregates and counts of several tracer states."""
    agg: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    absent: list[str] = []
    for st in states:
        for name, (calls, total, self_ns) in st["agg"].items():
            acc = agg.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_ns
        for name, n in st["counts"].items():
            counts[name] = counts.get(name, 0) + n
        absent += [a for a in st["absent"] if a not in absent]
    return {"agg": agg, "counts": counts, "absent": absent}
