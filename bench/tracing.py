"""In-memory spans for the traced benchmark run.

A span records (name, start, end, parent).  Names are ``<layer>.<call>``,
with the layer taken from qlre's module names, so self time can be summed
per layer.  Spans are opened from the benchmark's own code: around the
public calls it makes itself, and around qlre functions it temporarily
rebinds in the namespaces of ``qlre.scenarios`` (the callables built by
``compile_observables``) and ``qlre.cli`` (the calls made by
``run_config``).  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# Names rebound while a traced pass runs: module attribute -> span name.
# compile_observables binds the measure functions when it builds each
# callable and looks partial_trace up on every call, so rebinding both in
# qlre.scenarios covers every observable evaluation.
PATCHES = {
    "qlre.scenarios": {
        "partial_trace": "hilbert.partial_trace",
        "fidelity_with_pure": "hilbert.fidelity_with_pure",
        "expectation": "dynamics.expectation",
        "entanglement_of_formation": "entanglement.measure",
        "concurrence": "entanglement.measure",
        "log_negativity": "entanglement.measure",
        "negativity": "entanglement.measure",
        "tripartite_negativity": "entanglement.measure",
    },
    # run_config's own children; what is left (memory guard, final
    # residual, summary, file writes) is cli self time.
    "qlre.cli": {
        "build_basis": "scenarios.build_basis",
        "build_master_equation": "scenarios.build_master_equation",
        "build_initial_state": "scenarios.build_initial_state",
        "compile_observables": "scenarios.compile_observables",
        "evolve": "dynamics.evolve",
    },
}


class Tracer:
    """Collects spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, modules):
        """Rebind the PATCHES names in ``modules`` (name -> module) to traced wrappers."""
        saved = []
        try:
            for modname, names in PATCHES.items():
                mod = modules[modname]
                for attr, span_name in names.items():
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    traced = self.wrap(span_name, original)
                    if attr == "compile_observables":
                        traced = self._wrap_compiled(traced)
                    setattr(mod, attr, traced)
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def _wrap_compiled(self, compile_observables):
        """Time every callable that compile_observables returns."""

        @functools.wraps(compile_observables)
        def traced(*args, **kwargs):
            compiled = compile_observables(*args, **kwargs)
            return {k: self.wrap("observables.eval", fn) for k, fn in compiled.items()}

        return traced

    def summary(self, first: int = 0) -> dict:
        """Per span name and per layer: total time, self time, call count.

        Covers spans from index ``first`` on.  Self time is a span's
        duration minus the durations of its direct children.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        by_name = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        by_layer = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for offset, (name, start, end, _parent) in enumerate(spans):
            duration = end - start
            own = duration - child_time[first + offset]
            entry = by_name[name]
            entry["total_s"] += duration
            entry["self_s"] += own
            entry["calls"] += 1
            layer = by_layer[name.split(".", 1)[0]]
            layer["self_s"] += own
            layer["calls"] += 1
        return {"names": dict(by_name), "layers": dict(by_layer)}

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
