"""In-memory span recorder for one traced ``qmodes`` invocation.

Spans are recorded around calls into each layer by replacing the module
attribute through which the caller reaches the function: ``qmodes.scenarios``
calls ``schmidt.numerical_schmidt`` and so on through the module, and
``qmodes.cli`` calls ``scenarios.run`` through its own ``run`` name.  Calls
made inside a layer module through its globals are recorded too.

A span is ``[name, parent index (-1 for a root), start_ns, end_ns]``.  The
recorder also keeps counts taken at the same boundaries, from which the
work ratios are formed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

# (module, attribute, span name) of the functions with a per-layer metric
# of their own.
WRAPPED = [
    ("qmodes.cli", "run", "scenarios.run"),
    ("qmodes.schmidt", "numerical_schmidt", "schmidt.numerical_schmidt"),
    ("qmodes.interference", "joint_state_momentum", "interference.joint_state_momentum"),
    ("qmodes.interference", "joint_state_coordinate", "interference.joint_state_coordinate"),
    ("qmodes.interference", "marginal_momentum_density", "interference.marginal"),
    ("qmodes.interference", "marginal_coordinate_density", "interference.marginal"),
    ("qmodes.tunneling", "fit_potential", "tunneling.fit_potential"),
    ("qmodes.tunneling", "grid_eigensolve", "tunneling.grid_eigensolve"),
    ("qmodes.tunneling", "ground_state_entanglement", "tunneling.ground_state_entanglement"),
    ("qmodes.tomography", "scan_completions", "tomography.scan_completions"),
    ("qmodes.tomography", "analyze", "tomography.analyze"),
    ("qmodes.tomography", "reconstruct", "tomography.reconstruct"),
    ("qmodes.tomography", "save_json", "tomography.save_json"),
    ("qmodes.coherence", "qubit_coherence_state", "coherence.qubit_coherence_state"),
    ("qmodes.coherence", "visibility_from_intensity", "coherence.visibility_from_intensity"),
]

# Every other public function of these layer modules is wrapped in a span
# called "<layer>.other" when it is called from outside the layer, so that
# no layer's time is left in its caller's self time.  A layer's helpers
# called inside one of its own spans stay in that span's self time.
LAYERS = ["qmodes.schmidt", "qmodes.interference", "qmodes.tunneling", "qmodes.tomography", "qmodes.coherence"]


def _count_schmidt(counts: Counter, args: dict, result) -> None:
    counts["schmidt.modes_kept"] += len(result.weights)
    counts["schmidt.modes_possible"] += min(args["state"].amplitudes.shape)


def _count_state(counts: Counter, args: dict, result) -> None:
    counts["interference.amplitude_elements"] += int(result.amplitudes.size)


def _count_scan(counts: Counter, args: dict, result) -> None:
    analysis = args["analysis"]
    undefined = analysis.model_dim - analysis.rank
    counts["tomography.scan_kept"] += int(result.count)
    # the product grid the scan generates before its ball filter
    counts["tomography.scan_candidates"] += args["grid"].points_per_dim ** (2 * undefined)


COUNTERS = {
    "schmidt.numerical_schmidt": _count_schmidt,
    "interference.joint_state_momentum": _count_state,
    "interference.joint_state_coordinate": _count_state,
    "tomography.scan_completions": _count_scan,
}


class SpanRecorder:
    """Records nested spans and counts in memory; nothing is written here."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, self._open[-1] if self._open else -1, time.monotonic_ns(), None]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.monotonic_ns()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            counter(self.counts, bound.arguments, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_other(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]][0].split(".")[0] == layer:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> list[str]:
        """Wrap every function in WRAPPED, then the rest of each layer's
        public functions; returns the WRAPPED ones that do not exist."""
        missing = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn))
        named = {(module_name, attr) for module_name, attr, _ in WRAPPED}
        for module_name in LAYERS:
            module = importlib.import_module(module_name)
            other = module_name.split(".")[-1] + ".other"
            for attr, fn in list(vars(module).items()):
                if (
                    (module_name, attr) not in named
                    and not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module_name
                ):
                    setattr(module, attr, self.wrap_other(other, fn))
        return missing


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children.

    Calls are sequential, so the children of one span never overlap.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for (name, parent, start, end), children in zip(spans, child_ns):
        out[name] = out.get(name, 0.0) + (end - start - children) / 1e9
    return out
