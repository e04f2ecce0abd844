"""Spans and counters recorded from outside hypvol.

The traced run swaps hypvol's public functions for recording wrappers: every
attribute of a hypvol module (and of ``MultiSurd``) that is the wrapped
function object is replaced, so names imported into other modules, such as
``hypvol.prediction.classify``, are traced too.  Spans inside src/ are not
recorded; the innermost traced layer is a public function.

A span is [name, start, end, parent index, item index], kept in memory and
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children (single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name)
SPANS = (
    ("hypvol.diagram", "parse_diagram", "diagram.parse"),
    ("hypvol.diagram", "gram_matrix", "diagram.gram"),
    ("hypvol.diagram", "inertia", "diagram.inertia"),
    ("hypvol.arithmeticity", "classify", "arithmeticity.classify"),
    ("hypvol.arithmeticity", "enumerate_cycles", "arithmeticity.enumerate_cycles"),
    ("hypvol.arithmeticity", "rational_form", "arithmeticity.rational_form"),
    ("hypvol.prediction", "transcendental_factor", "lseries.factor"),
    ("hypvol.lseries", "hurwitz_zeta", "lseries.hurwitz"),
    ("hypvol.geometry", "realize", "geometry.realize"),
    ("hypvol.geometry", "enumerate_vertices", "geometry.vertices"),
    ("hypvol.geometry", "to_klein", "geometry.klein"),
    ("hypvol.integration", "polytope_volume", "integration.volume"),
    ("hypvol.integration", "simplex_volume", "integration.simplex_volume"),
    ("hypvol.prediction", "recognize_rational", "prediction.recognition"),
    ("hypvol.prediction", "analyze", "prediction.analyze"),
    ("hypvol.cli", "main", "cli.main"),
)
# (module, dotted attribute, counter name): calls counted without a span,
# because they are too many and too short for one
COUNTERS = (
    ("hypvol.surd", "MultiSurd.__mul__", "surd.mul_calls"),
    ("hypvol.surd", "MultiSurd.inverse", "surd.inverse_calls"),
    ("hypvol.surd", "MultiSurd.sign", "surd.sign_calls"),
    ("scipy.stats.qmc", "Sobol", "integration.sobol_engines"),
)
MODULES = ("diagram", "arithmeticity", "lseries", "geometry", "integration",
           "prediction", "cli")


def self_by_module(own: dict[str, float]) -> dict[str, float]:
    """Self seconds per span name summed by module (the name's first part)."""
    out = Counter(dict.fromkeys(MODULES, 0.0))
    for name, seconds in own.items():
        out[name.split(".")[0]] += seconds
    return out


def _on_cycles(counts, cycles):
    counts["arithmeticity.cycles"] += len(cycles)


def _on_vertices(counts, realization):
    counts["geometry.finite_vertices"] += len(realization.finite_vertices)
    counts["geometry.ideal_vertices"] += len(realization.ideal_vertices)


def _on_klein(counts, kp):
    counts["geometry.simplices"] += len(kp.simplices)


def _on_volume(counts, est):
    counts["integration.samples"] += est.samples


def _on_recognition(counts, rec):
    if rec.method == "continued-fraction":
        counts["prediction.cf_recognitions"] += 1
    elif rec.method == "smooth-denominator":
        counts["prediction.smooth_recognitions"] += 1


HOOKS = {
    "arithmeticity.enumerate_cycles": _on_cycles,
    "geometry.vertices": _on_vertices,
    "geometry.klein": _on_klein,
    "integration.volume": _on_volume,
    "prediction.recognition": _on_recognition,
}


def _resolve(module: str, dotted: str):
    """The object holding the attribute, and the attribute's value."""
    owner = sys.modules[module]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr)


class Tracer:
    """Wrappers for the traced functions; install and remove them per item."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item: int | None = None
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        wrapped = []
        owners = {id(m): m for name, m in sorted(sys.modules.items())
                  if name == "hypvol" or name.startswith("hypvol.")}
        for module, dotted, name in SPANS:
            _, fn = _resolve(module, dotted)
            wrapped.append((fn, self._span(name, fn, HOOKS.get(name))))
        for module, dotted, name in COUNTERS:
            owner, fn = _resolve(module, dotted)
            owners.setdefault(id(owner), owner)
            wrapped.append((fn, self._counter(name, fn)))
        for owner in owners.values():
            for attr, value in list(vars(owner).items()):
                for fn, wrapper in wrapped:
                    if value is fn:
                        self._swaps.append((owner, attr, fn, wrapper))

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, item: int) -> None:
        self.item = item
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, fn, _ in self._swaps:
            setattr(owner, attr, fn)
        self.item = None

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds, calls and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for k, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            calls[name] += 1
            own[name] += end - start - child_time[k]
        return inclusive, calls, own
