"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps the public functions of each ``kostant`` module
(and the two SciPy kernels beneath ``spectral_projectors``) by rebinding
every module attribute that refers to them, so calls between modules are
seen too. A span is ``(name, start, end, parent)`` with ``parent`` the
index of the enclosing span in the same job, or -1. Spans stay in memory
and go to the driver with each job's result. ``layer_times`` turns them
into call counts and self time: a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = {
    "linalg": ("eigen_spectrum", "spectral_projectors"),
    "cmjd": ("cmjd",),
    "symchar": ("rep_moduli", "complete_homogeneous", "complete_homogeneous_log",
                "abs_character", "schur", "spectral_radius_rep"),
    "order": ("kostant_compare", "permutohedron_certificate",
              "separating_sym_power", "find_separating_character"),
    "serialize": ("dumps",),
    "cli": ("main",),
}
SCIPY_KERNELS = ("schur", "solve_sylvester")


def _observe_clusters(counts, result, exc):
    if exc is None:
        counts["linalg.eigen_spectrum.clusters"] += len(result.clusters)


def _observe_sym_power(counts, result, exc):
    if exc is not None:
        if type(exc).__name__ == "NotSeparable":
            counts["order.separating_sym_power.not_separable"] += 1
        return
    m_min, m_paper = result
    counts["order.separating_sym_power.m_min_sum"] += m_min
    key = "order.separating_sym_power.m_paper_max"
    counts[key] = max(counts[key], m_paper)


def _observe_witness(counts, result, exc):
    if exc is None:
        counts["order.find_separating_character.witnesses"] += 1
        counts["order.find_separating_character.dimension_sum"] += result.dimension
    elif type(exc).__name__ == "DimensionCap":
        counts["order.find_separating_character.dimension_cap"] += 1


def _observe_moduli(counts, result, exc):
    if exc is None:
        counts["symchar.rep_moduli.values"] += len(result.values)


OBSERVERS = {
    "linalg.eigen_spectrum": _observe_clusters,
    "order.separating_sym_power": _observe_sym_power,
    "order.find_separating_character": _observe_witness,
    "symchar.rep_moduli": _observe_moduli,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent)
                if observe:
                    observe(self.counts, result, error)
        return traced

    def install(self) -> None:
        import scipy.linalg

        modules = [m for key, m in list(sys.modules.items())
                   if key == "kostant" or key.startswith("kostant.")]
        for layer, names in LAYERS.items():
            source = sys.modules[f"kostant.{layer}"]
            for fname in names:
                original = getattr(source, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for fname in SCIPY_KERNELS:
            setattr(scipy.linalg, fname,
                    self.wrap(f"scipy.linalg.{fname}", getattr(scipy.linalg, fname)))

    def take(self) -> tuple[list, dict]:
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_times(spans: list) -> tuple[Counter, Counter, int]:
    """Calls and self seconds per span name for one job's spans, plus the
    number of SciPy kernel calls beneath ``spectral_projectors``."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    kernels = 0
    for idx, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[idx]
        if name.startswith("scipy.linalg."):
            p = parent
            while p >= 0 and spans[p][0] != "linalg.spectral_projectors":
                p = spans[p][3]
            kernels += p >= 0
    return calls, self_s, kernels
