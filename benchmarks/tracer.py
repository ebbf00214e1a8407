"""Span tracer that times the parext layers from outside the package.

``Tracer.active()`` replaces every public function of the traced modules,
and the public methods of ``ExtensionOperator``, with a wrapper that records
a span (name, start, end, parent).  A function is replaced wherever the
package binds it: in the module that defines it and in every module that
took it with ``from ... import``.  A binding the scan cannot reach (a
default argument, a stored reference) would make a layer read low; the
workloads' call-count self-checks catch that.  Leaving the context restores
the originals, so untraced rounds run the package unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

TRACED_MODULES = ("extension", "norms", "grids", "sequences", "search", "symmetry", "cli")

# span names of the functions whose metrics the benchmark reports under a
# shorter name; every other function's span is "<module>.<function>"
SPAN_NAMES = {
    "extension.ExtensionOperator.__init__": "extension.operator_init",
    "extension.ExtensionOperator.apply": "extension.apply",
    "extension.ExtensionOperator.apply_adjoint": "extension.adjoint",
    "norms.lq_norm_spacetime": "norms.lq_norm",
    "sequences.weak_limit_diagnostics": "sequences.weak_limit",
    "search.maximize_quotient_pair": "search.maximize",
    "symmetry.pushthrough_shift": "symmetry.pushthrough",
    "grids.gaussian_profile": "grids.profile",
    "grids.bump_profile": "grids.profile",
    "grids.dilate_profile": "grids.profile",
    "grids.superpose": "grids.profile",
    "grids.lp_norm_frequency": "grids.profile",
}


def _apply_counters(counters, args, result):
    op = args[0]
    counters["extension.apply.field_mpts"] += result.size / 1e6
    counters["extension.apply.bytes_out"] += result.nbytes
    if not op.shift.is_nonzero():
        counters["extension.apply.unshifted_calls"] += 1


def _lq_norm_counters(counters, args, result):
    if result.value > 0.0:
        width = result.certified_error() / result.value
        counters["norms.cert_rel_width"] = max(counters["norms.cert_rel_width"], width)


# per-span counters taken from the call's arguments and result
COUNTERS = {"extension.apply": _apply_counters, "norms.lq_norm": _lq_norm_counters}


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"parext.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            key = f"{short}.{attr}"
            out.append((SPAN_NAMES.get(key, key), mod, attr, obj))
    op_cls = importlib.import_module("parext.extension").ExtensionOperator
    for attr, obj in vars(op_cls).items():
        if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
            key = f"extension.ExtensionOperator.{attr}"
            out.append((SPAN_NAMES.get(key, key), op_cls, attr, obj))
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "parext" or name.startswith("parext.")]


class Tracer:
    """Collects spans and counters while active; ``reset`` starts a new
    collection period."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.peak_traced_bytes = 0
        self._stack = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), None, parent]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return span

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers, trace memory, and restore the package on exit."""
        targets = _targets()
        wrappers = {id(orig): self._wrap(name, orig) for name, _, _, orig in targets}
        # methods live on the class; module-level functions are replaced in
        # every package module that binds them, under whatever name
        sites = [(owner, attr, orig) for _, owner, attr, orig in targets if inspect.isclass(owner)]
        for mod in _package_modules():
            sites += [(mod, attr, obj) for attr, obj in vars(mod).items() if id(obj) in wrappers]
        for owner, attr, orig in sites:
            setattr(owner, attr, wrappers[id(orig)])
        tracemalloc.start()
        try:
            yield self
        finally:
            self.peak_traced_bytes = max(self.peak_traced_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            for owner, attr, orig in sites:
                setattr(owner, attr, orig)

    # -- summaries ------------------------------------------------------------

    def calls(self) -> dict:
        out = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def self_seconds(self) -> dict:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out
