"""Span tracer that wraps the public functions of each uncertainty-lab module.

The package's modules import each other by name (``from .state_sets import
classify``), so one function is reachable under several names:
``uncertainty_lab.state_sets.classify``, ``uncertainty_lab.cli.classify`` and
``uncertainty_lab.classify``.  ``Tracer.install`` replaces the function in
every ``uncertainty_lab`` namespace that holds it, so calls are traced
whichever name they go through, and ``Tracer.uninstall`` puts the originals
back.  Spans (name, start, end, parent, op id, kind) are kept in plain lists
and written out only when the benchmark ends.

A function that returns a generator (``membership_scan``) gets one "call"
span for the eager part and one "resume" span per item drawn from it, so
work done lazily inside the generator (the per-sample RNG substream) is
charged to that function rather than to its consumer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter_ns

import numpy as np

PACKAGE = "uncertainty_lab"

# Layer (module) -> the functions whose spans the traced run records.
# ``gellmann`` only builds inputs and is not traced.
LAYERS: dict[str, tuple[str, ...]] = {
    "core": ("observable_from_json_dict", "haar_state", "commutator", "inner"),
    "moments": ("std_dev", "deviation_vector"),
    "correlations": ("correlation", "pearson", "correlation_record"),
    "relations": ("evaluate", "hr_bound", "schrodinger_bound", "sum_relations"),
    "state_sets": ("classify", "membership_scan"),
    "finder": ("find",),
    "cli": ("main",),
}

FUNCTIONS: tuple[str, ...] = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

CALL, RESUME = 0, 1


class Tracer:
    """Wraps the functions in ``LAYERS`` and records one span per call."""

    def __init__(self) -> None:
        self._installed: list[tuple[types.ModuleType, str, object]] = []
        self.op = 0
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans."""
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.kind: list[int] = []
        self._stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, tuple[object, int]] = {}
        for idx, qualified in enumerate(FUNCTIONS):
            layer, fn = qualified.split(".")
            func = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), fn)
            originals[id(func)] = (func, idx)
        wrappers = {idx: self._wrap(func, idx) for func, idx in originals.values()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, wrappers[hit[1]])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- span recording -----------------------------------------------------

    def _open(self, idx: int, kind: int) -> int:
        sid = len(self.name)
        self.name.append(idx)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.kind.append(kind)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.start[sid] = t0
        self._stack.pop()

    def _wrap(self, func, idx: int):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = self._open(idx, CALL)
            t0 = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid, t0)
            if isinstance(result, types.GeneratorType):
                return self._resumes(result, idx)
            return result

        return wrapper

    def _resumes(self, gen, idx: int):
        while True:
            sid = self._open(idx, RESUME)
            t0 = perf_counter_ns()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(sid, t0)
            yield item

    # -- analysis -----------------------------------------------------------

    def summary(self) -> tuple[np.ndarray, np.ndarray]:
        """Per function in ``FUNCTIONS``: (call count, self time in ns).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap, so that is exactly the
        part of the interval no child covers.
        """
        n = len(FUNCTIONS)
        if not self.name:
            return np.zeros(n, dtype=np.int64), np.zeros(n)
        name = np.asarray(self.name)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
        self_ns = np.bincount(name, weights=dur - child, minlength=n)
        calls = np.bincount(name[np.asarray(self.kind) == CALL], minlength=n)
        return calls, self_ns

    def lead_share(self, outer: str, inner: str) -> float:
        """Share of the time in calls of ``outer`` spent before each one's
        first direct call of ``inner``; 0 when ``outer`` was not called.

        For ``cli.main`` and ``membership_scan`` that is a scan call's fixed
        cost ahead of its first row: parsing arguments and reading and
        validating the two JSON inputs.
        """
        outer_idx, inner_idx = FUNCTIONS.index(outer), FUNCTIONS.index(inner)
        first: dict[int, int] = {}
        for sid, (idx, kind, par) in enumerate(zip(self.name, self.kind, self.parent)):
            if idx == inner_idx and kind == CALL and par >= 0 and par not in first:
                first[par] = self.start[sid]
        lead = total = 0
        for sid, (idx, kind) in enumerate(zip(self.name, self.kind)):
            if idx == outer_idx and kind == CALL:
                total += self.end[sid] - self.start[sid]
                if sid in first:
                    lead += first[sid] - self.start[sid]
        return lead / total if total else 0.0

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tkind\tstart_ns\tend_ns\tparent\top\n")
            for sid, (idx, kind, t0, t1, par, op) in enumerate(
                zip(self.name, self.kind, self.start, self.end, self.parent, self.op_id)
            ):
                label = "call" if kind == CALL else "resume"
                fh.write(f"{sid}\t{FUNCTIONS[idx]}\t{label}\t{t0}\t{t1}\t{par}\t{op}\n")
