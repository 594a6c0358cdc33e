"""Span tracing of the dgcomplete layers, installed from outside the library.

``Tracer.install`` wraps the public functions in ``TARGETS`` and rebinds the
wrapper in every library namespace that binds the original (a function
imported into two modules is patched in both; a method is patched on its
class).  Each call records a span (trace id, span id, parent span id, name,
start, end) in memory; self time is the span's duration minus the time of
its direct child spans.  ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix -> (module, class or None, attribute)
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("linalg.kernel_basis", "linalg", "SparseMatrix", "kernel_basis"),
    ("linalg.rank", "linalg", "SparseMatrix", "rank"),
    ("linalg.solve", "linalg", "SparseMatrix", "solve"),
    ("linalg.echelon_insert", "linalg", "Echelon", "insert"),
    ("graded.cohomology", "graded", "CochainComplex", "cohomology"),
    ("graded.induced_rank", "graded", None, "induced_rank"),
    ("graded.apply", "graded", "GradedMap", "apply"),
    ("graded.compose", "graded", "GradedMap", "compose"),
    ("dg.multiply", "dg", "DgAlgebra", "multiply"),
    ("dg.opposite", "dg", "DgAlgebra", "opposite"),
    ("bar.end_algebra", "bar", None, "end_algebra"),
    ("bar.strict_end_algebra", "bar", None, "strict_end_algebra"),
    ("bar.embed_strict", "bar", None, "embed_strict"),
    ("bar.stabilization_scan", "bar", None, "stabilization_scan"),
    ("bar.bar_resolution", "bar", None, "bar_resolution"),
    ("bar.derived_hom", "bar", None, "derived_hom"),
    ("bar.derived_tensor", "bar", None, "derived_tensor"),
    ("complete.double_centralizer", "complete", None, "double_centralizer"),
    ("holim.holim", "holim", None, "holim"),
    ("holim.nonidentity_paths", "holim", None, "nonidentity_paths"),
    ("models.build_scenario", "models", None, "build_scenario"),
    ("models.free_resolution", "models", None, "free_resolution"),
    ("models.infin_ext_check", "models", None, "infin_ext_check"),
)


def _block_nnz(gmap) -> int:
    return sum(len(b.entries) for b in gmap.blocks.values())


# counters recorded at the same boundaries as the spans:
# prefix -> function(args, result) giving the counts one call adds
COUNTERS: Dict[str, Callable] = {
    "linalg.kernel_basis": lambda a, r: {"nnz": len(a[0].entries)},
    "linalg.echelon_insert": lambda a, r: {"useful": int(bool(r))},
    "graded.cohomology": lambda a, r: {
        "cells": len(r.certificate.status),
        "certified": sum(r.certificate.status.values())},
    "bar.end_algebra": lambda a, r: {
        "basis_keys": len(r.basis_keys()), "d_nnz": _block_nnz(r.complex.d)},
    "complete.double_centralizer": lambda a, r: {
        "strict": int(r.inner_used == "strict"),
        "reduced": int(bool(r.reduced_outer)),
        "capped": int(r.diagnostics["outer"]["budget"] is not None)},
    "holim.holim": lambda a, r: {"basis_keys": len(r.basis_keys())},
}


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra: Dict[str, int] = {}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.stats: Dict[str, Stat] = {prefix: Stat() for prefix, *_ in TARGETS}
        self.trace_id = 0
        self._next_span = 1
        self._stack: List[List] = []  # [span id, time covered by children]
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans --

    def _enter(self) -> List:
        frame = [self._next_span, 0.0]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: List, name: str, t0: float, t1: float) -> float:
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((self.trace_id, frame[0], parent[0] if parent else 0,
                           name, t0, t1))
        return dur - frame[1]

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a root span of a new trace id."""
        self.trace_id += 1
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._leave(frame, name, t0, time.perf_counter())

    def _wrap(self, prefix: str, fn: Callable) -> Callable:
        stat = self.stats[prefix]
        count = COUNTERS.get(prefix)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.self_s += self._leave(frame, prefix, t0, time.perf_counter())
                stat.calls += 1
            if count is not None:
                for key, n in count(args, result).items():
                    stat.extra[key] = stat.extra.get(key, 0) + n
            return result

        return traced

    # -- patching --

    def install(self, lib) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [getattr(lib, m) for m in vars(lib)]
        for prefix, module, cls, attr in TARGETS:
            if cls is not None:
                owner = getattr(getattr(lib, module), cls)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(prefix, original))
                continue
            original = getattr(getattr(lib, module), attr)
            wrapper = self._wrap(prefix, original)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        out: Dict[str, Tuple[float, str]] = {}
        for prefix, *_ in TARGETS:
            st = self.stats[prefix]
            out[f"{prefix}.calls"] = (st.calls, "count")
            out[f"{prefix}.self_s"] = (st.self_s, "s")
        ex = {p: s.extra for p, s in self.stats.items()}
        out["linalg.kernel_basis.nnz"] = (ex["linalg.kernel_basis"].get("nnz", 0), "count")
        calls = self.stats["linalg.echelon_insert"].calls
        out["linalg.echelon_insert.useful_ratio"] = (
            _ratio(ex["linalg.echelon_insert"].get("useful", 0), calls), "ratio")
        coh = ex["graded.cohomology"]
        out["graded.cohomology.cells"] = (coh.get("cells", 0), "count")
        out["graded.cohomology.certified_ratio"] = (
            _ratio(coh.get("certified", 0), coh.get("cells", 0)), "ratio")
        end = ex["bar.end_algebra"]
        out["bar.end_algebra.basis_keys"] = (end.get("basis_keys", 0), "count")
        out["bar.end_algebra.d_nnz"] = (end.get("d_nnz", 0), "count")
        dc = ex["complete.double_centralizer"]
        calls = self.stats["complete.double_centralizer"].calls
        out["complete.strict_swap_ratio"] = (_ratio(dc.get("strict", 0), calls), "ratio")
        out["complete.reduced_outer_ratio"] = (_ratio(dc.get("reduced", 0), calls), "ratio")
        out["complete.budget_capped"] = (dc.get("capped", 0), "count")
        out["holim.holim.basis_keys"] = (ex["holim.holim"].get("basis_keys", 0), "count")
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for tid, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"trace": tid, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")
