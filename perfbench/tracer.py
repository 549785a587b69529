"""In-memory span tracer that wraps the package's public functions from outside.

The package modules import each other by name (``from .core import
assign_batch``), so a function has one binding per importing module. The
tracer swaps every binding that holds the original function, and every class
attribute for methods, for one wrapper, and restores them on exit.

A span is ``[name, start, end, parent, request, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``request`` is the window id the
harness is working on, and ``info`` is a small fact taken from the return
value (node opened, insert accepted, offspring count) so that ratios are
counted where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

PACKAGE = "mostream"

# (module, qualified name, span name, info extractor), in layer order. Span
# names are the per-layer metric prefixes.
TRACED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("engine", "initialize", "engine.initialize", None),
    ("engine", "process_window", "engine.process_window", None),
    ("engine", "on_idle", "engine.on_idle", None),
    ("anttree", "build_initial_tree", "anttree.build_initial_tree", None),
    ("anttree", "TreeSynopsis.map_point", "anttree.map_point", lambda out: out.created),
    ("anttree", "TreeSynopsis.fade_and_prune", "anttree.fade_and_prune", lambda out: out),
    ("anttree", "TreeSynopsis.macro_clusters", "anttree.macro_clusters", None),
    ("seeders", "kmeans_sweep", "seeders.kmeans_sweep", None),
    ("seeders", "seed_dbscan", "seeders.seed_dbscan", None),
    ("seeders", "seed_gng", "seeders.seed_gng", None),
    ("core", "assign_batch", "core.assign_batch", None),
    ("core", "merge_prototype", "core.merge_prototype", None),
    ("objectives", "evaluate_solution", "objectives.evaluate_solution", None),
    ("objectives", "update_compactness", "objectives.update_compactness", None),
    ("objectives", "separateness", "objectives.separateness", None),
    ("objectives", "ParetoArchive.insert", "objectives.ParetoArchive.insert", lambda out: out),
    ("objectives", "hypervolume_in_box", "objectives.hypervolume_in_box", None),
    ("evolution", "select_parents", "evolution.select_parents", None),
    ("evolution", "breed", "evolution.breed", len),
    ("evolution", "crossover", "evolution.crossover", None),
    ("evolution", "mutate", "evolution.mutate", None),
    ("metrics", "select_best", "metrics.select_best", None),
    ("metrics", "davies_bouldin", "metrics.davies_bouldin", None),
    ("metrics", "nmi", "metrics.nmi", None),
    ("metrics", "arand", "metrics.arand", None),
]
# next() on the window source: the load_csv generator on CSV workloads, the
# in-memory window list elsewhere
LOAD_CSV = "stream_io.load_csv"
ROOTS = {"engine.initialize": "setup", "engine.process_window": "commit",
         "engine.on_idle": "idle", LOAD_CSV: "read"}


class Tracer:
    """Records spans while installed; ``request`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        return traced

    def iterate(self, it):
        """Yield from ``it``, recording each ``next()`` as a load_csv span."""
        spans, clock = self.spans, time.perf_counter
        while True:
            rec = [LOAD_CSV, clock(), 0.0, -1, self.request, None]
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec[2] = clock()
                spans.append(rec)
            yield item

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, qualname, name, info in TRACED:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, info))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, fh) -> None:
        """Write the spans to a text file, one JSON object per line."""
        for i, (name, start, end, parent, req, info) in enumerate(self.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "request": req, "info": info}) + "\n")


def _row() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "true": 0, "sum": 0}


def summarize(spans: list[list]) -> dict:
    """Aggregate spans by name, overall and within each root phase.

    Each row holds calls, inclusive seconds ``s``, self seconds, the number
    of True info facts and the sum of integer ones. ``roots`` is the wall
    time of each phase's root spans; self seconds within a phase add up to it.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict = defaultdict(_row)
    phases: dict = defaultdict(lambda: defaultdict(_row))
    roots: dict = defaultdict(float)
    phase_of = [""] * len(spans)
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        phase = ROOTS.get(name, "other") if parent < 0 else phase_of[parent]
        phase_of[i] = phase
        if parent < 0:
            roots[phase] += dur
        for row in (by_name[name], phases[phase][name]):
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            if isinstance(info, bool):
                row["true"] += info
            elif isinstance(info, int):
                row["sum"] += info
    return {"by_name": by_name, "phases": phases, "roots": dict(roots)}
