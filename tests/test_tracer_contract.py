"""Every function the benchmark tracer wraps still exists in the package,
and a short traced pass still calls each of them.

``perfbench/tracer.py`` patches the package by (module, qualified name); a
renamed or deleted function, or one the engine stops calling, would only
surface when a traced benchmark run finds nothing to wrap or records no
call. Loading the tracer's table and running one small traced pass here
fails the test suite instead.
"""

import importlib
import importlib.util
import os
import sys
from unittest import mock

import numpy as np
import pytest

from mostream import core, engine
from mostream.core import StreamConfig, WindowBatch
from mostream.anttree import build_initial_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


PACKAGE, TRACED = _traced()


def test_table_is_not_empty():
    assert PACKAGE == "mostream"
    assert len(TRACED) >= 20


@pytest.mark.parametrize("module, qualname", [(m, q) for m, q, _, _ in TRACED])
def test_traced_name_resolves(module, qualname):
    target = importlib.import_module(f"{PACKAGE}.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_tree_facts_are_python_scalars():
    """The tracer counts only ``bool``/``int`` info facts, so a numpy scalar
    here would read ``anttree.nodes_opened``/``nodes_pruned`` as 0."""
    tree = build_initial_tree(WindowBatch(np.array([[0.0, 0.0], [1.0, 0.0]]), 0))
    tree.fade(0.5)
    for point, created in [((0.5, 0.0), False), ((90.0, 90.0), True)]:
        out = tree.map_point(np.array(point))
        assert type(out.created) is bool and out.created is created
    removed = tree.fade_and_prune(threshold=1.0)
    assert type(removed) is int and removed == 1
    assert type(tree.fade_and_prune(threshold=0.0)) is int


@pytest.mark.parametrize("workload", ["idle-drift", "wide-overlap", "highdim-overlap"])
def test_traced_pass_calls_every_traced_function(monkeypatch, tmp_path, workload):
    """One 3-window pass of each workload under the tracer, in process, its
    windows read back through ``load_csv`` where the benchmark does: no
    window fails and the benchmark's coverage guard finds no silent layer."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    with mock.patch.dict(os.environ):  # run.py pins BLAS threads on import
        run = importlib.import_module("run")
    harness = importlib.import_module("harness")
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    wl = workloads.WORKLOADS[workload]
    windows = workloads.make_windows(wl, 7, windows=3)
    if wl.via_csv:
        path = str(tmp_path / "stream.csv")
        workloads.write_csv(windows, path)
        windows = workloads.csv_windows(wl, path)
    cfg = StreamConfig(window_size=wl.window, idle_generations_cap=wl.idle_gens, rng_seed=7)
    tracer = tracer_mod.Tracer()
    with tracer:
        res = harness.run_pass(windows, cfg, tracer)
    assert res.attempted == 3
    assert res.failed == 0, res.errors
    assert run.coverage_guard(tracer_mod.summarize(tracer.spans)) == []


def test_commit_matrices_and_tree_absorption_are_traced(monkeypatch):
    """Every (window x member) matrix of a commit is built in the traced
    ``core.assign_batch``, so the commit's main distance pass shows in the
    per-layer metrics. Before its report a commit makes exactly three
    calls: the first holds every pre-commit archive member, the second those
    members again and the third the macro offer alone. The tree absorbs
    points with its own running mean, so no ``core.merge_prototype`` span
    hangs under ``anttree.map_point``."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    harness = importlib.import_module("harness")
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    wl = workloads.WORKLOADS["idle-drift"]
    cfg = StreamConfig(window_size=wl.window, idle_generations_cap=wl.idle_gens, rng_seed=7)
    tracer = tracer_mod.Tracer()
    # record each call's list length by the index of the span the tracer
    # opens for it; the tracer wraps this recorder in every module
    sizes = {}
    assign_batch = core.assign_batch

    def recording(solutions, data):
        sizes[len(tracer.spans) - 1] = len(solutions)
        return assign_batch(solutions, data)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mostream") and getattr(mod, "assign_batch", None) is assign_batch:
            monkeypatch.setattr(mod, "assign_batch", recording)
    with tracer:
        res = harness.run_pass(workloads.make_windows(wl, 7, windows=3), cfg, tracer)
    assert res.failed == 0, res.errors

    spans = tracer.spans
    root = list(range(len(spans)))
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:  # a parent span is recorded before its children
            root[i] = root[parent]
    commits = [i for i, s in enumerate(spans) if s[0] == "engine.process_window"]
    assert len(commits) == 2
    members_seen = 0
    for commit in commits:
        # step (5) re-inserts every pre-commit member, then the macro offer
        members = sum(s[0] == "objectives.ParetoArchive.insert" and s[3] == commit
                      for s in spans) - 1
        report = next(i for i, s in enumerate(spans)
                      if s[0] == "metrics.select_best" and root[i] == commit)
        calls = [sizes[i] for i, s in enumerate(spans[:report])
                 if s[0] == "core.assign_batch" and root[i] == commit]
        assert members >= 1
        assert calls == [members, members, 1], (commit, calls, members)
        members_seen += members
    assert members_seen == res.rescreen_before
    under_map = [s for s in spans if s[0] == "core.merge_prototype" and s[3] >= 0
                 and spans[s[3]][0] == "anttree.map_point"]
    assert under_map == []


def test_nodes_opened_counts_every_appended_node(monkeypatch):
    """A window run absorbs most rows without calling ``map_point``, but
    every node the tree appends is opened by a traced ``map_point`` call.
    In a traced 3-window idle-drift pass the ``created`` spans, which the
    benchmark reads as ``anttree.nodes_opened``, equal the growth of the
    tree's next node id over the commits."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    harness = importlib.import_module("harness")
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    grown = []
    process_window = engine.process_window

    def recording(state, window):
        before = state.tree._next_id
        report = process_window(state, window)
        grown.append(state.tree._next_id - before)
        return report

    monkeypatch.setattr(engine, "process_window", recording)
    wl = workloads.WORKLOADS["idle-drift"]
    cfg = StreamConfig(window_size=wl.window, idle_generations_cap=wl.idle_gens, rng_seed=7)
    tracer = tracer_mod.Tracer()
    with tracer:
        res = harness.run_pass(workloads.make_windows(wl, 7, windows=3), cfg, tracer)
    assert res.failed == 0, res.errors
    assert len(grown) == 2
    opened = tracer_mod.summarize(tracer.spans)["by_name"]["anttree.map_point"]["true"]
    assert sum(grown) > 0
    assert opened == sum(grown)
