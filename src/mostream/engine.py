"""Windowed streaming driver.

The first window builds the tree synopsis and seeds the archive through
multiple clustering routes plus one breeding pass. The growing gas, the
largest of those routes and independent of the others until scoring, grows
in one forked worker process while this process builds the tree and runs
the k-means sweep and the density scan; its units are then labelled here.
Where ``os.fork`` is missing or only one CPU is usable the gas grows in
process, with the same result. Every later window flows
through a fixed pipeline: points map into the tree (in runs of rows, each
row placed as the point-by-point rule would), every archive member absorbs
the window and fades, the members are rescored in one pass together with
the tree's re-offered macro view, and the archive is re-screened for
dominance before the window report goes out. Idle time between windows runs
archive generations.

The members' absorb, fade and rescore, and the report's validity index, run
on the stacked cluster rows of the whole archive (``core.stack_labels``):
one bincount, one merge, one fade and one scoring call per window rather
than one per member.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .anttree import TreeSynopsis, build_initial_tree
from .core import (
    ClusteringSolution,
    ObjectiveVector,
    StreamConfig,
    WindowBatch,
    assign_batch,
    fade_weight,
    merge_prototype,
    prune_outdated,
    stack_labels,
)
from .evolution import IdleBudget, breed, fitness_score, select_parents
from .metrics import arand, nmi, select_best
from .objectives import (
    ParetoArchive,
    evaluate_solution,
    hypervolume_in_box,
    separateness,
    update_compactness,
)
from .seeders import grow_gas, kmeans_sweep, seed_dbscan, seed_gng

GAMMA_ONE_REF_WINDOWS = 100  # reference head-room when gamma=1 disables decay


@dataclass
class WindowReport:
    """Per-window summary emitted exactly once, in window order."""

    window_id: int
    archive_size: int
    best_dbi: float
    best_fitness: float
    nmi: Optional[float]
    arand: Optional[float]
    hypervolume: float
    stored_vectors: int
    elapsed_ms: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FinalSelection:
    """End-of-stream deliverable: the chosen solution and its last-window view."""

    solution: ClusteringSolution
    dbi: float
    indices: np.ndarray
    assignments: np.ndarray


@dataclass
class EngineState:
    """Everything the stream driver carries between windows."""

    cfg: StreamConfig
    tree: TreeSynopsis
    archive: ParetoArchive
    last_window: WindowBatch
    hv_reference: ObjectiveVector
    next_solution_id: int = 0
    idle_counter: int = 0
    reports: list[WindowReport] = field(default_factory=list)

    def allot_id(self) -> int:
        out = self.next_solution_id
        self.next_solution_id += 1
        return out

    def stored_vector_count(self) -> int:
        """Real vectors in the synopsis: tree prototypes plus archive
        prototypes. The retained window snapshot is working state, not
        synopsis, and is constant-size anyway."""
        return self.tree.node_count() + sum(s.k for s in self.archive)


def _derive_seed(base: int, window_id: int, counter: int) -> int:
    return int(np.random.SeedSequence([base, window_id, counter]).generate_state(1, np.uint64)[0])


def _generation(
    state: EngineState, members: Iterable[ClusteringSolution]
) -> list[ClusteringSolution]:
    """One generation bred from ``members`` on the last committed window, by
    a generator seeded from (run seed, window id, running generation count);
    the offspring take fresh ids in breeding order."""
    cfg, window = state.cfg, state.last_window
    rng = np.random.default_rng(_derive_seed(cfg.rng_seed, window.window_id, state.idle_counter))
    state.idle_counter += 1
    offspring = breed(select_parents(members, cfg.sigma), window, cfg, rng)
    for child in offspring:
        child.solution_id = state.allot_id()
    return offspring


def _absorb(
    members: list[ClusteringSolution], data: np.ndarray, cfg: StreamConfig
) -> list[ClusteringSolution]:
    """Each member absorbs the window and fades, returned as pruned clones in
    member order; the members themselves are not written.

    One assign_batch call, against the window-start prototypes, gives each
    member's labels and compactness terms as one row of two stacked arrays,
    and one sum over the rows gives every compactness. The rest runs on the
    stacked cluster rows of all members: one bincount gives every batch size
    and one per coordinate every batch sum, adding rows in window order as a
    masked mean does for d >= 2 (at d = 1 numpy sums the lone column
    pairwise, so a mean can differ in the last bit). One merge_prototype
    call folds every fed row's batch in, with its window-start weight as the
    history mass, and one fade_weight call fades every weight, fed or not.
    Each clone then takes its own rows and its compactness on the
    window-start distances, and prunes what starved.
    """
    labels, dists = assign_batch(members, data)
    labels, starts, sizes = stack_labels(members, labels)
    flat = labels.ravel()
    assigned = sizes.astype(float)
    sums = np.column_stack([
        np.bincount(flat, weights=np.tile(column, len(members)), minlength=len(sizes))
        for column in data.T
    ])
    fed = np.flatnonzero(sizes)
    protos = np.concatenate([member.prototypes for member in members])
    weights = np.concatenate([member.weights for member in members])
    protos[fed] = merge_prototype(
        protos[fed], weights[fed], sums[fed] / assigned[fed, None], assigned[fed], cfg.gamma
    )
    weights = fade_weight(weights, cfg.gamma, assigned)
    clones = []
    compactness = dists.sum(axis=1).tolist()
    for member, start, value in zip(members, starts.tolist(), compactness):
        rows = slice(start, start + member.k)
        clone = ClusteringSolution(
            ObjectiveVector(value), protos[rows], member.solution_id, weights[rows]
        )
        prune_outdated(clone, cfg.prune_threshold)
        clones.append(clone)
    return clones


def _window_report(
    state: EngineState,
    window: WindowBatch,
    elapsed_ms: Optional[float],
    labels: np.ndarray,
    dists: np.ndarray,
) -> WindowReport:
    """Score and record the window. ``labels`` and ``dists`` are the
    archive members' ``assign_batch`` rows on the window, in archive order:
    the caller has assigned every member the report reads."""
    _, best_dbi, labels = select_best(state.archive, labels, dists)
    best_fit = min(fitness_score(s) for s in state.archive)
    score_nmi = score_arand = None
    if window.labels is not None and len(window) >= 2:
        score_nmi = nmi(window.labels, labels)
        score_arand = arand(window.labels, labels)
    report = WindowReport(
        window_id=window.window_id,
        archive_size=len(state.archive),
        best_dbi=best_dbi,
        best_fitness=best_fit,
        nmi=score_nmi,
        arand=score_arand,
        hypervolume=hypervolume_in_box(state.archive, state.hv_reference),
        stored_vectors=state.stored_vector_count(),
        elapsed_ms=elapsed_ms if state.cfg.idle_generations_cap is None else None,
    )
    state.reports.append(report)
    return report


class _Worker:
    """``fn(*args)`` run in one forked child while the caller goes on.

    The child sends its return value, or the exception it raised, as one
    pickle through a pipe and leaves by ``os._exit``: it never returns into
    the caller's stack, runs no atexit handler and flushes no inherited
    stdio buffer. ``result()`` waits for it and returns or raises what it
    sent; a child that exits without sending raises ``RuntimeError``.
    ``close()`` kills and reaps a child still unreaped, so a caller that
    closes in a ``finally`` leaves no process behind. Where ``os.fork`` is
    missing or only one CPU is usable, ``result()`` makes the call in
    process instead.

    The engine starts no thread of its own, and the gas calls no BLAS
    routine, so the child touches no lock or pool a parent thread could
    hold at the fork. The child catches everything, interrupts included, so
    that the parent re-raises it.
    """

    def __init__(self, fn: Callable, *args) -> None:
        self._call = (fn, args)
        self._pid: Optional[int] = None
        self._pipe = None
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        if not hasattr(os, "fork") or cpus < 2:
            return
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            self._child(read_fd, write_fd)
        os.close(write_fd)
        self._pid, self._pipe = pid, open(read_fd, "rb")

    def _child(self, read_fd: int, write_fd: int) -> None:
        code = 1
        try:
            os.close(read_fd)
            fn, args = self._call
            try:
                payload = (True, fn(*args))
            except BaseException as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)

    def result(self):
        if self._pid is None:
            fn, args = self._call
            return fn(*args)
        data = self._pipe.read()
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            raise RuntimeError(f"worker exited with code {code} without sending a result")
        sent, value = pickle.loads(data)
        if not sent:
            raise value
        return value

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def initialize(first_window: WindowBatch, cfg: StreamConfig) -> EngineState:
    """Build the tree, seed and score the population, breed once, fill the archive."""
    t0 = time.perf_counter()
    # the gas needs nothing from the other seeders, so it grows in a worker
    # while they run; its n >= 2 check is made here, before any fork
    gas = _Worker(grow_gas, first_window.data, cfg.rng_seed) if len(first_window) >= 2 else None
    try:
        tree = build_initial_tree(first_window)
        # macro view, k-means sweep, density scan and gas, scored in one
        # pass. Each cluster's mass is the rows scoring gives it, taken
        # before evaluation drops the unfed ones.
        population = [tree.macro_clusters(), *kmeans_sweep(first_window, cfg.rng_seed)]
        population.append(seed_dbscan(first_window))
        if gas is not None:
            population.append(seed_gng(first_window, gas.result()))
    finally:
        if gas is not None:
            gas.close()
    labels, dists = assign_batch(population, first_window.data)
    for sol, row in zip(population, labels):
        sol.weights = np.bincount(row, minlength=sol.k).astype(float)
    evaluate_solution(population, labels, dists)

    state = EngineState(
        cfg=cfg,
        tree=tree,
        archive=ParetoArchive(),
        last_window=first_window,
        hv_reference=ObjectiveVector(),
    )
    for sol in population:
        sol.solution_id = state.allot_id()

    # one breeding pass over the seed population before anything is published
    population.extend(_generation(state, population))

    # the box keeps a decayed sum's 1/(1-gamma) head-room although
    # compactness is one window's sum; it only scales the reported
    # hypervolume, which nothing bred or kept reads (README says why)
    worst_c = max(s.objectives.compactness for s in population)
    horizon = 1.0 / (1.0 - cfg.gamma) if cfg.gamma < 1.0 else GAMMA_ONE_REF_WINDOWS
    state.hv_reference = ObjectiveVector(2.0 * (worst_c + 1.0) * horizon, 0.0)

    for sol in population:  # in id order: ids were allotted in list order
        state.archive.insert(sol)
    elapsed = (time.perf_counter() - t0) * 1000.0
    members = list(state.archive)
    _window_report(state, first_window, elapsed, *assign_batch(members, first_window.data))
    return state


def process_window(state: EngineState, window: WindowBatch) -> WindowReport:
    """Commit one window: map, absorb, fade, rescore with the macro offer,
    re-screen, report."""
    t0 = time.perf_counter()
    last = state.last_window
    if window.dim != last.dim:
        raise ValueError(
            f"window {window.window_id} has dimension {window.dim}, stream is {last.dim}"
        )
    if window.window_id != last.window_id + 1:
        raise ValueError(
            f"window ids must be sequential: got {window.window_id} "
            f"after {last.window_id}"
        )
    cfg = state.cfg

    # (1) stream points through the tree synopsis. Masses age once per
    # window up front; absorption is then an exact running mean, so a window
    # of absorptions composes to the batch update mass -> gamma*mass +
    # absorbed rather than decaying per point. map_window places the rows in
    # runs, each on the node a map_point loop would pick; only the row that
    # ends a run (a node clash or a new node) goes through map_point.
    state.tree.fade(cfg.gamma)
    state.tree.map_window(window.data)

    # (2)-(3) every member absorbs the window and fades, on the stacked
    # cluster rows of the whole archive; then the tree prunes what starved
    clones = _absorb(list(state.archive), window.data, cfg)
    state.tree.fade_and_prune(cfg.prune_threshold)

    # (4) rescore: one assign_batch call over the moved/pruned members and
    # the tree's macro view, re-offered as a candidate. One bincount over
    # their stacked labels finds every fed cluster: a member's separateness
    # counts only the clusters the window still feeds. The offer keeps only
    # its fed clusters, so its labels are renumbered onto the rows it keeps,
    # and scores its compactness; then one separateness call scores every
    # member and the offer. The report reads the same rows, the offer's
    # renumbered one included. The macro offer takes the commit's last id.
    macro = state.tree.macro_clusters()
    scored = clones + [macro]
    labels, dists = assign_batch(scored, window.data)
    _, starts, sizes = stack_labels(scored, labels)
    fed = [sizes[start : start + sol.k] > 0 for sol, start in zip(scored, starts.tolist())]
    if not fed[-1].all():
        macro.keep(fed[-1])
        labels[-1] = (np.cumsum(fed[-1]) - 1)[labels[-1]]
    update_compactness(macro, dists[-1])
    blocks = [clone.prototypes[rows] for clone, rows in zip(clones, fed)]
    for sol, value in zip(scored, separateness(blocks + [macro.prototypes])):
        sol.objectives.separateness = value
    macro.solution_id = state.allot_id()

    # (5) re-screen: rebuild the archive from updated members (already in id
    # order, as the archive iterates), then the offer
    rebuilt = ParetoArchive()
    for clone in clones:
        rebuilt.insert(clone)
    rebuilt.insert(macro)
    state.archive = rebuilt

    # (6) commit and report on the survivors' rows of step (4)'s arrays:
    # the archive and ``scored`` are both in id order, so the rows line up
    state.last_window = window
    elapsed = (time.perf_counter() - t0) * 1000.0
    kept = set(map(id, state.archive))
    rows = [i for i, sol in enumerate(scored) if id(sol) in kept]
    return _window_report(state, window, elapsed, labels[rows], dists[rows])


def on_idle(state: EngineState, budget: IdleBudget) -> int:
    """Run idle generations while the budget allows, each offering all its
    offspring to the archive; the budget is read only between generations."""
    gens = 0
    while budget.allows():
        for child in _generation(state, state.archive):
            state.archive.insert(child)
        budget.generations_remaining -= 1
        gens += 1
    return gens


def finalize(state: EngineState) -> FinalSelection:
    """Pick the lowest-DBI member on the last window and package it."""
    window = state.last_window
    members = list(state.archive)
    best, dbi, labels = select_best(members, *assign_batch(members, window.data))
    return FinalSelection(
        solution=best.copy(),
        dbi=dbi,
        indices=window.indices,
        assignments=labels,
    )


def run_stream(
    batches: Iterable[WindowBatch],
    cfg: StreamConfig,
    on_window_end: Optional[Callable[[EngineState], None]] = None,
) -> tuple[EngineState, FinalSelection]:
    """Drive a whole stream: initialize, then process/idle per window.

    With an int ``cfg.idle_generations_cap`` exactly that many generations
    run between windows. With None, generations run until
    ``cfg.interval_ms`` has elapsed, then the next window is read at once.
    ``on_window_end`` sees the state after each commit, before idle time;
    the window's report is ``state.reports[-1]``.
    """
    state: Optional[EngineState] = None
    for window in batches:
        if state is None:
            state = initialize(window, cfg)
        else:
            process_window(state, window)
        if on_window_end is not None:
            on_window_end(state)
        if cfg.idle_generations_cap is None:
            budget = IdleBudget(10**9, time.monotonic() + cfg.interval_ms / 1000.0)
        else:
            budget = IdleBudget(cfg.idle_generations_cap)
        on_idle(state, budget)
    if state is None:
        raise ValueError("stream produced no windows")
    return state, finalize(state)
