"""Windowed streaming driver.

The first window builds the tree synopsis and seeds the archive through
multiple clustering routes plus one breeding pass. Every later window flows
through a fixed pipeline: points map into the tree (in runs of rows, each
row placed as the point-by-point rule would), each archive member
absorbs the window and fades, the members are rescored in one pass together
with the tree's re-offered macro view, and the archive is re-screened for
dominance before the window report goes out. Idle time between windows runs
archive generations.
"""

from __future__ import annotations

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
from .seeders import kmeans_sweep, seed_dbscan, seed_gng

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
    macro_compactness: float = 0.0
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


def _window_report(
    state: EngineState,
    window: WindowBatch,
    elapsed_ms: Optional[float],
    nearest: Optional[dict[int, tuple[np.ndarray, np.ndarray]]] = None,
) -> WindowReport:
    """Score and record the window. ``nearest`` maps solution ids to
    ``assign_batch`` pairs already computed on this window, so those members
    skip a second assignment."""
    _, best_dbi, labels = select_best(state.archive, window, nearest)
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


def initialize(first_window: WindowBatch, cfg: StreamConfig) -> EngineState:
    """Build the tree, seed and score the population, breed once, fill the archive."""
    t0 = time.perf_counter()
    tree = build_initial_tree(first_window)

    # macro view, k-means sweep, density scan and gas, scored in one pass;
    # fresh compactness is 0, so gamma cannot reach the seeds' objectives.
    # Each cluster's mass is the rows scoring gives it, taken before
    # evaluation drops the unfed ones.
    population = [tree.macro_clusters(), *kmeans_sweep(first_window, cfg.rng_seed)]
    population.append(seed_dbscan(first_window))
    if len(first_window) >= 2:
        population.append(seed_gng(first_window, cfg.rng_seed))
    pairs = assign_batch(population, first_window.data)
    for sol, (labels, _) in zip(population, pairs):
        sol.weights = np.bincount(labels, minlength=sol.k).astype(float)
    evaluate_solution(population, pairs, cfg.gamma)

    state = EngineState(
        cfg=cfg,
        tree=tree,
        archive=ParetoArchive(),
        last_window=first_window,
        hv_reference=ObjectiveVector(),
        macro_compactness=population[0].objectives.compactness,
    )
    for sol in population:
        sol.solution_id = state.allot_id()

    # one breeding pass over the seed population before anything is published
    population.extend(_generation(state, population))

    worst_c = max(s.objectives.compactness for s in population)
    horizon = 1.0 / (1.0 - cfg.gamma) if cfg.gamma < 1.0 else GAMMA_ONE_REF_WINDOWS
    state.hv_reference = ObjectiveVector(2.0 * (worst_c + 1.0) * horizon, 0.0)

    for sol in population:  # in id order: ids were allotted in list order
        state.archive.insert(sol)
    elapsed = (time.perf_counter() - t0) * 1000.0
    _window_report(state, first_window, elapsed)
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

    # (2) each member absorbs the window: one assign_batch call over every
    # copy, against the window-start prototypes, gives each member's labels
    # and compactness terms; then the per-cluster batches fold into the fed
    # rows, each with its window-start weight as the history mass. One
    # weighted bincount over (cluster, coordinate) bins sums every batch,
    # adding rows in window order as a masked mean does for d >= 2 (at d = 1
    # numpy sums the single column pairwise, so a mean can differ in the last
    # bit); (3) fade every weight, fed or not, and prune what starved
    # (solutions and tree alike)
    d = window.dim
    coord = np.arange(d)
    flat_data = window.data.ravel()
    clones = [member.copy() for member in state.archive]
    for clone, (labels, dists) in zip(clones, assign_batch(clones, window.data)):
        update_compactness(clone, dists, cfg.gamma)
        assigned = np.bincount(labels, minlength=clone.k).astype(float)
        fed = np.flatnonzero(assigned)
        bins = (labels[:, None] * d + coord).ravel()
        sums = np.bincount(bins, weights=flat_data, minlength=clone.k * d)
        means = sums.reshape(clone.k, d)[fed] / assigned[fed, None]
        clone.prototypes[fed] = merge_prototype(
            clone.prototypes[fed], clone.weights[fed], means, assigned[fed], cfg.gamma
        )
        clone.weights = fade_weight(clone.weights, cfg.gamma, assigned)
        prune_outdated(clone, cfg.prune_threshold)
    state.tree.fade_and_prune(cfg.prune_threshold)

    # (4) rescore: one assign_batch call over the moved/pruned members and
    # the tree's macro view, re-offered as a candidate. A member's
    # separateness counts only the clusters the window still feeds, and one
    # separateness call scores every member; their labels and distances
    # serve the report too. The macro offer takes the commit's last id.
    macro = state.tree.macro_clusters()
    macro.objectives.compactness = state.macro_compactness
    *pairs, macro_pair = assign_batch(clones + [macro], window.data)
    fed_rows = [
        clone.prototypes[np.bincount(labels, minlength=clone.k) > 0]
        for clone, (labels, _) in zip(clones, pairs)
    ]
    for clone, value in zip(clones, separateness(fed_rows)):
        clone.objectives.separateness = value
    evaluate_solution([macro], [macro_pair], cfg.gamma)
    macro.solution_id = state.allot_id()
    state.macro_compactness = macro.objectives.compactness

    # (5) re-screen: rebuild the archive from updated members (already in id
    # order, as the archive iterates), then the offer
    rebuilt = ParetoArchive()
    for clone in clones:
        rebuilt.insert(clone)
    rebuilt.insert(macro)
    state.archive = rebuilt

    # (6) commit and report
    state.last_window = window
    elapsed = (time.perf_counter() - t0) * 1000.0
    nearest = {s.solution_id: pair for s, pair in zip([*clones, macro], [*pairs, macro_pair])}
    return _window_report(state, window, elapsed, nearest)


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
    best, dbi, labels = select_best(state.archive, window)
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
