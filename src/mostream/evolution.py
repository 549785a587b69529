"""Idle-time genetic improvement of the archive.

While the stream is quiet the engine breeds archive members: the best
sigma solutions by scalar fitness pair off for single-point crossover over
cluster blocks, and every parent also yields a coordinate-jitter mutant.
Offspring are scored against the latest window snapshot and offered to the
archive; dominated ones simply vanish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ClusteringSolution, StreamConfig, WindowBatch, assign_batch, sq_dist
from .objectives import ParetoArchive, evaluate_solution


@dataclass
class IdleBudget:
    """Remaining idle work: a generation runs only if both the counter and
    the wall deadline (monotonic clock, None = unbounded) allow it, and an
    offspring is scored only while the deadline has not passed."""

    generations_remaining: int
    wall_deadline: Optional[float] = None

    def expired(self) -> bool:
        return self.wall_deadline is not None and time.monotonic() >= self.wall_deadline

    def allows(self) -> bool:
        return self.generations_remaining > 0 and not self.expired()


def fitness_score(solution: ClusteringSolution) -> float:
    """Scalar ranking helper: compactness - separateness, lower is better."""
    return solution.objectives.compactness - solution.objectives.separateness


def select_parents(archive: ParetoArchive, sigma: int) -> list[ClusteringSolution]:
    """The min(sigma, |archive|) members with best fitness; ties by id."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    members = sorted(archive, key=lambda s: (fitness_score(s), s.solution_id))
    return members[:sigma]


def crossover(
    p1: ClusteringSolution, p2: ClusteringSolution, i: int
) -> tuple[ClusteringSolution, ClusteringSolution]:
    """Single-point exchange of cluster blocks at cut ``i``.

    With A the smaller-K parent (ties p1) and B the other: child one is
    A[1..i] + B[i+1..K_B], child two is A[i+1..K_A] + B[1..i]. Children keep
    the parents' K values, so K never drifts through crossover alone.
    """
    k_min = min(p1.k, p2.k)
    if k_min < 3:
        raise ValueError("crossover needs both parents to have K >= 3")
    if not 1 < i < k_min:
        raise ValueError(f"cut must satisfy 1 < i < {k_min}")
    a, b = (p1, p2) if p1.k <= p2.k else (p2, p1)
    head, tail = slice(None, i), slice(i, None)
    return _splice(a, head, b, tail), _splice(a, tail, b, head)


def _splice(
    a: ClusteringSolution, a_rows: slice, b: ClusteringSolution, b_rows: slice
) -> ClusteringSolution:
    """Crossover child: clusters ``a_rows`` of a, then ``b_rows`` of b."""
    return ClusteringSolution(
        a.objectives.copy(),
        np.concatenate([a.prototypes[a_rows], b.prototypes[b_rows]]),
        counts=np.concatenate([a.counts[a_rows], b.counts[b_rows]]),
        weights=np.concatenate([a.weights[a_rows], b.weights[b_rows]]),
    )


def mutate(
    solution: ClusteringSolution, mu: float, rng: np.random.Generator
) -> ClusteringSolution:
    """Jitter max(1, round(mu*d)) distinct coordinates of every prototype.

    Each chosen coordinate moves by a uniform fraction of its own magnitude,
    v <- v +/- rho*v with rho ~ U(0,1), so zeros are fixed points and scale
    is respected. Counts and weights ride along unchanged.

    The randomness comes from two block draws on ``rng``, whatever K is:
    the chosen coordinates are the first n_mut columns of the row-wise
    argsort of a (K, d) uniform block, and a (K, n_mut, 2) uniform block
    holds each chosen coordinate's step fraction and sign draw.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must be in (0, 1]")
    out = solution.copy()
    out.solution_id = -1
    k, d = solution.k, solution.dim
    n_mut = max(1, round(mu * d))
    pos = np.argsort(rng.random((k, d)), axis=1)[:, :n_mut]
    draws = rng.random((k, n_mut, 2))
    rho, flip = draws[..., 0], draws[..., 1]
    rows = np.arange(k)[:, None]
    old = out.prototypes[rows, pos]
    out.prototypes[rows, pos] = old + np.where(flip < 0.5, 1.0, -1.0) * rho * old
    return out


def prototype_set_distance(a: ClusteringSolution, b: ClusteringSolution) -> float:
    """Symmetric mean nearest-prototype distance between two solutions."""
    d = np.sqrt(sq_dist(a.prototypes[:, None, :], b.prototypes[None, :, :]))
    rows, cols = d.min(axis=1), d.min(axis=0)
    # sum / size is exactly .mean(), without its per-call overhead
    return float(0.5 * (rows.sum() / rows.size + cols.sum() / cols.size))


def breed(
    parents: list[ClusteringSolution],
    snapshot: WindowBatch,
    cfg: StreamConfig,
    rng: np.random.Generator,
    allot_id: Callable[[], int],
    expired: Optional[Callable[[], bool]] = None,
) -> list[ClusteringSolution]:
    """One round of offspring from an ordered parent list, fully evaluated.

    Consecutive parents pair for crossover (skipped when either has K < 3);
    every parent also contributes one mutant. The inherited compactness
    history comes from the nearer parent (crossover) or the source parent
    (mutation), taken at its pre-window value: evaluation then applies the
    same single decay-and-fold the parent received, so a lineage bred over
    many generations inside one idle phase does not compound the decay.
    ``rng`` gives the crossover cuts, then each mutant's draws, in parent
    order. All offspring are assigned to the window in one ``assign_batch``
    call. ``expired`` is polled before that call, so a generation that
    starts past its deadline does no distance work, and again before each
    later offspring is scored.
    """
    offspring: list[ClusteringSolution] = []
    jobs: list[tuple[ClusteringSolution, float]] = []
    for j in range(0, len(parents) - 1, 2):
        p1, p2 = parents[j], parents[j + 1]
        k_min = min(p1.k, p2.k)
        if k_min < 3:
            continue
        cut = int(rng.integers(2, k_min))
        c1, c2 = crossover(p1, p2, cut)
        for child in (c1, c2):
            nearer = min(
                (p1, p2), key=lambda p: (prototype_set_distance(child, p), p.solution_id)
            )
            jobs.append((child, nearer.prev_compactness))
    for parent in parents:
        mutant = mutate(parent, cfg.mu, rng)
        jobs.append((mutant, parent.prev_compactness))
    if expired is not None and expired():
        return offspring
    pairs = assign_batch([child for child, _ in jobs], snapshot.data)
    for i, ((child, prefix), pair) in enumerate(zip(jobs, pairs)):
        if i and expired is not None and expired():
            break
        child.objectives.compactness = prefix
        child.objectives.separateness = 0.0
        evaluate_solution(child, pair, cfg.gamma)
        child.solution_id = allot_id()
        offspring.append(child)
    return offspring


def idle_generation(
    archive: ParetoArchive,
    snapshot: WindowBatch,
    cfg: StreamConfig,
    seed: int,
    allot_id: Callable[[], int],
    expired: Optional[Callable[[], bool]] = None,
) -> ParetoArchive:
    """One select/crossover/mutate/evaluate/insert cycle on the archive."""
    parents = select_parents(archive, cfg.sigma)
    rng = np.random.default_rng(seed)
    for child in breed(parents, snapshot, cfg, rng, allot_id, expired):
        archive.insert(child)
    return archive
