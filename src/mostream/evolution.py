"""Idle-time genetic improvement of the archive.

While the stream is quiet the engine breeds archive members: the best
sigma solutions by scalar fitness pair off for single-point crossover over
cluster blocks, and every parent also yields a coordinate-jitter mutant.
``breed`` is a handful of stacked passes: one random draw mutates every
parent, and all offspring are assigned to the latest window snapshot and
scored in one call each. The engine numbers them and offers them to the
archive; dominated ones simply vanish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ClusteringSolution, ObjectiveVector, StreamConfig, WindowBatch, assign_batch
from .objectives import evaluate_solution


@dataclass
class IdleBudget:
    """Remaining idle work: a generation starts only if both the counter and
    the wall deadline (monotonic clock, None = unbounded) allow it, and a
    started generation runs to its end."""

    generations_remaining: int
    wall_deadline: Optional[float] = None

    def expired(self) -> bool:
        return self.wall_deadline is not None and time.monotonic() >= self.wall_deadline

    def allows(self) -> bool:
        return self.generations_remaining > 0 and not self.expired()


def fitness_score(solution: ClusteringSolution) -> float:
    """Scalar ranking helper: compactness - separateness, lower is better."""
    return solution.objectives.compactness - solution.objectives.separateness


def select_parents(members: Iterable[ClusteringSolution], sigma: int) -> list[ClusteringSolution]:
    """The min(sigma, |members|) solutions with best fitness; ties by id."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    return sorted(members, key=lambda s: (fitness_score(s), s.solution_id))[:sigma]


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
        ObjectiveVector(),
        np.concatenate([a.prototypes[a_rows], b.prototypes[b_rows]]),
        weights=np.concatenate([a.weights[a_rows], b.weights[b_rows]]),
    )


def mutate(
    parents: Sequence[ClusteringSolution], mu: float, rng: np.random.Generator
) -> list[ClusteringSolution]:
    """One mutant per parent: jitter max(1, round(mu*d)) distinct coordinates
    of every prototype.

    Each chosen coordinate moves by a uniform fraction of its own magnitude,
    v <- v +/- rho*v with rho ~ U(0,1), so zeros are fixed points and scale
    is respected. Weights ride along unchanged.

    The randomness is one ``rng.random`` draw per call, whatever the parents'
    K values. Read in parent order, each parent's slice holds a (K, d) key
    block, then a (K, n_mut, 2) step block: the chosen coordinates are the
    first n_mut columns of the row-wise argsort of the keys, and each chosen
    coordinate takes a step fraction and a sign draw. That is the stream two
    block draws per parent would give, and one argsort runs over the stacked
    (sum K, d) keys. The mutants' prototypes are row ranges of that one
    stacked array; like every bred solution, they are not written in place
    (a commit merges into copies).
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must be in (0, 1]")
    if not parents:
        return []
    d = parents[0].dim
    n_mut = max(1, round(mu * d))
    ks = [p.k for p in parents]
    draws = rng.random(sum(ks) * (d + 2 * n_mut))
    keys, steps, at = [], [], 0
    for k in ks:
        keys.append(draws[at : at + k * d])
        at += k * d
        steps.append(draws[at : at + k * 2 * n_mut])
        at += k * 2 * n_mut
    pos = np.argsort(np.concatenate(keys).reshape(-1, d), axis=1)[:, :n_mut]
    steps = np.concatenate(steps).reshape(-1, n_mut, 2)
    rho, flip = steps[..., 0], steps[..., 1]
    protos = np.concatenate([p.prototypes for p in parents])
    rows = np.arange(len(protos))[:, None]
    old = protos[rows, pos]
    protos[rows, pos] = old + np.where(flip < 0.5, 1.0, -1.0) * rho * old
    out, at = [], 0
    for p in parents:
        out.append(
            ClusteringSolution(ObjectiveVector(), protos[at : at + p.k], weights=p.weights.copy())
        )
        at += p.k
    return out


def breed(
    parents: Sequence[ClusteringSolution],
    snapshot: WindowBatch,
    cfg: StreamConfig,
    rng: np.random.Generator,
) -> list[ClusteringSolution]:
    """One round of scored offspring from an ordered parent list, without
    ids: crossover children in pair order, then one mutant per parent.

    Consecutive parents pair for crossover (skipped when either has K < 3);
    every parent also contributes one mutant. ``rng`` gives the crossover
    cuts, then one ``mutate`` draw for every mutant. All offspring are
    assigned to the window in one ``assign_batch`` call and scored in one
    ``evaluate_solution`` call.
    """
    offspring: list[ClusteringSolution] = []
    for j in range(0, len(parents) - 1, 2):
        p1, p2 = parents[j], parents[j + 1]
        k_min = min(p1.k, p2.k)
        if k_min < 3:
            continue
        offspring.extend(crossover(p1, p2, int(rng.integers(2, k_min))))
    offspring.extend(mutate(parents, cfg.mu, rng))
    evaluate_solution(offspring, *assign_batch(offspring, snapshot.data))
    return offspring
