"""Window objectives and the bounded Pareto archive.

Compactness is the decayed sum of point-to-prototype distances (lower is
better). Separateness is the mean, over clusters, of the distance to the
nearest other cluster's prototype (higher is better). Dominance works on the
both-minimized pair (compactness, -separateness).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import ClusteringSolution, ObjectiveVector, sq_dist

ARCHIVE_CAPACITY = 50


def update_compactness(
    solution: ClusteringSolution, dists: np.ndarray, gamma: float
) -> float:
    """Fold one window into the compactness objective, in place.

    compactness <- gamma * previous + sum(dists), where ``dists`` holds each
    window point's distance to its assigned prototype as the prototypes
    stand at window start.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    # offspring inherit the entry value, so the decay is paid once per window
    solution.prev_compactness = float(solution.objectives.compactness)
    value = gamma * solution.objectives.compactness + float(dists.sum())
    solution.objectives.compactness = value
    return value


def separateness(blocks: Sequence[np.ndarray]) -> list[float]:
    """For each (K, d) prototype block, the mean over its rows of each row's
    distance to its nearest other row.

    Callers pass only the clusters that currently hold points: a prototype
    parked far from the data would otherwise buy unbounded separateness at
    zero compactness cost. A block with at most one row has nothing to be
    separate from: 0.

    Every block with K >= 2 is padded to kmax rows, and each of their
    sum-K rows is set against its own padded block: one (sum K, kmax)
    ``sq_dist`` block, with the padding columns and the row's own column at
    +inf. Each entry and each row minimum is the one the block's own (K, K)
    matrix gives, and each mean sums exactly the block's K row minima
    (numpy's pairwise sum depends on the length, so nothing else enters
    it): every value is bit for bit the single-block one.
    """
    out = [0.0] * len(blocks)
    multi = [i for i, block in enumerate(blocks) if len(block) > 1]
    if not multi:
        return out
    ks = [len(blocks[i]) for i in multi]
    kmax = max(ks)
    padded = np.zeros((len(multi), kmax, blocks[multi[0]].shape[1]))
    for rows, i, k in zip(padded, multi, ks):
        rows[:k] = blocks[i]
    # each stacked row's block and its index within that block
    sizes = np.array(ks)
    owner = np.repeat(np.arange(len(ks)), sizes)
    own = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    d2 = sq_dist(padded[owner, own][:, None, :], padded[owner])
    cols = np.arange(kmax)
    d2[(cols >= sizes[owner][:, None]) | (cols == own[:, None])] = np.inf
    nearest = np.sqrt(d2.min(axis=1))
    at = 0
    for i, k in zip(multi, ks):
        # add.reduce / k is exactly .mean() of the block's own K minima,
        # without the method wrappers' per-call overhead
        out[i] = float(np.add.reduce(nearest[at : at + k]) / k)
        at += k
    return out


def evaluate_solution(
    solutions: Sequence[ClusteringSolution],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    gamma: float,
) -> None:
    """Refresh both objectives of every solution against a window, in place.

    ``pairs`` holds each solution's ``assign_batch`` pair on the window: the
    labels pick the fed clusters and the distances are the compactness
    terms. Clusters the window does not feed are dropped first: a memberless
    cluster is no part of the clustering the data sees, and letting it ride
    would poison the validity index while costing nothing in compactness.
    Dropping cannot reassign anyone; a point's nearest prototype is fed by
    that very point. Treats each current compactness value as the decayed
    history prefix, so a fresh solution should carry 0 there and an
    offspring its inherited value. All pairs come from one window, so one
    bincount over the stacked labels finds every solution's fed clusters,
    and one ``separateness`` call scores every solution.
    """
    if not solutions:
        return
    ks = np.array([solution.k for solution in solutions])
    starts = np.cumsum(ks) - ks
    labels = np.stack([labels for labels, _ in pairs]) + starts[:, None]
    fed = np.bincount(labels.ravel(), minlength=int(ks.sum())) > 0
    whole = np.logical_and.reduceat(fed, starts).tolist()
    for solution, (_, dists), start, k, all_fed in zip(solutions, pairs, starts, ks, whole):
        if not all_fed:
            solution.keep(fed[start : start + k])
        update_compactness(solution, dists, gamma)
    values = separateness([solution.prototypes for solution in solutions])
    for solution, value in zip(solutions, values):
        solution.objectives.separateness = value


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True when a is no worse in both minimized components and better in one."""
    a1, a2 = a.as_min_pair()
    b1, b2 = b.as_min_pair()
    return a1 <= b1 and a2 <= b2 and (a1 < b1 or a2 < b2)


class ParetoArchive:
    """Mutually non-dominated solutions, at most ``ARCHIVE_CAPACITY`` of them.

    Inserts reject dominated or objective-duplicate candidates and evict any
    members the newcomer dominates. On overflow the member with the smallest
    crowding distance goes (objective-space extremes are kept).

    ``min_pairs[i]`` is member i's ``as_min_pair()``, taken once at insert;
    dominance, crowding and the hypervolume read it. Members are never
    written after insert (a commit rebuilds the archive from re-scored
    clones), so the stored pair stays the member's own.
    """

    def __init__(self):
        self.solutions: list[ClusteringSolution] = []
        self.min_pairs: list[tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def insert(self, candidate: ClusteringSolution) -> bool:
        """Try to add a solution; returns True if it now sits in the archive."""
        pair = candidate.objectives.as_min_pair()
        c1, c2 = pair
        # a member no worse in both components dominates or duplicates it
        for m1, m2 in self.min_pairs:
            if m1 <= c1 and m2 <= c2:
                return False
        # no member equals it now, so no worse in both means dominated
        kept = [i for i, (m1, m2) in enumerate(self.min_pairs) if not (c1 <= m1 and c2 <= m2)]
        if len(kept) < len(self.solutions):
            self.solutions = [self.solutions[i] for i in kept]
            self.min_pairs = [self.min_pairs[i] for i in kept]
        # members stay in id order; a repeated id goes after its equals
        at = bisect_right(self.solutions, candidate.solution_id, key=attrgetter("solution_id"))
        self.solutions.insert(at, candidate)
        self.min_pairs.insert(at, pair)
        if len(self.solutions) > ARCHIVE_CAPACITY:
            self._evict_most_crowded()
        return True

    def _evict_most_crowded(self) -> None:
        dist = crowding_distances(self.min_pairs)
        # smallest crowding distance loses; ties evict the newer solution
        victim = min(
            range(len(self.solutions)),
            key=lambda i: (dist[i], -self.solutions[i].solution_id),
        )
        del self.solutions[victim]
        del self.min_pairs[victim]

    def validate(self) -> None:
        """Pairwise non-dominance audit (test hook)."""
        for i, a in enumerate(self.solutions):
            for j, b in enumerate(self.solutions):
                if i != j and dominates(a.objectives, b.objectives):
                    raise AssertionError(
                        f"archive member {a.solution_id} dominates {b.solution_id}"
                    )


def crowding_distances(pairs: Sequence[tuple[float, float]]) -> np.ndarray:
    """NSGA-II crowding distance over both-minimized (compactness,
    -separateness) pairs."""
    n = len(pairs)
    out = np.zeros(n)
    if n <= 2:
        out[:] = np.inf
        return out
    pairs = np.array(pairs, dtype=float)
    for dim in range(pairs.shape[1]):
        order = np.argsort(pairs[:, dim], kind="stable")
        lo, hi = pairs[order[0], dim], pairs[order[-1], dim]
        out[order[0]] = out[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        out[order[1:-1]] += (pairs[order[2:], dim] - pairs[order[:-2], dim]) / span
    return out


def _sweep(pts: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    """Area a sorted non-dominated set of minimized pairs dominates up to ``ref``.

    Sorted by first component ascending, the second is strictly descending;
    sweep left to right.
    """
    area = 0.0
    for i, (x, y) in enumerate(pts):
        next_x = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
        area += (next_x - x) * (ref[1] - y)
    return float(area)


def hypervolume_in_box(archive: ParetoArchive, reference: ObjectiveVector) -> float:
    """Area of objective space dominated by the archive, up to ``reference``.

    Works on the both-minimized pair; members outside the reference box are
    ignored. Empty archive -> 0.
    """
    ref = reference.as_min_pair()
    inside = (p for p in archive.min_pairs if p[0] <= ref[0] and p[1] <= ref[1])
    return _sweep(sorted(inside), ref)
