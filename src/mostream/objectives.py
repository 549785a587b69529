"""Window objectives and the bounded Pareto archive.

Compactness is the decayed sum of point-to-prototype distances (lower is
better). Separateness is the mean, over clusters, of the distance to the
nearest other cluster's prototype (higher is better). Dominance works on the
both-minimized pair (compactness, -separateness).
"""

from __future__ import annotations

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


def separateness(protos: np.ndarray) -> float:
    """Mean over the (K, d) prototype block of each row's distance to its
    nearest other row.

    Callers pass only the clusters that currently hold points: a prototype
    parked far from the data would otherwise buy unbounded separateness at
    zero compactness cost. With at most one row there is nothing to be
    separate from: 0.
    """
    if len(protos) <= 1:
        return 0.0
    d2 = sq_dist(protos[:, None, :], protos[None, :, :])
    np.fill_diagonal(d2, np.inf)
    nearest = np.sqrt(d2.min(axis=1))
    # sum / size is exactly .mean(), without its per-call overhead
    return float(nearest.sum() / nearest.size)


def evaluate_solution(
    solution: ClusteringSolution,
    pair: tuple[np.ndarray, np.ndarray],
    gamma: float,
) -> None:
    """Refresh both objectives against a window, in place.

    ``pair`` is the solution's ``assign_batch`` pair on the window: the
    labels pick the fed clusters and the distances are the compactness
    terms. Clusters the window does not feed are dropped first: a memberless
    cluster is no part of the clustering the data sees, and letting it ride
    would poison the validity index while costing nothing in compactness.
    Dropping cannot reassign anyone; a point's nearest prototype is fed by
    that very point. Treats the current compactness value as the decayed
    history prefix, so a fresh solution should carry 0 there and an
    offspring its inherited value.
    """
    labels, dists = pair
    fed = np.bincount(labels, minlength=solution.k) > 0
    if not fed.all():
        solution.keep(fed)
    update_compactness(solution, dists, gamma)
    solution.objectives.separateness = separateness(solution.prototypes)


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
    """

    def __init__(self):
        self.solutions: list[ClusteringSolution] = []

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def insert(self, candidate: ClusteringSolution) -> bool:
        """Try to add a solution; returns True if it now sits in the archive."""
        c1, c2 = candidate.objectives.as_min_pair()
        pairs = [m.objectives.as_min_pair() for m in self.solutions]
        # a member no worse in both components dominates or duplicates it
        for m1, m2 in pairs:
            if m1 <= c1 and m2 <= c2:
                return False
        # no member equals it now, so no worse in both means dominated
        self.solutions = [
            m
            for m, (m1, m2) in zip(self.solutions, pairs)
            if not (c1 <= m1 and c2 <= m2)
        ]
        self.solutions.append(candidate)
        self.solutions.sort(key=lambda s: s.solution_id)
        if len(self.solutions) > ARCHIVE_CAPACITY:
            self._evict_most_crowded()
        return True

    def _evict_most_crowded(self) -> None:
        dist = crowding_distances([s.objectives for s in self.solutions])
        # smallest crowding distance loses; ties evict the newer solution
        victim = min(
            range(len(self.solutions)),
            key=lambda i: (dist[i], -self.solutions[i].solution_id),
        )
        del self.solutions[victim]

    def validate(self) -> None:
        """Pairwise non-dominance audit (test hook)."""
        for i, a in enumerate(self.solutions):
            for j, b in enumerate(self.solutions):
                if i != j and dominates(a.objectives, b.objectives):
                    raise AssertionError(
                        f"archive member {a.solution_id} dominates {b.solution_id}"
                    )


def crowding_distances(objectives: list[ObjectiveVector]) -> np.ndarray:
    """NSGA-II crowding distance over the two minimized components."""
    n = len(objectives)
    out = np.zeros(n)
    if n <= 2:
        out[:] = np.inf
        return out
    pairs = np.array([o.as_min_pair() for o in objectives])
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
    pairs = (s.objectives.as_min_pair() for s in archive.solutions)
    return _sweep(sorted(p for p in pairs if p[0] <= ref[0] and p[1] <= ref[1]), ref)
