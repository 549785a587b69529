"""First-window population seeders.

Three independent routes onto the first window: a k-means sweep, a density
scan, and a growing neural gas. Each returns solutions with objectives
already evaluated so the engine can feed them straight into the archive.
All three are deterministic given (window, parameters, seed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteringSolution,
    ObjectiveVector,
    SolutionOrigin,
    WindowBatch,
    sq_dist,
)
from .objectives import evaluate_solution

logger = logging.getLogger(__name__)

# Standard growing-neural-gas constants not exposed through SeederParams.
GNG_SPLIT_DECAY = 0.5
GNG_ERROR_DECAY = 0.995
# rows per distance block in the density scan: memory O(n * block) floats
DBSCAN_BLOCK = 512


@dataclass
class SeederParams:
    """Knobs for the three seeding routes."""

    kmeans_k_min: int = 2
    kmeans_k_max: int = 15
    dbscan_min_pts: int = 20
    dbscan_radius: float = 10.0
    gng_epochs: int = 30
    gng_max_nodes: int = 32
    gng_eps_best: float = 0.05
    gng_eps_neighbor: float = 0.006
    gng_max_edge_age: int = 50
    gng_insert_every: int = 100

    def __post_init__(self) -> None:
        if not 2 <= self.kmeans_k_min <= self.kmeans_k_max:
            raise ValueError("need 2 <= kmeans_k_min <= kmeans_k_max")
        if self.dbscan_min_pts < 1:
            raise ValueError("dbscan_min_pts must be >= 1")
        if self.dbscan_radius <= 0:
            raise ValueError("dbscan_radius must be > 0")
        if self.gng_epochs < 1:
            raise ValueError("gng_epochs must be >= 1")
        if self.gng_max_nodes < 2:
            raise ValueError("gng_max_nodes must be >= 2")


def _solution_from_assignment(
    window: WindowBatch,
    labels: np.ndarray,
    centers: np.ndarray,
    origin: SolutionOrigin,
    gamma: float,
) -> ClusteringSolution:
    members = np.bincount(labels, minlength=len(centers)).astype(float)
    members = np.maximum(members, 1.0)
    sol = ClusteringSolution(
        ObjectiveVector(), centers, origin, counts=members, weights=members.copy()
    )
    evaluate_solution(sol, window, gamma)
    return sol


# ---------------------------------------------------------------------------
# k-means


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial centers: next center drawn with prob ~ squared gap."""
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = sq_dist(data, centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = data[rng.integers(n)]
        else:
            centers[i] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, sq_dist(data, centers[i]))
    return centers


def seed_kmeans(
    window: WindowBatch, k: int, seed: int, gamma: float = 0.7
) -> ClusteringSolution:
    """Lloyd's algorithm with kmeans++ start, at most 100 iterations.

    An emptied cluster is re-seeded from the point farthest from its own
    center, so K stays exactly k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    data = window.data
    if k > len(data):
        raise ValueError(f"k={k} exceeds window size {len(data)}")
    rng = np.random.default_rng(seed)
    if k == 1:
        centers = data.mean(axis=0, keepdims=True)
        labels = np.zeros(len(data), dtype=int)
        return _solution_from_assignment(
            window, labels, centers, SolutionOrigin.KMEANS, gamma
        )
    centers = _kmeans_pp_init(data, k, rng)
    labels = np.full(len(data), -1)
    for _ in range(100):
        d2 = sq_dist(data[:, None, :], centers[None, :, :])
        new_labels = np.argmin(d2, axis=1)
        used = set()
        for ci in range(k):
            if (new_labels == ci).any():
                continue
            # farthest point from its assigned center takes over the empty slot
            gaps = d2[np.arange(len(data)), new_labels].copy()
            for u in used:
                gaps[u] = -1.0
            far = int(np.argmax(gaps))
            used.add(far)
            centers[ci] = data[far]
            new_labels[far] = ci
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for ci in range(k):
            mask = labels == ci
            if mask.any():
                centers[ci] = data[mask].mean(axis=0)
    return _solution_from_assignment(
        window, labels, centers, SolutionOrigin.KMEANS, gamma
    )


def kmeans_sweep(
    window: WindowBatch, params: SeederParams, seed: int, gamma: float = 0.7
) -> list[ClusteringSolution]:
    """One solution per feasible k in [k_min, min(k_max, n)]."""
    hi = min(params.kmeans_k_max, len(window))
    return [
        seed_kmeans(window, k, seed + k, gamma)
        for k in range(params.kmeans_k_min, hi + 1)
    ]


# ---------------------------------------------------------------------------
# density scan


def seed_dbscan(
    window: WindowBatch,
    min_pts: int = 20,
    radius: float = 10.0,
    gamma: float = 0.7,
) -> ClusteringSolution:
    """Density clustering with order-independent memberships.

    Core points (>= min_pts neighbors within radius, self included) form
    clusters by connectivity; border points join their nearest core point's
    cluster; noise is dropped. When nothing is dense enough the fallback is
    a single all-points cluster. Distances are taken in row blocks; only
    the (n, n) bool neighbor mask is held whole.
    """
    if min_pts < 1 or radius <= 0:
        raise ValueError("need min_pts >= 1 and radius > 0")
    data = window.data
    n = len(data)
    within = np.empty((n, n), dtype=bool)
    for i in range(0, n, DBSCAN_BLOCK):
        chunk = data[i : i + DBSCAN_BLOCK]
        d = np.sqrt(sq_dist(chunk[:, None, :], data[None, :, :]))
        within[i : i + len(chunk)] = d <= radius
    core = within.sum(axis=1) >= min_pts
    core_idx = np.flatnonzero(core)
    if len(core_idx) == 0:
        logger.warning("dbscan found no core points; falling back to one cluster")
        centers = data.mean(axis=0, keepdims=True)
        return _solution_from_assignment(
            window, np.zeros(n, dtype=int), centers, SolutionOrigin.DBSCAN, gamma
        )
    # connected components over core points only
    comp = np.full(n, -1)
    next_comp = 0
    for start in core_idx:
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = next_comp
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(within[u] & core):
                if comp[v] == -1:
                    comp[v] = next_comp
                    stack.append(v)
        next_comp += 1
    labels = np.full(n, -1)
    labels[core_idx] = comp[core_idx]
    for i in np.flatnonzero(~core):
        reachable = core_idx[within[i, core_idx]]
        if len(reachable):
            gaps = np.sqrt(sq_dist(data[reachable], data[i]))
            labels[i] = comp[reachable[np.argmin(gaps)]]
    kept = labels >= 0
    centers = np.vstack(
        [data[kept][labels[kept] == c].mean(axis=0) for c in range(next_comp)]
    )
    sub = WindowBatch(data[kept], window.window_id, start_index=window.start_index)
    return _solution_from_assignment(
        sub, labels[kept], centers, SolutionOrigin.DBSCAN, gamma
    )


# ---------------------------------------------------------------------------
# growing neural gas


def seed_gng(
    window: WindowBatch,
    params: SeederParams,
    seed: int,
    gamma: float = 0.7,
) -> ClusteringSolution:
    """Grow a unit graph over the window; edge components become clusters.

    Classic scheme: per signal the two closest units age/refresh their edges,
    the winner and its neighbors drift toward the signal, and every
    ``insert_every`` signals a new unit splits the highest-error region.
    """
    data = window.data
    n = len(data)
    if n < 2:
        raise ValueError("gng needs at least two points")
    rng = np.random.default_rng(seed)
    first = rng.choice(n, size=2, replace=False)
    units = [data[first[0]].copy(), data[first[1]].copy()]
    errors = [0.0, 0.0]
    edges: dict[tuple[int, int], int] = {}  # (lo, hi) -> age
    signals = 0
    for _ in range(params.gng_epochs):
        for idx in rng.permutation(n):
            x = data[idx]
            signals += 1
            u = np.vstack(units)
            d2 = sq_dist(u, x)
            order = np.argsort(d2, kind="stable")
            s1, s2 = int(order[0]), int(order[1])
            errors[s1] += float(d2[s1])
            units[s1] = units[s1] + params.gng_eps_best * (x - units[s1])
            for (a, b) in list(edges):
                if s1 in (a, b):
                    edges[(a, b)] += 1
                    other = b if a == s1 else a
                    units[other] = units[other] + params.gng_eps_neighbor * (
                        x - units[other]
                    )
            edges[(min(s1, s2), max(s1, s2))] = 0
            for key, age in list(edges.items()):
                if age > params.gng_max_edge_age:
                    del edges[key]
            if (
                signals % params.gng_insert_every == 0
                and len(units) < params.gng_max_nodes
            ):
                q = int(np.argmax(errors))
                nbrs = [
                    (b if a == q else a)
                    for (a, b) in edges
                    if q in (a, b)
                ]
                if nbrs:
                    f = max(nbrs, key=lambda j: errors[j])
                    units.append(0.5 * (units[q] + units[f]))
                    errors[q] *= GNG_SPLIT_DECAY
                    errors[f] *= GNG_SPLIT_DECAY
                    errors.append(errors[q])
                    new = len(units) - 1
                    edges.pop((min(q, f), max(q, f)), None)
                    edges[(min(q, new), max(q, new))] = 0
                    edges[(min(f, new), max(f, new))] = 0
            errors = [e * GNG_ERROR_DECAY for e in errors]
    # components over surviving edges
    m = len(units)
    comp = list(range(m))

    def find(a: int) -> int:
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(i) for i in range(m)})
    comp_of_unit = np.array([roots.index(find(i)) for i in range(m)])
    # assign window points to nearest unit, roll up into components
    u = np.vstack(units)
    nearest_unit = np.argmin(sq_dist(data[:, None, :], u[None, :, :]), axis=1)
    labels = comp_of_unit[nearest_unit]
    centers = []
    final_labels = np.full(n, -1)
    next_c = 0
    for c in range(len(roots)):
        mask = labels == c
        if not mask.any():
            continue
        centers.append(data[mask].mean(axis=0))
        final_labels[mask] = next_c
        next_c += 1
    if next_c == 0:  # pragma: no cover - every point lands somewhere
        centers = [data.mean(axis=0)]
        final_labels[:] = 0
    return _solution_from_assignment(
        window, final_labels, np.vstack(centers), SolutionOrigin.GNG, gamma
    )
