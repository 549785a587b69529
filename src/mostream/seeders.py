"""First-window population seeders.

Three independent routes onto the first window: a k-means sweep, a density
scan, and a growing neural gas. Each only labels the window's rows and
returns unscored solutions; the engine scores every seed in one pass. All
three are deterministic given (window, seed); their settings are the module
constants below. The gas comes in two steps: ``grow_gas`` grows the units
and edges from the rows and a seed, and ``seed_gng`` labels the window by
them. The engine runs ``grow_gas`` in a forked worker while the other
routes run, and ``seed_gng`` in its own process; the worker then shares the
k-means sweep, k by k, with the engine's process.
"""

from __future__ import annotations

import logging
from typing import Iterable, Optional

import numpy as np

from .core import (
    ClusteringSolution,
    ObjectiveVector,
    WindowBatch,
    label_sums,
    nearest_sq,
    scan_rows,
    sq_dist,
    sum_coords,
)

logger = logging.getLogger(__name__)

# k-means sweep: one solution per k in [KMEANS_K_MIN, KMEANS_K_MAX]
KMEANS_K_MIN = 2
KMEANS_K_MAX = 15
# density scan: a core point has DBSCAN_MIN_PTS neighbours (itself included)
# within DBSCAN_RADIUS
DBSCAN_MIN_PTS = 20
DBSCAN_RADIUS = 10.0
# growing neural gas (standard scheme). It runs GNG_SIGNALS signals, not a
# number of passes: its last split (GNG_MAX_NODES - 2 of them) falls on
# signal (GNG_MAX_NODES - 2) * GNG_INSERT_EVERY = 3000, and later signals
# only nudge a full gas. A 100-row window takes 30 whole passes, a 1000-row
# window 3.
GNG_SIGNALS = 3000
GNG_MAX_NODES = 32
GNG_EPS_BEST = 0.05
GNG_EPS_NEIGHBOR = 0.006
GNG_MAX_EDGE_AGE = 50
GNG_INSERT_EVERY = 100
GNG_SPLIT_DECAY = 0.5
GNG_ERROR_DECAY = 0.995


def _solution(
    data: np.ndarray, labels: np.ndarray, centers: Optional[np.ndarray] = None
) -> ClusteringSolution:
    """The unscored solution of one label per row (-1 for none). Each centre
    is its label's row mean unless ``centers`` holds them; the engine sets
    the masses from the rows scoring gives each centre."""
    if centers is None:
        centers = np.vstack([data[labels == c].mean(axis=0) for c in range(labels.max() + 1)])
    return ClusteringSolution(ObjectiveVector(), centers)


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


def _lloyd(window: WindowBatch, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with kmeans++ start, at most 100 iterations; returns
    the final (labels, centers), each fed center its label's row mean. Each
    row goes to its nearest center by ``core.nearest_sq``.

    One ``label_sums`` call gives every fed center's row sum, adding rows in
    window order.

    An emptied cluster is re-seeded from the point farthest from its own
    center; a re-seed that empties a later cluster is caught in the same
    pass, while a later re-seed can empty an earlier one again.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    data = window.data
    n = len(data)
    if k > n:
        raise ValueError(f"k={k} exceeds window size {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(data, k, rng)
    labels = np.full(n, -1)
    for _ in range(100):
        new_labels, gaps = nearest_sq(centers, data)
        sizes = np.bincount(new_labels, minlength=k)
        if not sizes.all():
            # farthest point from its assigned center takes over an empty
            # slot; a row that moved once is not taken again
            for ci in range(k):
                if sizes[ci]:
                    continue
                far = int(np.argmax(gaps))
                gaps[far] = -1.0
                sizes[new_labels[far]] -= 1
                sizes[ci] += 1
                centers[ci] = data[far]
                new_labels[far] = ci
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        fed = sizes > 0
        centers[fed] = label_sums(labels, data, k)[fed] / sizes[fed, None]
    return labels, centers


def sweep_ks(n: int) -> range:
    """The sweep's feasible k on an n-row window: [KMEANS_K_MIN,
    min(KMEANS_K_MAX, n)]."""
    return range(KMEANS_K_MIN, min(KMEANS_K_MAX, n) + 1)


def kmeans_sweep(
    window: WindowBatch, seed: int, ks: Optional[Iterable[int]] = None
) -> list[ClusteringSolution]:
    """One solution per k of ``ks`` (all of ``sweep_ks(n)`` by default), in
    the order ``ks`` yields them, with Lloyd's k final centers as they are
    (see ``_lloyd``). Each k runs on seed ``seed + k``, so a solution is the
    same whichever sweep, or process, takes its k; ``ks`` is read one k at a
    time, so it may be claimed as the sweep goes."""
    ks = sweep_ks(len(window)) if ks is None else ks
    return [_solution(window.data, *_lloyd(window, k, seed + k)) for k in ks]


# ---------------------------------------------------------------------------
# graph components (density-scan cores, gas edges)


def connected_components(
    adjacent: np.ndarray, nodes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Component label per node of a symmetric bool adjacency matrix.

    Components are numbered 0, 1, ... in the order of their smallest member
    index. Only the nodes the bool mask ``nodes`` selects (all by default)
    join components or carry links; the others are labelled -1. A frontier's
    rows are read in blocks of ``scan_rows``, so no copy of them holds more
    than ``core.SCAN_ENTRIES`` entries.
    """
    open_ = np.ones(len(adjacent), dtype=bool) if nodes is None else nodes.copy()
    labels = np.full(len(adjacent), -1)
    step = scan_rows(len(adjacent), 1)
    count = 0
    for start in np.flatnonzero(open_):
        if labels[start] >= 0:
            continue
        frontier = np.array([start])
        while frontier.size:
            labels[frontier] = count
            open_[frontier] = False
            reached = np.zeros(len(adjacent), dtype=bool)
            for i in range(0, len(frontier), step):
                reached |= adjacent[frontier[i : i + step]].any(axis=0)
            frontier = np.flatnonzero(reached & open_)
        count += 1
    return labels


# ---------------------------------------------------------------------------
# density scan


def seed_dbscan(window: WindowBatch) -> ClusteringSolution:
    """Density clustering with order-independent memberships.

    Core points (>= ``DBSCAN_MIN_PTS`` neighbors within ``DBSCAN_RADIUS``,
    self included) form clusters by connectivity; border points join their
    nearest core point's cluster; noise joins no cluster, though scoring
    charges it too. When nothing is dense enough the fallback is a single
    all-points cluster. Distances against all n rows are taken in row
    blocks of ``scan_rows``, and ``core.nearest_sq`` blocks the border rows
    against the cores alike, so no temporary holds more than
    ``core.SCAN_ENTRIES`` differences; only the (n, n) bool neighbor mask is
    held whole.
    """
    data = window.data
    n = len(data)
    within = np.empty((n, n), dtype=bool)
    step = scan_rows(n, data.shape[1])
    for i in range(0, n, step):
        chunk = data[i : i + step]
        d = sq_dist(chunk[:, None, :], data[None, :, :])
        within[i : i + len(chunk)] = np.sqrt(d, out=d) <= DBSCAN_RADIUS
    core = within.sum(axis=1) >= DBSCAN_MIN_PTS
    core_idx = np.flatnonzero(core)
    if len(core_idx) == 0:
        logger.warning("dbscan found no core points; falling back to one cluster")
        return _solution(data, np.zeros(n, dtype=int))
    # border points copy their nearest core's label (ties -> lowest row), which
    # is within the radius when any core is; core labels are never overwritten
    labels = connected_components(within, core)
    loose = np.flatnonzero(~core)
    border = loose[within[loose][:, core].any(axis=1)]
    labels[border] = labels[core_idx[nearest_sq(data[core_idx], data[border])[0]]]
    return _solution(data, labels)


# ---------------------------------------------------------------------------
# growing neural gas


def grow_gas(
    data: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the gas over ``data`` (n >= 2 rows); returns the m units (m, d),
    their accumulated errors (m,) and the edge ages (m, m), -1 for no edge.

    Classic scheme: per signal the winner's edges age and the edge to the
    runner-up is refreshed, the winner and its neighbors drift toward the
    signal, and every ``GNG_INSERT_EVERY`` signals a new unit splits the
    highest-error unit's edge to its highest-error neighbor (ties -> lowest
    index). The signals are the rows in shuffled passes, one
    ``rng.permutation`` each, ``GNG_SIGNALS`` in all: the last pass is cut
    at the budget.

    Units live in one preallocated (GNG_MAX_NODES, d) array. Edges live in
    one dict per unit, neighbor -> age, so aging and expiry touch only the
    winner's few edges. A (GNG_MAX_NODES, GNG_MAX_NODES) step-rate matrix
    mirrors them: ``GNG_EPS_BEST`` on the diagonal, ``GNG_EPS_NEIGHBOR`` per
    edge, 0 elsewhere. One difference ``x - units`` per signal gives the
    distances (summed by ``sum_coords``, so they equal ``sq_dist``'s) and,
    scaled by the winner's rate row, moves the winner and its neighbors in
    one statement; each unit's move reads only its own position, and the
    other units take a zero step. That step can turn a -0.0 coordinate into
    +0.0, which no distance sees; every other bit is as if only the winner
    and its neighbors moved.
    """
    n = len(data)
    if n < 2:
        raise ValueError("gng needs at least two points")
    max_nodes, max_age = GNG_MAX_NODES, GNG_MAX_EDGE_AGE
    rng = np.random.default_rng(seed)
    units = np.empty((max_nodes, data.shape[1]))
    units[:2] = data[rng.choice(n, size=2, replace=False)]
    errors = np.zeros(max_nodes)
    edges: list[dict[int, int]] = [{} for _ in range(max_nodes)]
    rate = np.diag(np.full(max_nodes, GNG_EPS_BEST))
    m = 2
    # views of the m live units, their errors and their rate columns
    live, live_errors, live_rate = units[:m], errors[:m], rate[:, :m, None]
    signals = 0
    while signals < GNG_SIGNALS:
        for x in data[rng.permutation(n)[: GNG_SIGNALS - signals]]:
            signals += 1
            diff = x - live
            d2 = sum_coords(diff * diff)
            s1 = int(d2.argmin())
            errors[s1] += d2[s1]
            d2[s1] = np.inf
            s2 = int(d2.argmin())
            live += live_rate[s1] * diff
            # only the winner's edges age, so only they can expire
            nbrs = edges[s1]
            for j in list(nbrs):
                if j == s2:
                    continue
                if nbrs[j] < max_age:
                    nbrs[j] = edges[j][s1] = nbrs[j] + 1
                else:
                    del nbrs[j], edges[j][s1]
                    rate[s1, j] = rate[j, s1] = 0.0
            if s2 not in nbrs:
                rate[s1, s2] = rate[s2, s1] = GNG_EPS_NEIGHBOR
            nbrs[s2] = edges[s2][s1] = 0
            if signals % GNG_INSERT_EVERY == 0 and m < max_nodes:
                q = int(live_errors.argmax())
                if edges[q]:
                    f = max(sorted(edges[q]), key=errors.item)
                    units[m] = 0.5 * (units[q] + units[f])
                    errors[q] *= GNG_SPLIT_DECAY
                    errors[f] *= GNG_SPLIT_DECAY
                    errors[m] = errors[q]
                    del edges[q][f], edges[f][q]
                    edges[q][m] = edges[m][q] = edges[f][m] = edges[m][f] = 0
                    rate[q, f] = rate[f, q] = 0.0
                    rate[[q, f], m] = rate[m, [q, f]] = GNG_EPS_NEIGHBOR
                    m += 1
                    live, live_errors, live_rate = units[:m], errors[:m], rate[:, :m, None]
            live_errors *= GNG_ERROR_DECAY
    age = np.full((m, m), -1)
    for a in range(m):
        for b, edge_age in edges[a].items():
            age[a, b] = edge_age
    return units[:m], errors[:m], age


def seed_gng(
    window: WindowBatch, gas: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> ClusteringSolution:
    """Label the window by a gas ``grow_gas`` grew over its rows; edge
    components become clusters.

    Window points go to their nearest unit and units to their edge
    component; components no point reaches are dropped.
    """
    data = window.data
    units, _, age = gas
    comp = connected_components(age >= 0)
    nearest, _ = nearest_sq(units, data)
    _, labels = np.unique(comp[nearest], return_inverse=True)
    return _solution(data, labels)
