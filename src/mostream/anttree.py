"""Tree synopsis built by ant-style insertion, then aggregated to prototypes.

Construction: each point is an ant that walks from an artificial support node
down the tree. At a node it either connects as a new child, triggers the
one-time support reset, or moves to the most similar child. Similarity is
1 - distance/D_max with D_max the first window's diameter, so it lives in
[0, 1] for first-window pairs.

After construction the raw points are replaced by a per-node prototype
(the mean of housed points), count and weight. Later windows stream through
map_point: a point is absorbed by the nearest node when it falls inside that
node's acceptance radius, otherwise it becomes a fresh node under the support.
First-level subtrees double as macro clusters.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from .core import (
    ClusteringSolution,
    ObjectiveVector,
    SolutionOrigin,
    WindowBatch,
    merge_prototype,
    sq_dist,
)

SUPPORT_ID = 0

# Per-attempt relaxation of an ant's tolerance: failing to connect makes the
# ant easier to place on the next try.
SIM_RELAX = 0.9
DISSIM_RELAX = 0.01

# Acceptance-radius floor, in units of the first window's mean
# nearest-neighbor distance. At 1.0 the synopsis densifies to point spacing
# and novelty nodes swamp the first level; at 5+ the tree over-consolidates
# and node count keeps sliding downward. 4.0 sits at the crossover where
# long-stream node count and first-level width hold steady.
RADIUS_SCALE = 4.0


@dataclass
class Thresholds:
    """Per-ant connection tolerances; relaxed after every failed attempt."""

    sim: float = 1.0
    dissim: float = 0.0

    def relax(self) -> None:
        self.sim *= SIM_RELAX
        self.dissim = min(1.0, self.dissim + DISSIM_RELAX)


@dataclass
class AntNode:
    """One tree node. During build it houses raw coordinate rows; after
    aggregation only its prototype, decayed count and fading weight plus
    acceptance-radius statistics remain."""

    node_id: int
    parent: Optional[int]
    children: list[int] = field(default_factory=list)
    points: Optional[list[np.ndarray]] = None
    prototype: Optional[np.ndarray] = None
    count: float = 0.0
    weight: float = 0.0
    # Acceptance radius state: running mean of absorbed-point distances,
    # seeded with the first-window mean nearest-neighbor distance.
    radius_sum: float = 0.0
    radius_n: int = 0
    absorbed_this_window: float = 0.0

    def anchor(self) -> np.ndarray:
        """Vector this node answers similarity queries with."""
        if self.prototype is not None:
            return self.prototype
        assert self.points, "node has neither prototype nor points"
        return self.points[0]


# connect_ant outcomes
@dataclass
class Connected:
    node_id: int


@dataclass
class Moved:
    node_id: int


@dataclass
class ResetToSupport:
    """One-time support reset: the displaced subtree's points, to re-insert
    in FIFO order; the incoming ant itself was connected at ``node_id``."""

    displaced: list[np.ndarray]
    node_id: int


ConnectAction = Union[Connected, Moved, ResetToSupport]


@dataclass
class MapOutcome:
    """map_point result: which node took the point and whether it is new."""

    node_id: int
    created: bool
    distance: float


class TreeSynopsis:
    """Support-rooted tree of cluster summaries with bounded node fan-out."""

    def __init__(self, dim: int, l_max: int = 10):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        self.dim = dim
        self.l_max = l_max
        self.nodes: dict[int, AntNode] = {
            SUPPORT_ID: AntNode(SUPPORT_ID, None)
        }
        self._next_id = 1
        self.sim_scale = 0.0  # first-window diameter
        self.base_radius = 0.0  # first-window mean nearest-neighbor distance
        self.support_reset_done = False
        self.aggregated = False
        self._cache_ids: Optional[list[int]] = None
        self._cache_protos: Optional[np.ndarray] = None

    # -- structure ---------------------------------------------------------

    @property
    def support(self) -> AntNode:
        return self.nodes[SUPPORT_ID]

    def node_count(self) -> int:
        """Number of non-support nodes."""
        return len(self.nodes) - 1

    def _new_node(self, parent: int) -> AntNode:
        node = AntNode(self._next_id, parent)
        self._next_id += 1
        self.nodes[node.node_id] = node
        self.nodes[parent].children.append(node.node_id)
        self._cache_ids = None
        return node

    def _detach(self, node_id: int) -> list[np.ndarray]:
        """Remove a subtree; return its housed points in depth-first order."""
        out: list[np.ndarray] = []
        parent = self.nodes[node_id].parent
        if parent is not None:
            self.nodes[parent].children.remove(node_id)
        stack = [node_id]
        while stack:
            nid = stack.pop()
            node = self.nodes.pop(nid)
            if node.points:
                out.extend(node.points)
            # push reversed so children come back in insertion order
            stack.extend(reversed(node.children))
        self._cache_ids = None
        return out

    def similarity(self, a: np.ndarray, b: np.ndarray) -> float:
        """1 - distance/D_max; 1.0 for coincident points even when D_max=0.

        Points farther apart than the first window's diameter give values
        below zero; ordering is what matters there, so no clamping.
        """
        return float(self._similarities(sq_dist(np.asarray(a, float), np.asarray(b, float))))

    def _similarities(self, d2: np.ndarray) -> np.ndarray:
        """``similarity`` of every squared distance in ``d2``."""
        dist = np.sqrt(d2)
        if self.sim_scale <= 0.0:
            return (dist == 0.0).astype(float)
        return 1.0 - dist / self.sim_scale

    def neighbors(self, node_id: int) -> set[int]:
        """Adjacent non-support nodes: the parent (unless support) plus children."""
        if node_id == SUPPORT_ID:
            raise ValueError("support has no neighborhood")
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id}")
        node = self.nodes[node_id]
        out = set(node.children)
        if node.parent is not None and node.parent != SUPPORT_ID:
            out.add(node.parent)
        return out

    def first_level(self) -> list[int]:
        return list(self.support.children)

    def subtree_ids(self, root_id: int) -> Iterator[int]:
        stack = [root_id]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self.nodes[nid].children))

    def validate(self, strict_support: bool = False) -> None:
        """Structural audit: single parent, consistent links, fan-out caps."""
        seen_children: set[int] = set()
        for nid, node in self.nodes.items():
            for cid in node.children:
                if cid in seen_children:
                    raise AssertionError(f"node {cid} has two parents")
                seen_children.add(cid)
                if self.nodes[cid].parent != nid:
                    raise AssertionError(f"parent link mismatch at {cid}")
            if nid != SUPPORT_ID or strict_support:
                if len(node.children) > self.l_max:
                    raise AssertionError(f"node {nid} exceeds l_max fan-out")
        orphan = set(self.nodes) - seen_children - {SUPPORT_ID}
        if orphan:
            raise AssertionError(f"orphan nodes: {sorted(orphan)}")

    # -- construction ------------------------------------------------------

    def _anchors(self, pos: int) -> np.ndarray:
        return np.array([self.nodes[c].anchor() for c in self.nodes[pos].children])

    def _most_similar_child(self, pos: int, coords: np.ndarray) -> tuple[int, float]:
        """The child whose anchor is most similar to ``coords`` (ties -> lowest id)."""
        sims = self._similarities(sq_dist(self._anchors(pos), coords))
        top = sims.max()
        kids = self.nodes[pos].children
        return min(c for c, s in zip(kids, sims) if s == top), float(top)

    def _min_pairwise_child_sim(self, pos: int) -> float:
        """Least similarity between two children; inf with fewer than two.

        Similarity falls as distance grows, so this is the similarity of the
        widest pair (the zero diagonal never wins the max).
        """
        anchors = self._anchors(pos)
        if len(anchors) < 2:
            return np.inf
        widest = sq_dist(anchors[:, None, :], anchors[None, :, :]).max()
        return float(self._similarities(widest))

    def connect_ant(
        self, ant: np.ndarray, pos: int, thresholds: Thresholds
    ) -> ConnectAction:
        """One placement attempt for ``ant`` (a coordinate row) at node ``pos``.

        Branches: (a) fewer than two children -> connect; (b) exactly two
        children under the support, once per build -> displace the second
        subtree and connect; (c) connect if the ant is dissimilar enough to
        its closest child, else move toward that child.
        """
        if self.aggregated:
            raise RuntimeError("tree already aggregated; use map_point")
        node = self.nodes[pos]
        kids = node.children

        if len(kids) < 2 and len(kids) < self.l_max:
            child = self._new_node(pos)
            child.points = [ant]
            return Connected(child.node_id)

        if (
            pos == SUPPORT_ID
            and len(kids) == 2
            and not self.support_reset_done
        ):
            displaced = self._detach(kids[1])
            self.support_reset_done = True
            child = self._new_node(pos)
            child.points = [ant]
            return ResetToSupport(displaced, child.node_id)

        a_plus, sim_best = self._most_similar_child(pos, ant)
        t_dissim = self._min_pairwise_child_sim(pos)
        # Fresh thresholds (dissim=0) leave the test untouched; relaxation
        # gradually raises the bar so a wandering ant always lands somewhere.
        if sim_best < max(t_dissim, thresholds.dissim) and len(kids) < self.l_max:
            child = self._new_node(pos)
            child.points = [ant]
            return Connected(child.node_id)

        thresholds.relax()
        return Moved(a_plus)

    # -- aggregation and streaming -----------------------------------------

    def aggregate(self) -> None:
        """Collapse housed points to per-node prototypes and drop the raw data."""
        if self.aggregated:
            return
        for nid, node in self.nodes.items():
            if nid == SUPPORT_ID:
                continue
            assert node.points, f"node {nid} has no points to aggregate"
            pts = np.vstack(node.points)
            node.prototype = pts.mean(axis=0)
            node.count = node.weight = float(len(pts))
            node.points = None
            node.radius_sum = self.base_radius
            node.radius_n = 1
        self.aggregated = True
        self._cache_ids = None

    def _proto_matrix(self) -> tuple[list[int], np.ndarray]:
        if self._cache_ids is None:
            ids = [nid for nid in self.nodes if nid != SUPPORT_ID]
            self._cache_ids = ids
            self._cache_protos = np.vstack(
                [self.nodes[nid].prototype for nid in ids]
            )
        return self._cache_ids, self._cache_protos

    def acceptance_radius(self, node: AntNode) -> float:
        """Running mean of claimed-point distances, floored at a multiple of
        the base radius.

        The floor keeps long streams from shrinking the radius toward zero
        (a bare mean of accepted distances is non-increasing); claims from
        rejected points let sparse regions widen beyond it.
        """
        floor = RADIUS_SCALE * self.base_radius
        if node.radius_n == 0:
            return floor
        return max(floor, node.radius_sum / node.radius_n)

    def map_point(self, point: np.ndarray) -> MapOutcome:
        """Absorb a later-window point (a coordinate row) or open a new node
        under the support.

        Absorption is a running mean (the merge at gamma=1); counts age once
        per window in ``decay_counts`` instead. Every point updates the
        claimed node's radius statistics whether or not it is absorbed, so
        radii track the local spread: sparse regions widen their catchment
        instead of shedding endless novelty nodes.
        """
        if not self.aggregated:
            raise RuntimeError("aggregate the tree before streaming points")
        coords = np.asarray(point, dtype=float)
        if coords.shape != (self.dim,):
            raise ValueError("point dimension mismatch")
        ids, protos = self._proto_matrix()
        dists = np.sqrt(sq_dist(protos, coords))
        best = int(np.argmin(dists))
        node = self.nodes[ids[best]]
        dist = float(dists[best])
        accepted = dist <= self.acceptance_radius(node)
        node.radius_sum += dist
        node.radius_n += 1
        if accepted:
            node.prototype, node.count = merge_prototype(
                node.prototype, node.count, coords, 1.0, 1.0
            )
            node.absorbed_this_window += 1.0
            self._cache_protos[best] = node.prototype
            return MapOutcome(node.node_id, False, dist)
        fresh = self._new_node(SUPPORT_ID)
        fresh.prototype, fresh.count, fresh.weight = coords.copy(), 1.0, 0.0
        fresh.radius_sum = self.base_radius
        fresh.radius_n = 1
        fresh.absorbed_this_window = 1.0
        return MapOutcome(fresh.node_id, True, dist)

    def decay_counts(self, gamma: float) -> None:
        """Age every node count by one window.

        Called before a window's points are mapped. Combined with the
        running-mean absorption in map_point this reproduces the batch
        merge rule at window granularity: count -> gamma*count + absorbed.
        """
        if gamma == 1.0:
            return
        for nid, node in self.nodes.items():
            if nid != SUPPORT_ID:
                node.count *= gamma

    def fade_and_prune(self, gamma: float, threshold: float) -> int:
        """Window tick: fade node weights by absorbed counts, drop dead leaves.

        Only leaves are removed (looped until stable) so links stay valid;
        a starving internal node dies once its subtree has drained. The last
        non-support node always survives. Returns number of removed nodes.
        """
        for nid, node in self.nodes.items():
            if nid == SUPPORT_ID:
                continue
            node.weight = gamma * node.weight + node.absorbed_this_window
            node.absorbed_this_window = 0.0
        removed = 0
        while True:
            doomed = [
                nid
                for nid, node in self.nodes.items()
                if nid != SUPPORT_ID
                and not node.children
                and node.weight < threshold
            ]
            if len(self.nodes) - 1 - len(doomed) < 1:
                doomed.sort(key=lambda nid: (self.nodes[nid].weight, -nid))
                doomed = doomed[:-1]  # spare the heaviest leaf
            if not doomed:
                break
            for nid in doomed:
                parent = self.nodes[nid].parent
                self.nodes[parent].children.remove(nid)
                del self.nodes[nid]
                removed += 1
            self._cache_ids = None
        return removed

    def macro_clusters(self, solution_id: int = -1) -> ClusteringSolution:
        """One cluster per first-level subtree (count-weighted prototype mean)."""
        if not self.aggregated:
            raise RuntimeError("aggregate the tree before reading macro clusters")
        roots = self.first_level()
        if not roots:
            raise ValueError("tree has no first-level subtrees")
        protos, counts, weights = [], [], []
        for root in roots:
            nodes = [self.nodes[nid] for nid in self.subtree_ids(root)]
            rows = np.vstack([n.prototype for n in nodes])
            sizes = np.asarray([n.count for n in nodes])
            total = sizes.sum()
            if total > 0:
                protos.append((rows * sizes[:, None]).sum(axis=0) / total)
            else:
                protos.append(rows.mean(axis=0))
            counts.append(float(total))
            weights.append(float(sum(n.weight for n in nodes)))
        return ClusteringSolution(
            ObjectiveVector(),
            np.vstack(protos),
            SolutionOrigin.ANTTREE,
            solution_id,
            counts=counts,
            weights=weights,
        )


# ---------------------------------------------------------------------------
# window-level construction helpers


def _pairwise_max_distance(data: np.ndarray, block: int = 512) -> float:
    """Exact diameter, row-blocked to keep memory flat on big first windows."""
    best = 0.0
    n = len(data)
    for i in range(0, n, block):
        chunk = data[i : i + block]
        d2 = sq_dist(chunk[:, None, :], data[None, :, :])
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def mean_nearest_neighbor_distance(data: np.ndarray, block: int = 512) -> float:
    """Mean over points of the distance to their nearest other point."""
    n = len(data)
    if n < 2:
        return 0.0
    out = np.empty(n)
    for i in range(0, n, block):
        chunk = data[i : i + block]
        d2 = sq_dist(chunk[:, None, :], data[None, :, :])
        rows = np.arange(len(chunk))
        d2[rows, i + rows] = np.inf
        out[i : i + len(chunk)] = np.sqrt(d2.min(axis=1))
    return float(out.mean())


def build_initial_tree(window: WindowBatch, l_max: int = 10) -> TreeSynopsis:
    """Insert every first-window point as an ant; returns the raw (unaggregated) tree."""
    tree = TreeSynopsis(window.dim, l_max)
    tree.sim_scale = _pairwise_max_distance(window.data)
    tree.base_radius = mean_nearest_neighbor_distance(window.data)
    queue = collections.deque(window.data)
    guard = 0
    guard_limit = 200 * (len(window) + 10) * (l_max + 10)
    while queue:
        ant = queue.popleft()
        thresholds = Thresholds()
        pos = SUPPORT_ID
        while True:
            guard += 1
            if guard > guard_limit:  # pragma: no cover - internal fault trap
                raise RuntimeError("tree construction failed to make progress")
            action = tree.connect_ant(ant, pos, thresholds)
            if isinstance(action, Connected):
                break
            if isinstance(action, ResetToSupport):
                queue.extend(action.displaced)
                break
            pos = action.node_id
    return tree
