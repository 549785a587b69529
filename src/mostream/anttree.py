"""Tree synopsis built by ant-style insertion, kept as one array row per node.

Construction: each first-window point is an ant that walks from an
artificial support node down the tree. At every node ``step`` decides
whether the ant connects there as a new child or descends into its most
similar child. Similarity is 1 - distance/D_max with D_max the first
window's diameter, so it lives in [0, 1] for first-window pairs. A node
below the support holds at most ``L_MAX`` children; the support has no cap.

The ants go in row order, except that row 1 goes last when n >= 3. That is
the order of the ant-tree rule's one-time support reset, which fires at the
third ant, while the support's second child (row 1) is still a leaf, and
sends only that point to the back of the queue.

Every build node holds exactly one point, so its prototype is that point,
its mass 1, and the tree is ready to stream as soon as it is built. Later
windows stream through map_window, point by point in effect: a point is
absorbed by the nearest node when it lies within the acceptance radius,
``RADIUS_SCALE`` times the first window's mean nearest-neighbor distance,
otherwise it becomes a fresh node of mass 1 under the support (map_point,
which opens every new node). map_window takes each run of rows from one
nearest-node search and sends through map_point only the rows that search
cannot place: a row that opens a node, or one an earlier row of its run
reaches. A node's one fading mass, ``weights``, ages once per window before
mapping, so after a window it reads gamma*previous + absorbed points; it
weights the running means and decides pruning. First-level subtrees double
as macro clusters.

Node ``ids[i]`` lives in row ``i`` of every array in ``COLUMNS``. Rows are in
preorder: the build lays its nodes out that way, children in the order they
were added, and numbers them 1..n in row order; map_point appends new
first-level nodes at the end, and pruning only deletes rows. So ids
increase down the rows, a parent comes before its children, and every
first-level subtree is one run of rows starting at a row whose parent is
the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    ClusteringSolution,
    ObjectiveVector,
    WindowBatch,
    nearest_sq,
    scan_rows,
    sq_dist,
)

SUPPORT_ID = 0

# Most children a node below the support may hold.
L_MAX = 10

# ``step`` result for "connect here"; any other result is a child index.
CONNECT = -1

# Per-attempt relaxation of an ant's dissimilarity tolerance: failing to
# connect makes the ant easier to place on the next try.
DISSIM_RELAX = 0.01

# The acceptance radius, one for every node, in units of the first window's
# mean nearest-neighbor distance. At 1.0 the synopsis densifies to point
# spacing and novelty nodes swamp the first level; at 5+ the tree
# over-consolidates and node count keeps sliding downward. 4.0 sits at the
# crossover where long-stream node count and first-level width hold steady.
RADIUS_SCALE = 4.0

# Fewest window rows per run of ``map_window``; a tree of more than 32 x RUN
# nodes takes one row per 32 nodes. A run pays one search and a fixed cost
# in numpy calls whatever its length, and each failing row a map_point call
# and a patch of the run's clash matrix, which a longer run holds more of.
# On captured wide-overlap windows (~1,030 nodes at d = 2) one row per 16,
# 24 or 32 nodes mapped in 0.69-0.75 of the time of 16-row runs that end at
# their first failing row, one per 8 nodes in 0.85 and 16-row runs that
# outlive their failing rows in 0.93.
RUN = 16

# Per-node arrays, one row per non-support node.
COLUMNS = ("ids", "parents", "prototypes", "weights")


@dataclass
class MapOutcome:
    """map_point result: which node took the point, whether it is new, its
    distance to the nearest node, and ``row``, the array row of the node
    that took it (the absorbing node's, or the new node's last row)."""

    node_id: int
    created: bool
    distance: float
    row: int


class TreeSynopsis:
    """Support-rooted tree of cluster summaries with bounded node fan-out.

    ``parents`` holds each node's parent id (``SUPPORT_ID`` for the first
    level) and ``weights`` each node's fading mass. Every node accepts
    points within ``RADIUS_SCALE * base_radius``.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.ids = np.empty(0, dtype=np.int64)
        self.parents = np.empty(0, dtype=np.int64)
        self.prototypes = np.empty((0, dim))
        self.weights = np.empty(0)
        self._next_id = 1
        self.base_radius = 0.0  # first-window mean nearest-neighbor distance

    # -- structure ---------------------------------------------------------

    def node_count(self) -> int:
        """Number of non-support nodes."""
        return len(self.ids)

    def _add(self, parent: int, prototype: np.ndarray) -> int:
        """Append a one-point node of mass 1 under ``parent``; returns its id."""
        nid = self._next_id
        self._next_id += 1
        row = (nid, parent, prototype, 1.0)
        for name, value in zip(COLUMNS, row):
            setattr(self, name, np.concatenate((getattr(self, name), [value])))
        return nid

    def _drop(self, rows) -> None:
        keep = np.ones(len(self.ids), dtype=bool)
        keep[rows] = False
        for name in COLUMNS:
            setattr(self, name, getattr(self, name)[keep])

    def validate(self) -> None:
        """Structural audit: one row per node in every array, ids increasing,
        every parent an earlier node (so no cycles or orphans) in the same
        first-level run of rows, at most ``L_MAX`` children per node below
        the support."""
        n = len(self.ids)
        for name in COLUMNS:
            if len(getattr(self, name)) != n:
                raise AssertionError(f"{name} has {len(getattr(self, name))} rows, not {n}")
        if self.prototypes.shape != (n, self.dim):
            raise AssertionError(f"prototypes shape {self.prototypes.shape}")
        if n and (self.ids[0] <= SUPPORT_ID or np.any(np.diff(self.ids) <= 0)):
            raise AssertionError("node ids are not increasing positive ids")
        linked = np.isin(self.parents, self.ids) | (self.parents == SUPPORT_ID)
        linked &= self.parents < self.ids
        if not np.all(linked):
            raise AssertionError(f"orphan nodes: {self.ids[~linked].tolist()}")
        run = np.cumsum(self.parents == SUPPORT_ID)
        inner = self.parents != SUPPORT_ID
        strays = run[inner] != run[np.searchsorted(self.ids, self.parents[inner])]
        if np.any(strays):
            raise AssertionError(
                f"nodes {self.ids[inner][strays].tolist()} lie outside their subtree's run"
            )
        parents, fan = np.unique(self.parents[self.parents != SUPPORT_ID], return_counts=True)
        if np.any(fan > L_MAX):
            raise AssertionError(f"nodes {parents[fan > L_MAX].tolist()} exceed L_MAX fan-out")

    # -- streaming ---------------------------------------------------------

    def map_point(self, point: np.ndarray) -> MapOutcome:
        """Absorb a later-window point (a coordinate row) or open a new node
        under the support.

        Absorption is a running mean (the merge at gamma=1) weighted by the
        node's mass, which gains 1; masses age once per window in ``fade``
        instead. The point is absorbed when it lies within ``RADIUS_SCALE``
        base radii of the nearest node, the first minimum of the squared
        distances, as in ``core.assign_batch``.
        """
        coords = np.asarray(point, dtype=float)
        if coords.shape != (self.dim,):
            raise ValueError("point dimension mismatch")
        d2 = sq_dist(self.prototypes, coords)
        row = int(np.argmin(d2))
        dist = float(np.sqrt(d2[row]))
        if dist <= RADIUS_SCALE * self.base_radius:
            mass = self.weights[row]
            self.prototypes[row] = (self.prototypes[row] * mass + coords) / (mass + 1.0)
            self.weights[row] = mass + 1.0
            return MapOutcome(int(self.ids[row]), False, dist, row)
        return MapOutcome(self._add(SUPPORT_ID, coords), True, dist, len(self.ids) - 1)

    def map_window(self, block: np.ndarray) -> np.ndarray:
        """Map the rows of ``block`` in order, exactly as a map_point loop
        over them would, and return the id of the node each row went to.

        The rows go in runs of ``RUN``, or of one row per 32 nodes on a
        larger tree, the length fixed for the window (``_map_run``).
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        nodes = np.empty(len(block), dtype=np.int64)
        length = max(RUN, self.node_count() // 32)
        earlier = np.tri(length, k=-1, dtype=bool)  # [j, i]: row i before row j
        start = 0
        while start < len(block):
            stop = start + length
            start += self._map_run(block[start:stop], nodes[start:stop], earlier)
        return nodes

    def _map_run(self, run: np.ndarray, nodes: np.ndarray, earlier: np.ndarray) -> int:
        """Map the rows of ``run`` from one ``core.nearest_sq`` search, write
        their node ids into ``nodes`` and return how many rows it mapped.

        The search finds each row's nearest node in the tree as the run
        found it, and so what each row would do if it were absorbed there
        (within ``RADIUS_SCALE`` base radii, as in map_point): move that
        node. Column i of the run's clash matrix holds that change. A row
        fails when it is not absorbed, when an earlier row changed its node,
        or when an earlier row left a node at least as near to it as its
        node (an exact tie fails too, whichever node's row is lower, so
        map_point settles it). The rows up to the first failure are applied
        at once; the failing row goes through map_point, so every new node
        is opened there. Its column then holds what it actually did: the
        node it moved, or the new node, which no row of the run claims. The
        rest of the run is checked again and goes on from the row after.
        Below ``core.SCREEN_MIN_COORDS`` prototype coordinates the search is
        the exact matrix, and a fresh search is cheaper than the patch and
        the map_point calls of the rows its stale columns fail, so the run
        ends at the failing row instead.
        """
        m = len(run)
        screened = self.prototypes.size >= core.SCREEN_MIN_COORDS
        rows, d2 = nearest_sq(self.prototypes, run)
        dist = np.sqrt(d2)
        mass = self.weights[rows]
        moved = (self.prototypes[rows] * mass[:, None] + run) / (mass[:, None] + 1.0)
        absorbed = dist <= RADIUS_SCALE * self.base_radius
        # clash[j, i]: row i, earlier in the run, reaches row j's node
        clash = _clashes(run[:, None, :], d2[:, None], rows[:, None], moved, rows)
        clash &= earlier[:m, :m]
        ok = absorbed & ~clash.any(axis=1)
        done = 0
        while True:
            rest = ok[done:]
            stop = m if rest.all() else done + int(rest.argmin())
            hit = rows[done:stop]
            self.prototypes[hit] = moved[done:stop]
            self.weights[hit] = mass[done:stop] + 1.0
            nodes[done:stop] = self.ids[hit]
            if stop == m:
                return m
            out = self.map_point(run[stop])
            nodes[stop] = out.node_id
            done = stop + 1
            if done == m or not screened:
                return done
            later = slice(done, m)
            clash[later, stop] = _clashes(run[later], d2[later], rows[later],
                                          self.prototypes[out.row], out.row)
            ok[later] = absorbed[later] & ~clash[later].any(axis=1)

    def fade(self, gamma: float) -> None:
        """Age every node mass by one window.

        Called before a window's points are mapped. Combined with the
        running-mean absorption of mapping this reproduces the batch
        merge rule at window granularity: mass -> gamma*mass + absorbed.
        """
        self.weights *= gamma

    def fade_and_prune(self, threshold: float) -> int:
        """Window tick, after mapping: drop leaves whose mass fell below
        ``threshold``.

        Only leaves are removed (looped until stable) so links stay valid;
        a starving internal node dies once its subtree has drained. The last
        node always survives: the heaviest, ties to the lowest id. Returns
        the number of removed nodes.
        """
        removed = 0
        while True:
            leaf = ~np.isin(self.ids, self.parents)
            doomed = np.flatnonzero(leaf & (self.weights < threshold))
            if len(doomed) == len(self.ids) > 0:
                doomed = np.delete(doomed, np.argmax(self.weights))
            if not len(doomed):
                return removed
            self._drop(doomed)
            removed += len(doomed)

    def macro_clusters(self) -> ClusteringSolution:
        """One cluster per first-level subtree (mass-weighted prototype mean,
        and the summed mass), each summed over its run of rows, which is the
        subtree in preorder."""
        bounds = [*np.flatnonzero(self.parents == SUPPORT_ID).tolist(), len(self.ids)]
        if len(bounds) < 2:
            raise ValueError("tree has no first-level subtrees")
        protos, weights = [], []
        for start, stop in zip(bounds, bounds[1:]):
            block, mass = self.prototypes[start:stop], self.weights[start:stop]
            total = mass.sum()
            if total > 0:
                protos.append((block * mass[:, None]).sum(axis=0) / total)
            else:
                protos.append(block.mean(axis=0))
            weights.append(float(total))
        return ClusteringSolution(ObjectiveVector(), np.vstack(protos), weights=weights)


def _clashes(points, near, rows, pos, claimed) -> np.ndarray:
    """Whether a change may alter what each of ``points`` maps to, given its
    nearest node's array row ``rows`` and squared distance ``near``: the
    change left a node at ``pos`` no farther than ``near`` (ties included,
    whatever the node's row), or it changed node row ``claimed``.
    Broadcasts like ``sq_dist``."""
    return (sq_dist(points, pos) <= near) | (claimed == rows)


# ---------------------------------------------------------------------------
# first-window construction


def similarity(a: np.ndarray, b: np.ndarray, diameter: float) -> np.ndarray:
    """1 - distance/``diameter`` over the last axis, broadcasting like
    ``sq_dist``; 1.0 for coincident points even when the diameter is 0.

    Points farther apart than the first window's diameter give values below
    zero; ordering is what matters there, so no clamping.
    """
    dist = np.sqrt(sq_dist(np.asarray(a, float), np.asarray(b, float)))
    if diameter <= 0.0:
        return (dist == 0.0).astype(float)
    return 1.0 - dist / diameter


def step(sims: np.ndarray, dissim: float, widest: float) -> int:
    """One move of an ant at a node, given its similarities ``sims`` to the
    node's children in id order: ``CONNECT``, or the index of the child to
    descend into (the most similar one, ties -> lowest id).

    A node with fewer than two children takes the ant. A node with room
    under ``L_MAX`` also takes it when the best similarity is below
    the least pairwise child similarity ``widest`` or the tolerance
    ``dissim``; the walk relaxes ``dissim`` after every move, so a wandering
    ant lands.
    """
    k = len(sims)
    if k < 2:
        return CONNECT
    best = int(sims.argmax())
    if k < L_MAX and sims[best] < max(widest, dissim):
        return CONNECT
    return best


def window_scales(data: np.ndarray) -> tuple[float, float]:
    """(diameter, mean distance from each point to its nearest distinct
    point) of ``data``, from one pass over the pairwise distances in row
    blocks of ``scan_rows``, so no temporary holds more than
    ``core.SCAN_ENTRIES`` differences, however many rows and coordinates
    the first window has.

    A point's own row and its duplicates (squared distance 0) are no
    neighbours: a first window with repeated rows keeps the spacing of its
    distinct points instead of reading 0 for every duplicate. A window whose
    points all coincide has no distinct pair, and its spacing is 0, as for a
    single point.
    """
    widest = 0.0
    nearest = np.empty(len(data))
    rows = scan_rows(*data.shape)
    for i in range(0, len(data), rows):
        d2 = sq_dist(data[i : i + rows, None, :], data[None, :, :])
        widest = max(widest, float(d2.max()))
        d2[d2 == 0.0] = np.inf
        nearest[i : i + len(d2)] = np.sqrt(d2.min(axis=1))
    nearest = nearest[np.isfinite(nearest)]
    spacing = float(nearest.mean()) if len(nearest) else 0.0
    return float(np.sqrt(widest)), spacing


def build_initial_tree(window: WindowBatch) -> TreeSynopsis:
    """Place every first-window point as an ant; the tree is ready to stream.

    The walk keeps child rows in plain lists, and each node's least pairwise
    child similarity, which an appended child can only lower, so ``step``
    never rebuilds a node's child-pair matrix. Each ant's similarities to
    every ant placed before it are taken once, as one row, and every move
    and every lowered least similarity reads its entries: each entry is the
    one a call on those children alone gives, bit for bit. The columns are
    made once, in preorder, every node holding its one point (mass 1).
    """
    n = len(window)
    tree = TreeSynopsis(window.dim)
    diameter, tree.base_radius = window_scales(window.data)
    order = np.r_[0, 2:n, 1] if n >= 3 else np.arange(n)
    ants = window.data[order]
    parent = np.full(n, -1)  # parent row of each node, -1 for the support
    kids: list[list[int]] = [[] for _ in range(n + 1)]  # kids[-1]: the support's
    # least child-pair similarity per node; 1.0, a child's own, until a pair
    widest = np.ones(n + 1)
    guard = 0
    guard_limit = 200 * (n + 10) * (L_MAX + 10)
    for row, ant in enumerate(ants):
        sims = similarity(ants[:row], ant, diameter)  # to every placed ant
        pos, dissim = -1, 0.0
        while True:
            guard += 1
            if guard > guard_limit:  # pragma: no cover - internal fault trap
                raise RuntimeError("tree construction failed to make progress")
            child = step(sims[kids[pos]], dissim, widest[pos])
            if child == CONNECT:
                break
            pos = kids[pos][child]
            dissim = min(1.0, dissim + DISSIM_RELAX)
        parent[row] = pos
        if kids[pos]:
            widest[pos] = min(widest[pos], sims[kids[pos]].min())
        kids[pos].append(row)

    preorder, stack = [], kids[-1][::-1]
    while stack:
        row = stack.pop()
        preorder.append(row)
        stack.extend(reversed(kids[row]))
    node_id = np.empty(n + 1, dtype=np.int64)  # node_id[-1]: the support's
    node_id[preorder] = np.arange(1, n + 1)
    node_id[-1] = SUPPORT_ID
    tree.ids = np.arange(1, n + 1)
    tree.parents = node_id[parent[preorder]]
    tree.prototypes = ants[preorder]
    tree.weights = np.ones(n)
    tree._next_id = n + 1
    return tree
