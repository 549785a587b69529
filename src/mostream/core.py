"""Shared domain types, the distance kernel and the streaming update rules.

Everything downstream (tree synopsis, seeders, evolution, engine) trades in
these types. A solution keeps its clusters as rows of arrays, and every
distance in the package goes through ``sq_dist``, or through its summation
``sum_coords`` where the caller keeps the difference (the growing gas).
``assign_batch`` is the one nearest-prototype routine: for a list of
solutions it returns each row's label and distance per solution,
bit-identical to each solution's own (window x solution) ``sq_dist``
matrix. From 8 coordinates one GEMM over the stacked prototypes screens the
labels under a derived rounding margin, the chosen distances still come
from ``sq_dist``, and rows the margin cannot settle take the exact matrix.
``nearest_sq`` is the one-block form the tree synopsis maps its windows
with, in runs of rows. ``stack_labels`` lays several solutions' labels on
one window over their stacked cluster rows, and ``block_gaps`` sets every
prototype against its own solution's, for the callers that count, fold or
score every solution at once. The update rules implement the decayed
running-mean merge of per-cluster batches, the exponential weight fade with
assignment refresh, and staleness pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Largest accepted |value| of a stream coordinate. Squared distances and the
# hypervolume's products of them stay finite well above it (a 1000-point
# window keeps every engine output finite up to 1e120); near 1e150 the
# hypervolume reads about 1e303, and at 1e160 kmeans++ draws from NaN weights.
MAX_ABS_VALUE = 1e100


@dataclass
class WindowBatch:
    """One window of the stream, stored as a dense (n, d) block.

    Every value must be finite, with |value| <= ``MAX_ABS_VALUE``: a NaN
    prototype would win every nearest-node search downstream, and a larger
    value overflows squared distances. ``labels`` is None for unlabeled
    streams, or one class id per row: a 1-D array whose numeric ids are
    finite.
    ``start_index`` is the arrival index of the first row; indices are
    contiguous within a window.
    """

    data: np.ndarray
    window_id: int
    labels: Optional[np.ndarray] = None
    start_index: int = 0

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] == 0:
            raise ValueError("window must be a non-empty (n, d) array")
        if self.data.shape[1] == 0:
            raise ValueError("window has no feature columns")
        if not np.isfinite(self.data).all():
            raise ValueError("window holds non-finite values")
        if np.abs(self.data).max() > MAX_ABS_VALUE:
            raise ValueError(f"window holds values beyond +/-{MAX_ABS_VALUE:g}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.ndim != 1 or len(self.labels) != len(self.data):
                raise ValueError("labels must be one entry per window row")
            # NaN labels would all fall into one class and score as agreement
            numeric = np.issubdtype(self.labels.dtype, np.number)
            if numeric and not np.isfinite(self.labels).all():
                raise ValueError("labels hold non-finite values")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + len(self))


@dataclass
class ObjectiveVector:
    """(compactness, separateness); compactness is minimized, separateness maximized."""

    compactness: float = 0.0
    separateness: float = 0.0

    def as_min_pair(self) -> tuple[float, float]:
        """Both-minimized form used by dominance and hypervolume."""
        return (self.compactness, -self.separateness)

    def copy(self) -> "ObjectiveVector":
        return ObjectiveVector(self.compactness, self.separateness)


@dataclass
class ClusteringSolution:
    """A full candidate clustering plus its objectives.

    Cluster i is row i of ``prototypes`` (K, d) with fading mass
    ``weights[i]`` (default 1): the merge's history mass and the pruning
    weight alike.
    ``prev_compactness`` is the compactness the solution carried into its
    latest evaluation, before that window's decay-and-fold. Offspring seed
    their compactness from it so a lineage bred within one idle phase pays
    the decay once per window, not once per generation.
    """

    objectives: ObjectiveVector
    prototypes: np.ndarray
    solution_id: int = -1
    prev_compactness: float = 0.0
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.prototypes = np.asarray(self.prototypes, dtype=float)
        if self.prototypes.ndim != 2 or len(self.prototypes) == 0:
            raise ValueError("prototypes must be a non-empty (K, d) array")
        k = len(self.prototypes)
        weights = np.ones(k) if self.weights is None else self.weights
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (k,):
            raise ValueError("weights need one entry per prototype")

    @property
    def k(self) -> int:
        return len(self.prototypes)

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the clusters ``rows`` selects (indices or a mask), in place."""
        self.prototypes = self.prototypes[rows]
        self.weights = self.weights[rows]

    def copy(self) -> "ClusteringSolution":
        return ClusteringSolution(
            self.objectives.copy(),
            self.prototypes.copy(),
            self.solution_id,
            self.prev_compactness,
            self.weights.copy(),
        )


@dataclass
class StreamConfig:
    """Engine knobs. gamma=1 disables forgetting (used by conservation checks).

    ``idle_generations_cap`` picks the run mode. An int runs exactly that
    many idle generations after each window and reports carry no wall
    times, so a run replays byte for byte; ``interval_ms`` is not read.
    None paces the run by the wall clock: idle generations run until
    ``interval_ms`` has passed, and reports carry ``elapsed_ms``.
    """

    window_size: int = 100
    gamma: float = 0.7
    mu: float = 0.2
    sigma: int = 10
    prune_threshold: float = 0.1
    interval_ms: int = 1000
    idle_generations_cap: Optional[int] = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must be in (0, 1]")
        if self.sigma < 1:
            raise ValueError("sigma must be >= 1")
        if not 0.0 <= self.prune_threshold < np.inf:
            raise ValueError("prune_threshold must be finite and >= 0")
        if self.interval_ms < 0:
            raise ValueError("interval_ms must be >= 0")
        if self.idle_generations_cap is not None and self.idle_generations_cap < 0:
            raise ValueError("idle_generations_cap must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


# ---------------------------------------------------------------------------
# distances and assignment


# the matrix form beats the (n, K, d) cube only once its d-wide sums dominate
SCREEN_MIN_DIM = 8
# Fewest prototype coordinates (K x d) for which ``nearest_sq`` screens one
# block. The screen's fixed cost is about 30 us whatever K is; timed on
# 16-row blocks (x86_64 VM, numpy 2.4.6), the exact matrix is cheaper below
# about 300 coordinates at d=8, 750 at d=5 and 1,200 at d=2.
SCREEN_MIN_COORDS = 512
# unit roundoff and the smallest subnormal: the screen's relative and
# absolute (underflow) error units
_UNIT = 2.0**-53
_ETA = float(np.finfo(float).smallest_subnormal)


def sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance over the last axis; other axes broadcast,
    so ``sq_dist(x[:, None, :], y[None, :, :])`` is the (n, m) matrix.

    Below 8 coordinates the squared columns are added as whole arrays in
    coordinate order, the order numpy's last-axis sum uses there, so the
    result is bit-identical to ``((a - b) ** 2).sum(axis=-1)`` without its
    per-element reduction cost. The difference is taken into a Fortran-order
    buffer there, so each coordinate's column is one contiguous run and the
    subtraction's inner loop spans all rows rather than d elements. Only the
    temporary's memory order changes: every entry is still (a_0 - b_0)^2 +
    (a_1 - b_1)^2 + ... in coordinate order, with the same IEEE operations.
    From 8 coordinates numpy sums pairwise over a contiguous last axis, so
    the kernel keeps the C-order difference and that sum; a Fortran buffer
    would make the sum sequential and move bits. Two 1-D rows give a scalar.
    The sum itself is ``sum_coords``.
    """
    if a.shape[-1] >= 8 or b.shape[-1] >= 8:
        sq = a - b
    else:
        sq = np.subtract(a, b, order="F")
    sq *= sq
    return sum_coords(sq)


def sum_coords(sq: np.ndarray) -> np.ndarray:
    """Sum a squared-difference array over its last axis in ``sq_dist``'s
    order: below 8 coordinates the columns are added as whole arrays in
    coordinate order, from 8 numpy's pairwise ``sum(axis=-1)`` (which needs
    a contiguous last axis to match ``sq_dist``). A 1-D array gives a
    scalar; below 8 coordinates the result can be a view of ``sq``."""
    if sq.shape[-1] >= 8:
        return sq.sum(axis=-1)
    out = sq[..., 0]
    for j in range(1, sq.shape[-1]):
        out = out + sq[..., j]
    return out[()]


def block_gaps(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances between the rows of each (K, d) block, for all
    blocks at once: each block is padded to kmax rows and each of the sum-K
    rows is set against its own padded block, one (sum K, kmax) ``sq_dist``
    block with the padding columns and the row's own column at +inf. Every
    other entry is the one the block's own (K, K) matrix holds. Also returns
    each stacked row's block and its index within that block."""
    ks = np.array([len(block) for block in blocks])
    kmax = int(ks.max())
    padded = np.zeros((len(blocks), kmax, blocks[0].shape[1]))
    for rows, block, k in zip(padded, blocks, ks):
        rows[:k] = block
    owner = np.repeat(np.arange(len(ks)), ks)
    own = np.arange(len(owner)) - np.repeat(np.cumsum(ks) - ks, ks)
    d2 = sq_dist(padded[owner, own][:, None, :], padded[owner])
    cols = np.arange(kmax)
    d2[(cols >= ks[owner][:, None]) | (cols == own[:, None])] = np.inf
    return d2, owner, own


def assign_batch(
    solutions: Sequence[ClusteringSolution], data: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One ``(labels, dists)`` pair per solution: each row's nearest
    prototype (ties -> lowest index) and its distance to it.

    Every pair equals the solution's own (n, K) ``sq_dist`` matrix read
    row by row (its first minimum and the square root of that entry), bit
    for bit. Below ``SCREEN_MIN_DIM`` coordinates that matrix is built per
    solution. From there on one GEMM screens the whole stack (see
    ``_screened``), so only the chosen and the doubtful entries pay the
    d-wide difference sums.
    """
    data = np.asarray(data, dtype=float)
    for sol in solutions:
        if data.shape[1] != sol.dim:
            raise ValueError("dimension mismatch between window and solution")
    if data.shape[1] < SCREEN_MIN_DIM:
        pairs = (_nearest_exact(sol.prototypes, data) for sol in solutions)
        return [(labels, np.sqrt(d2)) for labels, d2 in pairs]
    if not solutions:
        return []
    labels, d2 = _screened([sol.prototypes for sol in solutions], data)
    return list(zip(labels.T.copy(), np.sqrt(d2.T, order="C")))


def stack_labels(
    solutions: Sequence[ClusteringSolution],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solutions' ``assign_batch`` labels on one window, on their stacked
    cluster rows (solution after solution, sum K rows): a (len(solutions),
    n) array of labels offset by each solution's first row, those first
    rows, and the count of window rows each stacked row holds."""
    ks = np.array([sol.k for sol in solutions])
    starts = np.cumsum(ks) - ks
    labels = np.stack([labels for labels, _ in pairs]) + starts[:, None]
    return labels, starts, np.bincount(labels.ravel(), minlength=int(ks.sum()))


def nearest_sq(protos: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of each row of the (n, K) ``sq_dist`` matrix of ``data``
    against one prototype block, and that squared distance: from the matrix
    itself below ``SCREEN_MIN_COORDS`` prototype coordinates, else from the
    GEMM screen."""
    if protos.size < SCREEN_MIN_COORDS:
        return _nearest_exact(protos, data)
    labels, d2 = _screened([protos], data)
    return labels[:, 0], d2[:, 0]


def _nearest_exact(
    protos: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of each row of the (n, K) ``sq_dist`` matrix, and that
    squared distance."""
    d2 = sq_dist(data[:, None, :], protos[None, :, :])
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(len(labels)), labels]


def _screened(
    stack: list[np.ndarray], data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of each row of every (n, K_s) ``sq_dist`` matrix of
    ``data`` against a prototype block of ``stack``, and that squared
    distance, as two (n, len(stack)) arrays, from one GEMM over the stacked
    blocks. Bit for bit each block's own matrix at any d; ``assign_batch``
    uses it from ``SCREEN_MIN_DIM`` coordinates.

    One GEMM gives h_k = |p_k|^2 - 2 x.p_k for every row x and every stacked
    prototype; each block's candidate label m is the argmin over its own
    columns (several blocks are padded to a common K with columns at +inf).
    The candidate's squared distance c_m = sq_dist(x, p_m) is the very entry
    the block's (n, K) matrix holds, since both sum the same last axis. A
    row keeps m only if every other column of its block clears the margin,
    h_k > c_m - |x|^2 + M; otherwise, or if M is not finite, that row's
    labels come from the exact matrix.

    The bound, with u = 2^-53, g = (d+2)u / (1-(d+2)u), s = |x|^2 +
    max_k |p_k|^2 over the block, and E = 2 g s + (d+2) eta, eta the
    smallest subnormal (each underflowing operation adds at most eta / 2):
    every computed h_k, every matrix entry c_k and |x|^2 lie within E of
    their exact values, whatever the BLAS blocking or FMA use, because
    |x.p| <= |x||p| <= s/2 and (|x| + |p|)^2 <= 2s. For k != m, h_k > c_m -
    |x|^2 + M then gives the exact D_k > D_m + M - 3E and so c_k > c_m + M -
    5E. M = 10E (2x slack for rounding M and the right-hand side) makes m
    the matrix's unique minimum. M is computed as (4s) * 5g, so it turns
    infinite whenever an intermediate (all below 4s) could overflow.
    """
    n, d = data.shape
    ks = [len(p) for p in stack]
    count, kmax = len(ks), max(ks)
    if count == 1:
        protos = stack[0][None]
    else:
        protos = np.zeros((count, kmax, d))
        for s, p in enumerate(stack):
            protos[s, : len(p)] = p
    flat = protos.reshape(count * kmax, d)
    g = (d + 2) * _UNIT / (1.0 - (d + 2) * _UNIT)
    with np.errstate(over="ignore", invalid="ignore"):
        pp = np.einsum("ij,ij->i", flat, flat).reshape(count, kmax)
        top = pp.max(axis=1)  # zero padding cannot raise it
        if count > 1:
            pp[np.arange(kmax) >= np.array(ks)[:, None]] = np.inf
        h = data @ (flat * -2.0).T
        h += pp.ravel()
        h = h.reshape(n, count, kmax)
        labels = h.argmin(axis=2)
        c2 = sq_dist(data[:, None, :], flat[labels + np.arange(0, count * kmax, kmax)])
        xx = np.einsum("ij,ij->i", data, data)
        margin = xx[:, None] + top
        margin *= 4.0
        margin *= 5.0 * g
        margin += 10.0 * (d + 2) * _ETA
        cut = c2 - xx[:, None]
        cut += margin
        close = h <= cut[:, :, None]
        # each finite-margin row and block holds at least its candidate
        if np.count_nonzero(close) != n * count or not np.isfinite(margin).all():
            doubtful = (close.sum(axis=2) != 1) | ~np.isfinite(margin)
            for s in np.flatnonzero(doubtful.any(axis=0)):
                rows = np.flatnonzero(doubtful[:, s])
                labels[rows, s], c2[rows, s] = _nearest_exact(stack[s], data[rows])
    return labels, c2


# ---------------------------------------------------------------------------
# streaming updates


def merge_prototype(
    prototypes: np.ndarray,
    weights: np.ndarray,
    batch_means: np.ndarray,
    batch_counts: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Fold per-cluster batches (means z, counts m) into clusters with decayed
    history.

    p <- (p*n*gamma + z*m) / (n*gamma + m), with p a prototype and n its
    mass before the window (its weight). With gamma=1 this is the exact
    running mean over all absorbed points. Takes (K, d) rows with (K,)
    masses and returns the new prototypes; inputs are unchanged. The new
    mass n*gamma + m is ``fade_weight(n, gamma, m)``, bit for bit.
    """
    if np.any(batch_counts <= 0):
        raise ValueError("batch_count must be > 0")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    batch_means = np.asarray(batch_means, dtype=float)
    if batch_means.shape != prototypes.shape:
        raise ValueError("batch mean dimension mismatch")
    faded = weights * gamma
    denom = faded + batch_counts
    if np.any(denom <= 0):
        raise RuntimeError("non-positive merge denominator")
    return (prototypes * faded[:, None] + batch_means * batch_counts[:, None]) / denom[:, None]


def fade_weight(weight, gamma: float, assigned=0.0):
    """One window tick of the weight: weight <- gamma*weight + assigned.

    Scalars and per-cluster arrays alike; returns the new weight(s).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if np.any(np.asarray(assigned) < 0):
        raise ValueError("assigned count must be >= 0")
    return gamma * np.asarray(weight, dtype=float) + assigned


def prune_outdated(solution: ClusteringSolution, threshold: float) -> None:
    """Drop clusters with weight < threshold, in place; never leave the
    solution empty.

    If every cluster falls below the threshold the heaviest one survives
    (ties -> lowest index), so K >= 1 always holds.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kept = solution.weights >= threshold
    if not kept.any():
        kept[np.argmax(solution.weights)] = True
    if not kept.all():
        solution.keep(kept)


# ---------------------------------------------------------------------------
# chromosome wire format


def serialize_chromosome(solution: ClusteringSolution) -> np.ndarray:
    """Flat record: [compactness, separateness, proto_1 .. proto_K] (K*d+2 floats)."""
    head = [solution.objectives.compactness, solution.objectives.separateness]
    return np.concatenate([np.array(head, dtype=float), solution.prototypes.ravel()])
