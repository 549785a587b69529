"""Shared domain types, the distance kernel and the streaming update rules.

Everything downstream (tree synopsis, seeders, evolution, engine) trades in
these types. A solution keeps its clusters as rows of arrays, and every
distance in the package goes through ``sq_dist``, or through its summation
``sum_coords`` where the caller keeps the difference (the growing gas).
``assign_batch`` is the one nearest-prototype routine: for S solutions it
returns two (S, n) arrays, each window row's label and distance, one row
per solution, bit-identical to each solution's own (window x solution)
``sq_dist`` matrix. Below 8 coordinates every call takes even row blocks
of the window, each one matrix over the stacked prototypes and two
reductions across the (S, n) planes of a padded block. From 8 coordinates
one GEMM over the stacked prototypes screens the labels under a derived
rounding margin, the chosen distances still come from ``sq_dist``, and
rows the margin cannot settle take the exact matrix. ``nearest_sq`` is the
one-block form, which a single solution, the tree synopsis's runs and the
seeders search with: even row blocks too, each the exact matrix on a small
block, else the same screen in the (n, K) row layout, which settles a row
from its candidate's entry and the smallest other entry rather than
counting every entry under the cut. ``stack_labels`` offsets the stacked
labels onto the solutions' stacked cluster rows, and ``block_gaps`` sets
every prototype against its own solution's, for the callers that count,
fold or score every solution at once. ``scan_rows`` sizes every row block,
those of the first-window scans that set every row against a whole window
and those of both nearest searches (one loop, ``_in_row_blocks``), so each
block holds one fixed budget of differences (``SCAN_ENTRIES``) whatever the
window's size. The update rules implement the decayed running-mean merge of
per-cluster batches, the exponential weight fade with assignment refresh,
and staleness pruning.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
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
    ``window_id`` and ``start_index``, the arrival index of the first row
    (indices are contiguous within a window), are integers >= 0, stored as
    Python ints: reports write them to JSON and the engine seeds by them.
    """

    data: np.ndarray
    window_id: int
    labels: Optional[np.ndarray] = None
    start_index: int = 0

    def __post_init__(self) -> None:
        for name in ("window_id", "start_index"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0")
            setattr(self, name, int(value))
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
    """

    objectives: ObjectiveVector
    prototypes: np.ndarray
    solution_id: int = -1
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
        cap = () if self.idle_generations_cap is None else (self.idle_generations_cap,)
        for value in (self.window_size, self.sigma, self.rng_seed, *cap):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("window_size, sigma, the cap and rng_seed must be integers")
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
        # a NaN deadline never expires, so a paced run would never return
        if not 0 <= self.interval_ms < np.inf:
            raise ValueError("interval_ms must be finite and >= 0")
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
# 16-row blocks (x86_64 VM, numpy 2.4.6, best of 7), the exact matrix is
# cheaper below about 300 coordinates at d=8, 400 at d=16, 750 at d=5 and
# 1,000 at d=2 (at 512: 45 against 31 us at d=8, 29 against 27 at d=16,
# 27 against 33 at d=5, 25 against 35 at d=2).
SCREEN_MIN_COORDS = 512
# Difference entries (rows x n x d, 1 MiB of float64) one row block of a
# distance scan may hold; see ``scan_rows``. Taken in 512-row blocks, the
# first-window scans held 8.2 MB per block at n=1000, d=2 and 131 MB at
# n=2000, d=16. Below ``SCREEN_MIN_DIM`` it also sizes ``assign_batch``'s row
# blocks: rows x S solutions x kmax (the largest K) padded entries of d
# differences each. Timed on an x86_64 2-vCPU VM (numpy 2.4.6), medians of
# 15 interleaved rounds over captured wide-overlap calls (n=1000, d=2), with
# budgets of 2^15/2^16/2^17/2^18 against one matrix per solution: idle
# generations (S=20, kmax=15) 1990/1596/1430/1351 against 1905 us per call,
# commits (S 10-19, kmax up to 54) 2030/1460/1276/1496 against 1350 us; on
# 12 synthetic calls (n=1000, S=20, K 2-15) 2^17 took 773/1653/4096 against
# 1224/1969/4863 us at d=1/2/7. Report bytes did not move.
SCAN_ENTRIES = 2**17
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


def scan_rows(n: int, d: int) -> int:
    """Rows per block of a scan that sets window rows against ``n`` points
    (or padded prototype slots) of ``d`` coordinates, so that one block's
    (rows, n, d) difference array holds at most ``SCAN_ENTRIES`` entries (at
    least one row)."""
    return max(1, SCAN_ENTRIES // (n * d))


def block_gaps(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances between the rows of each (K, d) block, for all
    blocks at once: each block is padded to kmax rows and each of the sum-K
    rows is set against its own padded block, one (sum K, kmax) ``sq_dist``
    block with the padding columns and the row's own column at +inf. Every
    other entry is the one the block's own (K, K) matrix holds. Also returns
    each stacked row's block and its index within that block."""
    ks = np.array([len(block) for block in blocks])
    kmax = int(ks.max())
    owner = np.repeat(np.arange(len(ks)), ks)
    own = np.arange(len(owner)) - np.repeat(np.cumsum(ks) - ks, ks)
    rows = np.concatenate(blocks)
    padded = np.zeros((len(blocks), kmax, rows.shape[1]))
    padded[owner, own] = rows
    d2 = sq_dist(rows[:, None, :], padded[owner])
    cols = np.arange(kmax)
    d2[(cols >= ks[owner][:, None]) | (cols == own[:, None])] = np.inf
    return d2, owner, own


def assign_batch(
    solutions: Sequence[ClusteringSolution], data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each window row's nearest prototype (ties -> lowest index) and its
    distance to it, for every solution: two (len(solutions), n) arrays,
    ``labels`` and ``dists``, one row per solution.

    Row s equals solution s's own (n, K) ``sq_dist`` matrix read row by row
    (its first minimum and the square root of that entry), bit for bit.
    Below ``SCREEN_MIN_DIM`` coordinates the entries are those matrices'
    own: the window is split evenly into the fewest row blocks whose padded
    (kmax, S, rows) block, kmax the largest K, holds at most
    ``SCAN_ENTRIES`` differences (``scan_rows``), and each block takes one
    matrix over the stacked prototypes (``_nearest_stacked``). From
    ``SCREEN_MIN_DIM`` one GEMM screens the whole stack (see ``_screened``),
    so only the chosen and the doubtful entries pay the d-wide difference
    sums.
    """
    data = np.asarray(data, dtype=float)
    for sol in solutions:
        if data.shape[1] != sol.dim:
            raise ValueError("dimension mismatch between window and solution")
    n = len(data)
    if not solutions:
        return np.empty((0, n), dtype=np.intp), np.empty((0, n))
    stack = [sol.prototypes for sol in solutions]
    if data.shape[1] >= SCREEN_MIN_DIM:
        labels, d2 = _screened(stack, data)
    else:
        labels, d2 = _nearest_stacked(stack, data)
    return labels, np.sqrt(d2, out=d2)


def stack_labels(
    solutions: Sequence[ClusteringSolution], labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solutions' (len(solutions), n) ``assign_batch`` labels on one
    window, on their stacked cluster rows (solution after solution, sum K
    rows): the labels offset by each solution's first row, those first
    rows, and the count of window rows each stacked row holds."""
    ks = np.array([sol.k for sol in solutions])
    starts = np.cumsum(ks) - ks
    labels = labels + starts[:, None]
    return labels, starts, np.bincount(labels.ravel(), minlength=int(ks.sum()))


def label_sums(labels: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """The (count, d) sums of the (n, d) ``rows`` by their n ``labels``, from
    one weighted bincount over (label * d + coordinate) bins: each bin adds
    its rows left to right in row order, as a masked mean over axis 0 does
    from two coordinates (numpy sums a lone column pairwise)."""
    d = rows.shape[1]
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=count * d).reshape(count, d)


def nearest_sq(protos: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of each row of the (n, K) ``sq_dist`` matrix of ``data``
    against one prototype block, and that squared distance, on row blocks of
    ``scan_rows(K, d)`` rows: from the matrix itself below
    ``SCREEN_MIN_COORDS`` prototype coordinates, else from the one-block
    GEMM screen (``_screen_one``)."""
    search = _nearest_exact if protos.size < SCREEN_MIN_COORDS else _screen_one
    return _in_row_blocks(partial(search, protos), data, scan_rows(*protos.shape))


def _in_row_blocks(search, data: np.ndarray, rows: int, lead: tuple = ()):
    """``search``'s (labels, squared distances) over the rows of ``data``,
    taken on the fewest even row blocks of at most ``rows`` rows and written
    side by side into two (*lead, n) arrays."""
    n = len(data)
    blocks = -(-n // rows)
    if blocks == 1:
        return search(data)
    labels = np.empty((*lead, n), dtype=np.intp)
    d2 = np.empty((*lead, n))
    for i in range(blocks):
        part = slice(i * n // blocks, (i + 1) * n // blocks)
        labels[..., part], d2[..., part] = search(data[part])
    return labels, d2


def _nearest_exact(
    protos: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of each row of the (n, K) ``sq_dist`` matrix, and that
    squared distance."""
    d2 = sq_dist(data[:, None, :], protos[None, :, :])
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(len(labels)), labels]


def _nearest_stacked(
    stack: list[np.ndarray], data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_nearest_exact`` of every block of ``stack`` at once, as two
    (len(stack), n) arrays: ``_stacked_block`` on the row blocks whose
    padded (kmax, S, rows) block holds at most ``SCAN_ENTRIES`` differences
    (``scan_rows``), the stacked prototypes and their gather laid out once.
    """
    ks = np.array([len(p) for p in stack])
    starts = np.cumsum(ks) - ks
    slot = np.arange(ks.max())[:, None]
    # padding reads the extra last row, which every block sets to +inf
    gather = np.where(slot < ks, starts + slot, int(ks.sum()))
    protos = np.concatenate([*stack, data[:1]])
    rows = scan_rows(gather.size, data.shape[1])
    return _in_row_blocks(partial(_stacked_block, protos, gather), data, rows, (len(stack),))


def _stacked_block(
    protos: np.ndarray, gather: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_nearest_exact`` of every stacked block on the rows of ``data``,
    from one ``sq_dist`` matrix over ``protos``, the stacked blocks plus one
    extra prototype whose entries are set to +inf.

    Each entry is the one the block's own matrix holds: ``sq_dist`` treats
    every (row, prototype) entry alike, whatever else is stacked beside it.
    ``gather`` lays the matrix out as a padded (kmax, S, rows) block, each
    block's prototypes in order with the +inf prototype as padding, and
    ``_first_min`` reads it. Padding sits after the block's own slots, so it
    can only tie an all-+inf column, and a NaN entry (a non-finite
    prototype) still goes first, as in the block's own ``argmin``.
    """
    # the (rows, sum K + 1) matrix comes out in Fortran order: .T is C order
    d2 = sq_dist(data[:, None, :], protos[None, :, :]).T
    d2[-1] = np.inf
    block = d2[gather]
    del d2  # the block holds every entry still needed
    return _first_min(block)


def _first_min(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first minimum over the first axis of a (kmax, S, n) block, and
    the minimum, both (S, n). The lowest slot holding the minimum is the one
    whose descending rank kmax - slot is highest, so both reductions run
    elementwise across the (S, n) planes rather than once per (solution,
    row) as ``argmin`` would. A NaN minimum equals no slot, so then the
    labels come from ``argmin``, which takes the first NaN."""
    kmax = len(block)
    low = np.minimum.reduce(block)
    if np.isnan(low).any():
        return block.argmin(axis=0), low
    # the narrowest type that holds kmax keeps the rank planes small
    rank = np.arange(kmax, 0, -1, dtype=np.min_scalar_type(kmax))[:, None, None]
    return kmax - np.maximum.reduce((block == low) * rank).astype(np.intp), low


def _screened(
    stack: list[np.ndarray], data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of each row of every (n, K_s) ``sq_dist`` matrix of
    ``data`` against a prototype block of ``stack``, and that squared
    distance, as two (len(stack), n) arrays, from one GEMM over the stacked
    blocks. Bit for bit each block's own matrix at any d; ``assign_batch``
    uses it from ``SCREEN_MIN_DIM`` coordinates. One block goes through
    ``nearest_sq``.

    One GEMM gives h_k = |p_k|^2 - 2 x.p_k for every row x and every stacked
    prototype; each block's candidate label m is the first minimum over its
    own prototypes. The blocks are padded to a common kmax with entries at
    +inf and laid out as (kmax, S, n) planes for ``_first_min``, whose
    ``argmin`` takes the first NaN if an h is NaN (such a row's margin is
    not finite). The candidate's squared distance c_m = sq_dist(x, p_m) is
    the very entry the block's (n, K) matrix holds, since both sum the same
    last axis. A row keeps m only if every other prototype of its block
    clears the margin, h_k > c_m - |x|^2 + M; otherwise, or if M is not
    finite, that row's labels come from the exact matrix.

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
    if len(stack) == 1:
        labels, c2 = nearest_sq(stack[0], data)
        return labels[None], c2[None]
    n, d = data.shape
    ks = np.array([len(p) for p in stack])
    count, kmax = len(ks), int(ks.max())
    # slot-major rows: slot k of every block, block after block
    protos = np.zeros((kmax, count, d))
    for s, p in enumerate(stack):
        protos[: len(p), s] = p
    flat = protos.reshape(kmax * count, d)
    with np.errstate(over="ignore", invalid="ignore"):
        pp = np.einsum("ij,ij->i", flat, flat)
        top = pp.reshape(kmax, count).max(axis=0)  # zero padding cannot raise it
        pp.reshape(kmax, count)[np.arange(kmax)[:, None] >= ks] = np.inf
        h = (flat * -2.0) @ data.T
        h += pp[:, None]
        h = h.reshape(kmax, count, n)
        labels, _ = _first_min(h)
        c2 = sq_dist(data, flat[labels * count + np.arange(count)[:, None]])
        xx = np.einsum("ij,ij->i", data, data)
        margin = _margin(top[:, None], xx, d)
        cut = c2 - xx
        cut += margin
        close = h <= cut
        # each finite-margin row and block holds at least its candidate
        if np.count_nonzero(close) != n * count or not np.isfinite(margin).all():
            doubtful = (close.sum(axis=0) != 1) | ~np.isfinite(margin)
            for s in np.flatnonzero(doubtful.any(axis=1)):
                rows = np.flatnonzero(doubtful[s])
                labels[s, rows], c2[s, rows] = _nearest_exact(stack[s], data[rows])
    return labels, c2


def _screen_one(protos: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_screened`` for one (K, d) block, in the (n, K) row layout, which
    wins on the few rows of a tree run: a row-wise ``argmin`` picks each
    row's candidate m, and the row keeps it when h_m passes the cut c_m -
    |x|^2 + M and the smallest other h, read after h_m is set to +inf,
    clears it. That is ``_screened``'s test (every other prototype clears
    the margin) without counting each entry; a NaN h or cut fails it, so
    those rows, and rows the margin cannot settle, take the exact matrix."""
    d = data.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        pp = np.einsum("ij,ij->i", protos, protos)
        h = (data * -2.0) @ protos.T  # scaling by -2 is exact, on the fewer rows
        h += pp
        labels = h.argmin(axis=1)
        c2 = sq_dist(data, protos[labels])
        xx = np.einsum("ij,ij->i", data, data)
        cut = c2 - xx
        cut += _margin(pp.max(), xx, d)
    rows = np.arange(len(data))
    own = h[rows, labels]
    h[rows, labels] = np.inf
    doubt = np.flatnonzero(~((own <= cut) & (h.min(axis=1) > cut)))
    if len(doubt):
        labels[doubt], c2[doubt] = _nearest_exact(protos, data[doubt])
    return labels, c2


def _margin(top, xx: np.ndarray, d: int) -> np.ndarray:
    """The screen's rounding margin M = (4s) * 5g + 10 (d+2) eta, s = ``top``
    (the largest |p|^2 of a block) + ``xx`` (|x|^2); see ``_screened``.
    Infinite where 4s overflows: call it under ``np.errstate(over=...)``."""
    g = (d + 2) * _UNIT / (1.0 - (d + 2) * _UNIT)
    margin = top + xx
    margin *= 4.0
    margin *= 5.0 * g
    margin += 10.0 * (d + 2) * _ETA
    return margin


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
