"""Partition agreement scores and the per-window validity index.

nmi and arand compare a predicted partition against ground truth through a
contingency table. davies_bouldin scores a list of solutions against the
points of a single window from the labels and point distances of
``assign_batch``, all on their stacked cluster rows; select_best calls it
once to pick the archive member to report and hands back that member's
labels, so nothing is assigned twice for one report.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import ClusteringSolution, WindowBatch, assign_batch, block_gaps, stack_labels

INFINITE_DBI = math.inf


def _contingency(truth: Sequence[int], predicted: Sequence[int]) -> np.ndarray:
    """Int cross-tabulation of two labelings of the same items: one row per
    true class, one column per predicted cluster."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if len(truth) != len(predicted):
        raise ValueError("label sequences must have equal length")
    if len(truth) == 0:
        raise ValueError("label sequences must be non-empty")
    _, ti = np.unique(truth, return_inverse=True)
    _, pi = np.unique(predicted, return_inverse=True)
    rows, cols = ti.max() + 1, pi.max() + 1
    return np.bincount(ti * cols + pi, minlength=rows * cols).reshape(rows, cols)


def _entropy(freqs: np.ndarray, n: int) -> float:
    """Shannon entropy in nats; empty cells contribute zero."""
    p = freqs[freqs > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(truth: Sequence[int], predicted: Sequence[int]) -> float:
    """Normalized mutual information: 2*I(Y;C) / (H(Y) + H(C)), natural log.

    Two all-in-one-class partitions agree perfectly by convention: 1.0.
    """
    table = _contingency(truth, predicted)
    n = len(truth)
    row_sums, col_sums = table.sum(axis=1), table.sum(axis=0)
    h_t = _entropy(row_sums, n)
    h_p = _entropy(col_sums, n)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij == 0:
                continue
            mi += (nij / n) * math.log(nij * n / (row_sums[i] * col_sums[j]))
    # the true value lives in [0, 1]; the MI sum can overshoot by an ulp
    return float(min(1.0, max(0.0, 2.0 * mi / (h_t + h_p))))


def _pairs(x: np.ndarray) -> float:
    return float((x * (x - 1) // 2).sum())


def arand(truth: Sequence[int], predicted: Sequence[int]) -> float:
    """Adjusted Rand index via pair counting; 0/0 degenerate cases -> 1.0."""
    table = _contingency(truth, predicted)
    n = len(truth)
    if n < 2:
        raise ValueError("arand needs at least two items")
    index = _pairs(table)
    sum_a = _pairs(table.sum(axis=1))
    sum_b = _pairs(table.sum(axis=0))
    total = n * (n - 1) / 2
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return float((index - expected) / denom)


def davies_bouldin(
    solutions: Sequence[ClusteringSolution],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> list[float]:
    """Windowed Davies-Bouldin index of each solution: lower is better.

    ``pairs`` holds each solution's ``assign_batch`` pair on one window.
    Scatter S_i is the mean distance of the window points labelled i to
    prototype i. The index is undefined for K=1, for coincident prototypes,
    and for clusters that received no window points; all three report the
    +inf sentinel so such solutions rank last in selection. Without the
    empty-cluster sentinel a solution could shrink its score arbitrarily by
    parking spare prototypes in unpopulated space.

    Every solution is scored on the stacked cluster rows of all of them:
    one bincount over the offset labels gives each cluster's size, and one
    ``block_gaps`` call every prototype gap, as ``separateness`` takes
    them. A stable argsort of the stacked labels puts each cluster's
    distances in one slice, in window order, so ``np.add.reduce`` over the
    slice divided by the size is bit for bit the masked ``.mean()`` (a
    bincount or ``reduceat`` sum adds in another order and moves bits).
    Each index is the exact-length mean of its rows' worst ratios.
    """
    out = [INFINITE_DBI] * len(solutions)
    if not solutions:
        return out
    labels, starts, sizes = stack_labels(solutions, pairs)
    ks = np.array([solution.k for solution in solutions])
    live = np.logical_and.reduceat(sizes > 0, starts) & (ks > 1)
    if not live.any():
        return out
    picked = np.flatnonzero(live).tolist()
    gap2, owner, own = block_gaps([solutions[i].prototypes for i in picked])
    gap = np.sqrt(gap2)
    # coincident prototypes take the sentinel; +inf gaps keep their ratios
    # finite
    live_ks = ks[live]
    coincide = np.logical_or.reduceat((gap == 0.0).any(axis=1), np.cumsum(live_ks) - live_ks)
    gap[np.repeat(coincide, live_ks)] = np.inf
    # scatters: every live cluster's distances, each one contiguous slice
    order = np.argsort(labels[live].ravel(), kind="stable")
    dists = np.concatenate([pairs[i][1] for i in picked])[order]
    counts = sizes[np.repeat(live, ks)]
    sums = np.empty(len(counts))
    at = 0
    for row, end in enumerate(np.cumsum(counts).tolist()):
        sums[row] = np.add.reduce(dists[at:end])
        at = end
    scatter = sums / counts
    # a +inf gap makes the ratio 0, the floor of every row max
    block = np.zeros((len(picked), gap.shape[1]))
    block[owner, own] = scatter
    worst = ((scatter[:, None] + block[owner]) / gap).max(axis=1)
    at = 0
    for i, k, bad in zip(picked, live_ks.tolist(), coincide.tolist()):
        if not bad:
            out[i] = float(np.add.reduce(worst[at : at + k]) / k)
        at += k
    return out


def select_best(
    archive,
    window: WindowBatch,
    nearest: Optional[dict[int, tuple[np.ndarray, np.ndarray]]] = None,
) -> tuple[ClusteringSolution, float, np.ndarray]:
    """Archive member with the lowest windowed DBI.

    ``nearest`` maps solution ids to ``assign_batch`` pairs already computed
    for this window; members without an entry are assigned here, all in one
    call, and one ``davies_bouldin`` call scores every member. Ties prefer
    fewer clusters, then the lower solution id. Returns the member, its
    score and its labels on the window.
    """
    members = list(archive)
    if not members:
        raise ValueError("archive is empty")
    known = nearest or {}
    missing = [s for s in members if s.solution_id not in known]
    fresh = iter(assign_batch(missing, window.data) if missing else ())
    pairs = [known[s.solution_id] if s.solution_id in known else next(fresh) for s in members]
    scores = davies_bouldin(members, pairs)
    at = min(
        range(len(members)),
        key=lambda i: (scores[i], members[i].k, members[i].solution_id),
    )
    return members[at], scores[at], pairs[at][0]
