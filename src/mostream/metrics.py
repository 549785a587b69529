"""Partition agreement scores and the per-window validity index.

nmi and arand compare a predicted partition against ground truth through a
contingency table. davies_bouldin scores a list of solutions against the
points of a single window from the labels and point distances of
``assign_batch``, all on their stacked cluster rows. select_best calls it
once on rows its caller has assigned, picks the archive member to report
and hands back that member's row of labels: it assigns nothing itself.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ClusteringSolution, block_gaps, stack_labels

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
    solutions: Sequence[ClusteringSolution], labels: np.ndarray, dists: np.ndarray
) -> list[float]:
    """Windowed Davies-Bouldin index of each solution: lower is better.

    ``labels`` and ``dists`` are the solutions' (len(solutions), n)
    ``assign_batch`` arrays on one window, one row per solution.
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
    labels, starts, sizes = stack_labels(solutions, labels)
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
    dists = dists[live].ravel()[order]
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
    members: Sequence[ClusteringSolution], labels: np.ndarray, dists: np.ndarray
) -> tuple[ClusteringSolution, float, np.ndarray]:
    """Member with the lowest windowed DBI.

    ``labels`` and ``dists`` are the members' (len(members), n)
    ``assign_batch`` arrays on one window, one row per member in member
    order; one ``davies_bouldin`` call scores every member. Ties prefer
    fewer clusters, then the lower solution id. Returns the member, its
    score and its labels on the window. A row count other than the member
    count is rejected: one row would broadcast against every member.
    """
    members = list(members)
    if not members:
        raise ValueError("archive is empty")
    if len(labels) != len(members) or len(dists) != len(members):
        raise ValueError(f"{len(members)} members need as many label and distance rows")
    scores = davies_bouldin(members, labels, dists)
    at = min(
        range(len(members)),
        key=lambda i: (scores[i], members[i].k, members[i].solution_id),
    )
    return members[at], scores[at], labels[at]
