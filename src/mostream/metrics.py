"""Partition agreement scores and the per-window validity index.

nmi and arand compare a predicted partition against ground truth through a
contingency table. davies_bouldin scores one solution against the points of
a single window from the labels and point distances of ``assign_batch``;
select_best uses it to pick the archive member to report and hands back that
member's labels, so nothing is assigned twice for one report.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import ClusteringSolution, WindowBatch, assign_batch, sq_dist

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
    counts = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return counts


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
    solution: ClusteringSolution, labels: np.ndarray, dists: np.ndarray
) -> float:
    """Windowed Davies-Bouldin index: lower is better.

    ``labels, dists`` is the solution's ``assign_batch`` pair. Scatter
    S_i is the mean distance of the window points labelled i to prototype
    i. The index is undefined for K=1, for coincident prototypes, and for
    clusters that received no window points; all three report the +inf
    sentinel so such solutions rank last in selection. Without the
    empty-cluster sentinel a solution could shrink its score arbitrarily by
    parking spare prototypes in unpopulated space.
    """
    k = solution.k
    if k <= 1:
        return INFINITE_DBI
    scatter = np.zeros(k)
    for i in range(k):
        mask = labels == i
        if not mask.any():
            return INFINITE_DBI
        scatter[i] = float(dists[mask].mean())
    protos = solution.prototypes
    centre_d = np.sqrt(sq_dist(protos[:, None, :], protos[None, :, :]))
    # an infinite diagonal makes the self ratio 0, the floor of every row max
    np.fill_diagonal(centre_d, np.inf)
    if (centre_d == 0.0).any():
        return INFINITE_DBI
    ratio = (scatter[:, None] + scatter[None, :]) / centre_d
    return float(ratio.max(axis=1).mean())


def select_best(
    archive,
    window: WindowBatch,
    nearest: Optional[dict[int, tuple[np.ndarray, np.ndarray]]] = None,
) -> tuple[ClusteringSolution, float, np.ndarray]:
    """Archive member with the lowest windowed DBI.

    ``nearest`` maps solution ids to ``assign_batch`` pairs already computed
    for this window; members without an entry are assigned here, all in one
    call. Ties prefer fewer clusters, then the lower solution id. Returns
    the member, its score and its labels on the window.
    """
    members = list(archive)
    if not members:
        raise ValueError("archive is empty")
    known = nearest or {}
    missing = [s for s in members if s.solution_id not in known]
    fresh = iter(assign_batch(missing, window.data) if missing else ())
    scored = []
    for s in members:
        pair = known[s.solution_id] if s.solution_id in known else next(fresh)
        scored.append((davies_bouldin(s, *pair), s.k, s.solution_id, s, pair[0]))
    dbi, _, _, best, labels = min(scored, key=lambda t: t[:3])
    return best, dbi, labels
