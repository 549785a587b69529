"""Independent brute-force evaluators used to pin expected test values.

Everything here is deliberately naive: dict counting, direct formula
transcription, grid rasterization. No imports from the package under test.
"""

import logging
import math
import tracemalloc
from collections import Counter
from decimal import Decimal
from typing import NamedTuple, Optional

import numpy as np


def nmi_oracle(truth, predicted):
    """Normalized mutual information from raw label pairs, natural log."""
    n = len(truth)
    assert n == len(predicted) and n > 0
    joint = Counter(zip(truth, predicted))
    rows = Counter(truth)
    cols = Counter(predicted)

    def entropy(counts):
        return -sum((c / n) * math.log(c / n) for c in counts.values() if c)

    h_t, h_p = entropy(rows), entropy(cols)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    mi = 0.0
    for (a, b), nab in joint.items():
        mi += (nab / n) * math.log((nab * n) / (rows[a] * cols[b]))
    return 2.0 * mi / (h_t + h_p)


def arand_oracle(truth, predicted):
    """Adjusted Rand index by direct pair counting."""
    n = len(truth)
    assert n == len(predicted) and n > 0
    joint = Counter(zip(truth, predicted))
    rows = Counter(truth)
    cols = Counter(predicted)

    def c2(x):
        return x * (x - 1) // 2

    index = sum(c2(v) for v in joint.values())
    sum_rows = sum(c2(v) for v in rows.values())
    sum_cols = sum(c2(v) for v in cols.values())
    expected = sum_rows * sum_cols / c2(n)
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


def hypervolume_raster(points, reference, cells=2000):
    """Area dominated by min-form points inside the reference box, by
    rasterizing cell centers. Accuracy is O(1/cells) relative."""
    if not points:
        return 0.0
    pts = np.asarray(points, dtype=float)
    rx, ry = float(reference[0]), float(reference[1])
    x0 = pts[:, 0].min()
    y0 = pts[:, 1].min()
    xs = np.linspace(x0, rx, cells, endpoint=False) + (rx - x0) / (2 * cells)
    ys = np.linspace(y0, ry, cells, endpoint=False) + (ry - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    covered = np.zeros(gx.shape, dtype=bool)
    for px, py in pts:
        covered |= (gx >= px) & (gy >= py)
    cell_area = ((rx - x0) / cells) * ((ry - y0) / cells)
    return float(covered.sum()) * cell_area


def exact_mean(points):
    return np.mean(np.asarray(points, dtype=float), axis=0)


# ---------------------------------------------------------------------------
# the distance kernel and a commit's batch means as plain numpy reductions


def sq_dist_reference(a, b):
    """Squared Euclidean distance over the last axis, one numpy sum."""
    return ((a - b) ** 2).sum(axis=-1)


def assign_batch_reference(prototype_sets, data):
    """One (labels, dists) pair per (K, d) prototype block, each from that
    block's own (n, K) matrix of last-axis sums: the first minimum of every
    row and the square root of that entry."""
    pairs = []
    for protos in prototype_sets:
        d2 = sq_dist_reference(data[:, None, :], protos[None, :, :])
        labels = np.argmin(d2, axis=1)
        pairs.append((labels, np.sqrt(d2[np.arange(len(data)), labels])))
    return pairs


def nearest_cluster(prototypes, point):
    """Row of ``prototypes`` nearest to ``point`` (ties -> lowest index), by
    ``np.linalg.norm`` rather than the package's kernel."""
    dists = np.linalg.norm(np.asarray(prototypes, dtype=float) - point, axis=1)
    return int(np.argmin(dists))


def absorb_window_reference(prototypes, weights, data, gamma):
    """One member's absorb step with masked batch means and one fading mass:
    every row of ``data`` joins its nearest prototype (ties -> lowest index),
    each fed prototype takes the decayed merge (p*n*gamma + mean*m) /
    (n*gamma + m) with its batch, n its mass before the window, and every
    mass, fed or not, becomes n*gamma + m. Returns the new (prototypes,
    weights) and each cluster's row count m."""
    d2 = sq_dist_reference(data[:, None, :], prototypes[None, :, :])
    labels = np.argmin(d2, axis=1)
    protos, masses = prototypes.copy(), weights * gamma
    assigned = np.zeros(len(prototypes))
    for ci in np.unique(labels):
        batch = data[labels == ci]
        m = float(len(batch))
        faded = weights[ci] * gamma
        protos[ci] = (protos[ci] * faded + batch.mean(axis=0) * m) / (faded + m)
        masses[ci] = faded + m
        assigned[ci] = m
    return protos, masses, assigned


def commit_absorb_reference(members, data, gamma, threshold):
    """A commit's absorb, fade and prune one member at a time, as the
    engine's per-member loop first stood. ``members`` are (prototypes,
    weights) pairs. Every row joins its nearest prototype
    (``assign_batch_reference``); each member's batch sums come from one
    weighted bincount over its (cluster, coordinate) bins, rows added in
    window order; each fed prototype takes the decayed merge (p*n*gamma +
    mean*m) / (n*gamma + m), every mass becomes gamma*n + m, compactness
    is the sum of the row distances to the window-start prototypes, and
    clusters whose mass fell below ``threshold`` go (the first heaviest
    stays when all would). Returns one (prototypes, weights, compactness)
    triple per member."""
    d = data.shape[1]
    coord = np.arange(d)
    pairs = assign_batch_reference([protos for protos, _ in members], data)
    out = []
    for (protos, weights), (labels, dists) in zip(members, pairs):
        k = len(protos)
        assigned = np.bincount(labels, minlength=k).astype(float)
        fed = np.flatnonzero(assigned)
        bins = (labels[:, None] * d + coord).ravel()
        sums = np.bincount(bins, weights=data.ravel(), minlength=k * d).reshape(k, d)
        means = sums[fed] / assigned[fed, None]
        faded = weights[fed] * gamma
        merged = protos.copy()
        merged[fed] = (protos[fed] * faded[:, None] + means * assigned[fed, None]) / (
            faded + assigned[fed]
        )[:, None]
        masses = gamma * weights + assigned
        kept = masses >= threshold
        if not kept.any():
            kept[np.argmax(masses)] = True
        out.append((merged[kept], masses[kept], float(dists.sum())))
    return out


# ---------------------------------------------------------------------------
# the tree's macro view by walking each first-level subtree


def tree_children(parents):
    """Node id -> rows of its children, in row order (0 is the support)."""
    kids = {}
    for row, parent in enumerate(np.asarray(parents).tolist()):
        kids.setdefault(parent, []).append(row)
    return kids


def subtree_rows(root, ids, kids):
    """Rows of the subtree at row ``root``, in preorder."""
    out, stack = [], [root]
    while stack:
        row = stack.pop()
        out.append(row)
        stack.extend(reversed(kids.get(int(ids[row]), [])))
    return out


def macro_walk_reference(ids, parents, prototypes, weights):
    """(prototypes, masses) of one cluster per first-level subtree, each
    summed over its rows in preorder, whatever order the rows are stored in:
    the mass-weighted prototype mean (the plain mean at total mass 0) and
    the total mass."""
    kids = tree_children(parents)
    protos, masses = [], []
    for root in kids.get(0, []):
        rows = subtree_rows(root, ids, kids)
        block, mass = prototypes[rows], weights[rows]
        total = mass.sum()
        if total > 0:
            protos.append((block * mass[:, None]).sum(axis=0) / total)
        else:
            protos.append(block.mean(axis=0))
        masses.append(float(total))
    return np.vstack(protos), np.array(masses)


def ant_walk_reference(data, l_max=10, relax=0.01):
    """The first-window ant walk with every node's child-pair similarity
    matrix rebuilt at each step, as the tree build first stood. Row 1 goes
    last when there are 3+ rows. Returns the tree's (ids, parents,
    prototypes) columns: nodes in preorder, children in the order they were
    added, ids 1..n, parent 0 for the support."""
    data = np.asarray(data, dtype=float)
    n = len(data)
    diameter = float(np.sqrt(sq_dist_reference(data[:, None, :], data[None, :, :]).max()))

    def similarity(a, b):
        dist = np.sqrt(sq_dist_reference(a, b))
        if diameter <= 0.0:
            return (dist == 0.0).astype(float)
        return 1.0 - dist / diameter

    ants = data[[0, *range(2, n), 1]] if n >= 3 else data
    kids = {-1: []}  # row -> child rows, -1 for the support
    for row, ant in enumerate(ants):
        pos, dissim = -1, 0.0
        while len(kids[pos]) >= 2:
            children = ants[kids[pos]]
            sims = similarity(children, ant)
            best = int(sims.argmax())
            if len(children) < l_max:
                widest = similarity(children[:, None, :], children[None, :, :]).min()
                if sims[best] < max(widest, dissim):
                    break
            pos = kids[pos][best]
            dissim = min(1.0, dissim + relax)
        kids[pos].append(row)
        kids[row] = []
    preorder, parents, stack = [], [], [(row, -1) for row in reversed(kids[-1])]
    while stack:
        row, parent = stack.pop()
        preorder.append(row)
        parents.append(parent)
        stack.extend((kid, row) for kid in reversed(kids[row]))
    node_id = {-1: 0, **{row: i + 1 for i, row in enumerate(preorder)}}
    return (np.arange(1, n + 1), np.array([node_id[p] for p in parents], dtype=np.int64),
            ants[preorder])


# ---------------------------------------------------------------------------
# loop forms of the vectorized objective and validity kernels. Distances are
# the squared differences summed over the last axis, then the square root,
# so results can be compared with ``==``.


def pairwise_distances(points):
    """(K, K) Euclidean distance matrix."""
    p = np.asarray(points, dtype=float)
    return np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))


def knn_neighborhood(points, size=3):
    """Each row's ``size`` nearest other rows (all others when K - 1 <= size);
    ties go to the lower index."""
    d = pairwise_distances(points)
    out = {}
    for i in range(len(d)):
        others = [j for j in range(len(d)) if j != i]
        if len(others) > size:
            others = sorted(others, key=lambda j: (d[i, j], j))[:size]
        out[i] = set(others)
    return out


def separateness_oracle(points, active=None):
    """Mean over active rows of the smallest distance to one of their three
    nearest active neighbours; 0 with at most one active row."""
    points = np.asarray(points, dtype=float)
    act = sorted(set(range(len(points)) if active is None else map(int, active)))
    if len(act) <= 1:
        return 0.0
    d = pairwise_distances(points)
    hood = knn_neighborhood(points[act])
    vals = [min(d[act[i], act[j]] for j in nbrs) for i, nbrs in hood.items()]
    return float(np.mean(vals))


def davies_bouldin_loop(points, prototypes, assignment):
    """Windowed Davies-Bouldin index by the pairwise double loop; inf for
    K = 1, an empty cluster or coincident prototypes."""
    points = np.asarray(points, dtype=float)
    protos = np.asarray(prototypes, dtype=float)
    assignment = np.asarray(assignment)
    k = len(protos)
    if k <= 1:
        return math.inf
    dists = np.sqrt(((points - protos[assignment]) ** 2).sum(axis=-1))
    scatter = np.zeros(k)
    for i in range(k):
        mask = assignment == i
        if not mask.any():
            return math.inf
        scatter[i] = float(dists[mask].mean())
    centre_d = pairwise_distances(protos)
    worst = np.zeros(k)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if centre_d[i, j] == 0.0:
                return math.inf
            worst[i] = max(worst[i], (scatter[i] + scatter[j]) / centre_d[i, j])
    return float(worst.mean())


def crowding_loop(pairs):
    """NSGA-II crowding distance of minimized pairs, one neighbour at a time."""
    pairs = np.asarray(pairs, dtype=float)
    n = len(pairs)
    out = np.zeros(n)
    if n <= 2:
        out[:] = np.inf
        return out
    for dim in range(pairs.shape[1]):
        order = np.argsort(pairs[:, dim], kind="stable")
        out[order[0]] = out[order[-1]] = np.inf
        span = pairs[order[-1], dim] - pairs[order[0], dim]
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            out[i] += (pairs[order[rank + 1], dim] - pairs[order[rank - 1], dim]) / span
    return out


def dbscan_dense_labels(points, min_pts, radius):
    """Density-scan labels from the full (n, n) distance matrix: cores join
    by connectivity, a border point takes its nearest reachable core's
    component, noise is -1. None when no point is a core."""
    data = np.asarray(points, dtype=float)
    n = len(data)
    d = pairwise_distances(data)
    within = d <= radius
    core = within.sum(axis=1) >= min_pts
    if not core.any():
        return None
    comp = np.full(n, -1)
    count = 0
    for start in np.flatnonzero(core):
        if comp[start] != -1:
            continue
        comp[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(within[u] & core):
                if comp[v] == -1:
                    comp[v] = count
                    stack.append(v)
        count += 1
    labels = np.where(core, comp, -1)
    core_idx = np.flatnonzero(core)
    for i in np.flatnonzero(~core):
        reachable = core_idx[within[i, core_idx]]
        if len(reachable):
            labels[i] = comp[reachable[np.argmin(d[i, reachable])]]
    return labels


def lloyd_reference(data, centers, iterations=100):
    """Lloyd's iterations from the given start centers, finding each emptied
    cluster by a scan of the current labels, as the k-means seeder first
    stood: the row farthest from its own center, never one already moved
    this pass, takes the empty slot. Returns (labels, centers)."""
    data = np.asarray(data, dtype=float)
    centers = np.array(centers, dtype=float)
    n, k = len(data), len(centers)
    labels = np.full(n, -1)
    for _ in range(iterations):
        d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_labels = np.argmin(d2, axis=1)
        used = set()
        for ci in range(k):
            if (new_labels == ci).any():
                continue
            gaps = d2[np.arange(n), new_labels].copy()
            gaps[list(used)] = -1.0
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
    return labels, centers


def gng_reference(data, seed, budget=3000, max_nodes=32, eps_best=0.05,
                  eps_neighbor=0.006, max_edge_age=50, insert_every=100,
                  split_decay=0.5, error_decay=0.995):
    """Growing-neural-gas clustering with units in a list and edges in a
    dict, as the seeder first stood, over ``budget`` signals: shuffled
    passes over the rows, the last one cut at the budget. Returns (labels,
    centers, gas): each point's cluster, the per-cluster means, and the
    final units, errors and edge ages ((lo, hi) -> age) with the number of
    signals, unit splits and edge expiries the run went through."""
    data = np.asarray(data, dtype=float)
    n = len(data)
    rng = np.random.default_rng(seed)
    first = rng.choice(n, size=2, replace=False)
    units = [data[first[0]].copy(), data[first[1]].copy()]
    errors = [0.0, 0.0]
    edges = {}  # (lo, hi) -> age
    gas = {"splits": 0, "expiries": 0}
    signals = 0
    while signals < budget:
        for idx in rng.permutation(n):
            if signals == budget:
                break
            x = data[idx]
            signals += 1
            u = np.vstack(units)
            d2 = ((u - x) ** 2).sum(axis=-1)
            order = np.argsort(d2, kind="stable")
            s1, s2 = int(order[0]), int(order[1])
            errors[s1] += float(d2[s1])
            units[s1] = units[s1] + eps_best * (x - units[s1])
            for (a, b) in list(edges):
                if s1 in (a, b):
                    edges[(a, b)] += 1
                    other = b if a == s1 else a
                    units[other] = units[other] + eps_neighbor * (x - units[other])
            edges[(min(s1, s2), max(s1, s2))] = 0
            for key, age in list(edges.items()):
                if age > max_edge_age:
                    del edges[key]
                    gas["expiries"] += 1
            if signals % insert_every == 0 and len(units) < max_nodes:
                q = int(np.argmax(errors))
                nbrs = [(b if a == q else a) for (a, b) in edges if q in (a, b)]
                if nbrs:
                    # ties -> the lowest index, whatever the edge order
                    f = max(sorted(nbrs), key=lambda j: errors[j])
                    units.append(0.5 * (units[q] + units[f]))
                    errors[q] *= split_decay
                    errors[f] *= split_decay
                    errors.append(errors[q])
                    new = len(units) - 1
                    edges.pop((min(q, f), max(q, f)), None)
                    edges[(min(q, new), max(q, new))] = 0
                    edges[(min(f, new), max(f, new))] = 0
                    gas["splits"] += 1
            errors = [e * error_decay for e in errors]
    # components over surviving edges by union-find, roots at the smallest index
    m = len(units)
    comp = list(range(m))

    def find(a):
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
    u = np.vstack(units)
    gas.update(units=u, errors=np.array(errors), edges=edges, signals=signals)
    nearest = np.argmin(((data[:, None, :] - u[None, :, :]) ** 2).sum(axis=-1), axis=1)
    labels = comp_of_unit[nearest]
    centers = []
    final = np.full(n, -1)
    for c in range(len(roots)):
        mask = labels == c
        if mask.any():
            centers.append(data[mask].mean(axis=0))
            final[mask] = len(centers) - 1
    return final, np.vstack(centers), gas


def archive_insert_reference(members, candidate, capacity):
    """Bounded Pareto archive insert with dominance re-derived for every
    member pair, as ``ParetoArchive.insert`` first stood. ``members`` are
    solutions in archive order (anything with ``objectives.as_min_pair()``
    and ``solution_id``). Returns (accepted, members after the insert)."""

    def dominates(a, b):
        a1, a2 = a.objectives.as_min_pair()
        b1, b2 = b.objectives.as_min_pair()
        return a1 <= b1 and a2 <= b2 and (a1 < b1 or a2 < b2)

    pair = candidate.objectives.as_min_pair()
    for member in members:
        if dominates(member, candidate) or member.objectives.as_min_pair() == pair:
            return False, list(members)
    kept = [m for m in members if not dominates(candidate, m)]
    kept.append(candidate)
    kept.sort(key=lambda s: s.solution_id)
    if len(kept) > capacity:
        dist = crowding_loop([s.objectives.as_min_pair() for s in kept])
        # smallest crowding distance loses; ties evict the newer solution
        victim = min(range(len(kept)), key=lambda i: (dist[i], -kept[i].solution_id))
        del kept[victim]
    return True, kept


# ---------------------------------------------------------------------------
# memory


def traced_peak(call, *args):
    """Peak bytes traced by tracemalloc (numpy arrays included) while
    ``call(*args)`` runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# CSV ingestion

reference_logger = logging.getLogger("oracles.load_csv_reference")


class ReferenceWindow(NamedTuple):
    data: np.ndarray
    window_id: int
    labels: Optional[np.ndarray]
    start_index: int


def _whole_text(text):
    """Whether a number's text is whole as written, read as an exact
    decimal (a fraction below float resolution still counts)."""
    value = Decimal(text)
    return value == value.to_integral_value()


def load_csv_reference(path, window_size, label_col=None, max_abs_value=1e100):
    """The row-by-row CSV loader: each line is split, converted by ``float``
    and checked on its own. A finite label whose float reaches +/-2**53
    raises with its line number, as a fractional one does, in its float or
    in its text.
    ``max_abs_value`` is the package's ``MAX_ABS_VALUE``."""
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    rows: list[list[float]] = []
    labels: list[int] = []
    width: Optional[int] = None
    skipped = 0
    window_id = 0
    start_index = 0
    emitted_any = False

    def flush() -> ReferenceWindow:
        nonlocal rows, labels, window_id, start_index, emitted_any
        batch = ReferenceWindow(
            np.asarray(rows, dtype=float),
            window_id,
            np.asarray(labels) if label_col is not None else None,
            start_index,
        )
        start_index += len(rows)
        window_id += 1
        rows, labels = [], []
        emitted_any = True
        return batch

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if label_col is not None and not -width <= label_col < width:
                    raise ValueError(f"label column {label_col} out of range")
                if label_col is not None and width == 1:
                    raise ValueError(
                        f"line {lineno}: window has no feature columns "
                        "(the only field is the label column)"
                    )
            elif len(fields) != width:
                raise ValueError(
                    f"line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                values = [float(v) for v in fields]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if label_col is not None:
                label_val = values[label_col]
                if math.isfinite(label_val) and not (
                    label_val.is_integer() and _whole_text(fields[label_col])
                ):
                    raise ValueError(
                        f"line {lineno}: label {fields[label_col]} is not a class id"
                    )
                if math.isfinite(label_val) and abs(label_val) >= 2**53:
                    raise ValueError(
                        f"line {lineno}: label {fields[label_col]} is not within "
                        "+/-2**53, where class ids stop being exact"
                    )
                feat = [v for i, v in enumerate(values) if i != label_col % width]
            else:
                label_val = None
                feat = values
            # the bound test is False for NaN and +/-inf as well
            if not all(abs(v) <= max_abs_value for v in feat) or (
                label_val is not None and not math.isfinite(label_val)
            ):
                skipped += 1
                continue
            rows.append(feat)
            if label_col is not None:
                labels.append(int(label_val))
            if len(rows) == window_size:
                yield flush()
    if rows:
        yield flush()
    if skipped:
        reference_logger.warning(
            "skipped %d rows with non-finite or out-of-range values", skipped
        )
    if not emitted_any:
        raise ValueError(f"{path}: no usable rows")
