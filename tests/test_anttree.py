"""Tree synopsis: ant-style construction, array layout and streaming updates."""

import copy
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mostream import anttree, core
from mostream.core import MAX_ABS_VALUE, WindowBatch, fade_weight, merge_prototype
from mostream.stream_io import gen_blobs
from mostream.anttree import (
    COLUMNS,
    CONNECT,
    DISSIM_RELAX,
    L_MAX,
    RADIUS_SCALE,
    RUN,
    SUPPORT_ID,
    TreeSynopsis,
    build_initial_tree,
    similarity,
    step,
    window_scales,
)
from oracles import (
    ant_walk_reference,
    macro_walk_reference,
    subtree_rows,
    traced_peak,
    tree_children,
)


def _pt(*coords):
    return np.array(coords, dtype=float)


def _window(rows, wid=0):
    return WindowBatch(np.asarray(rows, dtype=float), wid)


def _node(tree, parent, *coords, weight=1.0):
    """Append a one-point node of mass ``weight`` under ``parent``; returns
    its id."""
    nid = tree._add(parent, _pt(*coords))
    tree.weights[-1] = weight
    return nid


def _fan(anchors):
    """Support children at ``anchors``, in id order."""
    tree = TreeSynopsis(2)
    for row in anchors:
        _node(tree, SUPPORT_ID, *row)
    return tree


def _kids(*rows):
    """Child prototypes for ``step`` in 2-d, one row per child, in id order."""
    return np.array(rows, dtype=float).reshape(len(rows), 2)


def _first_level(tree):
    """Ids of the support's children, in id order."""
    return tree.ids[tree.parents == SUPPORT_ID].tolist()


def _row(tree, node_id):
    """Array row of ``node_id``."""
    return tree.ids.tolist().index(node_id)


def _preorder(tree):
    """Rows of every first-level subtree in preorder, subtree after
    subtree, walked through the parent links."""
    kids = tree_children(tree.parents)
    return [row for root in kids.get(SUPPORT_ID, []) for row in subtree_rows(root, tree.ids, kids)]


def _assert_macro_matches_walk(tree):
    macro = tree.macro_clusters()
    protos, weights = macro_walk_reference(tree.ids, tree.parents, tree.prototypes, tree.weights)
    assert np.array_equal(macro.prototypes, protos)
    assert np.array_equal(macro.weights, weights)


def _same_rows(a, b):
    """``a`` and ``b`` hold the same rows, in any order."""
    return sorted(map(tuple, np.asarray(a))) == sorted(map(tuple, np.asarray(b)))


class TestSimilarity:
    def test_linear_in_distance(self):
        assert similarity([0, 0], [6, 0], 10.0) == pytest.approx(0.4)
        assert similarity([0, 0], [0, 0], 10.0) == pytest.approx(1.0)

    def test_beyond_diameter_goes_negative(self):
        assert similarity([0, 0], [20, 0], 10.0) == pytest.approx(-1.0)

    def test_degenerate_scale(self):
        assert similarity([1, 1], [1, 1], 0.0) == 1.0
        assert similarity([1, 1], [1, 2], 0.0) == 0.0

    def test_broadcasts_like_sq_dist(self):
        rows = np.array([[0.0, 0.0], [6.0, 0.0]])
        sims = similarity(rows[:, None, :], rows[None, :, :], 10.0)
        assert np.allclose(sims, [[1.0, 0.4], [0.4, 1.0]])


def _step(children, ant, dissim, diameter):
    """``step`` given the least child-pair similarity of the whole child
    matrix (the diagonal's 1.0 without a pair)."""
    pairs = similarity(children[:, None, :], children[None, :, :], diameter)
    return step(similarity(children, ant, diameter), dissim, pairs.min(initial=1.0))


class TestConnectAnt:
    """``step``: an ant at one node either connects there or descends."""

    def test_empty_support_connects(self):
        assert _step(_kids(), _pt(0, 0), 0.0, 0.0) == CONNECT
        tree = build_initial_tree(_window([[0.0, 0.0]]))
        assert tree.parents.tolist() == [SUPPORT_ID]
        assert np.array_equal(tree.prototypes[0], [0, 0])
        assert tree.node_count() == 1

    def test_second_child_connects(self):
        # one child is never compared: even a coincident ant connects
        for ant in [(6, 0), (0, 0)]:
            assert _step(_kids((0, 0)), _pt(*ant), 0.0, 10.0) == CONNECT
        tree = build_initial_tree(_window([[0.0, 0.0], [6.0, 0.0]]))
        assert _first_level(tree) == [1, 2]

    def test_dissimilar_ant_connects_at_full_support(self):
        # children at distance 6 with diameter 10: pairwise sim 0.4;
        # an ant 7 away from its closest child scores 0.3 < 0.4 -> connect
        assert _step(_kids((0, 0), (6, 0)), _pt(13, 0), 0.0, 10.0) == CONNECT

    def test_similar_ant_moves_toward_closest_child(self):
        children = _kids((0, 0), (6, 0))
        before = children.copy()
        assert _step(children, _pt(7, 0), 0.0, 10.0) == 1
        assert np.array_equal(children, before)

    def test_relaxed_tolerance_connects(self):
        # the same ant connects once its tolerance exceeds its similarity 0.9
        children = _kids((0, 0), (6, 0))
        assert _step(children, _pt(7, 0), 0.89, 10.0) == 1
        assert _step(children, _pt(7, 0), 0.95, 10.0) == CONNECT

    def test_full_node_moves_even_when_dissimilar(self):
        # L_MAX children 6 apart; the ant is 13 past the last one, so with
        # room it would connect at any tolerance
        children = _kids(*[(6.0 * i, 0.0) for i in range(L_MAX)])
        ant = _pt(6.0 * (L_MAX - 1) + 13.0, 0.0)
        assert _step(children[:-1], ant, 1.0, 10.0) == CONNECT
        assert _step(children, ant, 1.0, 10.0) == L_MAX - 1


def _reference_step(children, ant, dissim, diameter):
    """``step``'s comparison branch, one similarity() call at a time: the
    most similar child (ties -> lowest index) and whether the ant connects."""
    best, best_sim = -1, -np.inf
    for i, child in enumerate(children):
        s = float(similarity(ant, child, diameter))
        if s > best_sim:
            best, best_sim = i, s
    least = np.inf
    for i, a in enumerate(children):
        for b in children[i + 1 :]:
            least = min(least, float(similarity(a, b, diameter)))
    return best, len(children) < L_MAX and best_sim < max(least, dissim)


class TestChildScans:
    """``step``'s child scans against one similarity() call at a time."""

    @pytest.mark.parametrize("diameter", [10.0, 0.0])
    def test_tie_goes_to_lowest_id(self, diameter):
        children = _kids((0, 1), (1, 0), (0, -1), (0, 1))
        for query, want in [((0.0, 0.0), 0), ((0.0, 1.0), 0), ((1.0, 0.0), 1)]:
            assert _reference_step(children, _pt(*query), 0.0, diameter) == (want, False)
            assert _step(children, _pt(*query), 0.0, diameter) == want

    def test_single_child_has_no_pairs(self):
        # no pair to compare: the least pairwise similarity stays infinite,
        # so one child takes the ant at any tolerance, near or far
        for ant in [(3, 4), (0, 0), (300, 400)]:
            for dissim in (0.0, 1.0):
                assert _reference_step(_kids((3, 4)), _pt(*ant), dissim, 10.0) == (0, True)
                assert _step(_kids((3, 4)), _pt(*ant), dissim, 10.0) == CONNECT

    @pytest.mark.parametrize("dim", [2, 16])
    def test_match_loops_on_every_built_node(self, dim):
        rg = np.random.default_rng(dim)
        data = rg.normal(scale=3.0, size=(150, dim))
        tree = build_initial_tree(_window(data))
        diameter = window_scales(data)[0]
        queries = rg.normal(scale=3.0, size=(5, dim))
        checked = 0
        for nid in [SUPPORT_ID, *tree.ids.tolist()]:
            children = tree.prototypes[tree.parents == nid]
            if len(children) < 2:
                continue
            checked += 1
            for q in queries:
                for dissim in (0.0, 50 * DISSIM_RELAX):
                    best, connects = _reference_step(children, q, dissim, diameter)
                    want = CONNECT if connects else best
                    assert _step(children, q, dissim, diameter) == want
        assert checked >= 5


class TestBuild:
    def test_single_point(self):
        tree = build_initial_tree(_window([[3.0, 4.0]]))
        assert tree.node_count() == 1
        assert _first_level(tree) == [1]
        assert np.array_equal(tree.prototypes[0], [3, 4])

    def test_identical_pair(self):
        tree = build_initial_tree(_window([[1, 1], [1, 1]]))
        assert tree.node_count() == 2
        tree.validate()

    def test_every_point_housed_exactly_once(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 2))
        tree = build_initial_tree(_window(data))
        tree.validate()
        assert tree.node_count() == 30
        assert _same_rows(tree.prototypes, data)

    def test_scale_fields_set_from_first_window(self):
        data = np.array([[0.0, 0.0], [10.0, 0.0]])
        tree = build_initial_tree(_window(data))
        assert window_scales(data) == pytest.approx((10.0, 10.0))
        assert tree.base_radius == pytest.approx(10.0)

    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 4),
        duplicates=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_support_reset_moves_row_one_to_the_end(self, n, d, duplicates, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        if duplicates:
            data[:] = data[0]
        placed, walking = [], []

        def row_spy(placed_ants, ant, diameter):
            # the build takes one similarity row per ant, before its walk
            walking.append(ant)
            return similarity(placed_ants, ant, diameter)

        def spy(sims, dissim, widest):
            out = step(sims, dissim, widest)
            if out == CONNECT:
                placed.append(walking[-1])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anttree, "similarity", row_spy)
            mp.setattr(anttree, "step", spy)
            tree = build_initial_tree(_window(data))
        rows = [0, *range(2, n), 1] if n >= 3 else list(range(n))
        assert np.array_equal(np.array(placed), data[rows])
        # ids 1..n in row order, rows in preorder
        assert tree.ids.tolist() == list(range(1, n + 1))
        assert _preorder(tree) == list(range(n))
        assert _same_rows(tree.prototypes, data)
        tree.validate()

    def test_tolerance_relaxes_once_per_move(self, monkeypatch):
        # identical ants never connect at a node with two children, so each
        # descends a first-child chain that deepens every second ant; every
        # ant starts at tolerance 0, which grows by DISSIM_RELAX per move up
        # to 1.0
        seen = []

        def spy(sims, dissim, widest):
            out = step(sims, dissim, widest)
            seen.append((dissim, out))
            return out

        monkeypatch.setattr(anttree, "step", spy)
        n = 250
        build_initial_tree(_window(np.ones((n, 2))))
        want, tol = [], 0.0
        for _ in range(n):
            want.append(tol)
            tol = min(1.0, tol + DISSIM_RELAX)
        walks, walk = [], []
        for dissim, out in seen:
            walk.append(dissim)
            if out == CONNECT:
                walks.append(walk)
                walk = []
        assert len(walks) == n and not walk
        for walk in walks:
            assert walk == want[: len(walk)]
        assert max(map(max, walks)) == 1.0

    @given(
        n=st.integers(1, 120),
        d=st.integers(1, 8),
        shape=st.sampled_from(["random", "duplicates", "lattice"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walk_matches_the_recomputing_reference(self, n, d, shape, seed):
        # the build's kept least child-pair similarities against a walk that
        # rebuilds every visited node's child-pair matrix; duplicates draw
        # every row from 1-4 points, lattices tie similarities everywhere
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        if shape == "duplicates":
            data = data[rng.integers(0, rng.integers(1, min(n, 4) + 1), n)]
        elif shape == "lattice":
            data = rng.integers(-2, 3, size=(n, d)).astype(float)
        ids, parents, prototypes = ant_walk_reference(data, L_MAX, DISSIM_RELAX)
        tree = build_initial_tree(_window(data))
        assert tree.ids.tolist() == ids.tolist()
        assert tree.parents.tolist() == parents.tolist()
        assert tree.prototypes.tobytes() == prototypes.tobytes()

    @pytest.mark.parametrize("shape", ["blobs", "identical"])
    def test_walk_matches_the_reference_on_large_windows(self, shape):
        # a benchmark-sized window of overlapping blobs, whose support holds
        # hundreds of children, and the walk's longest one: identical ants
        # each descend a first-child chain
        if shape == "blobs":
            data = gen_blobs(k=4, per_blob=250, sep=3.0, stddev=1.0,
                             window_size=1000, seed=5)[0].data
        else:
            data = np.full((300, 2), 1.5)
        ids, parents, prototypes = ant_walk_reference(data, L_MAX, DISSIM_RELAX)
        tree = build_initial_tree(_window(data))
        assert tree.ids.tolist() == ids.tolist()
        assert tree.parents.tolist() == parents.tolist()
        assert tree.prototypes.tobytes() == prototypes.tobytes()

    def test_mean_nearest_neighbor_distance(self):
        data = np.array([[0.0], [1.0], [5.0]])
        # diameter 5; nearest-other distances: 1, 1, 4
        assert window_scales(data) == (5.0, pytest.approx(2.0))
        assert window_scales(np.array([[7.0]])) == (0.0, 0.0)

    def test_duplicate_rows_keep_the_distinct_spacing(self):
        # every row doubled: duplicates are no neighbours, so the spacing
        # is the undoubled window's rather than 0
        data = np.random.default_rng(5).normal(scale=3.0, size=(50, 2))
        diameter, spacing = window_scales(data)
        doubled = np.repeat(data, 2, axis=0)
        assert window_scales(doubled) == (diameter, pytest.approx(spacing, rel=1e-12))
        assert build_initial_tree(_window(doubled)).base_radius == pytest.approx(spacing)

    def test_coincident_window_has_zero_spacing(self):
        assert window_scales(np.full((6, 3), 2.5)) == (0.0, 0.0)
        assert window_scales(np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0]])) == (5.0, 5.0)

    def test_doubled_first_window_does_not_inflate_the_tree(self):
        # the same stream after a doubled and an undoubled first window: a
        # zero acceptance radius let every later point open a node (677
        # nodes against 58 over 29 windows before the fix)
        rng = np.random.default_rng(5)
        first = rng.normal(scale=3.0, size=(50, 2))
        later = [rng.normal(scale=3.0, size=(100, 2)) for _ in range(29)]
        counts = []
        for data in (first, np.repeat(first, 2, axis=0)):
            tree = build_initial_tree(_window(data))
            for window in later:
                tree.fade(0.7)
                for row in window:
                    tree.map_point(row)
                tree.fade_and_prune(0.1)
            counts.append(tree.node_count())
        plain, doubled = counts
        assert doubled <= 2 * plain

    @pytest.mark.parametrize("rows", [1, 7, 50, 512])
    def test_nearest_neighbor_blocks_match_dense(self, rows, monkeypatch):
        """One blocked pass gives the dense diameter and spacing exactly,
        with the scan budget set to ``rows``-row blocks of the 50 x 3 window
        (from 50 rows, one block)."""
        monkeypatch.setattr(core, "SCAN_ENTRIES", rows * 50 * 3)
        data = np.random.default_rng(1).normal(size=(50, 3))
        d2 = ((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
        diameter = float(np.sqrt(d2.max()))
        np.fill_diagonal(d2, np.inf)
        spacing = float(np.sqrt(d2.min(axis=1)).mean())
        assert window_scales(data) == (diameter, spacing)

    @pytest.mark.parametrize("shape", [(4000, 2), (2000, 16)])
    def test_scales_memory_stays_within_the_scan_budget(self, shape):
        # 512-row blocks peaked at 62.5 and 140.6 MiB on these windows
        data = np.random.default_rng(2).normal(size=shape)
        assert traced_peak(window_scales, data) < 4 * 2**20


class TestAggregate:
    """The build leaves every node aggregated: one point, which is its
    prototype, with no separate aggregation step."""

    def test_node_mean_and_count(self):
        data = np.random.default_rng(4).normal(size=(40, 3))
        tree = build_initial_tree(_window(data))
        assert _same_rows(tree.prototypes, data)  # the mean of one point
        assert np.all(tree.weights == 1.0)
        assert tree.ids.tolist() == list(range(1, 41))
        # the first ant is the support's first child, the first row in preorder
        assert tree.parents[0] == SUPPORT_ID
        assert np.array_equal(tree.prototypes[0], data[0])

    def test_no_raw_points_survive(self):
        data = np.random.default_rng(0).normal(size=(50, 3))
        tree = build_initial_tree(_window(data))
        assert all(len(getattr(tree, name)) == 50 for name in COLUMNS)
        assert _same_rows(tree.prototypes, data)


class TestMapPoint:
    def _two_node_tree(self):
        # base_radius 10 -> acceptance radius 40; streams straight from the build
        return build_initial_tree(_window([[0.0, 0.0], [10.0, 0.0]]))

    def test_exact_prototype_is_fixed_point(self):
        tree = self._two_node_tree()
        nid = _first_level(tree)[0]
        proto = tree.prototypes[_row(tree, nid)].copy()
        out = tree.map_point(proto.copy())
        assert not out.created
        assert out.node_id == nid
        assert out.distance == 0.0
        assert np.allclose(tree.prototypes[_row(tree, nid)], proto)

    def test_boundary_distance_is_accepted(self):
        tree = self._two_node_tree()
        radius = RADIUS_SCALE * tree.base_radius
        out = tree.map_point(_pt(-radius, 0.0))
        assert not out.created
        assert out.distance == pytest.approx(radius)

    def test_far_point_opens_support_child(self):
        tree = self._two_node_tree()
        before = tree.node_count()
        out = tree.map_point(_pt(500.0, 500.0))
        assert out.created
        assert tree.node_count() == before + 1
        row = _row(tree, out.node_id)
        assert row == before  # appended in id order
        assert tree.parents[row] == SUPPORT_ID
        assert tree.weights[row] == 1.0
        assert np.array_equal(tree.prototypes[row], [500.0, 500.0])

    def test_rejected_claims_leave_the_radius_fixed(self):
        """Far points that open nodes leave the radius of the node nearest
        them as it was: after three such claims on node 1, 100 away from it
        in three directions, a point just beyond 40 from it still opens a
        node. A running mean of claimed distances would read 77.5 there and
        absorb the point."""
        tree = self._two_node_tree()
        radius = RADIUS_SCALE * tree.base_radius
        for far in ((0.0, -100.0), (0.0, 100.0), (-100.0, 0.0)):
            out = tree.map_point(_pt(*far))
            assert out.created and out.distance == 100.0
        out = tree.map_point(_pt(-radius - 1.0, 0.0))
        assert out.created
        assert out.distance == pytest.approx(radius + 1.0)

    def test_absorption_is_running_merge(self):
        tree = self._two_node_tree()
        row = _row(tree, _first_level(tree)[0])
        tree.map_point(_pt(-2.0, 0.0))
        # running mean of (0,0) and (-2,0)
        assert np.allclose(tree.prototypes[row], [-1.0, 0.0])
        assert tree.weights[row] == 2.0

    def test_absorption_matches_gamma_one_merge(self):
        """The running mean is ``merge_prototype``'s arithmetic at gamma=1
        for a one-point batch, bit for bit, also on aged fractional masses."""
        tree = self._two_node_tree()
        tree.fade(0.7)
        for point in np.random.default_rng(3).uniform(-5.0, 5.0, size=(20, 2)):
            protos, masses = tree.prototypes.copy(), tree.weights.copy()
            out = tree.map_point(point)
            assert not out.created
            row = _row(tree, out.node_id)
            want = merge_prototype(
                protos[row : row + 1], masses[row : row + 1], point[None, :], np.ones(1), 1.0
            )
            assert np.array_equal(tree.prototypes[row], want[0])
            assert tree.weights[row] == fade_weight(masses[row], 1.0, 1.0)

    def test_dimension_mismatch(self):
        tree = self._two_node_tree()
        with pytest.raises(ValueError):
            tree.map_point(_pt(1.0, 2.0, 3.0))


@st.composite
def _mapping_case(draw):
    """(first window, later windows, gamma) on an integer lattice, so
    distances tie exactly. The first window sits on a grid of eighth units.
    Later rows are drawn, with repeats, from a small pool: first-window
    rows, rows on the sixteenth grid between them, and whole-unit rows,
    which mostly lie beyond the acceptance radius and open nodes. At unit
    MAX_ABS_VALUE / 2 the pool reaches +/-MAX_ABS_VALUE. At gamma 1 a
    one-point node moves to a midpoint, still on a lattice, so a moved
    node can tie a later row's candidate. Windows run from one row to
    several runs."""
    d = draw(st.sampled_from([1, 2, 5, 16]))
    unit = draw(st.sampled_from([1.0, MAX_ABS_VALUE / 2]))

    def lattice(lo, hi, most):
        coords = st.lists(st.integers(lo, hi), min_size=d, max_size=d)
        return np.array(draw(st.lists(coords, min_size=1, max_size=most)), dtype=float)

    first = lattice(-4, 4, 12) * (unit / 8)
    pool = np.vstack([first, lattice(-8, 8, 8) * (unit / 16), lattice(-2, 2, 4) * unit])
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3 * RUN + 5)
    windows = [pool[rows] for rows in draw(st.lists(picks, min_size=1, max_size=3))]
    return first, windows, draw(st.sampled_from([0.5, 1.0]))


class TestMapWindow:
    @given(_mapping_case(), st.sampled_from([0, 10**9]))
    def test_matches_map_point_loop(self, case, screen_min):
        """map_window leaves every column and returns every node id exactly
        as a map_point loop over the same rows, with each run's nearest
        nodes from the GEMM screen (threshold 0) or the exact matrix:
        patching ``SCREEN_MIN_COORDS`` picks only the search kernel."""
        first, windows, gamma = case
        tree, loop = build_initial_tree(_window(first)), build_initial_tree(_window(first))
        with mock.patch.object(core, "SCREEN_MIN_COORDS", screen_min):
            for block in windows:
                tree.fade(gamma)
                loop.fade(gamma)
                nodes = tree.map_window(block)
                assert nodes.dtype == np.int64
                assert nodes.tolist() == [loop.map_point(row).node_id for row in block]
                for name in COLUMNS:
                    assert np.array_equal(getattr(tree, name), getattr(loop, name)), name
                tree.fade_and_prune(0.1)
                loop.fade_and_prune(0.1)

    def test_screen_ties_take_the_exact_path(self, monkeypatch):
        """Rows equidistant from two nodes leave the screen in doubt; the
        exact matrix settles them to the lower row, as map_point does."""
        calls = []
        exact = core._nearest_exact

        def counting(protos, data):
            calls.append(len(data))
            return exact(protos, data)

        monkeypatch.setattr(core, "_nearest_exact", counting)
        monkeypatch.setattr(core, "SCREEN_MIN_COORDS", 0)
        first = [[-1.0, 0.0], [1.0, 0.0]]
        block = np.array([[0.0, 0.0], [0.0, 3.0], [0.0, -2.0]] * 3)
        tree, loop = build_initial_tree(_window(first)), build_initial_tree(_window(first))
        nodes = tree.map_window(block)
        assert nodes.tolist() == [loop.map_point(row).node_id for row in block]
        assert calls
        for name in COLUMNS:
            assert np.array_equal(getattr(tree, name), getattr(loop, name)), name

    @pytest.mark.parametrize("first, later", [(2.0, 2.4), (2.0, 2.5), (3.0, 1.75)])
    def test_moved_node_decides_a_later_row(self, first, later):
        """Nodes 1 at 0 and 2 at 4, of mass 1. A first row at 2 ties both,
        goes to node 1 and moves it to 1; the next row was nearer node 2 as
        the run started, but goes to node 1 when that is now nearer (2.4)
        or as near (2.5, the lower row wins). A first row at 3 moves node 2
        to 3.5, and a row at 1.75 then ties it and stays with node 1."""
        tree, loop = (build_initial_tree(_window([[0.0], [4.0]])) for _ in range(2))
        block = np.array([[first], [later]])
        nodes = tree.map_window(block)
        assert nodes.tolist() == [loop.map_point(row).node_id for row in block]
        assert nodes[1] == 1
        for name in COLUMNS:
            assert np.array_equal(getattr(tree, name), getattr(loop, name)), name

    def test_failing_row_claims_the_node_it_moved(self):
        """Nodes X at 0 and Y at 5, mapped through the screen (threshold 0;
        patching ``SCREEN_MIN_COORDS`` picks only the search kernel, and
        every run outlives its failing rows). The row at 3 moves Y to 4,
        which ties the next row's nearest node X, so the row at 2 fails and
        map_point gives it to X, the lower row, moving X to 1. The row at
        -1 found X at 0 as the run started and the moved X is farther from
        it, so only X's claim by the row at 2 sends it to map_point, which
        sees X where it is."""
        tree, loop = (build_initial_tree(_window([[0.0], [5.0]])) for _ in range(2))
        block = np.array([[3.0], [2.0], [-1.0]])
        with mock.patch.object(core, "SCREEN_MIN_COORDS", 0):
            nodes = tree.map_window(block)
        assert nodes.tolist() == [loop.map_point(row).node_id for row in block] == [2, 1, 1]
        for name in COLUMNS:
            assert np.array_equal(getattr(tree, name), getattr(loop, name)), name

    @pytest.mark.parametrize("d", [2, 16])
    def test_long_runs_match_map_point_loop(self, d):
        """On a tree above the run-length floor (runs of one row per 32
        nodes, through the screen) windows of repeated rows, lattice ties,
        nodes opened mid-run and rows whose node an earlier row moved leave
        every column and node id as a map_point loop does."""
        first, windows = _long_run_case(d)
        tree, loop = build_initial_tree(_window(first)), build_initial_tree(_window(first))
        seen = {"repeat": 0, "tie": 0, "opened mid-run": 0, "moved node": 0}
        for block in windows:
            tree.fade(0.5)
            loop.fade(0.5)
            length = tree.node_count() // 32
            assert length > RUN and tree.prototypes.size >= core.SCREEN_MIN_COORDS
            nodes = tree.map_window(block)
            want = []
            for i, row in enumerate(block):
                d2 = ((loop.prototypes - row) ** 2).sum(axis=1)
                seen["tie"] += int(np.count_nonzero(d2 == d2.min()) > 1)
                out = loop.map_point(row)
                seen["opened mid-run"] += out.created and i % length < length - 1
                want.append(out.node_id)
            start = np.arange(len(block)) // length * length
            same = [np.flatnonzero((block == row).all(axis=1)) for row in block]
            seen["repeat"] += sum(len(rows) > 1 for rows in same)
            seen["moved node"] += sum(
                np.any((np.asarray(want[s:i]) == want[i])) for i, s in enumerate(start))
            assert nodes.tolist() == want
            for name in COLUMNS:
                assert np.array_equal(getattr(tree, name), getattr(loop, name)), name
            tree.fade_and_prune(0.1)
            loop.fade_and_prune(0.1)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("rows", [1100, 100])
    def test_one_search_per_run_and_one_map_point_per_failing_row(self, rows):
        """Every run of ``max(RUN, node_count // 32)`` rows makes exactly one
        search, on a screened tree (1,100 nodes) and below the screen (100
        nodes at d = 2) alike, and map_point maps exactly the rows whose run
        speculation fails: a row that opens a node, or one an earlier row of
        its run reaches by changing its node or leaving a node at least as
        near."""
        first, windows = _long_run_case(2, rows)
        tree = build_initial_tree(_window(first))
        screened = tree.prototypes.size >= core.SCREEN_MIN_COORDS
        assert screened == (rows == 1100)
        searches, mapped = [], []
        search, map_point = anttree.nearest_sq, TreeSynopsis.map_point

        def counting_search(protos, data):
            searches.append(len(data))
            return search(protos, data)

        def recording(self, point):
            mapped.append(point.copy())
            return map_point(self, point)

        for block in windows:
            tree.fade(0.5)
            length = max(RUN, tree.node_count() // 32)
            want, runs = _failing_rows(tree, block, length)
            searches.clear()
            mapped.clear()
            with mock.patch.object(anttree, "nearest_sq", counting_search), \
                    mock.patch.object(TreeSynopsis, "map_point", recording):
                tree.map_window(block)
            assert len(searches) == runs == -(-len(block) // length)
            assert np.array_equal(np.array(mapped).reshape(-1, 2), block[want])
            assert 0 < len(want) < len(block)
            tree.fade_and_prune(0.1)

    def test_dimension_mismatch(self):
        tree = build_initial_tree(_window([[0.0, 0.0], [10.0, 0.0]]))
        with pytest.raises(ValueError):
            tree.map_window(np.array([[1.0, 2.0, 3.0]]))


def _long_run_case(d, rows=None):
    """(first window, later windows) for the long-run tests. At d = 2 the
    first window is ``rows`` points of the unit lattice (by default 1,100,
    above the run-length floor), at d = 16 600 distinct lattice points with
    coordinates -2..2; its last two rows are an outpost, nodes a and b one unit apart,
    far from the rest. Each later window draws, with repeats, from
    first-window rows, rows halfway between two of them (exact ties) and
    rows a quarter of the way. It holds a far row followed by rows beside
    it, so a node opens mid-run and later rows of its run go to it; a far
    row in another direction, which no earlier row reaches; and a row just
    beyond a's acceptance radius, then a's own point, which a absorbs
    although a was that row's nearest node (opening a node claims none),
    then a row that b absorbs as the run starts but that goes to the new
    node, nearer to it than b (on one side of the outpost in windows 0 and
    2, the other in window 1)."""
    rng = np.random.default_rng(d)
    if d == 2:
        rows = rows or 1100
        side = int(np.ceil(np.sqrt(rows)))
        cloud = np.indices((side, side)).reshape(2, -1).T[: rows - 2].astype(float)
    else:
        cloud = np.unique(rng.integers(-2, 3, size=(700, d)), axis=0)[:598].astype(float)
    step = np.eye(d)
    first = np.vstack([cloud, np.full(d, -300.0), np.full(d, -300.0) + step[1]])
    base = window_scales(first)[1]
    reach = RADIUS_SCALE * base
    u, v = first[rng.integers(0, len(cloud), 40)], first[rng.integers(0, len(cloud), 40)]
    pool = np.vstack([first[rng.integers(0, len(cloud), 40)], (u + v) / 2, (3 * u + v) / 4])
    windows = []
    for w in range(3):
        block = pool[rng.integers(0, len(pool), 100)]
        far = np.full(d, 1000.0 * (w + 1))
        block[5] = far
        block[9:12] = far + 0.5
        block[12] = block[6]
        block[15] = far * (-1) ** np.arange(d)
        side = step[0] if w == 1 else -step[0]
        block[20] = first[-2] + (reach + base / 2) * side
        block[22] = first[-2]
        block[25] = first[-1] + 0.9 * reach * side
        windows.append(block)
    return first, windows


def _failing_rows(tree, block, length):
    """(rows of ``block`` whose run speculation fails, number of runs),
    replayed on a copy of ``tree`` by a map_point loop: each run's nearest
    rows and squared distances are taken when the run starts; a row fails
    when it lies beyond the acceptance radius of its node there, or when an
    earlier row of its run moved its node or left a node (moved or new) no
    farther from it than its node."""
    tree = copy.deepcopy(tree)
    radius = RADIUS_SCALE * tree.base_radius
    failing, runs = [], 0
    for start in range(0, len(block), length):
        run = block[start : start + length]
        runs += 1
        d2 = ((run[:, None, :] - tree.prototypes[None, :, :]) ** 2).sum(axis=-1)
        rows, near = d2.argmin(axis=1), d2.min(axis=1)
        changes = []  # (moved node's row or None, the node's prototype) per earlier row
        for j, row in enumerate(run):
            reached = any(claimed == rows[j] or ((row - pos) ** 2).sum() <= near[j]
                          for claimed, pos in changes)
            fails = reached or np.sqrt(near[j]) > radius
            if fails:
                failing.append(start + j)
            claimed = int(((tree.prototypes - row) ** 2).sum(axis=1).argmin())
            out = tree.map_point(row)
            if out.created:
                changes.append((None, tree.prototypes[-1].copy()))
            else:
                changes.append((claimed, tree.prototypes[claimed].copy()))
    return failing, runs


class TestWindowTick:
    def test_fade_ages_every_mass(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        tree.fade(0.7)
        assert np.allclose(tree.weights, 0.7)

    def test_decay_at_gamma_one_is_noop(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        tree.fade(1.0)
        assert np.all(tree.weights == 1.0)

    def test_prune_does_not_fade(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        tree.weights[:] = [0.5, 3.0]
        assert tree.fade_and_prune(threshold=0.0) == 0
        assert tree.weights.tolist() == [0.5, 3.0]

    @pytest.mark.parametrize("gamma", [0.7, 1.0])
    def test_window_mass_is_faded_previous_plus_absorbed(self, gamma):
        """After a window each surviving node's mass is gamma * its mass
        before the window + the points ``map_point`` gave it (a new node's
        previous mass is 0), counted from the outcomes."""
        rng = np.random.default_rng(11)
        tree = build_initial_tree(_window(rng.normal(scale=3.0, size=(60, 2))))
        opened = 0
        for w in range(1, 6):
            before = dict(zip(tree.ids.tolist(), tree.weights.tolist()))
            taken = {}
            tree.fade(gamma)
            for row in rng.normal(scale=3.0, size=(80, 2)) + 3.0 * w:
                out = tree.map_point(row)
                taken[out.node_id] = taken.get(out.node_id, 0) + 1
                opened += out.created
            tree.fade_and_prune(0.1)
            for nid, mass in zip(tree.ids.tolist(), tree.weights.tolist()):
                want = gamma * before.get(nid, 0.0) + taken.get(nid, 0)
                assert mass == pytest.approx(want, rel=1e-12)
        assert opened > 0

    def test_starved_leaf_pruned_inner_node_waits(self):
        # chain support -> x -> y, both starving: y goes first, x is spared
        # as the last remaining node
        tree = TreeSynopsis(2)
        x = _node(tree, SUPPORT_ID, 0, 0, weight=0.01)
        y = _node(tree, x, 1, 1, weight=0.01)
        removed = tree.fade_and_prune(threshold=0.1)
        assert removed == 1
        assert tree.ids.tolist() == [x]
        tree.validate()
        assert y not in tree.ids

    def test_prune_cascades_up_a_starved_chain(self):
        tree = TreeSynopsis(2)
        keep = _node(tree, SUPPORT_ID, 9, 9, weight=5.0)
        x = _node(tree, SUPPORT_ID, 0, 0, weight=0.01)
        _node(tree, x, 1, 1, weight=0.01)
        assert tree.fade_and_prune(threshold=0.1) == 2
        assert tree.ids.tolist() == [keep]

    def test_last_node_spared_prefers_heavier(self):
        tree = TreeSynopsis(2)
        _node(tree, SUPPORT_ID, 0, 0, weight=0.01)
        b = _node(tree, SUPPORT_ID, 5, 5, weight=0.02)
        tree.fade_and_prune(threshold=1.0)
        assert tree.ids.tolist() == [b]

    def test_last_node_tie_spares_lowest_id(self):
        tree = TreeSynopsis(2)
        a = _node(tree, SUPPORT_ID, 0, 0, weight=0.01)
        _node(tree, SUPPORT_ID, 5, 5, weight=0.01)
        tree.fade_and_prune(threshold=1.0)
        assert tree.ids.tolist() == [a]

    def test_empty_tree_prunes_nothing(self):
        assert TreeSynopsis(2).fade_and_prune(threshold=1.0) == 0


class TestMacroClusters:
    def test_mass_weighted_subtree_mean(self):
        tree = TreeSynopsis(2)
        a = _node(tree, SUPPORT_ID, 0, 0)
        _node(tree, a, 2, 2, weight=3.0)
        macro = tree.macro_clusters()
        assert macro.k == 1
        assert np.allclose(macro.prototypes[0], [1.5, 1.5])
        assert macro.weights[0] == 4.0

    def test_one_cluster_per_first_level_subtree(self):
        tree = TreeSynopsis(2)
        for i in range(3):
            _node(tree, SUPPORT_ID, float(i), 0.0)
        assert tree.macro_clusters().k == 3

    def test_subtrees_follow_their_roots(self):
        # support -> 1, 4; 1 -> 2; 2 -> 3; 4 -> 5: each subtree is one run
        tree = TreeSynopsis(1)
        for parent, x in [(0, 0.0), (1, 2.0), (2, 4.0), (0, 10.0), (4, 12.0)]:
            _node(tree, parent, x)
        tree.validate()
        assert _preorder(tree) == [0, 1, 2, 3, 4]
        macro = tree.macro_clusters()
        assert np.allclose(macro.prototypes[:, 0], [2.0, 11.0])
        assert macro.weights.tolist() == [3.0, 2.0]
        _assert_macro_matches_walk(tree)

    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_runs_match_the_subtree_walk_while_streaming(self, dim):
        """Bit for bit against the preorder walk after the build and after
        every window of a drifting stream that opens and prunes nodes."""
        rng = np.random.default_rng(dim)
        tree = build_initial_tree(_window(rng.normal(scale=3.0, size=(120, dim))))
        assert np.any(tree.parents != SUPPORT_ID)  # subtrees below the first level
        _assert_macro_matches_walk(tree)
        opened = pruned = 0
        for w in range(1, 8):
            tree.fade(0.7)
            for row in rng.normal(scale=3.0, size=(80, dim)) + 4.0 * w:
                opened += tree.map_point(row).created
            pruned += tree.fade_and_prune(0.5)
            tree.validate()
            _assert_macro_matches_walk(tree)
        assert opened > 0 and pruned > 0

    def test_zero_total_count_falls_back_to_plain_mean(self):
        tree = TreeSynopsis(2)
        _node(tree, SUPPORT_ID, 4, 0)
        tree.weights[0] = 0.0
        macro = tree.macro_clusters()
        assert np.allclose(macro.prototypes[0], [4, 0])

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            TreeSynopsis(2).macro_clusters()


class TestValidate:
    def _chain(self):
        tree = TreeSynopsis(2)
        x = _node(tree, SUPPORT_ID, 0, 0)
        y = _node(tree, x, 1, 0)
        _node(tree, y, 2, 0)
        return tree

    def test_chain_is_valid(self):
        self._chain().validate()

    def test_detects_double_parent(self):
        tree = self._chain()
        tree.ids[:] = [1, 2, 2]  # node 2 listed twice, under 1 and under 2
        with pytest.raises(AssertionError, match="increasing"):
            tree.validate()

    def test_detects_orphan(self):
        tree = self._chain()
        tree._drop([1])  # the middle node goes, its child's parent is gone
        with pytest.raises(AssertionError, match="orphan"):
            tree.validate()

    def test_detects_parent_after_child(self):
        tree = self._chain()
        tree.parents[0] = 3  # a cycle 1 -> 3 -> 2 -> 1
        with pytest.raises(AssertionError, match="orphan"):
            tree.validate()

    def test_detects_unordered_ids(self):
        tree = self._chain()
        tree.ids[:] = [1, 3, 2]
        with pytest.raises(AssertionError, match="increasing"):
            tree.validate()

    def test_detects_interleaved_subtrees(self):
        # support -> 1, 2; 1 -> 3; 2 -> 4; 3 -> 5: node 3 sits in node 2's run
        tree = TreeSynopsis(1)
        for parent, x in [(0, 0.0), (0, 10.0), (1, 2.0), (2, 12.0), (3, 4.0)]:
            _node(tree, parent, x)
        with pytest.raises(AssertionError, match=r"nodes \[3\] lie outside"):
            tree.validate()

    def test_detects_ragged_column(self):
        tree = self._chain()
        tree.weights = tree.weights[:2]
        with pytest.raises(AssertionError, match="weights"):
            tree.validate()

    def test_detects_fanout_violation(self):
        tree = TreeSynopsis(2)
        x = _node(tree, SUPPORT_ID, 0, 0)
        for i in range(L_MAX):
            _node(tree, x, 1, i)
        tree.validate()
        _node(tree, x, 1, L_MAX)
        with pytest.raises(AssertionError, match="fan-out"):
            tree.validate()

    def test_support_fanout_is_unbounded(self):
        _fan([(i, 0) for i in range(L_MAX + 2)]).validate()


class TestAdversarial:
    def test_identical_points_terminate(self):
        data = np.ones((500, 2))
        start = time.monotonic()
        tree = build_initial_tree(_window(data))
        assert time.monotonic() - start < 10.0
        tree.validate()
        assert _same_rows(tree.prototypes, data)

    def test_distinct_grid_terminates(self):
        g = np.linspace(0.0, 1.0, 500)
        data = np.column_stack([g, g * 2.0])
        start = time.monotonic()
        tree = build_initial_tree(_window(data))
        assert time.monotonic() - start < 10.0
        tree.validate()
        assert tree.node_count() == 500
        assert _same_rows(tree.prototypes, data)

    def test_interleaved_blobs_terminate(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=0.0, scale=0.5, size=(250, 2))
        b = rng.normal(loc=3.0, scale=0.5, size=(250, 2))
        data = np.empty((500, 2))
        data[0::2] = a
        data[1::2] = b
        start = time.monotonic()
        tree = build_initial_tree(_window(data))
        assert time.monotonic() - start < 10.0
        tree.validate()
        assert _same_rows(tree.prototypes, data)


# ---------------------------------------------------------------------------
# property: the arrays stay one row per node through build, map and prune


@st.composite
def _streams(draw):
    """Four windows (build + 3 streamed) of 1-60 rows, d 1-4, with duplicate
    rows and constant features mixed in."""
    dim = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 60), min_size=4, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 10.0])), size=(sum(sizes), dim))
    if draw(st.booleans()):  # duplicates: draw every row from a small pool
        data = data[rng.integers(0, max(1, len(data) // 4), len(data))]
    if draw(st.booleans()):
        data[:, draw(st.integers(0, dim - 1))] = 3.0
    if draw(st.booleans()):  # a drifting stream opens nodes every window
        data += np.repeat(np.arange(4), sizes)[:, None] * 5.0
    windows = np.split(data, np.cumsum(sizes)[:-1])
    return (
        windows,
        draw(st.sampled_from([0.5, 0.7, 1.0])),
        draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])),
    )


def _check_rows(tree):
    tree.validate()
    n = tree.node_count()
    assert n >= 1
    assert all(len(getattr(tree, name)) == n for name in COLUMNS)
    assert np.isfinite(tree.prototypes).all()
    below = tree.parents[tree.parents != SUPPORT_ID]
    assert np.bincount(below).max(initial=0) <= L_MAX


@given(_streams())
def test_arrays_stay_one_row_per_node(stream):
    windows, gamma, threshold = stream
    tree = build_initial_tree(_window(windows[0]))
    _check_rows(tree)
    assert tree.node_count() == len(windows[0])
    assert _same_rows(tree.prototypes, windows[0])
    start, created, pruned = tree.node_count(), 0, 0
    for rows in windows[1:]:
        tree.fade(gamma)
        for row in rows:
            created += tree.map_point(row).created
            _check_rows(tree)
        pruned += tree.fade_and_prune(threshold)
        _check_rows(tree)
        _assert_macro_matches_walk(tree)
        assert tree.node_count() == start + created - pruned
