"""Tree synopsis: ant-style construction, aggregation, and streaming updates."""

import time

import numpy as np
import pytest

from mostream.core import WindowBatch
from mostream.anttree import (
    RADIUS_SCALE,
    SUPPORT_ID,
    Connected,
    Moved,
    ResetToSupport,
    Thresholds,
    TreeSynopsis,
    build_initial_tree,
    mean_nearest_neighbor_distance,
)


def _pt(*coords):
    return np.array(coords, dtype=float)


def _window(rows, wid=0):
    return WindowBatch(np.asarray(rows, dtype=float), wid)


class TestThresholds:
    def test_relax_moves_both_bounds(self):
        t = Thresholds()
        t.relax()
        assert t.sim == pytest.approx(0.9)
        assert t.dissim == pytest.approx(0.01)

    def test_dissim_saturates_at_one(self):
        t = Thresholds(dissim=0.999)
        for _ in range(10):
            t.relax()
        assert t.dissim == 1.0


class TestSimilarity:
    def test_linear_in_distance(self):
        tree = TreeSynopsis(2)
        tree.sim_scale = 10.0
        assert tree.similarity([0, 0], [6, 0]) == pytest.approx(0.4)
        assert tree.similarity([0, 0], [0, 0]) == pytest.approx(1.0)

    def test_beyond_diameter_goes_negative(self):
        tree = TreeSynopsis(2)
        tree.sim_scale = 10.0
        assert tree.similarity([0, 0], [20, 0]) == pytest.approx(-1.0)

    def test_degenerate_scale(self):
        tree = TreeSynopsis(2)
        assert tree.similarity([1, 1], [1, 1]) == 1.0
        assert tree.similarity([1, 1], [1, 2]) == 0.0


class TestConnectAnt:
    def test_empty_support_connects(self):
        tree = TreeSynopsis(2)
        out = tree.connect_ant(_pt(0, 0), SUPPORT_ID, Thresholds())
        assert isinstance(out, Connected)
        assert tree.nodes[out.node_id].parent == SUPPORT_ID
        assert np.allclose(tree.nodes[out.node_id].points[0], [0, 0])
        assert tree.node_count() == 1

    def test_second_child_connects(self):
        tree = TreeSynopsis(2)
        tree.connect_ant(_pt(0, 0), SUPPORT_ID, Thresholds())
        out = tree.connect_ant(_pt(6, 0), SUPPORT_ID, Thresholds())
        assert isinstance(out, Connected)
        assert len(tree.support.children) == 2

    def test_support_reset_fires_once(self):
        tree = TreeSynopsis(2)
        tree.sim_scale = 10.0
        tree.connect_ant(_pt(0, 0), SUPPORT_ID, Thresholds())
        tree.connect_ant(_pt(6, 0), SUPPORT_ID, Thresholds())
        out = tree.connect_ant(_pt(1, 0), SUPPORT_ID, Thresholds())
        assert isinstance(out, ResetToSupport)
        # the second subtree was displaced, the new ant took its place
        displaced = [tuple(p) for p in out.displaced]
        assert displaced == [(6.0, 0.0)]
        assert tree.support_reset_done
        assert len(tree.support.children) == 2

    def test_dissimilar_ant_connects_at_full_support(self):
        # children at distance 6 with diameter 10: pairwise sim 0.4;
        # an ant 7 away from its closest child scores 0.3 < 0.4 -> connect
        tree = TreeSynopsis(2)
        tree.sim_scale = 10.0
        tree.support_reset_done = True
        tree.connect_ant(_pt(0, 0), SUPPORT_ID, Thresholds())
        tree.connect_ant(_pt(6, 0), SUPPORT_ID, Thresholds())
        out = tree.connect_ant(_pt(13, 0), SUPPORT_ID, Thresholds())
        assert isinstance(out, Connected)
        assert len(tree.support.children) == 3

    def test_similar_ant_moves_toward_closest_child(self):
        tree = TreeSynopsis(2)
        tree.sim_scale = 10.0
        tree.support_reset_done = True
        a = tree.connect_ant(_pt(0, 0), SUPPORT_ID, Thresholds())
        b = tree.connect_ant(_pt(6, 0), SUPPORT_ID, Thresholds())
        th = Thresholds()
        out = tree.connect_ant(_pt(7, 0), SUPPORT_ID, th)
        assert isinstance(out, Moved)
        assert out.node_id == b.node_id
        assert th.sim == pytest.approx(0.9)
        assert th.dissim == pytest.approx(0.01)
        assert a.node_id in tree.support.children

    def test_connect_after_aggregate_rejected(self):
        tree = build_initial_tree(_window([[0, 0], [5, 5]]))
        tree.aggregate()
        with pytest.raises(RuntimeError):
            tree.connect_ant(_pt(1, 1), SUPPORT_ID, Thresholds())


def _loop_most_similar(tree, pos, coords):
    """Child scan one similarity() call at a time, ties -> lowest id."""
    best_id, best_sim = -1, -np.inf
    for cid in tree.nodes[pos].children:
        s = tree.similarity(coords, tree.nodes[cid].anchor())
        if s > best_sim or (s == best_sim and cid < best_id):
            best_id, best_sim = cid, s
    return best_id, best_sim


def _loop_min_pairwise(tree, pos):
    anchors = [tree.nodes[c].anchor() for c in tree.nodes[pos].children]
    best = np.inf
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            best = min(best, tree.similarity(anchors[i], anchors[j]))
    return best


class TestChildScans:
    def _fan(self, anchors, sim_scale):
        """Support children at ``anchors``, listed in reverse id order."""
        tree = TreeSynopsis(2)
        tree.sim_scale = sim_scale
        for row in anchors:
            tree._new_node(SUPPORT_ID).points = [_pt(*row)]
        tree.support.children.reverse()
        return tree

    @pytest.mark.parametrize("sim_scale", [10.0, 0.0])
    def test_tie_goes_to_lowest_id(self, sim_scale):
        tree = self._fan([(0, 1), (1, 0), (0, -1), (0, 1)], sim_scale)
        for query in [(0.0, 0.0), (0.0, 1.0), (5.0, 5.0)]:
            got = tree._most_similar_child(SUPPORT_ID, _pt(*query))
            assert got == _loop_most_similar(tree, SUPPORT_ID, _pt(*query))
        assert tree._most_similar_child(SUPPORT_ID, _pt(0.0, 0.0))[0] == 1
        assert tree._min_pairwise_child_sim(SUPPORT_ID) == _loop_min_pairwise(
            tree, SUPPORT_ID)

    def test_single_child_has_no_pairs(self):
        tree = self._fan([(3, 4)], 10.0)
        assert tree._min_pairwise_child_sim(SUPPORT_ID) == np.inf
        assert tree._most_similar_child(SUPPORT_ID, _pt(0.0, 0.0)) == (1, 0.5)

    @pytest.mark.parametrize("dim", [2, 16])
    def test_match_loops_on_every_built_node(self, dim):
        rg = np.random.default_rng(dim)
        data = rg.normal(scale=3.0, size=(150, dim))
        tree = build_initial_tree(_window(data))
        queries = rg.normal(scale=3.0, size=(5, dim))
        checked = 0
        for nid, node in tree.nodes.items():
            if len(node.children) < 2:
                continue
            checked += 1
            for q in queries:
                assert tree._most_similar_child(nid, q) == _loop_most_similar(tree, nid, q)
            assert tree._min_pairwise_child_sim(nid) == _loop_min_pairwise(tree, nid)
        assert checked >= 5


class TestBuild:
    def test_single_point(self):
        tree = build_initial_tree(_window([[3.0, 4.0]]))
        assert tree.node_count() == 1
        only = tree.nodes[tree.first_level()[0]]
        assert np.allclose(only.points[0], [3, 4])

    def test_identical_pair(self):
        tree = build_initial_tree(_window([[1, 1], [1, 1]]))
        assert tree.node_count() == 2
        tree.validate()

    def test_every_point_housed_exactly_once(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 2))
        tree = build_initial_tree(_window(data))
        tree.validate()
        housed = []
        for nid, node in tree.nodes.items():
            if nid == SUPPORT_ID:
                assert not node.points
                continue
            assert node.points and len(node.points) == 1
            housed.append(tuple(node.points[0]))
        assert sorted(housed) == sorted(map(tuple, data))
        assert tree.node_count() == 30

    def test_scale_fields_set_from_first_window(self):
        data = np.array([[0.0, 0.0], [10.0, 0.0]])
        tree = build_initial_tree(_window(data))
        assert tree.sim_scale == pytest.approx(10.0)
        assert tree.base_radius == pytest.approx(10.0)

    def test_mean_nearest_neighbor_distance(self):
        data = np.array([[0.0], [1.0], [5.0]])
        # nearest-other distances: 1, 1, 4
        assert mean_nearest_neighbor_distance(data) == pytest.approx(2.0)
        assert mean_nearest_neighbor_distance(np.array([[7.0]])) == 0.0

    @pytest.mark.parametrize("block", [7, 50, 512])
    def test_nearest_neighbor_blocks_match_dense(self, block):
        data = np.random.default_rng(1).normal(size=(50, 3))
        d2 = ((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(d2, np.inf)
        want = float(np.sqrt(d2.min(axis=1)).mean())
        assert mean_nearest_neighbor_distance(data, block) == want


class TestAggregate:
    def test_node_mean_and_count(self):
        tree = TreeSynopsis(2)
        tree.base_radius = 1.5
        node = tree._new_node(SUPPORT_ID)
        node.points = [_pt(0, 0), _pt(2, 2)]
        tree.aggregate()
        assert np.allclose(node.prototype, [1, 1])
        assert node.count == 2.0
        assert node.weight == 2.0
        assert node.points is None
        assert node.radius_sum == pytest.approx(1.5)
        assert node.radius_n == 1

    def test_idempotent(self):
        tree = build_initial_tree(_window([[0, 0], [4, 4]]))
        tree.aggregate()
        before = {nid: n.prototype.copy() for nid, n in tree.nodes.items() if nid}
        tree.aggregate()
        for nid, proto in before.items():
            assert np.array_equal(tree.nodes[nid].prototype, proto)

    def test_no_raw_points_survive(self):
        rng = np.random.default_rng(0)
        tree = build_initial_tree(_window(rng.normal(size=(50, 3))))
        tree.aggregate()
        assert all(node.points is None for node in tree.nodes.values())


class TestMapPoint:
    def _two_node_tree(self):
        # base_radius 10 -> acceptance floor 40
        tree = build_initial_tree(_window([[0.0, 0.0], [10.0, 0.0]]))
        tree.aggregate()
        return tree

    def test_requires_aggregation(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        with pytest.raises(RuntimeError):
            tree.map_point(_pt(0, 0))

    def test_exact_prototype_is_fixed_point(self):
        tree = self._two_node_tree()
        nid = tree.first_level()[0]
        proto = tree.nodes[nid].prototype.copy()
        out = tree.map_point(proto.copy())
        assert not out.created
        assert out.node_id == nid
        assert out.distance == 0.0
        assert np.allclose(tree.nodes[nid].prototype, proto)

    def test_boundary_distance_is_accepted(self):
        tree = self._two_node_tree()
        floor = RADIUS_SCALE * tree.base_radius
        out = tree.map_point(_pt(-floor, 0.0))
        assert not out.created
        assert out.distance == pytest.approx(floor)

    def test_far_point_opens_support_child(self):
        tree = self._two_node_tree()
        before = tree.node_count()
        out = tree.map_point(_pt(500.0, 500.0))
        assert out.created
        assert tree.node_count() == before + 1
        fresh = tree.nodes[out.node_id]
        assert fresh.parent == SUPPORT_ID
        assert fresh.weight == 0.0
        assert fresh.count == 1.0
        assert fresh.absorbed_this_window == 1.0

    def test_rejected_claim_still_widens_radius(self):
        tree = self._two_node_tree()
        nid = tree.first_level()[0]
        node = tree.nodes[nid]
        n_before, sum_before = node.radius_n, node.radius_sum
        out = tree.map_point(_pt(-100.0, 0.0))
        assert out.created
        assert node.radius_n == n_before + 1
        assert node.radius_sum == pytest.approx(sum_before + 100.0)

    def test_absorption_is_running_merge(self):
        tree = self._two_node_tree()
        nid = tree.first_level()[0]
        node = tree.nodes[nid]
        tree.map_point(_pt(-2.0, 0.0))
        # running mean of (0,0) and (-2,0)
        assert np.allclose(node.prototype, [-1.0, 0.0])
        assert node.count == 2.0

    def test_dimension_mismatch(self):
        tree = self._two_node_tree()
        with pytest.raises(ValueError):
            tree.map_point(_pt(1.0, 2.0, 3.0))


class TestWindowTick:
    def test_decay_counts(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        tree.aggregate()
        tree.decay_counts(0.7)
        assert all(
            n.count == pytest.approx(0.7)
            for nid, n in tree.nodes.items()
            if nid != SUPPORT_ID
        )

    def test_decay_at_gamma_one_is_noop(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        tree.aggregate()
        tree.decay_counts(1.0)
        assert all(
            n.count == 1.0
            for nid, n in tree.nodes.items()
            if nid != SUPPORT_ID
        )

    def test_fade_folds_absorbed_and_resets(self):
        tree = build_initial_tree(_window([[0, 0], [10, 0]]))
        tree.aggregate()
        nid = tree.first_level()[0]
        tree.nodes[nid].absorbed_this_window = 3.0
        tree.fade_and_prune(0.7, threshold=0.0)
        assert tree.nodes[nid].weight == pytest.approx(0.7 * 1.0 + 3.0)
        assert tree.nodes[nid].absorbed_this_window == 0.0

    def test_starved_leaf_pruned_inner_node_waits(self):
        # chain support -> x -> y, both starving: y goes first, x is spared
        # as the last remaining node
        tree = TreeSynopsis(2)
        tree.base_radius = 1.0
        x = tree._new_node(SUPPORT_ID)
        y = tree._new_node(x.node_id)
        x.points = [_pt(0, 0)]
        y.points = [_pt(1, 1)]
        tree.aggregate()
        x.weight = 0.01
        y.weight = 0.01
        removed = tree.fade_and_prune(0.7, threshold=0.1)
        assert removed == 1
        assert y.node_id not in tree.nodes
        assert x.node_id in tree.nodes
        tree.validate()

    def test_last_node_spared_prefers_heavier(self):
        tree = TreeSynopsis(2)
        tree.base_radius = 1.0
        a = tree._new_node(SUPPORT_ID)
        b = tree._new_node(SUPPORT_ID)
        a.points = [_pt(0, 0)]
        b.points = [_pt(5, 5)]
        tree.aggregate()
        a.weight = 0.01
        b.weight = 0.02
        tree.fade_and_prune(0.7, threshold=1.0)
        assert set(tree.nodes) == {SUPPORT_ID, b.node_id}

    def test_last_node_tie_spares_lowest_id(self):
        tree = TreeSynopsis(2)
        tree.base_radius = 1.0
        a = tree._new_node(SUPPORT_ID)
        b = tree._new_node(SUPPORT_ID)
        a.points = [_pt(0, 0)]
        b.points = [_pt(5, 5)]
        tree.aggregate()
        a.weight = 0.01
        b.weight = 0.01
        tree.fade_and_prune(0.7, threshold=1.0)
        assert set(tree.nodes) == {SUPPORT_ID, a.node_id}


class TestNeighbors:
    def _chain(self):
        tree = TreeSynopsis(2)
        x = tree._new_node(SUPPORT_ID)
        y = tree._new_node(x.node_id)
        z = tree._new_node(y.node_id)
        return tree, x, y, z

    def test_middle_sees_parent_and_child(self):
        tree, x, y, z = self._chain()
        assert tree.neighbors(y.node_id) == {x.node_id, z.node_id}

    def test_support_child_omits_support(self):
        tree, x, y, z = self._chain()
        assert tree.neighbors(x.node_id) == {y.node_id}

    def test_leaf_sees_parent_only(self):
        tree, x, y, z = self._chain()
        assert tree.neighbors(z.node_id) == {y.node_id}

    def test_support_query_rejected(self):
        tree, *_ = self._chain()
        with pytest.raises(ValueError):
            tree.neighbors(SUPPORT_ID)

    def test_unknown_node_rejected(self):
        tree, *_ = self._chain()
        with pytest.raises(ValueError):
            tree.neighbors(999)

    def test_symmetry_on_built_tree(self):
        rng = np.random.default_rng(11)
        tree = build_initial_tree(_window(rng.normal(size=(60, 2))))
        ids = [nid for nid in tree.nodes if nid != SUPPORT_ID]
        for a in ids:
            for b in tree.neighbors(a):
                assert a in tree.neighbors(b)


class TestMacroClusters:
    def test_requires_aggregation(self):
        tree = build_initial_tree(_window([[0, 0], [9, 9]]))
        with pytest.raises(RuntimeError):
            tree.macro_clusters()

    def test_count_weighted_subtree_mean(self):
        tree = TreeSynopsis(2)
        tree.base_radius = 1.0
        a = tree._new_node(SUPPORT_ID)
        b = tree._new_node(a.node_id)
        a.points = [_pt(0, 0)]
        b.points = [_pt(2, 2)]
        tree.aggregate()
        a.count = 1.0
        b.count = 3.0
        macro = tree.macro_clusters()
        assert macro.k == 1
        assert np.allclose(macro.prototypes[0], [1.5, 1.5])
        assert macro.counts[0] == 4.0

    def test_one_cluster_per_first_level_subtree(self):
        tree = TreeSynopsis(2)
        tree.base_radius = 1.0
        for i in range(3):
            node = tree._new_node(SUPPORT_ID)
            node.points = [_pt(float(i), 0.0)]
        tree.aggregate()
        assert tree.macro_clusters().k == 3

    def test_zero_total_count_falls_back_to_plain_mean(self):
        tree = TreeSynopsis(2)
        tree.base_radius = 1.0
        a = tree._new_node(SUPPORT_ID)
        a.points = [_pt(4, 0)]
        tree.aggregate()
        a.count = 0.0
        macro = tree.macro_clusters()
        assert np.allclose(macro.prototypes[0], [4, 0])

    def test_empty_tree_rejected(self):
        tree = TreeSynopsis(2)
        tree.aggregated = True
        with pytest.raises(ValueError):
            tree.macro_clusters()


class TestValidate:
    def test_detects_double_parent(self):
        tree, x, y, z = TestNeighbors()._chain()
        tree.nodes[x.node_id].children.append(z.node_id)
        with pytest.raises(AssertionError):
            tree.validate()

    def test_detects_orphan(self):
        tree, x, y, z = TestNeighbors()._chain()
        tree.nodes[y.node_id].children.remove(z.node_id)
        with pytest.raises(AssertionError):
            tree.validate()

    def test_detects_fanout_violation(self):
        tree = TreeSynopsis(2, l_max=2)
        x = tree._new_node(SUPPORT_ID)
        for _ in range(3):
            tree._new_node(x.node_id)
        with pytest.raises(AssertionError):
            tree.validate()


class TestAdversarial:
    def test_identical_points_terminate(self):
        data = np.ones((500, 2))
        start = time.monotonic()
        tree = build_initial_tree(_window(data))
        assert time.monotonic() - start < 10.0
        tree.validate()
        housed = sum(len(n.points) for nid, n in tree.nodes.items() if nid)
        assert housed == 500

    def test_distinct_grid_terminates(self):
        g = np.linspace(0.0, 1.0, 500)
        data = np.column_stack([g, g * 2.0])
        start = time.monotonic()
        tree = build_initial_tree(_window(data))
        assert time.monotonic() - start < 10.0
        tree.validate()
        assert tree.node_count() == 500

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
        housed = sum(len(n.points) for nid, n in tree.nodes.items() if nid)
        assert housed == 500
