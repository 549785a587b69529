"""First-window seeding routes: k-means sweep, density scan, neural gas."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mostream import engine, seeders
from mostream.core import (
    MAX_ABS_VALUE,
    ClusteringSolution,
    ObjectiveVector,
    StreamConfig,
    WindowBatch,
    assign_batch,
    sq_dist,
)
from mostream.objectives import evaluate_solution
from mostream.seeders import (
    _lloyd,
    connected_components,
    grow_gas,
    kmeans_sweep,
    seed_dbscan,
    seed_gng,
)
from mostream.stream_io import gen_blobs

from oracles import dbscan_dense_labels, gng_reference, lloyd_reference, pairwise_distances


def _window(rows):
    return WindowBatch(np.asarray(rows, dtype=float), 0)


@pytest.fixture
def triples():
    rows = []
    for cx, cy in [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]:
        for dx, dy in [(-1, 0), (1, 0), (0, 1)]:
            rows.append([cx + dx, cy + dy])
    return _window(rows)


def _assert_same_solution(sol, ref):
    assert np.array_equal(sol.prototypes, ref.prototypes)
    assert np.array_equal(sol.weights, ref.weights)
    assert sol.objectives == ref.objectives


def _gng(window, seed):
    """The gas seed as ``initialize`` makes it: grown, then labelled."""
    return seed_gng(window, grow_gas(window.data, seed))


def _scored(sol, window):
    """An unscored seed scored alone on its window, as ``initialize`` scores
    every seed: each cluster's mass is the rows scoring gives it."""
    labels, dists = assign_batch([sol], window.data)
    sol.weights = np.bincount(labels[0], minlength=sol.k).astype(float)
    evaluate_solution([sol], labels, dists)
    return sol


def _reference_solution(window, centers):
    """The scored seed built from a finished assignment's centers."""
    return _scored(ClusteringSolution(ObjectiveVector(), centers), window)


def _kmeans(window, k, seed):
    """The scored k-means seed with exactly k centers, built as the sweep
    builds each of its solutions."""
    return _scored(seeders._solution(window.data, *_lloyd(window, k, seed)), window)


@st.composite
def _duplicate_window(draw):
    """(rows, k): 2-40 rows drawn from 1-4 distinct lattice rows and k up to
    the row count, so clusters empty and re-seeds chain within a pass."""
    d = draw(st.sampled_from([1, 2, 8]))
    distinct = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-3, 3), min_size=distinct * d, max_size=distinct * d))
    pool = np.array(cells, dtype=float).reshape(distinct, d)
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=2, max_size=40))
    return pool[picks], draw(st.integers(1, min(len(picks), 15)))


class TestKMeans:
    @given(case=_duplicate_window(), seed=st.integers(0, 2**16))
    def test_matches_scan_reference_on_duplicate_windows(self, case, seed):
        data, k = case
        start = seeders._kmeans_pp_init(data, k, np.random.default_rng(seed))
        labels, centers = _lloyd(WindowBatch(data, 0), k, seed)
        want_labels, want_centers = lloyd_reference(data, start)
        assert labels.tobytes() == want_labels.tobytes()
        assert centers.tobytes() == want_centers.tobytes()

    def test_recovers_far_triples_exactly(self, triples):
        sol = _kmeans(triples, 3, seed=0)
        got = np.array(sorted(map(tuple, sol.prototypes)))
        third = 1.0 / 3.0
        want = np.array([[0.0, third], [0.0, 100 + third], [100.0, third]])
        assert np.allclose(got, want)

    def test_k_one_is_window_mean(self):
        w = _window([[0, 0], [2, 0], [4, 6]])
        sol = _kmeans(w, 1, seed=0)
        assert sol.k == 1
        assert np.allclose(sol.prototypes[0], [2.0, 2.0])

    def test_k_beyond_window_rejected(self):
        w = _window([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="exceeds window size"):
            _lloyd(w, 3, seed=0)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            _lloyd(_window([[0, 0]]), 0, seed=0)

    def test_objectives_populated(self, triples):
        sol = _kmeans(triples, 3, seed=0)
        assert sol.objectives.compactness > 0.0
        assert sol.objectives.separateness > 0.0

    def test_deterministic_per_seed(self, triples):
        a = kmeans_sweep(triples, seed=9)
        b = kmeans_sweep(triples, seed=9)
        for x, y in zip(a, b, strict=True):
            assert np.array_equal(x.prototypes, y.prototypes)

    def test_duplicate_heavy_window_collapses_coincident_centers(self):
        # only two distinct values exist, so the re-seeded third center lands
        # on a duplicate and the unfed copy is dropped at evaluation
        w = _window([[0.0]] * 4 + [[10.0]] * 4)
        for seed in (0, 1, 5):
            sol = _kmeans(w, 3, seed=seed)
            assert sol.k == 2
            assert sorted(sol.prototypes[:, 0].tolist()) == [0.0, 10.0]

    def test_sweep_yields_one_solution_per_k(self, rng):
        data = rng.normal(size=(40, 2))
        sols = kmeans_sweep(WindowBatch(data, 0), seed=0)
        assert len(sols) == 14  # k = 2..15

    @pytest.mark.parametrize("dim", [2, 8])
    def test_sweep_returns_each_lloyd_run_unscored(self, rng, dim):
        # each k's solution holds Lloyd's own centers, which are the means of
        # its labels, at unit mass; masses and scoring are left to the engine
        window = WindowBatch(rng.normal(size=(60, dim)), 0)
        sols = kmeans_sweep(window, seed=3)
        assert [s.k for s in sols] == list(range(2, 16))
        for sol in sols:
            labels, centers = _lloyd(window, sol.k, 3 + sol.k)
            means = np.vstack([window.data[labels == c].mean(axis=0)
                               for c in range(sol.k)])
            assert np.array_equal(sol.prototypes, centers)
            assert np.array_equal(sol.prototypes, means)
            assert np.array_equal(sol.weights, np.ones(sol.k))
            assert sol.objectives == ObjectiveVector()

    def test_sweep_truncates_to_window_size(self):
        w = _window([[0, 0], [1, 1], [2, 2]])
        sols = kmeans_sweep(w, seed=0)
        assert len(sols) == 2  # k = 2, 3


@pytest.fixture
def dbscan(monkeypatch):
    """``seed_dbscan`` with its density constants set for the test."""

    def run(window, min_pts, radius):
        monkeypatch.setattr(seeders, "DBSCAN_MIN_PTS", min_pts)
        monkeypatch.setattr(seeders, "DBSCAN_RADIUS", radius)
        return seed_dbscan(window)

    return run


class TestDBScan:
    def test_two_far_blobs(self, dbscan):
        rg = np.random.default_rng(5)
        a = rg.normal(loc=(0.0, 0.0), scale=0.4, size=(30, 2))
        b = rg.normal(loc=(20.0, 0.0), scale=0.4, size=(30, 2))
        sol = dbscan(WindowBatch(np.vstack([a, b]), 0), 10, 2.0)
        assert sol.k == 2

    def test_single_dense_cloud(self, dbscan):
        rg = np.random.default_rng(2)
        data = rg.normal(scale=0.5, size=(50, 2))
        sol = dbscan(WindowBatch(data, 0), 10, 2.0)
        assert sol.k == 1

    def test_sparse_window_falls_back_to_one_cluster(self, caplog, dbscan):
        w = _window([[0, 0], [50, 0], [0, 50], [50, 50]])
        with caplog.at_level(logging.WARNING):
            sol = dbscan(w, 3, 1.0)
        assert sol.k == 1
        assert np.allclose(sol.prototypes[0], [25.0, 25.0])
        assert any("no core points" in r.message for r in caplog.records)

    def test_memberships_order_independent(self, dbscan):
        rg = np.random.default_rng(8)
        a = rg.normal(loc=(0.0, 0.0), scale=0.4, size=(25, 2))
        b = rg.normal(loc=(15.0, 0.0), scale=0.4, size=(25, 2))
        data = np.vstack([a, b])
        perm = rg.permutation(len(data))

        def partition(window):
            sol = dbscan(window, 8, 2.0)
            protos = sol.prototypes
            [labels], _ = assign_batch([sol], window.data)
            groups = {}
            for row, lab in zip(map(tuple, window.data), labels):
                groups.setdefault(lab, set()).add(row)
            return sorted(map(frozenset, groups.values()), key=sorted)

        assert partition(WindowBatch(data, 0)) == partition(WindowBatch(data[perm], 0))

    @staticmethod
    def _blobs():
        rg = np.random.default_rng(0)
        centres = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        return centres[rg.integers(3, size=1100)] + rg.normal(size=(1100, 2))

    @staticmethod
    def _lines():
        # two dense lines on a 1/512 lattice, more than the radius apart;
        # five border points reach cores of both and sit nearer the first
        # line, one point is exactly one radius from the first line's end,
        # and 90 isolated points are noise
        x = np.concatenate([-1.0 + np.arange(512) / 512.0,
                            0.9 + np.arange(492) / 512.0,
                            [0.40, 0.41, 0.42, 0.43, 0.44], [-1.5]])
        line = np.column_stack([x, np.zeros_like(x)])
        noise = np.column_stack([10.0 + 3.0 * np.arange(90), np.full(90, 5.0)])
        data = np.vstack([line, noise])
        return data[np.random.default_rng(3).permutation(len(data))]

    @pytest.mark.parametrize("shape, min_pts, radius",
                             [("_blobs", 10, 0.5), ("_lines", 200, 0.5)])
    def test_blocked_scan_matches_dense_reference(self, dbscan, shape, min_pts, radius):
        # 1100 rows span three distance blocks, the last one partial
        data = getattr(self, shape)()
        window = WindowBatch(data, 0)
        sol = _scored(dbscan(window, min_pts, radius), window)
        labels = dbscan_dense_labels(data, min_pts, radius)
        kept = labels >= 0
        assert 0 < (~kept).sum() < 1100
        centers = np.vstack([data[kept][labels[kept] == c].mean(axis=0)
                             for c in range(labels.max() + 1)])
        # noise rows join no center, but scoring charges every row
        ref = _reference_solution(window, centers)
        _assert_same_solution(sol, ref)


class TestConnectedComponents:
    def test_numbered_by_smallest_member(self):
        adj = np.zeros((6, 6), dtype=bool)
        for a, b in [(4, 2), (0, 3), (5, 3)]:
            adj[a, b] = adj[b, a] = True
        assert connected_components(adj).tolist() == [0, 1, 2, 0, 2, 0]

    def test_masked_nodes_neither_join_nor_link(self):
        # 0-1-2 is a chain through 1; with 1 masked out, 0 and 2 part ways
        adj = np.zeros((4, 4), dtype=bool)
        for a, b in [(0, 1), (1, 2)]:
            adj[a, b] = adj[b, a] = True
        nodes = np.array([True, False, True, True])
        assert connected_components(adj, nodes).tolist() == [0, -1, 1, 2]
        assert nodes.tolist() == [True, False, True, True]

    @pytest.mark.parametrize("shape, min_pts, radius",
                             [("_blobs", 10, 0.5), ("_lines", 200, 0.5),
                              ("_blobs", 3, 0.2)])
    def test_core_components_match_dense_reference(self, shape, min_pts, radius):
        data = getattr(TestDBScan, shape)()
        within = pairwise_distances(data) <= radius
        core = within.sum(axis=1) >= min_pts
        ref = dbscan_dense_labels(data, min_pts, radius)
        comp = connected_components(within, core)
        assert comp.max() >= 1
        assert np.array_equal(comp[core], ref[core])
        assert (comp[~core] == -1).all()


@st.composite
def _gas_window(draw):
    """2-24 rows the gas ties on: integer lattices (exact distance ties for
    winner and runner-up), a few distinct rows repeated, one row repeated,
    values at +/-MAX_ABS_VALUE, or mixed +0.0/-0.0 coordinates. d covers
    both sides of the summation switch at 8 coordinates."""
    d = draw(st.sampled_from([1, 2, 7, 8, 16]))
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["lattice", "repeated", "identical", "huge", "zeros"]))
    values = {
        "huge": st.sampled_from([MAX_ABS_VALUE, -MAX_ABS_VALUE, MAX_ABS_VALUE / 2, 0.0]),
        "zeros": st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    }.get(kind, st.integers(-3, 3).map(float))

    def rows(count):
        cells = draw(st.lists(values, min_size=count * d, max_size=count * d))
        return np.array(cells).reshape(count, d)

    if kind == "identical":
        return np.repeat(rows(1), n, axis=0)
    if kind == "repeated":
        pool = rows(draw(st.integers(2, 3)))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return pool[picks]
    return rows(n)


# the module's gas budget, or a small one that splits and expires edges
# every few signals
_GAS_BUDGET = st.just({"GNG_MAX_NODES": seeders.GNG_MAX_NODES}) | st.fixed_dictionaries({
    "GNG_MAX_NODES": st.integers(4, 6),
    "GNG_INSERT_EVERY": st.just(10),
    "GNG_MAX_EDGE_AGE": st.just(3),
})


class TestGNG:
    @pytest.fixture
    def two_blobs(self):
        rg = np.random.default_rng(42)
        a = rg.normal(loc=(0.0, 0.0), scale=0.3, size=(50, 2))
        b = rg.normal(loc=(12.0, 12.0), scale=0.3, size=(50, 2))
        return WindowBatch(np.vstack([a, b]), 0)

    def test_two_components_on_far_blobs(self, two_blobs):
        # pinned by running the seeder on this fixture: the edge graph splits
        # into exactly two components whose means sit on the blob centers
        for seed in (0, 1, 7):
            sol = _gng(two_blobs, seed)
            assert sol.k == 2
            protos = sol.prototypes
            protos = protos[np.argsort(protos[:, 0])]
            assert np.allclose(protos[0], [0.0, 0.0], atol=0.2)
            assert np.allclose(protos[1], [12.0, 12.0], atol=0.2)

    def test_two_point_window(self):
        sol = _gng(_window([[0.0, 0.0], [5.0, 5.0]]), seed=0)
        assert 1 <= sol.k <= 2

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            grow_gas(np.array([[1.0, 1.0]]), seed=0)

    def test_deterministic_per_seed(self, two_blobs):
        a = _gng(two_blobs, seed=3)
        b = _gng(two_blobs, seed=3)
        assert np.array_equal(a.prototypes, b.prototypes)

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(seeders, "GNG_MAX_NODES", 4)
        monkeypatch.setattr(seeders, "GNG_INSERT_EVERY", 10)

    def test_node_budget_respected(self, two_blobs, small_budget):
        sol = _gng(two_blobs, seed=0)
        assert sol.k <= 4

    @staticmethod
    def _oracle(data, seed):
        """``gng_reference`` run with the module's current constants."""
        return gng_reference(
            data, seed,
            epochs=seeders.GNG_EPOCHS, max_nodes=seeders.GNG_MAX_NODES,
            eps_best=seeders.GNG_EPS_BEST, eps_neighbor=seeders.GNG_EPS_NEIGHBOR,
            max_edge_age=seeders.GNG_MAX_EDGE_AGE,
            insert_every=seeders.GNG_INSERT_EVERY,
            split_decay=seeders.GNG_SPLIT_DECAY, error_decay=seeders.GNG_ERROR_DECAY,
        )

    @classmethod
    def _reference(cls, window, seed):
        labels, centers, gas = cls._oracle(window.data, seed)
        return _reference_solution(window, centers), gas

    @staticmethod
    def _assert_same_gas(window, seed, gas):
        # units compare by value: a zero step may turn a -0.0 into +0.0
        units, errors, age = grow_gas(window.data, seed)
        assert np.array_equal(units, gas["units"])
        assert errors.tobytes() == gas["errors"].tobytes()
        want = np.full(age.shape, -1)
        for (a, b), edge_age in gas["edges"].items():
            want[a, b] = want[b, a] = edge_age
        assert age.tobytes() == want.tobytes()

    def test_split_tie_takes_lowest_index(self):
        # identical rows: every error stays 0, unit 0 always wins and unit 1
        # is always runner-up. The first split (signal 10) puts unit 2 on
        # edges 0-2 and 1-2; the second (signal 20) finds 0's neighbors 2
        # (older edge) and 1 (refreshed) tied at error 0 and splits 0-1, so
        # unit 3 joins 0 and 1. Edges of the always-winning unit 0 other
        # than 0-1 expire by the end; those of 1, 2 and 3 never age.
        with mock.patch.multiple(seeders, GNG_MAX_NODES=4, GNG_INSERT_EVERY=10):
            _, errors, age = grow_gas(np.ones((5, 2)), seed=0)
        assert not errors.any()
        want = np.full((4, 4), -1)
        for a, b in [(0, 1), (1, 2), (1, 3)]:
            want[a, b] = want[b, a] = 0
        assert np.array_equal(age, want)

    def test_split_tie_matches_reference(self):
        """The reference breaks that tie by the lowest index too, so the
        5-identical-rows run is the same gas byte for byte."""
        data = np.ones((5, 2))
        with mock.patch.multiple(seeders, GNG_MAX_NODES=4, GNG_INSERT_EVERY=10):
            _, _, gas = self._oracle(data, 0)
            self._assert_same_gas(WindowBatch(data, 0), 0, gas)
            units, _, _ = grow_gas(data, seed=0)
        assert units.tobytes() == gas["units"].tobytes()
        assert sorted(gas["edges"]) == [(0, 1), (1, 2), (1, 3)]

    @given(data=_gas_window(), seed=st.integers(0, 2**16), budget=_GAS_BUDGET)
    def test_matches_reference_on_tied_windows(self, data, seed, budget):
        with mock.patch.multiple(seeders, **budget):
            _, _, gas = self._oracle(data, seed)
            self._assert_same_gas(WindowBatch(data, 0), seed, gas)

    @given(data=_gas_window(), seed=st.integers(0, 2**16), budget=_GAS_BUDGET)
    def test_edge_invariants_on_tied_windows(self, data, seed, budget):
        with mock.patch.multiple(seeders, **budget):
            gas = grow_gas(data, seed)
            sol = seed_gng(WindowBatch(data, 0), gas)
            units, _, age = gas
            max_age = seeders.GNG_MAX_EDGE_AGE
        assert np.array_equal(age, age.T)
        assert (np.diag(age) == -1).all()
        assert ((age >= -1) & (age <= max_age)).all()
        # seed_gng's clusters are the edge components the window's rows reach
        comp = connected_components(age >= 0)
        reached = comp[np.argmin(sq_dist(data[:, None, :], units[None, :, :]), axis=1)]
        means = [data[reached == c].mean(axis=0) for c in np.unique(reached)]
        assert np.array_equal(sol.prototypes, np.vstack(means))

    @pytest.mark.parametrize("dim, n, seed", [(2, 300, 0), (2, 300, 7), (16, 200, 7)])
    def test_matches_list_and_dict_reference(self, dim, n, seed):
        # overlapping blobs: units split up to the cap and edges expire
        window = gen_blobs(k=4, per_blob=n // 4, sep=3.0, stddev=1.0,
                           window_size=n, seed=seed, dim=dim)[0]
        ref, gas = self._reference(window, seed)
        assert gas["splits"] == seeders.GNG_MAX_NODES - 2
        assert gas["expiries"] > 0
        self._assert_same_gas(window, seed, gas)
        _assert_same_solution(_scored(_gng(window, seed), window), ref)

    def test_matches_reference_on_two_components(self, two_blobs):
        ref, gas = self._reference(two_blobs, 1)
        assert ref.k == 2
        self._assert_same_gas(two_blobs, 1, gas)
        _assert_same_solution(_scored(_gng(two_blobs, 1), two_blobs), ref)

    def test_matches_reference_at_node_cap(self, two_blobs, small_budget):
        for seed in (0, 5):
            ref, gas = self._reference(two_blobs, seed)
            assert gas["splits"] == 2
            self._assert_same_gas(two_blobs, seed, gas)
            _assert_same_solution(_scored(_gng(two_blobs, seed), two_blobs), ref)


class TestSeedScoring:
    """``initialize`` scores the macro view and every seeder's solution in
    one pass; the seeders themselves only label."""

    @pytest.mark.parametrize("dim", [2, 8])
    def test_initialize_scores_every_seed_in_one_pass(self, monkeypatch, rng, dim):
        window = WindowBatch(rng.normal(size=(60, dim)) * 3.0, 0)
        cfg = StreamConfig(rng_seed=3)
        calls, seeds = [], []
        assign, evaluate = engine.assign_batch, engine.evaluate_solution

        def counting_assign(solutions, data):
            calls.append(("assign", len(solutions)))
            return assign(solutions, data)

        def counting_evaluate(solutions, labels, dists):
            calls.append(("evaluate", len(solutions)))
            seeds.extend((sol, sol.copy()) for sol in solutions)
            return evaluate(solutions, labels, dists)

        # the engine's own bindings: breeding scores through evolution's
        monkeypatch.setattr(engine, "assign_batch", counting_assign)
        monkeypatch.setattr(engine, "evaluate_solution", counting_evaluate)
        state = engine.initialize(window, cfg)
        # macro view, k = 2..15, density scan, gas; then the report's one
        # call over the archive
        assert calls == [("assign", 17), ("evaluate", 17), ("assign", len(state.archive))]
        for sol, unscored in seeds:
            _assert_same_solution(sol, _scored(unscored, window))
        # the sweep's seeds against their own Lloyd runs
        for k, (sol, _) in zip(range(2, 16), seeds[1:15]):
            ref = _reference_solution(window, _lloyd(window, k, cfg.rng_seed + k)[1])
            _assert_same_solution(sol, ref)

    def test_seed_masses_are_scoring_row_counts(self):
        # 200 rows on 12 distinct points: Lloyd's re-seeded centers are exact
        # rows while coincident means can differ in the last bit, so for
        # k > 12 Lloyd's labels are not the rows scoring gives each center
        rg = np.random.default_rng(0)
        points = rg.normal(size=(12, 2)) * 3.0
        window = WindowBatch(points[rg.integers(0, 12, size=200)], 0)
        state = engine.initialize(window, StreamConfig())
        # ids 0..16 are the seeds: macro view, k = 2..15, density scan, gas
        seeds = [sol for sol in state.archive if sol.solution_id <= 16]
        assert any(sol.solution_id in (12, 13, 14) for sol in seeds)  # k = 13..15
        for sol in seeds:
            [labels], _ = assign_batch([sol], window.data)
            assert np.array_equal(sol.weights, np.bincount(labels, minlength=sol.k))

    def test_density_noise_rows_count_in_compactness(self, monkeypatch):
        # a dense cloud and three rows more than DBSCAN_RADIUS from every
        # other row: the scan leaves those three out of its clusters, yet
        # the seed's compactness charges them like every other row
        rg = np.random.default_rng(4)
        cloud = rg.normal(scale=1.0, size=(60, 2))
        far = np.array([[100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        window = WindowBatch(np.vstack([cloud, far]), 0)
        kept, scan = [], engine.seed_dbscan

        def keeping(window):
            kept.append(scan(window))
            return kept[-1]

        monkeypatch.setattr(engine, "seed_dbscan", keeping)
        engine.initialize(window, StreamConfig())
        [sol] = kept
        assert sol.k == 1
        assert sol.weights.tolist() == [63.0]
        gaps = np.linalg.norm(window.data[:, None, :] - sol.prototypes[None, :, :], axis=2)
        nearest = gaps.min(axis=1)
        assert sol.objectives.compactness == pytest.approx(nearest.sum(), rel=1e-12)
        assert sol.objectives.compactness > nearest[:60].sum() + 250.0
