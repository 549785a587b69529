from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostream import objectives
from mostream.core import (
    ClusteringSolution,
    ObjectiveVector,
    WindowBatch,
    assign_batch,
)
from mostream.objectives import (
    ParetoArchive,
    crowding_distances,
    dominates,
    evaluate_solution,
    hypervolume_in_box,
    separateness,
    update_compactness,
)

from oracles import (
    archive_insert_reference,
    crowding_loop,
    hypervolume_raster,
    knn_neighborhood,
    separateness_oracle,
)

coord = st.integers(-40, 40).map(lambda v: v / 4.0)


def _rows(min_size, max_size, dim=2):
    return st.lists(st.tuples(*[coord] * dim), min_size=min_size, max_size=max_size)


def _protos(points, sol_id=0, compactness=0.0, sep=0.0):
    return ClusteringSolution(ObjectiveVector(compactness, sep),
                              np.asarray(points, dtype=float), sol_id)


def _objsol(compactness, sep, sol_id):
    return _protos([(0.0, 0.0)], sol_id=sol_id, compactness=compactness, sep=sep)


def _dists(sol, win, labels):
    """Row-form distances of each window point to its labelled prototype."""
    return np.sqrt(((win.data - sol.prototypes[np.asarray(labels)]) ** 2).sum(axis=-1))


def _capacity(capacity):
    """Bound every archive at ``capacity`` members while the block runs."""
    return mock.patch.object(objectives, "ARCHIVE_CAPACITY", capacity)


def _window(points):
    return WindowBatch(window_id=1, start_index=0,
                       data=np.asarray(points, dtype=float).reshape(-1, 2),
                       labels=None)


class TestCompactness:
    def test_window_sum_ignores_carried_value(self):
        sol = _protos([(1.0, 0.0)], compactness=10.0)
        win = _window([(0, 0), (2, 0)])
        value = update_compactness(sol, _dists(sol, win, [0, 0]))
        assert value == sol.objectives.compactness == 2.0

    def test_empty_windows_cannot_be_built(self):
        # the batch type itself forbids the empty-sum boundary case
        with pytest.raises(ValueError):
            WindowBatch(window_id=1, start_index=0,
                        data=np.empty((0, 2)), labels=None)

    def test_points_on_prototypes_contribute_zero(self):
        sol = _protos([(1.0, 0.0), (5.0, 5.0)], compactness=4.0)
        win = _window([(1, 0), (5, 5)])
        assert update_compactness(sol, _dists(sol, win, [0, 1])) == 0.0


def _fed(k, labels):
    """The fed-cluster mask a commit takes from a member's window labels."""
    return np.bincount(np.asarray(labels, dtype=int), minlength=k) > 0


class TestSeparateness:
    def test_two_prototypes(self):
        assert separateness([np.array([[0.0, 0.0], [3.0, 4.0]])]) == [pytest.approx(5.0)]

    def test_single_cluster_is_zero(self):
        assert separateness([np.array([[2.0, 2.0]]), np.empty((0, 2))]) == [0.0, 0.0]
        assert separateness([]) == []

    def test_collinear_min_then_mean(self):
        assert separateness([np.array([[0.0], [1.0], [10.0]])]) == [pytest.approx(11.0 / 3.0)]

    def test_neighborhood_is_three_nearest(self):
        hood = knn_neighborhood([(0, 0), (1, 0), (2, 0), (3, 0), (50, 0)])
        assert hood[0] == {1, 2, 3}
        assert all(len(v) == 3 for v in hood.values())

    @given(_rows(1, 12), st.lists(st.integers(0, 11), max_size=30))
    def test_matches_three_nearest_oracle(self, rows, labels):
        # labels repeat and leave clusters memberless, as a window's do
        protos = np.asarray(rows, dtype=float)
        labels = [lab for lab in labels if lab < len(rows)]
        fed = _fed(len(rows), labels)
        assert separateness([protos, protos[fed]]) == [
            separateness_oracle(rows), separateness_oracle(rows, labels)
        ]

    @pytest.mark.parametrize("dim", [1, 5, 16])
    def test_matches_oracle_on_unrounded_floats(self, dim):
        rg = np.random.default_rng(dim)
        blocks, want = [], []
        for k in range(1, 15):
            rows = rg.normal(scale=3.0, size=(k, dim))
            labels = rg.integers(0, k, size=max(1, k // 2))
            blocks += [rows, rows[_fed(k, labels)]]
            want += [separateness_oracle(rows), separateness_oracle(rows, labels)]
        assert separateness(blocks) == want

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 16])
    def test_stacked_blocks_match_oracle_one_by_one(self, dim):
        # one call over blocks of mixed K pads them to one (count, kmax, kmax)
        # block; K = 1 blocks, duplicate rows and mixed magnitudes included
        rg = np.random.default_rng(50 + dim)
        for _ in range(30):
            blocks = []
            for k in rg.integers(1, 20, size=int(rg.integers(1, 25))):
                scale = 10.0 ** rg.integers(-3, 4, size=(int(k), dim))
                rows = rg.normal(size=(int(k), dim)) * scale
                if k > 2 and rg.random() < 0.3:
                    rows[-1] = rows[0]
                blocks.append(rows)
            got = separateness(blocks)
            assert got == [separateness_oracle(rows) for rows in blocks]
            assert got == [separateness([rows])[0] for rows in blocks]
            assert all(type(v) is float for v in got)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 16]),
           st.lists(st.integers(0, 20), min_size=1, max_size=12), st.booleans())
    def test_stacked_call_matches_each_block_alone(self, seed, dim, ks, repeat):
        """A block scores the same bytes alone as stacked with others."""
        rg = np.random.default_rng(seed)
        blocks = [rg.normal(size=(k, dim)) * 10.0 ** rg.uniform(-3, 3, size=(k, 1)) for k in ks]
        if repeat:  # coincident rows give zero gaps
            blocks = [np.vstack([rows, rows[:1]]) for rows in blocks]
        got = separateness(blocks)
        alone = [separateness([rows])[0] for rows in blocks]
        assert np.array(got).tobytes() == np.array(alone).tobytes()


class TestEvaluate:
    @given(_rows(1, 8), _rows(1, 30), st.floats(0.0, 50.0))
    def test_matches_assign_fold_and_oracle(self, protos, points, carried):
        # a far prototype no window point can reach stays memberless
        sol = _protos(protos + [(1e3, -1e3)], compactness=carried)
        sol.weights = np.arange(1.0, sol.k + 1)
        ref = sol.copy()
        win = _window(points)
        evaluate_solution([sol], *assign_batch([sol], win.data))
        fed, labels = np.unique(assign_batch([ref], win.data)[0][0], return_inverse=True)
        ref.keep(fed)
        update_compactness(ref, _dists(ref, win, labels))
        assert np.array_equal(sol.prototypes, ref.prototypes)
        assert np.array_equal(sol.weights, ref.weights)
        assert sol.k < len(protos) + 1
        assert sol.objectives.compactness == ref.objectives.compactness
        assert sol.objectives.separateness == separateness_oracle(ref.prototypes)

    @pytest.mark.parametrize("dim", [2, 8])
    def test_one_call_matches_one_solution_at_a_time(self, dim):
        rg = np.random.default_rng(dim)
        win = WindowBatch(rg.normal(size=(60, dim)), 1)
        sols = []
        for i, k in enumerate(rg.integers(1, 15, size=12)):
            # far rows stay memberless, so most solutions drop clusters
            protos = rg.normal(size=(int(k), dim)) * rg.choice([1.0, 50.0], size=(int(k), 1))
            sols.append(_protos(protos, sol_id=i, compactness=float(rg.uniform(0, 9))))
        alone = [s.copy() for s in sols]
        ks = [s.k for s in sols]
        evaluate_solution(sols, *assign_batch(sols, win.data))
        for ref in alone:
            evaluate_solution([ref], *assign_batch([ref], win.data))
        assert any(s.k < k for s, k in zip(sols, ks))
        for sol, ref in zip(sols, alone):
            assert np.array_equal(sol.prototypes, ref.prototypes)
            assert np.array_equal(sol.weights, ref.weights)
            assert sol.objectives == ref.objectives
        evaluate_solution([], *assign_batch([], win.data))

    def test_compactness_is_each_rows_own_sum(self):
        """One ``dists.sum(axis=1)`` gives every compactness, bit for bit
        what each row's own sum (``update_compactness``) gives, over random
        stacks of S <= 30 rows of n <= 1200 distances."""
        rg = np.random.default_rng(5)
        for _ in range(200):
            s, n = int(rg.integers(1, 31)), int(rg.integers(1, 1201))
            dists = np.sqrt(rg.uniform(0, 10.0 ** rg.uniform(-3, 6), size=(s, n)))
            sols = [_protos([(float(i), 0.0)]) for i in range(s)]
            evaluate_solution(sols, np.zeros((s, n), dtype=np.intp), dists)
            alone = [_protos([(float(i), 0.0)]) for i in range(s)]
            for sol, ref, row in zip(sols, alone, dists):
                assert sol.objectives.compactness == update_compactness(ref, row.copy())
                assert type(sol.objectives.compactness) is float

    def test_dimension_mismatch_raises(self):
        win = WindowBatch(np.zeros((3, 3)), 1)
        with pytest.raises(ValueError):
            sol = _protos([(0, 0), (1, 1)])
            evaluate_solution([sol], *assign_batch([sol], win.data))


class TestDominates:
    def test_better_in_both(self):
        assert dominates(ObjectiveVector(1, 5), ObjectiveVector(2, 3))

    def test_incomparable(self):
        a, b = ObjectiveVector(1, 3), ObjectiveVector(2, 5)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_equal_never_dominates(self):
        v = ObjectiveVector(1.5, 2.5)
        assert not dominates(v, ObjectiveVector(1.5, 2.5))

    @given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    def test_asymmetric(self, p, q):
        a, b = ObjectiveVector(*p), ObjectiveVector(*q)
        assert not (dominates(a, b) and dominates(b, a))

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=3, max_size=3))
    def test_transitive(self, triple):
        a, b, c = (ObjectiveVector(*t) for t in triple)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestArchive:
    def test_incomparable_coexist(self):
        # cheaper compactness vs wider separateness: neither dominates
        arc = ParetoArchive()
        assert arc.insert(_objsol(1, 3, 0))
        assert arc.insert(_objsol(2, 5, 1))
        assert len(arc) == 2

    def test_dominating_candidate_replaces(self):
        arc = ParetoArchive()
        arc.insert(_objsol(2, 3, 0))
        assert arc.insert(_objsol(1, 5, 1))
        assert [s.solution_id for s in arc] == [1]

    def test_duplicate_objectives_rejected(self):
        arc = ParetoArchive()
        arc.insert(_objsol(1, 5, 0))
        assert not arc.insert(_objsol(1, 5, 1))
        assert len(arc) == 1

    def test_dominated_candidate_rejected(self):
        arc = ParetoArchive()
        arc.insert(_objsol(1, 5, 0))
        assert not arc.insert(_objsol(2, 4, 1))
        assert len(arc) == 1

    def test_capacity_eviction_keeps_extremes(self):
        # ascending compactness with ascending separateness: incomparable
        arc = ParetoArchive()
        staircase = [(1, 3), (2, 5), (3, 7), (4, 9)]
        with _capacity(3):
            for i, (c, s) in enumerate(staircase):
                arc.insert(_objsol(c, s, i))
        assert len(arc) == 3
        pairs = {s.objectives.as_min_pair() for s in arc}
        assert (1.0, -3.0) in pairs
        assert (4.0, -9.0) in pairs

    @given(st.permutations(range(9)),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=40))
    def test_invariant_after_any_insert_sequence(self, staircase, pairs):
        # nine mutually non-dominated members overfill the archive, so every
        # example runs the crowding eviction before the drawn inserts
        evictions = []
        evict = ParetoArchive._evict_most_crowded

        def counting(archive):
            evictions.append(len(archive))
            evict(archive)

        arc = ParetoArchive()
        steps = [(float(i), float(i)) for i in staircase]
        with _capacity(6), mock.patch.object(ParetoArchive, "_evict_most_crowded", counting):
            for i, (c, s) in enumerate(steps + pairs):
                arc.insert(_objsol(float(c), float(s), i))
        assert len(evictions) >= 3
        arc.validate()
        assert 1 <= len(arc) <= 6
        seen = [s.objectives.as_min_pair() for s in arc]
        assert len(seen) == len(set(seen))

    @given(st.integers(1, 6), st.data())
    def test_stored_pairs_are_the_members_own(self, capacity, data):
        # a staircase of capacity + 3 mutually non-dominated members runs the
        # crowding eviction before the drawn inserts; after every insert each
        # member's stored pair equals its recomputed one, in member order
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                                   min_size=1, max_size=40))
        steps = [(float(i), float(i)) for i in range(capacity + 3)]
        ids = data.draw(st.permutations(range(len(steps) + len(pairs))))
        evictions = []
        evict = ParetoArchive._evict_most_crowded

        def counting(archive):
            evictions.append(len(archive))
            evict(archive)

        arc = ParetoArchive()
        evicting = mock.patch.object(ParetoArchive, "_evict_most_crowded", counting)
        with _capacity(capacity), evicting:
            for (c, s), sid in zip(steps + pairs, ids):
                arc.insert(_objsol(float(c), float(s), sid))
                assert arc.min_pairs == [m.objectives.as_min_pair() for m in arc]
                assert [m.solution_id for m in arc] == sorted(m.solution_id for m in arc)
        assert len(evictions) >= 3

    @given(st.integers(1, 6), st.data())
    def test_matches_reference_insert_after_every_insert(self, capacity, data):
        # small integer grids repeat pairs (duplicates) and fill past
        # capacity (crowding evictions); shuffled ids exercise the id order
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                   min_size=1, max_size=40))
        ids = data.draw(st.permutations(range(len(pairs))))
        arc = ParetoArchive()
        want = []
        with _capacity(capacity):
            for (c, s), sid in zip(pairs, ids):
                cand = _objsol(float(c), float(s), sid)
                accepted, want = archive_insert_reference(want, cand, capacity)
                assert arc.insert(cand) is accepted
                assert [id(m) for m in arc] == [id(m) for m in want]


class TestCrowding:
    def test_extremes_are_infinite(self):
        objs = [ObjectiveVector(1, 9), ObjectiveVector(2, 7),
                ObjectiveVector(3, 5)]
        d = crowding_distances([o.as_min_pair() for o in objs])
        assert d[0] == np.inf and d[2] == np.inf
        assert np.isfinite(d[1])

    def test_two_or_fewer_all_infinite(self):
        assert np.all(np.isinf(crowding_distances([(1.0, -1.0)])))

    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
    def test_matches_loop_form(self, raw):
        pairs = [ObjectiveVector(c, s).as_min_pair() for c, s in raw]
        assert np.array_equal(crowding_distances(pairs), crowding_loop(pairs))


class TestHypervolume:
    def test_unit_box_single_point(self):
        arc = ParetoArchive()
        arc.insert(_objsol(1, -1, 0))  # min-form (1, 1)
        assert hypervolume_in_box(arc, ObjectiveVector(2, -2)) == pytest.approx(1.0)

    def test_two_point_staircase(self):
        # min-form points (1,3) and (3,1) against reference (4,4); the
        # rasterization oracle pins the area at 5.0
        arc = ParetoArchive()
        arc.insert(_objsol(1, -3, 0))
        arc.insert(_objsol(3, -1, 1))
        ref = ObjectiveVector(4, -4)
        hv = hypervolume_in_box(arc, ref)
        assert hv == pytest.approx(5.0)
        assert hv == pytest.approx(
            hypervolume_raster([(1, 3), (3, 1)], (4, 4)), abs=0.01
        )

    def test_empty_archive(self):
        assert hypervolume_in_box(ParetoArchive(), ObjectiveVector(1, -1)) == 0.0

    def test_in_box_variant_filters(self):
        arc = ParetoArchive()
        arc.insert(_objsol(1, -3, 0))
        arc.insert(_objsol(0.5, -5, 1))  # min-form (0.5, 5): outside, dropped
        ref = ObjectiveVector(4, -4)
        assert len(arc) == 2
        assert hypervolume_in_box(arc, ref) == pytest.approx(3.0)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=1, max_size=25))
    def test_matches_raster_oracle(self, raw):
        arc = ParetoArchive()
        for i, (c, s) in enumerate(raw):
            arc.insert(_objsol(float(c), -float(s), i))  # min-form (c, s)
        ref = ObjectiveVector(40.0, -40.0)
        hv = hypervolume_in_box(arc, ref)
        pts = [s.objectives.as_min_pair() for s in arc]
        oracle = hypervolume_raster(pts, (40.0, 40.0), cells=900)
        assert hv == pytest.approx(oracle, rel=0.02, abs=1.0)

    def test_insert_never_decreases_hv_below_capacity(self, rng):
        arc = ParetoArchive()
        ref = ObjectiveVector(100.0, 0.0)
        prev = 0.0
        for i in range(100):
            c = float(rng.uniform(1, 90))
            s = float(rng.uniform(1, 90))
            arc.insert(_objsol(c, s, i))
            cur = hypervolume_in_box(arc, ref)
            assert cur >= prev - 1e-12
            prev = cur
