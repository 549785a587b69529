"""Genetic operators and the idle-time improvement cycle."""

import copy
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mostream import core, evolution, objectives
from mostream.core import (
    ClusteringSolution,
    ObjectiveVector,
    StreamConfig,
    WindowBatch,
    assign_batch,
    serialize_chromosome,
)
from mostream.engine import EngineState, on_idle
from mostream.evolution import (
    IdleBudget,
    breed,
    crossover,
    fitness_score,
    mutate,
    select_parents,
)
from mostream.objectives import ParetoArchive, evaluate_solution, hypervolume_in_box
from mostream.seeders import kmeans_sweep


def _sol(protos, c=0.0, s=0.0, sid=0):
    return ClusteringSolution(
        ObjectiveVector(c, s),
        np.asarray(protos, float),
        sid,
    )


class TestIdleBudget:
    def test_counter_gates(self):
        b = IdleBudget(2)
        assert b.allows()
        b.generations_remaining = 0
        assert not b.allows()

    def test_deadline_gates(self):
        b = IdleBudget(5, wall_deadline=time.monotonic() - 1.0)
        assert b.expired()
        assert not b.allows()

    def test_no_deadline_never_expires(self):
        b = IdleBudget(0)
        assert not b.expired()
        assert not b.allows()
        assert not IdleBudget(5, wall_deadline=time.monotonic() + 60.0).expired()


class TestFitness:
    def test_compactness_minus_separateness(self):
        assert fitness_score(_sol([(0, 0)], c=3.0, s=5.0)) == pytest.approx(-2.0)
        assert fitness_score(_sol([(0, 0)], c=5.0, s=5.0)) == pytest.approx(0.0)

    def test_lower_is_better_ordering(self):
        tight = _sol([(0, 0)], c=1.0, s=4.0, sid=1)
        loose = _sol([(0, 0)], c=9.0, s=1.0, sid=2)
        assert fitness_score(tight) < fitness_score(loose)


class TestSelectParents:
    def _archive(self, objs):
        arch = ParetoArchive()
        for i, (c, s) in enumerate(objs):
            arch.insert(_sol([(float(i), 0.0)], c=c, s=s, sid=i))
        return arch

    def test_truncates_to_sigma_best(self):
        # mutually non-dominated front, distinct fitness values
        arch = self._archive([(1.0, 0.5), (2.0, 2.0), (3.0, 4.0), (4.0, 7.0)])
        picked = select_parents(arch, 2)
        assert [fitness_score(p) for p in picked] == sorted(
            fitness_score(m) for m in arch
        )[:2]

    def test_small_archive_returns_everything(self):
        arch = self._archive([(1.0, 0.5), (2.0, 2.0)])
        assert len(select_parents(arch, 10)) == 2

    def test_tie_breaks_by_id(self):
        arch = ParetoArchive()
        arch.insert(_sol([(0.0, 0.0)], c=1.0, s=2.0, sid=7))
        arch.insert(_sol([(1.0, 0.0)], c=2.0, s=3.0, sid=3))
        picked = select_parents(arch, 1)
        assert picked[0].solution_id == 3

    def test_sigma_below_one_rejected(self):
        with pytest.raises(ValueError):
            select_parents(self._archive([(1.0, 0.5)]), 0)


class TestCrossover:
    def test_block_exchange_at_cut_two(self):
        a = _sol([(1, 1), (2, 2), (3, 3)], sid=1)
        b = _sol([(11, 11), (12, 12), (13, 13), (14, 14)], sid=2)
        c1, c2 = crossover(a, b, 2)
        assert list(c1.prototypes[:, 0]) == [1, 2, 13, 14]
        assert list(c2.prototypes[:, 0]) == [3, 11, 12]
        assert {c1.k, c2.k} == {3, 4}

    def test_argument_order_irrelevant_for_blocks(self):
        a = _sol([(1, 1), (2, 2), (3, 3)], sid=1)
        b = _sol([(11, 11), (12, 12), (13, 13), (14, 14)], sid=2)
        x1, x2 = crossover(a, b, 2)
        y1, y2 = crossover(b, a, 2)
        assert np.array_equal(x1.prototypes, y1.prototypes)
        assert np.array_equal(x2.prototypes, y2.prototypes)

    def test_children_are_deep_copies(self):
        a = _sol([(1, 1), (2, 2), (3, 3)], sid=1)
        b = _sol([(11, 11), (12, 12), (13, 13)], sid=2)
        c1, _ = crossover(a, b, 2)
        c1.prototypes[0, 0] = 99.0
        c1.weights[0] = 7.0
        assert a.prototypes[0, 0] == 1.0
        assert a.weights[0] == 1.0

    def test_small_parents_rejected(self):
        a = _sol([(1, 1), (2, 2)])
        b = _sol([(11, 11), (12, 12), (13, 13)])
        with pytest.raises(ValueError, match="K >= 3"):
            crossover(a, b, 2)

    @pytest.mark.parametrize("cut", [0, 1, 3, 5])
    def test_cut_bounds_enforced(self, cut):
        a = _sol([(1, 1), (2, 2), (3, 3)])
        b = _sol([(11, 11), (12, 12), (13, 13)])
        with pytest.raises(ValueError):
            crossover(a, b, cut)

    @given(
        st.integers(3, 8),
        st.integers(3, 8),
        st.data(),
    )
    def test_children_keep_parent_cluster_counts(self, ka, kb, data):
        i = data.draw(st.integers(2, min(ka, kb) - 1))
        a = _sol([(float(j), 0.0) for j in range(ka)])
        b = _sol([(100.0 + j, 0.0) for j in range(kb)])
        c1, c2 = crossover(a, b, i)
        assert sorted([c1.k, c2.k]) == sorted([ka, kb])
        # every child prototype came from exactly one parent block
        merged = sorted(
            list(c1.prototypes[:, 0]) + list(c2.prototypes[:, 0])
        )
        assert merged == sorted(
            [float(j) for j in range(ka)] + [100.0 + j for j in range(kb)]
        )


class _CountingGenerator:
    """A Generator that counts the draw calls made on it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return draw(*args, **kwargs)

        return counted


class TestMutate:
    @pytest.mark.parametrize(
        "mu,d,expected",
        [(0.2, 2, 1), (0.5, 4, 2), (1.0, 3, 3), (0.2, 10, 2), (0.5, 10, 5)],
    )
    def test_exact_coordinate_counts(self, mu, d, expected):
        protos = [np.arange(1, d + 1, dtype=float) for _ in range(3)]
        sol = _sol(protos)
        [out] = mutate([sol], mu, np.random.default_rng(5))
        for before, after in zip(sol.prototypes, out.prototypes):
            changed = int((before != after).sum())
            assert changed == expected

    def test_zero_coordinates_are_fixed_points(self):
        sol = _sol([(0.0, 0.0), (0.0, 0.0)])
        [out] = mutate([sol], 1.0, np.random.default_rng(1))
        assert np.array_equal(out.prototypes, sol.prototypes)

    def test_step_bounded_by_own_magnitude(self):
        sol = _sol([np.full(6, 8.0)])
        [out] = mutate([sol], 1.0, np.random.default_rng(3))
        delta = np.abs(out.prototypes[0] - 8.0)
        assert (delta <= 8.0).all()

    def test_metadata(self):
        sol = _sol([(1.0, 2.0), (3.0, 4.0)], sid=77)
        sol.weights[0] = 2.5
        [out] = mutate([sol], 0.5, np.random.default_rng(0))
        assert out.solution_id == -1
        assert out.weights[0] == 2.5
        # source untouched
        assert sol.solution_id == 77
        assert np.array_equal(sol.prototypes, [[1.0, 2.0], [3.0, 4.0]])

    def test_deterministic_per_seed(self):
        sol = _sol([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        [a] = mutate([sol], 0.5, np.random.default_rng(11))
        [b] = mutate([sol], 0.5, np.random.default_rng(11))
        assert np.array_equal(a.prototypes, b.prototypes)

    @staticmethod
    def _one_at_a_time(parents, mu, rng):
        """Reference, one scalar draw at a time and one parent after another:
        every prototype's d sort keys, then per prototype and chosen
        coordinate a step and a sign draw; the chosen coordinates are the
        n_mut smallest keys. Replay depends on this order."""
        out = []
        for parent in parents:
            k, d = parent.prototypes.shape
            n_mut = max(1, round(mu * d))
            want = parent.prototypes.copy()
            keys = [[rng.random() for _ in range(d)] for _ in range(k)]
            steps = [[(rng.random(), rng.random()) for _ in range(n_mut)] for _ in range(k)]
            for row, row_keys, row_steps in zip(want, keys, steps):
                chosen = sorted(range(d), key=lambda j: row_keys[j])[:n_mut]
                for pos, (rho, flip) in zip(chosen, row_steps):
                    sign = 1.0 if flip < 0.5 else -1.0
                    row[pos] += sign * rho * row[pos]
            out.append(want)
        return out

    @pytest.mark.parametrize("mu,d", [(0.2, 2), (0.5, 7), (1.0, 16)])
    def test_matches_block_draw_order(self, mu, d):
        sol = _sol(np.random.default_rng(d).normal(size=(4, d)))
        [want] = self._one_at_a_time([sol], mu, np.random.default_rng(21))
        [out] = mutate([sol], mu, np.random.default_rng(21))
        assert np.array_equal(out.prototypes, want)

    @pytest.mark.parametrize("mu,d", [(0.2, 1), (0.2, 2), (0.5, 7), (0.3, 8), (1.0, 16)])
    def test_parents_of_mixed_k_match_one_parent_at_a_time(self, mu, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            ks = rng.integers(1, 16, size=int(rng.integers(1, 12)))
            parents = [_sol(rng.normal(size=(int(k), d)) * 10.0, sid=i) for i, k in enumerate(ks)]
            before = [p.prototypes.copy() for p in parents]
            seed = int(rng.integers(1 << 30))
            want = self._one_at_a_time(parents, mu, np.random.default_rng(seed))
            rest = np.random.default_rng(seed)
            out = mutate(parents, mu, rest)
            assert [o.prototypes.shape for o in out] == [w.shape for w in want]
            for o, w in zip(out, want):
                assert np.array_equal(o.prototypes, w)
            # the generator stands where the reference left it
            ref = np.random.default_rng(seed)
            self._one_at_a_time(parents, mu, ref)
            assert rest.random() == ref.random()
            for p, b in zip(parents, before):
                assert np.array_equal(p.prototypes, b)

    def test_one_draw_per_generation(self):
        calls = []
        for ks in ([1], [4], [32], [3, 7, 1, 15], [2] * 10):
            rng = _CountingGenerator(len(ks))
            out = mutate([_sol(np.ones((k, 5))) for k in ks], 0.4, rng)
            assert [o.k for o in out] == ks
            calls.append(rng.calls)
        assert calls == [1] * 5
        rng = _CountingGenerator(0)
        assert mutate([], 0.4, rng) == []
        assert rng.calls == 0

    @pytest.mark.parametrize("mu", [0.0, -0.2, 1.5])
    def test_rate_bounds(self, mu):
        with pytest.raises(ValueError):
            mutate([_sol([(1.0, 1.0)])], mu, np.random.default_rng(0))


class TestBreed:
    def _snapshot(self):
        return WindowBatch(
            np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]]), 0
        )

    def test_low_k_parents_yield_mutants_only(self):
        cfg = StreamConfig()
        parents = [
            _sol([(0.0, 0.0), (10.0, 0.0)], sid=1),
            _sol([(0.1, 0.0), (10.1, 0.0)], sid=2),
        ]
        out = breed(parents, self._snapshot(), cfg, np.random.default_rng(0))
        assert len(out) == 2
        # no cut is drawn, so the generator goes straight to the mutants
        want = mutate(parents, cfg.mu, np.random.default_rng(0))
        for child, mutant in zip(out, want):
            assert np.array_equal(child.prototypes, mutant.prototypes)

    def test_offspring_fully_evaluated_with_fresh_ids(self):
        cfg = StreamConfig()
        parents = [
            _sol([(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)], sid=1),
            _sol([(0.1, 0.0), (5.0, 5.1), (10.1, 0.0)], sid=2),
        ]
        out = breed(parents, self._snapshot(), cfg, np.random.default_rng(1))
        assert len(out) == 4  # 2 crossover children + 2 mutants
        # fresh solutions: the engine numbers them in this order
        assert [o.solution_id for o in out] == [-1] * 4
        assert all(np.isfinite(o.objectives.compactness) for o in out)

    def test_equally_seeded_generators_give_identical_offspring(self):
        cfg = StreamConfig()
        parents = [
            _sol([(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)], sid=1),
            _sol([(0.1, 0.0), (5.0, 5.1), (10.1, 0.0)], sid=2),
            _sol([(0.2, 0.1), (10.2, 0.1)], sid=3),
        ]
        runs = [
            breed(parents, self._snapshot(), cfg, np.random.default_rng(9))
            for _ in range(2)
        ]
        assert len(runs[0]) == len(runs[1]) == 5  # 2 crossover children + 3 mutants
        for a, b in zip(*runs):
            assert a.solution_id == b.solution_id
            assert np.array_equal(a.prototypes, b.prototypes)
            assert a.objectives.as_min_pair() == b.objectives.as_min_pair()

    def test_offspring_scored_in_one_assign_call(self, monkeypatch):
        calls = []

        def counting(solutions, data):
            calls.append(len(solutions))
            return assign_batch(solutions, data)

        monkeypatch.setattr(evolution, "assign_batch", counting)
        parents = [
            _sol([(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)], sid=1),
            _sol([(0.1, 0.0), (5.0, 5.1), (10.1, 0.0)], sid=2),
        ]
        out = breed(parents, self._snapshot(), StreamConfig(),
                    np.random.default_rng(1))
        assert calls == [len(out)] == [4]

    def test_offspring_scored_in_one_evaluate_call(self, monkeypatch):
        calls = []
        evaluate, sep = evolution.evaluate_solution, objectives.separateness

        def counting_evaluate(solutions, labels, dists):
            calls.append(("evaluate", len(solutions)))
            return evaluate(solutions, labels, dists)

        def counting_separateness(blocks):
            calls.append(("separateness", len(blocks)))
            return sep(blocks)

        monkeypatch.setattr(evolution, "evaluate_solution", counting_evaluate)
        monkeypatch.setattr(objectives, "separateness", counting_separateness)
        parents = [
            _sol([(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)], sid=1),
            _sol([(0.1, 0.0), (5.0, 5.1), (10.1, 0.0)], sid=2),
        ]
        out = breed(parents, self._snapshot(), StreamConfig(),
                    np.random.default_rng(1))
        assert calls == [("evaluate", 4), ("separateness", 4)]
        assert len(out) == 4

    def test_small_window_generation_takes_the_stacked_kernel(self, monkeypatch):
        """A 100-row, d = 2 generation of 20 offspring with K up to the
        k-means sweep's 15 builds no per-solution matrix and takes the
        window in one row block: a mis-set ``SCAN_ENTRIES`` would silently
        split it."""
        exact_calls, blocks = [], []
        exact, stacked = core._nearest_exact, core._stacked_block

        def counting(protos, data):
            exact_calls.append(len(protos))
            return exact(protos, data)

        def recording(protos, gather, data):
            blocks.append(len(data))
            return stacked(protos, gather, data)

        monkeypatch.setattr(core, "_nearest_exact", counting)
        monkeypatch.setattr(core, "_stacked_block", recording)
        rng = np.random.default_rng(3)
        window = WindowBatch(rng.normal(size=(100, 2)) * 5.0, 0)
        parents = [_sol(rng.normal(size=(k, 2)) * 5.0, sid=i)
                   for i, k in enumerate(range(6, 16))]
        out = breed(parents, window, StreamConfig(), rng)
        assert len(out) == 20 and max(s.k for s in out) == 15
        assert exact_calls == [] and blocks == [100]


class TestIdleGeneration:
    """One select/crossover/mutate/evaluate/insert cycle, as ``on_idle``
    runs it on an archive of scored k-means seeds."""

    @staticmethod
    def _state(window, solutions, seed=0):
        """An engine state around an archive of the given seeds, scored on
        the window. The idle cycle reads no tree."""
        evaluate_solution(solutions, *assign_batch(solutions, window.data))
        arch = ParetoArchive()
        for sid, sol in enumerate(solutions):
            sol.solution_id = sid
            arch.insert(sol)
        return EngineState(
            cfg=StreamConfig(rng_seed=seed), tree=None, archive=arch,
            last_window=window, hv_reference=ObjectiveVector(),
            next_solution_id=len(solutions),
        )

    def test_deterministic_for_fixed_seed(self, four_blob_window):
        results = []
        for _ in range(2):
            state = self._state(four_blob_window, kmeans_sweep(four_blob_window, seed=0), 42)
            on_idle(state, IdleBudget(1))
            results.append(
                sorted(tuple(serialize_chromosome(m)) for m in state.archive)
            )
        assert results[0] == results[1]

    def test_archive_stays_mutually_nondominated(self, four_blob_window):
        state = self._state(four_blob_window, kmeans_sweep(four_blob_window, seed=0))
        for _ in range(3):
            on_idle(state, IdleBudget(1))
            state.archive.validate()

    def test_hypervolume_never_drops(self, four_blob_window):
        state = self._state(four_blob_window, kmeans_sweep(four_blob_window, seed=0))
        ref = ObjectiveVector(1e6, 0.0)
        hv = hypervolume_in_box(state.archive, ref)
        for _ in range(5):
            on_idle(state, IdleBudget(1))
            nxt = hypervolume_in_box(state.archive, ref)
            assert nxt >= hv - 1e-12
            hv = nxt

    def test_single_member_archive_still_breeds(self, four_blob_window):
        sols = kmeans_sweep(four_blob_window, seed=0)
        state = self._state(four_blob_window, [sols[2]])  # k=4
        before = len(state.archive)
        assert on_idle(state, IdleBudget(1)) == 1
        # the lone parent yields a mutant; insertion may accept or reject it,
        # but the archive never empties and never breaks dominance
        assert state.next_solution_id == 2
        assert len(state.archive) >= 1
        state.archive.validate()
        assert before == 1
