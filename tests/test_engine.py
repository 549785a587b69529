"""Stream driver: initialization, window commits, idle cycles, finalization."""

import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mostream import core, engine, metrics, objectives
from mostream.anttree import COLUMNS
from mostream.core import (
    MAX_ABS_VALUE,
    ClusteringSolution,
    ObjectiveVector,
    StreamConfig,
    WindowBatch,
    assign_batch,
)
from mostream.engine import (
    EngineState,
    FinalSelection,
    _Worker,
    initialize,
    finalize,
    on_idle,
    process_window,
    run_stream,
)
from mostream.evolution import IdleBudget, breed
from mostream.metrics import select_best
from mostream.objectives import ARCHIVE_CAPACITY, evaluate_solution
from mostream.seeders import grow_gas, sweep_ks
from mostream.core import serialize_chromosome
from mostream.stream_io import gen_blobs

from oracles import absorb_window_reference, commit_absorb_reference


def _blob_stream(windows=4, seed=0, k=4, window_size=100):
    per_blob = windows * window_size // k
    return gen_blobs(
        k=k, per_blob=per_blob, sep=10.0, stddev=0.5,
        window_size=window_size, seed=seed,
    )


def _run_collecting(batches, cfg):
    """``run_stream``'s state and selection, and every window's report as
    ``on_window_end`` saw it: the state keeps only the last one."""
    reports = []
    state, sel = run_stream(batches, cfg, on_window_end=lambda s: reports.append(s.reports[-1]))
    return state, sel, reports


class TestInitialize:
    def test_archive_seeded_within_capacity(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        assert 1 <= len(state.archive) <= ARCHIVE_CAPACITY
        state.archive.validate()

    def test_solution_ids_unique(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        ids = [s.solution_id for s in state.archive]
        assert len(ids) == len(set(ids))

    def test_first_report_emitted(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        assert len(state.reports) == 1
        rep = state.reports[0]
        assert rep.window_id == four_blob_window.window_id
        assert rep.archive_size == len(state.archive)
        assert rep.stored_vectors == state.stored_vector_count()
        assert rep.elapsed_ms is None  # fixed idle generations

    def test_wall_clock_mode_reports_elapsed(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig(idle_generations_cap=None))
        assert state.reports[0].elapsed_ms is not None

    def test_hv_reference_dominates_seed_population(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        ref_c, _ = state.hv_reference.as_min_pair()
        assert all(s.objectives.compactness < ref_c for s in state.archive)

    def test_tree_aggregated_and_pointless(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        tree = state.tree
        assert tree.node_count() == len(four_blob_window)
        assert all(len(getattr(tree, name)) == tree.node_count() for name in COLUMNS)

    def test_two_point_window(self):
        w = WindowBatch(np.array([[0.0, 0.0], [8.0, 8.0]]), 0)
        state = initialize(w, StreamConfig())
        assert len(state.archive) >= 1
        state.archive.validate()

    def test_single_point_window(self):
        w = WindowBatch(np.array([[3.0, 4.0]]), 0)
        state = initialize(w, StreamConfig())
        assert len(state.archive) >= 1
        assert state.stored_vector_count() >= 2  # one tree node + archive

    def test_deterministic_initialization(self, four_blob_window):
        a = initialize(four_blob_window, StreamConfig())
        b = initialize(four_blob_window, StreamConfig())
        chrom_a = sorted(tuple(serialize_chromosome(s)) for s in a.archive)
        chrom_b = sorted(tuple(serialize_chromosome(s)) for s in b.archive)
        assert chrom_a == chrom_b


def _fail(message):
    raise ValueError(message)


def _cpus(monkeypatch, count):
    """Make ``count`` CPUs look usable, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Count the parent's ``os.fork`` calls."""
    made = []
    real = os.fork

    def counting():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return made


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestGasWorker:
    """``initialize`` grows the gas in one forked child while the tree, the
    k-means sweep and the density scan run, and labels it in process."""

    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_forked_gas_equals_in_process_gas(self, monkeypatch, forks, dim):
        data = np.random.default_rng(dim).normal(size=(150, dim)) * 3.0
        _cpus(monkeypatch, 2)
        forked = _Worker(grow_gas, data, 11).result()
        assert forks == [1]
        _cpus(monkeypatch, 1)
        local = _Worker(grow_gas, data, 11).result()
        assert forks == [1]
        for a, b in zip(forked, local):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_child_exception_reaches_parent(self, monkeypatch, forks):
        _cpus(monkeypatch, 2)
        worker = _Worker(_fail, "gas went wrong")
        try:
            with pytest.raises(ValueError, match="^gas went wrong$"):
                worker.result()
        finally:
            worker.close()
        assert forks == [1]

    def test_child_that_sends_nothing_raises(self, monkeypatch, forks):
        _cpus(monkeypatch, 2)
        worker = _Worker(os._exit, 3)
        try:
            with pytest.raises(RuntimeError, match="code 3 without sending"):
                worker.result()
        finally:
            worker.close()
        assert forks == [1]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_set_up_reaps_the_child(self, monkeypatch, forks, four_blob_window, error):
        def failing(window, seed, ks):
            raise error("sweep failed")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(engine, "kmeans_sweep", failing)
        with pytest.raises(error, match="sweep failed"):
            initialize(four_blob_window, StreamConfig())
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_the_worker_sweep_reaches_the_parent(
        self, monkeypatch, forks, four_blob_window
    ):
        parent, sweep = os.getpid(), engine.kmeans_sweep

        def failing_in_the_child(window, seed, ks):
            if os.getpid() != parent:
                raise ValueError("worker's sweep failed")
            return sweep(window, seed, ks)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(engine, "kmeans_sweep", failing_in_the_child)
        with pytest.raises(ValueError, match="^worker's sweep failed$"):
            initialize(four_blob_window, StreamConfig())
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_single_cpu_never_forks(self, monkeypatch, four_blob_window):
        def no_fork():
            raise AssertionError("forked on one CPU")

        _cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert len(initialize(four_blob_window, StreamConfig()).archive) >= 1

    def test_missing_fork_runs_in_process(self, monkeypatch, four_blob_window):
        _cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert len(initialize(four_blob_window, StreamConfig()).archive) >= 1

    @pytest.mark.parametrize("dim", [2, 16])
    def test_initialize_identical_on_both_paths(self, monkeypatch, forks, dim):
        window = gen_blobs(k=4, per_blob=75, sep=3.0, stddev=1.0,
                           window_size=300, seed=dim, dim=dim)[0]
        cfg = StreamConfig(rng_seed=dim)
        states = []
        for cpus in (2, 1):
            _cpus(monkeypatch, cpus)
            states.append(initialize(window, cfg))
        assert forks == [1]
        forked, local = states
        assert [r.to_dict() for r in forked.reports] == [r.to_dict() for r in local.reports]
        assert [s.solution_id for s in forked.archive] == [s.solution_id for s in local.archive]
        for a, b in zip(forked.archive, local.archive):
            assert serialize_chromosome(a).tobytes() == serialize_chromosome(b).tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()


def _sweep_spies(monkeypatch):
    """Record the k values of each of this process's ``kmeans_sweep`` calls,
    and the population's k values as ``initialize`` first scores it."""
    shares, scored = [], []
    sweep, assign = engine.kmeans_sweep, engine.assign_batch

    def sweep_spy(window, seed, ks):
        out = sweep(window, seed, ks)
        shares.append([sol.k for sol in out])
        return out

    def assign_spy(solutions, data):
        if not scored:
            scored.append([sol.k for sol in solutions])
        return assign(solutions, data)

    monkeypatch.setattr(engine, "kmeans_sweep", sweep_spy)
    monkeypatch.setattr(engine, "assign_batch", assign_spy)
    return shares, scored


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSplitSweep:
    """Both processes take the sweep's k values from one token pipe; the
    result does not depend on which process ran which k."""

    @pytest.mark.parametrize("n, dim", [(1000, 2), (1000, 16), (9, 2)])
    def test_reports_equal_whoever_runs_each_k(self, monkeypatch, forks, n, dim):
        window = gen_blobs(k=4, per_blob=-(-n // 4), sep=3.0, stddev=1.0,
                           window_size=n, seed=dim, dim=dim)[0]
        cfg = StreamConfig(rng_seed=dim)
        build = engine.build_initial_tree

        def slow_build(first_window):
            time.sleep(0.5)
            return build(first_window)

        ks = list(sweep_ks(n))
        states = []
        for way in ("one cpu", "two cpus", "worker takes every k"):
            _cpus(monkeypatch, 1 if way == "one cpu" else 2)
            if way == "worker takes every k":
                monkeypatch.setattr(engine, "build_initial_tree", slow_build)
            with monkeypatch.context() as spies:
                shares, scored = _sweep_spies(spies)
                states.append(initialize(window, cfg))
            # macro view, the sweep in k order, density scan, gas
            assert scored[0][1:-2] == ks
            if way == "one cpu":  # claimed largest first
                assert shares == [ks[::-1], []]
            elif way == "worker takes every k":
                assert shares == [[]]
        assert forks == [1, 1]
        reference = states[0]
        for state in states[1:]:
            assert [r.to_dict() for r in state.reports] == [r.to_dict() for r in reference.reports]
            assert len(state.archive) == len(reference.archive)
            for a, b in zip(state.archive, reference.archive):
                assert a.solution_id == b.solution_id
                assert serialize_chromosome(a).tobytes() == serialize_chromosome(b).tobytes()
                assert a.weights.tobytes() == b.weights.tobytes()


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("path", ["forked", "failed", "worker failed", "one cpu", "no fork"])
def test_initialize_leaves_no_descriptor_open(monkeypatch, four_blob_window, path):
    _cpus(monkeypatch, 1 if path == "one cpu" else 2)
    if path == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    if path in ("failed", "worker failed"):
        parent = os.getpid()

        def failing(window, seed, ks):
            if path == "failed" or os.getpid() != parent:
                raise RuntimeError("sweep failed")
            return []

        monkeypatch.setattr(engine, "kmeans_sweep", failing)
    before = _open_descriptors()
    if path in ("failed", "worker failed"):
        with pytest.raises(RuntimeError, match="sweep failed"):
            initialize(four_blob_window, StreamConfig())
    else:
        initialize(four_blob_window, StreamConfig())
    assert _open_descriptors() == before


class TestProcessWindow:
    def test_rejects_skipped_window_id(self):
        batches = _blob_stream(windows=3)
        state = initialize(batches[0], StreamConfig())
        with pytest.raises(ValueError, match="sequential"):
            process_window(state, batches[2])

    def test_rejects_dimension_drift(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        bad = WindowBatch(np.zeros((10, 3)), four_blob_window.window_id + 1)
        with pytest.raises(ValueError, match="dimension"):
            process_window(state, bad)

    def test_reports_accumulate_in_window_order(self):
        batches = _blob_stream(windows=4)
        state = initialize(batches[0], StreamConfig())
        reports = [state.reports[-1]]
        for w in batches[1:]:
            reports.append(process_window(state, w))
        assert [r.window_id for r in reports] == [0, 1, 2, 3]
        assert state.windows == 4 and list(state.reports) == reports[-1:]

    def test_archive_nondominated_after_commit(self):
        batches = _blob_stream(windows=3)
        state = initialize(batches[0], StreamConfig())
        for w in batches[1:]:
            process_window(state, w)
            state.archive.validate()

    def test_only_latest_window_retained(self):
        batches = _blob_stream(windows=3)
        state = initialize(batches[0], StreamConfig())
        for w in batches[1:]:
            process_window(state, w)
        assert state.last_window is batches[-1]
        tree = state.tree
        assert all(len(getattr(tree, name)) == tree.node_count() for name in COLUMNS)

    def test_hv_reference_frozen_after_init(self):
        batches = _blob_stream(windows=3)
        state = initialize(batches[0], StreamConfig())
        ref = state.hv_reference.as_min_pair()
        for w in batches[1:]:
            process_window(state, w)
        assert state.hv_reference.as_min_pair() == ref

    def test_unlabeled_stream_reports_no_scores(self):
        batches = _blob_stream(windows=2)
        stripped = [
            WindowBatch(w.data, w.window_id, start_index=w.start_index)
            for w in batches
        ]
        state = initialize(stripped[0], StreamConfig())
        rep = process_window(state, stripped[1])
        assert rep.nmi is None and rep.arand is None

    def test_labeled_stream_reports_scores(self):
        batches = _blob_stream(windows=2)
        state = initialize(batches[0], StreamConfig())
        rep = process_window(state, batches[1])
        assert 0.0 <= rep.nmi <= 1.0
        assert -0.5 <= rep.arand <= 1.0


class TestCommitMeans:
    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_merged_prototypes_match_masked_mean_reference(self, dim):
        # prune_threshold 0 keeps every row, so each surviving member shows
        # its merged prototypes and faded weights as they left the absorb step
        cfg = StreamConfig(window_size=60, prune_threshold=0.0)
        rng = np.random.default_rng(dim)
        first, second = (
            WindowBatch(rng.normal(10.0, 2.0, size=(60, dim)), wid) for wid in (0, 1)
        )
        state = initialize(first, cfg)
        before = {s.solution_id: s.copy() for s in state.archive}
        process_window(state, second)
        checked = 0
        for sol in state.archive:
            if sol.solution_id not in before:  # the tree's macro offer
                continue
            old = before[sol.solution_id]
            protos, weights, _ = absorb_window_reference(
                old.prototypes, old.weights, second.data, cfg.gamma
            )
            assert np.array_equal(sol.prototypes, protos)
            assert np.array_equal(sol.weights, weights)
            checked += 1
        assert checked >= 2

    def test_unfed_cluster_merges_with_its_faded_mass(self):
        """A cluster the window does not feed still fades, and when a later
        window feeds it again, that faded mass is its merge history."""
        cfg = StreamConfig(prune_threshold=0.0)
        rng = np.random.default_rng(4)
        corners = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])

        def window(wid, blobs):
            rows = np.repeat(corners[blobs], 25, axis=0)
            return WindowBatch(rows + rng.normal(size=rows.shape), wid)

        # window 1 feeds only the two lower blobs, window 2 all four again
        windows = [window(0, [0, 1, 2, 3]), window(1, [0, 1]), window(2, [0, 1, 2, 3])]
        state = initialize(windows[0], cfg)
        snapshots = []
        for w in windows[1:]:
            snapshots.append({s.solution_id: s.copy() for s in state.archive})
            process_window(state, w)
        first, second = snapshots
        refed = 0
        for sol in state.archive:
            if sol.solution_id not in first or sol.solution_id not in second:
                continue
            _, _, unfed = absorb_window_reference(
                first[sol.solution_id].prototypes, first[sol.solution_id].weights,
                windows[1].data, cfg.gamma,
            )
            old = second[sol.solution_id]
            protos, weights, fed = absorb_window_reference(
                old.prototypes, old.weights, windows[2].data, cfg.gamma
            )
            assert np.array_equal(sol.prototypes, protos)
            assert np.array_equal(sol.weights, weights)
            refed += int(np.count_nonzero((unfed == 0) & (fed > 0)))
        assert refed >= 1


@st.composite
def _commit_case(draw):
    """A window and 1-5 members whose prototypes are window rows or lattice
    points, so K = 1 members, unfed clusters and coincident prototypes all
    occur; values may sit at +/-MAX_ABS_VALUE, and a large threshold prunes
    members to one cluster. d covers both sides of the summation switch at
    8 coordinates."""
    d = draw(st.sampled_from([1, 2, 7, 8, 16]))
    scale = draw(st.sampled_from([1.0, MAX_ABS_VALUE]))
    cell = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])

    def rows(count):
        cells = draw(st.lists(cell, min_size=count * d, max_size=count * d))
        return np.array(cells).reshape(count, d) * scale

    data = rows(draw(st.integers(1, 30)))
    if draw(st.booleans()):  # break the lattice's ties
        noise = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=data.shape)
        data = np.clip(data + 0.1 * scale * noise, -MAX_ABS_VALUE, MAX_ABS_VALUE)
    members = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 6))
        if draw(st.booleans()):
            picks = draw(st.lists(st.integers(0, len(data) - 1), min_size=k, max_size=k))
            protos = data[picks]
        else:
            protos = rows(k)
        weights = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k)))
        members.append((protos, weights, draw(st.floats(0.0, 1e3))))
    gamma = draw(st.sampled_from([0.3, 0.7, 1.0]))
    threshold = draw(st.sampled_from([0.0, 0.1, 2.0, 1e9]))
    return data, members, gamma, threshold


class TestStackedCommit:
    @given(case=_commit_case())
    def test_matches_per_member_reference(self, case):
        """The stacked absorb/fade/prune gives every member the prototypes,
        weights, window compactness and surviving rows of the per-member
        loop, byte for byte, whatever compactness the members carry, and
        leaves the members as they were."""
        data, members, gamma, threshold = case
        sols = [
            ClusteringSolution(ObjectiveVector(c, 0.0), p.copy(), i, weights=w.copy())
            for i, (p, w, c) in enumerate(members)
        ]
        cfg = StreamConfig(gamma=gamma, prune_threshold=threshold)
        clones = engine._absorb(sols, data, cfg)
        want = commit_absorb_reference([(p, w) for p, w, _ in members], data, gamma, threshold)
        assert len(clones) == len(want)
        for sol, clone, (protos, weights, compactness), (p, w, c) in zip(
            sols, clones, want, members
        ):
            assert clone.solution_id == sol.solution_id
            assert clone.prototypes.shape == protos.shape
            assert clone.prototypes.tobytes() == protos.tobytes()
            assert clone.weights.tobytes() == weights.tobytes()
            assert np.float64(clone.objectives.compactness).tobytes() == (
                np.float64(compactness).tobytes()
            )
            assert sol.prototypes.tobytes() == p.tobytes()
            assert sol.weights.tobytes() == w.tobytes()
            assert sol.objectives.compactness == c


class TestNoHistory:
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 8, 16]))
    def test_objectives_carry_no_history(self, seed, d):
        """Scoring reads the window and the prototypes only: the compactness
        a solution carries in never reaches its objectives, bred or
        committed."""
        rng = np.random.default_rng(seed)
        window = WindowBatch(rng.normal(size=(int(rng.integers(5, 60)), d)) * 3.0, 0)
        sols = []
        for i in range(int(rng.integers(2, 7))):
            k = int(rng.integers(1, 8))
            carried = ObjectiveVector(float(rng.uniform(0, 1e3)), float(rng.uniform(0, 9)))
            sols.append(ClusteringSolution(carried, rng.normal(size=(k, d)) * 3.0, i,
                                           weights=rng.uniform(0, 5, size=k)))

        carried, fresh = [s.copy() for s in sols], [s.copy() for s in sols]
        for sol in fresh:
            sol.objectives = ObjectiveVector()
        for batch in (carried, fresh):
            evaluate_solution(batch, *assign_batch(batch, window.data))
        assert [s.objectives for s in carried] == [s.objectives for s in fresh]

        offspring = breed(sols, window, StreamConfig(), rng)
        again = [child.copy() for child in offspring]
        for sol in again:
            sol.objectives.compactness = float(rng.uniform(0, 1e3))
        evaluate_solution(again, *assign_batch(again, window.data))
        for child, sol in zip(offspring, again):
            assert np.array_equal(child.prototypes, sol.prototypes)
            assert child.objectives == sol.objectives

        clones = engine._absorb(sols, window.data, StreamConfig())
        for clone, dists in zip(clones, assign_batch(sols, window.data)[1]):
            assert clone.objectives.compactness == float(dists.sum())


class TestCommitAssignments:
    def test_accepted_offer_is_not_assigned_again(self, monkeypatch):
        """A commit assigns the window three times: once for the members
        before the merge, once for the moved members and once for the tree's
        macro offer alone. The report reuses those pairs, the accepted
        offer's included."""
        calls = []

        def counting(solutions, data):
            calls.append(len(solutions))
            return assign_batch(solutions, data)

        monkeypatch.setattr(engine, "assign_batch", counting)
        batches = gen_blobs(k=4, per_blob=150, sep=10.0, stddev=0.5, drift=(0.05, 0.02),
                            window_size=100, seed=5)
        state = initialize(batches[0], StreamConfig(idle_generations_cap=2, rng_seed=5))
        on_idle(state, IdleBudget(2))
        accepted = 0
        for window in batches[1:3]:
            calls.clear()
            process_window(state, window)
            offer = state.next_solution_id - 1
            accepted += offer in [s.solution_id for s in state.archive]
            assert len(calls) == 3, calls
            on_idle(state, IdleBudget(2))
        assert accepted == 2

    def test_wide_offer_rows_match_one_stacked_assignment(self, monkeypatch):
        """Step (4) assigns the members and the macro offer in two calls,
        each at its own width. On this drifting stream the offer's K
        exceeds every member's from the third commit on, and the offer
        joins the archive; after each commit the report's rows and picked
        DBI equal, byte for byte, those of one stacked ``assign_batch`` over
        the archive's members, the offer included."""
        widths = []
        assign = engine.assign_batch

        def recording(solutions, data):
            widths.append([sol.k for sol in solutions])
            return assign(solutions, data)

        checked = []
        pick = engine.select_best

        def checking(members, labels, dists):
            members = list(members)
            fresh = assign(members, state.last_window.data)
            for a, b in zip((labels, dists), fresh):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            best, dbi, row = pick(members, labels, dists)
            ref_best, ref_dbi, ref_row = pick(members, *fresh)
            assert best is ref_best and np.array_equal(row, ref_row)
            assert np.float64(dbi).tobytes() == np.float64(ref_dbi).tobytes()
            checked.append(state.last_window.window_id)
            return best, dbi, row

        batches = gen_blobs(k=4, per_blob=200, sep=3.0, stddev=1.0, drift=(1.5, 0.5),
                            window_size=100, seed=0)
        cfg = StreamConfig(window_size=100, idle_generations_cap=2, rng_seed=0)
        state = initialize(batches[0], cfg)
        monkeypatch.setattr(engine, "assign_batch", recording)
        monkeypatch.setattr(engine, "select_best", checking)
        wide_and_joined = 0
        for window in batches[1:]:
            on_idle(state, IdleBudget(cfg.idle_generations_cap))
            widths.clear()
            process_window(state, window)
            _, members, [offer] = widths
            joined = state.next_solution_id - 1 in [s.solution_id for s in state.archive]
            wide_and_joined += joined and offer > max(members)
        assert checked == [1, 2, 3, 4, 5, 6, 7]
        assert wide_and_joined >= 5

    def test_offer_pair_follows_dropped_clusters(self, monkeypatch):
        """Scoring drops the macro offer's unfed clusters; the pair the
        report reuses must label the rows the offer keeps. On this stream
        the offer loses a middle cluster and still joins the archive (at
        windows 4 and 5), and after every commit the reused pairs score as
        fresh ones do."""
        dropped_middle = []
        stack = engine.stack_labels

        def watching(solutions, labels):
            # step (4) stacks the macro offer last, before it takes its id
            if solutions[-1].solution_id < 0:
                fed = np.bincount(labels[-1], minlength=solutions[-1].k) > 0
                dropped_middle.append(bool((~fed[: np.flatnonzero(fed)[-1]]).any()))
            return stack(solutions, labels)

        checked = []
        pick = engine.select_best

        def checking(members, labels, dists):
            members = list(members)
            window = state.last_window
            fresh = assign_batch(members, window.data)
            for a, b in zip((labels, dists), fresh):
                assert a.tobytes() == b.tobytes()
            assert metrics.davies_bouldin(members, labels, dists) == (
                metrics.davies_bouldin(members, *fresh)
            )
            best, dbi, labels = pick(members, labels, dists)
            ref_best, ref_dbi, ref_labels = pick(members, *fresh)
            assert best is ref_best
            assert np.float64(dbi).tobytes() == np.float64(ref_dbi).tobytes()
            assert np.array_equal(labels, ref_labels)
            checked.append(window.window_id)
            return best, dbi, labels

        batches = gen_blobs(k=4, per_blob=300, sep=10.0, stddev=0.5,
                            drift=(0.5, 0.2), window_size=100, seed=8)[:6]
        cfg = StreamConfig(rng_seed=8)
        state = initialize(batches[0], cfg)
        monkeypatch.setattr(engine, "stack_labels", watching)
        monkeypatch.setattr(engine, "select_best", checking)
        accepted = 0
        for window in batches[1:]:
            dropped_middle.clear()
            on_idle(state, IdleBudget(cfg.idle_generations_cap))
            process_window(state, window)
            offer = state.next_solution_id - 1
            joined = offer in [s.solution_id for s in state.archive]
            accepted += joined and dropped_middle == [True]
        assert checked == [1, 2, 3, 4, 5]
        assert accepted >= 1

    def test_report_rows_are_a_fresh_assignment_of_the_archive(self, monkeypatch):
        """``initialize``, every commit and ``finalize`` hand ``select_best``
        the archive's members in archive order, with rows bit-identical to
        a fresh ``assign_batch`` of the archive on the window reported."""
        handed = []
        pick = engine.select_best

        def recording(members, labels, dists):
            handed.append((list(members), labels.copy(), dists.copy()))
            return pick(members, labels, dists)

        def check(state, window):
            [(members, labels, dists)] = handed
            handed.clear()
            archive = list(state.archive)
            assert len(members) == len(archive)
            assert all(a is b for a, b in zip(members, archive))
            fresh = assign_batch(archive, window.data)
            assert labels.tobytes() == fresh[0].tobytes()
            assert dists.tobytes() == fresh[1].tobytes()

        monkeypatch.setattr(engine, "select_best", recording)
        batches = gen_blobs(k=4, per_blob=300, sep=10.0, stddev=0.5,
                            drift=(0.5, 0.2), window_size=100, seed=8)[:6]
        state = initialize(batches[0], StreamConfig(idle_generations_cap=2, rng_seed=8))
        check(state, batches[0])
        for window in batches[1:]:
            on_idle(state, IdleBudget(2))
            process_window(state, window)
            check(state, window)
        on_idle(state, IdleBudget(2))
        finalize(state)
        check(state, batches[-1])

    def test_one_scoring_pass_for_members_and_offer(self, monkeypatch):
        """Step (4) scores the members and the macro offer together: a
        commit stacks labels three times (absorb, step 4, report) and calls
        separateness once."""
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        batches = _blob_stream(windows=4, seed=3)
        state = initialize(batches[0], StreamConfig(rng_seed=3))
        stack = counting("stack_labels", core.stack_labels)
        score = counting("separateness", objectives.separateness)
        for module in (engine, objectives, metrics):
            monkeypatch.setattr(module, "stack_labels", stack)
        for module in (engine, objectives):
            monkeypatch.setattr(module, "separateness", score)
        for window in batches[1:]:
            calls.clear()
            process_window(state, window)
            assert sorted(calls) == ["separateness"] + ["stack_labels"] * 3


class TestOnIdle:
    def test_runs_exactly_budgeted_generations(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        before = state.idle_counter
        gens = on_idle(state, IdleBudget(5))
        assert gens == 5
        assert state.idle_counter == before + 5

    def test_zero_budget_is_noop(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        chrom = sorted(tuple(serialize_chromosome(s)) for s in state.archive)
        assert on_idle(state, IdleBudget(0)) == 0
        assert chrom == sorted(tuple(serialize_chromosome(s)) for s in state.archive)

    def test_one_generation_at_set_up_then_one_per_budgeted_step(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        assert state.idle_counter == 1
        on_idle(state, IdleBudget(3))
        assert state.idle_counter == 4

    def test_deadline_mid_generation_keeps_the_whole_generation(
        self, four_blob_window, monkeypatch
    ):
        whole = initialize(four_blob_window, StreamConfig())
        start = whole.next_solution_id
        assert on_idle(whole, IdleBudget(1)) == 1
        bred = whole.next_solution_id - start
        assert bred > 2

        # the wall deadline passes while the first generation breeds
        budget = IdleBudget(5, wall_deadline=time.monotonic() + 3600.0)
        generations = []

        def breed_past_deadline(*args):
            budget.wall_deadline = time.monotonic() - 1.0
            generations.append(breed(*args))
            return generations[-1]

        state = initialize(four_blob_window, StreamConfig())
        breed = engine.breed
        monkeypatch.setattr(engine, "breed", breed_past_deadline)
        assert on_idle(state, budget) == 1
        [offspring] = generations
        # every offspring is kept and numbered in breeding order; no other
        # generation starts
        assert [o.solution_id for o in offspring] == list(range(start, start + bred))
        assert state.next_solution_id == whole.next_solution_id
        assert state.idle_counter == whole.idle_counter
        assert [tuple(serialize_chromosome(s)) for s in state.archive] == [
            tuple(serialize_chromosome(s)) for s in whole.archive
        ]
        state.archive.validate()


class TestFinalize:
    def test_package_contents(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        sel = finalize(state)
        assert isinstance(sel, FinalSelection)
        assert len(sel.assignments) == len(four_blob_window)
        assert len(sel.indices) == len(four_blob_window)
        assert np.isfinite(sel.dbi)

    def test_selection_is_archive_best(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        sel = finalize(state)
        members = list(state.archive)
        best, dbi, _ = select_best(members, *assign_batch(members, four_blob_window.data))
        assert sel.dbi == dbi
        assert np.array_equal(
            sel.solution.prototypes, best.prototypes
        )

    def test_selection_is_detached_copy(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        sel = finalize(state)
        sel.solution.prototypes[0] = 1e9
        for member in state.archive:
            assert not np.any(member.prototypes >= 1e9)

    def test_assignments_match_solution(self, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        sel = finalize(state)
        assert np.array_equal(
            sel.assignments, assign_batch([sel.solution], four_blob_window.data)[0][0]
        )


class TestRunStream:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            run_stream([], StreamConfig())

    def test_end_to_end_report_per_window(self):
        batches = _blob_stream(windows=4)
        cfg = StreamConfig(idle_generations_cap=2)
        seen = []
        state, sel = run_stream(
            batches, cfg, on_window_end=lambda s: seen.append(s.reports[-1])
        )
        assert [r.window_id for r in seen] == [0, 1, 2, 3]
        assert state.windows == 4 and list(state.reports) == seen[-1:]
        assert sel.solution.k >= 1

    def test_window_end_hook_sees_valid_archive(self):
        batches = _blob_stream(windows=3)
        run_stream(
            batches,
            StreamConfig(idle_generations_cap=2),
            on_window_end=lambda s: s.archive.validate(),
        )

    def test_no_idle_budget_preserves_initial_archive(self, four_blob_window):
        cfg = StreamConfig(idle_generations_cap=0)
        state, sel = run_stream([four_blob_window], cfg)
        members = list(state.archive)
        best, dbi, _ = select_best(members, *assign_batch(members, four_blob_window.data))
        assert sel.dbi == dbi

    def test_deterministic_reports_have_no_wall_times(self):
        batches = _blob_stream(windows=2)
        _, _, reports = _run_collecting(batches, StreamConfig(idle_generations_cap=1))
        assert all(r.elapsed_ms is None for r in reports)

    def test_wall_clock_matches_deterministic_given_same_generations(self):
        batches = _blob_stream(windows=3)

        def drive(cap):
            state = initialize(batches[0], StreamConfig(idle_generations_cap=cap))
            reports = [state.reports[-1]]
            on_idle(state, IdleBudget(3))
            for w in batches[1:]:
                reports.append(process_window(state, w))
                on_idle(state, IdleBudget(3))
            return state, reports

        (det, det_reports), (wall, wall_reports) = drive(3), drive(None)
        det_chrom = [tuple(serialize_chromosome(s)) for s in det.archive]
        wall_chrom = [tuple(serialize_chromosome(s)) for s in wall.archive]
        assert det_chrom == wall_chrom
        for a, b in zip(det_reports, wall_reports):
            assert a.window_id == b.window_id
            assert a.best_dbi == b.best_dbi
            assert a.hypervolume == b.hypervolume
            assert a.stored_vectors == b.stored_vectors
            assert a.elapsed_ms is None and b.elapsed_ms is not None

    def test_zero_interval_matches_zero_idle_generations(self):
        batches = _blob_stream(windows=3)
        det, det_sel, det_reports = _run_collecting(batches, StreamConfig(idle_generations_cap=0))
        wall, wall_sel, wall_reports = _run_collecting(
            batches, StreamConfig(interval_ms=0, idle_generations_cap=None)
        )
        assert [tuple(serialize_chromosome(s)) for s in wall.archive] == [
            tuple(serialize_chromosome(s)) for s in det.archive
        ]
        assert wall.idle_counter == det.idle_counter
        for a, b in zip(det_reports, wall_reports, strict=True):
            assert a.elapsed_ms is None and b.elapsed_ms is not None
            assert {**a.to_dict(), "elapsed_ms": 0} == {**b.to_dict(), "elapsed_ms": 0}
        assert wall_sel.dbi == det_sel.dbi
        assert np.array_equal(wall_sel.assignments, det_sel.assignments)

    def test_memory_does_not_grow_with_the_stream(self):
        """The state keeps the last report and a count, not every report:
        the tracemalloc peak over 2,000 windows of 20 rows stays within
        64 KiB of the peak over the first 200. Keeping every report put
        about 350 KiB on it."""

        def peak(batches, cfg):
            tracemalloc.start()
            try:
                state, _ = run_stream(batches, cfg)
                return state, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batches = gen_blobs(k=4, per_blob=10_000, sep=10.0, stddev=0.5, window_size=20, seed=0)
        cfg = StreamConfig(window_size=20, idle_generations_cap=0, rng_seed=0)
        _, short = peak(batches[:200], cfg)
        state, long = peak(batches, cfg)
        assert state.windows == len(batches) == 2000
        assert long - short <= 64 * 1024, (short, long)

    def test_values_at_the_input_bound_stay_finite(self):
        batches = [
            WindowBatch(
                np.clip(b.data * 2e99, -MAX_ABS_VALUE, MAX_ABS_VALUE),
                b.window_id, labels=b.labels, start_index=b.start_index,
            )
            for b in _blob_stream(windows=3)
        ]
        assert max(np.abs(b.data).max() for b in batches) == MAX_ABS_VALUE
        state, sel, reports = _run_collecting(batches, StreamConfig(idle_generations_cap=2))
        for rep in reports:
            assert np.isfinite([rep.hypervolume, rep.best_dbi, rep.best_fitness]).all()
        for member in state.archive:
            assert np.isfinite(member.objectives.as_min_pair()).all()
        assert np.isfinite(sel.dbi)


class TestGammaOneConservation:
    def test_tree_prototypes_are_exact_means(self):
        # gamma=1 disables decay and threshold 0 disables pruning, so every
        # node prototype must equal the mean of the points it ever absorbed
        batches = _blob_stream(windows=10, seed=3)
        cfg = StreamConfig(gamma=1.0, prune_threshold=0.0, idle_generations_cap=0)
        state = initialize(batches[0], cfg)

        tree = state.tree
        absorbed = {
            nid: [proto * count]
            for nid, proto, count in zip(tree.ids.tolist(), tree.prototypes, tree.weights)
        }

        original_map = tree.map_window

        def recording_map(block):
            nodes = original_map(block)
            for nid, point in zip(nodes.tolist(), block):
                absorbed.setdefault(nid, []).append(np.asarray(point, float))
            return nodes

        tree.map_window = recording_map
        for w in batches[1:]:
            process_window(state, w)

        for nid, chunks in absorbed.items():
            if nid not in tree.ids:
                continue
            row = tree.ids.tolist().index(nid)
            total = np.sum(chunks, axis=0)
            count = tree.weights[row]
            # every build node houses exactly one point, so chunk count is
            # the number of points this node has ever held
            assert count == pytest.approx(float(len(chunks)))
            assert np.allclose(
                tree.prototypes[row], total / count, atol=1e-9, rtol=0
            )
