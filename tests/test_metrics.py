import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mostream.core import MAX_ABS_VALUE, ClusteringSolution, ObjectiveVector, assign_batch
from mostream.metrics import INFINITE_DBI, arand, davies_bouldin, nmi, select_best
from mostream.stream_io import WindowBatch

from oracles import arand_oracle, davies_bouldin_loop, nmi_oracle


def _solution(protos, sol_id=0):
    return ClusteringSolution(ObjectiveVector(), np.asarray(protos, dtype=float), sol_id)


def _window(points, labels=None):
    data = np.asarray(points, dtype=float)
    return WindowBatch(window_id=1, start_index=0, data=data,
                       labels=None if labels is None else np.asarray(labels))


labelings = st.lists(st.integers(min_value=0, max_value=4),
                     min_size=2, max_size=40)
# a coarse grid, so coincident prototypes and empty clusters both occur
grid_rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                     min_size=1, max_size=30)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
        assert nmi([2, 1, 0], [0, 1, 2]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_split(self):
        # pinned from the brute-force oracle in oracles.py
        assert nmi([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(
            0.3437110184854508, abs=1e-12
        )

    def test_both_single_class(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0

    def test_returns_plain_float(self):
        assert type(nmi([0, 1], [0, 1])) is float

    @given(labelings, st.integers(0, 2**31))
    def test_matches_oracle(self, truth, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.integers(0, 4, size=len(truth)).tolist()
        assert nmi(truth, predicted) == pytest.approx(
            nmi_oracle(truth, predicted), abs=1e-12
        )

    @given(labelings, st.integers(0, 2**31))
    def test_symmetric_and_bounded(self, truth, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.integers(0, 4, size=len(truth)).tolist()
        a = nmi(truth, predicted)
        assert nmi(predicted, truth) == pytest.approx(a, abs=1e-12)
        assert -1e-12 <= a <= 1.0 + 1e-12


class TestArand:
    def test_identical_partitions(self):
        assert arand([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_crossed_pairs(self):
        assert arand([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_single_class_guard(self):
        assert arand([0, 0, 0], [1, 1, 1]) == 1.0

    @given(labelings, st.integers(0, 2**31))
    def test_matches_oracle(self, truth, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.integers(0, 4, size=len(truth)).tolist()
        assert arand(truth, predicted) == pytest.approx(
            arand_oracle(truth, predicted), abs=1e-12
        )

    def test_permutation_of_label_names_invariant(self):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [1, 1, 0, 0, 2, 2]
        relabeled = [2, 2, 1, 1, 0, 0]
        assert arand(truth, pred) == pytest.approx(arand(truth, relabeled))


def _dbi(sol, win):
    [score] = davies_bouldin([sol], *assign_batch([sol], win.data))
    return score


@st.composite
def _scored_members(draw):
    """A window and 1-8 members whose prototypes are window rows or lattice
    points: K = 1 members, unfed clusters and coincident prototypes all
    occur, and values may sit at +/-MAX_ABS_VALUE. d covers both sides of
    the summation switch at 8 coordinates."""
    d = draw(st.sampled_from([1, 2, 7, 8, 16]))
    scale = draw(st.sampled_from([1.0, MAX_ABS_VALUE]))
    cell = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])

    def rows(count):
        cells = draw(st.lists(cell, min_size=count * d, max_size=count * d))
        return np.array(cells).reshape(count, d) * scale

    points = rows(draw(st.integers(1, 40)))
    if draw(st.booleans()):  # break the lattice's ties
        noise = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=points.shape)
        points = np.clip(points + 0.1 * scale * noise, -MAX_ABS_VALUE, MAX_ABS_VALUE)
    members = []
    for sol_id in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 8))
        if draw(st.booleans()):
            protos = points[draw(st.lists(st.integers(0, len(points) - 1),
                                          min_size=k, max_size=k))]
        else:
            protos = rows(k)
        members.append(_solution(protos, sol_id))
    return points, members


class TestDaviesBouldin:
    def test_two_pair_clusters(self):
        sol = _solution([(0.0, 1.0), (10.0, 1.0)])
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2)])
        assert _dbi(sol, win) == pytest.approx(0.2)

    def test_zero_center_distance_is_infinite(self):
        sol = _solution([(1.0, 1.0), (1.0, 1.0)])
        win = _window([(0, 0), (2, 2)])
        assert _dbi(sol, win) == INFINITE_DBI

    def test_single_cluster_is_infinite(self):
        sol = _solution([(0.0, 0.0)])
        win = _window([(0, 0), (1, 1)])
        assert _dbi(sol, win) == INFINITE_DBI

    def test_tight_clusters_score_zero(self):
        sol = _solution([(0.0, 0.0), (5.0, 5.0)])
        win = _window([(0, 0), (0, 0), (5, 5), (5, 5)])
        assert _dbi(sol, win) == 0.0

    def test_unfed_cluster_is_infinite(self):
        # a spare prototype in empty space must not improve the score
        sol = _solution([(0.0, 1.0), (10.0, 1.0), (500.0, 500.0)])
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2)])
        assert _dbi(sol, win) == INFINITE_DBI

    def test_reordering_clusters_keeps_score(self):
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2)])
        a = _dbi(_solution([(0.0, 1.0), (10.0, 1.0)]), win)
        b = _dbi(_solution([(10.0, 1.0), (0.0, 1.0)]), win)
        assert a == pytest.approx(b)

    @given(grid_rows.filter(lambda r: len(r) <= 8), grid_rows)
    def test_matches_loop_form(self, protos, points):
        sol, win = _solution(protos), _window(points)
        labels, dists = assign_batch([sol], win.data)
        expected = davies_bouldin_loop(points, protos, labels[0])
        assert davies_bouldin([sol], labels, dists) == [expected]

    @given(_scored_members())
    def test_stacked_matches_loop_form_per_member(self, case):
        """One stacked call scores every member as the loop form scores it
        alone, bit for bit."""
        points, members = case
        labels, dists = assign_batch(members, points)
        expected = [davies_bouldin_loop(points, s.prototypes, row)
                    for s, row in zip(members, labels)]
        assert np.array(davies_bouldin(members, labels, dists)).tobytes() == (
            np.array(expected).tobytes()
        )

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 16])
    def test_stacked_matches_loop_form_on_blobs(self, dim):
        """Finite scores too: 15 members of K 1-12 on one 100-point window,
        most of them fed everywhere, one K = 1 and one with a parked
        prototype."""
        rng = np.random.default_rng(dim)
        centres = rng.normal(size=(4, dim)) * 10.0
        points = np.repeat(centres, 25, axis=0) + rng.normal(size=(100, dim))
        members = [_solution(points[rng.choice(100, size=k, replace=False)], i)
                   for i, k in enumerate(rng.integers(2, 13, size=13))]
        members.append(_solution(points[:1], 13))
        members.append(_solution(np.vstack([points[:3], np.full((1, dim), 1e6)]), 14))
        labels, dists = assign_batch(members, points)
        got = davies_bouldin(members, labels, dists)
        expected = [davies_bouldin_loop(points, s.prototypes, row)
                    for s, row in zip(members, labels)]
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert got[13] == got[14] == INFINITE_DBI
        assert sum(math.isfinite(v) for v in got) >= 10

    def test_no_solutions(self):
        assert davies_bouldin([], *assign_batch([], np.zeros((3, 2)))) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_form_at_16_coordinates(self, seed):
        """From 8 coordinates ``sq_dist`` keeps numpy's pairwise sum; the
        distances taken from ``assign_batch`` still equal the row form."""
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(60, 16)) * 10.0 ** rng.uniform(-3, 3, size=16)
        protos = points[rng.choice(60, size=4, replace=False)] * 1.01
        sol, win = _solution(protos), _window(points)
        labels, dists = assign_batch([sol], win.data)
        expected = davies_bouldin_loop(points, protos, labels[0])
        assert expected != INFINITE_DBI
        assert davies_bouldin([sol], labels, dists) == [expected]


def _pick(members, win):
    return select_best(members, *assign_batch(members, win.data))


class TestSelectBest:
    def test_known_assignments_give_the_same_pick(self):
        """Rows cut from a larger assignment, as a commit hands over its
        survivors' rows, pick as a fresh assignment of the members does."""
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2), (5, 1)])
        members = [_solution([(0.0, 1.0), (10.0, 1.0)], 0),
                   _solution([(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)], 1)]
        dropped = _solution([(0.0, 0.0), (9.0, 9.0)], 2)
        labels, dists = assign_batch([members[0], dropped, members[1]], win.data)
        best, dbi, _ = select_best(members, labels[[0, 2]], dists[[0, 2]])
        ref_best, ref_dbi, _ = _pick(members, win)
        assert (best.solution_id, dbi) == (ref_best.solution_id, ref_dbi)

    @pytest.mark.parametrize("known_ids", [(), (0,), (1,), (0, 1), (1, 0)])
    def test_returns_the_best_members_labels(self, known_ids):
        """The members whose ids are in ``known_ids`` are handed over first,
        in that order, the others after them: the labels returned are the
        best member's own row whatever its place."""
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2), (5, 1)])
        members = [_solution([(0.0, 1.0), (10.0, 1.0)], 0),
                   _solution([(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)], 1)]
        order = list(known_ids) + [i for i in range(2) if i not in known_ids]
        best, _, labels = _pick([members[i] for i in order], win)
        assert np.array_equal(labels, assign_batch([best], win.data)[0][0])

    def test_rows_must_match_members(self):
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2)])
        members = [_solution([(0.0, 1.0), (10.0, 1.0)], 0),
                   _solution([(0.0, 2.0), (6.0, 2.0)], 1)]
        labels, dists = assign_batch(members[:1], win.data)
        with pytest.raises(ValueError, match="2 members"):
            select_best(members, labels, dists)
        with pytest.raises(ValueError, match="archive is empty"):
            select_best([], labels[:0], dists[:0])

    def test_single_member(self):
        sol = _solution([(0.0, 0.0), (5.0, 5.0)], sol_id=7)
        win = _window([(0, 0), (5, 5)])
        best, dbi, _ = _pick([sol], win)
        assert best.solution_id == 7
        assert dbi == 0.0

    def test_lowest_dbi_wins(self):
        tight = _solution([(0.0, 1.0), (10.0, 1.0)], sol_id=0)
        loose = _solution([(0.0, 2.0), (6.0, 2.0)], sol_id=1)
        win = _window([(0, 0), (0, 2), (10, 0), (10, 2)])
        best, dbi, _ = _pick([tight, loose], win)
        assert best.solution_id == 0
        assert dbi == pytest.approx(0.2)

    def test_tie_prefers_fewer_clusters(self):
        # both members score the +inf sentinel: one has an unfed cluster,
        # the other coincident prototypes; the K=3 member wins the tie
        # even though its id is higher
        five = _solution([(0.0, 0.0), (9.0, 9.0), (50.0, 50.0),
                          (60.0, 60.0), (70.0, 70.0)], sol_id=1)
        three = _solution([(0.0, 0.0), (0.0, 0.0), (9.0, 9.0)], sol_id=4)
        win = _window([(0, 0), (9, 9)])
        b, dbi, _ = _pick([five, three], win)
        assert dbi == INFINITE_DBI
        assert b.solution_id == 4
        assert b.k == 3

    def test_final_tie_prefers_lowest_id(self):
        first = _solution([(0.0, 0.0), (9.0, 9.0)], sol_id=2)
        second = _solution([(0.0, 0.0), (9.0, 9.0)], sol_id=5)
        win = _window([(0, 0), (9, 9)])
        b, dbi, _ = _pick([second, first], win)
        assert dbi == 0.0
        assert b.solution_id == 2
