"""Domain types and the per-cluster streaming update rules."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mostream import core
from mostream.core import (
    MAX_ABS_VALUE,
    ClusteringSolution,
    ObjectiveVector,
    StreamConfig,
    WindowBatch,
    assign_batch,
    fade_weight,
    merge_prototype,
    prune_outdated,
    serialize_chromosome,
    sq_dist,
)

from oracles import (
    assign_batch_reference,
    exact_mean,
    nearest_cluster,
    sq_dist_reference,
    traced_peak,
)


def _solution(protos, weights=None):
    return ClusteringSolution(
        ObjectiveVector(), np.asarray(protos, float), 0, weights=weights
    )


class TestWindowBatch:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WindowBatch(np.empty((0, 2)), 0)

    def test_rejects_zero_feature_columns(self):
        with pytest.raises(ValueError, match="no feature columns"):
            WindowBatch(np.empty((3, 0)), 0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            WindowBatch(np.zeros(3), 0)

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            WindowBatch(np.zeros((3, 2)), 0, labels=np.array([1, 2]))

    @pytest.mark.parametrize(
        "labels",
        [
            pytest.param([[0], [1], [1]], id="column"),
            pytest.param([[0, 1], [1, 0], [1, 1]], id="two-d"),
            pytest.param([0.0, np.nan, 1.0], id="nan"),
            pytest.param([np.nan] * 3, id="all-nan"),
            pytest.param([0.0, np.inf, 1.0], id="inf"),
            pytest.param([-np.inf, 0.0, 1.0], id="minus-inf"),
        ],
    )
    def test_rejects_bad_labels(self, labels):
        with pytest.raises(ValueError, match="labels"):
            WindowBatch(np.zeros((3, 2)), 0, labels=np.array(labels))

    @pytest.mark.parametrize("labels", [[0, 1, 1], [0.0, 2.0, 2.0], ["a", "b", "b"]])
    def test_accepts_one_finite_id_per_row(self, labels):
        w = WindowBatch(np.zeros((3, 2)), 0, labels=labels)
        assert w.labels.tolist() == labels

    def test_indices_are_contiguous_from_start(self):
        w = WindowBatch(np.zeros((4, 2)), 3, start_index=100)
        assert list(w.indices) == [100, 101, 102, 103]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_row(self, bad):
        data = np.zeros((3, 2))
        data[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            WindowBatch(data, 0)

    def test_values_at_the_bound_accepted(self):
        data = np.array([[MAX_ABS_VALUE, -MAX_ABS_VALUE], [0.0, 1.0]])
        assert np.array_equal(WindowBatch(data, 0).data, data)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_past_the_bound_rejected(self, sign):
        data = np.zeros((3, 2))
        data[2, 1] = sign * np.nextafter(MAX_ABS_VALUE, np.inf)
        with pytest.raises(ValueError, match="beyond"):
            WindowBatch(data, 0)


class TestSqDist:
    """The kernel against one last-axis numpy sum, on both sides of the
    8-coordinate split and on every broadcast shape the package uses."""

    @staticmethod
    def _pairs(d, rng):
        def draw(*shape):
            # mixed magnitudes, so a different summation order shows up
            return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)

        return [
            (draw(40, 1, d), draw(1, 7, d)),  # (n, 1, d) - (1, K, d)
            (draw(7, d), draw(d)),  # (K, d) - (d,)
            (draw(40, d), draw(40, d)),  # (n, d) - (n, d)
            (draw(d), draw(d)),  # (d,) - (d,)
        ]

    @pytest.mark.parametrize("d", range(1, 21))
    def test_bit_identical_to_last_axis_sum(self, d):
        for a, b in self._pairs(d, np.random.default_rng(d)):
            got, want = sq_dist(a, b), sq_dist_reference(a, b)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    @staticmethod
    def _layouts(d, rng):
        """Large broadcasts, non-contiguous inputs and a length-1 last axis."""

        def draw(*shape):
            return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)

        wide = draw(60, 2 * d)
        return [
            (draw(1000, 1, d), draw(1, 10, d)),
            (draw(1000, d), draw(d)),
            (np.asfortranarray(draw(50, d)), draw(d)),  # Fortran order
            (np.asfortranarray(draw(30, 1, d)), np.asfortranarray(draw(1, 9, d))),
            (wide[::2, ::2], wide[1::2, 1::2]),  # strided rows and columns
            (draw(d, 40).T, draw(d)),  # transposed
            (draw(d, 12).T[:, None, :], draw(d, 5).T[None, :, :]),
            (draw(40, 1), draw(d)),  # last axis 1 against d
            (draw(d), draw(40, 1)),
            (draw(30, 1, 1), draw(1, 8, d)),
            (draw(1), draw(d)),
        ]

    @pytest.mark.parametrize("d", range(1, 21))
    def test_large_strided_and_broadcast_inputs(self, d):
        for a, b in self._layouts(d, np.random.default_rng(100 + d)):
            got, want = sq_dist(a, b), sq_dist_reference(a, b)
            assert np.shape(got) == np.shape(want)
            assert np.isscalar(got) == np.isscalar(want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 16])
    def test_two_rows_give_a_scalar(self, d):
        rng = np.random.default_rng(d)
        assert isinstance(sq_dist(rng.normal(size=d), rng.normal(size=d)), np.float64)

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 16])
    def test_inputs_unmodified(self, d):
        for a, b in self._pairs(d, np.random.default_rng(d)):
            a0, b0 = a.copy(), b.copy()
            sq_dist(a, b)
            assert np.array_equal(a, a0) and np.array_equal(b, b0)


def _nearest(sol, point):
    """``assign_batch``'s cluster for one point."""
    return int(assign_batch([sol], np.asarray(point, dtype=float)[None, :])[0][0][0])


class TestNearestCluster:
    def test_strictly_nearer_low(self):
        sol = _solution([(0, 0), (10, 10)])
        assert _nearest(sol, [1.0, 1.0]) == 0

    def test_tie_takes_lowest_index(self):
        sol = _solution([(0, 0), (10, 10)])
        assert _nearest(sol, [5.0, 5.0]) == 0

    def test_strictly_nearer_high(self):
        sol = _solution([(0, 0), (10, 10)])
        assert _nearest(sol, [9.0, 9.0]) == 1

    def test_dimension_mismatch_rejected(self):
        sol = _solution([(0, 0), (10, 10)])
        with pytest.raises(ValueError):
            _nearest(sol, [1.0, 2.0, 3.0])

    @given(st.integers(0, 6), st.data())
    def test_permutation_covariant(self, shift, data):
        protos = [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (5.0, 5.0), (9.0, 1.0),
                  (1.0, 9.0), (4.0, 4.0)]
        point = np.array(
            [
                data.draw(st.floats(-10, 10, allow_nan=False)),
                data.draw(st.floats(-10, 10, allow_nan=False)),
            ]
        )
        base = _nearest(_solution(protos), point)
        rolled = protos[shift:] + protos[:shift]
        got = _nearest(_solution(rolled), point)
        # ties in the rolled order may legitimately pick a different member of
        # the tied set, so compare distances rather than raw indices
        d_base = np.linalg.norm(np.asarray(protos[base]) - point)
        d_got = np.linalg.norm(np.asarray(rolled[got]) - point)
        assert d_got == pytest.approx(d_base, abs=1e-12)

    def test_assign_batch_matches_pointwise(self):
        rng = np.random.default_rng(0)
        sol = _solution(rng.normal(size=(5, 3)))
        data = rng.normal(size=(40, 3))
        [batch], _ = assign_batch([sol], data)
        single = [nearest_cluster(sol.prototypes, row) for row in data]
        assert list(batch) == single

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 16])
    def test_nearest_prototypes_labels_and_row_distances(self, dim):
        rng = np.random.default_rng(dim)
        sol = _solution(rng.normal(size=(6, dim)))
        data = rng.normal(size=(50, dim))
        [labels], [dists] = assign_batch([sol], data)
        assert list(labels) == [nearest_cluster(sol.prototypes, row) for row in data]
        rows = np.sqrt(((data - sol.prototypes[labels]) ** 2).sum(axis=-1))
        assert np.array_equal(dists, rows)

    def test_nearest_prototypes_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign_batch([_solution([[0.0, 0.0]])], np.zeros((3, 3)))


def _same_bits(got, want):
    """The stacked (labels, dists) rows equal the reference pairs bit for
    bit: same labels, same distance bytes, one C-ordered row per pair."""
    labels, dists = got
    assert labels.shape == dists.shape == (len(want), len(want[0][0]))
    assert labels.flags.c_contiguous and dists.flags.c_contiguous
    for g_labels, g_dists, (w_labels, w_dists) in zip(labels, dists, want):
        assert np.array_equal(g_labels, w_labels)
        assert g_dists.dtype == w_dists.dtype
        assert g_dists.tobytes() == w_dists.tobytes()


@pytest.fixture
def exact_rows(monkeypatch):
    """Records (K, rows) for every call of the exact (n, K) matrix."""
    seen = []
    exact = core._nearest_exact

    def counting(protos, data):
        seen.append((len(protos), len(data)))
        return exact(protos, data)

    monkeypatch.setattr(core, "_nearest_exact", counting)
    return seen


def _stack_check(stack, data):
    sols = [_solution(p) for p in stack]
    with np.errstate(over="ignore", invalid="ignore"):
        want = assign_batch_reference([s.prototypes for s in sols], data)
    _same_bits(assign_batch(sols, data), want)


# ``SCAN_ENTRIES`` settings below ``SCREEN_MIN_DIM``: the whole window in
# one stacked block, or each row in a block of its own
_KERNELS = {"stacked": 10**18, "each": 0}


class TestAssignBatch:
    """Every row against each solution's own (n, K) matrix, bit for bit,
    on both sides of the screen's dimension split, in one row block or
    several."""

    @pytest.mark.parametrize("d", [8, 9, 16])
    def test_equidistant_points_take_the_lowest_index(self, d, exact_rows):
        # rows 0 and 1 sit exactly halfway between two prototypes
        step = np.ones(d)
        protos = np.stack([step, -step, 40.0 * step])
        data = np.stack([np.zeros(d), np.zeros(d), 39.0 * step, step])
        got = assign_batch([_solution(protos), _solution(protos[[1, 0, 2]])], data)
        for labels in got[0]:
            assert labels.tolist() == [0, 0, 2, labels[3]]
        assert got[0][0, 3] == 0 and got[0][1, 3] == 1
        _stack_check([protos, protos[[1, 0, 2]]], data)
        # the tied rows, and only they, went to the exact matrix
        assert exact_rows and all(rows <= 2 for _, rows in exact_rows)
        assert sum(rows for _, rows in exact_rows) >= 2 * 2

    @pytest.mark.parametrize("d", [8, 16])
    def test_duplicate_prototypes(self, d, exact_rows):
        rng = np.random.default_rng(d)
        base = rng.normal(size=(3, d))
        protos = base[[0, 1, 0, 2, 1]]
        data = rng.normal(size=(40, d))
        _stack_check([protos, base], data)
        labels = assign_batch([_solution(protos)], data)[0][0]
        assert set(labels.tolist()) <= {0, 1, 3}
        assert exact_rows

    @pytest.mark.parametrize("d", [2, 8, 17])
    def test_ragged_stack(self, d):
        rng = np.random.default_rng(d)
        stack = [rng.normal(size=(k, d)) for k in (1, 3, 7, 2, 5)]
        _stack_check(stack, rng.normal(size=(60, d)))

    @pytest.mark.parametrize("d", [8, 16])
    def test_near_ties_on_a_decimal_grid(self, d, exact_rows):
        # multiples of 0.1 are inexact, so the two forms round near-equal
        # distances apart; a screen without its margin fails here
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.integers(-3, 4, size=(100, d)) * 0.1
            protos = rng.integers(-3, 4, size=(6, d)) * 0.1
            _stack_check([protos, protos[::-1]], data)
        assert exact_rows

    @pytest.mark.parametrize("d", [8, 16])
    def test_values_at_the_input_bound(self, d):
        rng = np.random.default_rng(d)
        signs = lambda *shape: rng.choice([-1.0, 1.0], size=shape)  # noqa: E731
        data = MAX_ABS_VALUE * signs(30, d)
        stack = [MAX_ABS_VALUE * signs(4, d), MAX_ABS_VALUE * rng.uniform(-1, 1, (6, d))]
        _stack_check(stack, data)

    @pytest.mark.parametrize("d", [8, 16])
    def test_overflowing_prototype_norms_take_the_exact_matrix(self, d, exact_rows):
        rng = np.random.default_rng(d)
        data = rng.normal(size=(20, d))
        huge = rng.normal(size=(3, d))
        huge[1] *= 1e200  # |p|^2 overflows
        tame = rng.normal(size=(4, d))
        _stack_check([tame, huge], data)
        exact_rows.clear()
        assign_batch([_solution(tame), _solution(huge)], data)
        assert (3, 20) in exact_rows
        assert all(k == 3 for k, _ in exact_rows)

    @pytest.mark.parametrize("d", [8, 16])
    def test_infinite_prototype_in_one_of_several_blocks(self, d, exact_rows):
        # its h entries are NaN or infinite: a NaN sends the candidate
        # search over the planes to argmin, and the infinite margin sends
        # every row of that block, and only that block, to the exact matrix
        rng = np.random.default_rng(d)
        data = rng.normal(size=(30, d))
        far = rng.normal(size=(4, d))
        far[1, 3] = np.inf
        _stack_check([rng.normal(size=(3, d)), far, rng.normal(size=(6, d))], data)
        assert exact_rows == [(4, 30)]

    def test_planes_rank_past_255_prototypes(self, exact_rows):
        # K = 300 beside a small block at d = 16: the descending ranks
        # 1..300 need more than a byte; the grid half makes duplicate
        # prototypes and tied rows
        rng = np.random.default_rng(16)
        grid = rng.integers(-2, 3, size=(150, 16)) * 0.5
        protos = np.vstack([rng.normal(scale=2.0, size=(150, 16)), grid])
        data = np.vstack([rng.integers(-2, 3, size=(50, 16)) * 0.5,
                          rng.normal(scale=2.0, size=(50, 16))])
        stack = [protos, rng.normal(size=(4, 16))]
        _stack_check(stack, data)
        labels, _ = assign_batch([_solution(p) for p in stack], data)
        assert labels[0].max() > 255

    @pytest.mark.parametrize("d", [7, 8, 9])
    @pytest.mark.parametrize("n", [1, 25])
    def test_dimension_split_and_one_row_windows(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        stack = [rng.normal(size=(k, d)) for k in (1, 4, 6)]
        _stack_check(stack, rng.normal(size=(n, d)))

    def test_empty_stack(self):
        for d in (2, 8):
            labels, dists = assign_batch([], np.zeros((3, d)))
            assert labels.shape == dists.shape == (0, 3)

    # row blocks of any size are drawn in test_row_blocks_match_the_reference
    @pytest.mark.parametrize("kernel", ["stacked"])
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n", [1, 37])
    def test_both_kernels_match_the_reference(self, kernel, d, n, monkeypatch, exact_rows):
        # ragged blocks with K = 1 ones, and a block repeating its rows
        rng = np.random.default_rng(100 * d + n)
        stack = [rng.normal(size=(k, d)) for k in (1, 4, 1, 9, 2)]
        stack.append(stack[3][[2, 0, 2, 5, 0]])
        monkeypatch.setattr(core, "SCAN_ENTRIES", _KERNELS[kernel])
        _stack_check(stack, rng.normal(size=(n, d)))
        assert exact_rows == []

    @pytest.mark.parametrize("kernel", ["stacked", "each"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_both_kernels_take_the_lowest_index_on_ties(self, kernel, d, monkeypatch):
        # rows 0 and 1 sit halfway between two prototypes; duplicated
        # prototypes tie at every row
        step = np.ones(d)
        protos = np.stack([step, -step, 40.0 * step, step, -step])
        data = np.stack([np.zeros(d), np.zeros(d), 39.0 * step, step, -2.0 * step])
        monkeypatch.setattr(core, "SCAN_ENTRIES", _KERNELS[kernel])
        stack = [protos, protos[[1, 0, 2]], protos[[2, 2, 2]]]
        labels, _ = assign_batch([_solution(p) for p in stack], data)
        assert labels.tolist() == [[0, 0, 2, 0, 1], [0, 0, 2, 1, 0], [0, 0, 0, 0, 0]]
        _stack_check(stack, data)

    @pytest.mark.parametrize("kernel", ["stacked", "each"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_both_kernels_at_the_input_bound(self, kernel, d, monkeypatch):
        rng = np.random.default_rng(d)
        signs = lambda *shape: rng.choice([-1.0, 1.0], size=shape)  # noqa: E731
        data = MAX_ABS_VALUE * signs(30, d)
        stack = [MAX_ABS_VALUE * signs(4, d), MAX_ABS_VALUE * rng.uniform(-1, 1, (6, d)),
                 MAX_ABS_VALUE * signs(1, d)]
        monkeypatch.setattr(core, "SCAN_ENTRIES", _KERNELS[kernel])
        _stack_check(stack, data)

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_stacked_kernel_leaves_non_finite_prototypes_to_argmin(self, d, monkeypatch,
                                                                   exact_rows):
        # an infinite prototype is an infinite entry, which both kernels
        # order alike: a block of infinite rows alone still takes its first
        # row, ahead of the +inf padding. A NaN entry makes the stacked
        # kernel hand the stack to one matrix per solution, whose argmin
        # takes the first NaN
        rng = np.random.default_rng(d)
        data = rng.normal(size=(12, d))
        tame = rng.normal(size=(3, d))
        far = np.vstack([np.full(d, np.inf), tame[:1]])
        monkeypatch.setattr(core, "SCAN_ENTRIES", _KERNELS["stacked"])
        _stack_check([tame, far, np.full((1, d), np.inf)], data)
        assert exact_rows == []
        broken = tame.copy()
        broken[1, 0] = np.nan
        _stack_check([tame, broken], data)
        assert exact_rows == [(3, 12), (3, 12)]

    def test_stacked_kernel_ranks_past_255_prototypes(self, exact_rows):
        # K = 300 on 100 rows is one stacked block, whose descending ranks
        # 1..300 need more than a byte; the grid half makes duplicate
        # prototypes and tied rows
        rng = np.random.default_rng(300)
        grid = rng.integers(-6, 7, size=(150, 2)) * 0.5
        protos = np.vstack([rng.normal(scale=3.0, size=(150, 2)), grid])
        data = np.vstack([rng.integers(-12, 13, size=(50, 2)) * 0.25,
                          rng.normal(scale=3.0, size=(50, 2))])
        _stack_check([protos], data)
        assert exact_rows == []
        assert assign_batch([_solution(protos)], data)[0].max() > 255

    def test_row_blocks_split_evenly_within_the_budget(self, monkeypatch, exact_rows):
        rng = np.random.default_rng(0)
        stack = [rng.normal(size=(k, 2)) for k in (3, 7, 5)]
        data = rng.normal(size=(10, 2))
        blocks = []
        stacked = core._stacked_block

        def recording(stack, protos, gather, data):
            blocks.append(len(data))
            return stacked(stack, protos, gather, data)

        monkeypatch.setattr(core, "_stacked_block", recording)
        # n x S x kmax padded entries of d differences each
        for budget, rows in [(10 * 3 * 7 * 2, [10]), (10 * 3 * 7 * 2 - 1, [5, 5]),
                             (1, [1] * 10)]:
            blocks.clear()
            monkeypatch.setattr(core, "SCAN_ENTRIES", budget)
            _stack_check(stack, data)
            assert blocks == rows
        assert exact_rows == []

    @given(st.data())
    def test_row_blocks_match_the_reference(self, data):
        d = data.draw(st.sampled_from([1, 2, 7]))
        n = data.draw(st.integers(1, 40))
        # whole-number coordinates make ties; the bound's corners make
        # entries near 4 d MAX_ABS_VALUE^2
        coord = st.one_of(st.integers(-3, 3).map(float),
                          st.sampled_from([-MAX_ABS_VALUE, MAX_ABS_VALUE]))
        rows = lambda k: st.lists(st.lists(coord, min_size=d, max_size=d),  # noqa: E731
                                  min_size=k, max_size=k)
        points = np.array(data.draw(rows(n)))
        points = points[data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
        ks = data.draw(st.lists(st.sampled_from([1, 1, 2, 5, 9]), min_size=1, max_size=6))
        stack = [np.array(data.draw(rows(k))) for k in ks]
        budget = data.draw(st.integers(1, 2 * n * len(ks) * max(ks) * d))
        exact = []
        nearest_exact = core._nearest_exact
        with patch.object(core, "SCAN_ENTRIES", budget), \
                patch.object(core, "_nearest_exact",
                             lambda p, x: exact.append(len(x)) or nearest_exact(p, x)):
            _stack_check(stack, points)
        assert exact == []

    def test_memory_stays_within_the_block_budget(self):
        # one 4000-row matrix over all 20 solutions would hold 4000 x 20 x 15
        # padded entries, 9.6 MB; a block's difference buffer holds one budget
        rng = np.random.default_rng(4)
        sols = [_solution(rng.normal(size=(k, 2))) for k in rng.integers(2, 16, size=20)]
        sols[0] = _solution(rng.normal(size=(15, 2)))
        data = rng.normal(size=(4000, 2))
        out = 20 * 4000 * (8 + 8)  # the (S, n) labels and distances
        assert traced_peak(assign_batch, sols, data) < out + 2 * 8 * core.SCAN_ENTRIES

    @given(st.data())
    def test_random_stacks_match_the_reference(self, data):
        d = data.draw(st.sampled_from([1, 2, 7, 8, 9, 16, 17]))
        n = data.draw(st.integers(1, 30))
        scale = 10.0 ** data.draw(st.integers(-3, 50))
        # a small integer grid makes ties and duplicate prototypes common
        grid = st.integers(-3, 3).map(float)
        rows = lambda size: st.lists(st.lists(grid, min_size=d, max_size=d),  # noqa: E731
                                     min_size=size[0], max_size=size[1])
        # a far common offset makes the matrix form's rounding coarse
        shift = 10.0 ** data.draw(st.integers(-3, 12)) * data.draw(st.sampled_from([0, 1]))
        points = np.array(data.draw(rows((n, n)))) * scale + shift
        stack = [np.array(b) * scale + shift
                 for b in data.draw(st.lists(rows((1, 6)), min_size=1, max_size=5))]
        _stack_check(stack, points)


class TestOneBlockScreen:
    """``nearest_sq`` through the one-block screen (``SCREEN_MIN_COORDS`` at
    0) against the exact (n, K) matrix, bit for bit."""

    @staticmethod
    def _check(protos, data, monkeypatch, exact_rows):
        want = core._nearest_exact(protos, data)
        exact_rows.clear()
        monkeypatch.setattr(core, "SCREEN_MIN_COORDS", 0)
        labels, d2 = core.nearest_sq(protos, data)
        assert np.array_equal(labels, want[0])
        assert d2.tobytes() == want[1].tobytes()
        return sorted(rows for _, rows in exact_rows)

    @pytest.mark.parametrize("d", [2, 16])
    def test_exact_ties_between_two_nodes(self, d, monkeypatch, exact_rows):
        # rows halfway between nodes 1 and 2 tie them; the rest are settled
        protos = np.zeros((4, d))
        protos[:, 0] = [-6.0, -1.0, 1.0, 6.0]
        data = np.zeros((5, d))
        data[:, 0] = [0.0, -3.0, 0.0, 5.0, 0.0]
        data[:, 1] = [0.0, 0.0, 2.0, 0.0, -1.0]
        assert self._check(protos, data, monkeypatch, exact_rows) == [3]
        assert core.nearest_sq(protos, data)[0][[0, 2, 4]].tolist() == [1, 1, 1]

    @pytest.mark.parametrize("d", [2, 16])
    def test_duplicate_prototypes(self, d, monkeypatch, exact_rows):
        # rows nearest the repeated prototype take its first copy, exactly
        rng = np.random.default_rng(d)
        protos = rng.normal(size=(6, d))
        protos[4] = protos[1]
        data = np.vstack([protos[1] + 0.01, rng.normal(size=(9, d)), protos[4]])
        self._check(protos, data, monkeypatch, exact_rows)
        assert core.nearest_sq(protos, data)[0][[0, -1]].tolist() == [1, 1]
        assert exact_rows

    @pytest.mark.parametrize("d", [2, 16])
    def test_rows_at_half_the_input_bound(self, d, monkeypatch, exact_rows):
        rng = np.random.default_rng(d)
        half = MAX_ABS_VALUE / 2
        protos = rng.integers(-2, 3, size=(7, d)) * half / 2
        data = np.vstack([rng.choice([-half, half], size=(8, d)), protos[:3] * 1.5])
        self._check(protos, data, monkeypatch, exact_rows)

    @pytest.mark.parametrize("d", [2, 16])
    def test_non_finite_margin_takes_the_exact_path(self, d, monkeypatch, exact_rows):
        # |p|^2 near 1e308 is finite, and so is every matrix entry, but 4s
        # overflows: the margin is infinite and no row may keep its candidate
        rng = np.random.default_rng(d)
        protos = rng.normal(size=(5, d))
        protos[2, 0] = 1e154
        data = rng.normal(size=(6, d))
        assert self._check(protos, data, monkeypatch, exact_rows) == [6]


def _counts(*values):
    """A (K,) count vector from scalars."""
    return np.array(values, dtype=float)


class TestMergePrototype:
    def test_equal_weight_mean_at_gamma_one(self):
        proto = merge_prototype(
            np.array([[0.0, 0.0]]), _counts(2.0), np.array([[2.0, 2.0]]), _counts(2.0), 1.0
        )
        assert np.allclose(proto, [[1.0, 1.0]])
        assert fade_weight(_counts(2.0), 1.0, _counts(2.0)).tolist() == [4.0]

    def test_decayed_merge(self):
        # (4*2*0.5 + 1*1) / (2*0.5 + 1) = 5/2
        proto = merge_prototype(
            np.array([[4.0]]), _counts(2.0), np.array([[1.0]]), _counts(1.0), 0.5
        )
        assert np.allclose(proto, [[2.5]])
        assert fade_weight(_counts(2.0), 0.5, _counts(1.0))[0] == pytest.approx(2.0)

    def test_fixed_point_when_batch_equals_prototype(self):
        row = np.array([[3.0, -1.0]])
        proto = merge_prototype(row, _counts(7.0), row.copy(), _counts(5.0), 0.7)
        assert np.allclose(proto, row)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            merge_prototype(
                np.zeros((2, 1)), _counts(1.0, 1.0), np.ones((2, 1)), _counts(1.0, 0.0), 0.7
            )

    def test_rejects_bad_gamma(self):
        for g in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                merge_prototype(
                    np.array([[0.0]]), _counts(1.0), np.array([[1.0]]), _counts(1.0), g
                )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            merge_prototype(
                np.array([[0.0]]), _counts(1.0), np.array([[1.0, 2.0]]), _counts(1.0), 0.7
            )

    def test_input_cluster_unchanged(self):
        protos, counts = np.array([[4.0]]), np.array([2.0])
        merge_prototype(protos, counts, np.array([[1.0]]), np.array([1.0]), 0.5)
        assert protos[0, 0] == 4.0 and counts[0] == 2.0

    def test_rows_merge_like_single_clusters(self):
        rng = np.random.default_rng(4)
        protos, means = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        counts, sizes = rng.uniform(0.5, 9, 5), rng.integers(1, 20, 5).astype(float)
        rows = merge_prototype(protos, counts, means, sizes, 0.7)
        new_counts = fade_weight(counts, 0.7, sizes)
        # the merge divides by the faded mass, bit for bit
        folded = protos * (counts * 0.7)[:, None] + means * sizes[:, None]
        assert np.array_equal(rows, folded / new_counts[:, None])
        for i in range(5):
            one = merge_prototype(
                protos[i : i + 1], counts[i : i + 1], means[i : i + 1], sizes[i : i + 1], 0.7
            )
            assert np.array_equal(rows[i], one[0])
            assert new_counts[i] == fade_weight(counts[i], 0.7, sizes[i])

    @given(
        st.lists(
            st.lists(
                st.floats(-100, 100, allow_nan=False, width=32),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_gamma_one_is_streaming_mean(self, batches):
        """Per-window merging at gamma=1 conserves the exact mean."""
        proto, count = np.array([[float(batches[0][0])]]), _counts(1.0)
        everything = [batches[0][0]]
        for batch in batches[1:] or [[0.0]]:
            arr = np.array(batch, float).reshape(-1, 1)
            proto = merge_prototype(
                proto, count, arr.mean(axis=0, keepdims=True), _counts(len(arr)), 1.0
            )
            count = fade_weight(count, 1.0, _counts(len(arr)))
            everything.extend(batch)
        assert proto[0, 0] == pytest.approx(
            exact_mean(everything), abs=1e-9, rel=1e-9
        )


class TestFadeWeight:
    def test_decay_only(self):
        assert fade_weight(1.0, 0.7) == pytest.approx(0.7)

    def test_near_zero_gamma_kills_weight(self):
        assert fade_weight(0.5, 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_refresh_term_adds_assigned(self):
        assert fade_weight(1.0, 0.7, assigned=3.0) == pytest.approx(3.7)

    def test_per_cluster_rows(self):
        out = fade_weight(np.array([1.0, 2.0]), 0.5, np.array([0.0, 3.0]))
        assert np.allclose(out, [0.5, 4.0])

    def test_unfed_cluster_prunes_after_window_seven(self):
        # independent oracle: smallest t with 0.7^t < 0.1
        t, w = 0, 1.0
        while w >= 0.1:
            w *= 0.7
            t += 1
        assert t == 7
        weight = 1.0
        for window in range(1, 8):
            weight = fade_weight(weight, 0.7)
            if window < 7:
                assert weight >= 0.1
        assert weight < 0.1

    def test_strictly_decreasing_without_feed(self):
        prev = 2.0
        for _ in range(20):
            weight = fade_weight(prev, 0.9)
            assert weight < prev
            prev = weight

    def test_rejects_negative_assigned(self):
        with pytest.raises(ValueError):
            fade_weight(1.0, 0.7, assigned=-1.0)


class TestPruneOutdated:
    def test_drops_below_threshold(self):
        sol = _solution([(0, 0), (1, 1)], weights=[0.05, 0.5])
        prune_outdated(sol, 0.1)
        assert sol.k == 1
        assert sol.weights.tolist() == [0.5]
        assert np.array_equal(sol.prototypes, [[1, 1]])

    def test_unchanged_when_all_heavy(self):
        sol = _solution([(0, 0), (1, 1)], weights=[0.5, 0.5])
        protos = sol.prototypes
        prune_outdated(sol, 0.1)
        assert sol.k == 2
        assert sol.prototypes is protos  # nothing dropped, nothing copied

    def test_retains_heaviest_when_all_starved(self):
        sol = _solution([(0, 0), (1, 1)], weights=[0.01, 0.02])
        prune_outdated(sol, 0.1)
        assert sol.k == 1
        assert np.allclose(sol.prototypes[0], [1, 1])

    def test_all_starved_tie_keeps_lowest_index(self):
        sol = _solution([(0, 0), (1, 1)], weights=[0.01, 0.01])
        prune_outdated(sol, 0.1)
        assert np.allclose(sol.prototypes[0], [0, 0])

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            prune_outdated(_solution([(0, 0)]), -0.1)


class TestChromosome:
    def test_layout(self):
        sol = ClusteringSolution(
            ObjectiveVector(3.0, 1.5),
            np.array([[0.0, 0.0], [1.0, 1.0]]),
        )
        assert list(serialize_chromosome(sol)) == [3.0, 1.5, 0.0, 0.0, 1.0, 1.0]

    def test_round_trip_thousand_random_solutions(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            sol = ClusteringSolution(
                ObjectiveVector(float(rng.uniform(0, 50)), float(rng.uniform(0, 50))),
                rng.normal(size=(k, d)),
            )
            rec = serialize_chromosome(sol)
            assert rec.shape == (2 + k * d,)
            back = ClusteringSolution(
                ObjectiveVector(float(rec[0]), float(rec[1])), rec[2:].reshape(-1, d)
            )
            assert back.k == sol.k
            assert back.objectives.compactness == sol.objectives.compactness
            assert back.objectives.separateness == sol.objectives.separateness
            assert np.array_equal(back.prototypes, sol.prototypes)
            # the record itself round-trips bit-for-bit
            assert np.array_equal(serialize_chromosome(back), rec)


class TestSolutionCopy:
    def test_copy_is_deep_for_clusters(self):
        sol = _solution([(0, 0), (1, 1)])
        dup = sol.copy()
        dup.prototypes[0, 0] = 99.0
        dup.weights[0] = 5.0
        dup.keep([0])
        assert sol.k == 2 and dup.k == 1
        assert sol.prototypes[0, 0] == 0.0
        assert sol.weights[0] == 1.0

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            ClusteringSolution(
                ObjectiveVector(), np.zeros((2, 2)), weights=np.ones(3),
            )


class TestStreamConfig:
    def test_defaults(self):
        cfg = StreamConfig()
        assert cfg.gamma == 0.7
        assert cfg.mu == 0.2
        assert cfg.sigma == 10
        assert cfg.idle_generations_cap == 10
        # None selects the wall-clock mode
        assert StreamConfig(idle_generations_cap=None).idle_generations_cap is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"gamma": 0.0},
            {"gamma": 1.2},
            {"mu": 0.0},
            {"mu": 1.5},
            {"sigma": 0},
            {"prune_threshold": -0.1},
            {"interval_ms": -1},
            {"idle_generations_cap": -1},
            {"rng_seed": -1},
            # weights >= nan never holds, so a NaN threshold would never prune
            {"prune_threshold": float("nan")},
            {"prune_threshold": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)

    def test_gamma_one_allowed_for_conservation_runs(self):
        assert StreamConfig(gamma=1.0).gamma == 1.0
