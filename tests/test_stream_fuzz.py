"""Random streams through the whole engine, with the invariants checked after
every commit and every idle phase.

A stream draws its dimension, scale, decay, idle budget and window sizes
(including windows of one, two and three points), and may repeat rows or
hold one feature constant. The checks are the ones the benchmark runs on its
three fixed workloads: a non-dominated archive, K >= 1, finite objectives
and hypervolume, and a stored-vector count equal to tree nodes plus archive
prototypes. The archive must also iterate in increasing ``solution_id``:
the commit re-screen inserts members in that order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mostream.core import StreamConfig, WindowBatch
from mostream.engine import initialize, on_idle, process_window
from mostream.evolution import IdleBudget

window_sizes = st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40))


@st.composite
def streams(draw):
    d = draw(st.integers(1, 4))
    sizes = draw(st.lists(window_sizes, min_size=1, max_size=4))
    scale = 10.0 ** draw(st.floats(-6.0, 90.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.normal(0.0, 5.0, size=(draw(st.integers(1, 4)), d))
    windows, start = [], 0
    for wid, n in enumerate(sizes):
        labels = rng.integers(len(centers), size=n)
        data = centers[labels] + rng.normal(size=(n, d))
        if draw(st.booleans()):  # repeated rows
            data[rng.integers(n, size=n // 2)] = data[0]
        if draw(st.booleans()):  # a constant feature
            data[:, 0] = 1.0
        windows.append(WindowBatch(data * scale, wid, labels=labels, start_index=start))
        start += n
    cfg = StreamConfig(
        window_size=max(sizes),
        gamma=draw(st.sampled_from([0.5, 0.7, 1.0])),
        idle_generations_cap=draw(st.integers(0, 2)),
        rng_seed=draw(st.integers(0, 1000)),
    )
    return windows, cfg


def _check_archive(state):
    state.archive.validate()
    ids = [member.solution_id for member in state.archive]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for member in state.archive:
        assert member.k >= 1
        assert all(math.isfinite(v) for v in member.objectives.as_min_pair())


def _check_commit(state):
    _check_archive(state)
    report = state.reports[-1]
    assert math.isfinite(report.hypervolume)
    assert report.stored_vectors == state.tree.node_count() + sum(
        s.k for s in state.archive
    )


@settings(max_examples=30, deadline=None)
@given(streams())
def test_invariants_hold_on_random_streams(stream):
    windows, cfg = stream
    state = None
    for window in windows:
        if state is None:
            state = initialize(window, cfg)
        else:
            process_window(state, window)
        _check_commit(state)
        on_idle(state, IdleBudget(cfg.idle_generations_cap))
        _check_archive(state)

    wrong = np.zeros((2, windows[0].dim + 1))
    count, last = state.windows, state.reports[-1]
    with pytest.raises(ValueError, match="dimension"):
        process_window(state, WindowBatch(wrong, state.last_window.window_id + 1))
    assert state.windows == count and state.reports[-1] is last
