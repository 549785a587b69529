"""Pass runner and output checks.

A pass streams one workload's windows through the engine the way
``run_stream`` does in deterministic mode (initialize on window 0, then
commit, and an idle phase after every window), but calls the engine's steps
itself so that each one is timed on its own and the outputs are checked
between them, outside the timed intervals.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from mostream import StreamConfig
from mostream import engine
from mostream.evolution import IdleBudget
from mostream.stream_io import report_line

from speed import probe
from tracer import Tracer


class CheckFailed(Exception):
    """An engine output broke an invariant the benchmark checks."""


@dataclass
class PassResult:
    """One pass. Step times are scaled to the reference machine speed
    (``speed.probe``); ``commit_wall_ms`` keeps the unscaled commit times."""

    setup_s: float = 0.0
    commit_ms: list[float] = field(default_factory=list)
    commit_wall_ms: list[float] = field(default_factory=list)
    idle_s: float = 0.0
    idle_gens: int = 0
    read_s: float = 0.0
    slowdowns: list[float] = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    report_lines: list[str] = field(default_factory=list)
    nmi: list[float] = field(default_factory=list)
    hypervolume: list[float] = field(default_factory=list)
    stored_vectors: list[int] = field(default_factory=list)
    tree_vectors: list[int] = field(default_factory=list)
    archive_vectors: list[int] = field(default_factory=list)
    archive_size: list[int] = field(default_factory=list)
    macro_offers: int = 0
    macro_accepted: int = 0
    rescreen_before: int = 0
    rescreen_survivors: int = 0
    wall_s: float = 0.0

    @property
    def stream_s(self) -> float:
        """Read, set-up, commit and idle time; checks are excluded."""
        return self.read_s + self.setup_s + sum(self.commit_ms) / 1000.0 + self.idle_s

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.report_lines).encode()).hexdigest()


def check_archive(state) -> None:
    """Archive invariants: non-dominated, K >= 1, finite objectives."""
    try:
        state.archive.validate()
    except AssertionError as exc:
        raise CheckFailed(f"archive dominance: {exc}") from None
    for sol in state.archive:
        if sol.k < 1:
            raise CheckFailed(f"member {sol.solution_id} has K={sol.k}")
        obj = sol.objectives
        if not (math.isfinite(obj.compactness) and math.isfinite(obj.separateness)):
            raise CheckFailed(f"member {sol.solution_id} has objectives {obj}")


def check_report(report) -> None:
    if not math.isfinite(report.hypervolume):
        raise CheckFailed(f"window {report.window_id} hypervolume {report.hypervolume}")


def run_pass(windows: Iterable, cfg: StreamConfig,
             tracer: Optional[Tracer] = None) -> PassResult:
    """Stream ``windows`` through a fresh engine state and measure each step.

    The speed probe runs before each window and right after its commit, so
    every timed step sits between two probes and is scaled by their mean.
    A window that raises or fails a check counts as failed and the pass
    moves on to the next window.
    """
    clock = time.perf_counter
    res = PassResult()
    start = clock()
    source = iter(windows)
    if tracer is not None:
        source = tracer.iterate(source)
    state = None
    idle_wall = None  # (seconds, probe before) of an idle phase awaiting its closing probe
    while True:
        before = probe()
        res.slowdowns.append(before)
        if idle_wall is not None:
            res.idle_s += idle_wall[0] / ((idle_wall[1] + before) / 2)
            idle_wall = None
        t0 = clock()
        window = next(source, None)
        read = clock() - t0
        if window is None:
            res.read_s += read / before
            break
        res.attempted += 1
        res.points += len(window)
        if tracer is not None:
            tracer.request = window.window_id
        try:
            if state is None:
                t0 = clock()
                state = engine.initialize(window, cfg)
                step = clock() - t0
                report = state.reports[-1]
                ids_before = None
            else:
                ids_before = {s.solution_id for s in state.archive}
                t0 = clock()
                report = engine.process_window(state, window)
                step = clock() - t0
            after = probe()
            res.slowdowns.append(after)
            scale = (before + after) / 2
            res.read_s += read / scale
            if ids_before is None:
                res.setup_s = step / scale
            else:
                res.commit_ms.append(1000.0 * step / scale)
                res.commit_wall_ms.append(1000.0 * step)
                # the macro offer takes the last id the commit allots
                macro_id = state.next_solution_id - 1
                ids_after = {s.solution_id for s in state.archive}
                res.macro_offers += 1
                res.macro_accepted += macro_id in ids_after
                res.rescreen_before += len(ids_before)
                res.rescreen_survivors += len(ids_before & ids_after)
            check_report(report)
            check_archive(state)
            tree = state.tree.node_count()
            held = sum(s.k for s in state.archive)
            if tree + held != report.stored_vectors:
                raise CheckFailed(
                    f"stored_vectors {report.stored_vectors} != tree {tree} + archive {held}"
                )
            res.report_lines.append(report_line(report) + "\n")
            res.nmi.append(report.nmi)
            res.hypervolume.append(report.hypervolume)
            res.stored_vectors.append(report.stored_vectors)
            res.tree_vectors.append(tree)
            res.archive_vectors.append(held)
            res.archive_size.append(len(state.archive))
            t0 = clock()
            res.idle_gens += engine.on_idle(state, IdleBudget(cfg.idle_generations_cap))
            idle_wall = (clock() - t0, after)
            check_archive(state)
        except Exception as exc:  # a failed window is counted, the pass goes on
            res.failed += 1
            res.errors.append(f"window {window.window_id}: {type(exc).__name__}: {exc}")
    res.wall_s = clock() - start
    return res


def tail_stat(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples
    above it; with fewer than eleven samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else math.nan


@dataclass
class Stream:
    """One stream of a run: its engine config and a factory for its windows
    (a CSV stream needs a fresh generator per pass)."""

    cfg: StreamConfig
    source: Callable[[], Iterable]


@dataclass
class Passes:
    """Every pass of a run, in order, with the stream each one streamed."""

    plain: list[tuple[int, PassResult]] = field(default_factory=list)
    traced: list[tuple[int, PassResult, Tracer]] = field(default_factory=list)

    def digests(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for stream, res, *_ in self.plain + self.traced:
            out.setdefault(stream, set()).add(res.digest)
        return out


def run_passes(streams: list[Stream], seconds: float, traced: bool) -> Passes:
    """Stream every stream once, then repeat streams in order while the next
    pass still fits in ``seconds``.

    Traced, each stream runs untraced and then traced, so both passes see
    the same machine state; at least one such pair runs. Untraced, every
    stream runs at least once, so the quality metrics average over a fixed
    set of streams.
    """
    out = Passes()
    begin = time.perf_counter()
    longest = 0.0
    n = 0
    while True:
        elapsed = time.perf_counter() - begin
        minimum = 1 if traced else len(streams)
        if n >= minimum and elapsed + (2 if traced else 1) * longest > seconds:
            break
        idx = n % len(streams)
        stream = streams[idx]
        res = run_pass(stream.source(), stream.cfg)
        out.plain.append((idx, res))
        longest = max(longest, res.wall_s)
        if traced:
            tracer = Tracer()
            with tracer:
                res = run_pass(stream.source(), stream.cfg, tracer)
            out.traced.append((idx, res, tracer))
            longest = max(longest, res.wall_s)
        n += 1
    return out
