"""Benchmark workloads: stream shapes, engine settings and input generation.

Each workload is a blob stream whose windows the benchmark generates from
the workload seed and hands to the engine one at a time. Every workload runs
the engine in deterministic mode (a fixed number of idle generations per
window), so quality and report bytes depend only on the seed, never on how
fast the machine is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from mostream.stream_io import gen_blobs, load_csv


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    sep: float
    stddev: float
    dim: int
    window: int
    idle_gens: int
    drift: Optional[tuple[float, ...]]
    # A run streams ``streams`` independent streams of ``windows`` windows
    # each. One stream's NMI, hypervolume, archive size and so its cost per
    # generation depend on its seed far more than the bounds allow; many
    # short streams average that out where few long ones do not.
    streams: int
    windows: int
    via_csv: bool = False

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        # idle breeding dominates; drift makes the tree open and prune nodes
        # every window so the macro offer competes; NMI saturates at 1.0
        Workload("idle-drift", k=4, sep=10.0, stddev=0.5, dim=2, window=100,
                 idle_gens=10, drift=(0.05, 0.02), streams=10, windows=15),
        # commit and set-up dominate: a 1000-point window keeps ~1000 tree
        # nodes and makes seed_gng the bulk of set-up; NMI ~0.6 is unsaturated
        Workload("wide-overlap", k=4, sep=3.0, stddev=1.0, dim=2, window=1000,
                 idle_gens=1, drift=None, streams=5, windows=12, via_csv=True),
        # the idle-heavy layers at d=16: mutation moves 3 coordinates per
        # prototype and every distance kernel carries 8x the coordinates
        Workload("highdim-overlap", k=4, sep=4.0, stddev=1.0, dim=16, window=100,
                 idle_gens=10, drift=None, streams=12, windows=10),
    )
}


def stream_seed(seed: int, stream: int) -> int:
    """Seed of one stream of a run; runs with distinct seeds share none."""
    return seed * 100 + stream


def make_windows(wl: Workload, seed: int, windows: Optional[int] = None):
    """One stream's windows for ``seed``, generated in memory."""
    n = wl.windows if windows is None else windows
    return gen_blobs(
        k=wl.k,
        per_blob=n * wl.window // wl.k,
        sep=wl.sep,
        stddev=wl.stddev,
        window_size=wl.window,
        seed=seed,
        drift=wl.drift,
        dim=wl.dim,
    )


def write_csv(batches, path: str) -> None:
    """Headerless CSV, features then the integer label; repr() round-trips
    every float exactly, so the loader yields the generated windows."""
    with open(path, "w", encoding="utf-8") as fh:
        for b in batches:
            for row, label in zip(b.data, b.labels):
                fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def csv_windows(wl: Workload, path: str):
    """A fresh generator over the workload's CSV (one per pass)."""
    return load_csv(path, wl.window, label_col=wl.dim)
