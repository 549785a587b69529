"""Golden replay: pinned report digests for short seed-7 streams.

A deterministic run must keep producing these exact ``reports.jsonl``
bytes. A change that moves them has to replace the digest on purpose and
say in CHANGES.md which bytes moved and why.
"""

import hashlib

import pytest

from mostream.core import StreamConfig
from mostream.engine import run_stream
from mostream.stream_io import gen_blobs, report_line

# name -> (blob parameters, window size, window count, digest)
SHAPES = {
    "d2-drift": (
        dict(k=4, per_blob=150, sep=10.0, stddev=0.5, drift=(0.05, 0.02), dim=2),
        100,
        6,
        "ecd081d95e2a17b00d94c80ef73fe58688fa206e858344323e82b7f1c95c8c3b",
    ),
    "d16-overlap": (
        dict(k=4, per_blob=150, sep=3.0, stddev=1.0, dim=16),
        100,
        6,
        "0c1a21df2f9b01b742d6797c9adafb5df46f424c405e80ef8ed72a2d959a19a3",
    ),
    "d2-overlap-window1000": (
        dict(k=4, per_blob=750, sep=3.0, stddev=1.0, dim=2),
        1000,
        3,
        "b2c86f9713282e027bed3831a81382e070e3f16bc6a4ba06277a8f8a5264f9c7",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reports_match_pinned_digest(shape):
    blobs, window, windows, digest = SHAPES[shape]
    batches = gen_blobs(window_size=window, seed=7, **blobs)
    cfg = StreamConfig(window_size=window, idle_generations_cap=5, rng_seed=7)
    state, _ = run_stream(batches, cfg)
    assert len(state.reports) == windows
    text = "".join(report_line(r) + "\n" for r in state.reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
