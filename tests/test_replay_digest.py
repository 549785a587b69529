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

SHAPES = {
    "d2-drift": (
        dict(k=4, per_blob=150, sep=10.0, stddev=0.5, drift=(0.05, 0.02), dim=2),
        "ecd081d95e2a17b00d94c80ef73fe58688fa206e858344323e82b7f1c95c8c3b",
    ),
    "d16-overlap": (
        dict(k=4, per_blob=150, sep=3.0, stddev=1.0, dim=16),
        "0c1a21df2f9b01b742d6797c9adafb5df46f424c405e80ef8ed72a2d959a19a3",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reports_match_pinned_digest(shape):
    blobs, digest = SHAPES[shape]
    batches = gen_blobs(window_size=100, seed=7, **blobs)
    cfg = StreamConfig(window_size=100, idle_generations_cap=5, rng_seed=7)
    state, _ = run_stream(batches, cfg)
    assert len(state.reports) == 6
    text = "".join(report_line(r) + "\n" for r in state.reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
