"""Golden replay: pinned report and tree-snapshot digests for seed-7 streams.

A deterministic run must keep producing these exact ``reports.jsonl`` and
``tree_*.csv`` bytes. A change that moves them has to replace the digest on
purpose and say in CHANGES.md which bytes moved and why.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from mostream.core import StreamConfig
from mostream.engine import initialize, process_window, run_stream
from mostream.stream_io import emit_snapshot, gen_blobs, report_line


def _assert_digest(shape, computed, pinned):
    """On a mismatch, print the computed digest so a deliberate re-pin takes
    one run."""
    assert computed == pinned, (
        f"{shape}: computed digest {computed} differs from the pinned {pinned}. "
        "If the change moves these bytes on purpose, pin the computed digest "
        "here and record old -> new, and why, in CHANGES.md."
    )


# name -> (blob parameters, window size, window count, digest)
SHAPES = {
    "d2-drift": (
        dict(k=4, per_blob=150, sep=10.0, stddev=0.5, drift=(0.05, 0.02), dim=2),
        100,
        6,
        "a5dbecd557d50fb5c30980a2fb51bae47fedc6b156046bd7c246d36788d2adee",
    ),
    # 3 <= d < 8: every column-order kernel path below the screen
    "d5-overlap": (
        dict(k=4, per_blob=150, sep=3.0, stddev=1.0, dim=5),
        100,
        6,
        "1d23603abf48a21d31408588b00e3945858d89a2d1c64cf304928b745b745014",
    ),
    "d16-overlap": (
        dict(k=4, per_blob=150, sep=3.0, stddev=1.0, dim=16),
        100,
        6,
        "23da8bf36c882520c4425a28b4d4481e4ba82d2b552902c487dfb96f7a809241",
    ),
    # the first window holds a 13-row blob with no core point: density-scan
    # noise, which the scan's seed is charged for like every other row
    "d2-density-noise": (
        dict(k=4, per_blob=150, sep=30.0, stddev=3.0, dim=2),
        100,
        6,
        "96261d3ca433f1063913fb4f407f09634b82b7676ace3ea7a70be12e471b3dfd",
    ),
    "d2-overlap-window1000": (
        dict(k=4, per_blob=750, sep=3.0, stddev=1.0, dim=2),
        1000,
        3,
        "4815788aebc909abdaf3312cdb94d2e183a187d3e4af55bc11064ff6eae6f34a",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reports_match_pinned_digest(shape):
    blobs, window, windows, digest = SHAPES[shape]
    batches = gen_blobs(window_size=window, seed=7, **blobs)
    cfg = StreamConfig(window_size=window, idle_generations_cap=5, rng_seed=7)
    reports = []
    state, _ = run_stream(batches, cfg, lambda s: reports.append(s.reports[-1]))
    assert state.windows == len(reports) == windows
    text = "".join(report_line(r) + "\n" for r in reports)
    _assert_digest(shape, hashlib.sha256(text.encode()).hexdigest(), digest)


# one run of a SHAPES stream, printing its report digest
_REPLAY = """
import hashlib
from mostream.core import StreamConfig
from mostream.engine import run_stream
from mostream.stream_io import gen_blobs, report_line

blobs, window = {blobs!r}, {window!r}
reports = []
run_stream(gen_blobs(window_size=window, seed=7, **blobs),
           StreamConfig(window_size=window, idle_generations_cap=5, rng_seed=7),
           lambda s: reports.append(s.reports[-1]))
text = "".join(report_line(r) + "\\n" for r in reports)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_d16_digest_holds_with_two_blas_threads():
    """From 8 coordinates nearest prototypes are screened through a BLAS
    GEMM, whose blocking and threading change its last bits. The CLI pins no
    BLAS threads, so a fresh process with two must give the pinned bytes."""
    blobs, window, _, digest = SHAPES["d16-overlap"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _REPLAY.format(blobs=blobs, window=window)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    _assert_digest("d16-overlap, two BLAS threads", out.stdout.strip(), digest)


# name -> (blob parameters, window size, digest). The tree never reads the
# archive, so the streams run without idle generations.
TREE_SHAPES = {
    # drift outruns the acceptance radius: novelty nodes open every window
    # and starved leaves (build nodes included) are pruned
    "d2-fast-drift": (
        dict(k=4, per_blob=250, sep=10.0, stddev=0.5, drift=(0.6, 0.2), dim=2),
        100,
        "89da337ea7602f740a61caa8ced6853eca3540267dcf17e23735d0669258adec",
    ),
    # three overlapping blobs in three coordinates, one 60-point window each
    "d3": (
        dict(k=3, per_blob=60, sep=3.0, stddev=1.0, dim=3),
        60,
        "3056065f3d25af608baad081e4e32f828ab24ca10b48235e067cd494a4f7173d",
    ),
}


@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_snapshots_match_pinned_digest(shape, tmp_path):
    """Every node's id, parent, weight and coordinates, every window."""
    blobs, window, digest = TREE_SHAPES[shape]
    batches = gen_blobs(window_size=window, seed=7, **blobs)
    cfg = StreamConfig(window_size=window, idle_generations_cap=0, rng_seed=7)
    state = initialize(batches[0], cfg)
    # the build numbers its nodes 1..n down its rows, which are in preorder
    assert state.tree.ids.tolist() == list(range(1, window + 1))
    state.tree.validate()
    emit_snapshot(state, str(tmp_path))
    for w in batches[1:]:
        process_window(state, w)
        emit_snapshot(state, str(tmp_path))
    names = sorted(f for f in os.listdir(tmp_path) if f.startswith("tree_"))
    assert len(names) == len(batches)
    h = hashlib.sha256()
    for name in names:
        h.update((tmp_path / name).read_bytes())
    _assert_digest(shape, h.hexdigest(), digest)
