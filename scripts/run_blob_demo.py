"""End-to-end demo on a drifting Gaussian blob stream.

Generates k labeled blobs whose centers shift by a fixed vector every
window, runs the streaming engine over the whole stream, prints one
report line per window, and summarizes the final selected solution.

    python3 scripts/run_blob_demo.py --k 4 --per-blob 500 --drift 0.05 0.02
"""

import argparse

import numpy as np

from mostream import StreamConfig, run_stream
from mostream.core import assign_batch
from mostream.metrics import arand, nmi
from mostream.stream_io import gen_blobs, report_line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=4, help="number of blobs")
    ap.add_argument("--per-blob", type=int, default=500)
    ap.add_argument("--sep", type=float, default=10.0)
    ap.add_argument("--stddev", type=float, default=0.5)
    ap.add_argument("--window-size", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gamma", type=float, default=0.7)
    ap.add_argument("--idle-gens", type=int, default=10)
    ap.add_argument(
        "--drift",
        type=float,
        nargs=2,
        default=None,
        metavar=("DX", "DY"),
        help="per-window center displacement",
    )
    args = ap.parse_args()

    batches = gen_blobs(
        k=args.k,
        per_blob=args.per_blob,
        sep=args.sep,
        stddev=args.stddev,
        window_size=args.window_size,
        seed=args.seed,
        drift=args.drift,
    )
    cfg = StreamConfig(
        window_size=args.window_size,
        gamma=args.gamma,
        idle_generations_cap=args.idle_gens,
        rng_seed=args.seed,
    )
    print(f"streaming {sum(len(b) for b in batches)} points in {len(batches)} windows")
    state, final = run_stream(batches, cfg, on_report=lambda r: print(report_line(r)))

    last = batches[-1]
    pred = assign_batch(final.solution, last.data)
    print(f"\nselected solution: k={final.solution.k}, dbi={final.dbi:.4f}")
    print(f"last-window nmi={nmi(last.labels, pred):.4f}  arand={arand(last.labels, pred):.4f}")
    print(f"archive front size {len(state.archive.solutions)}, stored vectors {state.stored_vector_count()}")
    for proto in final.solution.prototypes:
        print("  prototype", np.round(proto, 3).tolist())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
