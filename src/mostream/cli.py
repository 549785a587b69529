"""Command line front end: stream a CSV or a synthetic blob mix through the engine."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .core import StreamConfig
from .engine import run_stream
from .stream_io import (
    emit_assignments,
    emit_snapshot,
    gen_blobs,
    load_csv,
    minmax_wrap,
    report_line,
)


def parse_blob_spec(spec: str) -> dict:
    """Parse 'k=4,per=1000,sep=10,std=0.5[,drift=0.1:0.0]' into kwargs."""
    out = {"k": 4, "per_blob": 1000, "sep": 10.0, "stddev": 0.5, "drift": None}
    keys = {"k": "k", "per": "per_blob", "sep": "sep", "std": "stddev"}
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad blob spec item: {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in ("k", "per"):
            out[keys[key]] = int(value)
        elif key in ("sep", "std"):
            out[keys[key]] = float(value)
        elif key == "drift":
            out["drift"] = [float(v) for v in value.split(":")]
        else:
            raise ValueError(f"unknown blob spec key: {key!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mostream",
        description="Streaming multi-objective clustering over windowed data.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="headerless numeric CSV to stream")
    src.add_argument(
        "--blobs",
        help="synthetic stream spec, e.g. k=4,per=1000,sep=10,std=0.5[,drift=DX:DY]",
    )
    p.add_argument("--label-col", type=int, default=None,
                   help="column holding ground-truth labels (CSV input)")
    default = StreamConfig()
    p.add_argument("--window", type=int, default=default.window_size, help="window size")
    p.add_argument("--gamma", type=float, default=default.gamma, help="decay factor")
    p.add_argument("--mu", type=float, default=default.mu, help="mutated coordinate fraction")
    p.add_argument("--sigma", type=int, default=default.sigma, help="parents per generation")
    p.add_argument("--prune", type=float, default=default.prune_threshold,
                   help="weight prune threshold")
    p.add_argument("--interval-ms", type=int, default=default.interval_ms,
                   help="idle interval between windows (wall-clock mode)")
    p.add_argument("--idle-gens", type=int, default=None,
                   help="fixed generations per window (replayable); without it "
                        "idle time is paced by --interval-ms")
    p.add_argument("--seed", type=int, default=default.rng_seed, help="run seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--snapshots", action="store_true",
                   help="write per-window tree/archive snapshots")
    p.add_argument("--minmax", action="store_true",
                   help="min-max scale features by the first window's ranges")
    return p


def config_from_args(args: argparse.Namespace) -> StreamConfig:
    """The engine settings the parsed flags name, one field per flag;
    without ``--idle-gens`` the cap is None and the run is paced by the wall
    clock."""
    return StreamConfig(
        window_size=args.window,
        gamma=args.gamma,
        mu=args.mu,
        sigma=args.sigma,
        prune_threshold=args.prune,
        interval_ms=args.interval_ms,
        idle_generations_cap=args.idle_gens,
        rng_seed=args.seed,
    )


def run(args: argparse.Namespace) -> dict:
    """Stream the parsed flags' input and write the artifacts; identical
    flags with ``--idle-gens`` replay to identical artifacts. Report lines
    are flushed as windows commit, so a later failure keeps them. Returns a
    small summary of the run."""
    if args.blobs and args.label_col is not None:
        raise ValueError("--label-col needs --input")
    cfg = config_from_args(args)
    if args.blobs:
        spec = parse_blob_spec(args.blobs)
        batches = iter(gen_blobs(window_size=cfg.window_size, seed=cfg.rng_seed, **spec))
    else:
        batches = load_csv(args.input, cfg.window_size, label_col=args.label_col)
    if args.minmax:
        batches = minmax_wrap(batches)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "reports.jsonl"), "w", encoding="utf-8") as reports:
        def on_window_end(state):
            reports.write(report_line(state.reports[-1]) + "\n")
            reports.flush()
            if args.snapshots:
                emit_snapshot(state, args.out)

        state, final = run_stream(batches, cfg, on_window_end)
    emit_assignments(final, os.path.join(args.out, "assignments.csv"))
    last = state.reports[-1]
    return {
        "windows": state.windows,
        "archive_size": len(state.archive),
        "selected_k": final.solution.k,
        "selected_dbi": final.dbi,
        "last_nmi": last.nmi,
        "last_arand": last.arand,
    }


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        "windows={windows} archive={archive_size} selected_k={selected_k} "
        "dbi={selected_dbi:.4f} nmi={nmi} arand={arand}".format(
            nmi="-" if summary["last_nmi"] is None else f"{summary['last_nmi']:.4f}",
            arand="-"
            if summary["last_arand"] is None
            else f"{summary['last_arand']:.4f}",
            **summary,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
