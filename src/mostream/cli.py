"""Command line front end: stream a CSV or a synthetic blob mix through the engine."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from .core import StreamConfig
from .engine import run_stream
from .stream_io import (
    emit_assignments,
    emit_reports,
    emit_snapshot,
    gen_blobs,
    load_csv,
    minmax_wrap,
)


@dataclass
class RunManifest:
    """Everything a run needs; identical manifests with deterministic idle
    replay to identical artifacts."""

    cfg: StreamConfig
    input_path: Optional[str] = None
    blobs: Optional[dict] = None
    label_col: Optional[int] = None
    out_dir: str = "."
    snapshots: bool = False
    minmax: bool = False
    deterministic: bool = True


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
    p.add_argument("--window", type=int, default=100, help="window size")
    p.add_argument("--gamma", type=float, default=0.7, help="decay factor")
    p.add_argument("--mu", type=float, default=0.2, help="mutated coordinate fraction")
    p.add_argument("--sigma", type=int, default=10, help="parents per generation")
    p.add_argument("--prune", type=float, default=0.1, help="weight prune threshold")
    p.add_argument("--interval-ms", type=int, default=1000,
                   help="idle interval between windows (wall-clock mode)")
    p.add_argument("--idle-gens", type=int, default=None,
                   help="fixed generations per window (deterministic mode)")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--snapshots", action="store_true",
                   help="write per-window tree/archive snapshots")
    p.add_argument("--minmax", action="store_true",
                   help="min-max scale features by the first window's ranges")
    return p


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    deterministic = args.idle_gens is not None
    cfg = StreamConfig(
        window_size=args.window,
        gamma=args.gamma,
        mu=args.mu,
        sigma=args.sigma,
        prune_threshold=args.prune,
        interval_ms=args.interval_ms,
        idle_generations_cap=args.idle_gens if deterministic else 10,
        rng_seed=args.seed,
    )
    return RunManifest(
        cfg=cfg,
        input_path=args.input,
        blobs=parse_blob_spec(args.blobs) if args.blobs else None,
        label_col=args.label_col,
        out_dir=args.out,
        snapshots=args.snapshots,
        minmax=args.minmax,
        deterministic=deterministic,
    )


def run(manifest: RunManifest) -> dict:
    """Execute a manifest; returns a small summary of the run."""
    cfg = manifest.cfg
    if manifest.blobs is not None:
        batches = iter(
            gen_blobs(
                window_size=cfg.window_size, seed=cfg.rng_seed, **manifest.blobs
            )
        )
    else:
        batches = load_csv(
            manifest.input_path, cfg.window_size, label_col=manifest.label_col
        )
    if manifest.minmax:
        batches = minmax_wrap(batches)
    os.makedirs(manifest.out_dir, exist_ok=True)
    hooks = {}
    if manifest.snapshots:
        hooks["on_window_end"] = lambda state: emit_snapshot(state, manifest.out_dir)
    state, final = run_stream(
        batches, cfg, deterministic=manifest.deterministic, **hooks
    )
    emit_reports(state.reports, os.path.join(manifest.out_dir, "reports.jsonl"))
    emit_assignments(final, os.path.join(manifest.out_dir, "assignments.csv"))
    last = state.reports[-1]
    return {
        "windows": len(state.reports),
        "archive_size": len(state.archive),
        "selected_k": final.solution.k,
        "selected_dbi": final.dbi,
        "last_nmi": last.nmi,
        "last_arand": last.arand,
    }


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = run(manifest_from_args(args))
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
