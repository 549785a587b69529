"""Stream ingestion and artifact emission.

The CSV loader is a generator holding at most one window of rows at a time.
Blob generation builds a labeled synthetic stream with optional per-window
center drift. Emitters write line-oriented files that replay byte-for-byte
under a fixed manifest and seed.
"""

from __future__ import annotations

import json
import logging
import math
import os
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import MAX_ABS_VALUE, WindowBatch, serialize_chromosome
from .engine import EngineState, FinalSelection, WindowReport

logger = logging.getLogger(__name__)


def load_csv(
    path: str,
    window_size: int,
    label_col: Optional[int] = None,
) -> Iterator[WindowBatch]:
    """Yield consecutive windows from a headerless numeric CSV.

    Rows with non-finite values, or features beyond +/-``MAX_ABS_VALUE``, are
    skipped (counted, one warning at end of stream). A row with the wrong
    field count, or a finite label that is not a whole number, aborts with
    its line number, as does a first row whose only field is the label.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    rows: list[list[float]] = []
    labels: list[int] = []
    width: Optional[int] = None
    skipped = 0
    window_id = 0
    start_index = 0
    emitted_any = False

    def flush() -> WindowBatch:
        nonlocal rows, labels, window_id, start_index, emitted_any
        batch = WindowBatch(
            np.asarray(rows, dtype=float),
            window_id,
            labels=np.asarray(labels) if label_col is not None else None,
            start_index=start_index,
        )
        start_index += len(rows)
        window_id += 1
        rows, labels = [], []
        emitted_any = True
        return batch

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if label_col is not None and not -width <= label_col < width:
                    raise ValueError(f"label column {label_col} out of range")
                if label_col is not None and width == 1:
                    raise ValueError(
                        f"line {lineno}: window has no feature columns "
                        "(the only field is the label column)"
                    )
            elif len(fields) != width:
                raise ValueError(
                    f"line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                values = [float(v) for v in fields]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if label_col is not None:
                label_val = values[label_col]
                if math.isfinite(label_val) and not label_val.is_integer():
                    raise ValueError(
                        f"line {lineno}: label {fields[label_col]} is not a class id"
                    )
                feat = [v for i, v in enumerate(values) if i != label_col % width]
            else:
                label_val = None
                feat = values
            # the bound test is False for NaN and +/-inf as well
            if not all(abs(v) <= MAX_ABS_VALUE for v in feat) or (
                label_val is not None and not math.isfinite(label_val)
            ):
                skipped += 1
                continue
            rows.append(feat)
            if label_col is not None:
                labels.append(int(label_val))
            if len(rows) == window_size:
                yield flush()
    if rows:
        yield flush()
    if skipped:
        logger.warning("skipped %d rows with non-finite or out-of-range values", skipped)
    if not emitted_any:
        raise ValueError(f"{path}: no usable rows")


def blob_centers(k: int, sep: float, dim: int = 2) -> np.ndarray:
    """k centers pairwise at least sep apart (adjacent pairs exactly sep):
    a regular polygon in the first two coordinates, or a line at dim=1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if sep <= 0:
        raise ValueError("sep must be > 0")
    if k == 1:
        return np.zeros((1, dim))
    if dim == 1:
        return sep * np.arange(k, dtype=float)[:, None]
    radius = sep / (2.0 * math.sin(math.pi / k))
    angles = 2.0 * math.pi * np.arange(k) / k
    centers = np.zeros((k, dim))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def gen_blobs(
    k: int,
    per_blob: int,
    sep: float,
    stddev: float,
    window_size: int,
    seed: int = 0,
    drift: Optional[Sequence[float]] = None,
    dim: int = 2,
) -> list[WindowBatch]:
    """Labeled Gaussian blob stream, blobs interleaved by a seeded shuffle.

    ``drift`` shifts every center by that vector once per window, so window w
    is displaced by w*drift.
    """
    if per_blob < 1:
        raise ValueError("per_blob must be >= 1")
    if stddev < 0:
        raise ValueError("stddev must be >= 0")
    rng = np.random.default_rng(seed)
    centers = blob_centers(k, sep, dim)
    total = k * per_blob
    labels = rng.permutation(np.repeat(np.arange(k), per_blob))
    noise = rng.normal(0.0, stddev, size=(total, dim))
    data = centers[labels] + noise
    drift_vec = np.zeros(dim) if drift is None else np.asarray(drift, dtype=float)
    if drift_vec.shape != (dim,):
        raise ValueError(f"drift must have dimension {dim}")
    batches = []
    for wid, start in enumerate(range(0, total, window_size)):
        stop = min(start + window_size, total)
        batches.append(
            WindowBatch(
                data[start:stop] + wid * drift_vec,
                wid,
                labels=labels[start:stop].copy(),
                start_index=start,
            )
        )
    return batches


def minmax_wrap(batches: Iterator[WindowBatch]) -> Iterator[WindowBatch]:
    """Scale every window by the first window's per-feature min/max."""
    lo = hi = None
    for batch in batches:
        if lo is None:
            lo = batch.data.min(axis=0)
            hi = batch.data.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        yield WindowBatch(
            (batch.data - lo) / span,
            batch.window_id,
            labels=batch.labels,
            start_index=batch.start_index,
        )


# ---------------------------------------------------------------------------
# emission


def report_line(report: WindowReport) -> str:
    """One report as a JSON object with sorted keys, without the newline."""
    return json.dumps(report.to_dict(), sort_keys=True)


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_snapshot(state: EngineState, out_dir: str) -> tuple[str, str]:
    """Write the tree and archive as of the current window.

    Tree rows: node_id,parent_id,weight,coord... (support omitted).
    Archive rows: one flat chromosome record per solution.
    """
    wid = state.last_window.window_id
    tree_path = os.path.join(out_dir, f"tree_{wid:05d}.csv")
    tree = state.tree
    with open(tree_path, "w", encoding="utf-8") as fh:
        for nid, parent, weight, proto in zip(
            tree.ids.tolist(), tree.parents.tolist(), tree.weights, tree.prototypes
        ):
            coords = ",".join(_fmt(v) for v in proto)
            fh.write(f"{nid},{parent},{_fmt(weight)},{coords}\n")
    archive_path = os.path.join(out_dir, f"archive_{wid:05d}.csv")
    with open(archive_path, "w", encoding="utf-8") as fh:
        for sol in state.archive:
            fh.write(",".join(_fmt(v) for v in serialize_chromosome(sol)) + "\n")
    return tree_path, archive_path


def emit_assignments(final: FinalSelection, path: str) -> None:
    """CSV of the last window's points: arrival index, assigned cluster."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,cluster\n")
        for idx, cl in zip(final.indices, final.assignments):
            fh.write(f"{int(idx)},{int(cl)}\n")
