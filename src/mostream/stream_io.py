"""Stream ingestion and artifact emission.

The CSV loader is a generator holding at most one window of rows at a time.
It reads the file as one lazy stream of numbered non-blank lines and takes
each window from it in blocks of lines, one block when the window has at
most ``BLOCK_LINES`` rows: every field of a block goes through Python's
``float`` in one pass, and the checks run with numpy over the block, raising
at the first bad line in file order. Blob generation builds a labeled
synthetic stream with optional per-window center drift. Emitters write
line-oriented files that replay byte-for-byte under a fixed manifest and
seed.
"""

from __future__ import annotations

import json
import logging
import math
import os
from itertools import islice, repeat
from numbers import Integral
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import MAX_ABS_VALUE, StreamConfig, WindowBatch, serialize_chromosome
from .engine import EngineState, FinalSelection, WindowReport

logger = logging.getLogger(__name__)


# lines parsed in one block: a window of up to this many rows is one block.
# On the 1000-row wide-overlap windows, one block per window kept peak RSS
# about 0.17 MB above the row-by-row loader (median of 5 runs), and blocks
# of 256 lines about 0.07 MB, at the same speed within noise.
BLOCK_LINES = 256

# class ids must stay below this magnitude: every smaller integer is a float,
# and from here on two ids can round to one (2**53 + 1 reads as 2**53)
MAX_LABEL = 2**53


def load_csv(
    path: str,
    window_size: int,
    label_col: Optional[int] = None,
) -> Iterator[WindowBatch]:
    """Yield consecutive windows from a headerless numeric CSV.

    Rows with non-finite values, or features beyond +/-``MAX_ABS_VALUE``, are
    skipped (counted, one warning at end of stream). A row with the wrong
    field count, or a finite label that is not a whole number below
    ``MAX_LABEL`` in magnitude, as a float and as written
    (``2.0000000000000001`` is rejected, though its float is 2.0), aborts
    with its line number, as does a first row whose only field is the
    label. ``window_size`` is checked as ``StreamConfig`` checks it. Across
    a ``yield`` the generator holds the window, the file and one lazy
    stream of numbered non-blank lines; ``_read_window`` takes each window
    from that stream.
    """
    StreamConfig(window_size=window_size)
    width: Optional[int] = None
    skipped = window_id = start_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(itemgetter(1), enumerate(map(str.strip, fh), 1))
        while True:
            width, dropped, data, labels = _read_window(lines, window_size, width, label_col)
            skipped += dropped
            if data is None:
                break
            yield WindowBatch(data, window_id, labels=labels, start_index=start_index)
            window_id += 1
            start_index += len(data)
    if skipped:
        logger.warning("skipped %d rows with non-finite or out-of-range values", skipped)
    if not window_id:
        raise ValueError(f"{path}: no usable rows")


def _read_window(
    lines: Iterator[tuple[int, str]], size: int, width: Optional[int], label_col: Optional[int]
) -> tuple[Optional[int], int, Optional[np.ndarray], Optional[np.ndarray]]:
    """The next window of up to ``size`` usable rows from ``lines``, a stream
    of (line number, stripped text) pairs: (the file's field count, the rows
    skipped, the window's features and labels, or None for both when the
    stream held no usable row). The lines still needed to fill the window
    are parsed in blocks of at most ``BLOCK_LINES`` (none past the one that
    fills it), each converted by ``float`` in one pass and checked with
    numpy; when several lines are bad, the first in file order raises.
    """
    blocks: list[np.ndarray] = []
    filled = read = 0
    while filled < size and (block := list(islice(lines, min(size - filled, BLOCK_LINES)))):
        numbers, texts = zip(*block)
        if width is None:
            width = _first_width(texts[0], numbers[0], label_col)
        values = _parse_block(texts, numbers, width, label_col)
        # the bound test is False for NaN and +/-inf as well; a finite label
        # passed the block checks within 2**53, so the one test also skips
        # the rows whose label is not finite
        blocks.append(values[(np.abs(values) <= MAX_ABS_VALUE).all(axis=1)])
        read += len(block)
        filled += len(blocks[-1])
    if not filled:
        return width, read, None, None
    values = np.concatenate(blocks)
    if label_col is None:
        return width, read - filled, values, None
    features = np.delete(values, label_col % width, axis=1)
    return width, read - filled, features, values[:, label_col].astype(int)


def _first_width(line: str, lineno: int, label_col: Optional[int]) -> int:
    """The field count of the file's first non-blank line, checked against
    the label column."""
    width = line.count(",") + 1
    if label_col is not None and not -width <= label_col < width:
        raise ValueError(f"label column {label_col} out of range")
    if label_col is not None and width == 1:
        raise ValueError(
            f"line {lineno}: window has no feature columns "
            "(the only field is the label column)"
        )
    return width


def _parse_block(
    lines: list[str], numbers: list[int], width: int, label_col: Optional[int]
) -> np.ndarray:
    """The (len(lines), width) values of a block of lines, converted by
    ``float``. The first bad line in file order raises with its line number:
    a wrong field count, else a field ``float`` rejects, else a label that
    is not a class id."""
    counts = np.fromiter(
        map(str.count, lines, repeat(",")), dtype=np.intp, count=len(lines)
    )
    ragged = np.flatnonzero(counts != width - 1)
    end = int(ragged[0]) if len(ragged) else len(lines)
    error = None
    if end < len(lines):
        error = f"line {numbers[end]}: expected {width} fields, got {counts[end] + 1}"
    try:
        values, fields = _floats(lines[:end], width)
    except ValueError:
        end, exc = _first_unparsed(lines[:end])
        error = f"line {numbers[end]}: {exc}"
        values, fields = _floats(lines[:end], width)
    if label_col is not None:
        _check_labels(values[:, label_col], fields[label_col % width :: width], numbers)
    if error is not None:
        raise ValueError(error)
    return values


def _floats(lines: list[str], width: int) -> tuple[np.ndarray, list[str]]:
    """Every field of ``lines`` (each with ``width`` fields) through ``float``,
    as an (n, width) array, and the fields' text, row after row."""
    if not lines:
        return np.empty((0, width)), []
    fields = ",".join(lines).split(",")
    values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    return values.reshape(-1, width), fields


def _first_unparsed(lines: list[str]) -> tuple[int, ValueError]:
    """The index of the first line with a field ``float`` rejects (``lines``
    holds one), and the error it raised."""
    for index, line in enumerate(lines):
        try:
            for field in line.split(","):
                float(field)
        except ValueError as exc:
            return index, exc


def _check_labels(labels: np.ndarray, texts: list[str], numbers: list[int]) -> None:
    """Raise at the first finite label that is fractional, in its float or
    in its text, or not within +/-``MAX_LABEL``. A fraction below float
    resolution rounds to a whole float (``2.0000000000000001`` reads as
    2.0), so the texts of the whole labels are read too; that loop runs
    only when some label of the block is written with a point or an
    exponent."""
    finite = np.isfinite(labels)
    whole = finite & (labels == np.floor(labels))
    fractional = finite & ~whole
    if _point_or_exponent(",".join(texts)):
        for row in np.flatnonzero(whole).tolist():
            fractional[row] = _fraction_in_text(texts[row])
    bad = np.flatnonzero(fractional | (finite & (np.abs(labels) >= MAX_LABEL)))
    if not len(bad):
        return
    row = int(bad[0])
    field = texts[row]
    if fractional[row]:
        raise ValueError(f"line {numbers[row]}: label {field} is not a class id")
    raise ValueError(
        f"line {numbers[row]}: label {field} is not within +/-2**53, "
        "where class ids stop being exact"
    )


def _point_or_exponent(text: str) -> bool:
    return "." in text or "e" in text or "E" in text


def _fraction_in_text(text: str) -> bool:
    """Whether the finite number ``float`` reads from ``text`` has a
    non-zero fractional part as written. It is judged from the digits and
    the exponent alone, so no power of ten is ever formed: the value is
    (the digits as an integer) x 10**shift, which is whole unless the
    digits end in fewer zeros than -shift and are not all zero."""
    if not _point_or_exponent(text):
        return False
    mantissa, _, exponent = text.strip().replace("_", "").lower().partition("e")
    whole, _, fraction = mantissa.lstrip("+-").partition(".")
    digits = whole + fraction
    if not digits.isascii():  # float reads any Unicode decimal digit
        digits = "".join(str(int(digit)) for digit in digits)
    significant = digits.rstrip("0")
    shift = int(exponent or 0) - len(fraction)
    return bool(significant) and shift + len(digits) - len(significant) < 0


def blob_centers(k: int, sep: float, dim: int = 2) -> np.ndarray:
    """k centers pairwise at least sep apart (adjacent pairs exactly sep):
    a regular polygon in the first two coordinates, or a line at dim=1. A
    ``sep`` whose polygon radius, or line length, exceeds ``MAX_ABS_VALUE``
    is rejected: its centers would leave the window value range."""
    _check_positive_int("k", k)
    _check_positive_int("dim", dim)
    if not 0.0 < sep < math.inf:
        raise ValueError("sep must be finite and > 0")
    if k == 1:
        return np.zeros((1, dim))
    radius = sep * (k - 1) if dim == 1 else sep / (2.0 * math.sin(math.pi / k))
    if radius > MAX_ABS_VALUE:
        raise ValueError(f"sep {sep:g} puts the {k} centers beyond +/-{MAX_ABS_VALUE:g}")
    if dim == 1:
        return sep * np.arange(k, dtype=float)[:, None]
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
    is displaced by w*drift. Every argument is checked before anything is
    drawn.
    """
    centers = blob_centers(k, sep, dim)
    _check_positive_int("per_blob", per_blob)
    StreamConfig(window_size=window_size)
    if not 0.0 <= stddev < math.inf:
        raise ValueError("stddev must be finite and >= 0")
    drift_vec = np.zeros(dim) if drift is None else np.asarray(drift, dtype=float)
    if drift_vec.shape != (dim,):
        raise ValueError(f"drift must have dimension {dim}")
    if not np.isfinite(drift_vec).all():
        raise ValueError("drift must be finite")
    rng = np.random.default_rng(seed)
    total = k * per_blob
    labels = rng.permutation(np.repeat(np.arange(k), per_blob))
    noise = rng.normal(0.0, stddev, size=(total, dim))
    data = centers[labels] + noise
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


def _check_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")


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
