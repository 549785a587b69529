"""CSV ingestion, blob generation, artifact emission, and the CLI front end."""

import dataclasses
import inspect
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mostream.cli import build_parser, config_from_args, main, parse_blob_spec, run
from mostream.core import MAX_ABS_VALUE, StreamConfig
from mostream.engine import WindowReport, initialize, run_stream
from mostream import stream_io
from mostream.stream_io import (
    blob_centers,
    emit_assignments,
    emit_snapshot,
    gen_blobs,
    load_csv,
    minmax_wrap,
    report_line,
)
from oracles import load_csv_reference, reference_logger


def _parse_reports(path):
    """The report dicts of a ``reports.jsonl`` file, in window order."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_chunks_and_remainder(self, tmp_path):
        rows = "\n".join(f"{i},{i + 0.5}" for i in range(250))
        path = self._write(tmp_path, rows)
        batches = list(load_csv(path, window_size=100))
        assert [len(b) for b in batches] == [100, 100, 50]
        assert [b.window_id for b in batches] == [0, 1, 2]
        assert [b.start_index for b in batches] == [0, 100, 200]
        assert batches[0].labels is None

    def test_lazy_generator(self, tmp_path):
        rows = "\n".join(f"{i},{i}" for i in range(300))
        path = self._write(tmp_path, rows)
        it = load_csv(path, window_size=100)
        first = next(it)
        assert first.window_id == 0 and len(first) == 100

    def test_label_column_extracted(self, tmp_path):
        path = self._write(tmp_path, "1.0,2.0,7\n3.0,4.0,8\n")
        (batch,) = load_csv(path, window_size=10, label_col=2)
        assert list(batch.labels) == [7, 8]
        assert batch.data.shape == (2, 2)

    def test_negative_label_column(self, tmp_path):
        path = self._write(tmp_path, "1.0,2.0,7\n3.0,4.0,8\n")
        (batch,) = load_csv(path, window_size=10, label_col=-1)
        assert list(batch.labels) == [7, 8]
        assert batch.data.shape == (2, 2)

    def test_ragged_row_fatal_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "1,2\n3,4\n5,6,7\n")
        with pytest.raises(ValueError, match="line 3"):
            list(load_csv(path, window_size=10))

    def test_non_numeric_fatal_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            list(load_csv(path, window_size=10))

    def test_non_finite_rows_skipped_with_warning(self, tmp_path, caplog):
        path = self._write(tmp_path, "1,2\nnan,4\n5,inf\n7,8\n")
        with caplog.at_level(logging.WARNING):
            batches = list(load_csv(path, window_size=10))
        assert len(batches) == 1 and len(batches[0]) == 2
        assert np.allclose(batches[0].data, [[1, 2], [7, 8]])
        assert any("skipped 2 rows" in r.message for r in caplog.records)

    def test_rows_past_the_value_bound_skipped(self, tmp_path, caplog):
        top = MAX_ABS_VALUE
        past = float(np.nextafter(top, np.inf))
        path = self._write(tmp_path, f"{top!r},2\n{past!r},4\n5,{-10 * top!r}\n7,{-top!r}\n")
        with caplog.at_level(logging.WARNING):
            (batch,) = load_csv(path, window_size=10)
        assert np.array_equal(batch.data, [[top, 2], [7, -top]])
        assert any("skipped 2 rows" in r.message for r in caplog.records)

    def test_fractional_label_fatal_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "1,2,2\n3,4,2.5\n5,6,3\n")
        with pytest.raises(ValueError, match="line 2: label 2.5"):
            list(load_csv(path, window_size=10, label_col=2))

    def test_fraction_below_float_resolution_fatal(self, tmp_path):
        # both labels read as whole floats (2.0 and 8.0); their text does not
        path = self._write(tmp_path, "1,2,2.0000000000000001\n3,4,7.9999999999999999\n")
        with pytest.raises(ValueError, match="line 1: label 2.0000000000000001 is not a class id"):
            list(load_csv(path, window_size=10, label_col=2))
        with pytest.raises(ValueError, match="line 1: label 2.0000000000000001 is not a class id"):
            list(load_csv_reference(path, window_size=10, label_col=2))

    def test_whole_float_labels_accepted(self, tmp_path, caplog):
        path = self._write(tmp_path, "1,2,2.0\n3,4,-1e0\n5,6,nan\n7,8,inf\n")
        with caplog.at_level(logging.WARNING):
            (batch,) = load_csv(path, window_size=10, label_col=2)
        assert batch.labels.tolist() == [2, -1]
        assert any("skipped 2 rows" in r.message for r in caplog.records)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_rows_skipped(self, tmp_path, label):
        path = self._write(tmp_path, f"1,2,0\n3,4,{label}\n5,6,1\n")
        (batch,) = load_csv(path, window_size=10, label_col=2)
        assert batch.labels.ndim == 1 and batch.labels.tolist() == [0, 1]
        assert np.array_equal(batch.data, [[1, 2], [5, 6]])

    def test_blank_lines_ignored(self, tmp_path):
        path = self._write(tmp_path, "1,2\n\n3,4\n\n")
        (batch,) = load_csv(path, window_size=10)
        assert len(batch) == 2

    def test_label_column_out_of_range(self, tmp_path):
        path = self._write(tmp_path, "1,2\n")
        with pytest.raises(ValueError, match="out of range"):
            list(load_csv(path, window_size=10, label_col=5))

    def test_label_as_only_column_fatal_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "\n0\n1\n")
        with pytest.raises(ValueError, match="line 2: window has no feature columns"):
            list(load_csv(path, window_size=10, label_col=0))

    def test_empty_file_fatal(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="no usable rows"):
            list(load_csv(path, window_size=10))

    def test_bad_window_size(self, tmp_path):
        path = self._write(tmp_path, "1,2\n")
        with pytest.raises(ValueError):
            list(load_csv(path, window_size=0))


class TestLoadCsvBlocks:
    """Window-at-a-time parsing: laziness, which bad line raises, and the
    class-id bound."""

    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_bad_line_after_a_full_window_raises_on_the_next_window(self, tmp_path):
        path = self._write(tmp_path, "1,2\n\n3,4\n5,oops\n7,8\n")
        it = load_csv(path, window_size=2)
        first = next(it)
        assert np.array_equal(first.data, [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="line 4: could not convert"):
            next(it)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,0\n3,4\n5,6,2.5\n", "line 2: expected 3 fields, got 2"),
            ("1,2,0\n3,4,2.5\n5,6\n", "line 2: label 2.5 is not a class id"),
            ("1,2,0\n3,x,1\n5,6,2.5\n", "line 2: could not convert string to float: 'x'"),
            ("1,2,0.5\n3,x,1\n5,6\n", "line 1: label 0.5 is not a class id"),
            ("1,2,0\n3,4,nan\n5,6,1,9\n7,x,1\n", "line 3: expected 3 fields, got 4"),
        ],
    )
    def test_first_bad_line_in_a_block_raises(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            list(load_csv(path, window_size=10, label_col=2))
        assert str(info.value) == message

    def test_suspended_generator_holds_no_lines_or_block(self, tmp_path):
        """Between windows the generator's frame holds the window's own
        arrays, not a list of lines or a parsed block."""
        path = self._write(tmp_path, "".join(f"{i},{i}.5,{i % 3}\n\n" for i in range(12)))
        with mock.patch.object(stream_io, "BLOCK_LINES", 2):
            it = load_csv(path, window_size=5, label_col=2)
            batch = next(it)
        held = list(it.gi_frame.f_locals.values())
        assert not [v for v in held if isinstance(v, (list, tuple))]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert arrays and all(a is batch.data or a is batch.labels for a in arrays)
        it.close()

    @pytest.mark.parametrize("size", [2.5, True, np.float64(3.0)])
    def test_non_integer_window_size_rejected(self, tmp_path, size):
        path = self._write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(ValueError) as want:
            StreamConfig(window_size=size)
        with pytest.raises(ValueError) as got:
            next(load_csv(path, size))
        assert str(got.value) == str(want.value)

    def test_labels_past_two_to_the_53_rejected(self, tmp_path):
        path = self._write(tmp_path, "0,0,9007199254740991\n1,1,9007199254740993\n")
        with pytest.raises(ValueError, match="line 2: label 9007199254740993 is not within"):
            list(load_csv(path, window_size=10, label_col=2))

    def test_labels_past_the_int64_range_rejected(self, tmp_path):
        path = self._write(tmp_path, "0,0,1\n\n1,1,1e20\n")
        with pytest.raises(ValueError, match="line 3: label 1e20 is not within"):
            list(load_csv(path, window_size=10, label_col=2))

    @pytest.mark.parametrize("label", ["9007199254740992", "-9.007199254740992e15"])
    def test_labels_at_two_to_the_53_rejected(self, tmp_path, label):
        # 2**53 + 1 reads as 2**53, so 2**53 itself cannot be told apart
        path = self._write(tmp_path, f"0,0,1\n1,1,{label}\n")
        with pytest.raises(ValueError, match=f"line 2: label {label} is not within"):
            list(load_csv(path, window_size=10, label_col=2))

    def test_labels_just_below_two_to_the_53_kept(self, tmp_path):
        path = self._write(tmp_path, "0,0,9007199254740991\n1,1,-9007199254740991\n")
        (batch,) = load_csv(path, window_size=10, label_col=2)
        assert batch.labels.dtype == np.int64
        assert batch.labels.tolist() == [2**53 - 1, -(2**53 - 1)]


_GOOD_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from([
        "1_0", "١٢", "２.５", " 3 ", "\t-4 ", "nan", "NaN", "inf",
        "-inf", "1e400", "-0.0", "2.5", "1e20", "9007199254740991",
        "9007199254740992", "-9007199254740993", "9.007199254740993e15",
        repr(MAX_ABS_VALUE), repr(-MAX_ABS_VALUE),
        repr(float(np.nextafter(MAX_ABS_VALUE, np.inf))),
        repr(float(np.nextafter(-MAX_ABS_VALUE, -np.inf))),
    ]),
)
_BAD_FIELDS = st.sampled_from(["oops", "", "1__0", "0x10"])


@st.composite
def _csv_cases(draw):
    """(text, window size, label column) of a small CSV with every kind of
    line the loader treats apart."""
    width = draw(st.integers(1, 4))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        label_col = None
    elif kind == 1:
        label_col = draw(st.sampled_from([width, -width - 1]))
    else:
        label_col = draw(st.integers(-width, width - 1))
    field = st.integers(0, 49).flatmap(lambda k: _BAD_FIELDS if k == 0 else _GOOD_FIELDS)
    # a label is mostly a small class id, so a bad one often precedes other faults
    label = st.integers(0, 5).flatmap(lambda k: field if k == 0 else st.integers(-3, 3).map(str))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        count = max(1, width + draw(st.sampled_from([-1, 1]))) if kind == 1 else width
        row = draw(st.lists(field, min_size=count, max_size=count))
        if label_col is not None and -count <= label_col < count:
            row[label_col] = draw(label)
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    window_size = draw(st.integers(1, len(lines) + 1))
    return text, window_size, label_col


# one faulty line of each kind, for a 3-field file labeled in column 2
_FAULTS = ["1,2", "1,2,3,4", "1,x,0", "1,2,0.5", "1,2,1e20", "nan,2,0", "1,2,inf", ""]


def _drain(loader, logger, path, window_size, label_col):
    """Every window a loader yields, the error that ended it if any, and its
    log messages."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger.addHandler(handler)
    windows, error = [], None
    try:
        for w in loader(path, window_size, label_col=label_col):
            labels = None if w.labels is None else (w.labels.tolist(), w.labels.dtype.str)
            windows.append(
                (w.data.tobytes(), w.data.shape, w.data.dtype.str, labels,
                 w.window_id, w.start_index)
            )
    except ValueError as exc:
        error = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return windows, error, messages


class TestLoadCsvOracle:
    @pytest.mark.parametrize("label", [
        "2.0000000000000001", "7.9999999999999999", "1e-400", "-1.05e1", "100e-3",
        "1.00000000000000001e16", "2.0", "-0.0", "1.5e1", "100e-2", "0e-5", "1_0.0_0",
        "١٢.٠", "٣", "5.", ".5e1", "9007199254740991.0", "9007199254740992.5",
    ])
    @pytest.mark.parametrize("block_lines", [1, stream_io.BLOCK_LINES])
    def test_label_texts_read_as_the_reference_reads_them(self, tmp_path, label, block_lines):
        # the label sits in the second of three rows, after a whole one
        path = tmp_path / "data.csv"
        path.write_text(f"1,2,3\n3,4,{label}\n5,6,1\n", encoding="utf-8")
        with mock.patch.object(stream_io, "BLOCK_LINES", block_lines):
            got = _drain(load_csv, logging.getLogger("mostream.stream_io"), str(path), 2, 2)
        want = _drain(load_csv_reference, reference_logger, str(path), 2, 2)
        assert got == want

    @given(_csv_cases(), st.sampled_from([1, 2, 3, stream_io.BLOCK_LINES]))
    def test_matches_the_row_by_row_reference(self, case, block_lines):
        # small blocks put block edges, and bad lines, inside every window
        text, window_size, label_col = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with mock.patch.object(stream_io, "BLOCK_LINES", block_lines):
                got = _drain(load_csv, logging.getLogger("mostream.stream_io"),
                             path, window_size, label_col)
            want = _drain(load_csv_reference, reference_logger, path, window_size, label_col)
        assert got == want

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(_FAULTS)),
                         min_size=1, max_size=4),
                st.integers(1, n + 1),
            )
        ),
        st.sampled_from([2, 3, stream_io.BLOCK_LINES]),
    )
    @settings(max_examples=200)
    def test_faults_raise_as_row_by_row(self, case, block_lines):
        # valid rows with a few faulty lines dropped in: which one raises, and
        # after how many windows, must match the reference
        n, faults, window_size = case
        lines = [f"{i},{i + 0.5},{i % 3}" for i in range(n)]
        for index, fault in faults:
            lines[index] = fault
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with mock.patch.object(stream_io, "BLOCK_LINES", block_lines):
                got = _drain(load_csv, logging.getLogger("mostream.stream_io"),
                             path, window_size, 2)
            want = _drain(load_csv_reference, reference_logger, path, window_size, 2)
        assert got == want


class TestBlobCenters:
    def test_single_center_at_origin(self):
        assert np.array_equal(blob_centers(1, 5.0), np.zeros((1, 2)))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_pairwise_separation(self, k):
        centers = blob_centers(k, 10.0)
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 10.0 - 1e-9
        # adjacent centers sit exactly sep apart on the circle
        assert d.min() == pytest.approx(10.0)

    @pytest.mark.parametrize("dim", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_pairwise_at_least_sep_in_every_dim(self, k, dim):
        centers = blob_centers(k, 10.0, dim)
        assert centers.shape == (k, dim)
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 10.0 - 1e-9
        if k >= 2:
            assert d.min() == pytest.approx(10.0)

    def test_high_dim_padding(self):
        centers = blob_centers(3, 4.0, dim=5)
        assert centers.shape == (3, 5)
        assert np.allclose(centers[:, 2:], 0.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            blob_centers(0, 1.0)
        with pytest.raises(ValueError):
            blob_centers(3, 0.0)

    @pytest.mark.parametrize("k, sep, dim", [
        (20, 1e308, 2), (4, 1e101, 2), (2, math.nextafter(2e100, math.inf), 2), (3, 6e99, 1),
    ])
    def test_rejects_a_sep_whose_centers_leave_the_value_range(self, k, sep, dim):
        with pytest.raises(ValueError, match=r"^sep .* beyond \+/-1e\+100"):
            blob_centers(k, sep, dim)

    @pytest.mark.parametrize("k, sep, dim", [(2, 2e100, 2), (3, 5e99, 1)])
    def test_centers_at_the_value_bound_accepted(self, k, sep, dim):
        centers = blob_centers(k, sep, dim)
        assert np.abs(centers).max() == MAX_ABS_VALUE


class TestGenBlobs:
    def test_window_layout(self):
        batches = gen_blobs(k=4, per_blob=100, sep=10.0, stddev=0.5, window_size=150)
        assert [len(b) for b in batches] == [150, 150, 100]
        assert [b.window_id for b in batches] == [0, 1, 2]
        assert [b.start_index for b in batches] == [0, 150, 300]

    def test_labels_match_generating_blob(self):
        batches = gen_blobs(k=3, per_blob=60, sep=30.0, stddev=0.1, window_size=60)
        centers = blob_centers(3, 30.0)
        for b in batches:
            d = np.linalg.norm(b.data[:, None] - centers[None, :], axis=2)
            assert np.array_equal(np.argmin(d, axis=1), b.labels)

    def test_seed_determinism(self):
        a = gen_blobs(k=2, per_blob=50, sep=8.0, stddev=0.5, window_size=40, seed=9)
        b = gen_blobs(k=2, per_blob=50, sep=8.0, stddev=0.5, window_size=40, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)
            assert np.array_equal(x.labels, y.labels)

    def test_drift_displaces_by_window(self):
        still = gen_blobs(k=2, per_blob=50, sep=8.0, stddev=0.5, window_size=25, seed=4)
        moving = gen_blobs(
            k=2, per_blob=50, sep=8.0, stddev=0.5, window_size=25, seed=4,
            drift=(1.5, -0.5),
        )
        for w, (a, b) in enumerate(zip(still, moving)):
            assert np.allclose(b.data - a.data, w * np.array([1.5, -0.5]))

    def test_blob_mix_is_interleaved(self):
        batches = gen_blobs(k=2, per_blob=100, sep=8.0, stddev=0.5, window_size=50)
        # a seeded shuffle should land both labels in the first window
        assert set(batches[0].labels.tolist()) == {0, 1}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_blobs(k=2, per_blob=0, sep=8.0, stddev=0.5, window_size=10)
        with pytest.raises(ValueError):
            gen_blobs(k=2, per_blob=5, sep=8.0, stddev=-1.0, window_size=10)
        with pytest.raises(ValueError, match="drift"):
            gen_blobs(k=2, per_blob=5, sep=8.0, stddev=0.5, window_size=10,
                      drift=(1.0, 2.0, 3.0))

    def test_rejects_an_overflowing_sep_by_name_before_drawing(self):
        # the polygon radius sep / (2 sin(pi/20)) overflows to inf
        args = dict(k=20, per_blob=5, sep=1e308, stddev=1.0, window_size=10)
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^sep "):
                    gen_blobs(**args)

    @pytest.mark.parametrize("name, value", [
        ("sep", math.nan), ("sep", math.inf), ("stddev", math.nan), ("stddev", math.inf),
        ("drift", (math.nan, 0.0)), ("drift", (0.0, -math.inf)),
        ("k", 2.5), ("k", True), ("per_blob", 2.5), ("dim", 2.5), ("window_size", 2.5),
    ])
    def test_rejects_non_finite_and_non_integer_args_before_drawing(self, name, value):
        args = dict(k=2, per_blob=5, sep=8.0, stddev=0.5, window_size=10)
        args[name] = value
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match=name):
                gen_blobs(**args)


class TestMinMaxWrap:
    def test_first_window_sets_the_box(self):
        batches = gen_blobs(k=2, per_blob=40, sep=8.0, stddev=0.5, window_size=40)
        wrapped = list(minmax_wrap(iter(batches)))
        first = wrapped[0]
        assert first.data.min(axis=0) == pytest.approx([0.0, 0.0])
        assert first.data.max(axis=0) == pytest.approx([1.0, 1.0])

    def test_same_affine_map_for_later_windows(self):
        batches = gen_blobs(k=2, per_blob=60, sep=8.0, stddev=0.5, window_size=30)
        wrapped = list(minmax_wrap(iter(batches)))
        lo = batches[0].data.min(axis=0)
        hi = batches[0].data.max(axis=0)
        for raw, w in zip(batches[1:], wrapped[1:]):
            assert np.allclose(w.data, (raw.data - lo) / (hi - lo))
            assert np.array_equal(w.labels, raw.labels)
            assert w.start_index == raw.start_index

    def test_constant_feature_does_not_divide_by_zero(self):
        from mostream.core import WindowBatch

        batch = WindowBatch(np.array([[1.0, 5.0], [2.0, 5.0]]), 0)
        (w,) = minmax_wrap(iter([batch]))
        assert np.allclose(w.data[:, 1], 0.0)
        assert math.isfinite(w.data.sum())


class TestReportEmission:
    def _reports(self):
        return [
            WindowReport(0, 5, 0.8, -1.5, None, None, 12.5, 40, None),
            WindowReport(1, 6, 0.7, -2.0, 0.93, 0.88, 13.0, 42, None),
        ]

    def test_line_is_sorted_json(self):
        line = report_line(self._reports()[0])
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
        assert parsed["window_id"] == 0
        assert parsed["nmi"] is None

    def test_round_trip(self):
        for r in self._reports():
            assert json.loads(report_line(r)) == r.to_dict()

    def test_numpy_integer_window_id_reports_as_an_int(self, four_blob_window):
        window = dataclasses.replace(four_blob_window, window_id=np.int64(3))
        state = initialize(window, StreamConfig(idle_generations_cap=0))
        assert json.loads(report_line(state.reports[-1]))["window_id"] == 3


class TestSnapshots:
    def test_layout_and_parseability(self, tmp_path, four_blob_window):
        state = initialize(four_blob_window, StreamConfig())
        tree_path, archive_path = emit_snapshot(state, str(tmp_path))
        assert os.path.basename(tree_path) == "tree_00000.csv"
        assert os.path.basename(archive_path) == "archive_00000.csv"
        tree_rows = [
            line.split(",") for line in open(tree_path).read().splitlines()
        ]
        assert len(tree_rows) == state.tree.node_count()  # support omitted
        dim = state.last_window.dim
        assert all(len(r) == 3 + dim for r in tree_rows)  # id, parent, weight
        assert all(int(r[0]) != 0 for r in tree_rows)
        archive_rows = [
            [float(v) for v in line.split(",")]
            for line in open(archive_path).read().splitlines()
        ]
        assert len(archive_rows) == len(state.archive)
        for row, sol in zip(archive_rows, state.archive):
            assert len(row) == 2 + sol.k * dim

    def test_assignments_file(self, tmp_path, four_blob_window):
        from mostream.engine import finalize

        state = initialize(four_blob_window, StreamConfig())
        final = finalize(state)
        path = str(tmp_path / "assignments.csv")
        emit_assignments(final, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "index,cluster"
        assert len(lines) == 1 + len(four_blob_window)
        idx, cl = lines[1].split(",")
        assert int(idx) == int(final.indices[0])
        assert int(cl) == int(final.assignments[0])


class TestBlobSpec:
    def test_defaults(self):
        spec = parse_blob_spec("")
        assert spec == {
            "k": 4, "per_blob": 1000, "sep": 10.0, "stddev": 0.5, "drift": None,
        }

    def test_full_spec(self):
        spec = parse_blob_spec("k=3,per=200,sep=6.5,std=0.25,drift=0.1:-0.2")
        assert spec == {
            "k": 3, "per_blob": 200, "sep": 6.5, "stddev": 0.25,
            "drift": [0.1, -0.2],
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown blob spec key"):
            parse_blob_spec("k=3,blobs=9")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="bad blob spec item"):
            parse_blob_spec("k4")


class TestManifest:
    """The parsed flags are the run's whole manifest."""

    def _reports(self, tmp_path, argv):
        args = build_parser().parse_args(
            ["--blobs", "k=2,per=50", "--window", "50", "--out", str(tmp_path)] + argv
        )
        run(args)
        return config_from_args(args), _parse_reports(str(tmp_path / "reports.jsonl"))

    def test_idle_gens_selects_deterministic_mode(self, tmp_path):
        cfg, reports = self._reports(tmp_path, ["--idle-gens", "3"])
        assert cfg.idle_generations_cap == 3
        assert [r["elapsed_ms"] for r in reports] == [None, None]

    def test_wall_clock_default(self, tmp_path):
        cfg, reports = self._reports(tmp_path, ["--interval-ms", "0"])
        assert cfg.idle_generations_cap is None
        assert all(r["elapsed_ms"] is not None for r in reports)

    # engine flag -> (StreamConfig field, a non-default value)
    ENGINE_FLAGS = {
        "--window": ("window_size", "64"),
        "--gamma": ("gamma", "0.8"),
        "--mu": ("mu", "0.4"),
        "--sigma": ("sigma", "6"),
        "--prune": ("prune_threshold", "0.2"),
        "--interval-ms": ("interval_ms", "250"),
        "--idle-gens": ("idle_generations_cap", "2"),
        "--seed": ("rng_seed", "11"),
    }
    RUN_FLAGS = {"-h", "--help", "--input", "--blobs", "--label-col", "--out",
                 "--snapshots", "--minmax"}

    def test_cfg_fields_forwarded(self):
        """Every StreamConfig field has exactly one flag and every flag that
        is not about input or output sets one field."""
        parser = build_parser()
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert flags - self.RUN_FLAGS == set(self.ENGINE_FLAGS)
        fields = sorted(field for field, _ in self.ENGINE_FLAGS.values())
        assert fields == sorted(f.name for f in dataclasses.fields(StreamConfig))
        argv = ["--blobs", "k=2,per=50"]
        for flag, (_, value) in self.ENGINE_FLAGS.items():
            argv += [flag, value]
        cfg = config_from_args(parser.parse_args(argv))
        default = StreamConfig()
        for flag, (field, value) in self.ENGINE_FLAGS.items():
            want = type(getattr(default, field))(value)
            assert want != getattr(default, field), flag
            assert getattr(cfg, field) == want, flag
        # the run mode is a config value: the drivers take no mode argument
        assert list(inspect.signature(run_stream).parameters) == [
            "batches", "cfg", "on_window_end"]
        assert list(inspect.signature(initialize).parameters) == ["first_window", "cfg"]

    def test_defaults_come_from_stream_config(self):
        args = build_parser().parse_args(["--blobs", "k=2,per=50"])
        assert config_from_args(args) == StreamConfig(idle_generations_cap=None)

    def test_input_and_blobs_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--input", "x.csv", "--blobs", "k=2"])


class TestCliMain:
    def test_blob_run_writes_artifacts(self, tmp_path, capsys):
        rc = main(
            ["--blobs", "k=2,per=100,sep=10,std=0.5", "--window", "50",
             "--idle-gens", "1", "--seed", "0", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "windows=4" in out
        reports = _parse_reports(str(tmp_path / "reports.jsonl"))
        assert [r["window_id"] for r in reports] == [0, 1, 2, 3]
        lines = (tmp_path / "assignments.csv").read_text().splitlines()
        assert lines[0] == "index,cluster"
        assert len(lines) == 51

    def test_csv_run(self, tmp_path, capsys):
        batches = gen_blobs(k=2, per_blob=60, sep=10.0, stddev=0.4, window_size=60)
        csv_path = tmp_path / "stream.csv"
        with open(csv_path, "w") as fh:
            for b in batches:
                for row, lab in zip(b.data, b.labels):
                    fh.write(f"{float(row[0])!r},{float(row[1])!r},{int(lab)}\n")
        rc = main(
            ["--input", str(csv_path), "--label-col", "2", "--window", "40",
             "--idle-gens", "1", "--out", str(tmp_path / "run")]
        )
        assert rc == 0
        assert "nmi=" in capsys.readouterr().out

    def test_csv_input_runs_like_the_stream_in_memory(self, tmp_path, capsys):
        spec = {"k": 3, "per_blob": 70, "sep": 4.0, "stddev": 1.0}
        batches = gen_blobs(window_size=50, seed=4, **spec)
        csv_path = tmp_path / "stream.csv"
        with open(csv_path, "w") as fh:
            for b in batches:
                for row, lab in zip(b.data, b.labels):
                    fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")
        common = ["--window", "50", "--seed", "4", "--idle-gens", "2"]
        assert main(["--input", str(csv_path), "--label-col", "2", *common,
                     "--out", str(tmp_path / "csv")]) == 0
        assert main(["--blobs", "k=3,per=70,sep=4,std=1", *common,
                     "--out", str(tmp_path / "memory")]) == 0
        capsys.readouterr()
        for name in ("reports.jsonl", "assignments.csv"):
            got = (tmp_path / "csv" / name).read_bytes()
            assert got and got == (tmp_path / "memory" / name).read_bytes()

    def test_snapshots_flag(self, tmp_path):
        rc = main(
            ["--blobs", "k=2,per=50,sep=10,std=0.5", "--window", "50",
             "--idle-gens", "1", "--out", str(tmp_path), "--snapshots"]
        )
        assert rc == 0
        assert (tmp_path / "tree_00000.csv").exists()
        assert (tmp_path / "archive_00001.csv").exists()

    def test_missing_input_is_error_exit(self, tmp_path, capsys):
        rc = main(
            ["--input", str(tmp_path / "absent.csv"), "--window", "10",
             "--idle-gens", "1", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_failing_window_keeps_the_committed_reports(self, tmp_path, capsys):
        # 500 rows of 2 fields, but line 351 has 3: windows 0-2 commit before
        # the fourth window's read fails
        rows = [f"{float(i % 7)!r},{float(i % 5)!r}" for i in range(500)]
        rows[350] += ",1.0"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        good = tmp_path / "good.csv"
        good.write_text("\n".join(rows[:300]) + "\n")
        flags = ["--window", "100", "--idle-gens", "1"]
        rc = main(["--input", str(bad), "--out", str(tmp_path / "bad")] + flags)
        assert rc == 2
        assert "line 351: expected 2 fields, got 3" in capsys.readouterr().err
        assert main(["--input", str(good), "--out", str(tmp_path / "good")] + flags) == 0
        got = (tmp_path / "bad" / "reports.jsonl").read_text().splitlines()
        want = (tmp_path / "good" / "reports.jsonl").read_text().splitlines()
        assert len(got) == 3
        assert got == want[:3]
        assert not (tmp_path / "bad" / "assignments.csv").exists()

    def test_label_column_needs_csv_input(self, tmp_path, capsys):
        rc = main(["--blobs", "k=2,per=50", "--label-col", "7", "--idle-gens", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error: --label-col needs --input" in capsys.readouterr().err
        assert not (tmp_path / "reports.jsonl").exists()

    def test_bad_config_is_error_exit(self, tmp_path, capsys):
        rc = main(
            ["--blobs", "k=2,per=50", "--gamma", "1.5",
             "--idle-gens", "1", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_blob_spec_is_error_exit(self, tmp_path, capsys):
        rc = main(["--blobs", "k=4,per=10,sep=nan", "--idle-gens", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: sep must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "reports.jsonl").exists()

    def test_blob_spec_past_the_value_range_is_error_exit(self, tmp_path, capsys):
        rc = main(["--blobs", "k=4,per=10,sep=1e101", "--idle-gens", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: sep 1e+101 puts the 4 centers beyond +/-1e+100" in capsys.readouterr().err
        assert not (tmp_path / "reports.jsonl").exists()

    def test_nan_prune_threshold_is_error_exit(self, tmp_path, capsys):
        rc = main(
            ["--blobs", "k=2,per=50", "--prune", "nan",
             "--idle-gens", "1", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error: prune_threshold" in capsys.readouterr().err
        assert not (tmp_path / "reports.jsonl").exists()


class TestRunDeterminism:
    def test_identical_manifest_identical_reports(self, tmp_path):
        def once(out):
            args = build_parser().parse_args(
                ["--blobs", "k=3,per=80,sep=10,std=0.5", "--window", "60",
                 "--idle-gens", "2", "--seed", "5", "--out", out]
            )
            assert run(args)["windows"] == 4
            return open(os.path.join(out, "reports.jsonl"), "rb").read()

        a = once(str(tmp_path / "a"))
        b = once(str(tmp_path / "b"))
        assert a == b

    def test_fresh_processes_write_identical_reports(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

        def once(out):
            proc = subprocess.run(
                [sys.executable, "-m", "mostream.cli", "--blobs", "k=3,per=60",
                 "--window", "60", "--idle-gens", "1", "--seed", "1", "--out", out],
                cwd=root, env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            return open(os.path.join(out, "reports.jsonl"), "rb").read()

        a = once(str(tmp_path / "a"))
        assert a and a == once(str(tmp_path / "b"))
