import gc
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gla import io_formats, prior_estimation
from gla.cli import main
from gla.errors import ConfigError, InvalidInput, ParseError
from gla.evaluation import EvalReport, rule_errors
from gla.float_text import Workspace, format_fields, parse_fields
from gla.io_formats import (
    CSV_READ_BLOCK_BYTES,
    CSV_WRITE_BLOCK_FIELDS,
    PriorDocument,
    atomic_write_text,
    load_logits,
    load_prior,
    load_run_config,
    parse_run_config,
    save_logits,
    save_prior,
    save_report,
)
from gla.numerics import LOGIT_BLOCK_FIELDS, LabelledLogits, LogitTable, ProbabilitySimplex


@pytest.fixture(autouse=True)
def fixed_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def write(path, text):
    path.write_text(text)
    return str(path)


NOT_UTF8 = {
    "logits": b"label,c0,c1\n0,1.0,2.0\n1,0.5,\xff\n",
    "prior": b'{"k": 2, "probs": [0.5, 0.5], "source_split": "\xff"}\n',
    "config": b'{"task": {"k": 2, "seed": 1}}\xff\n',
}


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


class TestLogitFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = LogitTable(rng.normal(scale=100.0, size=(20, 3)))
        labels = rng.integers(0, 3, 20)
        path = tmp_path / "t.csv"
        save_logits(str(path), table, labels)
        loaded = load_logits(str(path))
        assert isinstance(loaded, LabelledLogits)
        assert np.array_equal(loaded.logits.scores, table.scores)
        assert np.array_equal(loaded.labels, labels)

    def test_well_formed_small_file(self, tmp_path):
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,1.5,2.5\n1,0.5,0.25\n0,3,4\n")
        loaded = load_logits(p)
        assert isinstance(loaded, LabelledLogits)
        assert loaded.n_examples == 3

    def test_unlabelled_rows_drop_labels(self, tmp_path):
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,1,2\n,3,4\n")
        with pytest.warns(UserWarning):
            loaded = load_logits(p)
        assert isinstance(loaded, LogitTable)

    def test_partial_label_warning_names_the_caller(self, tmp_path):
        # the warning points at the line that loaded the file, not into gla
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,1,2\n,3,4\n")
        with pytest.warns(UserWarning, match="some rows are unlabelled") as record:
            load_logits(p)
        assert [w.filename for w in record] == [__file__]

    def test_fully_unlabelled_no_warning(self, tmp_path):
        p = write(tmp_path / "t.csv", "label,c0,c1\n,1,2\n,3,4\n")
        loaded = load_logits(p)
        assert isinstance(loaded, LogitTable)

    def test_label_out_of_range(self, tmp_path):
        p = write(tmp_path / "t.csv", "label,c0,c1\n7,1,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_logits(p)

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,1,2\n0,1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_logits(p)

    def test_scientific_notation(self, tmp_path):
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,1e3,2\n")
        loaded = load_logits(p)
        assert loaded.logits.scores[0, 0] == 1000.0

    def test_save_rejects_bad_labels(self, tmp_path):
        table = LogitTable(np.zeros((2, 3)))
        path = tmp_path / "t.csv"
        for labels in ([1.5, 0.2], [-1, 0], [0, 7]):
            with pytest.raises(InvalidInput):
                save_logits(str(path), table, labels)
            assert not path.exists()

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "t.csv", "c0,c1,c2\n0,1,2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_logits(p)

    def test_golden_bytes(self, tmp_path):
        table = LogitTable(np.array([[-0.0, 5e-324, 1e300], [0.1, 1.0, -2.5]]))
        path = tmp_path / "t.csv"
        save_logits(str(path), table, [2, 0])
        assert path.read_bytes() == (
            b"label,c0,c1,c2\n"
            b"2,-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
            b"0,0.10000000000000001,1,-2.5\n"
        )
        save_logits(str(path), table)
        assert path.read_bytes() == (
            b"label,c0,c1,c2\n"
            b",-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
            b",0.10000000000000001,1,-2.5\n"
        )
        loaded = load_logits(str(path))
        assert np.array_equal(loaded.scores, table.scores)
        assert np.signbit(loaded.scores[0, 0])

    @pytest.mark.parametrize(
        "body, line, what",
        [
            ("0,1,2\n1.5,3,4\n", 3, "bad label '1.5'"),
            ("0,1,2\n1,3,4\n0,x,2\n", 4, "bad numeric field"),
            ("0,1\n0,1,2\n", 2, "expected 3 fields, got 2"),
            ("", 2, "no data rows"),
            ("0,1,2\n1,3,4\n0,2,nan\n1,nan,0\n", 4, "non-finite score"),
            ("0,1,2\n1,3,4\n0,2,inf\n1,inf,0\n", 4, "non-finite score"),
            ("0,1,2\n1,3,4\n0,-inf,2\n1,-inf,0\n", 4, "non-finite score"),
        ],
    )
    def test_error_line_numbers(self, tmp_path, body, line, what):
        p = write(tmp_path / "t.csv", "label,c0,c1\n" + body)
        with pytest.raises(ParseError, match=f"^line {line}: {what}") as info:
            load_logits(p)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "row, what",
        [('0,"1",2', "bad numeric field"), ("0,1_0,2", "bad numeric field"), ("#0,1,2", "bad label '#0'")],
    )
    def test_no_quoting_comments_or_underscores(self, tmp_path, row, what):
        p = write(tmp_path / "t.csv", f"label,c0,c1\n{row}\n")
        with pytest.raises(ParseError, match=f"^line 2: {what}"):
            load_logits(p)

    def test_error_without_row_is_parse_error(self, tmp_path, monkeypatch):
        """The line of a number loadtxt rejects is the last line it pulled,
        whatever its message says."""
        def no_row(lines, *args, **kwargs):
            for _ in zip(range(2), lines):  # pulls two lines at most
                pass
            raise ValueError("could not convert string 'x' to float64")

        monkeypatch.setattr(np, "loadtxt", no_row)
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,1,2\n0,x,2\n0,3,4\n")
        with pytest.raises(ParseError, match="^line 3: bad numeric field$") as info:
            load_logits(p)
        assert info.value.line == 3


def row_by_row_csv(scores, labels):
    """The logit CSV text written one row and one float at a time."""
    lines = ["label," + ",".join(f"c{i}" for i in range(scores.shape[1]))]
    for i, row in enumerate(scores):
        lab = "" if labels is None else str(int(labels[i]))
        lines.append(lab + "," + ",".join("%.17g" % x for x in row))
    return ("\n".join(lines) + "\n").encode()


def _targeted_floats():
    """±0, the subnormals' ends, the largest float, powers of ten and their
    neighbours 1 ulp either side, and exact 18-digit ties."""
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    values = np.concatenate([
        [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, np.finfo(np.float64).max,
         1e15 + 0.25, 1e15 + 0.75, 1e16 + 2, 2.0**53 + 2, 0.5, 0.125],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
    ])
    return np.concatenate([values, -values])


TARGETED = _targeted_floats()


def kernel_text(values):
    """format_fields' text of `values`, one per line."""
    fields = np.empty((values.size, 4), np.uint64)
    format_fields(values, fields, Workspace())
    fields[:, 3] |= np.uint64(ord("\n") << 56)
    return fields.tobytes().translate(None, b"\0")


def parse_texts(texts):
    """parse_fields' values and taken flags of `texts`, in blocks, each
    field followed by a comma, with the bytes it reads around them."""
    values, taken = [], []
    for i in range(0, len(texts), 2**16):
        chunk = [t.encode() for t in texts[i : i + 2**16]]
        lengths = np.array([len(t) for t in chunk])
        ends = 24 + np.cumsum(lengths + 1) - 1
        data = np.frombuffer(b"\0" * 24 + b",".join(chunk) + b"," + b"\0" * 8, np.uint8)
        v, t, _ = parse_fields(data, ends - lengths, ends, Workspace())
        values.append(v)
        taken.append(t)
    return np.concatenate(values), np.concatenate(taken)


def near_tie(text):
    """Whether the decimal `text` lies within 2**-19 of a gap from the
    midpoint between float(text) and its neighbour on the decimal's side."""
    exact, nearest = Fraction(text), float(text)
    if exact == nearest:
        return False
    neighbour = float(np.nextafter(nearest, math.inf if exact > nearest else -math.inf))
    gap = abs(Fraction(neighbour) - Fraction(nearest))
    return abs(exact - (Fraction(nearest) + Fraction(neighbour)) / 2) <= gap / 2**19


def deep_csv(tmp_path, lineno, line, n=100_000):
    """A 100k-row K=2 logit CSV whose line `lineno` is replaced by `line`."""
    rows = [b"0,1,2\n"] * n
    rows[lineno - 2] = line
    return write_bytes(tmp_path / "deep.csv", b"label,c0,c1\n" + b"".join(rows))


def check_round_trip(path, scores, labels):
    """save_logits writes %.17g row by row, and load_logits reads back the
    same bits, signs of zero included, and labels."""
    save_logits(str(path), LogitTable(scores), labels)
    assert path.read_bytes() == row_by_row_csv(scores, labels), len(scores)
    loaded = load_logits(str(path))
    table = loaded if labels is None else loaded.logits
    assert np.array_equal(table.scores.view(np.uint64), scores.view(np.uint64)), len(scores)
    if labels is not None:
        assert np.array_equal(loaded.labels, labels)


def longest_fixed(rng, shape):
    """Random floats whose %.17g is the longest in fixed notation: "-0.000"
    and 17 digits."""
    values = -(1e-4 + 9e-4 * rng.random(shape))
    short = np.array([len("%.17g" % x) < 23 for x in values.ravel().tolist()]).reshape(shape)
    values[short] = -0.00012345678901234567
    return values


def count_odd_fields(monkeypatch):
    """A list that gets the number of fields of each call to the reader's
    fallback for the fields its kernel leaves, io_formats._odd_fields."""
    counts = []
    odd_fields = io_formats._odd_fields

    def counted(data, starts, ends):
        counts.append(len(starts))
        return odd_fields(data, starts, ends)

    monkeypatch.setattr(io_formats, "_odd_fields", counted)
    return counts


def reader_edges(scores, labels, blocks=2):
    """The row counts whose text, with the header, ends just before and
    just past each of the first `blocks` multiples of the reader's block."""
    lines = row_by_row_csv(scores, labels).split(b"\n")[:-1]
    ends = np.cumsum([len(line) + 1 for line in lines])
    rows = {int(np.searchsorted(ends, b * CSV_READ_BLOCK_BYTES, side="right")) - 1 for b in range(1, blocks + 1)}
    return sorted(n + d for n in rows for d in (-1, 0, 1) if 1 <= n + d < len(lines))


# The line of deep_csv's file that crosses the end of the reader's first block.
EDGE_LINE = (CSV_READ_BLOCK_BYTES - len(b"label,c0,c1\n")) // len(b"0,1,2\n") + 2
# Odd lines and what the line-at-a-time reader (numpy.loadtxt for the
# scores, int() for the labels) made of them, recorded from it: the value
# of the last score field, the label, or the text of the ParseError.
PARITY = [
    (b"0,1, 1.5", 1.5),
    (b"0,1,1.5 ", 1.5),
    (b"0,1,+1.5", 1.5),
    (b"0,1,1e-5", 1e-05),
    (b"0,1,1E5", 100000.0),
    (b"0,1,.5", 0.5),
    (b"0,1,5.", 5.0),
    (b"0,1,-0", -0.0),
    (b"0,1,\t1.5", 1.5),
    ("0,1,\xa01.5".encode(), 1.5),
    (b"0,1,123456789012345678901234567890", 1.2345678901234568e29),
    (b"0,1,1_0", "bad numeric field"),
    (b"0,1,0x10", "bad numeric field"),
    (b"0,1,", "bad numeric field"),
    (b"0,1,nan", "non-finite score"),
    (b"0,1,inf", "non-finite score"),
    (b"+1,1,2", 1),
    (b" 1,1,2", 1),
    (b"0_1,1,2", 1),
    (b"01,1,2", 1),
    ("\u0661,1,2".encode(), 1),
    (b"1.0,1,2", "bad label '1.0'"),
    (b"9007199254740993,1,2", "label 9007199254740992 out of range [0, 2)"),
]


class TestLogitStreaming:
    @pytest.mark.parametrize("k", [2, 10, 1000])
    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    def test_bytes_at_block_edges(self, tmp_path, k, labelled):
        # N at the edges of the writer's blocks, of the LOGIT_BLOCK_FIELDS
        # blocks of the other row-wise kernels, and of the reader's blocks
        steps = [max(1, fields // (k + 1)) for fields in (LOGIT_BLOCK_FIELDS, CSV_WRITE_BLOCK_FIELDS)]
        rng = np.random.default_rng(k)
        path = tmp_path / "t.csv"
        for n in sorted({n for step in steps for n in (step - 1, step, step + 1, 2 * step + 1) if n >= 1}):
            scores = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-300, 300, size=(n, k))
            scores[0, 0], scores[-1, -1] = -0.0, 5e-324
            check_round_trip(path, scores, rng.integers(0, k, n) if labelled else None)
        # fixed-notation scores, which the reader's kernel parses itself
        n = 3 * CSV_READ_BLOCK_BYTES // (20 * (k + 1))
        scores = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-4, 17, size=(n, k))
        labels = rng.integers(0, k, n) if labelled else None
        for n in reader_edges(scores, labels):
            check_round_trip(path, scores[:n], None if labels is None else labels[:n])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        k=st.sampled_from([2, 10, 1000]),
        labelled=st.booleans(),
        data=st.data(),
    )
    def test_bytes_of_any_floats(self, tmp_path, k, labelled, data):
        # random bit patterns over the whole exponent range, mixed with the
        # targeted values; the rare non-finite pattern becomes a targeted one
        n = data.draw(st.integers(1, 3 if k == 1000 else 40), label="n")
        bits = data.draw(arrays(np.uint64, (n, k), elements=st.one_of(
            st.integers(0, 2**64 - 1), st.sampled_from(TARGETED.view(np.uint64).tolist()))), label="bits")
        scores = bits.view(np.float64)
        scores[~np.isfinite(scores)] = TARGETED[: (~np.isfinite(scores)).sum()]
        labels = data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1)), label="labels") if labelled else None
        check_round_trip(tmp_path / "t.csv", scores, labels)

    def test_kernel_matches_percent_format(self):
        # 1.2M values: random bit patterns, magnitudes spread evenly in log
        # space across the fixed-notation range and past both ends, integers,
        # exact 18-digit ties, and the targeted values; no floating-point
        # warning or error may occur
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64)
        values = np.concatenate([
            bits[np.isfinite(bits)],
            rng.choice([-1.0, 1.0], 400_000) * 10.0 ** rng.uniform(-6, 19, 400_000),
            rng.integers(-10**6, 10**6, 200_000).astype(np.float64),
            1e15 + rng.integers(0, 10**14, 200_000) + rng.choice([0.25, 0.5, 0.75], 200_000),
            TARGETED,
        ])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            text = kernel_text(values)
        assert text == "".join("%.17g\n" % x for x in values.tolist()).encode()

    @pytest.mark.parametrize("offset", [-0.99, 0.99])
    def test_kernel_needs_log10_within_one(self, monkeypatch, offset):
        # the exponent is settled by two compares with a table of powers of
        # ten, so a log10 off by less than one either way (another libm's)
        # gives the same bytes
        rng = np.random.default_rng(21)
        values = np.concatenate([TARGETED, rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-6, 19, 20_000)])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a, out: np.add(log10(a, out=out), offset, out=out))
        assert kernel_text(values) == "".join("%.17g\n" % x for x in values.tolist()).encode()

    def test_kernel_counts_trailing_zeros(self):
        # values whose 17 digits end in 0 to 16 zeros: the first 1 to 16
        # digits of a zero-free integer, each an exact float, scaled by
        # powers of two and ten, either sign; and 0.0 and -0.0
        ints = np.array([float("1234567891234567"[:n]) for n in range(1, 17)])
        scaled = np.concatenate([ints * 2.0**j for j in range(-6, 7)] + [ints * 10.0**j for j in range(-20, 5)])
        values = np.concatenate([scaled, -scaled, [0.0, -0.0]])
        assert kernel_text(values) == "".join("%.17g\n" % x for x in values.tolist()).encode()
        digits = [("%.16e" % x).split("e")[0].lstrip("-").replace(".", "") for x in values.tolist()]
        assert {len(d) - len(d.rstrip("0")) for d in digits} == set(range(18))

    def test_parse_fields_matches_float(self):
        # 1.2M fields: random decimals of 1 to 19 significant digits at every
        # fraction length 0 to 22, either sign; exact binary midpoints; zeros;
        # and %.17g of the targeted values.  A taken field has float()'s bits,
        # and a field of the kernel's syntax is left only past 9.22e18 or
        # within 2**-20 of half a gap from a tie; no floating-point warning or
        # error may occur
        rng = random.Random(22)
        texts = []
        for digits in range(1, 20):
            for fraction in range(23):
                for _ in range(2750):
                    d = str(rng.randrange(10 ** (digits - 1), 10**digits))
                    if fraction >= digits:
                        d = "0." + "0" * (fraction - digits) + d
                    elif fraction:
                        d = d[:-fraction] + "." + d[-fraction:]
                    texts.append(rng.choice(["", "-"]) + d)
        midpoints = ["9007199254740993", "9007199254740995", "4503599627370496.5"]
        ties = slice(len(texts), len(texts) + 6)
        texts += midpoints + ["-" + m for m in midpoints]
        # zeros and %.17g in fixed notation: never near a tie
        exact = slice(len(texts), None)
        texts += ["0", "-0", "0.0", "-0.000", "000", "-00.00"]
        texts += ["%.17g" % x for x in TARGETED.tolist() if "e" not in "%.17g" % x]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values, taken = parse_texts(texts)
        expected = np.array([float(t) for t in texts])
        assert np.array_equal(values[taken].view(np.uint64), expected[taken].view(np.uint64))
        assert not taken[ties].any()
        assert taken[exact].all()
        for i in np.flatnonzero(~taken).tolist():
            text = texts[i]
            if len(text) <= 24 and int(text.lstrip("-").replace(".", "")) < 922 * 10**16:
                assert near_tie(text), text

    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_stale_workspace_writer_blocks(self, tmp_path, monkeypatch, k):
        # the kernels reuse one workspace a save or load: rows of the longest
        # fixed-notation fields (sign, "0.000" and 17 digits) alternate with
        # rows of the shortest ("0", "1"), in a phase that flips each writer
        # block, so each block's fields meet the other kind's leftovers; the
        # last block is partial
        step = max(1, CSV_WRITE_BLOCK_FIELDS // (k + 1))
        n = 2 * step + step // 2 + 1
        rng = np.random.default_rng(k + 1)
        scores = longest_fixed(rng, (n, k))
        rows = np.arange(n)
        short = (rows + rows // step) % 2 == 1
        scores[short] = rng.integers(0, 2, (short.sum(), k))
        odd = count_odd_fields(monkeypatch)
        check_round_trip(tmp_path / "t.csv", scores, rng.integers(0, k, n))
        assert odd == [], "the reader's kernel left fixed-notation fields"

    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_stale_workspace_reader_blocks(self, tmp_path, monkeypatch, k):
        # reader blocks alternate long lines (the longest fixed-notation
        # fields, every third row with a field in exponent form, which goes
        # to _odd_fields) with short ones ("0", "1")
        rng = np.random.default_rng(k + 2)
        groups = []
        for g in range(5):
            if g % 2:
                m = CSV_READ_BLOCK_BYTES // (2 * k + 2)
                groups.append(rng.integers(0, 2, (m, k)).astype(np.float64))
            else:
                m = CSV_READ_BLOCK_BYTES // (24 * k + 2)
                part = longest_fixed(rng, (m, k))
                part[::3, rng.integers(0, k)] *= 1e-3  # "%.17g" writes "-1.2...e-07"
                groups.append(part)
        scores = np.concatenate(groups)[: -len(groups[-1]) // 2]
        exponent_form = sum("e" in "%.17g" % x for x in scores.ravel().tolist())
        assert exponent_form
        odd = count_odd_fields(monkeypatch)
        line_reads = []
        line_rows = io_formats._line_rows
        monkeypatch.setattr(io_formats, "_line_rows", lambda path: line_reads.append(path) or line_rows(path))
        check_round_trip(tmp_path / "t.csv", scores, rng.integers(0, k, len(scores)))
        assert sum(odd) == exponent_form
        assert line_reads == [], "the blocks declined a file gla wrote"

    def test_exponent_plus_stays_on_blocks(self, tmp_path, monkeypatch):
        # save_logits writes "e+20" for 1e20: the "+" stays in its field,
        # which _odd_fields reads, so the blocks keep the file, and every
        # value is the line reader's
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(5000, 10))
        scores[3000, 3] = 1e20
        labels = rng.integers(0, 10, 5000)
        path = str(tmp_path / "t.csv")
        save_logits(path, LogitTable(scores), labels)
        assert Path(path).read_bytes().count(b"+") == 1
        expected, expected_labels = io_formats._line_rows(path)
        line_reads = []
        line_rows = io_formats._line_rows
        monkeypatch.setattr(io_formats, "_line_rows", lambda path: line_reads.append(path) or line_rows(path))
        loaded = load_logits(path)
        assert line_reads == [], "the blocks declined an e+ exponent"
        assert loaded.logits.scores.tobytes() == expected.tobytes() == scores.tobytes()
        assert np.array_equal(loaded.labels, expected_labels)

    def test_fresh_process_page_faults(self, tmp_path):
        # one workspace per save or load: a first 100k x 10 load in a
        # process faults in about the table's pages (2.2k), not each
        # block's arrays again
        pytest.importorskip("resource")
        path = str(tmp_path / "t.csv")
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from gla.io_formats import load_logits, save_logits\n"
            "from gla.numerics import LogitTable\n"
            "rng = np.random.default_rng(0)\n"
            "table = LogitTable(rng.normal(size=(100_000, 10)) * 5 - 20)\n"
            "labels = rng.integers(0, 10, 100_000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "save_logits(sys.argv[1], table, labels) if sys.argv[2] == 'save' else load_logits(sys.argv[1])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before, after)\n"
        )
        gla_root = str(Path(save_logits.__code__.co_filename).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [gla_root, os.environ.get("PYTHONPATH")])))
        faults = {}
        for mode in ("save", "load"):
            run = subprocess.run([sys.executable, "-c", script, path, mode], capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            faults[mode], total = map(int, run.stdout.split())
            if not total:
                pytest.skip("ru_minflt is not counted here")
        assert faults["save"] < 2000, faults
        assert faults["load"] < 6000, faults

    def test_memory_is_table_plus_one_block(self, tmp_path):
        # a whole-file text copy of this 16 MB table is about 38 MB
        n, k = 20_000, 100
        table = LogitTable(np.random.default_rng(0).normal(size=(n, k)))
        path = str(tmp_path / "t.csv")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_logits(path, table, np.arange(n) % k)
            save_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_logits(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak < 8e6
        assert load_peak < 3 * table.scores.nbytes
        assert np.array_equal(loaded.logits.scores, table.scores)

    @pytest.mark.parametrize("declined", [False, True], ids=["blocks", "declined"])
    def test_load_holds_one_table(self, tmp_path, declined):
        # the labels are split off each line, so loadtxt returns the N x K
        # table itself; a "+" on the last label sends the whole file to it,
        # once the blocks' table is freed
        n, k = 20_000, 100
        table = LogitTable(np.random.default_rng(1).normal(size=(n, k)))
        path = str(tmp_path / "t.csv")
        save_logits(path, table, np.arange(n) % k)
        if declined:
            text = Path(path).read_bytes()
            last = text.rindex(b"\n", 0, -1) + 1
            Path(path).write_bytes(text[:last] + b"+" + text[last:])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_logits(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert load_peak <= 1.3 * table.scores.nbytes
        assert np.array_equal(loaded.logits.scores, table.scores)
        assert np.array_equal(loaded.labels, np.arange(n) % k)

    def test_not_utf8_on_last_line(self, tmp_path):
        path = deep_csv(tmp_path, 100_001, b"1,0.5,\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{path} is not UTF-8 text")):
            load_logits(path)

    @pytest.mark.parametrize("lineno, line, what", [
        (90_001, b"\n", "expected 3 fields, got 1"),
        (99_999, b"0,1\n", "expected 3 fields, got 2"),
        (95_000, b"1.5,3,4\n", "bad label '1.5'"),
        (100_001, b"0,1,x\n", "bad numeric field"),
    ], ids=["blank", "ragged", "label", "numeric"])
    def test_deep_errors_name_their_line(self, tmp_path, lineno, line, what):
        path = deep_csv(tmp_path, lineno, line)
        with pytest.raises(ParseError, match=f"^line {lineno}: {what}$"):
            load_logits(path)

    @pytest.mark.parametrize("first, second", [
        (2, 3), (3, 2), (50_000, 50_001), (50_001, 50_000), (4, 99_999), (99_999, 4),
    ])
    @pytest.mark.parametrize("label_first", [True, False], ids=["label-first", "numeric-first"])
    def test_first_fault_in_file_order_wins(self, tmp_path, first, second, label_first):
        """A bad label and a bad numeric field on lines `first` and `second`:
        loadtxt must pull rows one at a time, so whichever comes first is named."""
        rows = [b"0,1,2\n"] * 100_000
        faults = [b"z,1,2\n", b"0,1,x\n"] if label_first else [b"0,1,x\n", b"z,1,2\n"]
        rows[first - 2], rows[second - 2] = faults
        path = write_bytes(tmp_path / "mixed.csv", b"label,c0,c1\n" + b"".join(rows))
        lineno, fault = min((first, faults[0]), (second, faults[1]))
        what = "bad label 'z'" if fault.startswith(b"z") else "bad numeric field"
        with pytest.raises(ParseError, match=f"^line {lineno}: {what}$"):
            load_logits(path)

    @pytest.mark.parametrize("lineno", [2, EDGE_LINE, 100_001], ids=["first", "block-edge", "last"])
    @pytest.mark.parametrize("line, expected", PARITY, ids=[repr(line) for line, _ in PARITY])
    def test_parse_parity(self, tmp_path, lineno, line, expected):
        """Each odd field, on line 2, on the line across the reader's first
        block end and on the last line of a 100k-row file, reads as the
        line-at-a-time reader read it (PARITY), and every other row as
        written."""
        path = deep_csv(tmp_path, lineno, line + b"\n")
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=f"^line {lineno}: {re.escape(expected)}$"):
                load_logits(path)
            return
        loaded = load_logits(path)
        scores, labels = loaded.logits.scores, loaded.labels
        got = labels[lineno - 2] if isinstance(expected, int) else scores[lineno - 2, 1]
        assert got == expected and np.signbit(got) == np.signbit(expected)
        assert (np.delete(scores, lineno - 2, axis=0) == [1, 2]).all()
        assert not np.delete(labels, lineno - 2).any()

    @pytest.mark.parametrize("lineno", [2, EDGE_LINE, 100_001], ids=["first", "block-edge", "last"])
    def test_parse_parity_of_line_ends(self, tmp_path, lineno):
        # a bare carriage return ends a line, as in text mode; one inside a
        # line splits it there
        loaded = load_logits(deep_csv(tmp_path, lineno, b"0,1,2\r"))
        assert (loaded.logits.scores == [1, 2]).all() and len(loaded.labels) == 100_000
        with pytest.raises(ParseError, match=f"^line {lineno}: expected 3 fields, got 2$"):
            load_logits(deep_csv(tmp_path, lineno, b"0,1\r,2\n"))

    def test_parse_parity_of_files(self, tmp_path):
        crlf = write_bytes(tmp_path / "crlf.csv", b"label,c0,c1\r\n" + b"0,1,2\r\n" * 100_000)
        loaded = load_logits(crlf)
        assert (loaded.logits.scores == [1, 2]).all() and not loaded.labels.any()
        unended = deep_csv(tmp_path, 100_001, b"1,3,4.5")
        loaded = load_logits(unended)
        assert loaded.logits.scores[-1].tolist() == [3, 4.5] and loaded.labels[-1] == 1
        assert loaded.logits.scores.shape == (100_000, 2)
        late = deep_csv(tmp_path, 99_995, b"1,0.5,\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{late} is not UTF-8 text (invalid start byte)")):
            load_logits(late)

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_failed_stream_leaves_target(self, tmp_path, exc):
        target = tmp_path / "t.csv"
        target.write_text("old\n")

        def blocks():
            yield "label,c0,c1\n"
            yield "0,1,2\n" * 10_000
            raise exc

        with pytest.raises(type(exc)):
            atomic_write_text(str(target), blocks())
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestPriorFiles:
    def test_round_trip(self, tmp_path):
        doc = PriorDocument(
            prior=ProbabilitySimplex([1 / 3, 1 / 3 + 1e-17, 1 / 3]),
            estimator="m2",
            source_split="val",
            seed=5,
        )
        path = str(tmp_path / "p.json")
        save_prior(path, doc)
        loaded = load_prior(path)
        assert np.abs(loaded.prior.probs - doc.prior.probs).max() <= 1e-12
        assert loaded.estimator == "m2"
        assert loaded.seed == 5

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        path = str(tmp_path / "p.json")
        for _ in range(200):
            prior = ProbabilitySimplex.from_weights(rng.dirichlet(np.ones(int(rng.integers(2, 12)))))
            save_prior(path, PriorDocument(prior=prior))
            assert np.array_equal(load_prior(path).prior.probs, prior.probs)

    def test_renormalizes_within_tolerance(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            json.dumps({"k": 2, "probs": [0.5000004, 0.5]}),
        )
        loaded = load_prior(path)
        assert loaded.prior.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self, tmp_path):
        path = write(tmp_path / "p.json", json.dumps({"k": 2, "probs": [0.6, 0.5]}))
        with pytest.raises(ParseError):
            load_prior(path)

    def test_rejects_non_integer_k_and_seed(self, tmp_path):
        for fields in ({"k": 2.9}, {"k": "2"}, {"k": 2, "seed": 1.5}, {"k": 2, "seed": True}):
            path = write(tmp_path / "p.json", json.dumps({"probs": [0.5, 0.5], **fields}))
            with pytest.raises(ParseError):
                load_prior(path)

    def test_probs_must_be_a_list_of_numbers(self, tmp_path):
        for probs in ("01", [True, False], [1, False], {"a": 1}, [None, 1.0], ["x", "1"]):
            path = write(tmp_path / "p.json", json.dumps({"k": 2, "probs": probs}))
            with pytest.raises(ParseError):
                load_prior(path)
        # numeric strings are what save_prior writes
        for probs in (["0.25", "0.75"], [0.25, "0.75"], [0, 1]):
            path = write(tmp_path / "p.json", json.dumps({"k": 2, "probs": probs}))
            assert load_prior(path).prior.probs.tolist() == [float(x) for x in probs]

    # entries whose sum overflows are refused before it, with no RuntimeWarning
    @pytest.mark.parametrize("probs", [
        '[NaN, 1.0]', '[Infinity, 1.0]', '[0.5, -Infinity]', '["nan", "1"]', '[1e308, 1e308]', '["1e308", "1e308"]',
    ])
    def test_rejects_non_finite_probs(self, tmp_path, probs):
        path = write(tmp_path / "p.json", f'{{"k": 2, "probs": {probs}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="probs is not a finite probability simplex"):
                load_prior(path)

    def test_rejects_unknown_key(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            json.dumps({"k": 2, "probs": [0.5, 0.5], "extra": 1}),
        )
        with pytest.raises(ParseError, match="extra"):
            load_prior(path)

    @pytest.mark.parametrize("fields, message", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"source_split": 3}, "source_split must be a str, got int"),
        ({"created_at": None}, "created_at must be a str, got NoneType"),
        ({"estimator": "x"}, "unknown estimator 'x'"),
        ({"estimator": ["m1"]}, "estimator must be a str, got list"),
    ], ids=["seed-float", "seed-bool", "split-int", "created-none", "estimator-unknown", "estimator-list"])
    def test_document_checks_its_fields(self, fields, message):
        """What save_prior would write and load_prior reject is never built."""
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            PriorDocument(**{"prior": ProbabilitySimplex([0.5, 0.5]), **fields})

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        estimator=st.sampled_from(["given", "m1", "m2", "naive"]),
        split=st.text(),
        seed=st.one_of(st.none(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64)),
        created_at=st.text(),
    )
    def test_every_document_round_trips(self, tmp_path, estimator, split, seed, created_at):
        """Each document PriorDocument accepts, an np.int64 seed included, loads back equal."""
        path = str(tmp_path / "p.json")
        doc = PriorDocument(ProbabilitySimplex([0.125, 0.375, 0.5]), estimator, split, seed, created_at)
        assert doc.seed is None or type(doc.seed) is int
        save_prior(path, doc)
        loaded = load_prior(path)
        assert np.array_equal(loaded.prior.probs, doc.prior.probs)
        assert (loaded.estimator, loaded.source_split, loaded.seed) == (estimator, split, doc.seed)
        assert loaded.created_at == (created_at or "2023-11-14T22:13:20Z")


@pytest.mark.parametrize("kind, load, error", [
    ("logits", load_logits, ParseError),
    ("prior", load_prior, ParseError),
    ("config", load_run_config, ConfigError),
])
def test_not_utf8_is_named_error(tmp_path, kind, load, error):
    path = write_bytes(tmp_path / kind, NOT_UTF8[kind])
    with pytest.raises(error, match=re.escape(f"{path} is not UTF-8 text")):
        load(path)


MALFORMED_PROBS = {
    "string": '"ab"',
    "non-number": '["x", 1]',
    "object": '{"a": 1}',
    "bools": "[true, false]",
    "nested": "[[0.5, 0.5]]",
}


@pytest.mark.parametrize("kind, body, key", [
    *[pytest.param("config", f'{{"task": {{"k": 2, "pretrain_prior": {value}}}}}', "task.pretrain_prior",
                   id=f"config-{name}") for name, value in MALFORMED_PROBS.items()],
    *[pytest.param("prior", f'{{"k": 2, "probs": {value}}}', "probs", id=f"prior-{name}")
      for name, value in MALFORMED_PROBS.items()],
    *[pytest.param("prior", f'{{"k": 2, "probs": [0.5, 0.5], "{key}": {value}}}', key, id=f"prior-{key}-{value}")
      for key in ("source_split", "created_at") for value in ("5", "null", '{"a": 1}')],
    # not a finite real number: a bool, null, a string, an infinity, NaN, an int past float range
    *[pytest.param("config", f'{{"task": {{"k": 2, "mean_separation": {value}}}}}', "task.mean_separation",
                   id=f"config-mean_separation-{value[:10]}")
      for value in ("true", "null", '"x"', "Infinity", "-Infinity", "NaN", "1" + "0" * 400)],
    # past the decoder's limits: an integer over 4300 digits, nesting past the recursion limit
    *[pytest.param(kind, body, "invalid JSON", id=f"{kind}-{name}") for kind in ("config", "prior")
      for name, body in (("long-int", "[1" + "0" * 5000 + "]"), ("deep", "[" * 100_000 + "]" * 100_000))],
])
def test_malformed_document_is_named_error(tmp_path, capsys, kind, body, key):
    """Run configs fail with exit code 2 and prior files with exit code 1,
    naming the key and writing nothing."""
    doc = write(tmp_path / "doc.json", body)
    out = str(tmp_path / "out.csv")
    if kind == "config":
        runs = [["simulate", "--config", doc, "--out-zs", out, "--out-ft", str(tmp_path / "ft.csv"), "--n", "4"],
                ["study", "--config", doc, "--estimator", "m2", "--out", out]]
        code = 2
    else:
        logits = make_fixture_csv(tmp_path, "l.csv", [[1.0, 2.0]], [0])
        ps = str(tmp_path / "ps.json")
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex([0.5, 0.5])))
        runs = [["ensemble", "--ft", logits, "--zs", logits, "--prior-p", doc, "--prior-s", ps, "--out", out]]
        code = 1
    inputs = sorted(tmp_path.iterdir())
    for argv in runs:
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
    assert sorted(tmp_path.iterdir()) == inputs


class TestRunConfig:
    def test_defaults(self):
        cfg = parse_run_config({})
        assert cfg.task is None
        assert cfg.study.shots == [25, 100, 400, 1600]
        assert cfg.study.trials == 5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="tolernace"):
            parse_run_config({"tolernace": 1e-4})
        # the log floor is no longer a config key
        with pytest.raises(ConfigError, match="'floor'"):
            parse_run_config({"floor": 1e-8})
        # method 1 has no settable values, so no config section
        for section in ({"steps": 5}, {"tol": 1e-8}):
            with pytest.raises(ConfigError, match="'method1'"):
                parse_run_config({"method1": section})
        # nor does method 2
        for section in ({}, {"tol": 1e-4}, {"max_iters": 500}):
            with pytest.raises(ConfigError, match="'power_iter'"):
                parse_run_config({"power_iter": section})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="study.tolerance"):
            parse_run_config({"study": {"tolerance": 1e-4}})
        # the study's delta and the lab's noise scale are constants
        with pytest.raises(ConfigError, match="'study.delta'"):
            parse_run_config({"study": {"delta": 0.05}})
        with pytest.raises(ConfigError, match="'task.noise_sigma'"):
            parse_run_config({"task": {"k": 2, "noise_sigma": 1.0}})

    def test_task_section(self):
        cfg = parse_run_config(
            {"task": {"k": 3, "dim": 3, "pretrain_prior": [0.5, 0.3, 0.2]}}
        )
        assert cfg.task.k == 3
        # mean_separation is a float, so an integer is fine too
        for sep in (2, 2.5):
            assert parse_run_config({"task": {"mean_separation": sep}}).task.mean_separation == sep
        assert np.allclose(cfg.task.pretrain_prior.probs, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"task": {"k": 2.0}}, "task.k"),
            ({"task": {"k": 2, "dim": 2.5}}, "task.dim"),
            ({"task": {"k": 2, "seed": True}}, "task.seed"),
            ({"task": {"k": 2, "seed": "1"}}, "task.seed"),
            ({"study": {"trials": 1.5}}, "study.trials"),
            ({"study": {"base_seed": None}}, "study.base_seed"),
            ({"study": {"shots": [10.7, 20]}}, r"study.shots\[0\]"),
            ({"study": {"shots": [10, False]}}, r"study.shots\[1\]"),
            ({"study": {"shots": 10}}, "study.shots"),
        ],
    )
    def test_integer_keys_type_checked(self, payload, key):
        with pytest.raises(ConfigError, match=key):
            parse_run_config(payload)

    def test_bad_json(self, tmp_path):
        path = write(tmp_path / "c.json", "{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)


def make_fixture_csv(tmp_path, name, rows, labels):
    table = LogitTable(np.asarray(rows, dtype=np.float64))
    path = str(tmp_path / name)
    save_logits(path, table, labels)
    return path


class TestCliEstimate:
    def test_naive_mean(self, tmp_path, capsys):
        # rows softmax to [0.9, 0.1] and [0.5, 0.5]
        rows = np.log([[0.9, 0.1], [0.5, 0.5]])
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0, 1])
        out = str(tmp_path / "prior.json")
        code = main(["estimate", "--logits", logits, "--method", "naive", "--out", out])
        assert code == 0
        doc = load_prior(out)
        assert np.allclose(doc.prior.probs, [0.7, 0.3])
        assert doc.estimator == "naive"

    def test_m2_one_hot_gives_uniform(self, tmp_path, capsys):
        eps = 1e-12
        rows = np.log([[1 - eps, eps], [eps, 1 - eps]])
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0, 1])
        out = str(tmp_path / "prior.json")
        code = main(["estimate", "--logits", logits, "--method", "m2", "--out", out])
        assert code == 0
        assert "residual" in capsys.readouterr().out
        assert np.allclose(load_prior(out).prior.probs, 0.5)

    @pytest.mark.parametrize("value", ["abc", "99999999999999999"])
    def test_bad_source_date_epoch_exit_2(self, tmp_path, monkeypatch, capsys, value):
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        out = str(tmp_path / "prior.json")
        assert main(["estimate", "--logits", logits, "--method", "m2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "SOURCE_DATE_EPOCH" in err and repr(value) in err
        # commands that write no prior do not read the variable
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--report", report]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "r.json"]

    def test_m1_requires_labels(self, tmp_path, capsys):
        path = write(tmp_path / "l.csv", "label,c0,c1\n,1,2\n")
        out = str(tmp_path / "prior.json")
        code = main(["estimate", "--logits", path, "--method", "m1", "--out", out])
        assert code == 1
        assert "labels required for method m1" in capsys.readouterr().err

    def test_missing_class_message(self, tmp_path, capsys):
        logits = make_fixture_csv(tmp_path, "l.csv", np.zeros((2, 3)), [0, 1])
        code = main(
            ["estimate", "--logits", logits, "--method", "m2", "--out", str(tmp_path / "p.json")]
        )
        assert code == 1
        assert "class 2" in capsys.readouterr().err

    def test_m2_reducible_exit_1(self, tmp_path, capsys):
        # classes {0, 1} and {2, 3} never predict each other: P is block-diagonal
        rows = np.full((4, 4), -1000.0)
        rows[:2, :2] = [[0.0, -1.0], [-2.0, 0.0]]
        rows[2:, 2:] = [[0.0, -3.0], [-1.0, 0.0]]
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0, 1, 2, 3])
        out = str(tmp_path / "p.json")
        code = main(["estimate", "--logits", logits, "--method", "m2", "--out", out])
        assert code == 1
        assert "no unique stationary vector" in capsys.readouterr().err

    def test_usage_error_exit_2(self, tmp_path):
        assert main(["estimate", "--method", "bogus"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", "0"], "argument --n: n must be >= 1, got 0"),
        (["simulate", "--n", "-3"], "argument --n: n must be >= 1, got -3"),
        (["simulate", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["simulate", "--seed", "-1"], "argument --seed: seed must be >= 0, got -1"),
        (["simulate", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["ensemble", "--alpha", "nan"], "argument --alpha: alpha must be a finite real number, got nan"),
        (["ensemble", "--alpha", "inf"], "argument --alpha: alpha must be a finite real number, got inf"),
        (["ensemble", "--alpha", "1.5"], "argument --alpha: alpha must lie in [0, 1], got 1.5"),
        (["ensemble", "--alpha", "-0.5"], "argument --alpha: alpha must lie in [0, 1], got -0.5"),
        (["ensemble", "--alpha", "x"], "argument --alpha: invalid float value: 'x'"),
        (["study", "--estimator", "m2", "m2"], "--estimator names an estimator twice: m2 m2"),
        (["study", "--estimator", "m1", "naive", "m1"], "--estimator names an estimator twice: m1 naive m1"),
    ], ids=["n-zero", "n-negative", "n-not-int", "seed-negative", "seed-not-int", "alpha-nan", "alpha-inf",
            "alpha-above-1", "alpha-below-0", "alpha-not-float", "estimator-twice", "estimator-twice-apart"])
    def test_out_of_range_flag_values_exit_2(self, tmp_path, capsys, argv, message):
        """A flag value outside its argument rule is a usage error, like a
        value that is not a number, and nothing is read or written."""
        cfg = write(tmp_path / "cfg.json", json.dumps({"task": {"k": 2}, "study": {"shots": [10], "trials": 1}}))
        logits = make_fixture_csv(tmp_path, "l.csv", np.zeros((2, 2)), [0, 1])
        prior = str(tmp_path / "p.json")
        save_prior(prior, PriorDocument(prior=ProbabilitySimplex([0.5, 0.5])))
        rest = {
            "simulate": ["--config", cfg, "--out-zs", str(tmp_path / "zs.csv"), "--out-ft", str(tmp_path / "ft.csv")],
            "ensemble": ["--ft", logits, "--zs", logits, "--prior-p", prior, "--prior-s", prior,
                         "--out", str(tmp_path / "c.csv")],
            "study": ["--config", cfg, "--out", str(tmp_path / "s.csv")],
        }[argv[0]]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv[:1] + rest + argv[1:]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_not_utf8_logits_exit_1(self, tmp_path, capsys):
        logits = write_bytes(tmp_path / "l.csv", NOT_UTF8["logits"])
        out = str(tmp_path / "p.json")
        assert main(["estimate", "--logits", logits, "--method", "m2", "--out", out]) == 1
        assert f"{logits} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_floor_flag_removed_exit_2(self, tmp_path):
        logits = make_fixture_csv(tmp_path, "l.csv", np.zeros((2, 2)), [0, 1])
        out = str(tmp_path / "p.json")
        argv = ["estimate", "--logits", logits, "--method", "m1", "--out", out]
        assert main(argv + ["--floor", "1e-6"]) == 2

    def test_config_flag_removed_exit_2(self, tmp_path):
        logits = make_fixture_csv(tmp_path, "l.csv", np.zeros((2, 2)), [0, 1])
        out = str(tmp_path / "p.json")
        argv = ["estimate", "--logits", logits, "--method", "m2", "--out", out]
        assert main(argv + ["--config", "x"]) == 2

    def test_old_config_keys_exit_2(self, tmp_path, capsys):
        # estimate takes no config, so the keys go through the study's config
        out = str(tmp_path / "s.csv")
        for payload, key in (
            ({"method1": {"steps": 5}}, "method1"),
            ({"floor": 1e-6}, "floor"),
            ({"power_iter": {"tol": 1e-4}}, "power_iter"),
            ({"task": {"k": 2}, "study": {"delta": 0.1}}, "study.delta"),
            ({"task": {"k": 2, "noise_sigma": 2.0}}, "task.noise_sigma"),
        ):
            cfg = write(tmp_path / "cfg.json", json.dumps(payload))
            argv = ["study", "--config", cfg, "--estimator", "m2", "--out", out]
            assert main(argv) == 2
            assert f"unknown key '{key}'" in capsys.readouterr().err


class TestCliEnsemble:
    def _priors(self, tmp_path):
        pp = str(tmp_path / "pp.json")
        ps = str(tmp_path / "ps.json")
        save_prior(pp, PriorDocument(prior=ProbabilitySimplex([0.8, 0.2])))
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex([0.5, 0.5])))
        return pp, ps

    def test_worked_example_round_trip(self, tmp_path):
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[0.5, 0.5]], [0])
        pp, ps = self._priors(tmp_path)
        out = str(tmp_path / "out.csv")
        code = main(
            ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        )
        assert code == 0
        loaded = load_logits(out)
        expected = [1.5 - math.log(0.5) - math.log(0.8), 2.5 - math.log(0.5) - math.log(0.2)]
        assert loaded.logits.scores[0] == pytest.approx(expected, abs=1e-12)

    def test_uniform_priors_sum(self, tmp_path):
        rng = np.random.default_rng(1)
        ftm = rng.normal(size=(5, 2))
        zsm = rng.normal(size=(5, 2))
        ft = make_fixture_csv(tmp_path, "ft.csv", ftm, [0, 1, 0, 1, 0])
        zs = make_fixture_csv(tmp_path, "zs.csv", zsm, [0, 1, 0, 1, 0])
        pp = str(tmp_path / "pp.json")
        ps = str(tmp_path / "ps.json")
        save_prior(pp, PriorDocument(prior=ProbabilitySimplex([0.5, 0.5])))
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex([0.5, 0.5])))
        out = str(tmp_path / "out.csv")
        assert (
            main(["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out])
            == 0
        )
        loaded = load_logits(out)
        assert np.allclose(loaded.logits.scores, ftm + zsm - 2 * math.log(0.5))

    def test_alpha_one_is_adjusted_ft(self, tmp_path):
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [1])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[3.0, 4.0]], [1])
        pp, ps = self._priors(tmp_path)
        out = str(tmp_path / "out.csv")
        code = main(
            [
                "ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps,
                "--alpha", "1", "--out", out,
            ]
        )
        assert code == 0
        loaded = load_logits(out)
        assert loaded.logits.scores[0] == pytest.approx(
            [1.0 - math.log(0.5), 2.0 - math.log(0.5)]
        )

    def test_floored_one_hot_prior(self, tmp_path):
        ft = make_fixture_csv(tmp_path, "ft.csv", [np.arange(10.0)], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [np.zeros(10)], [0])
        pp, ps = str(tmp_path / "pp.json"), str(tmp_path / "ps.json")
        save_prior(pp, PriorDocument(prior=ProbabilitySimplex(np.eye(10)[0])))
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex.uniform(10)))
        out = str(tmp_path / "out.csv")
        code = main(
            ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        )
        assert code == 0
        assert np.all(np.isfinite(load_logits(out).logits.scores))

    def test_floor_flag_removed_exit_2(self, tmp_path, capsys):
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[0.5, 0.5]], [0])
        pp, ps = self._priors(tmp_path)
        out = str(tmp_path / "out.csv")
        argv = ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        assert main(argv + ["--floor", "1e-6"]) == 2
        assert "--floor" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_alpha_with_prior_t_exit_2(self, tmp_path, capsys):
        # alpha_mix has no target-prior term, so it would ignore --prior-t
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[0.5, 0.5]], [0])
        pp, ps = self._priors(tmp_path)
        out = str(tmp_path / "out.csv")
        argv = ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        assert main(argv + ["--alpha", "0.5", "--prior-t", ps]) == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and "--prior-t" in err
        assert not (tmp_path / "out.csv").exists()

    def test_label_disagreement(self, tmp_path, capsys):
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[3.0, 4.0]], [1])
        pp, ps = self._priors(tmp_path)
        code = main(
            [
                "ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps,
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1

    def test_shape_mismatch(self, tmp_path):
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[3.0, 4.0], [1.0, 1.0]], [0, 0])
        pp, ps = self._priors(tmp_path)
        code = main(
            [
                "ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps,
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1


class TestCliEvaluate:
    def test_perfect_fixture(self, tmp_path, capsys):
        rows = [[5.0, 0.0], [0.0, 5.0]]
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0, 1])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--report", report]) == 0
        payload = json.loads(Path(report).read_text())
        assert payload["top1_accuracy"] == 1.0

    def test_nine_one_fixture(self, tmp_path):
        rows = np.tile([5.0, 0.0], (10, 1))
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0] * 9 + [1])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--balanced", "--report", report]) == 0
        payload = json.loads(Path(report).read_text())
        assert payload["top1_accuracy"] == pytest.approx(0.9)
        assert payload["balanced_accuracy"] == pytest.approx(0.5)

    def test_breakdown_groups(self, tmp_path, capsys):
        k = 6
        rng = np.random.default_rng(2)
        labels = list(range(k)) * 3
        rows = rng.normal(size=(len(labels), k))
        logits = make_fixture_csv(tmp_path, "l.csv", rows, labels)
        prior = str(tmp_path / "p.json")
        save_prior(
            prior,
            PriorDocument(prior=ProbabilitySimplex([0.3, 0.25, 0.2, 0.15, 0.07, 0.03])),
        )
        report = str(tmp_path / "r.json")
        code = main(
            ["evaluate", "--logits", logits, "--prior-p", prior, "--report", report]
        )
        assert code == 0
        assert "head" in capsys.readouterr().out
        payload = json.loads(Path(report).read_text())
        assert payload["metadata"]["groups"] == {
            "head": [0, 1],
            "medium": [2, 3],
            "tail": [4, 5],
        }

    def test_floor_flag_removed_exit_2(self, tmp_path, capsys):
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--report", report, "--floor", "1e-6"]) == 2
        assert "--floor" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_1_names_line(self, tmp_path, capsys, value):
        path = write(tmp_path / "l.csv", f"label,c0,c1\n0,5,0\n1,{value},5\n")
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", path, "--report", report]) == 1
        assert "line 3: non-finite score" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unlabelled_exit_1(self, tmp_path):
        path = write(tmp_path / "l.csv", "label,c0,c1\n,1,2\n")
        code = main(["evaluate", "--logits", path, "--report", str(tmp_path / "r.json")])
        assert code == 1

    def test_not_utf8_logits_or_prior_exit_1(self, tmp_path, capsys):
        good = make_fixture_csv(tmp_path, "good.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        bad = write_bytes(tmp_path / "bad.csv", NOT_UTF8["logits"])
        prior = write_bytes(tmp_path / "p.json", NOT_UTF8["prior"])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", bad, "--report", report]) == 1
        assert f"{bad} is not UTF-8 text" in capsys.readouterr().err
        assert main(["evaluate", "--logits", good, "--prior-p", prior, "--report", report]) == 1
        assert f"{prior} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    def test_reports_are_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        # at K=2 the head and tail groups have no classes, so no accuracy
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0], [1.0, 0.0]], [0, 1, 1])
        prior = str(tmp_path / "p.json")
        save_prior(prior, PriorDocument(prior=ProbabilitySimplex([0.7, 0.3])))
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--prior-p", prior, "--report", report]) == 0
        payload = json.loads(Path(report).read_text(), parse_constant=reject)
        assert payload["breakdown"] == {"head": None, "medium": 2 / 3, "tail": None}
        json.loads(Path(prior).read_text(), parse_constant=reject)
        bad = EvalReport(1.0, 1.0, np.ones(2), {"medium": 1.0}, 2, {"x": math.inf})
        with pytest.raises(ValueError):
            save_report(str(tmp_path / "bad.json"), bad)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "p.json", "r.json"]


class TestOutputModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_outputs_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
            prior = str(tmp_path / "p.json")
            assert main(["estimate", "--logits", logits, "--method", "m2", "--out", prior]) == 0
            report = str(tmp_path / "r.json")
            assert main(["evaluate", "--logits", logits, "--report", report]) == 0
            assert main(["evaluate", "--logits", logits, "--report", report]) == 0  # replaces
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "p.json", "r.json"]
        for path in tmp_path.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name

    @pytest.mark.parametrize("target, errno_text", [
        ("missing/p.json", "[Errno 2] No such file or directory"),
        ("dir", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "is-dir"])
    def test_failed_write_names_the_target(self, tmp_path, capsys, target, errno_text):
        # not the temporary file, whose name changes from run to run
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / target)
        errors = []
        for _ in range(2):
            assert main(["estimate", "--logits", logits, "--method", "m2", "--out", out]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {errno_text}: {out!r}\n"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "l.csv"]


class TestCliStudyAndSimulate:
    def _config(self, tmp_path, **study):
        payload = {
            "task": {"k": 2, "pretrain_prior": [0.7, 0.3], "seed": 3},
            "study": {"shots": [25, 100], "trials": 1, "base_seed": 5, **study},
        }
        return write(tmp_path / "cfg.json", json.dumps(payload))

    def test_study_writes_expected_rows(self, tmp_path):
        cfg = self._config(tmp_path)
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--estimator", "m2", "--out", out]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "estimator,n,mean_l1,std,n_ok"
        assert [line.split(",")[:2] for line in lines[1:]] == [["m2", "25"], ["m2", "100"]]
        assert all(line.endswith(",1") for line in lines[1:])

    def test_study_row_lines_count_good_trials(self, tmp_path, capsys, monkeypatch):
        cfg = self._config(tmp_path, trials=3)
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--estimator", "m1", "--out", out]) == 0
        rows = capsys.readouterr().out.splitlines()
        rows, rules = rows[:2], rows[2:]
        assert [row.split()[:2] for row in rows] == [["m1", "N=25:"], ["m1", "N=100:"]]
        assert all(row.endswith(" ok=3/3") for row in rows)
        # then the rule comparison, on seeds that no trial uses
        errors = rule_errors(load_run_config(cfg).task, 5 + 3)  # base_seed + trials
        assert rules == [f"{rule}: top1_err={err:.5f}" for rule, err in errors.items()]
        csv = Path(out).read_bytes()
        # an unconverged Method 1 fit is not a good trial; the CSV keeps its columns
        monkeypatch.setattr(prior_estimation, "M1_MAX_ITERS", 1)
        assert main(["study", "--config", cfg, "--estimator", "m1", "--out", out]) == 0
        captured = capsys.readouterr()
        assert [row.split()[-1] for row in captured.out.splitlines()[:2]] == ["ok=0/3", "ok=0/3"]
        assert captured.out.splitlines()[2:] == rules
        assert captured.err == ""
        lines = Path(out).read_text().splitlines()
        assert lines[0] == csv.decode().splitlines()[0] and lines[1:] == ["m1,25,nan,nan,0", "m1,100,nan,nan,0"]

    def test_study_deterministic(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["study", "--config", cfg, "--estimator", "m2", "--out", a])
        out_a = capsys.readouterr().out
        main(["study", "--config", cfg, "--estimator", "m2", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert capsys.readouterr().out == out_a

    def test_study_config_error_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps({"study": {"shots": [10]}}))
        assert main(["study", "--config", cfg, "--estimator", "m2", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize("study, key", [
        ({"shots": []}, "study.shots"),
        ({"shots": [0, 25]}, "study.shots"),
        ({"trials": 0}, "study.trials"),
        ({"base_seed": -1}, "study.base_seed"),
        ({"shots": [30, 30]}, "study.shots[1] repeats 30"),
    ], ids=["empty-shots", "zero-shots", "zero-trials", "negative-seed", "repeated-shots"])
    def test_study_range_error_exit_2(self, tmp_path, capsys, study, key):
        cfg = self._config(tmp_path, **study)
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--estimator", "m2", "--out", out]) == 2
        assert key in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    def test_non_integer_config_exit_2(self, tmp_path, capsys):
        zs, ft = str(tmp_path / "zs.csv"), str(tmp_path / "ft.csv")
        out = str(tmp_path / "study.csv")
        for study, task, key in (
            ({}, {"dim": 2.5}, "task.dim"),
            ({"trials": 1.5}, {}, "study.trials"),
            ({"shots": [10.7, 20]}, {}, "study.shots"),
        ):
            payload = {"task": {"k": 2, **task}, "study": {"shots": [25], "trials": 1, **study}}
            cfg = write(tmp_path / "cfg.json", json.dumps(payload))
            assert main(["simulate", "--config", cfg, "--out-zs", zs, "--out-ft", ft, "--n", "4"]) == 2
            assert key in capsys.readouterr().err
            assert main(["study", "--config", cfg, "--estimator", "m2", "--out", out]) == 2
            assert key in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    def test_not_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = write_bytes(tmp_path / "cfg.json", NOT_UTF8["config"])
        zs, ft = str(tmp_path / "zs.csv"), str(tmp_path / "ft.csv")
        assert main(["simulate", "--config", cfg, "--out-zs", zs, "--out-ft", ft, "--n", "4"]) == 2
        assert f"{cfg} is not UTF-8 text" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("ft", ["a.csv", "./a.csv", "sub/../a.csv", "abs"])
    def test_simulate_one_file_for_both_outputs_exit_2(self, tmp_path, capsys, monkeypatch, ft):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        cfg = self._config(tmp_path)
        ft = str(tmp_path / "a.csv") if ft == "abs" else ft
        assert main(["simulate", "--config", cfg, "--out-zs", "a.csv", "--out-ft", ft, "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert "--out-zs" in err and "--out-ft" in err and ft in err
        assert not any(tmp_path.glob("*.csv"))

    def test_simulate_round_trip(self, tmp_path):
        cfg = self._config(tmp_path)
        zs, ft = str(tmp_path / "zs.csv"), str(tmp_path / "ft.csv")
        code = main(
            ["simulate", "--config", cfg, "--out-zs", zs, "--out-ft", ft, "--n", "40", "--seed", "9"]
        )
        assert code == 0
        loaded = load_logits(zs)
        assert isinstance(loaded, LabelledLogits)
        assert loaded.n_examples == 40


class TestFloorPrecedence:
    def test_bad_env_value(self, tmp_path, monkeypatch, capsys):
        # the floor is fixed, so a set GLA_DEFAULT_FLOOR is an error, not ignored
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        report = str(tmp_path / "r.json")
        for value in ("zero", "1e-6", "1e-12"):
            monkeypatch.setenv("GLA_DEFAULT_FLOOR", value)
            assert main(["evaluate", "--logits", logits, "--report", report]) == 2
            assert "GLA_DEFAULT_FLOOR" in capsys.readouterr().err
        monkeypatch.delenv("GLA_DEFAULT_FLOOR")
        assert main(["evaluate", "--logits", logits, "--report", report]) == 0


# ---------------------------------------------------------------------------
# Start-up: `import gla` loads nothing, and each command loads only the
# modules it runs.  The subprocesses run the gla the suite imported.
# ---------------------------------------------------------------------------

GLA_ROOT = str(Path(save_logits.__code__.co_filename).resolve().parent.parent)
# a sitecustomize that writes, at exit, the gla modules the process loaded
# and the number of objects gc.freeze() moved out of the collector's reach
OBSERVER = """
import atexit, gc, os, sys

def _dump():
    with open(os.environ["GLA_OBSERVED"], "w") as fh:
        print(gc.get_freeze_count(), *sorted(m for m in sys.modules if m.startswith("gla")), file=fh)

atexit.register(_dump)
"""


def fresh_python(args, cwd, observe=False):
    """`python args` in a fresh process in `cwd`, with the observer when
    `observe`."""
    path = [GLA_ROOT, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, SOURCE_DATE_EPOCH="1700000000")
    if observe:
        site = Path(cwd) / "observer"
        site.mkdir(exist_ok=True)
        (site / "sitecustomize.py").write_text(OBSERVER)
        path.insert(0, str(site))
        env["GLA_OBSERVED"] = str(site / "observed.txt")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=str(cwd))


def observed(cwd):
    """The observer's record of the last observed process in `cwd`: its
    freeze count and its set of gla modules."""
    count, *modules = (Path(cwd) / "observer" / "observed.txt").read_text().split()
    return int(count), set(modules)


class TestStartup:
    def test_package_namespace(self, tmp_path):
        probe = (
            "import sys\n"
            "import gla\n"
            "print(*sorted(m for m in sys.modules if m.startswith('gla.')), sep=',')\n"
            "print(gla.errors is sys.modules['gla.errors'], gla.numerics is sys.modules['gla.numerics'])\n"
            "from gla import LogitTable\n"
            "print(LogitTable is gla.numerics.LogitTable)\n"
            "print(*sorted(m for m in sys.modules if m.startswith('gla.')), sep=',')\n"
        )
        run = fresh_python(["-c", probe], tmp_path)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n") == ["", "True True", "True", "gla.errors,gla.numerics", ""]

        import gla

        assert {"errors", "numerics", "prior_estimation", "ensemble", "evaluation", "synthlab"} <= set(gla.__all__)
        assert not {"cli", "io_formats", "float_text"} & set(gla.__all__)
        for name in gla.__all__:
            value = getattr(gla, name)
            if isinstance(value, type(gla)):
                assert value is sys.modules[f"gla.{name}"]
            else:
                assert value.__module__.startswith("gla.") and getattr(sys.modules[value.__module__], name) is value
        assert set(gla.__all__) <= set(dir(gla))
        with pytest.raises(AttributeError, match="module 'gla' has no attribute 'no_such_name'"):
            gla.no_such_name
        with pytest.raises(ImportError):
            exec("from gla import no_such_name", {})

    def test_each_command_loads_only_its_modules(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"task": {"k": 3, "dim": 3, "seed": 5}}))
        steps = {
            "simulate": ["--config", "cfg.json", "--out-zs", "zs.csv", "--out-ft", "ft.csv", "--n", "60"],
            "estimate": ["--logits", "zs.csv", "--method", "m2", "--out", "p.json"],
            "ensemble": ["--ft", "ft.csv", "--zs", "zs.csv", "--prior-p", "p.json", "--prior-s", "p.json",
                         "--out", "c.csv"],
            "evaluate": ["--logits", "c.csv", "--report", "r.json"],
        }
        loaded = {}
        for command, argv in steps.items():
            run = fresh_python(["-m", "gla.cli", command, *argv], tmp_path, observe=True)
            assert run.returncode == 0 and run.stderr == "", run.stderr
            frozen, loaded[command] = observed(tmp_path)
            assert frozen > 0  # the command froze the import heap
        assert {"gla.io_formats", "gla.synthlab"} <= loaded["simulate"]
        assert not {"gla.evaluation", "gla.ensemble"} & loaded["simulate"]
        for command in ("estimate", "ensemble"):
            assert "gla.io_formats" in loaded[command]
            assert not {"gla.synthlab", "gla.evaluation"} & loaded[command], command
        assert "gla.ensemble" in loaded["ensemble"]
        assert "gla.evaluation" in loaded["evaluate"]
        assert not {"gla.synthlab", "gla.ensemble"} & loaded["evaluate"]

    def test_exit_codes_keep_their_output(self, tmp_path, capsys):
        # the same stdout and stderr from `python -m gla.cli` as from main()
        # in process, which freezes nothing
        zs = make_fixture_csv(tmp_path, "zs.csv", [[2.0, 0.0], [0.0, 1.0], [1.0, 0.5]], [0, 1, 0])
        prior = str(tmp_path / "p.json")
        cases = [
            (0, ["estimate", "--logits", zs, "--method", "m2", "--out", prior]),
            (1, ["estimate", "--logits", str(tmp_path / "missing.csv"), "--method", "m2", "--out", prior]),
            (2, ["ensemble", "--ft", zs, "--zs", zs, "--prior-p", prior, "--prior-s", prior, "--alpha", "1.5",
                 "--out", str(tmp_path / "c.csv")]),
        ]
        for code, argv in cases:
            run = fresh_python(["-m", "gla.cli", *argv], tmp_path)
            frozen = gc.get_freeze_count()
            assert main(argv) == code == run.returncode
            assert gc.get_freeze_count() == frozen
            assert (run.stdout, run.stderr) == capsys.readouterr()
            assert (run.stdout == "") == (code != 0) and (run.stderr == "") == (code == 0)
        assert run.stderr.endswith("gla ensemble: error: argument --alpha: alpha must lie in [0, 1], got 1.5\n")

    def test_console_script_and_module_share_the_entry(self):
        pyproject = Path(GLA_ROOT).parent / "pyproject.toml"
        if not pyproject.exists():
            pytest.skip("gla is not imported from a checkout")
        script = re.search(r'^gla = "gla\.cli:(\w+)"$', pyproject.read_text(), re.M)
        source = Path(main.__code__.co_filename).read_text()
        assert script and f'if __name__ == "__main__":\n    sys.exit({script[1]}())\n' in source
