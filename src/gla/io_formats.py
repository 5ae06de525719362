"""File formats: logit CSV tables, prior documents, run configs, reports.

Floats are serialized with 17 significant digits so save/load round-trips
are exact for float64.  All writes are atomic (temp file + rename), and
JSON is strict: no NaN or Infinity.
"""

from __future__ import annotations

import array
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, fields as dc_fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, GlaError, InvalidInput, ParseError
from .float_text import Workspace, format_fields, format_float, parse_fields
from .numerics import (
    SIMPLEX_ATOL, LabelledLogits, LogitTable, ProbabilitySimplex, as_int, check_type, row_blocks,
)
from .prior_estimation import ESTIMATORS

# The functions that use gla.evaluation and gla.synthlab import them, so a
# command that reads and writes only logits and priors loads neither.
if TYPE_CHECKING:
    from .evaluation import ConvergenceStudy, EvalReport, StudyOptions
    from .synthlab import SyntheticTaskConfig


def atomic_write_text(path: str, text) -> None:
    """Write `text`, a string or bytes or an iterable of strings and bytes,
    through a temporary file and a rename: strings as UTF-8, bytes as they
    are.  The file is created with mode 0o666 less the umask, as open()
    would create it; a failed write leaves no file behind, and an OSError on
    the temporary file names `path` instead."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".gla-tmp-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in [text] if isinstance(text, (str, bytes)) else text:
                    fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _not_utf8(path: str, exc: UnicodeDecodeError, error: type[GlaError]) -> GlaError:
    return error(f"{path} is not UTF-8 text ({exc.reason})")


# ---------------------------------------------------------------------------
# Logit CSV files: header "label,c0,...,c{K-1}", one row per example.
# Both directions stream, never a text copy of the whole file: a save holds
# the table plus one block, a load the table, its labels and one block.
# ---------------------------------------------------------------------------


def _header(k: int) -> str:
    return "label," + ",".join(f"c{i}" for i in range(k))


# The writer formats blocks of about this many fields at once with
# float_text.format_fields, in one workspace per save, and writes each
# block's bytes to the file.  The kernel makes about a hundred numpy calls
# a block, whose fixed cost stops mattering near 2**13 fields: per 1.1M
# fields it takes about 140-180 ms in blocks of 2**11, 83-97 ms in blocks
# of 2**14, and 113 ms in blocks of 2**16.
CSV_WRITE_BLOCK_FIELDS = 2**14


def _logit_blocks(scores: np.ndarray, labels: np.ndarray | None):
    n, k = scores.shape
    yield (_header(k) + "\n").encode()
    step = max(1, CSV_WRITE_BLOCK_FIELDS // (k + 1))
    # one block's numbers, the label first (0 when unlabelled, then blanked),
    # and their 32-byte fields, each ending in its delimiter; a bytearray
    # under the fields lets translate() drop the NUL padding without a copy
    values = np.zeros((step, k + 1))
    buffer = bytearray(values.size * 32)
    fields = np.frombuffer(buffer, np.uint64).reshape(step, k + 1, 4)
    delimiters = np.full(k + 1, ord(",") << 56, np.uint64)
    delimiters[-1] = ord("\n") << 56
    work = Workspace()
    for rows in row_blocks(n, k + 1, CSV_WRITE_BLOCK_FIELDS):
        part = scores[rows]
        block = values[: len(part)]
        block[:, 1:] = part
        if labels is not None:
            block[:, 0] = labels[rows]
        text = fields[: len(block)]
        format_fields(block.reshape(-1), text.reshape(-1, 4), work)
        if labels is None:
            text[:, 0] = 0
        text[:, :, 3] |= delimiters
        data = buffer if text.nbytes == len(buffer) else buffer[: text.nbytes]
        yield data.translate(None, b"\0")


def save_logits(path: str, table: LogitTable, labels=None) -> None:
    check_type(table, LogitTable, "table")
    labs = None if labels is None else LabelledLogits(table, labels).labels
    atomic_write_text(path, _logit_blocks(table.scores, labs))


# The reader parses blocks of about this many bytes, cut at line ends, with
# float_text.parse_fields, and writes each block's rows into the table.  A
# block's arrays, about 140 bytes for each of its 13k or so fields, live in
# one workspace per load, sized by the first block, so no block frees pages
# that the next faults in again: a first 100k x 10 load in a process takes
# about 1.6k minor page faults, where freeing them took 24k.
CSV_READ_BLOCK_BYTES = 2**18
# parse_fields reads the 24 bytes before each field's end and 8 from it
_BACK, _AHEAD = 24, 8


def _line_blocks(fh):
    """The bytes of a binary file in blocks of whole lines: (data, stop),
    the lines being data[_BACK:stop] of a uint8 array that the next block
    reuses, each ending in a newline (one is added after a last line that
    has none)."""
    size = _BACK + CSV_READ_BLOCK_BYTES + 1 + _AHEAD
    buffer = bytearray(size)
    kept = 0  # the bytes of a partial line, at buffer[_BACK:]
    while True:
        got = fh.readinto(memoryview(buffer)[_BACK + kept : size - 1 - _AHEAD])
        end = _BACK + kept + got
        if not got:
            if kept:
                buffer[end] = ord("\n")
                yield np.frombuffer(buffer, np.uint8), end + 1
            return
        cut = buffer.rfind(b"\n", _BACK, end) + 1
        if cut:
            yield np.frombuffer(buffer, np.uint8), cut
            buffer[_BACK : _BACK + end - cut] = buffer[cut:end]
            kept = end - cut
        else:
            kept = end - _BACK
            if end == size - 1 - _AHEAD:  # a line longer than the buffer
                size *= 2
                buffer = buffer + bytes(size - len(buffer))  # a new one: the last block's data may be in use


def _odd_fields(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The values of the fields data[starts[i]:ends[i]] that parse_fields
    did not take, read by numpy's own converter in one loadtxt call; None
    when one may be a fault: an empty field (loadtxt would skip its line),
    bytes that are not UTF-8, or a number loadtxt rejects."""
    fields = [data[start:end].tobytes() for start, end in zip(starts.tolist(), ends.tolist())]
    if not all(fields):
        return None
    try:
        return np.loadtxt([field.decode("utf-8") + "\n" for field in fields], delimiter=",", comments=None, ndmin=1)
    except ValueError:  # UnicodeDecodeError too
        return None


def _line_separators(text: np.ndarray, seps: np.ndarray, width: int, work: Workspace) -> bool:
    """Whether the bytes of `text` at `seps` are width - 1 commas and a
    newline, line after line."""
    if seps.size % width:
        return False
    row_ends = np.full(width, ord(","), np.uint8)
    row_ends[-1] = ord("\n")
    marks = work("separators", seps.size // width, width, np.uint8)
    return bool(np.equal(np.take(text, seps.reshape(marks.shape), out=marks, mode="clip"), row_ends, out=marks).all())


def _parse_block(data: np.ndarray, begin: int, stop: int, k: int, work: Workspace) -> np.ndarray | None:
    """The rows of the lines data[begin:stop], each its label (NaN when
    empty) and K scores, an array of `work`; None unless every line is in
    the form the blocks read: no byte below "-" but its K commas, the
    newline and a "+" within a field, a label of plain digits or nothing,
    and scores that parse_fields or _odd_fields reads."""
    text = data[begin:stop]
    width = k + 1
    # "," and the newline, and any other byte below "-", which no number
    # parse_fields takes has: a block that is read has only K + 1 a line
    seps = np.flatnonzero(np.less(text, ord("-"), out=work("block bytes", 1, text.size, bool)[0]))
    if not _line_separators(text, seps, width, work):
        # a "+" then stays in its field, for _odd_fields: the "e+NN" that
        # save_logits writes for |x| >= 1e17 keeps the block
        kept = np.not_equal(text[seps], ord("+"))
        if kept.all():
            return None
        seps = seps[kept]
        if not _line_separators(text, seps, width, work):
            return None
    rows = seps.size // width
    seps += begin
    (starts,) = work("starts", 1, seps.size, np.int64)
    starts[:1] = begin
    np.add(seps[:-1], 1, out=starts[1:])
    values, taken, integral = parse_fields(data, starts, seps, work)
    values, taken = values.reshape(rows, width), taken.reshape(rows, width)
    empty = starts[::width] == seps[::width]
    if not (integral[::width] | empty).all():
        return None
    values[:, 0][empty] = math.nan
    taken[:, 0] = True  # the labels are checked above
    if not taken.all():
        odd = np.flatnonzero(~taken)
        got = _odd_fields(data, starts[odd], seps[odd])
        if got is None:
            return None
        values.reshape(-1)[odd] = got
    return values


def _checked_rows(lines, k: int, labels: array.array):
    """The score fields of each data line of an open logit CSV.  Here a
    line is split as it always has been: it must hold K commas (a blank
    line too: loadtxt alone would skip it), and its label, an integer or
    empty (NaN), goes to `labels`.  loadtxt pulls the lines one at a time,
    so the first fault in file order is the one raised."""
    lineno = 1
    for lineno, row in enumerate(lines, start=2):
        if row.count(",") != k:
            raise ParseError(f"expected {k + 1} fields, got {row.count(',') + 1}", line=lineno)
        label, scores = row.split(",", 1)
        try:
            labels.append(int(label) if label else math.nan)
        except (ValueError, OverflowError):  # OverflowError: past float range
            raise ParseError(f"bad label {label!r}", line=lineno) from None
        yield scores
    if lineno == 1:
        raise ParseError("no data rows", line=2)


def _line_rows(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The scores and labels of a logit CSV, read as text a line at a time
    through numpy.loadtxt; a fault in any line raises its ParseError."""
    labels = array.array("d")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        k = header.count(",")
        if k < 2 or header.rstrip("\n") != _header(k):
            raise ParseError("header must be 'label,c0,...,c{K-1}'", line=1)
        try:
            scores = np.loadtxt(_checked_rows(fh, k, labels), delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError:  # a ValueError too: a bad byte read mid-stream
            raise
        except ValueError as exc:
            where = re.search(r"at row (\d+)", str(exc))
            if where is None:
                raise ParseError(f"bad field: {exc}") from None
            raise ParseError("bad numeric field", line=int(where[1]) + 2) from None
    return scores, np.frombuffer(labels)


def _block_rows(path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The scores and labels of a logit CSV (NaN for an empty label), read
    in blocks through _parse_block into a table sized from the first block
    and cut to size at the end; None when a block declines, the header is
    not the exact bytes, or there is no data line."""
    n = 0
    k = scores = labels = None
    work = Workspace()
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        for data, stop in _line_blocks(fh):
            begin = _BACK
            if k is None:
                begin += int(np.argmax(data[_BACK:stop] == ord("\n"))) + 1
                header = data[_BACK : begin - 1].tobytes()
                k = header.count(b",")
                if k < 2 or header != _header(k).encode():
                    return None
                if begin == stop:
                    continue
            block = _parse_block(data, begin, stop, k, work)
            if block is None:
                return None
            # resize() reallocates in place: no view of the table is alive
            if scores is None:
                capacity = int(len(block) / (stop - begin) * size * 1.05) + 16
                scores, labels = np.empty((capacity, k)), np.empty(capacity)
            elif n + len(block) > len(labels):
                capacity = max(n + len(block), int((n + len(block)) / fh.tell() * size * 1.05) + 16)
                scores.resize((capacity, k), refcheck=False)
                labels.resize(capacity, refcheck=False)
            scores[n : n + len(block)] = block[:, 1:]
            labels[n : n + len(block)] = block[:, 0]
            n += len(block)
    if not n:
        return None
    scores.resize((n, k), refcheck=False)
    labels.resize(n, refcheck=False)
    return scores, labels


def load_logits(path: str) -> LabelledLogits | LogitTable:
    """Parse a logit CSV.  A fully labelled file yields LabelledLogits; any
    empty-label row degrades the whole file to an unlabelled LogitTable
    (with a warning)."""
    try:
        # a file the blocks decline is read whole, after their table is freed
        scores, labels = _block_rows(path) or _line_rows(path)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, ParseError) from None
    try:
        table = LogitTable(scores)
    except InvalidInput:
        # the header and row checks leave a non-finite score as the one reason;
        # only a rejected table pays for the search
        row = int(np.flatnonzero(~np.isfinite(scores).all(axis=1))[0])
        raise ParseError("non-finite score", line=row + 2) from None
    k = table.n_classes
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        raise ParseError(f"label {int(labels[bad[0]])} out of range [0, {k})", line=int(bad[0]) + 2)
    unlabelled = np.isnan(labels)
    if unlabelled.any():
        if not unlabelled.all():
            warnings.warn(f"{path}: some rows are unlabelled; discarding all labels", stacklevel=2)
        return table
    return LabelledLogits(table, labels.astype(np.int64))


# ---------------------------------------------------------------------------
# Rules shared by the JSON documents.  Each raises the document's own error
# class: ParseError for a prior file, ConfigError for a run config.
# ---------------------------------------------------------------------------


def _load_json(path: str, error: type[GlaError]):
    """The JSON value in the UTF-8 text file `path`; other bytes or invalid
    JSON raise `error` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, error) from None
    except (ValueError, RecursionError) as exc:  # ValueError: an integer too long to convert
        raise error(f"invalid JSON in {path}: {exc}") from None


def _json_object(value, keys, error: type[GlaError], name: str = "") -> dict:
    """`value` if it is a JSON object with no key outside `keys`; `name` is
    its section ('task'), or empty at the top of a document."""
    if not isinstance(value, dict):
        raise error(f"{name or 'document'} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise error(f"unknown key {'.'.join(filter(None, (name, unknown[0])))!r}")
    return value


def _probability_vector(value, name: str, error: type[GlaError]) -> ProbabilitySimplex:
    """A JSON list of numbers or numeric strings, no bools, summing to 1
    within 1e-6.  Only a sum ProbabilitySimplex would reject is
    renormalized, so priors written by save_prior load back bit for bit."""
    try:
        if not isinstance(value, list) or any(isinstance(x, bool) for x in value):
            raise TypeError
        probs = np.array([float(x) for x in value])
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be a list of numbers, got {value!r}") from None
    total = float(probs.sum())
    if not (np.all(probs >= 0) and abs(total - 1.0) <= 1e-6):
        raise error(f"{name} is not a finite probability simplex (tolerance 1e-6)")
    return ProbabilitySimplex(probs / total if abs(total - 1.0) > SIMPLEX_ATOL else probs)


# ---------------------------------------------------------------------------
# Prior documents: k, probs, estimator, source_split, seed, created_at
# ---------------------------------------------------------------------------

_PRIOR_ESTIMATORS = {*ESTIMATORS, "given"}


@dataclass(frozen=True)
class PriorDocument:
    """A prior and its provenance; each field is checked on construction,
    so every document save_prior writes, load_prior reads back."""

    prior: ProbabilitySimplex
    estimator: str = "given"
    source_split: str = ""
    seed: int | None = None
    created_at: str = ""

    def __post_init__(self):
        check_type(self.prior, ProbabilitySimplex, "prior")
        for name in ("estimator", "source_split", "created_at"):
            check_type(getattr(self, name), str, name)
        if self.estimator not in _PRIOR_ESTIMATORS:
            raise InvalidInput(f"unknown estimator {self.estimator!r}")
        if self.seed is not None:
            object.__setattr__(self, "seed", as_int(self.seed, "seed"))


def default_created_at() -> str:
    """Timestamp for provenance.  Honors SOURCE_DATE_EPOCH so seeded runs
    can be byte-reproducible; falls back to wall clock.  A value that is not
    a representable Unix time is a ConfigError."""
    import datetime

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        ts = datetime.datetime.now(datetime.timezone.utc)
    else:
        try:
            ts = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise ConfigError(f"SOURCE_DATE_EPOCH={epoch!r} is not a usable Unix time ({exc})") from None
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def save_prior(path: str, doc: PriorDocument) -> None:
    check_type(doc, PriorDocument, "doc")
    payload = {
        "k": doc.prior.k,
        "probs": [format_float(x) for x in doc.prior.probs],
        "estimator": doc.estimator,
        "source_split": doc.source_split,
        "seed": doc.seed,
        "created_at": doc.created_at or default_created_at(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def load_prior(path: str) -> PriorDocument:
    keys = ("k", "probs", "estimator", "source_split", "seed", "created_at")
    payload = _json_object(_load_json(path, ParseError), keys, ParseError)
    try:
        k = as_int(payload["k"], "k")
        doc = PriorDocument(
            _probability_vector(payload["probs"], "probs", ParseError),
            **{key: value for key, value in payload.items() if key not in ("k", "probs")},
        )
    except (InvalidInput, KeyError) as exc:
        raise ParseError(f"bad prior document: {exc}") from None
    if doc.prior.k != k:
        raise ParseError(f"probs length {doc.prior.k} != k {k}")
    return doc


# ---------------------------------------------------------------------------
# Evaluation reports (JSON)
# ---------------------------------------------------------------------------


def save_report(path: str, report: EvalReport) -> None:
    from .evaluation import EvalReport

    check_type(report, EvalReport, "report")
    payload = {
        "top1_accuracy": report.top1_accuracy,
        "balanced_accuracy": report.balanced_accuracy,
        "per_class_accuracy": [float(x) for x in report.per_class_accuracy],
        # a group with no classes has no accuracy
        "breakdown": {name: None if math.isnan(acc) else acc for name, acc in report.breakdown.items()},
        "n_examples": report.n_examples,
        "metadata": report.metadata,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Run configuration (JSON): sections `task` and `study`, keyed by the fields
# of SyntheticTaskConfig and StudyOptions, which check their own values.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """The sections of a run config.  Without a study section, `study`
    reads as StudyOptions(), made when it is read, so a command that uses
    only the task does not load gla.evaluation."""

    task: SyntheticTaskConfig | None = None
    study_section: StudyOptions | None = None

    @property
    def study(self) -> StudyOptions:
        if self.study_section is not None:
            return self.study_section
        from .evaluation import StudyOptions

        return StudyOptions()


def _build_section(cls, value, name: str):
    kwargs = dict(_json_object(value, [f.name for f in dc_fields(cls)], ConfigError, name))
    for key in ("pretrain_prior", "source_prior"):
        if key in kwargs:
            kwargs[key] = _probability_vector(kwargs[key], f"{name}.{key}", ConfigError)
    try:
        return cls(**kwargs)
    except InvalidInput as exc:
        # each check of the config types names its field first ("trials must be >= 1")
        raise ConfigError(f"bad section {name!r}: {name}.{exc}") from None


def _section_type(name: str):
    """The type of a config section, imported for a section the config has."""
    if name == "task":
        from .synthlab import SyntheticTaskConfig

        return SyntheticTaskConfig
    from .evaluation import StudyOptions

    return StudyOptions


def parse_run_config(payload) -> RunConfig:
    payload = _json_object(payload, ("task", "study"), ConfigError)
    sections = {name: _build_section(_section_type(name), value, name) for name, value in payload.items()}
    return RunConfig(sections.get("task"), sections.get("study"))


def load_run_config(path: str) -> RunConfig:
    return parse_run_config(_load_json(path, ConfigError))


def save_study_csv(path: str, study: ConvergenceStudy) -> None:
    from .evaluation import ConvergenceStudy

    check_type(study, ConvergenceStudy, "study")
    lines = ["estimator,n,mean_l1,std,n_ok"]
    for row in study.rows:
        lines.append(f"{row.estimator},{row.n},{format_float(row.mean_l1)},{format_float(row.std)},{row.n_ok}")
    atomic_write_text(path, "\n".join(lines) + "\n")
