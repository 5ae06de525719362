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

import numpy as np

from .errors import ConfigError, GlaError, InvalidInput, ParseError
from .evaluation import ESTIMATORS, ConvergenceStudy, EvalReport, StudyOptions
from .float_text import format_fields, format_float
from .numerics import (
    SIMPLEX_ATOL, LabelledLogits, LogitTable, ProbabilitySimplex, as_int, check_type, row_blocks,
)
from .synthlab import SyntheticTaskConfig

def atomic_write_text(path: str, text) -> None:
    """Write `text`, a string or an iterable of strings, through a temporary
    file and a rename.  The file is created with mode 0o666 less the umask,
    as open() would create it; a failed write leaves no file behind, and an
    OSError on the temporary file names `path` instead."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".gla-tmp-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
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
# the table plus one block, a load the table plus its label column.
# ---------------------------------------------------------------------------

# The writer formats blocks of about this many fields at once with
# float_text.format_fields.  A block's temporaries (eight float64 arrays of
# its size, its 32-byte fields and its text) then fit in heap pages that
# earlier work left free: `gla simulate` of 100k rows at K=10 takes 14 more
# minor page faults (of 14.3k) than with one `%` format per block of 2**12
# fields, all of them in importing float_text.  Blocks of 2**12 fields
# write about a fifth faster but take 110 more faults; blocks of
# numerics.LOGIT_BLOCK_FIELDS, whose temporaries pass glibc's 128 KiB mmap
# threshold, take 5.5k more.
CSV_WRITE_BLOCK_FIELDS = 2**11


def _logit_blocks(scores: np.ndarray, labels: np.ndarray | None):
    n, k = scores.shape
    yield "label," + ",".join(f"c{i}" for i in range(k)) + "\n"
    step = max(1, CSV_WRITE_BLOCK_FIELDS // (k + 1))
    # one block's numbers, the label first (0 when unlabelled, then blanked),
    # and their 32-byte fields, each ending in its delimiter; a bytearray
    # under the fields lets translate() drop the NUL padding without a copy
    values = np.zeros((step, k + 1))
    buffer = bytearray(values.size * 32)
    fields = np.frombuffer(buffer, np.uint64).reshape(step, k + 1, 4)
    delimiters = np.full(k + 1, ord(",") << 56, np.uint64)
    delimiters[-1] = ord("\n") << 56
    for rows in row_blocks(n, k + 1, CSV_WRITE_BLOCK_FIELDS):
        part = scores[rows]
        block = values[: len(part)]
        block[:, 1:] = part
        if labels is not None:
            block[:, 0] = labels[rows]
        text = fields[: len(block)]
        format_fields(block.reshape(-1), text.reshape(-1, 4))
        if labels is None:
            text[:, 0] = 0
        text[:, :, 3] |= delimiters
        data = buffer if text.nbytes == len(buffer) else buffer[: text.nbytes]
        yield data.translate(None, b"\0").decode("ascii")


def save_logits(path: str, table: LogitTable, labels=None) -> None:
    check_type(table, LogitTable, "table")
    labs = None if labels is None else LabelledLogits(table, labels).labels
    atomic_write_text(path, _logit_blocks(table.scores, labs))


def _checked_rows(fh, k: int, labels: array.array):
    """The score fields of each data line of an open logit CSV.  The one
    place a line is split: it must hold K commas (a blank line too: loadtxt
    alone would skip it), and its label, an integer or empty (NaN), goes to
    `labels`.  loadtxt pulls the lines one at a time, so the first fault in
    file order is the one raised."""
    lineno = 1
    for lineno, row in enumerate(fh, start=2):
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


def load_logits(path: str) -> LabelledLogits | LogitTable:
    """Parse a logit CSV.  A fully labelled file yields LabelledLogits; any
    empty-label row degrades the whole file to an unlabelled LogitTable
    (with a warning)."""
    labels = array.array("d")
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            k = header.count(",")
            if k < 2 or header.rstrip("\n") != ",".join(["label"] + [f"c{i}" for i in range(k)]):
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
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, ParseError) from None
    try:
        table = LogitTable(scores)
    except InvalidInput:
        # the header and row checks leave a non-finite score as the one reason;
        # only a rejected table pays for the search
        row = int(np.flatnonzero(~np.isfinite(scores).all(axis=1))[0])
        raise ParseError("non-finite score", line=row + 2) from None
    labels = np.frombuffer(labels)
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
    task: SyntheticTaskConfig | None = None
    study: StudyOptions = StudyOptions()


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


def parse_run_config(payload) -> RunConfig:
    sections = {"task": SyntheticTaskConfig, "study": StudyOptions}
    payload = _json_object(payload, sections, ConfigError)
    return RunConfig(**{name: _build_section(sections[name], value, name) for name, value in payload.items()})


def load_run_config(path: str) -> RunConfig:
    return parse_run_config(_load_json(path, ConfigError))


def save_study_csv(path: str, study: ConvergenceStudy) -> None:
    check_type(study, ConvergenceStudy, "study")
    lines = ["estimator,n,mean_l1,std,n_ok"]
    for row in study.rows:
        lines.append(f"{row.estimator},{row.n},{format_float(row.mean_l1)},{format_float(row.std)},{row.n_ok}")
    atomic_write_text(path, "\n".join(lines) + "\n")
