"""File formats: logit CSV tables, prior documents, run configs, reports.

Floats are serialized with 17 significant digits so save/load round-trips
are exact for float64.  All writes are atomic (temp file + rename), and
JSON is strict: no NaN or Infinity.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ConfigError, GlaError, InvalidInput, ParseError
from .evaluation import ESTIMATORS, EvalReport, StudyOptions
from .numerics import SIMPLEX_ATOL, LabelledLogits, LogitTable, ProbabilitySimplex, as_int
from .synthlab import SyntheticTaskConfig

_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % float(x)


def atomic_write_text(path: str, text) -> None:
    """Write `text`, a string or an iterable of strings, through a temporary
    file and a rename.  The file is created with mode 0o666 less the umask,
    as open() would create it; a failed write leaves no file behind."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".gla-tmp-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _not_utf8(path: str, exc: UnicodeDecodeError, error: type[GlaError]) -> GlaError:
    return error(f"{path} is not UTF-8 text ({exc.reason})")


# ---------------------------------------------------------------------------
# Logit CSV files: header "label,c0,...,c{K-1}", one row per example.
# Both directions stream: memory is the table plus one block of about
# LOGIT_BLOCK_FIELDS fields, never a text copy of the whole file.
# ---------------------------------------------------------------------------

LOGIT_BLOCK_FIELDS = 2**16


def _logit_blocks(scores: np.ndarray, labels: np.ndarray | None):
    k = scores.shape[1]
    step = max(1, LOGIT_BLOCK_FIELDS // (k + 1))
    # labels ride in the float block: "%d" % 3.0 == "3"
    row_fmt = ("," if labels is None else "%d,") + ",".join([_FLOAT_FMT] * k) + "\n"
    yield "label," + ",".join(f"c{i}" for i in range(k)) + "\n"
    for start in range(0, scores.shape[0], step):
        block = scores[start:start + step]
        if labels is not None:
            block = np.column_stack((labels[start:start + step], block))
        yield (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def save_logits(path: str, table: LogitTable, labels=None) -> None:
    labs = None if labels is None else LabelledLogits(table, labels).labels
    atomic_write_text(path, _logit_blocks(table.scores, labs))


def _checked_rows(fh, k: int):
    """The data lines of an open logit CSV, each checked for K commas (a
    blank line too: loadtxt alone would skip it)."""
    lineno = 1
    for lineno, row in enumerate(fh, start=2):
        if row.count(",") != k:
            raise ParseError(f"expected {k + 1} fields, got {row.count(',') + 1}", line=lineno)
        yield row
    if lineno == 1:
        raise ParseError("no data rows", line=2)


def _score_columns(data: np.ndarray) -> np.ndarray:
    """The N x K score columns of loadtxt's N x (K+1) result, compacted in
    place, a block of rows at a time, into a contiguous prefix of its own
    buffer: the load holds one table plus one block, not two tables.  Row
    i's scores move down to row i * K of the flat buffer, never past rows
    still unread."""
    n, k = data.shape[0], data.shape[1] - 1
    flat = data.reshape(-1)
    step = max(1, LOGIT_BLOCK_FIELDS // (k + 1))
    for start in range(0, n, step):
        stop = min(n, start + step)
        flat[start * k:stop * k].reshape(stop - start, k)[...] = data[start:stop, 1:]
    return flat[:n * k].reshape(n, k)


def load_logits(path: str) -> LabelledLogits | LogitTable:
    """Parse a logit CSV.  A fully labelled file yields LabelledLogits; any
    empty-label row degrades the whole file to an unlabelled LogitTable
    (with a warning)."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            k = header.count(",")
            if k < 2 or header.rstrip("\n") != ",".join(["label"] + [f"c{i}" for i in range(k)]):
                raise ParseError("header must be 'label,c0,...,c{K-1}'", line=1)
            try:
                # encoding=None: by default numpy < 2 hands converters bytes
                data = np.loadtxt(_checked_rows(fh, k), delimiter=",", comments=None, ndmin=2,
                                  encoding=None, converters={0: lambda s: float(int(s)) if s else np.nan})
            except UnicodeDecodeError:  # a ValueError too: a bad byte read mid-stream
                raise
            except ValueError as exc:
                where = re.search(r"at row (\d+), column (\d+)", str(exc))
                if where is None:
                    raise ParseError(f"bad field: {exc}") from None
                lineno = int(where[1]) + 2
                if where[2] != "1":
                    raise ParseError("bad numeric field", line=lineno) from None
                fh.seek(0)  # only this error path reads the file again
                row = next(itertools.islice(fh, lineno - 1, None))
                raise ParseError(f"bad label {row.split(',', 1)[0]!r}", line=lineno) from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, ParseError) from None
    labels, scores = data[:, 0].copy(), _score_columns(data)
    try:
        table = LogitTable(scores)
    except InvalidInput:
        # the header and row checks leave a non-finite score as the one reason;
        # only a rejected table pays for the search
        row = int(np.flatnonzero(~np.isfinite(scores).all(axis=1))[0])
        raise ParseError("non-finite score", line=row + 2) from None
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        raise ParseError(f"label {int(labels[bad[0]])} out of range [0, {k})", line=int(bad[0]) + 2)
    unlabelled = np.isnan(labels)
    if unlabelled.any():
        if not unlabelled.all():
            warnings.warn(f"{path}: some rows are unlabelled; discarding all labels")
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


def _string(payload: dict, key: str, default: str, error: type[GlaError]) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise error(f"{key} must be a JSON string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Prior documents: k, probs, estimator, source_split, seed, created_at
# ---------------------------------------------------------------------------

_PRIOR_ESTIMATORS = {*ESTIMATORS, "given"}


@dataclass(frozen=True)
class PriorDocument:
    prior: ProbabilitySimplex
    estimator: str = "given"
    source_split: str = ""
    seed: int | None = None
    created_at: str = ""


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
    if doc.estimator not in _PRIOR_ESTIMATORS:
        raise InvalidInput(f"unknown estimator {doc.estimator!r}")
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
        seed = None if payload.get("seed") is None else as_int(payload["seed"], "seed")
        prior = _probability_vector(payload["probs"], "probs", ParseError)
    except (InvalidInput, KeyError) as exc:
        raise ParseError(f"bad prior document: {exc}") from None
    if prior.k != k:
        raise ParseError(f"probs length {prior.k} != k {k}")
    estimator = _string(payload, "estimator", "given", ParseError)
    if estimator not in _PRIOR_ESTIMATORS:
        raise ParseError(f"unknown estimator {estimator!r}")
    return PriorDocument(
        prior=prior,
        estimator=estimator,
        source_split=_string(payload, "source_split", "", ParseError),
        seed=seed,
        created_at=_string(payload, "created_at", "", ParseError),
    )


# ---------------------------------------------------------------------------
# Evaluation reports (JSON)
# ---------------------------------------------------------------------------


def save_report(path: str, report: EvalReport) -> None:
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


def save_study_csv(path: str, study) -> None:
    lines = ["n,mean_l1,std,bound"]
    for row in study.rows:
        lines.append(
            f"{row.n},{format_float(row.mean_l1)},{format_float(row.std)},{format_float(row.bound)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
