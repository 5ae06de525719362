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
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .errors import ConfigError, GlaError, InvalidInput, ParseError
from .evaluation import ESTIMATORS, EvalReport
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


def _read_text(path: str, error: type[GlaError]) -> str:
    """A whole UTF-8 text file; other bytes raise `error` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, error) from None


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
    labels, table = data[:, 0], LogitTable(data[:, 1:])
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
# Prior documents (JSON): k, probs, estimator, source_split, seed, created_at
# ---------------------------------------------------------------------------

_PRIOR_KEYS = {"k", "probs", "estimator", "source_split", "seed", "created_at"}
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
    try:
        payload = json.loads(_read_text(path, ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("prior document must be a JSON object")
    unknown = set(payload) - _PRIOR_KEYS
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r}")
    try:
        k = as_int(payload["k"], "k")
        seed = payload.get("seed")
        seed = None if seed is None else as_int(seed, "seed")
        probs = payload["probs"]
        if not isinstance(probs, list) or any(isinstance(x, bool) for x in probs):
            raise ParseError(f"probs must be a list of numbers, got {probs!r}")
        probs = np.asarray([float(x) for x in probs])
    except (InvalidInput, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad prior document: {exc}") from None
    if probs.size != k:
        raise ParseError(f"probs length {probs.size} != k {k}")
    if not (np.all(probs >= 0) and abs(float(probs.sum()) - 1.0) <= 1e-6):
        raise ParseError("probs is not a finite probability simplex (tolerance 1e-6)")
    total = float(probs.sum())
    # renormalize only what ProbabilitySimplex would reject, so that priors
    # written by save_prior load back bit for bit
    prior = ProbabilitySimplex(probs / total if abs(total - 1.0) > SIMPLEX_ATOL else probs)
    estimator = payload.get("estimator", "given")
    if estimator not in _PRIOR_ESTIMATORS:
        raise ParseError(f"unknown estimator {estimator!r}")
    return PriorDocument(
        prior=prior,
        estimator=estimator,
        source_split=str(payload.get("source_split", "")),
        seed=seed,
        created_at=str(payload.get("created_at", "")),
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
# Run configuration (JSON), mirroring the task and study config types.
# Unknown keys are rejected with the offending key named.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyOptions:
    shots: list = field(default_factory=lambda: [25, 100, 400, 1600])
    trials: int = 5
    base_seed: int = 0

    def __post_init__(self):
        if not self.shots or min(self.shots) < 1:
            raise InvalidInput(f"study.shots must be a nonempty list of counts >= 1, got {self.shots!r}")
        if self.trials < 1:
            raise InvalidInput(f"study.trials must be >= 1, got {self.trials!r}")
        if self.base_seed < 0:
            raise InvalidInput(f"study.base_seed must be nonnegative, got {self.base_seed!r}")


@dataclass(frozen=True)
class RunConfig:
    task: SyntheticTaskConfig | None = None
    study: StudyOptions = StudyOptions()


_TOP_KEYS = {"task", "study"}
_INT_KEYS = {"k", "dim", "seed", "trials", "base_seed"}


def _build_section(cls, payload: dict, section: str, transform=None):
    if not isinstance(payload, dict):
        raise ConfigError(f"section {section!r} must be an object")
    allowed = {f.name for f in dc_fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"unknown key {section + '.' + sorted(unknown)[0]!r}")
    shots = payload.get("shots", [])
    if not isinstance(shots, list):
        raise ConfigError(f"{section}.shots must be a list of integers, got {shots!r}")
    ints = [(key, payload[key]) for key in sorted(_INT_KEYS & payload.keys())]
    kwargs = dict(payload)
    if transform:
        kwargs = transform(kwargs)
    try:
        for key, value in ints + [(f"shots[{i}]", n) for i, n in enumerate(shots)]:
            as_int(value, f"{section}.{key}")
        return cls(**kwargs)
    except (InvalidInput, TypeError) as exc:
        raise ConfigError(f"bad section {section!r}: {exc}") from None


def _task_transform(kwargs: dict) -> dict:
    for key in ("pretrain_prior", "source_prior"):
        if key in kwargs:
            try:
                kwargs[key] = ProbabilitySimplex(np.asarray(kwargs[key], dtype=np.float64))
            except InvalidInput as exc:
                raise ConfigError(f"bad task.{key}: {exc}") from None
    return kwargs


def parse_run_config(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")
    kwargs = {}
    if "task" in payload:
        kwargs["task"] = _build_section(
            SyntheticTaskConfig, payload["task"], "task", _task_transform
        )
    if "study" in payload:
        kwargs["study"] = _build_section(StudyOptions, payload["study"], "study")
    return RunConfig(**kwargs)


def load_run_config(path: str) -> RunConfig:
    try:
        payload = json.loads(_read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return parse_run_config(payload)


def save_study_csv(path: str, study) -> None:
    lines = ["n,mean_l1,std,bound"]
    for row in study.rows:
        lines.append(
            f"{row.n},{format_float(row.mean_l1)},{format_float(row.std)},{format_float(row.bound)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
