"""File formats: logit CSV tables, prior documents, run configs, reports.

Floats are serialized with 17 significant digits so save/load round-trips
are exact for float64.  All writes are atomic (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .errors import ConfigError, InvalidInput, ParseError
from .evaluation import EvalReport
from .numerics import SIMPLEX_ATOL, LabelledLogits, LogitTable, ProbabilitySimplex
from .synthlab import SyntheticTaskConfig

_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % float(x)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gla-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Logit CSV files: header "label,c0,...,c{K-1}", one row per example.
# ---------------------------------------------------------------------------


def save_logits(path: str, table: LogitTable, labels=None) -> None:
    k = table.n_classes
    lines = ["label," + ",".join(f"c{i}" for i in range(k))]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != table.n_examples:
            raise InvalidInput("labels length must equal number of rows")
    for r in range(table.n_examples):
        lab = "" if labels is None else str(int(labels[r]))
        row = ",".join(format_float(x) for x in table.scores[r])
        lines.append(f"{lab},{row}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_logits(path: str) -> LabelledLogits | LogitTable:
    """Parse a logit CSV.  A fully labelled file yields LabelledLogits; any
    empty-label row degrades the whole file to an unlabelled LogitTable
    (with a warning)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if len(header) < 3 or header[0] != "label":
            raise ParseError("header must be 'label,c0,...,c{K-1}'", line=1)
        k = len(header) - 1
        expected = ["label"] + [f"c{i}" for i in range(k)]
        if header != expected:
            raise ParseError("header must be 'label,c0,...,c{K-1}'", line=1)
        scores = []
        labels: list[int | None] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != k + 1:
                raise ParseError(f"expected {k + 1} fields, got {len(row)}", line=lineno)
            if row[0] == "":
                labels.append(None)
            else:
                try:
                    lab = int(row[0])
                except ValueError:
                    raise ParseError(f"bad label {row[0]!r}", line=lineno) from None
                if not 0 <= lab < k:
                    raise ParseError(f"label {lab} out of range [0, {k})", line=lineno)
                labels.append(lab)
            try:
                scores.append([float(x) for x in row[1:]])
            except ValueError:
                raise ParseError("bad numeric field", line=lineno) from None
    if not scores:
        raise ParseError("no data rows", line=2)
    table = LogitTable(np.asarray(scores))
    if any(lab is None for lab in labels):
        if any(lab is not None for lab in labels):
            warnings.warn(f"{path}: some rows are unlabelled; discarding all labels")
        return table
    return LabelledLogits(table, np.asarray(labels, dtype=np.int64))


# ---------------------------------------------------------------------------
# Prior documents (JSON): k, probs, estimator, source_split, seed, created_at
# ---------------------------------------------------------------------------

_PRIOR_KEYS = {"k", "probs", "estimator", "source_split", "seed", "created_at"}
_PRIOR_ESTIMATORS = {"m1", "m2", "naive", "given"}


@dataclass(frozen=True)
class PriorDocument:
    prior: ProbabilitySimplex
    estimator: str = "given"
    source_split: str = ""
    seed: int | None = None
    created_at: str = ""


def default_created_at() -> str:
    """Timestamp for provenance.  Honors SOURCE_DATE_EPOCH so seeded runs
    can be byte-reproducible; falls back to wall clock."""
    import datetime

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        ts = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        ts = datetime.datetime.now(datetime.timezone.utc)
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
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_prior(path: str) -> PriorDocument:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("prior document must be a JSON object")
    unknown = set(payload) - _PRIOR_KEYS
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r}")
    try:
        k = int(payload["k"])
        probs = np.asarray([float(x) for x in payload["probs"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad prior document: {exc}") from None
    if probs.size != k:
        raise ParseError(f"probs length {probs.size} != k {k}")
    if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-6:
        raise ParseError("probs is not a probability simplex (tolerance 1e-6)")
    total = float(probs.sum())
    # renormalize only what ProbabilitySimplex would reject, so that priors
    # written by save_prior load back bit for bit
    prior = ProbabilitySimplex(probs / total if abs(total - 1.0) > SIMPLEX_ATOL else probs)
    estimator = payload.get("estimator", "given")
    if estimator not in _PRIOR_ESTIMATORS:
        raise ParseError(f"unknown estimator {estimator!r}")
    seed = payload.get("seed")
    return PriorDocument(
        prior=prior,
        estimator=estimator,
        source_split=str(payload.get("source_split", "")),
        seed=None if seed is None else int(seed),
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
        "breakdown": report.breakdown,
        "n_examples": report.n_examples,
        "metadata": report.metadata,
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Run configuration (JSON), mirroring the task and study config types.
# Unknown keys are rejected with the offending key named.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyOptions:
    shots: list = field(default_factory=lambda: [25, 100, 400, 1600])
    trials: int = 5
    delta: float = 0.05
    base_seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    task: SyntheticTaskConfig | None = None
    study: StudyOptions = StudyOptions()


_TOP_KEYS = {"task", "study"}


def _build_section(cls, payload: dict, section: str, transform=None):
    if not isinstance(payload, dict):
        raise ConfigError(f"section {section!r} must be an object")
    allowed = {f.name for f in dc_fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"unknown key {section + '.' + sorted(unknown)[0]!r}")
    kwargs = dict(payload)
    if transform:
        kwargs = transform(kwargs)
    try:
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
        with open(path) as fh:
            payload = json.load(fh)
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
