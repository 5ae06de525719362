"""The benchmark workloads, run inside one child process each.

Every workload builds its inputs from the benchmark seed, runs passes
through the public `gla` API or the `gla` CLI, and checks each output.
One pass is a list of operations; each operation ends "ok", "failed"
(it raised, exited nonzero, or broke the output contract: not a finite
simplex, artifacts not byte-identical, a report that disagrees with a
recomputation, a swallowed study trial) or "missed" (valid output beyond
an accuracy tolerance stated below).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from reference import Reference

# Accuracy tolerances (a miss, not a failure, when exceeded).
EXCESS_ERR_TOL = 0.01  # top-1 error with the estimated prior minus with the true priors
STUDY_L1_TOL = 0.25  # l1 from the true prior, per study cell, m1 and m2 (naive is not gated)
SIMPLEX_ATOL = 1e-9

SOURCE_DATE_EPOCH = "1700000000"

SHAPES = {
    "cli-k10": {
        "full": {"k": 10, "dim": 10, "separation": 3.0, "test_rows": 100_000, "shot_rows": 5_000},
        "tiny": {"k": 10, "dim": 10, "separation": 3.0, "test_rows": 3_000, "shot_rows": 600},
    },
    "prior-study": {
        "full": {"k": 20, "dim": 20, "separation": 3.0, "shots": [50, 200, 800], "trials": 2,
                 "test_per_class": 1000},
        "tiny": {"k": 20, "dim": 20, "separation": 3.0, "shots": [20, 40], "trials": 2,
                 "test_per_class": 100},
    },
}
WORKLOAD_IDS = {"cli-k10": 1, "prior-study": 3}


def derive_seeds(*key, count=4) -> list:
    """Nonnegative integer seeds derived from the benchmark seed."""
    return [int(x) for x in np.random.SeedSequence(list(key)).generate_state(count)]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def simplex_problem(probs) -> str | None:
    """None if `probs` is a finite probability simplex, else the reason."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        return f"not a vector of length >= 2: shape {arr.shape}"
    if not np.all(np.isfinite(arr)):
        return "non-finite entries"
    if np.any(arr < 0.0):
        return "negative entries"
    if abs(float(arr.sum()) - 1.0) > SIMPLEX_ATOL:
        return f"sums to {float(arr.sum())!r}"
    return None


class Ledger:
    """Operations of one pass and how each ended."""

    def __init__(self):
        self.status = {}  # op name -> "ok" | "failed" | "missed"
        self.notes = []

    def ok(self, op):
        self.status.setdefault(op, "ok")

    def fail(self, op, why):
        self.status[op] = "failed"
        self.notes.append(f"{op}: FAILED: {why}")

    def miss(self, op, why):
        if self.status.get(op) != "failed":
            self.status[op] = "missed"
        self.notes.append(f"{op}: missed tolerance: {why}")

    def check(self, op, problem, miss=False):
        if problem is None:
            self.ok(op)
        elif miss:
            self.miss(op, problem)
        else:
            self.fail(op, problem)

    @contextlib.contextmanager
    def op(self, name):
        """Run one operation; an exception marks it failed and ends the pass."""
        try:
            yield
        except Exception as exc:  # any exception from the program is a failed operation
            self.fail(name, f"{type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc
        self.ok(name)

    def counts(self):
        values = list(self.status.values())
        return len(values), values.count("failed"), values.count("missed")


class PassAborted(Exception):
    """An operation failed, so the rest of the pass cannot run."""


class Workload:
    """Base class: set-up, one pass, and the checks on its outputs."""

    name = ""
    ref_by_timer = True  # else the pass runs the reference kernel itself

    def __init__(self, seed: int, scale: str, work: str, tracer, inject: str | None):
        import gla  # noqa: F401  (set-up includes the package import)

        self.gla = gla
        self.seed = seed
        self.shape = SHAPES[self.name][scale]
        self.work = work
        self.tracer = tracer
        self.inject = inject
        self.ref = Reference()

    def timed(self, index: int, traced: bool):
        """Run one pass; return (seconds, ledger, values, ref_s).

        `ref_s` are the times of the reference kernel taken during an
        untraced pass (none in a traced one, whose spans they would
        distort); `seconds` is the pass's wall time without them."""
        ledger = Ledger()
        values = {}
        self.tracer.pass_id = index
        self.tracer.active = traced
        if not traced:
            self.ref.sample()  # one sample however short the pass
            if self.ref_by_timer:
                self.ref.start_timer()
        start = time.perf_counter()
        try:
            with self.tracer.span("pass", "bench"):
                outputs = self.run(index, traced, ledger, values)
        except PassAborted:
            outputs = None
        finally:
            if not traced and self.ref_by_timer:
                self.ref.stop_timer()
        ref_s = self.ref.take()
        seconds = time.perf_counter() - start - sum(ref_s[1:])
        self.tracer.active = False
        if outputs is not None:
            try:
                self.check(outputs, ledger, values)
            except Exception as exc:  # a check that cannot run fails the pass
                ledger.fail("check", f"{type(exc).__name__}: {exc}")
        return seconds, ledger, values, ref_s

    # subclasses implement run(index, traced, ledger, values) -> outputs
    # and check(outputs, ledger, values)


# ---------------------------------------------------------------------------
# Combine tail of the in-process workload: hand the estimate over through a
# prior document, sample a test batch with exactly `per_class` rows of every
# class (so balanced accuracy is always defined), combine with the estimated
# prior, and report.
# ---------------------------------------------------------------------------


def combine_chain(gla, task, q, pi_s, per_class, seed, doc_path, ledger):
    from gla.io_formats import PriorDocument, load_prior, save_prior

    with ledger.op("prior-io"):
        save_prior(doc_path, PriorDocument(prior=q, estimator="m2", created_at="fixed"))
        q_loaded = load_prior(doc_path).prior
    with ledger.op("sample-test"):
        batch = gla.sample_shots(task, per_class, seed)
    with ledger.op("combine"):
        pi_p = gla.log_prior(q_loaded)
        combined = gla.gla_combine(batch.ft_logits, batch.zs_logits, gla.AdjustmentSpec(pi_s=pi_s, pi_p=pi_p))
    with ledger.op("report"):
        report = gla.breakdown_report(combined, batch.labels, pi_p)
    return {"q_loaded": q_loaded, "batch": batch, "combined": combined, "report": report}


def check_combine(gla, task, out, ledger, values):
    """The estimate is a simplex, the report agrees with a recomputation,
    and the excess error is within tolerance."""
    q, batch, report = out["q"], out["batch"], out["report"]
    ledger.check("estimate-m2", simplex_problem(q.probs))
    values["prior_l1"] = gla.l1_distance(q, task.cfg.pretrain_prior)
    # load_prior renormalises, which may move the last bit of an entry
    ledger.check("prior-io", None if np.allclose(out["q_loaded"].probs, q.probs, rtol=1e-12, atol=0.0)
                 else "prior document did not round-trip")
    err_est = float(np.mean(np.argmax(out["combined"].scores, axis=1) != batch.labels))
    ledger.check("report", None if abs((1.0 - report.top1_accuracy) - err_est) <= 0.5 / batch.labels.size
                 else f"report top1 {report.top1_accuracy!r} disagrees with argmax error {err_est!r}")
    ledger.check("report", excess_problem(values, err_est, bayes_error(gla, task.cfg, batch)), miss=True)


def bayes_error(gla, cfg, batch) -> float:
    """Top-1 error of `gla_combine` with the true priors: the lab's Bayes rule."""
    truth = gla.AdjustmentSpec(pi_s=gla.log_prior(cfg.source_prior), pi_p=gla.log_prior(cfg.pretrain_prior))
    return gla.top1_error(gla.gla_combine(batch.ft_logits, batch.zs_logits, truth), batch.labels)


def excess_problem(values, err_est, err_true) -> str | None:
    """Record the error metrics; None if the excess error is within tolerance."""
    values.update(err_est=err_est, err_true=err_true, excess_err=err_est - err_true,
                  err_ratio=err_est / err_true)
    if values["excess_err"] <= EXCESS_ERR_TOL:
        return None
    return f"excess_err {values['excess_err']:.5f} > {EXCESS_ERR_TOL}"


# ---------------------------------------------------------------------------
# prior-study: convergence study of all three estimators, then the
# combine tail with the M2 estimate at the largest shot count.
# ---------------------------------------------------------------------------


class PriorStudy(Workload):
    name = "prior-study"

    def setup(self):
        gla, s = self.gla, self.shape
        k = s["k"]
        (task_seed,) = derive_seeds(self.seed, WORKLOAD_IDS[self.name], count=1)
        self.cfg = gla.SyntheticTaskConfig(
            k=k, dim=s["dim"], mean_separation=s["separation"],
            pretrain_prior=gla.ProbabilitySimplex.from_weights(np.arange(1, k + 1, dtype=float)),
            seed=task_seed,
        )
        with self.tracer.span("setup", "bench"):
            self.task = gla.make_task(self.cfg)
        self.pi_s = gla.log_prior(self.cfg.source_prior)

    def run(self, index, traced, ledger, values):
        gla, s = self.gla, self.shape
        base_seed, test_seed = derive_seeds(self.seed, WORKLOAD_IDS[self.name], index, count=2)
        base_seed %= 2**31  # the study adds the trial index
        studies = {}
        for estimator in ("m1", "m2", "naive"):
            cells = [f"{estimator}@{n}" for n in s["shots"]]
            with self._injected(estimator, index):
                try:
                    with self.tracer.span(f"study.{estimator}", "bench"):
                        studies[estimator] = gla.run_convergence_study(
                            self.cfg, estimator, s["shots"], s["trials"], base_seed=base_seed
                        )
                except Exception as exc:  # every cell of the study fails
                    for cell in cells:
                        ledger.fail(cell, f"{type(exc).__name__}: {exc}")
                    raise PassAborted(estimator) from exc
        with ledger.op("estimate-m2"):
            largest = max(s["shots"])
            q = gla.estimate_prior_m2(gla.sample_shots(self.task, largest, base_seed).labelled_zs())
        out = combine_chain(gla, self.task, q, self.pi_s, s["test_per_class"], test_seed,
                            os.path.join(self.work, "prior_p.json"), ledger)
        out.update(q=q, studies=studies)
        return out

    @contextlib.contextmanager
    def _injected(self, estimator, index):
        """With --inject error, M2's first trial raises in pass 0 (a swallowed trial)."""
        if not (self.inject == "error" and index == 0 and estimator == "m2"):
            yield
            return
        import gla.evaluation as evaluation

        original = evaluation.estimate_prior_m2
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise self.gla.errors.OptimizationError("injected failure")
            return original(*args, **kwargs)

        evaluation.estimate_prior_m2 = flaky
        try:
            yield
        finally:
            evaluation.estimate_prior_m2 = original

    def check(self, out, ledger, values):
        gla, s = self.gla, self.shape
        largest = max(s["shots"])
        dropped = 0
        m1_missed = 0
        for estimator, study in out["studies"].items():
            for row in study.rows:
                cell = f"{estimator}@{row.n}"
                values[f"l1.{cell}"] = row.mean_l1
                dropped += s["trials"] - row.n_ok
                if row.n_ok < s["trials"]:
                    ledger.fail(cell, f"{s['trials'] - row.n_ok} of {s['trials']} trials swallowed")
                elif not np.isfinite(row.mean_l1):
                    ledger.fail(cell, f"non-finite l1 {row.mean_l1!r}")
                elif estimator != "naive" and row.mean_l1 > STUDY_L1_TOL:
                    ledger.miss(cell, f"l1 {row.mean_l1:.4f} > {STUDY_L1_TOL}")
                    m1_missed += estimator == "m1"
                else:
                    ledger.ok(cell)
                if row.n == largest:
                    values[f"prior_l1.{estimator}"] = row.mean_l1
        values["trials_dropped"] = dropped
        values["m1_missed"] = m1_missed
        check_combine(gla, self.task, out, ledger, values)


# ---------------------------------------------------------------------------
# cli-k10: the gla CLI as subprocesses (untraced) or in-process (traced).
# ---------------------------------------------------------------------------

CLI_REF_SAMPLES = 3  # reference kernel samples after each stage of an untraced pass
STAGES = ("simulate-test", "simulate-shots", "estimate", "ensemble", "evaluate")
ARTIFACTS = {
    "simulate-test": ("test_zs.csv", "test_ft.csv"),
    "simulate-shots": ("shots_zs.csv", "shots_ft.csv"),
    "estimate": ("prior_p.json",),
    "ensemble": ("combined.csv",),
    "evaluate": ("report.json",),
}


def run_stage(argv, cwd, log_path):
    """Run `python -m gla.cli argv`; return (exit code, seconds, peak RSS in MB).

    The stage inherits this process's environment: PYTHONPATH naming the
    checkout's src, the thread caps and SOURCE_DATE_EPOCH."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gla.cli", *argv], cwd=cwd,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


class CliK10(Workload):
    name = "cli-k10"
    # Stages share the one CPU of the run: the kernel runs between them,
    # never beside one.
    ref_by_timer = False

    def setup(self):
        gla, s = self.gla, self.shape
        k = s["k"]
        task_seed, self.test_seed, self.shot_seed = derive_seeds(
            self.seed, WORKLOAD_IDS[self.name], count=3
        )
        weights = np.arange(k, 0, -1, dtype=float)  # 0.25 -> 0.025 for K=10
        pretrain = gla.ProbabilitySimplex.from_weights(weights)
        source = gla.ProbabilitySimplex.from_weights(weights[::-1])
        self.cfg = gla.SyntheticTaskConfig(
            k=k, dim=s["dim"], mean_separation=s["separation"],
            pretrain_prior=pretrain, source_prior=source, seed=task_seed,
        )
        self.config_path = os.path.join(self.work, "task.json")
        with open(self.config_path, "w") as fh:
            json.dump({"task": {"k": k, "dim": s["dim"], "mean_separation": s["separation"],
                                "seed": task_seed, "pretrain_prior": pretrain.probs.tolist(),
                                "source_prior": source.probs.tolist()}}, fh)
        self.source_path = os.path.join(self.work, "prior_s.json")
        with open(self.source_path, "w") as fh:
            json.dump({"k": k, "probs": [repr(float(x)) for x in source.probs],
                       "estimator": "given"}, fh)
        os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH  # for stages in and out of process
        self.reference_digests = None
        self.reference_check = None

    def argv(self, stage, out, index):
        s = self.shape
        j = lambda name: os.path.join(out, name)  # noqa: E731
        if stage == "simulate-test":
            return ["simulate", "--config", self.config_path, "--out-zs", j("test_zs.csv"),
                    "--out-ft", j("test_ft.csv"), "--n", str(s["test_rows"]),
                    "--seed", str(self.test_seed), "--prior", "balanced"]
        if stage == "simulate-shots":
            return ["simulate", "--config", self.config_path, "--out-zs", j("shots_zs.csv"),
                    "--out-ft", j("shots_ft.csv"), "--n", str(s["shot_rows"]),
                    "--seed", str(self.shot_seed), "--prior", "balanced"]
        if stage == "estimate":
            injected = self.inject == "error" and index == 0
            logits = j("missing.csv" if injected else "shots_zs.csv")
            return ["estimate", "--logits", logits, "--method", "m2", "--out", j("prior_p.json")]
        if stage == "ensemble":
            return ["ensemble", "--ft", j("test_ft.csv"), "--zs", j("test_zs.csv"),
                    "--prior-p", j("prior_p.json"), "--prior-s", self.source_path,
                    "--out", j("combined.csv")]
        return ["evaluate", "--logits", j("combined.csv"), "--balanced", "--report", j("report.json")]

    def run(self, index, traced, ledger, values):
        out = os.path.join(self.work, f"pass{index}")
        os.makedirs(out, exist_ok=True)
        for stage in STAGES:
            argv = self.argv(stage, out, index)
            if traced:
                code, seconds = self._in_process(stage, argv)
            else:
                code, seconds, rss = run_stage(argv, out, os.path.join(out, f"{stage}.log"))
                values[f"cli.{stage}.rss_mb"] = rss
                for _ in range(CLI_REF_SAMPLES):
                    self.ref.sample()
            values[f"cli.{stage}_s"] = seconds
            if code != 0:
                ledger.fail(stage, f"exit code {code}")
                raise PassAborted(stage)
            ledger.ok(stage)
        return out

    def _in_process(self, stage, argv):
        import gla.cli

        start = time.perf_counter()
        with self.tracer.span(f"stage.{stage}", "bench"), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = gla.cli.main(argv)
        return code, time.perf_counter() - start

    def check(self, out, ledger, values):
        digests = {stage: [sha256_file(os.path.join(out, name)) for name in names]
                   for stage, names in ARTIFACTS.items()}
        written = sum(os.path.getsize(os.path.join(out, n)) for names in ARTIFACTS.values() for n in names)
        values["artifact_bytes"] = written
        if self.reference_digests is None:
            self.reference_digests = digests
        for stage in STAGES:
            ledger.check(stage, None if digests[stage] == self.reference_digests[stage]
                         else "artifacts differ from the first pass of this run")
        if self.reference_check is None:
            self.reference_check = self._check_outputs(out)
        problems, check_values = self.reference_check
        values.update(check_values)
        for stage, problem, miss in problems:
            ledger.check(stage, problem, miss=miss)
        # keep disk use to one pass of artifacts
        for name in os.listdir(out):
            os.unlink(os.path.join(out, name))
        os.rmdir(out)

    def _check_outputs(self, out):
        """Recompute the pipeline in-process and compare (once per run:
        the artifacts of every later pass must be byte-identical)."""
        gla = self.gla
        problems = []
        values = {}
        with open(os.path.join(out, "prior_p.json")) as fh:
            probs = np.asarray([float(x) for x in json.load(fh)["probs"]])
        problems.append(("estimate", simplex_problem(probs), False))
        q = gla.ProbabilitySimplex(probs / probs.sum())
        values["prior_l1"] = gla.l1_distance(q, self.cfg.pretrain_prior)
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        task = gla.make_task(self.cfg)
        batch = gla.sample_batch(task, gla.ProbabilitySimplex.uniform(self.cfg.k),
                                 self.shape["test_rows"], self.test_seed)
        est = gla.AdjustmentSpec(pi_s=gla.log_prior(self.cfg.source_prior), pi_p=gla.log_prior(q))
        err_est = gla.top1_error(gla.gla_combine(batch.ft_logits, batch.zs_logits, est), batch.labels)
        n = batch.labels.size
        if report.get("n_examples") != n or abs((1.0 - report["top1_accuracy"]) - err_est) > 0.5 / n:
            problems.append(("evaluate", f"report top1 {report.get('top1_accuracy')!r} disagrees "
                             f"with recomputed error {err_est!r}", False))
        err_true = bayes_error(gla, self.cfg, batch)
        problems.append(("evaluate", excess_problem(values, 1.0 - report["top1_accuracy"], err_true), True))
        return problems, values


WORKLOADS = {cls.name: cls for cls in (CliK10, PriorStudy)}
