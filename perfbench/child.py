"""Run one workload in this process and stream its records as JSON lines.

Started by `run.py`, never by hand:

    python3 perfbench/child.py --workload prior-study --seed 1 --seconds 20 \
        --trace 0 --scale full --work DIR --out FILE [--setup-only] [--inject error|kill]

Records: one "ready" record when set-up is done, one "pass" record per
pass (written as soon as the pass ends, so a child that dies leaves the
passes it finished), and a final "done" record.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS

SAVES = ("save_logits", "save_prior", "save_report", "save_study_csv")
LOADS = ("load_logits", "load_prior", "load_run_config")
STARTUP_PROBES = 3
LOGIT_TABLE_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Counters:
    """Per-pass counts taken at the wrapped calls."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_pass = {}
        self.largest_scores = None
        for name in SAVES:
            tracer.observers[f"io_formats.{name}"] = self._bytes("bytes_written")
        for name in LOADS:
            tracer.observers[f"io_formats.{name}"] = self._bytes("bytes_read")
        for name in ("sample_batch", "sample_shots"):
            tracer.observers[f"synthlab.{name}"] = self._rows
        tracer.observers["prior_estimation.power_iterate"] = self._power
        tracer.observers["numerics.LogitTable"] = self._table

    def get(self):
        return self.by_pass.setdefault(self.tracer.pass_id, {"bytes_written": 0, "bytes_read": 0,
                                                              "rows": 0, "iters": [], "residual": []})

    def _bytes(self, key):
        def observe(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self.get()[key] += os.path.getsize(path)
        return observe

    def _rows(self, args, kwargs, result):
        self.get()["rows"] += int(result.labels.size)

    def _power(self, args, kwargs, result):
        _, iters, residual = result
        self.get()["iters"].append(iters)
        self.get()["residual"].append(residual)

    def _table(self, args, kwargs, result):
        scores = args[0].scores
        if self.largest_scores is None or scores.size > self.largest_scores.size:
            self.largest_scores = scores


def cli_startup_seconds() -> float:
    """Median wall time of `python -m gla.cli --help`."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "gla.cli", "--help"], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def logit_table_seconds(gla, scores) -> float:
    """Median time to construct a LogitTable from a fresh copy of `scores`."""
    times = []
    for _ in range(LOGIT_TABLE_PROBES):
        fresh = np.array(scores)
        start = time.perf_counter()
        gla.LogitTable(fresh)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(tracer, counters, pass_id) -> dict:
    """Per-layer metrics of one traced pass."""
    own = tracer.self_times(pass_id)
    c = counters.by_pass.get(pass_id, {})
    save_s = tracer.inclusive(pass_id, [f"io_formats.{n}" for n in SAVES])
    load_s = tracer.inclusive(pass_id, [f"io_formats.{n}" for n in LOADS])
    sample_s = tracer.inclusive(pass_id, ["synthlab.sample_batch", "synthlab.sample_shots"])
    m = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    m.update({
        "io_formats.save_s": save_s,
        "io_formats.load_s": load_s,
        "io_formats.bytes_written": c.get("bytes_written", 0),
        "io_formats.bytes_read": c.get("bytes_read", 0),
        "io_formats.save_mb_per_s": c.get("bytes_written", 0) / 1e6 / save_s if save_s else 0.0,
        "io_formats.load_mb_per_s": c.get("bytes_read", 0) / 1e6 / load_s if load_s else 0.0,
        "synthlab.sample_s": sample_s,
        "synthlab.rows_per_s": c.get("rows", 0) / sample_s if sample_s else 0.0,
        "prior_estimation.transition_s": tracer.inclusive(pass_id, ["prior_estimation.build_transition_matrix"]),
        "prior_estimation.m2_s": tracer.inclusive(pass_id, ["prior_estimation.power_iterate"]),
        "prior_estimation.m1_s": tracer.inclusive(pass_id, ["prior_estimation.estimate_prior_m1"]),
        "prior_estimation.naive_s": tracer.inclusive(pass_id, ["prior_estimation.estimate_prior_naive"]),
        "prior_estimation.m2_iters": statistics.median(c["iters"]) if c.get("iters") else 0,
        "prior_estimation.m2_residual": statistics.median(c["residual"]) if c.get("residual") else 0.0,
        "ensemble.combine_s": tracer.inclusive(pass_id, ["ensemble.gla_combine"]),
        "evaluation.report_s": tracer.inclusive(pass_id, ["evaluation.breakdown_report"]),
    })
    for estimator in ("m1", "m2", "naive"):
        spans = [s for s in tracer.spans if s[5] == pass_id and s[0] == f"study.{estimator}"]
        m[f"evaluation.study_s.{estimator}"] = sum(s[3] - s[2] for s in spans)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--inject", choices=["error", "kill"])
    args = parser.parse_args(argv)

    out = open(args.out, "a")

    def emit(record):
        out.write(json.dumps(record) + "\n")
        out.flush()

    tracer = Tracer()
    traced_run = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.work, tracer, args.inject)
    gla = workload.gla
    if traced_run:
        tracer.install()
        tracer.pass_id = "setup"
        tracer.active = True
    src = os.path.realpath(args.src)
    if not os.path.realpath(gla.__file__).startswith(src + os.sep):
        print(f"gla imported from {gla.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload.setup()
    tracer.active = False
    emit({"kind": "ready", "monotonic": time.monotonic(), "shape": workload.shape,
          "threads": {v: os.environ.get(v) for v in THREAD_VARS}})
    if args.setup_only:
        return 0

    counters = Counters(tracer)
    startup = None
    if traced_run:
        startup = cli_startup_seconds()
    index = args.first_pass
    start = time.perf_counter()
    kinds_done = set()
    while True:
        traced = traced_run and index % 2 == 1
        if args.inject == "kill" and index == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        began = time.perf_counter()
        seconds, ledger, values, ref_s = workload.timed(index, traced)
        took = time.perf_counter() - began
        attempted, failed, missed = ledger.counts()
        emit({"kind": "pass", "index": index, "traced": traced, "seconds": seconds, "ref_s": ref_s,
              "attempted": attempted, "failed": failed, "missed": missed,
              "notes": ledger.notes, "values": values})
        kinds_done.add(traced)
        index += 1
        # one pass of each kind, then stop when another pass like the last
        # one would end after --seconds (so a slow host cannot stretch a run
        # to several times --seconds)
        enough = len(kinds_done) == (2 if traced_run else 1)
        if enough and time.perf_counter() - start + took > args.seconds:
            break

    done = {"kind": "done"}
    if traced_run:
        per_pass = [layer_metrics(tracer, counters, pid)
                    for pid in sorted({s[5] for s in tracer.spans if isinstance(s[5], int)})]
        layer = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        make_task = [s[3] - s[2] for s in tracer.spans if s[0] == "synthlab.make_task"]
        layer["synthlab.make_task_s"] = statistics.median(make_task)
        layer["cli.startup_s"] = startup
        if counters.largest_scores is not None:
            layer["numerics.logit_table_s"] = logit_table_seconds(gla, counters.largest_scores)
            layer["numerics.logit_table_shape"] = list(counters.largest_scores.shape)
        spans_path = os.path.join(os.path.dirname(args.out),
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        done.update(layer=layer, spans=spans_path, n_spans=len(tracer.spans),
                    traced_passes=len(per_pass))
    emit(done)
    out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
