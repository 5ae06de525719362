"""Benchmark of the gla pipeline: two workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-k10 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):
  cli-k10      the `gla` CLI as subprocesses, K=10, 100k-row CSVs
  prior-study  `run_convergence_study` for m1, m2 and naive at K=20

Each workload runs in its own child process (so `ru_maxrss` is the
workload's), held to one CPU, with BLAS and OpenMP held to one thread.  With
`--trace 0` the last line of stdout is a JSON object holding the end-to-end
metrics; with `--trace 1` a separate traced run records spans around every
call into the seven `gla` modules and the JSON holds the per-layer metrics.
Lines before it are a readable table.  Full records, the self-time table
and the spans go to `.perfbench_work/` in the checkout.  Workload names,
metric names and units are read from BENCHMARK.json.

Exit status is 0 with a result, 2 when the checkout holds no `src/gla`, and
1 when no pass could be measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
SETUP_PROBES = 7
CHILD_LIMIT_S = 165.0  # a child still running then is killed; the whole run stays under 180 s
MAX_CHILD_STARTS = 2  # a child that dies is replaced once
# On a shared 2-CPU host, two OpenBLAS threads went through phases in which
# a 160x160 product took 50x its usual time, and the solvers and process
# start-ups slowed with it; one thread never did.
BLAS_THREADS = 1
# The host slows one CPU at a time, so the child, its stage subprocesses and
# the reference kernel (reference.py) all run on this one CPU of the set.
RUN_CPU = min(os.sched_getaffinity(0))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def wait_child(proc, deadline):
    """Wait for `proc`, killing it at `deadline`; return (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        time.sleep(0.05)


def end_group(proc):
    """Kill and reap `proc` and whatever is left of its process group (a CLI
    stage outlives a child that was killed), and wait until all have ended."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode is None:
        proc.wait()
    with contextlib.suppress(ProcessLookupError):
        while True:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)


def read_records(path):
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_child(args, env, work, out, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work", work, "--out", out, "--src", SRC, *extra]
    if args.inject:
        cmd += ["--inject", args.inject]
    started = time.monotonic()
    with open(out + ".log", "ab") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True,
                                preexec_fn=lambda: os.sched_setaffinity(0, {RUN_CPU}))
        try:
            code, usage = wait_child(proc, deadline)
        finally:
            end_group(proc)
    return started, code, usage


def setup_seconds(args, env, work) -> list:
    """Set-up time of fresh processes: interpreter start until the workload is ready."""
    times = []
    for i in range(SETUP_PROBES):
        out = os.path.join(work, f"setup{i}.jsonl")
        started, code, _ = run_child(args, env, work, out, ["--setup-only"], time.monotonic() + 60)
        ready = [r for r in read_records(out) if r["kind"] == "ready"]
        if code != 0 or not ready:
            raise RuntimeError(f"set-up probe exited with {code}; see {out}.log")
        times.append(ready[0]["monotonic"] - started)
    return times


def src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "gla"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(env, threads) -> dict:
    sha = None  # a checkout without .git has only the source digest
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    numpy_version, blas, blas_version = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout)
    return {
        "git_sha": sha,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "nproc": nproc(),
        "blas_threads": threads,
        "run_cpu": RUN_CPU,
        "machine": platform.machine(),
    }


def quantile_summary(values):
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values), "min": values[0], "max": values[-1]}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def aggregate(args, records, deaths, setup_times):
    """End-to-end or per-layer metrics from the child records."""
    passes = [r for r in records if r["kind"] == "pass"]
    per_pass_ops = max((r["attempted"] for r in passes), default=1)
    attempted = sum(r["attempted"] for r in passes) + deaths * per_pass_ops
    failed = sum(r["failed"] for r in passes) + deaths * per_pass_ops
    missed = sum(r["missed"] for r in passes)
    untraced = [r for r in passes if not r["traced"]]
    good = [r for r in untraced if r["failed"] == 0] or untraced
    summary = {
        "attempted": attempted, "failed": failed, "missed": missed, "deaths": deaths,
        "pass_s": quantile_summary([r["seconds"] for r in good]),
        # the gated pass time: each pass over the reference kernel's median in that pass
        "pass_ref": quantile_summary([r["seconds"] / statistics.median(r["ref_s"]) for r in good]),
        "ref_s": quantile_summary([t for r in good for t in r["ref_s"]]),
        "notes": sorted({n for r in passes for n in r["notes"]}),
        "n_passes": len(untraced),
    }

    # untraced passes only: traced cli-k10 stages run in-process
    keys = sorted({k for r in untraced for k in r["values"]})
    summary["values"] = {k: statistics.median(r["values"][k] for r in untraced if k in r["values"])
                         for k in keys}
    if args.trace:
        traced = [r for r in passes if r["traced"]]
        done = next(r for r in records if r["kind"] == "done")
        layer = dict(done["layer"])
        traced_s = statistics.median(r["seconds"] for r in traced)
        untraced_s = summary["pass_s"]["median"]
        if args.workload == "cli-k10":
            # the traced pass runs the stages in-process: no interpreter start-ups
            stages = sum(k.endswith(".rss_mb") for k in keys)
            untraced_s -= stages * layer["cli.startup_s"]
        summary.update(traced_pass_s=traced_s, trace_overhead_s=traced_s - untraced_s,
                       layer=layer, spans=done["spans"], n_spans=done["n_spans"])
        return summary
    summary["setup_s"] = quantile_summary(setup_times)
    return summary


def end_to_end(summary, peak_rss_mb) -> dict:
    """Values of the end-to-end metrics, by name."""
    ok = summary["attempted"] - summary["failed"] - summary["missed"]
    return {
        "setup_s": summary["setup_s"]["median"],
        "pass_ref": summary["pass_ref"]["median"],
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok / summary["attempted"],
        "err_ratio": summary["values"].get("err_ratio"),
    }


def per_layer(summary) -> dict:
    """Values of the per-layer metrics, by name."""
    v = summary["values"]
    return dict(summary["layer"], **{
        "prior_estimation.m2_l1": v.get("prior_l1"),
        "prior_estimation.m1_missed": v.get("m1_missed", 0),
        "evaluation.trials_dropped": v.get("trials_dropped", 0),
    })


def with_units(values, section) -> dict:
    """name -> (value, unit) for every metric of a BENCHMARK.json section."""
    return {m["name"]: (values.get(m["name"]), m["unit"]) for m in BENCH[section]}


def print_table(args, summary, metrics, prov):
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("# provenance " + " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                                     for k, v in prov.items()))
    p, ref = summary["pass_s"], summary["ref_s"]
    print(f"# passes: {p['n']} timed (pass_s median {p['median']:.4f} s, min {p['min']:.4f}, "
          f"max {p['max']:.4f}); reference kernel median {1000 * ref['median']:.3f} ms over "
          f"{ref['n']} samples; operations attempted {summary['attempted']}, failed "
          f"{summary['failed']}, missed tolerance {summary['missed']}, child deaths {summary['deaths']}")
    if "setup_s" in summary:
        print(f"# setup_s samples: {summary['setup_s']['n']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!r:>24} {unit}")
    print(f"# reported, not in the result line (medians over {summary['n_passes']} passes):")
    print(f"  {'failed_ratio':34s} {summary['failed'] / summary['attempted']!r}")
    for key, value in summary["values"].items():
        if value is not None:
            print(f"  {key:34s} {value!r}")
    if args.trace:
        layer = summary["layer"]
        print(f"# self time per module in one traced pass (median of passes); "
              f"traced pass {summary['traced_pass_s']:.4f} s, tracing overhead "
              f"{summary['trace_overhead_s']:+.4f} s, {summary['n_spans']} spans in {summary['spans']}")
        total = summary["traced_pass_s"]
        for name in ("cli", "io_formats", "synthlab", "prior_estimation", "ensemble",
                     "evaluation", "numerics"):
            s = layer[f"{name}.self_s"]
            print(f"  {name:18s} {s:10.4f} s  {100 * s / total:5.1f}%")
        others = {k: v for k, v in layer.items() if not k.endswith(".self_s")}
        for key in sorted(others):
            print(f"  {key:34s} {others[key]!r}")
    for note in summary["notes"][:20]:
        print(f"# {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shapes are for the smoke test only")
    parser.add_argument("--inject", choices=["error", "kill"],
                        help="make pass 0 fail, to show failures are counted (smoke test)")
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the child's group is still ended
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "gla", "__init__.py")):
        print(f"no gla package under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2

    begin = time.monotonic()
    threads = min(BLAS_THREADS, nproc())
    env = child_env(threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prov = provenance(env, threads)
        setup_times = [] if args.trace else setup_seconds(args, env, work)
        out = os.path.join(work, "child.jsonl")
        records, deaths, peak_kb = [], 0, 0.0
        extra = []
        for _ in range(MAX_CHILD_STARTS):
            _, code, usage = run_child(args, env, work, out, extra, begin + CHILD_LIMIT_S)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            records = read_records(out)
            if code == 0 and records and records[-1]["kind"] == "done":
                break
            deaths += 1  # the pass in flight when the child died counts as failed
            done_passes = [r["index"] for r in records if r["kind"] == "pass"]
            extra = ["--first-pass", str(max(done_passes, default=-1) + 2)]
            if time.monotonic() - begin > CHILD_LIMIT_S / 2:
                break
        if not any(r["kind"] == "pass" and not r["traced"] for r in records):
            print(f"no pass completed; see {out}.log", file=sys.stderr)
            return 1
        if args.trace and not any(r["kind"] == "done" for r in records):
            print(f"traced run did not finish; see {out}.log", file=sys.stderr)
            return 1
        ready = next(r for r in records if r["kind"] == "ready")
        prov.update(seed=args.seed, shape=ready["shape"], child_threads=ready["threads"])
        summary = aggregate(args, records, deaths, setup_times)
        if args.trace:
            metrics = with_units(per_layer(summary), "per_layer")
        else:
            if args.workload == "cli-k10":
                # the largest stage subprocess; the child itself only drives them
                peak = max(v for r in records if r["kind"] == "pass"
                           for k, v in r["values"].items() if k.endswith(".rss_mb"))
            else:
                peak = peak_kb / 1024.0
            metrics = with_units(end_to_end(summary, peak), "end_to_end")
        print_table(args, summary, metrics, prov)
        result = {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        with open(os.path.join(WORK, f"result-{tag}.json"), "w") as fh:
            json.dump({"args": vars(args), "provenance": prov, "summary": summary,
                       "result": result}, fh, indent=2)
        print(json.dumps(result))
        return 0
    finally:
        for name in os.listdir(work):
            path = os.path.join(work, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
