"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gla
from gla.ensemble import (
    AdjustmentSpec,
    alpha_mix,
    debias_zero_shot,
    gla_combine,
    logit_adjust,
    naive_ensemble,
)
from gla.evaluation import loglog_slope, run_convergence_study, top1_error
from gla.numerics import LabelledLogits, LogitTable, ProbabilitySimplex, log_prior
from gla.prior_estimation import (
    TransitionMatrix,
    build_transition_matrix,
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
    power_iterate,
)
from gla.synthlab import (
    SyntheticTaskConfig,
    bayes_risk,
    binary_naive_bias,
    make_task,
    sample_batch,
    sample_shots,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    # also bypass pytest's capture so the line lands in plain `pytest -v` logs
    print(line, file=sys.__stdout__)
    assert ok, f"{name}: {detail}"


def binomial_se(err: float, n: int) -> float:
    return math.sqrt(max(err * (1.0 - err), 1e-12) / n)


@pytest.fixture(scope="module")
def dominance_tasks():
    """Ten two-view tasks with skewed priors plus 10^4 balanced test samples."""
    rng = np.random.default_rng(42)
    tasks = []
    ks = [2, 3, 5, 4, 2, 3, 5, 2, 4, 3]
    for i, k in enumerate(ks):
        cfg = SyntheticTaskConfig(
            k=k,
            dim=k,
            mean_separation=2.0,
            pretrain_prior=ProbabilitySimplex.from_weights(rng.uniform(0.5, 3.0, k)),
            source_prior=ProbabilitySimplex.from_weights(rng.uniform(0.5, 3.0, k)),
            seed=1000 + i,
        )
        task = make_task(cfg)
        batch = sample_batch(task, ProbabilitySimplex.uniform(k), 10_000, seed=2000 + i)
        tasks.append((cfg, task, batch))
    return tasks


def test_criterion_1_power_iteration_oracle():
    """power_iterate matches a direct fixed-point solve on 100 random
    column-stochastic matrices, l1 <= 1e-6, under 5 s."""
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for k in (2, 3, 4, 8):
        for _ in range(25):
            p = TransitionMatrix(rng.dirichlet(np.ones(k), size=k).T)
            q, _, _ = power_iterate(p)
            if k == 2:
                # analytic fixed point for K=2
                q1 = p.entries[0, 1] / (1.0 - p.entries[0, 0] + p.entries[0, 1])
                target = np.array([q1, 1.0 - q1])
            else:
                w, v = np.linalg.eig(p.entries)
                vec = np.real(v[:, np.argmin(np.abs(w - 1.0))])
                target = vec / vec.sum()
            worst = max(worst, float(np.abs(q.probs - target).sum()))
            count += 1
    elapsed = time.time() - start
    report(
        "criterion 1: power-iteration oracle equivalence",
        count == 100 and worst <= 1e-6 and elapsed < 5.0,
        f"worst l1 {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_naive_bias_identity():
    """Closed-form naive bias identity and lower bound on a (p11, p12) grid,
    plus the worked point (0.9, 0.2), under 1 s."""
    start = time.time()
    ok = True
    for p11 in np.linspace(0.55, 0.99, 23):
        for p12 in np.linspace(0.02, 0.48, 24):
            if p12 >= p11 or p11 + p12 <= 1.0:
                continue
            out = binary_naive_bias(float(p11), float(p12))
            q = out["q_true"]
            measured = q - out["q_naive"]
            ok &= abs(measured - (q - 0.5) * (p11 - p12)) <= 1e-10
            ok &= measured > out["lower_bound"]
    worked = binary_naive_bias(0.9, 0.2)
    ok &= abs(worked["q_true"] - 2 / 3) < 1e-12
    ok &= abs(worked["error"] - 7 / 60) < 1e-12
    ok &= abs(worked["lower_bound"] - 1 / 24) < 1e-12
    elapsed = time.time() - start
    report("criterion 2: naive-bias identity", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_3_prior_recovery_grid():
    """K=2 grid of true priors, 1000/class, 5 seeds: methods 1 and 2 within
    0.05 everywhere; naive off by more than 0.05 when |q1 - 0.5| >= 0.2."""
    start = time.time()
    lines = []
    ok = True
    for q1 in np.arange(0.1, 0.95, 0.1):
        q1 = round(float(q1), 1)
        errs = {"m1": [], "m2": [], "naive": []}
        for seed in range(5):
            cfg = SyntheticTaskConfig(
                k=2, pretrain_prior=ProbabilitySimplex([q1, 1.0 - q1]), seed=seed
            )
            batch = sample_shots(make_task(cfg), 1000, seed=100 + seed)
            data = batch.labelled_zs()
            errs["m1"].append(abs(estimate_prior_m1(data).probs[0] - q1))
            errs["m2"].append(abs(estimate_prior_m2(data).probs[0] - q1))
            errs["naive"].append(abs(estimate_prior_naive(data.logits).probs[0] - q1))
        means = {k: float(np.mean(v)) for k, v in errs.items()}
        ok &= means["m1"] <= 0.05 and means["m2"] <= 0.05
        if abs(q1 - 0.5) >= 0.2:
            ok &= means["naive"] > 0.05
        lines.append(f"q1={q1}: m1={means['m1']:.3f} m2={means['m2']:.3f} naive={means['naive']:.3f}")
    elapsed = time.time() - start
    report(
        "criterion 3: prior recovery grid",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s; " + "; ".join(lines[:3]) + " ...",
    )


def test_criterion_4_convergence_rate():
    """Method 2 l1 error decays like 1/sqrt(N): log-log slope -0.5 +- 0.15
    for K in {2, 5}, 20 trials per shot count, under 120 s."""
    start = time.time()
    slopes = {}
    for k in (2, 5):
        cfg = SyntheticTaskConfig(
            k=k,
            dim=k,
            pretrain_prior=ProbabilitySimplex.from_weights(np.arange(1, k + 1)[::-1]),
            seed=31,
        )
        study = run_convergence_study(
            cfg, "m2", [25, 100, 400, 1600], trials=20, base_seed=17
        )
        slopes[k] = loglog_slope(study)
    elapsed = time.time() - start
    ok = all(abs(s + 0.5) <= 0.15 for s in slopes.values()) and elapsed < 120.0
    report(
        "criterion 4: convergence rate",
        ok,
        f"slopes {slopes}, {elapsed:.1f}s",
    )


def test_criterion_5_gla_dominance(dominance_tasks):
    """GLA error beats every rival within 2 binomial standard errors on each
    task, and sits within 2 SE of the analytic Bayes floor."""
    n = 10_000
    ok = True
    details = []
    for i, (cfg, task, batch) in enumerate(dominance_tasks):
        pi_p = log_prior(cfg.pretrain_prior)
        pi_s = log_prior(cfg.source_prior)
        adj = AdjustmentSpec(pi_s=pi_s, pi_p=pi_p)
        gla_err = top1_error(gla_combine(batch.ft_logits, batch.zs_logits, adj), batch.labels)
        rivals = {
            "ft": batch.ft_logits,
            "zs": batch.zs_logits,
            "la": logit_adjust(batch.ft_logits, pi_s),
            "debiased-zs": debias_zero_shot(batch.zs_logits, pi_p),
            "naive-ens": naive_ensemble(batch.ft_logits, batch.zs_logits),
        }
        for name, rival in rivals.items():
            r_err = top1_error(rival, batch.labels)
            if gla_err > r_err + 2 * binomial_se(r_err, n):
                ok = False
                details.append(f"task {i}: {name} beat gla ({gla_err:.4f} vs {r_err:.4f})")
        floor = bayes_risk(task, ProbabilitySimplex.uniform(cfg.k), n_mc=n, seed=3000 + i)
        slack = 2 * (binomial_se(gla_err, n) + binomial_se(floor, n))
        if abs(gla_err - floor) > slack:
            ok = False
            details.append(f"task {i}: gla {gla_err:.4f} vs bayes {floor:.4f}")
    report("criterion 5: gla dominance", ok, "; ".join(details) or "all tasks")


def test_criterion_6_alpha_sweep(dominance_tasks):
    """Accuracy at alpha=0.5 within 0.5 pp of the best over the alpha grid."""
    ok = True
    details = []
    for i, (cfg, _, batch) in enumerate(dominance_tasks):
        adj = AdjustmentSpec(
            pi_s=log_prior(cfg.source_prior), pi_p=log_prior(cfg.pretrain_prior)
        )
        accs = []
        for alpha in np.linspace(0.0, 1.0, 11):
            mixed = alpha_mix(batch.ft_logits, batch.zs_logits, adj, float(alpha))
            accs.append(1.0 - top1_error(mixed, batch.labels))
        if accs[5] < max(accs) - 0.005:
            ok = False
            details.append(f"task {i}: acc(0.5)={accs[5]:.4f} max={max(accs):.4f}")
    report("criterion 6: alpha sweep", ok, "; ".join(details) or "all tasks")


def test_criterion_7_debias_sweep(dominance_tasks):
    """Debiasing with the true pre-train prior beats 50 random rival
    adjustments per task, within 2 standard errors."""
    n = 10_000
    ok = True
    details = []
    for i, (cfg, _, batch) in enumerate(dominance_tasks):
        pi_p = log_prior(cfg.pretrain_prior)
        true_err = top1_error(debias_zero_shot(batch.zs_logits, pi_p), batch.labels)
        rng = np.random.default_rng(4000 + i)
        for _ in range(50):
            rival_q = ProbabilitySimplex.from_weights(rng.dirichlet(np.ones(cfg.k)))
            rival_err = top1_error(
                debias_zero_shot(batch.zs_logits, log_prior(rival_q)), batch.labels
            )
            if true_err > rival_err + 2 * binomial_se(rival_err, n):
                ok = False
                details.append(f"task {i}: rival {rival_err:.4f} < true {true_err:.4f}")
    report("criterion 7: debias sweep", ok, "; ".join(details) or "all tasks")


def test_criterion_8_balanced_naive_equivalence():
    """On class-balanced data, the naive estimate equals the transition
    matrix applied to the uniform vector, within 1e-9."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for k, per_class in [(2, 30), (3, 17), (5, 40), (8, 9)]:
        scores = rng.normal(size=(k * per_class, k))
        labels = np.repeat(np.arange(k), per_class)
        data = LabelledLogits(LogitTable(scores), labels)
        naive = estimate_prior_naive(data.logits)
        via_p = build_transition_matrix(data).entries @ np.full(k, 1.0 / k)
        worst = max(worst, float(np.abs(naive.probs - via_p).sum()))
    report(
        "criterion 8: balanced-data naive equivalence",
        worst <= 1e-9,
        f"worst l1 {worst:.2e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Full simulate -> estimate -> ensemble -> evaluate pipeline is
    byte-identical across runs with the same seed; exit codes behave."""
    # The stages run with cwd=tmp_path, where a relative PYTHONPATH entry
    # (e.g. PYTHONPATH=src) no longer resolves; put the directory holding the
    # imported `gla` first so the CLI runs the same code as this test.
    gla_root = str(Path(gla.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [gla_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, SOURCE_DATE_EPOCH="1700000000")

    def run(args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "gla.cli", *args],
            capture_output=True, text=True, env=env, cwd=str(cwd),
        )

    config = {
        "task": {
            "k": 3,
            "dim": 3,
            "pretrain_prior": [0.5, 0.3, 0.2],
            "source_prior": [0.2, 0.3, 0.5],
            "seed": 11,
        }
    }
    artifacts = ("zs.csv", "ft.csv", "prior.json", "combined.csv", "report.json")
    runs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        (d / "cfg.json").write_text(json.dumps(config))
        steps = [
            ["simulate", "--config", "cfg.json", "--out-zs", "zs.csv", "--out-ft", "ft.csv",
             "--n", "600", "--seed", "21"],
            ["estimate", "--logits", "zs.csv", "--method", "m2", "--out", "prior.json",
             "--seed", "21"],
            ["ensemble", "--ft", "ft.csv", "--zs", "zs.csv", "--prior-p", "prior.json",
             "--prior-s", "prior.json", "--out", "combined.csv"],
            ["evaluate", "--logits", "combined.csv", "--prior-p", "prior.json",
             "--balanced", "--report", "report.json"],
        ]
        for step in steps:
            proc = run(step, d)
            assert proc.returncode == 0, f"{step}: {proc.stderr}"
        runs.append({name: (d / name).read_bytes() for name in artifacts})
    identical = all(runs[0][name] == runs[1][name] for name in artifacts)

    # exit-code matrix
    d = tmp_path / "a"
    codes = {
        "success": run(["evaluate", "--logits", "combined.csv", "--report", "r2.json"], d).returncode,
        "domain": run(["estimate", "--logits", "missing.csv", "--method", "m2",
                       "--out", "x.json"], d).returncode,
        "usage": run(["estimate", "--logits", "zs.csv", "--method", "bogus",
                      "--out", "x.json"], d).returncode,
        "config": run(["study", "--config", "cfg.json", "--estimator", "m2",
                       "--out", "s.csv"], d).returncode,
    }
    # the study config above is valid, so add a truly broken one
    (d / "bad.json").write_text("{broken")
    codes["bad_config"] = run(
        ["study", "--config", "bad.json", "--estimator", "m2", "--out", "s.csv"], d
    ).returncode
    matrix_ok = (
        codes["success"] == 0
        and codes["domain"] == 1
        and codes["usage"] == 2
        and codes["config"] == 0
        and codes["bad_config"] == 2
    )
    report(
        "criterion 9: cli determinism and exit codes",
        identical and matrix_ok,
        f"identical={identical}, codes={codes}",
    )
