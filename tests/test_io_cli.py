import json
import math

import numpy as np
import pytest

from gla.cli import main
from gla.errors import ConfigError, ParseError
from gla.io_formats import (
    PriorDocument,
    load_logits,
    load_prior,
    load_run_config,
    parse_run_config,
    save_logits,
    save_prior,
)
from gla.numerics import LabelledLogits, LogitTable, ProbabilitySimplex


@pytest.fixture(autouse=True)
def fixed_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def write(path, text):
    path.write_text(text)
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

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "t.csv", "c0,c1,c2\n0,1,2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_logits(p)


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

    def test_rejects_unknown_key(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            json.dumps({"k": 2, "probs": [0.5, 0.5], "extra": 1}),
        )
        with pytest.raises(ParseError, match="extra"):
            load_prior(path)


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

    def test_task_section(self):
        cfg = parse_run_config(
            {"task": {"k": 3, "dim": 3, "pretrain_prior": [0.5, 0.3, 0.2]}}
        )
        assert cfg.task.k == 3
        assert np.allclose(cfg.task.pretrain_prior.probs, [0.5, 0.3, 0.2])

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

    def test_floored_one_hot_prior(self, tmp_path, monkeypatch):
        ft = make_fixture_csv(tmp_path, "ft.csv", [np.arange(10.0)], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [np.zeros(10)], [0])
        pp, ps = str(tmp_path / "pp.json"), str(tmp_path / "ps.json")
        save_prior(pp, PriorDocument(prior=ProbabilitySimplex(np.eye(10)[0])))
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex.uniform(10)))
        monkeypatch.setenv("GLA_DEFAULT_FLOOR", "1e-6")
        out = str(tmp_path / "out.csv")
        code = main(
            ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        )
        assert code == 0
        assert np.all(np.isfinite(load_logits(out).logits.scores))

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
        payload = json.loads(open(report).read())
        assert payload["top1_accuracy"] == 1.0

    def test_nine_one_fixture(self, tmp_path):
        rows = np.tile([5.0, 0.0], (10, 1))
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0] * 9 + [1])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--balanced", "--report", report]) == 0
        payload = json.loads(open(report).read())
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
        payload = json.loads(open(report).read())
        assert payload["metadata"]["groups"] == {
            "head": [0, 1],
            "medium": [2, 3],
            "tail": [4, 5],
        }

    def test_unlabelled_exit_1(self, tmp_path):
        path = write(tmp_path / "l.csv", "label,c0,c1\n,1,2\n")
        code = main(["evaluate", "--logits", path, "--report", str(tmp_path / "r.json")])
        assert code == 1


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
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "n,mean_l1,std,bound"
        assert len(lines) == 3

    def test_study_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["study", "--config", cfg, "--estimator", "m2", "--out", a])
        main(["study", "--config", cfg, "--estimator", "m2", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_study_config_error_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps({"study": {"shots": [10]}}))
        assert main(["study", "--config", cfg, "--estimator", "m2", "--out", "x.csv"]) == 2

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
    def test_resolution_order(self, monkeypatch):
        from gla.cli import _resolve_floor

        monkeypatch.delenv("GLA_DEFAULT_FLOOR", raising=False)
        assert _resolve_floor(None) == 1e-12
        monkeypatch.setenv("GLA_DEFAULT_FLOOR", "1e-6")
        assert _resolve_floor(None) == 1e-6
        assert _resolve_floor(1e-4) == 1e-4

    def test_bad_env_value(self, monkeypatch):
        from gla.cli import _resolve_floor

        monkeypatch.setenv("GLA_DEFAULT_FLOOR", "zero")
        with pytest.raises(ConfigError):
            _resolve_floor(None)
