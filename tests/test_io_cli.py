import json
import math
import os
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gla import prior_estimation
from gla.cli import main
from gla.errors import ConfigError, InvalidInput, ParseError
from gla.evaluation import EvalReport
from gla.io_formats import (
    LOGIT_BLOCK_FIELDS,
    PriorDocument,
    atomic_write_text,
    load_logits,
    load_prior,
    load_run_config,
    parse_run_config,
    save_logits,
    save_prior,
    save_report,
)
from gla.numerics import LabelledLogits, LogitTable, ProbabilitySimplex


@pytest.fixture(autouse=True)
def fixed_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def write(path, text):
    path.write_text(text)
    return str(path)


NOT_UTF8 = {
    "logits": b"label,c0,c1\n0,1.0,2.0\n1,0.5,\xff\n",
    "prior": b'{"k": 2, "probs": [0.5, 0.5], "source_split": "\xff"}\n',
    "config": b'{"task": {"k": 2, "seed": 1}}\xff\n',
}


def write_bytes(path, data):
    path.write_bytes(data)
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

    def test_save_rejects_bad_labels(self, tmp_path):
        table = LogitTable(np.zeros((2, 3)))
        path = tmp_path / "t.csv"
        for labels in ([1.5, 0.2], [-1, 0], [0, 7]):
            with pytest.raises(InvalidInput):
                save_logits(str(path), table, labels)
            assert not path.exists()

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "t.csv", "c0,c1,c2\n0,1,2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_logits(p)

    def test_golden_bytes(self, tmp_path):
        table = LogitTable(np.array([[-0.0, 5e-324, 1e300], [0.1, 1.0, -2.5]]))
        path = tmp_path / "t.csv"
        save_logits(str(path), table, [2, 0])
        assert path.read_bytes() == (
            b"label,c0,c1,c2\n"
            b"2,-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
            b"0,0.10000000000000001,1,-2.5\n"
        )
        save_logits(str(path), table)
        assert path.read_bytes() == (
            b"label,c0,c1,c2\n"
            b",-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
            b",0.10000000000000001,1,-2.5\n"
        )
        loaded = load_logits(str(path))
        assert np.array_equal(loaded.scores, table.scores)
        assert np.signbit(loaded.scores[0, 0])

    @pytest.mark.parametrize(
        "body, line, what",
        [
            ("0,1,2\n1.5,3,4\n", 3, "bad label '1.5'"),
            ("0,1,2\n1,3,4\n0,x,2\n", 4, "bad numeric field"),
            ("0,1\n0,1,2\n", 2, "expected 3 fields, got 2"),
            ("", 2, "no data rows"),
            ("0,1,2\n1,3,4\n0,2,nan\n1,nan,0\n", 4, "non-finite score"),
            ("0,1,2\n1,3,4\n0,2,inf\n1,inf,0\n", 4, "non-finite score"),
            ("0,1,2\n1,3,4\n0,-inf,2\n1,-inf,0\n", 4, "non-finite score"),
        ],
    )
    def test_error_line_numbers(self, tmp_path, body, line, what):
        p = write(tmp_path / "t.csv", "label,c0,c1\n" + body)
        with pytest.raises(ParseError, match=f"^line {line}: {what}") as info:
            load_logits(p)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "row, what",
        [('0,"1",2', "bad numeric field"), ("0,1_0,2", "bad numeric field"), ("#0,1,2", "bad label '#0'")],
    )
    def test_no_quoting_comments_or_underscores(self, tmp_path, row, what):
        p = write(tmp_path / "t.csv", f"label,c0,c1\n{row}\n")
        with pytest.raises(ParseError, match=f"^line 2: {what}"):
            load_logits(p)

    def test_error_without_row_is_parse_error(self, tmp_path, monkeypatch):
        def no_row(*args, **kwargs):
            raise ValueError("could not convert string 'x' to float64")

        monkeypatch.setattr(np, "loadtxt", no_row)
        p = write(tmp_path / "t.csv", "label,c0,c1\n0,x,2\n")
        with pytest.raises(ParseError):
            load_logits(p)


def row_by_row_csv(scores, labels):
    """The logit CSV text written one row and one float at a time."""
    lines = ["label," + ",".join(f"c{i}" for i in range(scores.shape[1]))]
    for i, row in enumerate(scores):
        lab = "" if labels is None else str(int(labels[i]))
        lines.append(lab + "," + ",".join("%.17g" % x for x in row))
    return ("\n".join(lines) + "\n").encode()


def deep_csv(tmp_path, lineno, line, n=100_000):
    """A 100k-row K=2 logit CSV whose line `lineno` is replaced by `line`."""
    rows = [b"0,1,2\n"] * n
    rows[lineno - 2] = line
    return write_bytes(tmp_path / "deep.csv", b"label,c0,c1\n" + b"".join(rows))


class TestLogitStreaming:
    @pytest.mark.parametrize("k", [2, 10, 1000])
    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    def test_bytes_at_block_edges(self, tmp_path, k, labelled):
        step = max(1, LOGIT_BLOCK_FIELDS // (k + 1))
        rng = np.random.default_rng(k)
        path = tmp_path / "t.csv"
        for n in (step - 1, step, step + 1, 2 * step + 1):
            scores = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-300, 300, size=(n, k))
            scores[0, 0], scores[-1, -1] = -0.0, 5e-324
            labels = rng.integers(0, k, n) if labelled else None
            save_logits(str(path), LogitTable(scores), labels)
            assert path.read_bytes() == row_by_row_csv(scores, labels), n
            loaded = load_logits(str(path))
            table = loaded.logits if labelled else loaded
            assert np.array_equal(table.scores, scores)
            assert np.array_equal(np.signbit(table.scores), np.signbit(scores))
            if labelled:
                assert np.array_equal(loaded.labels, labels)

    def test_memory_is_table_plus_one_block(self, tmp_path):
        # a whole-file text copy of this 16 MB table is about 38 MB
        n, k = 20_000, 100
        table = LogitTable(np.random.default_rng(0).normal(size=(n, k)))
        path = str(tmp_path / "t.csv")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_logits(path, table, np.arange(n) % k)
            save_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_logits(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak < 8e6
        assert load_peak < 3 * table.scores.nbytes
        assert np.array_equal(loaded.logits.scores, table.scores)

    def test_load_holds_one_table(self, tmp_path):
        # the score columns are compacted inside loadtxt's N x (K+1) result
        n, k = 20_000, 100
        table = LogitTable(np.random.default_rng(1).normal(size=(n, k)))
        path = str(tmp_path / "t.csv")
        save_logits(path, table, np.arange(n) % k)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_logits(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert load_peak <= 1.3 * table.scores.nbytes
        assert np.array_equal(loaded.logits.scores, table.scores)
        assert np.array_equal(loaded.labels, np.arange(n) % k)

    def test_not_utf8_on_last_line(self, tmp_path):
        path = deep_csv(tmp_path, 100_001, b"1,0.5,\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{path} is not UTF-8 text")):
            load_logits(path)

    @pytest.mark.parametrize("lineno, line, what", [
        (90_001, b"\n", "expected 3 fields, got 1"),
        (99_999, b"0,1\n", "expected 3 fields, got 2"),
        (95_000, b"1.5,3,4\n", "bad label '1.5'"),
        (100_001, b"0,1,x\n", "bad numeric field"),
    ], ids=["blank", "ragged", "label", "numeric"])
    def test_deep_errors_name_their_line(self, tmp_path, lineno, line, what):
        path = deep_csv(tmp_path, lineno, line)
        with pytest.raises(ParseError, match=f"^line {lineno}: {what}$"):
            load_logits(path)

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_failed_stream_leaves_target(self, tmp_path, exc):
        target = tmp_path / "t.csv"
        target.write_text("old\n")

        def blocks():
            yield "label,c0,c1\n"
            yield "0,1,2\n" * 10_000
            raise exc

        with pytest.raises(type(exc)):
            atomic_write_text(str(target), blocks())
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


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

    def test_rejects_non_integer_k_and_seed(self, tmp_path):
        for fields in ({"k": 2.9}, {"k": "2"}, {"k": 2, "seed": 1.5}, {"k": 2, "seed": True}):
            path = write(tmp_path / "p.json", json.dumps({"probs": [0.5, 0.5], **fields}))
            with pytest.raises(ParseError):
                load_prior(path)

    def test_probs_must_be_a_list_of_numbers(self, tmp_path):
        for probs in ("01", [True, False], [1, False], {"a": 1}, [None, 1.0], ["x", "1"]):
            path = write(tmp_path / "p.json", json.dumps({"k": 2, "probs": probs}))
            with pytest.raises(ParseError):
                load_prior(path)
        # numeric strings are what save_prior writes
        for probs in (["0.25", "0.75"], [0.25, "0.75"], [0, 1]):
            path = write(tmp_path / "p.json", json.dumps({"k": 2, "probs": probs}))
            assert load_prior(path).prior.probs.tolist() == [float(x) for x in probs]

    @pytest.mark.parametrize("probs", ['[NaN, 1.0]', '[Infinity, 1.0]', '[0.5, -Infinity]', '["nan", "1"]'])
    def test_rejects_non_finite_probs(self, tmp_path, probs):
        path = write(tmp_path / "p.json", f'{{"k": 2, "probs": {probs}}}')
        with pytest.raises(ParseError, match="probs is not a finite probability simplex"):
            load_prior(path)

    def test_rejects_unknown_key(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            json.dumps({"k": 2, "probs": [0.5, 0.5], "extra": 1}),
        )
        with pytest.raises(ParseError, match="extra"):
            load_prior(path)


@pytest.mark.parametrize("kind, load, error", [
    ("logits", load_logits, ParseError),
    ("prior", load_prior, ParseError),
    ("config", load_run_config, ConfigError),
])
def test_not_utf8_is_named_error(tmp_path, kind, load, error):
    path = write_bytes(tmp_path / kind, NOT_UTF8[kind])
    with pytest.raises(error, match=re.escape(f"{path} is not UTF-8 text")):
        load(path)


MALFORMED_PROBS = {
    "string": '"ab"',
    "non-number": '["x", 1]',
    "object": '{"a": 1}',
    "bools": "[true, false]",
    "nested": "[[0.5, 0.5]]",
}


@pytest.mark.parametrize("kind, body, key", [
    *[pytest.param("config", f'{{"task": {{"k": 2, "pretrain_prior": {value}}}}}', "task.pretrain_prior",
                   id=f"config-{name}") for name, value in MALFORMED_PROBS.items()],
    *[pytest.param("prior", f'{{"k": 2, "probs": {value}}}', "probs", id=f"prior-{name}")
      for name, value in MALFORMED_PROBS.items()],
    *[pytest.param("prior", f'{{"k": 2, "probs": [0.5, 0.5], "{key}": {value}}}', key, id=f"prior-{key}-{value}")
      for key in ("source_split", "created_at") for value in ("5", "null", '{"a": 1}')],
    # not a finite real number: a bool, null, a string, an infinity, NaN, an int past float range
    *[pytest.param("config", f'{{"task": {{"k": 2, "mean_separation": {value}}}}}', "task.mean_separation",
                   id=f"config-mean_separation-{value[:10]}")
      for value in ("true", "null", '"x"', "Infinity", "-Infinity", "NaN", "1" + "0" * 400)],
    # past the decoder's limits: an integer over 4300 digits, nesting past the recursion limit
    *[pytest.param(kind, body, "invalid JSON", id=f"{kind}-{name}") for kind in ("config", "prior")
      for name, body in (("long-int", "[1" + "0" * 5000 + "]"), ("deep", "[" * 100_000 + "]" * 100_000))],
])
def test_malformed_document_is_named_error(tmp_path, capsys, kind, body, key):
    """Run configs fail with exit code 2 and prior files with exit code 1,
    naming the key and writing nothing."""
    doc = write(tmp_path / "doc.json", body)
    out = str(tmp_path / "out.csv")
    if kind == "config":
        runs = [["simulate", "--config", doc, "--out-zs", out, "--out-ft", str(tmp_path / "ft.csv"), "--n", "4"],
                ["study", "--config", doc, "--estimator", "m2", "--out", out]]
        code = 2
    else:
        logits = make_fixture_csv(tmp_path, "l.csv", [[1.0, 2.0]], [0])
        ps = str(tmp_path / "ps.json")
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex([0.5, 0.5])))
        runs = [["ensemble", "--ft", logits, "--zs", logits, "--prior-p", doc, "--prior-s", ps, "--out", out]]
        code = 1
    inputs = sorted(tmp_path.iterdir())
    for argv in runs:
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
    assert sorted(tmp_path.iterdir()) == inputs


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
        # the study's delta and the lab's noise scale are constants
        with pytest.raises(ConfigError, match="'study.delta'"):
            parse_run_config({"study": {"delta": 0.05}})
        with pytest.raises(ConfigError, match="'task.noise_sigma'"):
            parse_run_config({"task": {"k": 2, "noise_sigma": 1.0}})

    def test_task_section(self):
        cfg = parse_run_config(
            {"task": {"k": 3, "dim": 3, "pretrain_prior": [0.5, 0.3, 0.2]}}
        )
        assert cfg.task.k == 3
        # mean_separation is a float, so an integer is fine too
        for sep in (2, 2.5):
            assert parse_run_config({"task": {"mean_separation": sep}}).task.mean_separation == sep
        assert np.allclose(cfg.task.pretrain_prior.probs, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"task": {"k": 2.0}}, "task.k"),
            ({"task": {"k": 2, "dim": 2.5}}, "task.dim"),
            ({"task": {"k": 2, "seed": True}}, "task.seed"),
            ({"task": {"k": 2, "seed": "1"}}, "task.seed"),
            ({"study": {"trials": 1.5}}, "study.trials"),
            ({"study": {"base_seed": None}}, "study.base_seed"),
            ({"study": {"shots": [10.7, 20]}}, r"study.shots\[0\]"),
            ({"study": {"shots": [10, False]}}, r"study.shots\[1\]"),
            ({"study": {"shots": 10}}, "study.shots"),
        ],
    )
    def test_integer_keys_type_checked(self, payload, key):
        with pytest.raises(ConfigError, match=key):
            parse_run_config(payload)

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

    @pytest.mark.parametrize("value", ["abc", "99999999999999999"])
    def test_bad_source_date_epoch_exit_2(self, tmp_path, monkeypatch, capsys, value):
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        out = str(tmp_path / "prior.json")
        assert main(["estimate", "--logits", logits, "--method", "m2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "SOURCE_DATE_EPOCH" in err and repr(value) in err
        # commands that write no prior do not read the variable
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--report", report]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "r.json"]

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

    def test_not_utf8_logits_exit_1(self, tmp_path, capsys):
        logits = write_bytes(tmp_path / "l.csv", NOT_UTF8["logits"])
        out = str(tmp_path / "p.json")
        assert main(["estimate", "--logits", logits, "--method", "m2", "--out", out]) == 1
        assert f"{logits} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

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
            ({"task": {"k": 2}, "study": {"delta": 0.1}}, "study.delta"),
            ({"task": {"k": 2, "noise_sigma": 2.0}}, "task.noise_sigma"),
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

    def test_floored_one_hot_prior(self, tmp_path):
        ft = make_fixture_csv(tmp_path, "ft.csv", [np.arange(10.0)], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [np.zeros(10)], [0])
        pp, ps = str(tmp_path / "pp.json"), str(tmp_path / "ps.json")
        save_prior(pp, PriorDocument(prior=ProbabilitySimplex(np.eye(10)[0])))
        save_prior(ps, PriorDocument(prior=ProbabilitySimplex.uniform(10)))
        out = str(tmp_path / "out.csv")
        code = main(
            ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        )
        assert code == 0
        assert np.all(np.isfinite(load_logits(out).logits.scores))

    def test_floor_flag_removed_exit_2(self, tmp_path, capsys):
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[0.5, 0.5]], [0])
        pp, ps = self._priors(tmp_path)
        out = str(tmp_path / "out.csv")
        argv = ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        assert main(argv + ["--floor", "1e-6"]) == 2
        assert "--floor" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_alpha_with_prior_t_exit_2(self, tmp_path, capsys):
        # alpha_mix has no target-prior term, so it would ignore --prior-t
        ft = make_fixture_csv(tmp_path, "ft.csv", [[1.0, 2.0]], [0])
        zs = make_fixture_csv(tmp_path, "zs.csv", [[0.5, 0.5]], [0])
        pp, ps = self._priors(tmp_path)
        out = str(tmp_path / "out.csv")
        argv = ["ensemble", "--ft", ft, "--zs", zs, "--prior-p", pp, "--prior-s", ps, "--out", out]
        assert main(argv + ["--alpha", "0.5", "--prior-t", ps]) == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and "--prior-t" in err
        assert not (tmp_path / "out.csv").exists()

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
        payload = json.loads(Path(report).read_text())
        assert payload["top1_accuracy"] == 1.0

    def test_nine_one_fixture(self, tmp_path):
        rows = np.tile([5.0, 0.0], (10, 1))
        logits = make_fixture_csv(tmp_path, "l.csv", rows, [0] * 9 + [1])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--balanced", "--report", report]) == 0
        payload = json.loads(Path(report).read_text())
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
        payload = json.loads(Path(report).read_text())
        assert payload["metadata"]["groups"] == {
            "head": [0, 1],
            "medium": [2, 3],
            "tail": [4, 5],
        }

    def test_floor_flag_removed_exit_2(self, tmp_path, capsys):
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--report", report, "--floor", "1e-6"]) == 2
        assert "--floor" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_1_names_line(self, tmp_path, capsys, value):
        path = write(tmp_path / "l.csv", f"label,c0,c1\n0,5,0\n1,{value},5\n")
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", path, "--report", report]) == 1
        assert "line 3: non-finite score" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unlabelled_exit_1(self, tmp_path):
        path = write(tmp_path / "l.csv", "label,c0,c1\n,1,2\n")
        code = main(["evaluate", "--logits", path, "--report", str(tmp_path / "r.json")])
        assert code == 1

    def test_not_utf8_logits_or_prior_exit_1(self, tmp_path, capsys):
        good = make_fixture_csv(tmp_path, "good.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        bad = write_bytes(tmp_path / "bad.csv", NOT_UTF8["logits"])
        prior = write_bytes(tmp_path / "p.json", NOT_UTF8["prior"])
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", bad, "--report", report]) == 1
        assert f"{bad} is not UTF-8 text" in capsys.readouterr().err
        assert main(["evaluate", "--logits", good, "--prior-p", prior, "--report", report]) == 1
        assert f"{prior} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    def test_reports_are_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        # at K=2 the head and tail groups have no classes, so no accuracy
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0], [1.0, 0.0]], [0, 1, 1])
        prior = str(tmp_path / "p.json")
        save_prior(prior, PriorDocument(prior=ProbabilitySimplex([0.7, 0.3])))
        report = str(tmp_path / "r.json")
        assert main(["evaluate", "--logits", logits, "--prior-p", prior, "--report", report]) == 0
        payload = json.loads(Path(report).read_text(), parse_constant=reject)
        assert payload["breakdown"] == {"head": None, "medium": 2 / 3, "tail": None}
        json.loads(Path(prior).read_text(), parse_constant=reject)
        bad = EvalReport(1.0, 1.0, np.ones(2), {"medium": 1.0}, 2, {"x": math.inf})
        with pytest.raises(ValueError):
            save_report(str(tmp_path / "bad.json"), bad)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "p.json", "r.json"]


class TestOutputModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_outputs_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
            prior = str(tmp_path / "p.json")
            assert main(["estimate", "--logits", logits, "--method", "m2", "--out", prior]) == 0
            report = str(tmp_path / "r.json")
            assert main(["evaluate", "--logits", logits, "--report", report]) == 0
            assert main(["evaluate", "--logits", logits, "--report", report]) == 0  # replaces
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "p.json", "r.json"]
        for path in tmp_path.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name

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
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "n,mean_l1,std,bound"
        assert len(lines) == 3

    def test_study_row_lines_count_good_trials(self, tmp_path, capsys, monkeypatch):
        cfg = self._config(tmp_path, trials=3)
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--estimator", "m1", "--out", out]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == ["N=25:", "N=100:"]
        assert all(row.endswith(" ok=3/3") for row in rows)
        csv = Path(out).read_bytes()
        # an unconverged Method 1 fit is not a good trial; the CSV keeps its columns
        monkeypatch.setattr(prior_estimation, "M1_MAX_ITERS", 1)
        assert main(["study", "--config", cfg, "--estimator", "m1", "--out", out]) == 0
        captured = capsys.readouterr()
        assert [row.split()[-1] for row in captured.out.splitlines()] == ["ok=0/3", "ok=0/3"]
        assert captured.err == ""
        lines = Path(out).read_text().splitlines()
        assert lines[0] == csv.decode().splitlines()[0] and lines[1].startswith("25,nan,nan,")

    def test_study_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["study", "--config", cfg, "--estimator", "m2", "--out", a])
        main(["study", "--config", cfg, "--estimator", "m2", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_study_config_error_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps({"study": {"shots": [10]}}))
        assert main(["study", "--config", cfg, "--estimator", "m2", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize("study, key", [
        ({"shots": []}, "study.shots"),
        ({"shots": [0, 25]}, "study.shots"),
        ({"trials": 0}, "study.trials"),
        ({"base_seed": -1}, "study.base_seed"),
    ], ids=["empty-shots", "zero-shots", "zero-trials", "negative-seed"])
    def test_study_range_error_exit_2(self, tmp_path, capsys, study, key):
        cfg = self._config(tmp_path, **study)
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--estimator", "m2", "--out", out]) == 2
        assert key in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    def test_non_integer_config_exit_2(self, tmp_path, capsys):
        zs, ft = str(tmp_path / "zs.csv"), str(tmp_path / "ft.csv")
        out = str(tmp_path / "study.csv")
        for study, task, key in (
            ({}, {"dim": 2.5}, "task.dim"),
            ({"trials": 1.5}, {}, "study.trials"),
            ({"shots": [10.7, 20]}, {}, "study.shots"),
        ):
            payload = {"task": {"k": 2, **task}, "study": {"shots": [25], "trials": 1, **study}}
            cfg = write(tmp_path / "cfg.json", json.dumps(payload))
            assert main(["simulate", "--config", cfg, "--out-zs", zs, "--out-ft", ft, "--n", "4"]) == 2
            assert key in capsys.readouterr().err
            assert main(["study", "--config", cfg, "--estimator", "m2", "--out", out]) == 2
            assert key in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    def test_not_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = write_bytes(tmp_path / "cfg.json", NOT_UTF8["config"])
        zs, ft = str(tmp_path / "zs.csv"), str(tmp_path / "ft.csv")
        assert main(["simulate", "--config", cfg, "--out-zs", zs, "--out-ft", ft, "--n", "4"]) == 2
        assert f"{cfg} is not UTF-8 text" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

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
    def test_bad_env_value(self, tmp_path, monkeypatch, capsys):
        # the floor is fixed, so a set GLA_DEFAULT_FLOOR is an error, not ignored
        logits = make_fixture_csv(tmp_path, "l.csv", [[5.0, 0.0], [0.0, 5.0]], [0, 1])
        report = str(tmp_path / "r.json")
        for value in ("zero", "1e-6", "1e-12"):
            monkeypatch.setenv("GLA_DEFAULT_FLOOR", value)
            assert main(["evaluate", "--logits", logits, "--report", report]) == 2
            assert "GLA_DEFAULT_FLOOR" in capsys.readouterr().err
        monkeypatch.delenv("GLA_DEFAULT_FLOOR")
        assert main(["evaluate", "--logits", logits, "--report", report]) == 0
