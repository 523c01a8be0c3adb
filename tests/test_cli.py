import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import missdag
from missdag import cli, ecdemo, estimation
from missdag.cli import CONFIG_KEYS, main
from missdag.data import MAX_STATES, MISSING, MISSING_TOKENS, read_csv
from missdag.discovery import ALGORITHMS
from missdag.errors import ConfigError, SchemaMismatch, checked_number, json_text, reading
from missdag.graphs import graph_from_json, graph_to_json

from oracles import amputation_spec_json, parse_dot


@pytest.fixture
def no_env_seed(monkeypatch):
    monkeypatch.delenv("MGD_SEED", raising=False)


def _write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def _write_input(path, content):
    """Bytes and text are written as they are, None makes a directory,
    anything else is written as JSON."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        return _write_json(path, content)
    return str(path)


INITIAL_SCORE_OVERFLOWS = (
    "error: SchemaMismatch: the initial graph scores -inf, and hill climbing needs a "
    "finite score (a score_pseudocount so large that the counts overflow gives this)\n")


def _demo_config(tmp_path, **extra):
    doc = {"dataset": "ec-demo", "dataset_n": 120, "algorithm": "hc-complete",
           "max_parents": 2}
    doc.update(extra)
    return _write_json(tmp_path / "config.json", doc)


class TestExitCodes:
    def test_usage_error_on_unknown_flag(self, capsys):
        assert main(["discover", "--bogus"]) == 2
        capsys.readouterr()

    def test_usage_error_on_missing_config(self, tmp_path, no_env_seed):
        assert main(["discover", "--out", str(tmp_path), "--seed", "1"]) == 2

    def test_usage_error_on_missing_seed(self, tmp_path, no_env_seed):
        cfg = _demo_config(tmp_path)
        assert main(["discover", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_usage_error_on_bad_json(self, tmp_path, no_env_seed):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert main(["discover", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_usage_error_on_unknown_algorithm(self, tmp_path, no_env_seed):
        cfg = _demo_config(tmp_path, algorithm="nope")
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, threads", [("discover", "0"), ("evaluate", "-3")])
    def test_usage_error_on_threads_below_one(self, tmp_path, no_env_seed, capsys,
                                              command, threads):
        # refused before any input is read or the output directory is made
        cfg = _demo_config(tmp_path, algorithms=["hc-complete"], B=1)
        assert main([command, "--config", cfg, "--seed", "1", "--threads", threads,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "o").exists()

    def test_runtime_error_on_malformed_dataset(self, tmp_path, no_env_seed):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n0\n")  # ragged row -> MissDagError at runtime
        cfg = _write_json(tmp_path / "c.json",
                          {"dataset": str(data), "algorithm": "hc-complete"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1

    def test_runtime_error_on_non_utf8_dataset(self, tmp_path, no_env_seed, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a,b\n\xff,0\n")
        cfg = _write_json(tmp_path / "c.json",
                          {"dataset": str(data), "algorithm": "hc-complete"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        _assert_one_diagnostic(capsys.readouterr().err, False)

    def test_runtime_error_on_over_budget_completion_block(self, tmp_path, no_env_seed,
                                                           monkeypatch, capsys):
        # a resample of 96 rows, about half of them with CA125 missing
        monkeypatch.setattr(estimation, "ENUMERATION_CAP", 100)
        spec = _write_json(tmp_path / "spec.json", {"seed": 1, "targets": [
            {"target": "CA125", "mechanism": "MCAR", "intercept": 0.0}]})
        cfg = _demo_config(tmp_path, algorithm="bootstrap-sem", B=1, ampute_spec=spec)
        assert main(["discover", "--config", cfg, "--seed", "1", "--threads", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        _assert_one_diagnostic(err, False)
        assert "TooManyMissingInRow" in err

    @pytest.mark.parametrize("algorithm, from_csv", [("hc-complete", False),
                                                     ("hc-aipw", False), ("hc-complete", True)])
    def test_runtime_error_on_a_dataset_without_rows(self, tmp_path, no_env_seed, capsys,
                                                     algorithm, from_csv):
        # "dataset_n": 0, or a CSV with a header only
        data = tmp_path / "d.csv"
        data.write_text("a,b\n")
        source = {"dataset": str(data)} if from_csv else {"dataset": "ec-demo", "dataset_n": 0}
        cfg = _write_json(tmp_path / "config.json",
                          {**source, "algorithm": algorithm, "max_parents": 2})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        _assert_one_diagnostic(err, False)
        assert err == "error: SchemaMismatch: BIC needs a positive sample size, got 0\n"

    @pytest.mark.parametrize("command", ["discover", "evaluate"])
    def test_usage_error_on_dataset_n_with_a_csv(self, tmp_path, no_env_seed, capsys, command):
        # the key sizes ec-demo only; a CSV run used to drop it and read every row
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "0,1\n1,0\n" * 30)
        cfg = _write_json(tmp_path / "c.json", {"dataset": str(data), "dataset_n": 5,
                                                "algorithm": "hc-complete",
                                                "algorithms": ["hc-complete"], "B": 1})
        assert main([command, "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'dataset_n' applies to dataset 'ec-demo' only\n")
        assert not (tmp_path / "o").exists()

    def test_runtime_error_on_a_field_over_the_size_limit(self, tmp_path, no_env_seed,
                                                          capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n0,1\n1," + "x" * 131073 + "\n")
        cfg = _write_json(tmp_path / "c.json",
                          {"dataset": str(data), "algorithm": "hc-complete"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        _assert_one_diagnostic(err, False)
        assert err.startswith(f"error: MalformedCsv: {data}: line 3: field larger than")

    def test_runtime_error_on_a_cycle_through_a_line_break(self, tmp_path, capsys):
        graph = _write_json(tmp_path / "g.json", {"vertices": ["a\nb", "c"],
                                                  "edges": [["a\nb", "c"], ["c", "a\nb"]]})
        assert main(["dsep", graph, "c _||_ c |"]) == 1
        assert capsys.readouterr().err == (
            "error: CycleDetected: cycle detected: 'a\\nb' -> 'c' -> 'a\\nb'\n")

    def test_runtime_error_on_a_repeated_column_name(self, tmp_path, no_env_seed, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,a\n0,1,0\n1,0,1\n")
        cfg = _write_json(tmp_path / "c.json",
                          {"dataset": str(data), "algorithm": "hc-complete"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: MalformedCsv: {data}: column name 'a' appears more than once "
            "in the header\n")

    @pytest.mark.parametrize("command, n", [("discover", 4), ("evaluate", 3),
                                            ("evaluate", 1)])
    def test_runtime_error_on_an_empty_held_out_set(self, tmp_path, no_env_seed, capsys,
                                                    command, n):
        # 0.2 is the default held-out fraction
        cfg = _demo_config(tmp_path, dataset_n=n, algorithm="bootstrap-sem", B=2,
                           algorithms=["hc-complete"])
        assert main([command, "--config", cfg, "--seed", "1", "--threads", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: SchemaMismatch: held-out set is empty: floor({n} x 0.2) = 0\n")
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("command, algorithm", [("evaluate", "hc-complete"),
                                                    ("discover", "bootstrap-sem")])
    def test_runtime_error_on_a_held_out_row_of_probability_zero(
            self, tmp_path, no_env_seed, capsys, command, algorithm):
        # refit with pseudocount 0, a held-out row has probability 0: its
        # log-likelihood -inf would reach the artifacts as -Infinity and NaN
        cfg = _demo_config(tmp_path, dataset_n=60, B=2, refit_pseudocount=0.0,
                           algorithm=algorithm, algorithms=[algorithm])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--seed", "1", "--threads", "1",
                         "--out", str(tmp_path / "o")]) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            f"error: SchemaMismatch: {algorithm} replicate 0: the held-out log-likelihood "
            "is -inf, as a row has probability 0 under parameters refit with "
            "refit_pseudocount 0.0\n")
        assert list((tmp_path / "o").iterdir()) == []

    def test_runtime_error_on_a_score_that_json_cannot_hold(self, tmp_path, no_env_seed,
                                                            capsys):
        cfg = _demo_config(tmp_path, dataset_n=60, score_pseudocount=1e308)
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == INITIAL_SCORE_OVERFLOWS
        assert list((tmp_path / "o").iterdir()) == []

    def test_runtime_error_on_a_score_pseudocount_that_overflows_in_evaluate(
            self, tmp_path, no_env_seed, capsys):
        # every family scores -inf, so no move improves on the empty graph:
        # without the check, evaluate reported the empty graph and exited 0
        cfg = _demo_config(tmp_path, dataset_n=60, B=2, score_pseudocount=1e308,
                           algorithms=["hc-complete", "hc-aipw"])
        assert main(["evaluate", "--config", cfg, "--seed", "1", "--threads", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == INITIAL_SCORE_OVERFLOWS
        assert list((tmp_path / "o").iterdir()) == []

    def test_runtime_error_on_ipw_strata_over_the_table_budget(self, tmp_path, no_env_seed,
                                                               capsys):
        # x goes missing mostly where z is 1, so each of 40 copies of z is a
        # detected parent of x's indicator: 2^40 strata, which numpy was asked
        # to allocate (8 TiB) and refused with a traceback
        data = tmp_path / "d.csv"
        rows = []
        for i in range(400):
            z, k = i % 2, i // 2
            missing = k % 5 != 0 if z else k % 20 == 0
            rows.append(",".join(["" if missing else str(k % 3 % 2)] + [str(z)] * 40))
        data.write_text(",".join(["x"] + [f"z{j}" for j in range(40)]) + "\n"
                        + "".join(r + "\n" for r in rows))
        cfg = _write_json(tmp_path / "c.json", {"dataset": str(data), "algorithm": "hc-aipw"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: SchemaMismatch: the IPW strata of 'x' would take {2 ** 40} table cells, "
            f"more than the budget of {2 ** 24}\n")
        assert list((tmp_path / "o").iterdir()) == []

    def test_runtime_error_on_an_add_table_over_the_table_budget(self, tmp_path, no_env_seed,
                                                                 capsys):
        # adding a -> b counts 4,097 x 4,097 cells, one more state than the
        # budget of 2^24 allows; the run used to take about 300 MB and exit 0
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "".join(f"s{i},t{i * 7 % 4097}\n" for i in range(4097)))
        cfg = _write_json(tmp_path / "c.json", {"dataset": str(data),
                                                "algorithm": "hc-complete"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: SchemaMismatch: scoring the parent additions of 'a' would take "
            f"{4097 ** 2} table cells, more than the budget of {2 ** 24}\n")
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
                     "and data type float64"),
         "Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
         "and data type float64"),
        (MemoryError(), "MemoryError"),
    ])
    def test_runtime_error_when_memory_runs_out(self, tmp_path, monkeypatch, capsys, exc,
                                                line):
        # a real allocation of that size fails or not by the machine's
        # overcommit settings, so the sampler raises in its place
        def out_of_memory(*args):
            raise exc

        monkeypatch.setattr(cli, "forward_sample", out_of_memory)
        assert main(["simulate", "ec-demo", "--n", "100000000000", "--seed", "1",
                     "--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "d.csv").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_json_logs_emit_structured_errors(self, tmp_path, no_env_seed, capsys):
        assert main(["discover", "--json-logs", "--seed", "1",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)
        assert doc["level"] == "error" and "config" in doc["message"]

    def test_abbreviated_json_logs_is_refused(self, tmp_path, capsys, monkeypatch):
        # the parser and the diagnostic format agree: --json is no --json-logs
        monkeypatch.chdir(tmp_path)
        assert main(["export-dot", "missing.json", "--json"]) == 2
        assert capsys.readouterr().err == "error: missdag: unrecognized arguments: --json\n"

    def test_abbreviated_flag_is_refused(self, tmp_path, no_env_seed, capsys):
        cfg = _demo_config(tmp_path)
        assert main(["discover", "--conf", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: missdag: unrecognized arguments: --conf {cfg}\n"
        assert not (tmp_path / "o").exists()


# a JSON object nested deeper than the parser's recursion limit
DEEP = '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"

# case -> (command, config fields or the config's raw content, other input
# files, MGD_SEED); the output directory comes from --out unless the config
# sets one
MALFORMED_INPUTS = {
    "config-is-a-list": ("discover", "[]", {}, None),
    "config-not-utf8": ("discover", b'{"dataset": "ec-demo\xff"}', {}, None),
    "evaluate-config-not-utf8": ("evaluate", b"\xff", {}, None),
    "knowledge-not-utf8": ("discover", {"knowledge": "kb.json"},
                           {"kb.json": b'{"required": []}\xff'}, None),
    "spec-not-utf8": ("discover", {"ampute_spec": "spec.json"}, {"spec.json": b"\xff"}, None),
    "knowledge-is-a-list": ("discover", {"knowledge": "kb.json"},
                            {"kb.json": [["Age", "LNM"]]}, None),
    "knowledge-edge-of-three": ("discover", {"knowledge": "kb.json"},
                                {"kb.json": {"required": [["Age", "LNM", "p53"]]}}, None),
    "spec-without-targets": ("discover", {"ampute_spec": "spec.json"},
                             {"spec.json": {"seed": 1}}, None),
    "env-seed-not-an-integer": ("discover", {}, {}, "abc"),
    "B-not-an-integer": ("discover", {"algorithm": "bootstrap-sem", "B": "abc"}, {}, None),
    "max-parents-not-an-integer": ("discover", {"max_parents": "x"}, {}, None),
    "dataset-is-a-number": ("discover", {"dataset": 5}, {}, None),
    "dataset-is-empty": ("discover", {"dataset": ""}, {}, None),
    "knowledge-is-a-number": ("discover", {"knowledge": 5}, {}, None),
    "spec-is-a-number": ("discover", {"ampute_spec": 5}, {}, None),
    "out-is-a-number": ("discover", {"out": 5}, {}, None),
    "algorithms-not-a-list": ("evaluate", {"algorithms": 5}, {}, None),
    "dataset-n-negative": ("discover", {"dataset_n": -1}, {}, None),
    "dataset-is-a-directory": ("discover", {"dataset": "data"}, {"data": None}, None),
    "knowledge-is-a-directory": ("discover", {"knowledge": "kb"}, {"kb": None}, None),
    "spec-is-a-directory": ("discover", {"ampute_spec": "spec"}, {"spec": None}, None),
    "algorithm-listed-twice": ("evaluate", {"algorithms": ["hc-complete", "hc-complete"]},
                               {}, None),
    "algorithms-empty": ("evaluate", {"algorithms": []}, {}, None),
    "algorithm-unknown": ("evaluate", {"algorithms": ["hc-complete", "nope"]}, {}, None),
    "B-zero": ("discover", {"algorithm": "bootstrap-sem", "B": 0}, {}, None),
    "evaluate-B-zero": ("evaluate", {"algorithms": ["hc-complete"], "B": 0}, {}, None),
    "threshold-above-one": ("discover", {"algorithm": "bootstrap-sem", "threshold": 2.0},
                            {}, None),
    "held-out-fraction-above-one": ("evaluate", {"algorithms": ["hc-complete"],
                                                 "held_out_fraction": 1.5}, {}, None),
    "out-is-a-file": ("discover", {"out": "o.txt"}, {"o.txt": "x"}, None),
    "spec-unknown-mechanism": ("discover", {"ampute_spec": "spec.json"}, {"spec.json": {
        "seed": 1, "targets": [{"target": "CA125", "mechanism": "NMAR"}]}}, None),
    "spec-mcar-with-drivers": ("discover", {"ampute_spec": "spec.json"}, {"spec.json": {
        "seed": 1, "targets": [{"target": "CA125", "mechanism": "MCAR",
                                "drivers": ["Age"]}]}}, None),
    "spec-unknown-driver": ("discover", {"ampute_spec": "spec.json"}, {"spec.json": {
        "seed": 1, "targets": [{"target": "CA125", "mechanism": "MNAR",
                                "drivers": ["Nope"]}]}}, None),
    "knowledge-required-unknown-variable": ("discover", {"knowledge": "kb.json"},
                                            {"kb.json": {"required": [["Age", "Nope"]]}},
                                            None),
    "knowledge-forbidden-unknown-variable": ("discover", {"knowledge": "kb.json"},
                                             {"kb.json": {"forbidden": [["Nope", "Age"]]}},
                                             None),
    # a knowledge file whose edges contradict each other is malformed input
    "knowledge-cyclic-required-unknown-variables": (
        "discover", {"knowledge": "kb.json"},
        {"kb.json": {"required": [["A", "B"], ["B", "A"]]}}, None),
    "knowledge-forbidden-and-required": (
        "discover", {"knowledge": "kb.json"},
        {"kb.json": {"forbidden": [["Age", "LNM"]], "required": [["Age", "LNM"]]}}, None),
    # numbers of the wrong kind are refused, not coerced (int(1.9) would run B=1)
    "B-float": ("discover", {"algorithm": "bootstrap-sem", "B": 1.9}, {}, None),
    "threshold-bool": ("discover", {"algorithm": "bootstrap-sem", "B": 1, "threshold": True},
                       {}, None),
    "held-out-fraction-string": ("evaluate", {"algorithms": ["hc-complete"], "B": 1,
                                              "held_out_fraction": "0.5"}, {}, None),
    "dataset-n-float": ("discover", {"dataset_n": 60.0}, {}, None),
    # the config seed is read before MGD_SEED
    "seed-string": ("discover", {"seed": "5"}, {}, "1"),
    "spec-seed-float": ("discover", {"ampute_spec": "spec.json"}, {"spec.json": {
        "seed": 1.5, "targets": [{"target": "CA125", "mechanism": "MCAR"}]}}, None),
    # numpy refuses a negative seed, so the reader does
    "evaluate-seed-negative": ("evaluate", {"algorithms": ["hc-complete"], "B": 1,
                                            "seed": -2}, {}, "1"),
    "env-seed-negative": ("discover", {}, {}, "-3"),
    "spec-seed-negative": ("discover", {"ampute_spec": "spec.json"}, {"spec.json": {
        "seed": -4, "targets": [{"target": "CA125", "mechanism": "MCAR"}]}}, None),
    # a path field set to a falsy value is not taken for an unset one
    "knowledge-false": ("discover", {"knowledge": False}, {}, None),
    "knowledge-empty-string": ("discover", {"knowledge": ""}, {}, None),
    "knowledge-empty-list": ("discover", {"knowledge": []}, {}, None),
    "spec-zero": ("discover", {"ampute_spec": 0}, {}, None),
    "spec-empty-object": ("discover", {"ampute_spec": {}}, {}, None),
    "config-nested-too-deeply": ("discover", DEEP, {}, None),
    # search options out of range (json.dumps writes inf and nan as
    # Infinity and NaN, which the config reader takes)
    "max-iter-negative": ("discover", {"max_iter": -5}, {}, None),
    "max-parents-negative": ("discover", {"max_parents": -1}, {}, None),
    "em-max-iter-negative": ("discover", {"algorithm": "bootstrap-sem", "B": 1,
                                          "em_max_iter": -1}, {}, None),
    "sem-max-outer-negative": ("discover", {"algorithm": "bootstrap-sem", "B": 1,
                                            "sem_max_outer": -2}, {}, None),
    "refit-pseudocount-infinite": ("discover", {"refit_pseudocount": float("inf")}, {}, None),
    "score-pseudocount-negative": ("evaluate", {"algorithms": ["hc-complete"], "B": 1,
                                                "score_pseudocount": -1.0}, {}, None),
    "em-tol-nan": ("discover", {"algorithm": "hc-aipw", "em_tol": float("nan")}, {}, None),
    "alpha-nan": ("discover", {"algorithm": "hc-aipw", "alpha": float("nan")}, {}, None),
    "alpha-zero": ("discover", {"algorithm": "hc-aipw", "alpha": 0.0}, {}, None),
    "alpha-above-one": ("evaluate", {"algorithms": ["hc-aipw"], "B": 1, "alpha": 1.5},
                        {}, None),
}


def _spec(entry, **extra):
    return {"ampute_spec": "spec.json"}, {"spec.json": {"seed": 1, "targets": [entry], **extra}}


SELF_MASKED = {"target": "CA125", "mechanism": "MNAR", "drivers": ["CA125"], "intercept": -2.0}

# case -> (config fields, input files, the one stderr line): input that was
# dropped or read as "amputate nothing" is refused, and the line names it; a
# field that names a file gets its path
UNREAD_INPUTS = {
    # an evaluate config whose misspelt keys ran on the defaults (n_test 12)
    "config-misspelt-keys": (
        {"dataset_n": 60, "algorithms": ["hc-complete"], "B": 1, "score_pseudocont": 10.0,
         "held_out_fracton": 0.5}, {},
        "config has keys it does not read: ['held_out_fracton', 'score_pseudocont']; it "
        "reads ['B', 'algorithm', 'algorithms', 'alpha', 'ampute_spec', 'dataset', "
        "'dataset_n', 'em_max_iter', 'em_tol', 'held_out_fraction', 'knowledge', 'max_iter', "
        "'max_parents', 'out', 'refit_pseudocount', 'score_pseudocount', 'seed', "
        "'sem_max_outer', 'threshold']"),
    "knowledge-misspelt-key": (
        {"knowledge": "kb.json"}, {"kb.json": {"forbiden": [["Survival5yr", "Hospital"]]}},
        "knowledge has keys it does not read: ['forbiden']; it reads ['forbidden', 'required']"),
    "spec-misspelt-key": (
        *_spec({"target": "CA125", "mechanism": "MCAR", "intercept": 0.0}, sed=2),
        "amputation spec has keys it does not read: ['sed']; it reads ['seed', 'targets']"),
    "spec-entry-misspelt-key": (
        *_spec({"target": "CA125", "mechanism": "MCAR", "intercpt": 0.0}),
        "amputation spec entry has keys it does not read: ['intercpt']; it reads "
        "['drivers', 'intercept', 'mechanism', 'target', 'weights']"),
    "spec-entry-is-a-list": (
        *_spec(["CA125", "MCAR"]), "amputation spec entry must be a JSON object"),
    # json.dumps writes nan and inf as NaN and Infinity, which the reader takes
    "spec-intercept-nan": (
        *_spec({**SELF_MASKED, "intercept": float("nan")}),
        "amputation spec field 'intercept' must be finite, got nan"),
    "spec-intercept-infinite": (
        *_spec({**SELF_MASKED, "intercept": float("-inf")}),
        "amputation spec field 'intercept' must be finite, got -inf"),
    "spec-weight-nan": (
        *_spec({**SELF_MASKED, "weights": {"CA125": {"elevated": float("nan")}}}),
        "amputation spec weight must be finite, got nan"),
    "spec-weight-not-a-driver": (
        *_spec({**SELF_MASKED, "weights": {"p53": {"overexpressed": 1.5}}}),
        "amputation spec entry 0 (target 'CA125') weights 'p53', which is not one of its "
        "drivers"),
    "spec-weight-unknown-state": (
        *_spec({**SELF_MASKED, "weights": {"CA125": {"nope": 3}}}),
        "amputation spec entry 0 (target 'CA125') weights states ['nope'] that driver "
        "'CA125' lacks"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_INPUTS))
def test_input_the_run_would_not_read_is_usage_error(tmp_path, no_env_seed, capsys, case):
    fields, files, line = UNREAD_INPUTS[case]
    for name, doc in files.items():
        _write_input(tmp_path / name, doc)
    cfg = _demo_config(tmp_path, **{
        k: str(tmp_path / v) if isinstance(v, str) and v in files else v
        for k, v in fields.items()})
    # the config holds what either command reads, and each refuses the input
    for command in ("discover", "evaluate"):
        assert main([command, "--config", cfg, "--seed", "1", "--out",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"


def test_the_config_fuzzer_draws_every_key_a_config_may_hold():
    assert sorted(VALID) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize("json_logs", [False, True])
@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, case, json_logs):
    command, fields, files, env_seed = MALFORMED_INPUTS[case]
    for name, doc in files.items():
        _write_input(tmp_path / name, doc)
    if isinstance(fields, dict):
        cfg = _demo_config(tmp_path, **{
            k: str(tmp_path / v) if isinstance(v, str) and v in files else v
            for k, v in fields.items()})
    else:
        cfg = _write_input(tmp_path / "config.json", fields)
    argv = [command, "--config", cfg]
    if not (isinstance(fields, dict) and "out" in fields):
        argv += ["--out", str(tmp_path / "o")]
    if env_seed is None:
        monkeypatch.delenv("MGD_SEED", raising=False)
        argv += ["--seed", "1"]
    else:
        monkeypatch.setenv("MGD_SEED", env_seed)
    assert main(argv + (["--json-logs"] if json_logs else [])) == 2
    _assert_one_diagnostic(capsys.readouterr().err, json_logs)


def _assert_one_diagnostic(err, json_logs):
    assert err.count("\n") == 1 and err.endswith("\n")
    if json_logs:
        assert json.loads(err)["level"] == "error"
    else:
        assert err.startswith("error: ")


GRAPH = json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]})
PARAMS = json.dumps({"variables": {
    "a": {"parents": [], "table": [[0.5, 0.5]]},
    "b": {"parents": ["a"], "table": [[0.9, 0.1], [0.2, 0.8]]}}})
SIMULATE = ["simulate", "g.json", "--params", "p.json", "--n", "5",
            "--out", "d.csv", "--seed", "1"]
EVALUATE = json.dumps({"dataset": "ec-demo", "dataset_n": 50, "algorithms": ["hc-complete"]})
DATA = "a,b\n0,1\n1,0\n"
SPEC = json.dumps({"seed": 1, "targets": [{"target": "a", "mechanism": "MCAR",
                                           "intercept": 0.0}]})
AMPUTE = ["ampute", "--data", "d.csv", "--spec", "s.json", "--out"]

# case -> (command line, files written under the working directory)
MALFORMED_FILES = {
    "dsep-graph-not-json": (["dsep", "g.json", "a _||_ b |"], {"g.json": "{not json"}),
    "dsep-graph-is-a-list": (["dsep", "g.json", "a _||_ b |"], {"g.json": "[]"}),
    "dsep-graph-without-vertices": (["dsep", "g.json", "a _||_ b |"],
                                    {"g.json": '{"edges": []}'}),
    "dsep-graph-nested-too-deeply": (["dsep", "g.json", "a _||_ b |"], {"g.json": DEEP}),
    "dsep-query-sets-overlap": (["dsep", "ec-mnar", "LNM _||_ LNM |"], {}),
    "dsep-graph-not-utf8": (["dsep", "g.json", "a _||_ b |"],
                            {"g.json": b'{"vertices": ["a", "b\xff"]}'}),
    "export-dot-graph-not-utf8": (["export-dot", "g.json"], {"g.json": b"\xff"}),
    "simulate-params-not-utf8": (SIMULATE, {"g.json": GRAPH, "p.json": b"\xff"}),
    "ampute-spec-not-utf8": (["ampute", "--data", "d.csv", "--spec", "s.json",
                              "--out", "o.csv"], {"d.csv": "a,b\n0,1\n", "s.json": b"\xff"}),
    "export-dot-graph-not-json": (["export-dot", "g.json"], {"g.json": "{not json"}),
    "export-dot-graph-is-a-list": (["export-dot", "g.json"], {"g.json": "[]"}),
    "simulate-graph-is-a-list": (SIMULATE, {"g.json": "[]", "p.json": PARAMS}),
    "simulate-params-not-json": (SIMULATE, {"g.json": GRAPH, "p.json": "{not json"}),
    "simulate-params-is-a-list": (SIMULATE, {"g.json": GRAPH, "p.json": "[]"}),
    "simulate-params-without-parents": (SIMULATE, {"g.json": GRAPH, "p.json": json.dumps(
        {"variables": {"a": {"table": [[0.5, 0.5]]}}})}),
    # a key nothing reads is refused, not dropped: a graph without its edges,
    # states that default to "0", "1"
    "dsep-graph-misspelt-key": (["dsep", "g.json", "a _||_ b |"], {"g.json": GRAPH.replace(
        '"edges"', '"edgse"')}),
    "simulate-params-misspelt-key": (SIMULATE, {"g.json": GRAPH, "p.json": PARAMS.replace(
        '"parents": [],', '"parents": [], "stats": ["x", "y"],')}),
    "simulate-params-unknown-key": (SIMULATE, {"g.json": GRAPH, "p.json": PARAMS.replace(
        '{"variables"', '{"seed": 1, "variables"')}),
    "export-dot-graph-is-a-directory": (["export-dot", "g"], {"g": None}),
    "ampute-data-is-a-directory": (["ampute", "--data", "d", "--spec", "s.json",
                                    "--out", "o.csv"], {"d": None, "s.json": "{}"}),
    "discover-config-is-a-directory": (["discover", "--config", "c", "--seed", "1",
                                        "--out", "o"], {"c": None}),
    "evaluate-out-is-a-file": (["evaluate", "--config", "c.json", "--seed", "1",
                                "--out", "o"], {"c.json": EVALUATE, "o": "x"}),
    "evaluate-out-under-a-file": (["evaluate", "--config", "c.json", "--seed", "1",
                                   "--out", "o/sub"], {"c.json": EVALUATE, "o": "x"}),
    "export-dot-out-is-a-directory": (["export-dot", "ec-mar", "--out", "o"], {"o": None}),
    "simulate-out-is-a-directory": (["simulate", "ec-demo", "--n", "5", "--out", "o",
                                     "--seed", "1"], {"o": None}),
    "ampute-out-is-a-directory": (AMPUTE + ["o"], {"d.csv": DATA, "s.json": SPEC, "o": None}),
    "ampute-spec-unknown-mechanism": (AMPUTE + ["o.csv"], {"d.csv": DATA, "s.json": json.dumps(
        {"seed": 1, "targets": [{"target": "a", "mechanism": "NMAR"}]})}),
    "ampute-spec-mcar-with-drivers": (AMPUTE + ["o.csv"], {"d.csv": DATA, "s.json": json.dumps(
        {"seed": 1, "targets": [{"target": "a", "mechanism": "MCAR", "drivers": ["b"]}]})}),
    "ampute-spec-seed-negative": (AMPUTE + ["o.csv"], {"d.csv": DATA, "s.json": json.dumps(
        {"seed": -4, "targets": [{"target": "a", "mechanism": "MCAR", "intercept": 0.0}]})}),
    # numbers of the wrong kind are refused, not coerced
    "ampute-spec-intercept-string": (AMPUTE + ["o.csv"], {"d.csv": DATA, "s.json": json.dumps(
        {"seed": 1, "targets": [{"target": "a", "mechanism": "MAR", "drivers": ["b"],
                                 "intercept": "-2"}]})}),
    "ampute-spec-weight-bool": (AMPUTE + ["o.csv"], {"d.csv": DATA, "s.json": json.dumps(
        {"seed": 1, "targets": [{"target": "a", "mechanism": "MAR", "drivers": ["b"],
                                 "intercept": 0.0, "weights": {"b": {"1": True}}}]})}),
    "simulate-params-cell-string": (SIMULATE, {"g.json": GRAPH, "p.json": PARAMS.replace(
        "[[0.5, 0.5]]", '[["0.5", 0.5]]')}),
    # a string where a list of strings belongs is refused, not read letter by letter
    "simulate-params-parents-string": (SIMULATE, {"g.json": GRAPH, "p.json": PARAMS.replace(
        '"parents": ["a"]', '"parents": "a"')}),
    "simulate-params-states-string": (SIMULATE, {"g.json": GRAPH, "p.json": PARAMS.replace(
        '"parents": [],', '"parents": [], "states": "xy",')}),
    "dsep-graph-vertices-string": (["dsep", "g.json", "a _||_ c | b"], {"g.json": json.dumps(
        {"vertices": "abc", "edges": [["a", "b"], ["b", "c"]]})}),
    "dsep-graph-edge-string": (["dsep", "g.json", "a _||_ c | b"], {"g.json": json.dumps(
        {"vertices": ["a", "b", "c"], "edges": ["ab", "bc"]})}),
    "ampute-spec-drivers-string": (AMPUTE + ["o.csv"], {"d.csv": DATA, "s.json": json.dumps(
        {"seed": 1, "targets": [{"target": "a", "mechanism": "MNAR", "drivers": "ab",
                                 "intercept": 0.0}]})}),
    # an escaped lone surrogate, which no output file or stream can encode
    "export-dot-name-lone-surrogate": (["export-dot", "g.json", "--out", "g.dot"],
                                       {"g.json": '{"vertices": ["\\ud800"]}'}),
    # argparse errors: one line, not the usage text
    "dsep-query-read-as-a-flag": (["dsep", "ec-mnar", "-LNM_||_CA125|"], {}),
    "dsep-extra-argument-with-a-line-break": (["dsep", "ec-mnar", "LNM _||_ CA125 |",
                                               "x\ny"], {}),
    # a query whose first non-blank character is "[" is read as JSON
    "dsep-json-query-not-json": (["dsep", "ec-mnar", ' [["LNM"], ["CA125"]'], {}),
    "dsep-json-query-of-two-sets": (["dsep", "ec-mnar", '[["LNM"], ["CA125"]]'], {}),
    "dsep-json-query-set-is-a-string": (["dsep", "ec-mnar", '["LNM", ["CA125"], []]'], {}),
    "dsep-json-query-name-is-a-number": (["dsep", "ec-mnar", '[["LNM"], [1], []]'], {}),
    "dsep-json-query-empty-set": (["dsep", "ec-mnar", '[[], ["CA125"], []]'], {}),
    "dsep-json-query-lone-surrogate": (["dsep", "ec-mnar", '[["\\ud800"], ["CA125"], []]'],
                                       {}),
    "dsep-json-query-unknown-vertex": (["dsep", "ec-mnar", '[["LNM "], ["CA125"], []]'], {}),
}


@pytest.mark.parametrize("raised, line", [
    (KeyError("seed"), "spec lacks field 'seed'"),
    (AttributeError("'list' object has no attribute 'items'"),
     "spec is malformed: 'list' object has no attribute 'items'"),
    (IndexError("tuple index out of range"), "spec is malformed: tuple index out of range"),
    (TypeError("'int' object is not iterable"),
     "spec is malformed: 'int' object is not iterable"),
    (ValueError("inhomogeneous shape"), "spec is malformed: inhomogeneous shape"),
])
def test_reading_a_document_names_it(raised, line):
    with pytest.raises(ConfigError) as info:
        with reading("spec"):
            raise raised
    assert str(info.value) == line and info.value.__cause__ is raised


@pytest.mark.parametrize("raised", [SchemaMismatch("no CPT for 'b'"),
                                    ConfigError("spec field 'seed' must be >= 0, got -1")])
def test_reading_a_document_passes_missdag_errors_through(raised):
    with pytest.raises(type(raised)) as info:
        with reading("spec"):
            raise raised
    assert info.value is raised


@pytest.mark.parametrize("value, kind, line", [
    (0, float, "x must be >= 1, got 0.0"),
    (math.nan, float, "x must be >= 1, got nan"),
    (-2, int, "x must be >= 1, got -2"),
    (1.0, int, "x must be int, got 1.0"),
    (True, float, "x must be float, got True"),
])
def test_a_number_is_refused_by_its_type_then_its_rule(value, kind, line):
    # the rule reads the converted value, and so does the message
    with pytest.raises(ConfigError) as info:
        checked_number(value, kind, "x", "be >= 1", lambda v: v >= 1)
    assert str(info.value) == line


def test_a_number_that_keeps_its_rule_is_converted():
    assert repr(checked_number(1, float, "x", "be >= 1", lambda v: v >= 1)) == "1.0"
    assert checked_number(-1, int, "x") == -1


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_a_json_artifact_refuses_a_number_json_cannot_hold(number):
    with pytest.raises(SchemaMismatch, match="^an artifact holds a number JSON cannot hold: "):
        json_text({"ll": [0.5, number]})


@pytest.mark.parametrize("json_logs", [False, True])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_graph_input_is_usage_error(tmp_path, monkeypatch, capsys, case,
                                              json_logs):
    argv, files = MALFORMED_FILES[case]
    for name, content in files.items():
        _write_input(tmp_path / name, content)
    monkeypatch.chdir(tmp_path)
    assert main(argv + (["--json-logs"] if json_logs else [])) == 2
    _assert_one_diagnostic(capsys.readouterr().err, json_logs)


def test_well_formed_graph_and_params_simulate(tmp_path, monkeypatch):
    for name, text in (("g.json", GRAPH), ("p.json", PARAMS)):
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(SIMULATE) == 0
    assert read_csv(tmp_path / "d.csv").n == 5


def test_import_leaves_scipy_stats_unloaded():
    # the package needs no scipy at run time, and importing it would take
    # most of the import time of the package (scipy.stats alone more than
    # half of it)
    env = dict(os.environ, PYTHONPATH=str(Path(missdag.__file__).parents[1]))
    for module in ("missdag", "missdag.cli"):
        probe = (f"import sys, {module}; print('scipy.stats' in sys.modules, "
                 "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "False []", module


class TestSeedResolution:
    def test_env_seed_is_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MGD_SEED", "7")
        cfg = _demo_config(tmp_path)
        out = tmp_path / "o"
        assert main(["discover", "--config", cfg, "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["seed"] == 7

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MGD_SEED", "7")
        cfg = _demo_config(tmp_path, seed=8)
        out = tmp_path / "o"
        assert main(["discover", "--config", cfg, "--out", str(out),
                     "--seed", "9"]) == 0
        assert json.loads((out / "trace.json").read_text())["seed"] == 9

    @pytest.mark.parametrize("command, seed", [
        (["discover", "--config", "config.json", "--out", "o"], "-1"),
        (["simulate", "ec-demo", "--n", "5", "--out", "o"], "-7"),
    ])
    def test_negative_flag_seed_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                               command, seed):
        # the flag beats MGD_SEED, which alone would run
        monkeypatch.setenv("MGD_SEED", "1")
        monkeypatch.chdir(tmp_path)
        _demo_config(tmp_path)
        assert main(command + ["--seed", seed]) == 2
        assert capsys.readouterr().err == f"error: the seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "o").exists()


class TestDiscover:
    def test_config_without_a_dataset_is_usage_error(self, tmp_path, no_env_seed, capsys):
        cfg = _write_json(tmp_path / "config.json", {"algorithm": "hc-complete"})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: config field 'dataset' is required\n"

    def test_writes_graph_dot_and_trace(self, tmp_path, no_env_seed):
        cfg = _demo_config(tmp_path)
        out = tmp_path / "o"
        assert main(["discover", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        g = graph_from_json((out / "graph.json").read_text())
        assert set(g.vertices) == set(ecdemo.ec_ground_truth()[1].variables)
        assert parse_dot((out / "graph.dot").read_text()) == g
        trace = json.loads((out / "trace.json").read_text())
        assert trace["algorithm"] == "hc-complete"
        assert trace["final_score"] >= trace["initial_score"]

    def test_hc_aipw_reports_indicators(self, tmp_path, no_env_seed):
        spec = ecdemo.ec_mnar_amputation(seed=5)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(amputation_spec_json(spec))
        cfg = _demo_config(tmp_path, algorithm="hc-aipw",
                           ampute_spec=str(spec_path), dataset_n=300)
        out = tmp_path / "o"
        assert main(["discover", "--config", cfg, "--seed", "5",
                     "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert set(trace["indicator_report"]) == {
            "CA125", "p53", "L1CAM", "Recurrence"}

    def test_bootstrap_sem_writes_summary(self, tmp_path, no_env_seed):
        cfg = _demo_config(tmp_path, algorithm="bootstrap-sem", B=2,
                           dataset_n=80, max_parents=2)
        out = tmp_path / "o"
        assert main(["discover", "--config", cfg, "--seed", "2",
                     "--out", str(out), "--threads", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["B"] == 2
        assert len(summary["out_of_sample"]) == 2

    def test_knowledge_constraints_respected(self, tmp_path, no_env_seed):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(ecdemo.ec_knowledge_json())
        cfg = _demo_config(tmp_path, knowledge=str(kb_path), dataset_n=300,
                           max_parents=3)
        out = tmp_path / "o"
        assert main(["discover", "--config", cfg, "--seed", "4",
                     "--out", str(out)]) == 0
        g = graph_from_json((out / "graph.json").read_text())
        assert ("Survival1yr", "Survival3yr") in g.edges
        assert ("Survival3yr", "Survival5yr") in g.edges

    @pytest.mark.parametrize("marked", ["config", "knowledge", "ampute_spec"])
    def test_json_input_with_a_byte_order_mark_is_read(self, tmp_path, no_env_seed, capsys,
                                                       marked):
        # Windows Notepad's "UTF-8 with BOM" starts the file with EF BB BF
        files = {"knowledge": tmp_path / "kb.json", "ampute_spec": tmp_path / "spec.json"}
        files["knowledge"].write_text(ecdemo.ec_knowledge_json())
        files["ampute_spec"].write_text(amputation_spec_json(ecdemo.ec_mnar_amputation(seed=5)))
        files["config"] = Path(_demo_config(tmp_path, **{k: str(v) for k, v in files.items()}))
        files[marked].write_bytes(b"\xef\xbb\xbf" + files[marked].read_bytes())
        assert main(["discover", "--config", str(files["config"]), "--seed", "5",
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_byte_identical_across_reruns(self, tmp_path, no_env_seed):
        cfg = _demo_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["discover", "--config", cfg, "--seed", "6",
                         "--out", str(out)]) == 0
        for name in ("graph.json", "graph.dot", "trace.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_column_with_too_many_states_is_refused(self, tmp_path, no_env_seed, capsys):
        data = tmp_path / "d.csv"
        data.write_text("wide\n" + "".join(f"t{i}\n" for i in range(33000)))
        cfg = _write_json(tmp_path / "c.json", {"dataset": str(data)})
        assert main(["discover", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        _assert_one_diagnostic(err, json_logs=False)
        assert "'wide'" in err and "32768 distinct values" in err


class TestEvaluate:
    def test_writes_report_json_and_csv(self, tmp_path, no_env_seed):
        cfg = _write_json(tmp_path / "c.json",
                          {"dataset": "ec-demo", "dataset_n": 100,
                           "algorithms": ["hc-complete"], "B": 2,
                           "max_parents": 2})
        out = tmp_path / "o"
        assert main(["evaluate", "--config", cfg, "--seed", "1",
                     "--out", str(out), "--threads", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["B"] == 2
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0].startswith("algorithm,replicate")
        assert len(lines) == 1 + 2

    def test_threads_do_not_change_artifacts(self, tmp_path, no_env_seed):
        cfg = _write_json(tmp_path / "c.json",
                          {"dataset": "ec-demo", "dataset_n": 100,
                           "algorithms": ["hc-complete", "hc-aipw"], "B": 2,
                           "max_parents": 2})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["evaluate", "--config", cfg, "--seed", "2",
                     "--out", str(out1), "--threads", "1"]) == 0
        assert main(["evaluate", "--config", cfg, "--seed", "2",
                     "--out", str(out2), "--threads", "4"]) == 0
        for name in ("report.json", "report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDsep:
    def test_builtin_graph_separated(self, capsys):
        assert main(["dsep", "ec-mnar", "LNM _||_ Radiotherapy |"]) == 0
        assert capsys.readouterr().out.strip() == "d-separated"

    def test_connected_prints_witness_path(self, capsys):
        assert main(["dsep", "ec-mnar", "CA125 _||_ Survival5yr |"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("d-connected (active path: CA125 - ")

    def test_witness_is_a_shortest_path(self, capsys):
        # Chemotherapy -> LNM is an edge of ec-mnar
        assert main(["dsep", "ec-mnar", "LNM _||_ Chemotherapy |"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "d-connected (active path: LNM - Chemotherapy)"

    def test_witness_does_not_depend_on_hash_seed(self):
        outs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(Path(missdag.__file__).parents[1]))
            outs.add(subprocess.run(
                [sys.executable, "-m", "missdag.cli", "dsep", "ec-mnar",
                 "CA125 _||_ Hospital |"], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert len(outs) == 1 and next(iter(outs)).startswith("d-connected")

    def test_unknown_vertex_is_usage_error(self, capsys):
        assert main(["dsep", "ec-mnar", "Bogus _||_ CA125 |"]) == 2
        capsys.readouterr()

    def test_malformed_query_is_usage_error(self, capsys):
        assert main(["dsep", "ec-mnar", "CA125 and Survival5yr"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("query, verdict", [
        ('[["a,b"], ["c"], []]', "d-separated"),
        ('[["a,b"], ["c"], [" d"]]', "d-connected (active path: a,b -  d - c)"),
        ('\n [["e|f"], ["g _||_ h"], []]', "d-connected (active path: e|f - g _||_ h)"),
        ('[["g _||_ h"], [" d"], ["c", "e|f"]]', "d-separated"),
    ], ids=["comma", "edge-whitespace", "bar-after-blanks", "separator"])
    def test_json_query_names_any_vertex(self, tmp_path, capsys, query, verdict):
        # names holding the text form's ",", "|" and "_||_", and edge
        # whitespace; a,b -> " d" <- c and e|f -> "g _||_ h"
        graph = _write_json(tmp_path / "g.json", {
            "vertices": ["a,b", "c", " d", "e|f", "g _||_ h"],
            "edges": [["a,b", " d"], ["c", " d"], ["e|f", "g _||_ h"]]})
        assert main(["dsep", graph, query]) == 0
        assert capsys.readouterr().out == verdict + "\n"

    def test_graph_json_file(self, tmp_path, capsys):
        from missdag.graphs import Dag
        p = tmp_path / "g.json"
        p.write_text(graph_to_json(Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])))
        assert main(["dsep", str(p), "a _||_ c | b"]) == 0
        assert capsys.readouterr().out.strip() == "d-separated"


class TestAmputeAndSimulate:
    def test_simulate_then_ampute_round_trip(self, tmp_path, no_env_seed):
        data = tmp_path / "d.csv"
        assert main(["simulate", "ec-demo", "--n", "200", "--out", str(data),
                     "--seed", "3"]) == 0
        d = read_csv(data)
        assert d.n == 200 and d.is_complete()

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(amputation_spec_json(ecdemo.ec_mnar_amputation(seed=3)))
        out = tmp_path / "amputed.csv"
        assert main(["ampute", "--data", str(data), "--spec", str(spec_path),
                     "--out", str(out)]) == 0
        a = read_csv(out)
        assert not a.is_complete()
        assert a.mask[:, a.index("CA125")].any()

    def test_simulate_ec_demo_writes_the_pinned_csv(self, tmp_path, no_env_seed):
        # forward_sample draws with rng.random, cumsum and comparisons only,
        # so no float log/exp kernel reaches these bytes on any CPU
        out = tmp_path / "d.csv"
        assert main(["simulate", "ec-demo", "--n", "763", "--seed", "763",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "b3c63a54f89c175ac756b198beacdf9d1a53c7bdc1311ea7a98d6eadef506903"

    @pytest.mark.parametrize("name", sorted(ecdemo.BUILTIN_GRAPHS))
    def test_builtin_graph_files_are_as_graph_to_json_writes_them(self, name):
        text = ecdemo.BUILTIN_GRAPHS[name].read_text(encoding="utf-8")
        assert graph_to_json(graph_from_json(text)) == text

    def test_simulate_custom_model_needs_params(self, tmp_path, no_env_seed, capsys):
        from missdag.graphs import Dag
        p = tmp_path / "g.json"
        p.write_text(graph_to_json(Dag(["a"], [])))
        assert main(["simulate", str(p), "--n", "5",
                     "--out", str(tmp_path / "d.csv"), "--seed", "1"]) == 2
        capsys.readouterr()

    def test_simulate_ec_demo_refuses_params(self, tmp_path, no_env_seed, capsys):
        # the bundled model has its own CPTs: a parameter file, even one that
        # does not exist, was ignored
        out = tmp_path / "d.csv"
        assert main(["simulate", "ec-demo", "--params", str(tmp_path / "absent.json"),
                     "--n", "5", "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: --params applies to a graph-file model only, not 'ec-demo'\n")
        assert not out.exists()

    def test_params_without_a_cpt_is_a_runtime_error(self, tmp_path, monkeypatch,
                                                     capsys):
        (tmp_path / "g.json").write_text(GRAPH)
        _write_json(tmp_path / "p.json", {"variables": {
            "a": {"parents": [], "table": [[0.5, 0.5]]}}})
        monkeypatch.chdir(tmp_path)
        assert main(SIMULATE) == 1
        err = capsys.readouterr().err
        _assert_one_diagnostic(err, json_logs=False)
        assert err == "error: SchemaMismatch: no CPT for 'b'\n"

    @pytest.mark.parametrize("variables, line", [
        # a well-formed CPT the graph does not read is refused, not dropped
        ({"c": {"parents": [], "table": [[0.5, 0.5]]}},
         "CPTs for variables the graph lacks: ['c']"),
        ({"b": {"parents": ["a"], "table": [[0.9, 0.1]]}},
         "CPT for 'b' has shape (1, 2), expected (2, 2)"),
        # a table for a parent listed twice has rows no sample reads
        ({"b": {"parents": ["a", "a"], "table": [[0.9, 0.1], [0.5, 0.5], [0.5, 0.5],
                                                 [0.2, 0.8]]}},
         "CPT parents for 'b' do not match the graph"),
        # rows that sum to 1 through a negative cell: every sample fell in the
        # first state
        ({"a": {"parents": [], "table": [[1.5, -0.5]]}},
         "CPT for 'a' has a negative probability"),
    ], ids=["extra-cpt", "misshaped-cpt", "parent-listed-twice", "negative-cell"])
    def test_params_that_do_not_fit_the_graph_is_a_runtime_error(
            self, tmp_path, monkeypatch, capsys, variables, line):
        (tmp_path / "g.json").write_text(GRAPH)
        doc = json.loads(PARAMS)
        doc["variables"].update(variables)
        _write_json(tmp_path / "p.json", doc)
        monkeypatch.chdir(tmp_path)
        assert main(SIMULATE) == 1
        assert capsys.readouterr().err == f"error: SchemaMismatch: {line}\n"
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("mass", ["uniform", "on the last state"])
    def test_params_with_more_states_than_a_cell_holds_is_a_runtime_error(
            self, tmp_path, monkeypatch, capsys, mass):
        # an int16 cell holds 32,768 states: a sample that missed the last
        # state used to be written, and one that drew it wrapped to -32,768
        k = MAX_STATES + 1
        row = [1.0 / k] * k if mass == "uniform" else [0.0] * (k - 1) + [1.0]
        _write_json(tmp_path / "g.json", {"vertices": ["a"], "edges": []})
        _write_json(tmp_path / "p.json", {"variables": {"a": {"parents": [],
                                                              "table": [row]}}})
        monkeypatch.chdir(tmp_path)
        assert main(SIMULATE) == 1
        assert capsys.readouterr().err == (
            f"error: SchemaMismatch: variable 'a' has {k} states, more than the "
            f"{MAX_STATES} a cell can hold\n")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("token", ["NA", ""])
    def test_params_with_a_missing_token_state_is_a_runtime_error(self, tmp_path, monkeypatch,
                                                                  capsys, token):
        # the sampled CSV would read such cells back as missing
        (tmp_path / "g.json").write_text(GRAPH)
        (tmp_path / "p.json").write_text(PARAMS.replace(
            '"parents": [],', f'"parents": [], "states": ["x", "{token}"],'))
        monkeypatch.chdir(tmp_path)
        assert main(SIMULATE) == 1
        err = capsys.readouterr().err
        _assert_one_diagnostic(err, json_logs=False)
        assert err == (f"error: SchemaMismatch: variable 'a' has state label {token!r}, "
                       "which a CSV reads as a missing cell\n")
        assert not (tmp_path / "d.csv").exists()

    def test_ampute_unknown_column_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n0\n1\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"targets": [{"target": "zz", "mechanism": "MCAR"}], "seed": 0}))
        assert main(["ampute", "--data", str(data), "--spec", str(spec_path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        capsys.readouterr()


class TestExportDot:
    def test_stdout_and_file_agree(self, tmp_path, capsys):
        assert main(["export-dot", "ec-mar"]) == 0
        text = capsys.readouterr().out
        out = tmp_path / "g.dot"
        assert main(["export-dot", "ec-mar", "--out", str(out)]) == 0
        assert out.read_text() == text
        parse_dot(text)  # emitted DOT is machine-readable

    def test_quote_in_a_name_round_trips(self, tmp_path, capsys):
        graph = _write_json(tmp_path / "g.json",
                            {"vertices": ["a\"b", "c"], "edges": [["a\"b", "c"]]})
        assert main(["export-dot", graph]) == 0
        text = capsys.readouterr().out
        assert '"a\\"b" -> "c";' in text
        assert parse_dot(text) == graph_from_json((tmp_path / "g.json").read_text())

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["export-dot", "/nonexistent/graph.json"]) == 2
        capsys.readouterr()


# graph-file names: query and DOT syntax, a leading "-" that reads as a
# flag, backslashes, whitespace, line breaks (Unicode ones too), a lone
# surrogate and any other character
NAMES = st.text(st.sampled_from(list(' ,|_-"\'\\\t\n\r\x85\u2028\u200b\ud800é日'))
                | st.characters(), max_size=4)


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | NAMES,
    _containers, max_leaves=6)


def _survives(argv, json_logs=False):
    """Run the CLI on ``argv`` (with ``--json-logs`` if asked) and check its
    contract: exit 0, 1 or 2, no warning, and on stderr nothing after a
    success and one diagnostic line (by Unicode's line breaks too) after a
    failure, so no traceback. Returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + (["--json-logs"] if json_logs else []))
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    err = err.getvalue()
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.splitlines() == [err[:-1]]
        _assert_one_diagnostic(err, json_logs)
    return code, out.getvalue()


@st.composite
def graph_documents(draw):
    """A graph file's JSON over hostile names; maybe its vertices, its edges,
    one edge or the whole document replaced by a JSON value of any type."""
    names = draw(st.lists(NAMES, max_size=5))
    pick = st.sampled_from(names or [""])
    doc = {"vertices": names, "edges": draw(st.lists(st.lists(pick, min_size=2, max_size=2),
                                                     max_size=5))}
    spoil = draw(st.sampled_from(["none", "vertices", "edges", "edge", "document"]))
    if spoil in ("vertices", "edges"):
        doc[spoil] = draw(JSON_VALUES)
    elif spoil == "edge" and doc["edges"]:
        doc["edges"][draw(st.integers(0, len(doc["edges"]) - 1))] = draw(JSON_VALUES)
    elif spoil == "document":
        doc = draw(JSON_VALUES)
    return doc, names


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    """One directory whose files every example of a property test overwrites."""
    return tmp_path_factory.mktemp("graphs")


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_graph_commands_survive_any_graph_file(graph_dir, data):
    doc, names = data.draw(graph_documents())
    graph = graph_dir / "g.json"
    graph.write_text(json.dumps(doc), encoding="utf-8")
    command = data.draw(st.sampled_from(["dsep", "export-dot", "export-dot --out"]))
    if command == "dsep":
        sides = [data.draw(st.lists(st.sampled_from(names), max_size=2)) if names else []
                 for _ in range(3)]
        form = data.draw(st.sampled_from(["{} _||_ {} | {}", "{}_||_{}|{}", "{} {} {}", "json"]))
        query = (json.dumps(sides, ensure_ascii=data.draw(st.booleans())) if form == "json"
                 else form.format(*map(",".join, sides)))
        # or any text over the query's syntax, or any JSON value
        query = data.draw(st.just(query) | st.text(st.sampled_from("ab_|,- "), max_size=8)
                          | JSON_VALUES.map(json.dumps))
        argv = ["dsep", str(graph), query]
    else:
        argv = ["export-dot", str(graph)]
        if command.endswith("--out"):
            argv += ["--out", str(graph_dir / "g.dot")]
    code, out = _survives(argv, data.draw(st.booleans()))
    if code == 0 and command.startswith("export-dot"):
        # bytes, not read_text: that would turn a "\r" in a name into "\n"
        text = ((graph_dir / "g.dot").read_bytes().decode("utf-8")
                if command.endswith("--out") else out)
        assert parse_dot(text) == graph_from_json(graph.read_text(encoding="utf-8"))


# A config field's pool of JSON values, any of which a spoiled field takes
POOL = [None, False, True, 0, 1, -1, 2 ** 70, 0.5, 1e308, float("nan"), float("inf"),
        float("-inf"), "", "x", "ec-demo", "hc-complete", [], {}]
# each config field's valid values; "@name" is the path of the file `name`
# in the test's directory
VALID = {
    "dataset": ["ec-demo"],
    "dataset_n": [5, 30, 60],
    "algorithm": list(ALGORITHMS),
    "algorithms": [[name] for name in ALGORITHMS] + [list(ALGORITHMS)],
    "B": [1, 2],
    "seed": [3],
    "knowledge": ["@knowledge.json"],
    "ampute_spec": ["@spec.json"],
    "out": ["@out"],
    "held_out_fraction": [0.2, 0.5],
    "threshold": [0.5, 1],
    "alpha": [0.01, 0.5],
    "max_parents": [1, 4],
    "max_iter": [3],
    "refit_pseudocount": [0, 1.0],
    "score_pseudocount": [0.0, 10],
    "em_max_iter": [2],
    "em_tol": [0.0, 1e-3],
    "sem_max_outer": [1, 2],
}
# Fields that a config always sets unless they are spoiled. Left out, a
# count or an iteration limit would take its default (763 rows, B = 100, 30
# EM iterations, ...), so a spoiled one is never absent and draws no integer
# beyond 1: every run stays small.
SMALL = {"dataset_n", "B", "max_iter", "em_max_iter", "sem_max_outer"}
ALWAYS = SMALL | {"dataset", "seed", "algorithm", "algorithms", "out"}
ABSENT = object()


@st.composite
def run_configs(draw):
    """A command, a config and the flags beside it. Up to two config fields
    are spoiled: left out or given a value of the pool. Each other field
    takes a valid value, or is left out if it may be."""
    command = draw(st.sampled_from(["discover", "evaluate"]))
    spoiled = draw(st.sets(st.sampled_from(sorted(VALID)), max_size=2))
    config = {}
    for key in sorted(VALID):
        if key in spoiled:
            value = draw(st.sampled_from(
                [v for v in POOL if not isinstance(v, int) or isinstance(v, bool) or abs(v) <= 1]
                if key in SMALL else [ABSENT, *POOL]))
        elif key in ALWAYS or draw(st.booleans()):
            value = draw(st.sampled_from(VALID[key]))
        else:
            value = ABSENT
        if value is not ABSENT:
            config[key] = value
    flags = ["--threads", "1"]
    if draw(st.booleans()):
        flags += ["--seed", "1"]
    if draw(st.booleans()):
        flags += ["--out", "@out"]
    return command, config, flags


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _empty(root, keep=()):
    """Delete what ``root`` holds but the files named in ``keep``."""
    for path in root.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name not in keep:
            path.unlink()


def _assert_artifacts_read_back(root):
    """Every artifact in the directories under ``root`` reads back: each
    JSON file is strict JSON, each graph.json is a graph written in
    ``graph_to_json``'s order and the graph its graph.dot draws, and each
    report.csv holds one row per replicate of its report.json."""
    for path in root.glob("*/**/*.json"):
        text = path.read_text(encoding="utf-8")
        doc = _strict_json(text)
        if path.name == "graph.json":
            g = graph_from_json(text)
            assert doc == {"vertices": list(g.vertices), "edges": sorted(map(list, g.edges))}
            assert parse_dot((path.parent / "graph.dot").read_bytes().decode("utf-8")) == g
        elif path.name == "report.json":
            assert read_csv(path.parent / "report.csv").n == len(doc["replicates"])


# the files of the config fuzzer's directory that outlive an example
CONFIG_INPUTS = {"knowledge.json", "spec.json"}


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """The working directory of a property test, with a knowledge file and
    an amputation spec, so that a relative output path lands in it; no
    MGD_SEED."""
    root = tmp_path_factory.mktemp("configs")
    (root / "knowledge.json").write_text(ecdemo.ec_knowledge_json())
    (root / "spec.json").write_text(amputation_spec_json(ecdemo.ec_mnar_amputation(seed=5)))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("MGD_SEED", raising=False)
        mp.chdir(root)
        yield root


# a held-out row of probability 0 under parameters refit with pseudocount 0
ZERO_PROBABILITY = {"dataset": "ec-demo", "dataset_n": 60, "B": 2, "refit_pseudocount": 0.0}


@given(case=run_configs())
@example(case=("evaluate", {**ZERO_PROBABILITY, "algorithms": ["hc-complete"]},
               ["--seed", "1", "--out", "@out", "--threads", "1"]))
@example(case=("discover", {**ZERO_PROBABILITY, "algorithm": "bootstrap-sem"},
               ["--seed", "1", "--out", "@out", "--threads", "1"]))
@example(case=("discover", {"dataset": "ec-demo", "dataset_n": 60,
                            "algorithm": "hc-complete", "score_pseudocount": 1e308},
               ["--seed", "1", "--out", "@out", "--threads", "1"]))
@settings(max_examples=100, deadline=None)
def test_run_commands_survive_any_config(config_dir, case):
    command, config, flags = case

    def place(value):
        if isinstance(value, str) and value.startswith("@"):
            return str(config_dir / value[1:])
        return value

    _empty(config_dir, keep=CONFIG_INPUTS)  # the last example's config and output
    cfg = config_dir / "config.json"
    cfg.write_text(json.dumps({k: place(v) for k, v in config.items()}), encoding="utf-8")
    _survives([command, "--config", str(cfg)] + [place(f) for f in flags])
    # the artifacts, wherever a relative output path put them
    _assert_artifacts_read_back(config_dir)


# --- every input file: CSV datasets, amputation specs, knowledge, parameters ---

def _encodable(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


# a CSV column name or label: a hostile name that a UTF-8 file can hold
# (tests of read_csv cover files that are not UTF-8)
CSV_NAMES = NAMES.filter(_encodable)
# a CSV cell: such a label or a token read as missing
CELLS = CSV_NAMES | st.sampled_from(MISSING_TOKENS)
# floats an amputation spec may hold, JSON's NaN and infinities included
SPEC_FLOATS = st.floats(-6, 6) | st.sampled_from([math.nan, math.inf, -math.inf, 1e308])
# what the fuzzers' runs may take: one bootstrap replicate, three moves, ...
RUN_BUDGET = {"B": 1, "max_iter": 3, "em_max_iter": 2, "sem_max_outer": 1, "max_parents": 2,
              "held_out_fraction": 0.5}


def _spoil(draw, doc):
    """``doc`` as it is half the time; else ``doc`` replaced by a JSON value
    of any type, or one part of it replaced so, left out, or joined in its
    object by a key that nothing reads."""
    parts, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) \
            if isinstance(node, list) else ()
        for key in keys:
            parts.append((node, key))
            stack.append(node[key])
    how = draw(st.sampled_from(["none"] * 4 + ["document", "replace", "drop", "extra"]))
    if how == "document":
        return draw(JSON_VALUES)
    if how in ("replace", "drop") and parts:
        node, key = draw(st.sampled_from(parts))
        if how == "replace":
            node[key] = draw(JSON_VALUES)
        else:
            del node[key]
    elif how == "extra":
        objects = [doc] + [node[key] for node, key in parts if isinstance(node[key], dict)]
        draw(st.sampled_from(objects))[draw(NAMES)] = draw(JSON_VALUES)
    return doc


@st.composite
def csv_tables(draw, max_rows=6):
    """Distinct column names (``CSV_NAMES``) and each column's cells:
    up to four labels and missing tokens, or (each a sixth of the time) one
    label throughout or missing tokens only."""
    names = draw(st.lists(CSV_NAMES, max_size=4, unique=True))
    n = draw(st.integers(0, max_rows))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(["constant", "missing"] + ["few"] * 4))
        if kind == "constant":
            pool = [draw(CSV_NAMES)]
        elif kind == "missing":
            pool = list(MISSING_TOKENS)
        else:
            pool = draw(st.lists(CELLS, min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return names, columns


def _labels(names, columns):
    """Each column's labels: its distinct cells that are not missing tokens."""
    return {name: [t for t in dict.fromkeys(column) if t not in MISSING_TOKENS]
            for name, column in zip(names, columns)}


def _write_table(path, names, columns):
    """The table as CSV with every field quoted, so that a line break stays
    in its name or label."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(names)
    writer.writerows(zip(*columns))
    path.write_text(text.getvalue(), encoding="utf-8", newline="")


def _cells(d):
    """Each row's cells as state labels, None where a cell is missing."""
    return [[None if c == MISSING else var.states[c] for var, c in zip(d.schema, row)]
            for row in d.rows.tolist()]


@st.composite
def amputation_specs(draw, labels):
    """An amputation spec over the columns of ``labels`` (name -> labels):
    up to three entries of any mechanism, whose target and drivers (none
    for MCAR) are columns, with an intercept and a driver's weights of its
    labels or hostile ones, each maybe left out; then maybe spoiled
    (``_spoil``)."""
    column = st.sampled_from(list(labels) or [""])
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        entry = {"target": draw(column), "mechanism": draw(st.sampled_from(["MCAR", "MAR",
                                                                          "MNAR"]))}
        if entry["mechanism"] != "MCAR":
            entry["drivers"] = draw(st.lists(column, max_size=2))
        if draw(st.booleans()):
            entry["intercept"] = draw(SPEC_FLOATS)
        weighted = [w for w in entry.get("drivers", []) if labels.get(w)]
        if weighted and draw(st.booleans()):
            w = draw(st.sampled_from(weighted))
            states = draw(st.lists(st.sampled_from(labels[w]) | NAMES, max_size=2))
            entry["weights"] = {w: {state: draw(SPEC_FLOATS) for state in states}}
        entries.append(entry)
    return _spoil(draw, {"seed": draw(st.integers(0, 2 ** 64)), "targets": entries})


@st.composite
def knowledge_documents(draw, names):
    """A knowledge file whose edges join ``names``, each list maybe left
    out; then maybe spoiled (``_spoil``)."""
    vertex = st.sampled_from(names or [""])
    edges = st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=3)
    return _spoil(draw, {key: draw(edges) for key in ("forbidden", "required")
                         if draw(st.booleans())})


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    """One directory whose files every example of a property test rewrites."""
    return tmp_path_factory.mktemp("files")


@st.composite
def ampute_cases(draw):
    """A CSV table (``csv_tables``) and an amputation spec over its columns."""
    names, columns = draw(csv_tables())
    return names, columns, draw(amputation_specs(_labels(names, columns)))


LABELS = [f"s{i}" for i in range(MAX_STATES + 1)]


@given(case=ampute_cases())
# the most states a column may have, one of them weighted, and one state more
@example(case=(["x", "y"], [LABELS[:-1], ["a"] * MAX_STATES],
               {"seed": 1, "targets": [{"target": "y", "mechanism": "MAR", "drivers": ["x"],
                                        "intercept": 0.0, "weights": {"x": {"s0": 2.0}}}]}))
@example(case=(["x"], [LABELS], {"seed": 1, "targets": []}))
@settings(max_examples=60, deadline=None)
def test_ampute_survives_any_dataset_and_spec(files_dir, case):
    names, columns, spec = case
    _empty(files_dir)
    data, spec_path, out = (files_dir / name for name in ("d.csv", "s.json", "o.csv"))
    _write_table(data, names, columns)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _ = _survives(["ampute", "--data", str(data), "--spec", str(spec_path),
                         "--out", str(out)])
    if code == 0:
        before, after = read_csv(data), read_csv(out)
        assert after.names == before.names and after.n == before.n
        # amputation only blanks cells
        for old, new in zip(_cells(before), _cells(after)):
            assert all(b in (a, None) for a, b in zip(old, new))


@st.composite
def simulate_cases(draw):
    """A graph over distinct, nonempty ``CSV_NAMES`` with edges that follow
    their order, a parameter file for it, one of the two maybe spoiled
    (``_spoil``), and a sample size. A vertex has two or three distinct
    ``CSV_NAMES`` as state labels, or up to three cells that may be missing tokens,
    and a CPT over its graph parents whose rows are drawn positive weights
    over their sum."""
    names = draw(st.lists(CSV_NAMES.filter(len), max_size=4, unique=True))
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1:] if draw(st.booleans())]
    states = {v: draw(st.lists(CSV_NAMES, min_size=2, max_size=3, unique=True)
                      | st.lists(CELLS, max_size=3))
              for v in names}
    variables = {}
    for v in names:
        parents = [a for a, b in edges if b == v]
        table = []
        for _ in range(math.prod(len(states[u]) for u in parents)):
            weights = draw(st.lists(st.integers(1, 9), min_size=len(states[v]),
                                    max_size=len(states[v])))
            table.append([w / sum(weights) for w in weights])
        variables[v] = {"parents": parents, "table": table, "states": states[v]}
    docs = [{"vertices": names, "edges": edges}, {"variables": variables}]
    which = draw(st.integers(0, 1))
    docs[which] = _spoil(draw, docs[which])
    return (*docs, draw(st.sampled_from([0, 1, 7])))


@given(case=simulate_cases())
@settings(max_examples=60, deadline=None)
def test_simulate_survives_any_graph_and_parameter_file(files_dir, case):
    graph, params, n = case
    _empty(files_dir)
    for name, doc in (("g.json", graph), ("p.json", params)):
        (files_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    out = files_dir / "d.csv"
    code, _ = _survives(["simulate", str(files_dir / "g.json"), "--params",
                         str(files_dir / "p.json"), "--n", str(n), "--out", str(out),
                         "--seed", "1"])
    if code == 0:
        d = read_csv(out)
        assert d.names == tuple(graph["vertices"]) and d.n == n
        states = {v: spec.get("states", [str(i) for i in range(len(spec["table"][0]))])
                  for v, spec in params["variables"].items()}
        for row in _cells(d):
            assert all(label in states[v] for v, label in zip(d.names, row))


@st.composite
def run_inputs(draw):
    """A discover or evaluate run of one algorithm within ``RUN_BUDGET``, on
    ec-demo or on a CSV table (``csv_tables``), with a knowledge file and
    an amputation spec over the dataset's columns, each maybe absent."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    config = {"algorithm": algorithm, "algorithms": [algorithm], **RUN_BUDGET}
    if draw(st.booleans()):
        config.update(dataset="ec-demo", dataset_n=30)
        table = None
        labels = {v: list(s) for v, (_, _, s) in ecdemo.ec_ground_truth()[1].variables.items()}
    else:
        table = draw(csv_tables(max_rows=10))
        labels = _labels(*table)
    files = {}
    if draw(st.booleans()):
        files["kb.json"] = draw(knowledge_documents(list(labels)))
    if draw(st.booleans()):
        files["spec.json"] = draw(amputation_specs(labels))
    return draw(st.sampled_from(["discover", "evaluate"])), config, table, files


def _unread_input(name):
    """The case of ``UNREAD_INPUTS`` named ``name`` as a ``run_inputs``
    case: an evaluate run on ec-demo."""
    fields, files, _ = UNREAD_INPUTS[name]
    config = {"dataset": "ec-demo", "dataset_n": 30, "algorithm": "hc-complete",
              "algorithms": ["hc-complete"], **RUN_BUDGET}
    config.update((k, v) for k, v in fields.items() if k not in ("knowledge", "ampute_spec"))
    return "evaluate", config, None, files


def _pinned(cases):
    """Pin each of ``cases`` as an example of the property test."""
    def pin(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return pin


@given(case=run_inputs())
@_pinned([_unread_input(name) for name in sorted(UNREAD_INPUTS)])
@settings(max_examples=60, deadline=None)
def test_run_commands_survive_any_input_file(files_dir, case):
    command, config, table, files = case
    _empty(files_dir)
    config = dict(config)
    if table is not None:
        _write_table(files_dir / "data.csv", *table)
        config["dataset"] = str(files_dir / "data.csv")
    for name, key in (("kb.json", "knowledge"), ("spec.json", "ampute_spec")):
        if name in files:
            (files_dir / name).write_text(json.dumps(files[name]), encoding="utf-8")
            config[key] = str(files_dir / name)
    (files_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code, _ = _survives([command, "--config", str(files_dir / "config.json"), "--seed", "1",
                         "--out", str(files_dir / "out"), "--threads", "1"])
    _assert_artifacts_read_back(files_dir)
    if code == 0 and command == "discover":
        names = (read_csv(files_dir / "data.csv").names if table is not None
                 else tuple(ecdemo.ec_ground_truth()[1].variables))
        graph = graph_from_json((files_dir / "out" / "graph.json").read_text(encoding="utf-8"))
        assert graph.vertices == names
