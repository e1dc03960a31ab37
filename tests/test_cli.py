import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from divcert import cli, core, qpoly


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestFab:
    def test_found(self, capsys):
        code, out, err = run_cli(["fab", "7", "36"], capsys)
        assert code == 0
        records = parse_jsonl(out)
        assert records[0]["verdict"] == "found" and records[0]["n"] == 279
        assert records[0]["bound"]["bound"] == 2736
        assert records[-1]["record"] == "summary"
        assert "elapsed" in err

    def test_proven_zero(self, capsys):
        code, out, _ = run_cli(["fab", "1", "1"], capsys)
        assert code == 0
        assert parse_jsonl(out)[0]["verdict"] == "proven_zero"

    def test_inconclusive_exit_2(self, capsys):
        code, out, _ = run_cli(["fab", "7", "36", "--n-cap", "5"], capsys)
        assert code == 2
        assert parse_jsonl(out)[0]["verdict"] == "inconclusive"

    def test_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "fab.cache")
        code, out1, _ = run_cli(["fab", "2", "3", "--cache", cache], capsys)
        assert code == 0
        code, out2, _ = run_cli(["fab", "2", "3", "--cache", cache], capsys)
        assert code == 0
        assert parse_jsonl(out1)[0] == parse_jsonl(out2)[0]
        lines = (tmp_path / "fab.cache").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "fab-cache"
        assert len(lines) == 2  # header + one result, no duplicate append

    def test_cache_corrupt_tail_dropped(self, tmp_path, capsys):
        cache = tmp_path / "fab.cache"
        run_cli(["fab", "2", "3", "--cache", str(cache)], capsys)
        with open(cache, "a") as fh:
            fh.write('{"a": 9, "b":')  # torn write
        code, out, err = run_cli(["fab", "2", "3", "--cache", str(cache)], capsys)
        assert code == 0
        assert "corrupt" in err
        lines = cache.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_cache_capped_entry_does_not_answer_uncapped(self, tmp_path, capsys):
        cache = str(tmp_path / "fab.cache")
        code, out, _ = run_cli(
            ["fab", "7", "36", "--n-cap", "10", "--cache", cache], capsys)
        assert code == 2
        assert parse_jsonl(out)[0]["verdict"] == "inconclusive"
        code, out, _ = run_cli(["fab", "7", "36", "--cache", cache], capsys)
        assert code == 0
        assert parse_jsonl(out)[0]["n"] == 279

    def test_cache_uncapped_entry_does_not_answer_capped(self, tmp_path, capsys):
        cache = str(tmp_path / "fab.cache")
        code, _, _ = run_cli(["fab", "7", "36", "--cache", cache], capsys)
        assert code == 0
        _, uncached, _ = run_cli(["fab", "7", "36", "--n-cap", "10"], capsys)
        code, out, _ = run_cli(
            ["fab", "7", "36", "--n-cap", "10", "--cache", cache], capsys)
        assert code == 2
        assert out == uncached

    def test_cache_entry_without_key_dropped(self, tmp_path, capsys):
        # A result line that does not record the n_cap it answers.
        cache = tmp_path / "fab.cache"
        cache.write_text(
            json.dumps({"engine_version": cli.__version__, "kind": "fab-cache"})
            + '\n{"a":7,"b":36,"bound":{"bound":2736,"p":7,"s":6},"n":null,'
            '"n_max":10,"verdict":"inconclusive"}\n')
        code, out, err = run_cli(["fab", "7", "36", "--cache", str(cache)], capsys)
        assert code == 0
        assert parse_jsonl(out)[0]["n"] == 279
        assert "corrupt" in err

    def test_cache_empty_file_starts_fresh(self, tmp_path, capsys):
        cache = tmp_path / "fab.cache"
        cache.write_text("")
        _, uncached, _ = run_cli(["fab", "2", "3"], capsys)
        code, out, _ = run_cli(["fab", "2", "3", "--cache", str(cache)], capsys)
        assert code == 0
        assert out == uncached
        lines = cache.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "fab-cache"
        assert len(lines) == 2

    @staticmethod
    def _cache_with(tmp_path, key, record):
        cache = tmp_path / "fab.cache"
        cache.write_text(
            json.dumps({"engine_version": cli.__version__, "kind": "fab-cache"})
            + "\n" + json.dumps({"key": key, "record": record}) + "\n")
        return cache

    @pytest.mark.parametrize("record", [
        5,  # parses, but is no record
        {"verdict": "found"},  # an object without the fab record's fields
    ])
    def test_cache_foreign_record_dropped(self, record, tmp_path, capsys):
        cache = self._cache_with(tmp_path, {"a": 7, "b": 36, "n_cap": None}, record)
        _, uncached, _ = run_cli(["fab", "7", "36"], capsys)
        code, out, err = run_cli(["fab", "7", "36", "--cache", str(cache)], capsys)
        assert code == 0
        assert "warning: dropping corrupt cache tail at line 2" in err
        assert out == uncached

    BOUND_7_36 = {"p": 7, "bound": 2736, "s": 6}

    @pytest.mark.parametrize("argv, record", [
        # A found n that does not fail (the true answer is 279).
        (["7", "36"], {"a": 7, "b": 36, "verdict": "found", "n": 1,
                       "n_max": None, "bound": None}),
        (["7", "36"], {"a": 7, "b": 36, "verdict": "found", "n": 1,
                       "n_max": None, "bound": BOUND_7_36}),
        # The right n under a forged bound, or past the scan cap.
        (["7", "36"], {"a": 7, "b": 36, "verdict": "found", "n": 279,
                       "n_max": None, "bound": {"p": 7, "bound": 300, "s": 6}}),
        (["7", "36", "--n-cap", "100"], {"a": 7, "b": 36, "verdict": "found",
                                         "n": 279, "n_max": None,
                                         "bound": BOUND_7_36}),
        # A proven zero where an order bound exists, and the reverse.
        (["7", "36"], {"a": 7, "b": 36, "verdict": "proven_zero", "n": None,
                       "n_max": None, "bound": BOUND_7_36}),
        (["2", "4"], {"a": 2, "b": 4, "verdict": "found", "n": 1,
                      "n_max": None, "bound": None}),
        # An inconclusive scan that stopped short of its cap.
        (["7", "36"], {"a": 7, "b": 36, "verdict": "inconclusive", "n": None,
                       "n_max": 5, "bound": BOUND_7_36}),
        # A found n stored as true, which equals 1 but is not an integer.
        (["2", "3"], {"a": 2, "b": 3, "verdict": "found", "n": True,
                      "n_max": None, "bound": {"p": 2, "bound": 3, "s": 4}}),
    ], ids=["found-1-no-bound", "found-1", "found-bound-forged",
            "found-past-cap", "proven-zero-with-bound", "found-without-bound",
            "inconclusive-short", "found-true"])
    def test_cache_forged_entry_recomputed(self, argv, record, tmp_path, capsys):
        n_cap = int(argv[3]) if len(argv) > 2 else None
        key = {"a": int(argv[0]), "b": int(argv[1]), "n_cap": n_cap}
        cache = self._cache_with(tmp_path, key, record)
        code_uncached, uncached, _ = run_cli(["fab"] + argv, capsys)
        code, out, err = run_cli(["fab"] + argv + ["--cache", str(cache)], capsys)
        assert (code, out) == (code_uncached, uncached)
        assert "fails its re-check; recomputing" in err
        # The recomputed record is appended and answers the next run.
        assert len(cache.read_text().splitlines()) == 3
        code, out, err = run_cli(["fab"] + argv + ["--cache", str(cache)], capsys)
        assert (code, out) == (code_uncached, uncached)
        assert "re-check" not in err

    @pytest.mark.parametrize("argv", [
        ["7", "36"], ["1", "1"], ["7", "36", "--n-cap", "5"],
        ["7", "36", "--n-cap", "0"], ["2", "3"]])
    def test_cache_honest_entry_passes_recheck(self, argv, tmp_path, capsys):
        cache = str(tmp_path / "fab.cache")
        first = run_cli(["fab"] + argv + ["--cache", cache], capsys)
        code, out, err = run_cli(["fab"] + argv + ["--cache", cache], capsys)
        assert (code, out) == first[:2]
        assert "re-check" not in err
        assert len(open(cache).read().splitlines()) == 2

    def test_cache_version_mismatch(self, tmp_path, capsys):
        cache = tmp_path / "fab.cache"
        cache.write_text('{"engine_version": "0.0.0", "kind": "fab-cache"}\n')
        with pytest.raises(SystemExit) as exc:
            run_cli(["fab", "2", "3", "--cache", str(cache)], capsys)
        assert exc.value.code == 64


class TestVerify:
    def test_thm3(self, capsys):
        code, out, _ = run_cli(["verify", "thm3", "--n-max", "4"], capsys)
        assert code == 0
        records = parse_jsonl(out)
        assert [r["n"] for r in records[:-1]] == [1, 2, 3, 4]
        assert records[-1]["all_ok"] is True

    def test_thm0(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm0", "--a-max", "3", "--b-max", "3", "--n-max", "3"],
            capsys)
        assert code == 0
        assert parse_jsonl(out)[-1]["record_count"] == 27

    def test_thm4_without_expand(self, capsys):
        code, out, _ = run_cli(["verify", "thm4", "--n-max", "1"], capsys)
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert len(rec["families"]) == 7
        assert all(f["polynomial"] for f in rec["families"])

    def test_thm4_expand_partial_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVCERT_BUDGET_DEGREE", "50")
        code, out, _ = run_cli(
            ["verify", "thm4", "--n-max", "1", "--expand"], capsys)
        assert code == 3
        assert parse_jsonl(out)[-1]["partial"] is True

    @pytest.mark.parametrize("argv", [
        ["--budget-degree", "0", "verify", "thm4", "--n-max", "1", "--expand"],
        ["--budget-prime", "0", "theta", "10"],
        ["--budget-prime", "0", "primes", "--lo", "530", "--hi", "3761"],
        ["--budget-prime", "0", "fab", "7", "36"],
    ])
    def test_zero_budget_honoured(self, argv, capsys, monkeypatch):
        # The option overrides a budget set in the environment.
        monkeypatch.setenv("DIVCERT_BUDGET_DEGREE", "100000")
        monkeypatch.setenv("DIVCERT_BUDGET_PRIME", "100000000")
        code, _, _ = run_cli(argv, capsys)
        assert code == 3

    def test_budget_refusal_does_not_depend_on_earlier_calls(self, capsys):
        # The plain run sieves trial-division primes and fills the
        # factorization memo; the budgeted run must still be refused.
        assert run_cli(["fab", "7", "36"], capsys)[0] == 0
        code, out, err = run_cli(["--budget-prime", "0", "fab", "7", "36"], capsys)
        assert code == 3 and out == ""
        assert "past budget 0" in err
        assert run_cli(["fab", "7", "36"], capsys)[0] == 0

    def test_budget_environment_read_per_call(self, capsys, monkeypatch):
        argv = ["verify", "thm4", "--n-max", "1", "--expand"]
        monkeypatch.setenv("DIVCERT_BUDGET_DEGREE", "0")
        assert run_cli(argv, capsys)[0] == 3
        monkeypatch.delenv("DIVCERT_BUDGET_DEGREE")
        assert run_cli(argv, capsys)[0] == 0
        monkeypatch.setenv("DIVCERT_BUDGET_PRIME", "many")
        code, _, err = run_cli(["fab", "7", "36"], capsys)
        assert code == 64 and "DIVCERT_BUDGET_PRIME must be an integer" in err

    def test_budget_option_does_not_leak(self, capsys):
        argv = ["verify", "thm4", "--n-max", "1", "--expand"]
        before = os.environ.get("DIVCERT_BUDGET_DEGREE")
        budgets = core.prime_budget, qpoly.degree_budget
        assert run_cli(["--budget-degree", "0"] + argv, capsys)[0] == 3
        assert run_cli(["--budget-prime", "0", "fab", "7", "36"], capsys)[0] == 3
        assert os.environ.get("DIVCERT_BUDGET_DEGREE") == before
        assert (core.prime_budget, qpoly.degree_budget) == budgets
        assert run_cli(argv, capsys)[0] == 0

    def test_par_workers_get_the_budgets(self, capsys):
        argv = ["verify", "thm0", "--a-max", "2", "--b-max", "2", "--n-max", "2",
                "--par", "2"]
        code, out, _ = run_cli(["--budget-prime", "0"] + argv, capsys)
        assert code == 3 and parse_jsonl(out)[-1]["partial"] is True
        assert run_cli(argv, capsys)[0] == 0

    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm3", "--n-max", "2", "--table"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["checks", "n", "ok"]
        assert lines[-1].startswith("summary:")

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            ["verify", "thm3", "--n-max", "2", "--output", str(path)], capsys)
        assert code == 0
        assert out == ""
        records = parse_jsonl(path.read_text())
        assert records[-1]["record"] == "summary"


class TestCheckpoint:
    ARGS = ["verify", "thm0", "--a-max", "2", "--b-max", "2", "--n-max", "3"]

    def test_resume_byte_identical(self, tmp_path, capsys, monkeypatch):
        baseline_code, baseline_out, _ = run_cli(self.ARGS, capsys)
        assert baseline_code == 0

        ckpt = str(tmp_path / "run.ckpt")
        calls = {"n": 0}
        claim = cli._GRIDS["verify"]["thm0"]

        def flaky(params, point):
            calls["n"] += 1
            if calls["n"] > 5:
                raise KeyboardInterrupt
            return claim.worker(params, point)

        monkeypatch.setitem(cli._GRIDS["verify"], "thm0",
                            claim._replace(worker=flaky))
        with pytest.raises(KeyboardInterrupt):
            run_cli(self.ARGS + ["--checkpoint", ckpt], capsys)
        capsys.readouterr()
        monkeypatch.setitem(cli._GRIDS["verify"], "thm0", claim)

        code, out, _ = run_cli(self.ARGS + ["--checkpoint", ckpt], capsys)
        assert code == 0
        assert out == baseline_out  # byte-identical records after resume

    def test_resume_skips_done_points(self, tmp_path, capsys, monkeypatch):
        ckpt = str(tmp_path / "run.ckpt")
        code, _, _ = run_cli(self.ARGS + ["--checkpoint", ckpt], capsys)
        assert code == 0
        done = len(open(ckpt).read().splitlines())

        def boom(params, point):  # pragma: no cover - must never run
            raise AssertionError("resumed run recomputed a finished point")

        claim = cli._GRIDS["verify"]["thm0"]
        monkeypatch.setitem(cli._GRIDS["verify"], "thm0",
                            claim._replace(worker=boom))
        code, out, _ = run_cli(self.ARGS + ["--checkpoint", ckpt], capsys)
        assert code == 0
        assert len(open(ckpt).read().splitlines()) == done

    def test_corrupt_tail_dropped(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        run_cli(self.ARGS + ["--checkpoint", str(ckpt)], capsys)
        good = ckpt.read_text()
        ckpt.write_text(good + '{"truncated')
        code, out, err = run_cli(self.ARGS + ["--checkpoint", str(ckpt)], capsys)
        assert code == 0
        assert "corrupt" in err

    SMALL = ["verify", "thm0", "--a-max", "1", "--b-max", "1", "--n-max", "3"]

    @pytest.mark.parametrize("keep, line", [
        (1, "[1, 2]"),  # parses, but is no record
        (1, '{"a": 1}'),  # an object without the coordinates of its point
        (3, '{"a":1,"b":1,"n":3,"ok":true}'),  # a record past the last point
    ])
    def test_foreign_record_dropped(self, keep, line, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        _, uncheckpointed, _ = run_cli(self.SMALL, capsys)
        run_cli(self.SMALL + ["--checkpoint", str(ckpt)], capsys)
        lines = ckpt.read_text().splitlines()[:keep + 1] + [line]
        ckpt.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(self.SMALL + ["--checkpoint", str(ckpt)], capsys)
        assert code == 0
        assert (f"warning: dropping corrupt checkpoint tail at line {keep + 2}"
                in err)
        assert out == uncheckpointed

    @pytest.mark.parametrize("argv, line", [
        # Each record carries its point's coordinates but not a boolean
        # under the field its claim's rule reads.
        (["conj", "oddp", "--a-max", "2", "--b-max", "1", "--n-max", "3"],
         '{"a":2,"b":1}'),
        (["conj", "conj2witness", "--a-max", "1", "--b-max", "1"],
         '{"a":1,"b":1,"found":"yes"}'),
        (["conj", "c330n88n", "--n", "1"], '{"n":1,"matches_pattern":null}'),
        (["verify", "thm0", "--a-max", "1", "--b-max", "1", "--n-max", "1"],
         '{"a":1,"b":1,"n":1,"ok":1}'),
    ], ids=["oddp", "conj2witness", "c330n88n", "thm0"])
    def test_record_without_verdict_dropped(self, argv, line, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        _, uncheckpointed, _ = run_cli(argv, capsys)
        run_cli(argv + ["--checkpoint", str(ckpt)], capsys)
        header = ckpt.read_text().splitlines()[0]
        ckpt.write_text(f"{header}\n{line}\n")
        code, out, err = run_cli(argv + ["--checkpoint", str(ckpt)], capsys)
        assert code == 0
        assert "warning: dropping corrupt checkpoint tail at line 2" in err
        assert out == uncheckpointed

    def test_fingerprint_mismatch_rejected(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        run_cli(self.ARGS + ["--checkpoint", ckpt], capsys)
        other = ["verify", "thm0", "--a-max", "2", "--b-max", "2",
                 "--n-max", "4", "--checkpoint", ckpt]
        with pytest.raises(SystemExit) as exc:
            run_cli(other, capsys)
        assert exc.value.code == 64

    def test_engine_version_mismatch_reported(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        run_cli(self.ARGS + ["--checkpoint", str(ckpt)], capsys)
        lines = ckpt.read_text().splitlines()
        header = json.loads(lines[0])
        header["engine_version"] = "0.0.0"
        ckpt.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(self.ARGS + ["--checkpoint", str(ckpt)], capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "error: checkpoint written by a different engine version" in err

    def test_empty_file_starts_fresh(self, tmp_path, capsys):
        ckpt = tmp_path / "empty.ckpt"
        ckpt.write_text("")
        argv = ["verify", "thm3", "--n-max", "2", "--checkpoint", str(ckpt)]
        _, uncheckpointed, _ = run_cli(argv[:-2], capsys)
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        assert "fingerprint" in json.loads(ckpt.read_text().splitlines()[0])
        code, second, _ = run_cli(argv, capsys)
        assert code == 0
        assert first == second == uncheckpointed

    def test_degree_budget_mismatch_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DIVCERT_BUDGET_DEGREE", raising=False)
        ckpt = str(tmp_path / "budget.ckpt")
        argv = ["verify", "thm4", "--n-max", "1", "--expand", "--checkpoint", ckpt]
        code, partial, _ = run_cli(["--budget-degree", "50"] + argv, capsys)
        assert code == 3
        # The same budget resumes; another one is refused by name.
        code, resumed, _ = run_cli(["--budget-degree", "50"] + argv, capsys)
        assert code == 3 and resumed == partial
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "error: checkpoint written under degree budget 50, not 100000" in err

    def test_header_without_degree_budget_refused(self, tmp_path, capsys):
        # Written before the degree budget entered the fingerprint.
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_text(json.dumps({"engine_version": cli.__version__,
                                    "fingerprint": "0" * 64}) + "\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(self.ARGS + ["--checkpoint", str(ckpt)], capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "predates degree-budget fingerprints; delete it" in err

    def test_degree_budget_not_in_report(self, tmp_path, capsys):
        argv = ["verify", "thm3", "--n-max", "2"]
        _, plain, _ = run_cli(argv, capsys)
        code, budgeted, _ = run_cli(
            ["--budget-degree", "7"] + argv
            + ["--checkpoint", str(tmp_path / "run.ckpt")], capsys)
        assert code == 0
        assert budgeted == plain


class TestConj:
    def test_conj2witness(self, capsys):
        code, out, _ = run_cli(
            ["conj", "conj2witness", "--a-max", "2", "--b-max", "2"], capsys)
        assert code == 0
        records = parse_jsonl(out)
        assert records[-1]["all_found"] is True
        first = records[0]
        assert (first["a"], first["b"], first["p"], first["n"]) == (1, 1, 5, 2)

    def test_c330n88n(self, capsys):
        code, out, _ = run_cli(["conj", "c330n88n", "--n", "1"], capsys)
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["degree"] == 104
        assert rec["negatives"] == [[1, -1], [103, -1]]
        assert rec["matches_pattern"] is True

    def test_c330n88n_budget_keeps_finished_records(self, capsys):
        code, out, err = run_cli(
            ["--budget-degree", "200", "conj", "c330n88n", "--n-max", "2"],
            capsys)
        assert code == 3
        records = parse_jsonl(out)
        assert [r["n"] for r in records[:-1]] == [1]
        assert records[0]["matches_pattern"] is True
        assert records[-1]["partial"] is True
        assert records[-1]["record_count"] == 1
        assert "error: expansion degree" in err

    def test_c330n88n_n_zero_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["conj", "c330n88n", "--n", "0", "--n-max", "2"], capsys)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --n: must be an integer >= 1" in err

    def test_oddp2(self, capsys):
        code, out, _ = run_cli(
            ["conj", "oddp2", "--m", "1", "--a-max", "4", "--b-max", "4",
             "--n-max", "20"], capsys)
        records = parse_jsonl(out)
        assert "survivors" in records[-1]
        assert code in (0, 2)


class TestPrimes:
    def test_window(self, capsys):
        code, out, _ = run_cli(["primes", "--lo", "530", "--hi", "532"], capsys)
        assert code == 0
        records = parse_jsonl(out)
        assert records[0] == {"x": 530, "witness_prime": 557}
        assert records[-1]["failures"] == []

    def test_failures_exit_2(self, capsys):
        code, out, _ = run_cli(["primes", "--lo", "2", "--hi", "5"], capsys)
        assert code == 2


class TestQbinomTheta:
    def test_qbinom(self, capsys):
        code, out, _ = run_cli(["qbinom", "4", "2"], capsys)
        assert code == 0
        assert parse_jsonl(out)[0]["coeffs"] == [1, 1, 2, 1, 1]
        # Every Gaussian polynomial of degree k(m-k) <= 400 with m <= 40
        # equals the q-Pascal oracle's.
        for m in range(41):
            for k in range(m + 1):
                code, out, _ = run_cli(["qbinom", str(m), str(k)], capsys)
                assert code == 0
                record = parse_jsonl(out)[0]
                expected = oracles.qbinom_poly(m, k)
                assert record["coeffs"] == list(expected.coeffs)
                assert record["degree"] == expected.degree == k * (m - k)

    def test_qbinom_refusals(self, capsys):
        code, _, err = run_cli(["qbinom", "3", "4"], capsys)
        assert code == 64 and "error:" in err
        # Both dumps build the same quotient expression, so both refuse k > m
        # with its message.
        code, out, err = run_cli(["qbinom", "3", "5"], capsys)
        assert (code, out, err) == (
            64, "", "error: require 0 <= binom_k <= binom_m\n")
        assert run_cli(["qbinom", "3", "5", "--exponents"], capsys) == (
            code, out, err)
        code, out, err = run_cli(
            ["--budget-degree", "24", "qbinom", "10", "5"], capsys)
        assert code == 3 and out == ""
        assert "exceeds budget 24" in err

    def test_qbinom_exponents(self, capsys):
        code, out, _ = run_cli(["qbinom", "6", "3", "--exponents"], capsys)
        assert code == 0
        assert parse_jsonl(out)[0]["exponents"] == {
            "2": 1, "4": 1, "5": 1, "6": 1}

    def test_theta(self, capsys):
        code, out, _ = run_cli(["theta", "10"], capsys)
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["prime_count"] == 2
        assert abs(rec["theta"] - 2.302585092994046) < 1e-12


class TestInternalCheck:
    def test_failed_cross_check_exit_70(self, capsys, monkeypatch):
        from divcert import core
        monkeypatch.setattr(core, "_carry_count", lambda a, b, p: -1)
        code, out, err = run_cli(
            ["verify", "thm0", "--a-max", "1", "--b-max", "1", "--n-max", "2"],
            capsys)
        assert code == 70
        assert out == ""
        assert ("error: internal check failed: "
                "Legendre and Kummer routes disagree") in err

    def test_cross_check_runs_under_optimize(self):
        # python -O strips bare asserts; the engine's cross-checks raise
        # AssertionError explicitly, so a planted fault still exits 70.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = ("import sys\n"
                "from divcert import cli, core\n"
                "core._carry_count = lambda a, b, p: -1\n"
                "sys.exit(cli.main(['verify', 'thm0', '--a-max', '1',"
                " '--b-max', '1', '--n-max', '2']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 70
        assert proc.stdout == ""
        assert ("error: internal check failed: "
                "Legendre and Kummer routes disagree") in proc.stderr

    def test_kernel_remainder_exit_70(self, capsys, monkeypatch):
        # Polynomiality is decided before any expansion, so a remainder in
        # an exact division is an engine fault, not a usage error.
        from divcert import qpoly

        def remainder(c, t):
            raise ValueError("not divisible by 1 - q^t")

        monkeypatch.setattr(qpoly, "div_one_minus_qt", remainder)
        code, out, err = run_cli(["verify", "thm_kn", "--n-max", "1"], capsys)
        assert code == 70
        assert out == ""
        assert ("error: internal check failed: expansion of a decided "
                "polynomial: not divisible by 1 - q^t") in err

    def test_planted_remainder_on_shorter_side_exit_70(self, capsys, monkeypatch):
        # [40, 33]_q is built from its 7 shorter-side factors.  A product
        # one off in its top coefficient is nonzero at q = 1, so the real
        # division kernel meets a remainder.
        from divcert._kernels import mul_one_minus_qt

        def off_by_one(c, t):
            out = mul_one_minus_qt(c, t)
            out[-1] += 1
            return out

        monkeypatch.setattr(qpoly, "mul_one_minus_qt", off_by_one)
        code, out, err = run_cli(["qbinom", "40", "33"], capsys)
        assert code == 70
        assert out == ""
        assert ("error: internal check failed: expansion of a decided "
                "polynomial: not divisible by 1 - q^t") in err


# Options below their least value, each with its usage message.
BELOW_LEAST = [
    (["fab", "7", "36", "--n-cap", "-5"], "--n-cap: must be an integer >= 0"),
    (["verify", "thm0", "--n-max", "-1", "--a-max", "1", "--b-max", "1"],
     "--n-max: must be an integer >= 1"),
    (["verify", "thm4", "--n-max", "0"], "--n-max: must be an integer >= 1"),
    (["verify", "andrews", "--a-max", "0"], "--a-max: must be an integer >= 1"),
    (["verify", "andrews", "--b-max", "0"], "--b-max: must be an integer >= 1"),
    (["conj", "conj2witness", "--a-max", "0"],
     "--a-max: must be an integer >= 1"),
    (["conj", "oddp2", "--m", "0"], "--m: must be an integer >= 1"),
    (["conj", "c330n88n", "--n-max", "0"], "--n-max: must be an integer >= 1"),
    (["conj", "oddp", "--p", "0", "--a-max", "2", "--b-max", "1",
      "--n-max", "2"], "--p: must be an integer >= 2"),
    (["conj", "oddp", "--p", "1"], "--p: must be an integer >= 2"),
]


class TestUsageErrors:
    def test_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "thm99"], capsys)
        assert exc.value.code == 64

    def test_bad_value(self, capsys):
        code, _, err = run_cli(["fab", "0", "1"], capsys)
        assert code == 64
        assert "error" in err

    def test_p_cap_below_two_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["conj", "conj2witness", "--p-cap", "1"], capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "error: argument --p-cap: must be an integer >= 2" in err

    @pytest.mark.parametrize("argv, message", BELOW_LEAST,
                             ids=[" ".join(argv) for argv, _ in BELOW_LEAST])
    def test_bound_below_its_least_value_refused(self, argv, message, capsys):
        # Each of these once ran an empty or unchecked grid and reported
        # its claim as holding, or took a negative scan cap.
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, capsys)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {message}" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([], capsys)
        assert exc.value.code == 64

    def test_grid_options_rejected_elsewhere(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        with pytest.raises(SystemExit) as exc:
            run_cli(["fab", "7", "36", "--par", "4", "--checkpoint", str(ckpt)],
                    capsys)
        assert exc.value.code == 64
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv", [
        ["fab", "2", "3", "--cache"],
        ["verify", "thm3", "--n-max", "2", "--checkpoint"],
    ])
    def test_non_object_header_refused(self, argv, tmp_path, capsys):
        state = tmp_path / "state"
        state.write_text("[1]\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + [str(state)], capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "error:" in err and "header is not a JSON object" in err
        assert state.read_text() == "[1]\n"


class TestRepeatedCalls:
    def test_usage_error_between_runs_changes_nothing(self, tmp_path, capsys):
        argv = ["verify", "thm4", "--n-max", "2"]
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        ckpt = tmp_path / "run.ckpt"
        assert run_cli(argv + ["--output", str(first),
                               "--checkpoint", str(ckpt)], capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "thm4", "--n-max", "two"], capsys)
        assert exc.value.code == 64
        assert run_cli(argv + ["--output", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()
        # The checkpoint holds the same record lines as the report.
        assert (ckpt.read_text().splitlines()[1:]
                == first.read_text().splitlines()[:-1])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children), max_leaves=20)


@given(st.dictionaries(st.text(), JSON_VALUES))
def test_record_dumps_matches_json_dumps(record):
    assert cli._record_dumps(record) == json.dumps(
        record, sort_keys=True, separators=(",", ":"))


class TestParallel:
    def test_par_matches_serial(self, capsys):
        args = ["verify", "thm3", "--n-max", "6"]
        _, serial, _ = run_cli(args, capsys)
        code, par, _ = run_cli(args + ["--par", "2"], capsys)
        assert code == 0
        assert par == serial


def test_environment_table_matches_source():
    root = Path(__file__).resolve().parents[1]
    source = "".join(p.read_text() for p in (root / "src" / "divcert").glob("*.py"))
    read = set(re.findall(r"DIVCERT_[A-Z_]+", source))
    table = set(re.findall(r"^\| `(DIVCERT_[A-Z_]+)`",
                           (root / "README.md").read_text(), re.MULTILINE))
    assert read == table == {"DIVCERT_BUDGET_DEGREE", "DIVCERT_BUDGET_PRIME"}


def test_readme_grid_ids_match_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for command in ("verify", "conj"):
        listed = re.search(rf"`{command}` \(([^)]*)\)", readme).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(cli._GRIDS[command])


# What a serial run without a checkpoint has no use for: the process pool
# (--par above 1), hashlib (--checkpoint), rational arithmetic, and the
# dataclass machinery with the inspect module it loads (records are
# NamedTuples).
_LAZY_MODULES = ("concurrent.futures", "multiprocessing", "hashlib",
                 "fractions", "decimal", "dataclasses", "inspect")
_LOADED = f"[m for m in {_LAZY_MODULES!r} if m in sys.modules]"


class TestColdImports:
    @staticmethod
    def _fresh(code):
        """The last stdout line of `code` run in a fresh interpreter."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def _baseline(self):
        """What a bare interpreter already loads, whatever its site setup."""
        return set(self._fresh(f"import sys; print(' '.join({_LOADED}))").split())

    @pytest.mark.parametrize("module", ["divisibility", "qdivisibility"])
    def test_engine_import_loads_no_dataclasses(self, module):
        loaded = self._fresh(
            f"import sys; from divcert import {module}; print(' '.join({_LOADED}))")
        assert set(loaded.split()) <= self._baseline()

    def test_serial_run_loads_no_pool_hashing_or_rationals(self):
        baseline = self._baseline()
        result = json.loads(self._fresh(f"""
import contextlib, io, json, sys
from divcert import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()

argv = ["verify", "thm3", "--n-max", "2"]
serial = run(argv)
loaded = {_LOADED}
par = run(argv + ["--par", "2"])
print(json.dumps({{"loaded": loaded, "serial": serial, "par": par,
                  "pool": "concurrent.futures" in sys.modules}}))
"""))
        assert set(result["loaded"]) <= baseline
        assert result["serial"][0] == 0 and result["serial"][1]
        # The pool, imported lazily in a cold process, gives the same bytes.
        assert result["par"] == result["serial"]
        assert result["pool"]


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "divcert.cli", "fab", "1", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0])["verdict"] == "proven_zero"
