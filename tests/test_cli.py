import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from divcert import cli, core, divisibility, qpoly


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

    def test_cache_option_refused(self, tmp_path, capsys):
        # fab keeps no result cache: every answer is computed and checked.
        cache = tmp_path / "fab.cache"
        with pytest.raises(SystemExit) as exc:
            run_cli(["fab", "2", "3", "--cache", str(cache)], capsys)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: unrecognized arguments: --cache" in err
        assert not cache.exists()


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
        summary = parse_jsonl(out)[-1]
        assert summary["partial"] is True and summary["all_ok"] is None

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

    @pytest.mark.parametrize("var, argv", [
        ("DIVCERT_BUDGET_DEGREE", ["verify", "andrews", "--a-max", "1",
                                   "--b-max", "1"]),
        ("DIVCERT_BUDGET_PRIME", ["fab", "7", "36"]),
    ])
    def test_negative_budget_environment_refused(self, var, argv, capsys,
                                                 monkeypatch):
        # A negative degree budget once made every expansion fail its
        # budget check, and the point was reported as "ok": false.
        monkeypatch.setenv(var, "-7")
        code, out, err = run_cli(argv, capsys)
        assert code == 64 and out == ""
        assert f"error: {var} must be an integer >= 0, not '-7'" in err

    @pytest.mark.parametrize("argv, finished", [
        (["verify", "thm_kn", "--n-max", "4"], 9),
        (["verify", "andrews", "--a-max", "4", "--b-max", "4"], 15),
        (["verify", "anbn", "--a-max", "2", "--b-max", "2", "--n-max", "3"], 5),
    ])
    def test_budget_stop_ends_grid_partial(self, argv, finished, capsys):
        # These claims are non-negativity claims, so a budget that stops an
        # expansion ends the grid; it never turns into "ok": false.
        code, out, err = run_cli(["--budget-degree", "10"] + argv, capsys)
        assert code == 3
        records = parse_jsonl(out)
        assert len(records) == finished + 1
        assert all(r["ok"] for r in records[:-1])
        assert records[-1]["partial"] is True
        assert records[-1]["all_ok"] is None
        assert "error: expansion degree" in err and "exceeds budget 10" in err

    def test_anbn_forms_compared_past_the_index_budget(self, capsys):
        # (1, 9, 1) has degree 0 and its second displayed form has index
        # 11; the forms are compared on divisors, with no vector to budget.
        code, out, err = run_cli(["--budget-degree", "10", "verify", "anbn",
                                  "--a-max", "1", "--b-max", "9", "--n-max", "1"],
                                 capsys)
        records = parse_jsonl(out)
        assert code == 0 and "error" not in err
        assert [r.get("b") for r in records] == [*range(1, 10), None]
        assert records[-1]["all_ok"] is True and records[-1]["partial"] is False

    def test_partial_summary_keeps_a_contradiction(self, capsys, monkeypatch):
        # A finished record that refutes the claim keeps all_ok false even
        # though the budget stops the grid.
        from divcert import qdivisibility
        honest = qdivisibility.verify_gcd_central_quotient

        def planted(n, k):
            v = honest(n, k)
            if (n, k) == (1, 0):
                v = v._replace(nonneg=False, negative_positions=((0, -1),))
            return v
        monkeypatch.setattr(qdivisibility, "verify_gcd_central_quotient", planted)
        code, out, _ = run_cli(
            ["--budget-degree", "10", "verify", "thm_kn", "--n-max", "4"], capsys)
        summary = parse_jsonl(out)[-1]
        assert code == 3 and summary["partial"] is True
        assert summary["all_ok"] is False

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
        claim = cli._COMMANDS["verify"].claims["thm0"]

        def flaky(params, point):
            calls["n"] += 1
            if calls["n"] > 5:
                raise KeyboardInterrupt
            return claim.worker(params, point)

        monkeypatch.setitem(cli._COMMANDS["verify"].claims, "thm0",
                            claim._replace(worker=flaky))
        with pytest.raises(KeyboardInterrupt):
            run_cli(self.ARGS + ["--checkpoint", ckpt], capsys)
        capsys.readouterr()
        monkeypatch.setitem(cli._COMMANDS["verify"].claims, "thm0", claim)

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

        claim = cli._COMMANDS["verify"].claims["thm0"]
        monkeypatch.setitem(cli._COMMANDS["verify"].claims, "thm0",
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
        # The torn line is cut from the file, which every point already answers.
        assert ckpt.read_text() == good

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

    @pytest.mark.parametrize("checkpoint, output", [
        ("s.jsonl", "s.jsonl"), ("s.jsonl", "./s.jsonl"),
        ("s.jsonl.tmp", "s.jsonl"),  # the report's temporary file
    ])
    def test_checkpoint_that_output_overwrites_refused(
            self, checkpoint, output, tmp_path, capsys, monkeypatch):
        # The report once replaced the checkpoint, and the next run refused
        # that file as the work of another engine version.
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "thm3", "--n-max", "3", "--checkpoint", checkpoint]
        assert run_cli(argv, capsys)[0] == 0
        saved = Path(checkpoint).read_bytes()
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--output", output], capsys)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --checkpoint would be overwritten by --output" in err
        assert os.listdir() == [checkpoint]
        assert Path(checkpoint).read_bytes() == saved
        assert run_cli(argv, capsys)[0] == 0

    @pytest.mark.parametrize("argv", [
        ["conj", "c330n88n", "--n", "30"],  # a report of its summary alone
        ["verify", "thm3", "--n-max", "2"],
    ])
    def test_report_as_checkpoint_refused(self, argv, tmp_path, capsys):
        # A report once drew "predates degree-budget fingerprints; delete
        # it" or "written by a different engine version".
        report = tmp_path / "r.jsonl"
        cli.main(argv + ["--output", str(report)])
        saved = report.read_bytes()
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--checkpoint", str(report)], capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert ("error: not a divcert checkpoint header: it has no fingerprint"
                in err)
        assert report.read_bytes() == saved

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
        assert records[-1]["all_match"] is None
        assert "error: expansion degree" in err

    def test_c330n88n_exponent_vector_over_budget(self, capsys):
        # Its exponent vector would run to index 3 * 10**8.
        code, out, err = run_cli(["--budget-degree", "1000", "conj", "c330n88n",
                                  "--n", "10000000"], capsys)
        assert code == 3
        summary = parse_jsonl(out)[-1]
        assert summary["record_count"] == 0 and summary["all_match"] is None
        assert "error: exponent vector index 300000000 exceeds budget 1000" in err

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

    def test_qbinom_exponents_budget(self, capsys):
        # The vector is dense up to index m, so m past the degree budget is
        # refused before it is built.
        code, out, err = run_cli(
            ["--budget-degree", "1000", "qbinom", "5000", "1", "--exponents"],
            capsys)
        assert (code, out) == (3, "")
        assert "error: exponent vector index 5000 exceeds budget 1000" in err

    def test_qbinom_trivial_exponents_need_no_budget(self, capsys):
        # [m, 0]_q = [m, m]_q = 1 has an empty vector at any m.
        for k in ("0", "200000000"):
            code, out, _ = run_cli(
                ["qbinom", "200000000", k, "--exponents"], capsys)
            assert code == 0
            assert parse_jsonl(out)[0]["exponents"] == {}

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

    def test_fab_scan_to_the_bound_without_failure_exit_70(self, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(core, "divides_binomial", lambda m, k, d: (True, []))
        code, out, err = run_cli(["fab", "7", "36"], capsys)
        assert code == 70 and out == ""
        assert "error: internal check failed: no n up to the bound 2736" in err

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

    def test_planted_form_difference_exit_70(self, capsys, monkeypatch):
        # At (1, 9, 1) the second displayed form is (1-q)/(1-q^11) [11, 1]_q.
        # One more Phi_11 in it is a difference at a divisor of an+bn+1.
        honest = qpoly.divisor_exponents

        def planted(expr, indices):
            for d, e in honest(expr, indices):
                yield d, e + (d == expr.binom_m == 11)

        monkeypatch.setattr(qpoly, "divisor_exponents", planted)
        code, out, err = run_cli(["verify", "anbn", "--a-max", "1",
                                  "--b-max", "9", "--n-max", "1"], capsys)
        assert code == 70
        assert out == ""
        assert "error: internal check failed: the two displayed forms differ" in err

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
    (["verify", "thm3", "--n-max", "2", "--par", "0"],
     "--par: must be an integer >= 1"),
    (["--budget-prime", "-1", "fab", "7", "36"],
     "--budget-prime: must be an integer >= 0"),
    (["--budget-degree", "-7", "verify", "andrews", "--a-max", "1",
      "--b-max", "1"], "--budget-degree: must be an integer >= 0"),
    # Positionals and --lo/--hi once went to the engine unchecked, and only
    # its ValueError refused them.
    (["fab", "0", "1"], "a: must be an integer >= 1"),
    (["fab", "7", "0"], "b: must be an integer >= 1"),
    (["theta", "1"], "x: must be an integer >= 2"),
    (["qbinom", "-1", "0"], "m: must be an integer >= 0"),
    (["primes", "--lo", "1", "--hi", "5"], "--lo: must be an integer >= 2"),
]


class TestUsageErrors:
    def test_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "thm99"], capsys)
        assert exc.value.code == 64

    def test_bad_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["fab", "0", "1"], capsys)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: divcert fab ")
        assert "error: argument a: must be an integer >= 1, not '0'\n" in err

    @pytest.mark.parametrize("argv", [["verify", "thm3", "--n-max", "1"],
                                      ["fab", "7", "36"]])
    def test_table_with_output_refused(self, argv, tmp_path, capsys):
        # --table was once ignored when --output was given.
        output = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--table", "--output", str(output)], capsys)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --output: not allowed with argument --table" in err
        assert list(tmp_path.iterdir()) == []

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
        # its claim as holding, or took a negative scan cap or budget.
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

    def test_non_object_header_refused(self, tmp_path, capsys):
        state = tmp_path / "state"
        state.write_text("[1]\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "thm3", "--n-max", "2", "--checkpoint", str(state)],
                    capsys)
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "error: checkpoint header is not a JSON object" in err
        assert state.read_text() == "[1]\n"


# One run per exit code, each with --output appended; the 64 with a
# checkpoint is refused on the file `header`, which holds no JSON object.
EVERY_EXIT = [
    (0, ["verify", "thm3", "--n-max", "1"]),
    (2, ["fab", "7", "36", "--n-cap", "5"]),
    (3, ["--budget-degree", "10", "verify", "thm_kn", "--n-max", "4"]),
    (3, ["--budget-prime", "10", "primes", "--lo", "10", "--hi", "100"]),
    (64, ["fab", "0", "1"]),
    (64, ["verify", "thm3", "--n-max", "2", "--checkpoint", "header"]),
    (70, ["verify", "thm0", "--a-max", "1", "--b-max", "1", "--n-max", "2"]),
    (74, ["verify", "thm3", "--n-max", "1", "--checkpoint", "missing/x"]),
]


class TestIOErrors:
    @pytest.mark.parametrize("option", ["--output", "--checkpoint"])
    def test_unwritable_file_exit_74(self, option, tmp_path, capsys):
        missing = tmp_path / "missing"
        code, out, err = run_cli(["verify", "thm3", "--n-max", "1",
                                  option, str(missing / "x")], capsys)
        assert code == cli.EXIT_IOERR == 74
        assert out == ""
        assert "error: [Errno 2] No such file or directory" in err
        assert "Traceback" not in err
        assert not missing.exists() and list(tmp_path.iterdir()) == []

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, capsys):
        # The target is a directory: refused before its temporary file opens.
        target = tmp_path / "report"
        target.mkdir()
        code, out, err = run_cli(
            ["verify", "thm3", "--n-max", "1", "--output", str(target)], capsys)
        assert code == 74
        assert "error: [Errno 21] Is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_unwritable_output_refused_before_the_grid(self, tmp_path, capsys,
                                                       monkeypatch):
        calls = []
        monkeypatch.setattr(divisibility, "negative_valuation_witness",
                            lambda *a, **k: calls.append(a))
        output = str(tmp_path / "missing" / "x.jsonl")
        code, out, err = run_cli(["conj", "conj2witness", "--a-max", "6",
                                  "--b-max", "6", "--output", output], capsys)
        assert code == 74 and out == "" and calls == []
        # The message names the path as given, not its temporary file.
        assert f"error: [Errno 2] No such file or directory: '{output}'\n" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("code, argv", EVERY_EXIT,
                             ids=[f"{c} {' '.join(a)}" for c, a in EVERY_EXIT])
    def test_no_temporary_file_after_any_exit(self, code, argv, tmp_path,
                                              capsys, monkeypatch):
        # The report's temporary file is open from before the first point.
        monkeypatch.chdir(tmp_path)
        Path("header").write_text("[1]\n")
        if code == 70:
            monkeypatch.setattr(core, "_carry_count", lambda a, b, p: -1)
        try:
            got = cli.main(argv + ["--output", "report"])
        except SystemExit as exc:
            got = exc.code
        capsys.readouterr()
        assert got == code
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


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


# One run of every verify and conj claim and of every other subcommand.
# Between them their records hold nested checks (thm3), families with null
# and negative_positions (thm4 --expand under a budget), negative numbers
# (c330n88n), floats (theta), big integers (qbinom 40 33) and fab's bound
# object and nulls; a checkpoint adds its header and fingerprint.
EVERY_RECORD_ARGV = [
    *(["verify", claim, "--n-max", "2", "--a-max", "2", "--b-max", "2"]
      for claim in ("thm0", "thm3", "thm_kn", "andrews", "anbn",
                    "decomposition")),
    ["--budget-degree", "50", "verify", "thm4", "--n-max", "1", "--expand"],
    ["conj", "conj2witness", "--a-max", "2", "--b-max", "2"],
    ["conj", "oddp", "--a-max", "3", "--b-max", "2", "--n-max", "5"],
    ["conj", "oddp2", "--a-max", "2", "--b-max", "2", "--n-max", "5"],
    ["conj", "c330n88n", "--n", "1"],
    ["fab", "7", "36"], ["fab", "1", "1"], ["fab", "7", "36", "--n-cap", "5"],
    ["primes", "--lo", "2", "--hi", "5"],
    ["qbinom", "40", "33"], ["qbinom", "6", "3", "--exponents"],
    ["theta", "10"],
]


def test_every_cli_record_matches_json_dumps(tmp_path, capsys, monkeypatch):
    seen = []
    real = cli._record_dumps

    def recording(record):
        seen.append(record)
        return real(record)

    monkeypatch.setattr(cli, "_record_dumps", recording)
    for i, argv in enumerate(EVERY_RECORD_ARGV):
        code = cli.main(argv + (["--checkpoint", str(tmp_path / f"{i}.ckpt")]
                                if "verify" in argv or "conj" in argv else []))
        assert code in (0, 2, 3)
    capsys.readouterr()
    assert {"fingerprint", "negatives", "theta", "coeffs", "checks",
            "families"} <= {key for r in seen for key in r}
    for record in seen:
        assert real(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":"))


class TestParallel:
    def test_par_matches_serial(self, capsys):
        args = ["verify", "thm3", "--n-max", "6"]
        _, serial, _ = run_cli(args, capsys)
        code, par, _ = run_cli(args + ["--par", "2"], capsys)
        assert code == 0
        assert par == serial

    # (points, --par, CPU count) -> the pool width, where one is started.
    @pytest.mark.parametrize("n_max, par, cpus, width", [
        (2, 5000, 64, 2),  # no wider than the points
        (40, 5000, 4, 4),  # nor than the CPUs
        (40, 3, 64, 3),  # nor than asked for
        (2, 5000, None, None),  # an unknown CPU count runs serially
        (1, 5000, 64, None),  # and so does a single point
        (40, 5000, 1, None),  # or a single CPU
    ])
    def test_pool_width_capped(self, n_max, par, cpus, width, capsys,
                               monkeypatch):
        # A stand-in pool records its width and runs the points in this
        # process, so no width here starts a worker.
        import concurrent.futures

        widths = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, points, chunksize):
                return map(fn, points)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        args = ["verify", "thm3", "--n-max", str(n_max)]
        _, serial, _ = run_cli(args, capsys)
        code, out, _ = run_cli(args + ["--par", str(par)], capsys)
        assert (code, out) == (0, serial)
        assert widths == ([] if width is None else [width])


def test_environment_table_matches_source():
    root = Path(__file__).resolve().parents[1]
    source = "".join(p.read_text() for p in (root / "src" / "divcert").glob("*.py"))
    read = set(re.findall(r"DIVCERT_[A-Z_]+", source))
    table = set(re.findall(r"^\| `(DIVCERT_[A-Z_]+)`",
                           (root / "README.md").read_text(), re.MULTILINE))
    assert read == table == {"DIVCERT_BUDGET_DEGREE", "DIVCERT_BUDGET_PRIME"}


def test_readme_grid_ids_match_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    subcommands = re.search(r"^Subcommands: (.*?)\.$", readme,
                            re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", subcommands)) == list(
        cli._COMMANDS)
    for command in ("verify", "conj"):
        listed = re.search(rf"`{command}` \(([^)]*)\)", subcommands).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(cli._COMMANDS[command].claims)
    # The arguments table: one row per subcommand, each argument with its
    # least value and any default.
    table = readme.split("| Subcommand | Arguments |")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.MULTILINE))
    assert list(rows) == list(cli._COMMANDS)
    for name, command in cli._COMMANDS.items():
        for arg in command.arguments:
            text = f"`{arg.name}`"
            if arg.least is not None:
                text += f" >= {arg.least}"
            if arg.default is not None:
                text += f", default {arg.default}"
            assert text in rows[name], (name, text)


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
import contextlib, io, json, os, sys
from divcert import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()

argv = ["verify", "thm3", "--n-max", "2"]
serial = run(argv)
loaded = {_LOADED}
os.cpu_count = lambda: 2  # the pool is no wider than the CPUs; load it anyway
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
