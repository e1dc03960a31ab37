"""Frozen CLI outputs: each case in golden/cases.json runs through cli.main
in process, and its stdout must equal golden/<id>.out byte for byte, with
the recorded exit code.  Cases that share an id (a --par run and its serial
twin) share one expected output.  The integer-side cases also run twice in
one process, cold and warm.  A subset also runs under python -O, where bare
asserts are stripped, and must give the same bytes and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divcert import cli, core

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case, capsys, monkeypatch):
    monkeypatch.delenv("DIVCERT_BUDGET_DEGREE", raising=False)
    monkeypatch.delenv("DIVCERT_BUDGET_PRIME", raising=False)
    code = cli.main(case["argv"])
    out, _ = capsys.readouterr()
    assert out.encode() == (GOLDEN / f"{case['id']}.out").read_bytes()
    assert code == case["exit"]


# The integer-side cases: each factorizes moduli or sieves primes, so a
# second run in the same process meets a warm factorization memo and
# trial-division table, and must still give the same bytes and exit code.
INTEGER_IDS = ("fab-", "verify-thm0", "verify-thm3", "conj-oddp",
               "conj-conj2witness", "primes-", "theta")


@pytest.mark.parametrize("case", [c for c in CASES if c["id"].startswith(INTEGER_IDS)],
                         ids=lambda c: " ".join(c["argv"]))
def test_golden_cold_and_warm(case, capsys, monkeypatch):
    monkeypatch.delenv("DIVCERT_BUDGET_DEGREE", raising=False)
    monkeypatch.delenv("DIVCERT_BUDGET_PRIME", raising=False)
    core._factorize.cache_clear()
    monkeypatch.setattr(core, "_small_primes", [])
    monkeypatch.setattr(core, "_small_primes_limit", 0)
    expected = (GOLDEN / f"{case['id']}.out").read_bytes()
    for _ in range(2):
        code = cli.main(case["argv"])
        out, _ = capsys.readouterr()
        assert out.encode() == expected
        assert code == case["exit"]


# Integer, congruence-family and expanded q-family runs.
OPTIMIZED_IDS = ("fab-found", "verify-thm3", "verify-thm4-expand")


@pytest.mark.parametrize("case", [c for c in CASES if c["id"] in OPTIMIZED_IDS],
                         ids=lambda c: " ".join(c["argv"]))
def test_golden_optimized(case):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DIVCERT_BUDGET_")}
    env["PYTHONPATH"] = str(GOLDEN.parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-m", "divcert.cli", *case["argv"]],
                          env=env, capture_output=True, timeout=120)
    assert proc.stdout == (GOLDEN / f"{case['id']}.out").read_bytes()
    assert proc.returncode == case["exit"]
