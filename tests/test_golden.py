"""Frozen CLI outputs: each case in golden/cases.json runs through cli.main
in process, and its stdout must equal golden/<id>.out byte for byte, with
the recorded exit code.  Cases that share an id (a --par run and its serial
twin) share one expected output."""

import json
from pathlib import Path

import pytest

from divcert import cli

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
