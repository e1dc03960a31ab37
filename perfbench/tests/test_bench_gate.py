"""The correctness gate: right outputs pass, a planted wrong expectation
raises failed_frac."""

import importlib
import types

import pytest

import run
import workloads
from workloads import Point


@pytest.fixture(scope="module")
def engine():
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"divcert.{name}")
        for name in run.ENGINE_MODULES})


def _plant_digest(monkeypatch):
    argv, records, _ = workloads.CLI_STEPS["thm3"]
    monkeypatch.setitem(workloads.CLI_STEPS, "thm3", (argv, records, "0" * 64))


CASES = {
    "int-witness": (
        [Point("witness", (3, 1)), Point("witness", (5, 4))],
        lambda mp: mp.setattr(workloads, "_carries", lambda x, y, p: 99)),
    "q-grid": (
        [Point("gcd-quotient", (3, 5)), Point("gcd-catalan", (2, 1, 2))],
        lambda mp: mp.setattr(workloads, "gcd_quotient_degree",
                              lambda a, b: a * b)),
    "cli-session": (
        [Point("cli", ("thm3", 0), weight=201)], _plant_digest),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_planted_wrong_expectation_raises_failed_frac(
        name, engine, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name]
    points, plant = CASES[name]

    outcomes = run.run_rounds(workload, engine, [points], None).outcomes
    attempted, failed, problems = run.gate(workload, outcomes)
    assert attempted == sum(p.weight for p in points)
    assert failed == 0, problems

    plant(monkeypatch)
    attempted, failed, problems = run.gate(workload, outcomes)
    assert failed / attempted == 1.0
    assert all("wrong verdict" in p for p in problems)


def test_exception_counts_as_failed(engine, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.WORKLOADS["q-grid"]
    points = [Point("gcd-quotient", (3, 5)), Point("gcd-quotient", (0, 5))]
    outcomes = run.run_rounds(workload, engine, [points], None).outcomes
    attempted, failed, problems = run.gate(workload, outcomes)
    assert (attempted, failed) == (2, 1)
    assert "ValueError" in problems[0]
