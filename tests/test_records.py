"""The engine's records: immutable NamedTuples whose constructors keep every
check they make, on every path that builds a record."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from divcert import core, divisibility, qdivisibility, qpoly
from divcert.divisibility import Conj2Witness
from divcert.qdivisibility import QFamilyVerdict
from divcert.qpoly import CycloFactorization, QuotientExpr

ROOT = Path(__file__).resolve().parents[1]

# (record class, fields it refuses, the exception it raises).
REJECTED = [
    (core.Factorization, (((2, 0),), 1), ValueError),
    (core.Factorization, (((3, 1), (2, 1)), 6), ValueError),
    (core.Factorization, (((2, 1), (2, 1)), 4), ValueError),
    (core.Factorization, (((1, 1),), 1), ValueError),
    (core.Factorization, (((4, 1),), 4), ValueError),
    (core.Factorization, (((2, 1), (3, 1)), 7), ValueError),
    (core.Factorization, ((), 2), ValueError),
    (CycloFactorization, ({2: 1, 3: 0},), ValueError),
    (QuotientExpr, ((1, 2), (3,), 4, 2), ValueError),
    (QuotientExpr, ((0,), (3,), 4, 2), ValueError),
    (QuotientExpr, ((1,), (-3,), 4, 2), ValueError),
    (QuotientExpr, ((), (), 4, 5), ValueError),
    (QuotientExpr, ((), (), 4, -1), ValueError),
    # nonneg true on a non-polynomial.
    (QFamilyVerdict, ("f", (), False, True, (), 0), AssertionError),
    # nonneg must be true exactly when there is no negative position.
    (QFamilyVerdict, ("f", (), True, True, ((1, -1),), 4), AssertionError),
    (QFamilyVerdict, ("f", (), True, False, (), 4), AssertionError),
    # 5 does not divide 3*3-1 = 8.
    (Conj2Witness, (1, 1, 5, 3, 1, -1), AssertionError),
    # 5^2 divides 3*17-1 = 50, so 5^1 does not divide it exactly.
    (Conj2Witness, (1, 1, 5, 17, 1, -1), AssertionError),
    (Conj2Witness, (1, 1, 5, 2, 1, 0), AssertionError),
]

# (record class, fields it accepts).
ACCEPTED = [
    (core.Factorization, (((2, 2), (3, 1)), 12)),
    (core.Factorization, ((), 1)),
    (CycloFactorization, ({2: 1, 3: -1},)),
    (QuotientExpr, ((1,), (5,), 12, 3)),
    (QFamilyVerdict, ("f", (("n", 1),), True, True, (), 4)),
    (QFamilyVerdict, ("f", (("n", 1),), True, False, ((1, -1),), 4)),
    (QFamilyVerdict, ("f", (("n", 1),), False, None, (), 0)),
    (Conj2Witness, (1, 1, 5, 2, 1, -1)),
]


def _ids(cases):
    return [f"{case[0].__name__}{case[1]}" for case in cases]


@pytest.mark.parametrize("cls, fields, error", REJECTED, ids=_ids(REJECTED))
def test_rejected(cls, fields, error):
    with pytest.raises(error):
        cls(*fields)


@pytest.mark.parametrize("cls, fields, error", REJECTED, ids=_ids(REJECTED))
def test_rejected_through_replace(cls, fields, error):
    good = next(f for c, f in ACCEPTED if c is cls)
    with pytest.raises(error):
        cls(*good)._replace(**dict(zip(cls._fields, fields)))
    with pytest.raises(error):
        cls._make(fields)


@pytest.mark.parametrize("cls, fields", ACCEPTED, ids=_ids(ACCEPTED))
def test_accepted_record_is_its_fields(cls, fields):
    record = cls(*fields)
    assert record == fields
    assert type(record) is cls
    assert cls(**dict(zip(cls._fields, fields))) == record
    assert record._replace() == record


def _records():
    """One record of each of the engine's twelve record classes."""
    families = divisibility.verify_congruence_families(1)
    return [
        core.factorize(126),
        core.binom_valuation(10, 3, 2),
        divisibility.fab_bound(7, 36),
        divisibility.f_ab(7, 36, n_cap=5),
        families,
        families.checks[0],
        divisibility.negative_valuation_witness(1, 1, p_cap=100),
        divisibility.prime_window_verify(530, 532),
        divisibility.chebyshev_theta_3_2(10),
        qpoly.expr_factorization(QuotientExpr((), (), 4, 2)),
        QuotientExpr((1,), (5,), 12, 3),
        qdivisibility.gcd_binomial_quotient_check(2, 3),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_attribute_assignment_refused(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


def test_no_field_shadows_a_tuple_method():
    for record in _records():
        assert not {"count", "index"} & set(record._fields), type(record)


def test_record_class_names():
    assert sorted(type(r).__name__ for r in _records()) == [
        "BoundInfo", "CongruenceCheck", "CongruenceFamiliesVerdict",
        "Conj2Witness", "CycloFactorization", "FabResult", "Factorization",
        "PrimeWindowReport", "QFamilyVerdict", "QuotientExpr", "ThetaValue",
        "ValuationCertificate"]


def test_cyclo_factorization_default_is_fresh():
    first, second = CycloFactorization(), CycloFactorization()
    assert first == ({},)
    assert first.exponents is not second.exponents
    with pytest.raises(TypeError):
        first.exponents[2] = 1
    assert second.exponents == {}


def test_cyclo_factorization_keeps_its_own_exponents():
    # A later change to the caller's dict must not reach the record, whose
    # constructor refused a zero exponent.
    d = {2: 1}
    f = CycloFactorization(d)
    d[3] = 0
    assert f.exponents == {2: 1} and f == ({2: 1},)
    assert f._replace(exponents={3: -1}) == ({3: -1},)
    with pytest.raises(ValueError):
        f._replace(exponents={3: 0})


def _optimized(code):
    """Run code under python -O; returns the completed process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_record_checks_run_under_optimize():
    proc = _optimized("""
import sys
from divcert.divisibility import Conj2Witness
from divcert.qdivisibility import QFamilyVerdict
assert False, "python -O keeps bare asserts"
for cls, fields in ((QFamilyVerdict, ("f", (), True, True, ((1, -1),), 4)),
                    (Conj2Witness, (1, 1, 5, 2, 1, 0))):
    try:
        cls(*fields)
    except AssertionError as exc:
        print(cls.__name__, "refused:", exc)
    else:
        print(cls.__name__, "accepted")
print("optimize", sys.flags.optimize)
""")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "optimize 1"
    assert lines[0].startswith("QFamilyVerdict refused:")
    assert lines[1].startswith("Conj2Witness refused:")


def test_inconsistent_verdict_exits_70_under_optimize():
    # An expansion that reports a negative coefficient but a non-negative
    # verdict must stop the run as a failed internal check.
    proc = _optimized("""
import sys
from divcert import cli, qpoly
qpoly.is_nonneg = lambda poly: (True, [(0, -1)])
sys.exit(cli.main(["verify", "thm_kn", "--n-max", "1"]))
""")
    assert proc.returncode == 70, proc.stderr
    assert proc.stdout == ""
    assert ("error: internal check failed: nonneg disagrees with the "
            "negative positions") in proc.stderr
