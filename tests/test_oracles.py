"""The reference implementations live in tests/oracles.py, not in the engine:
no engine module still carries one of them, nor a second route to a
quantity it computes once, nor a second way to set one of its limits."""

import inspect
import types

import pytest

from divcert import core, divisibility, qdivisibility, qpoly

LEFT_THE_ENGINE = [
    (qpoly, ("cyclotomic", "_cyclo_cache", "_cyclo_lock", "threading",
             "exact_div", "expand", "_mobius", "qbinom_poly",
             "qbinom_factorization")),
    (qpoly.IntPoly, ("evaluate", "__add__", "__sub__", "__neg__", "__mul__",
                     "shift")),
    (core, ("gcd", "base_p_digits", "lucas_binom_mod_p", "totients_up_to",
            "totient_table", "_totients", "_totients_limit", "_totients_lock",
            "radical")),
    (divisibility, ("lucas_residue_family", "surviving_pairs")),
    (qdivisibility, ("b_nk_poly", "generalized_q_catalan", "IntPoly")),
]


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in LEFT_THE_ENGINE for name in names],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_name_left_the_engine(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("module", [core, divisibility, qdivisibility, qpoly],
                         ids=lambda m: m.__name__)
def test_no_call_takes_its_own_limit(module):
    # Limits are module values (core.prime_budget, qpoly.degree_budget and
    # the fixed ceilings), read when a function is called.
    public = [value for name, value in vars(module).items()
              if not name.startswith("_") and isinstance(value, types.FunctionType)
              and value.__module__ == module.__name__]
    assert public
    for fn in public:
        params = inspect.signature(fn).parameters
        assert not {"budget", "ceiling", "power_cap"} & params.keys(), fn.__name__
