"""The reference implementations live in tests/oracles.py, not in the engine:
no engine module still carries one of them."""

import pytest

from divcert import core, divisibility, qdivisibility, qpoly

LEFT_THE_ENGINE = [
    (qpoly, ("cyclotomic", "_cyclo_cache", "_cyclo_lock", "threading",
             "exact_div", "expand", "_mobius", "qbinom_poly")),
    (qpoly.IntPoly, ("evaluate", "__add__", "__sub__", "__neg__", "__mul__",
                     "shift")),
    (core, ("gcd", "base_p_digits", "lucas_binom_mod_p")),
    (divisibility, ("lucas_residue_family", "surviving_pairs")),
    (qdivisibility, ("b_nk_poly", "generalized_q_catalan", "IntPoly")),
]


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in LEFT_THE_ENGINE for name in names],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_name_left_the_engine(owner, name):
    assert not hasattr(owner, name)
