"""Exact polynomial algebra in q.

Cyclotomic exponents of quotients of q-integers times a q-binomial
coefficient, dense expansion, and the non-negativity predicate.

A quotient expression is prod_d Phi_d(q)**e_d, a polynomial iff every e_d
is non-negative, which is decidable by floor arithmetic alone.  Only Phi_d
with d dividing a denominator index can get a negative exponent, so
:func:`polynomiality` decides a quotient on those exponents alone
(:func:`divisor_exponents`) and gives its degree in closed form; it is the
one route to both.  Dense coefficients are only produced on demand, by
:func:`expand_expr`, which checks the built degree against that closed
form.  A Gaussian polynomial [m, k]_q is the expression with no q-integer
factors, so both functions serve it too.  The one dense exponent vector is
that of a Gaussian polynomial, :func:`gaussian_factorization`, which
``qbinom --exponents`` prints.

:class:`IntPoly` is the value :func:`expand_expr` returns: a normalized
coefficient tuple with equality and hashing, and no arithmetic.

:class:`CycloFactorization` and :class:`QuotientExpr` are immutable
``NamedTuple``s, so each compares equal to the tuple of its fields; both
validate their fields in ``__new__``.  A ``CycloFactorization`` holds a
read-only copy of the exponent map it is given, so later changes to the
caller's dict cannot undo its checks; the copy still compares equal to a
plain dict.

:data:`degree_budget` is module state, like ``core.prime_budget``: the CLI
sets it for the length of one call, and a library caller may assign it.
No expansion runs to a degree past it and no exponent vector to an index
past it; neither takes a budget of its own.
"""

from __future__ import annotations

import math
import types
from typing import NamedTuple

from . import core
from ._kernels import div_one_minus_qt, mul_one_minus_qt
from .errors import BudgetExceededError, NotPolynomialError

DEGREE_BUDGET_DEFAULT = 10**5

# The degree budget in force: no expansion runs past it.
degree_budget = DEGREE_BUDGET_DEFAULT


class IntPoly:
    """Dense polynomial over the integers; index i holds the coefficient of q^i.

    Normalized: no trailing zero coefficient, the zero polynomial is empty.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for i in range(1, math.isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    return small + large[::-1]


class CycloFactorization(NamedTuple("CycloFactorization", [
        ("exponents", types.MappingProxyType)])):
    """prod_d Phi_d(q)**e_d, as a sparse exponent map.

    The map is a read-only copy of the one given.
    """

    __slots__ = ()

    def __new__(cls, exponents=None):
        exponents = types.MappingProxyType(dict(exponents or {}))
        if any(e == 0 for e in exponents.values()):
            raise ValueError("stored exponents must be nonzero")
        return tuple.__new__(cls, (exponents,))

    # _replace builds through _make, so it is checked as well.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def degree(self) -> int:
        """Degree of the represented expression (may be meaningful only when
        it is a polynomial; in general the formal degree sum).  Phi_d has
        degree phi(d)."""
        return sum(e * core.totient(d) for d, e in self.exponents.items())


class QuotientExpr(NamedTuple("QuotientExpr", [
        ("numerator_ms", tuple[int, ...]), ("denominator_ns", tuple[int, ...]),
        ("binom_m", int), ("binom_k", int)])):
    """prod_i (1-q^{m_i}) / prod_j (1-q^{n_j}) * qbinom(binom_m, binom_k).

    The numerator and denominator multisets must be balanced (equal
    cardinality) so that the (1-q) sign contributions cancel; unbalanced
    expressions are rejected rather than given a sign convention.
    """

    __slots__ = ()

    def __new__(cls, numerator_ms, denominator_ns, binom_m, binom_k):
        if len(numerator_ms) != len(denominator_ns):
            raise ValueError("unbalanced quotient expression")
        if any(t < 1 for t in numerator_ms + denominator_ns):
            raise ValueError("q-integer indices must be positive")
        if not 0 <= binom_k <= binom_m:
            raise ValueError("require 0 <= binom_k <= binom_m")
        return tuple.__new__(
            cls, (numerator_ms, denominator_ns, binom_m, binom_k))

    # _replace builds through _make, so it is checked as well.
    _make = classmethod(lambda cls, fields: cls(*fields))


def gaussian_factorization(m: int, k: int) -> CycloFactorization:
    """Cyclotomic exponents of [m, k]_q: e_d = floor(m/d) - floor(k/d)
    - floor((m-k)/d) for 2 <= d <= m.

    The vector is dense up to index m, so an m past :data:`degree_budget`
    is refused before anything is built.  [m, 0]_q = [m, m]_q = 1 has no
    index, so it is empty at any m.
    """
    if not 0 <= k <= m:
        raise ValueError("require 0 <= binom_k <= binom_m")
    if k == 0 or k == m:
        return CycloFactorization()
    if m > degree_budget:
        raise BudgetExceededError(
            f"exponent vector index {m} exceeds budget {degree_budget}")
    r = m - k
    exps = ((d, m // d - k // d - r // d) for d in range(2, m + 1))
    return CycloFactorization({d: e for d, e in exps if e})


def divisor_exponents(expr: QuotientExpr, indices):
    """(d, exponent of Phi_d) in a quotient expression, for each d >= 2
    dividing one of the given indices, zero exponents included.

    The exponent is floor(m/d) - floor(k/d) - floor((m-k)/d) from
    [m, k]_q, plus the numerator indices d divides, minus the denominator
    indices d divides.
    """
    m, k = expr.binom_m, expr.binom_k
    r = m - k
    ms, ns = expr.numerator_ms, expr.denominator_ns
    for d in {d for t in indices for d in _divisors(t)[1:]}:
        yield d, (m // d - k // d - r // d + sum(t % d == 0 for t in ms)
                  - sum(t % d == 0 for t in ns))


def _degree(expr: QuotientExpr) -> int:
    """k(m-k) + sum(ms) - sum(ns), the degree of a quotient expression
    that is a polynomial, since 1-q^t has degree t."""
    k, r = expr.binom_k, expr.binom_m - expr.binom_k
    return k * r + sum(expr.numerator_ms) - sum(expr.denominator_ns)


def polynomiality(expr: QuotientExpr) -> tuple[bool, int]:
    """(is a polynomial, degree) of a quotient expression; degree 0 if not.

    The Gaussian factor's exponents are non-negative and each numerator
    index t adds chi(d | t), so only a Phi_d with d dividing a denominator
    index can go negative; those exponents come from
    :func:`divisor_exponents`.  The degree is in closed form.
    """
    for _, e in divisor_exponents(expr, expr.denominator_ns):
        if e < 0:
            return False, 0
    return True, _degree(expr)


def expand_expr(expr: QuotientExpr) -> IntPoly:
    """Expand a quotient expression directly from its q-integer factors.

    Works from the binomials 1-q^t alone: the q-binomial is itself a
    balanced quotient of them, built from its shorter side since
    [m, k]_q = [m, m-k]_q, so the expansion is min(k, m-k) + |ms|
    multiplications and as many exact divisions.
    The closed-form degree must not exceed :data:`degree_budget`; that is
    checked first, so a refused expression costs no divisor search.  Then
    :func:`polynomiality` decides the expression, refusing a non-polynomial
    with :class:`NotPolynomialError`, and the normalized result's degree is
    checked against the closed form.
    """
    expected_degree = _degree(expr)
    if expected_degree > degree_budget:
        raise BudgetExceededError(
            f"expansion degree {expected_degree} exceeds budget {degree_budget}")
    if not polynomiality(expr)[0]:
        raise NotPolynomialError("expansion requires a polynomial expression")
    m, k = expr.binom_m, expr.binom_k
    k = min(k, m - k)
    result = IntPoly(_binomial_quotient(
        [*expr.numerator_ms, *range(m - k + 1, m + 1)],
        [*expr.denominator_ns, *range(1, k + 1)]))
    if result.degree != expected_degree:
        raise AssertionError("degree bookkeeping violated")
    return result


def _binomial_quotient(muls: list[int], divs: list[int]) -> list:
    """Coefficients of prod (1 - q^t) over muls, exactly divided by
    prod (1 - q^t) over divs, for a quotient already decided polynomial.

    A remainder then means the engine contradicts itself, so it is raised
    as a failed internal check, not as bad input.  Each pass replaces the
    only reference to its input, so no earlier list outlives its pass.
    """
    coeffs = [1]
    for t in muls:
        coeffs = mul_one_minus_qt(coeffs, t)
    try:
        for t in divs:
            coeffs = div_one_minus_qt(coeffs, t)
    except ValueError as exc:
        raise AssertionError(f"expansion of a decided polynomial: {exc}") from exc
    return coeffs


def is_nonneg(P: IntPoly) -> tuple[bool, list[tuple[int, int]]]:
    """Verdict plus every index with a negative coefficient and its value."""
    negatives = [(i, c) for i, c in enumerate(P.coeffs) if c < 0]
    return not negatives, negatives
