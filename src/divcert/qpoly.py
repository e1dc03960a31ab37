"""Exact polynomial algebra in q.

Cyclotomic exponent vectors for quotients of q-integers times a q-binomial
coefficient, dense expansion, and the structural predicates (reciprocal,
unimodal, non-negative).

The canonical internal form of a quotient expression is its cyclotomic
exponent vector: the expression sign * prod_d Phi_d(q)**e_d is a polynomial
iff every e_d is non-negative, which is decidable by floor arithmetic alone.
Only Phi_d with d dividing a denominator index can get a negative exponent,
so :func:`polynomiality` decides a quotient on those exponents alone and
gives its degree in closed form; the dense vector is built by
:func:`expr_factorization` for callers that compare it.  Dense coefficients
are only produced on demand, by :func:`expand_expr`.  A Gaussian polynomial
[m, k]_q is the expression with no q-integer factors, so both functions
serve it too.

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
No expansion takes a budget of its own.
"""

from __future__ import annotations

import math
import types
from typing import NamedTuple

from . import core
from ._kernels import div_one_minus_qt, mul_one_minus_qt
from .errors import BudgetExceededError

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

    def is_zero(self) -> bool:
        return not self.coeffs

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
        ("exponents", types.MappingProxyType), ("sign", int)])):
    """sign * prod_d Phi_d(q)**e_d, as a sparse exponent map.

    The map is a read-only copy of the one given.
    """

    __slots__ = ()

    def __new__(cls, exponents=None, sign=1):
        exponents = types.MappingProxyType(dict(exponents or {}))
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if any(e == 0 for e in exponents.values()):
            raise ValueError("stored exponents must be nonzero")
        return tuple.__new__(cls, (exponents, sign))

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


def _qbinom_exponents(m: int, k: int) -> list[int]:
    """e_d = floor(m/d) - floor(k/d) - floor((m-k)/d) at index d, for
    2 <= d <= m; indices 0 and 1 hold 0."""
    r = m - k
    return [0, 0] + [m // d - k // d - r // d for d in range(2, m + 1)]


def expr_factorization(expr: QuotientExpr) -> CycloFactorization:
    """Cyclotomic exponents of a full quotient expression.

    Each q-integer factor 1-q^t contributes chi(d | t) for every d >= 2,
    so only the divisors of t are visited; the d = 1 contributions cancel
    by the balanced invariant.
    """
    exps = _qbinom_exponents(expr.binom_m, expr.binom_k)
    top = max([expr.binom_m, *expr.numerator_ms, *expr.denominator_ns])
    exps += [0] * (top + 1 - len(exps))
    for sign, ts in ((1, expr.numerator_ms), (-1, expr.denominator_ns)):
        for t in ts:
            for d in _divisors(t)[1:]:
                exps[d] += sign
    return CycloFactorization({d: e for d, e in enumerate(exps) if e})


def polynomiality(expr: QuotientExpr) -> tuple[bool, int]:
    """(is a polynomial, degree) of a quotient expression; degree 0 if not.

    The Gaussian factor's exponents are non-negative and each numerator
    index t adds chi(d | t), so only a Phi_d with d dividing a denominator
    index can go negative.  Its exact exponent is
    floor(m/d) - floor(k/d) - floor((m-k)/d) plus the numerator indices d
    divides, minus the denominator indices d divides.  The degree is
    k(m-k) + sum(ms) - sum(ns), since 1-q^t has degree t.
    """
    m, k = expr.binom_m, expr.binom_k
    r = m - k
    for d in {d for t in expr.denominator_ns for d in _divisors(t)[1:]}:
        e = m // d - k // d - r // d
        e += sum(t % d == 0 for t in expr.numerator_ms)
        e -= sum(t % d == 0 for t in expr.denominator_ns)
        if e < 0:
            return False, 0
    return True, k * r + sum(expr.numerator_ms) - sum(expr.denominator_ns)


def is_polynomial(f: CycloFactorization) -> bool:
    """True iff every stored exponent is non-negative."""
    return all(e >= 0 for e in f.exponents.values())


def expand_expr(expr: QuotientExpr) -> IntPoly:
    """Expand a quotient expression directly from its q-integer factors.

    Works from the binomials 1-q^t alone: the q-binomial is itself a
    balanced quotient of them, built from its shorter side since
    [m, k]_q = [m, m-k]_q, so the expansion is min(k, m-k) + |ms|
    multiplications and as many exact divisions.
    Polynomiality and the degree come from :func:`polynomiality`, and the
    normalized result's degree is checked against that closed form, and the
    degree must not exceed :data:`degree_budget`.
    """
    polynomial, expected_degree = polynomiality(expr)
    if not polynomial:
        raise ValueError("expansion requires a polynomial expression")
    if expected_degree > degree_budget:
        raise BudgetExceededError(
            f"expansion degree {expected_degree} exceeds budget {degree_budget}")
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


def is_reciprocal(P: IntPoly) -> bool:
    """Palindromic coefficient sequence; the zero polynomial counts as such."""
    c = P.coeffs
    return c == c[::-1]


def is_unimodal(P: IntPoly) -> bool:
    """Non-negative coefficients rising to a peak and then falling."""
    c = P.coeffs
    if any(x < 0 for x in c):
        return False
    falling = False
    for i in range(1, len(c)):
        if c[i] < c[i - 1]:
            falling = True
        elif c[i] > c[i - 1] and falling:
            return False
    return True


def is_nonneg(P: IntPoly) -> tuple[bool, list[tuple[int, int]]]:
    """Verdict plus every index with a negative coefficient and its value."""
    negatives = [(i, c) for i, c in enumerate(P.coeffs) if c < 0]
    return not negatives, negatives


def unimodal_quotient_check(P: IntPoly, m: int, n: int) -> bool:
    """Is (1-q^m)/(1-q^n) * P(q) a polynomial with non-negative coefficients?

    Rejects the input if the quotient is not a polynomial.  For reciprocal
    unimodal P with m <= n this must come out true; the property tests
    exercise exactly that law.
    """
    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    coeffs = mul_one_minus_qt(list(P.coeffs), m)
    quotient = div_one_minus_qt(coeffs, n)
    ok, _ = is_nonneg(IntPoly(quotient))
    return ok
