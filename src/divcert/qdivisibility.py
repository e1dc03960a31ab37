"""q-side divisibility families.

The seven quotient families of q-binomials by q-integers, the
gcd-strengthened central quotient, the gcd binomial quotient underlying
them, the gcd q-Catalan family with its two displayed forms, and the
negative-coefficient pattern checker for the
(1-q)^2/((1-q^{10n-1})(1-q^{15n-1})) [30n, 5n]_q family.

Polynomiality and degree have one route, :func:`qpoly.polynomiality`: it
reads only the exponents of Phi_d for d dividing a denominator index, and
takes the degree in closed form; a verdict that expands takes both from
:func:`qpoly.expand_expr`, which decides them there once.  The q-Catalan
family compares its two displayed forms on the exponents of Phi_d for d
dividing their denominator indices, the only places where they can differ.
No exponent vector is built here.  Dense coefficients are expanded only
when a coefficient-level verdict (non-negativity, negative positions) is
requested and within budget; the pattern checker always expands, and
compares the degree :func:`qpoly.expand_expr` checked with the paper's
closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import qpoly
from .errors import BudgetExceededError, NotPolynomialError
from .qpoly import QuotientExpr


class QFamilyVerdict(NamedTuple("QFamilyVerdict", [
        ("family_id", str), ("params", tuple[tuple[str, int], ...]),
        ("polynomial", bool), ("nonneg", bool | None),
        ("negative_positions", tuple[tuple[int, int], ...]), ("degree", int)])):
    """Polynomiality / non-negativity verdict for one family instance.

    nonneg is None when the quotient is not a polynomial, and otherwise
    only when :func:`verify_q_families` skips its optional expansion or the
    degree budget stops it; every other verdict expands, and a budget that
    stops it raises.  negative_positions is empty iff nonneg is true.  The
    checks raise AssertionError explicitly, so they run under ``python -O``
    too.
    """

    __slots__ = ()

    def __new__(cls, family_id, params, polynomial, nonneg,
                negative_positions, degree):
        if nonneg and not polynomial:
            raise AssertionError("non-negative verdict on a non-polynomial")
        if nonneg is not None and nonneg != (not negative_positions):
            raise AssertionError("nonneg disagrees with the negative positions")
        return tuple.__new__(cls, (family_id, params, polynomial, nonneg,
                                   negative_positions, degree))

    # _replace builds through _make, so it is checked as well.
    _make = classmethod(lambda cls, fields: cls(*fields))


# The six (1-q)/(1-q^{cn-1}) families: (c, m-multiplier, k-multiplier).
SINGLE_QUOTIENT_FAMILIES = (
    (6, 12, 3),
    (6, 12, 4),
    (30, 60, 6),
    (30, 120, 40),
    (30, 120, 45),
    (66, 330, 88),
)


def _family_verdict(
    family_id: str,
    params: tuple[tuple[str, int], ...],
    expr: QuotientExpr,
    want_coefficients: bool,
) -> QFamilyVerdict:
    if want_coefficients:
        try:
            poly = qpoly.expand_expr(expr)
        except NotPolynomialError:
            return QFamilyVerdict(family_id, params, False, None, (), 0)
        nonneg, negatives = qpoly.is_nonneg(poly)
        return QFamilyVerdict(family_id, params, True, nonneg,
                              tuple(negatives), poly.degree)
    polynomial, degree = qpoly.polynomiality(expr)
    return QFamilyVerdict(family_id, params, polynomial, None, (), degree)


def verify_q_families(n: int, expand_coefficients: bool = True) -> list[QFamilyVerdict]:
    """Verdicts for the seven quotient families at a given n.

    The six single-quotient families are checked for polynomiality and
    (when requested and within the degree budget) non-negativity; an
    expansion the budget stops leaves nonneg None.  The seventh carries a
    polynomiality claim only; its coefficient pattern is the business of
    :func:`check_c330n88n`.
    """
    if n < 1:
        raise ValueError("require n >= 1")
    verdicts = []
    for c, mc, kc in SINGLE_QUOTIENT_FAMILIES:
        expr = QuotientExpr((1,), (c * n - 1,), mc * n, kc * n)
        family = f"{mc}n:{kc}n/{c}n-1"
        try:
            verdict = _family_verdict(family, (("n", n),), expr,
                                      expand_coefficients)
        except BudgetExceededError:
            verdict = _family_verdict(family, (("n", n),), expr, False)
        verdicts.append(verdict)
    expr = QuotientExpr((1, 1), (10 * n - 1, 15 * n - 1), 30 * n, 5 * n)
    verdicts.append(_family_verdict(
        "30n:5n/(10n-1)(15n-1)", (("n", n),), expr, False))
    return verdicts


def verify_gcd_central_quotient(n: int, k: int) -> QFamilyVerdict:
    """Verdict for (1-q^{gcd(k,n)})/(1-q^n) [2n, n-k]_q, 0 <= k <= n.

    gcd(0, n) = n, so k = 0 reduces the quotient to [2n, n]_q times 1.
    Expected polynomial with non-negative coefficients.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError("require 1 <= n and 0 <= k <= n")
    g = math.gcd(k, n)
    expr = QuotientExpr((g,), (n,), 2 * n, n - k)
    return _family_verdict(
        "gcd-central", (("n", n), ("k", k)), expr, True)


def gcd_binomial_quotient_check(a: int, b: int) -> QFamilyVerdict:
    """Verdict for (1-q^{gcd(a,b)})/(1-q^{a+b}) [a+b, a]_q.

    Expected polynomial (the exponent of Phi_d is
    chi(d | gcd(a,b)) + floor((a+b-1)/d) - floor(a/d) - floor(b/d) >= 0)
    and non-negative.
    """
    if a < 1 or b < 1:
        raise ValueError("require a, b >= 1")
    expr = QuotientExpr((math.gcd(a, b),), (a + b,), a + b, a)
    return _family_verdict("gcd-quotient", (("a", a), ("b", b)), expr, True)


def verify_gcd_catalan_family(a: int, b: int, n: int) -> QFamilyVerdict:
    """Verdict for (1-q^{gcd(an, bn+1)})/(1-q^{bn+1}) [an+bn, an]_q.

    The second displayed form with denominator 1-q^{an+bn+1} and binomial
    [an+bn+1, an]_q must have the same cyclotomic exponents.  With
    N = an+bn, the Gaussian parts' exponents of Phi_d differ by
    chi(d | N+1) - chi(d | bn+1) and the denominators' by the negative of
    that, so the forms can differ only at d dividing N+1 or bn+1; they are
    compared there.  The verdict itself is the gcd binomial quotient check
    at (an, bn+1).
    """
    if min(a, b, n) < 1:
        raise ValueError("require a, b, n >= 1")
    if not _displayed_forms_agree(a, b, n):
        raise AssertionError("the two displayed forms differ")
    verdict = gcd_binomial_quotient_check(a * n, b * n + 1)
    return QFamilyVerdict(
        "gcd-catalan", (("a", a), ("b", b), ("n", n)),
        verdict.polynomial, verdict.nonneg, verdict.negative_positions,
        verdict.degree)


def _displayed_forms_agree(a: int, b: int, n: int) -> bool:
    """Whether the two displayed forms of the q-Catalan family at (a, b, n)
    have equal exponents of Phi_d at every d >= 2 dividing an+bn+1 or
    bn+1."""
    g = math.gcd(a * n, b * n + 1)
    indices = (b * n + 1, a * n + b * n + 1)
    form1 = QuotientExpr((g,), (b * n + 1,), a * n + b * n, a * n)
    form2 = QuotientExpr((g,), (a * n + b * n + 1,), a * n + b * n + 1, a * n)
    return (dict(qpoly.divisor_exponents(form1, indices))
            == dict(qpoly.divisor_exponents(form2, indices)))


def check_c330n88n(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Negative coefficients of (1-q)^2/((1-q^{10n-1})(1-q^{15n-1})) [30n, 5n]_q.

    Returns (degree, negative positions with values).  The conjectured
    pattern at n is exactly [(1, -1), (125n^2 - 25n + 3, -1)]; any other
    outcome is reported as found, never suppressed.
    """
    if n < 1:
        raise ValueError("require n >= 1")
    expr = QuotientExpr((1, 1), (10 * n - 1, 15 * n - 1), 30 * n, 5 * n)
    try:
        poly = qpoly.expand_expr(expr)
    except ValueError as exc:
        raise AssertionError(
            f"the c330n88n quotient at n = {n} is not a polynomial") from exc
    if poly.degree != 125 * n * n - 25 * n + 4:
        raise AssertionError(
            f"the c330n88n quotient at n = {n} has degree {poly.degree}")
    _, negatives = qpoly.is_nonneg(poly)
    return poly.degree, negatives


def conjectured_pattern(n: int) -> list[tuple[int, int]]:
    """The expected negative positions for check_c330n88n at n."""
    return [(1, -1), (125 * n * n - 25 * n + 3, -1)]
