"""Reference implementations that the tests compare the engine against.

None of these runs on an engine path.  Each computes its answer by a route
independent of the engine's (the Moebius expansion and the q-Pascal
recurrence against :func:`divcert.qpoly.expand_expr`, the Lucas product
against valuations, long division against
:func:`divcert.qpoly.polynomiality`, trial division against the sieve,
dense exponent vectors against the exponents at divisors), or builds a
claim of the source paper from engine results and checks it by a second
route.  The Moebius expansion, and the hypotheses and the conclusion of
the paper's positivity lemma, are computed with this module's own
polynomial arithmetic, never with the engine's kernels or its expansion;
the expansion takes its exponents from :func:`cyclotomic_exponents` and
decides polynomiality and degree itself.  Polynomials are
:class:`divcert.qpoly.IntPoly` values, so they compare equal to engine
results with the same coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math

from divcert import core, divisibility, qpoly
from divcert.errors import BudgetExceededError
from divcert.qpoly import IntPoly, QuotientExpr

# ---------------------------------------------------------------------------
# IntPoly arithmetic.


def evaluate(p: IntPoly, x):
    """p(x) by Horner's rule."""
    result = 0
    for c in reversed(p.coeffs):
        result = result * x + c
    return result


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return IntPoly(out)


def neg(p: IntPoly) -> IntPoly:
    return IntPoly([-c for c in p.coeffs])


def sub(p: IntPoly, q: IntPoly) -> IntPoly:
    return add(p, neg(q))


def _terms(p: IntPoly) -> list[tuple[int, int]]:
    """(index, coefficient) of each non-zero coefficient of p."""
    return [(i, c) for i, c in enumerate(p.coeffs) if c]


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    """Schoolbook product over the non-zero coefficients of q, so a
    product with 1 - q**t costs O(len(p))."""
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return IntPoly()
    terms = _terms(q)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return IntPoly(out)


def shift(p: IntPoly, k: int) -> IntPoly:
    """p(q) * q**k."""
    if not p.coeffs:
        return p
    return IntPoly((0,) * k + p.coeffs)


def one_minus_q(t: int) -> IntPoly:
    """1 - q**t."""
    return IntPoly([1] + [0] * (t - 1) + [-1])


def exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Polynomial long division; raises ValueError on a remainder.

    Each step visits only the non-zero coefficients of den, so dividing
    by 1 - q**t costs O(len(num))."""
    if not den.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    if not num.coeffs:
        return num
    rem = list(num.coeffs)
    top = den.degree
    lead = den.coeffs[-1]
    terms = _terms(den)
    out = [0] * (len(rem) - top)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[i + top], lead)
        if r:
            raise ValueError("division leaves a remainder")
        out[i] = q
        if q:
            for j, dj in terms:
                rem[i + j] -= q * dj
    if any(rem):
        raise ValueError("division leaves a remainder")
    return IntPoly(out)


# ---------------------------------------------------------------------------
# Dense Gaussian polynomials by two routes independent of expand_expr.


@functools.cache
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial: (q^d - 1) divided by the product of
    Phi_e over the proper divisors e of d, with a zero remainder."""
    if d < 1:
        raise ValueError("d must be >= 1")
    num = IntPoly([-1] + [0] * (d - 1) + [1])
    if d == 1:
        return num
    den = IntPoly([1])
    for e in qpoly._divisors(d)[:-1]:
        den = mul(den, cyclotomic(e))
    return exact_div(num, den)


def cyclotomic_exponents(expr: QuotientExpr) -> dict[int, int]:
    """Non-zero exponents of Phi_d, d >= 2, in a quotient expression: every
    d up to its largest index, tested against every index."""
    top = max([expr.binom_m, *expr.numerator_ms, *expr.denominator_ns])
    m, k = expr.binom_m, expr.binom_k
    exps = {}
    for d in range(2, top + 1):
        e = m // d - k // d - (m - k) // d
        e += sum(1 for t in expr.numerator_ms if t % d == 0)
        e -= sum(1 for t in expr.denominator_ns if t % d == 0)
        if e:
            exps[d] = e
    return exps


def catalan_forms_agree(a: int, b: int, n: int) -> bool:
    """Whether the two displayed forms of the gcd q-Catalan family,
    (1-q^g)/(1-q^{bn+1}) [an+bn, an]_q and
    (1-q^g)/(1-q^{an+bn+1}) [an+bn+1, an]_q with g = gcd(an, bn+1), have
    the same dense cyclotomic exponent vector."""
    g = math.gcd(a * n, b * n + 1)
    return (cyclotomic_exponents(
                QuotientExpr((g,), (b * n + 1,), a * n + b * n, a * n))
            == cyclotomic_exponents(
                QuotientExpr((g,), (a * n + b * n + 1,), a * n + b * n + 1, a * n)))


def mobius(n: int) -> int:
    mu = 1
    for _, e in core.factorize(n).factors:
        if e > 1:
            return 0
        mu = -mu
    return mu


def cyclotomic_degree(exponents: dict[int, int]) -> int:
    """sum e_d * phi(d): the degree of prod Phi_d**e_d."""
    return sum(e * core.totient(d) for d, e in exponents.items())


def expand(exponents: dict[int, int]) -> IntPoly:
    """Multiply out prod Phi_d**e_d exactly, for a plain map d -> e_d such
    as :func:`cyclotomic_exponents` returns.

    The product is a polynomial iff every e_d is non-negative.  Uses the
    Moebius identity Phi_d = prod_{e | d} (1-q^{d/e})^{mu(e)} (d >= 2) to
    reduce the product to passes of multiplication and exact division by
    binomials 1-q^t, done with this module's own :func:`mul` and
    :func:`exact_div`, never the engine's kernels.  The final degree is
    checked against :func:`cyclotomic_degree`.
    """
    if any(e < 0 for e in exponents.values()):
        raise ValueError("expansion requires a polynomial (all exponents >= 0)")
    expected_degree = cyclotomic_degree(exponents)
    if expected_degree > qpoly.degree_budget:
        raise BudgetExceededError(f"expansion degree {expected_degree} "
                                  f"exceeds budget {qpoly.degree_budget}")

    sign = 1
    g: dict[int, int] = {}
    for d, e_d in exponents.items():
        if d == 1:
            # Phi_1 = q - 1 = -(1 - q).
            if e_d % 2:
                sign = -sign
            g[1] = g.get(1, 0) + e_d
            continue
        for e in qpoly._divisors(d):
            mu = mobius(e)
            if mu:
                t = d // e
                g[t] = g.get(t, 0) + mu * e_d

    powers = sorted(g.items())
    result = IntPoly([sign])
    for t, e in powers:
        for _ in range(e):
            result = mul(result, one_minus_q(t))
    for t, e in powers:
        for _ in range(-e):
            result = exact_div(result, one_minus_q(t))
    assert result.degree == expected_degree, "degree bookkeeping violated"
    return result


def qbinom_poly(m: int, k: int) -> IntPoly:
    """Gaussian polynomial [m, k]_q via the q-Pascal recurrence."""
    if not 0 <= k <= m:
        raise ValueError("require 0 <= k <= m")
    if k * (m - k) > qpoly.degree_budget:
        raise BudgetExceededError(f"q-binomial degree {k * (m - k)} "
                                  f"exceeds budget {qpoly.degree_budget}")
    # [r, j] = [r-1, j-1] + q^j [r-1, j], row by row.
    row = [[1]]
    for r in range(1, m + 1):
        new_row = [[1]]
        for j in range(1, r):
            prev = row[j]
            shifted = [0] * j + prev
            combined = list(row[j - 1]) + [0] * (len(shifted) - len(row[j - 1]))
            for i, c in enumerate(shifted):
                combined[i] += c
            new_row.append(combined)
        new_row.append([1])
        row = new_row
    return IntPoly(row[k])


# ---------------------------------------------------------------------------
# The positivity lemma (Guo-Krattenthaler): if P is reciprocal and unimodal,
# 1 <= m <= n and (1-q^m)/(1-q^n) P is a polynomial, then that polynomial
# has non-negative coefficients.


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


def unimodal_quotient_check(P: IntPoly, m: int, n: int) -> bool:
    """Is (1-q^m)/(1-q^n) * P(q) a polynomial with non-negative coefficients?

    Rejects the input (ValueError) if the quotient is not a polynomial.
    For reciprocal unimodal P with m <= n the lemma says this is true.
    """
    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    quotient = exact_div(mul(P, one_minus_q(m)), one_minus_q(n))
    return all(c >= 0 for c in quotient.coeffs)


# ---------------------------------------------------------------------------
# q-side families by a second route.


def b_nk_poly(n: int, k: int) -> IntPoly:
    """(1-q^k)/(1-q^n) [2n, n-k]_q, for 1 <= k <= n, by two routes.

    The quotient definition and the difference form
    [2n-1, n-k]_q - q^k [2n-1, n-k-1]_q are both computed and must agree;
    coefficients are asserted non-negative.
    """
    if not 1 <= k <= n:
        raise ValueError("require 1 <= k <= n")
    quotient = qpoly.expand_expr(QuotientExpr((k,), (n,), 2 * n, n - k))
    first = qbinom_poly(2 * n - 1, n - k)
    if n - k - 1 >= 0:
        second = shift(qbinom_poly(2 * n - 1, n - k - 1), k)
    else:
        second = IntPoly()
    assert quotient == sub(first, second), "quotient and difference routes disagree"
    ok, _ = qpoly.is_nonneg(quotient)
    assert ok, "coefficients unexpectedly negative"
    return quotient


def generalized_q_catalan(a: int, b: int, n: int) -> IntPoly:
    """(1-q^a)/(1-q^{bn+1}) [an+bn, an]_q, expanded; non-negativity asserted.

    gcd(an, bn+1) divides a (since gcd(n, bn+1) = 1), which is what makes
    the expression a polynomial.
    """
    if min(a, b, n) < 1:
        raise ValueError("require a, b, n >= 1")
    assert a % math.gcd(a * n, b * n + 1) == 0
    poly = qpoly.expand_expr(
        QuotientExpr((a,), (b * n + 1,), a * n + b * n, a * n))
    ok, _ = qpoly.is_nonneg(poly)
    assert ok, "coefficients unexpectedly negative"
    return poly


# ---------------------------------------------------------------------------
# Integer side.


def trial_division_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending: each n >= 2 is kept if no prime
    already kept, up to its square root, divides it."""
    primes: list[int] = []
    for n in range(2, limit + 1):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    return primes


def base_p_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n, least significant first; n = 0 gives [0]."""
    if p < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [0]
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return digits


def carries(x: int, y: int, p: int) -> int:
    """Carries when x + y is added in base p; by Kummer's theorem this is
    the exponent of p in binom(x + y, x)."""
    count = carry = 0
    while x or y or carry:
        x, dx = divmod(x, p)
        y, dy = divmod(y, p)
        carry = int(dx + dy + carry >= p)
        count += carry
    return count


def first_failing_n_reference(a: int, b: int, n_max: int) -> int | None:
    """The least n <= n_max with bn+1 not dividing binom(an+bn, an), else
    None.  Every n from 1 is tested: bn+1 is factored by trial division,
    and n fails when some p^e || bn+1 has fewer than e carries in an + bn."""
    primes = trial_division_primes(math.isqrt(b * n_max + 1))
    for n in range(1, n_max + 1):
        x = b * n + 1
        factors = []
        for p in primes:
            if p * p > x:
                break
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            if e:
                factors.append((p, e))
        if x > 1:
            factors.append((x, 1))
        if any(carries(a * n, b * n, p) < e for p, e in factors):
            return n
    return None


def witness_reference(a: int, b: int, p_cap: int) -> tuple[int, int, int, int]:
    """(p, n, e, valuation) of the first 3n-1 witness for (a, b), eagerly.

    The order is the one the engine documents: e = 1, 2, ... outermost,
    then the primes p == 2 (mod 3) up to p_cap ascending with p^e <= 10**7,
    then n = (m p^e + 1)/3 for the cofactors m = 1, 2, 4 coprime to p with
    m p^e == 2 (mod 3).  The witness is the first n where p carries fewer
    than e times in an + bn.
    """
    primes = [p for p in trial_division_primes(p_cap) if p % 3 == 2]
    for e in itertools.count(1):
        primes = [p for p in primes if p ** e <= 10**7]
        if not primes:
            raise ValueError(f"no witness for ({a}, {b}) up to {p_cap}")
        for p in primes:
            for m in (1, 2, 4):
                if m % p and m * p ** e % 3 == 2:
                    n = (m * p ** e + 1) // 3
                    valuation = carries(a * n, b * n, p) - e
                    if valuation < 0:
                        return p, n, e, valuation


def lucas_binom_mod_p(m: int, k: int, p: int) -> int:
    """binom(m, k) mod p via the digitwise Lucas product."""
    if not core.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0 or k > m:
        return 0
    result = 1
    while k or m:
        m, dm = divmod(m, p)
        k, dk = divmod(k, p)
        if dk > dm:
            return 0
        result = result * (math.comb(dm, dk) % p) % p
    return result


def lucas_residue_family(
    a: int, b: int, beta: int, p: int, r_max: int
) -> list[tuple[int, int]]:
    """Residues binom(an, bn+beta) mod p along the family n = (p^{r phi(a)}-1)/a.

    Each returned residue is asserted to be +-1 mod p: the top argument is
    all (p-1)-digits in base p, so the Lucas product collapses to a sign.
    """
    if not a > b >= 1:
        raise ValueError("require a > b >= 1")
    if math.gcd(p, a) != 1:
        raise ValueError(f"gcd({p}, {a}) != 1")
    if not core.is_prime(p):
        raise ValueError(f"{p} is not prime")
    phi = core.totient(a)
    out = []
    for r in range(1, r_max + 1):
        top = pow(p, r * phi) - 1
        assert top % a == 0
        n = top // a
        if not a * n > b * n + beta > 0:
            continue
        residue = lucas_binom_mod_p(a * n, b * n + beta, p)
        assert residue in (1 % p, p - 1), "residue is not a unit sign"
        out.append((n, residue))
    return out


def surviving_pairs(
    m: int, a_max: int, b_max: int, n_max: int
) -> list[tuple[int, int]]:
    """Pairs (a, b) with am > b such that (an-1) | binom(amn, bn) for all n <= n_max.

    A modulus an-1 = 0 (only a = 1, n = 1) counts as a failure: a positive
    binomial is never congruent to 0 modulo 0.
    """
    if m < 1:
        raise ValueError("require m >= 1")
    return [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)
            if a * m > b and divisibility._pair_survives(m, a, b, n_max)]
