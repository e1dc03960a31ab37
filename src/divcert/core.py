"""Exact integer arithmetic primitives.

Everything here is arbitrary-precision and deterministic: the sieve, trial
division factorization, Euler's totient, multiplicative orders, and
Legendre / Kummer valuations of binomials.

Engine records (here and in the other engine modules) are immutable
``NamedTuple``s: a record compares equal to the tuple of its fields, and a
record that validates its fields does so in ``__new__``, on every path that
builds one (``_make`` and ``_replace`` included).

Divisibility of a binomial coefficient by a modulus is always decided
through p-adic valuations of the factorials involved; the binomial itself
is never materialized on that path.

:func:`factorize` proves each modulus once per process: its results are
kept in a bounded memo, and a ``Factorization`` is immutable, so one
instance is shared by every caller.  The memo sits behind the per-call
checks, so a call is refused on its argument, its ceiling and the sieve it
needs against :data:`prime_budget`, whether its answer is cached or not.

Every limit is a module value that a function reads when it is called;
no call takes a limit of its own.  The budgets are :data:`prime_budget`
here and ``qpoly.degree_budget``: the CLI sets both for the length of one
call and restores them, and a library caller may assign them.  The fixed
limits :data:`FACTOR_CEILING` and :data:`BINOM_EXACT_BUDGET` are read the
same way.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from typing import NamedTuple

from .errors import BudgetExceededError

# Inputs to factorize() beyond this are rejected: trial division must stay
# deterministic and fast, and nothing in the engine needs larger moduli.
FACTOR_CEILING = 10**8

# Sieve budget: the largest integer a sieve covers.  The sieve takes
# (limit + 1) // 2 bytes, one per odd number up to its limit.
SIEVE_BUDGET_DEFAULT = 10**8

# The sieve budget in force: no sieve runs past it.
prime_budget = SIEVE_BUDGET_DEFAULT

# Distinct inputs whose factorization factorize() keeps.
_FACTOR_MEMO_SIZE = 4096

# binom_exact() is an oracle for small instances only.
BINOM_EXACT_BUDGET = 100_000

# Fixed Miller-Rabin witness set, proven deterministic for n < 3.317e24
# (Sorenson & Webster).  Larger inputs fall back to trial division.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981

# (bound, k): the first k bases of _MR_BASES decide every n < bound.  Each
# bound is the least strong pseudoprime to those k bases (Pomerance, Selfridge
# & Wagstaff 1980; Jaeschke 1993; Sorenson & Webster 2015).
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_PROVEN_LIMIT, 13),
)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending, by Eratosthenes sieve.

    The sieve holds the odd numbers only: byte i stands for 2i + 1, so it
    takes (limit + 1) // 2 bytes, and 2 is prepended.  An odd p steps by 2p
    through the odd numbers, which is p through the indices, starting at
    p*p, whose index is p*p // 2.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > prime_budget:
        raise BudgetExceededError(f"sieve limit {limit} exceeds budget")
    half = (limit + 1) // 2
    sieve = bytearray(b"\x01") * half
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):  # 2i + 1 <= isqrt(limit)
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = b"\x00" * ((half - 1 - start) // p + 1)
    return [2, *itertools.compress(range(1, limit + 1, 2), sieve)]


def is_prime(n: int) -> bool:
    """Deterministic primality verdict."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < _MR_PROVEN_LIMIT:
        return _miller_rabin(n)
    return _trial_division_prime(n)


def _miller_rabin(n: int) -> bool:
    """Strong-probable-prime test of odd n < _MR_PROVEN_LIMIT on the
    shortest prefix of _MR_BASES proven deterministic below n."""
    for bound, k in _MR_TIERS:
        if n < bound:
            break
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:k]:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division_prime(n: int) -> bool:  # pragma: no cover - huge inputs only
    f = 41
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Factorization(NamedTuple("Factorization", [
        ("factors", tuple[tuple[int, int], ...]), ("value", int)])):
    """Complete prime factorization: (prime, exponent) pairs, primes ascending.

    The constructor proves every prime it is given.
    """

    __slots__ = ()

    def __new__(cls, factors, value):
        prod = 1
        prev = 1
        for p, e in factors:
            if e < 1 or p <= prev:
                raise ValueError("factors must have ascending primes, exponents >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p ** e
        if prod != value:
            raise ValueError("factor product does not equal value")
        return tuple.__new__(cls, (factors, value))

    # _replace builds through _make, so it is checked as well.
    _make = classmethod(lambda cls, fields: cls(*fields))


# Trial-division primes are sieved once and extended on demand, never past
# the prime budget.
_small_primes: list[int] = []
_small_primes_limit = 0
_small_primes_lock = threading.Lock()


def _trial_primes(limit: int) -> list[int]:
    """The shared primes up to at least limit; limit <= prime_budget."""
    global _small_primes, _small_primes_limit
    if limit <= _small_primes_limit:
        return _small_primes
    with _small_primes_lock:
        if limit > _small_primes_limit:
            new_limit = min(max(limit, 1024, 2 * _small_primes_limit),
                            prime_budget)
            _small_primes = primes_up_to(new_limit)
            _small_primes_limit = new_limit
    return _small_primes


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division; n = 1 gives an empty list.

    Every call checks n against :data:`FACTOR_CEILING`, and the sieve trial
    division needs (the primes up to isqrt(n) + 1) against the prime
    budget; only then is the answer looked up, so a refusal never depends
    on earlier calls.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > FACTOR_CEILING:
        raise BudgetExceededError(
            f"factorize input {n} exceeds ceiling {FACTOR_CEILING}")
    if math.isqrt(n) + 1 > prime_budget:
        raise BudgetExceededError(
            f"factorize input {n} needs a sieve past budget {prime_budget}")
    return _factorize(n)


@functools.lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _factorize(n: int) -> Factorization:
    """factorize(n) for an n its caller has checked; each distinct n has
    its primes proven once while it stays in the memo."""
    value = n
    out = []
    root = math.isqrt(n)
    for p in _trial_primes(root + 1):
        if p > root:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
            root = math.isqrt(n)
    if n > 1:
        out.append((n, 1))
    return Factorization(tuple(out), value)


def totient(n: int) -> int:
    """Euler's totient, from the prime factorization of n."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    for p, _ in factorize(n).factors:
        result -= result // p
    return result


def multiplicative_order(p: int, m: int) -> int:
    """Smallest s >= 1 with p**s == 1 (mod m)."""
    if m < 2:
        raise ValueError("multiplicative_order requires m >= 2")
    if math.gcd(p, m) != 1:
        raise ValueError(f"gcd({p}, {m}) != 1")
    s = totient(m)
    for q, _ in factorize(s).factors:
        while s % q == 0 and pow(p, s // q, m) == 1:
            s //= q
    if pow(p, s, m) != 1 or totient(m) % s:
        raise AssertionError(
            f"order {s} of {p} mod {m} fails p^s == 1 or s | phi(m)")
    return s


class ValuationCertificate(NamedTuple):
    """v_p of binom(m, k), witnessed two ways (Legendre sums, Kummer carries)."""

    p: int
    m: int
    k: int
    valuation: int
    carry_count: int


def binom_valuation(m: int, k: int, p: int) -> ValuationCertificate:
    """p-adic valuation of binom(m, k) with its Kummer carry-count cross-check."""
    if k < 0 or k > m:
        raise ValueError("require 0 <= k <= m")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _valuation(m, k, p)


def _valuation(m: int, k: int, p: int) -> ValuationCertificate:
    """binom_valuation for 0 <= k <= m and a p the caller has proven prime.

    One pass over the base-p digits of m, k and m - k: the running
    quotients add up to Legendre's floor sums v_p(n!), the remainders to the
    digit sums s_p(n), and each floor sum is checked against
    (n - s_p(n)) / (p - 1).  The Kummer carry count is a separate route.
    """
    r = m - k
    qm, qk, qr = m, k, r
    vm = vk = vr = sm = sk = sr = 0
    while qm:
        sm += qm % p
        sk += qk % p
        sr += qr % p
        qm //= p
        qk //= p
        qr //= p
        vm += qm
        vk += qk
        vr += qr
    if ((p - 1) * vm != m - sm or (p - 1) * vk != k - sk
            or (p - 1) * vr != r - sr):
        raise AssertionError("floor and digit sums disagree")
    v = vm - vk - vr
    carries = _carry_count(k, r, p)
    if v != carries:
        raise AssertionError("Legendre and Kummer routes disagree")
    return ValuationCertificate(p, m, k, v, carries)


def _carry_count(a: int, b: int, p: int) -> int:
    """Carries when a + b is added in base p (Kummer).  A carry out of the
    last digit of a and b lands on a digit 1 < p, so no carry follows it."""
    count = carry = 0
    while a or b:
        carry = a % p + b % p + carry >= p
        count += carry
        a //= p
        b //= p
    return count


def binom_exact(m: int, k: int) -> int:
    """Exact binomial coefficient; small-instance oracle only."""
    if k < 0 or k > m:
        raise ValueError("require 0 <= k <= m")
    if m > BINOM_EXACT_BUDGET:
        raise BudgetExceededError(
            f"binom_exact argument {m} exceeds budget {BINOM_EXACT_BUDGET}")
    return math.comb(m, k)


def divides_binomial(m: int, k: int, D: int) -> tuple[bool, list[ValuationCertificate]]:
    """Does D divide binom(m, k)?  Decided prime-by-prime via valuations.

    Returns the verdict together with the full per-prime certificate list,
    whether or not the division holds.  The binomial is never computed.
    """
    if k < 0 or k > m:
        raise ValueError("require 0 <= k <= m")
    if D < 1:
        raise ValueError("modulus must be >= 1")
    verdict = True
    certificates = []
    # The factorization has proven each of its primes.
    for p, e in factorize(D).factors:
        cert = _valuation(m, k, p)
        certificates.append(cert)
        if cert.valuation < e:
            verdict = False
    return verdict, certificates
