"""Integer-side divisibility verifiers and searches.

Covers: the first n at which bn+1 fails to divide binom(an+bn, an) together
with its totient/order-derived upper bound, the gcd-reduced modulus law, the
fixed congruence families (12n choose 3n mod 6n-1 and friends), witnesses
showing no pair (a, b) works modulo 3n-1, prime windows (x, 20x/19) for
primes congruent to 2 mod 3, the Chebyshev theta function on that residue
class, and the exact rational decomposition identity behind the bound.

All binomial divisibility decisions go through p-adic valuations; no big
binomial coefficient is ever materialized on a decision path.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

from . import core
from .errors import SearchExhaustedError

FAB_SCAN_CAP_DEFAULT = 10**7
CONJ2_PRIME_CAP_DEFAULT = 10**5


class BoundInfo(NamedTuple):
    """Upper bound (p**s - 1)/(a+b) for the first failing n.

    p is the smallest prime dividing a but not b; s is the multiplicative
    order of p modulo a+b.
    """

    p: int
    bound: int
    s: int


def fab_bound(a: int, b: int) -> BoundInfo | None:
    """Order-derived bound for f(a, b); None when rad(a) divides b."""
    if a < 1 or b < 1:
        raise ValueError("require a, b >= 1")
    for p, _ in core.factorize(a).factors:
        if b % p:
            s = core.multiplicative_order(p, a + b)
            n = pow(p, s) - 1
            if n % (a + b):
                raise AssertionError("a+b does not divide p^s - 1")
            return BoundInfo(p, n // (a + b), s)
    return None


class FabResult(NamedTuple):
    """Verdict for the smallest n with (bn+1) not dividing binom(an+bn, an).

    verdict is "found" (with n and the certificate of the prime that fails),
    "proven_zero" (every prime factor of a divides b, so divisibility holds
    for all n), or "inconclusive" (the scan cap undercut the theorem bound).
    bound is fab_bound(a, b), which is None exactly for "proven_zero".
    """

    a: int
    b: int
    verdict: str
    n: int | None = None
    n_max: int | None = None
    bound: BoundInfo | None = None
    certificate: tuple[core.ValuationCertificate, ...] | None = None


def f_ab(a: int, b: int, n_cap: int | None = None) -> FabResult:
    """Compute f(a, b) by bounded scan.

    When rad(a) | b, gcd(a, bn+1) = 1 for every n and the gcd-reduced
    modulus law forces divisibility for all n, so the value is 0 with
    proof.  Otherwise the order bound makes a scan up to the bound
    complete; "inconclusive" can only occur when n_cap undercuts it, and
    a full scan that finds no failing n is a failed internal check.

    By the same law, (bn+1)/gcd(a, bn+1) | binom(an+bn, an), bn+1 can fail
    only at a prime p of a that divides bn+1: p does not divide b and
    n == -1/b (mod p).  The scan walks those classes in order and takes
    v_p only there; a is the only number it factors.
    """
    if a < 1 or b < 1:
        raise ValueError("require a, b >= 1")
    info = fab_bound(a, b)
    if info is None:
        return FabResult(a, b, "proven_zero")
    cap = min(n_cap if n_cap is not None else FAB_SCAN_CAP_DEFAULT, info.bound)
    classes = [zip(range(-pow(b, -1, p) % p, cap + 1, p), itertools.repeat(p))
               for p, _ in core.factorize(a).factors if b % p]
    for n, p in heapq.merge(*classes):
        # The factorization of a proved p prime; Kummer still cross-checks.
        # bn+1 fails at p when p^(v+1) divides it, v = v_p(binom).
        cert = core._valuation((a + b) * n, a * n, p)
        if (b * n + 1) % p ** (cert.valuation + 1) == 0:
            return FabResult(a, b, "found", n=n, bound=info, certificate=(cert,))
    if cap == info.bound:
        raise AssertionError(
            f"no n up to the bound {info.bound} fails for ({a}, {b})")
    return FabResult(a, b, "inconclusive", n_max=cap, bound=info)


def verify_reduced_modulus(a: int, b: int, n: int) -> bool:
    """Does (bn+1)/gcd(a, bn+1) divide binom(an+bn, an)?

    Expected true for all positive a, b, n; exists as a regression executor.
    """
    if min(a, b, n) < 1:
        raise ValueError("require a, b, n >= 1")
    modulus = (b * n + 1) // math.gcd(a, b * n + 1)
    return core.divides_binomial((a + b) * n, a * n, modulus)


class CongruenceCheck(NamedTuple):
    label: str
    m: int
    k: int
    modulus: int
    ok: bool


class CongruenceFamiliesVerdict(NamedTuple):
    n: int
    checks: tuple[CongruenceCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


# (label, m-multiplier, k-multiplier, modulus linear forms c*n - 1).
_CONGRUENCE_CHECKS = (
    ("6n:3n mod 2n-1", 6, 3, (2,)),
    ("2n:n mod 2n-1", 2, 1, (2,)),
    ("12n:3n mod 6n-1", 12, 3, (6,)),
    ("12n:4n mod 6n-1", 12, 4, (6,)),
    ("30n:5n mod (10n-1)(15n-1)", 30, 5, (10, 15)),
    ("60n:6n mod 30n-1", 60, 6, (30,)),
    ("120n:40n mod 30n-1", 120, 40, (30,)),
    ("120n:45n mod 30n-1", 120, 45, (30,)),
    ("330n:88n mod 66n-1", 330, 88, (66,)),
)


def verify_congruence_families(n: int) -> CongruenceFamiliesVerdict:
    """Run the fixed congruence family checks at a given n; all expected true.

    Composite moduli are checked factor by factor; the two factors 10n-1 and
    15n-1 are checked coprime, so per-factor divisibility is equivalent to
    divisibility by the product.
    """
    if n < 1:
        raise ValueError("require n >= 1")
    checks = []
    for label, mc, kc, mod_coeffs in _CONGRUENCE_CHECKS:
        factors = [c * n - 1 for c in mod_coeffs]
        if len(factors) > 1 and math.gcd(*factors) != 1:
            raise AssertionError(f"the moduli of {label} are not coprime")
        ok = True
        for modulus in factors:
            if modulus <= 1:
                continue
            ok &= core.divides_binomial(mc * n, kc * n, modulus)
        modulus = math.prod(factors)
        checks.append(CongruenceCheck(label, mc * n, kc * n, modulus, ok))
    return CongruenceFamiliesVerdict(n, tuple(checks))


class Conj2Witness(NamedTuple("Conj2Witness", [
        ("a", int), ("b", int), ("p", int), ("n", int), ("e", int),
        ("valuation", int)])):
    """A prime power p^e exactly dividing 3n-1 with
    v_p(binom((a+b)n, an)/(3n-1)) < 0.

    The checks raise AssertionError explicitly, so they run under
    ``python -O`` too.
    """

    __slots__ = ()

    def __new__(cls, a, b, p, n, e, valuation):
        modulus = 3 * n - 1
        if modulus % p ** e:
            raise AssertionError("p^e does not divide 3n-1")
        if (modulus // p ** e) % p == 0:
            raise AssertionError("p^(e+1) divides 3n-1")
        if valuation >= 0:
            raise AssertionError("witness valuation is not negative")
        return tuple.__new__(cls, (a, b, p, n, e, valuation))

    # _replace builds through _make, so it is checked as well.
    _make = classmethod(lambda cls, fields: cls(*fields))


def _primes_2_mod_3(limit: int) -> Iterator[int]:
    """The primes p == 2 (mod 3) up to limit, ascending, read lazily.

    The sieve runs in full when this is called, so a limit below 2 or past
    core.prime_budget is refused before the caller reads a prime.
    """
    return (p for p in core.primes_up_to(limit) if p % 3 == 2)


# Inner search knobs for negative_valuation_witness: cofactors m tried for
# each prime power p^e, and the ceiling on p^e itself.
_CONJ2_COFACTORS = (1, 2, 4)
_CONJ2_POWER_CAP = 10**7


def negative_valuation_witness(
    a: int, b: int, p_cap: int = CONJ2_PRIME_CAP_DEFAULT,
) -> Conj2Witness:
    """First (p, n) with p == 2 (mod 3), p <= p_cap, p^e || 3n-1 and
    v_p(binom((a+b)n, an)) < e.

    n runs over (m * p^e + 1)/3 for small cofactors m coprime to p; e = 1
    (so 3n-1 = p itself when m = 1) is exhausted over all primes before
    higher powers are tried, so the smallest single-prime witness is found
    first whenever one exists.  The e = 1 pass reads the primes as it goes,
    so a pair with a small witness stops after a few of them.

    Higher powers matter when every e = 1 candidate carries, as for (2, 2):
    for odd p, 2n == 2(p+1)/3 > p/2 (mod p), and binom(4, 2) is even.
    (a, b) mod 3 does not decide which pairs these are: 12 of the 13 in
    [1, 30]^2 are == (2, 1) or (1, 2) (mod 3), such as (2, 7) (2^3 || 3n-1)
    and (14, 19) (2^5), while (2, 5) == (2, 2) has the witness p = 2, n = 1.
    Exhaustion raises rather than returning a verdict.
    """
    if a < 1 or b < 1:
        raise ValueError("require a, b >= 1")
    primes = _primes_2_mod_3(p_cap)
    power_cap = _CONJ2_POWER_CAP
    e = 1
    while True:
        alive = []
        for p in primes:
            q = p ** e
            if q > power_cap:
                continue
            alive.append(p)
            for m in _CONJ2_COFACTORS:
                if m % p == 0 or (m * q) % 3 != 2:
                    continue
                n = (m * q + 1) // 3
                # The sieve proved p prime; Kummer still cross-checks.
                cert = core._valuation((a + b) * n, a * n, p)
                val = cert.valuation - e
                if val < 0:
                    return Conj2Witness(a, b, p, n, e, val)
        if not alive:
            raise SearchExhaustedError(
                f"no witness for (a, b) = ({a}, {b}) with primes up to {p_cap}")
        primes = alive
        e += 1


class PrimeWindowReport(NamedTuple):
    """Least prime == 2 (mod 3) in (x, 20x/19) for each integer x in a range."""

    entries: tuple[tuple[int, int], ...]
    failures: tuple[int, ...]


def prime_window_verify(x_lo: int, x_hi: int) -> PrimeWindowReport:
    """Witness primes for every x in [x_lo, x_hi]; strict inequalities.

    A witness for x is the least prime p == 2 (mod 3) with x < p and
    19p < 20x.  Zero failures are expected on [530, 3761].
    """
    if not 2 <= x_lo <= x_hi:
        raise ValueError("require 2 <= x_lo <= x_hi")
    limit = (20 * x_hi) // 19 + 2
    candidates = list(_primes_2_mod_3(limit))
    entries = []
    failures = []
    for x in range(x_lo, x_hi + 1):
        i = bisect.bisect_right(candidates, x)
        if i < len(candidates) and 19 * candidates[i] < 20 * x:
            entries.append((x, candidates[i]))
        else:
            failures.append(x)
    return PrimeWindowReport(tuple(entries), tuple(failures))


class ThetaValue(NamedTuple):
    """Sum of log p over primes p <= x with p == 2 (mod 3), with error bound."""

    x: int
    value: float
    error_bound: float
    prime_count: int


def chebyshev_theta_3_2(x: int) -> ThetaValue:
    """Chebyshev theta on the residue class 2 mod 3.

    Exactly-rounded float summation (math.fsum) of log p terms; the tracked
    error bound covers one ulp per log evaluation.  For x >= 3761 the value
    is checked to lie strictly inside (0.49 x, 0.51 x) with margin beyond
    the error bound.
    """
    if x < 2:
        raise ValueError("require x >= 2")
    logs = [math.log(p) for p in _primes_2_mod_3(x)]
    value = math.fsum(logs)
    error = len(logs) * 2.0**-52 * max(value, 1.0)
    if x >= 3761 and not (value - error > 0.49 * x and value + error < 0.51 * x):
        raise AssertionError(f"theta({x}) is not inside (0.49x, 0.51x)")
    return ThetaValue(x, value, error, len(logs))


def verify_quotient_decomposition(a: int, b: int, n: int) -> bool:
    """Exact rational identity check:

    binom(an+bn, an)/(bn+1)
      = binom(an+bn, an-1) - ((a+b)/a) * binom(an+bn-1, an-2).

    Expected true for all a, b, n >= 1 with an >= 2.  Both sides are
    multiplied by a(bn+1), which is nonzero, so the check runs in integers
    and is equivalent to the rational equality.
    """
    if min(a, b, n) < 1 or a * n < 2:
        raise ValueError("require a, b, n >= 1 and an >= 2")
    m = (a + b) * n
    lhs = a * core.binom_exact(m, a * n)
    rhs = (b * n + 1) * (a * core.binom_exact(m, a * n - 1)
                         - (a + b) * core.binom_exact(m - 1, a * n - 2))
    return lhs == rhs


def first_failing_n(p: int, a: int, b: int, n_max: int) -> int | None:
    """Smallest n <= n_max with (pn-1) not dividing binom(an, bn), else None."""
    if p < 2:
        raise ValueError("require p >= 2")
    if not a > b >= 1:
        raise ValueError("require a > b >= 1")
    for n in range(1, n_max + 1):
        modulus = p * n - 1
        if modulus == 1:
            continue
        if not core.divides_binomial(a * n, b * n, modulus):
            return n
    return None


def _pair_survives(m: int, a: int, b: int, n_max: int) -> bool:
    for n in range(1, n_max + 1):
        modulus = a * n - 1
        if modulus == 0:
            return False
        if modulus == 1:
            continue
        if not core.divides_binomial(a * m * n, b * n, modulus):
            return False
    return True
