import bisect
import math
import types

import pytest
from hypothesis import given, strategies as st

import oracles
from divcert import core
from divcert.errors import BudgetExceededError


FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (n, k, a prime factor of n, the first prime above n): n is the least strong
# pseudoprime to the first k primes, i.e. the bound below which those k bases
# decide primality.
BOUNDARY_PSEUDOPRIMES = (
    (2_047, 1, 23, 2_053),
    (1_373_653, 2, 829, 1_373_677),
    (25_326_001, 3, 2_251, 25_326_023),
    (3_215_031_751, 4, 151, 3_215_031_767),
    (2_152_302_898_747, 5, 6_763, 2_152_302_898_771),
    (3_474_749_660_383, 6, 1_303, 3_474_749_660_401),
    (341_550_071_728_321, 7, 10_670_053, 341_550_071_728_361),
    (3_825_123_056_546_413_051, 9, 149_491, 3_825_123_056_546_413_057),
    (318_665_857_834_031_151_167_461, 12, 399_165_290_221,
     318_665_857_834_031_151_167_483),
)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Does odd n pass the Miller-Rabin round with base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestTotient:
    def test_one(self):
        assert core.totient(1) == 1

    def test_prime(self):
        assert core.totient(43) == 42

    def test_composite(self):
        # 111 = 3 * 37; brute-force gcd count agrees.
        assert core.totient(111) == 72
        assert core.totient(111) == sum(
            1 for k in range(1, 112) if math.gcd(k, 111) == 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            core.totient(0)

    @given(st.integers(1, 3000))
    def test_brute_force(self, n):
        assert core.totient(n) == sum(
            1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert core.multiplicative_order(7, 43) == 6
        assert core.multiplicative_order(11, 111) == 6

    def test_mod_two(self):
        for p in (3, 5, 7, 11):
            assert core.multiplicative_order(p, 2) == 1

    def test_not_coprime_rejected(self):
        with pytest.raises(ValueError):
            core.multiplicative_order(6, 9)

    def test_divides_totient(self):
        for m in range(2, 501):
            for p in core.primes_up_to(100):
                if math.gcd(p, m) == 1:
                    s = core.multiplicative_order(p, m)
                    assert core.totient(m) % s == 0
                    assert pow(p, s, m) == 1

    def test_euler_totient_theorem_instances(self):
        for m in range(2, 201):
            for p in core.primes_up_to(50):
                if math.gcd(p, m) == 1:
                    assert pow(p, core.totient(m), m) == 1


class TestPrimes:
    def test_small(self):
        assert core.primes_up_to(10) == [2, 3, 5, 7]
        assert core.primes_up_to(2) == [2]

    def test_count_to_3761(self):
        # Trial-division cross-check of the sieve.
        primes = core.primes_up_to(3761)
        assert len(primes) == sum(
            1 for n in range(2, 3762) if all(n % d for d in range(2, math.isqrt(n) + 1)))
        assert len(primes) == 523

    def test_matches_trial_division(self):
        # Every limit to 2,000; each side of every prime square to 316**2,
        # where the last prime that crosses anything out changes; 10**5; and
        # past the sweep, the last index of the odd-only sieve at an odd
        # prime (100,003), an odd composite (100,001 = 11 * 9,091) and an
        # even limit (100,002).
        oracle = oracles.trial_division_primes(100_003)
        limits = [*range(2, 2001), 10**5, 100_001, 100_002, 100_003]
        for p in oracle[:bisect.bisect_right(oracle, 316)]:
            limits += [p * p - 1, p * p, p * p + 1]
        for limit in limits:
            expected = oracle[:bisect.bisect_right(oracle, limit)]
            assert core.primes_up_to(limit) == expected, limit

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(core, "prime_budget", 10)
        with pytest.raises(BudgetExceededError):
            core.primes_up_to(100)
        assert core.primes_up_to(10) == [2, 3, 5, 7]

    def test_is_prime(self):
        assert core.is_prime(199)
        assert not core.is_prime(1)
        # 3761 is prime (61**2 = 3721 < 3761 < 3844 = 62**2; no factor <= 61).
        assert core.is_prime(3761)
        assert all(n % d for n in [3761] for d in range(2, 62))

    def test_is_prime_matches_sieve(self):
        flags = set(core.primes_up_to(10**6))
        for n in range(10**6 + 1):
            assert core.is_prime(n) == (n in flags)

    def test_tier_boundary_pseudoprimes_rejected(self):
        # Each is the least strong pseudoprime to the first k prime bases, so
        # testing it with only those bases would call it prime.
        for n, k, factor, _ in BOUNDARY_PSEUDOPRIMES:
            assert 1 < factor < n and n % factor == 0
            assert all(_strong_probable_prime(n, a) for a in FIRST_PRIMES[:k])
            assert not core._miller_rabin(n)
            assert not core.is_prime(n)

    def test_first_prime_above_each_boundary_accepted(self):
        for n, _, _, next_prime in BOUNDARY_PSEUDOPRIMES:
            assert core.is_prime(next_prime)
            assert not any(core.is_prime(x) for x in range(n + 1, next_prime))


class TestFactorize:
    def test_examples(self):
        assert core.factorize(126).factors == ((2, 1), (3, 2), (7, 1))
        assert core.factorize(1).factors == ()
        assert core.factorize(10045).factors == ((5, 1), (7, 2), (41, 1))

    def test_value_roundtrip(self):
        for n in range(1, 2000):
            f = core.factorize(n)
            assert f.value == n
            assert math.prod(p**e for p, e in f.factors) == n

    def test_ceiling(self, monkeypatch):
        with pytest.raises(BudgetExceededError):
            core.factorize(10**9)
        monkeypatch.setattr(core, "FACTOR_CEILING", 10**9)
        assert core.factorize(10**9).factors == ((2, 9), (5, 9))


class TestFactorizeMemo:
    def test_public_name_is_a_plain_function(self):
        # A tracer wraps the module functions of this type, and a decorated
        # name would hide every call from it.
        assert type(core.factorize) is types.FunctionType

    def test_warm_modulus_is_not_reproved(self, monkeypatch):
        calls = []
        real = core.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(core, "is_prime", counting)
        core._factorize.cache_clear()
        D = 2 * 3 * 5 * 7
        first = core.divides_binomial(43 * 279, 7 * 279, D)
        assert calls == [2, 3, 5, 7]
        second = core.divides_binomial(43 * 279, 7 * 279, D)
        assert calls == [2, 3, 5, 7]
        assert first == second
        assert core.factorize(D) is core.factorize(D)

    def test_refusals_hold_for_cached_input(self, monkeypatch):
        core.factorize(126)
        core.factorize(10**8)
        with pytest.raises(ValueError):
            core.factorize(0)
        with monkeypatch.context() as m:
            m.setattr(core, "FACTOR_CEILING", 125)
            with pytest.raises(BudgetExceededError):
                core.factorize(126)
        # 126 needs the primes up to isqrt(126) + 1 = 12.
        monkeypatch.setattr(core, "prime_budget", 11)
        with pytest.raises(BudgetExceededError):
            core.factorize(126)
        monkeypatch.setattr(core, "prime_budget", 0)
        with pytest.raises(BudgetExceededError):
            core.factorize(1)
        with pytest.raises(BudgetExceededError):
            core.factorize(10**8)
        monkeypatch.setattr(core, "prime_budget", 12)
        assert core.factorize(126).factors == ((2, 1), (3, 2), (7, 1))

    def test_cold_input_under_small_budget(self, monkeypatch):
        # The shared trial-division table never grows past the budget, so a
        # cold call needing no more than the budget allows is answered.
        core._factorize.cache_clear()
        monkeypatch.setattr(core, "_small_primes", [])
        monkeypatch.setattr(core, "_small_primes_limit", 0)
        monkeypatch.setattr(core, "prime_budget", 12)
        assert core.factorize(121).factors == ((11, 2),)
        assert core._small_primes_limit == 12

    def test_memo_is_bounded(self):
        core._factorize.cache_clear()
        size = core._FACTOR_MEMO_SIZE
        for n in range(1, size + 501):
            f = core.factorize(n)
            assert f.value == n
            assert math.prod(p**e for p, e in f.factors) == n
            assert all(core.is_prime(p) for p, _ in f.factors)
        info = core._factorize.cache_info()
        assert info.maxsize == size and info.currsize == size
        # The evicted inputs are recomputed correctly.
        assert core.factorize(1).factors == ()
        assert core.factorize(360).factors == ((2, 3), (3, 2), (5, 1))


class TestLegendreValuation:
    def test_brute_force(self):
        # binom_valuation takes v_p(m!) - v_p(k!) - v_p((m-k)!) from
        # Legendre's floor sums; here each v_p(n!) is counted factor by
        # factor instead.
        for p in (2, 3, 5, 7):
            fact = [0]
            for n in range(1, 301):
                i, v = n, 0
                while i % p == 0:
                    i //= p
                    v += 1
                fact.append(fact[-1] + v)
            for m in range(0, 301, 7):
                for k in range(0, m + 1):
                    assert core.binom_valuation(m, k, p).valuation == (
                        fact[m] - fact[k] - fact[m - k])


class TestBinomValuation:
    def test_examples(self):
        assert core.binom_valuation(4, 2, 5).valuation == 0
        # binom(10,5) = 252 = 2^2 * 3^2 * 7.
        assert core.binom_valuation(10, 5, 3).valuation == 2
        assert core.binom_valuation(17, 0, 3).valuation == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            core.binom_valuation(3, 5, 2)

    def test_rejects_composite_p(self):
        for p in (1, 4, 6, 2_047, 1_373_653):
            with pytest.raises(ValueError):
                core.binom_valuation(10, 5, p)

    def test_one_primality_proof_per_certificate(self, monkeypatch):
        calls = []
        real = core.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(core, "is_prime", counting)
        cert = core.binom_valuation(43 * 279, 7 * 279, 5)
        assert calls == [5]
        assert cert.valuation == cert.carry_count

    def test_against_exact_binomial(self):
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(0, 120):
                for k in range(0, m + 1):
                    cert = core.binom_valuation(m, k, p)
                    x = math.comb(m, k)
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    assert cert.valuation == v == cert.carry_count

    # 10**15 + 37 is the least prime above 10**15, so above every m drawn.
    @given(st.integers(0, 10**15).flatmap(
               lambda m: st.tuples(st.just(m), st.integers(0, m))),
           st.sampled_from((2, 3, 5, 65537, 2**31 - 1, 10**15 + 37)))
    def test_large_inputs(self, mk, p):
        # v_p(n!) as the sum of n // p^i over the powers p^i <= n.
        def legendre(n):
            v, q = 0, p
            while q <= n:
                v += n // q
                q *= p
            return v

        m, k = mk
        cert = core.binom_valuation(m, k, p)
        expected = oracles.carries(k, m - k, p)
        assert cert.valuation == cert.carry_count == expected
        assert expected == legendre(m) - legendre(k) - legendre(m - k)


class TestBasePDigits:
    def test_examples(self):
        assert oracles.base_p_digits(10, 3) == [1, 0, 1]
        assert oracles.base_p_digits(0, 7) == [0]
        assert oracles.base_p_digits(6, 7) == [6]

    @given(st.integers(0, 10**9), st.integers(2, 100))
    def test_roundtrip(self, n, p):
        digits = oracles.base_p_digits(n, p)
        assert all(0 <= d < p for d in digits)
        assert sum(d * p**i for i, d in enumerate(digits)) == n
        if n:
            assert digits[-1] != 0


class TestLucas:
    def test_examples(self):
        assert oracles.lucas_binom_mod_p(10, 5, 3) == 0
        assert 252 % 3 == 0
        assert oracles.lucas_binom_mod_p(123, 0, 7) == 1

    def test_all_top_digits_maximal(self):
        # When m = p^t - 1, binom(m, k) == (-1)^(digit sum of k) mod p.
        for p in (3, 5, 7):
            for t in (1, 2, 3):
                m = p**t - 1
                for k in range(0, m + 1, max(1, m // 50)):
                    sign = (-1) ** sum(oracles.base_p_digits(k, p))
                    assert oracles.lucas_binom_mod_p(m, k, p) == sign % p

    def test_matches_direct_mod(self):
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(0, 150):
                for k in range(0, m + 1):
                    assert oracles.lucas_binom_mod_p(m, k, p) == math.comb(m, k) % p


class TestBinomExact:
    def test_examples(self):
        assert core.binom_exact(12, 3) == 220
        assert core.binom_exact(30, 5) == 142506
        assert core.binom_exact(17, 17) == 1

    def test_budget(self, monkeypatch):
        with pytest.raises(BudgetExceededError):
            core.binom_exact(200_000, 3)
        monkeypatch.setattr(core, "BINOM_EXACT_BUDGET", 11)
        with pytest.raises(BudgetExceededError):
            core.binom_exact(12, 3)


class TestDividesBinomial:
    def test_examples(self):
        assert core.divides_binomial(12, 3, 5) is True
        assert core.divides_binomial(4, 2, 5) is False
        assert core.divides_binomial(9, 4, 1) is True

    def test_certificates_always_returned(self):
        # The verdict is a bool; the certificate behind it is still one
        # binom_valuation per prime of D, short or not.
        assert core.divides_binomial(4, 2, 10) is False
        certs = [core.binom_valuation(4, 2, p)
                 for p, _ in core.factorize(10).factors]
        assert [c.p for c in certs] == [2, 5]
        assert [c.valuation for c in certs] == [1, 0]

    def test_one_primality_proof_per_prime(self, monkeypatch):
        calls = []
        real = core.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(core, "is_prime", counting)
        core._factorize.cache_clear()  # the cold path
        ok = core.divides_binomial(43 * 279, 7 * 279, 2 * 3 * 5 * 7)
        assert calls == [2, 3, 5, 7]
        assert ok == all(core.binom_valuation(43 * 279, 7 * 279, p).valuation >= 1
                         for p in (2, 3, 5, 7))

    def test_agrees_with_exact_division(self):
        for m in range(0, 80):
            for k in range(0, m + 1, 3):
                x = math.comb(m, k)
                for D in (2, 3, 4, 6, 9, 12, 35, 128, 1000):
                    assert core.divides_binomial(m, k, D) == (x % D == 0)
