import math
from fractions import Fraction

import pytest

import oracles
from divcert import core, divisibility
from divcert.errors import BudgetExceededError, SearchExhaustedError


class TestFabBound:
    def test_example_7_36(self):
        info = divisibility.fab_bound(7, 36)
        assert (info.p, info.bound, info.s) == (7, 2736, 6)

    def test_none_when_radical_divides(self):
        assert divisibility.fab_bound(1, 1) is None
        assert divisibility.fab_bound(4, 6) is None
        assert divisibility.fab_bound(12, 6) is None

    def test_bound_formula(self):
        info = divisibility.fab_bound(11, 100)
        assert (info.p, info.s) == (11, 6)
        assert info.bound == (11**6 - 1) // 111 == 15960


class TestFab:
    def test_found_7_36(self):
        r = divisibility.f_ab(7, 36)
        assert r.verdict == "found" and r.n == 279
        # Post-hoc re-validation: divisibility holds for every n below 279
        # and the certificate really does show the failure at 279.
        for n in range(1, 279):
            assert core.divides_binomial(43 * n, 7 * n, 36 * n + 1)[0]
        assert any(c.valuation < e for c in r.certificate
                   for p, e in core.factorize(36 * 279 + 1).factors if c.p == p)

    def test_proven_zero(self):
        assert divisibility.f_ab(1, 1).verdict == "proven_zero"
        assert divisibility.f_ab(6, 12).verdict == "proven_zero"
        # Exactly the pairs without an order bound are proven zero.
        for a in range(1, 25):
            for b in range(1, 25):
                r = divisibility.f_ab(a, b, n_cap=1)
                assert r.bound == divisibility.fab_bound(a, b)
                assert (r.verdict == "proven_zero") == (r.bound is None)

    def test_proven_zero_spot_check(self):
        # When rad(a) | b the divisibility really does hold for every n.
        for n in range(1, 200):
            assert core.divides_binomial(2 * n, n, n + 1)[0]

    def test_inconclusive_when_cap_undercuts(self):
        r = divisibility.f_ab(7, 36, n_cap=100)
        assert r.verdict == "inconclusive"
        assert r.n_max == 100 and r.bound == (7, 2736, 6)

    def test_scan_never_exceeds_bound(self):
        # (2,3): bound (2^s-1)/5 with s = order of 2 mod 5 = 4, so bound 3.
        info = divisibility.fab_bound(2, 3)
        assert info.bound == 3
        r = divisibility.f_ab(2, 3)
        assert r.verdict == "found" and r.n <= 3

    def test_full_scan_without_failure_is_internal_error(self, monkeypatch):
        # The order bound guarantees a failing n up to the bound, so a scan
        # that reaches it without one contradicts the theorem.
        monkeypatch.setattr(core, "divides_binomial", lambda m, k, d: (True, []))
        with pytest.raises(AssertionError, match="bound 2736"):
            divisibility.f_ab(7, 36)
        with pytest.raises(AssertionError):
            divisibility.f_ab(7, 36, n_cap=2736)
        assert divisibility.f_ab(7, 36, n_cap=2735).verdict == "inconclusive"

    def test_matches_reference_scan(self):
        # The reference tests every n; the engine takes valuations only
        # where gcd(a, bn+1) > 1.  Among the 720 found pairs of [1, 30]^2
        # the largest f(a, b) is 344, at (29, 22).
        found = {}
        for a in range(1, 31):
            for b in range(1, 31):
                r = divisibility.f_ab(a, b)
                if r.verdict == "found":
                    found[a, b] = r.n
                else:
                    assert oracles.first_failing_n_reference(a, b, 50) is None
        assert len(found) == 720
        assert max(found.values()) == found[29, 22] == 344
        assert {ab: oracles.first_failing_n_reference(*ab, 1000)
                for ab in found} == found
        for a, b, n in ((7, 36, 279), (22, 200, 6462)):
            assert divisibility.f_ab(a, b).n == n
            assert oracles.first_failing_n_reference(a, b, 10**4) == n

    @pytest.mark.parametrize("a, b, calls", [(7, 36, 40), (22, 200, 588)])
    def test_valuations_only_where_gcd_exceeds_one(self, a, b, calls,
                                                   monkeypatch):
        # Where gcd(a, bn+1) = 1 the reduced-modulus law already gives
        # bn+1 | binom(an+bn, an), so no certificate is built there.
        moduli = []
        real = core.divides_binomial

        def counting(m, k, d):
            moduli.append(d)
            return real(m, k, d)

        monkeypatch.setattr(core, "divides_binomial", counting)
        divisibility.f_ab(a, b)
        assert len(moduli) == calls
        assert all(math.gcd(a, d) > 1 for d in moduli)


class TestReducedModulus:
    def test_grid(self):
        for a in range(1, 13):
            for b in range(1, 13):
                for n in range(1, 13):
                    assert divisibility.verify_reduced_modulus(a, b, n)

    def test_contrast_with_full_modulus(self):
        # At (7, 36, 279) the full modulus fails but the reduced one holds.
        assert not core.divides_binomial(43 * 279, 7 * 279, 36 * 279 + 1)[0]
        assert divisibility.verify_reduced_modulus(7, 36, 279)


class TestLucasResidueFamily:
    def test_signs(self):
        out = oracles.lucas_residue_family(3, 1, 0, 2, 4)
        assert out
        for n, residue in out:
            assert residue in (1 % 2, 1)

    def test_various(self):
        for a, b, p in [(3, 1, 2), (3, 2, 5), (7, 3, 2), (5, 2, 3)]:
            if math.gcd(p, a) != 1:
                continue
            out = oracles.lucas_residue_family(a, b, 1, p, 3)
            for n, residue in out:
                if a * n <= 2000:
                    assert residue == core.binom_exact(a * n, b * n + 1) % p

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            oracles.lucas_residue_family(1, 1, 0, 2, 3)
        with pytest.raises(ValueError):
            oracles.lucas_residue_family(4, 1, 0, 2, 3)


class TestCongruenceFamilies:
    def test_n1_moduli(self):
        v = divisibility.verify_congruence_families(1)
        assert v.all_ok
        by_label = {c.label: c for c in v.checks}
        assert by_label["30n:5n mod (10n-1)(15n-1)"].modulus == 126
        assert core.factorize(126).factors == ((2, 1), (3, 2), (7, 1))

    def test_range(self):
        for n in range(1, 40):
            assert divisibility.verify_congruence_families(n).all_ok

    def test_check_count(self):
        assert len(divisibility.verify_congruence_families(3).checks) == 9


class TestConj2Witness:
    def test_example_1_1(self):
        w = divisibility.negative_valuation_witness(1, 1)
        assert (w.p, w.n, w.e, w.valuation) == (5, 2, 1, -1)
        # Independent check: binom(4, 2) = 6 carries no factor 5, while the
        # modulus 3n-1 = 5 does.
        assert core.binom_exact(4, 2) % 5 != 0

    def test_higher_power_pair(self):
        # (2, 2) has no single-prime witness: adding 2n + 2n in base p with
        # p | 3n-1 always carries at the lowest digit.  The first witness
        # found is n = 17, where 3n-1 = 50 = 2 * 5^2 while binom(68, 34)
        # carries only a single factor 5.
        w = divisibility.negative_valuation_witness(2, 2)
        assert (w.p, w.n, w.e, w.valuation) == (5, 17, 2, -1)
        x = core.binom_exact(68, 34)
        assert x % 5 == 0 and x % 25 != 0

    def test_witness_revalidates(self):
        for a in range(1, 6):
            for b in range(1, 6):
                w = divisibility.negative_valuation_witness(a, b)
                assert w.p % 3 == 2 and core.is_prime(w.p)
                modulus = 3 * w.n - 1
                e = 0
                while modulus % w.p == 0:
                    modulus //= w.p
                    e += 1
                assert e == w.e
                v = core.binom_valuation((a + b) * w.n, a * w.n, w.p).valuation
                assert v - e == w.valuation < 0

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(divisibility, "_CONJ2_POWER_CAP", 2)
        with pytest.raises(SearchExhaustedError):
            divisibility.negative_valuation_witness(1, 1, p_cap=3)

    def test_sieve_primes_not_reproved(self, monkeypatch):
        # Every candidate comes from the sieve, so no valuation re-runs a
        # primality proof; the Kummer cross-check still runs in each one.
        calls = []
        real = core.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(core, "is_prime", counting)
        w = divisibility.negative_valuation_witness(2, 2, p_cap=10**3)
        assert (w.p, w.n, w.e) == (5, 17, 2)
        assert calls == []

    def test_matches_reference_search(self):
        # The first witness in the documented order, not just a valid one.
        for a in range(1, 31):
            for b in range(1, 31):
                w = divisibility.negative_valuation_witness(a, b, p_cap=10**3)
                assert (w.p, w.n, w.e, w.valuation) == \
                    oracles.witness_reference(a, b, 10**3), (a, b)

    def test_pairs_needing_higher_powers(self):
        # The same 13 pairs at p_cap = 10**5: every other pair's witness
        # has p <= 53.  Only (2, 2) is == (2, 2) (mod 3).
        hard = {(a, b) for a in range(1, 31) for b in range(1, 31)
                if divisibility.negative_valuation_witness(a, b, p_cap=10**3).e >= 2}
        assert hard == {(2, 2), (2, 7), (2, 19), (7, 2), (8, 10), (10, 8),
                        (11, 22), (14, 19), (14, 22), (19, 2), (19, 14),
                        (22, 11), (22, 14)}

    def test_reads_primes_as_it_goes(self, monkeypatch):
        read = []
        real = core.primes_up_to

        def recording(limit):
            for p in real(limit):
                read.append(p)
                yield p

        monkeypatch.setattr(core, "primes_up_to", recording)
        w = divisibility.negative_valuation_witness(1, 1)
        assert (w.p, w.e) == (5, 1)
        assert read == [2, 3, 5]

    def test_refusals_come_before_any_valuation(self, monkeypatch):
        calls = []
        real = core._valuation

        def counting(m, k, p):
            calls.append(p)
            return real(m, k, p)

        monkeypatch.setattr(core, "_valuation", counting)
        with pytest.raises(ValueError):
            divisibility.negative_valuation_witness(1, 1, p_cap=1)
        monkeypatch.setattr(core, "prime_budget", 10**3 - 1)
        with pytest.raises(BudgetExceededError):
            divisibility.negative_valuation_witness(1, 1, p_cap=10**3)
        assert calls == []
        # The sieve runs when the prime stream is made, not when it is read.
        with pytest.raises(BudgetExceededError):
            divisibility._primes_2_mod_3(10**3)


class TestPrimeWindow:
    def test_example_530(self):
        report = divisibility.prime_window_verify(530, 530)
        assert report.entries == ((530, 557),)
        assert not report.failures
        assert core.is_prime(557) and 557 % 3 == 2 and 19 * 557 < 20 * 530

    def test_failure_reported(self):
        # Small x where no prime fits the narrow window.
        report = divisibility.prime_window_verify(2, 10)
        assert report.failures

    def test_witness_is_least(self):
        report = divisibility.prime_window_verify(1000, 1100)
        for x, p in report.entries:
            assert x < p and 19 * p < 20 * x
            for r in range(x + 1, p):
                assert not (core.is_prime(r) and r % 3 == 2)


class TestTheta:
    def test_exact_log_sum(self):
        t = divisibility.chebyshev_theta_3_2(10)
        # Primes == 2 (mod 3) up to 10 are exactly 2 and 5.
        assert t.prime_count == 2
        assert t.value == pytest.approx(math.log(2) + math.log(5), abs=1e-12)
        assert t.error_bound < 1e-10

    def test_band_at_3761(self):
        t = divisibility.chebyshev_theta_3_2(3761)
        assert 0.49 * 3761 < t.value < 0.51 * 3761


class TestDecomposition:
    def test_examples(self):
        assert divisibility.verify_quotient_decomposition(1, 1, 2)
        assert divisibility.verify_quotient_decomposition(7, 36, 3)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            divisibility.verify_quotient_decomposition(1, 1, 1)

    def test_matches_rational_form(self):
        # The identity as stated, in exact rationals.
        def rational(a, b, n):
            lhs = Fraction(math.comb((a + b) * n, a * n), b * n + 1)
            rhs = (math.comb((a + b) * n, a * n - 1)
                   - Fraction(a + b, a) * math.comb((a + b) * n - 1, a * n - 2))
            return lhs == rhs

        for a in range(1, 7):
            for b in range(1, 7):
                for n in range(1, 7):
                    if a * n >= 2:
                        assert (divisibility.verify_quotient_decomposition(a, b, n)
                                == rational(a, b, n))


class TestFirstFailingN:
    def test_basic(self):
        n = divisibility.first_failing_n(3, 2, 1, 100)
        if n is not None:
            assert not core.divides_binomial(2 * n, n, 3 * n - 1)[0]
            for j in range(1, n):
                if 3 * j - 1 > 1:
                    assert core.divides_binomial(2 * j, j, 3 * j - 1)[0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            divisibility.first_failing_n(3, 1, 1, 10)

    @pytest.mark.parametrize("p", [0, 1, -3])
    def test_rejects_p_below_two(self, p):
        # p = 0 once checked nothing and reported that the pair survives.
        with pytest.raises(ValueError, match="p >= 2"):
            divisibility.first_failing_n(p, 3, 1, 5)


class TestSurvivingPairs:
    def test_consistency(self):
        pairs = oracles.surviving_pairs(1, 6, 6, 30)
        for a, b in pairs:
            assert a > b
            for n in range(1, 31):
                if a * n - 1 > 1:
                    assert core.divides_binomial(a * n, b * n, a * n - 1)[0]

    def test_modulus_zero_is_failure(self):
        # a = 1 hits modulus a*1 - 1 = 0 and can never survive.
        assert all(a != 1 for a, _ in oracles.surviving_pairs(2, 4, 4, 10))
