import math
from fractions import Fraction

import pytest

import oracles
from divcert import core, qdivisibility, qpoly
from divcert.errors import BudgetExceededError
from divcert.qpoly import QuotientExpr


def _q1_quotient(expr: QuotientExpr) -> Fraction:
    """Integer value the expansion must take at q = 1."""
    value = Fraction(core.binom_exact(expr.binom_m, expr.binom_k))
    for t in expr.numerator_ms:
        value *= t
    for t in expr.denominator_ns:
        value /= t
    return value


class TestVerifyQFamilies:
    def test_n1_all_polynomial(self):
        verdicts = qdivisibility.verify_q_families(1, expand_coefficients=False)
        assert len(verdicts) == 7
        assert all(v.polynomial for v in verdicts)

    def test_n1_nonneg_small_families(self):
        verdicts = qdivisibility.verify_q_families(1)
        by_id = {v.family_id: v for v in verdicts}
        assert by_id["12n:3n/6n-1"].nonneg
        assert by_id["12n:4n/6n-1"].nonneg
        assert by_id["60n:6n/30n-1"].nonneg
        assert by_id["120n:40n/30n-1"].nonneg
        assert by_id["120n:45n/30n-1"].nonneg
        assert by_id["330n:88n/66n-1"].nonneg
        # The composite-denominator family only claims polynomiality.
        assert by_id["30n:5n/(10n-1)(15n-1)"].nonneg is None

    def test_budget_leaves_nonneg_open(self, monkeypatch):
        monkeypatch.setattr(qpoly, "degree_budget", 50)
        verdicts = qdivisibility.verify_q_families(2)
        for v in verdicts[:-1]:
            assert v.polynomial and v.nonneg is None

    def test_degrees(self):
        by_id = {v.family_id: v for v in qdivisibility.verify_q_families(
            1, expand_coefficients=False)}
        # deg [330, 88]_q = 88 * 242; the quotient removes 65 - 1 degrees.
        assert by_id["330n:88n/66n-1"].degree == 88 * 242 + 1 - 65

    def test_large_n_closed_form_degrees(self):
        # Decided on the exponents of Phi_d for d dividing a denominator
        # index, so n = 10^4 (degrees up to 2.1e10) stays cheap.
        n = 10**4
        verdicts = qdivisibility.verify_q_families(n, expand_coefficients=False)
        # deg (1-q)/(1-q^{cn-1}) [mn, kn]_q = kn(mn-kn) + 1 - (cn-1).
        assert [v.degree for v in verdicts[:-1]] == [
            kc * n * (mc * n - kc * n) + 2 - c * n
            for c, mc, kc in qdivisibility.SINGLE_QUOTIENT_FAMILIES]
        assert verdicts[-1].degree == 125 * n * n - 25 * n + 4
        assert all(v.polynomial and v.nonneg is None for v in verdicts)

    def test_q1_specializations(self):
        for n in (1, 2):
            for c, mc, kc in qdivisibility.SINGLE_QUOTIENT_FAMILIES:
                expr = QuotientExpr((1,), (c * n - 1,), mc * n, kc * n)
                if (kc * n) * (mc * n - kc * n) > 50_000:
                    continue
                poly = qpoly.expand_expr(expr)
                value = _q1_quotient(expr)
                assert value.denominator == 1 and value > 0
                assert oracles.evaluate(poly, 1) == value


class TestGcdCentralQuotient:
    def test_k0_convention(self):
        # gcd(0, n) = n, so the quotient collapses to [2n, n]_q itself.
        v = qdivisibility.verify_gcd_central_quotient(5, 0)
        assert v.polynomial and v.nonneg
        assert v.degree == oracles.qbinom_poly(10, 5).degree

    def test_grid(self):
        for n in range(1, 16):
            for k in range(0, n + 1):
                v = qdivisibility.verify_gcd_central_quotient(n, k)
                assert v.polynomial and v.nonneg

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            qdivisibility.verify_gcd_central_quotient(3, 4)


class TestBnk:
    def test_small(self):
        # B_{2,1} = (1-q)/(1-q^2) [4, 1]_q = 1 + q^2.
        assert oracles.b_nk_poly(2, 1).coeffs == (1, 0, 1)

    def test_two_routes_agree_grid(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                poly = oracles.b_nk_poly(n, k)
                assert qpoly.is_nonneg(poly)[0]

    def test_q1_value(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                poly = oracles.b_nk_poly(n, k)
                expected = Fraction(k, n) * core.binom_exact(2 * n, n - k)
                assert oracles.evaluate(poly, 1) == expected


class TestGcdBinomialQuotient:
    def test_catalan_case(self):
        # gcd(1, n) = 1 recovers the q-Catalan shape at (n, n+1)... here the
        # (a, b) = (2, 3) instance: (1-q)/(1-q^5) [5, 2]_q = 1 + q^2.
        v = qdivisibility.gcd_binomial_quotient_check(2, 3)
        assert v.polynomial and v.nonneg
        poly = qpoly.expand_expr(QuotientExpr((1,), (5,), 5, 2))
        assert poly.coeffs == (1, 0, 1)

    def test_grid(self):
        for a in range(1, 21):
            for b in range(1, 21):
                v = qdivisibility.gcd_binomial_quotient_check(a, b)
                assert v.polynomial and v.nonneg

    def test_budget_raises(self, monkeypatch):
        # Non-negativity is the claim here, so a budget that stops the
        # expansion must not come back as a verdict.
        monkeypatch.setattr(qpoly, "degree_budget", 10)
        assert qdivisibility.gcd_binomial_quotient_check(3, 4).degree == 6
        with pytest.raises(BudgetExceededError):
            qdivisibility.gcd_binomial_quotient_check(4, 5)
        with pytest.raises(BudgetExceededError):
            qdivisibility.verify_gcd_central_quotient(4, 0)
        with pytest.raises(BudgetExceededError):
            qdivisibility.verify_gcd_catalan_family(1, 2, 3)

    def test_one_polynomiality_decision_per_verdict(self, monkeypatch):
        # An expanded verdict takes polynomiality and degree from
        # expand_expr, which decides them once; a verdict without
        # coefficients decides them itself.
        calls = []
        real = qpoly.polynomiality

        def counting(expr):
            calls.append(expr)
            return real(expr)

        monkeypatch.setattr(qpoly, "polynomiality", counting)
        v = qdivisibility.gcd_binomial_quotient_check(61, 2)
        assert v.polynomial and v.nonneg and v.degree == 61 * 2 + 1 - 63
        assert len(calls) == 1
        calls.clear()
        qdivisibility.verify_q_families(1)
        assert len(calls) == 6 + 1
        # A refusal still reads as a verdict, not as an error.
        monkeypatch.setattr(qpoly, "polynomiality", lambda expr: (False, 0))
        v = qdivisibility.gcd_binomial_quotient_check(61, 2)
        assert v[2:] == (False, None, (), 0)

    def test_q1_specialization(self):
        for a in range(1, 13):
            for b in range(1, 13):
                g = math.gcd(a, b)
                expr = QuotientExpr((g,), (a + b,), a + b, a)
                poly = qpoly.expand_expr(expr)
                value = _q1_quotient(expr)
                assert value.denominator == 1
                assert oracles.evaluate(poly, 1) == value
                # In particular (a+b)/gcd(a,b) divides binom(a+b, a).
                assert (g * core.binom_exact(a + b, a)) % (a + b) == 0


class TestGcdCatalanFamily:
    def test_both_forms_grid(self):
        for a in range(1, 9):
            for b in range(1, 9):
                for n in range(1, 9):
                    v = qdivisibility.verify_gcd_catalan_family(a, b, n)
                    assert v.polynomial and v.nonneg

    def test_forms_compared_on_divisors_match_dense_vectors(self):
        # The engine compares the forms only at d dividing an+bn+1 or bn+1;
        # the oracle compares both dense vectors at every d.
        for a in range(1, 13):
            for b in range(1, 13):
                for n in range(1, 9):
                    assert qdivisibility._displayed_forms_agree(a, b, n)
                    assert oracles.catalan_forms_agree(a, b, n)

    def test_forms_comparison_needs_no_exponent_vector(self, monkeypatch):
        # (1, 9, 1) has degree 0; its second form's largest index is 11.
        monkeypatch.setattr(qpoly, "degree_budget", 10)
        monkeypatch.setattr(qpoly, "gaussian_factorization", None)
        v = qdivisibility.verify_gcd_catalan_family(1, 9, 1)
        assert v.polynomial and v.nonneg and v.degree == 0

    def test_identity_behind_forms(self):
        # (1-q^(m+1)) [m, k]_q = (1-q^(m+1-k)) [m+1, k]_q as polynomials.
        for m in range(1, 15):
            for k in range(0, m + 1):
                lhs = qpoly.expand_expr(QuotientExpr((m + 1,), (1,), m, k))
                rhs = qpoly.expand_expr(QuotientExpr((m + 1 - k,), (1,), m + 1, k))
                assert lhs == rhs


class TestGeneralizedQCatalan:
    def test_classical_catalan(self):
        # a = b = 1: (1-q)/(1-q^(n+1)) [2n, n]_q, the q-Catalan polynomial.
        poly = oracles.generalized_q_catalan(1, 1, 2)
        assert poly.coeffs == (1, 0, 1)
        for n in range(1, 20):
            p = oracles.generalized_q_catalan(1, 1, n)
            cat = core.binom_exact(2 * n, n) // (n + 1)
            assert oracles.evaluate(p, 1) == cat

    def test_grid(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for n in range(1, 7):
                    poly = oracles.generalized_q_catalan(a, b, n)
                    value = Fraction(a, b * n + 1) * core.binom_exact(
                        (a + b) * n, a * n)
                    assert value.denominator == 1
                    assert oracles.evaluate(poly, 1) == value


class TestC330n88n:
    def test_n1(self):
        degree, negatives = qdivisibility.check_c330n88n(1)
        assert degree == 104
        assert negatives == [(1, -1), (103, -1)]
        assert negatives == qdivisibility.conjectured_pattern(1)

    def test_pattern_positions_reciprocal(self):
        for n in (1, 2):
            pattern = qdivisibility.conjectured_pattern(n)
            degree = 125 * n * n - 25 * n + 4
            (i, _), (j, _) = pattern
            assert i + j == degree

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(qpoly, "degree_budget", 100)
        with pytest.raises(BudgetExceededError):
            qdivisibility.check_c330n88n(3)


class TestExpandedFamiliesReciprocal:
    def test_coefficient_level(self):
        # Balanced quotients of reciprocal factors stay reciprocal.
        for n in (1, 2):
            for c, mc, kc in qdivisibility.SINGLE_QUOTIENT_FAMILIES[:3]:
                poly = qpoly.expand_expr(
                    QuotientExpr((1,), (c * n - 1,), mc * n, kc * n))
                assert oracles.is_reciprocal(poly)
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert oracles.is_reciprocal(oracles.b_nk_poly(n, k))


class TestPolynomialityAgainstLongDivision:
    def test_grid(self):
        # The verdicts' polynomiality and degree (qpoly.polynomiality) vs.
        # exact long division of the expanded numerator by the denominator
        # q-integer.
        for m in range(2, 15):
            for k in range(0, m + 1):
                binom = oracles.qbinom_poly(m, k)
                for u in range(1, 9):
                    for v in range(1, 9):
                        expr = QuotientExpr((u,), (v,), m, k)
                        num = oracles.mul(binom, oracles.one_minus_q(u))
                        try:
                            quotient = oracles.exact_div(
                                num, oracles.one_minus_q(v))
                            divided = True, quotient.degree
                        except ValueError:
                            divided = False, 0
                        assert qpoly.polynomiality(expr) == divided
