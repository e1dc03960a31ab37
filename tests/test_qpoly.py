import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import divcert
import oracles
from divcert import qdivisibility, qpoly
from divcert._kernels import div_one_minus_qt, mul_one_minus_qt
from divcert.errors import BudgetExceededError
from divcert.qpoly import IntPoly, QuotientExpr


class TestIntPoly:
    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert not IntPoly([0, 0]).coeffs
        assert IntPoly().degree == -1

    def test_arith(self):
        p = IntPoly([1, 1])
        q = IntPoly([-1, 1])
        assert oracles.mul(p, q).coeffs == (-1, 0, 1)
        assert oracles.add(p, q).coeffs == (0, 2)
        assert not oracles.sub(p, p).coeffs
        assert oracles.neg(q).coeffs == (1, -1)
        assert oracles.shift(p, 2).coeffs == (0, 0, 1, 1)

    def test_evaluate(self):
        p = IntPoly([1, 2, 3])
        assert oracles.evaluate(p, 1) == 6
        assert oracles.evaluate(p, 10) == 321

    def test_exact_div(self):
        num = IntPoly([-1, 0, 0, 0, 0, 0, 1])  # q^6 - 1
        den = IntPoly([-1, 0, 1])  # q^2 - 1
        assert oracles.exact_div(num, den).coeffs == (1, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            oracles.exact_div(IntPoly([1, 1, 1]), IntPoly([-1, 1]))


class TestKernels:
    def test_mul(self):
        assert mul_one_minus_qt([1, 1], 2) == [1, 1, -1, -1]

    def test_mul_matches_oracle(self):
        # Lengths 1-200, some with trailing zeros, coefficients up to
        # 2**200, t from 1 to past the length; compared with the oracle's
        # schoolbook product, and the input is left as it was.
        rng = random.Random(1302)
        big = 2**200
        seen = {"t < len": 0, "t = len": 0, "t > len": 0, "trailing zeros": 0}
        for case in range(3200):
            c = [rng.randrange(-big, big) for _ in range(rng.randrange(1, 201))]
            if case % 8 == 0:
                c[rng.randrange(len(c)):] = [0] * rng.randrange(1, 4)
                seen["trailing zeros"] += 1
            t = rng.randrange(1, len(c) + 6)
            seen["t < len"] += t < len(c)
            seen["t = len"] += t == len(c)
            seen["t > len"] += t > len(c)
            before = c[:]
            out = mul_one_minus_qt(c, t)
            assert c == before
            assert len(out) == len(c) + t
            assert IntPoly(out) == oracles.mul(IntPoly(c), oracles.one_minus_q(t))
        assert min(seen.values()) >= 10, seen

    def test_div_roundtrip(self):
        rng = random.Random(11)
        for _ in range(200):
            c = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 40))]
            t = rng.randrange(1, 8)
            assert div_one_minus_qt(mul_one_minus_qt(c, t), t)[:len(c)] == c

    def test_div_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            div_one_minus_qt([1, 1, 1], 2)

    def test_div_matches_long_division(self):
        # Lengths 1-200 with a non-zero top coefficient, t up to past the
        # length (so t = len and t > len both occur), coefficients up to
        # 2**200; half the cases are exact products, so both quotients and
        # remainders are compared with the oracle's long division.
        rng = random.Random(1301)
        big = 2**200

        def coeffs(length):
            """length coefficients, the last one non-zero."""
            return [rng.randrange(-big, big) for _ in range(length - 1)] + [
                rng.choice((-1, 1)) * rng.randrange(1, big)]
        seen = {"exact": 0, "remainder": 0, "t = len": 0, "t > len": 0}
        for case in range(3200):
            if case % 2:
                t = rng.randrange(1, 200)
                c = list(oracles.mul(IntPoly(coeffs(rng.randrange(1, 201 - t))),
                                     oracles.one_minus_q(t)).coeffs)
            else:
                c = coeffs(rng.randrange(1, 201))
                t = rng.randrange(1, len(c) + 6)
            seen["t = len"] += t == len(c)
            seen["t > len"] += t > len(c)
            try:
                expected = oracles.exact_div(IntPoly(c), oracles.one_minus_q(t))
            except ValueError:
                with pytest.raises(ValueError):
                    div_one_minus_qt(c, t)
                seen["remainder"] += 1
                continue
            assert IntPoly(div_one_minus_qt(c, t)) == expected
            seen["exact"] += 1
        assert min(seen.values()) >= 10, seen

    def test_reported_as_python(self):
        assert divcert.KERNEL_BACKEND == "python"


class TestCyclotomic:
    def test_small(self):
        assert oracles.cyclotomic(1).coeffs == (-1, 1)
        assert oracles.cyclotomic(2).coeffs == (1, 1)
        assert oracles.cyclotomic(3).coeffs == (1, 1, 1)
        assert oracles.cyclotomic(6).coeffs == (1, -1, 1)
        assert oracles.cyclotomic(105).coeffs[7] == -2

    def test_degree_is_totient(self):
        from divcert import core
        for d in range(1, 120):
            assert oracles.cyclotomic(d).degree == core.totient(d)

    def test_product_identity(self):
        # prod_{e | d} Phi_e(q) == q^d - 1 for every d up to 200.
        for d in range(1, 201):
            prod = IntPoly([1])
            for e in qpoly._divisors(d):
                prod = oracles.mul(prod, oracles.cyclotomic(e))
            assert prod.coeffs == (-1,) + (0,) * (d - 1) + (1,)


def _gaussian_factorization(m, k):
    """Exponents of [m, k]_q: the quotient expression with no q-integers."""
    return qpoly.expr_factorization(QuotientExpr((), (), m, k))


class TestQbinomFactorization:
    def test_example_6_3(self):
        f = _gaussian_factorization(6, 3)
        assert f.exponents == {2: 1, 4: 1, 5: 1, 6: 1}
        assert f.degree() == 9

    def test_edges(self):
        assert _gaussian_factorization(5, 0).exponents == {}
        assert _gaussian_factorization(5, 5).exponents == {}
        assert _gaussian_factorization(0, 0).exponents == {}

    def test_always_polynomial(self):
        for m in range(0, 40):
            for k in range(0, m + 1):
                f = _gaussian_factorization(m, k)
                assert qpoly.is_polynomial(f)
                assert f.degree() == k * (m - k)

    @given(st.dictionaries(st.integers(1, 600),
                           st.integers(-6, 6).filter(bool), max_size=12))
    def test_degree_sums_totients(self, exponents):
        from divcert import core
        f = qpoly.CycloFactorization(exponents)
        assert f.degree() == sum(e * core.totient(d) for d, e in exponents.items())


class TestQuotientExpr:
    def test_balanced_required(self):
        with pytest.raises(ValueError):
            QuotientExpr((1, 2), (3,), 4, 2)

    def test_positive_indices_required(self):
        with pytest.raises(ValueError):
            QuotientExpr((0,), (3,), 4, 2)

    def test_expr_factorization_example(self):
        # (1-q)/(1-q^5) [12, 3]_q.
        expr = QuotientExpr((1,), (5,), 12, 3)
        f = qpoly.expr_factorization(expr)
        assert qpoly.is_polynomial(f)
        # e_5 = (12//5 - 3//5 - 9//5) - 1 = 0, so 5 is absent from the map.
        assert 5 not in f.exponents

    def test_nonpolynomial_detected(self):
        # (1-q)/(1-q^7) [4, 2]_q has e_7 = -1.
        expr = QuotientExpr((1,), (7,), 4, 2)
        f = qpoly.expr_factorization(expr)
        assert f.exponents[7] == -1
        assert not qpoly.is_polynomial(f)


@st.composite
def balanced_exprs(draw):
    m = draw(st.integers(0, 60))
    k = draw(st.integers(0, m))
    size = draw(st.integers(0, 3))
    # Indices range past m, so some exponents come from the factors alone.
    indices = st.lists(st.integers(1, 150), min_size=size, max_size=size)
    return QuotientExpr(tuple(draw(indices)), tuple(draw(indices)), m, k)


class TestExprFactorizationOracle:
    @given(balanced_exprs())
    @settings(max_examples=300)
    def test_matches_per_d_loop(self, expr):
        f = qpoly.expr_factorization(expr)
        assert list(f.exponents.items()) == list(
            oracles.cyclotomic_exponents(expr).items())

    @given(balanced_exprs(), st.lists(st.integers(1, 150), max_size=3))
    @settings(max_examples=300)
    def test_divisor_exponents_match_per_d_loop(self, expr, indices):
        dense = oracles.cyclotomic_exponents(expr)
        got = dict(qpoly.divisor_exponents(expr, indices))
        assert set(got) == {d for t in indices for d in range(2, t + 1)
                            if t % d == 0}
        assert all(e == dense.get(d, 0) for d, e in got.items())

    @given(balanced_exprs())
    @settings(max_examples=300)
    def test_polynomiality_matches_exponent_vector(self, expr):
        f = qpoly.expr_factorization(expr)
        polynomial = qpoly.is_polynomial(f)
        assert qpoly.polynomiality(expr) == (
            polynomial, f.degree() if polynomial else 0)

    def test_polynomiality_both_verdicts(self):
        # (1-q)/(1-q^5) [12, 3]_q is a polynomial; (1-q)/(1-q^7) [4, 2]_q
        # is not (e_7 = -1).
        assert qpoly.polynomiality(QuotientExpr((1,), (5,), 12, 3)) == (True, 23)
        assert qpoly.polynomiality(QuotientExpr((1,), (7,), 4, 2)) == (False, 0)


class TestExpand:
    def test_qbinom_4_2(self):
        f = _gaussian_factorization(4, 2)
        assert oracles.expand(f).coeffs == (1, 1, 2, 1, 1)

    def test_matches_recurrence(self):
        for m in range(0, 31):
            for k in range(0, m + 1):
                via_cyclo = oracles.expand(_gaussian_factorization(m, k))
                via_rec = oracles.qbinom_poly(m, k)
                assert via_cyclo == via_rec
                # [m, k]_q = [m, m-k]_q, whichever side expand_expr builds.
                for side in (k, m - k):
                    assert qpoly.expand_expr(QuotientExpr((), (), m, side)) == via_rec

    def test_gaussian_built_from_shorter_side(self, monkeypatch):
        # gcd_binomial_quotient_check(61, 2) expands (1-q)/(1-q^63) [63, 61]_q.
        # From the shorter side the product is (1-q)(1-q^62)(1-q^63), of
        # degree 126; from the longer one it passes degree 1,900.
        longest = 0

        def recording(c, t):
            nonlocal longest
            out = mul_one_minus_qt(c, t)
            longest = max(longest, len(out))
            return out

        monkeypatch.setattr(qpoly, "mul_one_minus_qt", recording)
        assert qdivisibility.gcd_binomial_quotient_check(61, 2).nonneg
        assert 0 < longest <= 127

    def test_expand_expr_matches_expand(self):
        for m, k, u, v in [(12, 3, 1, 5), (12, 4, 1, 5), (10, 5, 5, 10),
                           (8, 4, 2, 4), (20, 6, 3, 9)]:
            expr = QuotientExpr((u,), (v,), m, k)
            f = qpoly.expr_factorization(expr)
            if not qpoly.is_polynomial(f):
                continue
            assert qpoly.expand_expr(expr) == oracles.expand(f)

    def test_rejects_nonpolynomial(self):
        expr = QuotientExpr((1,), (7,), 4, 2)
        with pytest.raises(ValueError):
            qpoly.expand_expr(expr)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(qpoly, "degree_budget", 100)
        with pytest.raises(BudgetExceededError):
            qpoly.expand_expr(QuotientExpr((), (), 1000, 500))
        with pytest.raises(BudgetExceededError):
            oracles.qbinom_poly(1000, 500)

    def test_exponent_vector_budget(self, monkeypatch):
        # The vector runs to the largest index of the expression, wherever
        # that index sits; at the budget it is still built.
        monkeypatch.setattr(qpoly, "degree_budget", 100)
        assert qpoly.expr_factorization(QuotientExpr((), (), 100, 1)).exponents == {
            d: 1 for d in (2, 4, 5, 10, 20, 25, 50, 100)}
        for expr in (QuotientExpr((), (), 101, 1),
                     QuotientExpr((1,), (101,), 3, 1),
                     QuotientExpr((101,), (1,), 3, 1)):
            with pytest.raises(BudgetExceededError, match="index 101 exceeds"):
                qpoly.expr_factorization(expr)
        assert qpoly.expand_expr(QuotientExpr((), (), 20, 5)).degree == 75

    def test_trivial_gaussian_has_no_index(self, monkeypatch):
        # [m, 0]_q = [m, m]_q = 1: no dense vector, so no budget to meet.
        monkeypatch.setattr(qpoly, "degree_budget", 100)
        for m in (0, 1, 2, 101, 2 * 10**8):
            for k in {0, m}:
                assert qpoly.expr_factorization(
                    QuotientExpr((), (), m, k)).exponents == {}
        assert qpoly.expr_factorization(
            QuotientExpr((6,), (3,), 10**9, 0)).exponents == {2: 1, 6: 1}
        with pytest.raises(BudgetExceededError, match="index 101 exceeds"):
            qpoly.expr_factorization(QuotientExpr((101,), (1,), 10**9, 10**9))

    def test_negative_phi1_sign(self):
        f = qpoly.CycloFactorization({1: 1})
        assert oracles.expand(f).coeffs == (-1, 1)


class TestPredicates:
    def test_reciprocal(self):
        assert oracles.is_reciprocal(IntPoly([1, 2, 1]))
        assert not oracles.is_reciprocal(IntPoly([1, 2]))
        assert oracles.is_reciprocal(IntPoly())

    def test_unimodal(self):
        assert oracles.is_unimodal(IntPoly([1, 2, 2, 1]))
        assert not oracles.is_unimodal(IntPoly([1, 0, 1]))
        assert not oracles.is_unimodal(IntPoly([1, -1, 1]))

    def test_nonneg(self):
        ok, neg = qpoly.is_nonneg(IntPoly([1, -1, 0, 2, -3]))
        assert not ok
        assert neg == [(1, -1), (4, -3)]
        assert qpoly.is_nonneg(IntPoly([0, 1]))[0]

    def test_qbinoms_reciprocal_unimodal(self):
        for m in range(0, 31):
            for k in range(0, m + 1):
                p = oracles.qbinom_poly(m, k)
                assert oracles.is_reciprocal(p)
                assert oracles.is_unimodal(p)
                assert oracles.evaluate(p, 1) == math.comb(m, k)


class TestUnimodalQuotient:
    def test_examples(self):
        assert oracles.unimodal_quotient_check(IntPoly([1, 1, 1]), 2, 3)

    def test_rejects_nonpolynomial_quotient(self):
        with pytest.raises(ValueError):
            oracles.unimodal_quotient_check(IntPoly([1]), 2, 3)

    def test_catalan_instances(self):
        # (1-q)/(1-q^(n+1)) [2n, n]_q is non-negative for every n <= 30.
        for n in range(1, 31):
            assert oracles.unimodal_quotient_check(
                oracles.qbinom_poly(2 * n, n), 1, n + 1)

    def test_random_qbinom_triples(self):
        # 500 seeded triples: P a random Gaussian polynomial (reciprocal and
        # unimodal), 1 <= m <= n, with (1-q^m)/(1-q^n) P a polynomial.  The
        # quotient must then be non-negative.
        rng = random.Random(2026)
        done = 0
        while done < 500:
            bm = rng.randrange(2, 17)
            bk = rng.randrange(1, bm)
            mm = rng.randrange(1, bm + 1)
            nn = rng.randrange(mm, bm + 1)
            expr = QuotientExpr((mm,), (nn,), bm, bk)
            if not qpoly.is_polynomial(qpoly.expr_factorization(expr)):
                continue
            P = oracles.qbinom_poly(bm, bk)
            assert oracles.is_reciprocal(P) and oracles.is_unimodal(P)
            assert oracles.unimodal_quotient_check(P, mm, nn)
            done += 1

    @given(st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=60)
    def test_qbinom_absorption_identity(self, k, extra):
        # (1-q^k)/(1-q^m) [m, k]_q = [m-1, k-1]_q, always divisible and
        # non-negative, so the law must report true.
        m = k + extra
        assert oracles.unimodal_quotient_check(oracles.qbinom_poly(m, k), k, m)
