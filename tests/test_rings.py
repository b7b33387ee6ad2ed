"""Exact arithmetic in the two coefficient rings.

The Laurent ring is checked against hand-worked products and a seeded
random sweep of the ring axioms; the series ring additionally checks
that truncation and the substitution u = eps * e^h are ring
homomorphisms, which is what the filtration analysis relies on.
"""

import random
from fractions import Fraction

import pytest

from g2jones import LaurentPoly, TruncSeries, exp_series, laurent_to_series

U = LaurentPoly.variable()
UINV = LaurentPoly.monomial(-1)


def rand_poly(rng, span=5, terms=4, size=9):
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        coeffs[rng.randint(-span, span)] = rng.randint(-size, size)
    return LaurentPoly(coeffs)


def rand_series(rng, order=6):
    return TruncSeries(
        order,
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order + 1)),
    )


class TestLaurentPoly:
    def test_construction_drops_zero_coefficients(self):
        assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
        assert LaurentPoly({}) == LaurentPoly.zero()
        assert LaurentPoly().is_zero()

    def test_small_products(self):
        assert (U + UINV) * U == U ** 2 + 1
        assert (1 - U) * (1 + U) == 1 - U ** 2
        assert U * UINV == LaurentPoly.one()
        assert U ** 3 * LaurentPoly.monomial(-5) == LaurentPoly.monomial(-2)
        assert (U + 1) ** 2 == U ** 2 + 2 * U + 1

    def test_identity_elements(self):
        p = LaurentPoly({2: 3, -1: 4})
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert p * 0 == LaurentPoly.zero()
        assert p - p == 0
        assert 1 - p == LaurentPoly.one() - p

    def test_int_comparison(self):
        assert LaurentPoly({0: 7}) == 7
        assert LaurentPoly.zero() == 0
        assert LaurentPoly({1: 7}) != 7

    def test_items_sorted_and_coefficient_lookup(self):
        p = LaurentPoly({5: 1, -3: 2, 0: -4})
        assert list(p.items()) == [(-3, 2), (0, -4), (5, 1)]
        assert p.coefficient(5) == 1
        assert p.coefficient(17) == 0
        assert p.support() == (-3, 0, 5)

    def test_units(self):
        assert U.is_unit() and UINV.is_unit()
        assert LaurentPoly.monomial(4, -1).is_unit()
        assert not (U + 1).is_unit()
        assert not LaurentPoly.monomial(2, 3).is_unit()
        assert U.unit_inverse() == UINV
        m = LaurentPoly.monomial(-7, -1)
        assert m * m.unit_inverse() == 1
        with pytest.raises(ValueError):
            (U + 1).unit_inverse()

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            (U + 1) ** -1

    def test_evaluate_at_sign(self):
        p = LaurentPoly({3: 2, -2: 5, 0: -1})
        assert p.evaluate_at_sign(1) == 6
        assert p.evaluate_at_sign(-1) == 2  # odd exponents flip
        with pytest.raises(ValueError):
            p.evaluate_at_sign(2)

    def test_evaluate_rational(self):
        p = U ** 2 + UINV
        assert p.evaluate(2) == Fraction(9, 2)
        assert p.evaluate(Fraction(1, 3)) == Fraction(28, 9)
        with pytest.raises(ValueError):
            p.evaluate(0)

    def test_str_roundtrippable_forms(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(U ** 2 - 1) == "-1 + u^2"
        assert str(LaurentPoly({-5: -1, 5: -1})) == "-u^-5 - u^5"

    def test_ring_axioms_random(self):
        rng = random.Random(20260101)
        for _ in range(1000):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - b == a + (-b)

    def test_hashable_and_usable_in_sets(self):
        assert len({U, LaurentPoly.variable(), U + 1}) == 2

    def test_constants_hash_as_the_ints_they_equal(self):
        assert len({LaurentPoly({0: 3}), 3}) == 1
        assert len({LaurentPoly(), 0}) == 1
        assert hash(LaurentPoly({0: -1})) == hash(-1)
        assert len({U, U + 0, 1}) == 2

    def test_kept_hash_is_the_hash_of_the_coefficients(self):
        rng = random.Random(20261018)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            for p in (a, a * b, a + b, -a):
                coeffs = dict(p.items())
                # a constant, zero included, hashes as the int it equals
                expected = hash(coeffs.get(0, 0)) if coeffs.keys() <= {0} else \
                    hash(frozenset(coeffs.items()))
                assert hash(p) == expected
                assert hash(p) == expected  # the kept value
                assert hash(LaurentPoly(dict(p.items()))) == expected
                assert p == LaurentPoly(dict(p.items()))

    def test_monomial_products_match_point_evaluation(self):
        rng = random.Random(20260102)
        for _ in range(300):
            p = rand_poly(rng, terms=8)
            m = LaurentPoly.monomial(rng.randint(-6, 6), rng.choice((-3, -1, 1, 2)))
            for x in (Fraction(2), Fraction(-3), Fraction(1, 2)):
                assert (m * p).evaluate(x) == m.evaluate(x) * p.evaluate(x)
                assert (p * m).evaluate(x) == m.evaluate(x) * p.evaluate(x)


class TestTruncSeries:
    def test_constants_hash_as_the_scalars_they_equal(self):
        assert len({TruncSeries(2, [3, 0, 0]), 3}) == 1
        assert len({TruncSeries.constant(Fraction(5, 3), 2), Fraction(5, 3)}) == 1
        assert hash(TruncSeries.zero(4)) == hash(0)
        assert len({TruncSeries(2, (1, 1)), TruncSeries(2, (1, 1)), 1}) == 2

    def test_order_is_part_of_identity(self):
        assert TruncSeries.one(4) != TruncSeries.one(5)
        with pytest.raises(ValueError):
            TruncSeries.one(4) + TruncSeries.one(5)
        with pytest.raises(ValueError):
            TruncSeries(0)

    def test_scalar_mixing(self):
        s = TruncSeries(3, (1, 2))
        assert s + 1 == TruncSeries(3, (2, 2))
        assert 1 + s == s + Fraction(1)
        assert 2 * s == TruncSeries(3, (2, 4))
        assert s - s == 0
        assert TruncSeries.constant(Fraction(5, 3), 2) == Fraction(5, 3)
        assert s != 1  # nonconstant never equals a scalar

    def test_product_truncates(self):
        s = TruncSeries(2, (0, 1))  # h
        assert s * s == TruncSeries(2, (0, 0, 1))
        assert s * s * s == TruncSeries(2)  # h^3 vanishes at order 2
        assert s ** 2 == s * s

    def test_coefficient_bounds(self):
        s = TruncSeries(3, (5, 6, 7, 8))
        assert s.coefficient(0) == 5
        assert s.coefficient(3) == 8
        with pytest.raises(IndexError):
            s.coefficient(4)
        with pytest.raises(IndexError):
            s.coefficient(-1)

    def test_valuation(self):
        assert TruncSeries(4, (0, 0, 3)).valuation() == 2
        assert TruncSeries(4, (1,)).valuation() == 0
        assert TruncSeries.zero(4).valuation() is None

    def test_truncate(self):
        s = TruncSeries(5, (1, 2, 3, 4, 5, 6))
        assert s.truncate(2) == TruncSeries(2, (1, 2, 3))
        assert s.truncate(5) == s
        with pytest.raises(ValueError):
            s.truncate(6)
        with pytest.raises(ValueError):
            s.truncate(0)

    def test_truncation_is_a_homomorphism(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_series(rng, order=6)
            b = rand_series(rng, order=6)
            assert (a + b).truncate(3) == a.truncate(3) + b.truncate(3)
            assert (a * b).truncate(3) == a.truncate(3) * b.truncate(3)

    def test_geometric_series(self):
        s = TruncSeries(4, (1, -1))  # 1 - h
        assert s * TruncSeries(4, (1, 1, 1, 1, 1)) == TruncSeries.one(4)

    def test_ring_axioms_random(self):
        rng = random.Random(20260102)
        for _ in range(500):
            a, b, c = (rand_series(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestSubstitution:
    def test_exp_series_cache_is_bounded(self):
        assert exp_series.cache_info().maxsize is not None

    def test_exp_series_values(self):
        assert exp_series(0, 4) == TruncSeries.one(4)
        assert exp_series(1, 3) == TruncSeries(
            3, (1, 1, Fraction(1, 2), Fraction(1, 6))
        )
        assert exp_series(2, 2) == TruncSeries(2, (1, 2, 2))
        assert exp_series(-1, 2) == TruncSeries(2, (1, -1, Fraction(1, 2)))

    def test_exp_is_multiplicative(self):
        # e^(ah) * e^(bh) = e^((a+b)h), the identity behind word expansion
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert exp_series(a, 8) * exp_series(b, 8) == exp_series(a + b, 8)

    def test_variable_substitution(self):
        assert laurent_to_series(U, 1, 3) == exp_series(1, 3)
        assert laurent_to_series(U, -1, 2) == TruncSeries(
            2, (-1, -1, Fraction(-1, 2))
        )
        assert laurent_to_series(UINV * U, 1, 4) == TruncSeries.one(4)
        assert laurent_to_series(LaurentPoly({2: 1}), -1, 3) == exp_series(2, 3)

    def test_int_input_treated_as_constant(self):
        assert laurent_to_series(7, 1, 3) == TruncSeries.constant(7, 3)
        assert laurent_to_series(0, -1, 2) == TruncSeries.zero(2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laurent_to_series(U, 0, 3)
        with pytest.raises(ValueError):
            laurent_to_series(U, 1, 0)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_substitution_is_a_ring_homomorphism(self, eps):
        rng = random.Random(400 + eps)
        for _ in range(300):
            p = rand_poly(rng)
            q = rand_poly(rng)
            sp = laurent_to_series(p, eps, 6)
            sq = laurent_to_series(q, eps, 6)
            assert laurent_to_series(p + q, eps, 6) == sp + sq
            assert laurent_to_series(p * q, eps, 6) == sp * sq

    @pytest.mark.parametrize("eps", [1, -1])
    def test_constant_term_is_sign_evaluation(self, eps):
        rng = random.Random(500 + eps)
        for _ in range(200):
            p = rand_poly(rng)
            s = laurent_to_series(p, eps, 4)
            assert s.constant_term() == p.evaluate_at_sign(eps)

    def test_h_coefficient_is_weighted_derivative(self):
        # d/dh at 0 of sum c_e eps^e e^(eh) is sum c_e eps^e e
        rng = random.Random(600)
        for eps in (1, -1):
            for _ in range(200):
                p = rand_poly(rng)
                expected = sum(
                    e * c * (1 if (eps == 1 or e % 2 == 0) else -1)
                    for e, c in p.items()
                )
                assert laurent_to_series(p, eps, 3).coefficient(1) == expected
