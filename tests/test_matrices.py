"""Matrix layer: determinants by two routes, inversion, valuation, rank.

The subset-DP determinant and the permutation-sum determinant are
implemented independently on purpose; the cross-check here runs them
against each other on every dimension the permutation sum allows.  The
rank routine is compared against a plain fraction Gaussian elimination
written locally in this file.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2jones import (
    LaurentPoly,
    SquareMatrix,
    TruncSeries,
    adjugate,
    determinant_by_permutations,
    exact_rank,
    matrix_determinant,
    matrix_inverse,
    matrix_trace,
    series_matrix_valuation,
)
from g2jones.errors import NotUnipotentError, ValuationExceedsOrderError

U = LaurentPoly.variable()


def rand_int_matrix(rng, n, lo=-9, hi=9):
    return SquareMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def rand_laurent_matrix(rng, n):
    def entry():
        return LaurentPoly(
            {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, 2))}
        )

    return SquareMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])


def gauss_rank(matrix):
    # reference rank: textbook elimination over Fraction
    rows = [[Fraction(x) for x in row] for row in matrix.entries]
    n = len(rows)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestDeterminant:
    def test_small_integer_examples(self):
        assert matrix_determinant(SquareMatrix.from_rows([[7]])) == 7
        assert matrix_determinant(SquareMatrix.from_rows([[1, 2], [3, 4]])) == -2
        m3 = SquareMatrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
        assert matrix_determinant(m3) == 5
        assert matrix_determinant(SquareMatrix.identity(5)) == 1

    def test_laurent_examples(self):
        diag = SquareMatrix.from_rows(
            [
                [U, 0, 0, 0, 0],
                [0, U.unit_inverse(), 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1],
            ]
        )
        assert matrix_determinant(diag) == LaurentPoly.one()
        rot = SquareMatrix.from_rows([[0, U], [-U.unit_inverse(), 0]])
        assert matrix_determinant(rot) == 1

    def test_two_routes_agree(self):
        rng = random.Random(20260103)
        for n in range(1, 7):
            for _ in range(30):
                m = rand_int_matrix(rng, n)
                assert matrix_determinant(m) == determinant_by_permutations(m)
        for n in range(2, 6):
            for _ in range(10):
                m = rand_laurent_matrix(rng, n)
                assert matrix_determinant(m) == determinant_by_permutations(m)

    def test_two_routes_agree_on_sparse_matrices(self):
        # the subset route skips products with a zero factor; zero rows,
        # zero minors and singular matrices exercise every skip
        rng = random.Random(20261018)
        for n in range(1, 7):
            for _ in range(40):
                dense = (rand_int_matrix(rng, n), rand_laurent_matrix(rng, n))
                for m in dense:
                    sparse = SquareMatrix.from_rows(
                        [[x if rng.random() < 0.35 else x * 0 for x in row] for row in m.entries])
                    det = matrix_determinant(sparse)
                    assert det == determinant_by_permutations(sparse)
                    assert type(det) is type(sparse.entries[-1][0])

    def test_permutation_route_dimension_guard(self):
        with pytest.raises(ValueError):
            determinant_by_permutations(SquareMatrix.identity(7))

    def test_multiplicative_over_laurent(self):
        rng = random.Random(4)
        for _ in range(25):
            a = rand_laurent_matrix(rng, 4)
            b = rand_laurent_matrix(rng, 4)
            assert matrix_determinant(a * b) == matrix_determinant(a) * matrix_determinant(b)

    def test_transpose_invariance(self):
        rng = random.Random(5)
        for _ in range(25):
            m = rand_laurent_matrix(rng, 5)
            assert matrix_determinant(m) == matrix_determinant(m.transpose())

    def test_row_swap_flips_sign(self):
        rng = random.Random(6)
        for _ in range(25):
            m = rand_int_matrix(rng, 5)
            swapped = SquareMatrix(
                (m.entries[1], m.entries[0]) + m.entries[2:]
            )
            assert matrix_determinant(swapped) == -matrix_determinant(m)


class TestTraceAndArithmetic:
    def test_equal_matrices_whose_zeros_differ_in_type_hash_equal(self):
        ints, laurent = SquareMatrix(((0,),)), SquareMatrix(((LaurentPoly(),),))
        assert ints == laurent and hash(ints) == hash(laurent)
        identity = SquareMatrix.identity(2)
        assert len({identity, identity.map_entries(lambda x: LaurentPoly({0: x}))}) == 1

    def test_trace_examples(self):
        assert matrix_trace(SquareMatrix.identity(5)) == 5
        m = SquareMatrix.from_rows([[U, 1], [0, U.unit_inverse()]])
        assert matrix_trace(m) == U + U.unit_inverse()

    def test_trace_is_linear_and_cyclic(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rand_int_matrix(rng, 4)
            b = rand_int_matrix(rng, 4)
            assert matrix_trace(a + b) == matrix_trace(a) + matrix_trace(b)
            assert matrix_trace(a * b) == matrix_trace(b * a)

    def test_scalar_and_power(self):
        m = SquareMatrix.from_rows([[1, 1], [0, 1]])
        assert 3 * m == m * 3
        assert m ** 0 == SquareMatrix.identity(2)
        assert m ** 4 == SquareMatrix.from_rows([[1, 4], [0, 1]])
        assert m ** -4 == SquareMatrix.from_rows([[1, -4], [0, 1]])

    @pytest.mark.parametrize("one", [LaurentPoly.one(), Fraction(1), TruncSeries.one(3)],
                             ids=["laurent", "fraction", "series"])
    def test_a_product_entry_with_no_nonzero_term_keeps_the_ring_zero(self, one):
        zero = one * 0
        a = SquareMatrix(((one, zero), (zero, zero)))
        b = SquareMatrix(((zero, one), (zero, zero)))
        for product in (a * b, SquareMatrix.identity(2) * b):
            assert product == SquareMatrix(((zero, one), (zero, zero)))
            assert {type(x) for row in product.entries for x in row} == {type(one)}
        assert SquareMatrix(()) * SquareMatrix(()) == SquareMatrix(())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SquareMatrix.identity(2) + SquareMatrix.identity(3)
        with pytest.raises(ValueError):
            SquareMatrix((( 1, 2),))  # ragged / non-square


POWER_BASES = [
    (LaurentPoly({-1: -1, 0: 1, 1: 1}), LaurentPoly.one()),
    (TruncSeries(4, (1, Fraction(1, 2), 0, -1)), TruncSeries.one(4)),
    (SquareMatrix.from_rows([[1, 1, 0], [0, 1, 2], [1, 0, 1]]), SquareMatrix.identity(3)),
]


class TestPower:
    """Square-and-multiply against repeated multiplication, on all three types."""

    @pytest.mark.parametrize("base,one", POWER_BASES)
    def test_result_and_product_count(self, base, one, monkeypatch):
        cls, products = type(base), []
        multiply = cls.__mul__

        def counting(self, other):
            products.append(other)
            return multiply(self, other)

        expected = one
        for n in range(65):
            products.clear()
            with monkeypatch.context() as patched:
                patched.setattr(cls, "__mul__", counting)
                result = base ** n
            assert result == expected
            assert len(products) == (n.bit_length() - 1 + n.bit_count() - 1 if n else 0)
            expected = expected * base


class TestInversion:
    def test_adjugate_identity(self):
        rng = random.Random(8)
        for _ in range(20):
            m = rand_int_matrix(rng, 4)
            d = matrix_determinant(m)
            assert m * adjugate(m) == d * SquareMatrix.identity(4)
            assert adjugate(m) * m == d * SquareMatrix.identity(4)

    def test_unimodular_integer_inverse(self):
        m = SquareMatrix.from_rows([[2, 1], [1, 1]])
        assert m * matrix_inverse(m) == SquareMatrix.identity(2)

    def test_non_invertible_integer_determinant(self):
        with pytest.raises(ValueError):
            matrix_inverse(SquareMatrix.from_rows([[2, 0], [0, 1]]))

    def test_fraction_inverse(self):
        m = SquareMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(2)]]
        )
        assert m * matrix_inverse(m) == SquareMatrix.identity(2)

    def test_laurent_shear_products(self):
        # products of elementary shears have determinant 1 and Laurent inverses
        rng = random.Random(9)
        for _ in range(15):
            m = SquareMatrix.identity(3)
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                rows = [list(row) for row in SquareMatrix.identity(3).entries]
                rows[i][j] = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-3, 3))
                m = m * SquareMatrix.from_rows(rows)
            assert matrix_determinant(m) == 1
            assert m * matrix_inverse(m) == SquareMatrix.identity(3)


class TestSeriesValuation:
    def _embed(self, const, coeff, k, order):
        # identity * const + h^k * coeff, as a series matrix
        n = const.dim
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                coeffs = [Fraction(0)] * (order + 1)
                coeffs[0] = Fraction(const.entry(i, j))
                if k <= order:
                    coeffs[k] += Fraction(coeff.entry(i, j))
                row.append(TruncSeries(order, coeffs))
            rows.append(row)
        return SquareMatrix.from_rows(rows)

    def test_leading_term_extraction(self):
        rng = random.Random(11)
        for k in (1, 2, 5, 8):
            c = rand_int_matrix(rng, 4)
            while all(x == 0 for row in c.entries for x in row):
                c = rand_int_matrix(rng, 4)
            m = self._embed(SquareMatrix.identity(4), c, k, 8)
            depth, lead = series_matrix_valuation(m)
            assert depth == k
            assert lead == c.map_entries(Fraction)

    def test_not_unipotent(self):
        rng = random.Random(12)
        const = SquareMatrix.from_rows([[1, 1], [0, 1]])
        m = self._embed(const, rand_int_matrix(rng, 2), 1, 4)
        with pytest.raises(NotUnipotentError):
            series_matrix_valuation(m)

    def test_identity_through_order(self):
        m = self._embed(SquareMatrix.identity(3), SquareMatrix.zero(3), 1, 5)
        with pytest.raises(ValuationExceedsOrderError) as info:
            series_matrix_valuation(m)
        assert info.value.order == 5

    def test_requires_series_entries(self):
        with pytest.raises(TypeError):
            series_matrix_valuation(SquareMatrix.identity(3))

    def test_unipotent_determinant_identity(self):
        # det(I + h^k C + O(h^{k+1})) = 1 + h^k tr C + O(h^{k+1})
        rng = random.Random(13)
        order = 7
        for _ in range(20):
            k = rng.randint(1, 4)
            c = rand_int_matrix(rng, 4)
            while all(x == 0 for row in c.entries for x in row):
                c = rand_int_matrix(rng, 4)
            noise = rand_int_matrix(rng, 4)
            m = self._embed(SquareMatrix.identity(4), c, k, order)
            m = m + self._embed(SquareMatrix.zero(4), noise, k + 1, order)
            det_a = matrix_determinant(m)
            det_b = determinant_by_permutations(m)
            assert det_a == det_b
            assert det_a.coefficient(0) == 1
            for t in range(1, k):
                assert det_a.coefficient(t) == 0
            assert det_a.coefficient(k) == matrix_trace(c)


class TestExactRank:
    def test_examples(self):
        assert exact_rank(SquareMatrix.identity(4)) == 4
        assert exact_rank(SquareMatrix.zero(4)) == 0
        assert exact_rank(SquareMatrix.from_rows([[1, 2], [2, 4]])) == 1
        m = SquareMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
        )
        assert exact_rank(m) == gauss_rank(m)

    def test_random_against_gauss(self):
        rng = random.Random(20260104)
        for _ in range(40):
            m = rand_int_matrix(rng, 5)
            assert exact_rank(m) == gauss_rank(m)

    def test_rank_deficient_products(self):
        rng = random.Random(15)
        for r in (1, 2, 3):
            for _ in range(15):
                left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(5)]
                right = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(r)]
                prod = [
                    [sum(left[i][t] * right[t][j] for t in range(r)) for j in range(5)]
                    for i in range(5)
                ]
                m = SquareMatrix.from_rows(prod)
                assert exact_rank(m) == gauss_rank(m)
                assert exact_rank(m) <= r

    @given(st.data())
    def test_int_rows_match_fraction_rows(self, data):
        # rank-deficient integer matrices: an n x r times an r x n product
        n = data.draw(st.integers(1, 7))
        r = data.draw(st.integers(0, n))

        def block(rows, cols):
            row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
            return data.draw(st.lists(row, min_size=rows, max_size=rows))

        left, right = block(n, r), block(r, n)
        ints = SquareMatrix.from_rows(
            [sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)]
            for i in range(n)
        )
        fractions = ints.map_entries(Fraction)
        # a mixed matrix: every other row takes the Fraction route
        mixed = SquareMatrix.from_rows(
            row if i % 2 else tuple(map(Fraction, row)) for i, row in enumerate(ints.entries)
        )
        rank = exact_rank(ints)
        assert rank <= r
        assert rank == exact_rank(fractions) == exact_rank(mixed) == gauss_rank(ints)

    def test_fraction_rows(self):
        rng = random.Random(16)
        for _ in range(20):
            m = SquareMatrix.from_rows(
                [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
                    for _ in range(4)
                ]
            )
            assert exact_rank(m) == gauss_rank(m)
