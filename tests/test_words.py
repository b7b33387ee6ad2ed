"""Word algebra and the expression parser."""

import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from g2jones import (
    MCGWord,
    abelianization_class,
    analyze,
    build_rep,
    check_bracket,
    check_delta_additivity,
    check_equivariance,
    evaluate_word,
    parse_word,
    symplectic_generators,
    words,
)
from g2jones.errors import BadGeneratorError, ParseError
from g2jones.matrices import SquareMatrix, matrix_inverse
from g2jones.rep import degree0_generators

C = [None] + [MCGWord.generator(i) for i in range(1, 6)]  # 1-based


letters_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0),
    ),
    max_size=12,
)


def rand_word(rng, length=8):
    w = MCGWord.identity()
    for _ in range(rng.randint(0, length)):
        w = w * MCGWord.generator(rng.randint(1, 5), rng.choice((-2, -1, 1, 2)))
    return w


class TestWordAlgebra:
    def test_free_reduction(self):
        assert C[1] * C[1].inverse() == MCGWord.identity()
        assert (C[1] ** 2) * C[1].inverse() == C[1]
        assert MCGWord(((1, 2), (1, -1), (2, 1))).letters == ((1, 1), (2, 1))
        assert MCGWord(((1, 1), (2, 1), (2, -1), (1, -1))).is_identity()

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            MCGWord(((0, 1),))
        with pytest.raises(ValueError):
            MCGWord(((6, 1),))
        with pytest.raises(ValueError):
            MCGWord(((3, 0),))

    def test_group_laws(self):
        rng = random.Random(20260105)
        e = MCGWord.identity()
        for _ in range(200):
            x, y, z = rand_word(rng), rand_word(rng), rand_word(rng)
            assert (x * y) * z == x * (y * z)
            assert x * e == x and e * x == x
            assert x * x.inverse() == e
            assert x.inverse().inverse() == x
            assert (x * y).inverse() == y.inverse() * x.inverse()

    def test_powers(self):
        x = C[1] * C[2]
        assert x ** 0 == MCGWord.identity()
        assert x ** 3 == x * x * x
        assert x ** -2 == (x.inverse()) ** 2
        assert str(C[3] ** -4) == "c3^-4"

    def test_commutator(self):
        x, y = C[1], C[2]
        assert x.commutator(y) == x * y * x.inverse() * y.inverse()
        assert x.commutator(x).is_identity()

    def test_exponent_sum_and_lengths(self):
        w = parse_word("c1^2 c2^-3 c1")
        assert w.exponent_sum() == 0
        assert w.syllable_length() == 3
        assert w.letter_length() == 6

    def test_abelianization(self):
        assert abelianization_class(C[1]) == 1
        assert abelianization_class(parse_word("c1 c2")) == 2
        assert abelianization_class(parse_word("(c1 c2)^6")) == 2
        assert abelianization_class(parse_word("[c1, c2]")) == 0
        assert abelianization_class(parse_word("c1^-1")) == 9


class TestParser:
    def test_basic_forms(self):
        assert parse_word("c1") == C[1]
        assert parse_word("c1 c2") == C[1] * C[2]
        assert parse_word("c1^-3") == MCGWord.generator(1, -3)
        assert parse_word("  c4   c5  ") == C[4] * C[5]

    def test_grouping_and_powers(self):
        assert parse_word("(c1 c2)^6") == (C[1] * C[2]) ** 6
        assert parse_word("(c1 c2)^-1") == (C[1] * C[2]).inverse()
        assert parse_word("((c1))") == C[1]
        assert parse_word("(c1 c2^2)^2") == C[1] * C[2] ** 2 * C[1] * C[2] ** 2

    def test_commutator_brackets(self):
        x, y = (C[1] * C[2]) ** 6, (C[2] * C[3]) ** 6
        assert parse_word("[(c1 c2)^6, (c2 c3)^6]") == x.commutator(y)
        assert parse_word("[c1, c2]^2") == (C[1].commutator(C[2])) ** 2
        assert parse_word("[[c1, c2], c3]") == C[1].commutator(C[2]).commutator(C[3])

    def test_parse_of_str_is_identity(self):
        rng = random.Random(20260106)
        for _ in range(300):
            w = rand_word(rng, length=10)
            if w.is_identity():
                continue  # "()" is not an expression; empty words do not print back
            assert parse_word(str(w)) == w

    @given(letters_strategy)
    def test_parse_of_str_is_identity_hypothesis(self, letters):
        w = MCGWord(tuple(letters))
        if not w.is_identity():
            assert parse_word(str(w)) == w

    def test_bad_generator_index(self):
        for text in ("c0", "c6", "c9", "c1 c7"):
            with pytest.raises(BadGeneratorError):
                parse_word(text)

    def test_parse_errors_carry_position(self):
        cases = ["", "c", "(c1", "c1^", "c1)", "[c1 c2]", "c1 & c2", "^2", "[c1, ]"]
        for text in cases:
            with pytest.raises(ParseError) as info:
                parse_word(text)
            assert info.value.position >= 0

    def test_bad_generator_is_a_parse_error(self):
        assert issubclass(BadGeneratorError, ParseError)

    def test_deep_nesting_is_a_parse_error(self):
        for text in ("(" * 3000 + "c1" + ")" * 3000, "[" * 3000 + "c1, c2" + "]" * 3000):
            with pytest.raises(ParseError) as info:
                parse_word(text)
            assert info.value.position == words.MAX_NESTING

    def test_nesting_up_to_the_cap_parses(self):
        depth = words.MAX_NESTING
        assert parse_word("(" * depth + "c1" + ")" * depth) == C[1]
        with pytest.raises(ParseError):
            parse_word("(" * (depth + 1) + "c1" + ")" * (depth + 1))

    @staticmethod
    def _nested_commutators(levels: int) -> str:
        text = "c1"
        for level in range(levels):
            text = f"[{text}, c{level % 4 + 2}]"
        return text

    @pytest.fixture()
    def reduced_lengths(self, monkeypatch):
        """Lengths of the letter tuples every new word reduces, in order."""
        seen = []
        reduce = words._reduce

        def recording_reduce(letters):
            seen.append(len(letters))
            return reduce(letters)

        monkeypatch.setattr(words, "_reduce", recording_reduce)
        return seen

    def test_letter_cap_is_checked_before_building(self, reduced_lengths):
        # small overshoots come first, so a check made after building fails
        # on them before the huge cases could exhaust memory
        cases = (
            "c1^10001", "(c1 c2)^-5001", "[c1^2500, c2^2501]", self._nested_commutators(12),
            "c1^1000000000", "(c1 c2)^-999999999", self._nested_commutators(40),
        )
        for text in cases:
            with pytest.raises(ParseError, match="more than 10000 letters"):
                parse_word(text)
            assert max(reduced_lengths) <= words.MAX_LETTERS, text

    def test_parsing_reduces_each_letter_a_bounded_number_of_times(self, reduced_lengths):
        text = " ".join(["c1", "c2"] * (words.MAX_LETTERS // 2))
        assert parse_word(text).letter_length() == words.MAX_LETTERS
        # each atom is reduced once alone and once in the whole word
        assert sum(reduced_lengths) == 2 * words.MAX_LETTERS

    def test_words_of_exactly_the_cap_parse(self):
        assert words.MAX_LETTERS == 10_000
        assert parse_word("c1^10000").letter_length() == 10_000
        assert parse_word("(c1 c2)^-5000").letter_length() == 10_000
        assert parse_word("c3^4000 (c1 c2)^3000").letter_length() == 10_000
        with pytest.raises(ParseError):
            parse_word("c3^4001 (c1 c2)^3000")

    def test_spelled_out_length_counts_before_reduction(self):
        # c1^5000 c1^-5000 reduces to the identity but spells out 10000 letters
        assert parse_word("c1^5000 c1^-5000").is_identity()
        with pytest.raises(ParseError):
            parse_word("c1^5000 c1^-5001")

    def test_nested_commutators_grow_until_the_cap(self):
        # each level spells out 2 * (previous + 1) letters
        assert parse_word(self._nested_commutators(11)).letter_length() <= 6142
        with pytest.raises(ParseError):
            parse_word(self._nested_commutators(12))

    def test_exponent_with_too_many_digits_is_a_parse_error(self):
        with pytest.raises(ParseError, match="too many digits"):
            parse_word("(c1^0)^" + "9" * 5000)


class TestAbbreviated:
    def test_short_words_print_in_full(self):
        w = parse_word("c1 c2^-3 c1")
        assert w.abbreviated() == str(w)

    def test_long_words_are_cut_with_their_length(self):
        w = parse_word("(c1 c2)^301")
        assert w.abbreviated() == "c1 c2 c1 c2 c1 c2 c1 c2 \u2026 (602 letters)"


class TestEvaluation:
    def test_identity_word_gives_identity_matrix(self):
        gens = symplectic_generators()
        assert evaluate_word(MCGWord.identity(), gens) == SquareMatrix.identity(4)

    def test_homomorphism_property(self):
        gens = symplectic_generators()
        rng = random.Random(20260107)
        for _ in range(40):
            x, y = rand_word(rng, 6), rand_word(rng, 6)
            assert evaluate_word(x * y, gens) == evaluate_word(x, gens) * evaluate_word(y, gens)

    def test_inverse_word(self):
        gens = symplectic_generators()
        rng = random.Random(20260108)
        for _ in range(20):
            x = rand_word(rng, 6)
            assert evaluate_word(x.inverse(), gens) == matrix_inverse(evaluate_word(x, gens))

    def test_generator_lookup(self):
        gens = symplectic_generators()
        for i in range(1, 6):
            assert evaluate_word(C[i], gens) == gens[i - 1]


def dense_product(word, gens):
    """The reference: dense matrix products of generator powers."""
    result = SquareMatrix.identity(gens[0].dim)
    for gen, exp in word.letters:
        result = result * gens[gen - 1] ** exp
    return result


short_letters = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
    ),
    max_size=8,
)
LAURENT_GENERATORS = build_rep(1, -4, 5).generators


class TestSparseEvaluation:
    @settings(deadline=None)
    @given(short_letters)
    def test_matches_dense_product_over_symplectic_generators(self, letters):
        word = MCGWord(tuple(letters))
        gens = symplectic_generators()
        assert evaluate_word(word, gens) == dense_product(word, gens)

    @settings(deadline=None, max_examples=40)
    @given(short_letters, st.sampled_from((1, -1)))
    def test_matches_dense_product_over_laurent_generators(self, letters, eta):
        word = MCGWord(tuple(letters))
        gens = LAURENT_GENERATORS if eta == 1 else build_rep(-1, -4, 5).generators
        assert evaluate_word(word, gens) == dense_product(word, gens)

    def test_high_powers_match_dense_product(self):
        word = parse_word("c1^20 c2^-13 c3^7 c1^-7 c4 c5^-30")
        for gens in (LAURENT_GENERATORS, symplectic_generators()):
            assert evaluate_word(word, gens) == dense_product(word, gens)

    def test_cached_inverses_match_matrix_inverse(self):
        for gens in (LAURENT_GENERATORS, symplectic_generators()):
            for i in range(1, 6):
                inverse = evaluate_word(MCGWord.generator(i, -1), gens)
                assert inverse == matrix_inverse(gens[i - 1])
                assert inverse * gens[i - 1] == SquareMatrix.identity(gens[0].dim)

    def test_each_inverse_is_computed_once_per_generator_tuple(self, mixed_rep, monkeypatch):
        calls = count_adjugates(monkeypatch)
        word = parse_word("c1^-2 c2 c1^-1 c3^-3 c1^-2")
        # closed forms for the packaged rep; the conjugated rep pays the
        # adjugate for c1 and c3, each once
        for gens, adjugates in ((LAURENT_GENERATORS, 0), (mixed_rep.generators, 2)):
            calls.clear()
            evaluator = words.Evaluator(gens)
            first = evaluator.evaluate(word)
            assert evaluator.evaluate(word) == first
            assert len(calls) == adjugates

    def test_memo_is_bounded_and_keeps_recent_tuples(self, monkeypatch):
        # evaluate_word keeps no evaluator alive; a held evaluator keeps
        # one entry per distinct letter
        made = []
        init = words.Evaluator.__init__

        def recording(evaluator, generators):
            init(evaluator, generators)
            made.append(weakref.ref(evaluator))

        monkeypatch.setattr(words.Evaluator, "__init__", recording)
        for n in range(5, 14):
            evaluate_word(C[1], build_rep(1, -n, 5).generators)
        assert len(made) == 9
        assert all(ref() is None for ref in made)
        evaluator = words.Evaluator(build_rep(1, -4, 5).generators)
        held = (C[1], C[1] * C[2] ** -1, C[2] ** -1 * C[3] ** 2, C[3] ** 2 * C[1])
        for word in held:
            evaluator.evaluate(word)
        assert set(evaluator._letters) == {(1, 1), (2, -1), (3, 2)}


    def test_the_adjugate_is_paid_once_per_inverted_generator_per_evaluator(
            self, mixed_rep, monkeypatch):
        calls = count_adjugates(monkeypatch)
        word = parse_word("c1^-2 c2 c1^-1 c3^-3 c1^-2")
        for _ in range(2):
            evaluator = words.Evaluator(mixed_rep.generators)
            assert evaluator.evaluate(word) == evaluator.evaluate(word)
        g1, _, g3, _, _ = mixed_rep.generators
        assert calls == [g1, g3] * 2


def count_adjugates(monkeypatch) -> list:
    """The matrices words hands to matrix_inverse from now on."""
    calls = []

    def counting_inverse(matrix):
        calls.append(matrix)
        return matrix_inverse(matrix)

    monkeypatch.setattr(words, "matrix_inverse", counting_inverse)
    return calls


def closed_form_generators():
    """Generator tuples whose inverses all have a closed form."""
    reps = [build_rep(1, -4, 5), build_rep(-1, -4, 5), build_rep(1, -8, 10)]
    return [rep.generators for rep in reps] + [symplectic_generators()] + [
        degree0_generators(reps[0], eps) for eps in (1, -1)]


def mirrored(g):
    return g.map_entries(words._mirror)


negative_words = short_letters.map(lambda letters: MCGWord(tuple(letters))).filter(
    lambda word: any(e < 0 for _, e in word.letters))


class TestClosedFormInverses:
    """g(u^-1) or 2I - g, confirmed by one product; the adjugate is the oracle."""

    @pytest.mark.parametrize("gens", closed_form_generators())
    def test_closed_form_equals_the_adjugate(self, gens, monkeypatch):
        calls = count_adjugates(monkeypatch)
        for g in gens:
            assert words._generator_inverse(g) == matrix_inverse(g)
        assert calls == []

    def test_which_closed_form_each_family_takes(self):
        identity = SquareMatrix.identity(5)
        for g in LAURENT_GENERATORS:
            assert words._generator_inverse(g) == mirrored(g)
        for g in symplectic_generators():
            assert g * mirrored(g) != SquareMatrix.identity(4)
            assert words._generator_inverse(g) == SquareMatrix.identity(4) * 2 - g
        for g in degree0_generators(build_rep(1, -4, 5), 1):
            assert g * g == identity  # an involution is its own candidate

    def test_a_conjugated_rep_falls_back_to_the_adjugate(self, mixed_rep, monkeypatch):
        calls = count_adjugates(monkeypatch)
        identity = SquareMatrix.identity(5)
        for g in mixed_rep.generators:
            assert g * mirrored(g) != identity
            assert g * (identity * 2 - g) != identity
            assert words._generator_inverse(g) == matrix_inverse(g)
        assert calls == list(mixed_rep.generators)

    @settings(max_examples=40)
    @given(negative_words, st.integers(0, 5))
    def test_words_with_inverses_match_the_adjugate_route(self, mixed_rep, word, which):
        gens = (closed_form_generators() + [mixed_rep.generators])[which]
        assert evaluate_word(word, gens) == dense_product(word, gens)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_conjugated_reports_equal_the_unconjugated_ones(self, rep6, mixed_rep, catalog, eps):
        # conjugating by P(u) conjugates each leading matrix by P at u = eps
        p0 = SquareMatrix.from_rows([[int(i == j) + (1 + eps) * ((i, j) == (0, 1))
                                      for j in range(5)] for i in range(5)])
        p0_inv = SquareMatrix.identity(5) * 2 - p0
        invariant = ("word", "epsilon", "order", "torelli", "degree0_trivial", "depth", "trace",
                     "det_lemma_ok", "trivial_projection")
        for _, word in catalog:
            plain, mixed = analyze(rep6, word, eps), analyze(mixed_rep, word, eps)
            assert [getattr(mixed, k) for k in invariant] == [getattr(plain, k) for k in invariant]
            assert mixed.delta == p0 * plain.delta * p0_inv
        x, y = parse_word("(c1 c2)^6"), parse_word("(c2 c3)^6")
        for check in (check_bracket, check_delta_additivity):
            plain, mixed = check(rep6, x, y, eps), check(mixed_rep, x, y, eps)
            assert (mixed.holds, mixed.deeper, mixed.depth) == (plain.holds, plain.deeper, plain.depth)
        assert check_equivariance(mixed_rep, parse_word("c3^-1"), y, eps) is \
            check_equivariance(rep6, parse_word("c3^-1"), y, eps) is True


# the truncated product: entries are tuples of t^0 .. t^order integer
# coefficients, columns hold only their nonzero entries
def truncated_entries(order):
    return st.tuples(*[st.integers(-10**12, 10**12)] * (order + 1))


@st.composite
def truncated_operands(draw, order, dim=5):
    entry = truncated_entries(order)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    columns = tuple(
        tuple(sorted(draw(st.dictionaries(st.integers(0, dim - 1), entry, max_size=dim)).items()))
        for _ in range(dim)
    )
    return rows, columns


def naive_truncated_step(rows, columns):
    """Full polynomial products summed, then cut after t^order."""
    n = len(rows[0][0])
    out = []
    for row in rows:
        new = []
        for column in columns:
            full = [0] * (2 * n - 1)
            for k, b in column:
                for i, a in enumerate(row[k]):
                    for j, c in enumerate(b):
                        full[i + j] += a * c
            new.append(tuple(full[:n]))
        out.append(new)
    return out


class TestTruncatedEvaluation:
    @settings(deadline=None, max_examples=60)
    @given(truncated_operands(2))
    def test_unrolled_order_two_matches_the_generic_step(self, operands):
        rows, columns = operands
        assert words._truncated_step2(rows, columns) == words._truncated_step(rows, columns)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 6).flatmap(truncated_operands))
    def test_generic_step_matches_full_products_cut(self, operands):
        rows, columns = operands
        assert words._truncated_step(rows, columns) == naive_truncated_step(rows, columns)

    @pytest.mark.parametrize("order", [2, 3])
    def test_empty_word_is_the_identity(self, order):
        rows = words.evaluate_truncated(MCGWord.identity(), {}, 5, order)
        one, zero = (1,) + (0,) * order, (0,) * (order + 1)
        assert rows == [[one if i == j else zero for j in range(5)] for i in range(5)]
