"""h-adic expansion: depth, leading matrices, and the structure checks.

The frozen leading matrices below were computed once and pinned; they
are additionally re-derived inside the test through the h-derivative of
the exact Laurent matrix, which never touches the series ring:

    entry(u) = sum c_e u^e  =>  d/dh at 0 of entry(eps e^h) = sum e c_e eps^e

so depth-1 leading matrices have a closed form independent of the
machinery under test.
"""

import json
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from g2jones import (
    DEFAULT_ORDER,
    LaurentPoly,
    MCGWord,
    RepDefinition,
    TruncSeries,
    analyze,
    build_rep,
    check_bracket,
    check_delta_additivity,
    check_equivariance,
    degree0_matrix,
    determinant_by_permutations,
    evaluate_word,
    exp_series,
    laurent_to_series,
    matrix_determinant,
    matrix_inverse,
    matrix_trace,
    parse_word,
    rep_to_document,
    series_matrix_valuation,
    verify_det_lemma,
    word_series,
)
from g2jones.errors import (
    Degree0NontrivialError,
    DepthMismatchError,
    NotTorelliError,
    NotUnipotentError,
    ValuationExceedsOrderError,
)
from g2jones import filtration, matrices
from g2jones.filtration import (
    LeadingTermCheck,
    _coefficients,
    _det_identity_holds,
    _laurent_image,
    _t_image,
    _truncated_determinant,
)
from g2jones.words import evaluate_truncated
from g2jones.matrices import SquareMatrix

X12 = parse_word("(c1 c2)^6")
X23 = parse_word("(c2 c3)^6")
X34 = parse_word("(c3 c4)^6")
X45 = parse_word("(c4 c5)^6")

DELTA1_X12_PLUS = SquareMatrix.from_rows([
    [12, 0, 0, 0, -40],
    [0, 12, 0, 0, -20],
    [0, 0, 12, 0, -20],
    [0, 0, 0, 12, -40],
    [0, 0, 0, 0, -48],
])

DELTA1_X12_MINUS = SquareMatrix.from_rows([
    [12, 0, 0, 0, 40],
    [0, 12, 0, 0, -20],
    [0, 0, 12, 0, -20],
    [0, 0, 0, 12, 40],
    [0, 0, 0, 0, -48],
])

DELTA2_COMM_PLUS = SquareMatrix.from_rows([
    [0, 800, 0, 0, -800],
    [0, 400, 0, 0, -1200],
    [0, 400, 0, 0, -400],
    [0, 800, 0, 0, -800],
    [0, 1200, 0, 0, -400],
])

CATALOG_DEPTHS = [1] * 15 + [2] * 3 + [3] * 2


def derivative_delta(rep, word, eps):
    """Depth-1 leading matrix straight from the Laurent entries."""
    laurent = evaluate_word(word, rep.generators)

    def diff(p):
        if not isinstance(p, LaurentPoly):
            return Fraction(0)
        return Fraction(sum(
            e * c * (1 if (eps == 1 or e % 2 == 0) else -1) for e, c in p.items()
        ))

    return laurent.map_entries(diff)


class TestAnalyze:
    @pytest.mark.parametrize(
        "eps,frozen", [(1, DELTA1_X12_PLUS), (-1, DELTA1_X12_MINUS)]
    )
    def test_frozen_leading_matrix(self, rep6, eps, frozen):
        report = analyze(rep6, X12, eps)
        assert report.depth == 1
        assert report.delta == frozen
        assert all(type(x) is int for row in report.delta.entries for x in row)
        assert report.trace == 0
        assert report.trivial_projection == 0
        assert report.det_lemma_ok
        assert report.torelli and report.degree0_trivial
        assert report.order == DEFAULT_ORDER

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("word", [X12, X23, X34, X45])
    def test_depth_one_leads_match_the_derivative_formula(self, rep6, word, eps):
        report = analyze(rep6, word, eps)
        assert report.depth == 1
        assert report.delta == derivative_delta(rep6, word, eps)

    def test_frozen_depth_two_commutator(self, rep6):
        report = analyze(rep6, X12.commutator(X23), 1)
        assert report.depth == 2
        assert report.delta == DELTA2_COMM_PLUS
        assert report.trace == 0

    def test_catalog_depths(self, rep6, catalog):
        assert len(catalog) == 20
        for (_, word), expected in zip(catalog, CATALOG_DEPTHS):
            assert analyze(rep6, word, 1).depth == expected

    def test_depth_three_nested_commutator(self, rep6):
        word = parse_word("[[(c1 c2)^6, (c2 c3)^6], (c3 c4)^6]")
        for eps in (1, -1):
            report = analyze(rep6, word, eps)
            assert report.depth == 3
            assert report.trace == 0

    def test_not_torelli(self, rep6):
        with pytest.raises(NotTorelliError):
            analyze(rep6, parse_word("c1"), 1)
        with pytest.raises(NotTorelliError):
            analyze(rep6, parse_word("c1 c2^-1"), 1)

    def test_group_identities_exceed_any_order(self, rep6):
        # words that are trivial in the group expand to I exactly
        for text in ("(c1 c2 c3 c4 c5)^6", "c1 c2 c1 c2^-1 c1^-1 c2^-1",
                     "[(c1 c2)^6, (c4 c5)^6]"):
            with pytest.raises(ValuationExceedsOrderError) as info:
                analyze(rep6, parse_word(text), 1, order=6)
            assert info.value.order == 6
        with pytest.raises(ValuationExceedsOrderError):
            analyze(rep6, MCGWord.identity(), 1)

    def test_a_huge_order_on_a_trivial_word_ends_at_once(self, rep6):
        with pytest.raises(ValuationExceedsOrderError) as info:
            analyze(rep6, parse_word("(c1 c2 c3 c4 c5)^6"), -1, order=10 ** 9)
        assert info.value.order == 10 ** 9

    def test_degree_zero_obstruction(self, rep6):
        # flip the sign of c1 only: the braid relator stays symplectically
        # trivial but now has constant term -I
        gens = (-rep6.generators[0],) + rep6.generators[1:]
        broken = RepDefinition(dim=5, generators=gens, normalization=None,
                               provenance="constructed")
        relator = parse_word("c1 c2 c1 c2^-1 c1^-1 c2^-1")
        with pytest.raises(Degree0NontrivialError):
            analyze(broken, relator, 1)

    def test_order_validation(self, rep6):
        with pytest.raises(ValueError):
            analyze(rep6, X12, 1, order=1)
        with pytest.raises(ValueError):
            analyze(rep6, X12, 2)

    def test_report_document_shape(self, rep6):
        report = analyze(rep6, X12, -1, order=4)
        doc = report.to_document()
        assert doc["word"] == str(X12)  # canonical reduced spelling
        assert doc["epsilon"] == -1
        assert doc["depth"] == 1
        assert doc["delta"][0][4] == "40"
        assert doc["trace"] == "0"
        assert doc["normalization"] == {"eta": 1, "a": -4, "m": 5}
        json.dumps(doc)  # must be serializable as-is

    def test_determinism(self, rep6):
        a = analyze(rep6, X12.commutator(X23), -1)
        b = analyze(rep6, X12.commutator(X23), -1)
        assert a == b
        assert json.dumps(a.to_document()) == json.dumps(b.to_document())


class TestSeriesRoute:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_word_series_matches_generator_substitution(self, rep6, eps):
        # substitute first, then multiply in the series ring; an inverse
        # letter reads the substituted Laurent inverse
        order = 6
        one = SquareMatrix.identity(5).map_entries(lambda x: TruncSeries.constant(x, order))
        letter = {}
        for i, g in enumerate(rep6.generators, start=1):
            up, down = (m.map_entries(lambda p: laurent_to_series(p, eps, order))
                        for m in (g, matrix_inverse(g)))
            assert up * down == one
            letter[i], letter[-i] = up, down
        for word in (parse_word("c1 c2"), parse_word("c3^2 c5^-1"),
                     parse_word("c2 c4^-2 c1")):
            direct = one
            for gen, exp in word.letters:
                direct = direct * letter[gen if exp > 0 else -gen] ** abs(exp)
            assert word_series(rep6, word, eps, order) == direct

    @pytest.mark.parametrize("eps", [1, -1])
    def test_series_determinant_is_one_on_torelli_words(self, rep6, eps):
        for word in (X12, X23, X12 * X34):
            det = matrix_determinant(word_series(rep6, word, eps, 8))
            assert det.coefficient(0) == 1
            assert all(det.coefficient(j) == 0 for j in range(1, 9))

    @pytest.mark.parametrize("eps", [1, -1])
    def test_degree0_images_are_involutions(self, rep6, eps):
        for i in range(1, 6):
            g0 = degree0_matrix(rep6, MCGWord.generator(i), eps)
            assert g0 != SquareMatrix.identity(5)
            assert g0 * g0 == SquareMatrix.identity(5)


class TestDetLemma:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_sample_words(self, rep6, eps):
        for word in (X12, X23.inverse(), X12 * X23, X12.commutator(X23)):
            assert verify_det_lemma(rep6, word, eps)

    def test_low_order_still_works(self, rep6):
        assert verify_det_lemma(rep6, X12, 1, order=2)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_identity_fails_on_a_wrong_leading_trace(self, rep6, eps):
        # the determinant reads the image's own moments, so a leading
        # matrix whose trace disagrees with them is caught
        image = evaluate_word(X12, rep6.generators)
        report = analyze(rep6, X12, eps)
        assert _det_identity_holds(image, eps, report.depth, report.delta)
        shifted = report.delta + SquareMatrix.identity(5)
        assert not _det_identity_holds(image, eps, report.depth, shifted)


class TestStructure:
    def test_additivity_on_equal_depth_pairs(self, rep6):
        pairs = [(X12, X23), (X12, X34), (X23, X45), (X12, X12), (X34, X45)]
        for eps in (1, -1):
            for x, y in pairs:
                check = check_delta_additivity(rep6, x, y, eps)
                assert check.holds and not check.deeper
                assert check.depth == 1

    def test_inverse_cancellation_goes_deeper(self, rep6):
        check = check_delta_additivity(rep6, X12, X12.inverse(), 1)
        assert check.holds and check.deeper
        assert check.expected == SquareMatrix.zero(5)

    def test_depth_mismatch_raises(self, rep6):
        with pytest.raises(DepthMismatchError):
            check_delta_additivity(rep6, X12, X12.commutator(X23), 1)

    def test_inverse_negates_the_lead(self, rep6):
        for eps in (1, -1):
            for x in (X12, X34, X12 * X23):
                base = analyze(rep6, x, eps)
                inv = analyze(rep6, x.inverse(), eps)
                assert inv.depth == base.depth
                assert inv.delta == -base.delta

    def test_powers_scale_the_lead(self, rep6):
        base = analyze(rep6, X23, 1)
        for n in (2, 3, -2):
            rep = analyze(rep6, X23 ** n, 1)
            assert rep.depth == 1
            assert rep.delta == n * base.delta

    def test_equivariance(self, rep6):
        conjugators = [parse_word(t) for t in ("c3", "c1^2", "c2 c4", "c5^-1", "c1 c2 c3")]
        for eps in (1, -1):
            for g in conjugators:
                assert check_equivariance(rep6, g, X12, eps)
        assert check_equivariance(rep6, MCGWord.identity(), X23, 1)

    def test_bracket_matches_matrix_commutator(self, rep6):
        for eps in (1, -1):
            check = check_bracket(rep6, X12, X23, eps)
            assert check.holds and not check.deeper
            assert check.depth == 2
            if eps == 1:
                assert check.actual == DELTA2_COMM_PLUS

    def test_bracket_antisymmetry(self, rep6):
        fwd = check_bracket(rep6, X23, X34, 1)
        rev = check_bracket(rep6, X34, X23, 1)
        assert fwd.holds and rev.holds
        assert fwd.expected == -rev.expected

    def test_disjoint_supports_commute(self, rep6):
        check = check_bracket(rep6, X12, X45, 1)
        assert check.holds and check.deeper
        assert check.expected == SquareMatrix.zero(5)

    def test_nested_bracket_reaches_depth_three(self, rep6):
        check = check_bracket(rep6, X12.commutator(X23), X34, 1)
        assert check.holds
        assert check.depth == 3

    def test_bracket_beyond_order(self, rep6):
        with pytest.raises(ValuationExceedsOrderError):
            check_bracket(rep6, X12.commutator(X23), X34, 1, order=2)

    def test_both_checks_share_one_result_type(self, rep6):
        additivity = check_delta_additivity(rep6, X12, X23, 1)
        bracket = check_bracket(rep6, X12, X23, 1)
        assert type(additivity) is type(bracket) is LeadingTermCheck
        assert bool(additivity) and bool(bracket)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_degree0_matrix_is_the_laurent_image_at_the_sign(self, rep6, eps):
        # the earlier route: evaluate over Z[u, u^-1], then set u = eps
        for text in ("c1", "c3^-1", "c1 c2^-2 c5", "(c2 c3)^6", "[c1, c4^-1]"):
            word = parse_word(text)
            laurent = evaluate_word(word, rep6.generators)
            at_sign = laurent.map_entries(
                lambda p: p.evaluate_at_sign(eps) if isinstance(p, LaurentPoly) else p
            )
            assert degree0_matrix(rep6, word, eps) == at_sign


# ------------------------------------------------------------------
# The reports read the expansion in t = e^h - 1 as integer binomial
# sums of the Laurent image, up to the depth.  The series route below
# (substitute u = eps * e^h at order 12, then take the valuation) is the
# reference.

ORACLE_ORDER = 12


def _series_coefficient(series, t):
    dim = series.dim
    return SquareMatrix(tuple(
        tuple(series.entry(i, j).coefficient(t) for j in range(dim)) for i in range(dim)
    ))


def series_analysis(rep, word, eps):
    """(depth, lead, det identity holds) by the series route."""
    series = word_series(rep, word, eps, ORACLE_ORDER)
    depth, lead = series_matrix_valuation(series)
    expected = [1] + [0] * (depth - 1) + [matrix_trace(lead)]
    det = determinant_by_permutations(series).truncate(depth)
    return depth, lead, det == TruncSeries(depth, expected)


def series_coefficient_at(rep, word, eps, k):
    """Whether the series is I + O(h^k), and its h^k coefficient."""
    series = word_series(rep, word, eps, ORACLE_ORDER)
    dim = series.dim
    below = _series_coefficient(series, 0) == SquareMatrix.identity(dim) and all(
        _series_coefficient(series, t) == SquareMatrix.zero(dim) for t in range(1, k)
    )
    return below, _series_coefficient(series, k)


def _sixth_power(i):
    return (MCGWord.generator(i) * MCGWord.generator(i + 1)) ** 6


short_words = st.lists(
    st.tuples(st.integers(1, 5), st.sampled_from((-2, -1, 1, 2))), max_size=4,
).map(lambda letters: MCGWord(tuple(letters)))
conjugates = st.builds(
    lambda g, i: g * _sixth_power(i) * g.inverse(), short_words, st.integers(1, 4)
)
commutators = st.builds(lambda x, y: x.commutator(y), conjugates, conjugates)
signs = st.sampled_from((1, -1))


def assert_analysis_matches_series(rep, word, eps):
    try:
        expected = series_analysis(rep, word, eps)
    except ValuationExceedsOrderError:
        with pytest.raises(ValuationExceedsOrderError):
            analyze(rep, word, eps, ORACLE_ORDER)
        return
    report = analyze(rep, word, eps, ORACLE_ORDER)
    assert (report.depth, report.delta, report.det_lemma_ok) == expected
    assert report.order == ORACLE_ORDER


class TestMomentsAgainstSeries:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_catalog(self, rep6, catalog, eps):
        for _, word in catalog:
            assert_analysis_matches_series(rep6, word, eps)

    @settings(deadline=None, max_examples=25)
    @given(word=st.one_of(conjugates, commutators), eps=signs)
    def test_generated_torelli_words(self, rep6, word, eps):
        assert_analysis_matches_series(rep6, word, eps)

    @settings(deadline=None, max_examples=20)
    @given(x=conjugates, y=st.one_of(conjugates, commutators), eps=signs)
    def test_additivity(self, rep6, x, y, eps):
        try:
            dx, lx, _ = series_analysis(rep6, x, eps)
            dy, ly, _ = series_analysis(rep6, y, eps)
        except ValuationExceedsOrderError:
            return
        if dx != dy:
            with pytest.raises(DepthMismatchError):
                check_delta_additivity(rep6, x, y, eps, ORACLE_ORDER)
            return
        below, actual = series_coefficient_at(rep6, x * y, eps, dx)
        check = check_delta_additivity(rep6, x, y, eps, ORACLE_ORDER)
        assert check.actual == actual
        assert check.expected == lx + ly
        assert check.holds == (below and actual == lx + ly)
        assert check.holds

    @settings(deadline=None, max_examples=20)
    @given(x=conjugates, y=conjugates, eps=signs)
    def test_bracket(self, rep6, x, y, eps):
        dx, lx, _ = series_analysis(rep6, x, eps)
        dy, ly, _ = series_analysis(rep6, y, eps)
        below, actual = series_coefficient_at(rep6, x.commutator(y), eps, dx + dy)
        check = check_bracket(rep6, x, y, eps, ORACLE_ORDER)
        assert check.actual == actual
        assert check.expected == lx * ly - ly * lx
        assert check.holds == (below and actual == check.expected)
        assert check.holds

    def test_verify_det_lemma_rejects_nonunipotent_images(self, rep6):
        gens = (-rep6.generators[0],) + rep6.generators[1:]
        broken = RepDefinition(dim=5, generators=gens, normalization=None,
                               provenance="constructed")
        with pytest.raises(NotUnipotentError):
            verify_det_lemma(broken, parse_word("c1 c2 c1 c2^-1 c1^-1 c2^-1"), 1)


class TestErrorMessages:
    def test_not_torelli_quotes_a_shortened_word(self, rep6):
        word = parse_word("(c1 c2)^301")
        with pytest.raises(NotTorelliError) as info:
            analyze(rep6, word, 1)
        message = str(info.value)
        assert "(602 letters)" in message
        assert len(message) < 120

    def test_degree0_error_quotes_a_shortened_word(self, rep6):
        gens = (-rep6.generators[0],) + rep6.generators[1:]
        broken = RepDefinition(dim=5, generators=gens, normalization=None,
                               provenance="constructed")
        relator = parse_word("c1 c2 c1 c2^-1 c1^-1 c2^-1")
        with pytest.raises(Degree0NontrivialError) as info:
            analyze(broken, relator ** 51, 1)
        assert "(306 letters)" in str(info.value)
        assert len(str(info.value)) < 160


# ------------------------------------------------------------------
# Reports multiply each word out over Z[t]/(t^(K+1)), once per K at +1,
# kept in a memo keyed on the word, the evaluator, the sign and K; the
# packaged rep's image at -1 is read off the one at +1 (TestSignTwist).
# Words trivial through t^MAX_T_ORDER read a Laurent image instead, kept
# in a memo keyed on the word and the rep's evaluator and shared by both
# signs.  A fresh evaluate_word is the reference.

def _broken_rep(rep):
    """rep with c1 negated: other generators, so other images."""
    gens = (-rep.generators[0],) + rep.generators[1:]
    return RepDefinition(dim=5, generators=gens, normalization=None, provenance="constructed")


def _count_evaluations(monkeypatch, rep):
    """Record the words filtration evaluates in rep's Laurent generators."""
    calls = []
    evaluate = rep.evaluator.evaluate

    def counting(word):
        calls.append(word)
        return evaluate(word)

    monkeypatch.setattr(rep.evaluator, "evaluate", counting)
    _laurent_image.cache_clear()
    return calls


def _count_t_evaluations(monkeypatch, rep):
    """Record (word, sign, K) for each word filtration multiplies out in t over rep.

    Also returns the (sign, K) of every letter table filtration asks for
    over rep, so a test can tell that the minus sign never builds one.
    """
    calls, tables, signs = [], [], {}
    letters = rep.evaluator.t_letters

    def counting_letters(eps, order):
        columns = letters(eps, order)
        tables.append((eps, order))
        signs[id(columns)] = eps
        return columns

    def counting(word, columns, dim, order):
        if id(columns) in signs:
            calls.append((word, signs[id(columns)], order))
        return evaluate_truncated(word, columns, dim, order)

    monkeypatch.setattr(rep.evaluator, "t_letters", counting_letters)
    monkeypatch.setattr(filtration, "evaluate_truncated", counting)
    _t_image.cache_clear()
    return calls, tables


def assert_memo_matches_fresh(rep, word):
    _laurent_image.cache_clear()
    first = _laurent_image(word, rep.evaluator)
    again = _laurent_image(word, rep.evaluator)
    assert again is first
    assert first == evaluate_word(word, rep.generators)


class TestLaurentImageMemo:
    def test_bound(self):
        assert _laurent_image.cache_info().maxsize == 4

    def test_catalog(self, rep6, catalog):
        for _, word in catalog:
            assert_memo_matches_fresh(rep6, word)

    @settings(max_examples=25)
    @given(word=st.one_of(conjugates, commutators))
    def test_generated_torelli_words(self, rep6, word):
        assert_memo_matches_fresh(rep6, word)

    def test_each_representation_gets_its_own_image(self, rep6):
        broken = _broken_rep(rep6)
        relator = parse_word("c1 c2 c1 c2^-1 c1^-1 c2^-1")
        _laurent_image.cache_clear()
        for word in (parse_word("c1 c2"), relator, X12):
            ours = _laurent_image(word, rep6.evaluator)
            theirs = _laurent_image(word, broken.evaluator)
            assert ours == evaluate_word(word, rep6.generators)
            assert theirs == evaluate_word(word, broken.generators)
        assert _laurent_image(parse_word("c1 c2"), rep6.evaluator) != _laurent_image(
            parse_word("c1 c2"), broken.evaluator)
        # the relator is the identity for rep6 and not even degree-0
        # trivial for the broken rep, whichever is analyzed first
        for first, second in ((rep6, broken), (broken, rep6)):
            _laurent_image.cache_clear()
            for rep in (first, second):
                expected = ValuationExceedsOrderError if rep is rep6 else Degree0NontrivialError
                with pytest.raises(expected):
                    analyze(rep, relator, 1)

    def test_one_t_evaluation_per_sign(self, rep6, monkeypatch):
        # the packaged rep has a sign twist: the minus image is read off
        # the plus one, so one evaluation at +1 serves both signs
        laurent = _count_evaluations(monkeypatch, rep6)
        calls, tables = _count_t_evaluations(monkeypatch, rep6)
        word = X12.commutator(X23)
        plus = analyze(rep6, word, 1)
        minus = analyze(rep6, parse_word(str(word)), -1)
        assert (plus.depth, minus.depth) == (2, 2)
        assert verify_det_lemma(rep6, word, -1)
        # depth 2 settles at K = 2; the determinant check reads the same image
        assert calls == [(word, 1, 2)]
        assert {eps for eps, _ in tables} == {1}
        # the minus sign alone evaluates at +1 too
        _t_image.cache_clear()
        assert analyze(rep6, word, -1) == minus
        assert calls == [(word, 1, 2)] * 2
        assert {eps for eps, _ in tables} == {1}
        assert laurent == []

    @pytest.mark.parametrize("check,words", [
        (lambda rep, eps: check_delta_additivity(rep, X12, X23, eps).holds,
         (X12, X23, X12 * X23)),
        (lambda rep, eps: check_bracket(rep, X12, X23, eps).holds,
         (X12, X23, X12.commutator(X23))),
        (lambda rep, eps: check_equivariance(rep, parse_word("c3"), X23, eps),
         (X23, parse_word("c3") * X23 * parse_word("c3^-1"))),
    ], ids=["additivity", "bracket", "equivariance"])
    def test_calculus_checks_evaluate_each_image_once(self, rep6, monkeypatch, check, words):
        laurent = _count_evaluations(monkeypatch, rep6)
        calls, tables = _count_t_evaluations(monkeypatch, rep6)
        assert check(rep6, 1) and check(rep6, -1)
        # x, y and x*y or [x, y]; for equivariance x and g x g^-1: each
        # once, at +1 and K = 2, and the minus sign reads them
        assert calls == [(w, 1, 2) for w in words]
        # running the check again reuses the images of both signs
        assert check(rep6, -1) and check(rep6, 1)
        assert len(calls) == len(words)
        assert {eps for eps, _ in tables} == {1}
        assert laurent == []


def test_a_warm_repeat_hashes_no_matrix(rep6, monkeypatch):
    # the memos are keyed on words and on the rep's evaluator, hashed by
    # identity, never on the generator matrices
    def run():
        for eps in (1, -1):
            analyze(rep6, X12, eps)
            check_delta_additivity(rep6, X12, X23, eps)
            check_bracket(rep6, X12, X23, eps)
            check_equivariance(rep6, parse_word("c3"), X23, eps)

    run()
    hashed = []
    matrix_hash = SquareMatrix.__hash__

    def counting(matrix):
        hashed.append(matrix)
        return matrix_hash(matrix)

    monkeypatch.setattr(SquareMatrix, "__hash__", counting)
    run()
    assert hashed == []


def test_equal_reps_get_separate_evaluators_and_identical_reports(rep6, catalog):
    twin = build_rep(1, -4, 5)
    assert twin == rep6 and hash(twin) == hash(rep6)
    assert twin.evaluator is not rep6.evaluator
    assert all(twin.degree0_evaluators[eps] is not rep6.degree0_evaluators[eps]
               for eps in (1, -1))
    for eps in (1, -1):
        for _, word in catalog:
            assert analyze(twin, word, eps) == analyze(rep6, word, eps)
        assert check_equivariance(twin, parse_word("c3"), X23, eps)
    assert rep_to_document(twin) == rep_to_document(rep6)


# ------------------------------------------------------------------
# The t^j coefficients are integer binomial sums, and the determinant
# identity runs on their t^0 .. t^depth coefficient tuples.  The
# references expand each term in the series ring instead: (1 + t)^e by
# repeated multiplication, with (1 + t)^-1 written out as 1 - t + t^2 -
# ..., and the determinant of the laurent_to_series images at order depth.

def t_series(poly, eps, order):
    """poly at u = eps * (1 + t), as a series in t through t^order."""
    up = TruncSeries(order, (eps, eps))
    down = TruncSeries(order, [eps * (-1) ** j for j in range(order + 1)])
    total = TruncSeries.zero(order)
    for e, c in (poly.items() if isinstance(poly, LaurentPoly) else ((0, poly),)):
        total = total + c * (up ** e if e >= 0 else down ** -e)
    return total


def substitute_t(coefficients, order):
    """A polynomial in t, given by its coefficient tuple, at t = e^h - 1, through h^order."""
    t = exp_series(1, order) - 1
    total = TruncSeries.zero(order)
    for j, c in enumerate(coefficients):
        total = total + c * t ** j
    return total


def series_determinant(image, eps, depth):
    return determinant_by_permutations(
        image.map_entries(lambda p: laurent_to_series(p, eps, depth)))


def series_det_identity_holds(image, eps, depth, lead):
    expected = TruncSeries(depth, [1] + [0] * (depth - 1) + [matrix_trace(lead)])
    return series_determinant(image, eps, depth) == expected


def assert_truncated_determinant_matches_series(image, eps, depth):
    assert substitute_t(_truncated_determinant(image, eps, depth), depth) == \
        series_determinant(image, eps, depth)


def assert_integer_determinant_matches_series(rep, word, eps):
    try:
        report = analyze(rep, word, eps, ORACLE_ORDER)
    except ValuationExceedsOrderError:
        return
    image = evaluate_word(word, rep.generators)
    depth = report.depth
    assert_truncated_determinant_matches_series(image, eps, depth)
    for lead in (report.delta, report.delta + SquareMatrix.identity(5),
                 report.delta.map_entries(lambda x: -x)):
        assert _det_identity_holds(image, eps, depth, lead) == series_det_identity_holds(
            image, eps, depth, lead)
    assert report.det_lemma_ok


class TestIntegerDeterminantAgainstSeries:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_catalog(self, rep6, catalog, eps):
        for _, word in catalog:
            assert_integer_determinant_matches_series(rep6, word, eps)

    @settings(max_examples=25)
    @given(word=st.one_of(conjugates, commutators), eps=signs)
    def test_generated_torelli_words(self, rep6, word, eps):
        assert_integer_determinant_matches_series(rep6, word, eps)

    @settings(max_examples=30)
    @given(word=st.one_of(short_words, conjugates), eps=signs)
    def test_coefficients_match_the_binomial_series(self, rep6, word, eps):
        image = evaluate_word(word, rep6.generators)
        series = image.map_entries(lambda p: t_series(p, eps, 4))
        for j, coefficient in enumerate(islice(_coefficients(image, eps), 5)):
            assert coefficient == _series_coefficient(series, j)
            assert all(type(x) is int for row in coefficient.entries for x in row)

    # every Torelli image has leading trace 0, so words alone never test
    # the t^k coefficient of the identity; any Laurent matrix does, since
    # the substitution t = e^h - 1 commutes with the determinant
    @settings(max_examples=30)
    @given(word=short_words, eps=signs, depth=st.integers(1, 4))
    def test_any_image_at_any_depth(self, rep6, word, eps, depth):
        image = evaluate_word(word, rep6.generators)
        assert_truncated_determinant_matches_series(image, eps, depth)

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_a_nonzero_leading_trace(self, eps, depth):
        # 1 + v^depth with v = eps * (u - eps) = e^h - 1 = t is 1 + t^depth,
        # put in a corner and conjugated by a unimodular matrix: leading
        # matrix of trace 1 at the given depth
        v = LaurentPoly({1: eps, 0: -1})
        corner = SquareMatrix(tuple(
            tuple((1 + v ** depth if i == 0 else 1) if i == j else 0 for j in range(5))
            for i in range(5)
        ))
        shift = SquareMatrix.from_rows([[int(j == i + 1) * (i + 2) for j in range(5)]
                                        for i in range(5)])
        p = SquareMatrix.identity(5) + shift
        p_inv = SquareMatrix.identity(5) - shift + shift * shift - shift * shift * shift \
            + shift * shift * shift * shift
        assert p * p_inv == SquareMatrix.identity(5)
        image = p * corner * p_inv
        found, lead = filtration._leading_term(image, eps, ORACLE_ORDER, X12)
        assert (found, matrix_trace(lead)) == (depth, 1)
        assert series_det_identity_holds(image, eps, depth, lead)
        assert _det_identity_holds(image, eps, depth, lead)
        assert _truncated_determinant(image, eps, depth)[depth] == 1
        for wrong in (SquareMatrix.zero(5), lead * 2, lead - SquareMatrix.identity(5)):
            assert not series_det_identity_holds(image, eps, depth, wrong)
            assert not _det_identity_holds(image, eps, depth, wrong)


# ------------------------------------------------------------------
# The determinant identity's permutation sum on coefficient tuples, cut
# after t^depth and pruned at the first zero partial product, against
# two references: the same t^0 .. t^depth coefficients as LaurentPoly
# entries used as Z[t] with every power kept, and the series route at
# order depth, each entry's polynomial in t substituted at t = e^h - 1.

def laurent_truncated_determinant(image, eps, depth):
    """det of the image's t^0 .. t^depth coefficients as LaurentPoly entries used as Z[t]."""
    coeffs = list(islice(_coefficients(image, eps), depth + 1))
    dim = coeffs[0].dim
    return determinant_by_permutations(SquareMatrix(tuple(
        tuple(LaurentPoly({j: c.entry(a, b) for j, c in enumerate(coeffs)}) for b in range(dim))
        for a in range(dim)
    )))


def t_series_determinant(image, eps, depth):
    """det at order depth of the image's entries, each a polynomial in t at t = e^h - 1."""
    coeffs = list(islice(_coefficients(image, eps), depth + 1))
    dim = coeffs[0].dim
    return determinant_by_permutations(SquareMatrix(tuple(
        tuple(substitute_t([c.entry(a, b) for c in coeffs], depth) for b in range(dim))
        for a in range(dim)
    )))


def assert_tuple_determinant_matches_oracles(image, eps, depth):
    det = _truncated_determinant(image, eps, depth)
    assert len(det) == depth + 1 and all(type(x) is int for x in det)
    laurent = laurent_truncated_determinant(image, eps, depth)
    assert det == tuple(laurent.coefficient(j) for j in range(depth + 1))
    series = (t_series_determinant if isinstance(image, tuple) else series_determinant)(
        image, eps, depth)
    assert substitute_t(det, depth) == series
    return det


class TestTupleDeterminant:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_catalog(self, rep6, catalog, eps):
        # the t-image the reports read; TestTruncatedEvaluation holds it to the Laurent image
        for _, word in catalog:
            depth = analyze(rep6, word, eps).depth
            image = _t_image(word, rep6.evaluator, eps, max(depth, 2))
            det = assert_tuple_determinant_matches_oracles(image, eps, depth)
            assert det == (1,) + (0,) * depth  # Torelli leading matrices have trace 0

    @settings(max_examples=15)
    @given(word=st.one_of(conjugates, commutators), eps=signs)
    def test_generated_torelli_words(self, rep6, word, eps):
        try:
            depth = analyze(rep6, word, eps, ORACLE_ORDER).depth
        except ValuationExceedsOrderError:
            return
        assert_tuple_determinant_matches_oracles(
            evaluate_word(word, rep6.generators), eps, depth)

    @settings(max_examples=20)
    @given(word=short_words, eps=signs, depth=st.integers(1, 4))
    def test_laurent_images_of_short_words(self, rep6, word, eps, depth):
        assert_tuple_determinant_matches_oracles(
            evaluate_word(word, rep6.generators), eps, depth)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_dense_tuple_matrices(self, depth):
        # every t^0 entry is nonzero, so every partial product is nonzero
        # at t^0: no branch is pruned and all 120 permutations contribute
        rng = random.Random(1400 + depth)
        for _ in range(3):
            image = tuple(SquareMatrix.from_rows(
                [[rng.choice((-3, -2, -1, 1, 2, 3)) if j == 0 else rng.randint(-5, 5)
                  for _ in range(5)] for _ in range(5)]) for j in range(depth + 1))
            det = assert_tuple_determinant_matches_oracles(image, 1, depth)
            assert det[0] == matrix_determinant(image[0])

    @pytest.mark.parametrize("depth", [1, 2])
    def test_nonzero_factors_with_a_zero_product(self, depth):
        # I + t A + t^depth B, A nonzero in row 0 only below depth: entry
        # (0, j) has t-valuation 1 and entry (j, 0) valuation depth, so
        # every transposition's two factors are nonzero but multiply to
        # zero mod t^(depth + 1); only the diagonal term is left
        dense = SquareMatrix.from_rows([[i * j + 1 for j in range(5)] for i in range(5)])
        row0 = SquareMatrix.from_rows([[j + 2 for j in range(5)]] + [[0] * 5] * 4)
        image = (SquareMatrix.identity(5),) + (row0,) * (depth - 1) + (dense,)
        det = assert_tuple_determinant_matches_oracles(image, 1, depth)
        assert det == ((1, matrix_trace(dense)) if depth == 1 else (1, 2, matrix_trace(dense)))


class TestReportPathLeavesTheLaurentRing:
    def test_checks_run_without_laurent_products(self, rep6, catalog, monkeypatch):
        # catalog words reach depth <= 16 and are read over Z[t]/(t^(K+1));
        # a word trivial past t^16 takes the Laurent fallback instead
        words = [word for _, word in catalog]
        pairs = list(zip(words[:4], words[1:5]))  # depth 1 each, so additivity applies

        def run_checks():
            for eps in (1, -1):
                for word in words:
                    assert analyze(rep6, word, eps).det_lemma_ok
                    assert verify_det_lemma(rep6, word, eps)
                for x, y in pairs:
                    assert check_delta_additivity(rep6, x, y, eps)
                    assert check_bracket(rep6, x, y, eps)
                    assert check_equivariance(rep6, parse_word("c3 c1^-1"), x, eps)

        # letter powers are built once per evaluator, by Laurent products
        run_checks()
        filtration._t_image.cache_clear()
        filtration._laurent_image.cache_clear()

        def refuse(*args):
            raise AssertionError("Laurent ring arithmetic on the report path")

        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
        monkeypatch.setattr(matrices, "determinant_by_permutations", refuse)
        monkeypatch.setattr(filtration, "determinant_by_permutations", refuse, raising=False)
        with pytest.raises(AssertionError, match="report path"):
            LaurentPoly.variable() * LaurentPoly.variable()
        run_checks()


# ------------------------------------------------------------------
# The t-evaluator against the Laurent readout: multiplying a word out
# over Z[t]/(t^(K+1)) gives the t^0 .. t^K coefficient matrices that
# _coefficients reads off its Laurent image, at every K the doubling
# visits (up to DEFAULT_ORDER, or up to MAX_T_ORDER for larger orders).

T_ORDERS = (2, 4, 8, DEFAULT_ORDER, filtration.MAX_T_ORDER)
DEEP = parse_word("[[(c1 c2)^6, (c2 c3)^6], (c3 c4)^6]")
GROUP_TRIVIAL = parse_word("(c1 c2 c3 c4 c5)^6")


def assert_t_image_matches_laurent(rep, word, eps):
    laurent = evaluate_word(word, rep.generators)
    expected = tuple(islice(_coefficients(laurent, eps), max(T_ORDERS) + 1))
    for order in T_ORDERS:
        assert _t_image(word, rep.evaluator, eps, order) == expected[:order + 1]


class TestTruncatedEvaluation:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_catalog(self, rep6, catalog, eps):
        for _, word in catalog:
            assert_t_image_matches_laurent(rep6, word, eps)

    @settings(max_examples=25)
    @given(word=st.one_of(short_words, conjugates, commutators), eps=signs)
    def test_generated_words(self, rep6, word, eps):
        assert_t_image_matches_laurent(rep6, word, eps)

    @pytest.mark.parametrize("word,order,visits", [
        (X12, DEFAULT_ORDER, (2,)),
        (DEEP, DEFAULT_ORDER, (2, 4)),
        (DEEP, 3, (2, 3)),
        (GROUP_TRIVIAL, DEFAULT_ORDER, (2, 4, 8, 12)),
        (GROUP_TRIVIAL, 1_000_000_000, (2, 4, 8, 16)),
    ], ids=["depth1", "depth3", "depth3-order3", "trivial", "trivial-huge-order"])
    def test_the_orders_the_doubling_visits(self, rep6, monkeypatch, word, order, visits):
        laurent = _count_evaluations(monkeypatch, rep6)
        calls, tables = _count_t_evaluations(monkeypatch, rep6)
        try:
            analyze(rep6, word, -1, order)
        except ValuationExceedsOrderError as exc:
            assert str(exc) == str(ValuationExceedsOrderError(order))
        # the minus sign reads each K's image off the evaluation at +1
        assert calls == [(word, 1, k) for k in visits]
        assert tables == [(1, k) for k in visits]
        # only a word trivial through t^MAX_T_ORDER reads its Laurent image
        assert laurent == ([word] if order > filtration.MAX_T_ORDER else [])

    @pytest.mark.parametrize("eps", [1, -1])
    def test_laurent_fallback_gives_identical_reports(self, rep6, catalog, monkeypatch, eps):
        words = [word for _, word in catalog]
        expected = [analyze(rep6, word, eps).to_document() for word in words]
        nested = check_bracket(rep6, X12.commutator(X23), X34, eps)
        monkeypatch.setattr(filtration, "MAX_T_ORDER", 2)
        laurent = _count_evaluations(monkeypatch, rep6)
        _t_image.cache_clear()
        assert [analyze(rep6, word, eps).to_document() for word in words] == expected
        assert laurent == [word for word in words if word.letter_length() == 120]
        assert len(laurent) == CATALOG_DEPTHS.count(3)
        # a check deeper than the cap reads the Laurent image too
        laurent.clear()
        _laurent_image.cache_clear()
        assert check_bracket(rep6, X12.commutator(X23), X34, eps) == nested
        assert laurent == [X12.commutator(X23).commutator(X34)]


# ------------------------------------------------------------------
# The sign twist: each entry of a packaged generator has one parity in
# u, so w(-u) = parity^(exponent sum) * S w(u) S and the image at
# u = -(1 + t) is read off the one at 1 + t.  Multiplying the word out
# at eps = -1 (_evaluate_in_t) is the reference; a representation
# without the twist takes that route in the reports themselves.

TWIST_ORDERS = (2, 4, 8, filtration.MAX_T_ORDER)


def _scaled_rep(rep):
    """rep with every generator times u: the sign twist of parity -1."""
    u = LaurentPoly.variable()
    gens = tuple(g.map_entries(lambda p: u * p) for g in rep.generators)
    return RepDefinition(dim=5, generators=gens, normalization=None, provenance="constructed")


def _untwisted(monkeypatch, rep):
    """Make rep take the direct route at eps = -1: an evaluator whose twist is None."""
    monkeypatch.setattr(rep.evaluator, "twist", None)
    _t_image.cache_clear()


def assert_twisted_matches_direct(rep, word):
    for order in TWIST_ORDERS:
        assert _t_image(word, rep.evaluator, -1, order) == \
            filtration._evaluate_in_t(word, rep.evaluator, -1, order)


class TestSignTwist:
    def test_catalog(self, rep6, catalog):
        for _, word in catalog:
            assert_twisted_matches_direct(rep6, word)

    @settings(max_examples=30)
    @given(word=st.one_of(short_words, conjugates, commutators))
    def test_generated_words(self, rep6, word):
        assert_twisted_matches_direct(rep6, word)

    @settings(max_examples=20)
    @given(word=short_words)
    def test_parity_minus_one(self, rep6, word):
        assert_twisted_matches_direct(_scaled_rep(rep6), word)

    def test_parity_minus_one_gives_the_direct_error(self, rep6, monkeypatch):
        scaled = _scaled_rep(rep6)
        assert scaled.evaluator.twist[0] == -1
        words = [parse_word(text) for text in ("c1", "c2^-1 c3 c4", "(c1 c2)^6 c5", "c3^3")]
        assert all(word.exponent_sum() % 2 for word in words)

        def messages():
            found = []
            for word in words:
                with pytest.raises(Degree0NontrivialError) as info:
                    verify_det_lemma(scaled, word, -1)
                found.append(str(info.value))
            return found

        _t_image.cache_clear()
        twisted = messages()
        _untwisted(monkeypatch, scaled)
        assert messages() == twisted

    def test_mixed_parities_take_the_direct_route(self, mixed_rep, catalog, monkeypatch):
        mixed = mixed_rep
        assert mixed.evaluator.twist is None
        calls, tables = _count_t_evaluations(monkeypatch, mixed)
        words = [word for _, word in catalog][:6]
        for word in words:
            for eps in (1, -1):
                report = analyze(mixed, word, eps)
                image = evaluate_word(word, mixed.generators)
                depth, lead = filtration._leading_term(image, eps, DEFAULT_ORDER, word)
                assert (report.depth, report.delta) == (depth, lead)
                assert report.det_lemma_ok == _det_identity_holds(image, eps, depth, lead)
        assert calls == [(word, eps, 2) for word in words for eps in (1, -1)]
        assert {eps for eps, _ in tables} == {1, -1}

    def test_reports_match_the_untwisted_route(self, rep6, catalog, monkeypatch):
        eps = -1
        words = [word for _, word in catalog] + [DEEP]
        expected = [analyze(rep6, word, eps).to_document() for word in words]
        checks = [check_bracket(rep6, X12, X23, eps), check_delta_additivity(rep6, X12, X23, eps),
                  check_equivariance(rep6, parse_word("c3"), X23, eps)]
        _untwisted(monkeypatch, rep6)
        assert [analyze(rep6, word, eps).to_document() for word in words] == expected
        assert [check_bracket(rep6, X12, X23, eps), check_delta_additivity(rep6, X12, X23, eps),
                check_equivariance(rep6, parse_word("c3"), X23, eps)] == checks
