"""h-adic expansion: depth, leading matrices, and the structure checks.

The frozen leading matrices below were computed once and pinned; they
are additionally re-derived inside the test through the h-derivative of
the exact Laurent matrix, which never touches the series ring:

    entry(u) = sum c_e u^e  =>  d/dh at 0 of entry(eps e^h) = sum e c_e eps^e

so depth-1 leading matrices have a closed form independent of the
machinery under test.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2jones import (
    DEFAULT_ORDER,
    LaurentPoly,
    MCGWord,
    RepDefinition,
    TruncSeries,
    analyze,
    check_bracket,
    check_delta_additivity,
    check_equivariance,
    degree0_matrix,
    determinant_by_permutations,
    evaluate_word,
    laurent_to_series,
    matrix_determinant,
    matrix_trace,
    parse_word,
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
from g2jones.filtration import LeadingTermCheck, _det_identity_holds
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
]).map_entries(Fraction)

DELTA1_X12_MINUS = SquareMatrix.from_rows([
    [12, 0, 0, 0, 40],
    [0, 12, 0, 0, -20],
    [0, 0, 12, 0, -20],
    [0, 0, 0, 12, 40],
    [0, 0, 0, 0, -48],
]).map_entries(Fraction)

DELTA2_COMM_PLUS = SquareMatrix.from_rows([
    [0, 800, 0, 0, -800],
    [0, 400, 0, 0, -1200],
    [0, 400, 0, 0, -400],
    [0, 800, 0, 0, -800],
    [0, 1200, 0, 0, -400],
]).map_entries(Fraction)

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
        # substitute first, then multiply in the series ring
        order = 6
        series_gens = [
            g.map_entries(lambda p: laurent_to_series(p, eps, order))
            for g in rep6.generators
        ]
        for word in (parse_word("c1 c2"), parse_word("c3^2 c5^-1"),
                     parse_word("c2 c4^-2 c1")):
            direct = evaluate_word(word, series_gens)
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
# The reports read h-adic coefficients as integer moments of the
# Laurent image, up to the depth.  The series route below (substitute
# u = eps * e^h at order 12, then take the valuation) is the reference.

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
