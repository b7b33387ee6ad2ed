"""Relation checking against the genus-2 presentation."""

import pytest

from g2jones import LaurentPoly, SquareMatrix, build_rep, check_presentation, evaluate_word, presentation
from g2jones.errors import RelationFailureError
from g2jones.presentation import (
    COXETER_RELATIONS,
    RELATIONS,
    braid_relation_words,
    chain_word,
    hyperelliptic_word,
    require_relations,
)
from g2jones.symplectic import symplectic_generators


def test_braid_relation_words():
    lhs, rhs = braid_relation_words(2)
    assert str(lhs) == "c2 c3 c2"
    assert str(rhs) == "c3 c2 c3"


def test_chain_and_hyperelliptic_words_spelled_out():
    assert str(chain_word()) == "c1 c2 c3 c4 c5"
    # free reduction merges the doubled middle letter
    assert str(hyperelliptic_word()) == "c1 c2 c3 c4 c5^2 c4 c3 c2 c1"


def test_symplectic_generators_satisfy_presentation():
    report = check_presentation(symplectic_generators())
    assert report.passed
    assert len(report.checks) == 17
    assert report.first_failure() is None


@pytest.mark.parametrize("eta", [1, -1])
def test_jones_generators_satisfy_presentation(eta):
    # both signs work: every relator has the same exponent sum on each side
    report = check_presentation(build_rep(eta, -4, 5).generators)
    assert report.passed


def test_check_names_cover_all_relation_kinds(rep6):
    names = [c.name for c in check_presentation(rep6.generators).checks]
    assert sum("braid" in n for n in names) == 4
    assert sum("commute" in n for n in names) == 6
    assert sum("chain" in n for n in names) == 1
    assert sum("hyperelliptic" in n for n in names) == 1
    assert sum("central" in n for n in names) == 5


def test_scaled_generator_breaks_named_relations(rep6):
    u = LaurentPoly.variable()
    gens = list(rep6.generators)
    gens[0] = gens[0].map_entries(lambda p: p * u)
    report = check_presentation(tuple(gens))
    assert not report.passed
    failed = {c.name for c in report.failures()}
    # scaling c1 by u unbalances relators with uneven c1 counts on the
    # two sides; commutation survives because scalars commute
    assert "braid c1 c2" in failed
    assert "chain (c1 c2 c3 c4 c5)^6 = 1" in failed
    assert "hyperelliptic iota^2 = 1" in failed
    assert "commute c1 c3" not in failed
    first = report.first_failure()
    assert first is not None and first.difference is not None


def test_report_string_marks_each_check(rep6):
    text = str(check_presentation(rep6.generators))
    assert text.count("[ok]") == 17
    assert "FAIL" not in text


# the relation list of `g2jones validate --json`, after its determinant entry
RELATION_NAMES = [
    "braid c1 c2",
    "braid c2 c3",
    "braid c3 c4",
    "braid c4 c5",
    "commute c1 c3",
    "commute c1 c4",
    "commute c1 c5",
    "commute c2 c4",
    "commute c2 c5",
    "commute c3 c5",
    "chain (c1 c2 c3 c4 c5)^6 = 1",
    "hyperelliptic iota^2 = 1",
    "iota central: [iota, c1] = 1",
    "iota central: [iota, c2] = 1",
    "iota central: [iota, c3] = 1",
    "iota central: [iota, c4] = 1",
    "iota central: [iota, c5] = 1",
]


def test_report_names_are_the_table(rep6):
    names = [c.name for c in check_presentation(rep6.generators).checks]
    assert names == [name for name, _, _ in RELATIONS]
    assert names == RELATION_NAMES


def test_coxeter_relations_open_the_table():
    assert RELATIONS[:len(COXETER_RELATIONS)] == COXETER_RELATIONS
    assert [name for name, _, _ in COXETER_RELATIONS] == RELATION_NAMES[:10]


def test_equal_generators_whose_zeros_differ_in_type_share_the_report(rep6):
    ints = tuple(g.map_entries(lambda p: p if p else 0) for g in rep6.generators)
    assert ints == rep6.generators
    assert check_presentation(ints) is check_presentation(rep6.generators)


def test_require_relations_names_the_first_failure(rep6):
    require_relations(rep6.generators)
    u = LaurentPoly.variable()
    gens = (rep6.generators[0].map_entries(lambda p: p * u),) + rep6.generators[1:]
    with pytest.raises(RelationFailureError) as info:
        require_relations(gens)
    assert info.value.relation == check_presentation(gens).first_failure().name
    with pytest.raises(RelationFailureError) as info:
        require_relations(gens, suffix=" here")
    assert info.value.relation == "braid c1 c2 here"


def test_require_relations_on_the_coxeter_part_only(rep6):
    # commuting scalars pass every Coxeter relation but not the chain
    u = LaurentPoly.variable()
    gens = (rep6.generators[0].map_entries(lambda p: p * u),) * 5
    require_relations(gens, COXETER_RELATIONS)
    with pytest.raises(RelationFailureError) as info:
        require_relations(gens)
    assert info.value.relation == "chain (c1 c2 c3 c4 c5)^6 = 1"


def test_factored_sides_spell_their_words():
    for word, (left, right) in presentation._FACTORS.items():
        assert left * right == word


@pytest.mark.parametrize("which", ["jones", "scaled", "shear", "symplectic"])
def test_the_gate_images_equal_full_evaluation(rep6, shear_document, which):
    u = LaurentPoly.variable()
    gens = {
        "jones": rep6.generators,
        "scaled": (rep6.generators[0].map_entries(lambda p: p * u),) + rep6.generators[1:],
        "shear": rep_from_document_unchecked(shear_document),
        "symplectic": symplectic_generators(),
    }[which]
    images = list(presentation._evaluate_relations(gens, RELATIONS))
    assert [name for name, _, _ in images] == [name for name, _, _ in RELATIONS]
    for (_, lhs, rhs), (_, lhs_word, rhs_word) in zip(images, RELATIONS):
        assert (lhs, rhs) == (evaluate_word(lhs_word, gens), evaluate_word(rhs_word, gens))


def rep_from_document_unchecked(document):
    """The generator matrices of a document, without the loader's gate."""
    return tuple(
        SquareMatrix.from_rows([[LaurentPoly({e: int(c) for e, c in entry}) for entry in row]
                                for row in matrix])
        for matrix in document["generators"])
