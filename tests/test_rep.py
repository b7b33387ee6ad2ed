"""Building, validating, searching, and serializing the representation."""

import json

import pytest

from g2jones import (
    LaurentPoly,
    Normalization,
    build_rep,
    matrix_determinant,
    matrix_inverse,
    matrix_trace,
    rep_from_document,
    rep_to_document,
    search_valid_rep,
    solve_normalization,
    validate_representation,
)
from g2jones.errors import (
    DeterminantNotUnitSignError,
    NoSolutionError,
    RelationFailureError,
    SchemaError,
    SearchExhaustedError,
)
from g2jones.matrices import SquareMatrix
from g2jones.presentation import RELATIONS
from g2jones.rep import rep_determinant_sign

U = LaurentPoly.variable()


class TestNormalization:
    def test_exponent_balance_on_six_points(self):
        # 5 * a + 2 * 2 * m = 0 with the smallest admissible m
        assert solve_normalization(6) == (-4, 5)
        assert solve_normalization(4) == (-1, 1)

    def test_fixed_m(self):
        assert solve_normalization(6, m=10) == (-8, 10)
        with pytest.raises(NoSolutionError):
            solve_normalization(6, m=1)
        with pytest.raises(NoSolutionError):
            solve_normalization(6, m=3)

    def test_normalization_value_checks(self):
        with pytest.raises(ValueError):
            Normalization(2, -4, 5)
        with pytest.raises(ValueError):
            Normalization(1, -4, 0)


class TestBuild:
    def test_shape(self, rep6):
        assert rep6.dim == 5
        assert len(rep6.generators) == 5
        assert rep6.provenance == "constructed"
        assert rep6.normalization == Normalization(1, -4, 5)

    def test_corner_entry(self, rep6):
        # (1,1) entry of c1: u^-4 * (1 + u^5 * delta) = -u^6
        assert rep6.generators[0].entry(0, 0) == LaurentPoly({6: -1})

    def test_generator_trace(self, rep6):
        # trace of u^-4 (I + u^5 E): 5 u^-4 + u * (2 * delta)
        expected = LaurentPoly({-4: 3, 6: -2})
        for g in rep6.generators:
            assert matrix_trace(g) == expected

    def test_determinants(self, rep6):
        for g in rep6.generators:
            assert matrix_determinant(g) == 1
        assert rep_determinant_sign(rep6) == 1
        flipped = build_rep(-1, -4, 5)
        for g in flipped.generators:
            assert matrix_determinant(g) == -1
        assert rep_determinant_sign(flipped) == -1

    def test_unnormalized_determinant_is_a_power_of_u(self):
        rep = build_rep(1, 0, 5)
        assert matrix_determinant(rep.generators[0]) == LaurentPoly.monomial(20)
        with pytest.raises(DeterminantNotUnitSignError):
            rep_determinant_sign(rep)

    def test_generators_invertible_over_laurent(self, rep6):
        for g in rep6.generators:
            assert g * matrix_inverse(g) == SquareMatrix.identity(5)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            build_rep(0, -4, 5)


class TestValidate:
    def test_full_validation_passes(self, rep6):
        report = validate_representation(rep6)
        assert report.passed
        assert len(report.checks) == 18  # determinant gate + 17 relations
        assert report.checks[0].name.startswith("determinant")

    def test_validation_catches_scaling(self, rep6):
        gens = list(rep6.generators)
        gens[2] = gens[2].map_entries(lambda p: p * U)
        broken = type(rep6)(
            dim=5, generators=tuple(gens), normalization=None, provenance="constructed"
        )
        report = validate_representation(broken)
        assert not report.passed


class TestSearch:
    def test_finds_canonical_normalization(self):
        rep = search_valid_rep()
        assert rep.normalization == Normalization(1, -4, 5)
        assert validate_representation(rep).passed

    def test_negative_eta_also_satisfies_presentation(self):
        rep = search_valid_rep(eta_candidates=(-1,))
        assert rep.normalization == Normalization(-1, -4, 5)

    def test_exhaustion_records_every_candidate(self):
        with pytest.raises(SearchExhaustedError) as info:
            search_valid_rep(m_values=range(1, 5))
        failures = info.value.failures
        assert len(failures) == 2 * 4 * 9
        assert all(len(rec) == 4 for rec in failures)

    def test_small_window_exhausts(self):
        with pytest.raises(SearchExhaustedError):
            search_valid_rep(eta_candidates=(1,), a_values=(0,), m_values=(5,))


class TestDocuments:
    def test_round_trip(self, rep6):
        doc = rep_to_document(rep6)
        text = json.dumps(doc, sort_keys=True)
        loaded = rep_from_document(json.loads(text))
        assert loaded.generators == rep6.generators
        assert loaded.dim == rep6.dim
        assert loaded.normalization == rep6.normalization
        assert loaded.provenance == "loaded"

    def test_rejects_wrong_keys(self, rep6):
        doc = rep_to_document(rep6)
        doc.pop("variable")
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        with pytest.raises(SchemaError):
            rep_from_document([])

    def test_rejects_malformed_entries(self, rep6):
        doc = rep_to_document(rep6)
        doc["generators"][0][0][0] = [[0, 1]]  # int coefficient, must be str
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["generators"][0][0][0] = [[0, "1"], [0, "2"]]  # duplicate exponent
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["generators"][0][0][0] = [[True, "1"]]
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["dim"] = True
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["variable"] = "q"
        with pytest.raises(SchemaError):
            rep_from_document(doc)

    def test_rejects_bad_normalization(self, rep6):
        doc = rep_to_document(rep6)
        doc["normalization"]["eta"] = 2
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["normalization"] = {"eta": 1, "a": -4}
        with pytest.raises(SchemaError):
            rep_from_document(doc)
        doc = rep_to_document(rep6)
        doc["normalization"] = None
        assert rep_from_document(doc).normalization is None

    def test_loader_revalidates_the_math(self, rep6):
        # a perturbed but schema-valid document must fail invariants
        doc = rep_to_document(rep6)
        entry = doc["generators"][0][0][1]
        entry.append([99, "1"])
        with pytest.raises((RelationFailureError, DeterminantNotUnitSignError)):
            rep_from_document(doc)

    def test_loader_rejects_scaled_generators(self, rep6):
        doc = rep_to_document(rep6)
        scaled = build_rep(1, -3, 5)  # determinant u^5, not a sign
        doc["generators"] = rep_to_document(scaled)["generators"]
        with pytest.raises(DeterminantNotUnitSignError):
            rep_from_document(doc)


class TestLoaderRelations:
    """The loader enforces the determinant gate, then the whole relation table."""

    def test_identical_shears_fail_the_chain(self, shear_document):
        with pytest.raises(RelationFailureError) as info:
            rep_from_document(shear_document)
        assert info.value.relation == "chain (c1 c2 c3 c4 c5)^6 = 1"

    def test_permuted_generators_fail_a_table_relation(self, rep6):
        doc = rep_to_document(rep6)
        gens = doc["generators"]
        doc["generators"] = [gens[1], gens[0]] + gens[2:]
        with pytest.raises(RelationFailureError) as info:
            rep_from_document(doc)
        assert info.value.relation in {name for name, _, _ in RELATIONS}
        # c2 c1 c2 = c1 c2 c1 still holds; c1 and c3 commute, so braiding them fails
        assert info.value.relation == "braid c2 c3"

    def test_determinant_gate_runs_before_the_relations(self, shear_document):
        doc = shear_document
        doc["generators"][4] = rep_to_document(build_rep(1, -3, 5))["generators"][4]
        with pytest.raises(DeterminantNotUnitSignError):
            rep_from_document(doc)
