"""Degree-0 image group and isotypic decomposition of the conjugation module.

Multiplicities come out of two independent pipelines: character inner
products (never touches a 25x25 matrix) and ranks of group-averaged
projectors (never computes an inner product).  Both are asserted here,
against each other and against the expected decomposition.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2jones import (
    CharacterTable,
    ConjugationModule,
    SquareMatrix,
    build_rep,
    decompose_conjugation_module,
    isotypic_projector,
    project_trivial,
)
from g2jones.errors import GroupClosureError, NotInvolutiveError, RelationFailureError
from g2jones.isotypic import (
    _compose,
    _invert,
    _pack,
    _slot_width,
    _unpack,
    class_representative,
    cycle_type,
    degree0_generators,
    group_closure,
    permutation_matrix_image,
    verify_coxeter,
)
from g2jones.matrices import matrix_inverse

EXPECTED_MULTS = {(6,): 1, (4, 2): 1, (2, 2, 2): 1, (3, 1, 1, 1): 1}
EXPECTED_RANKS = {(6,): 1, (4, 2): 9, (2, 2, 2): 5, (3, 1, 1, 1): 10}


@pytest.fixture(scope="module")
def mod_plus(rep6):
    return ConjugationModule.from_rep(rep6, 1)


@pytest.fixture(scope="module")
def mod_minus(rep6):
    return ConjugationModule.from_rep(rep6, -1)


def vec(matrix):
    return [x for row in matrix.entries for x in row]


def unvec(values, dim=5):
    return SquareMatrix(tuple(
        tuple(values[dim * i + j] for j in range(dim)) for i in range(dim)
    ))


def dense_class_sums(module):
    """Reference class sums: kron(g, (g^-1)^T) accumulated entry by entry."""
    dim = module.dim
    size = dim * dim
    sums = {mu: [[0] * size for _ in range(size)] for mu in module.table.partitions}
    for sigma, matrix in module.image.items():
        inverse = module.image[_invert(sigma)]
        acc = sums[cycle_type(sigma)]
        g = matrix.entries
        ginv_t = tuple(zip(*inverse.entries))
        for i in range(dim):
            for j in range(dim):
                gij = g[i][j]
                if not gij:
                    continue
                for k in range(dim):
                    row = acc[dim * i + k]
                    gt_row = ginv_t[k]
                    for l in range(dim):
                        row[dim * j + l] += gij * gt_row[l]
    return {mu: SquareMatrix.from_rows(rows) for mu, rows in sums.items()}


def conjugated_generators(rep6):
    """Degree-0 generators conjugated by a unimodular integer matrix.

    Still a faithful image of S6, with entries well outside {-1, 0, 1}.
    """
    p = SquareMatrix.from_rows([
        [1, 2, 0, -1, 0],
        [0, 1, 3, 0, 0],
        [0, 0, 1, 2, -1],
        [0, 0, 0, 1, 2],
        [0, 0, 0, 0, 1],
    ])
    p_inv = matrix_inverse(p)
    return tuple(p * g * p_inv for g in degree0_generators(rep6, 1))


def apply_operator(op, matrix):
    v = vec(matrix)
    return unvec([
        sum(op.entry(r, c) * v[c] for c in range(len(v))) for r in range(len(v))
    ])


class TestPermutations:
    def test_cycle_type(self):
        assert cycle_type(tuple(range(6))) == (1,) * 6
        assert cycle_type((1, 0, 2, 3, 4, 5)) == (2, 1, 1, 1, 1)
        assert cycle_type((1, 2, 3, 4, 5, 0)) == (6,)

    def test_class_representatives_hit_every_type(self, mod_plus):
        for mu in mod_plus.table.partitions:
            assert cycle_type(class_representative(mu)) == mu

    def test_compose_and_invert(self):
        rng = random.Random(20260111)
        e = tuple(range(6))
        for _ in range(50):
            sigma = tuple(rng.sample(range(6), 6))
            tau = tuple(rng.sample(range(6), 6))
            assert _compose(sigma, _invert(sigma)) == e
            # (sigma tau)(x) = sigma(tau(x))
            composed = _compose(sigma, tau)
            assert all(composed[x] == sigma[tau[x]] for x in range(6))


class TestDegreeZeroGroup:
    def test_generators_are_involutions(self, rep6):
        for eps in (1, -1):
            gens = degree0_generators(rep6, eps)
            assert len(gens) == 5
            for g in gens:
                assert g != SquareMatrix.identity(5)
                assert g * g == SquareMatrix.identity(5)
                assert all(isinstance(x, int) for row in g.entries for x in row)
            verify_coxeter(gens)

    def test_closure_order(self, mod_plus, mod_minus):
        assert mod_plus.order == 720
        assert mod_minus.order == 720

    def test_image_is_a_homomorphism(self, mod_plus):
        rng = random.Random(20260112)
        perms = list(mod_plus.image)
        for _ in range(30):
            sigma, tau = rng.choice(perms), rng.choice(perms)
            assert mod_plus.image[_compose(sigma, tau)] == (
                mod_plus.image[sigma] * mod_plus.image[tau]
            )

    def test_permutation_matrix_image_agrees_with_closure(self, mod_plus):
        rng = random.Random(20260113)
        gens = mod_plus.generators
        assert permutation_matrix_image(tuple(range(6)), gens) == SquareMatrix.identity(5)
        for _ in range(25):
            sigma = tuple(rng.sample(range(6), 6))
            assert permutation_matrix_image(sigma, gens) == mod_plus.image[sigma]

    def test_scaled_generator_is_not_involutive(self, rep6):
        gens = degree0_generators(rep6, 1)
        with pytest.raises(NotInvolutiveError):
            verify_coxeter((2 * gens[0],) + gens[1:])

    def test_shuffled_generators_break_braid(self, rep6):
        g = degree0_generators(rep6, 1)
        with pytest.raises(RelationFailureError):
            verify_coxeter((g[0], g[2], g[1], g[3], g[4]))

    def test_sign_flip_is_caught_by_the_closure(self, rep6):
        # -g5 still squares to 1 but the braid with g4 fails
        g = degree0_generators(rep6, 1)
        bad = g[:4] + (-g[4],)
        with pytest.raises(RelationFailureError):
            group_closure(bad)

    def test_closure_cap(self, rep6):
        with pytest.raises(GroupClosureError):
            group_closure(degree0_generators(rep6, 1), cap=100)


class TestKernelOracles:
    """The closure and packed class sums against their slow references."""

    @pytest.mark.parametrize("rep_key,eps", [
        ("rep6", 1), ("rep6", -1), ("flipped", 1), ("flipped", -1),
    ])
    def test_closure_matches_permutation_images(self, rep6, rep_key, eps):
        rep = rep6 if rep_key == "rep6" else build_rep(-1, -4, 5)
        gens = degree0_generators(rep, eps)
        image = group_closure(gens)
        assert len(image) == 720
        for sigma, matrix in image.items():
            assert matrix == permutation_matrix_image(sigma, gens)

    def test_closure_with_large_entries(self, rep6):
        gens = conjugated_generators(rep6)
        assert max(abs(x) for g in gens for row in g.entries for x in row) > 1
        image = group_closure(gens)
        assert len(image) == 720
        for sigma, matrix in image.items():
            assert matrix == permutation_matrix_image(sigma, gens)

    @pytest.mark.parametrize("case", ["plus", "minus"])
    def test_packed_class_sums_match_dense(self, case, mod_plus, mod_minus):
        mod = mod_plus if case == "plus" else mod_minus
        assert mod.class_sums() == dense_class_sums(mod)

    def test_packed_class_sums_with_large_entries(self, rep6):
        mod = ConjugationModule(conjugated_generators(rep6), CharacterTable.build(6))
        assert mod.class_sums() == dense_class_sums(mod)

    @pytest.mark.parametrize("bound", [1, 2, 3, 720, 1023, 1024, 720 * 9, 2 ** 40 - 1])
    def test_pack_round_trip_at_the_slot_edge(self, bound):
        width = _slot_width(bound)
        edge = [bound, -bound, -bound, bound, 0, bound, -bound]
        assert _unpack(_pack(edge, width), width, len(edge)) == edge
        # the width is the least that holds +-bound
        narrow = width - 1
        assert _unpack(_pack(edge, narrow), narrow, len(edge)) != edge

    @given(st.lists(st.integers(-5000, 5000), min_size=1, max_size=30))
    def test_pack_round_trip(self, values):
        width = _slot_width(max(map(abs, values)))
        assert _unpack(_pack(values, width), width, len(values)) == values


class TestDecomposition:
    def test_trace_character_values(self, mod_plus):
        chi = mod_plus.trace_character()
        assert chi[(1,) * 6] == 5
        assert all(isinstance(v, int) for v in chi.values())
        # unit inner product: the 5-dim module is irreducible
        assert mod_plus.table.inner_product(chi) == 1

    def test_module_character_is_the_square(self, mod_plus):
        chi = mod_plus.trace_character()
        sq = mod_plus.module_character()
        assert sq == {mu: v * v for mu, v in chi.items()}
        assert sq[(1,) * 6] == 25

    @pytest.mark.parametrize("case", ["plus", "minus"])
    def test_multiplicities(self, case, mod_plus, mod_minus):
        mod = mod_plus if case == "plus" else mod_minus
        mults = mod.multiplicities()
        assert {lam: m for lam, m in mults.items() if m} == EXPECTED_MULTS
        assert sum(m * mod.table.dimension(lam) for lam, m in mults.items()) == 25

    def test_both_cases_and_both_signs_agree(self, rep6, mod_plus):
        assert decompose_conjugation_module(rep6, -1) == mod_plus.multiplicities()
        flipped = build_rep(-1, -4, 5)
        assert decompose_conjugation_module(flipped, 1) == mod_plus.multiplicities()

    @pytest.mark.parametrize("case", ["plus", "minus"])
    def test_projector_ranks(self, case, mod_plus, mod_minus):
        mod = mod_plus if case == "plus" else mod_minus
        for lam in mod.table.partitions:
            expected = EXPECTED_RANKS.get(lam, 0)
            assert mod.projector_rank(lam) == expected

    def test_rank_equals_multiplicity_times_dimension(self, mod_plus):
        mults = mod_plus.multiplicities()
        for lam in mod_plus.table.partitions:
            assert mod_plus.projector_rank(lam) == (
                mults[lam] * mod_plus.table.dimension(lam)
            )


class TestProjectors:
    def test_numerators_are_idempotent_up_to_scale(self, mod_plus):
        # P = (d/720) Q, P^2 = P  <=>  Q^2 = (720/d) Q over the integers
        for lam, d in ((6,), 1), ((4, 2), 9), ((2, 2, 2), 5), ((3, 1, 1, 1), 10):
            q = mod_plus.projector_numerator(lam)
            assert q * q == q.map_entries(lambda x: x * (720 // d))

    def test_distinct_projectors_annihilate_each_other(self, mod_plus):
        q1 = mod_plus.projector_numerator((6,))
        q2 = mod_plus.projector_numerator((4, 2))
        q3 = mod_plus.projector_numerator((5, 1))
        zero = SquareMatrix.zero(25)
        assert q1 * q2 == zero
        assert q2 * q1 == zero
        assert q1 * q3 == zero

    def test_projectors_sum_to_identity(self, mod_plus):
        total = SquareMatrix.zero(25)
        for lam in mod_plus.table.partitions:
            total = total + mod_plus.projector(lam)
        assert total == SquareMatrix.identity(25).map_entries(Fraction)

    def test_absent_component_has_zero_projector(self, mod_plus):
        assert mod_plus.projector((5, 1)) == SquareMatrix.zero(25).map_entries(Fraction)

    def test_trivial_projector_extracts_the_trace_part(self, mod_plus, rep6):
        rng = random.Random(20260114)
        p = mod_plus.projector((6,))
        assert p == isotypic_projector((6,), rep6, 1)
        for _ in range(10):
            m = SquareMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            )
            image = apply_operator(p, m)
            scalar = project_trivial(m)
            assert image == SquareMatrix.identity(5).map_entries(lambda x: x * scalar)

    def test_nontrivial_images_are_traceless(self, mod_plus):
        rng = random.Random(20260115)
        for lam in ((4, 2), (2, 2, 2), (3, 1, 1, 1)):
            p = mod_plus.projector(lam)
            for _ in range(5):
                m = SquareMatrix.from_rows(
                    [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
                )
                image = apply_operator(p, m)
                assert sum(image.entry(i, i) for i in range(5)) == 0

    def test_operators_commute_with_conjugation(self, mod_plus):
        # the projector is a module map: P(g m g^-1) = g P(m) g^-1
        rng = random.Random(20260116)
        p = mod_plus.projector((4, 2))
        perms = list(mod_plus.image)
        m = SquareMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(5)] for _ in range(5)]
        )
        for _ in range(5):
            sigma = rng.choice(perms)
            g = mod_plus.image[sigma]
            ginv = mod_plus.image[_invert(sigma)]
            assert apply_operator(p, g * m * ginv) == g * apply_operator(p, m) * ginv


class TestTrivialProjection:
    def test_examples(self):
        assert project_trivial(SquareMatrix.identity(5)) == 1
        traceless = SquareMatrix.from_rows([
            [1, 0, 0, 0, 0],
            [0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ])
        assert project_trivial(traceless) == 0

    def test_matches_trace_over_dimension(self):
        rng = random.Random(20260117)
        for _ in range(20):
            m = SquareMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            )
            trace = sum(m.entry(i, i) for i in range(4))
            assert project_trivial(m) == Fraction(trace, 4)
