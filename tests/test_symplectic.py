"""Homology action: transvections, the symplectic form, Torelli detection."""

import random

import pytest

from g2jones import (
    MCGWord,
    analyze,
    check_bracket,
    check_delta_additivity,
    check_equivariance,
    is_torelli,
    parse_word,
    symplectic_generators,
    symplectic_image,
)
from g2jones import symplectic
from g2jones.errors import IndexRangeError
from g2jones.matrices import SquareMatrix, matrix_determinant
from g2jones.presentation import chain_word, hyperelliptic_word
from g2jones.symplectic import (
    CHAIN_CLASSES,
    INTERSECTION_FORM,
    intersection,
    is_symplectic,
    symplectic_generator,
    transvection,
)


def rand_word(rng, length=8):
    w = MCGWord.identity()
    for _ in range(rng.randint(0, length)):
        w = w * MCGWord.generator(rng.randint(1, 5), rng.choice((-2, -1, 1, 2)))
    return w


def test_form_is_antisymmetric_and_unimodular():
    assert INTERSECTION_FORM.transpose() == -INTERSECTION_FORM
    assert matrix_determinant(INTERSECTION_FORM) == 1
    x, y = (1, 2, 3, 4), (0, 1, 0, -1)
    assert intersection(x, y) == -intersection(y, x)
    assert intersection(x, x) == 0


def test_chain_classes_pair_like_a_chain():
    # consecutive curves meet once, distant curves are disjoint
    for i in range(5):
        for j in range(5):
            pairing = intersection(CHAIN_CLASSES[i], CHAIN_CLASSES[j])
            if abs(i - j) == 1:
                assert pairing in (1, -1)
            else:
                assert pairing == 0


def test_generators_are_symplectic():
    for g in symplectic_generators():
        assert is_symplectic(g)
        assert matrix_determinant(g) == 1


def test_transvection_fixes_its_vector():
    for v in CHAIN_CLASSES:
        t = transvection(v)
        image = tuple(
            sum(t.entry(i, j) * v[j] for j in range(4)) for i in range(4)
        )
        assert image == v


def test_generator_index_range():
    with pytest.raises(IndexRangeError):
        symplectic_generator(0)
    with pytest.raises(IndexRangeError):
        symplectic_generator(6)


def test_random_words_stay_symplectic():
    rng = random.Random(20260109)
    for _ in range(50):
        m = symplectic_image(rand_word(rng))
        assert is_symplectic(m)
        assert matrix_determinant(m) == 1


def test_braid_and_commutation_hold_on_homology():
    g = [None] + list(symplectic_generators())
    for i in range(1, 5):
        assert g[i] * g[i + 1] * g[i] == g[i + 1] * g[i] * g[i + 1]
    for i in range(1, 6):
        for j in range(i + 2, 6):
            assert g[i] * g[j] == g[j] * g[i]


def test_chain_and_hyperelliptic_words():
    assert symplectic_image(chain_word() ** 6) == SquareMatrix.identity(4)
    assert symplectic_image(hyperelliptic_word()) == -SquareMatrix.identity(4)
    assert symplectic_image(hyperelliptic_word() ** 2) == SquareMatrix.identity(4)


def test_torelli_membership():
    assert is_torelli(MCGWord.identity())
    assert is_torelli(parse_word("(c1 c2)^6"))
    assert is_torelli(parse_word("[(c1 c2)^6, (c2 c3)^6]"))
    assert not is_torelli(parse_word("c1"))
    assert not is_torelli(parse_word("c1 c2^-1"))
    assert not is_torelli(hyperelliptic_word())


def test_torelli_is_closed_under_conjugation_and_inverse():
    rng = random.Random(20260110)
    base = parse_word("(c3 c4)^6")
    assert is_torelli(base)
    assert is_torelli(base.inverse())
    for _ in range(20):
        g = rand_word(rng, 5)
        assert is_torelli(g * base * g.inverse())


def test_catalog_words_act_trivially(catalog):
    # exponent sums are even: the Torelli image in the Z/10 abelianization
    # is the even subgroup
    for _, word in catalog:
        assert is_torelli(word)
        assert word.exponent_sum() % 2 == 0


def test_torelli_memo_bound():
    assert is_torelli.cache_info().maxsize == 16


def test_one_symplectic_product_per_word(rep6, monkeypatch):
    # analyze at both signs, then each calculus check at both signs: the
    # products x * y and [x, y] are read, not analyzed, so three words
    products = []
    image = symplectic.symplectic_image

    def counting(word):
        products.append(word)
        return image(word)

    monkeypatch.setattr(symplectic, "symplectic_image", counting)
    is_torelli.cache_clear()
    x, y, g = parse_word("(c1 c2)^6"), parse_word("(c2 c3)^6"), parse_word("c3")
    for eps in (1, -1):
        analyze(rep6, x, eps)
        analyze(rep6, y, eps)
    for eps in (1, -1):
        assert check_delta_additivity(rep6, x, y, eps)
        assert check_bracket(rep6, x, y, eps)
        assert check_equivariance(rep6, g, y, eps)
    assert products == [x, y, g * y * g.inverse()]
